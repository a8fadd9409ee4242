"""GridNPB 3.0 workflow traffic models (Helical Chain, Visualization
Pipeline, Mixed Bag).

"GridNPB is a set of grid benchmarks in a workflow style composition in
data flow graphs encapsulating an instance of a slightly modified NPB
task in each graph node, which communicates with other nodes by
sending/receiving initialization data" (paper Section 4.2; the
experiments combine HC + VP + MB at class S).

Each workflow is a DAG of tasks; a task starts when all its inputs have
arrived, computes, then streams its output to each successor through the
online layer. Compared to the ScaLapack model, communication is sparse —
which is why the paper sees smaller mapping gains for GridNPB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ...online.agent import Agent
from ...online.wrapsocket import WrapSocket
from .scalapack import AppRunStats

__all__ = [
    "WorkflowTask",
    "Workflow",
    "helical_chain",
    "visualization_pipeline",
    "mixed_bag",
    "GridNpbApp",
]

#: Class-S per-edge initialization data (bytes) per NPB solver type.
CLASS_S_BYTES = {"BT": 60_000, "SP": 50_000, "LU": 40_000, "MG": 80_000, "FT": 120_000}
#: Class-S compute time model (seconds) per solver type.
CLASS_S_COMPUTE_S = {"BT": 1.2, "SP": 1.0, "LU": 1.1, "MG": 0.6, "FT": 0.8}


@dataclass
class WorkflowTask:
    """One node of the dataflow graph."""

    task_id: int
    solver: str
    compute_s: float
    output_bytes: int
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)


@dataclass
class Workflow:
    """A dataflow DAG of :class:`WorkflowTask`."""

    name: str
    tasks: list[WorkflowTask]

    def add_edge(self, src: int, dst: int) -> None:
        """Add a dataflow edge ``src -> dst`` between task ids."""
        self.tasks[src].successors.append(dst)
        self.tasks[dst].predecessors.append(src)

    @property
    def sources(self) -> list[int]:
        """Tasks with no predecessors (started immediately)."""
        return [t.task_id for t in self.tasks if not t.predecessors]

    def validate_acyclic(self) -> None:
        """Raise ``ValueError`` if the dataflow graph has a cycle."""
        state = [0] * len(self.tasks)  # 0 unseen, 1 in stack, 2 done

        def visit(v: int) -> None:
            if state[v] == 1:
                raise ValueError(f"workflow {self.name} has a cycle at task {v}")
            if state[v] == 2:
                return
            state[v] = 1
            for s in self.tasks[v].successors:
                visit(s)
            state[v] = 2

        for t in self.tasks:
            visit(t.task_id)


def _task(tid: int, solver: str, scale: float) -> WorkflowTask:
    return WorkflowTask(
        task_id=tid,
        solver=solver,
        compute_s=CLASS_S_COMPUTE_S[solver] * scale,
        output_bytes=max(1_000, int(CLASS_S_BYTES[solver] * scale)),
    )


def helical_chain(rounds: int = 3, scale: float = 1.0) -> Workflow:
    """HC: a chain of BT -> SP -> LU repeated ``rounds`` times."""
    solvers = ["BT", "SP", "LU"] * rounds
    wf = Workflow("HC", [_task(i, s, scale) for i, s in enumerate(solvers)])
    for i in range(len(solvers) - 1):
        wf.add_edge(i, i + 1)
    return wf


def visualization_pipeline(width: int = 3, depth: int = 3, scale: float = 1.0) -> Workflow:
    """VP: ``width`` parallel BT -> MG -> FT pipelines; FT stages feed the
    next round's BT (visualization loop unrolled to a DAG of ``depth``)."""
    stage_solvers = ["BT", "MG", "FT"]
    tasks: list[WorkflowTask] = []
    grid: list[list[int]] = []
    tid = 0
    for d in range(depth):
        row = []
        for w in range(width):
            tasks.append(_task(tid, stage_solvers[d % 3], scale))
            row.append(tid)
            tid += 1
        grid.append(row)
    wf = Workflow("VP", tasks)
    for d in range(depth - 1):
        for w in range(width):
            wf.add_edge(grid[d][w], grid[d + 1][w])
        # Pipelines couple at stage boundaries (the visualization merge).
        wf.add_edge(grid[d][width - 1], grid[d + 1][0])
    return wf


def mixed_bag(scale: float = 1.0, seed: int = 0) -> Workflow:
    """MB: irregular fan-out/fan-in of LU/MG/FT with uneven task sizes."""
    import numpy as np

    rng = np.random.default_rng(seed)
    solvers = ["LU", "MG", "FT", "LU", "MG", "FT", "LU", "MG", "FT"]
    # Uneven scaling is the point of Mixed Bag.
    factors = rng.uniform(0.5, 2.0, size=len(solvers))
    wf = Workflow("MB", [_task(i, s, scale * f) for i, (s, f) in enumerate(zip(solvers, factors))])
    # Layered irregular DAG: 3 layers of 3, dense-ish connections.
    layers = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    for a, b in [(0, 3), (0, 4), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (4, 7), (5, 8), (4, 8)]:
        wf.add_edge(a, b)
    del layers
    return wf


class GridNpbApp:
    """Execute a workflow's dataflow over the online layer.

    Tasks are placed round-robin on the given hosts (the paper's app nodes
    are assigned by the launcher). A task fires when all predecessor
    transfers complete, computes, then streams its output to successors.
    """

    def __init__(
        self,
        agent: Agent,
        hosts: list[int],
        workflow: Workflow,
        on_finish=None,
        name: str | None = None,
    ) -> None:
        if not hosts:
            raise ValueError("need at least one host")
        workflow.validate_acyclic()
        self.agent = agent
        self.workflow = workflow
        self.hosts = list(hosts)
        self.on_finish = on_finish
        self.stats = AppRunStats()
        self.placement = {
            t.task_id: self.hosts[t.task_id % len(self.hosts)] for t in workflow.tasks
        }
        label = name or workflow.name
        self.sockets = {
            t.task_id: WrapSocket(
                agent,
                self.placement[t.task_id],
                real_endpoint=f"{label}-task{t.task_id}@node{self.placement[t.task_id]}",
            )
            for t in workflow.tasks
        }
        self._inputs_pending = {
            t.task_id: len(t.predecessors) for t in workflow.tasks
        }
        self._tasks_remaining = len(workflow.tasks)

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Launch every source task at simulated time ``at``."""
        delay = max(0.0, at - self.agent.now)
        # Bound-method + args dispatch throughout: payloads stay
        # statically picklable for the future LP boundary (simlint SIM203).
        for tid in self.workflow.sources:
            self.agent.schedule(
                delay, self._run_task, node=self.placement[tid], args=(tid,)
            )

    def _run_task(self, tid: int) -> None:
        task = self.workflow.tasks[tid]
        self.agent.schedule(
            task.compute_s,
            self._task_computed,
            node=self.placement[tid],
            args=(tid,),
        )

    def _task_computed(self, tid: int) -> None:
        task = self.workflow.tasks[tid]
        self.stats.iterations_completed += 1
        self._tasks_remaining -= 1
        if not task.successors:
            if self._tasks_remaining == 0:
                self.stats.finished_at = self.agent.now
                if self.on_finish is not None:
                    self.on_finish(self.agent.now)
            return
        sock = self.sockets[tid]
        for succ in task.successors:
            dst = self.placement[succ]
            sock.connect_node(dst)
            self.stats.transfers += 1
            self.stats.bytes_sent += task.output_bytes
            # Receiver-side callback: the successor's readiness update and
            # eventual compute run on the LP owning the successor's host.
            sock.send(
                task.output_bytes,
                on_received=partial(self._input_arrived, succ),
            )

    def _input_arrived(self, tid: int, _t: float = 0.0) -> None:
        self._inputs_pending[tid] -= 1
        if self._inputs_pending[tid] == 0:
            self._run_task(tid)
