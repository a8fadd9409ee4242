"""Replayable scenario builders for the multi-process backend.

A :class:`~repro.engine.parallel.ScenarioSpec` names a module-level
builder function here; every worker process replays the builder
identically and keeps only the events of the LPs it owns (see
:mod:`repro.engine.parallel`). Builders therefore must be deterministic
pure functions of their ``params`` — seeded RNGs only, no ambient
state — and everything they put in ``params`` or return from
``collect()`` crosses a process boundary through
:mod:`repro.serialization`, so it must pickle.

Two scenarios live here:

- :func:`build_chain_scenario` — the differential-determinism chain
  workload (optionally with a fault schedule), byte-compared across
  1/2/4 worker processes and against the single-process engines.
- :func:`build_udp_scenario` — seeded UDP background traffic over a
  generated topology, the executed-parallelism experiment and bench
  workload.

Only *packet-mediated* workloads shard. No simulation state is
process-wide (listeners live on the :class:`~repro.online.Agent`, flow
ids on the simulator, the event sequence on the engine), but the online
layer and its applications (HTTP, ScaLAPACK, GridNPB) hand closures to
the scheduler — ``on_complete`` callbacks, nested lambdas — and a
closure has no wire name to cross a shard boundary or a checkpoint
under: the registered-callback obstacle of the BGP distributed-simulation
feasibility study (PAPERS.md), and what is left of ROADMAP item 2.
Executed multi-process runs use the UDP scenario; modeled runs keep the
full application mix.

The classes here own no simulation state: they compose the
``capture()`` / ``restore()`` of the objects that do (the ``LinkTable``,
the ``NetworkSimulator``, the ``FaultInjector``), so a field one of those
declares dynamic is in every checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..engine.parallel import ScenarioSpec, ShardEngine, ShardScenario
from ..engine.parallel.shard import _resolve_builder
from ..faults import FaultInjector, FaultSchedule
from ..netsim.link import FAULT, RED
from ..netsim.packet import Packet, Protocol
from ..netsim.simulator import NetworkSimulator
from ..obs.trace import TraceBuffer
from ..routing.bgp.session import BgpSessionManager
from ..routing.fib import ForwardingPlane
from ..serialization import network_from_dict, network_to_dict
from ..topology.models import Network, NodeKind

__all__ = [
    "DeliveryRecorder",
    "LpStatePort",
    "ShardCheckpointPort",
    "ShardCollector",
    "build_chain_scenario",
    "build_udp_scenario",
    "chain_spec",
    "udp_spec",
    "run_reference",
    "merge_collected",
    "delivery_log_bytes",
]


class DeliveryRecorder:
    """Shadow ``sim._deliver`` with an execution-cursor-tagged log.

    Each record is ``(epoch, lane, time, node, flow_id, seq)``; the
    leading cursor pair is what lets per-shard logs merge into the exact
    single-process order (stable sort on the cursor — each ``(epoch,
    lane)`` phase executes wholly on one shard, in recorded order).
    """

    def __init__(self, sim: NetworkSimulator, engine: ShardEngine) -> None:
        self.sim = sim
        self.engine = engine
        self.inner = sim._deliver
        self.records: list[tuple[int, int, float, int, int, int]] = []
        sim._deliver = self.record

    def record(self, node: int, packet: Packet) -> None:
        """The recording wrapper installed over ``sim._deliver``."""
        epoch, lane = self.engine.execution_cursor
        self.records.append(
            (epoch, lane, round(self.sim.now, 12), node, packet.flow_id, packet.seq)
        )
        self.inner(node, packet)


#: what an LP with no link takes along: no end, no stream
_NOTHING: tuple[list[int], frozenset[int]] = ([], frozenset())


class LpStatePort:
    """``capture_lp`` / ``restore_lp`` hooks for the packet scenarios.

    What moves with an LP is :meth:`LinkTable.capture_lp`: the busy
    horizons of the link ends it transmits from — end ``2 * link + d``
    belongs to the LP of the endpoint direction ``d`` leaves from — and
    the RED / fault streams of links *both* of whose endpoints live on
    the LP, drawn exclusively by the LP's events, so the adopting shard
    must resume them mid-stream. Counters never migrate: they are
    partial sums that merge by summation across shards regardless of
    where the LP finishes the run. Link indices align across shards
    because construction is replayed identically everywhere.

    The assignment and the links are static, so which ends and streams
    an LP takes along is worked out once here.
    """

    def __init__(self, sim: NetworkSimulator, assignment: Any) -> None:
        self.table = sim.link_table
        lp_of = np.asarray(assignment, dtype=np.int64).tolist()
        ends: dict[int, list[int]] = {}
        keys: dict[int, set[int]] = {}
        for i, link in enumerate(self.table.links):
            lp_u, lp_v = lp_of[link.u], lp_of[link.v]
            ends.setdefault(lp_u, []).append(2 * i)
            ends.setdefault(lp_v, []).append(2 * i + 1)
            if lp_u == lp_v:
                keys.setdefault(lp_u, set()).update((2 * i + RED, 2 * i + FAULT))
        #: lp -> (the link ends it transmits from, in link order; the
        #: stream keys of the links it owns both ends of)
        self.takes = {lp: (e, frozenset(keys.get(lp, ()))) for lp, e in ends.items()}

    def capture(self, lp: int) -> dict[str, Any]:
        """The state ``lp`` takes along."""
        return self.table.capture_lp(*self.takes.get(lp, _NOTHING))

    def restore(self, lp: int, state: dict[str, Any]) -> None:
        """Apply a :meth:`capture` blob on the adopting shard."""
        self.table.restore_lp(*self.takes.get(lp, _NOTHING), state)


@dataclass(eq=False)
class ShardCheckpointPort:
    """``capture_shard`` / ``restore_shard`` hooks for barrier checkpoints.

    A checkpoint restores a shard to *exactly* its own partial view at a
    barrier, so it is every owner's whole capture side by side: the
    simulator's (its link table's columns — busy horizons, partial
    counters, fault flags — and created streams), the fault injector's,
    its BGP session manager's (session FSMs and the RIBs a reset left),
    and the two logs this module keeps per shard, deliveries and the
    fault trace. Restore
    happens over a freshly rebuilt scenario (setup replayed from the
    spec); pending events are the engine's to restore.
    """

    sim: NetworkSimulator
    recorder: DeliveryRecorder
    injector: FaultInjector | None = None
    tracer: TraceBuffer | None = None

    def capture(self) -> dict[str, Any]:
        """Picklable blob of the whole shard's dynamic scenario state.

        Deterministic — every owner's capture is canonical — so the same
        shard state always encodes to the same bytes (the
        digest-stability contract of ``tests/test_checkpoint_roundtrip.py``).
        """
        faulted = self.injector is not None
        sessions = self.injector.sessions if faulted else None
        return {
            "sim": self.sim.capture(),
            "log": list(self.recorder.records),
            "injector": self.injector.capture() if faulted else None,
            "sessions": sessions.capture() if sessions is not None else None,
            "faults": list(self.tracer.faults) if faulted else None,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Apply a :meth:`capture` blob over a freshly rebuilt scenario."""
        self.sim.restore(state["sim"])
        self.recorder.records[:] = state["log"]
        if self.injector is not None:
            if self.injector.sessions is not None:
                self.injector.sessions.restore(state["sessions"])
            self.injector.restore(state["injector"])
            self.tracer.faults.clear()
            self.tracer.faults.extend(state["faults"])


@dataclass(eq=False)
class ShardCollector:
    """Bound-method ``collect()`` target assembling one shard's results.

    Traffic counters, per-node packet counts, and link-loss totals are
    *partial* on a shard (each event executes on exactly one owner) and
    sum across shards; fault data is reported by the control shard only
    (replica replays apply the same mutations but their records are
    copies, not new ground truth).
    """

    engine: ShardEngine
    sim: NetworkSimulator
    recorder: DeliveryRecorder
    injector: FaultInjector | None = None
    tracer: TraceBuffer | None = None

    def collect(self) -> dict[str, Any]:
        """Picklable per-shard result for the controller to merge."""
        out: dict[str, Any] = {
            "log": list(self.recorder.records),
            "counters": self.sim.counters.as_dict(),
            "node_packets": self.sim.node_packets.tolist(),
            "dropped_fault": int(self.sim.dropped_fault),
            "link_lost": self.sim.link_lost().tolist(),
            "events_executed": int(self.engine.events_executed),
        }
        if self.engine.has_control and self.injector is not None:
            out["faults"] = list(self.tracer.faults) if self.tracer else []
            out["fault_counts"] = self.injector.counts.as_dict()
            out["schedule_digest"] = self.injector.schedule.digest()
        return out


# ----------------------------------------------------------------------
# Builders (module-level, resolved by name inside worker processes)
# ----------------------------------------------------------------------
def _install_faults(
    engine: ShardEngine, sim: NetworkSimulator, fib: ForwardingPlane, params: dict
) -> tuple[FaultInjector | None, TraceBuffer | None]:
    events = params.get("faults")
    if not events:
        return None, None
    # A multi-AS plane carries BGP: session resets run on the control
    # lane, which every shard replays, so each keeps its RIBs in step.
    sessions = None
    if fib.bgp is not None:
        sessions = BgpSessionManager(fib.bgp, engine, seed=int(params.get("seed", 0)))
    injector = FaultInjector(
        sim, fib, FaultSchedule.from_events(list(events)), sessions=sessions
    )
    # Private per-shard trace buffer: the process-global tracer would
    # interleave replica replays when several shards share one process
    # (LocalShardGroup); rebinding the injector's sink keeps each
    # shard's fault story separate. Only the control shard reports it.
    tracer = TraceBuffer(enabled=True)
    injector._trace = tracer
    injector.install(engine)
    return injector, tracer


def _scenario(
    engine: ShardEngine,
    sim: NetworkSimulator,
    recorder: DeliveryRecorder,
    injector: FaultInjector | None,
    tracer: TraceBuffer | None,
    extra_handlers: dict[str, Any],
) -> ShardScenario:
    """The shared tail of both builders: wire names and the five hooks."""
    handlers = {"handle_at": sim._handle_at, "inject": sim.inject, **extra_handlers}
    if injector is not None:
        # Pending fault applications and session retries must survive
        # mail and a checkpoint round trip, so each needs a wire name.
        handlers["fault_apply"] = injector._apply
        if injector.sessions is not None:
            handlers["bgp_attempt"] = injector.sessions._attempt
    port = LpStatePort(sim, engine.assignment)
    ckpt = ShardCheckpointPort(sim, recorder, injector, tracer)
    return ShardScenario(
        handlers=handlers,
        collect=ShardCollector(engine, sim, recorder, injector, tracer).collect,
        capture_lp=port.capture,
        restore_lp=port.restore,
        capture_shard=ckpt.capture,
        restore_shard=ckpt.restore,
    )


def build_chain_scenario(engine: ShardEngine, params: dict) -> ShardScenario:
    """The differential-determinism chain workload, shard-replayable.

    ``params``: ``num_nodes`` (chain length), ``latency_s`` (every hop;
    also the lookahead), ``packets``, ``seed``, ``inject_window_s``
    (injection time range), and optional ``faults`` (a list of
    :class:`FaultEvent`). Packets alternate end-to-end directions with
    explicit flow ids, exactly the workload
    ``tests/test_differential_determinism.py`` pins.
    """
    num_nodes = int(params["num_nodes"])
    latency_s = float(params["latency_s"])
    net = Network()
    for _ in range(num_nodes):
        net.add_node(NodeKind.ROUTER)
    for u in range(num_nodes - 1):
        net.add_link(u, u + 1, 1e9, latency_s, 1 << 26)
    fib = ForwardingPlane(net)
    sim = NetworkSimulator(net, fib, engine)
    recorder = DeliveryRecorder(sim, engine)
    injector, tracer = _install_faults(engine, sim, fib, params)
    rng = np.random.default_rng(int(params.get("seed", 7)))
    packets = int(params.get("packets", 40))
    window = float(params.get("inject_window_s", 0.01))
    times = np.sort(rng.uniform(0.0, window, size=packets)).tolist()
    for i, t in enumerate(times):
        src, dst = (0, num_nodes - 1) if i % 2 == 0 else (num_nodes - 1, 0)
        packet = Packet(
            src=src, dst=dst, size_bytes=1000, protocol=Protocol.UDP,
            flow_id=i, seq=i,
        )
        engine.schedule_at(t, sim.inject, node=src, args=(packet,))
    return _scenario(engine, sim, recorder, injector, tracer, {})


def build_udp_scenario(engine: ShardEngine, params: dict) -> ShardScenario:
    """Seeded UDP background traffic over a serialized topology.

    ``params``: ``network_doc`` (:func:`repro.serialization
    .network_to_dict` output — workers rebuild the identical topology
    without regenerating it), ``packets``, ``seed``, ``duration_s``,
    optional ``faults`` and ``record_deliveries`` (default True; large
    runs can drop the log and keep counters only).
    ``chain_injects`` switches from scheduling the whole trace upfront
    to per-node streaming (same draws, same traffic) so pending queues
    — and therefore live-migration payloads — stay O(in-flight).
    """
    net = network_from_dict(params["network_doc"])
    fib = ForwardingPlane(net)
    sim = NetworkSimulator(net, fib, engine)
    recorder = DeliveryRecorder(sim, engine)
    if not params.get("record_deliveries", True):
        sim._deliver = recorder.inner  # keep counters, skip the log
    injector, tracer = _install_faults(engine, sim, fib, params)
    rng = np.random.default_rng(int(params.get("seed", 0)))
    packets = int(params.get("packets", 500))
    duration_s = float(params["duration_s"])
    times = np.sort(rng.uniform(0.0, 0.8 * duration_s, size=packets))
    pairs = rng.integers(0, net.num_nodes, size=(packets, 2))

    def _packet(i: int) -> Packet:
        src = int(pairs[i, 0])
        dst = int(pairs[i, 1])
        if dst == src:
            dst = (src + 1) % net.num_nodes
        return Packet(
            src=src, dst=dst, size_bytes=1000, protocol=Protocol.UDP,
            flow_id=i, seq=i,
        )

    handlers = {}
    if params.get("chain_injects"):
        # Stream the offered load: each node's inject schedules that
        # node's next one, so pending queues hold O(in-flight) work
        # instead of the whole trace. Live LP migration drains the
        # queue into the payload, so chained injection is what keeps a
        # mid-run move (and its barrier pause) cheap. The traffic is
        # draw-for-draw identical to the upfront schedule below — only
        # the scheduling structure differs.
        by_node: dict[int, list[int]] = {}
        for i in range(packets):
            by_node.setdefault(int(pairs[i, 0]), []).append(i)

        def inject_next(src: int, k: int) -> None:
            idxs = by_node[src]
            sim.inject(_packet(idxs[k]))
            if k + 1 < len(idxs):
                engine.schedule_at(
                    float(times[idxs[k + 1]]), inject_next,
                    node=src, args=(src, k + 1),
                )

        handlers["inject_next"] = inject_next
        for src in sorted(by_node):
            engine.schedule_at(
                float(times[by_node[src][0]]), inject_next,
                node=src, args=(src, 0),
            )
    else:
        for i in range(packets):
            packet = _packet(i)
            engine.schedule_at(
                float(times[i]), sim.inject, node=packet.src, args=(packet,)
            )
    return _scenario(engine, sim, recorder, injector, tracer, handlers)


def chain_spec(
    num_nodes: int = 8,
    latency_s: float = 1e-4,
    packets: int = 40,
    seed: int = 7,
    faults: list | None = None,
) -> ScenarioSpec:
    """Spec for :func:`build_chain_scenario`."""
    params: dict[str, Any] = {
        "num_nodes": num_nodes,
        "latency_s": latency_s,
        "packets": packets,
        "seed": seed,
    }
    if faults:
        params["faults"] = list(faults)
    return ScenarioSpec(
        builder="repro.experiments.shard:build_chain_scenario", params=params
    )


def udp_spec(
    net: Network,
    duration_s: float,
    packets: int = 500,
    seed: int = 0,
    record_deliveries: bool = True,
    faults: list | None = None,
    chain_injects: bool = False,
) -> ScenarioSpec:
    """Spec for :func:`build_udp_scenario` over an already-built net."""
    params: dict[str, Any] = {
        "network_doc": network_to_dict(net),
        "duration_s": duration_s,
        "packets": packets,
        "seed": seed,
        "record_deliveries": record_deliveries,
    }
    if faults:
        params["faults"] = list(faults)
    if chain_injects:
        params["chain_injects"] = True
    return ScenarioSpec(
        builder="repro.experiments.shard:build_udp_scenario", params=params
    )


# ----------------------------------------------------------------------
# Reference execution and merging
# ----------------------------------------------------------------------
def run_reference(
    spec: ScenarioSpec,
    assignment,
    num_lps: int,
    lookahead: float,
    until: float,
    strict: bool = True,
) -> tuple[ShardEngine, dict[str, Any]]:
    """Run ``spec`` on the single-process conservative engine.

    The differential baseline: the same builder drives one
    :class:`ShardEngine` that owns every LP (so it is its own control
    shard and sends no mail) and the returned ``collect()`` dict is
    directly comparable to :func:`merge_collected` over a multi-process
    run.
    """
    engine = ShardEngine(assignment, num_lps, lookahead, strict=strict)
    scenario = _resolve_builder(spec.builder)(engine, spec.params)
    engine.run(until=until)
    collected = scenario.collect() if scenario.collect is not None else None
    return engine, collected


_SUMMED_KEYS = ("dropped_fault", "events_executed")
_CONTROL_KEYS = ("faults", "fault_counts", "schedule_digest")


def merge_collected(collected: list[dict[str, Any] | None]) -> dict[str, Any]:
    """Merge per-shard :class:`ShardCollector` dicts into reference shape.

    Logs concatenate and stable-sort on the execution cursor (exact
    single-process order — see :class:`DeliveryRecorder`); counters,
    per-node packets, link losses, and scalar counts sum; control-plane
    fields pass through from the (single) shard that reported them.
    """
    parts = [c for c in collected if c is not None]
    if not parts:
        raise ValueError("nothing to merge: no shard returned a collection")
    merged: dict[str, Any] = {}
    log: list[tuple] = []
    for part in parts:
        log.extend(tuple(rec) for rec in part["log"])
    log.sort(key=_cursor_key)
    merged["log"] = log
    counters: dict[str, int] = {}
    for part in parts:
        for key, value in sorted(part["counters"].items()):
            counters[key] = counters.get(key, 0) + int(value)
    merged["counters"] = counters
    node_packets = np.zeros(len(parts[0]["node_packets"]), dtype=np.int64)
    link_lost = np.zeros(len(parts[0]["link_lost"]), dtype=np.int64)
    for part in parts:
        node_packets += np.asarray(part["node_packets"], dtype=np.int64)
        link_lost += np.asarray(part["link_lost"], dtype=np.int64)
    merged["node_packets"] = node_packets.tolist()
    merged["link_lost"] = link_lost.tolist()
    for key in _SUMMED_KEYS:
        merged[key] = sum(int(part.get(key, 0)) for part in parts)
    for part in parts:
        for key in _CONTROL_KEYS:
            if key in part:
                merged[key] = part[key]
    return merged


def _cursor_key(record: tuple) -> tuple[int, int]:
    return (record[0], record[1])


def delivery_log_bytes(collected: dict[str, Any]) -> bytes:
    """Canonical byte encoding of a delivery log (cursor stripped).

    The cursor pair is an execution-side merge key, not an observable
    outcome, so byte comparisons cover ``(time, node, flow_id, seq)``
    only — the single-process engines tag a constant cursor and would
    otherwise trivially differ.
    """
    lines = [repr(rec[2:]).encode() for rec in collected["log"]]
    return b"\n".join(lines)
