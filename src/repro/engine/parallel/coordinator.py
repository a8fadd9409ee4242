"""The controller's barrier loop — written once, over any transport.

:class:`Coordinator` is one run of the barrier-window protocol seen from
the controller: a visible loop of named phases per window (collect
windows → plan migration → route mail → migration round → checkpoint
commit → record) and, on one object, all the placement and supervision
state the respawn → adopt → fail ladder needs. It talks to its workers
only through a :class:`~.transport.Transport`, so the executed
(:class:`ParallelConservativeEngine`) and in-process
(:class:`LocalShardGroup`) backends differ in nothing but the transport
they bind. The message × phase table is in docs/architecture.md.
"""

from __future__ import annotations

import time
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ...obs import names as obs_names
from ...obs.distributed import worker_obs_config
from ...obs.registry import Registry, get_registry
from ...obs.timers import Stopwatch
from ...obs.trace import TraceBuffer, get_tracer
from ..recovery import CheckpointStore, RecoveryExhaustedError, is_checkpoint_window
from ..windows import WindowStats, iter_windows, positive_lookahead
from .shard import (
    ScenarioSpec,
    WorkerCrashError,
    _expect,
    _ser,
    lp_assignment,
    shard_lps,
)
from .transport import InlineTransport, PipeTransport, Transport

__all__ = [
    "Coordinator",
    "LocalShardGroup",
    "ParallelConservativeEngine",
    "ParallelRunResult",
]


# ----------------------------------------------------------------------
# Controller-side reads
# ----------------------------------------------------------------------
#: The counts the controller keeps, read off a run (a backend's
#: ``last_run``): the window rows every shard's ``window`` message adds
#: to (workers never fill ``window_stats``) and, with their configs, the
#: rebalancer's and the recovery ladder's tallies.
_RUN_READS: dict[str, Callable[["Coordinator"], Any]] = {
    obs_names.ENGINE_WINDOWS: lambda run: run.recorded,
    obs_names.ENGINE_LP_EVENTS: lambda run: run.events[: run.recorded].sum(axis=0),
    obs_names.ENGINE_LP_REMOTE_SENDS: lambda run: run.remote[: run.recorded].sum(axis=0),
}
_REBALANCE_READS: dict[str, Callable[["Coordinator"], Any]] = {
    obs_names.REBALANCE_TRIGGERS: lambda run: run.rebalancer.triggers,
    obs_names.REBALANCE_CANDIDATES: lambda run: run.rebalancer.candidates_scored,
    obs_names.REBALANCE_MIGRATIONS: lambda run: len(run.migrations),
}
_RECOVERY_READS: dict[str, Callable[["Coordinator"], Any]] = {
    obs_names.RECOVERY_CHECKPOINTS: lambda run: run.store.checkpoints_taken,
    obs_names.RECOVERY_CHECKPOINT_BYTES: lambda run: run.store.checkpoint_bytes,
    obs_names.RECOVERY_DETECTIONS: lambda run: run.stats["detections"],
    obs_names.RECOVERY_RESPAWNS: lambda run: run.stats["respawns"],
    obs_names.RECOVERY_REPLAYED: lambda run: run.stats["windows_replayed"],
    obs_names.RECOVERY_ADOPTIONS: lambda run: run.stats["adoptions"],
}


def _build_rebalancer(config, shards, num_lps, spec, until):
    """Construct the controller-side :class:`Rebalancer` for one run.

    Fault slowdown spans come from the scenario spec's ``faults`` param
    (the same schedule the injector replays), so the modeled blame
    source sees straggler slowdowns without measuring anything.
    """
    from ...partition.rebalance import Rebalancer, slowdown_spans

    spans = ()
    params = getattr(spec, "params", None)
    faults = params.get("faults") if isinstance(params, dict) else None
    if faults:
        spans = slowdown_spans(faults, float(until))
    return Rebalancer(config, shards, num_lps, spans=spans)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ParallelRunResult:
    """Merged outcome of one multi-process (or local-group) run."""

    procs: int
    until: float
    lookahead: float
    #: contiguous LP split actually used, one list per shard
    shards: list[list[int]]
    #: per-window stats summed across shards (same shape the
    #: single-process engine records — cost-model ready)
    window_stats: list[WindowStats]
    events_executed: int
    lookahead_violations: int
    #: controller wall-clock for the whole run (build + windows)
    wall_s: float
    #: per-worker seconds spent blocked at barriers
    barrier_wait_s: list[float]
    #: per-worker serialized mail bytes sent
    mail_bytes: list[int]
    #: per-worker events executed
    worker_events: list[int]
    #: per-shard ``ShardScenario.collect()`` values
    collected: list[Any]
    #: each worker's shipped registry by shard id (empty when the run
    #: was unobserved)
    worker_registries: dict[int, Registry] = field(default_factory=dict)
    #: each worker's shipped tracer by shard id (empty when unobserved)
    worker_traces: dict[int, TraceBuffer] = field(default_factory=dict)
    #: accepted mid-run LP migrations, in decision order (empty unless
    #: the run was launched with a rebalance config); ``shards`` above
    #: reports the *final* placement after these moves
    migrations: list = field(default_factory=list)
    #: recovery summary (``None`` unless the run was launched with a
    #: recovery config): checkpoints taken/bytes, detections, respawns,
    #: windows replayed, degraded adoptions, last committed checkpoint
    #: window, and the shards that finished the run dead
    recovery: dict | None = None

    @property
    def total_mail_bytes(self) -> int:
        """Serialized cross-shard mail volume over the whole run."""
        return int(sum(self.mail_bytes))


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class Coordinator:
    """One run of the barrier protocol, controller side.

    ``backend`` is the configured public object (assignment, placement,
    rebalance/recovery configs); ``transport`` reaches the workers. All
    run state lives here, so a backend can be run again from scratch.
    """

    def __init__(self, backend, transport: Transport, spec: ScenarioSpec, until: float):
        self.backend = backend
        self.transport = transport
        self.spec = spec
        self.until = float(until)
        self.procs = procs = backend.procs
        self.num_lps = num_lps = backend.num_lps
        self.boundaries = list(iter_windows(0.0, backend.lookahead, until))
        #: per-window event / remote-send counts per LP, summed over the
        #: shards as their window messages arrive (cost-model ready)
        self.events = np.zeros((len(self.boundaries), num_lps), dtype=np.int64)
        self.remote = np.zeros_like(self.events)
        #: windows recorded so far (every phase of each one done)
        self.recorded = 0
        #: THE placement: LPs per shard, changed only by ``migration_round``
        #: and ``adopt``; the result is derived from it
        self.shards = [list(s) for s in backend.shards]
        #: the placement at the base a respawn replays from: the build,
        #: then each commit; worker configs are derived from it
        self.base = [list(s) for s in backend.shards]

        self.rebalancer = None
        self.migrations: list = []
        if backend.rebalance is not None:
            self.rebalancer = _build_rebalancer(
                backend.rebalance, backend.shards, num_lps, spec, until
            )

        # Supervision state of the respawn → adopt → fail ladder.
        rec = self.rec = backend.recovery
        self.mode = rec.on_worker_loss if rec is not None else "fail"
        self.store = CheckpointStore() if rec is not None else None
        #: per shard, every message sent to it since its base, and how
        #: many it has sent back: what a respawn or an adopter replays.
        #: Both restart at every commit; kept only with a recovery config.
        self.log: list[list[tuple]] = [[] for _ in range(procs)]
        self.seen = [0] * procs
        #: messages read from a shard (or said by its replica) and not yet
        #: taken by the phase that expects them
        self.inbox: list[deque] = [deque() for _ in range(procs)]
        self.committed = -1
        self.attempts = [0] * procs
        self.incarnations = [0] * procs
        self.dead = [False] * procs
        #: dead shard -> the survivor that adopted its LPs
        self.heirs: dict[int, int] = {}
        #: survivors still wait for a message: adoption is possible
        self.open = bool(self.boundaries)
        self.stats = dict(detections=0, respawns=0, windows_replayed=0, adoptions=0)
        #: stand-in ``done`` result of every adopted-away shard
        self.dead_results: dict[int, dict] = {}

    # -- placement -----------------------------------------------------
    def live(self) -> list[int]:
        """Shards that have not been adopted away."""
        return [s for s in range(self.procs) if not self.dead[s]]

    def owner(self, shard_id: int) -> int:
        """The live shard holding what ``shard_id`` held."""
        while self.dead[shard_id]:
            shard_id = self.heirs[shard_id]
        return shard_id

    def worker_config(self, shard_id: int, resume: dict | None = None) -> dict:
        """The config one (shard, incarnation) is built from."""
        backend = self.backend
        shard_of = [0] * self.num_lps
        for s, lps in enumerate(self.base):
            for lp in lps:
                shard_of[lp] = s
        config = {
            "assignment": backend.assignment,
            "num_lps": self.num_lps,
            "lookahead": backend.lookahead,
            "owned_lps": self.base[shard_id],
            "strict": backend.strict,
            "spec": self.spec,
            "shard_of": shard_of,
            "procs": self.procs,
            "until": self.until,
            "shard_id": shard_id,
            "obs": worker_obs_config() if self.transport.isolated else None,
            "rebalance": self.rebalancer is not None,
            "recovery": self.rec.stanza() if self.rec is not None else None,
        }
        if self.incarnations[shard_id]:
            config["incarnation"] = self.incarnations[shard_id]
        if resume is not None:
            config["resume"] = resume
        return config

    # -- messages --------------------------------------------------------
    def send(self, shard_id: int, msg: tuple) -> None:
        """Log and send; a lost endpoint surfaces at its next receive."""
        if self.rec is not None:
            self.log[shard_id].append(msg)
        try:
            self.transport.send(shard_id, msg)
        except WorkerCrashError:
            if self.mode == "fail":
                raise

    def recv(self, shard_id: int, tag: str, w: int) -> tuple | None:
        """The next ``tag`` message of ``shard_id``, recovering it as needed.

        Earlier messages of other kinds stay queued for their phase.
        ``None`` when the shard is adopted away with nothing left to say.
        """
        queue = self.inbox[shard_id]
        while True:
            for i, msg in enumerate(queue):
                if msg[0] == tag:
                    del queue[i]
                    _expect(msg, tag, w, f"worker {shard_id}")
                    return msg
            if self.dead[shard_id]:
                return None
            try:
                queue.append(self.transport.recv(shard_id))
            except WorkerCrashError as exc:
                self.on_loss(shard_id, exc, w)
                continue
            self.seen[shard_id] += 1

    # -- the loop ------------------------------------------------------
    def run(self) -> "ParallelRunResult":
        """Spawn the workers, drive every barrier, collect, tear down."""
        wall = Stopwatch()
        try:
            for shard_id in range(self.procs):
                self.transport.spawn(shard_id, self.worker_config(shard_id))
            for w, start, end in self.boundaries:
                self.run_window(w, start, end)
            results = self.collect_results()
        finally:
            self.transport.close()
        return self.assemble(results, wall.elapsed())

    def run_window(self, w: int, start: float, end: float) -> None:
        """One barrier: every phase of window ``w``, in wire order."""
        final = w == self.boundaries[-1][0]
        msgs = self.collect_windows(w)
        decision = self.plan_migration(w, start, end, msgs)
        self.route_mail(w, msgs, decision)
        self.open = not (final and decision is None)
        if decision is not None:
            self.migration_round(w, decision)
            self.open = not final
        if self.rec is not None and is_checkpoint_window(
            w, self.rec.checkpoint_every_n_windows
        ):
            self.commit_checkpoint(w)
        self.record_window(w)

    def collect_windows(self, w: int) -> dict[int, tuple]:
        """Every shard's ``window`` message for ``w`` (a dead one's, once,
        from its replica)."""
        msgs: dict[int, tuple] = {}
        for shard_id in range(self.procs):
            msg = self.recv(shard_id, "window", w)
            if msg is not None:
                msgs[shard_id] = msg
                self.events[w] += np.asarray(msg[3], dtype=np.int64)
                self.remote[w] += np.asarray(msg[4], dtype=np.int64)
        return msgs

    def plan_migration(self, w: int, start: float, end: float, msgs: dict):
        """Feed the rebalancer this window; returns its decision, if any.

        Only the controller decides — workers receive finished plans, so
        every process agrees on placement without extra synchronization.
        """
        rebalancer = self.rebalancer
        if rebalancer is None or rebalancer.retired:
            return None
        xshard_sum = np.sum([m[5] for m in msgs.values()], axis=0, dtype=np.int64)
        return rebalancer.observe_window(w, start, end, self.events[w], xshard_sum)

    def route_mail(self, w: int, msgs: dict, decision) -> None:
        """Answer every live shard with its inbound mail (and the plan).

        Destination ``j`` receives one payload per sender (empty from a
        shard adopted away before this window). What a sender addressed
        to a dead shard before it learned of the adoption goes to the
        shard's heir, which holds those LPs now.
        """
        live = self.live()
        inbound_by = {
            s: [msgs[src][2][s] if src in msgs else b"" for src in range(self.procs)]
            for s in live
        }
        for dead in sorted(self.heirs):
            for src in sorted(msgs):
                if msgs[src][2][dead]:
                    inbound_by[self.owner(dead)].append(msgs[src][2][dead])
        plan = None
        if decision is not None:
            plan = [(decision.lp, decision.src_shard, decision.dst_shard)]
        for shard_id in live:
            mail = ("mail", w, inbound_by[shard_id])
            if self.rebalancer is not None:
                mail += (plan,)
            self.send(shard_id, mail)

    def migration_round(self, w: int, decision) -> None:
        """Collect the released LP's payload and route it to its adopter.

        Payloads ride these control-plane messages only — never barrier
        mail.
        """
        outgoing: dict[int, bytes] = {}
        for shard_id in range(self.procs):
            msg = self.recv(shard_id, "migrate", w)
            if msg is not None:
                outgoing.update(msg[2])
        # Either end may have been adopted away during the round.
        self.shards[self.owner(decision.src_shard)].remove(decision.lp)
        dst = self.owner(decision.dst_shard)
        insort(self.shards[dst], decision.lp)
        for shard_id in self.live():
            install = outgoing if shard_id == dst else {}
            self.send(shard_id, ("install", w, install))
        self.migrations.append(decision)
        get_tracer().migration(
            decision.window_index, decision.lp, decision.src_shard, decision.dst_shard,
            decision.concentration, decision.predicted_gain_s,
            sum(len(b) for b in outgoing.values()),
        )

    def commit_checkpoint(self, w: int) -> None:
        """Transactional commit of window ``w``'s checkpoint round.

        The store advances only when every live shard's cut of this
        window arrives; an adoption during the round moves LPs after
        some cuts were taken, and the round is dropped. A commit is the
        new base: the logs restart.
        """
        adoptions = self.stats["adoptions"]
        got: dict[int, tuple[str, bytes]] = {}
        for shard_id in range(self.procs):
            msg = self.recv(shard_id, "ckpt", w)
            if msg is not None:
                got[shard_id] = (msg[2], msg[3])
        if self.stats["adoptions"] != adoptions:
            return
        for shard_id in sorted(got):
            digest, blob = got[shard_id]
            self.store.put(shard_id, w, digest, blob)
            get_tracer().recovery_step(w, shard_id, "checkpoint", nbytes=len(blob))
        self.committed = w
        self.base = [list(s) for s in self.shards]
        for shard_id in self.live():
            self.log[shard_id].clear()
            self.seen[shard_id] = 0

    def record_window(self, w: int) -> None:
        """Close window ``w``: its rows are final."""
        self.recorded = w + 1

    def collect_results(self) -> list[dict]:
        """Receive ``done`` from every live shard; one result per shard."""
        last_w = self.boundaries[-1][0] if self.boundaries else -1
        results = dict(self.dead_results)
        for shard_id in self.live():
            msg = self.recv(shard_id, "done", last_w)
            results[shard_id] = _ser().decode_payload(msg[2])
        return [results[s] for s in range(self.procs)]

    # -- supervision ---------------------------------------------------
    def on_loss(self, shard_id: int, exc: WorkerCrashError, w: int) -> None:
        """Respawn ``shard_id`` or escalate up the degradation ladder.

        ``w`` is the window whose barrier noticed the loss. A respawn
        replays the shard's log from its base; past ``max_respawns`` the
        ladder goes on to :meth:`adopt` (``on_worker_loss="adopt"``) or
        ends in :class:`RecoveryExhaustedError`; with no recovery config,
        or ``"fail"``, the original error is re-raised.
        """
        if self.mode == "fail":
            raise exc
        rec = self.rec
        self.stats["detections"] += 1
        get_tracer().recovery_step(
            w, shard_id, "detect",
            hung=bool(getattr(exc, "hung", False)),
            exitcode=getattr(exc, "exitcode", None),
        )
        self.transport.discard(shard_id)
        self.attempts[shard_id] += 1
        attempt = self.attempts[shard_id]
        if attempt > rec.max_respawns:
            if self.mode == "adopt":
                return self.adopt(shard_id, w)
            raise RecoveryExhaustedError(
                f"worker {shard_id} lost {attempt} times, exceeding "
                f"max_respawns={rec.max_respawns}; on_worker_loss='respawn' "
                "has no further rung"
            ) from exc
        time.sleep(rec.backoff_s(attempt))
        self.incarnations[shard_id] += 1
        resume = self.resume(shard_id)
        self.transport.spawn(shard_id, self.worker_config(shard_id, resume=resume))
        replayed = sum(1 for msg in resume["log"] if msg[0] == "mail")
        self.stats["respawns"] += 1
        self.stats["windows_replayed"] += replayed
        get_tracer().recovery_step(w, shard_id, "respawn", attempt=attempt, replayed=replayed)

    def resume(self, shard_id: int) -> dict:
        """What rebuilds ``shard_id`` where it was: its cut and its log."""
        return {
            "checkpoint": self.store.get(shard_id),
            "log": list(self.log[shard_id]),
            "seen": self.seen[shard_id],
        }

    def adopt(self, dead: int, w: int) -> None:
        """Hand ``dead``'s LPs to the least-loaded survivor, by replay.

        The heir rebuilds the dead shard from its cut and log in a second
        engine, up to the receive point every survivor waits at, and
        takes its LPs over; what the dead shard had yet to say is queued
        as its messages. Survivors do not rewind.
        """
        if not self.open:
            raise RecoveryExhaustedError(
                f"worker {dead} exhausted its respawns at the final barrier; "
                "the survivors have finished the run and no one can adopt it"
            )
        config = self.worker_config(dead, resume=self.resume(dead))
        self.dead[dead] = True
        survivors = self.live()
        if not survivors:
            raise RecoveryExhaustedError(f"worker {dead} lost and no survivor left")
        heir = min(survivors, key=lambda s: (len(self.shards[s]), s))
        self.heirs[dead] = heir
        self.shards[heir] = sorted(self.shards[heir] + self.shards[dead])
        self.shards[dead] = []
        if self.rebalancer is not None:
            self.rebalancer.adopt(dead, heir)
        for s in survivors:
            self.send(s, ("adopt", dead, heir, config if s == heir else None))
        _tag, _dead, said, result = self.recv(heir, "adopted", dead)
        self.inbox[dead].extend(said)
        self.dead_results[dead] = _ser().decode_payload(result)
        self.stats["adoptions"] += 1
        get_tracer().recovery_step(w, dead, "adopt", adopter=heir)

    # -- result --------------------------------------------------------
    def assemble(self, results: list[dict], wall_s: float) -> "ParallelRunResult":
        """Merge the per-shard results and the run state into one result."""
        recovery = None
        if self.rec is not None:
            recovery = {
                "checkpoints_taken": int(self.store.checkpoints_taken),
                "checkpoint_bytes": int(self.store.checkpoint_bytes),
                **self.stats,
                "committed_window": self.committed,
                "dead_shards": [s for s in range(self.procs) if self.dead[s]],
            }
        window_stats = [
            WindowStats(
                window_index=w,
                start=start,
                end=end,
                events_per_lp=self.events[w],
                remote_sends_per_lp=self.remote[w],
            )
            for w, start, end in self.boundaries
        ]
        worker_events = [r["events_executed"] for r in results]
        return ParallelRunResult(
            procs=self.procs,
            until=self.until,
            lookahead=self.backend.lookahead,
            shards=self.shards,
            window_stats=window_stats,
            events_executed=int(sum(worker_events)),
            lookahead_violations=int(sum(r["lookahead_violations"] for r in results)),
            wall_s=wall_s,
            barrier_wait_s=[r["barrier_wait_s"] for r in results],
            mail_bytes=[r["mail_bytes"] for r in results],
            worker_events=worker_events,
            collected=[r["collect"] for r in results],
            worker_registries={
                s: r["obs"]["registry"] for s, r in enumerate(results) if "obs" in r
            },
            worker_traces={
                s: r["obs"]["trace"] for s, r in enumerate(results) if "obs" in r
            },
            migrations=self.migrations,
            recovery=recovery,
        )


# ----------------------------------------------------------------------
# Public backends: one coordinator, two transports
# ----------------------------------------------------------------------
class ParallelConservativeEngine:
    """Conservative barrier-window engine over real worker processes.

    ``assignment``, ``num_lps``, ``lookahead`` and ``strict`` are
    :class:`ShardEngine`'s, plus:

    procs:
        Worker process count. LPs are split contiguously across workers
        (``shard_lps``); ``procs > num_lps`` leaves trailing workers
        with empty shards, which no-op cleanly.
    start_method:
        ``multiprocessing`` start method. ``"fork"`` (default on Linux)
        is fastest; ``"spawn"`` additionally proves every payload
        pickles (the differential suite runs both).
    window_timeout_s:
        Per-barrier controller patience before declaring a worker hung
        (:class:`WorkerCrashError`).
    shards:
        An explicit LP partition, one list per shard, in place of the
        contiguous split (``procs`` is then ``len(shards)``).
    rebalance:
        Optional :class:`~repro.partition.rebalance.RebalanceConfig`.
        When set, the controller watches per-window blame concentration
        and migrates LPs between shards at barriers (see
        ``docs/load_balancing.md``). The simulation result is
        byte-identical either way.
    recovery:
        Optional :class:`~repro.engine.recovery.RecoveryConfig`. When
        set, workers checkpoint their shard at the configured cadence
        (or never, at ``0``), the controller logs what it sends each
        shard and supervises liveness, and a crashed or hung worker is
        rebuilt by replaying that log from its last cut or its build
        (degrading to survivor adoption when respawns run out — see
        ``docs/robustness.md``). Composes with ``rebalance``.
    """

    def __init__(
        self,
        assignment: Sequence[int] | np.ndarray,
        num_lps: int,
        lookahead: float,
        procs: int = 2,
        strict: bool = True,
        start_method: str = "fork",
        window_timeout_s: float = 120.0,
        shards: list[list[int]] | None = None,
        rebalance=None,
        recovery=None,
    ) -> None:
        self.lookahead = positive_lookahead(lookahead)
        self.assignment = lp_assignment(assignment, num_lps)
        self.num_lps = int(num_lps)
        self.strict = strict
        self.start_method = start_method
        self.window_timeout_s = float(window_timeout_s)
        self.shards = shards if shards is not None else shard_lps(self.num_lps, procs)
        self.procs = len(self.shards)
        owned = sorted(lp for part in self.shards for lp in part)
        if owned != list(range(self.num_lps)):
            raise ValueError("shards must partition range(num_lps) exactly")
        self.rebalance = rebalance
        self.recovery = recovery

        # Controller-side reads; per-worker ones arrive by snapshot
        # merging (repro.obs.distributed), or in process directly.
        #: the run the registry reads: the last ``run_scenario``'s, or
        #: before it a run of no windows
        self.last_run = Coordinator(self, None, None, 0.0)
        reg = get_registry()
        reads = dict(_RUN_READS)
        if rebalance is not None:
            reads.update(_REBALANCE_READS)
        if recovery is not None:
            reads.update(_RECOVERY_READS)
        for name, count in reads.items():
            reg.read(name, lambda count=count: count(self.last_run))

    def _transport(self) -> Transport:
        return PipeTransport(self.start_method, self.window_timeout_s)

    def run_scenario(self, spec: ScenarioSpec, until: float) -> ParallelRunResult:
        """Run ``spec`` to simulated time ``until`` across the workers.

        Blocks until every worker finishes (or fails — worker errors
        surface as :class:`ParallelWorkerError`, crashes and hangs as
        :class:`WorkerCrashError`). Returns the merged result; per-LP
        window stats are summed across shards into the same
        :class:`WindowStats` rows the single-process engine records.

        With a recovery config, worker loss does not end the run: the
        controller respawns the worker from its last committed cut (or
        its build) and replays the messages logged since, and when
        respawns are exhausted with ``on_worker_loss="adopt"`` the
        least-loaded survivor rebuilds the dead shard the same way and
        takes its LPs over; no survivor rewinds. Only when the
        degradation ladder runs out does the run fail, with
        :class:`RecoveryExhaustedError`.
        """
        self.last_run = Coordinator(self, self._transport(), spec, until)
        return self.last_run.run()


class LocalShardGroup(ParallelConservativeEngine):
    """The same engine with its shards driven in the calling process.

    Executes the identical coordinator and worker loop — the whole
    recovery ladder and the round-trip through
    :mod:`repro.serialization` included — over :class:`InlineTransport`
    instead of OS processes (``start_method`` and ``window_timeout_s``
    have nothing to act on). This is the reference executor the
    differential suites sweep (arbitrary shard counts, partitions and
    fault points are cheap), while :class:`ParallelConservativeEngine`
    proves the same bytes survive real process boundaries.
    """

    def _transport(self) -> Transport:
        return InlineTransport()
