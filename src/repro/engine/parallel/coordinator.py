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
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ...obs import names as obs_names
from ...obs.distributed import worker_obs_config
from ...obs.registry import Registry, get_registry
from ...obs.timers import Stopwatch
from ...obs.trace import TraceBuffer, get_tracer
from ..recovery import CheckpointStore, RecoveryExhaustedError, is_checkpoint_window
from ..windows import WindowStats, iter_windows
from .shard import (
    WINDOW_EVENTS_BOUNDS,
    ParallelBackendError,
    ScenarioSpec,
    WorkerCrashError,
    _dead_shard_legacy,
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
# Controller-side instruments (rebalance.* / recovery.*)
# ----------------------------------------------------------------------
#: bucket bounds of the blame-concentration histogram — shared between
#: eager registration and per-migration recording (histograms only
#: merge across identical bounds)
_CONCENTRATION_BOUNDS = (0.25, 0.5, 0.75, 0.9, 1.0)


def _register_rebalance_instruments(reg) -> None:
    """Register the ``rebalance.*`` instruments up front.

    Called from the backend constructor when a rebalance config is
    present, so the instruments exist in snapshots taken *before* the
    first trigger or migration (and so the names-drift check sees them
    by constructing an engine, like every other instrumented component).
    """
    reg.counter(obs_names.REBALANCE_TRIGGERS)
    reg.counter(obs_names.REBALANCE_CANDIDATES)
    reg.counter(obs_names.REBALANCE_MIGRATIONS)
    reg.counter(obs_names.REBALANCE_STATE_BYTES)
    reg.histogram(obs_names.REBALANCE_CONCENTRATION, _CONCENTRATION_BOUNDS)


def _record_migration_obs(decision, state_bytes: int) -> None:
    """Controller-side rebalance instruments + trace record (obs-gated)."""
    reg = get_registry()
    if not reg.enabled:
        return
    reg.counter(obs_names.REBALANCE_MIGRATIONS).inc()
    reg.counter(obs_names.REBALANCE_STATE_BYTES).inc(float(state_bytes))
    reg.histogram(
        obs_names.REBALANCE_CONCENTRATION, _CONCENTRATION_BOUNDS
    ).observe(float(decision.concentration))
    get_tracer().migration(
        decision.window_index,
        decision.lp,
        decision.src_shard,
        decision.dst_shard,
        decision.concentration,
        decision.predicted_gain_s,
        state_bytes,
    )


def _record_rebalance_counters(rebalancer, prev: tuple[int, int]) -> tuple[int, int]:
    """Flush trigger/candidate-count deltas into registry counters."""
    reg = get_registry()
    triggers, scored = rebalancer.triggers, rebalancer.candidates_scored
    if reg.enabled:
        if triggers > prev[0]:
            reg.counter(obs_names.REBALANCE_TRIGGERS).inc(float(triggers - prev[0]))
        if scored > prev[1]:
            reg.counter(obs_names.REBALANCE_CANDIDATES).inc(float(scored - prev[1]))
    return triggers, scored


def _build_rebalancer(config, shards, num_lps, spec, until, affinity=None):
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
    return Rebalancer(config, shards, num_lps, spans=spans, affinity=affinity)


class _AdoptionNeeded(Exception):
    """Internal: respawns exhausted, degrade by adopting the dead shard."""

    def __init__(self, shard_id: int):
        super().__init__(f"shard {shard_id} needs adoption")
        self.shard_id = int(shard_id)


def _register_recovery_instruments(reg) -> None:
    """Register the ``recovery.*`` instruments up front (see rebalance)."""
    reg.counter(obs_names.RECOVERY_CHECKPOINTS)
    reg.counter(obs_names.RECOVERY_CHECKPOINT_BYTES)
    reg.counter(obs_names.RECOVERY_DETECTIONS)
    reg.counter(obs_names.RECOVERY_RESPAWNS)
    reg.counter(obs_names.RECOVERY_REPLAYED)
    reg.counter(obs_names.RECOVERY_ADOPTIONS)


def _record_recovery_obs(kind: str, window_index: int, shard_id: int, **detail) -> None:
    """Controller-side recovery instruments + trace record (obs-gated)."""
    reg = get_registry()
    if reg.enabled:
        if kind == "checkpoint":
            reg.counter(obs_names.RECOVERY_CHECKPOINTS).inc()
            reg.counter(obs_names.RECOVERY_CHECKPOINT_BYTES).inc(
                float(detail.get("nbytes", 0))
            )
        elif kind == "detect":
            reg.counter(obs_names.RECOVERY_DETECTIONS).inc()
        elif kind == "respawn":
            reg.counter(obs_names.RECOVERY_RESPAWNS).inc()
            reg.counter(obs_names.RECOVERY_REPLAYED).inc(
                float(detail.get("replayed", 0))
            )
        elif kind == "adopt":
            reg.counter(obs_names.RECOVERY_ADOPTIONS).inc()
    get_tracer().recovery_step(window_index, shard_id, kind, **detail)


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
        self.max_obs_window = -1
        #: THE placement: LPs per shard, changed only by ``migration_round``
        #: and ``adopt``; worker configs and the result are derived from it
        self.shards = [list(s) for s in backend.shards]

        self.rebalancer = None
        self.rb_counts = (0, 0)
        self.migrations: list = []
        if backend.rebalance is not None:
            self.rebalancer = _build_rebalancer(
                backend.rebalance, backend.shards, num_lps, spec, until,
                affinity=backend.rebalance_affinity,
            )

        # Supervision state of the respawn → adopt → fail ladder.
        rec = self.rec = backend.recovery
        self.mode = rec.on_worker_loss if rec is not None else "fail"
        self.store = CheckpointStore() if rec is not None else None
        #: mail retained since the last committed checkpoint: window ->
        #: {dest shard -> per-sender payload list}. Replayed into a
        #: respawned worker; pruned at every commit, so the buffer is
        #: bounded by the checkpoint cadence.
        self.retained: dict[int, dict[int, list[bytes]]] = {}
        self.committed = -1
        self.attempts = [0] * procs
        self.incarnations = [0] * procs
        self.dead = [False] * procs
        # Per-endpoint message counts since its (re)start: a survivor owes
        # exactly one unanswered window message when a rollback may land.
        self.wins_consumed = [0] * procs
        self.mails_sent = [0] * procs
        self.stats = dict(detections=0, respawns=0, windows_replayed=0, adoptions=0)
        self.adoption_window: int | None = None
        #: stand-in ``done`` result of every adopted-away shard
        self.dead_results: dict[int, dict] = {}

    # -- placement -----------------------------------------------------
    def live(self) -> list[int]:
        """Shards that have not been adopted away."""
        return [s for s in range(self.procs) if not self.dead[s]]

    def shard_of(self) -> list[int]:
        """The current placement as an LP -> shard list."""
        shard_of = [0] * self.num_lps
        for shard_id, lps in enumerate(self.shards):
            for lp in lps:
                shard_of[lp] = shard_id
        return shard_of

    def worker_config(self, shard_id: int, resume: dict | None = None) -> dict:
        """The config one (shard, incarnation) is built from."""
        backend = self.backend
        config = {
            "assignment": backend.assignment,
            "num_lps": self.num_lps,
            "lookahead": backend.lookahead,
            "owned_lps": self.shards[shard_id],
            "strict": backend.strict,
            "spec": self.spec,
            "shard_of": self.shard_of(),
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

    # -- the loop ------------------------------------------------------
    def run(self) -> "ParallelRunResult":
        """Spawn the workers, drive every barrier, collect, tear down."""
        wall = Stopwatch()
        try:
            for shard_id in range(self.procs):
                self.transport.spawn(shard_id, self.worker_config(shard_id))
            wi = 0
            while wi < len(self.boundaries):
                try:
                    self.run_window(*self.boundaries[wi])
                except _AdoptionNeeded as need:
                    wi = self.adopt(need.shard_id) + 1
                    continue
                wi += 1
            results = self.collect_results()
        finally:
            self.transport.close()
        return self.assemble(results, wall.elapsed())

    def run_window(self, w: int, start: float, end: float) -> None:
        """One barrier: every phase of window ``w``, in wire order."""
        msgs = self.collect_windows(w)
        decision = self.plan_migration(w, start, end, msgs)
        respawned = self.route_mail(w, msgs, decision)
        if decision is not None:
            self.migration_round(w, decision)
        if self.rec is not None and is_checkpoint_window(
            w, self.rec.checkpoint_every_n_windows
        ):
            self.commit_checkpoint(w, skip=respawned)
        self.record_window(w)

    def collect_windows(self, w: int) -> dict[int, tuple]:
        """Receive every live shard's ``window`` message for ``w``."""
        msgs: dict[int, tuple] = {}
        pending = self.live()
        while pending:
            shard_id = pending.pop(0)
            try:
                msg = self.transport.recv(shard_id)
            except WorkerCrashError as exc:
                self.on_loss(shard_id, exc, replay_hi=w - 1)
                pending.append(shard_id)
                continue
            _expect(msg, "window", w, f"worker {shard_id}")
            self.wins_consumed[shard_id] += 1
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
        ordered = [msgs[s] for s in range(self.procs)]
        xshard_sum = np.sum([m[5] for m in ordered], axis=0, dtype=np.int64)
        decision = rebalancer.observe_window(w, start, end, self.events[w], xshard_sum)
        self.rb_counts = _record_rebalance_counters(rebalancer, self.rb_counts)
        return decision

    def route_mail(self, w: int, msgs: dict, decision) -> set[int]:
        """Answer every live shard with its inbound mail (and the plan).

        Destination ``j`` receives one payload per sender (dead senders
        contribute empty payloads after an adoption — their LPs now send
        from the adopter's lanes). Returns the shards respawned here,
        which rejoin past this window's checkpoint.
        """
        live = self.live()
        inbound_by = {
            s: [msgs[src][2][s] if src in msgs else b"" for src in range(self.procs)]
            for s in live
        }
        if self.rec is not None:
            self.retained[w] = inbound_by
        plan = None
        if decision is not None:
            plan = [(decision.lp, decision.src_shard, decision.dst_shard)]
        respawned: set[int] = set()
        for shard_id in live:
            mail = ("mail", w, inbound_by[shard_id])
            if self.rebalancer is not None:
                mail += (plan,)
            try:
                self.transport.send(shard_id, mail)
                self.mails_sent[shard_id] += 1
            except WorkerCrashError as exc:
                # The worker had already sent window w, so the respawn
                # replays through w and rejoins at w + 1 without
                # checkpointing w.
                self.on_loss(shard_id, exc, replay_hi=w)
                respawned.add(shard_id)
        return respawned

    def migration_round(self, w: int, decision) -> None:
        """Collect the released LP's payload and route it to its adopter.

        Payloads ride these control-plane messages only — never barrier
        mail.
        """
        outgoing: dict[int, bytes] = {}
        for shard_id in range(self.procs):
            msg = self.transport.recv(shard_id)
            _expect(msg, "migrate", w, f"worker {shard_id}")
            outgoing.update(msg[2])
        self.shards[decision.src_shard].remove(decision.lp)
        insort(self.shards[decision.dst_shard], decision.lp)
        shard_of = self.shard_of()
        for shard_id in range(self.procs):
            install = {
                lp: blob for lp, blob in outgoing.items() if shard_of[lp] == shard_id
            }
            self.transport.send(shard_id, ("install", w, install))
        self.migrations.append(decision)
        _record_migration_obs(decision, sum(len(b) for b in outgoing.values()))

    def commit_checkpoint(self, w: int, skip: set[int]) -> None:
        """Transactional commit of window ``w``'s checkpoint round.

        The store only advances when every live shard checkpoints this
        window; a partial set is discarded (but still drained, to keep
        the message streams aligned). A commit prunes the retained mail.
        """
        got: dict[int, tuple[str, bytes]] = {}
        for shard_id in [s for s in self.live() if s not in skip]:
            try:
                msg = self.transport.recv(shard_id)
            except WorkerCrashError as exc:
                self.on_loss(shard_id, exc, replay_hi=w)
                continue
            _expect(msg, "ckpt", w, f"worker {shard_id}")
            got[shard_id] = (msg[2], msg[3])
        if sorted(got) != self.live():
            return
        for shard_id in sorted(got):
            digest, blob = got[shard_id]
            self.store.put(shard_id, w, digest, blob)
            _record_recovery_obs("checkpoint", w, shard_id, nbytes=len(blob))
        self.committed = w
        for rw in [x for x in self.retained if x <= w]:
            del self.retained[rw]

    def record_window(self, w: int) -> None:
        """Window-level instruments, once per window even across rollbacks."""
        backend = self.backend
        if backend._obs.enabled and w > self.max_obs_window:
            backend._obs_windows.inc()
            backend._obs_window_hist.observe(float(self.events[w].sum()))
        self.max_obs_window = max(self.max_obs_window, w)

    def collect_results(self) -> list[dict]:
        """Receive ``done`` from every live shard; one result per shard."""
        last_w = self.boundaries[-1][0] if self.boundaries else -1
        results: dict[int, dict] = {}
        for shard_id in self.live():
            while True:
                try:
                    msg = self.transport.recv(shard_id)
                except WorkerCrashError as exc:
                    try:
                        self.on_loss(shard_id, exc, replay_hi=last_w)
                    except _AdoptionNeeded:
                        raise self._past_the_end(shard_id) from exc
                    continue
                break
            if msg[0] != "done":
                raise ParallelBackendError(
                    f"barrier protocol desync: worker {shard_id} sent "
                    f"{msg[0]!r}, expected done"
                )
            results[shard_id] = _ser().decode_payload(msg[1])
        results.update(self.dead_results)
        return [results[s] for s in range(self.procs)]

    # -- supervision ---------------------------------------------------
    @staticmethod
    def _past_the_end(shard_id: int) -> RecoveryExhaustedError:
        return RecoveryExhaustedError(
            f"worker {shard_id} exhausted its respawns at the final barrier; "
            "survivors have already collected — adoption would need a "
            "rollback past the end of the run"
        )

    def on_loss(self, shard_id: int, exc: WorkerCrashError, replay_hi: int) -> None:
        """Respawn ``shard_id`` or escalate up the degradation ladder.

        ``replay_hi`` is the last window whose retained mail the
        respawned worker must privately replay before rejoining. Past
        ``max_respawns`` the ladder degrades to :class:`_AdoptionNeeded`
        (``on_worker_loss="adopt"``) or ends in
        :class:`RecoveryExhaustedError`; with no recovery config, or
        ``"fail"``, the original error is re-raised.
        """
        if self.mode == "fail":
            raise exc
        rec = self.rec
        self.stats["detections"] += 1
        _record_recovery_obs(
            "detect", replay_hi + 1, shard_id,
            hung=bool(getattr(exc, "hung", False)),
            exitcode=getattr(exc, "exitcode", None),
        )
        self.transport.discard(shard_id)
        self.wins_consumed[shard_id] = 0
        self.mails_sent[shard_id] = 0
        self.attempts[shard_id] += 1
        attempt = self.attempts[shard_id]
        if attempt > rec.max_respawns:
            if self.mode == "adopt":
                raise _AdoptionNeeded(shard_id) from exc
            raise RecoveryExhaustedError(
                f"worker {shard_id} lost {attempt} times, exceeding "
                f"max_respawns={rec.max_respawns}; on_worker_loss='respawn' "
                "has no further rung"
            ) from exc
        if self.adoption_window is not None and self.committed <= self.adoption_window:
            raise RecoveryExhaustedError(
                f"worker {shard_id} lost after a degraded adoption and before "
                "the next checkpoint commit; the dead shard's pre-adoption "
                "checkpoint is stale"
            ) from exc
        time.sleep(rec.backoff_s(attempt))
        self.incarnations[shard_id] += 1
        base = self.store.latest_window(shard_id)
        entries = [
            (rw, self.retained[rw][shard_id])
            for rw in sorted(self.retained)
            if base < rw <= replay_hi
        ]
        resume = {
            "checkpoint": self.store.get(shard_id),
            "replay": _ser().encode_payload(entries),
        }
        self.transport.spawn(shard_id, self.worker_config(shard_id, resume=resume))
        self.stats["respawns"] += 1
        self.stats["windows_replayed"] += len(entries)
        _record_recovery_obs(
            "respawn", replay_hi + 1, shard_id, attempt=attempt, replayed=len(entries)
        )

    def adopt(self, dead_shard: int) -> int:
        """Global rollback to the commit cut + survivor adoption.

        Every survivor rewinds to the committed window ``c`` (returned),
        the least-loaded one additionally installs the dead shard's LPs
        over the migration wire format, and the run resumes at ``c + 1``.
        """
        if 0 in self.shards[dead_shard]:
            raise RecoveryExhaustedError(
                f"worker {dead_shard} owns LP 0 (the control lane); the "
                "control shard cannot be adopted by a survivor"
            )
        c = self.committed
        blob = self.store.get(dead_shard) if c >= 0 else None
        if c >= 0 and blob is None:  # pragma: no cover - store invariant
            raise RecoveryExhaustedError(
                f"no checkpoint for shard {dead_shard} at the committed window {c}"
            )
        self.dead[dead_shard] = True
        survivors = self.live()
        if not survivors:  # pragma: no cover - shard 0 never adopted
            raise RecoveryExhaustedError("no survivors left to adopt")
        # Every survivor is either computing or blocked waiting for mail;
        # consume its in-flight messages until it owes us exactly one
        # unanswered window message, at which point a rollback lands
        # where it expects mail.
        for s in survivors:
            while self.wins_consumed[s] <= self.mails_sent[s]:
                msg = self.transport.recv(s)
                if msg[0] == "window":
                    self.wins_consumed[s] += 1
                elif msg[0] == "done":  # answered first, it finished the run
                    raise self._past_the_end(dead_shard)
                elif msg[0] != "ckpt":  # a ckpt is abandoned: its round cannot commit
                    raise ParallelBackendError(
                        f"barrier protocol desync: worker {s} sent {msg[0]!r} "
                        "while draining for rollback"
                    )
        adopter = min(survivors, key=lambda s: (len(self.shards[s]), s))
        self.shards[adopter] = sorted(self.shards[adopter] + self.shards[dead_shard])
        self.shards[dead_shard] = []
        shard_of = self.shard_of()
        installs, self.dead_results[dead_shard] = _dead_shard_legacy(blob)
        for s in survivors:
            rollback = (
                "rollback",
                c,
                self.store.get(s) if c >= 0 else None,
                installs if s == adopter else {},
                shard_of,
            )
            self.transport.send(s, rollback)
            self.wins_consumed[s] = 0
            self.mails_sent[s] = 0
        self.events[c + 1 :] = 0
        self.remote[c + 1 :] = 0
        self.retained.clear()
        self.adoption_window = c
        self.stats["adoptions"] += 1
        _record_recovery_obs(
            "adopt", c + 1, dead_shard, adopter=adopter, committed_window=c
        )
        return c

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
    rebalance_affinity:
        Optional LP x LP affinity matrix (``partition.lp_affinity``)
        used to break score ties toward migrations that cut fewer
        cross-shard links.
    recovery:
        Optional :class:`~repro.engine.recovery.RecoveryConfig`. When
        set, workers checkpoint their shard at the configured cadence,
        the controller supervises liveness, and a crashed or hung
        worker is respawned from its last checkpoint (degrading to
        survivor adoption when respawns run out — see
        ``docs/robustness.md``). Mutually exclusive with ``rebalance``:
        a checkpoint cut racing an in-flight migration plan has no
        well-defined placement.
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
        rebalance_affinity=None,
        recovery=None,
    ) -> None:
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        if rebalance is not None and recovery is not None:
            raise ValueError(
                "online rebalancing and fault-tolerant recovery cannot be "
                "combined: a checkpoint cut racing a migration plan has no "
                "well-defined placement"
            )
        self.assignment = lp_assignment(assignment, num_lps)
        self.num_lps = int(num_lps)
        self.lookahead = float(lookahead)
        self.strict = strict
        self.start_method = start_method
        self.window_timeout_s = float(window_timeout_s)
        self.shards = shards if shards is not None else shard_lps(self.num_lps, procs)
        self.procs = len(self.shards)
        owned = sorted(lp for part in self.shards for lp in part)
        if owned != list(range(self.num_lps)):
            raise ValueError("shards must partition range(num_lps) exactly")
        self.rebalance = rebalance
        self.rebalance_affinity = rebalance_affinity
        self.recovery = recovery

        # Controller-side instruments: only the *global* per-window
        # aggregates a single worker cannot know (the window count and
        # the all-shards event-count distribution). Everything per-worker
        # — barrier waits, mail bytes, worker events — is recorded inside
        # the workers with shard labels and arrives via snapshot merging
        # (repro.obs.distributed); in-process shards write the one
        # process-global registry directly, so there is nothing to merge.
        reg = get_registry()
        self._obs = reg
        self._obs_windows = reg.counter(obs_names.ENGINE_WINDOWS)
        self._obs_window_hist = reg.histogram(
            obs_names.ENGINE_WINDOW_EVENTS_HIST, WINDOW_EVENTS_BOUNDS
        )
        if rebalance is not None:
            _register_rebalance_instruments(reg)
        if recovery is not None:
            _register_recovery_instruments(reg)

    def _transport(self) -> Transport:
        return PipeTransport(self.start_method, self.window_timeout_s)

    def run_scenario(self, spec: ScenarioSpec, until: float) -> ParallelRunResult:
        """Run ``spec`` to simulated time ``until`` across the workers.

        Blocks until every worker finishes (or fails — worker errors
        surface as :class:`ParallelWorkerError`, crashes and hangs as
        :class:`WorkerCrashError`). Returns the merged result; per-LP
        window stats are summed across shards into the same
        :class:`WindowStats` rows the single-process engine records.

        With a recovery config, worker loss does not end the run:
        the controller respawns the worker from the last committed
        checkpoint (replaying retained mail forward), and when respawns
        are exhausted with ``on_worker_loss="adopt"`` it rolls every
        survivor back to the commit cut and hands the dead shard's LPs
        to the least-loaded survivor. Only when the degradation ladder
        runs out does the run fail, with
        :class:`RecoveryExhaustedError`.
        """
        return Coordinator(self, self._transport(), spec, until).run()


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
