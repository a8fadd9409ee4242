"""One shard of the barrier-window protocol and its wire formats.

:class:`ShardEngine` is the one window loop: owning every LP it is the
single-process conservative engine (``run(until)``), owning a share it
is one worker's view of the multi-process one (``run_window``). The
helpers around it are the shard-side halves of every payload that
crosses a process boundary — barrier mail, LP-migration payloads,
checkpoint blobs — whichever transport carries the bytes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Sequence

import numpy as np

from ...obs import names as obs_names
from ...obs.registry import get_registry
from ...obs.trace import get_tracer
from ..events import Event, EventQueue
from ..windows import (
    WINDOW_EPSILON_FRACTION,
    LookaheadViolation,
    WindowStats,
    iter_windows,
    positive_lookahead,
)


def _ser():
    """:mod:`repro.serialization`, imported on first use.

    It imports ``core``, which imports ``engine``, which imports this
    package — so no module here may import it at load time.
    """
    from ... import serialization

    return serialization


# ----------------------------------------------------------------------
# Typed failure modes
# ----------------------------------------------------------------------
class ParallelBackendError(RuntimeError):
    """Base class for multi-process backend failures."""


class WorkerCrashError(ParallelBackendError):
    """A worker process died or stopped responding at a barrier."""


class ParallelWorkerError(ParallelBackendError):
    """A worker raised; carries the remote traceback text."""

    def __init__(self, shard_id: int, remote_traceback: str) -> None:
        super().__init__(
            f"worker {shard_id} failed remotely:\n{remote_traceback}"
        )
        self.shard_id = shard_id
        self.remote_traceback = remote_traceback


class MailOrderError(ParallelBackendError):
    """Barrier mail arrived behind the barrier time (sender bug)."""


class UnregisteredHandlerError(ParallelBackendError):
    """A cross-shard event's handler has no registered wire name."""


# ----------------------------------------------------------------------
# Scenario contract
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable recipe every worker replays identically.

    ``builder`` names a module-level function as ``"pkg.module:func"``;
    it is called as ``builder(engine, params)`` and must return a
    :class:`ShardScenario`. Builders must be deterministic pure
    functions of ``params`` — any divergence between workers breaks the
    key-alignment argument in the package docstring.
    """

    builder: str
    params: dict = field(default_factory=dict)


@dataclass
class ShardScenario:
    """What a scenario builder hands back to the backend.

    ``handlers`` maps wire names to the bound methods that may cross a
    process boundary inside mail (resolved by name on the receiving
    shard — code objects never travel). ``collect`` is called after the
    last window and must return a picklable result for the controller.

    ``capture_lp`` / ``restore_lp`` are the optional migration hooks the
    online re-balancer and survivor adoption use: ``capture_lp(lp)``
    returns a picklable blob of the LP's *dynamic* scenario state (link
    busy horizons, RNG states of exclusively-owned links — never
    counters, never control-replicated state), and ``restore_lp(lp,
    blob)`` applies it on the adopting shard. Scenarios without the
    hooks simply cannot be rebalanced mid-run.

    ``capture_shard`` / ``restore_shard`` are the optional checkpoint
    hooks fault-tolerant recovery uses: ``capture_shard()`` returns a
    picklable blob of the *whole* shard's scenario state at a barrier,
    and ``restore_shard(blob)`` applies it onto a freshly rebuilt shard.
    Scenarios without them still checkpoint engine state (pending
    events, clocks, tiebreak counters) but restore with pristine
    scenario dynamics.

    Every hook's return value is opaque to the backend: it is pickled,
    carried and handed back to the matching hook, never looked into.
    """

    handlers: dict[str, Callable[..., Any]]
    collect: Callable[[], Any] | None = None
    capture_lp: Callable[..., Any] | None = None
    restore_lp: Callable[[int, Any], None] | None = None
    capture_shard: Callable[[], Any] | None = None
    restore_shard: Callable[[Any], None] | None = None


def lp_assignment(assignment: Sequence[int] | np.ndarray, num_lps: int) -> np.ndarray:
    """``assignment`` as an int64 array, every entry a valid LP id.

    Raises :class:`ValueError` otherwise — at construction, before a
    worker exists to fail on it.
    """
    out = np.asarray(assignment, dtype=np.int64)
    if out.size and (out.min() < 0 or out.max() >= num_lps):
        raise ValueError("assignment references an LP out of range")
    return out


def shard_lps(num_lps: int, procs: int) -> list[list[int]]:
    """Contiguous LP -> shard split (preserves partitioner locality)."""
    if procs < 1:
        raise ValueError("procs must be >= 1")
    return [part.tolist() for part in np.array_split(np.arange(num_lps), procs)]


def validate_mail_batch(
    items: Sequence[tuple], barrier_time: float, lookahead: float, strict: bool = True
) -> int:
    """Receiver-side causality gate over one window's decoded mail.

    Every item must land at or after the barrier (within the shared
    relative epsilon) — anything earlier means the sender broke the
    lookahead contract and in-window execution order is already lost.
    Returns the violation count; raises :class:`MailOrderError` when
    ``strict``.
    """
    eps = WINDOW_EPSILON_FRACTION * lookahead
    violations = 0
    for item in items:
        time = item[2]
        if time < barrier_time - eps:
            violations += 1
            if strict:
                raise MailOrderError(
                    f"mail event at t={time:.9f} arrives behind the barrier "
                    f"at {barrier_time:.9f} (lookahead {lookahead:.9f}); "
                    "out-of-order cross-shard delivery"
                )
    return violations


# ----------------------------------------------------------------------
# Per-shard engine
# ----------------------------------------------------------------------
class ShardEngine:
    """The conservative barrier-window engine over the LPs it owns.

    Every simulated node belongs to an LP (``assignment[node] = lp``;
    engine-internal events, ``node == -1``, run on LP 0). Each window
    is one ``lookahead`` long — at most the minimum cross-LP link
    latency, the achieved MLL — and runs every owned LP's events in
    ascending LP order; cross-LP events wait in mailboxes for the
    barrier. ``owned_lps=None`` owns every LP: the single-process engine,
    driven by :meth:`run`. A worker owns its shard's LPs and is driven
    window by window (:meth:`run_window`) by the multi-process backend.

    The scheduler protocol (``schedule_at`` / ``schedule`` /
    ``current_time`` / ``next_barrier_time`` / ``lp_of``) is what the
    packet simulator, fault injector, and applications run on. Events
    carry ``(epoch, lane, counter)`` tiebreak keys instead of one
    engine-wide ``seq`` (see the package docstring for why the order is
    the single-process one). With ``strict=False`` lookahead violations
    are counted, not raised: the event is delivered late at the barrier.

    One LP is the sequential engine: ``ShardEngine([0] * num_nodes, 1,
    lookahead=duration_s)`` has no cross-LP link, so the run's own length
    is its window and it executes the global event set in ``(time,
    scheduling)`` order. ``record_trace`` records the ``(time, node)`` of
    every executed event (:meth:`trace`), in execution order: the samples
    the cluster cost model re-bins under any candidate mapping
    (:func:`repro.engine.costmodel.predict_from_trace`), so one run
    scores them all.
    """

    def __init__(
        self,
        assignment: Sequence[int] | np.ndarray,
        num_lps: int,
        lookahead: float,
        owned_lps: Sequence[int] | None = None,
        strict: bool = True,
        shard_id: int = 0,
        num_shards: int = 1,
        record_trace: bool = False,
    ) -> None:
        self.lookahead = positive_lookahead(lookahead)
        self.shard_id = int(shard_id)
        self.num_shards = max(int(num_shards), 1)
        self.assignment = lp_assignment(assignment, num_lps)
        self.num_lps = int(num_lps)
        self.strict = strict
        if owned_lps is None:
            owned_lps = range(self.num_lps)
        owned = sorted(int(lp) for lp in owned_lps)
        if any(lp < 0 or lp >= self.num_lps for lp in owned):
            raise ValueError("owned LP out of range")
        self.owned_lps = owned
        # assignment as a Python list: the per-event lookup of
        # schedule_at (a numpy scalar index costs several times a list's)
        self._lp_of_node: list[int] = self.assignment.tolist()
        #: True when this shard owns LP 0 and therefore runs the real
        #: control plane (other shards replay a replica of it).
        self.has_control = bool(owned) and owned[0] == 0
        self._queues = [EventQueue() for _ in owned]
        # _local_index[lp] is the position of an owned LP in owned_lps /
        # _queues / _local_mail, -1 for an LP another shard owns; _heaps
        # are the queues' heap lists, which the per-event paths work on
        # directly (EventQueue.heap documents the layout and why).
        self._reindex_owned()
        self._control_queue = None if self.has_control else EventQueue()
        # Cross-LP mail between two LPs of the *same* shard still waits
        # for the barrier, mirroring the single-process mailboxes.
        self._local_mail: list[list[Event]] = [[] for _ in owned]
        self._outbound: list[tuple[int, Event]] = []

        self.now: float = 0.0
        self._window_end: float = 0.0
        self._current_lp: int | None = None
        # The clock current_time reads: the executing event's time inside a
        # window, ``now`` at a barrier (run_window and a checkpoint restore
        # set it there).
        self._lp_now: float = 0.0
        # The executing LP's heap, cached when it starts: the same-LP push.
        self._lp_heap: list = []
        self._in_replica_control = False
        self._phase_setup = True
        # (epoch, lane, counter) key state: epoch 0 = setup, epoch w+1 =
        # window w (and w+2 at the barrier after it); lane = scheduling
        # LP; one monotone counter per worker. The counter also advances
        # for events a replay discards, keeping kept-event keys aligned
        # across workers.
        self._epoch = 0
        self._lane = 0
        self._kcount = 0

        self.events_executed = 0
        self.lookahead_violations = 0
        # Plain lists: a list.append costs a fraction of an array.append,
        # and one runs per executed event.
        self.record_trace = record_trace
        self._trace_times: list[float] = []
        self._trace_nodes: list[int] = []
        #: one row per window :meth:`run` executed (a worker's rows are
        #: summed by the coordinator instead)
        self.window_stats: list[WindowStats] = []
        self.events_this_window = np.zeros(self.num_lps, dtype=np.int64)
        self.remote_this_window = np.zeros(self.num_lps, dtype=np.int64)
        # Cross-SHARD sends only (the subset of remote sends that hit
        # the mail pipes). Placement-aware by construction — after an LP
        # migrates, its mail to its new shard-mates stops counting. The
        # re-balancer's cost model consumes this column; obs keeps the
        # placement-independent cross-LP count above.
        self.xshard_this_window = np.zeros(self.num_lps, dtype=np.int64)
        #: serialized cross-shard mail sent (added by the worker loop)
        self.mail_bytes = 0

        # Observability: the counts this engine keeps are read, not copied
        # (a cut restores them, a replay rebuilds them). Only a run()
        # engine fills window_stats; a worker's rows are the coordinator's.
        reg = get_registry()
        reg.read(obs_names.ENGINE_EVENTS, lambda: self.events_executed)
        reg.read(obs_names.ENGINE_LOOKAHEAD_VIOLATIONS, lambda: self.lookahead_violations)
        reg.read(obs_names.ENGINE_WINDOWS, lambda: len(self.window_stats))
        reg.read(obs_names.ENGINE_LP_EVENTS, lambda: sum(
            (ws.events_per_lp for ws in self.window_stats), np.zeros(self.num_lps)))
        reg.read(obs_names.ENGINE_LP_REMOTE_SENDS, lambda: sum(
            (ws.remote_sends_per_lp for ws in self.window_stats), np.zeros(self.num_lps)))
        reg.read(obs_names.PARALLEL_WORKER_EVENTS, lambda: np.bincount(
            [self.shard_id], [self.events_executed], minlength=self.num_shards))
        reg.read(obs_names.PARALLEL_MAIL_BYTES, lambda: self.mail_bytes)
        self._trace = get_tracer()

    # -- scheduler protocol -------------------------------------------
    @property
    def current_time(self) -> float:
        """Simulated time within the executing LP (barrier otherwise)."""
        return self._lp_now

    @property
    def next_barrier_time(self) -> float:
        """End of the current synchronization window."""
        if self._current_lp is not None or self._in_replica_control:
            return self._window_end
        return self.now

    @property
    def execution_cursor(self) -> tuple[int, int]:
        """(epoch, lane) of the executing phase — the global merge key.

        Per-shard logs tagged with this cursor concatenate into the
        exact single-process order under a stable sort: phases run
        sequentially there (setup, then window by window, LP by LP
        inside each window) and each ``(epoch, lane)`` phase executes
        entirely on one shard.
        """
        return (self._epoch, self._lane)

    def lp_of(self, node: int) -> int:
        """The LP owning ``node`` (engine-internal events run on LP 0)."""
        return 0 if node < 0 else self._lp_of_node[node]

    def schedule_at(
        self, time: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time`` on the LP owning ``node``.

        During window execution the causality floor is the *executing
        LP's local clock*: a callback must not schedule into its own
        LP's past, or local order silently inverts inside the window. At
        a barrier the floor is the barrier time. Scheduling onto a
        *different* LP additionally checks the lookahead: the event must
        not land before the current window ends (it is delivered at the
        barrier).

        The fate of the event depends on the phase: during setup
        everything is replayed everywhere and only owned-LP (plus
        control) events are kept; during replica control replay only
        follow-up *control* events are kept; during window execution,
        off-LP events go to the local mailbox or the cross-shard
        outbound batch.
        """
        if time < self._lp_now:
            raise ValueError(
                f"cannot schedule into the executing LP's past "
                f"(t={time:.9f} < LP-local now {self._lp_now:.9f})"
            )
        current_lp = self._current_lp
        target_lp = 0 if node < 0 else self._lp_of_node[node]  # lp_of, inlined
        self._kcount = kcount = self._kcount + 1
        key = (self._epoch, self._lane, kcount)
        ev = Event(time, key, fn, args, node)
        if target_lp == current_lp:
            # The per-hop case: an executing event schedules onto its own LP.
            heappush(self._lp_heap, (time, key, ev))
            return ev
        local = self._local_index[target_lp]
        if self._in_replica_control:
            if node < 0 and self._control_queue is not None:
                self._control_queue.push_event(ev)
            elif local >= 0:
                # A control handler scheduling directly onto an owned
                # node would also run on the owner's shard — delivering
                # here too would execute it twice.
                raise ParallelBackendError(
                    "control replay scheduled onto a real node; control "
                    "handlers must only mutate control-plane state"
                )
            return ev
        if current_lp is None:
            # Setup (or barrier-time) scheduling: replicated replay.
            if local >= 0:
                heappush(self._heaps[local], (time, key, ev))
            elif node < 0 and self._control_queue is not None:
                self._control_queue.push_event(ev)
            elif not self._phase_setup:
                raise ParallelBackendError(
                    "cannot schedule onto an unowned LP at a barrier; "
                    "cross-shard events must originate from executing events"
                )
            return ev
        # Cross-LP send during window execution: lookahead fence, then
        # local mailbox (same shard) or outbound mail (other shard).
        if time < self._window_end - WINDOW_EPSILON_FRACTION * self.lookahead:
            self.lookahead_violations += 1
            if self.strict:
                raise LookaheadViolation(
                    f"cross-LP event at t={time:.9f} lands inside the current "
                    f"window ending at {self._window_end:.9f} "
                    f"(lookahead {self.lookahead:.9f})"
                )
        self.remote_this_window[current_lp] += 1
        if local >= 0:
            self._local_mail[local].append(ev)
        else:
            self.xshard_this_window[current_lp] += 1
            self._outbound.append((target_lp, ev))
        if self._trace.enabled:
            self._trace.edge(current_lp, target_lp, self._lp_now, time)
        return ev

    def schedule(
        self, delay: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule relative to the executing LP's current time."""
        return self.schedule_at(self._lp_now + delay, fn, node, args)

    # -- lifecycle -----------------------------------------------------
    def seal_setup(self) -> None:
        """End the replicated-construction phase; windows may now run."""
        self._phase_setup = False

    def run(self, until: float) -> int:
        """Run barrier windows until simulated time ``until``.

        The single-process driver: seals setup on the first call,
        resumes after the last window a previous call ran, and appends
        one :attr:`window_stats` row per window. Returns the number of
        events executed. An engine owning a share of the LPs is driven
        by the multi-process backend instead — its mail has to cross.
        """
        if len(self.owned_lps) != self.num_lps:
            raise ParallelBackendError(
                "run() needs an engine that owns every LP; a shard's "
                "cross-shard mail is delivered by the multi-process backend"
            )
        if self._phase_setup:
            self.seal_setup()
        executed_total = 0
        for window_index, start, window_end in iter_windows(
            self.now, self.lookahead, until, first_index=len(self.window_stats)
        ):
            executed = self.run_window(window_index, window_end)
            executed_total += executed
            self.window_stats.append(
                WindowStats(
                    window_index=window_index,
                    start=start,
                    end=window_end,
                    events_per_lp=self.events_this_window.copy(),
                    remote_sends_per_lp=self.remote_this_window.copy(),
                )
            )
        return executed_total

    def run_window(self, window_index: int, window_end: float) -> int:
        """Execute one synchronization window over the owned LPs.

        Returns the number of events executed (owned LPs only; replica
        control replay is not counted — the owner counts it). Cross-LP
        mail produced during the window waits in the local mailboxes
        (delivered here at the end, at the barrier) or in the outbound
        batch (``drain_outbound``).
        """
        if self._phase_setup:
            raise ParallelBackendError("seal_setup() must run before windows")
        self._epoch = window_index + 1
        self._window_end = window_end
        self.events_this_window[:] = 0
        self.remote_this_window[:] = 0
        self.xshard_this_window[:] = 0
        if self._control_queue is not None:
            self._run_replica_control(window_end)
        executed = 0
        for i, lp in enumerate(self.owned_lps):
            self._current_lp = lp
            self._lane = lp
            n = self._run_lp_queue(i, window_end)
            self.events_this_window[lp] = n
            executed += n
        self._current_lp = None
        # Barrier-time scheduling keys after every event this window
        # scheduled, mail included, as it was scheduled after them.
        self._epoch, self._lane = window_index + 2, 0
        for i, mail in enumerate(self._local_mail):
            for ev in mail:
                self._queues[i].push_event(ev)
            mail.clear()
        self.now = self._lp_now = window_end
        self.events_executed += executed
        return executed

    def _run_replica_control(self, window_end: float) -> None:
        # Pre-window replay of the control plane: equivalent to the
        # sequential schedule, where LP 0 (including all control events)
        # runs before every other LP within each window.
        self._in_replica_control = True
        self._lane = 0
        queue = self._control_queue
        while True:
            ev = queue.pop_until(window_end)
            if ev is None:
                break
            self._lp_now = ev.time
            ev.fn(*ev.args)
        self._in_replica_control = False

    def _run_lp_queue(self, local: int, window_end: float) -> int:
        heap = self._lp_heap = self._heaps[local]
        record_trace = self.record_trace
        trace_times, trace_nodes = self._trace_times, self._trace_nodes
        executed = 0
        # EventQueue.pop_until, inlined: the head stays queued once it is
        # at or past the window end, cancelled events are dropped as they
        # surface.
        while heap and heap[0][0] < window_end:
            time, _, ev = heappop(heap)
            if ev.cancelled:
                continue
            self._lp_now = time
            ev.fn(*ev.args)
            executed += 1
            if record_trace:
                trace_times.append(time)
                trace_nodes.append(ev.node)
        return executed

    def trace(self) -> tuple[np.ndarray, np.ndarray]:
        """The recorded ``(times, nodes)`` arrays of executed events."""
        return (
            np.asarray(self._trace_times, dtype=np.float64),
            np.asarray(self._trace_nodes, dtype=np.int64),
        )

    # -- mail ----------------------------------------------------------
    def drain_outbound(self) -> list[tuple[int, Event]]:
        """Remove and return this window's live cross-shard mail."""
        out = [(lp, ev) for lp, ev in self._outbound if not ev.cancelled]
        self._outbound.clear()
        return out

    def push_remote(self, target_lp: int, ev: Event) -> None:
        """Enqueue a decoded mail event onto an owned LP's queue."""
        local = self._local_index[target_lp]
        if local < 0:
            raise ParallelBackendError(
                f"mail for LP {target_lp} routed to a shard that does not own it"
            )
        self._queues[local].push_event(ev)

    @property
    def pending(self) -> int:
        """Live events across owned queues, mailboxes, and outbound."""
        queued = sum(len(q) for q in self._queues)
        mailed = sum(len(m) for m in self._local_mail)
        return queued + mailed + len(self._outbound)

    # -- barrier-time LP migration (online re-partitioning) ------------
    def _reindex_owned(self) -> None:
        self._local_index: list[int] = [-1] * self.num_lps
        for i, lp in enumerate(self.owned_lps):
            self._local_index[lp] = i
        self._heaps = [q.heap for q in self._queues]

    def release_lp(self, lp: int) -> list[Event]:
        """Disown ``lp`` at a barrier; returns its still-pending events.

        Only callable between windows (at the barrier, after mail
        delivery), when the LP's mailbox is empty and every pending
        event lies at or beyond the barrier. The events keep their
        original ``(epoch, lane, counter)`` keys — migration moves the
        queue, it never re-keys, which is what preserves the global
        merge order. The rebalancer never moves LP 0; only a dead
        shard's replica gives it up, to the survivor adopting it, and
        then it no longer runs the control plane.
        """
        local = self._local_index[lp]
        if local < 0:
            raise ParallelBackendError(
                f"cannot release LP {lp}: this shard does not own it"
            )
        if self._current_lp is not None or self._phase_setup:
            raise ParallelBackendError(
                "LP migration is only legal at a barrier"
            )
        if self._local_mail[local]:
            raise ParallelBackendError(
                f"cannot release LP {lp} with undelivered local mail"
            )
        queue = self._queues[local]
        events: list[Event] = []
        while True:
            ev = queue.pop_until(float("inf"))
            if ev is None:
                break
            if not ev.cancelled:
                events.append(ev)
        del self.owned_lps[local]
        del self._queues[local]
        del self._local_mail[local]
        self._reindex_owned()
        self.has_control = self.has_control and lp != 0
        return events

    def adopt_lp(self, lp: int, events: Sequence[Event]) -> None:
        """Take ownership of ``lp`` at a barrier with its pending events.

        The inverse of :meth:`release_lp` on the destination shard.
        ``owned_lps`` stays sorted, so within-window LP execution order
        remains ascending — the same order the single-process engine
        interleaves them in. Taking LP 0 takes the control plane: its
        events are in LP 0's queue, so the replica queue goes.
        """
        if self._local_index[lp] >= 0:
            raise ParallelBackendError(
                f"cannot adopt LP {lp}: this shard already owns it"
            )
        if self._current_lp is not None or self._phase_setup:
            raise ParallelBackendError(
                "LP migration is only legal at a barrier"
            )
        pos = int(np.searchsorted(np.asarray(self.owned_lps), lp))
        self.owned_lps.insert(pos, int(lp))
        self._queues.insert(pos, EventQueue())
        self._local_mail.insert(pos, [])
        self._reindex_owned()
        if lp == 0:
            self.has_control, self._control_queue = True, None
        for ev in events:
            self._queues[pos].push_event(ev)

    # -- measured observability ----------------------------------------
    def observe_window_walls(
        self,
        window_index: int,
        executed: int,
        execute_s: float,
        barrier_wait_s: float,
        mail_encode_s: float,
        mail_decode_s: float,
        mail_bytes: int,
        checkpoint_s: float,
    ) -> None:
        """Record one window's *measured* wall-clock decomposition.

        Called by the worker loop with externally measured spans (the
        loop owns the stopwatches so the barrier wait includes the pipe
        round-trip, which the engine cannot see) as one record of the
        tracer's measured channel; the write is guarded, so an untraced
        run records nothing. ``checkpoint_s`` is the checkpoint cut after
        the window, ``0.0`` for a window without one.
        """
        self._trace.measured_window(
            window_index,
            self.shard_id,
            execute_s,
            barrier_wait_s,
            mail_encode_s,
            mail_decode_s,
            executed,
            mail_bytes,
            checkpoint_s,
        )


# ----------------------------------------------------------------------
# Shard-side protocol steps (mail, results)
# ----------------------------------------------------------------------
def _resolve_builder(path: str) -> Callable[..., ShardScenario]:
    module_name, _, fn_name = path.partition(":")
    if not module_name or not fn_name:
        raise ParallelBackendError(
            f"builder {path!r} must be 'package.module:function'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ParallelBackendError(
            f"builder {path!r}: cannot import its module ({exc})"
        ) from exc
    fn = getattr(module, fn_name, None)
    if fn is None:
        raise ParallelBackendError(f"builder {path!r} not found")
    return fn


def _build_shard(
    engine: ShardEngine, spec: ScenarioSpec
) -> tuple[ShardScenario, dict[Any, str], dict[str, Callable[..., Any]]]:
    """Run the scenario builder and index its wire handlers both ways."""
    scenario = _resolve_builder(spec.builder)(engine, spec.params)
    name_to_fn = dict(scenario.handlers)
    fn_to_name = {}
    for name in sorted(name_to_fn):
        fn_to_name[name_to_fn[name]] = name
    engine.seal_setup()
    return scenario, fn_to_name, name_to_fn


def _wire_name(fn_to_name: dict[Any, str], ev: Event, consequence: str) -> str:
    """The registered wire name of ``ev``'s handler (code never travels)."""
    name = fn_to_name.get(ev.fn)
    if name is None:
        raise UnregisteredHandlerError(
            f"handler {ev.fn!r} is not in the scenario's handlers dict; "
            f"{consequence}"
        )
    return name


def _wire_event(name_to_fn, node, time, key, handler, args, source: str) -> Event:
    """Rebuild an event from its wire fields, keeping its original key."""
    fn = name_to_fn.get(handler)
    if fn is None:
        raise UnregisteredHandlerError(
            f"{source} references unknown handler {handler!r}; sender and "
            "receiver scenarios disagree"
        )
    return Event(time, tuple(key), fn, tuple(args), node)


def _encode_outbound(
    engine: ShardEngine,
    shard_of: Sequence[int],
    fn_to_name: dict[Any, str],
    procs: int,
) -> list[bytes]:
    """Batch and serialize one window's cross-shard mail per destination."""
    buckets: list[list[tuple]] = [[] for _ in range(procs)]
    for target_lp, ev in engine.drain_outbound():
        name = _wire_name(fn_to_name, ev, "it cannot cross shards as mail")
        buckets[int(shard_of[target_lp])].append(
            (int(target_lp), int(ev.node), ev.time, ev.seq, name, ev.args)
        )
    return [_ser().encode_mail_batch(b) if b else b"" for b in buckets]


def _deliver_encoded_mail(
    engine: ShardEngine,
    payloads: Sequence[bytes],
    barrier_time: float,
    name_to_fn: dict[str, Callable[..., Any]],
) -> None:
    """Decode, validate (a tolerated violation is the sender's to count),
    and enqueue one window's inbound mail."""
    items: list[tuple] = []
    for payload in payloads:
        if payload:
            items.extend(_ser().decode_mail_batch(payload))
    validate_mail_batch(items, barrier_time, engine.lookahead, strict=engine.strict)
    for target_lp, node, time, key, handler, args in items:
        engine.push_remote(
            target_lp, _wire_event(name_to_fn, node, time, key, handler, args, "mail")
        )


def _expect(msg: tuple, tag: str, w: int, sender: str) -> None:
    """Raise unless ``msg`` is the ``tag`` message of window ``w``."""
    if msg[0] != tag or msg[1] != w:
        raise ParallelBackendError(
            f"barrier protocol desync: {sender} sent {msg[:2]!r}, "
            f"expected {tag} {w}"
        )


def _shard_result(engine: ShardEngine, scenario: ShardScenario) -> dict[str, Any]:
    return {
        "collect": scenario.collect() if scenario.collect is not None else None,
        "events_executed": int(engine.events_executed),
        "lookahead_violations": int(engine.lookahead_violations),
        "mail_bytes": int(engine.mail_bytes),
    }


# ----------------------------------------------------------------------
# LP migration wire helpers (online re-partitioning)
# ----------------------------------------------------------------------
def _encode_lp_migration(
    engine: ShardEngine,
    scenario: ShardScenario,
    fn_to_name: dict[Callable, str],
    lp: int,
) -> bytes:
    """Release ``lp`` from ``engine`` and pack it for the control plane.

    The payload carries the LP's still-pending events (re-encoded by
    handler wire name, keeping their original ``(epoch, lane, counter)``
    keys) plus the scenario's opaque ``capture_lp`` state blob. It rides
    the control plane via :func:`repro.serialization.encode_payload` —
    never barrier mail, so mail bytes and mail ordering are untouched.
    """
    items = [
        (
            int(lp),
            int(ev.node),
            ev.time,
            ev.seq,
            _wire_name(fn_to_name, ev, f"LP {lp} cannot migrate"),
            ev.args,
        )
        for ev in engine.release_lp(lp)
    ]
    state = scenario.capture_lp(lp) if scenario.capture_lp is not None else None
    return _ser().encode_payload({"lp": int(lp), "events": items, "state": state})


def _install_lp_migration(
    engine: ShardEngine,
    scenario: ShardScenario,
    name_to_fn: dict[str, Callable],
    payload_bytes: bytes,
) -> int:
    """Adopt a migrated LP from its wire payload; returns payload size."""
    payload = _ser().decode_payload(payload_bytes)
    lp = int(payload["lp"])
    engine.adopt_lp(
        lp,
        [
            _wire_event(name_to_fn, *fields, "migration payload")
            for _target_lp, *fields in payload["events"]
        ],
    )
    if scenario.restore_lp is not None and payload.get("state") is not None:
        scenario.restore_lp(lp, payload["state"])
    return len(payload_bytes)


# ----------------------------------------------------------------------
# Checkpoint state capture / restore (fault-tolerant execution)
# ----------------------------------------------------------------------
def _snapshot_queue_items(queue, fn_to_name: dict[Any, str]) -> list[tuple]:
    """Non-destructively list one queue's live events by wire name.

    Entries come back in canonical ``(time, key)`` order so the encoded
    checkpoint (and therefore its digest) is independent of the heap's
    internal layout. The heap's ``(time, key, event)`` entries sort as
    they are: keys are unique, so two events are never compared.
    """
    live = sorted(e for e in queue.heap if not e[2].cancelled)
    return [
        (
            int(ev.node),
            ev.time,
            tuple(ev.seq),
            _wire_name(fn_to_name, ev, "the shard cannot checkpoint"),
            ev.args,
        )
        for _time, _key, ev in live
    ]


def _encode_worker_checkpoint(
    engine: ShardEngine,
    scenario: ShardScenario,
    fn_to_name: dict[Any, str],
    window_index: int,
    mail_bytes: int,
) -> bytes:
    """Pack one shard's full state at an empty barrier into a checkpoint blob.

    The whole payload goes through a single pickle so aliasing among
    events and packets survives the round trip exactly.
    """
    if engine._outbound or any(engine._local_mail):
        raise ParallelBackendError(
            "checkpoint capture requires an empty barrier "
            "(undelivered mail is pending)"
        )
    owned_lps = [int(lp) for lp in engine.owned_lps]
    engine_state = {
        "now": float(engine.now),
        "kcount": int(engine._kcount),
        "events_executed": int(engine.events_executed),
        "lookahead_violations": int(engine.lookahead_violations),
        "owned_lps": list(owned_lps),  # its own list: pickle would memoize a shared one
        "queues": {
            lp: _snapshot_queue_items(engine._queues[i], fn_to_name)
            for i, lp in enumerate(owned_lps)
        },
        "control": (
            _snapshot_queue_items(engine._control_queue, fn_to_name)
            if engine._control_queue is not None
            else None
        ),
    }
    payload = {
        "shard_id": int(engine.shard_id),
        "window_index": int(window_index),
        "owned_lps": owned_lps,
        "engine": engine_state,
        "shard_state": (
            scenario.capture_shard() if scenario.capture_shard is not None else None
        ),
        "acc": {"mail_bytes": int(mail_bytes)},
    }
    return _ser().encode_payload(payload)


def _restore_shard_from_blob(
    blob: bytes,
    assignment,
    num_lps: int,
    lookahead: float,
    spec: ScenarioSpec,
    strict: bool,
    procs: int,
):
    """Rebuild a shard from a checkpoint: fresh setup replay + restore.

    Returns ``(engine, scenario, fn_to_name, name_to_fn, payload)``.
    """
    payload = _ser().decode_payload(blob)
    engine = ShardEngine(
        assignment,
        num_lps,
        lookahead,
        payload["owned_lps"],
        strict=strict,
        shard_id=int(payload["shard_id"]),
        num_shards=procs,
    )
    scenario, fn_to_name, name_to_fn = _build_shard(engine, spec)
    state = payload["engine"]
    if engine.owned_lps != [int(lp) for lp in state["owned_lps"]]:
        raise ParallelBackendError(
            "checkpoint owned-LP set does not match the rebuilt engine"
        )
    reloads = [
        (engine._queues[i], state["queues"][lp])
        for i, lp in enumerate(engine.owned_lps)
    ]
    if engine._control_queue is not None:
        reloads.append((engine._control_queue, state["control"] or []))
    for queue, items in reloads:
        queue.drain_entries()
        for fields in items:
            queue.push_event(_wire_event(name_to_fn, *fields, "checkpoint"))
    engine.now = engine._lp_now = float(state["now"])
    engine._kcount = int(state["kcount"])
    engine.events_executed = int(state["events_executed"])
    engine.lookahead_violations = int(state["lookahead_violations"])
    if scenario.restore_shard is not None and payload.get("shard_state") is not None:
        scenario.restore_shard(payload["shard_state"])
    return engine, scenario, fn_to_name, name_to_fn, payload
