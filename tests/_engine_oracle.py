"""The single-process conservative engine as it was before it was folded
into ``ShardEngine``.

``repro.engine.conservative.ConservativeEngine`` at commit b3f3c0c, moved
here verbatim as ``OracleConservativeEngine`` to serve as the reference
of ``tests/test_engine_oracle.py``: a ``ShardEngine`` owning every LP,
driven by ``run(until)``, must execute every event in exactly this
engine's order and record the same ``WindowStats`` rows, counters,
instruments and trace channels. Its order comes from one engine-wide
``(time, seq)`` sequence, not from ``(epoch, lane, counter)`` keys, so
it checks the keys rather than sharing them.

Frozen: nothing under ``src/`` imports it, and no change to the shipped
loop is mirrored here. Only the imports differ from the original
(``LookaheadViolation`` now lives in ``repro.engine.windows``), the
per-event sample, which the tracer's ``events`` channel used to take,
goes to the ``EventRecorder`` both engines then recorded into (frozen in
``tests/_kernel_oracle.py`` since ``ShardEngine`` keeps its own samples),
two attributes shipped code reads are set after the class, and its
written instruments are gone: the registry reads the totals it keeps
(``window_stats``, ``lookahead_violations``) instead, as it reads the
shipped engine's.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Sequence

import numpy as np

from _kernel_oracle import EventRecorder
from repro.engine.events import Event, EventQueue
from repro.engine.windows import (
    WINDOW_EPSILON_FRACTION,
    LookaheadViolation,
    WindowStats,
    iter_windows,
)
from repro.obs import names as obs_names
from repro.obs.registry import get_registry
from repro.obs.trace import get_tracer

__all__ = ["OracleConservativeEngine"]


class OracleConservativeEngine(EventRecorder):
    """Barrier-window parallel executor over a node -> LP assignment.

    Parameters
    ----------
    assignment:
        ``assignment[node] = lp`` for every simulated node id. Events with
        ``node == -1`` (engine-internal) run on LP 0.
    num_lps:
        Number of logical processes (simulation engine nodes).
    lookahead:
        Window length in simulated seconds; must not exceed the minimum
        cross-LP link latency of the workload (the achieved MLL), which the
        engine enforces at scheduling time.
    strict:
        Raise :class:`LookaheadViolation` on violations (default). With
        ``strict=False`` violations are counted but tolerated (events are
        delivered late at the next barrier — the accuracy erosion a real
        optimistic/approximate engine would suffer).
    """

    def __init__(
        self,
        assignment: Sequence[int] | np.ndarray,
        num_lps: int,
        lookahead: float,
        strict: bool = True,
        record_trace: bool = False,
    ) -> None:
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        self.assignment = np.asarray(assignment, dtype=np.int64)
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= num_lps
        ):
            raise ValueError("assignment references an LP out of range")
        self.num_lps = int(num_lps)
        self.lookahead = float(lookahead)
        self.strict = strict
        # assignment as a Python list: the per-event lookup of
        # schedule_at (a numpy scalar index costs several times a list's)
        self._lp_of_node: list[int] = self.assignment.tolist()

        self.now: float = 0.0  # barrier time (start of current window)
        self._queues = [EventQueue() for _ in range(self.num_lps)]
        # The per-event paths work on each queue's heap list itself
        # (EventQueue.heap documents the layout and why this is allowed).
        self._heaps = [q.heap for q in self._queues]
        self._mailboxes: list[list[Event]] = [[] for _ in range(self.num_lps)]
        # One (time, seq) tiebreak sequence over all LP queues: what makes
        # the order the sequential kernel's. Per engine, so two engines in
        # one process number their events independently.
        self._seq = itertools.count()
        self._current_lp: int | None = None
        self._window_end: float = 0.0
        self.events_executed = 0
        self.lookahead_violations = 0
        self.window_stats: list[WindowStats] = []
        self._events_this_window = np.zeros(self.num_lps, dtype=np.int64)
        self._remote_this_window = np.zeros(self.num_lps, dtype=np.int64)

        # Observability: the registry reads the totals kept above. The
        # event total is summed over the window rows, so a run() call a
        # violation ends counts the windows it completed.
        reg = get_registry()
        reg.read(obs_names.ENGINE_EVENTS, lambda: sum(
            int(ws.events_per_lp.sum()) for ws in self.window_stats))
        reg.read(obs_names.ENGINE_WINDOWS, lambda: len(self.window_stats))
        reg.read(obs_names.ENGINE_LOOKAHEAD_VIOLATIONS, lambda: self.lookahead_violations)
        reg.read(obs_names.ENGINE_LP_EVENTS, lambda: sum(
            (ws.events_per_lp for ws in self.window_stats), np.zeros(self.num_lps)))
        reg.read(obs_names.ENGINE_LP_REMOTE_SENDS, lambda: sum(
            (ws.remote_sends_per_lp for ws in self.window_stats), np.zeros(self.num_lps)))
        # Structured trace hook point (same resolve-once contract): per
        # cross-LP mailbox edge.
        self._trace = get_tracer()
        self._init_trace(record_trace)

    @property
    def current_time(self) -> float:
        """Simulated time within the executing LP (barrier time otherwise)."""
        return self._lp_now if self._current_lp is not None else self.now

    @property
    def next_barrier_time(self) -> float:
        """End of the current synchronization window (== now at a barrier).

        External (live-traffic) events are admitted at this time: an event
        scheduled at the window end is delivered at the barrier and
        therefore can safely target any LP.
        """
        return self._window_end if self._current_lp is not None else self.now

    # ------------------------------------------------------------------
    def lp_of(self, node: int) -> int:
        """The LP owning ``node`` (engine-internal events run on LP 0)."""
        return 0 if node < 0 else self._lp_of_node[node]

    def schedule_at(
        self, time: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` on the LP owning ``node``.

        During window execution the causality floor is the *executing
        LP's local clock* (``_lp_now``), not the barrier clock: an event
        callback must not schedule into its own LP's past, or local
        execution order silently inverts inside the window. At a barrier
        (no LP executing) the floor is the global barrier time.
        Scheduling onto a *different* LP additionally checks the
        lookahead: the event must not land before the current window
        ends (it will be delivered at the barrier).
        """
        current_lp = self._current_lp
        if current_lp is None:
            if time < self.now:
                raise ValueError("cannot schedule into the past")
        elif time < self._lp_now:
            raise ValueError(
                f"cannot schedule into the executing LP's past "
                f"(t={time:.9f} < LP-local now {self._lp_now:.9f})"
            )
        target_lp = 0 if node < 0 else self._lp_of_node[node]  # lp_of, inlined
        seq = next(self._seq)
        ev = Event(time, seq, fn, args, node)
        if current_lp is None or target_lp == current_lp:
            heappush(self._heaps[target_lp], (time, seq, ev))
        else:
            if time < self._window_end - WINDOW_EPSILON_FRACTION * self.lookahead:
                self.lookahead_violations += 1
                if self.strict:
                    raise LookaheadViolation(
                        f"cross-LP event at t={time:.9f} lands inside the current "
                        f"window ending at {self._window_end:.9f} "
                        f"(lookahead {self.lookahead:.9f})"
                    )
            self._remote_this_window[current_lp] += 1
            self._mailboxes[target_lp].append(ev)
            if self._trace.enabled:
                self._trace.edge(current_lp, target_lp, self._lp_now, time)
        return ev

    def schedule(
        self, delay: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule relative to the executing LP's current time."""
        base = self._lp_now if self._current_lp is not None else self.now
        return self.schedule_at(base + delay, fn, node=node, args=args)

    # ------------------------------------------------------------------
    def _run_lp_window(self, lp: int, window_end: float) -> int:
        heap = self._heaps[lp]
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
            if self.record_trace:
                self._trace_times.append(time)
                self._trace_nodes.append(ev.node)
        return executed

    def run(self, until: float) -> int:
        """Run barrier windows until simulated time ``until``.

        Returns the number of events executed. Window stats accumulate in
        :attr:`window_stats`.
        """
        executed_total = 0
        # Window boundaries come from the shared iterator so this engine
        # and the multi-process backend derive bit-identical float
        # sequences (see repro.engine.windows).
        for window_index, _start, window_end in iter_windows(
            self.now, self.lookahead, until, first_index=len(self.window_stats)
        ):
            self._window_end = window_end
            self._events_this_window[:] = 0
            self._remote_this_window[:] = 0
            # "Parallel" phase: each LP processes its window independently.
            for lp in range(self.num_lps):
                self._current_lp = lp
                n = self._run_lp_window(lp, window_end)
                self._events_this_window[lp] = n
                executed_total += n
            self._current_lp = None
            # Barrier: deliver cross-LP mail, advance global time.
            for lp, mail in enumerate(self._mailboxes):
                for ev in mail:
                    self._queues[lp].push_event(ev)
                mail.clear()
            self.window_stats.append(
                WindowStats(
                    window_index=window_index,
                    start=self.now,
                    end=window_end,
                    events_per_lp=self._events_this_window.copy(),
                    remote_sends_per_lp=self._remote_this_window.copy(),
                )
            )
            self.now = window_end
        self.events_executed += executed_total
        return executed_total

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Live events across all LP queues and mailboxes."""
        return sum(len(q) for q in self._queues) + sum(len(m) for m in self._mailboxes)

    def events_per_lp_total(self) -> np.ndarray:
        """Total events executed per LP over all windows so far."""
        total = np.zeros(self.num_lps, dtype=np.int64)
        for ws in self.window_stats:
            total += ws.events_per_lp
        return total

    def remote_sends_total(self) -> np.ndarray:
        """Total cross-LP events sent per LP over all windows so far."""
        total = np.zeros(self.num_lps, dtype=np.int64)
        for ws in self.window_stats:
            total += ws.remote_sends_per_lp
        return total

    _lp_now: float = 0.0


# What shipped code reads of every engine it runs on, and once read with
# these values as the default for an engine without them: the oracle owns
# every LP, so it runs the control plane, and it keeps no phase cursor.
OracleConservativeEngine.has_control = True
OracleConservativeEngine.execution_cursor = (0, 0)
