"""How coordinator and workers reach each other: processes or direct calls.

A transport owns one endpoint per shard and knows nothing about windows,
checkpoints or the recovery ladder: it spawns an endpoint from a worker
config, moves opaque messages, reports a lost endpoint as the typed
:class:`WorkerCrashError`, and tears down (:class:`Transport` is the
whole interface). What the messages *mean* lives in
:class:`~.worker.ShardWorker` and :class:`~.coordinator.Coordinator`,
which is why both transports run the one loop and the one ladder.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
from collections import deque
from functools import partial
from typing import Any

from ...obs.distributed import configure_worker_observability
from ...obs.timers import Stopwatch
from .shard import ParallelBackendError, ParallelWorkerError, WorkerCrashError, _ser
from .worker import ShardWorker

__all__ = ["Transport", "PipeTransport", "InlineTransport"]

#: how long an orderly teardown waits for a worker to exit by itself
_EXIT_GRACE_S = 5.0


class Transport:
    """What the coordinator needs from a way of reaching its workers."""

    #: True when every endpoint is its own OS process: it has a private
    #: obs registry to snapshot. In-process endpoints share the
    #: controller's registry (nothing to ship).
    isolated: bool

    def spawn(self, shard_id: int, config: dict) -> None:
        """Start (or replace) the endpoint of ``shard_id`` from ``config``."""
        raise NotImplementedError

    def send(self, shard_id: int, message: tuple) -> None:
        """Deliver one message; :class:`WorkerCrashError` if the peer is gone."""
        raise NotImplementedError

    def recv(self, shard_id: int) -> tuple:
        """Next message from ``shard_id``; :class:`WorkerCrashError` (with
        ``shard_id``, ``exitcode``, ``hung``) for a dead or silent endpoint,
        :class:`ParallelWorkerError` for one that raised and reported it."""
        raise NotImplementedError

    def discard(self, shard_id: int) -> None:
        """Drop an endpoint already reported lost, without a grace period."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear every endpoint down; safe to call on an aborted run."""
        raise NotImplementedError


def _crash_error(shard_id: int, what: str, exitcode=None, hung: bool = False):
    """Build a typed `WorkerCrashError` carrying shard/exit diagnostics."""
    if hung:
        err = WorkerCrashError(
            f"worker {shard_id} {what} (process still alive: hang suspected)"
        )
    else:
        err = WorkerCrashError(f"worker {shard_id} {what} (exitcode {exitcode})")
    err.shard_id = shard_id
    err.exitcode = exitcode
    err.hung = hung
    return err


# ----------------------------------------------------------------------
# Real processes
# ----------------------------------------------------------------------
def _fire_process_fault(conn, kind) -> None:
    """Execute one injected process-level fault (worker side)."""
    from ...faults.plan import ProcessFaultKind  # deferred: faults -> engine

    if kind is ProcessFaultKind.SIGKILL:
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind is ProcessFaultKind.HANG:
        while True:  # pragma: no cover - reaped by the controller
            time.sleep(3600.0)
    else:  # pipe drop: vanish without a goodbye on the wire
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        os._exit(1)


def _worker_main(conn, config_bytes: bytes, inherited=()) -> None:
    """Worker process entry: pump a :class:`ShardWorker` over the pipe.

    ``inherited`` are the controller-side pipe ends a ``fork`` copied
    into this child; they are closed first, so that the controller
    closing *its* copy is an EOF here instead of a silent wait. Failures
    surface as ``("error", traceback_text)`` so the controller can raise
    a typed error instead of deadlocking at the barrier.
    """
    for parent_end in inherited:
        parent_end.close()
    try:
        config = _ser().decode_payload(config_bytes)
        obs_on = configure_worker_observability(config.get("obs"))
        steps = ShardWorker(config, obs_on, partial(_fire_process_fault, conn)).run()
        inbound = None
        try:
            while True:
                outbound = steps.send(inbound)
                inbound = None
                if outbound is None:
                    inbound = conn.recv()
                else:
                    conn.send(outbound)
        except StopIteration:
            conn.close()
    except BaseException:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", traceback.format_exc()))
            conn.close()
        except (BrokenPipeError, OSError):  # pragma: no cover - dead pipe
            pass


class PipeTransport(Transport):
    """One daemon process per shard, reached over a duplex ``mp.Pipe``.

    ``start_method`` is the ``multiprocessing`` start method;
    ``window_timeout_s`` is how long :meth:`recv` stays patient with a
    live but silent worker before calling it hung.
    """

    isolated = True

    def __init__(self, start_method: str, window_timeout_s: float) -> None:
        self._ctx = mp.get_context(start_method)
        self._timeout_s = float(window_timeout_s)
        self._conns: dict[int, Any] = {}
        self._procs: dict[int, Any] = {}
        #: endpoints reported lost and not yet discarded
        self._lost: set[int] = set()

    def spawn(self, shard_id: int, config: dict) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # A forked child holds a copy of every controller-side end open
        # right now, its own included. Left open, the worker would never
        # see EOF when the controller hangs up (an abandoned run would sit
        # out the exit grace, and an orphaned worker would never exit).
        # Other start methods inherit nothing (and would have to pickle).
        inherited = (
            [*self._conns.values(), parent_conn]
            if self._ctx.get_start_method() == "fork"
            else []
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, _ser().encode_payload(config), inherited),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[shard_id], self._procs[shard_id] = parent_conn, proc

    def _lose(self, shard_id: int, what: str, hung: bool = False):
        proc = self._procs[shard_id]
        if proc.exitcode is None and not hung:
            # An EOF can surface before the dead child is reaped, in which
            # case exitcode still reads None; give the reap a moment.
            proc.join(0.5)
        self._lost.add(shard_id)
        return _crash_error(shard_id, what, proc.exitcode, hung)

    def send(self, shard_id: int, message: tuple) -> None:
        try:
            self._conns[shard_id].send(message)
        except (BrokenPipeError, OSError):
            raise self._lose(shard_id, "was gone before a delivery") from None

    def recv(self, shard_id: int) -> tuple:
        # A dead process is detected on the next 50 ms liveness tick, long
        # before the window timeout; one that is alive but silent past
        # ``window_timeout_s`` is reported with ``hung=True``.
        conn = self._conns[shard_id]
        proc = self._procs[shard_id]
        waited = Stopwatch()
        while True:
            try:
                ready = conn.poll(0.05)
            except (OSError, EOFError):
                # A worker killed with unread mail in its receive buffer
                # resets the socket pair (Linux AF_UNIX semantics).
                raise self._lose(shard_id, "reset its pipe mid-protocol") from None
            if ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    raise self._lose(
                        shard_id, "closed its pipe mid-protocol"
                    ) from None
                if msg[0] == "error":
                    raise ParallelWorkerError(shard_id, msg[1])
                return msg
            if not proc.is_alive() and not conn.poll(0.0):
                raise self._lose(shard_id, "died at a barrier without reporting")
            if waited.elapsed() > self._timeout_s:
                raise self._lose(
                    shard_id,
                    f"unresponsive for more than {self._timeout_s:.0f}s at a barrier",
                    hung=proc.is_alive(),
                )

    def _reap(self, shard_id: int) -> None:
        """Join → terminate → kill; a lost worker gets no grace to exit."""
        proc = self._procs.pop(shard_id)
        if shard_id in self._lost:
            self._lost.remove(shard_id)
        else:
            proc.join(timeout=_EXIT_GRACE_S)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=_EXIT_GRACE_S)
        if proc.is_alive():  # pragma: no cover - terminate-resistant worker
            proc.kill()
            proc.join(timeout=_EXIT_GRACE_S)

    def discard(self, shard_id: int) -> None:
        self._lost.add(shard_id)
        self._conns.pop(shard_id).close()
        self._reap(shard_id)

    def close(self) -> None:
        # Hang up on everyone first (each worker's recv sees EOF), then reap.
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        for shard_id in list(self._procs):
            self._reap(shard_id)


# ----------------------------------------------------------------------
# In-process
# ----------------------------------------------------------------------
class _InlineDeath(Exception):
    """A planned process fault fired inside an in-process worker."""


def _die(kind) -> None:
    raise _InlineDeath(f"injected {kind.value}")


class _InlineEndpoint:
    """One in-process worker with the two mailboxes a pipe would buffer."""

    def __init__(self, steps) -> None:
        self.steps = steps
        self.inbox: deque[tuple] = deque()
        self.outbox: deque[tuple] = deque()
        #: the worker is suspended at a ``msg = yield``
        self.wants_message = False
        #: what killed the worker, once something has
        self.died_of: str | None = None

    def advance(self) -> None:
        """Run the worker until it needs a message it does not have.

        Like a real process, it gets as far as it can on its own: every
        message it emits on the way is buffered for :meth:`recv`, and a
        planned fault on the way kills it there, leaving what it had
        already sent readable.
        """
        try:
            while self.died_of is None:
                if not self.wants_message:
                    outbound = next(self.steps)
                elif self.inbox:
                    outbound = self.steps.send(self.inbox.popleft())
                else:
                    return
                self.wants_message = outbound is None
                if outbound is not None:
                    self.outbox.append(outbound)
        except StopIteration:
            self.wants_message = True  # finished: nothing more will come
        except _InlineDeath as death:
            self.died_of = str(death)


class InlineTransport(Transport):
    """Every shard's :class:`ShardWorker` pumped by direct call.

    No OS processes and no pipes, but the identical protocol — messages
    still round-trip through :mod:`repro.serialization` where the worker
    encodes them. There is no process to signal, so every planned fault
    kind collapses to the endpoint dying on the spot. Exceptions a worker
    raises propagate to the caller as they are.
    """

    isolated = False

    def __init__(self) -> None:
        self._endpoints: dict[int, _InlineEndpoint] = {}

    def spawn(self, shard_id: int, config: dict) -> None:
        endpoint = _InlineEndpoint(ShardWorker(config, False, _die).run())
        self._endpoints[shard_id] = endpoint
        endpoint.advance()

    def send(self, shard_id: int, message: tuple) -> None:
        endpoint = self._endpoints[shard_id]
        if endpoint.died_of is not None:
            raise _crash_error(
                shard_id, f"was gone before a delivery ({endpoint.died_of})"
            )
        endpoint.inbox.append(message)
        endpoint.advance()

    def recv(self, shard_id: int) -> tuple:
        endpoint = self._endpoints[shard_id]
        if endpoint.outbox:
            return endpoint.outbox.popleft()
        if endpoint.died_of is not None:
            raise _crash_error(
                shard_id, f"died at a barrier without reporting ({endpoint.died_of})"
            )
        raise ParallelBackendError(
            f"barrier protocol deadlock: worker {shard_id} has nothing to "
            "say until the coordinator answers it"
        )

    def discard(self, shard_id: int) -> None:
        del self._endpoints[shard_id]

    def close(self) -> None:
        self._endpoints.clear()
