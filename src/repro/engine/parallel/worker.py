"""The worker's window loop — written once, pumped by either transport.

:class:`ShardWorker` is one shard's side of the barrier protocol as a
resumable step object: :meth:`ShardWorker.run` is a generator that
yields every outbound wire message and yields ``None`` wherever it needs
the next inbound one (``msg = yield``). ``PipeTransport``'s child entry
pumps it over an ``mp.Pipe`` inside a worker process; ``InlineTransport``
pumps the very same object by direct call. Who sends which message in
which phase, and which config stanza enables it, is tabulated once in
docs/architecture.md ("Barrier protocol: message × phase").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator

from ...obs.registry import get_registry
from ...obs.timers import Stopwatch
from ...obs.trace import get_tracer
from ..recovery import checkpoint_digest, is_checkpoint_window
from ..windows import iter_windows
from .shard import (
    ShardEngine,
    _build_shard,
    _deliver_encoded_mail,
    _encode_lp_migration,
    _encode_outbound,
    _encode_worker_checkpoint,
    _expect,
    _install_lp_migration,
    _restore_shard_from_blob,
    _ser,
    _shard_result,
)

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard's window loop, driven from outside one message at a time.

    ``config`` is the dict the coordinator builds per (shard,
    incarnation). Its optional ``obs`` / ``rebalance`` / ``recovery``
    stanzas switch on everything beyond the plain ``window``/``mail``
    round; with a stanza absent none of its code runs and every message
    is byte-identical to a build without the feature. ``obs_on`` is what
    applying the ``obs`` stanza to this process returned. ``fire(kind)``
    realises a planned process fault however the transport can (a real
    SIGKILL, or an exception the in-process pump turns into the same
    typed loss).
    """

    def __init__(
        self, config: dict, obs_on: bool, fire: Callable[[Any], None]
    ) -> None:
        self.config = config
        self.obs_on = obs_on
        self._fire = fire
        self.shard_id = config["shard_id"]
        self.procs = config["procs"]
        rec = config.get("recovery") or {}
        self.ckpt_every = int(rec.get("checkpoint_every_n_windows", 0))
        self.incarnation = int(config.get("incarnation", 0))
        plan = rec.get("fault_plan")
        self.faults = tuple(plan.for_shard(self.shard_id)) if plan is not None else ()
        self.rb_on = bool(config.get("rebalance"))
        self.shard_of = list(config["shard_of"])
        self.boundaries = list(
            iter_windows(0.0, config["lookahead"], config["until"])
        )

    # -- shard construction -------------------------------------------
    def _build(self, owned_lps) -> int:
        """Fresh shard over ``owned_lps`` (setup replay); next window 0."""
        cfg = self.config
        self.engine = ShardEngine(
            cfg["assignment"], cfg["num_lps"], cfg["lookahead"], owned_lps,
            strict=cfg["strict"], shard_id=self.shard_id, num_shards=self.procs,
        )
        self.scenario, self.fn_to_name, self.name_to_fn = _build_shard(
            self.engine, cfg["spec"]
        )
        return 0

    def _restore(self, blob: bytes) -> int:
        """Shard rebuilt from a checkpoint; next window after its cut."""
        cfg = self.config
        restored = _restore_shard_from_blob(
            blob, cfg["assignment"], cfg["num_lps"], cfg["lookahead"],
            cfg["spec"], cfg["strict"], self.procs,
        )
        self.engine, self.scenario, self.fn_to_name, self.name_to_fn, payload = restored
        self.engine.mail_bytes = int(payload["acc"]["mail_bytes"])
        return int(payload["window_index"]) + 1

    def _install(self, payloads: dict[int, bytes]) -> None:
        for lp in sorted(payloads):
            _install_lp_migration(
                self.engine, self.scenario, self.name_to_fn, payloads[lp]
            )

    # -- recovery ------------------------------------------------------
    def _fault(self, window_index: int, after_send: bool) -> None:
        """Fire the planned fault matching this (window, incarnation, phase)."""
        for pf in self.faults:
            if (
                pf.window == window_index
                and pf.incarnation == self.incarnation
                and bool(pf.after_send) == after_send
            ):
                self._fire(pf.kind)

    def _recv(self) -> Generator[tuple | None, tuple | None, tuple]:
        """The next message for the loop, after any adoption announced first."""
        msg = yield
        while msg[0] == "adopt":
            yield from self._adopt(msg)
            msg = yield
        return msg

    def _adopt(self, msg: tuple) -> Generator[tuple, None, None]:
        """Apply ``("adopt", dead, heir, config)``: ``dead``'s LPs move to ``heir``.

        Every survivor re-routes ``dead``'s LPs to ``heir``. The heir
        rebuilds the dead shard in a second engine from ``config`` (its
        cut or its build, plus its log), runs it to this same
        receive point, moves its LPs in on the migration path and answers
        with what the dead shard had yet to say and its stand-in result.
        Adopting LP 0 makes the heir the control owner.
        """
        _tag, dead, heir, config = msg
        self.shard_of = [heir if s == dead else s for s in self.shard_of]
        if heir != self.shard_id:
            return
        replica = ShardWorker(config, self.obs_on, _no_fault)
        said = []
        for out in replica.run():
            if out is None:  # it waits where this shard waits
                break
            said.append(out)
        for lp in list(replica.engine.owned_lps):
            self._install({lp: _encode_lp_migration(
                replica.engine, replica.scenario, replica.fn_to_name, lp
            )})
        # Collected after the handover, so LP 0's control keys stay with the heir.
        result = _shard_result(replica.engine, replica.scenario)
        result["barrier_wait_s"] = 0.0
        yield ("adopted", dead, said, _ser().encode_payload(result))

    # -- the loop ------------------------------------------------------
    def run(self) -> Generator[tuple | None, tuple | None, None]:
        """Build (or restore) the shard, replay its log, then run live.

        A resumed shard (``config["resume"]``: its last cut or none, the
        messages the coordinator sent it since, and how many it had sent
        back) re-runs its own loop privately: inbound messages come from
        the log and the first ``seen`` outbound ones are dropped, as their
        recipients already have them. Everything after that is live.
        """
        cfg = self.config
        resume = cfg.get("resume") or {"checkpoint": None, "log": (), "seen": 0}
        blob = resume["checkpoint"]
        steps = self._loop(
            self._restore(blob) if blob is not None else self._build(cfg["owned_lps"])
        )
        log = deque(resume["log"])
        skip = resume["seen"]
        msg = None
        while True:
            try:
                out = steps.send(msg)
            except StopIteration:
                return
            msg = None
            if out is None:
                msg = log.popleft() if log else (yield)
            elif skip:
                skip -= 1
            else:
                yield out

    def _loop(self, i: int) -> Generator[tuple | None, tuple | None, None]:
        """Run every window from ``i`` on, then report ``done``."""
        obs_on = self.obs_on
        clock = Stopwatch()
        waiting = Stopwatch()
        barrier_wait_s = 0.0
        while i < len(self.boundaries):
            w, _start, end = self.boundaries[i]
            engine = self.engine
            self._fault(w, False)
            if obs_on:
                clock.restart()
            executed = engine.run_window(w, end)
            execute_s = clock.elapsed() if obs_on else 0.0
            if obs_on:
                clock.restart()
            payloads = _encode_outbound(
                engine, self.shard_of, self.fn_to_name, self.procs
            )
            encode_s = clock.elapsed() if obs_on else 0.0
            window_mail = sum(len(p) for p in payloads)
            engine.mail_bytes += window_mail
            yield (
                "window",
                w,
                payloads,
                engine.events_this_window.tolist(),
                engine.remote_this_window.tolist(),
                engine.xshard_this_window.tolist(),
            )
            self._fault(w, True)
            waiting.restart()
            msg = yield from self._recv()
            wait_s = waiting.elapsed()
            barrier_wait_s += wait_s
            _expect(msg, "mail", w, "the coordinator")
            if obs_on:
                clock.restart()
            _deliver_encoded_mail(engine, msg[2], end, self.name_to_fn)
            decode_s = clock.elapsed() if obs_on else 0.0
            plan = msg[3] if self.rb_on and len(msg) > 3 else None
            if plan:
                # Mail was routed by the *old* placement, so inbound
                # events sit in the departing LP's queue before it is
                # extracted. Payloads ride these control messages only —
                # never barrier mail.
                outgoing: dict[int, bytes] = {}
                for mig_lp, mig_src, mig_dst in plan:
                    mig_lp = int(mig_lp)
                    if int(mig_src) == self.shard_id:
                        outgoing[mig_lp] = _encode_lp_migration(
                            engine, self.scenario, self.fn_to_name, mig_lp
                        )
                    self.shard_of[mig_lp] = int(mig_dst)
                yield ("migrate", w, outgoing)
                inst = yield from self._recv()
                _expect(inst, "install", w, "the coordinator")
                self._install(inst[2])
            checkpoint_s = 0.0
            if is_checkpoint_window(w, self.ckpt_every):
                if obs_on:
                    clock.restart()
                blob = _encode_worker_checkpoint(
                    engine, self.scenario, self.fn_to_name, w, engine.mail_bytes
                )
                digest = checkpoint_digest(blob)
                if obs_on:
                    checkpoint_s = clock.elapsed()
                yield ("ckpt", w, digest, blob)
            if obs_on:
                engine.observe_window_walls(
                    w, executed, execute_s, wait_s, encode_s, decode_s, window_mail,
                    checkpoint_s,
                )
            i += 1
        result = _shard_result(self.engine, self.scenario)
        result["barrier_wait_s"] = barrier_wait_s
        if obs_on:
            # The process-global owners themselves; encoding pickles a copy.
            result["obs"] = {"registry": get_registry(), "trace": get_tracer()}
        last = self.boundaries[-1][0] if self.boundaries else -1
        yield ("done", last, _ser().encode_payload(result))


def _no_fault(kind: Any) -> None:
    """A replica's planned faults fired on the dead shard's processes already."""
