"""Deterministic process-level fault plans for the mp backend.

Where :class:`repro.faults.schedule.FaultSchedule` breaks things *inside*
the simulated network (links, routers, BGP sessions), a
:class:`FaultPlan` breaks the *simulator itself*: it tells worker
processes to SIGKILL themselves, hang, or drop their controller pipe at
chosen barrier windows. Plans are seeded and sorted with a sha256
digest, exactly like fault schedules, so a chaos run's process faults
are as replayable as its network faults — the recovery differential
suite depends on re-running the same plan and getting the same crash
sequence every time.

Faults target ``(window, shard, incarnation)``: a fault fires only in
the incarnation it names, so a plan can kill incarnation 0 at window 3
and incarnation 1 at window 7 to exercise repeated respawns, or kill
every incarnation up to ``max_respawns`` to force the degraded-adoption
rung of the recovery ladder.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["ProcessFaultKind", "ProcessFault", "FaultPlan"]


class ProcessFaultKind(enum.Enum):
    """How a worker process fails."""

    #: The worker SIGKILLs itself — no cleanup, no exit handler, the
    #: hardest possible crash.
    SIGKILL = "proc.sigkill"
    #: The worker stops responding but stays alive; the controller's
    #: ``window_timeout_s`` escalation must declare it dead.
    HANG = "proc.hang"
    #: The worker closes its controller pipe then exits nonzero —
    #: surfaces as EOF on the controller side.
    PIPE_DROP = "proc.pipe_drop"


@dataclass(frozen=True)
class ProcessFault:
    """One planned worker-process failure.

    ``after_send`` selects the failure point within the window:
    ``False`` fires at the start of the window (before the worker
    executes or reports it), ``True`` fires after the worker has sent
    its window message but before it receives mail — exercising the
    controller's partially-collected-barrier recovery path.
    """

    window: int
    shard: int
    kind: ProcessFaultKind
    incarnation: int = 0
    after_send: bool = False

    def canonical(self) -> str:
        """Stable one-line text form (digest and trace material)."""
        return (
            f"{self.window}|{self.shard}|{self.kind.value}"
            f"|{self.incarnation}|{int(self.after_send)}"
        )


class FaultPlan:
    """An immutable, sorted plan of process-level faults."""

    def __init__(self, faults: list[ProcessFault], name: str = "custom", seed: int = 0) -> None:
        self.faults = sorted(
            faults,
            key=lambda f: (f.window, f.shard, f.incarnation, f.kind.value),
        )
        self.name = name
        self.seed = seed

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def digest(self) -> str:
        """SHA-256 over the canonical fault list — the determinism witness."""
        h = hashlib.sha256()
        for pf in self.faults:
            h.update(pf.canonical().encode())
            h.update(b";")
        return h.hexdigest()

    def for_shard(self, shard: int) -> list[ProcessFault]:
        """The faults targeting one shard, in plan order."""
        return [pf for pf in self.faults if pf.shard == shard]

    # ------------------------------------------------------------------
    @classmethod
    def random_kills(
        cls,
        num_windows: int,
        procs: int,
        kills: int = 1,
        seed: int = 0,
        kind: ProcessFaultKind = ProcessFaultKind.SIGKILL,
    ) -> "FaultPlan":
        """A seeded draw of ``kills`` worker crashes at random windows.

        Every shard is a target, shard 0 (the control owner) included,
        and each drawn ``(window, shard)`` pair is distinct. With fewer
        than two shards the plan is empty: adoption needs a survivor.
        Every choice consumes the single Generator in source order —
        same inputs, same plan.

        Repeated kills of the same shard are assigned increasing
        incarnations in window order: the first kill fires on the
        original process, the second on its respawn, and so on —
        otherwise every kill after the first would name an incarnation
        that is already dead and never fire.
        """
        if procs < 2:
            return cls([], name="random-kills", seed=seed)
        # Distinct xor base from the network-fault stream in
        # schedule.py (0xFA017C0D): process kills and simulated-network
        # faults must never draw from aliased generators.
        rng = np.random.default_rng(0xD1EDBAD ^ seed)
        chosen: set[tuple[int, int]] = set()
        drawn: list[tuple[int, int]] = []
        for _ in range(kills):
            for _attempt in range(64):
                window = int(rng.integers(num_windows))
                shard = int(rng.integers(procs))
                if (window, shard) not in chosen:
                    chosen.add((window, shard))
                    drawn.append((window, shard))
                    break
        per_shard: dict[int, int] = {}
        faults: list[ProcessFault] = []
        for window, shard in sorted(drawn):
            incarnation = per_shard.get(shard, 0)
            per_shard[shard] = incarnation + 1
            faults.append(ProcessFault(window, shard, kind, incarnation))
        return cls(faults, name="random-kills", seed=seed)
