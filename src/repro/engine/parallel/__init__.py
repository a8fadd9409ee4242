"""Multi-process conservative backend: real parallelism, same bytes.

:class:`ParallelConservativeEngine` executes the barrier-window protocol
of :class:`~repro.engine.conservative.ConservativeEngine` across real OS
processes. LPs are sharded over workers (contiguous split, so the
partitioner's locality survives); every worker replays the *identical*
scenario construction, keeps only the events of the LPs it owns, runs
each window with the existing per-LP kernels, and exchanges cross-shard
mail at the barrier — batched per window and serialized through
:mod:`repro.serialization`. There are no null messages: the window
length equals the lookahead, so a barrier per window is sufficient for
causality (the MaSSF/DaSSF composite-synchronization special case where
every channel's lookahead is the global MLL).

Byte-identity with the single-process engine comes from three rules:

1. **Deterministic tiebreak keys.** One engine-wide ``seq`` counter
   cannot exist across processes, so events carry ``(epoch, lane, counter)``
   tuples: ``epoch`` is 0 during setup and ``window_index + 1`` during
   execution, ``lane`` is the scheduling LP (0 for setup and control),
   and ``counter`` is a per-worker monotone int. Within one destination
   queue this lexicographic order reproduces the single-process
   ``(time, seq)`` order exactly: phases execute sequentially in the
   single-process engine (setup, then window 0 LP 0, window 0 LP 1, …),
   every ``(epoch >= 1, lane)`` phase has a single producing worker, and
   setup counters align across workers because construction is replayed
   identically everywhere.

2. **Replicated control plane.** Events targeting ``node == -1`` (fault
   injections, other control work) run on LP 0. The worker owning LP 0
   executes them interleaved with LP 0's traffic, exactly like the
   single-process engine; every other worker *replays* them from a
   replica queue before each window, so control-plane mutations (link
   state, forwarding tables, loss probabilities) are visible to all LPs
   with the same window granularity as the sequential schedule, where
   LP 0 runs first in every window. Replica replay discards events it
   would schedule onto real nodes — the owner already emits those as
   mail — so nothing is ever delivered twice.

3. **Shared boundary arithmetic.** Window boundaries come from
   :func:`repro.engine.windows.iter_windows` in every process, so the
   lookahead fence is the identical float everywhere.

What does *not* shard: scenarios whose construction cannot be replayed
per-process (live sockets), events whose callback is a closure — no
wire name to cross a boundary under, which is what the online wrapper
layer and its applications still schedule — and cross-shard event
cancellation (all cancellations
in the codebase are LP-local timers). This mirrors the feasibility
boundary reported for distributed BGP simulation — shared mutable
routing/daemon state is the hard part, packet-mediated traffic shards
cleanly (see PAPERS.md).
"""

from ..recovery import RecoveryExhaustedError
from .coordinator import (
    LocalShardGroup,
    ParallelConservativeEngine,
    ParallelRunResult,
)
from .shard import (
    MailOrderError,
    ParallelBackendError,
    ParallelWorkerError,
    ScenarioSpec,
    ShardEngine,
    ShardScenario,
    UnregisteredHandlerError,
    WorkerCrashError,
    shard_lps,
    validate_mail_batch,
)

__all__ = [
    "ParallelBackendError",
    "WorkerCrashError",
    "ParallelWorkerError",
    "MailOrderError",
    "UnregisteredHandlerError",
    "RecoveryExhaustedError",
    "ScenarioSpec",
    "ShardScenario",
    "ShardEngine",
    "LocalShardGroup",
    "ParallelRunResult",
    "ParallelConservativeEngine",
    "shard_lps",
    "validate_mail_batch",
]
