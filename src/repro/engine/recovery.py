"""Barrier-aligned checkpointing and crash recovery for the mp backend.

The multi-process conservative backend (:mod:`repro.engine.parallel`)
already proves that shard state is *portable* at barriers — LP
migration captures pending events and per-LP dynamics and reinstalls
them on another worker with byte-identical outcomes. This module closes
that capability into a fault-tolerance loop:

``checkpoint -> detect -> respawn -> replay -> resume``

with the same cardinal invariant as rebalancing: **recovery changes
execution, never outcomes**. A run whose workers are SIGKILLed at
arbitrary barrier windows must produce delivery logs, counter
fingerprints, and fault traces byte-identical to an uninterrupted run.

Protocol sketch (details in docs/robustness.md):

* At a configurable cadence (``checkpoint_every_n_windows``) each
  worker captures its whole shard at the barrier *after* mail delivery
  — pending event queues, tiebreak counters, and whatever the scenario's
  ``capture_shard`` composes from its state owners (simulator and links,
  fault injector, logs) — encodes it through
  :func:`repro.serialization.encode_payload`, and ships it on the
  control plane (never barrier mail: checkpointing off is bit-identical
  to the pre-recovery wire protocol, zero extra mail bytes).
* The controller verifies a sha256 digest, stores the blob in a
  :class:`CheckpointStore` (in controller memory), and logs every
  message it sends each shard *since* the last commit (since the build
  when nothing is committed): a shard is a deterministic function of
  its build and its inbound messages.
* Worker liveness rides the window acks. On a detected crash or hang
  the controller respawns the worker with exponential backoff, hands it
  the last checkpoint plus its log, and the worker replays forward
  privately to where it died before rejoining the live protocol.
* When respawn is exhausted the degradation ladder continues to
  *adoption*: the least-loaded survivor rebuilds the dead shard the
  same way in a second engine and takes its LPs over through the
  migration wire format, while no survivor rewinds; only after that
  fails does the run abort with :class:`RecoveryExhaustedError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "RecoveryConfig",
    "RecoveryExhaustedError",
    "CheckpointDigestError",
    "CheckpointStore",
    "ON_WORKER_LOSS_MODES",
    "is_checkpoint_window",
]

#: Valid degradation policies when a worker dies.
#:
#: ``"respawn"`` — checkpoint + respawn with backoff; abort when retries
#: are exhausted. ``"adopt"`` — like respawn, but when retries are
#: exhausted one survivor rebuilds the dead shard by replay and adopts
#: its LPs. ``"fail"`` — no recovery at all:
#: checkpoints are still taken (so the cadence can be benchmarked) but
#: any worker loss re-raises immediately, matching the pre-recovery
#: behavior.
ON_WORKER_LOSS_MODES = ("respawn", "adopt", "fail")


class RecoveryExhaustedError(RuntimeError):
    """Every rung of the degradation ladder failed for a dead worker.

    Raised by the controller when a worker could not be respawned within
    ``max_respawns`` attempts and (under ``on_worker_loss="adopt"``) its
    shard could not be adopted by a survivor either. Subclasses
    ``RuntimeError`` directly rather than ``ParallelBackendError`` to
    avoid a circular import; :mod:`repro.engine.parallel` re-exports it
    next to the other typed backend failures.
    """


class CheckpointDigestError(RuntimeError):
    """A checkpoint blob did not match its recorded sha256 digest."""


def checkpoint_digest(blob: bytes) -> str:
    """The sha256 hex digest identifying a checkpoint blob.

    Digests serve two purposes: corruption detection on the control
    plane, and the *digest stability* proof — the same shard state
    captured twice, or in different processes, must encode to identical
    bytes and digests (tests/test_checkpoint_roundtrip.py).
    """
    return hashlib.sha256(blob).hexdigest()


def is_checkpoint_window(window_index: int, every: int) -> bool:
    """Whether a checkpoint is cut after window ``window_index`` at a
    cadence of one per ``every`` windows (``0``: checkpointing is off).

    The controller and every worker call this with the same index, so
    the cadence needs no negotiation on the wire.
    """
    return every > 0 and (window_index + 1) % every == 0


@dataclass(frozen=True)
class RecoveryConfig:
    """Controller-side configuration for checkpointing and recovery.

    Passing ``recovery=None`` to the backend (the default) disables the
    whole subsystem: no checkpoint messages, no message log, wire
    traffic bit-identical to a build without this module.
    """

    #: Capture a checkpoint every N barrier windows (after the window's
    #: mail has been delivered); ``0`` never cuts, and recovery replays
    #: from the build. Smaller = less replay and log memory on
    #: recovery, more capture/encode overhead.
    checkpoint_every_n_windows: int = 4
    #: Bounded respawn retries per worker incarnation chain.
    max_respawns: int = 2
    #: Degradation policy once a worker is declared dead; see
    #: :data:`ON_WORKER_LOSS_MODES`.
    on_worker_loss: str = "respawn"
    #: First respawn backoff; attempt *k* sleeps ``base * 2**(k-1)``
    #: seconds, capped at :attr:`backoff_cap_s`. Tests set this near
    #: zero so exhaustion scenarios stay fast.
    backoff_base_s: float = 0.05
    #: Upper bound on a single backoff sleep.
    backoff_cap_s: float = 2.0
    #: Optional deterministic process-level fault plan
    #: (:class:`repro.faults.plan.FaultPlan`) handed to workers for
    #: chaos testing; ``None`` injects nothing.
    fault_plan: Any = None

    def __post_init__(self) -> None:
        if self.checkpoint_every_n_windows < 0:
            raise ValueError("checkpoint_every_n_windows must be >= 0")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.on_worker_loss not in ON_WORKER_LOSS_MODES:
            raise ValueError(
                f"on_worker_loss must be one of {ON_WORKER_LOSS_MODES}, "
                f"got {self.on_worker_loss!r}"
            )
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_cap_s < 0:
            raise ValueError("backoff_cap_s must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before respawn ``attempt`` (1-based), capped."""
        if attempt <= 0:
            return 0.0
        return min(self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_cap_s)

    def stanza(self) -> dict[str, Any]:
        """The worker-config stanza describing the cadence and fault plan.

        Workers only need the cadence (to know when to capture) and
        their slice of the fault plan; respawn policy is purely a
        controller concern and stays out of the wire config.
        """
        return {
            "checkpoint_every_n_windows": self.checkpoint_every_n_windows,
            "fault_plan": self.fault_plan,
        }


@dataclass
class CheckpointStore:
    """Controller-held store of the latest checkpoint per shard.

    Only the *most recent* checkpoint per shard is retained — recovery
    always restores the last consistent cut, so older blobs (and the
    log kept to replay past them) are pruned as soon as a newer
    checkpoint for every live shard lands.
    """

    #: shard -> (window index, blob) of its latest checkpoint
    _latest: dict[int, tuple[int, bytes]] = field(default_factory=dict)
    #: running totals for the recovery.* instruments
    checkpoints_taken: int = 0
    checkpoint_bytes: int = 0

    def put(self, shard_id: int, window_index: int, digest: str, blob: bytes) -> None:
        """Record shard ``shard_id``'s checkpoint after ``window_index``."""
        if checkpoint_digest(blob) != digest:
            raise CheckpointDigestError(
                f"checkpoint for shard {shard_id} at window {window_index} "
                "does not match its digest"
            )
        self._latest[shard_id] = (window_index, blob)
        self.checkpoints_taken += 1
        self.checkpoint_bytes += len(blob)

    def get(self, shard_id: int) -> bytes | None:
        """The shard's latest checkpoint blob, or None."""
        return self._latest.get(shard_id, (-1, None))[1]
