"""Counting instruments: the values a registry hands its consumers.

An instrument is a named count, a scalar (:class:`Counter`) or one slot
per dense id — node, link, LP, shard — (:class:`VectorCounter`). Nothing
writes into one: a registry builds them fresh from the counts their
owners keep (:meth:`repro.obs.registry.Registry.read`), and holds one only
as a value pickled or merged in from another process.

All quantities are simulated-domain values (event counts, bytes), so an
instrument's value is exactly reproducible across runs with the same
seed.

Every instrument folds a same-kind instrument into itself
(``merge_from``) — how per-worker observations of the multi-process
backend become one global view (:mod:`repro.obs.distributed`). An
all-zero vector is the merge identity whatever its shape — an empty
target takes the incoming instrument's shape — and two non-empty
vectors that disagree on shape raise a typed error and leave the target
untouched.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Counter", "VectorCounter", "SnapshotMergeError", "holding"]


class SnapshotMergeError(ValueError):
    """Two instruments disagree structurally and cannot merge losslessly."""


class Counter:
    """A named scalar count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str, value: float) -> None:
        self.name = name
        self._value = value

    @property
    def value(self) -> float:
        """The count."""
        return self._value

    def merge_from(self, other: "Counter") -> None:
        """Add ``other``'s count into this counter."""
        self._value += other._value


class VectorCounter:
    """A named array of counts, one per dense index.

    Per-node event counts, per-link byte/packet/drop totals, per-LP
    engine counters and per-shard worker events.
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str, values: np.ndarray) -> None:
        self.name = name
        self._values = values

    @property
    def size(self) -> int:
        """Number of slots."""
        return int(self._values.shape[0])

    @property
    def values(self) -> np.ndarray:
        """The value array (copy before mutating a snapshot)."""
        return self._values

    @property
    def total(self) -> float:
        """Sum over all slots."""
        return float(self._values.sum())

    def merge_from(self, other: "VectorCounter") -> None:
        """Add ``other``'s slots into this vector, element-wise."""
        mine, theirs = self._values, other._values
        if not mine.any():
            self._values = theirs.copy()
        elif theirs.any():
            if mine.shape != theirs.shape:
                raise SnapshotMergeError(
                    f"vector {self.name!r} size {theirs.shape[0]} != merged size "
                    f"{mine.shape[0]}"
                )
            mine += theirs


def holding(name: str, value) -> "Counter | VectorCounter":
    """A counter holding ``value``; a vector counter if it is an array."""
    return VectorCounter(name, value) if np.ndim(value) else Counter(name, value)
