"""Counting instruments: counters, vectors, high-water gauges, histograms.

Every instrument follows the same two-layer shape:

- the **public write method** (``inc`` / ``add`` / ``observe``) checks
  the owning registry's ``enabled`` flag and returns immediately when
  instrumentation is off — no state is touched;
- the **private ``_record`` method** performs the actual mutation.

The split is load-bearing: the overhead guard test monkeypatches the
``_record`` layer to *prove* a disabled run never writes, and the write
path never performs a dict lookup (instruments are resolved by name once
at construction — see :mod:`repro.obs.registry`).

All recorded quantities are simulated-domain values (event counts,
bytes, simulated seconds), so instrument state is exactly reproducible
across runs with the same seed.

Every instrument also folds a same-kind instrument into itself
(``merge_from``) — how per-worker observations of the multi-process
backend become one global view (:mod:`repro.obs.distributed`). An
instrument that holds nothing (an all-zero vector or gauge, a histogram
with zero count and sum) is the merge identity whatever its shape — an
empty target takes the incoming instrument's shape — and two non-empty
instruments that disagree on shape raise a typed error and leave the
target untouched.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import Registry

__all__ = [
    "Counter",
    "VectorCounter",
    "MaxGauge",
    "Histogram",
    "SnapshotMergeError",
    "HistogramMergeError",
    "holding",
]


class SnapshotMergeError(ValueError):
    """Two instruments disagree structurally and cannot merge losslessly."""


class HistogramMergeError(SnapshotMergeError):
    """Two histograms with different bucket bounds cannot merge exactly."""


def _merged_array(
    kind: str, name: str, mine: np.ndarray, theirs: np.ndarray, op
) -> np.ndarray:
    """``op(mine, theirs)`` in place into ``mine``; an all-zero side is the identity."""
    if not mine.any():
        return theirs.copy()
    if not theirs.any():
        return mine
    if mine.shape != theirs.shape:
        raise SnapshotMergeError(
            f"{kind} {name!r} size {theirs.shape[0]} != merged size {mine.shape[0]}"
        )
    return op(mine, theirs, out=mine)


class Counter:
    """A named scalar monotonic counter."""

    __slots__ = ("name", "_reg", "_value")

    def __init__(self, name: str, registry: "Registry") -> None:
        self.name = name
        self._reg = registry
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (default 1) when the registry is enabled."""
        if self._reg.enabled:
            self._record(n)

    def _record(self, n: float) -> None:
        self._value += n

    @property
    def value(self) -> float:
        """The accumulated count."""
        return self._value

    def merge_from(self, other: "Counter") -> None:
        """Add ``other``'s count into this counter."""
        self._value += other._value

    def reset(self) -> None:
        """Zero the counter."""
        self._value = 0.0


class VectorCounter:
    """A fixed-size array of per-index monotonic counters.

    Used for per-node event counts, per-link byte/packet/drop totals,
    and per-LP engine counters — anywhere the index is a dense id.
    """

    __slots__ = ("name", "_reg", "_values")

    def __init__(self, name: str, registry: "Registry", size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self.name = name
        self._reg = registry
        self._values = np.zeros(int(size), dtype=np.float64)

    def inc(self, index: int, n: float = 1.0) -> None:
        """Add ``n`` to slot ``index`` when the registry is enabled."""
        if self._reg.enabled:
            self._record(index, n)

    def add_array(self, values: np.ndarray) -> None:
        """Element-wise add a whole array (per-window engine flushes)."""
        if self._reg.enabled:
            self._record_array(values)

    def _record(self, index: int, n: float) -> None:
        self._values[index] += n

    def _record_array(self, values: np.ndarray) -> None:
        self._values += values

    @property
    def size(self) -> int:
        """Number of slots."""
        return int(self._values.shape[0])

    @property
    def values(self) -> np.ndarray:
        """The live value array (copy before mutating a snapshot)."""
        return self._values

    @property
    def total(self) -> float:
        """Sum over all slots."""
        return float(self._values.sum())

    def merge_from(self, other: "VectorCounter") -> None:
        """Add ``other``'s slots into this vector, element-wise."""
        self._values = _merged_array(
            "vector", self.name, self._values, other._values, np.add
        )

    def reset(self) -> None:
        """Zero every slot."""
        self._values[:] = 0.0


def holding(name: str, registry: "Registry", value) -> "Counter | VectorCounter":
    """A counter holding ``value``; a vector counter if it is an array."""
    if np.ndim(value):
        inst = VectorCounter(name, registry, len(value))
        inst._values = value
    else:
        inst = Counter(name, registry)
        inst._value = value
    return inst


class MaxGauge:
    """Per-index high-water marks (e.g. queue-depth maxima per link)."""

    __slots__ = ("name", "_reg", "_values")

    def __init__(self, name: str, registry: "Registry", size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self.name = name
        self._reg = registry
        self._values = np.zeros(int(size), dtype=np.float64)

    def observe(self, index: int, value: float) -> None:
        """Raise slot ``index`` to ``value`` if it is a new maximum."""
        if self._reg.enabled and value > self._values[index]:
            self._record(index, value)

    def _record(self, index: int, value: float) -> None:
        self._values[index] = value

    @property
    def size(self) -> int:
        """Number of slots."""
        return int(self._values.shape[0])

    @property
    def values(self) -> np.ndarray:
        """The live high-water array (copy before mutating a snapshot)."""
        return self._values

    def merge_from(self, other: "MaxGauge") -> None:
        """Raise each slot to ``other``'s high-water mark (element-wise max)."""
        self._values = _merged_array(
            "gauge", self.name, self._values, other._values, np.maximum
        )

    def reset(self) -> None:
        """Zero every high-water mark."""
        self._values[:] = 0.0


class Histogram:
    """A fixed-bucket histogram (upper bounds, +Inf overflow bucket).

    ``bounds`` are the inclusive upper edges; an observation lands in the
    first bucket whose bound is >= the value, or in the overflow bucket.
    Exported in Prometheus' cumulative-``le`` convention.
    """

    __slots__ = ("name", "_reg", "bounds", "_counts", "_sum")

    def __init__(self, name: str, registry: "Registry", bounds: tuple[float, ...]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        self.name = name
        self._reg = registry
        self.bounds = bounds
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation when the registry is enabled."""
        if self._reg.enabled:
            self._record(value)

    def _record(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value

    @property
    def counts(self) -> np.ndarray:
        """Per-bucket counts (last slot is the overflow bucket)."""
        return self._counts

    @property
    def count(self) -> int:
        """Total number of observations."""
        return int(self._counts.sum())

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation in buckets.

        Follows the ``histogram_quantile`` convention: observations are
        assumed uniform within their bucket, the first bucket's lower
        edge is 0.0 when its bound is positive (the bound itself
        otherwise), and a quantile landing in the +Inf overflow bucket
        clamps to the highest finite bound — the histogram cannot say
        more than "at least ``bounds[-1]``". Raises ``ValueError`` for
        ``q`` outside [0, 1] or an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        total = self.count
        if total == 0:
            raise ValueError("cannot take a quantile of an empty histogram")
        rank = q * total
        # A rank landing exactly on a cumulative bucket boundary belongs
        # to the bucket that *completes* it (fraction 1, its upper
        # bound), not at fraction 0 of the next nonempty bucket — the
        # difference is a jump across any empty buckets in between. The
        # product ``q * total`` can overshoot that integer boundary by a
        # few ulps (0.07 * 100 == 7.000000000000001), so snap ranks
        # within float tolerance back onto the integer.
        nearest = round(rank)
        if abs(rank - nearest) <= 1e-9 * max(1.0, total):
            rank = float(nearest)
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            in_bucket = int(self._counts[i])
            if in_bucket and cumulative + in_bucket >= rank:
                if i:
                    lower = self.bounds[i - 1]
                else:
                    # First-bucket lower edge: 0.0 when the bound is
                    # positive; a non-positive bound has no usable width
                    # below it, so the bound itself is both edges.
                    lower = 0.0 if bound > 0 else bound
                fraction = (rank - cumulative) / in_bucket
                return lower + (bound - lower) * fraction
            cumulative += in_bucket
        return self.bounds[-1]

    def merge_from(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram, exactly.

        Merging is lossless only when both histograms bucket identically,
        so identical bounds add bin-wise (counts and sums); a bounds
        mismatch between two non-empty histograms raises
        :class:`HistogramMergeError` — re-binning would silently
        fabricate data, and the merged ``quantile`` would lie. An empty
        histogram takes ``other``'s bounds. This is how per-worker
        barrier-wait histograms combine into the global distribution
        (:mod:`repro.obs.distributed`).
        """
        if not (self._counts.any() or self._sum):
            self.bounds = other.bounds
            self._counts = other._counts.copy()
            self._sum = other._sum
            return
        if not (other._counts.any() or other._sum):
            return
        if self.bounds != other.bounds:
            raise HistogramMergeError(
                f"histogram {self.name!r} bounds {self.bounds} cannot merge "
                f"with {other.name!r} bounds {other.bounds}"
            )
        self._counts += other._counts
        self._sum += other._sum

    def reset(self) -> None:
        """Zero all buckets."""
        self._counts[:] = 0
        self._sum = 0.0
