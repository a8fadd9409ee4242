"""Parallel efficiency (paper Section 4.1).

``PE(N, L) = Tseq(L) / (N * T(L, N))`` with the sequential time
approximated as ``Tseq = TotalEventNumber / MaximalEventRateOnEachNode``
because the networks are too large to simulate on one machine.
"""

from __future__ import annotations

__all__ = ["parallel_efficiency"]


def parallel_efficiency(tseq_s: float, num_nodes: int, parallel_time_s: float) -> float:
    """``Tseq / (N * T)``; 1.0 is ideal."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if parallel_time_s <= 0:
        raise ValueError("parallel time must be positive")
    if tseq_s < 0:
        raise ValueError("sequential time must be non-negative")
    return tseq_s / (num_nodes * parallel_time_s)

