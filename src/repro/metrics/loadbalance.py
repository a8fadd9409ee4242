"""Load imbalance metric (paper Section 4.1).

"Assuming the simulation kernel event rates are k1..kn for the n nodes
used by the simulation engine, the load imbalance is normalized by the
standard deviation of {k}" — i.e. the coefficient of variation of the
per-engine event rates: 0 is perfect balance, larger is worse.
"""

from __future__ import annotations

import numpy as np

__all__ = ["load_imbalance"]


def load_imbalance(event_rates: np.ndarray) -> float:
    """Normalized standard deviation (CV) of per-engine event rates."""
    rates = np.asarray(event_rates, dtype=np.float64)
    if rates.size == 0:
        raise ValueError("need at least one engine node")
    mean = rates.mean()
    if mean == 0:
        return 0.0
    return float(rates.std() / mean)

