"""Multi-seed runs of one experiment.

The paper reports single runs; robustness of the reproduced orderings is
easier to argue over seeds. :func:`run_seed_sweep` repeats one experiment
over several topology/workload seeds.
"""

from __future__ import annotations

from ..core.approaches import Approach
from .config import ExperimentScale
from .runner import ExperimentResult, run_experiment

__all__ = ["run_seed_sweep"]


def run_seed_sweep(
    network_kind: str,
    app_kind: str,
    seeds: list[int],
    approaches: list[Approach] | None = None,
    scale: ExperimentScale | None = None,
) -> list[ExperimentResult]:
    """Run the same experiment over several seeds."""
    if not seeds:
        raise ValueError("need at least one seed")
    return [
        run_experiment(network_kind, app_kind, approaches=approaches, scale=scale, seed=s)
        for s in seeds
    ]

