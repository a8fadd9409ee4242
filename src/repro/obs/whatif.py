"""What-if mapping replay: score candidate mappings from one traced run.

The virtual network's behavior does not depend on the node -> engine
mapping (DESIGN.md's soundness argument), so the event and transmission
samples one traced run records can be *re-binned* under any candidate
:class:`~repro.core.mapping.NetworkMapping` — each candidate's own
window length (its achieved MLL) and LP assignment — and pushed through
the cluster cost model, scoring TOP/PROF/HTOP/HPROF alternatives
without re-simulating. This is the observe -> attribute -> repartition
loop: a blame report says *which* LP stalls the barrier, the what-if
replay says how much a different mapping would help.

Scores agree with :func:`repro.engine.costmodel.predict_wallclock` on
densely re-binned counts to float precision (enforced by tests); on an
overflowed trace they cover the retained suffix only, so check
``trace.dropped_records`` before trusting absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.syncmodel import ClusterSpec
from ..core.mapping import NetworkMapping
from ..engine.costmodel import (
    WallclockPrediction,
    predict_from_trace,
    window_for_mapping,
)
from .trace import TraceBuffer

__all__ = ["WhatIfScore", "score_mapping", "score_mappings", "format_whatif_table"]


@dataclass(frozen=True)
class WhatIfScore:
    """One candidate mapping's modeled outcome on the recorded run."""

    label: str
    mapping: NetworkMapping
    #: the candidate's synchronization window (its achieved MLL, clamped)
    window_s: float
    prediction: WallclockPrediction

    @property
    def total_s(self) -> float:
        """Modeled wall-clock of the recorded run under this mapping."""
        return self.prediction.total_s


def score_mapping(
    trace: TraceBuffer,
    mapping: NetworkMapping,
    cluster: ClusterSpec,
    end_time: float,
) -> WallclockPrediction:
    """Cost-model prediction for one candidate mapping on the trace."""
    times, nodes = trace.event_samples()
    tx_t, tx_f, tx_to = trace.tx_samples()
    window = window_for_mapping(mapping.achieved_mll_s, end_time)
    return predict_from_trace(
        times,
        nodes,
        mapping.assignment,
        mapping.num_engines,
        window,
        end_time,
        cluster,
        tx_t,
        tx_f,
        tx_to,
    )


def score_mappings(
    trace: TraceBuffer,
    mappings: dict[str, NetworkMapping],
    cluster: ClusterSpec,
    end_time: float,
) -> list[WhatIfScore]:
    """Score every candidate mapping, best (lowest total) first."""
    scores = [
        WhatIfScore(
            label=label,
            mapping=mapping,
            window_s=window_for_mapping(mapping.achieved_mll_s, end_time),
            prediction=score_mapping(trace, mapping, cluster, end_time),
        )
        for label, mapping in mappings.items()
    ]
    scores.sort(key=lambda s: s.total_s)
    return scores


def format_whatif_table(scores: list[WhatIfScore]) -> str:
    """Render the what-if comparison (one row per candidate mapping)."""
    lines = [
        f"{'mapping':>10}{'T (s)':>12}{'compute (s)':>13}{'sync (s)':>11}"
        f"{'windows':>9}{'MLL (ms)':>10}"
    ]
    best = scores[0].total_s if scores else 0.0
    for s in scores:
        marker = "  <== best" if s.total_s == best else ""
        lines.append(
            f"{s.label:>10}{s.prediction.total_s:>12.4f}"
            f"{s.prediction.compute_s:>13.4f}{s.prediction.sync_s:>11.4f}"
            f"{s.prediction.num_windows:>9}{s.mapping.achieved_mll_ms:>10.3f}{marker}"
        )
    return "\n".join(lines)
