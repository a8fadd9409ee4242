"""Render experiment results as the paper's figure rows."""

from __future__ import annotations

from ..core.approaches import Approach
from .runner import ApproachRow, ExperimentResult

__all__ = ["format_result", "format_figure", "format_figures", "format_whatif_table",
           "FIGURE_METRICS"]

#: metric key -> (paper figure titles, unit, format)
FIGURE_METRICS = {
    "sim_time_s": ("Simulation Time", "s", "{:.2f}"),
    "achieved_mll_ms": ("Achieved MLL", "ms", "{:.3f}"),
    "load_imbalance": ("Load Imbalance", "", "{:.3f}"),
    "parallel_efficiency": ("Parallel Efficiency", "", "{:.3f}"),
}


def format_figure(
    results: list[ExperimentResult], metric: str, title: str | None = None
) -> str:
    """One figure: rows = approaches, columns = (app_kind) results."""
    if metric not in FIGURE_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    name, unit, fmt = FIGURE_METRICS[metric]
    if title is None:
        kinds = {r.network_kind for r in results}
        title = f"{name} on {'/'.join(sorted(kinds))}"
    header = f"{'approach':<8}" + "".join(
        f"{r.app_kind:>14}" for r in results
    )
    lines = [title + (f" ({unit})" if unit else ""), header, "-" * len(header)]
    approaches = [row.approach for row in results[0].rows]
    for a in approaches:
        cells = []
        for r in results:
            try:
                cells.append(fmt.format(r.metric(a, metric)))
            except KeyError:
                cells.append("-")
        lines.append(f"{a.value:<8}" + "".join(f"{c:>14}" for c in cells))
    return "\n".join(lines)


def format_figures(results: list[ExperimentResult]) -> str:
    """Figures 6-9 (single-AS) or 10-13 (multi-AS): one per metric."""
    first = 6 if results[0].network_kind == "single-as" else 10
    return "\n\n".join(
        f"--- Figure {first + i} ---\n" + format_figure(results, metric)
        for i, metric in enumerate(FIGURE_METRICS)
    )


def format_bars(result: ExperimentResult, metric: str, width: int = 40) -> str:
    """Render one metric as horizontal ASCII bars (one per approach) —
    the closest a terminal gets to the paper's bar-chart figures."""
    if metric not in FIGURE_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    name, unit, fmt = FIGURE_METRICS[metric]
    values = {row.approach.value: float(row.as_dict()[metric]) for row in result.rows}
    peak = max(values.values()) if values else 1.0
    lines = [f"{name} — {result.network_kind}/{result.app_kind}"
             + (f" ({unit})" if unit else "")]
    for label, v in values.items():
        bar = "#" * max(1, int(round(width * v / peak))) if peak > 0 else ""
        lines.append(f"{label:<8}|{bar:<{width}} {fmt.format(v)}")
    return "\n".join(lines)


def format_result(result: ExperimentResult) -> str:
    """Full metric table for one experiment."""
    lines = [
        f"Experiment: {result.network_kind} / {result.app_kind} "
        f"(scale={result.scale_name}, N={result.num_engines} engines, "
        f"{result.total_events} events over {result.duration_s:.0f}s virtual)",
        f"{'approach':<8}{'T (s)':>12}{'MLL (ms)':>12}{'imbalance':>12}{'PE':>8}",
    ]
    lines.append("-" * len(lines[-1]))
    for row in result.rows:
        lines.append(
            f"{row.approach.value:<8}{row.sim_time_s:>12.2f}"
            f"{row.achieved_mll_ms:>12.3f}{row.measured_imbalance:>12.3f}"
            f"{row.parallel_eff:>8.3f}"
        )
    return "\n".join(lines)


def format_whatif_table(rows: list[ApproachRow]) -> str:
    """The what-if comparison: one row per mapping, lowest modeled total first."""
    rows = sorted(rows, key=lambda r: r.prediction.total_s)
    lines = [
        f"{'mapping':>10}{'T (s)':>12}{'compute (s)':>13}{'sync (s)':>11}"
        f"{'windows':>9}{'MLL (ms)':>10}"
    ]
    best = rows[0].prediction.total_s if rows else 0.0
    for r in rows:
        p = r.prediction
        marker = "  <== best" if p.total_s == best else ""
        lines.append(
            f"{r.approach.value:>10}{p.total_s:>12.4f}{p.compute_s:>13.4f}"
            f"{p.sync_s:>11.4f}{p.num_windows:>9}{r.achieved_mll_ms:>10.3f}{marker}"
        )
    return "\n".join(lines)
