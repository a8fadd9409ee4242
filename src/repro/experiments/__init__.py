"""Experiment pipelines reproducing the paper's evaluation (Figures 3-13)."""

from .chaos import ChaosResult, format_chaos_report, run_chaos_experiment
from .claims import PAPER_CLAIMS, ClaimCheck, evaluate_claims, format_claims
from .config import PAPER_SCALE, SCALES, ExperimentScale, default_scale
from .parallel import predict_from_windows, run_parallel_workload
from .report import FIGURE_METRICS, format_bars, format_figure, format_result
from .runner import (
    DEFAULT_APPROACHES,
    FIGURE_APPROACHES,
    ApproachRow,
    ExperimentResult,
    build_network,
    evaluate_mappings,
    run_experiment,
    run_workload_simulation,
)
from .workloads import APP_KINDS, WorkloadHandles, install_workload

__all__ = [
    "ExperimentScale",
    "SCALES",
    "PAPER_SCALE",
    "default_scale",
    "run_experiment",
    "build_network",
    "run_workload_simulation",
    "evaluate_mappings",
    "ApproachRow",
    "ExperimentResult",
    "DEFAULT_APPROACHES",
    "FIGURE_APPROACHES",
    "install_workload",
    "WorkloadHandles",
    "APP_KINDS",
    "format_result",
    "format_figure",
    "FIGURE_METRICS",
    "run_parallel_workload",
    "predict_from_windows",
    "format_bars",
    "ClaimCheck",
    "evaluate_claims",
    "format_claims",
    "PAPER_CLAIMS",
    "ChaosResult",
    "run_chaos_experiment",
    "format_chaos_report",
]
