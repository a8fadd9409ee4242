"""Traffic applications: HTTP background and the live-app models
(ScaLapack, GridNPB) run through the online layer."""

from .gridnpb import (
    GridNpbApp,
    Workflow,
    WorkflowTask,
    helical_chain,
    mixed_bag,
    visualization_pipeline,
)
from .http import HttpStats, HttpTraffic
from .scalapack import AppRunStats, ScaLapackApp

__all__ = [
    "HttpTraffic",
    "HttpStats",
    "ScaLapackApp",
    "AppRunStats",
    "GridNpbApp",
    "Workflow",
    "WorkflowTask",
    "helical_chain",
    "visualization_pipeline",
    "mixed_bag",
]
