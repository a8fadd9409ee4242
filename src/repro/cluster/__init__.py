"""Simulation cluster models (TeraGrid sync cost, Figure 5)."""

from .syncmodel import TERAGRID_SYNC_POINTS, ClusterSpec, SyncCostModel, teragrid_cluster

__all__ = [
    "SyncCostModel",
    "ClusterSpec",
    "teragrid_cluster",
    "TERAGRID_SYNC_POINTS",
]
