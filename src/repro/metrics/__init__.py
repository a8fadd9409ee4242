"""Evaluation metrics: load imbalance and parallel efficiency."""

from .efficiency import parallel_efficiency
from .loadbalance import load_imbalance

__all__ = ["load_imbalance", "parallel_efficiency"]
