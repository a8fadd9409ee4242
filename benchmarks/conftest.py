"""Shared experiment cache for the figure benchmarks.

Each (network, application) experiment is expensive (a full packet-level
simulation run); all figure benchmarks share it. Every cached run maps
the six ``FIGURE_APPROACHES`` (Figures 7/11 add TOP and PROF).
Scale is selected with ``REPRO_SCALE`` (default ``small``).

Pass ``--obs-out DIR`` to record every cached experiment's observability
snapshot (counters and per-node/per-link/per-LP vectors) as
``DIR/<network>_<app>_seed<seed>_<scale>.json`` — the PROF/HPROF input
of each benchmark run, captured live (see docs/observability.md).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import FIGURE_APPROACHES, default_scale, run_experiment
from repro.experiments.claims import FIGURE_EXPERIMENTS

_cache: dict = {}
_obs_dir: str | None = None


def pytest_addoption(parser):
    parser.addoption(
        "--obs-out",
        default=None,
        metavar="DIR",
        help="directory to write per-experiment observability snapshots (JSON)",
    )


def pytest_configure(config):
    global _obs_dir
    _obs_dir = config.getoption("--obs-out", default=None)
    if _obs_dir:
        os.makedirs(_obs_dir, exist_ok=True)


def cached_experiment(network_kind: str, app_kind: str, seed: int = 0):
    key = (network_kind, app_kind, seed, default_scale().name)
    if key not in _cache:
        obs_out = None
        if _obs_dir:
            obs_out = os.path.join(
                _obs_dir,
                f"{network_kind}_{app_kind}_seed{seed}_{default_scale().name}.json",
            )
        _cache[key] = run_experiment(
            network_kind,
            app_kind,
            approaches=FIGURE_APPROACHES,
            seed=seed,
            obs_out=obs_out,
        )
    return _cache[key]


@pytest.fixture(scope="session")
def single_as_scalapack():
    return cached_experiment("single-as", "scalapack")


@pytest.fixture(scope="session")
def figure_results():
    """The four experiments of Figures 6-13, in ``FIGURE_EXPERIMENTS`` order."""
    return [cached_experiment(kind, app) for kind, app in FIGURE_EXPERIMENTS]
