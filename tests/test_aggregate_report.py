"""Tests for multi-seed runs and the bar/figure rendering."""

from __future__ import annotations

import pytest

from repro.core import Approach
from repro.experiments import (
    ExperimentScale,
    format_bars,
    run_seed_sweep,
)

MICRO = ExperimentScale(
    name="agg-test",
    flat_routers=60,
    flat_hosts=24,
    num_ases=4,
    routers_per_as=8,
    multi_hosts=16,
    http_clients=10,
    http_servers=4,
    http_mean_gap_s=0.5,
    num_engines=4,
    app_processes=3,
    scalapack_iterations=1,
    duration_s=3.0,
    profile_duration_s=1.5,
)


@pytest.fixture(scope="module")
def sweep():
    return run_seed_sweep(
        "single-as",
        "scalapack",
        seeds=[0, 1],
        approaches=[Approach.HTOP, Approach.TOP2],
        scale=MICRO,
    )


class TestSeedSweep:
    def test_runs_all_seeds(self, sweep):
        assert len(sweep) == 2
        assert all(len(r.rows) == 2 for r in sweep)

    def test_seeds_differ(self, sweep):
        # Different seeds -> different topologies -> different metrics.
        a = sweep[0].metric(Approach.HTOP, "sim_time_s")
        b = sweep[1].metric(Approach.HTOP, "sim_time_s")
        assert a != b

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_seed_sweep("single-as", "scalapack", seeds=[], scale=MICRO)


class TestFormatBars:
    def test_renders(self, sweep):
        text = format_bars(sweep[0], "sim_time_s")
        assert "#" in text
        assert "HTOP" in text
        lines = text.splitlines()
        # The largest value gets the longest bar.
        t = {r.approach.value: r.sim_time_s for r in sweep[0].rows}
        worst = max(t, key=t.get)
        worst_line = next(l for l in lines if l.startswith(worst))
        assert worst_line.count("#") == max(l.count("#") for l in lines)

    def test_unknown_metric(self, sweep):
        with pytest.raises(ValueError):
            format_bars(sweep[0], "nope")
