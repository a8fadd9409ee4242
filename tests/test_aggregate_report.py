"""Tests for the claims ledger's seed loop and the bar/figure rendering."""

from __future__ import annotations

import pytest

from repro.core import Approach
from repro.experiments import format_bars
from repro.experiments.claims import claims_ledger, ledger_results


@pytest.fixture(scope="module")
def sweep(micro_ledger):
    return [r for results in ledger_results(micro_ledger).values() for r in results]


class TestSeedSweep:
    def test_runs_all_seeds(self, sweep):
        assert len(sweep) == 2
        assert all(len(r.rows) == 3 for r in sweep)

    def test_seeds_differ(self, sweep):
        # Different seeds -> different topologies -> different metrics.
        a = sweep[0].metric(Approach.HTOP, "sim_time_s")
        b = sweep[1].metric(Approach.HTOP, "sim_time_s")
        assert a != b

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            claims_ledger([])


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
