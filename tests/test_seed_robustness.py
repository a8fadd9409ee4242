"""Cross-seed robustness of the paper's core orderings.

The benchmarks assert the orderings at seed 0 and the committed ledger
counts them over seeds 0-9 at ``small``; here the same ledger function
(``micro_ledger`` in conftest.py) runs single-AS ScaLapack at micro scale
over two more seeds, so the load-bearing claims are not seed artifacts.
"""

from __future__ import annotations

import pytest


@pytest.fixture(params=[11, 23])
def at_seed(request, micro_ledger):
    """``(verdict by claim id, result summary)`` at one seed."""
    at = micro_ledger["seeds"].index(request.param)
    return {e["id"]: e["holds"][at] for e in micro_ledger["claims"]}, micro_ledger["results"][at]


class TestOrderingsAcrossSeeds:
    def test_hierarchical_mll_dominates(self, at_seed):
        holds, _ = at_seed
        assert holds["mll-dominance"] and holds["htop-mll-above-top2"]

    def test_hprof_not_slower_than_top2(self, at_seed):
        assert at_seed[0]["time-near-top2"]

    def test_hprof_balance_no_worse_than_htop(self, at_seed):
        # At micro scale with a 2.5 s profile the estimates are noisy and
        # HPROF may trade a sliver of balance for synchronization (its E
        # metric optimizes the product): the headline claim's 10 % band —
        # the strict ordering is asserted at benchmark scale (Figs. 8/12).
        assert at_seed[0]["imbalance-improvement"]

    def test_hprof_pe_at_least_top2(self, at_seed):
        assert at_seed[0]["efficiency-gain"]

    def test_workload_healthy(self, at_seed):
        _, result = at_seed
        assert result["http_responses"] > 0
        assert result["total_events"] > 10_000
