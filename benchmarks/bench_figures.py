"""Figures 6-13: every entry of ``repro.experiments.claims.CLAIMS`` on the
four cached seed-0 experiments at ``REPRO_SCALE`` (default ``small``).

An entry is asserted on the networks it names (Fig. 10's PROF2-vs-TOP2
time is printed, not asserted: EXPERIMENTS.md's deviation note). At
``small`` the committed ledger's seed-0 numbers must equal this run, so a
change that moves a figure cannot leave the ledger, or the EXPERIMENTS.md
tables rendered from it, stale. ``benchmark`` times one mapping evaluation.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import Approach
from repro.engine.costmodel import predict_from_trace
from repro.experiments import default_scale, evaluate_claims, format_claims
from repro.experiments.claims import CLAIMS, ledger_from_results
from repro.experiments.report import format_figures
from repro.experiments.runner import cluster_for_scale

LEDGER = Path(__file__).resolve().parent.parent / "docs" / "claims_ledger.json"


@pytest.mark.parametrize("claim_id", list(CLAIMS))
def test_ordering_at_seed_0(claim_id, figure_results):
    claim = CLAIMS[claim_id]
    checks = evaluate_claims(figure_results, [claim_id])
    print()
    print(format_claims(checks))
    asserted = [c for c in checks if claim.asserts(c.experiment)]
    failing = [c.experiment for c in asserted if not c.holds]
    assert asserted and not failing, f"{claim.description} fails on {failing}"


def test_seed_0_figures_equal_the_committed_ledger(figure_results):
    for network in ("single-as", "multi-as"):
        print()
        print(format_figures([r for r in figure_results if r.network_kind == network]))
    if default_scale().name != "small":
        pytest.skip("the committed ledger is at small")
    committed = json.loads(LEDGER.read_text())
    live = ledger_from_results({0: figure_results})
    assert [r for r in committed["results"] if r["seed"] == 0] == live["results"], (
        "the committed ledger is stale: regenerate it (see repro.experiments.claims)"
    )


def test_mapping_evaluation_cost(benchmark, single_as_scalapack):
    """Time one mapping evaluation against the recorded trace (the inner
    loop of the figure pipeline)."""
    result = single_as_scalapack
    row = result.row(Approach.HPROF)
    # Reconstruct the evaluation inputs from the stored prediction.
    events = row.prediction.events_per_lp
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0, result.duration_s, 50_000))
    nodes = rng.integers(0, len(row.mapping.assignment), 50_000)
    cluster = cluster_for_scale(default_scale())
    benchmark(
        predict_from_trace,
        times,
        nodes,
        row.mapping.assignment,
        result.num_engines,
        row.mapping.achieved_mll_s,
        result.duration_s,
        cluster,
    )
    assert events.sum() > 0
