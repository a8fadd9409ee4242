"""Tests for the claims table, its ledger, and the doc tables it renders.

Every entry of ``CLAIMS`` holds on winning rows and fails on losing ones,
without a simulation; the committed ledger (docs/claims_ledger.json) must
agree with the table and with EXPERIMENTS.md's rendered tables.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.experiments import FIGURE_APPROACHES, PAPER_CLAIMS, evaluate_claims, format_claims
from repro.experiments.claims import (
    CLAIMS,
    FIGURE_EXPERIMENTS,
    ledger_from_results,
    ledger_results,
    render_doc,
)
from repro.experiments.runner import ApproachRow, ExperimentResult

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "docs" / "claims_ledger.json"
DOC = ROOT / "EXPERIMENTS.md"

#: (T, MLL ms, imbalance, PE) per approach, FIGURE_APPROACHES order
WINNING = [
    (50.0, 2.0, 0.2, 0.30),   # HPROF
    (55.0, 0.5, 0.3, 0.20),   # PROF2
    (60.0, 2.2, 0.5, 0.25),   # HTOP
    (100.0, 0.5, 0.6, 0.15),  # TOP2
    (70.0, 0.4, 0.25, 0.20),  # PROF
    (65.0, 0.5, 0.4, 0.20),   # TOP
]
LOSING = [
    (120.0, 0.3, 0.9, 0.04),
    (110.0, 0.5, 0.7, 0.20),
    (60.0, 0.3, 0.5, 0.10),
    (100.0, 0.5, 0.6, 0.15),
    (70.0, 0.4, 0.25, 0.20),
    (65.0, 0.5, 0.4, 0.20),
]


def mk_result(good=True, network_kind="single-as", app_kind="scalapack"):
    """A synthetic result where HPROF wins (or loses, good=False)."""
    rows = [ApproachRow(a, *v) for a, v in zip(FIGURE_APPROACHES, WINNING if good else LOSING)]
    if not good and network_kind == "multi-as":  # losing: HTOP balances better than single-AS
        rows[2] = ApproachRow(rows[2].approach, 60.0, 0.3, 0.3, 0.10)
    return ExperimentResult(
        network_kind=network_kind, app_kind=app_kind, scale_name="fake",
        num_engines=4, total_events=1000, duration_s=10.0, rows=rows,
    )


def mk_set(good=True):
    """The four experiments, all winning or all losing."""
    return [mk_result(good, kind, app) for kind, app in FIGURE_EXPERIMENTS]


class TestEvaluateClaims:
    def test_all_pass_on_winning_result(self):
        checks = evaluate_claims([mk_result(good=True)])
        assert len(checks) == len(PAPER_CLAIMS)
        assert all(c.holds for c in checks)

    def test_failures_detected(self):
        checks = evaluate_claims([mk_result(good=False)])
        failing = {c.claim_id for c in checks if not c.holds}
        assert "time-reduction" in failing
        assert "mll-dominance" in failing
        assert "efficiency-gain" in failing

    def test_measured_values(self):
        checks = {c.claim_id: c for c in evaluate_claims([mk_result(True)])}
        assert checks["time-reduction"].measured == pytest.approx(0.5)
        assert checks["efficiency-gain"].measured == pytest.approx(1.0)
        assert checks["mll-dominance"].measured == pytest.approx(3.0)  # 4x -> +300%

    def test_claim_subset(self):
        checks = evaluate_claims([mk_result(True)], claim_ids=["time-reduction"])
        assert len(checks) == 1
        with pytest.raises(KeyError):
            evaluate_claims([mk_result(True)], claim_ids=["warp-drive"])

    def test_multiple_results(self):
        checks = evaluate_claims([mk_result(True), mk_result(True)])
        assert len(checks) == 2 * len(PAPER_CLAIMS)

    def test_format(self):
        text = format_claims(evaluate_claims([mk_result(True)]))
        assert "PASS" in text
        assert "single-as/scalapack" in text
        text_bad = format_claims(evaluate_claims([mk_result(False)]))
        assert "FAIL" in text_bad


class TestClaimsTable:
    @pytest.mark.parametrize("claim_id", list(CLAIMS))
    def test_holds_on_winning_rows(self, claim_id):
        checks = evaluate_claims(mk_set(True), [claim_id])
        assert checks and all(c.holds for c in checks)

    @pytest.mark.parametrize("claim_id", list(CLAIMS))
    def test_fails_on_losing_rows(self, claim_id):
        checks = evaluate_claims(mk_set(False), [claim_id])
        assert checks and not any(c.holds for c in checks)

    def test_versus_claim_without_its_pair_is_not_checked(self):
        lone = evaluate_claims([mk_result(True, "multi-as")], ["multi-as-imbalance-vs-single-as"])
        assert lone == []


class TestLedgerFromResults:
    def test_verdicts_counts_and_paired_gains(self):
        ledger = ledger_from_results({0: mk_set(True), 1: mk_set(False), 2: mk_set(True)})
        entry = next(e for e in ledger["claims"]
                     if (e["id"], e["experiment"]) == ("time-reduction", "single-as/scalapack"))
        assert entry["holds"] == [True, False, True]
        assert entry["seeds_holding"] == 2
        assert entry["gains"] == pytest.approx([0.5, -0.2, 0.5])
        assert entry["median_gain"] == pytest.approx(0.5)
        assert entry["gain_iqr"] == pytest.approx(0.35)


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


class TestCommittedLedger:
    """The committed ledger: its coverage, its table, and the doc."""

    def test_covers_seeds_experiments_and_approaches(self, ledger):
        assert ledger["scale"] == "small" and ledger["seeds"] == list(range(10))
        for seed, results in ledger_results(ledger).items():
            assert [(r.network_kind, r.app_kind) for r in results] == list(FIGURE_EXPERIMENTS)
            assert all([row.approach for row in r.rows] == FIGURE_APPROACHES for r in results)

    def test_claims_are_the_tables_verdicts_on_its_results(self, ledger):
        # A changed definition must come with a regenerated ledger.
        assert ledger_from_results(ledger_results(ledger)) == ledger
        assert {e["id"] for e in ledger["claims"]} == set(CLAIMS)

    def test_every_asserted_ordering_holds_at_seed_0(self, ledger):
        failing = [
            (e["id"], e["experiment"]) for e in ledger["claims"]
            if CLAIMS[e["id"]].asserts(e["experiment"]) and not e["holds"][0]
        ]
        assert failing == []

    def test_experiments_md_tables_render_from_it(self, ledger):
        text = DOC.read_text()
        assert set(re.findall(r"<!-- ledger: (.+?) -->", text)) == {
            "figures single-as", "figures multi-as",
            "claims single-as", "claims multi-as", "claims headline",
        }
        assert render_doc(text, ledger) == text, (
            "EXPERIMENTS.md disagrees with docs/claims_ledger.json: "
            "re-render it with repro.experiments.claims.render_doc"
        )
