"""The paper's claims and figure orderings, defined once, and their ledger.

:data:`CLAIMS` is the one table of what the reproduction checks about
Figures 6-13 and the abstract (:data:`PAPER_CLAIMS`, the four headline
claims, first). :func:`claims_ledger` evaluates it over a list of seeds;
EXPERIMENTS.md's tables are rendered (:func:`render_doc`) from the
committed ledger for seeds 0-9 at ``small`` (regenerated as its
"Reproducing" section shows).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ..core.approaches import Approach
from ..serialization import result_from_dict, result_to_dict
from .config import SCALES, ExperimentScale
from .report import format_figures
from .runner import FIGURE_APPROACHES, ExperimentResult, run_experiment

__all__ = [
    "Claim", "ClaimCheck", "CLAIMS", "PAPER_CLAIMS", "FIGURE_EXPERIMENTS", "evaluate_claims",
    "format_claims", "claims_ledger", "ledger_from_results", "ledger_results", "render_doc",
    "write_ledger",
]

NETWORKS = ("single-as", "multi-as")
#: the paper's four (network, application) experiments
FIGURE_EXPERIMENTS = tuple((kind, app) for kind in NETWORKS for app in ("scalapack", "gridnpb"))

Term = Callable[[ExperimentResult], float]


def _of(metric: str, *approaches: Approach, pick: Callable = max) -> Term:
    """One approach's ``metric``, or ``pick`` (max / min) over several."""
    return lambda r: pick(r.metric(a, metric) for a in approaches)


T, MLL, IMB, PE = "sim_time_s", "achieved_mll_ms", "load_imbalance", "parallel_efficiency"
HPROF, PROF2, HTOP, TOP2 = Approach.HPROF, Approach.PROF2, Approach.HTOP, Approach.TOP2
PROF, TOP = Approach.PROF, Approach.TOP
FLAT = (TOP, TOP2, PROF, PROF2)  # the flat approaches of Figures 7/11
LOWER, HIGHER = True, False  # which side wins


@dataclass(frozen=True)
class Claim:
    """``better`` beats ``worse`` by a gain above ``threshold``.

    The gain is the relative margin, positive in the paper's direction:
    ``(worse - better) / worse`` where lower wins (time, imbalance),
    ``better / worse - 1`` where higher wins (MLL, efficiency), and 0
    when ``worse`` is 0. The claim holds when the gain exceeds the
    threshold, or reaches it when ``strict`` is false.
    """

    description: str
    paper: str  # the paper's figure for it, as EXPERIMENTS.md prints it
    better: Term
    worse: Term
    lower_wins: bool
    threshold: float = 0.0
    strict: bool = True
    networks: tuple[str, ...] = NETWORKS  # checked on these network kinds
    asserted: tuple[str, ...] | None = None  # the figure benchmark's networks, if not all
    versus: str | None = None  # read ``worse`` on this network's run of the same app
    across: Callable[[list[float]], float] | None = None  # one verdict over all experiments
    figure: str = ""  # the paper figures it comes from; "" for the headline claims

    def gain(self, result: ExperimentResult, other: ExperimentResult | None = None) -> float:
        """The gain on ``result``; ``worse`` is read on ``other`` when given."""
        b, w = self.better(result), self.worse(other if other is not None else result)
        if not w:
            return 0.0
        return (w - b) / w if self.lower_wins else b / w - 1.0

    def holds(self, gain: float) -> bool:
        """Whether ``gain`` clears the threshold."""
        return gain > self.threshold if self.strict else gain >= self.threshold

    def asserts(self, experiment: str) -> bool:
        """Whether the figure benchmark asserts it on a check's experiment."""
        return self.asserted is None or experiment.startswith(self.asserted)


#: claim id -> claim; the first four are the abstract's (PAPER_CLAIMS)
CLAIMS: dict[str, Claim] = {
    "time-reduction": Claim(
        "HPROF reduces simulation time vs TOP2", "~50 %", _of(T, HPROF), _of(T, TOP2), LOWER),
    "imbalance-improvement": Claim(
        "HPROF improves load imbalance vs HTOP (at most 10 % above it)", "~40 %",
        _of(IMB, HPROF), _of(IMB, HTOP), LOWER, -0.10),
    "mll-dominance": Claim(
        "hierarchical MLL exceeds the flat tuned mapping's (HPROF vs TOP2)", "5-10x",
        _of(MLL, HPROF), _of(MLL, TOP2), HIGHER, strict=False),
    "efficiency-gain": Claim(
        "HPROF parallel efficiency above TOP2", "+64 %", _of(PE, HPROF), _of(PE, TOP2), HIGHER),
    "time-reduction-max": Claim(
        "HPROF's largest time gain vs TOP2, over the four experiments, above 10 %", "~50 %",
        _of(T, HPROF), _of(T, TOP2), LOWER, 0.10, across=max),
    "imbalance-improvement-mean": Claim(
        "HPROF's mean imbalance gain vs HTOP, over the four experiments, above 10 %", "~40 %",
        _of(IMB, HPROF), _of(IMB, HTOP), LOWER, 0.10, across=lambda g: float(np.mean(g))),
    "efficiency-floor": Claim(
        "HPROF parallel efficiency above 0.05", "> 0.40", _of(PE, HPROF), lambda r: 0.05, HIGHER),
    "time-near-top2": Claim("HPROF time at most 2 % above TOP2's", "~-50 %",
                            _of(T, HPROF), _of(T, TOP2), LOWER, -0.02, strict=False),
    "time-near-tuned-flat": Claim(
        "HPROF time at most 5 % above the faster of TOP2 and PROF2", "-14 % to -50 %",
        _of(T, HPROF), _of(T, TOP2, PROF2, pick=min), LOWER, -0.05, strict=False),
    "htop-mll-above-top2": Claim("HTOP's MLL at least TOP2's", "5-10x",
                                 _of(MLL, HTOP), _of(MLL, TOP2), HIGHER, strict=False),
    "prof2-time-below-top2": Claim(
        "PROF2 time below TOP2 (asserted on single-AS only)", "-14 % / -21 %",
        _of(T, PROF2), _of(T, TOP2), LOWER, asserted=("single-as",), figure="6/10"),
    "hprof-time-near-prof2": Claim(
        "HPROF time at most 2 % above PROF2's", "up to -40 %", _of(T, HPROF), _of(T, PROF2),
        LOWER, -0.02, strict=False, networks=("single-as",), figure="6"),
    "hprof-fastest": Claim(
        "HPROF time lowest of HPROF, PROF2, HTOP, TOP2", "-41 % vs PROF2", _of(T, HPROF),
        _of(T, PROF2, HTOP, TOP2, pick=min), LOWER, strict=False, networks=("multi-as",),
        figure="10"),
    "hprof-mll-above-flat": Claim(
        "HPROF MLL at least every flat mapping's", "5x / 10x", _of(MLL, HPROF), _of(MLL, *FLAT),
        HIGHER, strict=False, figure="7/11"),
    "htop-mll-near-flat": Claim(
        "HTOP MLL at least 0.9x the largest flat MLL", "largest", _of(MLL, HTOP),
        _of(MLL, *FLAT), HIGHER, -0.10, strict=False, figure="7/11"),
    "flat-mll-half-of-hprof": Claim(
        "the smallest flat MLL at most half HPROF's", "0.6 vs 2-3 ms",
        _of(MLL, *FLAT, pick=min), _of(MLL, HPROF), LOWER, 0.5, strict=False, figure="7/11"),
    "prof2-imbalance-below-top2": Claim("PROF2 imbalance below TOP2", "-7 % / -15 %",
                                        _of(IMB, PROF2), _of(IMB, TOP2), LOWER, figure="8/12"),
    "hprof-imbalance-below-htop": Claim("HPROF imbalance below HTOP", "-11 % / -31 %",
                                        _of(IMB, HPROF), _of(IMB, HTOP), LOWER, figure="8/12"),
    "multi-as-imbalance-vs-single-as": Claim(
        "HTOP imbalance on multi-AS above 0.75x single-AS's", "larger", _of(IMB, HTOP),
        _of(IMB, HTOP), HIGHER, -0.25, networks=("multi-as",), versus="single-as", figure="12"),
    "hprof-best-efficiency": Claim(
        "HPROF parallel efficiency the best", "0.40, best", _of(PE, HPROF),
        _of(PE, PROF2, HTOP, TOP2, PROF, TOP), HIGHER, strict=False, networks=("single-as",),
        figure="9"),
    "hierarchical-best-efficiency": Claim(
        "HPROF or HTOP parallel efficiency the best", "0.40, ~best", _of(PE, HPROF, HTOP),
        _of(PE, PROF2, TOP2, PROF, TOP), HIGHER, strict=False, networks=("multi-as",),
        figure="13"),
}

#: the abstract's four claims: what ``evaluate_claims`` checks by default
PAPER_CLAIMS = {cid: CLAIMS[cid] for cid in list(CLAIMS)[:4]}


@dataclass(frozen=True)
class ClaimCheck:
    """Verdict for one claim on one experiment (or on all, for ``across``)."""

    claim_id: str
    experiment: str
    holds: bool
    measured: float


def evaluate_claims(
    results: list[ExperimentResult], claim_ids: Iterable[str] | None = None
) -> list[ClaimCheck]:
    """Evaluate the selected claims (default: :data:`PAPER_CLAIMS`) on every
    result of their networks; a ``versus`` claim pairs each with the same
    app's result on the other network, when present; an ``across`` claim
    gives one verdict over all. Unknown claim ids, and results without the
    rows a claim reads, raise ``KeyError``."""
    checks: list[ClaimCheck] = []
    for cid in claim_ids if claim_ids is not None else PAPER_CLAIMS:
        claim = CLAIMS[cid]
        mine = [r for r in results if r.network_kind in claim.networks]
        gains = [(f"{r.network_kind}/{r.app_kind}", claim.gain(r)) for r in mine]
        if claim.across is not None:
            gains = [("all", claim.across([g for _, g in gains]))] if gains else []
        elif claim.versus is not None:
            gains = [
                (f"{r.network_kind}/{r.app_kind} vs {claim.versus}", claim.gain(r, other))
                for r in mine
                for other in results
                if (other.network_kind, other.app_kind) == (claim.versus, r.app_kind)
            ]
        checks += [ClaimCheck(cid, exp, claim.holds(g), g) for exp, g in gains]
    return checks


def format_claims(checks: list[ClaimCheck]) -> str:
    """Render verdicts grouped by claim."""
    lines: list[str] = []
    for cid in dict.fromkeys(c.claim_id for c in checks):
        lines.append(f"{CLAIMS[cid].description} (paper: {CLAIMS[cid].paper})")
        for c in (c for c in checks if c.claim_id == cid):
            mark = "PASS" if c.holds else "FAIL"
            lines.append(f"  [{mark}] {c.experiment:<22} measured {c.measured:+7.1%}")
        lines.append("")
    return "\n".join(lines).rstrip()


def claims_ledger(
    seeds: Iterable[int],
    scale: ExperimentScale | None = None,
    experiments: Iterable[tuple[str, str]] = FIGURE_EXPERIMENTS,
    approaches: Iterable[Approach] | None = None,
    claim_ids: Iterable[str] | None = None,
) -> dict:
    """:func:`ledger_from_results` of every experiment run at every seed
    (default: the six ``FIGURE_APPROACHES`` and every claim)."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    approaches = list(approaches if approaches is not None else FIGURE_APPROACHES)
    return ledger_from_results({
        seed: [run_experiment(kind, app, approaches, scale, seed) for kind, app in experiments]
        for seed in seeds
    }, claim_ids)


def ledger_from_results(
    results: dict[int, list[ExperimentResult]], claim_ids: Iterable[str] | None = None
) -> dict:
    """The ledger of results by seed (default claims: all). ``results``
    holds each result's :func:`result_to_dict` with its seed; ``claims``
    one entry per claim and experiment: the verdict and gain at each seed,
    the seeds that hold, and the median gain with its interquartile range.
    A gain is paired: both of its sides come from one seed's run."""
    ids = list(claim_ids if claim_ids is not None else CLAIMS)
    entries: dict[tuple[str, str], dict] = {}
    for rs in results.values():
        for c in evaluate_claims(rs, ids):
            entry = entries.setdefault((c.claim_id, c.experiment), {
                "id": c.claim_id, "experiment": c.experiment, "holds": [], "gains": []})
            entry["holds"].append(c.holds)
            entry["gains"].append(c.measured)
    for entry in entries.values():
        q1, median, q3 = np.percentile(entry["gains"], [25, 50, 75])
        entry.update(seeds_holding=sum(entry["holds"]), median_gain=float(median),
                     gain_iqr=float(q3 - q1))
    return {
        "scale": next(iter(results.values()))[0].scale_name,
        "seeds": list(results),
        "results": [{"seed": s, **result_to_dict(r)} for s, rs in results.items() for r in rs],
        "claims": list(entries.values()),
    }


def ledger_results(ledger: dict) -> dict[int, list[ExperimentResult]]:
    """The ledger's results by seed, read back (four metrics per row)."""
    docs = ledger["results"]
    return {s: [result_from_dict(d) for d in docs if d["seed"] == s] for s in ledger["seeds"]}


def _claim_table(ledger: dict, figures: bool, network: str = "") -> str:
    """One row per claim and experiment: figure orderings or headline claims."""
    seeds = ledger["seeds"]
    head = ["fig"] * figures + ["entry", "claim", "experiment", "paper", "holds if gain",
                                f"seed {seeds[0]} gain", "seeds holding", "median gain (IQR)"]
    lines = ["| " + " | ".join(head) + " |", "|---" * len(head) + "|"]
    for e in ledger["claims"]:
        claim = CLAIMS[e["id"]]
        if bool(claim.figure) != figures or not e["experiment"].startswith(network):
            continue
        cells = [claim.figure] * figures + [
            f"`{e['id']}`", claim.description, e["experiment"], claim.paper,
            f"{'>' if claim.strict else '>='} {claim.threshold:+.0%}", f"{e['gains'][0]:+.1%}",
            f"{e['seeds_holding']}/{len(seeds)}", f"{e['median_gain']:+.1%} ({e['gain_iqr']:.1%})",
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _render_section(spec: str, ledger: dict) -> str:
    kind, what = spec.split()
    if kind == "claims":
        return _claim_table(ledger, what != "headline", what if what != "headline" else "")
    first = ledger_results(ledger)[ledger["seeds"][0]]
    return "```text\n" + format_figures([r for r in first if r.network_kind == what]) + "\n```"


def render_doc(text: str, ledger: dict) -> str:
    """``text`` with every ``<!-- ledger: SPEC -->`` section re-rendered.

    SPEC is ``figures NETWORK`` (the first seed's figure tables),
    ``claims NETWORK`` (the figure orderings on that network) or
    ``claims headline`` (the other claims).
    """
    return re.sub(
        r"(<!-- ledger: (.+?) -->\n)(.*?)(<!-- /ledger -->)",
        lambda m: m.group(1) + _render_section(m.group(2), ledger) + "\n" + m.group(4),
        text, flags=re.S,
    )


def write_ledger(seeds: Iterable[int], ledger_path: str | Path, doc_path: str | Path) -> dict:
    """Run the ledger at ``small``, write it, and re-render the doc's tables."""
    ledger = claims_ledger(seeds, scale=SCALES["small"])
    Path(ledger_path).write_text(json.dumps(ledger, indent=1) + "\n")
    Path(doc_path).write_text(render_doc(Path(doc_path).read_text(), ledger))
    return ledger
