"""Compare two result documents of ``run.py`` under the benchmark's bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of one
commit), B the candidate. One row per workload x end-to-end metric:
both medians, the ratio B/A, and a verdict from the bound that
``BENCHMARK.json`` fixes for the metric:

- ``ok``          B's median is no worse than A's by more than the bound;
- ``regressed``   it is worse by more than the bound;
- ``unresolved``  either side's run-to-run spread, (max - min) / median,
  is wider than the bound *and* the two ranges overlap, so the runs
  cannot tell the two apart — neither "unchanged" nor "regressed".

Counts and fingerprints must be identical: a speed-only change leaves
every simulated statistic as it was. Exit status is 1 if any row
regressed, any run failed more often, or any exact value differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, share by which B's median is worse than A's)``."""
    change = (b["median"] - a["median"]) / a["median"]
    worse_by = change if better == "lower" else -change
    spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare(a_doc: dict, b_doc: dict, contract: dict) -> tuple[list[dict], list[str]]:
    """Rows for every shared workload x metric, and exact-value mismatches."""
    rows: list[dict] = []
    mismatches: list[str] = []
    for workload in (w["name"] for w in contract["workloads"]):
        a, b = a_doc["workloads"].get(workload), b_doc["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            sa, sb = a["end_to_end"][name], b["end_to_end"][name]
            what, worse_by = verdict(sa, sb, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": sa["median"], "b": sb["median"], "ratio_b_over_a": sb["median"] / sa["median"],
                "worse_by": worse_by, "bound": metric["bound"], "verdict": what,
            })
        if b["failed"] * a["attempted"] > a["failed"] * b["attempted"]:
            rows.append({
                "workload": workload, "metric": "failed_share", "unit": "ratio",
                "a": a["failed"] / a["attempted"], "b": b["failed"] / b["attempted"],
                "ratio_b_over_a": float("inf"), "worse_by": float("inf"), "bound": 0.0,
                "verdict": "regressed",
            })
        if a["fingerprint"] != b["fingerprint"]:
            mismatches.append(f"{workload}: fingerprint differs")
        for name, entry in a["per_layer"].items():
            other = b["per_layer"].get(name)
            if entry.get("exact") and other is not None and other["value"] != entry["value"]:
                mismatches.append(f"{workload}: {name} {entry['value']} != {other['value']}")
    return rows, mismatches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, mismatches = compare(a_doc, b_doc, contract)
    print(f"base A = {argv[0]} ({a_doc['host']['git_sha']}), B = {argv[1]} ({b_doc['host']['git_sha']})")
    for doc, label in ((a_doc, "A"), (b_doc, "B")):
        if doc["host"]["noisy"]:
            print(f"note: set {label} was taken on a noisy host (see its host block)")
    print(f"{'workload':<20} {'metric':<12} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6}  verdict")
    for r in rows:
        print(
            f"{r['workload']:<20} {r['metric']:<12} {r['a']:>12.5g} {r['b']:>12.5g} "
            f"{r['ratio_b_over_a']:>7.3f} {r['bound']:>6.2f}  {r['verdict']}  [{r['unit']}]"
        )
    for line in mismatches:
        print("MISMATCH " + line)
    bad = [r for r in rows if r["verdict"] == "regressed"]
    return 1 if bad or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
