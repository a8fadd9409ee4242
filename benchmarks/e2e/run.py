"""The repo's end-to-end benchmark: four workloads, stages and layers.

Two ways to call it, one measuring path underneath.

The benchmark contract (``BENCHMARK.json`` ``command``) measures one
workload and ends with one JSON line::

    python3 benchmarks/e2e/run.py --workload mp-udp --seed 3 --seconds 6 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (one untraced and one traced repetition). Without
``--trace`` it takes a full set — every workload ``--reps`` times,
round-robin so host drift spreads evenly, then one traced repetition
per workload, with a host-noise guard around the lot — prints every
metric by name and writes the result document::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--reps N] [--smoke] [--out F]

Every repetition is a fresh ``child.py`` interpreter, one at a time,
which passes over its workload for ``--seconds`` and reports the floor
of those passes. Metric definitions, workload rationale and how to read
the output are in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
from child import RESULT_MARK  # noqa: E402

SCHEMA = "repro-bench/2"
#: a contract run must end within 180 s, and holds at most two long children
CHILD_TIMEOUT_S = 80.0
#: set-ups per contract run, so ``setup_s`` is a median and not one sample
SETUPS_PER_RUN = 3
#: host-noise guard: spin-loop spread or before/after drift above this
NOISE_LIMIT = 0.10
#: untraced stage walls must cover this share of the timed region
STAGES_SUM_FLOOR = 0.98
#: units of per-layer values that are deterministic for a fixed seed;
#: compare.py requires those identical between two sets
EXACT_UNITS = ("count", "bytes")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units_of(contract: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def expected_fingerprint(expected: dict, workload: str, seed: int) -> dict | None:
    """Committed fingerprint, if any. A checkpointed run must equal the
    plain one in every simulated statistic and in mail bytes, so
    ``mp-udp-ckpt`` is checked against ``mp-udp``'s entry."""
    key = "mp-udp" if workload == "mp-udp-ckpt" else workload
    return expected.get(key, {}).get(str(seed))


# ----------------------------------------------------------------------
# One child = one repetition
# ----------------------------------------------------------------------
def run_child(
    workload: str, seed: int, smoke: bool, seconds: float, flags: tuple[str, ...] = ()
) -> dict:
    """Launch one ``child.py`` and return its document, or the failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)]
    cmd += ["--smoke"] if smoke else []
    cmd += list(flags)
    spawn_epoch_s = time.time()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(RESULT_MARK)]
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-12:]
        return {"workload": workload, "error": f"exit {proc.returncode}: " + " | ".join(tail)}
    doc = json.loads(lines[-1][len(RESULT_MARK):])
    doc["setup_s"] = doc["region_start_epoch_s"] - spawn_epoch_s
    return doc


def failed_checks(doc: dict, expected: dict, first: dict | None) -> list[str]:
    """Why this repetition counts as failed (empty when it does not)."""
    if "error" in doc:
        return [doc["error"]]
    if doc.get("setup_only"):
        return []
    failed = [name for name, ok in doc["checks"].items() if not ok]
    want = None if doc["smoke"] else expected_fingerprint(expected, doc["workload"], doc["seed"])
    if want is not None and doc["fingerprint"] != want:
        keys = sorted(k for k in want if doc["fingerprint"].get(k) != want[k])
        failed.append("fingerprint differs from expected.json in " + ", ".join(keys))
    if first is not None and first is not doc and first["fingerprint"] != doc["fingerprint"]:
        failed.append("fingerprint differs from the first repetition's")
    if doc["traced"]:
        failed += ["trace not exact: " + p for p in doc["trace_problems"]]
    elif not doc["workload"].startswith("mp-"):
        share = doc["layers"]["stages_sum_share"]
        if share < STAGES_SUM_FLOOR:
            failed.append(f"stages cover only {share:.3f} of the timed region")
    return failed


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def stats(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def end_to_end(untraced: list[dict], setups: list[float]) -> dict[str, dict]:
    """Every end-to-end metric of one workload, over its untraced runs.

    Rates are per unit of work, never totals: the amount of work a
    seed's traffic draw produces moves by 20 % between seeds, so a total
    says more about the seed than about the code. ``run_wall_s`` and
    ``cpu_s`` are each child's floor over its passes.
    """
    return {
        "setup_s": stats(setups),
        "work_per_s": stats([d["work"] / d["run_wall_s"] for d in untraced]),
        "cpu_us_per_work": stats([d["cpu_s"] / d["work"] * 1e6 for d in untraced]),
    }


def per_layer(untraced: list[dict], traced: dict | None, spin: list[float]) -> dict[str, float]:
    """Every per-layer metric this workload produces.

    Stopwatches, counts and ratios are medians over the untraced runs;
    self times, measured-window parts and probes come from the traced
    run, and the ratio of the two walls is the tracing overhead.
    """
    out: dict[str, float] = {}
    for name in sorted({name for d in untraced for name in d["layers"]}):
        out[name] = statistics.median(d["layers"][name] for d in untraced if name in d["layers"])
    for name in ("run_wall_s", "cpu_s", "peak_rss_mb", "work", "passes"):
        out[name] = statistics.median(d[name] for d in untraced)
    # how much slower than its floor the host ran a typical pass
    out["host.noise_x"] = statistics.median(
        statistics.median(d["pass_wall_s"]) / d["run_wall_s"] for d in untraced
    )
    if spin:
        out["host.spin_ms"] = statistics.median(spin)
    if traced is not None:
        for name, value in traced["layers"].items():
            out.setdefault(name, value)
        out["trace_overhead_x"] = traced["run_wall_s"] / out["run_wall_s"]
        if traced["workload"].startswith("mp-"):
            out["obs.enabled_over_disabled_x"] = out["trace_overhead_x"]
    return out


def summarise(docs: list[dict], expected: dict, spin: list[float], units: dict[str, str]) -> dict:
    """One workload's block of the result document."""
    timed = [d for d in docs if "error" not in d and not d.get("setup_only")]
    untraced = [d for d in timed if not d["traced"]]
    traced = next((d for d in timed if d["traced"]), None)
    first = untraced[0] if untraced else traced
    reasons = [failed_checks(d, expected, first) for d in docs]
    # a child stands for every pass it made: one bad pass fails them all
    block = {
        "attempted": sum(d.get("passes", 1) for d in docs),
        "failed": sum(d.get("passes", 1) for d, r in zip(docs, reasons) if r),
        "failures": sorted({why for r in reasons for why in r}),
        "fingerprint": first["fingerprint"] if first else None,
        "end_to_end": {},
        "per_layer": {},
    }
    if untraced:
        setups = [d["setup_s"] for d in docs if "error" not in d and not d.get("traced")]
        block["end_to_end"] = end_to_end(untraced, setups)
        block["per_layer"] = {
            name: {"value": value, "exact": units[name] in EXACT_UNITS}
            for name, value in per_layer(untraced, traced, spin).items()
            if name in units
        }
    return block


def print_block(workload: str, block: dict, units: dict[str, str]) -> None:
    for name, s in block["end_to_end"].items():
        print(
            f"{workload:<20} {name:<42} {s['median']:>14.6g} {units[name]:<6}"
            f" n={s['n']} min={s['min']:.6g} max={s['max']:.6g}"
        )
    for name, entry in block["per_layer"].items():
        print(f"{workload:<20} {name:<42} {entry['value']:>14.6g} {units[name]:<6}")
    for why in block["failures"]:
        print(f"FAILED {workload}: {why}", file=sys.stderr)


def write_trace(workload: str, docs: list[dict]) -> None:
    """Spans of the traced repetition, written when the benchmark ends."""
    for doc in docs:
        if doc.get("traced") and "error" not in doc:
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{workload}.json").write_text(json.dumps(doc["spans"], indent=1))


# ----------------------------------------------------------------------
# The contract: one workload, one JSON line
# ----------------------------------------------------------------------
def verify_flags(expected: dict, workload: str, seed: int) -> tuple[str, ...]:
    """A seed with no committed fingerprint gets a single-process
    reference pass after the timed ones (it does nothing off ``mp-*``)."""
    unknown = expected_fingerprint(expected, workload, seed) is None
    return ("--verify-reference",) if unknown else ()


def contract_run(args: argparse.Namespace, contract: dict, expected: dict) -> int:
    units = units_of(contract)
    declared = [m["name"] for m in contract["per_layer"]]
    workload, seed = args.workload, args.seed
    verify = verify_flags(expected, workload, seed)
    docs: list[dict] = []
    spin: list[float] = []
    if args.trace:
        spin = probes.spin_ms()
        docs.append(run_child(workload, seed, args.smoke, args.seconds, ("--extras",)))
        docs.append(run_child(workload, seed, args.smoke, 0.0, ("--trace",)))
    else:
        docs.append(run_child(workload, seed, args.smoke, args.seconds, verify))
        while "error" not in docs[-1] and len(docs) < SETUPS_PER_RUN:
            docs.append(run_child(workload, seed, args.smoke, 0.0, ("--setup-only",)))

    block = summarise(docs, expected, spin, units)
    print_block(workload, block, units)
    write_trace(workload, docs)
    if args.trace:
        # a layer this workload never enters reads 0
        values = {name: 0.0 for name in declared}
        values.update({name: e["value"] for name, e in block["per_layer"].items()})
    else:
        values = {name: s["median"] for name, s in block["end_to_end"].items()}
    correct = block["failed"] == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": block["attempted"],
        "failed": block["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# A full set: every workload, repetitions interleaved, one document
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def spin_block(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "spread": probes.spread(samples), "values": samples}


def full_set(args: argparse.Namespace, contract: dict, expected: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    units = units_of(contract)
    docs: dict[str, list[dict]] = {name: [] for name in names}
    before = probes.spin_ms()
    for rep in range(args.reps):
        for name in names:
            flags = ("--extras",) if rep == 0 else verify_flags(expected, name, args.seed)
            docs[name].append(run_child(name, args.seed, args.smoke, args.seconds, flags))
            print(f"rep {rep + 1}/{args.reps} {name}: "
                  + docs[name][-1].get("error", "done"), file=sys.stderr)
    for name in names:
        docs[name].append(run_child(name, args.seed, args.smoke, 0.0, ("--trace",)))
        print(f"traced {name}: " + docs[name][-1].get("error", "done"), file=sys.stderr)
    after = probes.spin_ms()

    drift = abs(statistics.median(after) - statistics.median(before)) / statistics.median(before)
    noisy = max(probes.spread(before), probes.spread(after), drift) > NOISE_LIMIT
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "reps": args.reps,
        "smoke": args.smoke,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            **next((d["mp"] for ds in docs.values() for d in ds if "mp" in d), {}),
            "git_sha": git_sha(),
            "spin_ms": {"before": spin_block(before), "after": spin_block(after)},
            "noisy": noisy,
        },
        "workloads": {},
        "claim": None,
    }
    failed = 0
    for name in names:
        block = summarise(docs[name], expected, before, units)
        block = {"why": why[name], **block}
        for metric in contract["end_to_end"]:
            entry = block["end_to_end"].get(metric["name"])
            if entry is not None:
                entry.update(unit=metric["unit"], better=metric["better"], bound=metric["bound"])
        document["workloads"][name] = block
        failed += block["failed"]
        print_block(name, block, units)
        write_trace(name, docs[name])
    if noisy:
        print("host was noisy while this set was taken (see host.spin_ms)", file=sys.stderr)
    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    print(json.dumps({"failed": failed, "noisy": noisy, "document": str(out), "claim": None}))
    return 0 if failed == 0 else 1


def write_expected(args: argparse.Namespace) -> int:
    """Regenerate expected.json; only for a change meant to alter outputs."""
    expected: dict = {}
    for seed in args.write_expected:
        for workload in ("pipeline-single-as", "mapping-sweep", "mp-udp"):
            doc = run_child(workload, seed, False, 0.0, ("--verify-reference",))
            reasons = failed_checks(doc, {}, None)
            if reasons:
                print(f"{workload} seed {seed}: " + "; ".join(reasons), file=sys.stderr)
                return 1
            expected.setdefault(workload, {})[str(seed)] = doc["fingerprint"]
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long each child passes over its workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract run: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--reps", type=int, default=5, help="full set: repetitions per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; numbers are meaningless")
    parser.add_argument("--out", help="full set: where to write the result document")
    parser.add_argument("--write-expected", type=int, nargs="+", metavar="SEED",
                        help="regenerate expected.json for these seeds and exit")
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"no simulator to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(contract["run_seconds"])
    if args.workload and args.workload not in [w["name"] for w in contract["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.write_expected:
        return write_expected(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return contract_run(args, contract, load_expected())
    return full_set(args, contract, load_expected())


if __name__ == "__main__":
    sys.exit(main())
