"""Tests of the benchmark itself (not part of tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


@functools.lru_cache(maxsize=None)
def run_contract(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The contract, through the real command at --smoke size
# ----------------------------------------------------------------------
def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0.0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_exactly_the_declared_metrics(workload):
    for trace, declared in ((0, CONTRACT["end_to_end"]), (1, CONTRACT["per_layer"])):
        doc = run_contract(workload, trace)
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
        assert set(doc["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            got = doc["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        if trace == 0:
            assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_every_per_layer_metric_is_produced_by_some_workload():
    produced = set()
    for workload in WORKLOADS:
        metrics = run_contract(workload, 1)["metrics"]
        produced |= {name for name, v in metrics.items() if v["value"] != 0}
    never = {m["name"] for m in CONTRACT["per_layer"]} - produced
    # counts that are legitimately 0 on a healthy run
    assert never <= {"obs.dropped_records", "netsim.packets_dropped_queue"}


def test_run_refuses_a_checkout_without_the_simulator(tmp_path):
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (target / "expected.json").write_text("{}")
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mp-udp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


# ----------------------------------------------------------------------
# compare.py verdicts on synthetic documents
# ----------------------------------------------------------------------
def stat(values):
    values = sorted(values)
    return {"median": values[len(values) // 2], "min": values[0], "max": values[-1], "n": len(values)}


def test_verdict_ok_regressed_unresolved():
    base = stat([10.0, 10.1, 10.2])
    assert compare.verdict(base, stat([10.3, 10.4, 10.5]), "lower", 0.10)[0] == "ok"
    assert compare.verdict(base, stat([11.9, 12.0, 12.1]), "lower", 0.10)[0] == "regressed"
    # wide spread + overlapping ranges: the runs cannot tell the sides apart
    assert compare.verdict(stat([9.0, 10.0, 12.0]), stat([9.5, 11.5, 12.5]), "lower", 0.10)[0] == "unresolved"
    # wide spread but disjoint ranges, every B run better: still ok
    assert compare.verdict(stat([9.0, 10.0, 12.0]), stat([6.0, 7.0, 8.0]), "lower", 0.10)[0] == "ok"
    # direction: a rate that falls is worse
    assert compare.verdict(stat([100.0, 101.0, 102.0]), stat([80.0, 81.0, 82.0]), "higher", 0.10)[0] == "regressed"
    assert compare.verdict(stat([100.0, 101.0, 102.0]), stat([120.0, 121.0, 122.0]), "higher", 0.10)[0] == "ok"


def synthetic(cpu_us, events=1000, failed=0):
    e2e = {m["name"]: stat([1.0, 1.0, 1.0]) for m in CONTRACT["end_to_end"]}
    e2e["cpu_us_per_work"] = stat(cpu_us)
    block = {
        "attempted": 3, "failed": failed, "end_to_end": e2e, "fingerprint": {"events": events},
        "per_layer": {"engine.kernel.events": {"value": events, "exact": True}},
    }
    return {"host": {"git_sha": "x", "noisy": False}, "workloads": {WORKLOADS[0]: block}}


def test_compare_flags_regressions_failures_and_count_mismatches():
    base = synthetic([10.0, 10.1, 10.2])
    rows, mismatches = compare.compare(base, synthetic([10.0, 10.1, 10.2]), CONTRACT)
    assert not mismatches and {r["verdict"] for r in rows} == {"ok"}
    rows, _ = compare.compare(base, synthetic([14.0, 14.1, 14.2]), CONTRACT)
    assert [r["metric"] for r in rows if r["verdict"] == "regressed"] == ["cpu_us_per_work"]
    rows, _ = compare.compare(base, synthetic([10.0, 10.1, 10.2], failed=1), CONTRACT)
    assert [r["metric"] for r in rows if r["verdict"] == "regressed"] == ["failed_share"]
    _, mismatches = compare.compare(base, synthetic([10.0, 10.1, 10.2], events=999), CONTRACT)
    assert len(mismatches) == 2  # the fingerprint and the exact count


# ----------------------------------------------------------------------
# Builtin-to-caller re-attribution on a toy profile
# ----------------------------------------------------------------------
def test_builtin_self_time_goes_to_the_calling_repro_module():
    kernel = ("/x/src/repro/engine/kernel.py", 10, "run")
    queue = ("/x/src/repro/engine/calqueue.py", 20, "push")
    link = ("/x/src/repro/netsim/link.py", 30, "transmit")
    http = ("/x/src/repro/netsim/app/http.py", 40, "serve")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    npsum = ("/lib/numpy/core/fromnumeric.py", 5, "sum")
    reduce_ = ("~", 0, "<method 'reduce' of 'numpy.ufunc' objects>")
    harness = ("/x/benchmarks/e2e/child.py", 1, "main")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        kernel: (1, 1, 1.0, 9.0, {harness: (1, 1, 1.0, 9.0)}),
        queue: (100, 100, 2.0, 3.0, {kernel: (100, 100, 2.0, 3.0)}),
        link: (50, 50, 1.5, 2.5, {kernel: (50, 50, 1.5, 2.5)}),
        http: (5, 5, 0.25, 0.25, {kernel: (5, 5, 0.25, 0.25)}),
        # heappush: 1.0 s on behalf of the queue, 0.25 s called by the harness
        heappush: (110, 110, 1.25, 1.25, {queue: (100, 100, 1.0, 1.0), harness: (10, 10, 0.25, 0.25)}),
        # numpy.sum is library Python: its own time and its C callee's
        # both belong to the link module, which called it
        npsum: (50, 50, 0.5, 1.0, {link: (50, 50, 0.5, 1.0)}),
        reduce_: (50, 50, 0.5, 0.5, {npsum: (50, 50, 0.5, 0.5)}),
    }
    self_s, calls = tracing.attribute_profile(stats, "/x/src/repro")
    assert self_s["engine.kernel"] == pytest.approx(1.0)
    assert self_s["engine.calqueue"] == pytest.approx(2.0 + 1.0)
    assert self_s["netsim.link"] == pytest.approx(1.5 + 0.5 + 0.5)
    assert self_s["netsim.app"] == pytest.approx(0.25)  # collapsed package
    assert self_s[tracing.OTHER] == pytest.approx(0.5 + 0.25)
    assert sum(self_s.values()) == pytest.approx(sum(v[2] for v in stats.values()))
    assert calls["netsim.link"]["transmit"] == 50


def test_span_self_time_excludes_children():
    rec = tracing.Recorder()
    with rec.span("run", stage=False):
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
    own = rec.self_times()
    spans = {s["name"]: s for s in rec.spans}
    assert spans["a"]["parent"] == spans["run"]["id"] and spans["run"]["parent"] is None
    total = spans["run"]["end_s"] - spans["run"]["start_s"]
    assert [stage for stage, _, _ in rec.steps] == ["a", "b"]  # the run span is no stage
    assert own[spans["run"]["id"]] == pytest.approx(total - sum(wall for _, wall, _ in rec.steps))


# ----------------------------------------------------------------------
# Steps and the floor over repeated passes
# ----------------------------------------------------------------------
def test_laps_and_cuts_tile_their_span():
    rec = tracing.Recorder()
    with rec.span("sweep") as lap:
        lap()
        lap()
    span = rec.spans[0]
    assert [stage for stage, _, _ in rec.steps] == ["sweep"] * 3
    assert sum(wall for _, wall, _ in rec.steps) == pytest.approx(span["end_s"] - span["start_s"])

    with rec.span("mp"):
        pass
    span = rec.spans[-1]
    middle = (span["start_s"] + span["end_s"]) / 2
    cpu = rec.steps[-1][2]
    rec.cut_last_stage([middle, middle], [0.25, 0.5])
    cut = rec.steps[3:]
    assert [stage for stage, _, _ in cut] == ["mp"] * 3
    assert [wall for _, wall, _ in cut] == pytest.approx([middle - span["start_s"], 0.0, span["end_s"] - middle])
    assert [c for _, _, c in cut] == pytest.approx([0.25, 0.5, cpu - 0.75])
    with rec.span("late"):
        pass
    with pytest.raises(ValueError):
        rec.cut_last_stage([span["start_s"]], [0.0])  # a stamp from before the span


def test_floor_takes_every_step_at_its_fastest_reading():
    quiet = [("a", 1.0, 0.9), ("b", 2.0, 1.9), ("glue", 0.1, 0.1)]
    burst_in_a = [("a", 1.7, 1.0), ("b", 2.0, 1.8), ("glue", 0.1, 0.1)]
    burst_in_b = [("a", 1.0, 0.9), ("b", 3.1, 2.5), ("glue", 0.2, 0.1)]
    # no pass is clean, every step is clean once
    floor = tracing.floor_of_passes([burst_in_a, burst_in_b])
    assert floor == [("a", 1.0, 0.9), ("b", 2.0, 1.8), ("glue", 0.1, 0.1)]
    assert tracing.floor_of_passes([quiet]) == quiet
    with pytest.raises(ValueError):
        tracing.floor_of_passes([quiet, quiet[:2]])
