"""CI lint gate: the repository must pass its own static analysis.

Runs ``python -m repro lint src/repro --format json`` as a subprocess
(the exact command CI uses) and fails on any error-severity finding, so
a determinism or scheduling regression fails ``pytest -x -q`` like any
other test. The strict gate runs against the committed
``.simlint-baseline.json`` ratchet: pre-existing (baselined) findings
are tolerated, NEW findings fail the build. Also covers the lint CLI
surface itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / ".simlint-baseline.json"


def run_lint(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=180,
    )


class TestRepositoryIsClean:
    def test_no_error_findings_on_src(self):
        proc = run_lint("src/repro", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        errors = [
            f for f in payload["findings"] if f["severity"] == "error"
        ]
        assert errors == [], f"lint errors in src/repro: {errors}"
        assert payload["counts"]["error"] == 0

    def test_strict_gate_passes_against_committed_baseline(self):
        # The ratchet: warnings already in .simlint-baseline.json are
        # tolerated; anything new fails CI.
        proc = run_lint(
            "src/repro", "--strict", "--baseline", str(BASELINE)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "baseline" in proc.stdout

    def test_baseline_findings_still_exist(self):
        # A baseline entry whose finding was fixed should be pruned —
        # every key must still match a live finding, or the ratchet rots.
        baseline = json.loads(BASELINE.read_text())
        proc = run_lint("src/repro", "--strict", "--format", "json")
        payload = json.loads(proc.stdout)
        live = {
            f"{f['path']}::{f['rule_id']}::{f['message']}"
            for f in payload["findings"]
        }
        stale = set(baseline["findings"]) - live
        assert not stale, f"stale baseline entries (fixed findings): {stale}"

    def test_no_sim201_suppression_is_left_in_the_simulation_layers(self):
        # The event sequence, flow ids and listeners used to be
        # process-wide and suppressed SIM201 four times; they now belong
        # to the engine / simulator / agent, and the gate stays clean
        # without a single suppression in these packages.
        suppressed = [
            str(path.relative_to(REPO_ROOT))
            for pkg in ("engine", "netsim", "online")
            for path in sorted((SRC / "repro" / pkg).rglob("*.py"))
            if "simlint: disable=SIM201" in path.read_text()
        ]
        assert suppressed == []
        assert json.loads(BASELINE.read_text())["findings"] in ({}, [])

    def test_new_violation_fails_strict_baseline_gate(self, tmp_path):
        # A fresh SIM201 violation (module counter mutated from a
        # scheduled handler) must escape the baseline and exit non-zero.
        bad = tmp_path / "repro" / "engine" / "fresh.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import itertools\n"
            "_ids = itertools.count()\n"
            "class Kernel:\n"
            "    def schedule(self, fn):\n"
            "        pass\n"
            "    def boot(self):\n"
            "        self.schedule(self.on_tick)\n"
            "    def on_tick(self):\n"
            "        return next(_ids)\n"
        )
        proc = run_lint(
            str(tmp_path),
            "--strict",
            "--baseline",
            str(BASELINE),
            "--select",
            "SIM201",
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "SIM201" in proc.stdout

    def test_lint_runtime_stays_within_ci_budget(self):
        # The whole-program pass must stay fast enough for the tier-1
        # gate; the acceptance bound is < 10 s on src/repro.
        start = time.perf_counter()
        proc = run_lint("src/repro", "--strict", "--baseline", str(BASELINE))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert elapsed < 10.0, f"lint took {elapsed:.1f}s (budget 10s)"


class TestLintCli:
    def test_missing_path_exits_2(self):
        proc = run_lint("no/such/dir")
        assert proc.returncode == 2
        assert "no such path" in proc.stdout

    def test_unknown_rule_id_exits_2(self):
        proc = run_lint("src/repro", "--select", "SIM999")
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = run_lint("src/repro", "--list-rules")
        assert proc.returncode == 0
        for rule_id in ("SIM101", "SIM102", "SIM103", "SIM104", "SIM105", "SIM106"):
            assert rule_id in proc.stdout

    def test_list_rules_needs_no_path(self):
        proc = run_lint("--list-rules")
        assert proc.returncode == 0
        assert "SIM101" in proc.stdout

    def test_no_path_no_list_rules_exits_2(self):
        proc = run_lint()
        assert proc.returncode == 2
        assert "PATH" in proc.stdout

    def test_bad_file_exits_1_human_format(self, tmp_path):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        proc = run_lint(str(bad))
        assert proc.returncode == 1
        assert "SIM101" in proc.stdout

    def test_select_filters_rules(self, tmp_path):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        proc = run_lint(str(bad), "--select", "SIM104")
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_missing_baseline_file_exits_2(self, tmp_path):
        proc = run_lint(
            "src/repro", "--baseline", str(tmp_path / "nope.json")
        )
        assert proc.returncode == 2
        assert "baseline" in proc.stdout

    def test_update_baseline_requires_baseline_path(self):
        proc = run_lint("src/repro", "--update-baseline")
        assert proc.returncode == 2

    def test_update_baseline_roundtrip(self, tmp_path):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        baseline = tmp_path / "base.json"
        proc = run_lint(
            str(bad), "--baseline", str(baseline), "--update-baseline"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(baseline.read_text())["findings"]
        # The same tree now passes strict against its own baseline.
        proc = run_lint(str(bad), "--strict", "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_sarif_out_writes_valid_document(self, tmp_path):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        sarif = tmp_path / "out.sarif"
        proc = run_lint(str(bad), "--sarif-out", str(sarif))
        assert proc.returncode == 1
        doc = json.loads(sarif.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        assert any(r["ruleId"] == "SIM101" for r in run["results"])

    def test_obs_out_writes_analyzer_stats(self, tmp_path):
        snap = tmp_path / "obs.json"
        proc = run_lint("src/repro", "--select", "SIM104", "--obs-out", str(snap))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(snap.read_text())
        assert doc["meta"]["tool"] == "simlint"
        assert doc["counters"]["lint.files.scanned"] > 0
        assert doc["counters"]["lint.rules.run"] == 1
        assert doc["timers"]["lint.wall"]["count"] == 1


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_formats_are_parseable(fmt, tmp_path):
    clean = tmp_path / "ok.py"
    clean.write_text("def f(x):\n    return x\n")
    proc = run_lint(str(clean), "--format", fmt)
    assert proc.returncode == 0
    if fmt == "json":
        json.loads(proc.stdout)
    else:
        assert "clean: no findings" in proc.stdout
