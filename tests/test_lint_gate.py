"""CI lint gate: the repository must pass its own static analysis.

Runs ``python -m repro lint src/repro --strict --format json`` once as a
subprocess (the gate command, in its machine-readable form, shared by the
gate tests through one module-scoped fixture) and fails on any finding,
error or warning, so a determinism or scheduling regression fails
``pytest -x -q`` like any other test; the same run is held to the 10 s
budget. A finding is fixed, or suppressed inline with its reason.
Also covers the lint CLI surface itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import all_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


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


@pytest.fixture(scope="module")
def src_gate() -> tuple[subprocess.CompletedProcess, float]:
    """The one whole-program pass over src/repro, and its wall time."""
    start = time.perf_counter()
    proc = run_lint("src/repro", "--strict", "--format", "json")
    return proc, time.perf_counter() - start


class TestRepositoryIsClean:
    def test_strict_gate_passes_against_committed_baseline(self, src_gate):
        # The committed tree is its own baseline: strict, so warnings
        # fail too, and no finding is tolerated.
        proc, _ = src_gate
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_no_error_findings_on_src(self, src_gate):
        proc, _ = src_gate
        payload = json.loads(proc.stdout)
        assert payload["findings"] == [], f"lint findings in src/repro: {payload['findings']}"
        assert payload["counts"]["error"] == 0

    def test_lint_runtime_stays_within_ci_budget(self, src_gate):
        # The whole-program pass must stay fast enough for the tier-1
        # gate; the acceptance bound is < 10 s on src/repro.
        _, elapsed = src_gate
        assert elapsed < 10.0, f"lint took {elapsed:.1f}s (budget 10s)"

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

    def test_new_violation_fails_strict_gate(self, tmp_path):
        # A fresh SIM201 violation (module counter mutated from a
        # scheduled handler) must exit non-zero.
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
        proc = run_lint(str(tmp_path), "--strict", "--select", "SIM201")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "SIM201" in proc.stdout


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
        listed = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
        assert listed == {r.rule_id for r in all_rules()}

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
