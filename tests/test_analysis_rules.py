"""Per-rule tests for the simlint AST rules.

Every rule gets one known-bad fixture asserting the *exact* rule id
fires, one clean fixture, and suppression coverage. Fixture paths are
synthetic but placed inside the rule's scope (e.g. ``repro/engine/``).
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Severity, all_rules, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def ids(findings):
    return [f.rule_id for f in findings]


def lint(src: str, path: str = "src/repro/engine/snippet.py"):
    return lint_source(textwrap.dedent(src), path)


class TestRuleRegistry:
    def test_all_code_rules_registered(self):
        registered = {r.rule_id for r in all_rules()}
        assert registered == {
            "SIM101", "SIM102", "SIM104", "SIM105",
            "SIM201", "SIM202", "SIM203", "SIM204",
        }

    def test_docs_list_exactly_the_registered_rules(self):
        # The rule tables of docs/static_analysis.md (first cell of each
        # row) and the README's lint section name every registered rule
        # and no other, so a deleted rule cannot linger in the docs and a
        # new one cannot go undocumented.
        registered = {r.rule_id for r in all_rules()}
        doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
        in_tables = set(re.findall(r"^\| `(SIM\d{3})`", doc, re.MULTILINE))
        readme = (REPO_ROOT / "README.md").read_text()
        lint_section = readme.split("## Linting", 1)[1].split("\n## ", 1)[0]
        in_readme = set(re.findall(r"SIM\d{3}", lint_section))
        assert in_tables == registered
        assert in_readme == registered

    def test_rules_carry_descriptions(self):
        for r in all_rules():
            assert r.description, f"{r.rule_id} has no description"


class TestUnseededRandom:
    def test_stdlib_global_rng_fires(self):
        findings = lint(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert ids(findings) == ["SIM101"]
        assert findings[0].severity is Severity.ERROR
        assert "random.random" in findings[0].message

    def test_numpy_legacy_global_fires(self):
        findings = lint(
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """
        )
        assert ids(findings) == ["SIM101"]

    def test_unseeded_default_rng_fires(self):
        findings = lint(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """
        )
        assert ids(findings) == ["SIM101"]
        assert "without a seed" in findings[0].message

    def test_from_import_alias_resolved(self):
        findings = lint(
            """
            from numpy.random import default_rng

            def make():
                return default_rng()
            """
        )
        assert ids(findings) == ["SIM101"]

    def test_seeded_default_rng_clean(self):
        findings = lint(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []

    def test_generator_draws_clean(self):
        findings = lint(
            """
            import numpy as np

            def draw(rng: np.random.Generator):
                return rng.random()
            """
        )
        assert findings == []

    def test_netsim_unseeded_default_rng_fires(self):
        # The RED and HTTP client streams live in netsim/, and the rule
        # covers the whole package.
        findings = lint(
            """
            import numpy as np

            class Client:
                def __init__(self):
                    self.rng = np.random.default_rng()
            """,
            path="src/repro/netsim/app/client.py",
        )
        assert ids(findings) == ["SIM101"]

    def test_out_of_scope_path_clean(self):
        findings = lint_source(
            "import random\nx = random.random()\n",
            "scripts/report_helpers.py",
        )
        assert findings == []


class TestWallClock:
    def test_time_time_fires(self):
        findings = lint(
            """
            import time

            def handler():
                return time.time()
            """
        )
        assert ids(findings) == ["SIM102"]
        assert "sim.now" in findings[0].message

    def test_datetime_now_fires(self):
        findings = lint(
            """
            from datetime import datetime

            def handler():
                return datetime.now()
            """,
            path="src/repro/netsim/handler.py",
        )
        assert ids(findings) == ["SIM102"]

    def test_sim_now_clean(self):
        findings = lint(
            """
            def handler(sim):
                return sim.now
            """
        )
        assert findings == []


class TestMutableDefault:
    def test_list_literal_fires(self):
        findings = lint(
            """
            def collect(items=[]):
                return items
            """
        )
        assert ids(findings) == ["SIM104"]
        assert "collect" in findings[0].message

    def test_dict_constructor_fires(self):
        findings = lint(
            """
            def configure(*, opts=dict()):
                return opts
            """
        )
        assert ids(findings) == ["SIM104"]

    def test_none_default_clean(self):
        findings = lint(
            """
            def collect(items=None):
                return items or []
            """
        )
        assert findings == []


class TestScheduleNode:
    def test_missing_node_fires(self):
        findings = lint(
            """
            def arm(sim, fn):
                sim.sched.schedule(0.1, fn)
            """
        )
        assert ids(findings) == ["SIM105"]

    def test_schedule_at_missing_node_fires(self):
        findings = lint(
            """
            def arm(sim, fn):
                sim.sched.schedule_at(2.0, fn)
            """,
            path="src/repro/online/helper.py",
        )
        assert ids(findings) == ["SIM105"]

    def test_keyword_node_clean(self):
        findings = lint(
            """
            def arm(sim, fn):
                sim.sched.schedule(0.1, fn, node=4)
            """
        )
        assert findings == []

    def test_positional_node_clean(self):
        findings = lint(
            """
            def arm(sim, fn):
                sim.sched.schedule(0.1, fn, 4)
            """
        )
        assert findings == []

    def test_faults_schedule_missing_node_fires(self):
        # The fault injector schedules events too, and the rule covers
        # the whole package.
        findings = lint(
            """
            def arm(kernel, at, fn):
                kernel.schedule_at(at, fn)
            """,
            path="src/repro/faults/injector.py",
        )
        assert ids(findings) == ["SIM105"]

    def test_out_of_scope_clean(self):
        findings = lint_source(
            "def arm(sim, fn):\n    sim.sched.schedule(0.1, fn)\n",
            "scripts/driver.py",
        )
        assert findings == []


class TestRawPerfCounter:
    def test_perf_counter_outside_obs_fires(self):
        findings = lint(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            path="src/repro/experiments/timing.py",
        )
        assert ids(findings) == ["SIM102"]
        assert findings[0].severity is Severity.ERROR
        assert "repro.obs" in findings[0].message

    def test_the_stopwatch_is_the_one_sanctioned_reader(self):
        findings = lint(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            path="src/repro/experiments/timing.py",
        )
        assert "`repro.obs.timers.Stopwatch`" in findings[0].message
        (rule,) = [r for r in all_rules() if r.rule_id == "SIM102"]
        assert "`repro.obs.timers.Stopwatch`" in rule.check.__doc__
        assert "SpanTimer" not in rule.check.__doc__ + findings[0].message

    def test_perf_counter_ns_fires(self):
        findings = lint(
            """
            import time

            def measure():
                return time.perf_counter_ns()
            """,
            path="src/repro/cluster/calibrate_helper.py",
        )
        assert ids(findings) == ["SIM102"]

    def test_from_import_alias_fires(self):
        findings = lint(
            """
            from time import perf_counter

            def measure():
                return perf_counter()
            """,
            path="src/repro/metrics/bench.py",
        )
        assert ids(findings) == ["SIM102"]

    def test_engine_path_fires_once(self):
        # One rule covers every wall-clock read: a raw perf_counter in
        # engine/ code is one finding, not one per rule.
        findings = lint(
            """
            import time

            def handler():
                return time.perf_counter()
            """
        )
        assert ids(findings) == ["SIM102"]

    def test_obs_package_is_sanctioned(self):
        findings = lint(
            """
            import time

            def read():
                return time.perf_counter()
            """,
            path="src/repro/obs/timers.py",
        )
        assert findings == []

    def test_outside_repro_clean(self):
        findings = lint_source(
            "import time\nt = time.perf_counter()\n",
            "scripts/bench.py",
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            import time

            t = time.perf_counter()  # simlint: disable=SIM102
            """,
            path="src/repro/experiments/timing.py",
        )
        assert findings == []


class TestSuppression:
    def test_inline_disable(self):
        findings = lint(
            """
            import random

            x = random.random()  # simlint: disable=SIM101
            """
        )
        assert findings == []

    def test_inline_disable_with_reason(self):
        findings = lint(
            """
            import random

            x = random.random()  # simlint: disable=SIM101 -- order is unused
            """
        )
        assert findings == []

    def test_inline_disable_all(self):
        findings = lint(
            """
            import time

            t = time.time()  # simlint: disable=all
            """
        )
        assert findings == []

    def test_inline_disable_wrong_id_still_fires(self):
        findings = lint(
            """
            import random

            x = random.random()  # simlint: disable=SIM102
            """
        )
        assert ids(findings) == ["SIM101"]

    def test_file_level_disable(self):
        findings = lint(
            """
            # simlint: disable-file=SIM101
            import random

            x = random.random()
            y = random.choice([1, 2])
            """
        )
        assert findings == []


class TestDriver:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "src/repro/engine/bad.py")
        assert ids(findings) == ["SIM000"]
        assert findings[0].severity is Severity.ERROR

    def test_multiple_rules_in_one_module(self):
        findings = lint(
            """
            import random
            import time

            def handler(items=[]):
                random.shuffle(items)
                return time.time()
            """
        )
        assert sorted(ids(findings)) == ["SIM101", "SIM102", "SIM104"]
