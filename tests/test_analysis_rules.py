"""Per-rule tests for the simlint AST rules.

Every rule gets one known-bad fixture asserting the *exact* rule id
fires, one clean fixture, and suppression coverage. Fixture paths are
synthetic but placed inside the rule's scope (e.g. ``repro/engine/``).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import Severity, all_rules, get_rule, lint_source


def ids(findings):
    return [f.rule_id for f in findings]


def lint(src: str, path: str = "src/repro/engine/snippet.py"):
    return lint_source(textwrap.dedent(src), path)


class TestRuleRegistry:
    def test_all_code_rules_registered(self):
        registered = {r.rule_id for r in all_rules()}
        assert {
            "SIM101", "SIM102", "SIM103", "SIM104", "SIM105", "SIM106",
            "SIM107", "SIM108"
        } <= registered

    def test_get_rule_unknown_id(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("SIM999")

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

    def test_out_of_scope_path_clean(self):
        findings = lint_source(
            "import random\nx = random.random()\n",
            "src/repro/experiments/report_helpers.py",
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


class TestFloatEqTime:
    def test_timestamp_equality_fires(self):
        findings = lint(
            """
            def same(ev, other):
                return ev.time == other.arrival_time
            """
        )
        assert ids(findings) == ["SIM103"]
        assert findings[0].severity is Severity.WARNING

    def test_not_eq_fires(self):
        findings = lint(
            """
            def differs(a, deadline):
                return a.now != deadline
            """
        )
        assert ids(findings) == ["SIM103"]

    def test_plain_float_compare_clean(self):
        findings = lint(
            """
            def check(a, b):
                return a.count == b.count and a.time <= b.time
            """
        )
        assert findings == []

    def test_string_comparison_clean(self):
        findings = lint(
            """
            def kind_is_time(kind):
                return kind == "time"
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

    def test_out_of_scope_clean(self):
        findings = lint_source(
            "def arm(sim, fn):\n    sim.sched.schedule(0.1, fn)\n",
            "src/repro/experiments/driver.py",
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
        assert ids(findings) == ["SIM106"]
        assert findings[0].severity is Severity.ERROR
        assert "repro.obs" in findings[0].message

    def test_perf_counter_ns_fires(self):
        findings = lint(
            """
            import time

            def measure():
                return time.perf_counter_ns()
            """,
            path="src/repro/cluster/calibrate_helper.py",
        )
        assert ids(findings) == ["SIM106"]

    def test_from_import_alias_fires(self):
        findings = lint(
            """
            from time import perf_counter

            def measure():
                return perf_counter()
            """,
            path="src/repro/metrics/bench.py",
        )
        assert ids(findings) == ["SIM106"]

    def test_engine_path_fires_both_wall_clock_rules(self):
        # In engine/ code a raw perf_counter violates both the simulated-time
        # rule (SIM102) and the obs boundary (SIM106).
        findings = lint(
            """
            import time

            def handler():
                return time.perf_counter()
            """
        )
        assert sorted(ids(findings)) == ["SIM102", "SIM106"]

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

            t = time.perf_counter()  # simlint: disable=SIM106
            """,
            path="src/repro/experiments/timing.py",
        )
        assert findings == []


class TestSilentExcept:
    def test_bare_except_fires(self):
        findings = lint(
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """
        )
        assert ids(findings) == ["SIM107"]
        assert findings[0].severity is Severity.ERROR
        assert "bare `except:`" in findings[0].message

    def test_silent_broad_exception_fires(self):
        findings = lint(
            """
            def tick(handlers):
                for h in handlers:
                    try:
                        h()
                    except Exception:
                        pass
            """
        )
        assert ids(findings) == ["SIM107"]
        assert "empty body" in findings[0].message

    def test_silent_base_exception_in_tuple_fires(self):
        findings = lint(
            """
            def tick(h):
                try:
                    h()
                except (ValueError, BaseException):
                    ...
            """
        )
        assert ids(findings) == ["SIM107"]

    def test_narrow_silent_handler_clean(self):
        # Swallowing a *specific* exception is a deliberate, reviewable
        # decision; the rule targets catch-everything sinks.
        findings = lint(
            """
            def cleanup(path):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            """
        )
        assert findings == []

    def test_broad_handler_with_real_body_clean(self):
        findings = lint(
            """
            def guard(fn, log):
                try:
                    fn()
                except Exception as exc:
                    log.error(exc)
            """
        )
        assert findings == []

    def test_outside_repro_clean(self):
        findings = lint_source(
            "try:\n    x = 1\nexcept:\n    pass\n",
            "scripts/helper.py",
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            def probe(fn):
                try:
                    fn()
                except Exception:  # simlint: disable=SIM107
                    pass
            """
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


class TestWorkerRegistryMutation:
    """SIM108: worker-side code must not mutate the global registry."""

    MP_PATH = "src/repro/engine/parallel/worker.py"

    def test_chained_reset_fires(self):
        findings = lint(
            """
            from repro.obs.registry import get_registry

            def worker_main(config):
                get_registry().reset()
            """,
            path=self.MP_PATH,
        )
        assert ids(findings) == ["SIM108"]
        assert "configure_worker_observability" in findings[0].message

    def test_mutation_via_local_handle_fires(self):
        findings = lint(
            """
            from repro.obs.registry import get_registry

            def worker_main(config):
                reg = get_registry()
                reg.clear()
                reg.enabled = True
            """,
            path=self.MP_PATH,
        )
        assert ids(findings) == ["SIM108", "SIM108"]

    def test_merge_into_global_registry_fires(self):
        # Folding another registry into a worker's own would ship it
        # twice: the controller merges every worker's registry itself.
        findings = lint(
            """
            from repro.obs.registry import get_registry

            def worker_main(shipped):
                get_registry().merge_from(shipped)
            """,
            path=self.MP_PATH,
        )
        assert ids(findings) == ["SIM108"]

    def test_tracer_mutation_fires(self):
        findings = lint(
            """
            from repro.obs.trace import get_tracer

            def worker_main(config):
                get_tracer().enable()
            """,
            path=self.MP_PATH,
        )
        assert ids(findings) == ["SIM108"]

    def test_configure_layer_is_clean(self):
        findings = lint(
            """
            from repro.obs.distributed import configure_worker_observability

            def worker_main(config):
                configure_worker_observability(config.get("obs"))
            """,
            path=self.MP_PATH,
        )
        assert ids(findings) == []

    def test_out_of_scope_module_is_exempt(self):
        # Controller-side experiment code legitimately toggles the global
        # registry (reference-run shielding); the rule is worker-scoped.
        findings = lint(
            """
            from repro.obs.registry import get_registry

            def shield():
                reg = get_registry()
                reg.enabled = False
            """,
            path="src/repro/experiments/parallel.py",
        )
        assert ids(findings) == []

    def test_private_registry_is_clean(self):
        findings = lint(
            """
            from repro.obs.registry import Registry

            def fresh():
                reg = Registry()
                reg.reset()
                return reg
            """,
            path=self.MP_PATH,
        )
        assert ids(findings) == []

    def test_suppression_comment_honored(self):
        findings = lint(
            """
            from repro.obs.registry import get_registry

            def worker_main(config):
                get_registry().reset()  # simlint: disable=SIM108
            """,
            path=self.MP_PATH,
        )
        assert ids(findings) == []

    def test_repo_worker_paths_have_no_findings(self):
        # The shipped worker modules must themselves satisfy the rule —
        # zero findings, so the committed baseline stays unchanged.
        from pathlib import Path

        from repro.analysis import lint_source

        from repro.analysis.rules import get_rule

        sim108 = get_rule("SIM108")
        package = sorted(Path("src/repro/engine/parallel").glob("*.py"))
        assert {p.name for p in package} >= {
            "shard.py", "worker.py", "transport.py", "coordinator.py"
        }
        for path in [*package, Path("src/repro/experiments/shard.py")]:
            rel = path.as_posix()
            # The rule is path-scoped: every module of the package must
            # still fall inside its scope fragments after the split.
            assert sim108.applies_to(rel), rel
            found = [
                f for f in lint_source(path.read_text(), rel) if f.rule_id == "SIM108"
            ]
            assert not found, [f.message for f in found]
