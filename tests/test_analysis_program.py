"""Whole-program analyzer tests: callgraph, reachability, SIM2xx rules.

Each SIM2xx rule gets a fixture trio — a positive case (fires), a
negative case (stays silent), and a suppressed case — exercised through
:func:`repro.analysis.lint_sources`, the same multi-file entry point the
CLI uses. A fixture tree here is just a tiny program: paths are given
under ``repro/`` so the parallel-safety rules are in scope.
"""

from __future__ import annotations

from fnmatch import fnmatch
from pathlib import Path

from repro.analysis import (
    build_program_context,
    findings_to_sarif,
    lint_source,
    lint_sources,
)
from repro.analysis.astlint import _make_context, iter_python_files
from repro.analysis.reachability import DEFAULT_ENTRY_PATTERNS
from repro.analysis.rules import all_rules
from repro.analysis.symbols import ProgramIndex

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def rules_for(*ids: str):
    picked = [r for r in all_rules() if r.rule_id in ids]
    assert len(picked) == len(ids), f"unknown rule id among {ids}"
    return picked


def run_program(sources: dict[str, str], *rule_ids: str):
    """Lint a {path: source} fixture tree with the selected rules."""
    findings, program = lint_sources(
        [(src, path) for path, src in sources.items()],
        rules_for(*rule_ids) if rule_ids else None,
    )
    return findings, program


def build_program(sources: dict[str, str]):
    contexts = [_make_context(src, path) for path, src in sources.items()]
    return build_program_context(contexts)


# ---------------------------------------------------------------------------
# Call graph resolution
# ---------------------------------------------------------------------------
class TestCallGraph:
    def test_self_method_call_resolves_precisely(self):
        prog = build_program(
            {
                "repro/a.py": (
                    "class K:\n"
                    "    def top(self):\n"
                    "        self.helper()\n"
                    "    def helper(self):\n"
                    "        pass\n"
                )
            }
        )
        assert "repro.a:K.helper" in prog.graph.successors("repro.a:K.top")

    def test_same_module_function_call(self):
        prog = build_program(
            {"repro/a.py": "def f():\n    g()\ndef g():\n    pass\n"}
        )
        assert "repro.a:g" in prog.graph.successors("repro.a:f")

    def test_constructor_resolves_to_init(self):
        prog = build_program(
            {
                "repro/a.py": (
                    "class Widget:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "def make():\n"
                    "    return Widget()\n"
                )
            }
        )
        assert "repro.a:Widget.__init__" in prog.graph.successors("repro.a:make")

    def test_annotated_receiver_resolves_method(self):
        prog = build_program(
            {
                "repro/a.py": (
                    "class Engine:\n"
                    "    def step(self):\n"
                    "        pass\n"
                    "def drive(e: Engine):\n"
                    "    e.step()\n"
                )
            }
        )
        assert "repro.a:Engine.step" in prog.graph.successors("repro.a:drive")

    def test_cross_module_import_resolves(self):
        prog = build_program(
            {
                "repro/a.py": "def helper():\n    pass\n",
                "repro/b.py": (
                    "from repro.a import helper\n"
                    "def caller():\n    helper()\n"
                ),
            }
        )
        assert "repro.a:helper" in prog.graph.successors("repro.b:caller")

    def test_dunder_names_excluded_from_by_name_fallback(self):
        # ``x.__init__()`` on an unknown receiver must NOT fan out to every
        # constructor in the program (the super().__init__ explosion).
        prog = build_program(
            {
                "repro/a.py": (
                    "class Other:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "def f(x):\n"
                    "    x.__init__()\n"
                )
            }
        )
        assert "repro.a:Other.__init__" not in prog.graph.successors("repro.a:f")


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------
class TestReachability:
    def test_every_default_entry_pattern_names_a_function_in_src(self):
        # A pattern that matches nothing is a dead root: the SIM2xx rules
        # silently stop seeing whatever only it made reachable.
        files = iter_python_files([str(SRC_REPRO)])
        index = ProgramIndex([_make_context(Path(f).read_text(), f) for f in files])
        dead = [
            pattern
            for pattern in DEFAULT_ENTRY_PATTERNS
            if not any(fnmatch(qual, pattern) for qual in index.functions)
        ]
        assert dead == []

    def test_entry_pattern_seeds_engine_loop(self):
        prog = build_program(
            {
                "repro/k.py": (
                    "class ShardEngine:\n"
                    "    def run(self):\n"
                    "        self.dispatch()\n"
                    "    def dispatch(self):\n"
                    "        pass\n"
                    "def offline_report():\n"
                    "    pass\n"
                )
            }
        )
        assert "repro.k:ShardEngine.run" in prog.seeds
        assert "repro.k:ShardEngine.dispatch" in prog.reachable
        assert "repro.k:offline_report" not in prog.reachable

    def test_scheduled_handler_is_seeded(self):
        prog = build_program(
            {
                "repro/k.py": (
                    "class App:\n"
                    "    def boot(self, sched):\n"
                    "        sched.schedule_at(1.0, self.on_tick)\n"
                    "    def on_tick(self):\n"
                    "        self.work()\n"
                    "    def work(self):\n"
                    "        pass\n"
                )
            }
        )
        assert "repro.k:App.on_tick" in prog.seeds
        assert "repro.k:App.work" in prog.reachable

    def test_partial_wrapped_handler_is_seeded(self):
        prog = build_program(
            {
                "repro/k.py": (
                    "from functools import partial\n"
                    "class App:\n"
                    "    def boot(self, sched):\n"
                    "        sched.schedule(1.0, partial(self.on_done, 3))\n"
                    "    def on_done(self, k, t):\n"
                    "        pass\n"
                )
            }
        )
        assert "repro.k:App.on_done" in prog.seeds

    def test_on_star_kwarg_seeds_on_any_call(self):
        prog = build_program(
            {
                "repro/k.py": (
                    "class App:\n"
                    "    def boot(self, sock):\n"
                    "        sock.send(100, on_received=self.got)\n"
                    "    def got(self, t):\n"
                    "        pass\n"
                )
            }
        )
        assert "repro.k:App.got" in prog.seeds

    def test_fn_kwarg_only_seeds_on_registrar_calls(self):
        # argparse's set_defaults(fn=cmd) must not make every CLI command
        # LP-reachable.
        prog = build_program(
            {
                "repro/k.py": (
                    "def cmd_plot(args):\n"
                    "    pass\n"
                    "def wire(sub):\n"
                    "    sub.set_defaults(fn=cmd_plot)\n"
                )
            }
        )
        assert "repro.k:cmd_plot" not in prog.seeds

    def test_chain_reports_auditable_path(self):
        prog = build_program(
            {
                "repro/k.py": (
                    "class ShardEngine:\n"
                    "    def run(self):\n"
                    "        self.a()\n"
                    "    def a(self):\n"
                    "        self.b()\n"
                    "    def b(self):\n"
                    "        pass\n"
                )
            }
        )
        chain = prog.chain("repro.k:ShardEngine.b")
        assert chain == "ShardEngine.b <- ShardEngine.a <- ShardEngine.run"

    def test_stats_are_populated(self):
        prog = build_program({"repro/k.py": "def f():\n    pass\n"})
        for key in ("modules", "functions", "call_edges", "seeds", "reachable"):
            assert key in prog.stats


# ---------------------------------------------------------------------------
# SIM201 — shared mutable state on the LP path
# ---------------------------------------------------------------------------
SIM201_POSITIVE = (
    "import itertools\n"
    "_seq = itertools.count()\n"
    "class ShardEngine:\n"
    "    def run(self):\n"
    "        return next(_seq)\n"
)


class TestSim201:
    def test_module_counter_mutated_on_lp_path(self):
        findings, _ = run_program({"repro/k.py": SIM201_POSITIVE}, "SIM201")
        assert [f.rule_id for f in findings] == ["SIM201"]
        assert "ShardEngine.run" in findings[0].message

    def test_dict_store_on_lp_path(self):
        src = (
            "_cache = {}\n"
            "class ShardEngine:\n"
            "    def run(self, k):\n"
            "        _cache[k] = 1\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM201")
        assert [f.rule_id for f in findings] == ["SIM201"]

    def test_unreachable_writer_is_silent(self):
        src = (
            "import itertools\n"
            "_seq = itertools.count()\n"
            "def offline_tool():\n"
            "    return next(_seq)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM201")
        assert findings == []

    def test_class_level_mutable_attr_mutated_from_handler(self):
        src = (
            "class Table:\n"
            "    _shared = {}\n"
            "    def boot(self, sched):\n"
            "        sched.schedule(1.0, self.on_event)\n"
            "    def on_event(self):\n"
            "        self._shared['k'] = 1\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM201")
        assert [f.rule_id for f in findings] == ["SIM201"]

    def test_instance_attr_shadowing_is_silent(self):
        src = (
            "class Table:\n"
            "    def __init__(self):\n"
            "        self._mine = {}\n"
            "    def boot(self, sched):\n"
            "        sched.schedule(1.0, self.on_event)\n"
            "    def on_event(self):\n"
            "        self._mine['k'] = 1\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM201")
        assert findings == []

    def test_suppression_comment_silences(self):
        src = SIM201_POSITIVE.replace(
            "return next(_seq)", "return next(_seq)  # simlint: disable=SIM201"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM201")
        assert findings == []


# ---------------------------------------------------------------------------
# SIM202 — unordered iteration feeding the simulation
# ---------------------------------------------------------------------------
class TestSim202:
    def test_dict_iteration_scheduling_fires(self):
        src = (
            "class ShardEngine:\n"
            "    def __init__(self):\n"
            "        self.peers = {}\n"
            "    def run(self, sched):\n"
            "        for p in self.peers:\n"
            "            sched.schedule(1.0, p)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM202")
        assert [f.rule_id for f in findings] == ["SIM202"]

    def test_sorted_iteration_is_silent(self):
        src = (
            "class ShardEngine:\n"
            "    def __init__(self):\n"
            "        self.peers = {}\n"
            "    def run(self, sched):\n"
            "        for p in sorted(self.peers):\n"
            "            sched.schedule(1.0, p)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM202")
        assert findings == []

    def test_set_iteration_with_mutation_fires(self):
        src = (
            "class ShardEngine:\n"
            "    def __init__(self):\n"
            "        self.live = set()\n"
            "        self.order = []\n"
            "    def run(self):\n"
            "        for s in self.live:\n"
            "            self.order.append(s)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM202")
        assert [f.rule_id for f in findings] == ["SIM202"]

    def test_pure_read_loop_is_silent(self):
        src = (
            "class ShardEngine:\n"
            "    def __init__(self):\n"
            "        self.peers = {}\n"
            "    def run(self):\n"
            "        total = 0\n"
            "        for p in self.peers:\n"
            "            total += p\n"
            "        return total\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM202")
        assert findings == []

    def test_unreachable_loop_is_silent(self):
        src = (
            "def offline(peers, sched):\n"
            "    for p in peers.items():\n"
            "        sched.schedule(1.0, p)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM202")
        assert findings == []

    def test_suppression_comment_silences(self):
        src = (
            "class ShardEngine:\n"
            "    def __init__(self):\n"
            "        self.peers = {}\n"
            "    def run(self, sched):\n"
            "        for p in self.peers:  # simlint: disable=SIM202\n"
            "            sched.schedule(1.0, p)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM202")
        assert findings == []


# ---------------------------------------------------------------------------
# SIM203 — statically unpicklable scheduled payloads
# ---------------------------------------------------------------------------
class TestSim203:
    def test_lambda_payload_fires(self):
        src = (
            "class ShardEngine:\n"
            "    def run(self, sched):\n"
            "        sched.schedule_at(1.0, lambda: None)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert [f.rule_id for f in findings] == ["SIM203"]
        assert "lambda" in findings[0].message

    def test_nested_function_payload_fires(self):
        src = (
            "class ShardEngine:\n"
            "    def run(self, sched):\n"
            "        def cb():\n"
            "            pass\n"
            "        sched.schedule(1.0, cb)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert [f.rule_id for f in findings] == ["SIM203"]

    def test_bound_method_with_args_is_silent(self):
        src = (
            "class ShardEngine:\n"
            "    def run(self, sched):\n"
            "        sched.schedule_at(1.0, self.on_tick, args=(3,))\n"
            "    def on_tick(self, k):\n"
            "        pass\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert findings == []

    def test_partial_of_bound_method_is_silent(self):
        src = (
            "from functools import partial\n"
            "class ShardEngine:\n"
            "    def run(self, sched):\n"
            "        sched.schedule(1.0, partial(self.on_tick, 3))\n"
            "    def on_tick(self, k):\n"
            "        pass\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert findings == []

    def test_unreachable_schedule_is_silent(self):
        src = (
            "def offline(sched):\n"
            "    sched.schedule(1.0, lambda: None)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert findings == []

    def test_suppression_comment_silences(self):
        src = (
            "class ShardEngine:\n"
            "    def run(self, sched):\n"
            "        sched.schedule_at(1.0, lambda: None)  # simlint: disable=SIM203\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert findings == []


# ---------------------------------------------------------------------------
# SIM204 — RNG stream aliasing
# ---------------------------------------------------------------------------
class TestSim204:
    def test_same_seed_at_two_sites_fires_at_both(self):
        sources = {
            "repro/a.py": (
                "import numpy as np\n"
                "def make_a():\n"
                "    return np.random.default_rng(42)\n"
            ),
            "repro/b.py": (
                "import numpy as np\n"
                "def make_b():\n"
                "    return np.random.default_rng(42)\n"
            ),
        }
        findings, _ = run_program(sources, "SIM204")
        assert sorted(f.path for f in findings) == ["repro/a.py", "repro/b.py"]
        assert all(f.rule_id == "SIM204" for f in findings)
        # Messages cite the other site by path only, not by line.
        assert "repro/b.py" in findings[0].message
        assert ":" + str(findings[1].line) not in findings[0].message

    def test_distinct_seeds_are_silent(self):
        sources = {
            "repro/a.py": (
                "import numpy as np\n"
                "def make_a():\n"
                "    return np.random.default_rng(1)\n"
            ),
            "repro/b.py": (
                "import numpy as np\n"
                "def make_b():\n"
                "    return np.random.default_rng(2)\n"
            ),
        }
        findings, _ = run_program(sources, "SIM204")
        assert findings == []

    def test_derived_seed_expressions_alias(self):
        # Same derivation from structurally-equivalent parts at two sites.
        body = (
            "import numpy as np\n"
            "class {name}:\n"
            "    def __init__(self, link):\n"
            "        self.rng = np.random.default_rng(0x9E37 ^ link.link_id)\n"
        )
        sources = {
            "repro/a.py": body.format(name="A"),
            "repro/b.py": body.format(name="B"),
        }
        findings, _ = run_program(sources, "SIM204")
        assert len(findings) == 2


# ---------------------------------------------------------------------------
# Single-file mode: SIM2xx stay silent without a program
# ---------------------------------------------------------------------------
def test_sim2xx_rules_need_whole_program_context():
    findings = lint_source(SIM201_POSITIVE, "repro/k.py", rules_for("SIM201"))
    assert findings == []


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------
def test_sarif_document_shape():
    findings, _ = run_program({"repro/k.py": SIM201_POSITIVE}, "SIM201")
    doc = findings_to_sarif(findings, all_rules())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "SIM201" in rule_ids
    result = run["results"][0]
    assert result["ruleId"] == "SIM201"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "repro/k.py"
    assert loc["region"]["startLine"] == findings[0].line


# ---------------------------------------------------------------------------
# Suppression forms
# ---------------------------------------------------------------------------
class TestSuppressionForms:
    def test_disable_next_line(self):
        src = (
            "class ShardEngine:\n"
            "    def run(self, sched):\n"
            "        # simlint: disable-next-line=SIM203\n"
            "        sched.schedule_at(1.0, lambda: None)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert findings == []

    def test_disable_next_line_wrong_rule_does_not_silence(self):
        src = (
            "class ShardEngine:\n"
            "    def run(self, sched):\n"
            "        # simlint: disable-next-line=SIM201\n"
            "        sched.schedule_at(1.0, lambda: None)\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert [f.rule_id for f in findings] == ["SIM203"]

    def test_disable_on_parenthesized_continuation(self):
        # The suppression comment sits on a continuation line of the same
        # logical statement; the finding anchors on the first line.
        src = (
            "class ShardEngine:\n"
            "    def run(self, sched):\n"
            "        sched.schedule_at(\n"
            "            1.0,\n"
            "            lambda: None,  # simlint: disable=SIM203\n"
            "        )\n"
        )
        findings, _ = run_program({"repro/k.py": src}, "SIM203")
        assert findings == []
