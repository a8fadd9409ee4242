"""No module or public function under ``src/repro`` is reached by its own test alone.

Three delete-or-justify passes each found modules nothing but their unit
test imported. This guard makes the fourth unnecessary: every module
must have a name that another module of ``src/``, ``benchmarks/`` or
``examples/`` imports — directly, or through a package ``__init__`` that
re-exports it — or be named in the *Kept, and why* table of
docs/architecture.md. It is built on the import map
:class:`repro.analysis.symbols.ProgramIndex` computes (relative imports
resolved), extended with plain ``import a.b.c`` statements.

The same holds per public function and method, by name: its bare name
must appear in another module (as a name, an attribute, or the tail of a
``"module:name"`` builder string), or in its own module outside its own
body. A name test, not the call graph: properties, imports inside a
function and dispatch tables make a reachability walk list far more
false orphans than real ones.

Two smaller guards pin the cost model's rates to the one module that may
multiply by them, and the straggler pick to the one kernel that makes it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.astlint import iter_python_files, lint_sources
from repro.analysis.symbols import FunctionInfo, ProgramIndex

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: a module nothing imports, whose function nothing names, indexed beside
#: the real tree so the one whole-program build also proves both checkers
#: catch an orphan
ORPHAN = ("def helper():\n    return 1\n", "src/repro/netsim/orphan_fixture.py")


def _sources() -> list[tuple[str, str]]:
    paths = iter_python_files([str(SRC), str(ROOT / "benchmarks"), str(ROOT / "examples")])
    found = [(Path(p).read_text(), Path(p).relative_to(ROOT).as_posix()) for p in paths]
    return found + [ORPHAN]


def _reached_modules(index: ProgramIndex) -> tuple[set[str], set[str]]:
    """``(modules of src/repro, those some other module reaches)``."""

    def owner(qualified: str, seen: frozenset = frozenset()) -> str | None:
        """The module a fully qualified import finally lands in."""
        parts = qualified.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module not in index.modules:
                continue
            relayed = index.imports[module].get(parts[cut]) if cut < len(parts) else None
            if relayed is None or relayed in seen:
                return module
            return owner(relayed, seen | {qualified})  # a package re-export
        return None

    reached: set[str] = set()
    for module, ctx in index.modules.items():
        if ctx.rel_path.endswith("__init__.py"):
            continue  # a package __init__ relays names, it does not use them
        targets = set(index.imports[module].values())
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
        for target in targets:
            landed = owner(target)
            if landed is not None and landed != module:
                reached.add(landed)
    modules = {
        module
        for module, ctx in index.modules.items()
        if ctx.rel_path.startswith("src/repro/")
        and not ctx.rel_path.endswith(("__init__.py", "__main__.py"))
    }
    return modules, reached


#: a ``"package.module:function"`` string, as builders are named
_BUILDER = re.compile(r"[\w.]+:([\w.]+)")


def _names_used(tree: ast.AST) -> list[str]:
    """Every name a subtree uses: names, attributes (``getattr(x, "name")``
    included), builder-string tails."""
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.append(node.id)
        elif isinstance(node, ast.Attribute):
            used.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if m := _BUILDER.fullmatch(node.value):
                used.append(m.group(1).rpartition(".")[2])
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            used.append(node.args[1].value)
    return used


def _registered(info: FunctionInfo) -> bool:
    """Called through a registry, never by name: ``@rule(...)`` checkers
    and ``ast.NodeVisitor`` ``visit_*`` methods."""
    if info.cls and info.name.startswith("visit_"):
        return True
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "rule"
        for d in info.node.decorator_list
    )


def _unreached_functions(index: ProgramIndex) -> set[str]:
    """Public functions of src/repro whose name nothing outside their own
    body uses (``module:Qualname``)."""
    per_module = {
        module: Counter(_names_used(ctx.tree))
        for module, ctx in index.modules.items()
        if not ctx.rel_path.endswith("__init__.py")  # re-exports are not uses
    }
    elsewhere: Counter = Counter()
    for used in per_module.values():
        elsewhere.update(set(used))
    unreached = set()
    for qual, info in index.functions.items():
        name = info.name
        if (
            not info.ctx.rel_path.startswith("src/repro/")
            or info.ctx.rel_path.endswith("__init__.py")
            or name.startswith("_")
            or _registered(info)
        ):
            continue
        own = per_module[info.module]
        if elsewhere[name] - (name in own) > 0:
            continue  # another module uses the name
        if own[name] > Counter(_names_used(info.node))[name]:
            continue  # its own module uses it outside its body
        unreached.add(qual)
    return unreached


def _kept_table() -> tuple[set[str], set[str]]:
    """``(modules, functions)`` the ledger's *Kept, and why* table names,
    as ``repro.pkg.module`` and ``repro.pkg.module:Qualname``."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    section = text.split("### Kept, and why", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    modules, functions = set(), set()
    for row in rows:
        m = re.match(r"`src/(repro/[\w/]+)\.py(?:::([\w.]+))?`", row.split("|")[1].strip())
        if m:
            dotted = m.group(1).replace("/", ".")
            if m.group(2):
                functions.add(f"{dotted}:{m.group(2)}")
            else:
                modules.add(dotted)
    return modules, functions


@pytest.fixture(scope="module")
def index() -> ProgramIndex:
    """One whole-program build, shared by the module and function guards."""
    _, program = lint_sources(_sources(), rules=[])
    return program.index


@pytest.fixture(scope="module")
def reach(index) -> tuple[set[str], set[str]]:
    return _reached_modules(index)


def test_every_module_is_reached_by_more_than_its_own_test(reach):
    modules, reached = reach
    orphans = sorted(modules - reached - _kept_table()[0])
    assert orphans == ["repro.netsim.orphan_fixture"], (
        "beside the planted orphan_fixture, nothing under src/, benchmarks/ or "
        "examples/ imports these (delete them, or add a row to "
        f"docs/architecture.md 'Kept, and why'): {orphans}"
    )


def test_every_public_function_is_reached_outside_its_tests(index):
    orphans = sorted(_unreached_functions(index) - _kept_table()[1])
    assert orphans == ["repro.netsim.orphan_fixture:helper"], (
        "beside the planted orphan_fixture.helper, no other module of src/, "
        "benchmarks/ or examples/ names these (delete them with their tests, "
        "or add a `src/repro/<file>.py::Qualname` row to docs/architecture.md "
        f"'Kept, and why'): {orphans}"
    )


def test_checker_follows_a_package_reexport(reach):
    # examples/ import `required_slowdown` from the `repro.online` package,
    # which relays it from online/realtime.py.
    assert "repro.online.realtime" in reach[1]


def test_kept_table_names_existing_modules():
    kept = _kept_table()[0]
    assert kept, "docs/architecture.md lost its 'Kept, and why' table"
    missing = sorted(m for m in kept if not (ROOT / "src" / (m.replace(".", "/") + ".py")).exists())
    assert not missing, f"'Kept, and why' names modules that no longer exist: {missing}"


def test_kept_table_names_existing_functions(index):
    missing = sorted(_kept_table()[1] - set(index.functions))
    assert not missing, f"'Kept, and why' names functions that no longer exist: {missing}"


def test_cost_model_rates_are_read_in_one_place():
    """``remote_event_cost_s`` appears only where a ClusterSpec is defined
    or built, and in ``engine/costmodel.py`` — the one multiplication."""
    allowed = {
        "cluster/syncmodel.py": None,
        "engine/costmodel.py": None,
        "experiments/config.py": None,
        "experiments/runner.py": "cluster_for_scale",
        "experiments/parallel.py": "calibrated_cluster",
    }
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "remote_event_cost_s" not in text:
            continue
        rel = path.relative_to(SRC).as_posix()
        if rel not in allowed:
            stray.append(rel)
        elif allowed[rel] is not None:
            fn = next(
                n for n in ast.walk(ast.parse(text))
                if isinstance(n, ast.FunctionDef) and n.name == allowed[rel]
            )
            stray += [
                f"{rel}:{i}"
                for i, line in enumerate(text.splitlines(), 1)
                if "remote_event_cost_s" in line and not fn.lineno <= i <= fn.end_lineno
            ]
    assert not stray, f"cost-model rates read outside engine/costmodel.py: {stray}"


def _straggler_picks(tree: ast.AST) -> list[int]:
    """Lines taking an ``argmax``, or a ``max`` by ``key=``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "argmax")
        or (isinstance(node, ast.Name) and node.id == "argmax")
        or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "max" and any(k.arg == "key" for k in node.keywords)
        )
    ]


def test_one_kernel_picks_a_straggler():
    """Under ``obs``, ``partition`` and ``engine`` only ``engine/costmodel.py``
    (``window_blame``) picks a largest unit; blame, the Chrome export and the
    re-balancer call it. The partitioner modules below pick something else."""
    allowed = {
        "engine/costmodel.py",
        "partition/baselines.py",  # the heaviest unassigned vertex seeds a cluster
        "partition/geographic.py",  # the widest coordinate axis to cut
        "partition/refine.py",  # the best-gain FM move
    }
    stray = [
        f"{rel}:{line}"
        for package in ("obs", "partition", "engine")
        for path in sorted((SRC / package).rglob("*.py"))
        if (rel := path.relative_to(SRC).as_posix()) not in allowed
        for line in _straggler_picks(ast.parse(path.read_text()))
    ]
    assert not stray, f"a straggler picked outside engine/costmodel.py: {stray}"
