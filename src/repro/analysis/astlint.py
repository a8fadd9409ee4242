"""AST lint driver: parse sources, build contexts, run every rule.

The driver is deliberately simple — one parse per file, one pass per
rule — because the rule set is small and the repository is ~150 files;
there is no need for a shared-visitor optimization at this scale.

Multi-file entry points (:func:`lint_sources`, :func:`lint_paths_program`) run
the **whole-program pass** first: a symbol table, a conservative call
graph, and LP-execution reachability are built over every parsed module
and attached to each :class:`ModuleContext` as ``ctx.program``, which
arms the SIM2xx parallel-safety rules. The single-file entry point
(:func:`lint_source`) has no program to analyze, so those rules stay
silent there by design.

Importing this module loads the built-in rule modules so that
:func:`repro.analysis.rules.all_rules` is fully populated.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable

from .findings import Finding, Severity
from .rules import LintRule, ModuleContext, all_rules

# Rule modules register themselves on import.
from . import rules_determinism as _rules_determinism  # noqa: F401
from . import rules_parallel as _rules_parallel  # noqa: F401
from . import rules_simulation as _rules_simulation  # noqa: F401

__all__ = [
    "lint_source",
    "lint_sources",
    "lint_paths_program",
    "iter_python_files",
]


def _collect_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """Map import aliases and from-imports to fully-qualified names."""
    module_aliases: dict[str, str] = {}
    from_imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module_aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    module_aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return module_aliases, from_imports


def _make_context(source: str, path: str) -> ModuleContext:
    tree = ast.parse(source, filename=path)
    module_aliases, from_imports = _collect_imports(tree)
    return ModuleContext(
        path=path,
        rel_path=path.replace(os.sep, "/"),
        tree=tree,
        lines=source.splitlines(),
        module_aliases=module_aliases,
        from_imports=from_imports,
    )


def _syntax_error_finding(exc: SyntaxError, path: str) -> Finding:
    return Finding(
        rule_id="SIM000",
        severity=Severity.ERROR,
        path=path,
        line=exc.lineno or 0,
        col=exc.offset or 0,
        message=f"syntax error: {exc.msg}",
    )


def lint_source(
    source: str, path: str, rules: Iterable[LintRule] | None = None
) -> list[Finding]:
    """Lint one in-memory module; ``path`` drives rule scoping.

    A syntax error is reported as a ``SIM000`` error finding rather than
    raised, so one broken file cannot abort a whole-tree lint. No
    whole-program context is built — SIM2xx rules do not fire here.
    """
    try:
        ctx = _make_context(source, path)
    except SyntaxError as exc:
        return [_syntax_error_finding(exc, path)]
    findings: list[Finding] = []
    for r in rules if rules is not None else all_rules():
        findings.extend(r.run(ctx))
    return findings


def lint_sources(
    sources: list[tuple[str, str]], rules: Iterable[LintRule] | None = None
):
    """Lint a set of in-memory modules *as one program*.

    ``sources`` is a list of ``(source_text, path)`` pairs. Returns
    ``(findings, program)`` where ``program`` is the
    :class:`~repro.analysis.reachability.ProgramContext` built over every
    parseable module (None when nothing parsed). This is the entry point
    the SIM2xx fixture tests use: a fixture tree is just a small program.
    """
    from .reachability import build_program_context

    findings: list[Finding] = []
    contexts: list[ModuleContext] = []
    for source, path in sources:
        try:
            contexts.append(_make_context(source, path))
        except SyntaxError as exc:
            findings.append(_syntax_error_finding(exc, path))
    program = build_program_context(contexts) if contexts else None
    for ctx in contexts:
        ctx.program = program
    rule_list = list(rules) if rules is not None else all_rules()
    for ctx in contexts:
        for r in rule_list:
            findings.extend(r.run(ctx))
    return findings, program


def iter_python_files(paths: Iterable[str]) -> list[str]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                out.extend(
                    os.path.join(dirpath, f) for f in filenames if f.endswith(".py")
                )
        else:
            out.append(p)
    return sorted(set(out))


def lint_paths_program(
    paths: Iterable[str], rules: Iterable[LintRule] | None = None
):
    """Lint files/directories as one program.

    Returns ``(findings, program, files_scanned)`` — the CLI uses the
    extra values for the stats line and ``--obs-out`` instrumentation.
    """
    sources: list[tuple[str, str]] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            sources.append((fh.read(), path))
    findings, program = lint_sources(sources, rules)
    return findings, program, len(sources)

