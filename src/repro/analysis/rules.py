"""Lint-rule framework: registry, decorator, scoping, and suppression.

A rule is a function from a :class:`ModuleContext` (parsed AST plus
source metadata) to ``(ast-node, message)`` pairs; the :func:`rule`
decorator attaches the id, severity, and directory *scope* and registers
it. Scoping confines the simulator-specific rules to the package
(``repro/``) — an unseeded RNG in a stand-alone plotting script is
fine; anywhere under ``repro/`` it silently breaks reproducibility.

Suppression follows the familiar inline-comment convention; a
suppression states its reason after ``--``::

    t = time.time()  # simlint: disable=SIM102 -- host time for a log header
    # simlint: disable-next-line=SIM101 -- throwaway order, no result reads it
    x = random.Random()
    # simlint: disable-file=SIM104   (anywhere in the file: whole file)

``disable=all`` suppresses every rule on that line. An inline
``disable=`` matches any physical line of the finding's *statement
header* (so the comment may sit on the closing parenthesis of a
multi-line call), and ``disable-next-line=`` placed above a decorator
covers the decorated definition.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .findings import Finding, Severity

__all__ = ["ModuleContext", "LintRule", "rule", "all_rules"]

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+|all)")
_SUPPRESS_NEXT_RE = re.compile(
    r"#\s*simlint:\s*disable-next-line=([A-Za-z0-9_,\s]+|all)"
)
_SUPPRESS_FILE_RE = re.compile(r"#\s*simlint:\s*disable-file=([A-Za-z0-9_,\s]+|all)")


@dataclass
class ModuleContext:
    """Everything a rule needs about one source module.

    ``rel_path`` is the path with forward slashes, used for scope
    matching; ``lines`` are the raw source lines (1-based access via
    :meth:`line`).
    """

    path: str
    rel_path: str
    tree: ast.Module
    lines: list[str]
    #: alias -> fully-qualified module name, from import statements
    #: (e.g. ``{"np": "numpy", "random": "random"}``)
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: bare name -> "module.name" for from-imports
    #: (e.g. ``{"choice": "random.choice"}``)
    from_imports: dict[str, str] = field(default_factory=dict)
    #: whole-program context (symbol table, call graph, LP reachability);
    #: ``None`` for single-file lints — the SIM2xx rules then stay silent
    program: "object | None" = None

    def line(self, lineno: int) -> str:
        """The 1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def dotted_name(self, node: ast.AST) -> str | None:
        """Resolve an attribute/name chain to a dotted string.

        Import aliases are expanded (``np.random.rand`` with
        ``import numpy as np`` resolves to ``numpy.random.rand``), and
        from-imports are expanded for bare names. Returns None for
        chains rooted at anything other than a plain name.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = cur.id
        base = self.module_aliases.get(root)
        if base is None:
            base = self.from_imports.get(root, root)
        parts.append(base)
        return ".".join(reversed(parts))

    def file_suppressions(self) -> set[str]:
        """Rule ids suppressed for the whole file via ``disable-file=``."""
        out: set[str] = set()
        for line in self.lines:
            m = _SUPPRESS_FILE_RE.search(line)
            if m:
                out.update(x.strip() for x in m.group(1).split(","))
        return out

    def line_suppressions(self, lineno: int) -> set[str]:
        """Rule ids suppressed on one line via an inline ``disable=``."""
        m = _SUPPRESS_RE.search(self.line(lineno))
        if not m:
            return set()
        return {x.strip() for x in m.group(1).split(",")}

    def next_line_suppressions(self, lineno: int) -> set[str]:
        """Rule ids a ``disable-next-line=`` on ``lineno`` applies ahead."""
        m = _SUPPRESS_NEXT_RE.search(self.line(lineno))
        if not m:
            return set()
        return {x.strip() for x in m.group(1).split(",")}

    def span_suppressions(self, start: int, end: int) -> set[str]:
        """Every rule id suppressed anywhere on lines ``start..end``.

        Unions inline ``disable=`` directives on the span's own lines
        with ``disable-next-line=`` directives whose *target* line falls
        inside the span — so a multi-line statement (a parenthesized
        continuation) accepts the comment on any of its physical lines,
        and a directive above a decorator covers the decorated def.
        """
        out: set[str] = set()
        for ln in range(start, end + 1):
            out |= self.line_suppressions(ln)
        for ln in range(start - 1, end):
            out |= self.next_line_suppressions(ln)
        return out


#: A rule checker yields (node, message) pairs for each violation.
Checker = Callable[[ModuleContext], Iterable[tuple[ast.AST, str]]]


@dataclass(frozen=True)
class LintRule:
    """A registered lint rule: identity, severity, scope, and checker."""

    rule_id: str
    name: str
    severity: Severity
    description: str
    scope: tuple[str, ...]
    check: Checker

    def applies_to(self, rel_path: str) -> bool:
        """True when the rule's directory scope covers ``rel_path``."""
        if not self.scope:
            return True
        return any(part in rel_path for part in self.scope)

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Execute the checker and emit unsuppressed findings."""
        if not self.applies_to(ctx.rel_path):
            return
        file_off = ctx.file_suppressions()
        if self.rule_id in file_off or "all" in file_off:
            return
        for node, message in self.check(ctx):
            lineno = getattr(node, "lineno", 0)
            start, end = _suppression_span(node, lineno)
            suppressed = ctx.span_suppressions(start, end)
            if self.rule_id in suppressed or "all" in suppressed:
                continue
            yield Finding(
                rule_id=self.rule_id,
                severity=self.severity,
                path=ctx.path,
                line=lineno,
                col=getattr(node, "col_offset", -1) + 1,
                message=message,
            )


def _suppression_span(node: ast.AST, lineno: int) -> tuple[int, int]:
    """The physical-line range a suppression comment may sit on.

    For plain expressions and simple statements this is the node's full
    ``lineno..end_lineno`` extent (covering parenthesized continuations).
    For compound statements (defs, loops, handlers) the span stops at the
    *header* — the line before the first body statement — so a comment
    deep inside a function body never silences a finding anchored on its
    ``def`` line. Decorator lines extend the span upward, which lets
    ``disable-next-line=`` above a decorator cover the decorated def.
    """
    start = lineno
    decorators = getattr(node, "decorator_list", None)
    if decorators:
        start = min([start] + [d.lineno for d in decorators])
    end = getattr(node, "end_lineno", None) or lineno
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and hasattr(body[0], "lineno"):
        end = max(start, body[0].lineno - 1)
    return start, end


_REGISTRY: dict[str, LintRule] = {}


def rule(
    rule_id: str,
    name: str,
    severity: Severity,
    scope: tuple[str, ...] = (),
) -> Callable[[Checker], Checker]:
    """Register a checker function as a lint rule.

    ``scope`` is a tuple of path fragments (``"engine/"``); empty means
    the rule applies everywhere. The checker's docstring becomes the
    rule description.
    """

    def deco(fn: Checker) -> Checker:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        _REGISTRY[rule_id] = LintRule(
            rule_id=rule_id,
            name=name,
            severity=severity,
            description=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else "",
            scope=scope,
            check=fn,
        )
        return fn

    return deco


def all_rules() -> list[LintRule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]
