"""Simulation-semantics lint rules: defaults and scheduling.

These catch API misuse patterns specific to the discrete-event substrate:
shared mutable default arguments (a classic cross-run state leak) and
``schedule()`` calls that do not attribute the event to a node (breaking
load profiling, which charges unattributed events to LP 0).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .rules import ModuleContext, Severity, rule

__all__ = ["check_mutable_default", "check_schedule_node"]


@rule("SIM104", "mutable-default-arg", Severity.ERROR)
def check_mutable_default(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Mutable default argument (list/dict/set literal or constructor).

    Defaults are evaluated once at definition time, so a mutable default
    is shared across every call — and, here, across simulation runs,
    silently coupling experiments that should be independent.
    """
    mutable_ctors = {"list", "dict", "set"}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in mutable_ctors
            )
            if bad:
                yield default, (
                    f"mutable default argument in `{node.name}()`; "
                    "default to None and construct inside the function"
                )


@rule("SIM105", "schedule-missing-node", Severity.ERROR, scope=("repro/",))
def check_schedule_node(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """``schedule()``/``schedule_at()`` without node attribution.

    The cost model charges events with ``node == -1`` to LP 0, skewing
    profiled load. Every scheduling call in the package must pass
    ``node=`` (use ``node=-1`` deliberately only for engine-internal
    bookkeeping events).
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in (
            "schedule",
            "schedule_at",
        ):
            continue
        n_positional = len(node.args)
        has_node_kw = any(kw.arg == "node" for kw in node.keywords)
        has_splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        if n_positional < 3 and not has_node_kw and not has_splat:
            yield node, (
                f"`{func.attr}()` call without an explicit `node=`; "
                "attribute the event to a simulated node for load profiling"
            )
