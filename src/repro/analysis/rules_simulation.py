"""Simulation-semantics lint rules: time comparison, defaults, scheduling.

These catch API misuse patterns specific to the discrete-event substrate:
exact float comparison of simulated timestamps, shared mutable default
arguments (a classic cross-run state leak), and ``schedule()`` calls that
do not attribute the event to a node (breaking load profiling, which
charges unattributed events to LP 0).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .rules import ModuleContext, Severity, rule

__all__ = [
    "check_float_time_equality",
    "check_mutable_default",
    "check_schedule_node",
    "check_silent_except",
    "check_worker_registry_mutation",
]

_TIMESTAMP_NAMES = frozenset({"now", "time", "timestamp", "when", "deadline"})
_TIMESTAMP_SUFFIXES = ("_time", "_at", "_timestamp")


def _terminal_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _looks_like_timestamp(node: ast.AST) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    return name in _TIMESTAMP_NAMES or name.endswith(_TIMESTAMP_SUFFIXES)


@rule("SIM103", "float-eq-time", Severity.WARNING)
def check_float_time_equality(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Exact ``==``/``!=`` on simulated timestamps.

    Timestamps are floats accumulated through additions; exact equality
    is representation-dependent. Compare with an epsilon or restructure
    around event ordering.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # Comparing against literal None/str is identity-ish, not a
            # float-precision hazard.
            if any(
                isinstance(x, ast.Constant) and not isinstance(x.value, (int, float))
                for x in (lhs, rhs)
            ):
                continue
            if _looks_like_timestamp(lhs) or _looks_like_timestamp(rhs):
                op_txt = "==" if isinstance(op, ast.Eq) else "!="
                yield node, (
                    f"exact float `{op_txt}` on a simulated timestamp; "
                    "use an epsilon comparison or event ordering"
                )
                break


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


@rule(
    "SIM105",
    "schedule-missing-node",
    Severity.ERROR,
    scope=("engine/", "netsim/", "online/"),
)
def check_schedule_node(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """``schedule()``/``schedule_at()`` without node attribution.

    The cost model charges events with ``node == -1`` to LP 0, skewing
    profiled load. Every scheduling call in engine/netsim/online code
    must pass ``node=`` (use ``node=-1`` deliberately only for
    engine-internal bookkeeping events).
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


_BROAD_EXCEPTIONS = frozenset(
    {"Exception", "BaseException", "builtins.Exception", "builtins.BaseException"}
)


def _is_silent_body(body: list[ast.stmt]) -> bool:
    """True when a handler body does nothing: only ``pass``/``...``/docstrings."""
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body
    )


@rule("SIM107", "silent-except", Severity.ERROR, scope=("repro/",))
def check_silent_except(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Bare ``except:`` or silently swallowed broad exceptions.

    A fault-injection run surfaces failures as exceptions on purpose —
    a handler that catches everything and does nothing turns an injected
    fault (or a real bug) into silent state corruption. Catch a specific
    type, or at minimum record the failure before continuing; suppress a
    deliberate sink with ``# simlint: disable=SIM107``.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node, (
                "bare `except:` swallows every failure, including injected "
                "faults; catch a specific exception type"
            )
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {ctx.dotted_name(t) for t in types}
        if names & _BROAD_EXCEPTIONS and _is_silent_body(node.body):
            yield node, (
                "`except Exception` with an empty body hides failures; "
                "narrow the type or handle (at least record) the error"
            )


_REGISTRY_MUTATORS = frozenset({"enable", "disable", "reset", "clear", "merge_from"})
_REGISTRY_GETTERS = frozenset({"get_registry", "get_tracer"})


@rule(
    "SIM108",
    "worker-registry-mutation",
    Severity.ERROR,
    scope=("engine/parallel", "experiments/shard"),
)
def check_worker_registry_mutation(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Direct global registry/tracer mutation in worker-side code paths.

    Worker processes of the multi-process backend must set up
    observability through ``repro.obs.distributed
    .configure_worker_observability`` — it clears fork-inherited state
    and applies the controller's config stanza atomically. Ad-hoc
    ``get_registry().reset()`` / ``.merge_from(...)`` / ``.enabled =
    ...`` in the shard/worker modules bypasses that layer: the registry
    a worker ships would no longer hold exactly its own run, and the
    controller's merge would count something twice or not at all.
    """
    # Names bound from get_registry()/get_tracer() anywhere in the module
    # (coarse on purpose: shard/worker modules should not hold a mutable
    # handle on the globals at all).
    global_handles: set[str] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        if _terminal_name(node.value.func) in _REGISTRY_GETTERS:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    global_handles.add(target.id)

    def is_global_handle(base: ast.AST) -> bool:
        if isinstance(base, ast.Call):
            return _terminal_name(base.func) in _REGISTRY_GETTERS
        return isinstance(base, ast.Name) and base.id in global_handles

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _REGISTRY_MUTATORS and is_global_handle(
                node.func.value
            ):
                yield node, (
                    f"direct `.{node.func.attr}()` on the process-global "
                    "registry/tracer in worker-side code; configure through "
                    "repro.obs.distributed.configure_worker_observability"
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "enabled"
                    and is_global_handle(target.value)
                ):
                    yield target, (
                        "direct `.enabled = ...` on the process-global "
                        "registry/tracer in worker-side code; configure "
                        "through repro.obs.distributed"
                        ".configure_worker_observability"
                    )
