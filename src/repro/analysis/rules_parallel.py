"""Parallel-safety lint rules (SIM2xx): the shardability gate.

Every rule here consumes the whole-program :class:`ProgramContext`
attached at ``ctx.program`` by :func:`repro.analysis.astlint.lint_sources`
— symbol table, call graph, and LP-execution reachability. When a module
is linted stand-alone (``ctx.program is None``) the rules stay silent:
without reachability there is no way to tell shared simulation state
from offline tooling, and a per-file guess would be all noise.

The family encodes what breaks when the single-process conservative
engine is sharded across ``multiprocessing`` workers:

- **SIM201** — module-level (or class-level shared) mutable state
  written from an LP-reachable function: each worker gets its own copy
  at fork and they silently diverge.
- **SIM202** — iteration over an unordered collection whose loop body
  schedules events or mutates shared state: per-process hash/arrival
  order changes event order, which changes results.
- **SIM203** — statically unpicklable values handed into the event
  pipeline (lambdas, generator expressions, nested closures, open
  handles): they cannot cross the future IPC boundary.
- **SIM204** — two RNG-construction sites deriving the same seed: the
  streams alias, so "independent" noise sources are correlated.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .rules import ModuleContext, Severity, rule
from .symbols import RNG_CTORS, FunctionInfo, infer_kind, kind_from_annotation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .reachability import ProgramContext

__all__ = [
    "check_shared_mutable_state",
    "check_unordered_iteration",
    "check_unpicklable_payload",
    "check_rng_stream_aliasing",
]

#: container-mutating method names
_MUTATORS = frozenset(
    {
        "append", "add", "update", "pop", "popitem", "clear", "remove",
        "discard", "extend", "insert", "setdefault", "appendleft",
    }
)

#: bare callee names that enqueue work into the event pipeline
_SCHEDULE_NAMES = frozenset(
    {
        "schedule", "schedule_at", "schedule_after", "inject", "push",
        "send", "deliver", "enqueue",
    }
)


def _program(ctx: ModuleContext) -> "ProgramContext | None":
    prog = ctx.program
    return prog if prog is not None and hasattr(prog, "reachable") else None


def _reachable_functions(
    ctx: ModuleContext, prog: "ProgramContext"
) -> Iterator[FunctionInfo]:
    module = prog.module_of(ctx.rel_path)
    for fi in prog.index.functions.values():
        if fi.module == module and fi.qualname in prog.reachable:
            yield fi


def _chain(prog: "ProgramContext", fi: FunctionInfo) -> str:
    return prog.chain(fi.qualname)


# ---------------------------------------------------------------------------
# SIM201: shared mutable state written on the LP path
# ---------------------------------------------------------------------------
@rule("SIM201", "shared-mutable-state", Severity.ERROR, scope=("repro/",))
def check_shared_mutable_state(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Module-level mutable state mutated from an LP-reachable function.

    Under a multiprocessing backend each worker forks its own copy of
    module globals and class-level attributes; writes no longer agree
    across LPs. Thread the state through the LP object instead, or
    suppress with a justification when the global is load-bearing for
    single-process determinism (e.g. the event sequence counter).
    """
    prog = _program(ctx)
    if prog is None:
        return
    module = prog.module_of(ctx.rel_path)
    seen: set[tuple[int, int, str]] = set()

    def emit(node: ast.AST, what: str, fi: FunctionInfo) -> Iterator[
        tuple[ast.AST, str]
    ]:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), what)
        if key in seen:
            return
        seen.add(key)
        yield node, (
            f"{what} is mutated on the LP execution path "
            f"(via {_chain(prog, fi)}); per-process copies will diverge "
            "under a multi-core backend"
        )

    for fi in _reachable_functions(ctx, prog):
        cls = prog.index.class_of_method(fi)
        declared_global: set[str] = set()
        for node in ast.walk(fi.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(fi.node):
            # X[...] = v / X += v / X.mutator(...) on a module global.
            root: ast.AST | None = None
            verb = "written"
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript):
                        root = tgt.value
                    elif isinstance(tgt, ast.Name) and tgt.id in declared_global:
                        root, verb = tgt, "rebound"
                    else:
                        continue
                    yield from _check_root(
                        root, verb, ctx, prog, fi, cls, module, node, emit
                    )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATORS:
                    yield from _check_root(
                        node.func.value, "mutated", ctx, prog, fi, cls, module,
                        node, emit,
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "next"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                gm = prog.index.resolve_global(node.args[0].id, module)
                if gm is not None and gm.kind == "counter":
                    yield from emit(
                        node,
                        f"module-level counter `{gm.qualname}`",
                        fi,
                    )


def _check_root(
    root: ast.AST,
    verb: str,
    ctx: ModuleContext,
    prog: "ProgramContext",
    fi: FunctionInfo,
    cls,
    module: str,
    node: ast.AST,
    emit,
) -> Iterator[tuple[ast.AST, str]]:
    """Emit when a store/mutation root is a module global or shared attr."""
    if isinstance(root, ast.Name):
        gm = prog.index.resolve_global(root.id, module)
        if gm is not None:
            yield from emit(node, f"module-level {gm.kind} `{gm.qualname}`", fi)
    elif (
        isinstance(root, ast.Attribute)
        and isinstance(root.value, ast.Name)
        and root.value.id == "self"
        and cls is not None
        and root.attr in cls.shared_mutable_attrs
    ):
        yield from emit(
            node,
            f"class-level shared attribute `{cls.name}.{root.attr}`",
            fi,
        )


# ---------------------------------------------------------------------------
# SIM202: unordered iteration feeding scheduling / shared mutation
# ---------------------------------------------------------------------------
def _local_kinds(fi: FunctionInfo) -> dict[str, tuple[str, bool]]:
    """Local name -> (kind, from_literal) inferred inside one function."""
    out: dict[str, tuple[str, bool]] = {}
    for a in fi.node.args.args + fi.node.args.kwonlyargs + fi.node.args.posonlyargs:
        kind = kind_from_annotation(a.annotation)
        if kind:
            out[a.arg] = (kind, False)
    for node in ast.walk(fi.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            kind = infer_kind(node.value, fi.ctx)
            if kind:
                literal = isinstance(
                    node.value, (ast.Dict, ast.DictComp, ast.List, ast.ListComp)
                )
                out[node.targets[0].id] = (kind, literal)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            kind = kind_from_annotation(node.annotation) or (
                infer_kind(node.value, fi.ctx) if node.value else None
            )
            if kind:
                out[node.target.id] = (kind, False)
    return out


def _iteration_kind(
    iter_node: ast.AST,
    fi: FunctionInfo,
    prog: "ProgramContext",
    locals_: dict[str, tuple[str, bool]],
) -> tuple[str, str] | None:
    """(kind, description) when ``for _ in <iter_node>`` is order-unstable.

    ``sorted(...)`` / ``enumerate(sorted(...))`` wrappers make the
    iteration deterministic and return None. Local *dict literals* are
    exempt (insertion order is the program's own, identical in every
    process); sets are unordered no matter where they live.
    """
    node = iter_node
    # Unwrap enumerate/reversed/list/tuple — they preserve the inner order.
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("enumerate", "reversed", "list", "tuple")
        and node.args
    ):
        node = node.args[0]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    ):
        return None
    view = None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in ("items", "keys", "values"):
            view = node.func.attr
            node = node.func.value
        else:
            return None

    module = fi.module
    cls = prog.index.class_of_method(fi)
    kind = None
    desc = ""
    if isinstance(node, ast.Name):
        if node.id in locals_:
            kind, literal = locals_[node.id]
            if kind == "dict" and literal:
                return None  # local literal dict: insertion order is ours
            desc = f"local `{node.id}`"
        else:
            gm = prog.index.resolve_global(node.id, module)
            if gm is not None:
                kind = gm.kind
                desc = f"module-level `{gm.qualname}`"
    elif isinstance(node, ast.Attribute):
        attr_kind = prog.index.attr_kind(
            cls if isinstance(node.value, ast.Name) and node.value.id == "self"
            else None,
            node.attr,
        )
        if attr_kind:
            kind = attr_kind
            desc = f"attribute `.{node.attr}`"
    del view  # .items()/.keys()/.values() carry the dict's own order
    if kind == "set":
        return kind, desc
    if kind == "dict":
        # Non-literal dicts: insertion order depends on arrival order,
        # which differs per LP once state is sharded.
        return kind, desc
    return None


def _body_feeds_simulation(body: list[ast.stmt], loop_vars: set[str]) -> str | None:
    """Why this loop body is order-sensitive (None when it is not)."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                callee = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else node.func.id
                    if isinstance(node.func, ast.Name)
                    else None
                )
                if callee in _SCHEDULE_NAMES:
                    return f"calls `{callee}()`"
                if isinstance(node.func, ast.Attribute) and (
                    node.func.attr in _MUTATORS
                ):
                    root = node.func.value
                    if not (
                        isinstance(root, ast.Name) and root.id in loop_vars
                    ):
                        return f"mutates state via `.{node.func.attr}()`"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript):
                        root = tgt.value
                        if isinstance(root, ast.Attribute) or (
                            isinstance(root, ast.Name)
                            and root.id not in loop_vars
                        ):
                            return "writes through a subscript"
    return None


def _loop_target_names(target: ast.AST) -> set[str]:
    return {
        n.id for n in ast.walk(target) if isinstance(n, ast.Name)
    }


@rule("SIM202", "unordered-iteration", Severity.ERROR, scope=("repro/",))
def check_unordered_iteration(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Unordered set/dict iteration that schedules or mutates state.

    Event order must be a pure function of the run's inputs. Iterating a
    set (hash order) or a shared dict (arrival order) and scheduling /
    mutating inside the loop bakes per-process ordering into results.
    Wrap the iterable in ``sorted(...)`` with a total key.
    """
    prog = _program(ctx)
    if prog is None:
        return
    for fi in _reachable_functions(ctx, prog):
        locals_ = _local_kinds(fi)
        for node in ast.walk(fi.node):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            hit = _iteration_kind(node.iter, fi, prog, locals_)
            if hit is None:
                continue
            kind, desc = hit
            reason = _body_feeds_simulation(
                node.body, _loop_target_names(node.target)
            )
            if reason is None:
                continue
            yield node, (
                f"iteration over unordered {kind} {desc} whose body {reason} "
                f"(LP-reachable via {_chain(prog, fi)}); wrap the iterable "
                "in sorted(...) with a total key"
            )


# ---------------------------------------------------------------------------
# SIM203: statically unpicklable event payloads
# ---------------------------------------------------------------------------
_REGISTRAR_NAMES = _SCHEDULE_NAMES | frozenset(
    {"udp_bind", "register_tcp_endpoint", "subscribe", "add_callback"}
)


@rule("SIM203", "unpicklable-payload", Severity.ERROR, scope=("repro/",))
def check_unpicklable_payload(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Unpicklable values handed into the event pipeline.

    Once LPs live in separate processes, every scheduled payload crosses
    an IPC boundary and must pickle. Lambdas, generator expressions,
    functions defined inside the enclosing function (closures), and open
    file handles never will. Pass a bound method plus an ``args`` tuple
    instead — the engine's closure-free dispatch idiom.
    """
    prog = _program(ctx)
    if prog is None:
        return
    for fi in _reachable_functions(ctx, prog):
        nested_defs = {
            n.name
            for n in ast.walk(fi.node)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and n is not fi.node
        }
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Call):
                continue
            callee = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else node.func.id
                if isinstance(node.func, ast.Name)
                else None
            )
            if callee not in _REGISTRAR_NAMES:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for val in values:
                what = None
                if isinstance(val, ast.Lambda):
                    what = "a lambda"
                elif isinstance(val, ast.GeneratorExp):
                    what = "a generator expression"
                elif isinstance(val, ast.Name) and val.id in nested_defs:
                    what = f"nested function `{val.id}` (a closure)"
                elif (
                    isinstance(val, ast.Call)
                    and isinstance(val.func, ast.Name)
                    and val.func.id == "open"
                ):
                    what = "an open file handle"
                if what is not None:
                    yield val, (
                        f"`{callee}()` receives {what}, which cannot "
                        "cross the future LP process boundary "
                        f"(reachable via {_chain(prog, fi)}); pass a bound "
                        "method with an args tuple instead"
                    )


# ---------------------------------------------------------------------------
# SIM204: RNG stream aliasing
# ---------------------------------------------------------------------------
def _normalize_seed(expr: ast.AST) -> str | None:
    """Canonical text of a seed expression for aliasing comparison.

    Constants render as their value; names and attribute chains render as
    their final segment (so ``self.link.link_id`` and ``link.link_id``
    compare equal — same derivation, different spelling). Returns None
    when the expression contains no integer literal at all: a fully
    dynamic seed is the caller's explicit choice, not an alias.
    """
    has_literal = any(
        isinstance(n, ast.Constant) and isinstance(n.value, int)
        for n in ast.walk(expr)
    )
    if not has_literal:
        return None

    def render(node: ast.AST) -> str | None:
        if isinstance(node, ast.Constant):
            return repr(node.value)
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.BinOp):
            left, right = render(node.left), render(node.right)
            if left is None or right is None:
                return None
            op = type(node.op).__name__
            return f"({left} {op} {right})"
        if isinstance(node, ast.Call):
            inner = [render(a) for a in node.args]
            if any(i is None for i in inner):
                return None
            head = render(node.func)
            return f"{head}({', '.join(i for i in inner if i)})"
        if isinstance(node, ast.UnaryOp):
            inner = render(node.operand)
            return None if inner is None else f"{type(node.op).__name__}{inner}"
        return None

    return render(expr)


def _rng_sites(prog: "ProgramContext") -> dict[str, list[tuple[str, int, str]]]:
    """seed-key -> [(rel_path, line, ctor)] across the whole program."""
    cached = getattr(prog, "_sim204_sites", None)
    if cached is not None:
        return cached
    sites: dict[str, list[tuple[str, int, str]]] = {}
    for module, mctx in sorted(prog.index.modules.items()):
        for node in ast.walk(mctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            dotted = mctx.dotted_name(node.func)
            if dotted is None or dotted not in RNG_CTORS:
                continue
            key = _normalize_seed(node.args[0])
            if key is None:
                continue
            sites.setdefault(key, []).append(
                (mctx.rel_path, node.lineno, dotted.rsplit(".", 1)[-1])
            )
    for group in sites.values():
        group.sort()
    prog._sim204_sites = sites
    return sites


@rule("SIM204", "rng-stream-aliasing", Severity.WARNING, scope=("repro/",))
def check_rng_stream_aliasing(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Two RNG-construction sites deriving the same seed.

    Generators built from the same seed produce the *same* stream;
    components that believe they draw independent noise are perfectly
    correlated. Derive per-component seeds from a ``SeedSequence`` spawn
    or mix a distinct component tag into the seed.
    """
    prog = _program(ctx)
    if prog is None:
        return
    sites = _rng_sites(prog)
    for key, group in sorted(sites.items()):
        if len(group) < 2:
            continue
        for rel_path, lineno, ctor in group:
            if rel_path != ctx.rel_path:
                continue
            others = sorted(
                {p for p, ln, _ in group if (p, ln) != (rel_path, lineno)}
            )
            node = _node_at(ctx, lineno)
            yield node, (
                f"`{ctor}()` seed `{key}` also constructs a generator at "
                f"{', '.join(others[:3])}; aliased streams are correlated — "
                "derive per-component seeds via SeedSequence.spawn()"
            )


def _node_at(ctx: ModuleContext, lineno: int) -> ast.AST:
    """Smallest call node starting on ``lineno`` (fallback: synthetic)."""
    best: ast.AST | None = None
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and node.lineno == lineno:
            best = node
            break
    if best is None:
        best = ast.Pass(lineno=lineno, col_offset=0)
    return best
