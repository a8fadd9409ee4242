"""Whole-program symbol table for the simracer parallel-safety pass.

One :class:`ProgramIndex` is built per lint invocation from the already
parsed :class:`~repro.analysis.rules.ModuleContext` objects. It records,
for every linted module:

- the module's dotted name (derived from its path),
- every function and method as a :class:`FunctionInfo` with a stable
  qualified name (``module:Class.method`` / ``module:function``),
- module-level *mutable* bindings (dict/list/set literals and
  constructors, ``itertools.count`` streams) — the state that silently
  forks per process under a ``multiprocessing`` backend,
- per-class attribute *kind* inference (set / dict / list / rng) from
  class-level annotations, dataclass fields, and ``self.x = ...``
  assignments in any method, plus class-level mutable attributes shared
  across instances,
- an import map with *relative imports resolved* (the per-file
  ``ModuleContext`` only resolves absolute ones), so a global defined in
  one module (say ``_seq`` in an ``events.py``) and mutated through
  ``from .events import _seq`` is recognized as the same object.

The index is deliberately conservative: where a receiver's type cannot
be resolved, consumers fall back to by-name matching (every known method
or attribute with that name). Erring toward "reachable"/"shared" is the
right failure mode for an analysis whose clean report doubles as the
shardability spec of the multi-core backend.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .rules import ModuleContext

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "GlobalMutable",
    "ProgramIndex",
    "module_name_for",
    "infer_kind",
    "kind_from_annotation",
]

#: constructors whose result is a mutable container (kind name by callee)
_MUTABLE_CTORS = {
    "dict": "dict",
    "list": "list",
    "set": "set",
    "collections.defaultdict": "dict",
    "collections.OrderedDict": "dict",
    "collections.Counter": "dict",
    "collections.deque": "list",
    "itertools.count": "counter",
}

#: RNG constructors (kind ``rng``); aliasing and payload rules use these.
RNG_CTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.Generator",
        "random.Random",
    }
)

#: annotation heads mapping to a container kind
_ANNOTATION_KINDS = {
    "dict": "dict",
    "Dict": "dict",
    "defaultdict": "dict",
    "DefaultDict": "dict",
    "OrderedDict": "dict",
    "Mapping": "dict",
    "MutableMapping": "dict",
    "set": "set",
    "Set": "set",
    "frozenset": "set",
    "FrozenSet": "set",
    "AbstractSet": "set",
    "MutableSet": "set",
    "list": "list",
    "List": "list",
    "Generator": "rng",
}


def module_name_for(rel_path: str) -> str:
    """Dotted module name of a source path.

    Anchors at the last path component named ``repro`` when present
    (``src/repro/engine/events.py`` -> ``repro.engine.events``) so the
    same module gets the same name whether linted via ``src/repro`` or an
    absolute path; fixture trees without a ``repro`` component fall back
    to the full path-derived name.
    """
    parts = rel_path.split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro") :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def _callee_name(node: ast.Call, ctx: ModuleContext) -> str | None:
    return ctx.dotted_name(node.func)


def infer_kind(value: ast.AST, ctx: ModuleContext) -> str | None:
    """The container kind of an expression (None when not inferable).

    Kinds: ``dict``, ``list``, ``set``, ``counter`` (an
    ``itertools.count`` stream), ``rng`` (a seeded generator object).
    """
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        dotted = _callee_name(value, ctx)
        if dotted is None:
            return None
        if dotted in RNG_CTORS:
            return "rng"
        kind = _MUTABLE_CTORS.get(dotted)
        if kind is not None:
            return kind
        # dataclasses.field(default_factory=...) is *per-instance* state;
        # report its kind for iteration rules but never as shared.
        if dotted.endswith("field"):
            for kw in value.keywords:
                if kw.arg == "default_factory" and isinstance(kw.value, ast.Name):
                    return {"dict": "dict", "list": "list", "set": "set"}.get(
                        kw.value.id
                    )
    return None


def kind_from_annotation(ann: ast.AST | None) -> str | None:
    """Container kind implied by a type annotation node (None if unknown)."""
    if ann is None:
        return None
    if isinstance(ann, ast.Subscript):
        return kind_from_annotation(ann.value)
    if isinstance(ann, ast.Name):
        return _ANNOTATION_KINDS.get(ann.id)
    if isinstance(ann, ast.Attribute):
        return _ANNOTATION_KINDS.get(ann.attr)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        return _ANNOTATION_KINDS.get(head.split(".")[-1])
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        # ``dict[int, str] | None`` — the optional part carries the kind.
        return kind_from_annotation(ann.left) or kind_from_annotation(ann.right)
    return None


@dataclass
class FunctionInfo:
    """One function or method of the linted program."""

    qualname: str  #: ``module:Class.method`` or ``module:function``
    module: str
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: ModuleContext


@dataclass
class GlobalMutable:
    """A module-level mutable binding (shared state under sharding)."""

    module: str
    name: str
    kind: str
    lineno: int
    path: str

    @property
    def qualname(self) -> str:
        """``module.NAME`` — the key mutation sites resolve to."""
        return f"{self.module}.{self.name}"


@dataclass
class ClassInfo:
    """Per-class symbol information."""

    qualname: str  #: ``module:Class``
    module: str
    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> inferred container kind
    attr_kinds: dict[str, str] = field(default_factory=dict)
    #: class-level mutable attributes (shared across instances) that no
    #: ``__init__`` assignment shadows, name -> definition line
    shared_mutable_attrs: dict[str, int] = field(default_factory=dict)
    #: base-class names as written (unresolved)
    base_names: tuple[str, ...] = ()


def _self_attr_targets(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Attribute names assigned as ``self.x = ...`` anywhere in ``fn``."""
    out: set[str] = set()
    for node in ast.walk(fn):
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for tgt in targets:
            if (
                isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
            ):
                out.add(tgt.attr)
    return out


def _resolve_relative(module: str, target: str | None, level: int) -> str:
    """Absolute module named by a relative import inside ``module``."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    # level 1 = the containing package of a module file.
    base = parts[: len(parts) - level] if len(parts) >= level else []
    return ".".join(base + ([target] if target else []))


class ProgramIndex:
    """Symbol table over every module of one lint invocation."""

    def __init__(self, contexts: list[ModuleContext]) -> None:
        #: dotted module name -> its ModuleContext
        self.modules: dict[str, ModuleContext] = {}
        #: rel_path -> dotted module name
        self.module_of_path: dict[str, str] = {}
        #: qualified name -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: method/function bare name -> every FunctionInfo with that name
        self.by_name: dict[str, list[FunctionInfo]] = {}
        #: ``module:Class`` -> ClassInfo
        self.classes: dict[str, ClassInfo] = {}
        #: class bare name -> every ClassInfo with that name
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        #: ``module.NAME`` -> GlobalMutable
        self.globals_mutable: dict[str, GlobalMutable] = {}
        #: attribute name -> kind, merged across classes (by-name fallback)
        self.attr_kinds: dict[str, str] = {}
        #: module -> alias -> fully qualified name (relative imports resolved)
        self.imports: dict[str, dict[str, str]] = {}

        for ctx in contexts:
            self._index_module(ctx)

    # ------------------------------------------------------------------
    def _index_module(self, ctx: ModuleContext) -> None:
        module = module_name_for(ctx.rel_path)
        self.modules[module] = ctx
        self.module_of_path[ctx.rel_path] = module
        imports = dict(ctx.from_imports)
        # A package's ``__init__`` is named after the package itself, so
        # its level-1 imports are relative to ``module``, not its parent.
        anchor = f"{module}.__init__" if ctx.rel_path.endswith("__init__.py") else module
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                base = _resolve_relative(anchor, node.module, node.level)
                for alias in node.names:
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
        self.imports[module] = imports

        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, None, stmt, ctx)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(module, stmt, ctx)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._index_global(module, stmt, ctx)

    def _add_function(
        self,
        module: str,
        cls: str | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: ModuleContext,
    ) -> FunctionInfo:
        qual = f"{module}:{cls}.{node.name}" if cls else f"{module}:{node.name}"
        info = FunctionInfo(
            qualname=qual, module=module, cls=cls, name=node.name, node=node, ctx=ctx
        )
        self.functions[qual] = info
        self.by_name.setdefault(node.name, []).append(info)
        return info

    def _index_class(self, module: str, node: ast.ClassDef, ctx: ModuleContext) -> None:
        info = ClassInfo(
            qualname=f"{module}:{node.name}",
            module=module,
            name=node.name,
            node=node,
            base_names=tuple(
                b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                for b in node.bases
            ),
        )
        init_assigned: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._add_function(
                    module, node.name, stmt, ctx
                )
                self._scan_self_assignments(stmt, info, ctx)
                if stmt.name == "__init__":
                    init_assigned |= _self_attr_targets(stmt)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                kind = kind_from_annotation(stmt.annotation) or (
                    infer_kind(stmt.value, ctx) if stmt.value else None
                )
                if kind:
                    info.attr_kinds.setdefault(stmt.target.id, kind)
                self._maybe_shared_attr(info, stmt.target.id, stmt.value, ctx, stmt)
            elif isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        kind = infer_kind(stmt.value, ctx)
                        if kind:
                            info.attr_kinds.setdefault(tgt.id, kind)
                        self._maybe_shared_attr(info, tgt.id, stmt.value, ctx, stmt)
        # An attribute re-assigned per instance in __init__ is not shared.
        for name in init_assigned:
            info.shared_mutable_attrs.pop(name, None)
        self.classes[info.qualname] = info
        self.classes_by_name.setdefault(node.name, []).append(info)
        for attr, kind in info.attr_kinds.items():
            self.attr_kinds.setdefault(attr, kind)

    def _maybe_shared_attr(
        self,
        info: ClassInfo,
        name: str,
        value: ast.AST | None,
        ctx: ModuleContext,
        stmt: ast.stmt,
    ) -> None:
        if value is None:
            return
        kind = infer_kind(value, ctx)
        # dataclasses.field defaults construct per instance — not shared.
        is_field = isinstance(value, ast.Call) and (
            _callee_name(value, ctx) or ""
        ).endswith("field")
        if kind in ("dict", "list", "set", "counter") and not is_field:
            info.shared_mutable_attrs[name] = stmt.lineno

    def _scan_self_assignments(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        info: ClassInfo,
        ctx: ModuleContext,
    ) -> None:
        for node in ast.walk(fn):
            target = None
            ann = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, ann, value = node.target, node.annotation, node.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                kind = kind_from_annotation(ann) or (
                    infer_kind(value, ctx) if value is not None else None
                )
                if kind:
                    info.attr_kinds.setdefault(target.attr, kind)
        # Parameter annotations flow into attr kinds through the common
        # ``self.x = x`` idiom: ``def __init__(self, x: dict): self.x = x``.
        param_kinds = {
            a.arg: kind_from_annotation(a.annotation)
            for a in fn.args.args + fn.args.kwonlyargs
            if a.annotation is not None
        }
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "self"
                and isinstance(node.value, ast.Name)
            ):
                kind = param_kinds.get(node.value.id)
                if kind:
                    info.attr_kinds.setdefault(node.targets[0].attr, kind)

    def _index_global(
        self, module: str, stmt: ast.Assign | ast.AnnAssign, ctx: ModuleContext
    ) -> None:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        value = stmt.value
        for tgt in targets:
            if not isinstance(tgt, ast.Name):
                continue
            kind = (infer_kind(value, ctx) if value is not None else None) or (
                kind_from_annotation(stmt.annotation)
                if isinstance(stmt, ast.AnnAssign)
                else None
            )
            if kind in ("dict", "list", "set", "counter"):
                gm = GlobalMutable(
                    module=module,
                    name=tgt.id,
                    kind=kind,
                    lineno=stmt.lineno,
                    path=ctx.rel_path,
                )
                self.globals_mutable[gm.qualname] = gm

    # ------------------------------------------------------------------
    # Resolution helpers used by the call graph and the SIM2xx rules
    # ------------------------------------------------------------------
    def resolve_global(self, name: str, module: str) -> GlobalMutable | None:
        """The module-level mutable a bare name refers to, if any.

        Checks the module's own globals first, then its (relative-import
        aware) import map — so ``from .events import _seq as _g; next(_g)``
        resolves to the ``_seq`` of that package's ``events`` module.
        """
        own = self.globals_mutable.get(f"{module}.{name}")
        if own is not None:
            return own
        fq = self.imports.get(module, {}).get(name)
        if fq is not None:
            return self.globals_mutable.get(fq)
        return None

    def class_of_method(self, fi: FunctionInfo) -> ClassInfo | None:
        """The ClassInfo a method belongs to (None for free functions)."""
        if fi.cls is None:
            return None
        return self.classes.get(f"{fi.module}:{fi.cls}")

    def attr_kind(self, cls: ClassInfo | None, attr: str) -> str | None:
        """Attribute kind: precise within ``cls``, else by-name fallback."""
        if cls is not None:
            kind = cls.attr_kinds.get(attr)
            if kind is not None:
                return kind
        return self.attr_kinds.get(attr)
