"""LP-execution reachability: which functions run inside the event loop.

The SIM2xx rules only fire on code the logical-process execution path
can actually reach — a module-level cache mutated by an offline plotting
helper is harmless; the same cache touched from an event handler forks
state the moment LPs move to separate processes. Reachability is a BFS
over the :class:`~repro.analysis.callgraph.CallGraph` from two seed
sets:

- **entry points** — fnmatch patterns over qualified names naming the
  engine loops themselves (``SimKernel.run``, ``ShardEngine``'s window
  loop, ``NetworkSimulator`` event injection, ``BgpEngine`` sweeps);
- **scheduled handlers** — any function passed into a
  registration-shaped call (``schedule``/``schedule_at``/``udp_bind``/
  ``register_tcp_endpoint``/``subscribe``, or an ``on_*``/``fn``/
  ``callback``/``handler`` keyword) anywhere in the program. The engine
  invokes these later from its loop, so they are entry points even when
  no static call edge reaches them.

The BFS keeps a parent map, so every reachable function can report the
*chain* that makes it reachable — SIM2xx messages embed it, turning
"trust me, it's reachable" into an auditable path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch

from .callgraph import CallGraph, build_call_graph
from .rules import ModuleContext
from .symbols import FunctionInfo, ProgramIndex

__all__ = [
    "DEFAULT_ENTRY_PATTERNS",
    "HANDLER_REGISTRARS",
    "HANDLER_KWARGS",
    "ProgramContext",
    "build_program_context",
]

#: fnmatch patterns over ``module:Class.method`` qualnames that anchor
#: the LP execution path. ``*:`` tolerates fixture trees whose module
#: names differ from the real package layout.
DEFAULT_ENTRY_PATTERNS: tuple[str, ...] = (
    "*:SimKernel.run",
    "*:ShardEngine.run",
    "*:ShardEngine.run_window",
    "*:ShardEngine.schedule_at",
    "*:NetworkSimulator.inject",
    "*:NetworkSimulator._handle_at",
    "*:BgpEngine.run",
    "*:BgpEngine._iterate_once",
)

#: callee bare names whose function-valued arguments are event handlers
HANDLER_REGISTRARS = frozenset(
    {
        "schedule",
        "schedule_at",
        "schedule_after",
        "udp_bind",
        "register_tcp_endpoint",
        "subscribe",
        "add_callback",
        "register_handler",
    }
)

#: keyword-argument names that mark a function value as a handler when
#: the call is itself a registrar (``fn=`` on arbitrary calls would seed
#: argparse's ``set_defaults(fn=cmd_x)`` and every CLI command with it)
HANDLER_KWARGS = frozenset({"fn", "callback", "handler"})


@dataclass
class ProgramContext:
    """Whole-program analysis results attached to every ModuleContext."""

    index: ProgramIndex
    graph: CallGraph
    #: qualnames reachable from LP entry points (seeds included)
    reachable: set[str] = field(default_factory=set)
    #: reachable qualname -> the qualname that first discovered it
    #: (seeds map to themselves)
    parent: dict[str, str] = field(default_factory=dict)
    #: the seed qualnames themselves, for reporting
    seeds: set[str] = field(default_factory=set)
    #: analyzer statistics (files, functions, edges, seeds, reachable)
    stats: dict[str, int] = field(default_factory=dict)

    def module_of(self, rel_path: str) -> str:
        """Dotted module name of a linted path (empty if not indexed)."""
        return self.index.module_of_path.get(rel_path, "")

    def enclosing_function(
        self, ctx: ModuleContext, node: ast.AST
    ) -> FunctionInfo | None:
        """The indexed function whose body contains ``node`` (by lines)."""
        module = self.module_of(ctx.rel_path)
        lineno = getattr(node, "lineno", 0)
        best: FunctionInfo | None = None
        for fi in self.index.functions.values():
            if fi.module != module:
                continue
            start = fi.node.lineno
            end = fi.node.end_lineno or start
            if start <= lineno <= end:
                # Innermost wins (methods of nested classes, nested defs).
                if best is None or fi.node.lineno > best.node.lineno:
                    best = fi
        return best

    def is_reachable(self, fi: FunctionInfo | None) -> bool:
        """True when the function lies on the LP execution path."""
        return fi is not None and fi.qualname in self.reachable

    def chain(self, qualname: str, limit: int = 6) -> str:
        """The entry→function path as ``a -> b -> c`` (for messages)."""
        hops: list[str] = []
        cur = qualname
        seen: set[str] = set()
        while cur in self.parent and cur not in seen:
            seen.add(cur)
            hops.append(cur.split(":", 1)[-1])
            nxt = self.parent[cur]
            if nxt == cur:
                break
            cur = nxt
        hops = hops[:limit]
        return " <- ".join(hops)


def _seed_entries(index: ProgramIndex, patterns: tuple[str, ...]) -> set[str]:
    return {
        qual
        for qual in index.functions
        if any(fnmatch(qual, pat) for pat in patterns)
    }


def _seed_handlers(index: ProgramIndex) -> set[str]:
    """Functions passed into registration-shaped calls anywhere."""
    seeds: set[str] = set()

    def note(value: ast.AST, fi: FunctionInfo) -> None:
        # See through functools.partial(fn, ...): the bound callable is
        # the handler (the sanctioned closure-free callback idiom).
        if isinstance(value, ast.Call) and value.args:
            head = (
                value.func.attr
                if isinstance(value.func, ast.Attribute)
                else value.func.id
                if isinstance(value.func, ast.Name)
                else None
            )
            if head == "partial":
                note(value.args[0], fi)
                return
        if isinstance(value, ast.Attribute):
            # self._on_x / obj._on_x: by-name over known methods.
            seeds.update(
                m.qualname
                for m in index.by_name.get(value.attr, [])
                if m.cls is not None
            )
        elif isinstance(value, ast.Name):
            hit = index.functions.get(f"{fi.module}:{value.id}")
            if hit is not None:
                seeds.add(hit.qualname)
            else:
                seeds.update(m.qualname for m in index.by_name.get(value.id, []))

    for fi in index.functions.values():
        for node in ast.walk(fi.node):
            # ``obj.on_change = self._handler`` — registration by
            # attribute assignment.
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Attribute) and tgt.attr.startswith("on_"):
                        note(node.value, fi)
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else node.func.id
                if isinstance(node.func, ast.Name)
                else None
            )
            if callee in HANDLER_REGISTRARS:
                for arg in node.args:
                    note(arg, fi)
                for kw in node.keywords:
                    if kw.arg and (
                        kw.arg in HANDLER_KWARGS or kw.arg.startswith("on_")
                    ):
                        note(kw.value, fi)
            else:
                # ``on_*=`` keywords mark handlers on any call (delivery
                # callbacks of ``send()``-style APIs).
                for kw in node.keywords:
                    if kw.arg and kw.arg.startswith("on_"):
                        note(kw.value, fi)
    return seeds


def build_program_context(
    contexts: list[ModuleContext],
    entry_patterns: tuple[str, ...] = DEFAULT_ENTRY_PATTERNS,
) -> ProgramContext:
    """Index, link, and BFS: the full whole-program pass for one lint run."""
    index = ProgramIndex(contexts)
    graph = build_call_graph(index)
    seeds = _seed_entries(index, entry_patterns) | _seed_handlers(index)

    reachable: set[str] = set()
    parent: dict[str, str] = {}
    frontier = sorted(seeds)
    for s in frontier:
        parent[s] = s
    while frontier:
        nxt: list[str] = []
        for qual in frontier:
            if qual in reachable:
                continue
            reachable.add(qual)
            for succ in sorted(graph.successors(qual)):
                if succ not in parent:
                    parent[succ] = qual
                    nxt.append(succ)
        frontier = nxt

    prog = ProgramContext(
        index=index,
        graph=graph,
        reachable=reachable,
        parent=parent,
        seeds=seeds,
    )
    prog.stats = {
        "modules": len(index.modules),
        "functions": len(index.functions),
        "call_edges": sum(len(v) for v in graph.calls.values()),
        "ref_edges": sum(len(v) for v in graph.refs.values()),
        "seeds": len(seeds),
        "reachable": len(reachable),
    }
    return prog
