"""Spans and steps recorded by the benchmark, the floor over repeated
passes, and cProfile self time per repro module.

The benchmark measures every layer from outside: :class:`Recorder` wraps
each call into a layer's public function in a span (name, start, end,
parent), kept in memory and written out when the child exits, and cuts
the pass into short steps; :func:`floor_of_passes` takes the fastest
reading of every step. A stage that never returns to the benchmark
between layers (the event loop, the ``Tmll`` sweep) is opened up by
:func:`attribute_profile`, which turns a ``cProfile`` run into self time
per ``repro`` module. None of it adds code inside ``src/``.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: self time that no ``repro`` module called for (harness glue, imports)
OTHER = "other"

# Packages whose files report under the package name instead of
# ``<package>.<file>``: the issue names ``online.self_s``,
# ``netsim.app.self_s`` and the BGP speaker as one layer each.
_COLLAPSED = ("online", "netsim.app", "routing.bgp")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Recorder:
    """Spans and steps of one pass over a workload.

    A *span* is one call into a layer (name, start, end, parent). A
    *step* is the unit the floor is taken over: ``(stage, wall_s,
    cpu_s)``. Every stage span is one step unless the code inside it
    calls the ``lap`` it was handed, which closes a step and opens the
    next, so a stage's steps always tile its span exactly.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.steps: list[tuple[str, float, float]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, stage: bool = True) -> Iterator[Callable[[], None]]:
        """Time one call into a layer; ``stage`` spans are cut into steps."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"id": index, "name": name, "parent": parent, "start_s": 0.0, "end_s": 0.0}
        self.spans.append(record)
        self._open.append(index)
        last = [time.perf_counter(), cpu_seconds()]
        record["start_s"] = last[0]

        def lap() -> float:
            now, cpu = time.perf_counter(), cpu_seconds()
            if stage:
                self.steps.append((name, now - last[0], cpu - last[1]))
            last[:] = now, cpu
            return now

        try:
            yield lap
        finally:
            record["end_s"] = lap()
            self._open.pop()

    def cut_last_stage(self, stamps_s: list[float], cpu_s: list[float]) -> None:
        """Cut the stage that just closed at ``stamps_s`` (``perf_counter``
        readings taken inside it, by another process if need be).

        ``cpu_s[i]`` is the CPU that belongs to the step ending at
        ``stamps_s[i]``; whatever CPU the stage used beyond those goes to
        the step that follows the last stamp.
        """
        stage, wall, cpu = self.steps.pop()
        span = next(s for s in reversed(self.spans) if s["name"] == stage)
        edges = [span["start_s"], *stamps_s, span["end_s"]]
        if any(b < a for a, b in zip(edges, edges[1:])) or len(cpu_s) != len(stamps_s):
            raise ValueError(f"stamps do not lie in order inside the {stage} span")
        walls = [b - a for a, b in zip(edges, edges[1:])]
        self.steps += [(stage, w, c) for w, c in zip(walls, [*cpu_s, cpu - sum(cpu_s)])]
        assert abs(sum(walls) - wall) < 1e-6

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part its child spans cover, by span id."""
        out = {s["id"]: s["end_s"] - s["start_s"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end_s"] - s["start_s"]
        return out


def floor_of_passes(passes: list[list[tuple[str, float, float]]]) -> list[tuple[str, float, float]]:
    """Step by step, the fastest wall and the least CPU over identical passes.

    The passes do the same work in the same steps, so the only thing
    that differs between two readings of one step is what else the host
    was doing — and that only ever adds time. The host's interference
    comes in bursts shorter than a second, so among a handful of
    readings of a short step one is almost always clean, while a whole
    pass never is. The sum of the per-step minima is therefore the
    steadiest estimate of what the pass costs on an idle host.
    """
    stages = [[stage for stage, _, _ in steps] for steps in passes]
    if any(s != stages[0] for s in stages):
        raise ValueError("passes over the same inputs took different steps")
    return [
        (stage, min(p[i][1] for p in passes), min(p[i][2] for p in passes))
        for i, stage in enumerate(stages[0])
    ]


def module_of(filename: str, package_dir: str) -> str | None:
    """``<package_dir>/netsim/link.py`` -> ``netsim.link``; None outside it."""
    prefix = package_dir.rstrip("/") + "/"
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    rel = filename[len(prefix) : -len(".py")].split("/")
    if rel[-1] == "__init__":
        rel.pop()
    name = ".".join(rel) or "repro"
    for collapsed in _COLLAPSED:
        if name == collapsed or name.startswith(collapsed + "."):
            return collapsed
    return name


def attribute_profile(
    stats: dict, package_dir: str
) -> tuple[dict[str, float], dict[str, dict[str, int]]]:
    """Self seconds per repro module from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    where ``callers`` maps each caller to ``(nc, cc, tt, ct)`` — the
    callee's self time ``tt`` spent on behalf of that caller. A function
    in a repro module keeps its own self time. A builtin or library
    function (``heapq.heappush``, a numpy ufunc, ``pickle.dumps``) hands
    its self time to whoever called it, transitively, until a repro
    module is reached: the time is that module's cost even though the
    interpreter ran it elsewhere. Time with no repro ancestor is
    ``other``. ``package_dir`` is where the ``repro`` package lives.
    Returns ``(self_s by module, calls by module and function name)``;
    the module values sum to the profile's total self time.
    """
    owner_cache: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple, seen: frozenset) -> dict[str, float]:
        """Which modules a non-repro function works for, as shares of 1."""
        module = module_of(func[0], package_dir)
        if module is not None:
            return {module: 1.0}
        if func in owner_cache:
            return owner_cache[func]
        if func in seen or func not in stats:
            return {OTHER: 1.0}
        callers = stats[func][4]
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(v[0]) for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            return {OTHER: 1.0}
        shares: dict[str, float] = {}
        for caller, weight in weights.items():
            for module, share in owners(caller, seen | {func}).items():
                shares[module] = shares.get(module, 0.0) + share * weight / total
        if not seen:
            # Only a walk that started here saw every caller un-pruned.
            owner_cache[func] = shares
        return shares

    self_s: dict[str, float] = {}
    calls: dict[str, dict[str, int]] = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        shares = owners(func, frozenset())
        for module, share in shares.items():
            self_s[module] = self_s.get(module, 0.0) + tt * share
        if module_of(func[0], package_dir) is not None:
            by_name = calls.setdefault(next(iter(shares)), {})
            by_name[func[2]] = by_name.get(func[2], 0) + nc
    return self_s, calls
