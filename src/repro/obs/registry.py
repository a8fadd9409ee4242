"""Process-global instrument registry for runtime observability.

The registry is the single rendezvous point between *instrumented code*
(the engines, the packet simulator, BGP) and *consumers* (exporters,
the distributed merge, the ``trace`` CLI). Design constraints, in order:

1. **Cheap when disabled.** Instrumented code resolves its instruments
   once, at construction time (that is where the name -> instrument
   dict lookup happens); every hot-path write afterwards is a single
   attribute load plus a boolean guard. A disabled registry therefore
   costs one predictable branch per hook point and performs *no state
   writes at all* (``tests/test_obs_overhead.py`` enforces this).
2. **Zero dependencies.** Only the standard library and numpy.
3. **Deterministic.** Counters, gauges and histograms record
   *simulated* quantities and are exactly reproducible; only span
   timers read the wall clock (:mod:`repro.obs.timers` is the one
   sanctioned call site of ``time.perf_counter`` — simlint rule SIM102
   flags any other).
4. **One count, one owner.** A count a component already keeps is read
   off it (:meth:`Registry.read`), never copied on the hop, so a read is
   exact wherever a checkpoint or a replay leaves the owner.

Instruments are accumulated per process; call :meth:`Registry.reset`
(or use :func:`observed_run`) to scope a snapshot to one run; a reset
also drops the reads, so build what a run reads after it.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from .counters import Counter, Histogram, MaxGauge, VectorCounter, holding
from .timers import SpanTimer

__all__ = [
    "Registry",
    "get_registry",
    "enable",
    "disable",
    "reset",
    "observed_run",
]


class Registry:
    """Named instruments behind one enable flag.

    Parameters
    ----------
    enabled:
        Initial state; the process-global registry starts disabled so
        un-instrumented workloads pay only the guard branch.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._vectors: dict[str, VectorCounter] = {}
        self._gauges: dict[str, MaxGauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timers: dict[str, SpanTimer] = {}
        #: name -> (the zero of its kind and size, the owners' reads)
        self._reads: dict[str, tuple[Any, list[Callable[[], Any]]]] = {}

    # ------------------------------------------------------------------
    # State control
    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Turn instrumentation on (writes start recording)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn instrumentation off (writes become no-ops)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every instrument, keeping registrations and sizes; drop the
        reads, with their owners."""
        for group in self._groups():
            for inst in group.values():
                inst.reset()
        self._reads.clear()

    def clear(self) -> None:
        """Drop every instrument registration entirely."""
        for group in self._groups():
            group.clear()
        self._reads.clear()

    def merge_from(self, other: "Registry") -> None:
        """Fold every instrument of ``other`` into this registry.

        A name both registries hold merges through the instrument's own
        ``merge_from``; a name only ``other`` holds is copied in whole
        (a read as its value). Never goes through the factories below:
        they replace an instrument of a different size, which would drop
        its data. The copies share no array with ``other``.
        """
        groups = (other.counters(), other.vectors(), *other._groups()[2:])
        for mine, theirs in zip(self._groups(), groups):
            for name, inst in theirs.items():
                if name in mine:
                    mine[name].merge_from(inst)
                else:
                    # A deep copy whose registry back-reference is this one.
                    mine[name] = copy.deepcopy(inst, {id(other): self})

    def __getstate__(self) -> dict:
        """Values, not owners: a read pickles as what it reads now."""
        return {**vars(self), "_counters": self.counters(), "_vectors": self.vectors(),
                "_reads": {}}

    def _groups(self) -> tuple[dict, ...]:
        return self._counters, self._vectors, self._gauges, self._histograms, self._timers

    # ------------------------------------------------------------------
    # Instrument factories (idempotent by name; dict lookup happens here,
    # at construction time, never on the write path)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the scalar monotonic counter ``name``."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name, self)
        return inst

    def vector_counter(self, name: str, size: int) -> VectorCounter:
        """Get or create the fixed-size vector counter ``name``.

        A pre-existing instrument with a *different* size is replaced
        (a new simulation over a different topology owns the name); the
        caller is expected to :meth:`reset` between runs it wants to
        keep separate.
        """
        inst = self._vectors.get(name)
        if inst is None or inst.size != size:
            inst = self._vectors[name] = VectorCounter(name, self, size)
        return inst

    def max_gauge(self, name: str, size: int) -> MaxGauge:
        """Get or create the per-index high-water-mark gauge ``name``."""
        inst = self._gauges.get(name)
        if inst is None or inst.size != size:
            inst = self._gauges[name] = MaxGauge(name, self, size)
        return inst

    def histogram(self, name: str, bounds: tuple[float, ...]) -> Histogram:
        """Get or create a histogram with the given upper bucket bounds."""
        inst = self._histograms.get(name)
        if inst is None or inst.bounds != tuple(bounds):
            inst = self._histograms[name] = Histogram(name, self, bounds)
        return inst

    def timer(self, name: str) -> SpanTimer:
        """Get or create the wall-clock span timer ``name``."""
        inst = self._timers.get(name)
        if inst is None:
            inst = self._timers[name] = SpanTimer(name, self)
        return inst

    def read(self, name: str, fn: Callable[[], Any]) -> None:
        """Register ``fn`` as a read of the count ``name``, which its owner keeps.

        ``fn`` takes no argument and returns the owner's current count:
        a number, or one array per node, link, LP or shard. Consumers
        see the sum of the reads under ``name`` (plus a written
        instrument of that name) as a float64 :class:`Counter` or
        :class:`VectorCounter`. ``fn`` is called once here, for the kind
        and size; an array of another size replaces the name's earlier
        reads (another topology owns the name). A disabled registry
        makes the name visible as a zero and holds no owner.
        """
        zero = _count(fn()) * 0.0
        entry = self._reads.get(name)
        if entry is None or np.shape(entry[0]) != np.shape(zero):
            entry = self._reads[name] = (zero, [])
        if self.enabled:
            entry[1].append(fn)

    def _with_reads(self, written: dict, vector: bool) -> dict:
        """``written`` plus a fresh instrument per read name of that kind."""
        out = dict(written)
        for name, (zero, reads) in self._reads.items():
            if bool(np.ndim(zero)) != vector:
                continue
            inst = holding(name, self, sum((_count(fn()) for fn in reads), copy.copy(zero)))
            if name in written:
                inst.merge_from(written[name])
            out[name] = inst
        return out

    # ------------------------------------------------------------------
    # Read access (consumers)
    # ------------------------------------------------------------------
    def get_counter(self, name: str) -> Counter:
        """Look up an existing counter; KeyError with the known names."""
        return _lookup(self.counters(), name, "counter")

    def get_vector(self, name: str) -> VectorCounter:
        """Look up an existing vector counter by name."""
        return _lookup(self.vectors(), name, "vector counter")

    def get_gauge(self, name: str) -> MaxGauge:
        """Look up an existing high-water gauge by name."""
        return _lookup(self._gauges, name, "max gauge")

    def get_histogram(self, name: str) -> Histogram:
        """Look up an existing histogram by name."""
        return _lookup(self._histograms, name, "histogram")

    def get_timer(self, name: str) -> SpanTimer:
        """Look up an existing span timer by name."""
        return _lookup(self._timers, name, "timer")

    def counters(self) -> dict[str, Counter]:
        """All scalar counters by name (written live, read fresh)."""
        return self._with_reads(self._counters, vector=False)

    def vectors(self) -> dict[str, VectorCounter]:
        """All vector counters by name (written live, read fresh)."""
        return self._with_reads(self._vectors, vector=True)

    def gauges(self) -> dict[str, MaxGauge]:
        """All high-water gauges by name (live references)."""
        return dict(self._gauges)

    def histograms(self) -> dict[str, Histogram]:
        """All histograms by name (live references)."""
        return dict(self._histograms)

    def timers(self) -> dict[str, SpanTimer]:
        """All span timers by name (live references)."""
        return dict(self._timers)


def _count(value: Any) -> Any:
    """An owner's count as a float, or a float64 array."""
    return np.asarray(value, dtype=np.float64) if np.ndim(value) else float(value)


def _lookup(group: dict, name: str, kind: str):
    try:
        return group[name]
    except KeyError:
        raise KeyError(
            f"no {kind} named {name!r} is registered; known: {sorted(group)}"
        ) from None


#: The process-global registry every instrumented component binds to.
_GLOBAL = Registry()


def get_registry() -> Registry:
    """The process-global :class:`Registry` (disabled by default)."""
    return _GLOBAL


def enable() -> None:
    """Enable the process-global registry."""
    _GLOBAL.enable()


def disable() -> None:
    """Disable the process-global registry."""
    _GLOBAL.disable()


def reset() -> None:
    """Zero every instrument of the process-global registry."""
    _GLOBAL.reset()


@contextmanager
def observed_run(registry: Registry | None = None) -> Iterator[Registry]:
    """Reset and enable a registry for the duration of a run.

    The canonical way to scope a snapshot to one simulation::

        with observed_run() as reg:
            engine.run(until=duration)
        data = export.snapshot(reg)   # reads are fine after exit

    The previous enabled state is restored on exit, so nesting inside an
    already-observed region does not switch observability off.
    """
    reg = registry if registry is not None else _GLOBAL
    was_enabled = reg.enabled
    reg.reset()
    reg.enable()
    try:
        yield reg
    finally:
        reg.enabled = was_enabled
