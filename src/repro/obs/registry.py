"""Process-global instrument registry for runtime observability.

The registry is the single rendezvous point between *instrumented code*
(the engines, the packet simulator, the coordinator, the fault injector)
and *consumers* (exporters, the distributed merge, the ``trace`` CLI).
Design constraints, in order:

1. **One count, one owner.** A count a component already keeps is read
   off it (:meth:`Registry.read`), never copied on the hop, so a read is
   exact wherever a checkpoint or a replay leaves the owner. Nothing
   writes into the registry: besides its reads it holds only the values
   pickled and merged in from other processes.
2. **Free when disabled.** A component registers its reads once, at
   construction; the hot path never touches the registry. A disabled
   registry keeps no owner alive.
3. **Zero dependencies.** Only the standard library and numpy.
4. **Deterministic.** Every count is a *simulated* quantity and exactly
   reproducible; wall-clock measurements live on the tracer's measured
   channel (:mod:`repro.obs.trace`), not here.

Reads accumulate per process; call :meth:`Registry.reset` (or use
:func:`observed_run`) to scope a snapshot to one run. A reset drops
everything the registry holds, so build what a run reads after it.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from .counters import Counter, VectorCounter, holding

__all__ = [
    "Registry",
    "get_registry",
    "enable",
    "disable",
    "reset",
    "observed_run",
]


class Registry:
    """Named reads behind one enable flag.

    Parameters
    ----------
    enabled:
        Initial state; the process-global registry starts disabled, so
        a component built outside an observed run keeps no owner alive.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: values pickled or merged in from another registry
        self._counters: dict[str, Counter] = {}
        self._vectors: dict[str, VectorCounter] = {}
        #: name -> (the zero of its kind and size, the owners' reads)
        self._reads: dict[str, tuple[Any, list[Callable[[], Any]]]] = {}

    # ------------------------------------------------------------------
    # State control
    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Turn observation on (reads keep their owners)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn observation off (later reads keep no owner)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every read, with its owner, and every merged value."""
        self._counters.clear()
        self._vectors.clear()
        self._reads.clear()

    def merge_from(self, other: "Registry") -> None:
        """Fold every instrument of ``other`` into this registry.

        A name both registries hold merges through the instrument's own
        ``merge_from``; a name only ``other`` holds is copied in whole
        (a read as its value). The copies share no array with ``other``.
        """
        for mine, theirs in ((self._counters, other.counters()),
                             (self._vectors, other.vectors())):
            for name, inst in theirs.items():
                if name in mine:
                    mine[name].merge_from(inst)
                else:
                    mine[name] = copy.deepcopy(inst)

    def __getstate__(self) -> dict:
        """Values, not owners: a read pickles as what it reads now."""
        return {**vars(self), "_counters": self.counters(), "_vectors": self.vectors(),
                "_reads": {}}

    def read(self, name: str, fn: Callable[[], Any]) -> None:
        """Register ``fn`` as a read of the count ``name``, which its owner keeps.

        ``fn`` takes no argument and returns the owner's current count:
        a number, or one array per node, link, LP or shard. Consumers
        see the sum of the reads under ``name`` (plus a merged value of
        that name) as a float64 :class:`Counter` or
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

    def _with_reads(self, merged: dict, vector: bool) -> dict:
        """``merged`` plus a fresh instrument per read name of that kind."""
        out = dict(merged)
        for name, (zero, reads) in self._reads.items():
            if bool(np.ndim(zero)) != vector:
                continue
            inst = holding(name, sum((_count(fn()) for fn in reads), copy.copy(zero)))
            if name in merged:
                inst.merge_from(merged[name])
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

    def counters(self) -> dict[str, Counter]:
        """All scalar counters by name (merged values, reads taken fresh)."""
        return self._with_reads(self._counters, vector=False)

    def vectors(self) -> dict[str, VectorCounter]:
        """All vector counters by name (merged values, reads taken fresh)."""
        return self._with_reads(self._vectors, vector=True)


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
    """Drop everything the process-global registry holds."""
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
