"""Determinism lint rules: unseeded randomness and wall-clock reads.

The simulator's claims (load-balance improvements, valley-free routing)
are only testable if a run is a pure function of its inputs and seed.
These rules catch the two classic leaks: global/unseeded RNG state and
wall-clock reads, anywhere in the package but the observability layer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .rules import ModuleContext, Severity, rule

__all__ = ["check_unseeded_random", "check_wall_clock"]

#: Functions of the stdlib ``random`` module that draw from (or mutate)
#: the hidden global generator.
_STDLIB_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "sample",
        "shuffle", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "gammavariate", "lognormvariate", "paretovariate",
        "weibullvariate", "triangular", "vonmisesvariate", "getrandbits",
        "seed",
    }
)

#: Legacy ``numpy.random`` module-level functions (global RandomState).
_NUMPY_GLOBAL_FUNCS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "uniform", "normal",
        "standard_normal", "exponential", "poisson", "binomial", "beta",
        "gamma", "seed", "bytes", "random_integers",
    }
)

#: numpy constructors that are only deterministic when given a seed.
_NUMPY_SEEDED_CTORS = frozenset({"default_rng", "RandomState", "SeedSequence"})

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.localtime", "time.gmtime", "time.clock",
    }
)
_WALL_CLOCK_SUFFIXES = (
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
)


def _has_seed_argument(node: ast.Call) -> bool:
    positional = [a for a in node.args if not isinstance(a, ast.Starred)]
    if any(isinstance(a, ast.Starred) for a in node.args):
        return True  # can't see through *args; give the benefit of the doubt
    if positional and not (
        isinstance(positional[0], ast.Constant) and positional[0].value is None
    ):
        return True
    return any(kw.arg in ("seed", "entropy") for kw in node.keywords)


@rule("SIM101", "unseeded-random", Severity.ERROR, scope=("repro/",))
def check_unseeded_random(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Global or unseeded RNG use anywhere in the package.

    Flags stdlib ``random.*`` draws, legacy ``numpy.random.*``
    module-level draws, and ``default_rng()`` / ``RandomState()`` /
    ``SeedSequence()`` constructed without a seed. The fix is to thread
    an explicit ``numpy.random.Generator`` parameter.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted_name(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in _STDLIB_RANDOM_FUNCS:
                yield node, (
                    f"call to stdlib global RNG `{dotted}()`; "
                    "thread an explicit numpy.random.Generator instead"
                )
            elif parts[1] == "Random" and not _has_seed_argument(node):
                yield node, "`random.Random()` constructed without a seed"
        elif dotted.startswith("numpy.random."):
            tail = parts[-1]
            if tail in _NUMPY_SEEDED_CTORS:
                if not _has_seed_argument(node):
                    yield node, (
                        f"`numpy.random.{tail}()` constructed without a seed; "
                        "pass one derived from the run's seed"
                    )
            elif tail in _NUMPY_GLOBAL_FUNCS and len(parts) == 3:
                yield node, (
                    f"legacy global-state call `{dotted}()`; "
                    "use an explicit numpy.random.Generator"
                )


#: The sanctioned home of every wall-clock read in the package.
_OBS_PACKAGE = "repro/obs"


@rule("SIM102", "wall-clock", Severity.ERROR, scope=("repro/",))
def check_wall_clock(ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    """Wall-clock reads anywhere in the package outside ``repro/obs``.

    Simulated components must only observe *simulated* time
    (``sim.now``); a wall-clock read makes event outcomes depend on host
    speed and destroys repeatability. Measurement goes through
    ``repro.obs.timers.Stopwatch``, from the one package allowed to read
    the clock, so timing stays out of simulated behaviour.
    """
    if _OBS_PACKAGE in ctx.rel_path:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted_name(node.func)
        if dotted is None:
            continue
        if dotted in _WALL_CLOCK_CALLS or dotted.endswith(_WALL_CLOCK_SUFFIXES):
            yield node, (
                f"wall-clock read `{dotted}()` outside repro.obs; simulated "
                "code reads `sim.now`, measurement uses "
                "`repro.obs.timers.Stopwatch`"
            )
