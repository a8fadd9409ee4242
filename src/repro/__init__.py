"""repro — reproduction of "Realistic Large-Scale Online Network Simulation".

Liu & Chien, SC 2004 (MaSSF / MicroGrid). The package implements:

- :mod:`repro.partition` — METIS-like multilevel graph partitioner,
- :mod:`repro.topology` — BRITE/maBrite Internet-like topology generation,
- :mod:`repro.routing` — OSPF intra-AS and BGP4 policy inter-AS routing,
- :mod:`repro.engine` — conservative parallel discrete-event engine + cluster
  cost model,
- :mod:`repro.netsim` — packet-level network models (IP/UDP/TCP, traffic apps),
- :mod:`repro.online` — online (live-traffic) simulation layer,
- :mod:`repro.profilers` — traffic profiling,
- :mod:`repro.obs` — runtime observability (instrument registry, event
  traces, JSON/Prometheus exporters),
- :mod:`repro.core` — the paper's contribution: TOP/PROF/HTOP/HPROF load
  balance and the hierarchical Tmll sweep,
- :mod:`repro.metrics`, :mod:`repro.cluster`, :mod:`repro.experiments` —
  evaluation metrics, cluster model, and the paper's experiment pipelines.

Quickstart
----------
>>> from repro import generate_flat_network, MappingPipeline, Approach
>>> net = generate_flat_network(num_routers=200, num_hosts=50, seed=1)
>>> pipeline = MappingPipeline.for_network(net, num_engines=8)
>>> mapping = pipeline.run(Approach.HPROF)
"""

from importlib import metadata as _metadata

try:  # pragma: no cover - version resolution
    __version__ = _metadata.version("repro")
except _metadata.PackageNotFoundError:  # pragma: no cover
    __version__ = "0.0.0.dev0"

# Lazy top-level API (PEP 562): keeps `import repro.partition` cheap and
# avoids import cycles while subpackages are developed/tested in isolation.
_LAZY = {
    "Approach": ("repro.core", "Approach"),
    "MappingPipeline": ("repro.core", "MappingPipeline"),
    "NetworkMapping": ("repro.core", "NetworkMapping"),
    "generate_flat_network": ("repro.topology", "generate_flat_network"),
    "generate_multi_as_network": ("repro.topology", "generate_multi_as_network"),
    "WeightedGraph": ("repro.partition", "WeightedGraph"),
    "partition_kway": ("repro.partition", "partition_kway"),
    "observed_run": ("repro.obs", "observed_run"),
}

__all__ = ["__version__", *sorted(_LAZY)]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
