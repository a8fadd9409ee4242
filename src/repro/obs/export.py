"""Snapshot exporters: JSON documents and Prometheus exposition text.

A snapshot is a plain-data view of every instrument in a registry —
counters, vectors, high-water gauges, histograms and span timers —
plus caller-provided metadata (scenario, seed, scale).
The JSON form is the machine-readable artifact the ``trace`` CLI and
``--obs-out`` benchmark plumbing write; the Prometheus form lets a
long-running online simulation be scraped with standard tooling.
"""

from __future__ import annotations

import json
import re

from . import names as _names
from .registry import Registry, get_registry

__all__ = ["snapshot", "to_json", "to_prometheus", "write_snapshot"]

#: Schema version of the JSON snapshot document (2: no ``series`` key).
SNAPSHOT_VERSION = 2


def snapshot(registry: Registry | None = None, meta: dict | None = None) -> dict:
    """Every instrument of ``registry`` as one plain-data dict."""
    reg = registry if registry is not None else get_registry()
    return {
        "version": SNAPSHOT_VERSION,
        "meta": dict(meta or {}),
        "counters": {n: c.value for n, c in sorted(reg.counters().items())},
        "vectors": {
            n: {"size": v.size, "sum": v.total, "values": v.values.tolist()}
            for n, v in sorted(reg.vectors().items())
        },
        "gauges": {
            n: {"size": g.size, "values": g.values.tolist()}
            for n, g in sorted(reg.gauges().items())
        },
        "histograms": {
            n: {
                "bounds": list(h.bounds),
                "bucket_counts": h.counts.tolist(),
                "count": h.count,
                "sum": h.sum,
            }
            for n, h in sorted(reg.histograms().items())
        },
        "timers": {
            n: {"count": t.count, "total_s": t.total_s, "mean_s": t.mean_s}
            for n, t in sorted(reg.timers().items())
        },
    }


def to_json(
    registry: Registry | None = None, meta: dict | None = None, indent: int | None = 2
) -> str:
    """The snapshot as a JSON document string."""
    return json.dumps(snapshot(registry, meta), indent=indent, sort_keys=False)


_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    return f"{prefix}_{_PROM_SANITIZE.sub('_', name)}"


def to_prometheus(registry: Registry | None = None, prefix: str = "repro") -> str:
    """The snapshot in Prometheus text exposition format.

    Every metric family carries a ``# HELP`` line (text from
    :data:`repro.obs.names.HELP`) followed by its ``# TYPE``. Vectors
    and gauges emit one sample per index (label ``index``) plus a
    ``_sum`` aggregate; histograms use the cumulative-``le`` bucket
    convention; timers emit ``_seconds_total`` and ``_spans_total``
    counter families.
    """
    reg = registry if registry is not None else get_registry()
    out: list[str] = []

    def head(m: str, name: str, kind: str) -> None:
        out.append(f"# HELP {m} {_prom_escape(_names.help_for(name))}")
        out.append(f"# TYPE {m} {kind}")

    for name, c in sorted(reg.counters().items()):
        m = _prom_name(name, prefix)
        head(m, name, "counter")
        out.append(f"{m} {_fmt(c.value)}")
    for name, v in sorted(reg.vectors().items()):
        m = _prom_name(name, prefix)
        head(m, name, "counter")
        out.append(f"{m}_sum {_fmt(v.total)}")
        for i, val in enumerate(v.values):
            out.append(f'{m}{{index="{i}"}} {_fmt(val)}')
    for name, g in sorted(reg.gauges().items()):
        m = _prom_name(name, prefix)
        head(m, name, "gauge")
        for i, val in enumerate(g.values):
            out.append(f'{m}{{index="{i}"}} {_fmt(val)}')
    for name, h in sorted(reg.histograms().items()):
        m = _prom_name(name, prefix)
        head(m, name, "histogram")
        cumulative = 0
        for bound, n in zip(h.bounds, h.counts):
            cumulative += int(n)
            out.append(f'{m}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        out.append(f'{m}_bucket{{le="+Inf"}} {h.count}')
        out.append(f"{m}_sum {_fmt(h.sum)}")
        out.append(f"{m}_count {h.count}")
    for name, t in sorted(reg.timers().items()):
        m = _prom_name(name, prefix)
        head(f"{m}_seconds_total", name, "counter")
        out.append(f"{m}_seconds_total {_fmt(t.total_s)}")
        head(f"{m}_spans_total", name, "counter")
        out.append(f"{m}_spans_total {t.count}")
    return "\n".join(out) + "\n"


def _prom_escape(text: str) -> str:
    """Escape a ``# HELP`` body per the text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Render a number without a trailing ``.0`` for integral values."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def write_snapshot(
    path: str,
    registry: Registry | None = None,
    meta: dict | None = None,
    fmt: str = "json",
) -> None:
    """Write the snapshot to ``path`` as ``json`` or ``prom`` text."""
    if fmt == "json":
        payload = to_json(registry, meta)
    elif fmt == "prom":
        payload = to_prometheus(registry)
    else:
        raise ValueError(f"unknown snapshot format {fmt!r}; expected 'json' or 'prom'")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
