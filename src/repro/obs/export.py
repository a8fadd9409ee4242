"""Snapshot exporters: JSON documents and Prometheus exposition text.

A snapshot is a plain-data view of every instrument in a registry —
its counters and vectors — plus caller-provided metadata (scenario,
seed, scale).
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

#: Schema version of the JSON snapshot document (2: no ``series`` key;
#: 3: no ``gauges``, ``histograms`` or ``timers``).
SNAPSHOT_VERSION = 3


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
    emit one sample per index (label ``index``) plus a ``_sum``
    aggregate.
    """
    reg = registry if registry is not None else get_registry()
    out: list[str] = []

    def head(m: str, name: str) -> None:
        out.append(f"# HELP {m} {_prom_escape(_names.help_for(name))}")
        out.append(f"# TYPE {m} counter")

    for name, c in sorted(reg.counters().items()):
        m = _prom_name(name, prefix)
        head(m, name)
        out.append(f"{m} {_fmt(c.value)}")
    for name, v in sorted(reg.vectors().items()):
        m = _prom_name(name, prefix)
        head(m, name)
        out.append(f"{m}_sum {_fmt(v.total)}")
        for i, val in enumerate(v.values):
            out.append(f'{m}{{index="{i}"}} {_fmt(val)}')
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
