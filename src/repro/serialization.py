"""Persistence: networks and results as JSON, cross-process payloads.

Networks serialize to a JSON document (nodes, links, AS domains — the
same information architecture as MaSSF's DML input files) that
re-loads into an identical simulation input; experiment results to
JSON. The multi-process backend ships every payload through the
versioned wire codec at the end of this module.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any

from .topology.models import ASTier, Network, NodeKind

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "encode_payload",
    "decode_payload",
    "encode_mail_batch",
    "decode_mail_batch",
    "PayloadFormatError",
]

FORMAT_VERSION = 1

#: Wire-format version for cross-process payloads (mail batches, worker
#: configs, result envelopes). Bumped whenever the tuple layout of a mail
#: item changes, so a version skew between controller and worker fails
#: loudly instead of mis-decoding.
WIRE_VERSION = 1

#: Magic prefix identifying a repro cross-process payload.
_WIRE_MAGIC = b"RPW"


class PayloadFormatError(ValueError):
    """A cross-process payload had the wrong magic or wire version."""


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
def network_to_dict(net: Network) -> dict[str, Any]:
    """A JSON-serializable description of the whole network."""
    return {
        "format_version": FORMAT_VERSION,
        "nodes": [
            {
                "id": n.node_id,
                "kind": n.kind.value,
                "as_id": n.as_id,
                "position": list(n.position),
            }
            for n in net.nodes
        ],
        "links": [
            {
                "id": l.link_id,
                "u": l.u,
                "v": l.v,
                "bandwidth_bps": l.bandwidth_bps,
                "latency_s": l.latency_s,
                "queue_bytes": l.queue_bytes,
            }
            for l in net.links
        ],
        "as_domains": [
            {
                "as_id": d.as_id,
                "tier": d.tier.value,
                "routers": list(d.routers),
                "hosts": list(d.hosts),
                "providers": sorted(d.providers),
                "customers": sorted(d.customers),
                "peers": sorted(d.peers),
                "border_links": {
                    str(nbr): [list(pair) for pair in pairs]
                    for nbr, pairs in d.border_links.items()
                },
                "default_routes": [list(r) for r in d.default_routes],
            }
            for d in net.as_domains.values()
        ],
    }


def network_from_dict(doc: dict[str, Any]) -> Network:
    """Rebuild a :class:`Network` from :func:`network_to_dict` output."""
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported network format version {version!r}")
    net = Network()
    for entry in doc["nodes"]:
        node_id = net.add_node(
            NodeKind(entry["kind"]),
            as_id=entry["as_id"],
            position=tuple(entry["position"]),
        )
        if node_id != entry["id"]:
            raise ValueError("node ids must be dense and ordered")
    for entry in doc["links"]:
        net.add_link(
            entry["u"],
            entry["v"],
            entry["bandwidth_bps"],
            entry["latency_s"],
            entry["queue_bytes"],
        )
    for entry in doc["as_domains"]:
        dom = net.add_as(entry["as_id"], ASTier(entry["tier"]))
        dom.routers = list(entry["routers"])
        dom.hosts = list(entry["hosts"])
        dom.providers = set(entry["providers"])
        dom.customers = set(entry["customers"])
        dom.peers = set(entry["peers"])
        dom.border_links = {
            int(nbr): [tuple(pair) for pair in pairs]
            for nbr, pairs in entry["border_links"].items()
        }
        dom.default_routes = [tuple(r) for r in entry["default_routes"]]
    return net


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def result_to_dict(result) -> dict[str, Any]:
    """Serialize an :class:`repro.experiments.ExperimentResult` summary."""
    return {
        "format_version": FORMAT_VERSION,
        "network_kind": result.network_kind,
        "app_kind": result.app_kind,
        "scale": result.scale_name,
        "num_engines": result.num_engines,
        "total_events": result.total_events,
        "duration_s": result.duration_s,
        "http_responses": getattr(result, "http_responses", 0),
        "apps_finished": getattr(result, "apps_finished", False),
        "rows": [row.as_dict() for row in result.rows],
    }


def result_from_dict(doc: dict[str, Any]):
    """Read a :func:`result_to_dict` summary back: rows carry the four
    figure metrics only, no prediction and no mapping."""
    from .core.approaches import Approach
    from .experiments.runner import ApproachRow, ExperimentResult

    rows = [
        ApproachRow(Approach(row["approach"]), row["sim_time_s"], row["achieved_mll_ms"],
                    row["load_imbalance"], row["parallel_efficiency"])
        for row in doc["rows"]
    ]
    return ExperimentResult(
        doc["network_kind"], doc["app_kind"], doc["scale"], doc["num_engines"],
        doc["total_events"], doc["duration_s"], rows,
        http_responses=doc["http_responses"], apps_finished=doc["apps_finished"],
    )


def save_result(result, path: str | Path) -> None:
    """Write an experiment-result summary to a JSON file."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2))


# ----------------------------------------------------------------------
# Cross-process wire payloads (multi-process conservative backend)
# ----------------------------------------------------------------------
def encode_payload(obj: Any) -> bytes:
    """Serialize ``obj`` for transport across a process boundary.

    Every object the multi-process backend ships between controller and
    workers — worker configs, barrier mail, LP migrations, checkpoints,
    replay logs, result envelopes — goes through this one choke
    point: a versioned, magic-prefixed pickle.
    The version header turns controller/worker skew into a
    :class:`PayloadFormatError` instead of silent corruption, and the
    single entry point is what the SIM203 closure rule protects — only
    module-level functions and bound methods of picklable objects
    survive this call, never lambdas or nested closures.
    """
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _WIRE_MAGIC + bytes([WIRE_VERSION]) + body


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`, validating magic and version."""
    if len(data) < len(_WIRE_MAGIC) + 1 or not data.startswith(_WIRE_MAGIC):
        raise PayloadFormatError(
            "not a repro wire payload (bad magic); controller and worker "
            "must both serialize through repro.serialization"
        )
    version = data[len(_WIRE_MAGIC)]
    if version != WIRE_VERSION:
        raise PayloadFormatError(
            f"wire version mismatch: payload v{version}, this process "
            f"speaks v{WIRE_VERSION}"
        )
    return pickle.loads(data[len(_WIRE_MAGIC) + 1 :])


def encode_mail_batch(items: list[tuple]) -> bytes:
    """Serialize one barrier window's cross-shard mail for one destination.

    Each item is ``(target_lp, node, time, key, handler_name, args)``
    with ``key`` the event's ``(epoch, lane, counter)`` tiebreak tuple.
    Handlers cross the boundary *by registered name*, never as code
    objects — the receiving shard resolves the name against its own
    replica of the scenario, which is what keeps the wire format small
    and the closure rule enforceable.
    """
    return encode_payload(list(items))


def decode_mail_batch(data: bytes) -> list[tuple]:
    """Inverse of :func:`encode_mail_batch`."""
    items = decode_payload(data)
    if not isinstance(items, list):
        raise PayloadFormatError("mail batch payload must decode to a list")
    return items
