"""Persistence: save/load networks, traffic profiles, mappings, results.

Networks serialize to a JSON document (nodes, links, AS domains — the
same information architecture as MaSSF's DML input files); traffic
profiles to compressed ``.npz``; mappings and experiment results to JSON.
Everything round-trips: a saved network re-loads into an identical
simulation input, so expensive generated topologies and profiling runs
can be reused across sessions.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any

import numpy as np

from .core.approaches import Approach
from .core.mapping import NetworkMapping
from .profilers.traffic import TrafficProfile
from .topology.models import ASTier, Network, NodeKind

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
    "save_profile",
    "load_profile",
    "mapping_to_dict",
    "save_mapping",
    "load_mapping_assignment",
    "result_to_dict",
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


def save_network(net: Network, path: str | Path) -> None:
    """Write a network to a JSON file."""
    Path(path).write_text(json.dumps(network_to_dict(net)))


def load_network(path: str | Path) -> Network:
    """Read a network from a JSON file written by :func:`save_network`."""
    return network_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Traffic profiles
# ----------------------------------------------------------------------
def save_profile(profile: TrafficProfile, path: str | Path) -> None:
    """Write a traffic profile to compressed ``.npz``."""
    np.savez_compressed(
        Path(path),
        node_events=profile.node_events,
        link_bytes=profile.link_bytes,
        link_packets=profile.link_packets,
        duration_s=np.asarray(profile.duration_s),
    )


def load_profile(path: str | Path) -> TrafficProfile:
    """Read a traffic profile from ``.npz``."""
    with np.load(Path(path)) as data:
        return TrafficProfile(
            node_events=data["node_events"],
            link_bytes=data["link_bytes"],
            link_packets=data["link_packets"],
            duration_s=float(data["duration_s"]),
        )


# ----------------------------------------------------------------------
# Mappings and results
# ----------------------------------------------------------------------
def mapping_to_dict(mapping: NetworkMapping) -> dict[str, Any]:
    """A JSON-serializable summary of a mapping (assignment + scores)."""
    ev = mapping.evaluation
    return {
        "format_version": FORMAT_VERSION,
        "approach": mapping.approach.value,
        "num_engines": mapping.num_engines,
        "assignment": mapping.assignment.tolist(),
        "tmll_s": mapping.tmll_s,
        "evaluation": {
            "mll_s": ev.mll_s if np.isfinite(ev.mll_s) else None,
            "es": ev.es,
            "ec": ev.ec,
            "efficiency": ev.efficiency,
            "predicted_imbalance": ev.predicted_imbalance,
            "edge_cut": ev.edge_cut,
        },
        "sweep": [
            {
                "tmll_s": rec.tmll_s,
                "coarse_vertices": rec.coarse_vertices,
                "efficiency": rec.evaluation.efficiency,
            }
            for rec in mapping.sweep
        ],
    }


def save_mapping(mapping: NetworkMapping, path: str | Path) -> None:
    """Write a mapping to a JSON file."""
    Path(path).write_text(json.dumps(mapping_to_dict(mapping)))


def load_mapping_assignment(path: str | Path) -> tuple[Approach, np.ndarray, int]:
    """Load the deployable part of a saved mapping: the approach, the
    node -> engine assignment, and the engine count."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported mapping format version")
    return (
        Approach(doc["approach"]),
        np.asarray(doc["assignment"], dtype=np.int64),
        int(doc["num_engines"]),
    )


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
    replay buffers, result envelopes — goes through this one choke
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
