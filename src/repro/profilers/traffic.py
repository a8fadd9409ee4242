"""Traffic profiling (the PROF approaches' input).

"Typically profiling involves an initial simulation experiment using a
naive initial partition and traffic monitoring. The simulation yields
detailed traffic information, and improves subsequent network
partitions." A :class:`TrafficProfile` captures exactly that: per-node
simulation-event counts (the load signal) and per-link packet/byte
volumes (the cut-cost signal). :func:`node_rate_series` bins a recorded
event trace into Figure 3's "load variation over the lifetime of
simulation".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TrafficProfile", "node_rate_series"]


@dataclass(frozen=True)
class TrafficProfile:
    """Measured traffic of a (profiling) simulation run."""

    #: packets handled per node (one kernel event per packet-hop)
    node_events: np.ndarray
    #: bytes carried per link (both directions)
    link_bytes: np.ndarray
    #: packets carried per link
    link_packets: np.ndarray
    #: profiled simulated duration (seconds)
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("profile duration must be positive")
        for name in ("node_events", "link_bytes", "link_packets"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise ValueError(
                    f"{name} must be a 1-D per-{'node' if name == 'node_events' else 'link'} "
                    f"array, got shape {arr.shape}"
                )
            if np.any(arr < 0):
                raise ValueError(f"{name} must be non-negative")
        if len(self.link_bytes) != len(self.link_packets):
            raise ValueError(
                f"link_bytes ({len(self.link_bytes)} links) and link_packets "
                f"({len(self.link_packets)} links) describe different link sets"
            )

    @property
    def num_nodes(self) -> int:
        """Number of nodes the profile describes."""
        return len(self.node_events)

    @property
    def num_links(self) -> int:
        """Number of links the profile describes."""
        return len(self.link_bytes)

    def validate_topology(self, num_nodes: int, num_links: int) -> None:
        """Cross-check the profile's shape against a topology's.

        A profile recorded on one network silently mis-weights another:
        raises ``ValueError`` naming the mismatched dimension instead of
        letting the weight builders index out of bounds (or worse, *not*
        out of bounds on a differently-sized network).
        """
        if self.num_nodes != num_nodes:
            raise ValueError(
                f"profile covers {self.num_nodes} nodes but the topology has "
                f"{num_nodes}; it was measured on a different network"
            )
        if self.num_links != num_links:
            raise ValueError(
                f"profile covers {self.num_links} links but the topology has "
                f"{num_links}; it was measured on a different network"
            )

    @classmethod
    def from_simulation(cls, sim, duration_s: float) -> "TrafficProfile":
        """Snapshot the counters of a :class:`NetworkSimulator` run."""
        return cls(
            node_events=sim.node_packets.astype(np.float64),
            link_bytes=sim.link_bytes(),
            link_packets=np.asarray(sim.link_packets(), dtype=np.float64),
            duration_s=float(duration_s),
        )

    @property
    def total_events(self) -> float:
        """Total profiled kernel events across all nodes."""
        return float(self.node_events.sum())


def node_rate_series(
    times: np.ndarray,
    nodes: np.ndarray,
    groups: np.ndarray,
    num_groups: int,
    bin_s: float,
    end_time: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Binned event-rate time series per node group (Figure 3).

    ``groups[node]`` assigns each node to a series (e.g. an LP of a
    partition); returns ``(bin_start_times, rates[bins, num_groups])`` in
    events/second.
    """
    if bin_s <= 0 or end_time <= 0:
        raise ValueError("bin_s and end_time must be positive")
    times = np.asarray(times, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    num_bins = int(np.ceil(end_time / bin_s - 1e-12))
    counts = np.zeros((num_bins, num_groups), dtype=np.float64)
    keep = (times < end_time) & (nodes >= 0)
    if keep.any():
        t, n = times[keep], nodes[keep]
        b = np.minimum((t / bin_s).astype(np.int64), num_bins - 1)
        np.add.at(counts, (b, groups[n]), 1.0)
    starts = np.arange(num_bins) * bin_s
    return starts, counts / bin_s
