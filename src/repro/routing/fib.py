"""Forwarding plane: composes BGP (inter-AS), OSPF (intra-AS), and
stub-AS default routes into per-hop next-node decisions.

This is what the packet simulator queries on every hop. The composition
follows the paper's structure:

- inside an AS, OSPF shortest path;
- between ASes, the BGP best route decides the next-hop AS and the border
  link is chosen hot-potato (the OSPF-closest egress — each router picks
  its own closest exit, which is provably loop-free);
- stub ASes do not carry the full BGP table: external traffic follows the
  default route to the primary provider (paper step 6c), except
  destinations learned from directly attached customers/peers; multi-homed
  stubs fail over to the backup default (step 6d).
"""

from __future__ import annotations

import hashlib

from ..topology.models import ASTier, Network
from .bgp.config import configure_bgp
from .bgp.engine import BgpEngine
from .ospf import OspfRouting

__all__ = ["ForwardingPlane"]


class ForwardingPlane:
    """Per-hop forwarding for a (possibly multi-AS) network.

    Parameters
    ----------
    net:
        The network. Every node's ``as_id`` selects its OSPF domain.
    bgp:
        A converged :class:`BgpEngine`; ``None`` converges one
        (:func:`~repro.routing.bgp.configure_bgp`) when the nodes span
        more than one AS. A single-AS network is pure OSPF.
    """

    def __init__(self, net: Network, bgp: BgpEngine | None = None) -> None:
        self.net = net
        self._ospf: dict[int, OspfRouting] = {}
        members: dict[int, list[int]] = {}
        for node in net.nodes:
            members.setdefault(node.as_id, []).append(node.node_id)
        if bgp is None and len(members) > 1:
            bgp = configure_bgp(net)
        self.bgp = bgp
        for as_id, mem in members.items():
            self._ospf[as_id] = OspfRouting(net, mem)
        # node id -> its OSPF domain: an intra-domain pair goes straight
        # to the domain's tree
        self._domain_of = [self._ospf[node.as_id] for node in net.nodes]
        # _resolved[dest][node] -> next node, for every pair next_hop
        # answered since the last flush; flows hammer the same pairs.
        # One dict per destination, so that recording a pair allocates
        # no key object.
        self._resolved: list[dict[int, int | None]] = [{} for _ in range(net.num_nodes)]
        #: bumped by every :meth:`flush_cache`: whoever keeps decisions
        #: of :meth:`next_hop` (the simulator's hop cache) drops them
        #: when it moves
        self.epoch = 0
        # Inter-AS border links currently out of service (repro.faults),
        # keyed by the canonical (min, max) endpoint pair. Empty on a
        # healthy network: _toward_border pays one truthiness check.
        self._down_borders: set[tuple[int, int]] = set()

    def ospf_domain(self, as_id: int) -> OspfRouting:
        """The OSPF routing domain of one AS."""
        return self._ospf[as_id]

    # ------------------------------------------------------------------
    def next_hop(self, node: int, dest: int) -> int | None:
        """The next node on the path from ``node`` to ``dest``.

        Returns ``None`` for unreachable destinations — under policy
        routing, connectivity does not imply reachability.
        """
        if node == dest:
            return None
        nexts = self._resolved[dest]
        hit = nexts.get(node, _MISS)
        if hit is not _MISS:
            return hit
        result = nexts[node] = self._compute_next_hop(node, dest)
        return result

    @property
    def resolved_pairs(self) -> int:
        """How many ``(node, dest)`` pairs :meth:`next_hop` has answered
        since the last :meth:`flush_cache`: the entries :meth:`digest`
        hashes."""
        return sum(map(len, self._resolved))

    def _compute_next_hop(self, node: int, dest: int) -> int | None:
        domain = self._domain_of[node]
        if domain is self._domain_of[dest]:
            return domain.next_hop(node, dest)
        node_as = self.net.nodes[node].as_id
        dest_as = self.net.nodes[dest].as_id
        next_as = self._select_next_as(node_as, dest_as)
        if next_as is None:
            return None
        return self._toward_border(node, node_as, next_as)

    def _select_next_as(self, node_as: int, dest_as: int) -> int | None:
        """Next-hop AS: BGP best route, or the stub default route."""
        dom = self.net.as_domains[node_as]
        if dom.tier is ASTier.STUB:
            route = self.bgp.route(node_as, dest_as)
            if route is not None and not route.is_local:
                nbr = route.next_hop_as
                if nbr in dom.customers or nbr in dom.peers:
                    return nbr
            # Default route: primary provider, backup for multi-homed stubs.
            for _egress, provider in dom.default_routes:
                if provider in dom.border_links:
                    return provider
            return None
        return self.bgp.next_hop_as(node_as, dest_as)

    def _toward_border(self, node: int, node_as: int, next_as: int) -> int | None:
        """Hot-potato: head for the OSPF-closest egress toward ``next_as``;
        if we *are* that egress, cross the inter-AS link."""
        dom = self.net.as_domains[node_as]
        links = dom.border_links.get(next_as)
        if not links:
            return None
        ospf = self._ospf[node_as]
        down = self._down_borders
        best_pair: tuple[int, int] | None = None
        best_dist = float("inf")
        for local, remote in links:
            if down and (min(local, remote), max(local, remote)) in down:
                continue
            d = ospf.distance(node, local)
            if d < best_dist:
                best_dist = d
                best_pair = (local, remote)
        if best_pair is None or best_dist == float("inf"):
            return None
        local, remote = best_pair
        if node == local:
            return remote
        return ospf.next_hop(node, local)

    # ------------------------------------------------------------------
    # Topology-state changes (repro.faults recovery path)
    # ------------------------------------------------------------------
    def flush_cache(self) -> None:
        """Drop every cached forwarding decision (route recomputation)."""
        for nexts in self._resolved:
            nexts.clear()
        self.epoch += 1

    def set_link_state(self, link_id: int, up: bool) -> None:
        """Propagate a link state change into the routing layers.

        Intra-AS links feed the owning OSPF domain (SPF recomputation);
        inter-AS border links are excluded from (or restored to) the
        hot-potato egress choice. Either way the forwarding cache is
        flushed so every subsequent hop decision sees the new state.
        """
        link = self.net.links[link_id]
        as_u = self.net.nodes[link.u].as_id
        as_v = self.net.nodes[link.v].as_id
        if as_u == as_v:
            self._ospf[as_u].set_link_state(link_id, up)
        else:
            pair = (min(link.u, link.v), max(link.u, link.v))
            if up:
                self._down_borders.discard(pair)
            else:
                self._down_borders.add(pair)
        self.flush_cache()

    def set_node_state(self, node_id: int, up: bool) -> None:
        """Propagate a router/host crash or restart into its OSPF domain."""
        self._ospf[self.net.nodes[node_id].as_id].set_node_state(node_id, up)
        self.flush_cache()

    def route_recompute_stats(self) -> dict[str, int]:
        """Aggregate OSPF recomputation counters across all domains."""
        return {
            "invalidations": sum(d.invalidations for d in self._ospf.values()),
            "trees_built": sum(d.trees_built for d in self._ospf.values()),
        }

    def digest(self) -> str:
        """SHA-256 over the resolved forwarding decisions, order-independent.

        Hashes every ``(node, dest) -> next_hop`` entry the run actually
        resolved (the :attr:`resolved_pairs` of them), sorted by
        ``(node, dest)``, so two runs that made the same forwarding
        decisions produce the same hex digest regardless of resolution
        order. The regression-fingerprint test uses this as the routing
        component of a run's identity.
        """
        decisions = sorted(
            (node, dest, nxt)
            for dest, nexts in enumerate(self._resolved)
            for node, nxt in nexts.items()
        )
        h = hashlib.sha256()
        for node, dest, nxt in decisions:
            h.update(f"{node},{dest}->{-1 if nxt is None else nxt};".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def node_path(self, src: int, dst: int, max_hops: int | None = None) -> list[int] | None:
        """Full hop-by-hop node path (None when unreachable)."""
        limit = max_hops if max_hops is not None else self.net.num_nodes + 1
        path = [src]
        current = src
        for _ in range(limit):
            if current == dst:
                return path
            nxt = self.next_hop(current, dst)
            if nxt is None:
                return None
            path.append(nxt)
            current = nxt
        return None

    def as_level_path(self, src: int, dst: int) -> list[int] | None:
        """The sequence of AS ids the forwarding path traverses."""
        path = self.node_path(src, dst)
        if path is None:
            return None
        ases: list[int] = []
        for node in path:
            a = self.net.nodes[node].as_id
            if not ases or ases[-1] != a:
                ases.append(a)
        return ases


_MISS = object()
