"""AS-level BGP4 path-vector propagation to convergence.

Each AS originates one prefix; announcements flow along AS relationships
subject to export policy, are filtered for loops and assigned local
preference on import, and the decision process selects one best route per
prefix. Propagation iterates synchronously until a fixed point — under
Gao-Rexford policies (which :mod:`repro.routing.bgp.policy` implements)
this always converges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...obs.trace import get_tracer
from .attributes import Route
from .decision import best_route, decision_key
from .policy import export_allowed, import_local_pref

__all__ = ["BgpSpeaker", "BgpEngine"]


@dataclass
class BgpSpeaker:
    """One AS's BGP view: relationships and the current RIB."""

    as_id: int
    #: neighbor as_id -> what the neighbor is to us ('provider'|'customer'|'peer')
    relationships: dict[int, str]
    #: best route per prefix (the loc-RIB)
    rib: dict[int, Route] = field(default_factory=dict)
    #: whether this AS currently announces its own prefix (beacon
    #: experiments toggle this to study dynamic BGP behavior)
    originates: bool = True

    def __post_init__(self) -> None:
        if self.originates:
            self.rib.setdefault(self.as_id, Route.originate(self.as_id))

    def exports_to(self, neighbor: int) -> list[Route]:
        """Routes this speaker announces to ``neighbor`` under export policy.

        Sorted by prefix so the announcement order is a function of RIB
        *content*, never of dict insertion history — a precondition for
        sharding speakers across LPs (simlint SIM202).
        """
        rel = self.relationships[neighbor]
        return [
            r
            for _, r in sorted(self.rib.items())
            if export_allowed(r, rel, self.relationships)
        ]


class BgpEngine:
    """Synchronous path-vector computation over a set of speakers.

    Parameters
    ----------
    speakers:
        ``{as_id: BgpSpeaker}`` with mutually consistent relationship maps
        (if B is A's customer then A is B's provider).
    """

    def __init__(self, speakers: dict[int, BgpSpeaker]) -> None:
        self.speakers = speakers
        self.iterations = 0
        # Structured trace hook point: convergence spans with iteration
        # counts land in the trace buffer's span channel.
        self._trace = get_tracer()
        self._validate()

    def _validate(self) -> None:
        inverse = {"provider": "customer", "customer": "provider", "peer": "peer"}
        for as_id, sp in self.speakers.items():
            if sp.as_id != as_id:
                raise ValueError("speaker key/id mismatch")
            for nbr, rel in sp.relationships.items():
                other = self.speakers.get(nbr)
                if other is None:
                    raise ValueError(f"AS {as_id} references unknown neighbor {nbr}")
                if other.relationships.get(as_id) != inverse[rel]:
                    raise ValueError(
                        f"inconsistent relationship AS{as_id}<->AS{nbr}: "
                        f"{rel} vs {other.relationships.get(as_id)}"
                    )

    def _iterate_once(self) -> bool:
        """One synchronous exchange round; returns True if any RIB changed."""
        # Gather announcements against the *current* RIBs, then apply —
        # a synchronous (Jacobi) sweep keeps the result order-independent.
        # Every dict sweep below is sorted: with best_route's strict total
        # order the outcome is identical, and route installation no longer
        # depends on per-process dict insertion order (simlint SIM202).
        inbox: dict[int, list[Route]] = {a: [] for a in sorted(self.speakers)}
        for as_id, sp in sorted(self.speakers.items()):
            for nbr, rel_of_nbr in sorted(sp.relationships.items()):
                for route in sp.exports_to(nbr):
                    if route.contains_loop(nbr) or route.prefix == nbr:
                        continue
                    # The receiver classifies us by *their* relationship map.
                    rel_of_us = self.speakers[nbr].relationships[as_id]
                    received = route.announced_by(as_id, import_local_pref(rel_of_us))
                    inbox[nbr].append(received)

        changed = False
        for as_id, sp in sorted(self.speakers.items()):
            candidates: dict[int, list[Route]] = {}
            for route in inbox[as_id]:
                if route.contains_loop(as_id):
                    continue
                candidates.setdefault(route.prefix, []).append(route)
            new_rib: dict[int, Route] = (
                {as_id: Route.originate(as_id)} if sp.originates else {}
            )
            for prefix, cands in sorted(candidates.items()):
                if prefix == as_id:
                    continue
                chosen = best_route(cands)
                if chosen is not None:
                    new_rib[prefix] = chosen
            if _rib_differs(sp.rib, new_rib):
                changed = True
            sp.rib = new_rib
        return changed

    def run(self, max_iterations: int = 1000) -> int:
        """Propagate to a fixed point; returns iteration count.

        Raises ``RuntimeError`` if no fixed point is reached (cannot happen
        with consistent Gao-Rexford policies; the guard catches bugs and
        hand-built pathological policies).
        """
        trace_token = self._trace.span_begin()
        for i in range(max_iterations):
            if not self._iterate_once():
                self.iterations = i + 1
                self._trace.span_end(
                    trace_token,
                    "bgp.convergence",
                    iterations=self.iterations,
                    speakers=len(self.speakers),
                )
                return self.iterations
        raise RuntimeError(f"BGP did not converge within {max_iterations} iterations")

    # ------------------------------------------------------------------
    # Queries (valid after run())
    # ------------------------------------------------------------------
    def route(self, from_as: int, prefix: int) -> Route | None:
        """The best route ``from_as`` holds for ``prefix`` (None if none)."""
        return self.speakers[from_as].rib.get(prefix)

    def next_hop_as(self, from_as: int, prefix: int) -> int | None:
        """The neighbor AS traffic for ``prefix`` leaves through."""
        r = self.route(from_as, prefix)
        if r is None or r.is_local:
            return None
        return r.next_hop_as

    def as_path(self, from_as: int, prefix: int) -> tuple[int, ...] | None:
        """Full AS-level forwarding path ``(from_as, ..., prefix)``.

        Follows next-hop ASes RIB-by-RIB (the actual forwarding behavior),
        which coincides with the best route's ``as_path`` at convergence.
        """
        if from_as == prefix:
            return (from_as,)
        path = [from_as]
        current = from_as
        for _ in range(len(self.speakers) + 1):
            nxt = self.next_hop_as(current, prefix)
            if nxt is None:
                return None
            path.append(nxt)
            if nxt == prefix:
                return tuple(path)
            current = nxt
        return None  # pragma: no cover - loop guard

    def reachability_matrix(self) -> dict[int, set[int]]:
        """``{as_id: set of reachable prefixes}`` — in policy routing,
        connectivity does not equal reachability (paper Section 1)."""
        return {a: set(sp.rib) for a, sp in self.speakers.items()}


def _rib_differs(a: dict[int, Route], b: dict[int, Route]) -> bool:
    if a.keys() != b.keys():
        return True
    return any(decision_key(a[p]) != decision_key(b[p]) or a[p].as_path != b[p].as_path for p in a)
