"""BGP beacons: dynamic announce/withdraw experiments (paper Section 7).

The paper's proposed validation: "there is a Beacon project which
automatically announces/withdraws a prefix at a given time every day. And
we can observe what real BGP does to beacon activities from a public
observation point. Both of these studies can be simulated in MaSSF."

A :class:`BeaconExperiment` toggles one AS's prefix origination and
measures convergence: how many synchronous exchange rounds until the
routing system stabilizes, and which ASes changed their route to the
beacon prefix. Withdrawals typically converge no faster than
announcements (path hunting explores alternatives before giving up).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attributes import Route
from .decision import decision_key
from .engine import BgpEngine

__all__ = ["ConvergenceRecord", "BeaconExperiment", "compare_ribs"]


@dataclass(frozen=True)
class ConvergenceRecord:
    """Outcome of one beacon event."""

    action: str  # 'announce' | 'withdraw'
    iterations: int
    #: ASes whose best route to the beacon prefix changed (incl. gained/lost)
    affected_ases: frozenset[int]
    #: ASes that can reach the beacon prefix after convergence
    reachable_from: frozenset[int]


class BeaconExperiment:
    """Announce/withdraw a beacon prefix and observe convergence.

    Parameters
    ----------
    engine:
        A converged :class:`BgpEngine`. The experiment mutates its
        speakers (origination flag) and re-runs propagation.
    beacon_as:
        The AS whose prefix plays the beacon.
    """

    def __init__(self, engine: BgpEngine, beacon_as: int) -> None:
        if beacon_as not in engine.speakers:
            raise ValueError(f"unknown AS {beacon_as}")
        self.engine = engine
        self.beacon_as = beacon_as
        self.history: list[ConvergenceRecord] = []

    def _snapshot(self) -> dict[int, Route | None]:
        return {
            a: sp.rib.get(self.beacon_as) for a, sp in self.engine.speakers.items()
        }

    def _apply(self, action: str) -> ConvergenceRecord:
        before = self._snapshot()
        speaker = self.engine.speakers[self.beacon_as]
        if action == "announce":
            speaker.originates = True
            speaker.rib[self.beacon_as] = Route.originate(self.beacon_as)
        else:
            speaker.originates = False
            speaker.rib.pop(self.beacon_as, None)

        iterations = self.engine.run()
        after = self._snapshot()

        affected = frozenset(
            a
            for a in before
            if (before[a] is None) != (after[a] is None)
            or (
                before[a] is not None
                and after[a] is not None
                and (
                    decision_key(before[a]) != decision_key(after[a])
                    or before[a].as_path != after[a].as_path
                )
            )
        )
        reachable = frozenset(a for a, r in after.items() if r is not None)
        record = ConvergenceRecord(
            action=action,
            iterations=iterations,
            affected_ases=affected,
            reachable_from=reachable,
        )
        self.history.append(record)
        return record

    def withdraw(self) -> ConvergenceRecord:
        """Withdraw the beacon prefix; routes to it must vanish everywhere."""
        return self._apply("withdraw")

    def announce(self) -> ConvergenceRecord:
        """(Re-)announce the beacon prefix; reachability must be restored."""
        return self._apply("announce")


def compare_ribs(a: BgpEngine, b: BgpEngine) -> dict[str, float]:
    """Static BGP validation (paper Section 7): route-table similarity.

    Compares the best routes of two converged engines over the shared
    (AS, prefix) space. Returns the fraction of entries present in both,
    with the same next-hop AS, and with the same full AS path.
    """
    common_ases = set(a.speakers) & set(b.speakers)
    total = both = same_next_hop = same_path = 0
    for as_id in common_ases:
        prefixes = set(a.speakers[as_id].rib) | set(b.speakers[as_id].rib)
        for prefix in prefixes:
            total += 1
            ra = a.speakers[as_id].rib.get(prefix)
            rb = b.speakers[as_id].rib.get(prefix)
            if ra is None or rb is None:
                continue
            both += 1
            if ra.next_hop_as == rb.next_hop_as:
                same_next_hop += 1
            if ra.as_path == rb.as_path:
                same_path += 1
    if total == 0:
        return {"coverage": 1.0, "next_hop_agreement": 1.0, "path_agreement": 1.0}
    return {
        "coverage": both / total,
        "next_hop_agreement": same_next_hop / total,
        "path_agreement": same_path / total,
    }
