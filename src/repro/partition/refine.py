"""Boundary Fiduccia-Mattheyses refinement for bisections.

After each uncoarsening step the projected partition is improved by FM
passes: vertices on the cut boundary are moved between the two sides in
order of gain (cut-weight reduction), subject to a balance constraint,
with hill-climbing (a bounded number of negative-gain moves is allowed
and the best prefix of the move sequence is kept).
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import WeightedGraph, sum_by_index

__all__ = ["fm_refine", "balance_partition", "kway_refine"]


def _external_internal(
    graph: WeightedGraph, part: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex external (cross-cut) and internal edge weight sums."""
    n = graph.num_vertices
    src = graph.csr_rows()
    cross = part[src] != part[graph.adjncy]
    # Each sum adds a row's entries in CSR order, starting from 0.0.
    ed = sum_by_index(src[cross], graph.adjwgt[cross], n)
    idw = sum_by_index(src[~cross], graph.adjwgt[~cross], n)
    return ed, idw


def fm_refine(
    graph: WeightedGraph,
    part: np.ndarray,
    target_fractions: tuple[float, float] = (0.5, 0.5),
    imbalance_tolerance: float = 1.05,
    max_passes: int = 8,
    max_negative_moves: int = 50,
) -> np.ndarray:
    """Refine a 2-way partition in place-style (returns a new array).

    Parameters
    ----------
    target_fractions:
        Desired weight share of sides 0 and 1 (sums to 1; uneven targets
        support recursive bisection into unequal part counts).
    imbalance_tolerance:
        A move is allowed only if afterwards each side's weight is at most
        ``tolerance * target`` (or the move improves balance).
    max_negative_moves:
        FM hill-climbing window: stop a pass after this many consecutive
        non-improving moves.
    """
    part = part.astype(np.int64).copy()
    n = graph.num_vertices
    if n == 0:
        return part
    total = graph.total_vertex_weight
    targets = [float(f) * total for f in target_fractions]
    side_weight = graph.partition_weights(part, 2).tolist()
    xadj, adjncy, adjwgt, vwgt = graph.csr_lists()
    heappush, heappop = heapq.heappush, heapq.heappop

    for _ in range(max_passes):
        ed, idw = _external_internal(graph, part)
        gain = (ed - idw).tolist()
        side = part.tolist()
        locked = [False] * n
        stamp = [0] * n
        heap = [(-gain[v], 0, v) for v in np.flatnonzero(ed > 0).tolist()]
        heapq.heapify(heap)

        best_cut_delta = 0.0
        cut_delta = 0.0
        moves: list[int] = []
        best_prefix = 0
        negatives = 0

        while heap and negatives < max_negative_moves:
            neg_g, st, v = heappop(heap)
            if locked[v] or st != stamp[v]:
                continue
            src_side = side[v]
            dst_side = 1 - src_side
            vw = vwgt[v]
            new_dst = side_weight[dst_side] + vw
            new_src = side_weight[src_side] - vw
            balance_ok = new_dst <= imbalance_tolerance * targets[dst_side]
            improves_balance = (
                side_weight[src_side] - targets[src_side]
                > new_dst - targets[dst_side]
            )
            locked[v] = True
            if not (balance_ok or improves_balance):
                continue

            # Execute the move.
            side[v] = dst_side
            side_weight[src_side] = new_src
            side_weight[dst_side] = new_dst
            cut_delta += neg_g
            moves.append(v)
            if cut_delta < best_cut_delta - 1e-12:
                best_cut_delta = cut_delta
                best_prefix = len(moves)
                negatives = 0
            else:
                negatives += 1

            # Update neighbor gains.
            for idx in range(xadj[v], xadj[v + 1]):
                u = adjncy[idx]
                if locked[u]:
                    continue
                # v moved to u's side? then the u-v edge went internal/external.
                if side[u] == dst_side:
                    gain[u] -= 2.0 * adjwgt[idx]
                else:
                    gain[u] += 2.0 * adjwgt[idx]
                stamp[u] += 1
                heappush(heap, (-gain[u], stamp[u], u))

        # Roll back moves after the best prefix.
        for v in moves[best_prefix:]:
            side[v] = 1 - side[v]
            side_weight[1 - side[v]] -= vwgt[v]
            side_weight[side[v]] += vwgt[v]
        part = np.array(side, dtype=np.int64)

        if best_prefix == 0:
            break
    return part


def kway_refine(
    graph: WeightedGraph,
    assignment: np.ndarray,
    num_parts: int,
    imbalance_tolerance: float = 1.05,
    max_passes: int = 4,
) -> np.ndarray:
    """Greedy direct k-way boundary refinement.

    Recursive bisection never revisits early cuts; this pass fixes the
    leftovers: each boundary vertex may move to the neighboring part to
    which it has the largest connectivity, if the move reduces the cut
    and respects the balance bound. Passes repeat until no positive-gain
    move exists (or ``max_passes``).
    """
    part = np.asarray(assignment, dtype=np.int64).copy()
    n = graph.num_vertices
    if n == 0 or num_parts < 2:
        return part
    total = graph.total_vertex_weight
    cap = imbalance_tolerance * total / num_parts
    weights = graph.partition_weights(part, num_parts).tolist()
    counts = np.bincount(part, minlength=num_parts).tolist()
    xadj, adjncy, adjwgt, vwgt = graph.csr_lists()
    src = graph.csr_rows()

    for _ in range(max_passes):
        moved = 0
        # Boundary vertices: any with a neighbor in another part.
        cross = part[src] != part[graph.adjncy]
        boundary = np.flatnonzero(np.bincount(src[cross], minlength=n))
        home_of = part.tolist()
        for v in boundary.tolist():
            home = home_of[v]
            # Connectivity of v to each adjacent part.
            conn: dict[int, float] = {}
            for idx in range(xadj[v], xadj[v + 1]):
                p = home_of[adjncy[idx]]
                conn[p] = conn.get(p, 0.0) + adjwgt[idx]
            internal = conn.get(home, 0.0)
            vw = vwgt[v]
            best_part, best_gain = home, 0.0
            # Don't empty the home part (by vertex count — a weight test
            # is fragile to float rounding when the home part holds
            # exactly one vertex).
            if counts[home] > 1:
                for p, c in conn.items():
                    if p != home and c - internal > best_gain and weights[p] + vw <= cap:
                        best_part, best_gain = p, c - internal
            if best_part != home:
                home_of[v] = best_part
                weights[home] -= vw
                weights[best_part] += vw
                counts[home] -= 1
                counts[best_part] += 1
                moved += 1
        part = np.array(home_of, dtype=np.int64)
        if moved == 0:
            break
    return part


def balance_partition(
    graph: WeightedGraph,
    part: np.ndarray,
    target_fractions: tuple[float, float] = (0.5, 0.5),
    imbalance_tolerance: float = 1.05,
) -> np.ndarray:
    """Greedy rebalancing: move min-damage boundary vertices off the heavy side.

    Used when a projected partition violates the balance constraint so
    badly that FM's feasibility gate would lock up.
    """
    part = part.astype(np.int64).copy()
    total = graph.total_vertex_weight
    limits = [imbalance_tolerance * (float(f) * total) for f in target_fractions]
    side_weight = graph.partition_weights(part, 2).tolist()
    xadj, adjncy, adjwgt, vwgt = graph.csr_lists()
    ed, idw = _external_internal(graph, part)
    gain = (ed - idw).tolist()
    side = part.tolist()
    # Per side, (-gain, v) of its vertices: the top entry that is still
    # current is np.argmax's pick, the highest gain and then the lowest id.
    # An entry is current while v is on that side with that gain.
    heappush, heappop = heapq.heappush, heapq.heappop
    heaps: list[list[tuple[float, int]]] = [[], []]
    for v, (s, g) in enumerate(zip(side, gain)):
        heaps[s].append((-g, v))
    for heap in heaps:
        heapq.heapify(heap)
    # Per side, the vertices whose gain a move has made out of date. Only
    # the heavy side's gains are read, so a row is summed again when its
    # side is next the heavy one (a hub next to every mover, left on the
    # light side, is not summed at every move).
    stale: list[set[int]] = [set(), set()]

    last_best, weights_before_last = -1, None
    for moves_left in range(graph.num_vertices, -1, -1):
        over = 1 if side_weight[1] - limits[1] > side_weight[0] - limits[0] else 0
        if side_weight[over] <= limits[over]:
            break
        heap = heaps[over]
        # Each stale row is summed again from 0.0 in CSR order, which is the
        # sum a whole-graph _external_internal would return, bit for bit (an
        # incremental +-2w update is not).
        for x in stale[over]:
            external = internal = 0.0
            for idx in range(xadj[x], xadj[x + 1]):
                if side[adjncy[idx]] != over:
                    external += adjwgt[idx]
                else:
                    internal += adjwgt[idx]
            gain[x] = external - internal
            heappush(heap, (-gain[x], x))
        stale[over].clear()
        while heap and (side[heap[0][1]] != over or -heap[0][0] != gain[heap[0][1]]):
            heappop(heap)
        if not heap:
            break  # nobody left on the heavy side
        best = heappop(heap)[1]
        weights_before = side_weight.copy()
        side[best] = 1 - over
        side_weight[over] -= vwgt[best]
        side_weight[1 - over] += vwgt[best]
        if best == last_best and side_weight == weights_before_last:
            # A vertex too heavy for either side went over and came back,
            # to the very state of two moves ago: the moves that are left
            # would swing it to and fro, so only their parity matters.
            if moves_left % 2:
                side[best] = over
            break
        last_best, weights_before_last = best, weights_before
        # Only the moved vertex and its neighbours see a different cut.
        stale[1 - over].add(best)
        for x in adjncy[xadj[best] : xadj[best + 1]]:
            stale[side[x]].add(x)
    return np.array(side, dtype=np.int64)
