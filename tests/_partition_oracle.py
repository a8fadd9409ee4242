"""The partitioner and ``Tmll`` sweep as they were before the array/list rewrite.

These are the implementations of ``repro.partition`` and
``repro.core.hierarchical`` at commit 5ce8011, moved here verbatim
(methods became functions taking the graph; nothing else changed) to
serve as the reference of ``tests/test_partition_oracle.py``: the code
under ``src/`` must return the same arrays, bit for bit, draw the same
random numbers and hand the partitioner the same collapsed graphs.

They read only a graph's five CSR arrays and build new graphs through
:func:`build_graph`, the old constructor body, so no code they are
compared against runs inside them.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.evaluate import PartitionEvaluation, balance_efficiency, sync_efficiency
from repro.core.hierarchical import SweepRecord
from repro.partition.graph import WeightedGraph


# ----------------------------------------------------------------------
# partition/graph.py
# ----------------------------------------------------------------------
def build_graph(n, u, v, w=None, lat=None, vw=None) -> WeightedGraph:
    """The old ``WeightedGraph.__init__`` merge + CSR build (validation dropped)."""
    u = np.ascontiguousarray(np.asarray(u, dtype=np.int64))
    v = np.ascontiguousarray(np.asarray(v, dtype=np.int64))
    m = u.shape[0]
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64)) if w is not None else np.ones(m)
    lat = (
        np.ascontiguousarray(np.asarray(lat, dtype=np.float64))
        if lat is not None
        else np.full(m, np.inf)
    )
    vw = np.ascontiguousarray(np.asarray(vw, dtype=np.float64)) if vw is not None else np.ones(n)

    # Merge parallel edges: canonicalize (min, max), group.
    if m:
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        uniq_mask = np.empty(m, dtype=bool)
        uniq_mask[0] = True
        np.not_equal(key_s[1:], key_s[:-1], out=uniq_mask[1:])
        group = np.cumsum(uniq_mask) - 1
        n_uniq = int(group[-1]) + 1
        w_m = np.zeros(n_uniq)
        np.add.at(w_m, group, w[order])
        lat_m = np.full(n_uniq, np.inf)
        np.minimum.at(lat_m, group, lat[order])
        lo_m = lo[order][uniq_mask]
        hi_m = hi[order][uniq_mask]
    else:
        lo_m = hi_m = np.empty(0, dtype=np.int64)
        w_m = lat_m = np.empty(0)

    # Build symmetric CSR.
    src = np.concatenate([lo_m, hi_m])
    dst = np.concatenate([hi_m, lo_m])
    ew = np.concatenate([w_m, w_m])
    el = np.concatenate([lat_m, lat_m])
    order = np.argsort(src, kind="stable")
    src, dst, ew, el = src[order], dst[order], ew[order], el[order]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.add.at(xadj, src + 1, 1)
    np.cumsum(xadj, out=xadj)

    graph = WeightedGraph.__new__(WeightedGraph)
    graph.xadj = xadj
    graph.adjncy = dst
    graph.adjwgt = ew
    graph.adjlat = el
    graph.vwgt = vw
    graph._total_vwgt = float(vw.sum())
    return graph


def edge_list(graph):
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    keep = src < graph.adjncy
    return src[keep], graph.adjncy[keep], graph.adjwgt[keep], graph.adjlat[keep]


def edge_cut(graph, part):
    u, v, w, _ = edge_list(graph)
    return float(w[part[u] != part[v]].sum())


def min_cut_latency(graph, part):
    u, v, _, lat = edge_list(graph)
    lat = lat[part[u] != part[v]]
    return float(lat.min()) if lat.size else float("inf")


def partition_weights(graph, part, num_parts):
    out = np.zeros(int(num_parts))
    np.add.at(out, part, graph.vwgt)
    return out


def balance(graph, part, num_parts):
    weights = partition_weights(graph, part, num_parts)
    if weights.size == 0 or graph._total_vwgt == 0:
        return 1.0
    ideal = graph._total_vwgt / weights.size
    return float(weights.max() / ideal) if ideal > 0 else 1.0


def connected_components(graph):
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        stack = [seed]
        labels[seed] = comp
        while stack:
            x = stack.pop()
            for y in graph.adjncy[graph.xadj[x] : graph.xadj[x + 1]]:
                if labels[y] < 0:
                    labels[y] = comp
                    stack.append(int(y))
        comp += 1
    return labels


def contract(graph, labels):
    """Returns ``(coarse, labels)``."""
    labels = np.ascontiguousarray(np.asarray(labels, dtype=np.int64))
    k = int(labels.max()) + 1 if labels.size else 0
    if labels.size and (labels.min() < 0 or len(np.unique(labels)) != k):
        raise ValueError("labels must be dense 0..k-1")

    cvwgt = np.zeros(k)
    np.add.at(cvwgt, labels, graph.vwgt)

    u, v, w, lat = edge_list(graph)
    cu, cv = labels[u], labels[v]
    keep = cu != cv
    coarse = build_graph(k, cu[keep], cv[keep], w[keep], lat[keep], cvwgt)
    return coarse, labels


def collapse_below_latency(graph, threshold):
    """Returns ``(coarse, labels)``."""
    u, v, _, lat = edge_list(graph)
    mask = lat < threshold
    sub = build_graph(graph.num_vertices, u[mask], v[mask])
    labels = connected_components(sub)
    return contract(graph, labels)


# ----------------------------------------------------------------------
# partition/coarsen.py
# ----------------------------------------------------------------------
def heavy_edge_matching(graph, rng, max_vertex_weight=None):
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt

    for v in order:
        if match[v] >= 0:
            continue
        best = -1
        best_w = -1.0
        best_vw = np.inf
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if match[u] >= 0:
                continue
            if max_vertex_weight is not None and vwgt[v] + vwgt[u] > max_vertex_weight:
                continue
            w = adjwgt[idx]
            if w > best_w or (w == best_w and vwgt[u] < best_vw):
                best, best_w, best_vw = int(u), float(w), float(vwgt[u])
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v  # matched with itself

    # Densify labels: representative is min(v, match[v]).
    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    uniq, labels = np.unique(rep, return_inverse=True)
    del uniq
    return labels.astype(np.int64)


# ----------------------------------------------------------------------
# partition/initial.py
# ----------------------------------------------------------------------
def greedy_graph_growing(graph, rng, target_fraction=0.5, seed_vertex=None):
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not 0.0 < target_fraction < 1.0:
        raise ValueError("target_fraction must be in (0, 1)")
    total = graph.total_vertex_weight
    target = target_fraction * total

    part = np.ones(n, dtype=np.int64)
    seed = int(seed_vertex) if seed_vertex is not None else int(rng.integers(n))
    in_region = np.zeros(n, dtype=bool)

    # gain[v] tracked lazily: heap entries may be stale, validated on pop.
    gain = np.empty(n)
    ext = graph.adjwgt  # alias
    for v in range(n):
        gain[v] = -float(ext[graph.xadj[v] : graph.xadj[v + 1]].sum())

    heap: list[tuple[float, int, int]] = []
    stamp = np.zeros(n, dtype=np.int64)

    def push(v: int) -> None:
        stamp[v] += 1
        heapq.heappush(heap, (-gain[v], int(stamp[v]), v))

    region_weight = 0.0

    def absorb(v: int) -> None:
        nonlocal region_weight
        in_region[v] = True
        part[v] = 0
        region_weight += float(graph.vwgt[v])
        lo, hi = graph.xadj[v], graph.xadj[v + 1]
        for idx in range(lo, hi):
            u = int(graph.adjncy[idx])
            if not in_region[u]:
                gain[u] += 2.0 * float(graph.adjwgt[idx])
                push(u)

    absorb(seed)
    while region_weight < target and heap:
        while heap:
            neg_g, st, v = heapq.heappop(heap)
            if in_region[v] or st != stamp[v]:
                continue
            break
        else:  # pragma: no cover - loop exhausted without break
            break
        if in_region[v] or st != stamp[v]:
            break
        # Stop before overshooting badly past the target.
        vw = float(graph.vwgt[v])
        if region_weight + vw > target and region_weight > 0.5 * target:
            overshoot = region_weight + vw - target
            undershoot = target - region_weight
            if overshoot > undershoot:
                break
        absorb(v)

    # The frontier may dry up in a disconnected graph: top up with the
    # lightest remaining vertices until the balance target is met.
    if region_weight < target:
        remaining = np.flatnonzero(~in_region)
        order = remaining[np.argsort(graph.vwgt[remaining], kind="stable")]
        for v in order:
            if region_weight >= target:
                break
            in_region[v] = True
            part[v] = 0
            region_weight += float(graph.vwgt[v])
    return part


def best_bisection(graph, rng, target_fraction=0.5, trials=4, imbalance_tolerance=1.10):
    n = graph.num_vertices
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    total = graph.total_vertex_weight
    targets = np.array([target_fraction * total, (1 - target_fraction) * total])

    best = None
    best_key = None
    for t in range(max(1, trials)):
        part = greedy_graph_growing(graph, rng, target_fraction)
        weights = partition_weights(graph, part, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(targets > 0, weights / targets, 1.0)
        imbalance = float(np.nanmax(ratio)) if np.isfinite(ratio).any() else 1.0
        cut = edge_cut(graph, part)
        feasible = 0 if imbalance <= imbalance_tolerance else 1
        key = (feasible, cut if feasible == 0 else imbalance, imbalance)
        if best_key is None or key < best_key:
            best, best_key = part, key
    assert best is not None
    return best


# ----------------------------------------------------------------------
# partition/refine.py
# ----------------------------------------------------------------------
def _external_internal(graph, part):
    """Per-vertex external (cross-cut) and internal edge weight sums."""
    n = graph.num_vertices
    ed = np.zeros(n)
    idw = np.zeros(n)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    cross = part[src] != part[graph.adjncy]
    np.add.at(ed, src[cross], graph.adjwgt[cross])
    np.add.at(idw, src[~cross], graph.adjwgt[~cross])
    return ed, idw


def fm_refine(
    graph,
    part,
    target_fractions=(0.5, 0.5),
    imbalance_tolerance=1.05,
    max_passes=8,
    max_negative_moves=50,
):
    part = part.astype(np.int64).copy()
    n = graph.num_vertices
    if n == 0:
        return part
    total = graph.total_vertex_weight
    targets = np.array(target_fractions, dtype=np.float64) * total
    side_weight = partition_weights(graph, part, 2)

    for _ in range(max_passes):
        ed, idw = _external_internal(graph, part)
        gain = ed - idw
        locked = np.zeros(n, dtype=bool)
        stamp = np.zeros(n, dtype=np.int64)
        heap: list[tuple[float, int, int]] = []
        boundary = np.flatnonzero(ed > 0)
        for v in boundary:
            heapq.heappush(heap, (-gain[v], 0, int(v)))

        best_cut_delta = 0.0
        cut_delta = 0.0
        moves: list[int] = []
        best_prefix = 0
        negatives = 0

        while heap and negatives < max_negative_moves:
            neg_g, st, v = heapq.heappop(heap)
            if locked[v] or st != stamp[v]:
                continue
            g = -neg_g
            src_side = int(part[v])
            dst_side = 1 - src_side
            vw = float(graph.vwgt[v])
            new_dst = side_weight[dst_side] + vw
            new_src = side_weight[src_side] - vw
            balance_ok = new_dst <= imbalance_tolerance * targets[dst_side]
            improves_balance = (
                side_weight[src_side] - targets[src_side]
                > new_dst - targets[dst_side]
            )
            if not (balance_ok or improves_balance):
                locked[v] = True
                continue

            # Execute the move.
            part[v] = dst_side
            side_weight[src_side] = new_src
            side_weight[dst_side] = new_dst
            locked[v] = True
            cut_delta -= g
            moves.append(v)
            if cut_delta < best_cut_delta - 1e-12:
                best_cut_delta = cut_delta
                best_prefix = len(moves)
                negatives = 0
            else:
                negatives += 1

            # Update neighbor gains.
            lo, hi = graph.xadj[v], graph.xadj[v + 1]
            for idx in range(lo, hi):
                u = int(graph.adjncy[idx])
                if locked[u]:
                    continue
                w = float(graph.adjwgt[idx])
                # v moved to u's side? then the u-v edge went internal/external.
                if part[u] == part[v]:
                    gain[u] -= 2.0 * w
                else:
                    gain[u] += 2.0 * w
                stamp[u] += 1
                heapq.heappush(heap, (-gain[u], int(stamp[u]), u))

        # Roll back moves after the best prefix.
        for v in moves[best_prefix:]:
            side = int(part[v])
            part[v] = 1 - side
            vw = float(graph.vwgt[v])
            side_weight[side] -= vw
            side_weight[1 - side] += vw

        if best_prefix == 0:
            break
    return part


def kway_refine(graph, assignment, num_parts, imbalance_tolerance=1.05, max_passes=4):
    part = np.asarray(assignment, dtype=np.int64).copy()
    n = graph.num_vertices
    if n == 0 or num_parts < 2:
        return part
    total = graph.total_vertex_weight
    cap = imbalance_tolerance * total / num_parts
    weights = partition_weights(graph, part, num_parts)
    counts = np.bincount(part, minlength=num_parts)

    for _ in range(max_passes):
        moved = 0
        # Boundary vertices: any with a neighbor in another part.
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
        boundary = np.unique(src[part[src] != part[graph.adjncy]])
        for v in boundary:
            home = int(part[v])
            # Connectivity of v to each adjacent part.
            nbrs = graph.adjncy[graph.xadj[v] : graph.xadj[v + 1]]
            wts = graph.adjwgt[graph.xadj[v] : graph.xadj[v + 1]]
            conn: dict[int, float] = {}
            for u, w in zip(nbrs, wts):
                conn[int(part[u])] = conn.get(int(part[u]), 0.0) + float(w)
            internal = conn.get(home, 0.0)
            vw = float(graph.vwgt[v])
            best_part, best_gain = home, 0.0
            for p, c in conn.items():
                if p == home:
                    continue
                gain = c - internal
                if gain > best_gain and weights[p] + vw <= cap:
                    # Don't empty the home part (by vertex count — a
                    # weight test is fragile to float rounding when the
                    # home part holds exactly one vertex).
                    if counts[home] > 1:
                        best_part, best_gain = p, gain
            if best_part != home:
                part[v] = best_part
                weights[home] -= vw
                weights[best_part] += vw
                counts[home] -= 1
                counts[best_part] += 1
                moved += 1
        if moved == 0:
            break
    return part


def balance_partition(graph, part, target_fractions=(0.5, 0.5), imbalance_tolerance=1.05):
    part = part.astype(np.int64).copy()
    total = graph.total_vertex_weight
    targets = np.array(target_fractions, dtype=np.float64) * total
    side_weight = partition_weights(graph, part, 2)

    guard = graph.num_vertices + 1
    while guard > 0:
        guard -= 1
        over = int(np.argmax(side_weight - imbalance_tolerance * targets))
        if side_weight[over] <= imbalance_tolerance * targets[over]:
            break
        ed, idw = _external_internal(graph, part)
        gain = ed - idw
        candidates = np.flatnonzero(part == over)
        if candidates.size == 0:
            break
        best = candidates[np.argmax(gain[candidates])]
        part[best] = 1 - over
        vw = float(graph.vwgt[best])
        side_weight[over] -= vw
        side_weight[1 - over] += vw
    return part


# ----------------------------------------------------------------------
# partition/kway.py
# ----------------------------------------------------------------------
def extract_subgraph(graph, vertices):
    vertices = np.asarray(vertices, dtype=np.int64)
    n = graph.num_vertices
    newid = np.full(n, -1, dtype=np.int64)
    newid[vertices] = np.arange(vertices.shape[0], dtype=np.int64)
    u, v, w, lat = edge_list(graph)
    mask = (newid[u] >= 0) & (newid[v] >= 0)
    sub = build_graph(
        vertices.shape[0],
        newid[u[mask]],
        newid[v[mask]],
        w[mask],
        lat[mask],
        graph.vwgt[vertices],
    )
    return sub, vertices


def coarsen(graph, target_vertices, rng, shrink_threshold=0.95, balance_cap_factor=4.0):
    """Returns the coarsest graph and ``[(fine, labels), ...]``, finest first."""
    levels = []
    current = graph
    total = graph.total_vertex_weight
    cap = balance_cap_factor * total / max(target_vertices, 1) if total > 0 else None

    while current.num_vertices > target_vertices:
        coarse, labels = contract(current, heavy_edge_matching(current, rng, cap))
        if coarse.num_vertices >= shrink_threshold * current.num_vertices:
            break  # matching saturated (e.g. star graphs); stop early
        levels.append((current, labels))
        current = coarse
    return current, levels


def multilevel_bisect(
    graph, rng, target_fraction=0.5, imbalance_tolerance=1.05, coarsen_to=64, initial_trials=4
):
    n = graph.num_vertices
    if n <= 1:
        return np.zeros(n, dtype=np.int64)

    coarsest, levels = coarsen(graph, max(coarsen_to, 8), rng)
    part = best_bisection(
        coarsest,
        rng,
        target_fraction,
        trials=initial_trials,
        imbalance_tolerance=max(imbalance_tolerance, 1.10),
    )
    part = fm_refine(
        coarsest,
        part,
        (target_fraction, 1 - target_fraction),
        imbalance_tolerance=imbalance_tolerance,
    )

    for fine, labels in reversed(levels):
        part = part[labels]
        # Repair balance broken by projection before gain-driven refinement.
        weights = partition_weights(fine, part, 2)
        targets = np.array([target_fraction, 1 - target_fraction]) * fine.total_vertex_weight
        if np.any(weights > imbalance_tolerance * np.maximum(targets, 1e-300)):
            part = balance_partition(
                fine, part, (target_fraction, 1 - target_fraction), imbalance_tolerance
            )
        part = fm_refine(
            fine,
            part,
            (target_fraction, 1 - target_fraction),
            imbalance_tolerance=imbalance_tolerance,
        )
    return part


def partition_kway(
    graph,
    num_parts,
    seed=0,
    imbalance_tolerance=1.05,
    coarsen_to=64,
    initial_trials=4,
    kway_refinement=True,
):
    """Returns ``(assignment, edge_cut, balance, min_cut_latency)``."""

    def result(assignment):
        return (
            assignment,
            edge_cut(graph, assignment),
            balance(graph, assignment, num_parts),
            min_cut_latency(graph, assignment),
        )

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = graph.num_vertices
    assignment = np.zeros(n, dtype=np.int64)
    if num_parts == 1 or n == 0:
        return result(assignment)

    # Work queue of (subgraph vertex ids in parent, part-id offset, k).
    stack: list[tuple[np.ndarray, int, int]] = [
        (np.arange(n, dtype=np.int64), 0, int(num_parts))
    ]
    while stack:
        vertices, offset, k = stack.pop()
        if k == 1 or vertices.size == 0:
            assignment[vertices] = offset
            continue
        k0 = (k + 1) // 2
        k1 = k - k0
        sub, back = extract_subgraph(graph, vertices)
        part = multilevel_bisect(
            sub,
            rng,
            target_fraction=k0 / k,
            imbalance_tolerance=imbalance_tolerance,
            coarsen_to=max(coarsen_to, 4 * k),
            initial_trials=initial_trials,
        )
        side0 = back[part == 0]
        side1 = back[part == 1]
        # Degenerate split (all vertices one side): force a weight split so
        # recursion terminates even on pathological graphs.
        if side0.size == 0 or side1.size == 0:
            order = vertices[np.argsort(-graph.vwgt[vertices], kind="stable")]
            running = np.cumsum(graph.vwgt[order])
            target = (k0 / k) * running[-1]
            split = int(np.searchsorted(running, target)) + 1
            split = min(max(split, 1), order.size - 1) if order.size > 1 else 0
            side0, side1 = order[:split], order[split:]
        # A side must keep at least as many vertices as the parts it will
        # host, or a part comes out empty (PART403) — the weight target
        # can starve a side when one vertex dominates the total weight.
        # Move the lightest vertices across to cover the deficit.
        if vertices.size >= k:
            if side0.size < k0:
                move = side1[np.argsort(graph.vwgt[side1], kind="stable")]
                move = move[: k0 - side0.size]
                side0 = np.concatenate([side0, move])
                side1 = side1[~np.isin(side1, move)]
            elif side1.size < k1:
                move = side0[np.argsort(graph.vwgt[side0], kind="stable")]
                move = move[: k1 - side1.size]
                side1 = np.concatenate([side1, move])
                side0 = side0[~np.isin(side0, move)]
        stack.append((side0, offset, k0))
        stack.append((side1, offset + k0, k1))

    if kway_refinement and num_parts >= 2:
        assignment = kway_refine(
            graph, assignment, num_parts, imbalance_tolerance=imbalance_tolerance
        )
    return result(assignment)


# ----------------------------------------------------------------------
# core/evaluate.py + core/hierarchical.py
# ----------------------------------------------------------------------
def evaluate_partition(graph, assignment, num_parts, sync_cost_s):
    assignment = np.asarray(assignment, dtype=np.int64)
    weights = partition_weights(graph, assignment, num_parts)
    mll = min_cut_latency(graph, assignment)
    es = sync_efficiency(mll, sync_cost_s)
    ec = balance_efficiency(weights)
    mean = weights.mean()
    imbalance = float(weights.std() / mean) if mean > 0 else 0.0
    return PartitionEvaluation(
        mll_s=mll,
        es=es,
        ec=ec,
        efficiency=es * ec,
        predicted_imbalance=imbalance,
        part_weights=weights,
        edge_cut=edge_cut(graph, assignment),
    )


def hierarchical_partition(
    graph,
    num_parts,
    sync_cost_s,
    seed=0,
    tmll_step_s=0.1e-3,
    tmll_max_s=None,
    min_coarse_factor=2.0,
    imbalance_tolerance=1.05,
):
    """The cold sweep: one collapse of the original graph per 0.1 ms step.

    Returns ``(assignment, tmll_s, evaluation, sweep, candidates)`` where
    ``candidates`` lists, in call order, every graph handed to the
    partitioner (the flat graph first) with the assignment it got back.
    """
    _, _, _, latencies = edge_list(graph)
    finite = latencies[np.isfinite(latencies)]
    if tmll_max_s is None:
        tmll_max_s = float(finite.max()) if finite.size else 0.0

    sweep: list[SweepRecord] = []
    candidates = []
    best_assignment = None
    best_eval = None
    best_tmll = 0.0

    def consider(tmll, assignment, coarse_vertices):
        nonlocal best_assignment, best_eval, best_tmll
        evaluation = evaluate_partition(graph, assignment, num_parts, sync_cost_s)
        sweep.append(
            SweepRecord(tmll_s=tmll, coarse_vertices=coarse_vertices, evaluation=evaluation)
        )
        if best_eval is None or evaluation.efficiency > best_eval.efficiency:
            best_assignment, best_eval, best_tmll = assignment, evaluation, tmll

    # Threshold 0: the flat partition baseline.
    flat = partition_kway(graph, num_parts, seed=seed, imbalance_tolerance=imbalance_tolerance)
    candidates.append((graph, flat[0]))
    consider(0.0, flat[0], graph.num_vertices)

    # "Loop through all reasonable Tmll."
    start = (int(np.floor(sync_cost_s / tmll_step_s)) + 1) * tmll_step_s
    tmll = start
    prev_coarse_vertices = -1
    while tmll <= tmll_max_s + 1e-12:
        coarse, labels = collapse_below_latency(graph, tmll)
        if coarse.num_vertices < min_coarse_factor * num_parts:
            break  # not enough parallelism left
        if coarse.num_vertices == prev_coarse_vertices:
            # Identical collapse as the previous threshold -> identical
            # candidate; skip the redundant partitioning work.
            tmll += tmll_step_s
            continue
        prev_coarse_vertices = coarse.num_vertices
        result = partition_kway(
            coarse, num_parts, seed=seed, imbalance_tolerance=imbalance_tolerance
        )
        candidates.append((coarse, result[0]))
        projected = result[0][labels]
        consider(tmll, projected, coarse.num_vertices)
        tmll += tmll_step_s

    return best_assignment, best_tmll, best_eval, sweep, candidates
