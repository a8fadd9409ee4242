"""Object counts of one checkpoint cut: a cost guard without a stopwatch.

Every link's dynamic state is a column of the simulator's ``LinkTable``,
so a cut copies a dozen lists whatever the link count, and an LP slice
selects its entries into a list or two (docs/performance.md, "Link state
as columns"). Before that, a cut built a row tuple plus five list copies
per touched link and an LP slice a dict per link, and those objects —
all tracked by the garbage collector — drove the checkpointing workers'
collections. An innocent-looking refactor can bring them back while a
timing on a noisy host still reads "within bound", so they are counted,
not timed: objects the collector tracks, with the collector off, around
one ``capture_shard`` and the ``capture_lp`` of every LP of a shard that
owns both LPs of a generated network a handful of datagrams crossed —
and the same on a network five times the size.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.engine import ShardEngine
from repro.engine.parallel.shard import ShardEngine, _build_shard
from repro.engine.windows import iter_windows
from repro.experiments.shard import udp_spec
from repro.netsim import NetworkSimulator
from repro.netsim.link import RED
from repro.routing import ForwardingPlane
from repro.topology import generate_flat_network

NET = generate_flat_network(num_routers=10, num_hosts=6, seed=3)
WINDOWS = 200
#: tracked objects one cut of the scenario state may allocate (18 now);
#: the link-row table this replaced allocated 171 on NET (23 links, all
#: touched) and 829 on the network five times its size
PER_CUT = 32
#: tracked objects one LP slice may allocate (5 now for both LPs; the
#: per-link slices took 67 on NET and 343 at five times its size)
PER_LP = 4


def _counted_cut(net):
    assignment = (np.arange(net.num_nodes) >= net.num_nodes // 2).astype(np.int64)
    lookahead = min(l.latency_s for l in net.links if assignment[l.u] != assignment[l.v])
    until = WINDOWS * lookahead
    spec = udp_spec(net, until, packets=4 * len(net.links), seed=1, chain_injects=True)
    engine = ShardEngine(assignment, 2, lookahead, owned_lps=[0, 1])
    scenario, _, _ = _build_shard(engine, spec)
    for w, _start, end in iter_windows(0.0, lookahead, until):
        engine.run_window(w, end)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        cut = scenario.capture_shard()  # held: what it allocated stays counted
        cut_objects = len(gc.get_objects()) - before
        before = len(gc.get_objects())
        slices = {lp: scenario.capture_lp(lp) for lp in (0, 1)}
        slice_objects = len(gc.get_objects()) - before
    finally:
        gc.enable()
    sim = scenario.capture_shard.__self__.sim
    return sim, slices, cut_objects, slice_objects


@pytest.fixture(scope="module", params=[1, 5], ids=["net", "net-x5"])
def counted_cut(request):
    scale = request.param
    net = NET if scale == 1 else generate_flat_network(
        num_routers=10 * scale, num_hosts=6 * scale, seed=3
    )
    return _counted_cut(net)


def test_a_cut_allocates_a_constant_number_of_objects(counted_cut):
    sim, _, cut_objects, _ = counted_cut
    touched = sum(1 for lr in sim.links if lr.total_packets)
    assert 6 * touched > PER_CUT  # a row and five lists per touched link would not fit
    assert cut_objects <= PER_CUT


def test_an_lp_slice_allocates_a_constant_number_of_objects(counted_cut):
    _, slices, _, slice_objects = counted_cut
    assert sorted(slices) == [0, 1]
    assert slice_objects <= PER_LP * len(slices)


def test_building_a_drop_tail_simulator_creates_no_random_stream(monkeypatch):
    fib = ForwardingPlane(NET)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda *args: made.append(args) or default_rng(*args)
    )
    sim = NetworkSimulator(NET, fib, ShardEngine([0] * NET.num_nodes, 1, lookahead=1.0))
    assert made == []
    sim.link_table.stream(0, RED)  # ... until one is asked for
    assert len(made) == 1
