"""Operation counts of one packet hop: a cost guard without a stopwatch.

A forwarded hop is one hop-cache lookup, one block of float arithmetic
and one heap push (docs/performance.md, "Per-hop path"). Each term below
was a per-hop call before that and can come back through an
innocent-looking refactor while a timing on a noisy host still reads
"within bound", so they are counted, not timed, on a fixed scenario:
datagrams between the hosts of the shared ``flat_net`` over its default
drop-tail queues with no fault armed. The second half pins the other
side of the cache: it must not outlive the routes it was filled from.
The last tests count what a miss costs: objects the garbage collector
tracks and Python-level calls, per resolved pair, and ``dijkstra`` calls
per SPF block.
"""

from __future__ import annotations

import gc
import math
import sys

import numpy as np
import pytest

from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator, Packet, Protocol, link
from repro.routing import ForwardingPlane
from repro.routing import ospf as ospf_module
from repro.topology import Network, NodeKind, generate_flat_network

DATAGRAMS = 400


class ClockCountingKernel(ShardEngine):
    """A one-LP engine counting reads of ``current_time``, the simulator's
    only clock (the engine's own paths read the field behind it)."""

    clock_reads = 0

    @property
    def current_time(self) -> float:
        self.clock_reads += 1
        return self._lp_now


@pytest.fixture(scope="module")
def counted_run(flat_net):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _counted_run(flat_net, monkeypatch)


def _counted_run(flat_net, monkeypatch):
    counts = {"next_hop": 0, "transmit": 0, "transmit_results": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    fib = ForwardingPlane(flat_net)
    monkeypatch.setattr(fib, "next_hop", counting("next_hop", fib.next_hop))
    monkeypatch.setattr(
        link.LinkRuntime, "transmit", counting("transmit", link.LinkRuntime.transmit)
    )
    monkeypatch.setattr(
        link, "TransmitResult", counting("transmit_results", link.TransmitResult)
    )
    kernel = ClockCountingKernel([0] * flat_net.num_nodes, 1, lookahead=2.0)
    sim = NetworkSimulator(flat_net, fib, kernel)
    hosts = flat_net.host_ids()
    rng = np.random.default_rng(3)
    for i in range(DATAGRAMS):
        # a handful of pairs, hammered: what a flow does to the cache
        src, dst = hosts[int(rng.integers(0, 6))], hosts[int(rng.integers(6, 12))]
        packet = Packet(src=src, dst=dst, size_bytes=500, protocol=Protocol.UDP, flow_id=i)
        kernel.schedule_at(i * 1e-3, sim.inject, node=src, args=(packet,))
    kernel.run(until=2.0)
    assert sim.counters.packets_delivered == DATAGRAMS  # nothing dropped: every hop is the common case
    return sim, fib, kernel, counts


def test_the_forwarding_plane_is_asked_once_per_pair_not_once_per_hop(counted_run):
    sim, fib, _, counts = counted_run
    hops = int(sim.link_packets().sum())
    pairs = fib.resolved_pairs
    assert hops > 10 * pairs  # or asking at every hop would pass too
    assert 0 < counts["next_hop"] <= pairs


def test_an_unfaulted_drop_tail_hop_builds_no_transmit_result(counted_run):
    _, _, _, counts = counted_run
    assert counts["transmit"] == 0
    assert counts["transmit_results"] == 0


def test_the_clock_is_read_once_per_handled_packet(counted_run):
    sim, _, kernel, _ = counted_run
    handled = int(sim.node_packets.sum())  # every hop, the delivering one included
    # ... and once by inject, which stamps the packet's creation time
    assert kernel.clock_reads == sim.counters.packets_sent + handled


# ----------------------------------------------------------------------
# The hop cache follows the forwarding plane's epoch
# ----------------------------------------------------------------------
def _diamond():
    """0 - 1 - 3 and 0 - 2 - 3; the way over 1 is the shorter."""
    net = Network()
    for _ in range(4):
        net.add_node(NodeKind.ROUTER)
    near_link = net.add_link(0, 1, 1e8, 1e-3)
    net.add_link(1, 3, 1e8, 1e-3)
    net.add_link(0, 2, 1e8, 2e-3)
    net.add_link(2, 3, 1e8, 2e-3)
    fib = ForwardingPlane(net)
    kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=0.1)
    sim = NetworkSimulator(net, fib, kernel)

    def send():
        sim.inject(Packet(src=0, dst=3, size_bytes=500, protocol=Protocol.UDP, flow_id=0))
        kernel.run(until=kernel.now + 0.1)

    send()
    assert sim.node_packets.tolist() == [1, 1, 0, 1]
    return sim, fib, near_link, send


@pytest.mark.parametrize("change", ["link", "node"])
def test_a_route_change_moves_the_next_packet(change):
    # Only the forwarding plane is told; the simulator's own link and
    # node state stay up, so nothing but the epoch can move the packet.
    sim, fib, near_link, send = _diamond()
    if change == "link":
        fib.set_link_state(near_link, False)
    else:
        fib.set_node_state(1, False)
    send()
    assert sim.node_packets.tolist() == [2, 1, 1, 2]
    assert sim.counters.packets_delivered == 2


def test_a_bare_flush_makes_the_next_hop_ask_again(monkeypatch):
    sim, fib, _, send = _diamond()
    asked = []
    next_hop = fib.next_hop
    monkeypatch.setattr(fib, "next_hop", lambda node, dst: asked.append(node) or next_hop(node, dst))
    send()
    assert asked == []  # both hops came from the cache
    fib.flush_cache()
    send()
    assert asked == [0, 1]
    assert fib.resolved_pairs == 2  # the digest covers the flushed run's pairs again


# ----------------------------------------------------------------------
# A resolved pair keeps no object of its own
# ----------------------------------------------------------------------
def test_resolving_every_pair_adds_no_tracked_object_per_pair():
    # Every long-lived container object the collector tracks is work for
    # the full collections a run triggers (docs/performance.md,
    # "Forwarding state"). Counted with the collector off, so nothing is
    # freed or untracked under the count.
    net = generate_flat_network(num_routers=100, num_hosts=0, seed=7)
    n = net.num_nodes
    fib = ForwardingPlane(net)
    sim = NetworkSimulator(net, fib, ShardEngine([0] * n, 1, lookahead=1.0))
    domain = fib.ospf_domain(net.nodes[0].as_id)
    for dest in range(n):  # SPF first: its trees are per destination, not per pair
        domain.next_hop((dest + 1) % n, dest)
    pairs = [(node, dest) for node in range(n) for dest in range(n) if node != dest]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for node, dest in pairs:
            sim._resolve_hop(node, dest)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    # one shared port per link end, and the per-node hop dicts that hold them
    assert added <= 2 * len(net.links) + n
    assert fib.resolved_pairs == len(pairs) == 9_900


def _guard_network():
    """The 100-router network above, with a simulator over it."""
    net = generate_flat_network(num_routers=100, num_hosts=0, seed=7)
    fib = ForwardingPlane(net)
    sim = NetworkSimulator(net, fib, ShardEngine([0] * net.num_nodes, 1, lookahead=1.0))
    return net, fib, sim


#: ``_resolve_hop``, ``ForwardingPlane.next_hop``, its ``_compute_next_hop``
#: and ``OspfRouting.next_hop``: the plane lookup, the same-domain check
#: and the tree read, and nothing per link of the pair
CALLS_PER_RESOLVED_PAIR = 4


def test_a_hop_miss_makes_a_fixed_number_of_python_calls():
    net, fib, sim = _guard_network()
    n = net.num_nodes
    domain = fib.ospf_domain(net.nodes[0].as_id)
    for dest in range(n):  # SPF first, as above
        domain.next_hop((dest + 1) % n, dest)
    pairs = [(node, dest) for node in range(n) for dest in range(n) if node != dest]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for node, dest in pairs:
            sim._resolve_hop(node, dest)
    finally:
        sys.setprofile(None)
    assert calls <= CALLS_PER_RESOLVED_PAIR * len(pairs)
    assert fib.resolved_pairs == len(pairs)


def test_spf_makes_one_dijkstra_call_per_block(monkeypatch):
    net, fib, _ = _guard_network()
    calls = []
    dijkstra = ospf_module.dijkstra
    monkeypatch.setattr(
        ospf_module, "dijkstra", lambda *args, **kw: calls.append(1) or dijkstra(*args, **kw)
    )
    domain = fib.ospf_domain(net.nodes[0].as_id)
    members = len(domain.members)
    for dest in range(net.num_nodes):
        for node in range(net.num_nodes):
            domain.next_hop(node, dest)
    assert domain.trees_built == members
    assert len(calls) == math.ceil(members / ospf_module.SPF_BLOCK)
