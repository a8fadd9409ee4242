"""The link table against the one-object-per-link state it replaced.

``tests/_hop_oracle.py``'s ``OracleLinkRuntime`` is ``LinkRuntime`` as
it was before every link's dynamic state moved into one ``LinkTable``
per simulator: a dataclass per link, a checkpoint cut as a sparse table
of rows (``capture_table`` / ``restore_table``) and an LP slice as a
row's selection (``capture(owned)``). Each example runs the same random
flat network twice — once on those links (``OracleSimulator``), once on
what ships — with UDP bursts over drop-tail or RED queues, fault flags
armed on some links (so the fault streams draw) and streams drawn or left
uncreated, and requires, every float as hex and every stream by its
bit-generator state:

- both runs leave every link alike;
- a cut restored onto a freshly built twin leaves every link as the
  parent's table restored onto the parent's twin does;
- for a random node -> LP assignment, each LP's slice — selected from
  the cut, and taken outside a checkpoint — restored onto an adopting
  shard that has run traffic of its own leaves every link as the
  parent's ``capture(owned)`` of each link restored there does.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _hop_oracle as oracle
from repro.engine import ShardEngine
from repro.experiments.shard import LpStatePort
from repro.netsim import NetworkSimulator
from repro.netsim.link import FAULT, RED
from repro.netsim.packet import Packet, Protocol
from repro.routing import ForwardingPlane
from repro.serialization import decode_payload, encode_payload
from repro.topology import generate_flat_network

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _run(old: bool, net, discipline: str, seed: int) -> NetworkSimulator:
    """UDP bursts over ``net`` with faults armed and streams drawn by ``seed``."""
    kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=0.5)
    simulator = oracle.OracleSimulator if old else NetworkSimulator
    sim = simulator(net, ForwardingPlane(net), kernel, queue_discipline=discipline)
    rng = np.random.default_rng(seed)
    num_links = len(net.links)
    for link_id in rng.choice(num_links, int(rng.integers(0, 3)), replace=False).tolist():
        lr = sim.links[link_id]
        lr.loss_prob, lr.corrupt_prob = float(rng.choice((0.0, 0.3))), 0.2
    if rng.random() < 0.3:
        sim.fail_link(int(rng.integers(0, num_links)))
    hosts = net.host_ids()
    for i in range(int(rng.integers(1, 60))):
        src, dst = (int(h) for h in rng.choice(hosts, 2, replace=False))
        packet = Packet(src=src, dst=dst, size_bytes=1500, protocol=Protocol.UDP, flow_id=i)
        # a handful of instants: the datagrams of one queue up behind each other
        kernel.schedule_at(float(rng.integers(0, 4)) * 1e-3, sim.inject, node=src, args=(packet,))
    kernel.run(until=0.5)
    # Streams drawn outside the model too, on any link; the rest stay uncreated.
    for link_id in rng.choice(num_links, int(rng.integers(0, 3)), replace=False).tolist():
        for kind, draws in ((RED, int(rng.integers(0, 3))), (FAULT, int(rng.integers(0, 2)))):
            for _ in range(draws):
                if old:
                    lr = sim.links[link_id]
                    (lr._red_stream() if kind == RED else lr._fault_stream()).random()
                else:
                    sim.link_table.stream(link_id, kind).random()
    return sim


def _fresh(old: bool, net, discipline: str) -> NetworkSimulator:
    simulator = oracle.OracleSimulator if old else NetworkSimulator
    return simulator(net, ForwardingPlane(net), ShardEngine([0] * net.num_nodes, 1, lookahead=1.0), queue_discipline=discipline)


def _through_the_wire(value):
    return decode_payload(encode_payload(value))


@settings(max_examples=30, deadline=None)
@given(
    net_seed=SEEDS,
    routers=st.integers(2, 12),
    hosts=st.integers(2, 6),
    discipline=st.sampled_from(["droptail", "red"]),
    seed=SEEDS,
    lp_seed=SEEDS,
)
def test_cuts_and_lp_slices_restore_as_the_per_link_capture(
    net_seed, routers, hosts, discipline, seed, lp_seed
):
    net = generate_flat_network(num_routers=routers, num_hosts=hosts, seed=net_seed % 1000)
    old, new = _run(True, net, discipline, seed), _run(False, net, discipline, seed)
    assert oracle.per_link(new.links) == oracle.per_link(old.links)

    # The cut, restored onto a freshly built twin.
    cut = _through_the_wire(new.capture())
    new_twin, old_twin = _fresh(False, net, discipline), _fresh(True, net, discipline)
    new_twin.restore(cut)
    oracle.OracleLinkRuntime.restore_table(
        old_twin.links, _through_the_wire(oracle.OracleLinkRuntime.capture_table(old.links))
    )
    assert oracle.per_link(new_twin.links) == oracle.per_link(old_twin.links)

    # Each LP's slice, restored onto an adopter with a history of its own.
    rng = np.random.default_rng(lp_seed)
    num_lps = int(rng.integers(1, 5))
    assignment = rng.integers(0, num_lps, net.num_nodes).tolist()
    port = LpStatePort(new, assignment)
    for lp in range(num_lps):
        owned = {
            idx: lr.capture((assignment[lr.link.u] == lp, assignment[lr.link.v] == lp))
            for idx, lr in enumerate(old.links)
            if lp in (assignment[lr.link.u], assignment[lr.link.v])
        }
        old_adopter = _run(True, net, discipline, seed + 1)
        for idx, state in _through_the_wire(owned).items():
            old_adopter.links[idx].restore(state)
        expected = oracle.per_link(old_adopter.links)
        new_adopter = _run(False, net, discipline, seed + 1)
        LpStatePort(new_adopter, assignment).restore(lp, _through_the_wire(port.capture(lp)))
        assert oracle.per_link(new_adopter.links) == expected
