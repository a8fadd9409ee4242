"""Per-destination forwarding records and shared ports against the
per-pair tuples they replaced.

``tests/_hop_oracle.py`` holds ``ForwardingPlane.next_hop`` /
``flush_cache`` / ``digest`` over one ``(node, dest)``-keyed dict and
``NetworkSimulator._resolve_hop`` building one tuple per pair, as they
were. Each case builds its network once and replays one script on two
forwarding planes and simulators — the old ones and what ships:
next-hop questions and UDP datagrams, interleaved with link and router
state changes told to the forwarding plane, bare flushes, ``fail_link``
/ ``restore_link`` on one of two parallel links and, on multi-AS
networks, BGP session resets and their re-establishment. Every answer,
``digest()`` and the resolved-pair count after every step, how often a
decision was computed, and the traffic counters, ``node_packets`` and
per-link totals at the end must be equal. Flat networks exercise OSPF
alone; small maBrite networks under ``configure_bgp`` exercise the
inter-AS path, whose hot-potato egress walks ``ospf.distance``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _hop_oracle as oracle
from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator, Packet, Protocol
from repro.routing import ForwardingPlane
from repro.routing.bgp import BgpSessionManager, configure_bgp
from repro.topology import Network, generate_flat_network, generate_multi_as_network

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["flat", "multi-as"])
STEPS = 40
#: simulated time each traffic step runs for; BGP retries are this short too
STEP_S = 0.02


def random_case(kind: str, seed: int) -> tuple[Network, bool, tuple[int, int], list]:
    """A network with one doubled intra-AS link, and a script over it."""
    rng = np.random.default_rng(seed)
    if kind == "flat":
        net = generate_flat_network(
            num_routers=int(rng.integers(4, 30)), num_hosts=int(rng.integers(0, 10)), seed=seed
        )
    else:
        net = generate_multi_as_network(
            num_ases=int(rng.integers(3, 7)), routers_per_as=int(rng.integers(2, 6)),
            num_hosts=int(rng.integers(2, 12)), seed=seed,
        )
    intra = [link for link in net.links if net.nodes[link.u].as_id == net.nodes[link.v].as_id]
    base = intra[int(rng.integers(0, len(intra)))]
    twin = net.add_link(
        base.u, base.v, base.bandwidth_bps, base.latency_s * float(rng.choice((0.5, 1.0, 2.0)))
    )
    n = net.num_nodes
    ops = ["ask", "send", "link", "node", "flush", "parallel"] + (["bgp"] if kind != "flat" else [])
    down: dict[str, set[int]] = {"link": set(), "node": set(), "parallel": set()}
    script: list[tuple] = []
    for _ in range(STEPS):
        op = ops[int(rng.integers(0, len(ops)))]
        if op in ("ask", "send"):
            # every third pair leaves over the doubled link
            pairs = [
                (base.u, int(rng.integers(0, n))) if rng.random() < 1 / 3
                else tuple(int(x) for x in rng.integers(0, n, 2))
                for _ in range(int(rng.integers(1, 12)))
            ]
            script.append((op, pairs))
        elif op in down:
            if op == "link":
                pick = int(rng.integers(0, len(net.links)))
            elif op == "node":
                pick = int(rng.integers(0, n))
            else:
                pick = (base.link_id, twin)[int(rng.integers(0, 2))]
            up = pick in down[op]  # toggle: bring it back if it is down
            if up:
                down[op].discard(pick)
            else:
                down[op].add(pick)
            script.append((op, pick, up))
        elif op == "bgp":
            session, down_for = int(rng.integers(0, 1 << 16)), float(rng.uniform(0.0, 3 * STEP_S))
            script.append((op, session, down_for))
        else:
            script.append((op,))
    return net, kind != "flat", (base.link_id, twin), script


def replay(net: Network, multi_as: bool, script: list, old: bool) -> dict:
    """Run ``script`` on a fresh forwarding plane and simulator; what it left."""
    bgp = configure_bgp(net) if multi_as else None
    fib = (oracle.OracleForwardingPlane if old else ForwardingPlane)(net, bgp)
    computed = []  # one entry per decision computed: once per pair, on both sides
    compute = fib._compute_next_hop
    fib._compute_next_hop = lambda node, dest: computed.append(node) or compute(node, dest)
    kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=STEP_S)
    sim = (oracle.OracleResolvingSimulator if old else NetworkSimulator)(net, fib, kernel)
    sessions = None
    if bgp is not None:
        sessions = BgpSessionManager(
            bgp, kernel, base_retry_s=STEP_S / 2, max_retry_s=2 * STEP_S,
            on_reconverge=fib.flush_cache,
        )
    answers, steps = [], []
    flow = 0
    for step in script:
        op = step[0]
        if op == "ask":
            answers.append([fib.next_hop(node, dest) for node, dest in step[1]])
        elif op == "send":
            for src, dst in step[1]:
                flow += 1
                sim.inject(
                    Packet(src=src, dst=dst, size_bytes=500, protocol=Protocol.UDP, flow_id=flow)
                )
            kernel.run(until=kernel.now + STEP_S)
        elif op == "link":
            fib.set_link_state(step[1], step[2])
        elif op == "node":
            fib.set_node_state(step[1], step[2])
        elif op == "flush":
            fib.flush_cache()
        elif op == "parallel":
            (sim.restore_link if step[2] else sim.fail_link)(step[1])
        else:  # "bgp"
            keys = sorted(sessions.sessions)
            sessions.reset(*keys[step[1] % len(keys)], step[2])
        steps.append((fib.digest(), fib.resolved_pairs, fib.epoch))
    kernel.run(until=kernel.now + 1.0)
    return {
        "answers": answers,
        "steps": steps,
        "computed": len(computed),
        "counters": sim.counters.as_dict(),
        "dropped_fault": sim.dropped_fault,
        "node_packets": sim.node_packets.tolist(),
        "links": [view().tolist() for view in (sim.link_bytes, sim.link_packets, sim.link_drops)],
        "sessions": None if sessions is None else sessions.stats.as_dict(),
    }


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_forwarding_state_is_identical(seed, kind):
    net, multi_as, _, script = random_case(kind, seed)
    old = replay(net, multi_as, script, old=True)
    new = replay(net, multi_as, script, old=False)
    assert old["computed"] > 0 and old["counters"]["sent"] + len(old["answers"]) > 0
    assert new == old


def test_the_scripts_reach_every_operation():
    """Or the property above could pass on scripts that never leave the
    common case: every kind of answer and every state change happens."""
    seen = {"unroutable answer": 0, "delivered": 0, "unroutable packet": 0,
            "doubled link carried": 0, "doubled link dropped": 0,
            "bgp withdrawn": 0, "bgp re-established": 0}
    for seed in range(16):
        for kind in ("flat", "multi-as"):
            net, multi_as, doubled, script = random_case(kind, seed)
            run = replay(net, multi_as, script, old=False)
            seen["unroutable answer"] += sum(
                answer is None for answers in run["answers"] for answer in answers
            )
            seen["delivered"] += run["counters"]["delivered"]
            seen["unroutable packet"] += run["counters"]["unroutable"]
            _, packets, drops = run["links"]
            seen["doubled link carried"] += min(packets[link] for link in doubled)
            seen["doubled link dropped"] += sum(drops[link] for link in doubled)
            if run["sessions"] is not None:
                seen["bgp withdrawn"] += run["sessions"]["resets"]
                seen["bgp re-established"] += run["sessions"]["reestablished"]
    assert all(seen.values()), seen
