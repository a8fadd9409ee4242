#!/usr/bin/env python
"""Multi-AS Internet-like simulation: maBrite + automatic BGP config.

Demonstrates the paper's Section 5 machinery:

1. generate a multi-AS topology with tiered AS classification and
   business relationships (maBrite),
2. auto-configure BGP import/export policies from the heuristic rules
   and propagate routes to convergence,
3. inspect routing realism: valley-free paths, stub default routing,
   and "connectivity does not equal reachability" under raw policies,
4. forward actual packets across ASes.

Run:  python examples/multi_as_bgp.py
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator, start_transfer
from repro.routing import ForwardingPlane
from repro.routing.bgp import configure_bgp, is_valley_free, render_dml
from repro.topology import ASTier, generate_multi_as_network


def main() -> None:
    # 1. Topology: 20 ASes x 20 routers, hosts on stub ASes.
    net = generate_multi_as_network(num_ases=20, routers_per_as=20, num_hosts=80, seed=7)
    tiers = Counter(d.tier.value for d in net.as_domains.values())
    print(f"network: {net}")
    print(f"AS tiers: {dict(tiers)}")

    # 2. BGP auto-configuration and convergence.
    bgp = configure_bgp(net)
    print(f"BGP converged in {bgp.iterations} iterations")
    reach = bgp.reachability_matrix()
    full = sum(1 for s in reach.values() if len(s) == len(net.as_domains))
    print(f"ASes with full reachability: {full}/{len(net.as_domains)}")

    # 3a. Valley-free check over all AS pairs.
    def rel(a, b):
        return net.as_domains[a].relationship_to(b)

    violations = 0
    for a in net.as_domains:
        for b in net.as_domains:
            if a == b:
                continue
            path = bgp.as_path(a, b)
            if path and not is_valley_free(tuple(path[1:]), b, rel):
                violations += 1
    print(f"valley-free violations: {violations}")

    # 3b. Stub default routing (paper step 6c/6d).
    stubs = [d for d in net.as_domains.values() if d.tier is ASTier.STUB]
    multihomed = [d for d in stubs if len(d.default_routes) > 1]
    print(f"stub ASes: {len(stubs)}, multi-homed with backup default: {len(multihomed)}")

    # 3c. The DML-like rendering MaSSF would consume.
    dml = render_dml(net)
    sample = dml["Net"]["AS"][0]
    print(f"sample policy entry for AS {sample['id']} ({sample['tier']}): "
          f"{len(sample['bgp']['import_policy'])} import rules")

    # 4. Packet forwarding across ASes: a TCP transfer between stub hosts.
    fib = ForwardingPlane(net, bgp)
    horizon_s = 30.0
    engine = ShardEngine([0] * net.num_nodes, 1, lookahead=horizon_s)  # one LP: sequential
    sim = NetworkSimulator(net, fib, engine)
    hosts = net.host_ids()
    rng = np.random.default_rng(3)
    src, dst = (int(x) for x in rng.choice(hosts, 2, replace=False))
    as_path = fib.as_level_path(src, dst)
    print(f"\ntransferring 200 KB from host {src} (AS {net.nodes[src].as_id}) "
          f"to host {dst} (AS {net.nodes[dst].as_id})")
    print(f"AS-level forwarding path: {as_path}")

    done: list[float] = []
    start_transfer(sim, src, dst, 200_000, lambda t: done.append(t))
    engine.run(until=horizon_s)
    if done:
        print(f"transfer completed at t={done[0] * 1e3:.1f} ms "
              f"({engine.events_executed} engine events)")
    else:
        print("transfer did not complete (increase the horizon)")


if __name__ == "__main__":
    main()
