#!/usr/bin/env python
"""Online simulation: live applications through WrapSocket and the Agent.

The MicroGrid's defining feature is *online* simulation — real
application processes talk through intercepted sockets into the packet
simulation. This example runs the ScaLapack and GridNPB traffic models
through that exact path (WrapSocket -> Agent -> simulated TCP), then uses
the cluster cost model to compute the minimum *slowdown* factor at which
the virtual world could keep up on the modeled cluster (the paper quotes
"good efficiency with slowdown of 8 times" for its 20k-router runs).

Run:  python examples/online_application.py
"""

from __future__ import annotations

import numpy as np

from repro.cluster import teragrid_cluster
from repro.core import Approach, MappingPipeline
from repro.engine import ShardEngine, predict_from_trace
from repro.netsim import NetworkSimulator
from repro.netsim.app import GridNpbApp, ScaLapackApp, helical_chain
from repro.online import Agent, VirtualTimeController, required_slowdown
from repro.profilers import TrafficProfile
from repro.routing import ForwardingPlane
from repro.topology import generate_flat_network

DURATION_S = 20.0
NUM_ENGINES = 12


def main() -> None:
    net = generate_flat_network(num_routers=250, num_hosts=60, seed=5)
    fib = ForwardingPlane(net)
    # One LP: the sequential run, recording the trace every mapping is scored on.
    engine = ShardEngine([0] * net.num_nodes, 1, lookahead=DURATION_S, record_trace=True)
    sim = NetworkSimulator(net, fib, engine, record_transmissions=True)
    agent = Agent(sim)

    hosts = net.host_ids()
    sca = ScaLapackApp(agent, hosts[:4], iterations=6, compute_s=0.5)
    npb = GridNpbApp(agent, hosts[4:8], helical_chain())
    sca.start(at=0.5)
    npb.start(at=0.5)

    engine.run(until=DURATION_S)

    print(f"simulated {DURATION_S:.0f}s of virtual time, "
          f"{engine.events_executed} engine events")
    print(f"agent: {agent.stats.streams_completed}/{agent.stats.streams_opened} "
          f"streams, {agent.stats.bytes_requested / 1e6:.2f} MB requested")
    print(f"ScaLapack finished at t={sca.stats.finished_at:.2f}s "
          f"({sca.stats.transfers} transfers)")
    print(f"GridNPB HC finished at t={npb.stats.finished_at:.2f}s")

    # Map the network and ask: can this run in real time on the cluster?
    profile = TrafficProfile.from_simulation(sim, DURATION_S)
    pipeline = MappingPipeline(net, NUM_ENGINES)
    mapping = pipeline.run(Approach.HPROF, profile)

    times, nodes = engine.trace()
    tx_t, tx_f, tx_to = sim.transmissions()
    cluster = teragrid_cluster(NUM_ENGINES)
    pred = predict_from_trace(
        times, nodes, mapping.assignment, NUM_ENGINES,
        mapping.achieved_mll_s, DURATION_S, cluster, tx_t, tx_f, tx_to,
    )
    slowdown = required_slowdown(pred, DURATION_S)
    vtc = VirtualTimeController(slowdown=slowdown)

    print(f"\nHPROF mapping: MLL={mapping.achieved_mll_ms:.3f} ms, "
          f"{pred.num_windows} sync windows")
    print(f"modeled wall-clock: {pred.total_s:.2f}s "
          f"(compute {pred.compute_s:.2f}s + sync {pred.sync_s:.2f}s)")
    print(f"minimum slowdown on {NUM_ENGINES} engines: {slowdown:.2f}x")
    print(f"-> simulating {DURATION_S:.0f}s of virtual time needs "
          f"{vtc.wallclock_deadline(DURATION_S):.0f}s of wall-clock")


if __name__ == "__main__":
    main()
