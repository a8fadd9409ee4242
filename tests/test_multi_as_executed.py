"""The paper's second network on the executed backend.

A multi-AS network routes through BGP between ASes and OSPF inside them.
:class:`ForwardingPlane` decides that from the network alone: built
without an engine on nodes spanning several ASes, it converges BGP
itself. So the shard builders, which rebuild their plane from the
network document in every worker, route cross-AS traffic exactly as the
modeled pipeline does, and process chaos on ``multi-as`` compares
against a reference that delivers.

- *The plane rule*: several ASes converge BGP, one AS holds none, an
  explicit engine is kept, and AS ids with no AS-domain record fail at
  construction instead of routing nothing.
- *Executed runs route*: ``small``'s multi-AS network counts no
  ``unroutable`` packet, and 1/2/4 processes under fork and spawn
  reproduce the reference byte for byte.
- *Executed session resets*: a ``bgp.reset`` runs on the control lane
  that every shard replays; 1 and 2 processes give the reference's
  delivery log, counters and fault trace.
- *Process chaos*: ``run_process_chaos("multi-as", ...)`` recovers over
  a reference with no unroutable packet, and builds no plane of its own
  outside the shard builders.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.parallel import ParallelConservativeEngine
from repro.experiments import SCALES
from repro.experiments.chaos import format_process_chaos_report, run_process_chaos
from repro.experiments.shard import (
    delivery_log_bytes,
    merge_collected,
    run_reference,
    udp_spec,
)
from repro.faults import FaultEvent, FaultKind
from repro.routing import ForwardingPlane
from repro.routing.bgp import configure_bgp
from repro.topology import Network, NodeKind, generate_multi_as_network

SMALL = SCALES["small"]
SMALL_UNTIL = 0.2
TINY_UNTIL = 1.0


def lp_by_as(net: Network, num_lps: int) -> tuple[np.ndarray, float]:
    """One LP per AS residue class, and the largest safe lookahead: the
    smallest latency of a link between two LPs."""
    assignment = np.array([node.as_id % num_lps for node in net.nodes])
    lookahead = min(
        link.latency_s for link in net.links if assignment[link.u] != assignment[link.v]
    )
    return assignment, lookahead


def core_peering(net: Network) -> tuple[int, int]:
    """The first peering session between two ASes, in AS order."""
    return next(
        (a, p) for a in sorted(net.as_domains) for p in sorted(net.as_domains[a].peers)
        if a < p
    )


@pytest.fixture(scope="module")
def small_net():
    return generate_multi_as_network(
        num_ases=SMALL.num_ases, routers_per_as=SMALL.routers_per_as,
        num_hosts=SMALL.multi_hosts, seed=0,
    )


@pytest.fixture(scope="module")
def tiny_net():
    """Six ASes: two core ASes peering, one regional, three stubs."""
    return generate_multi_as_network(num_ases=6, routers_per_as=6, num_hosts=24, seed=0)


# ----------------------------------------------------------------------
# The plane rule
# ----------------------------------------------------------------------
class TestPlaneRule:
    def test_several_ases_converge_bgp_in_the_plane(self, tiny_net):
        fib = ForwardingPlane(tiny_net)
        assert fib.bgp is not None
        assert fib.bgp.speakers.keys() == tiny_net.as_domains.keys()
        hosts = tiny_net.host_ids()
        cross = [(s, d) for s in hosts for d in hosts
                 if tiny_net.nodes[s].as_id != tiny_net.nodes[d].as_id]
        assert cross and all(fib.node_path(s, d) is not None for s, d in cross)

    def test_an_explicit_engine_is_kept(self, tiny_net):
        bgp = configure_bgp(tiny_net)
        assert ForwardingPlane(tiny_net, bgp).bgp is bgp

    def test_one_as_holds_no_bgp(self, flat_net):
        assert ForwardingPlane(flat_net).bgp is None

    def test_as_ids_without_domain_records_fail_at_construction(self):
        net = Network()
        for as_id in (0, 0, 1, 1):
            net.add_node(NodeKind.ROUTER, as_id=as_id)
        for u in range(3):
            net.add_link(u, u + 1, 1e9, 1e-3, 1 << 20)
        with pytest.raises(ValueError, match="unknown AS 0"):
            ForwardingPlane(net)


# ----------------------------------------------------------------------
# Executed runs route
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_spec(small_net):
    return udp_spec(small_net, SMALL_UNTIL, packets=5000, seed=1)


def deliveries(collected: dict) -> list[tuple]:
    """The delivery log as a sorted multiset of ``(time, node, flow, seq)``:
    the order a log merges in follows the partition, the deliveries not."""
    return sorted(tuple(rec[2:]) for rec in collected["log"])


class TestSmallMultiAsRoutes:
    @pytest.fixture(scope="class")
    def one_lp(self, small_net, small_spec):
        return run_reference(
            small_spec, [0] * small_net.num_nodes, 1, SMALL_UNTIL, SMALL_UNTIL
        )[1]

    @pytest.fixture(scope="class")
    def split(self, small_net, small_spec):
        assignment, lookahead = lp_by_as(small_net, 4)
        ref = run_reference(small_spec, assignment, 4, lookahead, SMALL_UNTIL)[1]
        return assignment, lookahead, ref

    def test_one_lp_reference_counts_no_unroutable(self, one_lp):
        # 4,673 of the 5,000 were unroutable while the shard builders
        # built their plane without BGP.
        assert one_lp["counters"]["unroutable"] == 0
        assert one_lp["counters"]["delivered"] == 4236

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_processes_reproduce_the_reference(
        self, small_spec, one_lp, split, procs, start_method
    ):
        assignment, lookahead, ref = split
        result = ParallelConservativeEngine(
            assignment, 4, lookahead, procs=procs, start_method=start_method
        ).run_scenario(small_spec, until=SMALL_UNTIL)
        merged = merge_collected(result.collected)
        assert delivery_log_bytes(merged) == delivery_log_bytes(ref)
        assert merged["node_packets"] == ref["node_packets"]
        assert merged["counters"] == ref["counters"] == one_lp["counters"]
        assert merged["counters"]["unroutable"] == 0
        assert deliveries(merged) == deliveries(one_lp)


# ----------------------------------------------------------------------
# Executed session resets
# ----------------------------------------------------------------------
def session_reset_spec(net: Network):
    """Tiny multi-AS UDP traffic with the core peering reset at 0.1 s;
    the session is down until its first retry, at about 0.62 s."""
    faults = [FaultEvent(
        0.1, FaultKind.BGP_SESSION_RESET, core_peering(net), (("down_for", 0.2),)
    )]
    return udp_spec(net, TINY_UNTIL, packets=1500, seed=1, faults=faults)


class TestExecutedSessionReset:
    @pytest.fixture(scope="class")
    def case(self, tiny_net):
        assignment, lookahead = lp_by_as(tiny_net, 2)
        spec = session_reset_spec(tiny_net)
        return spec, assignment, lookahead, run_reference(
            spec, assignment, 2, lookahead, TINY_UNTIL
        )[1]

    def test_the_reset_runs_and_withdraws_routes(self, tiny_net, case):
        spec, assignment, lookahead, ref = case
        kinds = [record.kind for record in ref["faults"]]
        assert kinds == ["bgp.withdrawn", "bgp.reestablished"]
        assert ref["fault_counts"]["bgp_resets"] == 1
        assert ref["fault_counts"]["bgp_reestablished"] == 1
        # The withdrawal is visible in the traffic: the same packets with
        # no fault all arrive.
        clean = udp_spec(tiny_net, TINY_UNTIL, packets=1500, seed=1)
        plain = run_reference(clean, assignment, 2, lookahead, TINY_UNTIL)[1]
        assert plain["counters"]["unroutable"] == 0
        assert ref["counters"]["unroutable"] > 0

    @pytest.mark.parametrize("procs", [1, 2])
    def test_processes_reproduce_the_reference(self, case, procs):
        spec, assignment, lookahead, ref = case
        result = ParallelConservativeEngine(
            assignment, 2, lookahead, procs=procs
        ).run_scenario(spec, until=TINY_UNTIL)
        merged = merge_collected(result.collected)
        assert delivery_log_bytes(merged) == delivery_log_bytes(ref)
        for key in ("counters", "node_packets", "faults", "fault_counts"):
            assert merged[key] == ref[key], key


# ----------------------------------------------------------------------
# Process chaos
# ----------------------------------------------------------------------
def test_process_chaos_on_multi_as_recovers_over_a_routed_reference(monkeypatch):
    # The executed run routes in its shard builders; a plane built by
    # build_network here would be a whole BGP convergence thrown away.
    built = []
    monkeypatch.setattr("repro.experiments.runner.ForwardingPlane", lambda *a: built.append(a))
    result = run_process_chaos("multi-as", scale=SMALL, seed=0, kills=1, duration_s=0.5)
    assert built == []
    # 856 of the reference's 920 packets were unroutable while the shard
    # builders built their plane without BGP.
    assert result.reference_counters["unroutable"] == 0
    assert result.reference_counters["delivered"] > 0.9 * result.reference_counters["sent"]
    assert result.recovered
    assert format_process_chaos_report(result).splitlines()[-1] == "verdict        : RECOVERED"
