"""Every fact a deleted written instrument held, kept by its record.

docs/architecture.md's delete ledger names, for each written obs
instrument that went, the record that keeps its fact instead: the
measured trace channel for the per-worker span timers and the
barrier-wait histogram, the ``WindowStats`` rows for the
events-per-window histogram, the migration trace record and
``MigrationDecision`` for the rebalance instruments, and the link
table's drop column for congestion. These tests hold each record to the
run totals it has to agree with, so a record that stops carrying its
fact fails here rather than leaving the ledger wrong.
"""

from __future__ import annotations

import numpy as np
import pytest
import test_differential_determinism as determinism

from repro.engine import ShardEngine
from repro.engine.parallel import LocalShardGroup, ParallelConservativeEngine
from repro.experiments.shard import chain_spec, run_reference
from repro.netsim import NetworkSimulator, send_datagram
from repro.obs import names
from repro.obs.distributed import merged_trace_snapshot, window_calibration
from repro.obs.registry import observed_run
from repro.obs.trace import get_tracer, traced_run
from repro.routing import ForwardingPlane
from repro.topology import generate_flat_network

ASSIGNMENT = np.array([0, 0, 0, 0, 1, 1, 1, 1])
NUM_LPS = 2
LOOKAHEAD = 1e-4
DURATION = 0.02


def spec():
    return chain_spec(num_nodes=8, latency_s=LOOKAHEAD, packets=20)


@pytest.fixture(scope="module")
def mp_run():
    """One observed and traced two-worker run: its result and merged trace."""
    with observed_run(), traced_run(get_tracer()):
        result = ParallelConservativeEngine(
            ASSIGNMENT, NUM_LPS, LOOKAHEAD, procs=2, start_method="fork"
        ).run_scenario(spec(), until=DURATION)
        merged = merged_trace_snapshot(result)
    assert merged.measured
    return result, merged


def per_shard(merged, field: str) -> dict[int, list]:
    out: dict[int, list] = {}
    for m in merged.measured:
        out.setdefault(m.shard_id, []).append(getattr(m, field))
    return out


class TestMeasuredChannel:
    """``parallel.barrier.wait_s``, ``engine.barrier.wait`` and the
    ``parallel.{window.execute,mail.encode,mail.decode}`` timers."""

    def test_a_shards_barrier_wait_is_the_sum_of_its_measured_waits(self, mp_run):
        result, merged = mp_run
        waits = per_shard(merged, "barrier_wait_s")
        assert sorted(waits) == [0, 1]
        for shard, spans in waits.items():
            assert sum(spans) == pytest.approx(result.barrier_wait_s[shard], rel=1e-12)

    def test_a_shards_measured_mail_bytes_are_its_mail_bytes(self, mp_run):
        result, merged = mp_run
        for shard, sizes in per_shard(merged, "mail_bytes").items():
            assert sum(sizes) == result.mail_bytes[shard]
        assert result.total_mail_bytes > 0

    def test_a_shards_measured_events_are_its_events(self, mp_run):
        result, merged = mp_run
        for shard, events in per_shard(merged, "events").items():
            assert sum(events) == result.worker_events[shard]

    def test_every_measured_span_is_a_duration(self, mp_run):
        _, merged = mp_run
        for field in ("execute_s", "mail_encode_s", "mail_decode_s", "barrier_wait_s"):
            for shard, spans in per_shard(merged, field).items():
                assert min(spans) >= 0.0, (field, shard)
        for shard, spans in per_shard(merged, "execute_s").items():
            assert sum(spans) > 0.0, shard


class TestWindowRows:
    """``engine.window.events``: the events-per-window histogram."""

    def test_each_windows_measured_events_are_its_stats_row(self, mp_run):
        result, merged = mp_run
        by_window: dict[int, int] = {}
        for m in merged.measured:
            by_window[m.window_index] = by_window.get(m.window_index, 0) + m.events
        rows = {s.window_index: s.total_events for s in result.window_stats}
        assert by_window == rows

    def test_the_rows_of_a_run_sum_to_its_events(self):
        with observed_run() as reg:
            engine, _ = run_reference(spec(), ASSIGNMENT, NUM_LPS, LOOKAHEAD, DURATION)
        assert engine.events_executed > 0
        assert sum(s.total_events for s in engine.window_stats) == engine.events_executed
        assert reg.get_counter(names.ENGINE_EVENTS).value == engine.events_executed
        assert reg.get_counter(names.ENGINE_WINDOWS).value == len(engine.window_stats)


class TestCalibrationTable:
    """``calibration.{windows.compared,measured.wall_s,predicted.wall_s}``."""

    def test_the_totals_are_the_sums_over_the_measured_windows(self, mp_run):
        _, merged = mp_run
        walls: dict[int, float] = {}
        for m in merged.measured:
            walls[m.window_index] = max(walls.get(m.window_index, 0.0), m.total_s)
        predicted = {w: 1e-3 for w in walls}
        table = window_calibration(merged.measured, predicted)
        assert len(table["windows"]) == len(walls)
        assert table["measured_total_s"] == pytest.approx(sum(walls.values()))
        assert table["predicted_total_s"] == pytest.approx(1e-3 * len(walls))
        assert table["overall_ratio"] == pytest.approx(
            table["measured_total_s"] / table["predicted_total_s"]
        )


class TestMigrationRecords:
    """``rebalance.state.bytes`` and ``rebalance.blame.concentration``."""

    RB = determinism.TestRebalanceDeterminism

    @pytest.fixture(scope="class")
    def rebalanced(self):
        rb = self.RB
        with traced_run(get_tracer()) as tracer:
            result = LocalShardGroup(
                rb._assignment(4), 4, rb.LOOKAHEAD, procs=2, rebalance=rb._config()
            ).run_scenario(rb._spec(2), until=rb.UNTIL)
            records = list(tracer.rebalance)
        assert result.migrations
        return result, records

    def test_one_record_per_migration_with_its_decision(self, rebalanced):
        result, records = rebalanced
        assert [
            (r.window_index, r.lp, r.src_shard, r.dst_shard, r.concentration,
             r.predicted_gain_s)
            for r in records
        ] == [
            (d.window_index, d.lp, d.src_shard, d.dst_shard, d.concentration,
             d.predicted_gain_s)
            for d in result.migrations
        ]

    def test_each_record_carries_the_bytes_of_its_payload(self, rebalanced):
        _, records = rebalanced
        assert all(r.state_bytes > 0 for r in records)


class TestCongestion:
    """``netsim.link.queue_hwm_bytes``: what a full queue leaves behind."""

    def test_a_congested_run_reads_its_queue_drops_per_link(self):
        net = generate_flat_network(num_routers=6, num_hosts=4, seed=1)
        hosts = net.host_ids()
        with observed_run() as reg:
            kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
            sim = NetworkSimulator(net, ForwardingPlane(net), kernel)
            for i in range(400):
                kernel.schedule_at(
                    0.0, send_datagram, node=hosts[0],
                    args=(sim, hosts[0], hosts[1], 1400),
                )
            kernel.run(until=1.0)
        drops = reg.get_vector(names.NETSIM_LINK_DROPS)
        assert sim.counters.packets_dropped_queue > 0
        assert drops.total == sim.counters.packets_dropped_queue
        assert reg.get_counter(names.NETSIM_PACKETS_DROPPED_QUEUE).value == drops.total
        np.testing.assert_array_equal(drops.values, sim.link_drops())
