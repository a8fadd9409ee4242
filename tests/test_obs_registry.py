"""Unit tests for the observability layer: registry, instruments,
exporters, and the registry's reads of a real run's traffic profile."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.obs import Registry, Stopwatch, export, names, observed_run
from repro.obs.registry import get_registry


@pytest.fixture
def reg():
    return Registry(enabled=True)


class TestRegistryLifecycle:
    def test_starts_disabled_by_default(self):
        assert Registry().enabled is False

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_factories_are_idempotent_by_name(self, reg):
        assert reg.counter("a") is reg.counter("a")
        assert reg.vector_counter("v", 4) is reg.vector_counter("v", 4)
        assert reg.timer("t") is reg.timer("t")

    def test_vector_resized_on_topology_change(self, reg):
        small = reg.vector_counter("v", 4)
        big = reg.vector_counter("v", 9)
        assert big is not small
        assert big.size == 9
        assert reg.get_vector("v") is big

    def test_lookup_unknown_name_lists_known(self, reg):
        reg.counter("known.counter")
        with pytest.raises(KeyError, match="known.counter"):
            reg.get_counter("nope")

    def test_reset_zeroes_but_keeps_registrations(self, reg):
        c = reg.counter("c")
        v = reg.vector_counter("v", 3)
        c.inc(5)
        v.inc(1, 2.0)
        reg.reset()
        assert c.value == 0
        assert v.total == 0
        assert reg.get_counter("c") is c

    def test_clear_drops_registrations(self, reg):
        reg.counter("c")
        reg.clear()
        with pytest.raises(KeyError):
            reg.get_counter("c")


class TestInstruments:
    def test_counter_accumulates_only_when_enabled(self, reg):
        c = reg.counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        reg.disable()
        c.inc(100)
        assert c.value == 3.5

    def test_vector_counter_inc_and_add_array(self, reg):
        v = reg.vector_counter("v", 3)
        v.inc(0)
        v.inc(2, 4.0)
        v.add_array(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(v.values, [2.0, 1.0, 5.0])
        assert v.total == 8.0

    def test_max_gauge_keeps_high_water_mark(self, reg):
        g = reg.max_gauge("g", 2)
        g.observe(0, 5.0)
        g.observe(0, 3.0)
        g.observe(1, 7.0)
        np.testing.assert_allclose(g.values, [5.0, 7.0])

    def test_histogram_bucketing_and_overflow(self, reg):
        h = reg.histogram("h", (1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 1000.0):
            h.observe(value)
        assert h.counts.tolist() == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(1056.5)

    def test_histogram_rejects_unsorted_bounds(self, reg):
        with pytest.raises(ValueError, match="sorted"):
            reg.histogram("bad", (10.0, 1.0))

    def test_span_timer_protocol(self, reg):
        t = reg.timer("t")
        token = t.start()
        assert token >= 0.0
        t.stop(token)
        with t.span():
            pass
        assert t.count == 2
        assert t.total_s >= 0.0
        assert t.mean_s == t.total_s / 2

    def test_span_timer_disabled_token_is_noop(self, reg):
        t = reg.timer("t")
        reg.disable()
        token = t.start()
        assert token == -1.0
        t.stop(token)
        assert t.count == 0

    def test_stopwatch_is_registry_independent(self):
        watch = Stopwatch()
        assert watch.elapsed() >= 0.0
        watch.restart()
        assert watch.elapsed() >= 0.0


class TestReads:
    """A read is the owner's count, summed per name; never a copy."""

    def test_reads_sum_and_follow_their_owners(self, reg):
        owners = [{"n": 2, "v": [1, 0, 3]}, {"n": 5, "v": [0, 4, 0]}]
        for owner in owners:
            reg.read("c", lambda o=owner: o["n"])
            reg.read("v", lambda o=owner: o["v"])
        owners[0]["n"] = 10
        assert reg.get_counter("c").value == 15.0
        assert reg.get_vector("v").values.tolist() == [1.0, 4.0, 3.0]
        assert reg.get_vector("v").values.dtype == np.float64

    def test_disabled_registry_shows_a_zero_and_holds_no_owner(self):
        reg = Registry()
        reg.read("v", lambda: [7, 7])
        assert reg.get_vector("v").values.tolist() == [0.0, 0.0]
        assert reg._reads["v"][1] == []

    def test_reset_drops_the_reads(self, reg):
        reg.read("c", lambda: 3)
        reg.reset()
        with pytest.raises(KeyError):
            reg.get_counter("c")

    def test_another_size_replaces_the_earlier_reads(self, reg):
        reg.read("v", lambda: [1, 1, 1])
        reg.read("v", lambda: [2, 2])
        assert reg.get_vector("v").values.tolist() == [2.0, 2.0]

    def test_pickle_and_merge_carry_values_not_owners(self, reg):
        import pickle

        owner = {"n": 4}
        reg.read("c", lambda: owner["n"])  # a lambda: pickling the owner would fail
        shipped = pickle.loads(pickle.dumps(reg))
        merged = Registry()
        merged.merge_from(reg)
        owner["n"] = 99
        assert shipped.get_counter("c").value == merged.get_counter("c").value == 4.0
        assert shipped._reads == merged._reads == {}


class TestObservedRun:
    def test_enables_resets_and_restores(self):
        reg = Registry(enabled=False)
        c = reg.counter("c")
        c._record(7)  # simulate stale state from a previous run
        with observed_run(reg) as inner:
            assert inner is reg
            assert reg.enabled
            assert c.value == 0  # the reset zeroed the stale state
            c.inc()
        assert reg.enabled is False
        assert c.value == 1  # reads remain valid after exit

    def test_nested_observation_stays_enabled(self):
        reg = Registry(enabled=True)
        with observed_run(reg):
            pass
        assert reg.enabled is True


class TestExport:
    def _populated(self) -> Registry:
        reg = Registry(enabled=True)
        reg.counter("pkts.sent").inc(3)
        v = reg.vector_counter("node.events", 2)
        v.inc(0, 2.0)
        v.inc(1, 1.0)
        reg.max_gauge("queue.hwm", 1).observe(0, 9.5)
        reg.histogram("win.events", (1.0, 10.0)).observe(5.0)
        t = reg.timer("barrier.wait")
        t.stop(t.start())
        return reg

    def test_json_snapshot_roundtrip(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "snap.json"
        export.write_snapshot(str(path), reg, meta={"seed": 7})
        data = json.loads(path.read_text())
        assert data["version"] == 2
        assert data["meta"] == {"seed": 7}
        assert data["counters"]["pkts.sent"] == 3
        assert data["vectors"]["node.events"]["values"] == [2.0, 1.0]
        assert data["gauges"]["queue.hwm"]["values"] == [9.5]
        assert data["histograms"]["win.events"]["bucket_counts"] == [0, 1, 0]
        assert data["timers"]["barrier.wait"]["count"] == 1
        assert "series" not in data

    def test_prometheus_exposition(self):
        text = export.to_prometheus(self._populated())
        assert "# TYPE repro_pkts_sent counter" in text
        assert "repro_pkts_sent 3" in text
        assert 'repro_node_events{index="1"} 1' in text
        assert 'repro_win_events_bucket{le="+Inf"} 1' in text
        assert "repro_barrier_wait_spans_total 1" in text
        # cumulative-le convention: the 10.0 bucket includes the 1.0 bucket
        assert 'repro_win_events_bucket{le="10"} 1' in text

    def test_prom_format_via_write_snapshot(self, tmp_path):
        path = tmp_path / "snap.prom"
        export.write_snapshot(str(path), self._populated(), fmt="prom")
        assert path.read_text().startswith("# HELP")

    #: metric family sample line: name, optional one-label set, value
    _SAMPLE = re.compile(
        r'^[a-zA-Z_][a-zA-Z0-9_]*(\{(index|le)="[^"]+"\})? [0-9eE.+-]+$|'
        r"^[a-zA-Z_][a-zA-Z0-9_]* [0-9eE.+-]+$"
    )

    def test_prometheus_help_type_sample_roundtrip(self):
        """Every # TYPE has a preceding # HELP; samples are well-formed."""
        text = export.to_prometheus(self._populated())
        helped: set[str] = set()
        typed: set[str] = set()
        for line in text.strip().splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split(" ", 3)[2])
            elif line.startswith("# TYPE "):
                name = line.split(" ", 3)[2]
                assert name in helped, f"# TYPE {name} has no preceding # HELP"
                typed.add(name)
            else:
                assert self._SAMPLE.match(line), f"malformed sample line: {line!r}"
        assert typed == helped
        # one family per instrument, two for the timer's counter pair
        assert "repro_barrier_wait_seconds_total" in typed
        assert "repro_barrier_wait_spans_total" in typed

    def test_prometheus_help_uses_canonical_text(self):
        reg = Registry(enabled=True)
        reg.counter(names.ENGINE_EVENTS).inc()
        text = export.to_prometheus(reg)
        assert f"# HELP repro_engine_events_executed {names.HELP[names.ENGINE_EVENTS]}" in text

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown snapshot format"):
            export.write_snapshot(str(tmp_path / "x"), self._populated(), fmt="xml")


class TestHistogramQuantile:
    def _hist(self, bounds, observations):
        reg = Registry(enabled=True)
        h = reg.histogram("q.test", bounds)
        for v in observations:
            h.observe(v)
        return h

    def test_linear_interpolation_within_first_bucket(self):
        h = self._hist((10.0, 20.0), (1.0, 2.0, 3.0, 4.0))
        # Uniform-in-bucket assumption over (0, 10]: rank 2 of 4 -> 5.0
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)
        assert h.quantile(0.0) == pytest.approx(0.0)

    def test_interpolation_uses_previous_bound_as_lower_edge(self):
        h = self._hist((10.0, 20.0), (5.0, 15.0))
        assert h.quantile(0.5) == pytest.approx(10.0)
        assert h.quantile(0.75) == pytest.approx(15.0)
        assert h.quantile(1.0) == pytest.approx(20.0)

    def test_overflow_bucket_clamps_to_last_finite_bound(self):
        # The +Inf bucket cannot be interpolated; the documented behavior
        # is a clamp to bounds[-1] (the histogram knows nothing more).
        h = self._hist((10.0, 20.0), (5.0, 100.0, 200.0))
        assert h.quantile(0.9) == 20.0
        assert h.quantile(1.0) == 20.0

    def test_empty_and_out_of_range_raise(self):
        h = self._hist((10.0,), ())
        with pytest.raises(ValueError, match="empty"):
            h.quantile(0.5)
        with pytest.raises(ValueError, match="0, 1"):
            self._hist((10.0,), (1.0,)).quantile(1.5)

    def test_quantiles_are_monotone(self):
        rng = np.random.default_rng(0)
        h = self._hist((0.5, 1.0, 2.0, 4.0, 8.0), rng.exponential(2.0, 500))
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_rank_on_cumulative_boundary_does_not_skip_empty_buckets(self):
        # 7 obs in (0, 1], none in (1, 2], 93 in (2, 3]. quantile(0.07)
        # asks for rank 7 of 100 — exactly the last observation of the
        # first bucket, so the answer is its bound, 1.0. In floats
        # 0.07 * 100 == 7.000000000000001; without the boundary snap the
        # overshoot skips the completing bucket and lands at fraction
        # ~0 of the (2, 3] bucket, jumping the estimate to 2.0.
        h = self._hist((1.0, 2.0, 3.0), [0.5] * 7 + [2.5] * 93)
        assert h.quantile(0.07) == pytest.approx(1.0)

    def test_non_positive_first_bound_is_its_own_lower_edge(self):
        # A first bucket bounded at <= 0 has no usable width: every rank
        # inside it resolves to the bound itself, never below it.
        h = self._hist((-5.0, 10.0), (-7.0, -6.0))
        assert h.quantile(0.25) == pytest.approx(-5.0)
        assert h.quantile(1.0) == pytest.approx(-5.0)

    def test_quantile_matches_sorted_sample_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        bounds = (0.5, 1.0, 2.0, 4.0, 8.0)

        def bucket_range(value):
            """Bucket edges of ``value`` under the quantile convention."""
            for i, b in enumerate(bounds):
                if value <= b:
                    lo = bounds[i - 1] if i else min(0.0, b)
                    return lo, b
            return bounds[-1], bounds[-1]  # overflow clamps

        @hypothesis.given(
            sample=st.lists(
                st.floats(0.001, 16.0, allow_nan=False), min_size=1, max_size=60
            ),
            qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        )
        def check(sample, qs):
            h = self._hist(bounds, sample)
            ordered = sorted(sample)
            estimates = [(q, h.quantile(q)) for q in sorted(qs)]
            for q, est in estimates:
                # The estimate must land within the bucket bounds of the
                # true sample quantile: rank ceil(q*n) in 1-indexed
                # order statistics (rank 0 -> the first observation's
                # bucket, lower edge side).
                rank = max(1, int(np.ceil(q * len(ordered) - 1e-9)))
                lo, hi = bucket_range(ordered[rank - 1])
                assert lo - 1e-9 <= est <= hi + 1e-9
            values = [est for _, est in estimates]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

        check()


class TestProfileOfARun:
    def test_profile_equals_the_registry_reads_on_a_real_run(self):
        """The registry reads the simulator's own counts, so the traffic
        profile of a run and its ``netsim.*`` reads are one record."""
        from repro.engine import ShardEngine
        from repro.netsim import NetworkSimulator, send_datagram
        from repro.profilers.traffic import TrafficProfile
        from repro.routing import ForwardingPlane
        from repro.topology import generate_flat_network

        net = generate_flat_network(num_routers=12, num_hosts=6, seed=3)
        hosts = net.host_ids()
        duration = 0.5
        with observed_run() as reg:
            kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=duration)
            sim = NetworkSimulator(net, ForwardingPlane(net), kernel)
            for i in range(60):
                src = hosts[i % len(hosts)]
                dst = hosts[(3 * i + 1) % len(hosts)]
                kernel.schedule_at(
                    i * 1e-3, send_datagram, node=src, args=(sim, src, dst, 1000 + i)
                )
            kernel.run(until=duration)
        profile = TrafficProfile.from_simulation(sim, duration)
        assert profile.total_events > 0 and profile.link_bytes.sum() > 0
        for field, name in (
            ("node_events", names.NETSIM_NODE_EVENTS),
            ("link_bytes", names.NETSIM_LINK_BYTES),
            ("link_packets", names.NETSIM_LINK_PACKETS),
        ):
            np.testing.assert_array_equal(getattr(profile, field), reg.get_vector(name).values)
