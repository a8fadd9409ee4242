"""Tests for the link transmission model."""

from __future__ import annotations

import pytest

from repro.netsim import LinkRuntime, LinkTable, Packet, Protocol
from repro.netsim.link import RED
from repro.topology.models import Link


def mk_link(bw=1e6, lat=1e-3, queue=10_000, discipline="droptail"):
    return LinkRuntime(LinkTable([Link(0, 1, 2, bw, lat, queue)], discipline), 0)


def pkt(size=1000):
    return Packet(src=1, dst=2, size_bytes=size, protocol=Protocol.UDP, flow_id=1)


class TestTransmit:
    def test_timing(self):
        lr = mk_link(bw=1e6, lat=1e-3)
        res = lr.transmit(1, pkt(1000), now=0.0)
        assert res.accepted
        assert res.start_time == 0.0
        # 1000 B at 1 Mb/s = 8 ms transmit + 1 ms propagation
        assert res.arrival_time == pytest.approx(0.009)

    def test_serialization(self):
        lr = mk_link(bw=1e6)
        r1 = lr.transmit(1, pkt(1000), 0.0)
        r2 = lr.transmit(1, pkt(1000), 0.0)
        assert r2.start_time == pytest.approx(0.008)  # waits for first

    def test_directions_independent(self):
        lr = mk_link(bw=1e6)
        lr.transmit(1, pkt(1000), 0.0)
        rev = lr.transmit(2, pkt(1000), 0.0)
        assert rev.start_time == 0.0

    def test_drop_when_queue_full(self):
        lr = mk_link(bw=1e6, queue=2_000)
        results = [lr.transmit(1, pkt(1000), 0.0) for _ in range(8)]
        assert not all(r.accepted for r in results)
        assert lr.total_drops >= 1

    def test_queue_drains_over_time(self):
        lr = mk_link(bw=1e6, queue=2_000)
        for _ in range(4):
            lr.transmit(1, pkt(1000), 0.0)
        # much later the backlog is gone
        res = lr.transmit(1, pkt(1000), 1.0)
        assert res.accepted
        assert res.start_time == 1.0

    def test_counters(self):
        lr = mk_link()
        lr.transmit(1, pkt(500), 0.0)
        lr.transmit(2, pkt(700), 0.0)
        assert lr.total_bytes == 1200
        assert lr.total_packets == 2

    def test_wrong_node_raises(self):
        lr = mk_link()
        with pytest.raises(ValueError):
            lr.transmit(99, pkt(), 0.0)

    def test_admission_counts_packet_itself(self):
        # Regression: admission is backlog + packet > queue_bytes. With a
        # 2000 B buffer and 1000 B packets the third offer (backlog
        # exactly 2000) must be dropped — the old backlog-only test let
        # the buffer overshoot by a packet.
        lr = mk_link(bw=1e6, queue=2_000)
        assert lr.transmit(1, pkt(1000), 0.0).accepted  # backlog 0
        assert lr.transmit(1, pkt(1000), 0.0).accepted  # backlog 1000 (fits exactly)
        third = lr.transmit(1, pkt(1000), 0.0)  # backlog 2000: would overshoot
        assert not third.accepted
        assert third.backlog_bytes == pytest.approx(2_000)
        assert lr.total_drops == 1

    def test_oversized_packet_dropped_even_into_empty_queue(self):
        # Regression: a packet larger than the whole buffer must never be
        # admitted, even with zero backlog.
        lr = mk_link(bw=1e6, queue=10_000)
        assert not lr.transmit(1, pkt(12_500), 0.0).accepted
        assert lr.total_drops == 1



class _StubRng:
    """Deterministic stand-in for the link's RNG: always returns `value`."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.value


class TestGentleRedProfile:
    """Deterministic checks of the piecewise-linear gentle-RED profile.

    queue=10_000 with default RedParams gives min_th=500, max_th=5_000:
    p = 0 up to min_th, linear to max_p=0.1 at max_th, linear from 0.1
    to 1.0 at 2*max_th (gentle ramp), certain drop beyond. The stub RNG
    turns the probabilistic decision into an exact threshold test.
    """

    def _red(self, rng_value):
        lr = mk_link(queue=10_000, discipline="red")
        lr.table.streams[2 * lr.index + RED] = _StubRng(rng_value)
        return lr

    def test_no_drop_at_or_below_min_th(self):
        lr = self._red(0.0)  # rng would drop at any p > 0
        assert not lr._early_drop(0.0)
        assert not lr._early_drop(500.0)
        assert lr.table.stream(0, RED).calls == 0  # short-circuits before consulting the RNG

    def test_linear_ramp_to_max_p(self):
        # midpoint of [min_th, max_th): p = max_p / 2 = 0.05
        assert self._red(0.0499)._early_drop(2_750.0)
        assert not self._red(0.0501)._early_drop(2_750.0)

    def test_continuous_at_max_th(self):
        # Regression: the old profile jumped to min(2 * max_p, 1) at
        # max_th. Gentle RED is continuous: p(max_th) == max_p == 0.1.
        assert self._red(0.0999)._early_drop(5_000.0)
        assert not self._red(0.1001)._early_drop(5_000.0)

    def test_gentle_ramp_midpoint(self):
        # at 1.5 * max_th: p = max_p + (1 - max_p) / 2 = 0.55
        assert self._red(0.5499)._early_drop(7_500.0)
        assert not self._red(0.5501)._early_drop(7_500.0)

    def test_certain_drop_at_twice_max_th(self):
        lr = self._red(0.999999)  # rng alone would never drop
        assert lr._early_drop(10_000.0)
        assert lr.table.stream(0, RED).calls == 0  # certain region never consults the RNG

    def test_droptail_never_early_drops(self):
        lr = mk_link(queue=10_000)  # default discipline
        lr.table.streams[RED] = _StubRng(0.0)
        assert not lr._early_drop(9_999.0)
