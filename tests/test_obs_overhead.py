"""Overhead guarantees of the observability layer.

Two contracts from ``docs/observability.md``:

1. **Disabled means no writes.** The registry is never written: it
   reads the counts their owners keep. The structured tracer
   (:class:`repro.obs.trace.TraceBuffer`) splits every record method
   into a guarded public method and its single ``_append`` write layer;
   with obs disabled, a full simulation run must never reach it.
   Monkeypatching it to raise proves it.
2. **Enabled is cheap.** An observed >=1k-event run stays within a
   generous wall-clock factor of the unobserved run (the hot path is
   one attribute load + branch per trace hook point).
"""

from __future__ import annotations

import pytest

from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator, send_datagram
from repro.obs.registry import get_registry, observed_run
from repro.obs.timers import Stopwatch
from repro.obs.trace import TraceBuffer, get_tracer
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind

#: (class, method) of every private write layer of the obs layer.
RECORD_METHODS = [(TraceBuffer, "_append")]

NUM_PACKETS = 300  # 4 events per packet -> comfortably over 1k events


def run_line_scenario():
    """A >=1k-event UDP run over a 4-node line network."""
    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    r1 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    h1 = net.add_node(NodeKind.HOST)
    net.add_link(r0, r1, 1e9, 1e-3)
    net.add_link(h0, r0, 100e6, 20e-6)
    net.add_link(h1, r1, 100e6, 20e-6)

    kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
    sim = NetworkSimulator(net, ForwardingPlane(net), kernel)
    sim.udp_bind(h1, 9, lambda p: None)
    for i in range(NUM_PACKETS):
        kernel.schedule_at(
            i * 1e-4,
            lambda: send_datagram(sim, h0, h1, 200, port=9),
            node=h0,
        )
    kernel.run(until=1.0)
    return kernel, sim


class TestDisabledMeansNoWrites:
    def test_disabled_run_never_reaches_a_record_method(self, monkeypatch):
        # Both the aggregate registry AND the structured tracer are off:
        # the run must not append a single trace record either.
        monkeypatch.setattr(get_registry(), "enabled", False)
        monkeypatch.setattr(get_tracer(), "enabled", False)
        for cls, meth in RECORD_METHODS:
            def tripwire(self, *a, _cls=cls, _meth=meth, **kw):
                raise AssertionError(
                    f"{_cls.__name__}.{_meth} written with registry disabled"
                )
            monkeypatch.setattr(cls, meth, tripwire)
        kernel, sim = run_line_scenario()
        assert kernel.events_executed >= 1000
        assert sim.counters.packets_delivered == NUM_PACKETS

    def test_enabled_run_does_record(self):
        with observed_run() as reg:
            kernel, sim = run_line_scenario()
        from repro.obs import names

        node_events = reg.get_vector(names.NETSIM_NODE_EVENTS)
        assert node_events.total == sim.node_packets.sum()
        assert reg.get_counter(names.NETSIM_PACKETS_DELIVERED).value == NUM_PACKETS
        assert reg.get_counter(names.ENGINE_WINDOWS).value >= 1


class TestEnabledOverheadIsBounded:
    #: Generous ceiling: the instrumented run may take this many times the
    #: uninstrumented run (plus a floor absorbing timer jitter on runs
    #: this short). The real ratio is ~1.2x; 10x only catches grossly
    #: accidental hot-path work (a dict lookup or allocation per event).
    MAX_FACTOR = 10.0
    MIN_BASELINE_S = 0.005

    @staticmethod
    def _best_of(n: int, fn) -> float:
        best = float("inf")
        for _ in range(n):
            watch = Stopwatch()
            fn()
            best = min(best, watch.elapsed())
        return best

    def test_instrumented_run_within_factor_of_baseline(self, monkeypatch):
        monkeypatch.setattr(get_registry(), "enabled", False)
        baseline = self._best_of(3, run_line_scenario)

        def instrumented():
            with observed_run():
                run_line_scenario()

        enabled = self._best_of(3, instrumented)
        budget = self.MAX_FACTOR * max(baseline, self.MIN_BASELINE_S)
        assert enabled <= budget, (
            f"instrumented run took {enabled:.4f}s vs baseline "
            f"{baseline:.4f}s (budget {budget:.4f}s)"
        )

    def test_scenario_is_big_enough_to_be_meaningful(self):
        kernel, _ = run_line_scenario()
        assert kernel.events_executed >= 1000


@pytest.mark.parametrize("cls,meth", RECORD_METHODS, ids=lambda x: getattr(x, "__name__", x))
def test_every_instrument_has_its_record_layer(cls, meth):
    # The monkeypatch proof above silently weakens if a write layer is
    # renamed; pin the public/_record split per class.
    assert callable(getattr(cls, meth))


# ----------------------------------------------------------------------
# Multi-process backend: the same contract, across the pipe
# ----------------------------------------------------------------------
import numpy as np

from repro.engine.parallel import ParallelConservativeEngine
from repro.engine.parallel.coordinator import Coordinator
from repro.experiments.shard import chain_spec, delivery_log_bytes, merge_collected
from repro.obs.registry import Registry
from repro.obs.trace import TraceBuffer, traced_run

CHAIN_ASSIGNMENT = np.array([0, 0, 0, 0, 1, 1, 1, 1])
CHAIN_DURATION = 0.02


def run_chain_mp(procs: int = 2):
    spec = chain_spec(num_nodes=8, latency_s=1e-4, packets=20)
    engine = ParallelConservativeEngine(
        CHAIN_ASSIGNMENT,
        2,
        1e-4,
        procs=procs,
        start_method="fork",  # fork propagates monkeypatched tripwires
    )
    return engine.run_scenario(spec, until=CHAIN_DURATION)


class TestDistributedDisabledMeansNoObs:
    """Disabled-mode mp runs never ship a registry or tracer at all."""

    def test_disabled_mp_run_never_builds_a_snapshot(self, monkeypatch):
        monkeypatch.setattr(get_registry(), "enabled", False)
        monkeypatch.setattr(get_tracer(), "enabled", False)
        for cls in (Registry, TraceBuffer):
            def tripwire(*a, _cls=cls, **kw):
                raise AssertionError(f"{_cls.__name__} shipped with obs disabled")
            # fork children inherit the patch: pickling one fails the run
            monkeypatch.setattr(cls, "__reduce_ex__", tripwire)
        result = run_chain_mp()
        assert result.worker_registries == {}
        assert result.worker_traces == {}
        assert result.events_executed > 0

    def test_disabled_mail_is_byte_identical_without_obs_layer(self, monkeypatch):
        monkeypatch.setattr(get_registry(), "enabled", False)
        monkeypatch.setattr(get_tracer(), "enabled", False)
        with_layer = run_chain_mp()

        # Re-run with the `obs` stanza stripped from every worker config:
        # the wire a build without the observability layer would speak.
        orig = Coordinator.worker_config

        def stripped(self, shard_id, **kwargs):
            cfg = orig(self, shard_id, **kwargs)
            cfg.pop("obs", None)
            return cfg

        monkeypatch.setattr(Coordinator, "worker_config", stripped)
        without_layer = run_chain_mp()

        assert with_layer.mail_bytes == without_layer.mail_bytes
        merged_with = merge_collected(with_layer.collected)
        merged_without = merge_collected(without_layer.collected)
        assert delivery_log_bytes(merged_with) == delivery_log_bytes(merged_without)
        assert merged_with["counters"] == merged_without["counters"]

    def test_enabled_obs_adds_zero_mail_bytes(self, monkeypatch):
        monkeypatch.setattr(get_registry(), "enabled", False)
        monkeypatch.setattr(get_tracer(), "enabled", False)
        disabled = run_chain_mp()

        with observed_run(), traced_run(get_tracer()):
            enabled = run_chain_mp()

        # Positive control: the enabled runs really shipped the owners...
        assert len(enabled.worker_registries) == 2
        assert len(enabled.worker_traces) == 2
        # ...and none of it rode the mail batches. They travel the
        # control plane; mail volume is invariant.
        assert enabled.mail_bytes == disabled.mail_bytes

    def test_a_registry_only_run_times_no_worker_span(self, monkeypatch, tmp_path):
        """The worker's execute / encode / decode / checkpoint stopwatches
        feed only the tracer's measured channel: with the registry on and
        the tracer off, no window hands its spans to the engine."""
        calls = tmp_path / "observe_window_walls"

        def count(self, *args):  # runs in the forked worker: count in a file
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{self.shard_id}\n")

        monkeypatch.setattr(ShardEngine, "observe_window_walls", count)
        monkeypatch.setattr(get_tracer(), "enabled", False)
        with observed_run():
            registry_only = run_chain_mp()
        assert list(registry_only.worker_registries) == [0, 1]
        assert not calls.exists()

        # Positive control: traced, every worker times every window.
        with observed_run(), traced_run(get_tracer()):
            traced = run_chain_mp()
        lines = calls.read_text(encoding="utf-8").split()
        assert len(lines) == 2 * len(traced.window_stats) > 0

    def test_worker_snapshots_carry_provenance(self):
        with observed_run(), traced_run(get_tracer()):
            result = run_chain_mp()
        assert list(result.worker_registries) == [0, 1]
        assert list(result.worker_traces) == [0, 1]
