"""Deterministic regression fingerprint of the single-AS scenario.

Runs the small single-AS ScaLapack scenario twice with the same seed and
asserts the runs are *identical* — same executed-event count, same
forwarding-decision digest, same per-node event vector — then compares
against the committed fingerprint in ``tests/data/``. Any change to the
simulator that alters event outcomes (an RNG reorder, a float tweak in
TCP pacing, a forwarding change) fails here with a precise diff of what
moved.

To re-baseline after an *intentional* behavior change::

    REPRO_UPDATE_FINGERPRINT=1 PYTHONPATH=src python -m pytest \
        tests/test_regression_fingerprint.py

and commit the regenerated JSON alongside the change that explains it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import SCALES
from repro.experiments.runner import build_network, run_workload_simulation
from repro.experiments.workloads import install_workload
from repro.faults import FaultInjector, FaultSchedule
from repro.netsim import NetworkSimulator
from repro.online import Agent
from repro.engine import ShardEngine
from repro.routing.fib import ForwardingPlane

DATA_PATH = Path(__file__).parent / "data" / "regression_fingerprint.json"

#: Short fixed horizon — long enough for HTTP + ScaLapack traffic to mix,
#: short enough to run twice per test session.
DURATION_S = 1.0
SEED = 0


def run_scenario():
    """One full measured run of the fingerprint scenario."""
    scale = SCALES["small"]
    net = build_network("single-as", scale, seed=SEED)
    fib = ForwardingPlane(net)
    kernel, sim, _handles = run_workload_simulation(
        net, fib, "scalapack", scale, DURATION_S, seed=SEED
    )
    return kernel, sim, fib


def fingerprint(kernel, sim, fib) -> dict:
    """Collapse one run into its comparable identity."""
    vec = np.asarray(sim.node_packets, dtype=np.int64)
    return {
        "scenario": "single-as/scalapack",
        "scale": "small",
        "duration_s": DURATION_S,
        "seed": SEED,
        "events_executed": int(kernel.events_executed),
        "fib_digest": fib.digest(),
        "node_events_sha256": hashlib.sha256(
            vec.astype("<i8").tobytes()
        ).hexdigest(),
        "node_events_total": int(vec.sum()),
        "traffic": sim.counters.as_dict(),
    }


@pytest.fixture(scope="module")
def two_runs():
    a = run_scenario()
    b = run_scenario()
    return a, b


class TestSameSeedSameRun:
    def test_fingerprints_identical(self, two_runs):
        (ka, sa, fa), (kb, sb, fb) = two_runs
        assert fingerprint(ka, sa, fa) == fingerprint(kb, sb, fb)

    def test_per_node_event_vectors_identical(self, two_runs):
        (_, sa, _), (_, sb, _) = two_runs
        assert np.array_equal(sa.node_packets, sb.node_packets)

    def test_run_is_nontrivial(self, two_runs):
        # Guard against the fingerprint silently degenerating to an idle run.
        (kernel, sim, _), _ = two_runs
        assert kernel.events_executed > 10_000
        assert sim.counters.packets_delivered > 1_000


class TestNoFaultBitIdentity:
    def test_inert_fault_layer_leaves_fingerprint_unchanged(self, two_runs):
        """The fault layer is off by default: installing a FaultInjector
        with an *empty* schedule must leave the run bit-identical —
        same events, same forwarding digest, same per-node vector."""
        scale = SCALES["small"]
        net = build_network("single-as", scale, seed=SEED)
        fib = ForwardingPlane(net)
        kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=DURATION_S, record_trace=True)
        sim = NetworkSimulator(net, fib, kernel, record_transmissions=True)
        agent = Agent(sim)
        injector = FaultInjector(sim, fib, FaultSchedule.from_events([]))
        injector.install(kernel)
        install_workload(sim, agent, net, "scalapack", scale, SEED, DURATION_S)
        kernel.run(until=DURATION_S)
        assert injector.counts.injected == 0
        assert sim.dropped_fault == 0
        (ka, sa, fa), _ = two_runs
        assert fingerprint(kernel, sim, fib) == fingerprint(ka, sa, fa)


class TestStoredFingerprint:
    def test_matches_committed_baseline(self, two_runs):
        (kernel, sim, fib), _ = two_runs
        current = fingerprint(kernel, sim, fib)
        if os.environ.get("REPRO_UPDATE_FINGERPRINT"):
            DATA_PATH.parent.mkdir(parents=True, exist_ok=True)
            DATA_PATH.write_text(json.dumps(current, indent=2) + "\n")
            pytest.skip(f"baseline regenerated at {DATA_PATH}")
        assert DATA_PATH.exists(), (
            f"missing {DATA_PATH}; regenerate with REPRO_UPDATE_FINGERPRINT=1"
        )
        expected = json.loads(DATA_PATH.read_text())
        assert current == expected, (
            "simulation behavior changed; if intentional, re-baseline with "
            "REPRO_UPDATE_FINGERPRINT=1 and commit the new fingerprint"
        )
