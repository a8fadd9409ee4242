"""Operation counts of one checkpoint cut: a cost guard without a stopwatch.

A cut holds each link once, and only a link a rebuilt shard would not
already have (docs/performance.md, "Checkpoint cut"). Each term below
was paid on every cut before that — every link captured for the shard
state and again for every LP slice, a RED stream built for every link
whether or not it ever drew — and can come back through an
innocent-looking refactor while a timing on a noisy host still reads
"within bound", so they are counted, not timed: one
``_encode_worker_checkpoint`` of a shard owning both LPs of a small
generated network that a handful of datagrams crossed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SimKernel
from repro.engine.parallel.shard import ShardEngine, _build_shard, _encode_worker_checkpoint
from repro.engine.windows import iter_windows
from repro.experiments.shard import udp_spec
from repro.netsim import NetworkSimulator, link
from repro.routing import ForwardingPlane
from repro.serialization import decode_payload
from repro.topology import generate_flat_network

NET = generate_flat_network(num_routers=10, num_hosts=6, seed=3)
ASSIGNMENT = (np.arange(NET.num_nodes) >= NET.num_nodes // 2).astype(np.int64)
LOOKAHEAD = min(l.latency_s for l in NET.links if ASSIGNMENT[l.u] != ASSIGNMENT[l.v])
WINDOWS = 200


@pytest.fixture(scope="module")
def counted_cut():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _counted_cut(monkeypatch)


def _counted_cut(monkeypatch):
    until = WINDOWS * LOOKAHEAD
    spec = udp_spec(NET, until, packets=4, seed=1, chain_injects=True)
    engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[0, 1])
    scenario, fn_to_name, _ = _build_shard(engine, spec)
    for w, _start, end in iter_windows(0.0, LOOKAHEAD, until):
        engine.run_window(w, end)
    # A row capture is a LinkRuntime.capture, or the row builder it and
    # the checkpoint's link table share (absent before the table).
    rows = {"captured": 0}

    def counting(function):
        def wrapper(*args, **kwargs):
            rows["captured"] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(link.LinkRuntime, "capture", counting(link.LinkRuntime.capture))
    monkeypatch.setattr(
        link, "_captured_row", counting(getattr(link, "_captured_row", None)), raising=False
    )
    blob = _encode_worker_checkpoint(engine, scenario, fn_to_name, WINDOWS - 1, 0)
    sim = scenario.capture_shard.__self__.sim
    return sim, decode_payload(blob), rows["captured"]


def test_each_link_is_captured_at_most_once_per_cut(counted_cut):
    sim, payload, captured = counted_cut
    assert sorted(payload["lp_states"]) == [0, 1]  # both LPs' slices are in the cut ...
    assert 0 < captured <= len(sim.links)  # ... selected, not captured again


def test_a_link_no_event_touched_contributes_no_row(counted_cut):
    sim, payload, _ = counted_cut
    rows = payload["shard_state"]["sim"]["links"]["rows"]
    idle = {
        i for i, lr in enumerate(sim.links)
        if lr.total_packets == 0 and lr.total_drops == 0 and lr.busy_until == [0.0, 0.0]
    }
    assert idle and len(idle) < len(sim.links)  # the run leaves both kinds
    assert len(rows) == len(sim.links) - len(idle)
    assert not idle & set(rows)


def test_building_a_drop_tail_simulator_creates_no_random_stream(monkeypatch):
    fib = ForwardingPlane(NET)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda *args: made.append(args) or default_rng(*args)
    )
    sim = NetworkSimulator(NET, fib, SimKernel())
    assert made == []
    sim.links[0]._red_stream()  # ... until one is asked for
    assert len(made) == 1
