"""Every consumer of the cost model reports the same number.

``engine/costmodel.py`` is the one place a count is multiplied by a rate
(``lp_busy_seconds``), the one place the window max is taken
(``window_walls``) and the one place a straggler is picked
(``window_blame``). This property drives random ``WindowStats`` lists,
shard partitions and straggler spans through every reader that used to
carry its own copy of the formula — the dense predictor, the
``WindowStats`` adapter, the per-window walls the calibration table is
handed, the modeled and measured blame reports, the Chrome export's
straggler flags, and the online re-balancer's placement score and
per-window blame — and holds them to one value: float-hex equal where
the summation order is the same, within 1e-12 relative where it is not
(shard busy as a sum of per-LP products against a product of per-shard
count sums; numpy's pairwise grouped sum against the re-balancer's
``np.add.at``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.engine.costmodel import lp_busy_seconds, predict_wallclock, window_blame
from repro.engine.windows import WindowStats
from repro.experiments.parallel import predict_from_windows
from repro.obs import blame
from repro.obs.distributed import window_calibration
from repro.obs.trace import MeasuredWindowRecord, TraceBuffer
from repro.obs.trace_export import to_chrome_trace
from repro.partition.rebalance import RebalanceConfig, Rebalancer, span_multipliers

REL = 1e-12


@st.composite
def scenarios(draw):
    """Random windows, a shard partition covering every LP, slowdown spans."""
    num_lps = draw(st.integers(1, 12))
    num_windows = draw(st.integers(1, 12))
    counts = st.lists(
        st.lists(st.integers(0, 20_000), min_size=num_lps, max_size=num_lps),
        min_size=num_windows, max_size=num_windows,
    )
    events = np.array(draw(counts), dtype=np.int64)
    remotes = np.array(draw(counts), dtype=np.int64) // 8
    num_shards = draw(st.integers(1, num_lps))
    # The first num_shards LPs seed one shard each, so none is empty.
    owner = list(range(num_shards)) + [
        draw(st.integers(0, num_shards - 1)) for _ in range(num_lps - num_shards)
    ]
    shards = [[lp for lp in range(num_lps) if owner[lp] == s] for s in range(num_shards)]
    spans = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_lps - 1),
                st.floats(0.0, float(num_windows)),
                st.floats(0.0, float(num_windows)),
                st.floats(1.0, 16.0),
            ),
            max_size=3,
        )
    )
    cluster = ClusterSpec(
        "property", num_lps,
        event_cost_s=draw(st.floats(1e-7, 1e-3)),
        remote_event_cost_s=draw(st.floats(1e-7, 1e-3)),
    )
    windows = [
        WindowStats(i, float(i), float(i + 1), events[i], remotes[i])
        for i in range(num_windows)
    ]
    return windows, events, remotes, shards, spans, cluster


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_every_consumer_reports_the_same_wall(scenario):
    windows, events, remotes, shards, spans, cluster = scenario
    num_windows, num_lps = events.shape

    # One engine node per LP: dense kernel == WindowStats adapter, exactly.
    dense = predict_wallclock(events, remotes, cluster)
    adapted = predict_from_windows(windows, num_lps, cluster)
    for field in ("total_s", "compute_s", "sync_s", "window_wall_s"):
        assert hexes(getattr(adapted, field)) == hexes(getattr(dense, field))

    # The modeled blame report over the same rows is the kernel's
    # attribution, and its critical path is the compute term.
    busy = lp_busy_seconds(events, remotes, cluster)
    stragglers, walls, waits = window_blame(busy)
    report = blame.analyze(windows, TraceBuffer(), cluster)
    charged = np.zeros(num_lps)
    np.add.at(charged, stragglers, waits)
    assert [step.unit for step in report.critical_path] == stragglers.tolist()
    assert hexes(report.window_wait_s) == hexes(waits)
    assert hexes(report.blame_s) == hexes(charged)
    assert report.critical_s.hex() == dense.compute_s.hex()

    # The Chrome export flags the same straggler of every window that
    # has a slice at all (zero busy time draws none).
    doc = to_chrome_trace(windows, TraceBuffer(), cluster)
    flagged = {
        (e["name"], e["tid"]) for e in doc["traceEvents"]
        if e.get("cat") == "window" and e["args"]["straggler"]
    }
    assert flagged == {
        (f"window {ws.window_index}", int(lp))
        for ws, lp, wall in zip(windows, stragglers, walls) if wall > 0
    }

    # LPs sharing worker shards: the adapter sums counts per shard, the
    # grouped kernel sums busy seconds per shard.
    sharded = predict_from_windows(windows, num_lps, cluster, shards=shards)
    grouped = predict_wallclock(events, remotes, cluster, groups=shards)
    assert sharded.sync_s.hex() == grouped.sync_s.hex()
    assert sharded.compute_s == pytest.approx(grouped.compute_s, rel=REL)
    assert sharded.window_wall_s == pytest.approx(grouped.window_wall_s, rel=REL)

    # Measured blame over synthetic worker records whose busy time is the
    # grouped busy time, and whose wait fills the window: every shard's
    # total is the wall, so only busy time can name the straggler.
    shard_busy = np.stack([busy[:, g].sum(axis=1) for g in shards], axis=1)
    tracer = TraceBuffer(enabled=True)
    for ws, row in zip(windows, shard_busy):
        for shard, b in enumerate(row):
            tracer.measured_window(ws.window_index, shard, b, row.max() - b, 0.0, 0.0, 1)
    measured_report = blame.analyze(windows, tracer, num_units=len(shards))
    stragglers_s, walls_s, waits_s = window_blame(busy, groups=shards)
    charged = np.zeros(len(shards))
    np.add.at(charged, stragglers_s, waits_s)
    assert [s.unit for s in measured_report.critical_path] == stragglers_s.tolist()
    assert hexes(measured_report.blame_s) == hexes(charged)
    assert measured_report.critical_s.hex() == grouped.compute_s.hex()

    # The calibration table is handed the sharded prediction's own
    # per-window walls, so its predicted total is that prediction.
    measured = [
        MeasuredWindowRecord(ws.window_index, 0, 1.0, 0.0, 0.0, 0.0, 1) for ws in windows
    ]
    table = window_calibration(
        measured,
        {ws.window_index: wall for ws, wall in zip(windows, sharded.window_wall_s)},
    )
    assert table["predicted_total_s"] == pytest.approx(sharded.total_s, rel=REL)

    # The re-balancer scores the current placement with the grouped
    # kernel over the same counts and the schedule's slowdown spans.
    quiet = RebalanceConfig(history=num_windows, threshold=1.0, patience=num_windows + 1,
                            cluster=cluster)
    rebalancer = Rebalancer(quiet, shards, num_lps, spans=spans)
    for ws in windows:
        decision = rebalancer.observe_window(
            ws.window_index, ws.start, ws.end, ws.events_per_lp, ws.remote_sends_per_lp
        )
        assert decision is None
    multipliers = np.stack(
        [span_multipliers(spans, ws.start, ws.end, num_lps) for ws in windows]
    )
    slowed = predict_wallclock(
        events, remotes, cluster, busy_multipliers=multipliers, groups=shards
    )
    assert rebalancer.placement_score().hex() == slowed.compute_s.hex()
    if not spans:
        assert rebalancer.placement_score() == pytest.approx(sharded.compute_s, rel=REL)

    # Its per-window shard blame is the kernel over its own shard sums
    # (np.add.at), and those agree with the grouped kernel to rounding.
    own = np.stack([rebalancer._shard_busy(b) for b in rebalancer._busy_history])
    picked, own_walls, own_waits = window_blame(own)
    expected = np.zeros_like(own)
    expected[np.arange(num_windows), picked] = own_waits
    assert hexes(np.stack(rebalancer._blame_history).ravel()) == hexes(expected.ravel())
    slowed_busy = lp_busy_seconds(events, remotes, cluster, busy_multipliers=multipliers)
    _, slowed_walls, slowed_waits = window_blame(slowed_busy, groups=shards)
    assert own_walls == pytest.approx(slowed_walls, rel=REL)
    assert own_waits == pytest.approx(slowed_waits, rel=REL, abs=REL * slowed_walls.max())
