"""Unit tests for the online re-balancer's decision mechanics.

Everything here drives :class:`repro.partition.rebalance.Rebalancer`
directly with synthetic window counters — no engines, no processes — so
each trigger rule (threshold, patience, warm-up, cooldown, history
flush, budget retirement) and each candidate constraint (LP 0 pinned,
shards keep one LP, minimum relative gain) is pinned in isolation. The
cross-process byte-identity bar lives in the differential-determinism
suite; this file is about *when* and *what* the controller decides.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultEvent, FaultKind
from repro.partition.rebalance import (
    MigrationDecision,
    RebalanceConfig,
    Rebalancer,
    slowdown_spans,
    span_multipliers,
)

# Four LPs in two shards. Events [1, 1, 20, 1] put shard 1 far over
# threshold; the profitable single move is LP 3 off the blamed shard
# (moving hot LP 2 just relocates the straggler).
SHARDS = [[0, 1], [2, 3]]
HOT = [1, 1, 20, 1]
BALANCED = [5, 5, 5, 5]
ZEROS = [0, 0, 0, 0]


def _cfg(**overrides):
    defaults = dict(
        threshold=0.6, patience=2, cooldown=3, history=3, min_gain_fraction=0.0
    )
    defaults.update(overrides)
    return RebalanceConfig(**defaults)


def _feed(rb, events, windows=1, start=0.0):
    """Feed identical windows; returns the last decision (or None)."""
    decision = None
    for k in range(windows):
        decision = rb.observe_window(
            rb._window_count if hasattr(rb, "_window_count") else k,
            start + k * 1e-3,
            start + (k + 1) * 1e-3,
            events,
            [0] * len(events),
        )
    return decision


class TestTriggerRules:
    def test_warmup_holds_trigger_until_history_is_full(self):
        rb = Rebalancer(_cfg(patience=1), SHARDS, 4)
        # history=3: the first two windows are ramp-up, no trigger even
        # at 100% concentration.
        assert _feed(rb, HOT, windows=2) is None
        assert rb.triggers == 0
        # Third window completes the history; patience=1 fires at once.
        assert _feed(rb, HOT) is not None

    def test_patience_requires_consecutive_hot_windows(self):
        rb = Rebalancer(_cfg(), SHARDS, 4)
        assert _feed(rb, HOT, windows=3) is None  # warm-up + streak 1
        assert rb.triggers == 0
        decision = _feed(rb, HOT)  # streak 2 == patience
        assert decision is not None
        assert decision.src_shard == 1 and decision.dst_shard == 0
        assert decision.lp == 3, "the fast LP moves, not the straggler"
        assert decision.predicted_gain_s > 0.0
        assert decision.concentration == pytest.approx(1.0)

    def test_balanced_windows_never_trigger(self):
        rb = Rebalancer(_cfg(patience=1), SHARDS, 4)
        # Equal shard busy -> zero wait -> exactly zero concentration.
        assert _feed(rb, BALANCED, windows=10) is None
        assert rb.triggers == 0 and not rb.migrations

    def test_concentration_drop_resets_the_streak(self):
        # The trigger watches *trailing* concentration, so hot windows
        # must rotate out of the history deque before the streak breaks.
        rb = Rebalancer(_cfg(patience=4), SHARDS, 4)
        _feed(rb, HOT, windows=3)  # warm-up done, streak 1
        assert rb._streak == 1
        # Two idle windows still see the hot window's trailing blame...
        _feed(rb, ZEROS, windows=2)
        assert rb._streak == 3
        # ...the third flushes it: concentration 0, streak reset.
        assert _feed(rb, ZEROS) is None
        assert rb._streak == 0 and not rb.migrations
        # The streak restarts from scratch: patience=4 hot windows.
        assert _feed(rb, HOT, windows=3) is None
        assert _feed(rb, HOT) is not None

    def test_accepted_migration_flushes_history_and_starts_cooldown(self):
        rb = Rebalancer(_cfg(), SHARDS, 4)
        decision = _feed(rb, HOT, windows=4)
        assert decision is not None
        assert list(rb.shard_of) == [0, 0, 1, 0]
        # The trailing history described the dead placement; it is gone.
        assert len(rb._busy_history) == 0
        # Warm-up refill (2 more windows) then cooldown (3) both hold
        # the trigger; only after that can a second decision arm.
        assert _feed(rb, HOT, windows=2 + 3 + 1) is None
        assert len(rb.migrations) == 1

    def test_budget_retirement_skips_bookkeeping(self):
        rb = Rebalancer(_cfg(max_migrations=0), SHARDS, 4)
        assert rb.retired
        assert _feed(rb, HOT, windows=5) is None
        # Retired observe_window returns before touching the history.
        assert len(rb._busy_history) == 0 and rb.triggers == 0


class TestCandidateConstraints:
    def test_lp0_is_pinned_to_the_control_shard(self):
        # Shard 0 blamed via a hot LP 0: only LP 1 may move.
        rb = Rebalancer(_cfg(), SHARDS, 4)
        decision = _feed(rb, [20, 1, 1, 1], windows=4)
        assert decision is not None and decision.lp == 1

    def test_blamed_shard_holding_only_lp0_yields_no_move(self):
        rb = Rebalancer(_cfg(), [[0], [1, 2, 3]], 4)
        assert _feed(rb, [20, 1, 1, 1], windows=6) is None
        assert rb.triggers > 0 and not rb.migrations

    def test_single_lp_shard_keeps_its_lp(self):
        rb = Rebalancer(_cfg(), [[0, 1], [2], [3]], 4)
        assert _feed(rb, [1, 1, 20, 1], windows=6) is None
        assert rb.triggers > 0 and not rb.migrations

    def test_min_gain_fraction_rejects_washes(self):
        # The LP-3 move saves 1 of 21 cost units (~4.8%); a 50% floor
        # must reject it even though the gain is positive.
        rb = Rebalancer(_cfg(min_gain_fraction=0.5), SHARDS, 4)
        assert _feed(rb, HOT, windows=6) is None
        assert rb.triggers > 0 and rb.candidates_scored > 0


class TestPureHelpers:
    def test_slowdown_spans_pair_and_extend(self):
        events = [
            FaultEvent(0.2, FaultKind.LP_SLOWDOWN_START, (1,), (("factor", 4.0),)),
            FaultEvent(0.5, FaultKind.LP_SLOWDOWN_END, (1,)),
            FaultEvent(0.7, FaultKind.LP_SLOWDOWN_START, (0,), (("factor", 2.0),)),
        ]
        spans = slowdown_spans(events, end_time=1.0)
        assert spans == [(1, 0.2, 0.5, 4.0), (0, 0.7, 1.0, 2.0)]

    def test_span_multipliers_apply_to_overlapping_windows_only(self):
        spans = [(1, 0.2, 0.5, 4.0)]
        assert span_multipliers(spans, 0.0, 0.1, 2).tolist() == [1.0, 1.0]
        assert span_multipliers(spans, 0.25, 0.35, 2).tolist() == [1.0, 4.0]
        assert span_multipliers(spans, 0.6, 0.7, 2).tolist() == [1.0, 1.0]

    def test_decision_as_dict_is_flat_json(self):
        d = MigrationDecision(9, 3, 1, 0, 0.75, 1.5e-3)
        assert d.as_dict() == {
            "window_index": 9,
            "lp": 3,
            "src_shard": 1,
            "dst_shard": 0,
            "concentration": 0.75,
            "predicted_gain_s": 1.5e-3,
        }

    def test_config_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            RebalanceConfig(threshold=0.0)
        with pytest.raises(ValueError, match="patience"):
            RebalanceConfig(patience=0)
        with pytest.raises(ValueError, match="history"):
            RebalanceConfig(history=0)
        with pytest.raises(ValueError, match="shards must cover"):
            Rebalancer(RebalanceConfig(), [[0, 1]], 4)
