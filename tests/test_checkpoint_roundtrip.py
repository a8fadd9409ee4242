"""Checkpoint round-trip properties: capture -> encode -> restore is exact.

The recovery protocol's correctness rests on one invariant: restoring a
shard from its checkpoint blob reproduces the captured barrier state
*exactly* — same pending events in the same canonical order, same
clock, same tiebreak counter, same scenario dynamics — so a respawned
worker re-derives bit-identical windows. These properties drive a real
shard (the chain workload on a `ShardEngine`) to a randomized barrier,
checkpoint it, rebuild from the blob, and demand a fixpoint: the
rebuilt shard's own checkpoint must be byte-equal to the original, and
the sha256 digest must be stable across repeated encodes and across
processes.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.parallel.shard import (
    ShardEngine,
    _build_shard,
    _encode_worker_checkpoint,
    _restore_shard_from_blob,
)
from repro.engine.recovery import checkpoint_digest
from repro.engine.windows import iter_windows
from repro.experiments.shard import chain_spec
from repro.serialization import decode_checkpoint

NUM_NODES = 8
LATENCY_S = 1e-4
UNTIL = 0.05
ASSIGNMENT = np.array([0, 0, 0, 0, 1, 1, 1, 1])


def _run_to_window(packets: int, seed: int, stop_window: int):
    """One shard owning every LP, run to the end of ``stop_window``."""
    spec = chain_spec(
        num_nodes=NUM_NODES, latency_s=LATENCY_S, packets=packets, seed=seed
    )
    engine = ShardEngine(
        ASSIGNMENT, 2, LATENCY_S, owned_lps=[0, 1], shard_id=0, num_shards=1
    )
    scenario, fn_to_name, name_to_fn = _build_shard(engine, spec)
    engine.seal_setup()
    last = 0
    for w, _start, end in iter_windows(0.0, LATENCY_S, UNTIL):
        if w > stop_window:
            break
        engine.run_window(w, end)
        last = w
    return spec, engine, scenario, fn_to_name, last


@settings(max_examples=12, deadline=None)
@given(
    packets=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=20),
    stop_window=st.integers(min_value=0, max_value=400),
)
def test_capture_encode_decode_restore_is_a_fixpoint(packets, seed, stop_window):
    spec, engine, scenario, fn_to_name, w = _run_to_window(
        packets, seed, stop_window
    )
    blob = _encode_worker_checkpoint(engine, scenario, fn_to_name, w, 0)

    # Restore into a freshly built shard and re-checkpoint: byte-equal.
    r_engine, r_scenario, r_f2n, _n2f, payload = _restore_shard_from_blob(
        blob, ASSIGNMENT, 2, LATENCY_S, spec, True, 1
    )
    again = _encode_worker_checkpoint(r_engine, r_scenario, r_f2n, w, 0)
    assert again == blob
    assert checkpoint_digest(again) == checkpoint_digest(blob)
    assert payload["window_index"] == w
    assert payload["engine"]["now"] == engine.now
    assert payload["engine"]["kcount"] == engine._kcount

    # Encoding the same barrier twice is deterministic (the canonical
    # queue ordering is independent of heap layout).
    assert _encode_worker_checkpoint(engine, scenario, fn_to_name, w, 0) == blob


@settings(max_examples=12, deadline=None)
@given(
    packets=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=20),
    stop_window=st.integers(min_value=0, max_value=400),
)
def test_restored_shard_replays_identical_windows(packets, seed, stop_window):
    # Beyond the static fixpoint: the restored shard must *behave*
    # identically — running both engines one more window produces the
    # same event count, clock, and a byte-equal next checkpoint.
    spec, engine, scenario, fn_to_name, w = _run_to_window(
        packets, seed, stop_window
    )
    blob = _encode_worker_checkpoint(engine, scenario, fn_to_name, w, 0)
    r_engine, r_scenario, r_f2n, _n2f, _payload = _restore_shard_from_blob(
        blob, ASSIGNMENT, 2, LATENCY_S, spec, True, 1
    )
    windows = list(iter_windows(0.0, LATENCY_S, UNTIL))
    if w + 1 < len(windows):
        nxt, _start, end = windows[w + 1]
        ran = engine.run_window(nxt, end)
        r_ran = r_engine.run_window(nxt, end)
        assert r_ran == ran
        assert r_engine.now == engine.now
        assert r_engine._kcount == engine._kcount
        after = _encode_worker_checkpoint(engine, scenario, fn_to_name, nxt, 0)
        r_after = _encode_worker_checkpoint(r_engine, r_scenario, r_f2n, nxt, 0)
        assert r_after == after


def _digest_in_subprocess(blob: bytes) -> str:
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply(checkpoint_digest, (blob,))


def test_digest_is_stable_across_processes():
    # The controller verifies worker-computed digests; a digest that
    # depended on process identity (hash randomization, id()s) would
    # poison every cross-process checkpoint verification.
    spec, engine, scenario, fn_to_name, w = _run_to_window(20, 7, 100)
    blob = _encode_worker_checkpoint(engine, scenario, fn_to_name, w, 0)
    assert _digest_in_subprocess(blob) == checkpoint_digest(blob)
    payload = decode_checkpoint(blob)
    assert payload["shard_id"] == 0
    assert sorted(payload["engine"]["queues"]) == [0, 1]
