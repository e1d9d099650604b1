"""Smoke tests for the hot-path perf suite.

The timing magnitudes themselves are CI-noise territory — the dedicated
perf-smoke job gates them via ``perf_suite.py --quick --check`` — so
these tests pin the artifact contract instead: every segment reports
before/after wall clocks, the seed replays are faithful, and the floor
checker actually fails when a floor is not met.
"""

from __future__ import annotations

import numpy as np

import repro.core.rpq as rpq_module
import repro.nn.layers.conv as conv_module
from benchmarks.perf_suite import (SCHEMA, check_floors, seed_mode,
                                   seed_pack_bits, segment_im2col)
from repro.core.rpq import RPQHasher, pack_bits, signatures_to_ints
from repro.nn.im2col import im2col_reference


def test_seed_pack_bits_matches_current_values():
    rng = np.random.default_rng(0)
    narrow = rng.integers(0, 2, size=(20, 20))
    np.testing.assert_array_equal(seed_pack_bits(narrow), pack_bits(narrow))
    wide = rng.integers(0, 2, size=(8, 70))
    seed_values = seed_pack_bits(wide)
    assert seed_values.dtype == object
    np.testing.assert_array_equal(seed_values,
                                  signatures_to_ints(pack_bits(wide)))


def test_seed_mode_swaps_and_restores_implementations():
    original_im2col = conv_module.im2col
    original_pack = rpq_module.pack_bits
    with seed_mode():
        assert conv_module.im2col is im2col_reference
        assert rpq_module.pack_bits is seed_pack_bits
    assert conv_module.im2col is original_im2col
    assert rpq_module.pack_bits is original_pack


def test_seed_mode_hashes_through_seed_pack_bits():
    """``RPQHasher.signatures`` packs through the module global, so the
    train-step floor replays the seed packing: past 62 bits only
    ``seed_pack_bits`` returns object ints."""
    vectors = np.random.default_rng(1).normal(size=(12, 9))
    narrow = RPQHasher(seed=3).signatures(vectors, 20)
    assert RPQHasher(seed=3).signatures(vectors, 70).dtype == np.uint64
    with seed_mode():
        wide = RPQHasher(seed=3).signatures(vectors, 70)
        np.testing.assert_array_equal(
            RPQHasher(seed=3).signatures(vectors, 20), narrow)
    assert wide.dtype == object
    np.testing.assert_array_equal(
        wide, seed_pack_bits(RPQHasher(seed=3).signature_bits_matrix(
            vectors, 70)))


def test_segment_payload_shape():
    segment = segment_im2col(quick=True, repeats=1)
    assert segment["before_s"] > 0.0
    assert segment["after_s"] > 0.0
    assert segment["speedup"] == segment["before_s"] / segment["after_s"]


def floors_payload(speedups, parallel_speedup=2.0, usable_cpus=8,
                   workers=4):
    """A minimal payload satisfying ``check_floors``'s contract."""
    return {"speedups": dict(speedups),
            "segments": {"serving_parallel": {
                "speedup": parallel_speedup,
                "usable_cpus": usable_cpus,
                "workers": workers}}}


def test_check_floors_flags_misses():
    payload = floors_payload({"im2col": 2.0, "baseline_memoization": 1.2,
                              "serving_sharded": 2.0,
                              "serving_tiered": 1.2,
                              "serving_telemetry": 1.0,
                              "train_step": 1.5, "cache_ride": 1.4,
                              "functional_sweep": 3.0})
    failures = check_floors(payload, floor=1.5)
    assert len(failures) == 1 and "baseline_memoization" in failures[0]
    assert check_floors(payload, floor=1.1) == []


def test_check_floors_gates_sharded_serving():
    payload = floors_payload({"im2col": 2.0, "baseline_memoization": 2.0,
                              "serving_sharded": 1.1,
                              "serving_tiered": 1.2,
                              "serving_telemetry": 1.0,
                              "train_step": 1.5, "cache_ride": 1.4})
    failures = check_floors(payload, floor=1.5, sharded_floor=1.2)
    assert len(failures) == 1 and "serving_sharded" in failures[0]
    assert check_floors(payload, floor=1.5, sharded_floor=1.05) == []


def test_check_floors_fails_on_missing_gated_segment():
    # A gated segment disappearing from the payload must not silently
    # disable the gate.
    payload = floors_payload({"im2col": 2.0, "serving_sharded": 2.0,
                              "serving_tiered": 1.2,
                              "serving_telemetry": 1.0,
                              "train_step": 1.5, "cache_ride": 1.4})
    failures = check_floors(payload, floor=1.5)
    assert len(failures) == 1 and "baseline_memoization" in failures[0]
    assert "missing" in failures[0]


GOOD = {"im2col": 2.0, "baseline_memoization": 2.0,
        "serving_sharded": 2.0, "serving_tiered": 1.2,
        "serving_telemetry": 1.0, "train_step": 1.5, "cache_ride": 1.4}


def test_check_floors_gates_train_step():
    # The training step is gated against the full seed replay; a
    # regression below the floor must fail even when every other
    # segment holds.
    payload = floors_payload(dict(GOOD, train_step=1.1))
    failures = check_floors(payload, floor=1.5)
    assert len(failures) == 1 and "train_step" in failures[0]
    assert check_floors(payload, floor=1.5, train_step_floor=1.05) == []


def test_check_floors_gates_cache_ride():
    # The representative-substitution ride must beat the per-group
    # masked assembly; its floor is independent of the global one.
    payload = floors_payload(dict(GOOD, cache_ride=1.02))
    failures = check_floors(payload, floor=1.5)
    assert len(failures) == 1 and "cache_ride" in failures[0]
    assert check_floors(payload, floor=1.5, cache_ride_floor=1.0) == []


def test_check_floors_gates_tiered_serving():
    payload = floors_payload(dict(GOOD, serving_tiered=1.02))
    failures = check_floors(payload, floor=1.5, tiered_floor=1.05)
    assert len(failures) == 1 and "serving_tiered" in failures[0]
    assert check_floors(payload, floor=1.5, tiered_floor=1.0) == []


def test_check_floors_gates_telemetry_overhead():
    # The telemetry segment is an overhead ceiling, not a speedup floor:
    # the instrumented replay must stay within ~5% of the bare one.
    payload = floors_payload(dict(GOOD, serving_telemetry=0.90))
    failures = check_floors(payload, floor=1.5)
    assert len(failures) == 1 and "serving_telemetry" in failures[0]
    assert check_floors(payload, floor=1.5, telemetry_floor=0.85) == []


def test_check_floors_gates_parallel_serving_on_multicore():
    # 8 usable cores, 4 workers: the full parallel floor applies.
    payload = floors_payload(GOOD, parallel_speedup=1.1, usable_cpus=8)
    failures = check_floors(payload, floor=1.5)
    assert len(failures) == 1 and "serving_parallel" in failures[0]
    assert check_floors(
        floors_payload(GOOD, parallel_speedup=1.8, usable_cpus=8),
        floor=1.5) == []


def test_check_floors_scales_parallel_floor_to_core_count():
    # 2 cores cap the honest expectation at 0.6 * 2 = 1.2x, below the
    # nominal 1.5x floor.
    assert check_floors(
        floors_payload(GOOD, parallel_speedup=1.3, usable_cpus=2),
        floor=1.5) == []
    failures = check_floors(
        floors_payload(GOOD, parallel_speedup=1.1, usable_cpus=2),
        floor=1.5)
    assert len(failures) == 1 and "serving_parallel" in failures[0]


def test_check_floors_skips_parallel_gate_on_single_core():
    # One core cannot express process parallelism; the measurement is
    # recorded but never gated.
    assert check_floors(
        floors_payload(GOOD, parallel_speedup=0.5, usable_cpus=1),
        floor=1.5) == []


def test_check_floors_fails_on_missing_parallel_segment():
    payload = floors_payload(GOOD)
    del payload["segments"]["serving_parallel"]
    failures = check_floors(payload, floor=1.5)
    assert len(failures) == 1 and "serving_parallel" in failures[0]
    assert "missing" in failures[0]


def test_run_suite_artifact_contract():
    """One fastest-possible full pass: schema, segments and speedups."""
    from benchmarks.perf_suite import run_suite
    payload = run_suite(quick=True, repeats=1)
    assert payload["schema"] == SCHEMA
    expected = {"im2col",
                "train_step", "conv_group_batching", "cache_ride",
                "serving_reuse",
                "serving_sharded", "serving_tiered", "serving_parallel",
                "serving_telemetry", "baseline_memoization",
                "functional_sweep"}
    assert set(payload["segments"]) == expected
    assert set(payload["speedups"]) == expected
    for segment in payload["segments"].values():
        assert segment["before_s"] > 0.0 and segment["after_s"] > 0.0
        assert segment["speedup"] > 0.0
    # The artifact is JSON-safe.
    import json
    json.dumps(payload)
