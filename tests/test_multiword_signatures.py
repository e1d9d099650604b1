"""End-to-end coverage of the >62-bit (multi-word) signature path.

Signatures longer than 62 bits pack into ``(n_vectors, n_words)``
``uint64`` rows (:mod:`repro.core.rpq`).  These tests drive that
representation through every Hitmap path — the stateless group-by
simulation, the persistent batch MCACHE and the engine — against the
line-level scalar oracle and assert bit-identity throughout, then smoke
a real training run whose signature length crosses the multi-word
boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import MercuryConfig
from repro.core.hitmap import CODE_TO_STATE
from repro.core.hitmap_sim import simulate_hitmap, simulate_hitmap_grouped
from repro.core.mcache_vec import VectorizedMCache
from repro.core.reuse import ReuseEngine
from repro.core.rpq import (RPQHasher, ints_to_words, signature_words,
                            signatures_to_ints, words_mod)
from tests.helpers import ScalarOracleEngine
from tests.oracles import MCache, run_differential, \
    scalar_reference_simulation

GEOMETRIES = [(8, 1), (8, 2), (16, 4), (64, 16), (4, 4)]

# Pools of signature values that exercise 1..3-word rows and collide in
# both the set index and the full value.
wide_values = st.integers(0, (1 << 100) - 1)


def wide_trace(draw_values, picks):
    pool = np.array(draw_values, dtype=object)
    return pool[np.array(picks) % len(pool)]


@settings(deadline=None)
@given(values=st.lists(wide_values, min_size=1, max_size=25),
       picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=80),
       geometry=st.sampled_from(GEOMETRIES))
@example(values=[(1 << 63) + 7, (1 << 64) - 1, 5, (1 << 90) + 3],
         picks=[0, 1, 0, 2, 3, 1, 0, 2, 3, 3], geometry=(8, 2))
def test_multiword_simulations_match_oracle(values, picks, geometry):
    """Fresh-cache Hitmaps equal the oracle's, for multi-word rows and
    for the object ints (mostly >= 2^63) they encode."""
    entries, ways = geometry
    num_sets = entries // ways
    trace_ints = wide_trace(values, picks)
    trace_words = ints_to_words(trace_ints)

    oracle = scalar_reference_simulation(trace_ints, num_sets=num_sets,
                                         ways=ways)
    groupby = simulate_hitmap(trace_words, num_sets=num_sets, ways=ways)
    objects = simulate_hitmap(trace_ints, num_sets=num_sets, ways=ways)
    for simulation in (groupby, objects):
        assert_matches_oracle(simulation, oracle)
    half = len(trace_ints) // 2
    grouped = simulate_hitmap_grouped(
        trace_ints, [half, len(trace_ints) - half], num_sets=num_sets,
        ways=ways)
    for simulation, part in zip(grouped, (trace_ints[:half],
                                          trace_ints[half:])):
        assert_matches_oracle(simulation, scalar_reference_simulation(
            part, num_sets=num_sets, ways=ways))


def assert_matches_oracle(simulation, oracle):
    assert list(simulation.states) == list(oracle.states)
    assert list(simulation.representative) == list(oracle.representative)
    assert (simulation.hits, simulation.mau, simulation.mnu,
            simulation.unique_signatures) == \
        (oracle.hits, oracle.mau, oracle.mnu, oracle.unique_signatures)


@settings(deadline=None)
@given(values=st.lists(wide_values, min_size=1, max_size=15),
       picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
       chunks=st.lists(st.integers(1, 13), min_size=1, max_size=4),
       geometry=st.sampled_from(GEOMETRIES))
def test_multiword_persistent_replay_property(values, picks, chunks,
                                              geometry):
    """Chunked replay against persistent state."""
    entries, ways = geometry
    trace_words = ints_to_words(wide_trace(values, picks))
    report = run_differential(trace_words, entries=entries, ways=ways,
                              chunk_sizes=chunks)
    assert report.identical, report.describe()


@settings(deadline=None)
@given(narrow=st.lists(st.integers(0, 1 << 40), min_size=1, max_size=40),
       wide=st.lists(wide_values, min_size=1, max_size=40),
       geometry=st.sampled_from(GEOMETRIES))
def test_mixed_width_trace_promotes_tag_store(narrow, wide, geometry):
    """int64 batches followed by multi-word batches (the adaptive-growth
    transition) keep matching resident lines by full value."""
    entries, ways = geometry
    cache = VectorizedMCache(entries=entries, ways=ways)
    scalar_trace = list(narrow) + list(wide) + list(narrow)

    # Replay: one narrow int64 batch, one wide multi-word batch, then
    # the narrow values again (now against the promoted words store).
    results = []
    results.append(cache.lookup_or_insert_batch(
        np.array(narrow, dtype=np.int64)))
    results.append(cache.lookup_or_insert_batch(ints_to_words(wide)))
    results.append(cache.lookup_or_insert_batch(
        np.array(narrow, dtype=np.int64)))

    oracle = MCache(entries=entries, ways=ways)
    position = 0
    for states, entry_ids in results:
        for offset in range(len(states)):
            state, entry_id = oracle.lookup_or_insert(
                int(scalar_trace[position]))
            assert state.code == states[offset]
            assert entry_id == int(entry_ids[offset])
            position += 1


def test_uint64_signatures_beyond_int63_stay_exact():
    """A uint64 batch with values >= 2^63 must not wrap through int64:
    the engine promotes to words and keeps oracle bit-identity."""
    values = [(1 << 63) + 7, 5, (1 << 64) - 1, 5, (1 << 63) + 7]
    cache = VectorizedMCache(entries=8, ways=2)
    states, entry_ids = cache.lookup_or_insert_batch(
        np.array(values, dtype=np.uint64))

    oracle = MCache(entries=8, ways=2)
    for offset, value in enumerate(values):
        state, entry_id = oracle.lookup_or_insert(value)
        assert state.code == states[offset]
        assert entry_id == int(entry_ids[offset])


def test_non_integral_float_signatures_are_rejected():
    """Float batches that do not round-trip through int64 must fail
    loudly instead of truncating 0.5 and 0.0 into the same signature."""
    with pytest.raises(ValueError, match="not an exact integer"):
        ints_to_words([0.5, 0.0])
    cache = VectorizedMCache(entries=8, ways=2)
    with pytest.raises(ValueError, match="not an exact integer"):
        cache.lookup_or_insert_batch(np.array([0.5, 0.0]))
    # The group-by simulations refuse the same batch.
    with pytest.raises(ValueError, match="not an exact integer"):
        simulate_hitmap(np.array([0.5, 0.0]), num_sets=4, ways=2)
    with pytest.raises(ValueError, match="not an exact integer"):
        simulate_hitmap_grouped(np.array([0.5, 0.0]), [1, 1], num_sets=4,
                                ways=2)
    # Exactly-integral floats are accepted (they round-trip).
    states, _ = cache.lookup_or_insert_batch(np.array([3.0, 3.0]))
    assert [CODE_TO_STATE[s].value for s in states] == ["MAU", "HIT"]


def test_non_integral_or_negative_multiword_batches_are_rejected():
    """2-D batches must hold exact non-negative integers: a float 1.5
    used to truncate into word 1 and merge with 1.0, and an int64 -1 to
    wrap to 2^64 - 1."""
    for batch in (np.array([[1.5], [1.0]]),
                  np.array([[-1], [3]], dtype=np.int64),
                  np.array([[1 << 64], [1]], dtype=object)):
        with pytest.raises(ValueError, match="exact non-negative"):
            simulate_hitmap(batch, num_sets=4, ways=2)
        with pytest.raises(ValueError, match="exact non-negative"):
            simulate_hitmap_grouped(batch, [1, 1], num_sets=4, ways=2)
        with pytest.raises(ValueError, match="exact non-negative"):
            VectorizedMCache(entries=8, ways=2).lookup_or_insert_batch(batch)
    # Exactly-integral 2-D floats and non-negative ints are accepted.
    for batch in (np.array([[2.0], [2.0]]),
                  np.array([[2], [2]], dtype=np.int64)):
        sim = simulate_hitmap(batch, num_sets=4, ways=2)
        assert [CODE_TO_STATE[s].value for s in sim.states] == ["MAU", "HIT"]


def test_probe_batch_is_non_mutating_across_representations():
    """Read-only probes never promote the tag store, never set the dirty
    flag, and treat negative residents as misses for word probes."""
    cache = VectorizedMCache(entries=8, ways=2)
    cache.lookup_or_insert(5)
    cache.lookup_or_insert(-5)
    cache.clear()                          # leaves the cache clean
    assert cache._tag_words is None and not cache._dirty

    wide = ints_to_words([(1 << 70) + 3, 5, (1 << 64) - 5])
    present, entry_ids = cache.probe_batch(wide)
    # Cache was cleared: everything misses, nothing mutates.
    assert not present.any()
    assert cache._tag_words is None and not cache._dirty

    cache.lookup_or_insert(5)
    cache.lookup_or_insert(-5)
    present, entry_ids = cache.probe_batch(wide)
    assert list(present) == [False, True, False]   # -5 != 2^64 - 5
    assert entry_ids[1] >= 0
    assert cache._tag_words is None                # still int64 mode
    # int64 probes against a words-mode store bridge the other way too.
    cache.clear()
    cache.lookup_or_insert_batch(ints_to_words([(1 << 70) + 3, 9]))
    present, _ = cache.probe_batch(np.array([9, 10], dtype=np.int64))
    assert list(present) == [True, False]


def test_object_arrays_of_small_ints_take_the_int64_path():
    """Object-dtype traces whose values fit int64 (negatives included)
    behave exactly like int64 traces — no promotion, no rejection."""
    from repro.core.rpq import coerce_packed
    arr, wide = coerce_packed(np.array([5, -5, 1 << 40], dtype=object))
    assert not wide and arr.dtype == np.int64

    cache = VectorizedMCache(entries=8, ways=2)
    states, _ = cache.lookup_or_insert_batch(np.array([5, -5], dtype=object))
    assert [CODE_TO_STATE[s].value for s in states] == ["MAU", "MAU"]
    assert cache._tag_words is None              # still int64 mode
    present, _ = cache.probe_batch(np.array([-5, 6], dtype=object))
    assert list(present) == [True, False]

    sim = simulate_hitmap(np.array([7, 7, -2], dtype=object),
                          num_sets=4, ways=2)
    assert (sim.hits, sim.mau, sim.mnu) == (1, 2, 0)


def test_probe_batch_uint64_beyond_int63_is_exact():
    """1-D uint64 probes >= 2^63 must not wrap through int64: no false
    hit against a negative resident, no false miss of the exact
    resident value."""
    cache = VectorizedMCache(entries=8, ways=2)
    cache.lookup_or_insert(-5)
    present, _ = cache.probe_batch(
        np.array([(1 << 64) - 5], dtype=np.uint64))
    assert list(present) == [False]          # 2^64-5 != -5

    cache.clear()
    cache.lookup_or_insert_batch(np.array([(1 << 63) + 7],
                                          dtype=np.uint64))
    present, entry_ids = cache.probe_batch(
        np.array([(1 << 63) + 7, (1 << 63) + 8], dtype=np.uint64))
    assert list(present) == [True, False]
    assert entry_ids[0] >= 0


def test_negative_resident_refuses_multiword_promotion():
    """A resident negative signature (floor-mod int64 edge) cannot be
    represented as unsigned words; promotion must refuse loudly rather
    than wrap it into a colliding value."""
    cache = VectorizedMCache(entries=8, ways=2)
    cache.lookup_or_insert(-5)
    with pytest.raises(ValueError, match="negative signatures"):
        cache.lookup_or_insert_batch(ints_to_words([(1 << 64) - 5]))
    # After a clear, wide batches are accepted again.
    cache.clear()
    states, _ = cache.lookup_or_insert_batch(ints_to_words([(1 << 64) - 5]))
    assert len(states) == 1


def test_signature_words_round_trip_representations():
    values = [0, 1, (1 << 62) - 1, 1 << 63, (1 << 100) + 12345]
    words = signature_words(np.array(values, dtype=object))
    assert words.dtype == np.uint64
    assert [int(v) for v in signatures_to_ints(words)] == values
    # Padding preserves value.
    padded = signature_words(words, num_words=4)
    assert padded.shape[1] == 4
    assert [int(v) for v in signatures_to_ints(padded)] == values


@settings(deadline=None, max_examples=30)
@given(values=st.lists(wide_values, min_size=1, max_size=30),
       modulus=st.integers(1, 1 << 20))
def test_words_mod_matches_python_ints(values, modulus):
    words = ints_to_words(values)
    expected = [value % modulus for value in values]
    assert list(words_mod(words, modulus)) == expected


def test_hasher_emits_multiword_beyond_62_bits():
    hasher = RPQHasher(seed=3)
    vectors = np.random.default_rng(0).normal(size=(20, 9))
    sigs = hasher.signatures(vectors, 70)
    assert sigs.ndim == 2 and sigs.shape == (20, 2)
    assert sigs.dtype == np.uint64
    # Similarity analyses accept the representation directly.
    assert 0.0 <= hasher.similarity_fraction(vectors, 70) <= 1.0
    assert 1 <= hasher.unique_vector_count(vectors, 70) <= 20


def test_reuse_engine_backends_identical_at_96_bits(rng):
    config = MercuryConfig(signature_bits=96, max_signature_bits=96,
                           mcache_entries=32, mcache_ways=4,
                           adaptive_stoppage=False,
                           adaptive_signature_length=False)
    centers = rng.normal(size=(10, 9))
    picks = rng.integers(0, 10, size=50)
    vectors = centers[picks] + rng.normal(0, 1e-9, size=(50, 9))
    weights = rng.normal(size=(9, 4))
    outputs = []
    for engine in (ReuseEngine(config), ScalarOracleEngine(config)):
        outputs.append(engine.matmul(vectors, weights, layer="conv"))
        record = engine.stats.get("conv", "forward")
        assert record.hits > 0          # wide signatures still find reuse
    np.testing.assert_array_equal(outputs[0], outputs[1])


def test_functional_training_smoke_beyond_62_bits():
    """A real (tiny) training run at a 70-bit signature length."""
    from repro.analysis.functional_sweep import (FunctionalPoint,
                                                 evaluate_functional_point)
    point = FunctionalPoint(model="squeezenet", signature_bits=70,
                            epochs=1, seed=0)
    row = evaluate_functional_point(point)
    assert row["final_signature_bits"] >= 70
    assert np.isfinite(row["reuse_final_loss"])
    assert 0.0 <= row["reuse_accuracy"] <= 1.0
    assert 0.0 <= row["hit_fraction"] <= 1.0


def test_functional_backends_bit_identical_beyond_62_bits():
    """The engine trains bit-identically to the scalar oracle at 70 bits."""
    from repro.analysis.functional_sweep import (FunctionalPoint,
                                                 mercury_config_for,
                                                 train_point)
    point = FunctionalPoint(model="squeezenet", signature_bits=70,
                            epochs=1, seed=1)
    runs = []
    for engine in (ReuseEngine(mercury_config_for(point)),
                   ScalarOracleEngine(mercury_config_for(point))):
        result, _ = train_point(point, engine)
        runs.append((result.epoch_losses, result.final_validation_accuracy,
                     engine.stats.overall_hit_fraction))
    assert runs[0] == runs[1]
