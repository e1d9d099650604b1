"""Differential tests: scalar MCACHE oracle vs the production paths.

The scalar ``MCache`` in ``tests/oracles.py`` is the reference model;
every test replays a trace through it and through the group-by Hitmap
simulation, the persistent
:class:`~repro.core.mcache_vec.VectorizedMCache` tag store, or
``ReuseEngine`` (against the scalar-oracle engine) and requires
bit-identical Hitmap states, representatives, entry ids, occupancy and
stats counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MercuryConfig
from repro.core.hitmap_sim import simulate_hitmap
from repro.core.reuse import ReuseEngine
from tests.helpers import ScalarOracleEngine
from tests.oracles import run_differential, scalar_reference_simulation

GEOMETRIES = [(8, 1), (8, 2), (16, 4), (64, 16), (4, 4)]


def assert_simulations_equal(a, b):
    assert list(a.states) == list(b.states)
    assert list(a.representative) == list(b.representative)
    assert (a.hits, a.mau, a.mnu, a.unique_signatures) == \
        (b.hits, b.mau, b.mnu, b.unique_signatures)


# ----------------------------------------------------------------------
# Signature phase: fresh-cache simulation equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entries,ways", GEOMETRIES)
def test_simulation_matches_oracle_on_random_traces(entries, ways,
                                                    make_trace):
    for seed, pool in ((0, 5), (1, 40), (2, 500)):
        trace = make_trace(300, pool_size=pool, seed=seed)
        ours = simulate_hitmap(trace, num_sets=entries // ways, ways=ways)
        oracle = scalar_reference_simulation(trace,
                                             num_sets=entries // ways,
                                             ways=ways)
        assert_simulations_equal(ours, oracle)


@settings(deadline=None)
@given(signatures=st.lists(st.integers(0, 300), max_size=120),
       geometry=st.sampled_from(GEOMETRIES))
def test_simulation_matches_oracle_property(signatures, geometry):
    entries, ways = geometry
    trace = np.array(signatures, dtype=np.int64)
    assert_simulations_equal(
        simulate_hitmap(trace, num_sets=entries // ways, ways=ways),
        scalar_reference_simulation(trace, num_sets=entries // ways,
                                    ways=ways))


@settings(deadline=None)
@given(signatures=st.lists(st.integers(0, 60), min_size=1, max_size=100),
       chunks=st.lists(st.integers(1, 17), min_size=1, max_size=5),
       geometry=st.sampled_from(GEOMETRIES))
def test_persistent_chunked_replay_property(signatures, chunks, geometry):
    """Batched replay against persistent state equals probe-at-a-time."""
    entries, ways = geometry
    report = run_differential(np.array(signatures), entries=entries,
                              ways=ways, chunk_sizes=chunks)
    assert report.identical, report.describe()


@pytest.mark.parametrize("entries,ways", GEOMETRIES)
def test_ragged_chunk_replay_differential(entries, ways, make_trace):
    """Ragged batches against persistent state, a hit-heavy trace."""
    trace = make_trace(400, pool_size=30, seed=5)
    report = run_differential(trace, entries=entries, ways=ways,
                              chunk_sizes=[7, 31, 2])
    assert report.identical, report.describe()
    assert report.scalar_stats["hits"] > 0


# ----------------------------------------------------------------------
# Persistent replay edge cases
# ----------------------------------------------------------------------
def test_set_full_no_replacement_differential(make_trace):
    """A pool far larger than the cache keeps every set saturated."""
    report = run_differential(make_trace(600, pool_size=5000, seed=7),
                              entries=16, ways=2, chunk_sizes=[64])
    assert report.identical, report.describe()
    assert report.scalar_stats["mnu"] > 0


def test_wide_signature_differential():
    rng = np.random.default_rng(8)
    pool = [(1 << 70) + int(v) for v in rng.integers(0, 40, size=40)]
    trace = np.array([pool[i] for i in rng.integers(0, 40, size=200)],
                     dtype=object)
    report = run_differential(trace, entries=16, ways=2,
                              chunk_sizes=[9, 30])
    assert report.identical, report.describe()


def test_report_flags_real_divergence():
    """The harness itself must be able to see a difference."""
    report = run_differential([1, 1, 2], entries=4, ways=2)
    report.mismatches.append({"probe": 0})
    assert not report.identical
    assert "mismatches" in report.describe()


# ----------------------------------------------------------------------
# ReuseEngine against the scalar oracle
# ----------------------------------------------------------------------
def _clustered_vectors(rng, num_vectors=60, length=9, clusters=12):
    centers = rng.normal(size=(clusters, length))
    picks = rng.integers(0, clusters, size=num_vectors)
    return centers[picks] + rng.normal(0, 1e-9, size=(num_vectors, length))


def test_reuse_engine_backends_are_bit_identical(rng, mercury_config_grid):
    """The engine equals the engine classifying on the scalar oracle."""
    vectors = _clustered_vectors(rng)
    weights = rng.normal(size=(vectors.shape[1], 6))
    outputs = []
    records = []
    for engine in (ReuseEngine(mercury_config_grid),
                   ScalarOracleEngine(mercury_config_grid)):
        outputs.append(engine.matmul(vectors, weights, layer="conv",
                                     phase="forward"))
        records.append(engine.stats.get("conv", "forward"))
    np.testing.assert_array_equal(outputs[0], outputs[1])
    record, reference = records
    assert (record.hits, record.mau, record.mnu) == \
        (reference.hits, reference.mau, reference.mnu)
    assert record.unique_signatures == reference.unique_signatures


def test_vectorized_backend_accumulates_mcache_stats(rng):
    config = MercuryConfig(signature_bits=12, mcache_entries=64,
                           mcache_ways=4, adaptive_stoppage=False)
    engine = ReuseEngine(config)
    vectors = _clustered_vectors(rng)
    weights = rng.normal(size=(vectors.shape[1], 4))
    engine.matmul(vectors, weights, layer="conv", phase="forward")
    stats = engine.mcache.stats
    assert stats.accesses == len(vectors)
    record = engine.stats.get("conv", "forward")
    assert (stats.hits, stats.mau, stats.mnu) == \
        (record.hits, record.mau, record.mnu)
    engine.reset_statistics()
    assert engine.mcache.stats.accesses == 0


def test_backends_identical_with_wide_signatures(rng):
    config = MercuryConfig(signature_bits=70, max_signature_bits=80,
                           mcache_entries=32, mcache_ways=4,
                           adaptive_stoppage=False,
                           adaptive_signature_length=False)
    vectors = _clustered_vectors(rng, num_vectors=30)
    weights = rng.normal(size=(vectors.shape[1], 3))
    results = [engine.matmul(vectors, weights, layer="l")
               for engine in (ReuseEngine(config),
                              ScalarOracleEngine(config))]
    np.testing.assert_array_equal(results[0], results[1])


def test_groupby_simulation_still_matches_oracle(make_trace):
    """Guards the pre-existing stateless path against regressions too."""
    trace = make_trace(250, pool_size=35, seed=9)
    assert_simulations_equal(
        simulate_hitmap(trace, num_sets=8, ways=2),
        scalar_reference_simulation(trace, num_sets=8, ways=2))
