"""Dense int8 Hitmap state codes: bit-identity against the enum oracle.

PR "coded states" retired the ``dtype=object`` ``HitState`` arrays from
the classification and serving hot paths; the enum survives only as the
user-facing view (``HitmapSimulation.state_objects()`` /
``.to_hitmap()``) and inside the scalar ``MCache``/``Hitmap`` oracle.
These suites pin the coded representation to that oracle:

* the session's classification codes, and the scalar oracle's, equal
  an enum-by-enum scalar ``MCache`` replay, including >62-bit
  multi-word signatures;
* the serving probe paths (``_probe_and_admit`` with the frequency gate,
  ``_probe_and_admit_evicting`` with a replacement policy) emit int8
  codes whose semantics match a scalar mirror replay;
* the representative-substitution ``ride_groups`` is bit-identical to
  the oracle that builds ``X'`` by a loop and runs one GEMM, directly
  and engine-to-engine (``tests.helpers.substituted_ride_groups``
  swapped in for the oracle run), and the take-based ``ride`` to its
  one-group case;
* ``words_to_ints`` (the exact-Python-int expansion) never runs on the
  engine path — only the scalar/differential oracle may call it;
* ``_prune_seen``'s argpartition selection matches the old
  sort-the-whole-gate semantics, ties included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import MercuryConfig
from repro.core.hitmap import CODE_TO_STATE, HIT_CODE, MAU_CODE, MNU_CODE
from repro.core.hitmap_sim import simulate_hitmap, simulate_hitmap_grouped
from repro.core.reuse import ReuseEngine
from repro.core.rpq import ints_to_words, unique_signatures
from repro.core.session import ReuseSession, SessionPolicy
from repro.nn.layers.conv import Conv2D
from tests.helpers import (substituted_ride, substituted_ride_groups,
                           substituted_vectors)
from tests.oracles import MCache, scalar_reference_simulation


def _enum_oracle_codes(trace, entries: int, ways: int) -> list[int]:
    """Replay through the scalar enum MCache, returning ``.code`` views."""
    cache = MCache(entries=entries, ways=ways)
    codes = []
    for signature in trace:
        state, _ = cache.lookup_or_insert(
            int(signature) if not isinstance(signature, np.ndarray)
            else signature)
        codes.append(state.code)
    return codes


# ---------------------------------------------------------------------------
# Classification: the session and the scalar oracle vs the enum oracle
# ---------------------------------------------------------------------------
class TestCodedClassification:
    @given(st.integers(0, 2 ** 31), st.integers(1, 400),
           st.integers(1, 60), st.sampled_from([(16, 1), (16, 4), (8, 8)]))
    @settings(max_examples=20, deadline=None)
    def test_backends_match_enum_oracle(self, seed, num, pool, geometry):
        entries, ways = geometry
        rng = np.random.default_rng(seed)
        trace = rng.choice(rng.integers(0, 1 << 20, size=pool), size=num)
        expected = _enum_oracle_codes(trace, entries, ways)
        session = ReuseSession(SessionPolicy(entries=entries, ways=ways),
                               persistent=False)
        for sim in (session.classify(trace),
                    scalar_reference_simulation(
                        trace, num_sets=session.num_sets, ways=ways)):
            assert sim.states.dtype == np.int8
            assert list(sim.states) == expected
            # The enum view survives as a derived representation.
            assert [s.code for s in sim.state_objects()] == expected

    @given(st.integers(0, 2 ** 31), st.integers(1, 150), st.integers(1, 25))
    @settings(max_examples=15, deadline=None)
    def test_multiword_backends_match_enum_oracle(self, seed, num, pool):
        rng = np.random.default_rng(seed)
        base = 1 << 70  # forces 2-word signatures, >62-bit territory
        values = [base + int(v) for v in rng.integers(0, pool, size=num)]
        words = ints_to_words(np.array(values, dtype=object), num_words=2)
        expected = _enum_oracle_codes(
            np.array(values, dtype=object), entries=16, ways=4)
        session = ReuseSession(SessionPolicy(entries=16, ways=4),
                               persistent=False)
        for sim in (session.classify(words),
                    scalar_reference_simulation(
                        words, num_sets=session.num_sets, ways=4)):
            assert sim.states.dtype == np.int8
            assert list(sim.states) == expected

    def test_codes_are_the_documented_values(self):
        # HIT=0 / MAU=1 / MNU=2 is a wire format (snapshots, telemetry):
        # pin the numbers, not just the symmetry.
        sim = simulate_hitmap(np.array([7, 7, 7 + 4]), num_sets=4,
                              ways=1)
        assert (HIT_CODE, MAU_CODE, MNU_CODE) == (0, 1, 2)
        assert list(sim.states) == [MAU_CODE, HIT_CODE, MNU_CODE]
        hitmap = sim.to_hitmap()
        assert [s.code for s in hitmap.states_array()] \
            == list(sim.states)


# ---------------------------------------------------------------------------
# Serving probe paths
# ---------------------------------------------------------------------------
class TestProbePathCodes:
    @given(st.integers(0, 2 ** 31), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_frequency_admission_matches_scalar_mirror(self, seed,
                                                       min_frequency):
        """The frequency gate's codes equal a scalar enum mirror replay."""
        policy = SessionPolicy(entries=8, ways=2, signature_bits=16,
                               admission="frequency",
                               admission_min_frequency=min_frequency)
        session = ReuseSession(policy, persistent=True)
        mirror = MCache(entries=8, ways=2)
        resident: set[int] = set()
        seen: dict[int, int] = {}
        rng = np.random.default_rng(seed)
        for batch_index in range(6):
            signatures = rng.integers(0, 40, size=rng.integers(1, 30))
            uniques, first_index, inverse = unique_signatures(signatures)
            states, _ = session._probe_and_admit(
                uniques, first_index, inverse, payload_bytes=64,
                batch_index=batch_index)
            assert states.dtype == np.int8

            counts = np.bincount(inverse, minlength=len(uniques))
            expected = np.full(len(uniques), MNU_CODE, dtype=np.int8)
            admitted = []
            for position in range(len(uniques)):
                value = int(uniques[position])
                if value in resident:
                    expected[position] = HIT_CODE
                    continue
                total = seen.get(value, 0) + int(counts[position])
                if total >= min_frequency:
                    seen.pop(value, None)
                    admitted.append(position)
                else:
                    seen[value] = total
            order = sorted(admitted, key=lambda p: first_index[p])
            for position in order:
                state, _ = mirror.lookup_or_insert(int(uniques[position]))
                expected[position] = state.code
                if state.code == MAU_CODE:
                    resident.add(int(uniques[position]))
            np.testing.assert_array_equal(states, expected)

    def test_eviction_probe_never_rejects(self, rng):
        """With a replacement policy no probe outcome is ever MNU."""
        policy = SessionPolicy(entries=8, ways=2, signature_bits=16,
                               eviction="lru")
        session = ReuseSession(policy, persistent=True)
        for batch_index in range(8):
            signatures = rng.integers(0, 200, size=25)
            uniques, first_index, inverse = unique_signatures(signatures)
            states, entry_ids = session._probe_and_admit(
                uniques, first_index, inverse, payload_bytes=64,
                batch_index=batch_index)
            assert states.dtype == np.int8
            assert set(np.unique(states)) <= {HIT_CODE, MAU_CODE}
            assert (entry_ids >= 0).all()
        assert session.counters.evicted > 0

    def test_eviction_serve_stays_exact(self, rng):
        """End-to-end serve parity while lines are being recycled."""
        policy = SessionPolicy(entries=8, ways=2, signature_bits=14,
                               eviction="lru")
        session = ReuseSession(policy, persistent=True)
        weights = rng.normal(size=(6, 4))
        pool = rng.normal(size=(64, 6))
        for batch_index in range(10):
            vectors = pool[rng.integers(0, len(pool), size=20)]
            results, _ = session.serve(
                vectors, lambda rows, v=vectors: v[rows] @ weights,
                batch_index)
            np.testing.assert_array_equal(results, vectors @ weights)
        assert session.counters.cross_hits > 0
        assert session.counters.evicted > 0


# ---------------------------------------------------------------------------
# Representative-substitution cache ride
# ---------------------------------------------------------------------------
class TestFusedRide:
    @given(st.integers(0, 2 ** 31), st.integers(1, 5),
           st.integers(1, 40), st.integers(1, 16), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_ride_groups_matches_per_group_ride(self, seed, num_groups,
                                                rows, pool, tail):
        rng = np.random.default_rng(seed)
        # num_groups groups of 5 columns, the last one ``tail`` wide.
        vectors = rng.normal(size=(rows, 5 * (num_groups - 1) + tail))
        weights = rng.normal(size=(vectors.shape[1], 3))
        traces = [rng.choice(rng.integers(0, 1 << 16, size=pool),
                             size=rows) for _ in range(num_groups)]
        sims = simulate_hitmap_grouped(np.concatenate(traces),
                                       [rows] * num_groups,
                                       num_sets=4, ways=2)
        ride = ReuseSession.ride_groups(vectors, weights, 5, sims)
        np.testing.assert_array_equal(
            ride, substituted_ride_groups(vectors, weights, 5, sims))
        # The one-group ride is the same substitution.
        np.testing.assert_array_equal(
            ReuseSession.ride(vectors[:, :5], weights[:5], sims[0]),
            substituted_ride(vectors[:, :5], weights[:5], sims[0]))

    def test_ride_groups_all_hit_and_no_hit_groups(self, rng):
        # One group with zero hits, one fully redundant after its first
        # row — the degenerate fills of the gather index.
        vectors = rng.normal(size=(4, 6))
        weights = rng.normal(size=(6, 2))
        traces = [np.arange(4) * 7, np.full(4, 9)]
        sims = simulate_hitmap_grouped(np.concatenate(traces), [4, 4],
                                       num_sets=4, ways=2)
        ride = ReuseSession.ride_groups(vectors, weights, 3, sims)
        np.testing.assert_array_equal(
            ride, substituted_ride_groups(vectors, weights, 3, sims))

    @given(st.data())
    @settings(deadline=None)
    def test_ride_groups_substitutes_representatives(self, data):
        """Reuse semantics without BLAS: against the identity, the ride
        returns the loop-built ``X'`` bit for bit, so every HIT
        ``(row, group)`` slice is its representative's slice."""
        num_groups = data.draw(st.integers(1, 5), label="groups")
        width = data.draw(st.integers(1, 6), label="width")
        tail = data.draw(st.integers(1, width), label="tail")
        rows = data.draw(st.integers(1, 30), label="rows")
        length = width * (num_groups - 1) + tail
        # Finite values; adding +0.0 turns every -0.0 into +0.0, the one
        # value a sum with the identity's zero products does not keep.
        vectors = data.draw(arrays(
            np.float64, (rows, length),
            elements=st.floats(allow_nan=False, allow_infinity=False)),
            label="vectors") + 0.0
        kinds = data.draw(st.lists(
            st.sampled_from(["pool", "all_hit", "all_miss"]),
            min_size=num_groups, max_size=num_groups), label="kinds")
        wide = data.draw(st.booleans(), label="wide")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31),
                                              label="seed"))
        traces = []
        for kind in kinds:
            if kind == "all_hit":     # one MAU, every later row a HIT
                traces.append(np.full(rows, rng.integers(0, 1 << 16)))
            elif kind == "all_miss":  # distinct: MAU or MNU, never HIT
                traces.append(rng.permutation(1 << 16)[:rows])
            else:
                traces.append(rng.choice(rng.integers(0, 1 << 16, size=4),
                                         size=rows))
        signatures = np.concatenate(traces)
        if wide:                      # >62 bits: multi-word rows
            signatures = ints_to_words(
                np.array([(1 << 70) + int(v) for v in signatures],
                         dtype=object), num_words=2)
        sims = simulate_hitmap_grouped(signatures, [rows] * num_groups,
                                       num_sets=4, ways=2)
        ride = ReuseSession.ride_groups(vectors, np.eye(length), width, sims)
        assert ride.tobytes() == \
            substituted_vectors(vectors, width, sims).tobytes()
        for group, sim in enumerate(sims):
            cols = slice(group * width, (group + 1) * width)
            hit_rows = np.flatnonzero(sim.states == HIT_CODE)
            sources = sim.representative[hit_rows]
            assert (sim.states[sources] == MAU_CODE).all()
            np.testing.assert_array_equal(ride[hit_rows, cols],
                                          vectors[sources, cols])
            others = np.flatnonzero(sim.states != HIT_CODE)
            np.testing.assert_array_equal(ride[others, cols],
                                          vectors[others, cols])

    @pytest.mark.parametrize("channel_group,in_channels",
                             [(1, 6), (2, 6), (3, 7)])
    def test_engine_fused_flag_bit_identity(self, rng, monkeypatch,
                                            channel_group, in_channels):
        """The engine's ride equals the loop-built substitution oracle."""
        config = MercuryConfig(adaptive_signature_length=False,
                               adaptive_stoppage=False,
                               conv_channel_group=channel_group,
                               mcache_entries=64, mcache_ways=4)
        x = rng.normal(size=(3, in_channels, 10, 10))
        outputs = {}
        for fused in (False, True):
            with monkeypatch.context() as patch:
                if not fused:
                    patch.setattr(ReuseSession, "ride_groups",
                                  staticmethod(substituted_ride_groups))
                engine = ReuseEngine(config)
                conv = Conv2D(in_channels, 5, 3, padding=1, seed=11)
                conv.engine = engine
                outputs[fused] = conv.forward(x)
            stats = engine.mcache.stats
            outputs[fused, "stats"] = (stats.hits, stats.mau, stats.mnu)
        np.testing.assert_array_equal(outputs[False], outputs[True])
        assert outputs[False, "stats"] == outputs[True, "stats"]


# ---------------------------------------------------------------------------
# words_to_ints: vectorized, and confined to the oracle
# ---------------------------------------------------------------------------
class TestWordsToInts:
    @given(st.integers(0, 2 ** 31), st.integers(1, 30),
           st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_matches_python_reference(self, seed, num, num_words):
        from repro.core.rpq import WORD_BITS, words_to_ints
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 63, size=(num, num_words),
                             dtype=np.int64).astype(np.uint64)
        values = words_to_ints(words)
        assert values.dtype == object
        for row, value in zip(words, values):
            expected = 0
            for word in row:
                expected = (expected << WORD_BITS) | int(word)
            assert value == expected and isinstance(value, int)

    def test_engine_path_never_expands_python_ints(self, monkeypatch, rng):
        """Only the scalar/differential oracle may pay the big-int cost."""
        import repro.core.rpq as rpq

        def forbidden(words):
            raise AssertionError("words_to_ints reached the engine path")

        monkeypatch.setattr(rpq, "words_to_ints", forbidden)
        # Multi-word classification through the session...
        values = [(1 << 70) + int(v) for v in rng.integers(0, 8, size=40)]
        words = ints_to_words(np.array(values, dtype=object), num_words=2)
        session = ReuseSession(SessionPolicy(entries=16, ways=4),
                               persistent=False)
        sim = session.classify(words)
        assert sim.states.dtype == np.int8
        # ... and a full >62-bit engine matmul, ride included.
        engine = ReuseEngine(MercuryConfig(
            signature_bits=70, max_signature_bits=80,
            adaptive_signature_length=False, adaptive_stoppage=False,
            conv_channel_group=2, mcache_entries=64, mcache_ways=4))
        conv = Conv2D(6, 4, 3, seed=5)
        conv.engine = engine
        conv.forward(rng.normal(size=(2, 6, 8, 8)))


# ---------------------------------------------------------------------------
# _prune_seen determinism
# ---------------------------------------------------------------------------
class TestPruneSeen:
    @staticmethod
    def _session() -> ReuseSession:
        return ReuseSession(SessionPolicy(entries=8, ways=2,
                                          admission="frequency"),
                            persistent=True)

    @staticmethod
    def _reference_survivors(seen: dict, capacity: int) -> list:
        """The old implementation: stable sort, drop the stalest k."""
        excess = len(seen) - capacity
        if excess <= 0:
            return list(seen)
        doomed = set(sorted(seen, key=lambda key: seen[key][1])[:excess])
        return [key for key in seen if key not in doomed]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_stable_sort_reference(self, seed):
        session = self._session()
        rng = np.random.default_rng(seed)
        capacity = session._seen_capacity
        # Heavy batch-index ties make the tie-break the interesting part.
        for key in range(capacity + 137):
            session._seen[key] = (1, int(rng.integers(0, 7)))
        expected = self._reference_survivors(dict(session._seen), capacity)
        session._prune_seen()
        assert list(session._seen) == expected
        assert len(session._seen) == capacity

    def test_all_ties_evict_in_insertion_order(self):
        session = self._session()
        capacity = session._seen_capacity
        total = capacity + 10
        for key in range(total):
            session._seen[key] = (1, 5)  # every entry the same batch
        session._prune_seen()
        assert list(session._seen) == list(range(10, total))

    def test_under_capacity_is_untouched(self):
        session = self._session()
        session._seen[1] = (1, 0)
        session._prune_seen()
        assert list(session._seen) == [1]
