"""Unit tests for the vectorized batch MCACHE."""

import numpy as np
import pytest

from repro.core.hitmap import CODE_TO_STATE, HitState
from repro.core.hitmap_sim import signature_sets, simulate_hitmap
from repro.core.mcache_vec import VectorizedMCache


def test_geometry_validation():
    with pytest.raises(ValueError):
        VectorizedMCache(entries=100, ways=16)
    with pytest.raises(ValueError):
        VectorizedMCache(entries=0, ways=1)
    cache = VectorizedMCache(entries=1024, ways=16)
    assert cache.num_sets == 64


def test_first_lookup_is_mau_then_hit():
    cache = VectorizedMCache(entries=16, ways=4)
    state, entry = cache.lookup_or_insert(123)
    assert state is HitState.MAU and entry >= 0
    state2, entry2 = cache.lookup_or_insert(123)
    assert state2 is HitState.HIT and entry2 == entry


def test_full_set_gives_mnu_no_replacement():
    cache = VectorizedMCache(entries=4, ways=2)  # 2 sets, 2 ways
    assert cache.lookup_or_insert(0)[0] is HitState.MAU
    assert cache.lookup_or_insert(2)[0] is HitState.MAU
    state, entry = cache.lookup_or_insert(4)
    assert state is HitState.MNU and entry == -1
    assert cache.lookup_or_insert(4)[0] is HitState.MNU
    assert cache.lookup_or_insert(0)[0] is HitState.HIT


def test_batch_mixes_hits_maus_and_mnus():
    cache = VectorizedMCache(entries=2, ways=1)  # 2 sets, 1 way
    # Even signatures -> set 0, odd -> set 1.
    states, entries = cache.lookup_or_insert_batch([0, 0, 2, 1, 0, 3])
    assert states.dtype == np.int8
    assert [CODE_TO_STATE[s].value for s in states] == \
        ["MAU", "HIT", "MNU", "MAU", "HIT", "MNU"]
    assert entries[0] == entries[1] == entries[4]
    assert entries[2] == -1 and entries[5] == -1
    # Inserts persist across batches.
    states2, entries2 = cache.lookup_or_insert_batch([0, 1, 4])
    assert [CODE_TO_STATE[s].value for s in states2] == ["HIT", "HIT", "MNU"]
    assert entries2[0] == entries[0] and entries2[1] == entries[3]


def test_empty_batch():
    cache = VectorizedMCache(entries=4, ways=2)
    states, entries = cache.lookup_or_insert_batch([])
    assert len(states) == 0 and len(entries) == 0
    simulation = simulate_hitmap([], num_sets=cache.num_sets,
                                 ways=cache.ways)
    assert simulation.unique_signatures == 0


def test_probe_does_not_insert():
    cache = VectorizedMCache(entries=8, ways=2)
    assert cache.probe(5) == (False, -1)
    cache.lookup_or_insert(5)
    present, entry = cache.probe(5)
    assert present and entry >= 0
    assert cache.occupancy() == 1
    present_batch, ids = cache.probe_batch([5, 6])
    assert list(present_batch) == [True, False]
    assert ids[0] == entry and ids[1] == -1


def test_clear_resets_everything():
    cache = VectorizedMCache(entries=8, ways=2)
    cache.lookup_or_insert_batch([1, 2])
    cache.clear()
    assert cache.occupancy() == 0
    assert cache.lookup_or_insert(1)[0] is HitState.MAU


def test_stats_counters():
    cache = VectorizedMCache(entries=4, ways=1)  # 4 sets, direct mapped
    cache.lookup_or_insert_batch([0, 0, 4])  # MAU, HIT, MNU (set 0 full)
    assert cache.stats.hits == 1
    assert cache.stats.mau == 1
    assert cache.stats.mnu == 1
    fractions = cache.stats.as_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_wide_signatures_promote_to_object():
    cache = VectorizedMCache(entries=4, ways=2)
    # 2 sets x 2 ways; +0/+2/+4 land in set 0, so +4 finds it full.
    wide = np.array([(1 << 70) + k for k in (0, 1, 0, 2, 4)], dtype=object)
    states, entries = cache.lookup_or_insert_batch(wide)
    assert [CODE_TO_STATE[s].value for s in states] == ["MAU", "MAU", "HIT", "MAU", "MNU"]
    # Mixed int64 batches keep working after the promotion.
    states2, _ = cache.lookup_or_insert_batch(np.array([5, 5]))
    assert [CODE_TO_STATE[s].value for s in states2] == ["MAU", "HIT"]
    assert cache.lookup_or_insert((1 << 70) + 1)[0] is HitState.HIT


def test_negative_signatures_match_python_semantics():
    # Python's floor division/modulo keep set indices non-negative.
    cache = VectorizedMCache(entries=4, ways=2)
    state, entry = cache.lookup_or_insert(-3)
    assert state is HitState.MAU
    assert cache.lookup_or_insert(-3)[0] is HitState.HIT
    set_index = int(signature_sets(np.array([-3]), cache.num_sets)[0])
    assert 0 <= set_index < cache.num_sets
    assert cache._valid_tag[set_index].any()
