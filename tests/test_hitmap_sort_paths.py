"""Both stable-order sources of the Hitmap classifier against the oracle.

``simulate_hitmap_grouped`` derives the stable (group, signature) order
of a batch from one of two helpers — the tagged int64 value sort
(:func:`repro.core.hitmap_sim.tagged_runs`) whenever the key fits 63
bits, else a stable lexicographic sort
(:func:`repro.core.hitmap_sim.stable_runs`) — and runs the shared
classifier core (:func:`repro.core.hitmap_sim.classify_runs`) on it.
These tests call both helpers directly on the same inputs and hold each
to the line-level scalar oracle, group by group: key widths on both
sides of 63 bits, negative 1-D signatures, multi-word rows, empty and
ragged groups, all-duplicate and all-distinct batches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hitmap import HIT_CODE, MAU_CODE, MNU_CODE
from repro.core.hitmap_sim import (classify_runs, simulate_hitmap,
                                   simulate_hitmap_grouped, stable_runs,
                                   tagged_runs)
from repro.core.rpq import ints_to_words
from tests.oracles import scalar_reference_simulation

# kind -> (smallest, largest) signature value drawn.
VALUE_RANGES = {
    "narrow": (0, (1 << 20) - 1),
    "wide": (1 << 60, (1 << 62) - 1),
    "negative": (-(1 << 40), 1 << 40),
    "multiword": (0, (1 << 100) - 1),
}


@st.composite
def batches(draw):
    """``(signatures, group_sizes)`` in the packed form the helpers take."""
    kind = draw(st.sampled_from(sorted(VALUE_RANGES)))
    low, high = VALUE_RANGES[kind]
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5))
    total = sum(sizes)
    reuse = draw(st.sampled_from(["pool", "all-duplicate", "all-distinct"]))
    if reuse == "pool":
        pool = draw(st.lists(st.integers(low, high), min_size=1,
                             max_size=12))
        picks = draw(st.lists(st.integers(0, 11), min_size=total,
                              max_size=total))
        values = [pool[pick % len(pool)] for pick in picks]
    elif reuse == "all-duplicate":
        values = [draw(st.integers(low, high))] * total
    else:
        stride = max(1, (high - low) // max(total, 1))
        values = draw(st.permutations([low + index * stride
                                       for index in range(total)]))
    if kind == "multiword":
        return ints_to_words(values, num_words=2), sizes
    return np.array(values, dtype=np.int64), sizes


def group_ids(sizes) -> np.ndarray:
    return np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)


def key_fits(signatures: np.ndarray, sizes) -> bool:
    """Whether the tagged key ``(group, signature, index)`` fits 63 bits,
    the group field sized by the last group that has rows."""
    if signatures.ndim != 1 or (signatures < 0).any():
        return False
    return (int(group_ids(sizes).max(initial=0)).bit_length()
            + int(signatures.max(initial=0)).bit_length()
            + max(len(signatures) - 1, 0).bit_length()) <= 63


def assert_matches_oracle(signatures, sizes, runs, num_sets, ways):
    groups = group_ids(sizes)
    states, representative, counts = classify_runs(
        signatures, groups, *runs, len(sizes), num_sets, ways)
    lo = 0
    for group, size in enumerate(sizes):
        oracle = scalar_reference_simulation(signatures[lo:lo + size],
                                             num_sets=num_sets, ways=ways)
        np.testing.assert_array_equal(states[lo:lo + size], oracle.states)
        np.testing.assert_array_equal(representative[lo:lo + size] - lo,
                                      oracle.representative)
        assert (counts[group, HIT_CODE], counts[group, MAU_CODE],
                counts[group, MNU_CODE], counts[group, 3]) == \
            (oracle.hits, oracle.mau, oracle.mnu, oracle.unique_signatures)
        lo += size


geometries = st.sampled_from([(1, 1), (2, 1), (4, 2), (64, 4), (3, 16)])


@settings(deadline=None, max_examples=40)
@given(batch=batches(), geometry=geometries)
@example(batch=(np.array([5, 5, 5, 5], dtype=np.int64), [2, 0, 2]),
         geometry=(2, 1))
@example(batch=(np.array([-3, 1, -3, 5, 1], dtype=np.int64), [5]),
         geometry=(2, 1))
@example(batch=(np.array([(1 << 62) - 1], dtype=np.int64), [1, 0, 0, 0]),
         geometry=(2, 1))
def test_both_stable_orders_match_the_oracle(batch, geometry):
    signatures, sizes = batch
    num_sets, ways = geometry
    groups = group_ids(sizes)
    tagged = tagged_runs(signatures, groups)
    stable = stable_runs(signatures, groups)
    assert (tagged is not None) == key_fits(signatures, sizes)
    assert_matches_oracle(signatures, sizes, stable, num_sets, ways)
    if tagged is not None:
        assert_matches_oracle(signatures, sizes, tagged, num_sets, ways)
        # Both helpers sort by the same key stably: the same order.
        for ours, theirs in zip(tagged, stable):
            np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("rows, signature_bits, fits", [
    (2, 62, True),     # 62 + 1 index bit = 63
    (3, 62, False),    # 62 + 2 index bits = 64
    (1 << 13, 50, True),
    ((1 << 13) + 1, 50, False),
])
def test_tagged_key_width_boundary(rows, signature_bits, fits):
    """The tagged sort takes keys up to exactly 63 bits; one bit more
    falls back to the stable sort, and both classify identically."""
    rng = np.random.default_rng(rows)
    signatures = rng.integers(0, 4, size=rows).astype(np.int64)
    signatures |= np.int64(1) << (signature_bits - 1)
    groups = np.zeros(rows, dtype=np.int64)
    tagged = tagged_runs(signatures, groups)
    assert (tagged is not None) == fits
    assert_matches_oracle(signatures, [rows], stable_runs(signatures, groups),
                          num_sets=4, ways=2)
    if tagged is not None:
        assert_matches_oracle(signatures, [rows], tagged, num_sets=4, ways=2)


@settings(deadline=None, max_examples=40)
@given(batch=batches(), geometry=geometries)
def test_simulate_hitmap_is_the_one_group_case(batch, geometry):
    signatures, _ = batch
    num_sets, ways = geometry
    single = simulate_hitmap(signatures, num_sets=num_sets, ways=ways)
    grouped, = simulate_hitmap_grouped(signatures, [len(signatures)],
                                       num_sets=num_sets, ways=ways)
    np.testing.assert_array_equal(single.states, grouped.states)
    np.testing.assert_array_equal(single.representative,
                                  grouped.representative)
    assert (single.hits, single.mau, single.mnu, single.unique_signatures) \
        == (grouped.hits, grouped.mau, grouped.mnu,
            grouped.unique_signatures)
    assert single.states.dtype == np.int8
    assert single.representative.dtype == np.int64
