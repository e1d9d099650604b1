"""Vectorised simulation of the signature phase.

The line-level scalar MCACHE (the oracle in ``tests/oracles.py``)
models the hardware structure line by line; probing it once per vector
from Python is exact but slow for the tens of thousands of vectors a
convolution layer produces.  ``simulate_hitmap`` reproduces the *same* HIT / MAU / MNU
decisions (the test suite checks equivalence against the line-level
model) using numpy group-by operations:

* the first occurrence of a signature whose set still has a free way is
  MAU and owns the cache line;
* later occurrences of an inserted signature are HIT and point at the
  owner;
* occurrences of a signature whose set was already full at its first
  occurrence are MNU (no replacement — Figure 9).

Signatures arrive either as a 1-D ``int64`` array or — beyond 62 bits —
as the multi-word ``(n_vectors, n_words)`` ``uint64`` representation
(:mod:`repro.core.rpq`); the multi-word path groups by lexicographic
row sort and stays fully vectorised.  Arrays whose values do not fit
int64 exactly (object arrays of Python ints, uint64 values >= 2^63)
are converted to the multi-word form first, as the batch MCACHE does;
values that are not exact non-negative integers are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hitmap import (CODE_TO_STATE, HIT_CODE, Hitmap, MAU_CODE,
                               MNU_CODE)
from repro.core.rpq import packed_signatures, words_mod


@dataclass
class HitmapSimulation:
    """Outcome of the signature phase for one set of vectors.

    ``states`` carries the dense ``int8`` state codes
    (:data:`~repro.core.hitmap.HIT_CODE` = 0, ``MAU_CODE`` = 1,
    ``MNU_CODE`` = 2) — no Python enum objects on the hot path; the
    enum view is :meth:`state_objects` / :meth:`to_hitmap`.
    """

    states: np.ndarray          # int8 codes: HIT=0, MAU=1, MNU=2
    representative: np.ndarray  # int array; HIT rows point at their source
    hits: int
    mau: int
    mnu: int
    unique_signatures: int

    def state_objects(self) -> np.ndarray:
        """The user-facing enum view: an object array of ``HitState``."""
        return CODE_TO_STATE[self.states]

    def to_hitmap(self) -> Hitmap:
        """Materialise a :class:`Hitmap` without per-entry validation cost."""
        hitmap = Hitmap(len(self.states))
        hitmap._states = list(CODE_TO_STATE[self.states])
        hitmap._source = [int(src) if code == HIT_CODE else None
                          for code, src in zip(self.states.tolist(),
                                               self.representative.tolist())]
        return hitmap


def signature_sets(unique_values: np.ndarray, num_sets: int) -> np.ndarray:
    """Cache-set index per unique signature, for either representation."""
    if unique_values.ndim == 2:
        return words_mod(unique_values, num_sets)
    return (unique_values % num_sets).astype(np.int64)


def simulate_hitmap(signatures: np.ndarray, num_sets: int,
                    ways: int) -> HitmapSimulation:
    """Classify every signature as HIT, MAU or MNU.

    The one-group case of :func:`simulate_hitmap_grouped`.

    Parameters
    ----------
    signatures:
        Packed signatures in arrival order: 1-D integers or the
        multi-word 2-D form.
    num_sets, ways:
        MCACHE geometry; insertion into a set stops once ``ways``
        distinct signatures have claimed its lines.
    """
    signatures = np.asarray(signatures)
    return simulate_hitmap_grouped(signatures, [len(signatures)], num_sets,
                                   ways)[0]


def _sorted_pairs(major: np.ndarray, minor: np.ndarray,
                  minor_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(major, minor)`` pairs with one in-place int64 value sort.

    The caller guarantees ``major < 2^(63 - minor_bits)`` and
    ``0 <= minor < 2^minor_bits``, and hands over both arrays: they are
    overwritten with the sorted columns and returned.
    """
    major <<= minor_bits
    major |= minor
    major.sort()
    np.bitwise_and(major, (1 << minor_bits) - 1, out=minor)
    major >>= minor_bits
    return major, minor


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    run_starts = np.empty(len(sorted_keys), dtype=bool)
    run_starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=run_starts[1:])
    return run_starts


def tagged_runs(signatures: np.ndarray, groups: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """Stable (group, signature) order of the rows from one value sort.

    Packs ``((group << bits | signature) << index_bits) | arrival_index``
    into one int64 per row: sorting the keys orders rows by (group,
    signature) with ties in arrival order, and the low bits carry that
    stable permutation.  Returns ``(order, run_starts)`` — ``run_starts``
    marks each row of ``order`` that opens a run of equal keys, i.e. a
    first occurrence — or ``None`` when the key does not fit 63 bits
    (multi-word, negative or too-wide signatures).
    """
    if signatures.ndim != 1 or signatures.min(initial=0) < 0:
        return None
    signature_bits = int(signatures.max(initial=0)).bit_length()
    index_bits = max(len(signatures) - 1, 0).bit_length()
    if (int(groups.max(initial=0)).bit_length() + signature_bits
            + index_bits > 63):
        return None
    keys = groups << signature_bits
    keys |= signatures
    keys, order = _sorted_pairs(keys, np.arange(len(signatures)), index_bits)
    return order, _run_starts(keys)


def stable_runs(signatures: np.ndarray, groups: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The same ``(order, run_starts)`` from a stable lexicographic sort.

    Serves every key :func:`tagged_runs` cannot pack: multi-word rows
    (word columns most-significant first) and negative or wide 1-D
    signatures.
    """
    columns = [groups] + (list(signatures.T) if signatures.ndim == 2
                          else [signatures])
    order = np.lexsort(columns[::-1])
    run_starts = _run_starts(groups[order])
    for column in columns[1:]:
        sorted_column = column[order]
        run_starts[1:] |= sorted_column[1:] != sorted_column[:-1]
    return order, run_starts


def classify_runs(signatures: np.ndarray, groups: np.ndarray,
                  order: np.ndarray, run_starts: np.ndarray, num_groups: int,
                  num_sets: int, ways: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared classifier core over a stable (group, signature) order.

    Returns ``(states, representative, counts)``: int8 codes and global
    representative rows in arrival order, and per group the row counts
    indexed by state code plus the unique count in column 3.
    """
    num_vectors = len(order)
    run_heads = run_starts.nonzero()[0]
    first = order[run_heads]
    run_lengths = np.append(run_heads[1:], num_vectors) - run_heads
    unique_groups = groups[first]
    # The cache set is derived from the signature alone, then offset
    # per group so groups never share a set: per-group fresh-MCACHE
    # semantics inside one sort.
    unique_sets = (unique_groups * num_sets
                   + signature_sets(signatures[first], num_sets))
    # The first `ways` uniques to arrive in a set win its lines (a
    # second value sort, over the uniques only); the rest are MNU —
    # no replacement (Figure 9).
    index_bits = max(num_vectors - 1, 0).bit_length()
    if int(unique_sets.max(initial=0)).bit_length() + index_bits <= 63:
        sorted_sets, sorted_first = _sorted_pairs(unique_sets, first.copy(),
                                                  index_bits)
    else:  # pragma: no cover — needs ~2^63 / num_vectors composite sets
        by_set = np.lexsort((first, unique_sets))
        sorted_sets, sorted_first = unique_sets[by_set], first[by_set]
    # Sorted, so a unique ranks below `ways` in its set exactly when the
    # unique `ways` places earlier belongs to another set.
    admitted = np.ones(len(sorted_sets), dtype=bool)
    np.not_equal(sorted_sets[ways:], sorted_sets[:-ways],
                 out=admitted[ways:])
    owner = np.zeros(num_vectors, dtype=bool)
    owner[sorted_first] = admitted
    inserted = owner[first]

    # Codes and representatives in sorted order, then one scatter each:
    # an inserted run is a MAU head plus HITs on it, a rejected run MNU.
    codes = np.repeat(np.where(inserted, np.int8(HIT_CODE),
                               np.int8(MNU_CODE)), run_lengths)
    codes[run_heads] = np.where(inserted, np.int8(MAU_CODE),
                                np.int8(MNU_CODE))
    source = np.repeat(first, run_lengths)
    np.copyto(source, order, where=codes == MNU_CODE)
    states = np.empty(num_vectors, dtype=np.int8)
    states[order] = codes
    representative = np.empty(num_vectors, dtype=np.int64)
    representative[order] = source

    # Per group and outcome (rejected, inserted): uniques and rows.
    outcome = 2 * unique_groups + inserted
    uniques = np.bincount(outcome, minlength=2 * num_groups).reshape(-1, 2)
    rows = np.bincount(outcome, weights=run_lengths,
                       minlength=2 * num_groups).reshape(-1, 2)
    counts = np.empty((num_groups, 4), dtype=np.int64)
    counts[:, HIT_CODE] = rows[:, 1] - uniques[:, 1]
    counts[:, MAU_CODE] = uniques[:, 1]
    counts[:, MNU_CODE] = rows[:, 0]
    counts[:, 3] = uniques.sum(axis=1)
    return states, representative, counts


def simulate_hitmap_grouped(signatures, group_sizes, num_sets: int,
                            ways: int) -> list[HitmapSimulation]:
    """Per-group Hitmaps for a concatenation of signature batches.

    Bit-identical to classifying each group against its own fresh
    MCACHE, but the group-by runs once over the whole concatenation:
    group ``g``'s signatures compete only for composite sets
    ``g * num_sets + set``, so no signature can hit, or steal a way
    from, another group.  This is the batched signature phase behind
    the reuse engine's ``conv_channel_group`` path, where per-call
    overhead used to dominate (one engine call per input channel).

    ``signatures`` holds the groups back to back in arrival order (1-D
    int64 or the multi-word 2-D form); ``group_sizes`` their lengths.
    Representative indices in each returned simulation are local to the
    group.  The stable order comes from one tagged int64 value sort
    whenever the key fits (:func:`tagged_runs`), else from a stable
    lexicographic sort (:func:`stable_runs`); the classification after
    it is shared.
    """
    if num_sets <= 0 or ways <= 0:
        raise ValueError("num_sets and ways must be positive")
    sizes = np.array([int(size) for size in group_sizes], dtype=np.int64)
    if (sizes < 0).any():
        raise ValueError("group sizes must be non-negative")
    signatures = packed_signatures(signatures)
    if sizes.sum() != len(signatures):
        raise ValueError("group sizes must sum to the number of signatures")

    num_groups = len(sizes)
    groups = np.repeat(np.arange(num_groups, dtype=np.int64), sizes)
    runs = tagged_runs(signatures, groups)
    if runs is None:
        runs = stable_runs(signatures, groups)
    states, representative, counts = classify_runs(
        signatures, groups, *runs, num_groups, num_sets, ways)

    simulations = []
    lo = 0
    for size, (hits, mau, mnu, unique) in zip(sizes.tolist(),
                                              counts.tolist()):
        local = representative[lo:lo + size]
        local -= lo
        simulations.append(HitmapSimulation(
            states=states[lo:lo + size], representative=local, hits=hits,
            mau=mau, mnu=mnu, unique_signatures=unique))
        lo += size
    return simulations
