"""Differential-test oracle: scalar MCACHE vs the vectorized engine.

The line-level :class:`~repro.core.mcache.MCache` is the reference model
of the hardware; :class:`~repro.core.mcache_vec.VectorizedMCache` is the
fast batch engine that production paths use.  This module replays the
same signature trace through both and reports any divergence, so the
batch engine can be refactored aggressively while staying bit-identical
to the oracle.

Two entry points:

* :func:`scalar_reference_simulation` — build a
  :class:`~repro.core.hitmap_sim.HitmapSimulation` by probing a fresh
  scalar cache once per signature.  The differential suite compares
  the production Hitmap paths (the batch MCACHE and the group-by
  simulations) against it.
* :func:`run_differential` — replay a trace in (possibly ragged) chunks
  against persistent scalar and vectorized caches, optionally exercising
  the data phase (VD bits, versions) and flash invalidation, and return
  a :class:`DifferentialReport` listing every mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hitmap import CODE_TO_STATE, HitState, STATE_TO_CODE
from repro.core.hitmap_sim import HitmapSimulation
from repro.core.mcache import MCache
from repro.core.mcache_vec import VectorizedMCache
from repro.core.rpq import signatures_to_ints


def scalar_reference_simulation(signatures, num_sets: int,
                                ways: int) -> HitmapSimulation:
    """Signature-phase oracle: probe a fresh scalar MCACHE per vector.

    Accepts any packed representation — multi-word batches are expanded
    to exact Python integers, since the line-level model probes one
    arbitrary-precision signature at a time.
    """
    cache = MCache(entries=num_sets * ways, ways=ways)
    signatures = signatures_to_ints(signatures)
    num_vectors = len(signatures)
    states = np.empty(num_vectors, dtype=np.int8)
    representative = np.arange(num_vectors, dtype=np.int64)
    owner_row: dict[int, int] = {}
    rejected: set[int] = set()

    for index in range(num_vectors):
        signature = int(signatures[index])
        state, entry_id = cache.lookup_or_insert(signature)
        states[index] = STATE_TO_CODE[state]
        if state is HitState.HIT:
            representative[index] = owner_row[entry_id]
        elif state is HitState.MAU:
            owner_row[entry_id] = index
        else:
            rejected.add(signature)

    return HitmapSimulation(states=states, representative=representative,
                            hits=cache.stats.hits, mau=cache.stats.mau,
                            mnu=cache.stats.mnu,
                            unique_signatures=len(owner_row) + len(rejected))


@dataclass
class DifferentialReport:
    """Outcome of one scalar-vs-vectorized trace replay."""

    probes: int
    chunks: int
    mismatches: list[dict] = field(default_factory=list)
    scalar_stats: dict = field(default_factory=dict)
    vectorized_stats: dict = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.identical:
            return (f"identical over {self.probes} probes "
                    f"in {self.chunks} chunks")
        first = self.mismatches[0]
        return (f"{len(self.mismatches)} mismatches over {self.probes} "
                f"probes; first: {first}")


def _stats_dict(stats) -> dict:
    return {"hits": stats.hits, "mau": stats.mau, "mnu": stats.mnu,
            "data_reads": stats.data_reads, "data_writes": stats.data_writes}


def run_differential(signatures, entries: int, ways: int, versions: int = 1,
                     chunk_sizes=None, data_phase: bool = False,
                     invalidate_every: int | None = None) -> DifferentialReport:
    """Replay a trace through both MCACHE models and diff every probe.

    Parameters
    ----------
    signatures:
        The probe trace, replayed in order *without* clearing between
        chunks (persistent-state path; the reuse engine's fresh-cache
        path is covered by comparing ``simulate`` outputs directly).
    chunk_sizes:
        Batch sizes for the vectorized engine; the scalar oracle always
        steps one probe at a time.  Defaults to one single batch.
    data_phase:
        Also mirror the data phase: write a deterministic value for
        every MAU probe, compare VD bits for every HIT probe and read
        back the stored value when both models have one.
    invalidate_every:
        Flash-invalidate data (cycling through versions, then all) after
        every N-th chunk, modelling the synchronous design's filter
        switch.
    """
    signatures = np.atleast_1d(np.asarray(signatures))
    # The scalar model probes exact integers; the vectorized engine sees
    # the trace in whatever packed representation the caller used
    # (int64, object ints, or multi-word rows).
    scalar_values = signatures_to_ints(signatures)
    scalar = MCache(entries=entries, ways=ways, versions=versions)
    vectorized = VectorizedMCache(entries=entries, ways=ways,
                                  versions=versions)
    report = DifferentialReport(probes=len(scalar_values), chunks=0)

    if chunk_sizes is None:
        chunk_sizes = [len(scalar_values)]

    position = 0
    chunk_index = 0
    while position < len(scalar_values):
        size = max(1, int(chunk_sizes[chunk_index % len(chunk_sizes)]))
        chunk = signatures[position:position + size]
        chunk_values = scalar_values[position:position + size]
        version = chunk_index % versions

        vec_states, vec_entries = vectorized.lookup_or_insert_batch(chunk)
        for offset in range(len(chunk_values)):
            index = position + offset
            state, entry_id = scalar.lookup_or_insert(int(chunk_values[offset]))
            if (STATE_TO_CODE[state] != int(vec_states[offset])
                    or entry_id != vec_entries[offset]):
                report.mismatches.append({
                    "probe": index, "signature": int(chunk_values[offset]),
                    "scalar": (state.value, entry_id),
                    "vectorized": (CODE_TO_STATE[int(vec_states[offset])].value,
                                   int(vec_entries[offset]))})
                continue
            if not data_phase or entry_id < 0:
                continue
            if state is HitState.MAU:
                value = float(index)
                scalar.write_data(entry_id, value, version=version)
                vectorized.write_data(entry_id, value, version=version)
            elif state is HitState.HIT:
                scalar_has = scalar.has_data(entry_id, version=version)
                vector_has = vectorized.has_data(entry_id, version=version)
                if scalar_has != vector_has:
                    report.mismatches.append({
                        "probe": index, "signature": int(chunk_values[offset]),
                        "field": "valid_data",
                        "scalar": scalar_has, "vectorized": vector_has})
                elif scalar_has:
                    scalar_value = scalar.read_data(entry_id, version=version)
                    vector_value = vectorized.read_data(entry_id,
                                                        version=version)
                    if scalar_value != vector_value:
                        report.mismatches.append({
                            "probe": index, "signature": int(chunk_values[offset]),
                            "field": "data",
                            "scalar": scalar_value,
                            "vectorized": vector_value})

        position += len(chunk_values)
        chunk_index += 1
        report.chunks = chunk_index
        if invalidate_every and chunk_index % invalidate_every == 0:
            # Alternate targeted and flash invalidation.
            target = version if chunk_index % (2 * invalidate_every) else None
            scalar.invalidate_data(target)
            vectorized.invalidate_data(target)

    if scalar.occupancy() != vectorized.occupancy():
        report.mismatches.append({"field": "occupancy",
                                  "scalar": scalar.occupancy(),
                                  "vectorized": vectorized.occupancy()})
    scalar_stats = _stats_dict(scalar.stats)
    vectorized_stats = _stats_dict(vectorized.stats)
    report.scalar_stats = scalar_stats
    report.vectorized_stats = vectorized_stats
    if scalar_stats != vectorized_stats:
        report.mismatches.append({"field": "stats", "scalar": scalar_stats,
                                  "vectorized": vectorized_stats})
    return report
