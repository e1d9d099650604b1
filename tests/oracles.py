"""Test oracles: the line-level MCACHE and the reference evictors.

Slow, obviously-correct models that the differential suites hold the
production structures to.  None of this is reachable from ``src/``:

* :class:`MCache` — the signature phase of the paper's MCACHE
  (§III-B3, Figure 9) modelled line by line, one Python probe per
  signature: set-associative, keyed by signature, **no replacement**
  (a signature whose set is full is not inserted — MNU).  Only tags are
  modelled; result data lives in the ride's row map (training) and the
  session's dense store (serving);
* :func:`scalar_reference_simulation` — a
  :class:`~repro.core.hitmap_sim.HitmapSimulation` built by probing a
  fresh :class:`MCache` once per signature, the oracle for every
  production Hitmap path;
* :func:`run_differential` — replays a trace in (possibly ragged)
  chunks against persistent :class:`MCache` and
  :class:`~repro.core.mcache_vec.VectorizedMCache` instances and
  reports every divergence in states, entry ids, occupancy and
  HIT/MAU/MNU counters;
* :class:`ReferenceLRU`, :class:`ReferenceLFU`, :class:`ReferenceSLRU`
  — plain-list replacement policies (each set a Python list ordered
  LRU→MRU) with the API of the intrusive-list structures in
  :mod:`repro.core.eviction`; :data:`REFERENCE_EVICTORS` maps the
  ``SessionPolicy.eviction`` names onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hitmap import CODE_TO_STATE, HitState, STATE_TO_CODE
from repro.core.hitmap_sim import HitmapSimulation
from repro.core.mcache_vec import MCacheStats, VectorizedMCache
from repro.core.rpq import signatures_to_ints


# ----------------------------------------------------------------------
# Line-level MCACHE
# ----------------------------------------------------------------------
@dataclass
class CacheLine:
    """One MCACHE line: a tag with its Valid-Tag bit."""

    tag: int | None = None
    valid_tag: bool = False
    entry_id: int = -1


class MCache:
    """Set-associative, no-replacement tag store keyed by signatures.

    ``entries`` total lines at ``ways`` associativity; ``entries`` must
    be divisible by ``ways``.  A signature's set is its low-order part
    (``signature % num_sets``), its tag the rest.
    """

    def __init__(self, entries: int = 1024, ways: int = 16):
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways != 0:
            raise ValueError("entries must be divisible by ways")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self._next_entry_id = 0
        self._sets = [[CacheLine() for _ in range(ways)]
                      for _ in range(self.num_sets)]
        self.stats = MCacheStats()

    def lookup_or_insert(self, signature: int) -> tuple[HitState, int]:
        """Probe MCACHE with a signature during the signature phase.

        Returns the resulting Hitmap state together with the cache
        entry id (-1 when the signature could not be inserted, i.e.
        MNU).  Follows exactly the flow of Figure 9.
        """
        tag = signature // self.num_sets
        lines = self._sets[signature % self.num_sets]

        for line in lines:
            if line.valid_tag and line.tag == tag:
                self.stats.hits += 1
                return HitState.HIT, line.entry_id

        for line in lines:
            if not line.valid_tag:
                line.tag = tag
                line.valid_tag = True
                line.entry_id = self._next_entry_id
                self._next_entry_id += 1
                self.stats.mau += 1
                return HitState.MAU, line.entry_id

        self.stats.mnu += 1
        return HitState.MNU, -1

    def probe(self, signature: int) -> tuple[bool, int]:
        """Non-mutating lookup; returns (present, entry_id)."""
        tag = signature // self.num_sets
        for line in self._sets[signature % self.num_sets]:
            if line.valid_tag and line.tag == tag:
                return True, line.entry_id
        return False, -1

    def clear(self) -> None:
        """Full reset (new channel / new set of input vectors)."""
        self._sets = [[CacheLine() for _ in range(self.ways)]
                      for _ in range(self.num_sets)]
        self._next_entry_id = 0

    def occupancy(self) -> int:
        """Number of lines with a valid tag."""
        return sum(line.valid_tag for lines in self._sets for line in lines)


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


# ----------------------------------------------------------------------
# Scalar-vs-vectorized differential replay
# ----------------------------------------------------------------------
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


def _stats_dict(stats: MCacheStats) -> dict:
    return {"hits": stats.hits, "mau": stats.mau, "mnu": stats.mnu}


def run_differential(signatures, entries: int, ways: int,
                     chunk_sizes=None) -> DifferentialReport:
    """Replay a trace through both MCACHE models and diff every probe.

    The trace is replayed in order *without* clearing between chunks
    (the persistent-state path).  ``chunk_sizes`` gives the batch sizes
    for the vectorized engine, cycled; the scalar oracle always steps
    one probe at a time.  Defaults to one single batch.
    """
    signatures = np.atleast_1d(np.asarray(signatures))
    # The scalar model probes exact integers; the vectorized engine sees
    # the trace in whatever packed representation the caller used
    # (int64, object ints, or multi-word rows).
    scalar_values = signatures_to_ints(signatures)
    scalar = MCache(entries=entries, ways=ways)
    vectorized = VectorizedMCache(entries=entries, ways=ways)
    report = DifferentialReport(probes=len(scalar_values), chunks=0)

    if chunk_sizes is None:
        chunk_sizes = [len(scalar_values)]

    position = 0
    chunk_index = 0
    while position < len(scalar_values):
        size = max(1, int(chunk_sizes[chunk_index % len(chunk_sizes)]))
        chunk = signatures[position:position + size]
        chunk_values = scalar_values[position:position + size]

        vec_states, vec_entries = vectorized.lookup_or_insert_batch(chunk)
        for offset in range(len(chunk_values)):
            state, entry_id = scalar.lookup_or_insert(int(chunk_values[offset]))
            if (STATE_TO_CODE[state] != int(vec_states[offset])
                    or entry_id != vec_entries[offset]):
                report.mismatches.append({
                    "probe": position + offset,
                    "signature": int(chunk_values[offset]),
                    "scalar": (state.value, entry_id),
                    "vectorized": (CODE_TO_STATE[int(vec_states[offset])].value,
                                   int(vec_entries[offset]))})

        position += len(chunk_values)
        chunk_index += 1
        report.chunks = chunk_index

    if scalar.occupancy() != vectorized.occupancy():
        report.mismatches.append({"field": "occupancy",
                                  "scalar": scalar.occupancy(),
                                  "vectorized": vectorized.occupancy()})
    report.scalar_stats = _stats_dict(scalar.stats)
    report.vectorized_stats = _stats_dict(vectorized.stats)
    if report.scalar_stats != report.vectorized_stats:
        report.mismatches.append({"field": "stats",
                                  "scalar": report.scalar_stats,
                                  "vectorized": report.vectorized_stats})
    return report


# ----------------------------------------------------------------------
# Reference replacement policies
# ----------------------------------------------------------------------
class ReferenceLRU:
    """Each set is a plain list of ways, LRU first / MRU last."""

    name = "lru"

    def __init__(self, num_sets: int, ways: int):
        self.num_sets, self.ways = num_sets, ways
        self._order: list[list[int]] = [[] for _ in range(num_sets)]

    def _to_front(self, s: int, w: int) -> None:
        if w in self._order[s]:
            self._order[s].remove(w)
        self._order[s].append(w)

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._to_front(s, w)

    touch = insert
    replace = insert

    def victim(self, s: int) -> int:
        return self._order[s][0] if self._order[s] else -1

    def state_arrays(self) -> dict:
        rank = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        for s, order in enumerate(self._order):
            for position, w in enumerate(reversed(order)):
                rank[s, w] = position
        return {"ev_rank": rank}

    def load_state_arrays(self, arrays: dict) -> None:
        rank = np.asarray(arrays["ev_rank"], dtype=np.int64)
        self._order = [[] for _ in range(self.num_sets)]
        for s in range(self.num_sets):
            linked = np.flatnonzero(rank[s] >= 0)
            ordered = linked[np.argsort(rank[s][linked], kind="stable")]
            self._order[s] = [int(w) for w in reversed(ordered)]

    def clear(self) -> None:
        self._order = [[] for _ in range(self.num_sets)]


class ReferenceLFU(ReferenceLRU):
    """Frequency counters over the reference recency lists."""

    name = "lfu"

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self._freq = np.zeros((num_sets, ways), dtype=np.int64)

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._freq[s, w] = count
        self._to_front(s, w)

    def touch(self, s: int, w: int, count: int = 1) -> None:
        self._freq[s, w] += count
        self._to_front(s, w)

    replace = insert

    def victim(self, s: int) -> int:
        best_way, best = -1, None
        for w in self._order[s]:  # LRU first: earliest wins ties
            if best is None or self._freq[s, w] < best:
                best_way, best = w, int(self._freq[s, w])
        return best_way

    def state_arrays(self) -> dict:
        arrays = super().state_arrays()
        arrays["ev_freq"] = self._freq.copy()
        return arrays

    def load_state_arrays(self, arrays: dict) -> None:
        super().load_state_arrays(arrays)
        self._freq = np.asarray(arrays["ev_freq"], dtype=np.int64).copy()

    def clear(self) -> None:
        super().clear()
        self._freq[:] = 0


class ReferenceSLRU:
    """Probation/protected segments as plain lists, LRU first."""

    name = "slru"

    def __init__(self, num_sets: int, ways: int):
        self.num_sets, self.ways = num_sets, ways
        self.protected_capacity = ways // 2
        self._probation: list[list[int]] = [[] for _ in range(num_sets)]
        self._protected: list[list[int]] = [[] for _ in range(num_sets)]

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._probation[s].append(w)

    def touch(self, s: int, w: int, count: int = 1) -> None:
        if w in self._protected[s]:
            self._protected[s].remove(w)
            self._protected[s].append(w)
            return
        if self.protected_capacity == 0:
            self._probation[s].remove(w)
            self._probation[s].append(w)
            return
        self._probation[s].remove(w)
        self._protected[s].append(w)
        if len(self._protected[s]) > self.protected_capacity:
            self._probation[s].append(self._protected[s].pop(0))

    def replace(self, s: int, w: int, count: int = 1) -> None:
        if w in self._protected[s]:
            self._protected[s].remove(w)
        if w in self._probation[s]:
            self._probation[s].remove(w)
        self._probation[s].append(w)

    def victim(self, s: int) -> int:
        if self._probation[s]:
            return self._probation[s][0]
        return self._protected[s][0] if self._protected[s] else -1

    def segment_of(self, s: int, w: int) -> int:
        return 1 if w in self._protected[s] else 0

    def state_arrays(self) -> dict:
        rank = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        segment = np.zeros((self.num_sets, self.ways), dtype=np.int8)
        for s in range(self.num_sets):
            for position, w in enumerate(reversed(self._probation[s])):
                rank[s, w] = position
            for position, w in enumerate(reversed(self._protected[s])):
                rank[s, w] = position
                segment[s, w] = 1
        return {"ev_rank": rank, "ev_segment": segment}

    def load_state_arrays(self, arrays: dict) -> None:
        rank = np.asarray(arrays["ev_rank"], dtype=np.int64)
        segment = np.asarray(arrays["ev_segment"], dtype=np.int8)
        self._probation = [[] for _ in range(self.num_sets)]
        self._protected = [[] for _ in range(self.num_sets)]
        for s in range(self.num_sets):
            for target, member in ((self._probation, 0),
                                   (self._protected, 1)):
                linked = np.flatnonzero((rank[s] >= 0)
                                        & (segment[s] == member))
                ordered = linked[np.argsort(rank[s][linked], kind="stable")]
                target[s] = [int(w) for w in reversed(ordered)]

    def clear(self) -> None:
        self.__init__(self.num_sets, self.ways)


REFERENCE_EVICTORS = {"lru": ReferenceLRU, "lfu": ReferenceLFU,
                      "slru": ReferenceSLRU}
