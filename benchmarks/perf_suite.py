"""Segment-timing perf suite for the training hot path.

Times every layer this repository's hot-path work touched — im2col
extraction, channel-group batching, the cache ride, a full training
step, serving and a functional-sweep reference config — against the
seed implementations kept as oracles in-tree or replayed here, and
emits a ``BENCH_perf.json`` trajectory artifact so future PRs have a
committed perf baseline to regress against.

"Before" numbers replay the three seed behaviours kept in-tree as
oracles — the dominant costs this overhaul removed:

* ``im2col_reference`` — the loop-filled extraction the strided rewrite
  replaced (still the differential oracle for ``im2col``);
* ``seed_pack_bits`` — the object-dtype per-row packing loop that
  >62-bit signatures used before the multi-word representation (its
  object arrays reach the Hitmap through ``ints_to_words``, so only the
  packing cost of the seed is replayed);
* per-point paired baseline training — before baseline memoization
  shared one exact run per (model, scale, training config, seed) group;
* per-channel-group engine calls — before `ReuseEngine.matmul_groups`
  batched them into one multi-group signature/group-by phase
  (``per_call_matmul_groups`` replays the per-call loop);
* object-dtype Hitmap states — before the dense ``int8`` state codes,
  every classification materialised ``HitState`` enum arrays and every
  consumer scanned them with object compares (``seed_mode`` replays
  the materialisation and mask scans per classification);
* the per-group masked cache ride — before the
  representative-substitution ``ReuseSession.ride_groups`` ran every
  ``matmul_groups`` call as one gather and one GEMM (``masked_ride``
  once per group, summed into a zeroed buffer; the ``cache_ride``
  segment times the two head to head, and asserts ``ride_groups``
  bit-identical to ``substituted_ride_groups``, the loop-built oracle
  of its contract);
* cache-less serving — the serving segment replays one Zipfian trace
  without and with the cross-request exact cache;
* single-backend serving — the sharded segment replays one saturating
  Zipfian trace on one backend worker vs four consistent-hash shards,
  comparing the replay's simulated per-worker makespan (the scale-out
  win an in-process replay cannot show in wall clock);
* no-replacement serving — the tiered segment replays one *churning*
  Zipfian trace (the hot set rotates five times) against the
  same small cache without and with LRU replacement, comparing the
  simulated compute-bound makespan: replacement keeps the current hot
  set resident where the paper's no-replacement sets stay stuck;
* instrumented serving — the telemetry segment replays the churn trace
  bare vs with the event bus + metrics bundle attached; its floor is a
  *ceiling on overhead* (within ~5% of bare), not a speedup;
* GIL-bound serving — the parallel segment executes the same replay
  schedule in one process vs four real worker processes
  (:mod:`repro.serving.parallel`) and compares *measured* wall clock.
  Its floor only applies on hosts with >= 2 usable CPUs (recorded in
  the segment): one core cannot express process parallelism, so
  single-core machines record the measurement without gating on it.

The remaining rewrites (vectorised pooling, cached conv weight views,
the stateless ``simulate`` fast path, engine micro-optimisations) have
no kept seed twin, so they speed up *both* sides of the train-step and
sweep segments equally — the reported composite speedups understate
the full distance to the seed rather than overstate it.

Usage::

    PYTHONPATH=src python benchmarks/perf_suite.py                # full
    PYTHONPATH=src python benchmarks/perf_suite.py --quick        # CI
    PYTHONPATH=src python benchmarks/perf_suite.py --quick --check

``--check`` exits non-zero when the im2col or baseline-memoization
speedups fall below a conservative floor (1.5x by default) — the CI
perf-smoke gate.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import time
from contextlib import contextmanager

import numpy as np

import repro.core.rpq as rpq_module
import repro.nn.layers.conv as conv_module
from repro.analysis.functional_sweep import (FunctionalPoint,
                                             baseline_key,
                                             build_functional_grid,
                                             evaluate_baseline_point,
                                             load_point_data,
                                             mercury_config_for,
                                             run_functional_sweep,
                                             training_config_for)
from repro.core.reuse import ReuseEngine
from repro.data.loaders import BatchLoader
from repro.models.registry import build_model
from repro.nn.im2col import im2col, im2col_reference
from repro.training.trainer import Trainer

SCHEMA = "perf-suite"

# The reference functional-sweep benchmark config: one baseline group,
# four MercuryConfig variants spanning the int64 and multi-word
# signature paths (63 bits was reachable in the seed through adaptive
# growth, via its slow object-int fallback).
REFERENCE_SWEEP = dict(models=["squeezenet"], dataset_scales=("small",),
                       adaptations=("full", "off"),
                       signature_bits=(20, 63), epochs=1)
QUICK_SWEEP = dict(REFERENCE_SWEEP, dataset_scales=("tiny",))


# ----------------------------------------------------------------------
# Seed-behaviour replays
# ----------------------------------------------------------------------
def seed_pack_bits(bits: np.ndarray) -> np.ndarray:
    """The seed ``pack_bits``: object-dtype Python ints past 62 bits."""
    bits = np.asarray(bits)
    n_vectors, n_bits = bits.shape
    if n_bits <= 62:
        weights = (1 << np.arange(n_bits - 1, -1, -1, dtype=np.int64))
        return (bits.astype(np.int64) * weights).sum(axis=1)
    packed = np.empty(n_vectors, dtype=object)
    weights = [1 << (n_bits - 1 - i) for i in range(n_bits)]
    for row in range(n_vectors):
        value = 0
        row_bits = bits[row]
        for i in range(n_bits):
            if row_bits[i]:
                value |= weights[i]
        packed[row] = value
    return packed


def _seed_object_states(simulation):
    """Replay the seed's object-dtype Hitmap states on one simulation.

    The seed carried ``HitState`` enum objects end to end: every
    classification materialised an object array, and every consumer
    (the ride's HIT mask, the state counters) scanned it with
    object-equality compares.  This replays exactly those per-batch
    costs — one object materialisation plus the two mask scans — and
    hands the dense codes back so the rest of the pipeline still runs.
    """
    from repro.core.hitmap import (HIT_CODE, HitState, MAU_CODE, MNU_CODE,
                                   codes_to_states)
    objects = codes_to_states(simulation.states)
    hit_mask = objects == HitState.HIT
    mau_mask = objects == HitState.MAU
    codes = np.full(len(objects), MNU_CODE, dtype=np.int8)
    codes[hit_mask] = HIT_CODE
    codes[mau_mask] = MAU_CODE
    simulation.states = codes
    return simulation


def masked_ride(vectors, weights, simulation):
    """The seed's boolean-mask cache ride: compute the miss rows, then
    copy every HIT row from its representative.  A copy of the oracle in
    ``tests/helpers.py``, so the suite runs without ``tests/`` on the
    path."""
    from repro.core.hitmap import HIT_CODE
    if not simulation.hits:
        return vectors @ weights
    hit_mask = simulation.states == HIT_CODE
    compute_mask = ~hit_mask
    result = np.empty((len(vectors), weights.shape[1]), dtype=np.float64)
    result[compute_mask] = vectors[compute_mask] @ weights
    result[hit_mask] = result[simulation.representative[hit_mask]]
    return result


def substituted_ride_groups(vectors, weights, width, simulations):
    """The contract of ``ReuseSession.ride_groups``, built by a loop: row
    ``r``'s group-``g`` slice is copied from its representative's row,
    then one GEMM (the plain product when no group has a HIT).  A copy
    of the oracle in ``tests/helpers.py``, so the suite runs without
    ``tests/`` on the path."""
    if not any(simulation.hits for simulation in simulations):
        return vectors @ weights
    substituted = np.empty(vectors.shape, dtype=np.float64)
    for lo, simulation in zip(range(0, vectors.shape[1], width),
                              simulations):
        for row, source in enumerate(simulation.representative):
            substituted[row, lo:lo + width] = vectors[source, lo:lo + width]
    return substituted @ weights


def per_call_matmul_groups(self, vectors, weights, width, *, layer):
    """One engine call per channel group, summed from zeros: the loop
    ``matmul_groups`` replaced with one layer-granular call."""
    out = np.zeros((len(vectors), weights.shape[1]), dtype=np.float64)
    for lo in range(0, vectors.shape[1], width):
        out += self.matmul(vectors[:, lo:lo + width], weights[lo:lo + width],
                           layer=layer)
    return out


@contextmanager
def seed_mode():
    """Swap in the seed implementations kept as oracles.

    Besides the loop-filled im2col and the object-int ``pack_bits``,
    this replays the behaviours later overhauls retired: one engine
    call per channel group (``per_call_matmul_groups``, instead of the
    multi-group signature phase), object-dtype ``HitState`` arrays on
    every classification (``_seed_object_states``), and with them the
    per-group masked cache ride (``masked_ride`` per call — what each
    per-call ``matmul`` ran — instead of the one-gather, one-GEMM
    ``ride_groups``)."""
    from repro.core.session import ReuseSession

    original_im2col = conv_module.im2col
    original_pack_bits = rpq_module.pack_bits
    original_ride = vars(ReuseSession)["ride"]
    original_classify = ReuseSession.classify
    original_classify_groups = ReuseSession.classify_groups
    original_matmul_groups = ReuseEngine.matmul_groups

    def seed_classify(self, signatures):
        return _seed_object_states(original_classify(self, signatures))

    def seed_classify_groups(self, signature_groups):
        return [_seed_object_states(simulation) for simulation in
                original_classify_groups(self, signature_groups)]

    conv_module.im2col = im2col_reference
    rpq_module.pack_bits = seed_pack_bits
    ReuseSession.classify = seed_classify
    ReuseSession.classify_groups = seed_classify_groups
    ReuseEngine.matmul_groups = per_call_matmul_groups
    ReuseSession.ride = staticmethod(masked_ride)
    try:
        yield
    finally:
        conv_module.im2col = original_im2col
        rpq_module.pack_bits = original_pack_bits
        ReuseSession.ride = original_ride
        ReuseSession.classify = original_classify
        ReuseSession.classify_groups = original_classify_groups
        ReuseEngine.matmul_groups = original_matmul_groups


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------
def best_of(fn, repeats: int) -> float:
    """Best wall-clock of ``repeats`` calls (first call warms caches)."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _segment(before_s: float, after_s: float, **extra) -> dict:
    return {"before_s": before_s, "after_s": after_s,
            "speedup": before_s / after_s, **extra}


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
def segment_im2col(quick: bool, repeats: int) -> dict:
    """Strided single-copy im2col vs the loop-filled seed extraction."""
    shape = (4, 16, 24, 24) if quick else (8, 32, 32, 32)
    x = np.random.default_rng(0).normal(size=shape)
    before = best_of(lambda: im2col_reference(x, 3, 3, 1, 1), repeats)
    after = best_of(lambda: im2col(x, 3, 3, 1, 1), repeats)
    return _segment(before, after, input_shape=list(shape), kernel=3,
                    stride=1, pad=1)


def _one_train_step(point: FunctionalPoint) -> float:
    """Build a fresh trainer for ``point``; time a single cold step.

    Setup (data synthesis, model/engine/trainer construction) happens
    outside the timed window — the segment measures the training step,
    not the harness around it — but every timed step starts from a
    fresh model and an empty MCACHE so repeats do identical work.
    """
    xtr, ytr, _, _, num_outputs = load_point_data(point)
    model = build_model(point.model, num_classes=num_outputs, seed=1)
    engine = ReuseEngine(mercury_config_for(point))
    trainer = Trainer(model, training_config_for(point), engine=engine)
    loader = BatchLoader(xtr, ytr, batch_size=point.batch_size,
                         shuffle=False, seed=0)
    inputs, targets = next(iter(loader))
    start = time.perf_counter()
    trainer.train_step(inputs, targets)
    return time.perf_counter() - start


def segment_train_step(quick: bool, repeats: int) -> dict:
    """One reuse-engine training step (forward + backward + update)."""
    point = FunctionalPoint(model="squeezenet",
                            dataset_scale="tiny" if quick else "small",
                            epochs=1, signature_bits=20)
    repeats = max(repeats, 1)
    with seed_mode():
        before = min(_one_train_step(point) for _ in range(repeats + 1))
    after = min(_one_train_step(point) for _ in range(repeats + 1))
    return _segment(before, after, model=point.model,
                    dataset_scale=point.dataset_scale,
                    signature_bits=point.signature_bits)


def segment_baseline_memoization(points) -> dict:
    """Wall-clock of the baseline-training phase of the reference sweep:
    one exact run per point (seed) vs one per baseline-key group."""
    groups: dict[tuple, FunctionalPoint] = {}
    for point in points:
        groups.setdefault(baseline_key(point), point)

    start = time.perf_counter()
    for point in points:
        evaluate_baseline_point(point)
    before = time.perf_counter() - start

    start = time.perf_counter()
    for point in groups.values():
        evaluate_baseline_point(point)
    after = time.perf_counter() - start
    return _segment(before, after, points=len(points), groups=len(groups))


def segment_conv_group_batching(quick: bool, repeats: int) -> dict:
    """Per-channel-group engine calls (`conv_channel_group=1`): one call
    per group (seed, `per_call_matmul_groups`) vs the multi-group
    signature/group-by phase (`ReuseEngine.matmul_groups`)."""
    from repro.core.config import MercuryConfig
    from repro.nn.layers.conv import Conv2D

    channels = 32 if quick else 64
    x = np.random.default_rng(3).normal(
        size=(8, channels, 8 if quick else 12, 8 if quick else 12))

    def run(batched: bool):
        engine = ReuseEngine(MercuryConfig(
            conv_channel_group=1,
            adaptive_signature_length=False, adaptive_stoppage=False))
        if not batched:
            engine.matmul_groups = functools.partial(per_call_matmul_groups,
                                                     engine)
        conv = Conv2D(channels, 16, 3, padding=1, seed=1)
        conv.engine = engine
        conv.forward(x)

    before = best_of(lambda: run(False), repeats)
    after = best_of(lambda: run(True), repeats)
    return _segment(before, after, channels=channels,
                    input_shape=list(x.shape))


def segment_cache_ride(quick: bool, repeats: int) -> dict:
    """Cache ride at conv-like group counts: per-group masked GEMMs
    summed into a zeroed buffer (`masked_ride` once per group — the
    seed's ride and conv loop) vs the representative-substitution ride
    (`ReuseSession.ride_groups`: one gather builds `X'`, one GEMM
    multiplies it).  Before timing, `ride_groups` is asserted
    bit-identical to `substituted_ride_groups`, the loop-built oracle of
    its contract; the seed side sums in another order, so it is not
    bitwise comparable."""
    from repro.core.hitmap_sim import simulate_hitmap_grouped
    from repro.core.session import ReuseSession

    # The engine's per-channel-group shape: a 3x3 kernel over one
    # channel gives length-9 column groups, one per input channel.
    num_groups = 32 if quick else 64
    rows = 256 if quick else 576
    length, num_filters = 9, 16
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(rows, num_groups * length))
    weights = rng.normal(size=(num_groups * length, num_filters))
    # A small signature pool per group reproduces the early-conv
    # similarity regime (paper Figure 1): most rows are HITs, so the
    # assembly overhead, not the GEMM, dominates the per-call loop.
    traces = [rng.choice(rng.integers(0, 1 << 16, size=rows // 4),
                         size=rows) for _ in range(num_groups)]
    simulations = simulate_hitmap_grouped(
        np.concatenate(traces), [rows] * num_groups,
        num_sets=256, ways=16)

    def masked_per_group():
        out = np.zeros((rows, num_filters))
        for group, simulation in enumerate(simulations):
            lo = group * length
            out += masked_ride(vectors[:, lo:lo + length],
                               weights[lo:lo + length], simulation)
        return out

    def substituted():
        return ReuseSession.ride_groups(vectors, weights, length,
                                        simulations)

    np.testing.assert_array_equal(
        substituted(),
        substituted_ride_groups(vectors, weights, length, simulations))
    # Sub-millisecond assembly calls are allocator-noise sensitive;
    # extra best-of iterations are cheap and stabilise the ratio.
    repeats = max(repeats, 10)
    before = best_of(masked_per_group, repeats)
    after = best_of(substituted, repeats)
    hit_rows = sum(simulation.hits for simulation in simulations)
    return _segment(before, after, groups=num_groups, rows_per_group=rows,
                    vector_length=length, num_filters=num_filters,
                    hit_fraction=hit_rows / (num_groups * rows))


def segment_serving_reuse(quick: bool, repeats: int) -> dict:
    """Zipfian serving trace: no cache (every request forwarded) vs the
    cross-request exact cache (hits copy cached outputs)."""
    from repro.models.registry import build_model
    from repro.serving import (BatcherConfig, InferenceServer,
                               ServingPolicy, TrafficConfig,
                               build_request_pool, generate_trace)

    num_requests = 120 if quick else 400
    pool = build_request_pool("squeezenet", pool_size=16, image_size=12,
                              seed=0)
    trace = generate_trace(TrafficConfig(pattern="zipfian",
                                         num_requests=num_requests, seed=1),
                           len(pool))

    def serve(cached: bool):
        model = build_model("squeezenet", num_classes=4, seed=3)
        policy = ServingPolicy(request_cache=cached, vector_cache=False,
                               exact_check=True, compute="batched")
        server = InferenceServer(model, policy,
                                 BatcherConfig(max_batch_size=8,
                                               max_wait_s=0.001))
        server.replay(trace, pool)

    before = best_of(lambda: serve(False), repeats)
    after = best_of(lambda: serve(True), repeats)
    return _segment(before, after, num_requests=num_requests,
                    pool_size=len(pool), traffic="zipfian")


def segment_serving_sharded(quick: bool, repeats: int) -> dict:
    """Sharded serving scale-out: the whole trace on one backend worker
    (the pre-shard facade) vs four signature-routed shards draining
    their queues in parallel on the replay's simulated clock."""
    from repro.models.registry import build_model
    from repro.serving import (BatcherConfig, InferenceServer,
                               ServingPolicy, TrafficConfig,
                               build_request_pool, generate_trace)

    num_requests = 160 if quick else 480
    shard_count = 4
    pool = build_request_pool("squeezenet", pool_size=48, image_size=12,
                              seed=0)
    # A saturating arrival rate keeps the makespan compute-bound, so
    # the comparison measures worker parallelism, not trace duration.
    trace = generate_trace(TrafficConfig(pattern="zipfian",
                                         num_requests=num_requests,
                                         rate_rps=200000.0, seed=1),
                           len(pool))

    def makespan(shards: int) -> float:
        model = build_model("squeezenet", num_classes=4, seed=3)
        policy = ServingPolicy(request_cache=True, vector_cache=False,
                               exact_check=True, compute="batched")
        server = InferenceServer(model, policy,
                                 BatcherConfig(max_batch_size=8,
                                               max_wait_s=0.001),
                                 shards=shards)
        _, report = server.replay(trace, pool)
        return report.simulated_makespan_s

    before = min(makespan(1) for _ in range(max(repeats, 1)))
    after = min(makespan(shard_count) for _ in range(max(repeats, 1)))
    return _segment(before, after, num_requests=num_requests,
                    pool_size=len(pool), shards=shard_count,
                    traffic="zipfian")


def segment_serving_tiered(quick: bool, repeats: int) -> dict:
    """Cache replacement on a churning Zipfian trace: the paper's
    no-replacement cache (stuck with whatever epoch filled each set
    first) vs LRU eviction at identical capacity.  The hot set rotates
    five times over the trace, so replacement keeps the current head
    resident and fewer requests forward through the model; per-request
    compute ties every saved hit to a full forward, and a saturating
    arrival rate keeps the makespan compute-bound at any trace length.
    Seeds are stream-derived exactly like the serving sweep so the
    trace matches the sweep's churn acceptance geometry."""
    from repro.analysis.functional_sweep import derive_seed
    from repro.analysis.serving_sweep import (MODEL_STREAM, POOL_STREAM,
                                              TRACE_STREAM)
    from repro.models.registry import build_model
    from repro.serving import (BatcherConfig, InferenceServer,
                               ServingPolicy, TrafficConfig,
                               build_request_pool, generate_trace)

    num_requests = 160 if quick else 480
    rotate_every = num_requests // 5
    pool = build_request_pool("squeezenet", pool_size=48, image_size=24,
                              seed=derive_seed(0, POOL_STREAM))
    trace = generate_trace(TrafficConfig(pattern="zipfian",
                                         num_requests=num_requests,
                                         zipf_rotate_every=rotate_every,
                                         rate_rps=200000.0,
                                         seed=derive_seed(0, TRACE_STREAM)),
                           len(pool))

    def makespan(eviction: str) -> float:
        model = build_model("squeezenet", num_classes=4,
                            seed=derive_seed(0, MODEL_STREAM))
        policy = ServingPolicy(request_cache=True, vector_cache=False,
                               exact_check=True, compute="per_request",
                               entries=8, ways=8, eviction=eviction)
        server = InferenceServer(model, policy,
                                 BatcherConfig(max_batch_size=8,
                                               max_wait_s=0.001))
        _, report = server.replay(trace, pool)
        return report.simulated_makespan_s

    before = min(makespan("none") for _ in range(max(repeats, 1)))
    after = min(makespan("lru") for _ in range(max(repeats, 1)))
    return _segment(before, after, num_requests=num_requests,
                    pool_size=len(pool), entries=8, ways=8,
                    eviction="lru", traffic="zipfian",
                    zipf_rotate_every=rotate_every)


def segment_serving_telemetry(quick: bool, repeats: int) -> dict:
    """Telemetry-bus overhead on the serving hot path: the tiered
    churn replay bare vs with a full :class:`~repro.obs.Telemetry`
    bundle attached (bus + metrics subscription + window accounting).
    Emission is a bounded-queue append off the decision path, so the
    'speedup' here is expected to sit at ~1.0x; its floor gates the
    instrumented run to within ~5% of the bare one rather than
    asserting a win."""
    from repro.analysis.functional_sweep import derive_seed
    from repro.analysis.serving_sweep import (MODEL_STREAM, POOL_STREAM,
                                              TRACE_STREAM)
    from repro.models.registry import build_model
    from repro.obs import Telemetry
    from repro.serving import (BatcherConfig, InferenceServer,
                               ServingPolicy, TrafficConfig,
                               build_request_pool, generate_trace)

    num_requests = 160 if quick else 480
    rotate_every = num_requests // 5
    pool = build_request_pool("squeezenet", pool_size=48, image_size=24,
                              seed=derive_seed(0, POOL_STREAM))
    trace = generate_trace(TrafficConfig(pattern="zipfian",
                                         num_requests=num_requests,
                                         zipf_rotate_every=rotate_every,
                                         rate_rps=200000.0,
                                         seed=derive_seed(0, TRACE_STREAM)),
                           len(pool))

    def replay_time(observed: bool) -> float:
        model = build_model("squeezenet", num_classes=4,
                            seed=derive_seed(0, MODEL_STREAM))
        policy = ServingPolicy(request_cache=True, vector_cache=False,
                               exact_check=True, compute="per_request",
                               entries=8, ways=8)
        server = InferenceServer(model, policy,
                                 BatcherConfig(max_batch_size=8,
                                               max_wait_s=0.001),
                                 telemetry=Telemetry(window_batches=4)
                                 if observed else None)
        start = time.perf_counter()
        server.replay(trace, pool)
        return time.perf_counter() - start

    before = min(replay_time(False) for _ in range(max(repeats, 1)))
    after = min(replay_time(True) for _ in range(max(repeats, 1)))
    return _segment(before, after, num_requests=num_requests,
                    pool_size=len(pool), entries=8, ways=8,
                    traffic="zipfian", zipf_rotate_every=rotate_every)


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def segment_serving_parallel(quick: bool, repeats: int) -> dict:
    """Measured process-parallel scale-out: the same replay schedule in
    one process vs four real worker processes (warm, long-lived), both
    on the wall clock.  Cache-less per-request compute keeps the work
    stateless across repeats and heavy enough per batch that model
    time, not queue IPC, dominates.  ``usable_cpus`` is recorded so the
    CI floor can skip hosts that cannot physically show parallelism."""
    from repro.models.registry import build_model
    from repro.serving import (BatcherConfig, InferenceServer,
                               ParallelInferenceServer, ServingPolicy,
                               TrafficConfig, build_request_pool,
                               generate_trace)

    workers = 4
    num_requests = 96 if quick else 192
    image_size = 32 if quick else 48
    pool = build_request_pool("squeezenet", pool_size=num_requests,
                              image_size=image_size, seed=0)
    # A saturating arrival rate fills every micro-batch, minimising the
    # per-batch dispatch overhead on both sides of the comparison.
    trace = generate_trace(TrafficConfig(pattern="uniform",
                                         num_requests=num_requests,
                                         rate_rps=200000.0, seed=1),
                           len(pool))
    model = build_model("squeezenet", num_classes=4, seed=3)
    policy = ServingPolicy(request_cache=False, vector_cache=False,
                           compute="per_request")
    config = BatcherConfig(max_batch_size=8, max_wait_s=0.001)

    single = InferenceServer(model, policy, config, shards=workers)
    single.replay(trace, pool)  # warm numpy/model paths
    before = min(single.replay(trace, pool)[1].duration_s
                 for _ in range(max(repeats, 1)))

    with ParallelInferenceServer(model, policy, config, workers=workers,
                                 snapshot_every_batches=0) as parallel:
        parallel.replay(trace, pool)  # warm workers (spawn excluded)
        after = min(parallel.replay(trace, pool)[1].measured_makespan_s
                    for _ in range(max(repeats, 1)))
    return _segment(before, after, num_requests=num_requests,
                    image_size=image_size, workers=workers,
                    traffic="uniform", usable_cpus=usable_cpus())


def segment_functional_sweep(points) -> dict:
    """The reference sweep end to end: seed implementations and paired
    baselines vs the current hot path with shared baselines."""
    start = time.perf_counter()
    with seed_mode():
        run_functional_sweep(points, processes=0, share_baselines=False)
    before = time.perf_counter() - start

    start = time.perf_counter()
    run_functional_sweep(points, processes=0)
    after = time.perf_counter() - start
    return _segment(before, after, points=len(points))


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------
def run_suite(quick: bool = False, repeats: int | None = None) -> dict:
    """Run every segment; returns the JSON-safe artifact payload."""
    repeats = repeats or (2 if quick else 3)
    sweep_config = QUICK_SWEEP if quick else REFERENCE_SWEEP
    points = build_functional_grid(**sweep_config)

    segments = {
        "im2col": segment_im2col(quick, repeats),
        "train_step": segment_train_step(quick, repeats),
        "conv_group_batching": segment_conv_group_batching(quick, repeats),
        "cache_ride": segment_cache_ride(quick, repeats),
        "serving_reuse": segment_serving_reuse(quick, repeats),
        "serving_sharded": segment_serving_sharded(quick, repeats),
        "serving_tiered": segment_serving_tiered(quick, repeats),
        "serving_telemetry": segment_serving_telemetry(quick, repeats),
        "serving_parallel": segment_serving_parallel(quick, repeats),
        "baseline_memoization": segment_baseline_memoization(points),
        "functional_sweep": segment_functional_sweep(points),
    }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "reference_sweep": {key: list(value) if isinstance(value, (tuple, list))
                            else value for key, value in sweep_config.items()},
        "segments": segments,
        "speedups": {name: segment["speedup"]
                     for name, segment in segments.items()},
    }


def check_floors(payload: dict, floor: float,
                 sharded_floor: float = 1.2,
                 tiered_floor: float = 1.05,
                 parallel_floor: float = 1.5,
                 telemetry_floor: float = 0.95,
                 train_step_floor: float = 1.25,
                 cache_ride_floor: float = 1.1) -> list[str]:
    """The CI gate: im2col and baseline memoization must hold ``floor``;
    the training step must beat the seed replay (loop im2col, per-group
    engine calls, object-dtype states, masked per-call ride) by
    ``train_step_floor``, and the representative-substitution ride must
    beat the per-group masked assembly by ``cache_ride_floor`` — both
    conservative against single-core timer noise (the committed
    full-mode baselines sit well above them);
    the 4-shard serving makespan must beat the single worker by
    ``sharded_floor`` (consistent-hash balance caps it below the ideal
    4x, so its floor is separate and conservative); LRU replacement on
    the churning trace must beat the no-replacement cache by
    ``tiered_floor`` (the win is a hit-rate delta, typically ~1.1x, so
    its floor only asserts the direction with margin for timer noise);
    the telemetry-instrumented replay must stay within ~5% of the bare
    one (``telemetry_floor`` < 1.0 — observability is gated on *not
    slowing the hot path*, not on winning);
    the measured process-parallel makespan must beat the single process
    by ``parallel_floor`` — scaled down to ``0.6 x usable cores`` on
    hosts with fewer cores than workers, and not gated at all on
    single-core hosts (one core cannot express process parallelism; the
    segment still records the measurement)."""
    failures = []
    floors = {"im2col": floor, "baseline_memoization": floor,
              "train_step": train_step_floor,
              "cache_ride": cache_ride_floor,
              "serving_sharded": sharded_floor,
              "serving_tiered": tiered_floor,
              "serving_telemetry": telemetry_floor}
    for name, required in floors.items():
        speedup = payload["speedups"].get(name)
        if speedup is None:
            # A gated segment that vanished (renamed, or its runner
            # dropped it) must fail loudly, not pass vacuously.
            failures.append(f"{name}: segment missing from the payload")
        elif speedup < required:
            failures.append(
                f"{name}: {speedup:.2f}x < required {required:.2f}x")
    parallel = payload["segments"].get("serving_parallel") \
        if "segments" in payload else None
    if parallel is None:
        failures.append(
            "serving_parallel: segment missing from the payload")
    else:
        cpus = int(parallel.get("usable_cpus", 1))
        workers = int(parallel.get("workers", 4))
        if cpus >= 2:
            required = min(parallel_floor, 0.6 * min(cpus, workers))
            if parallel["speedup"] < required:
                failures.append(
                    f"serving_parallel: {parallel['speedup']:.2f}x < "
                    f"required {required:.2f}x ({cpus} usable cpus)")
    return failures


def print_report(payload: dict) -> None:
    print(f"perf suite ({'quick' if payload['quick'] else 'full'} mode, "
          f"best of {payload['repeats']})")
    print(f"{'segment':<24} {'before':>10} {'after':>10} {'speedup':>9}")
    for name, segment in payload["segments"].items():
        print(f"{name:<24} {segment['before_s'] * 1e3:>8.2f}ms "
              f"{segment['after_s'] * 1e3:>8.2f}ms "
              f"{segment['speedup']:>8.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller inputs / fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per segment (best-of)")
    parser.add_argument("--output", default=None,
                        help="write the artifact JSON to this path")
    parser.add_argument("--check", action="store_true",
                        help="fail when key speedups drop below --floor")
    parser.add_argument("--floor", type=float, default=1.5,
                        help="minimum im2col / baseline-memoization "
                             "speedup for --check (default 1.5)")
    parser.add_argument("--sharded-floor", type=float, default=1.2,
                        help="minimum 4-shard serving makespan speedup "
                             "for --check (default 1.2)")
    parser.add_argument("--tiered-floor", type=float, default=1.05,
                        help="minimum LRU-vs-no-replacement makespan "
                             "speedup on the churning trace for "
                             "--check (default 1.05)")
    parser.add_argument("--telemetry-floor", type=float, default=0.95,
                        help="minimum telemetry-on/off replay ratio for "
                             "--check — gates bus overhead at ~5% "
                             "(default 0.95)")
    parser.add_argument("--parallel-floor", type=float, default=1.5,
                        help="minimum process-parallel serving speedup "
                             "for --check on hosts with >= 2 usable "
                             "cores (default 1.5)")
    parser.add_argument("--train-step-floor", type=float, default=1.25,
                        help="minimum train-step speedup over the full "
                             "seed replay for --check (default 1.25)")
    parser.add_argument("--cache-ride-floor", type=float, default=1.1,
                        help="minimum substituted-vs-masked cache-ride "
                             "speedup for --check "
                             "(default 1.1)")
    args = parser.parse_args(argv)

    payload = run_suite(quick=args.quick, repeats=args.repeats)
    print_report(payload)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        failures = check_floors(payload, args.floor,
                                sharded_floor=args.sharded_floor,
                                tiered_floor=args.tiered_floor,
                                parallel_floor=args.parallel_floor,
                                telemetry_floor=args.telemetry_floor,
                                train_step_floor=args.train_step_floor,
                                cache_ride_floor=args.cache_ride_floor)
        if failures:
            for failure in failures:
                print(f"FAIL {failure}")
            return 1
        print(f"floors held (>= {args.floor:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
