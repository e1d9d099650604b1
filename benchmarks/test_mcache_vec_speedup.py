"""Microbenchmark: vectorized Hitmap classification vs the scalar oracle.

Replays the signature trace of one VGG-13 convolution layer (the
112x112 conv2 stage at paper scale: 12,544 extracted 3x3 input vectors,
hashed with the default 20-bit RPQ) through the production fresh-cache
classifier (:func:`repro.core.hitmap_sim.simulate_hitmap`) and the
line-level scalar MCACHE in ``tests/oracles.py``, and checks that the
vectorized path is at least 5x faster while producing bit-identical
Hitmap decisions.
"""

import time

import numpy as np

from benchmarks.harness import print_header
from repro.core.hitmap_sim import simulate_hitmap
from repro.core.rpq import RPQHasher
from repro.nn.im2col import im2col
from tests.oracles import MCache

# VGG-13 conv2: 112x112 output positions, 3x3 kernels (workloads.py).
SPATIAL = 112
KERNEL = 3
SIGNATURE_BITS = 20
ENTRIES, WAYS = 1024, 16


def vgg13_conv_trace() -> np.ndarray:
    """RPQ signatures of one channel of the VGG-13 conv2 layer.

    The feature map is piecewise constant over 8x8 blocks, reproducing
    the high input similarity the paper measures in early conv layers
    (Figure 1): most 3x3 patches repeat, with variety along block edges.
    """
    rng = np.random.default_rng(42)
    side = SPATIAL + KERNEL - 1
    blocks = rng.normal(size=(side // 8 + 1, side // 8 + 1))
    image = np.repeat(np.repeat(blocks, 8, axis=0), 8, axis=1)[:side, :side]
    vectors = im2col(image[None, None], KERNEL, KERNEL)
    return RPQHasher(seed=1).signatures(vectors, SIGNATURE_BITS)


def scalar_replay(trace: np.ndarray):
    cache = MCache(entries=ENTRIES, ways=WAYS)
    states = [cache.lookup_or_insert(int(signature))[0].code
              for signature in trace]
    return states, cache.stats


def run_benchmark():
    trace = vgg13_conv_trace()
    num_sets = ENTRIES // WAYS
    simulate_hitmap(trace, num_sets, WAYS)  # warm-up (allocations, caches)

    start = time.perf_counter()
    scalar_states, scalar_stats = scalar_replay(trace)
    scalar_seconds = time.perf_counter() - start

    vectorized_seconds = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        simulation = simulate_hitmap(trace, num_sets, WAYS)
        vectorized_seconds = min(vectorized_seconds,
                                 time.perf_counter() - start)

    assert list(simulation.states) == scalar_states
    assert (simulation.hits, simulation.mau, simulation.mnu) == \
        (scalar_stats.hits, scalar_stats.mau, scalar_stats.mnu)
    return {"vectors": len(trace), "scalar_s": scalar_seconds,
            "vectorized_s": vectorized_seconds,
            "speedup": scalar_seconds / vectorized_seconds,
            "hit_fraction": simulation.hits / len(trace)}


def test_vectorized_mcache_speedup():
    result = run_benchmark()

    print_header("MCACHE engine microbenchmark — VGG-13 conv2 layer trace")
    print(f"vectors:            {result['vectors']}")
    print(f"hit fraction:       {result['hit_fraction']:.2f}")
    print(f"scalar oracle:      {result['scalar_s'] * 1e3:8.2f} ms")
    print(f"vectorized engine:  {result['vectorized_s'] * 1e3:8.2f} ms")
    print(f"speedup:            {result['speedup']:8.1f}x")

    assert result["vectors"] == SPATIAL * SPATIAL
    # Acceptance bar: the batch engine must beat the scalar model by >=5x
    # on a layer-level trace (it is typically well beyond that).
    assert result["speedup"] >= 5.0
