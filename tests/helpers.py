"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.core.config import MercuryConfig
from repro.core.hitmap_sim import HitmapSimulation
from repro.core.reuse import ReuseEngine
from repro.core.session import ReuseSession
from tests.oracles import scalar_reference_simulation


def numerical_gradient(func, array: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. ``array``.

    ``func`` is called with no arguments and must read ``array`` in
    place (the helper perturbs entries one at a time).
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func()
        flat[index] = original - epsilon
        minus = func()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error between two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


# ----------------------------------------------------------------------
# Reuse-engine oracles
# ----------------------------------------------------------------------
def substituted_vectors(vectors: np.ndarray, width: int,
                        simulations) -> np.ndarray:
    """``X'`` built by a loop: row ``r``'s group-``g`` slice is copied
    from row ``rep_g(r)``, the representative ``simulations[g]`` names
    (a MAU or MNU row names itself)."""
    substituted = np.empty(vectors.shape, dtype=np.float64)
    for lo, simulation in zip(range(0, vectors.shape[1], width),
                              simulations):
        for row, source in enumerate(simulation.representative):
            substituted[row, lo:lo + width] = vectors[source, lo:lo + width]
    return substituted


def substituted_ride_groups(vectors: np.ndarray, weights: np.ndarray,
                            width: int, simulations) -> np.ndarray:
    """The oracle for :meth:`ReuseSession.ride_groups`: the loop-built
    ``X'`` times ``weights`` in one GEMM (the plain product when no
    group has a HIT)."""
    if not any(simulation.hits for simulation in simulations):
        return vectors @ weights
    return substituted_vectors(vectors, width, simulations) @ weights


def substituted_ride(vectors: np.ndarray, weights: np.ndarray,
                     simulation: HitmapSimulation) -> np.ndarray:
    """The oracle for :meth:`ReuseSession.ride`: the one-group case."""
    return substituted_ride_groups(vectors, weights, vectors.shape[1],
                                   [simulation])


class SubstitutedSession(ReuseSession):
    """Flash session whose rides run on the loop-built oracle."""

    ride = staticmethod(substituted_ride)


class ScalarSession(SubstitutedSession):
    """Oracle session whose Hitmaps come from the line-level scalar MCACHE."""

    def classify(self, signatures) -> HitmapSimulation:
        self.clears += 1
        return scalar_reference_simulation(signatures,
                                           num_sets=self.num_sets,
                                           ways=self.policy.ways)


class PerCallEngine(ReuseEngine):
    """The per-call oracle for :meth:`ReuseEngine.matmul_groups`.

    Services every column group on its own — its own hash, its own
    fresh-MCACHE :meth:`~ReuseSession.classify` and its own statistics
    merge — then multiplies the loop-built ``X'`` in one GEMM, which the
    layer-granular call must reproduce bit for bit.  With detection off
    the groups still record one call each, but the product is the one
    exact GEMM.
    """

    session_class = SubstitutedSession

    def __init__(self, config: MercuryConfig | None = None):
        super().__init__(config)
        self.session = self.session_class(
            self.session.policy, hasher=self.hasher, persistent=False)
        self.mcache = self.session.mcache

    def matmul_groups(self, vectors, weights, width, *,
                      layer: str) -> np.ndarray:
        vectors, weights = self._operands(vectors, weights)
        detection_on = self._detection_enabled(layer, "forward")
        simulations = []
        for lo in range(0, vectors.shape[1], width):
            group = vectors[:, lo:lo + width]
            rows, length = group.shape
            call = dict(vectors=rows, vector_length=length,
                        num_filters=weights.shape[1])
            if not detection_on:
                self._record(layer, "forward", hits=0, mau=0, mnu=rows,
                             unique=rows, detection_on=False, **call)
                continue
            signatures = self.hasher.signatures(group, self.signature_bits)
            simulation = self.session.classify(signatures)
            self.signature_table.store(layer, length, self.signature_bits,
                                       signatures, simulation)
            self.last_simulations[(layer, "forward")] = simulation
            self._record(layer, "forward", hits=simulation.hits,
                         mau=simulation.mau, mnu=simulation.mnu,
                         unique=simulation.unique_signatures,
                         detection_on=True, **call)
            simulations.append(simulation)
        if not detection_on:
            return vectors @ weights
        return substituted_ride_groups(vectors, weights, width, simulations)


class ScalarOracleEngine(PerCallEngine):
    """The per-call engine classifying every batch on the scalar oracle."""

    session_class = ScalarSession
