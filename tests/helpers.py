"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.core.config import MercuryConfig
from repro.core.hitmap import HIT_CODE
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
def masked_ride(vectors: np.ndarray, weights: np.ndarray,
                simulation: HitmapSimulation) -> np.ndarray:
    """The boolean-mask oracle for :meth:`ReuseSession.ride`."""
    if not simulation.hits:
        return vectors @ weights
    hit_mask = simulation.states == HIT_CODE
    compute_mask = ~hit_mask
    result = np.empty((len(vectors), weights.shape[1]), dtype=np.float64)
    result[compute_mask] = vectors[compute_mask] @ weights
    result[hit_mask] = result[simulation.representative[hit_mask]]
    return result


def masked_ride_groups(vectors: np.ndarray, weights: np.ndarray, width: int,
                       simulations) -> np.ndarray:
    """The oracle for :meth:`ReuseSession.ride_groups`: one masked ride
    per column group, summed from zeros in group order."""
    out = np.zeros((len(vectors), weights.shape[1]), dtype=np.float64)
    for lo, simulation in zip(range(0, vectors.shape[1], width),
                              simulations):
        out += masked_ride(vectors[:, lo:lo + width],
                           weights[lo:lo + width], simulation)
    return out


class MaskedSession(ReuseSession):
    """Flash session whose rides run on the boolean-mask oracle."""

    ride = staticmethod(masked_ride)


class ScalarSession(MaskedSession):
    """Masked session whose Hitmaps come from the line-level scalar MCACHE."""

    def classify(self, signatures) -> HitmapSimulation:
        self.clears += 1
        return scalar_reference_simulation(signatures,
                                           num_sets=self.num_sets,
                                           ways=self.policy.ways)


class PerCallEngine(ReuseEngine):
    """The per-call oracle for :meth:`ReuseEngine.matmul_groups`.

    Services every column group with its own :meth:`matmul` call — its
    own hash, fresh-MCACHE classification and masked ride — summed from
    zeros, which the layer-granular call must reproduce bit for bit.
    With detection off the groups still record one call each, but the
    product is the one exact GEMM.
    """

    session_class = MaskedSession

    def __init__(self, config: MercuryConfig | None = None):
        super().__init__(config)
        self.session = self.session_class(
            self.session.policy, hasher=self.hasher, persistent=False)
        self.mcache = self.session.mcache

    def matmul_groups(self, vectors, weights, width, *, layer: str,
                      phase: str = "forward") -> np.ndarray:
        detection_on = self._detection_enabled(layer, phase)
        out = np.zeros((len(vectors), weights.shape[1]), dtype=np.float64)
        for lo in range(0, vectors.shape[1], width):
            out += self.matmul(vectors[:, lo:lo + width],
                               weights[lo:lo + width], layer=layer,
                               phase=phase)
        return out if detection_on else vectors @ weights


class ScalarOracleEngine(PerCallEngine):
    """The per-call engine classifying every batch on the scalar oracle."""

    session_class = ScalarSession
