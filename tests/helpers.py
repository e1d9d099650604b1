"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.core.config import MercuryConfig
from repro.core.differential import scalar_reference_simulation
from repro.core.hitmap_sim import HitmapSimulation
from repro.core.reuse import ReuseEngine
from repro.core.session import ReuseSession


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
class PerCallEngine(ReuseEngine):
    """The per-call oracle for :meth:`ReuseEngine.matmul_groups`.

    Services every channel group with its own :meth:`matmul` call — its
    own hash, fresh-MCACHE classification and masked ride — which the
    batched multi-group phase must reproduce bit for bit.
    """

    def matmul_groups(self, vectors_groups, weights_groups, *, layer: str,
                      phase: str = "forward") -> list[np.ndarray]:
        return [self.matmul(vectors, weights, layer=layer, phase=phase)
                for vectors, weights in zip(vectors_groups, weights_groups)]


class ScalarSession(ReuseSession):
    """Flash session whose Hitmaps come from the line-level scalar MCACHE."""

    def classify(self, signatures) -> HitmapSimulation:
        self.clears += 1
        return scalar_reference_simulation(signatures,
                                           num_sets=self.num_sets,
                                           ways=self.policy.ways)


class ScalarOracleEngine(PerCallEngine):
    """The per-call engine classifying every batch on the scalar oracle."""

    def __init__(self, config: MercuryConfig | None = None):
        super().__init__(config)
        self.session = ScalarSession(self.session.policy, hasher=self.hasher,
                                     persistent=False,
                                     versions=self.config.mcache_versions)
        self.mcache = self.session.mcache


def masked_ride_groups(vectors_groups, weights_groups,
                       simulations) -> list[np.ndarray]:
    """The masked-ride oracle for :meth:`ReuseSession.ride_groups`."""
    return [ReuseSession.ride(vectors, weights, simulation)
            for vectors, weights, simulation
            in zip(vectors_groups, weights_groups, simulations)]
