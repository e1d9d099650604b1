"""Pytest configuration: hypothesis settings profiles and shared fixtures.

Profiles (select with ``HYPOTHESIS_PROFILE=<name>``, default ``fast``):

* ``fast`` — a handful of examples with shrinking disabled, for quick
  local iteration and the tier-1 run;
* ``ci``   — more examples for the CI matrix;
* ``dev``  — minimal examples, for smoke-checking a work in progress.

Per-test ``@settings`` decorators still override the profile.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import Phase, settings

settings.register_profile(
    "fast", max_examples=10, deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.register_profile("ci", max_examples=50, deadline=None)
settings.register_profile("dev", max_examples=2, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0)


@pytest.fixture
def make_trace():
    """Factory for random signature traces with controllable reuse.

    ``make_trace(n, pool_size, seed)`` draws ``n`` probes from a pool of
    ``pool_size`` distinct signature values — smaller pools mean more
    HITs, pools larger than the cache force MNUs.
    """
    def make(num_probes: int, pool_size: int, seed: int = 0,
             signature_range: int = 1 << 20) -> np.ndarray:
        trace_rng = np.random.default_rng(seed)
        pool = trace_rng.integers(0, signature_range,
                                  size=max(pool_size, 1))
        return trace_rng.choice(pool, size=num_probes)
    return make


@pytest.fixture(params=[
    pytest.param({"signature_bits": 12, "mcache_entries": 64,
                  "mcache_ways": 4}, id="small-cache"),
    pytest.param({"signature_bits": 20, "mcache_entries": 1024,
                  "mcache_ways": 16}, id="paper-default"),
    pytest.param({"signature_bits": 16, "mcache_entries": 32,
                  "mcache_ways": 32}, id="fully-associative"),
])
def mercury_config_grid(request):
    """A grid of MercuryConfig variants (adaptation off for determinism)."""
    from repro.core.config import MercuryConfig
    return MercuryConfig(adaptive_stoppage=False,
                         adaptive_signature_length=False, **request.param)
