"""Order statistics shared by the workloads."""

from __future__ import annotations

import numpy as np


def percentile(values, q: float) -> float:
    """The ``q``-th percentile by nearest rank; NaN when empty.

    Nearest rank returns a sample, never an interpolation, so an
    infinite latency (a failed request) stays infinite instead of
    turning into NaN.
    """
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q,
                               method="inverted_cdf"))
