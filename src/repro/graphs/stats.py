"""Degree-distribution statistics of an edge stream."""
from __future__ import annotations

import numpy as np

from .generators import EdgeStream


def powerlaw_alpha(stream: EdgeStream, *, d_min: int = 2) -> float:
    """MLE estimate of the power-law exponent α of the degree distribution.

    Clauset-style continuous MLE ``α = 1 + n / Σ ln(d/d_min)`` over degrees
    ≥ d_min — used by tests to assert the generators are in the web-graph
    regime (α roughly in [1.5, 3.5]).
    """
    deg = stream.degrees()
    deg = deg[deg >= d_min].astype(np.float64)
    if len(deg) == 0:
        return float("nan")
    return float(1.0 + len(deg) / np.log(deg / (d_min - 0.5)).sum())
