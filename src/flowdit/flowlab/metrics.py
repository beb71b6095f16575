"""Sample-quality metrics for small 2-d point sets."""

from __future__ import annotations

import numpy as np


def _mean_pairwise_distance(a: np.ndarray, b: np.ndarray, chunk: int = 512) -> float:
    """Mean of all |a_i - b_j| over the full index grid (diagonal included)."""
    b_sq = (b * b).sum(axis=1)
    total = 0.0
    for start in range(0, a.shape[0], chunk):
        block = a[start : start + chunk]
        d2 = (block * block).sum(axis=1)[:, None] + b_sq[None, :] - 2.0 * block @ b.T
        total += np.sqrt(np.maximum(d2, 0.0)).sum()
    return total / (a.shape[0] * b.shape[0])


def energy_distance(a, b) -> float:
    """V-statistic energy distance 2 E|a-b| - E|a-a'| - E|b-b'|.

    All pairs including self-pairs enter each mean, so identical sample sets
    give exactly 0. Nonnegative up to floating rounding; 0 iff the underlying
    distributions coincide (in the infinite-sample limit). Raises
    FloatingPointError when the result is not finite, as it is when a set
    holds values whose squared distances overflow.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"need [n, d] sample sets with matching d, got {a.shape}, {b.shape}")
    out = (
        2.0 * _mean_pairwise_distance(a, b)
        - _mean_pairwise_distance(a, a)
        - _mean_pairwise_distance(b, b)
    )
    if not np.isfinite(out):
        raise FloatingPointError(f"energy distance is not finite ({float(out)})")
    return out
