"""Time-ramped key/value pooling for attention over patch grids.

Keys and values are average-pooled over small spatial windows after the
kv projections, shrinking the context the queries attend to. The target
drop ratio ramps linearly from r_max at t=0 (noise, global structure)
to 0 at t=1 (data, fine detail); the pooled coordinates are the window
means, so rotary phases stay aligned with the surviving context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import numkernel as nk

# (rows, cols), sorted by the fraction of context removed: 0, 1/2, 3/4, 7/8, 15/16
WINDOWS = ((1, 1), (2, 1), (2, 2), (4, 2), (4, 4))


def drop_fraction(window: tuple[int, int]) -> float:
    return 1.0 - 1.0 / (window[0] * window[1])


@dataclass(frozen=True)
class DropSpec:
    """Linear ramp r(t) = r_max * (1 - t), shared by every layer."""

    r_max: float

    def __post_init__(self):
        if not 0.0 <= self.r_max < 1.0:
            raise ValueError(f"r_max must lie in [0, 1), got {self.r_max}")

    def ratio(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        return self.r_max * (1.0 - t)


def window_for_ratio(ratio: float) -> tuple[int, int]:
    """Largest pooling window whose drop fraction does not exceed `ratio`."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"drop ratio must lie in [0, 1), got {ratio}")
    chosen = WINDOWS[0]
    for window in WINDOWS:
        if drop_fraction(window) <= ratio:
            chosen = window
    return chosen


def pool_kv(k, v, coords, grid: tuple[int, int], window: tuple[int, int]):
    """Average-pool keys, values, and their coordinates over `window` cells.

    k, v have shape [..., h*w, d] (arrays or tape Vars); coords [h*w, axes].
    Returns (k', v', coords'). The (1, 1) window returns the inputs
    unchanged, as the same objects.
    """
    n = ad.val(k).shape[-2]
    if n != grid[0] * grid[1]:
        raise ValueError(f"got {n} tokens for grid {grid}")
    if tuple(window) == (1, 1):
        return k, v, coords
    pool = nk.pool_matrix(grid, window, dtype=ad.val(k).dtype)
    return ad.matmul(pool, k), ad.matmul(pool, v), nk.matmul(pool, np.asarray(coords, dtype=float))
