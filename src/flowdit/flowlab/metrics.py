"""Sample-quality metrics for small 2-d point sets."""

from __future__ import annotations

import numpy as np

_CHUNK = 512  # rows per chunk; chunk sums join the total one after another
_TILE = 64  # most rows a part spans, unless it holds at most _PW_BLOCK values
_PW_BLOCK = 128  # numpy's pairwise sum adds up to this many values without splitting them


def _pairwise_sum(part_sum, lo: int, hi: int, width: int):
    """Sum part_sum(lo, hi) over flat positions [lo, hi) of a row-major grid
    width columns wide, in numpy's pairwise order: a range of more than
    _PW_BLOCK values splits after half its length rounded down to a multiple
    of 8, as numpy splits it, until a part spans at most _TILE rows.

    A module function because a closure that called itself would be a
    reference cycle, holding the caller's buffers until the garbage collector
    ran (12 MiB traced over energy_distance's three calls, not 4)."""
    if -(-hi // width) - lo // width > _TILE and hi - lo > _PW_BLOCK:
        half = (hi - lo) // 2
        mid = lo + half - half % 8
        return _pairwise_sum(part_sum, lo, mid, width) + _pairwise_sum(part_sum, mid, hi, width)
    return part_sum(lo, hi)


def _mean_pairwise_distance(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray) -> float:
    """Mean of all |a_i - b_j| over the full index grid (diagonal included).

    a_sq and b_sq are the rows' squared norms. Each chunk of up to 512 rows of
    a is summed in the order numpy's pairwise sum takes over the chunk's flat
    [rows, len(b)] block of distances, and each part's distances are made only
    when it is summed, in two buffers allocated once per call. So the scratch
    is two [64, len(b)] buffers whatever len(a) is (up to 129 rows when b has
    fewer than 3 points), and each chunk sum keeps the bits of the whole
    block's .sum() wherever the BLAS keeps a GEMM's bits when its rows are cut.
    """
    width = b.shape[0]
    d2 = np.empty((max(_TILE, _PW_BLOCK // width + 1), width))
    gram = np.empty_like(d2)

    def part_sum(lo: int, hi: int):
        # the sum of the distances at flat positions [lo, hi) of the [len(a), len(b)] grid
        r0, r1 = lo // width, -(-hi // width)
        out, g = d2[: r1 - r0], gram[: r1 - r0]
        np.add(a_sq[r0:r1, None], b_sq[None, :], out=out)
        np.matmul(2.0 * a[r0:r1], b.T, out=g)
        np.subtract(out, g, out=out)
        np.maximum(out, 0.0, out=out)
        np.sqrt(out, out=out)
        return out.ravel()[lo - r0 * width : hi - r0 * width].sum()

    total = 0.0
    for start in range(0, a.shape[0], _CHUNK):
        stop = min(start + _CHUNK, a.shape[0])
        total += _pairwise_sum(part_sum, start * width, stop * width, width)
    return total / (a.shape[0] * width)


def energy_distance(a, b) -> float:
    """V-statistic energy distance 2 E|a-b| - E|a-a'| - E|b-b'|.

    All pairs including self-pairs enter each mean, so identical sample sets
    give exactly 0. Nonnegative up to floating rounding; 0 iff the underlying
    distributions coincide (in the infinite-sample limit). Raises ValueError
    when either set is empty, and FloatingPointError when the result is not
    finite, as it is when a set holds values whose squared distances overflow.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"need [n, d] sample sets with matching d, got {a.shape}, {b.shape}")
    for name, s in (("a", a), ("b", b)):
        if s.shape[0] == 0:
            raise ValueError(f"sample set {name} is empty (shape {s.shape})")
    a_sq, b_sq = (a * a).sum(axis=1), (b * b).sum(axis=1)
    out = (
        2.0 * _mean_pairwise_distance(a, a_sq, b, b_sq)
        - _mean_pairwise_distance(a, a_sq, a, a_sq)
        - _mean_pairwise_distance(b, b_sq, b, b_sq)
    )
    if not np.isfinite(out):
        raise FloatingPointError(f"energy distance is not finite ({float(out)})")
    return out
