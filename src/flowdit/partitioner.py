"""Resolution partitioning: pick a patch grid for an arbitrary image size.

Candidate grids are every (rows, cols) whose token count fits the budget
and whose aspect ratio is bounded; an incoming image picks the candidate
whose shape matches best, is resized to that grid times the patch size,
and variable-length token sequences are zero-padded into a batch with a
validity mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PartitionGrid:
    """A patch grid: rows x cols patches of side `patch` pixels."""

    rows: int
    cols: int
    patch: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.patch < 1:
            raise ValueError(f"grid dimensions must be positive: {self}")

    @property
    def tokens(self) -> int:
        return self.rows * self.cols

    @property
    def pixel_size(self) -> tuple[int, int]:
        return (self.rows * self.patch, self.cols * self.patch)


def candidate_set(max_tokens: int, max_aspect: float, patch: int) -> list[PartitionGrid]:
    """All grids with rows*cols <= max_tokens and bounded aspect ratio,
    ordered by rows then cols (deterministic tie-break order)."""
    if max_tokens < 1:
        raise ValueError(f"token budget must be positive, got {max_tokens}")
    if not max_aspect >= 1.0:
        raise ValueError(f"aspect bound must be >= 1, got {max_aspect}")
    out = []
    for rows in range(1, max_tokens + 1):
        for cols in range(1, max_tokens // rows + 1):
            if max(rows, cols) / min(rows, cols) <= max_aspect:
                out.append(PartitionGrid(rows, cols, patch))
    return out


def matching_ratio(grid: PartitionGrid, height: int, width: int) -> float:
    """Shape-match score in (0, 1]: 1 means the grid's aspect equals the
    image's. Invariant under scaling the image (or the grid) uniformly."""
    if height < 1 or width < 1:
        raise ValueError(f"image size must be positive, got {height}x{width}")
    rh = grid.rows / height
    rw = grid.cols / width
    return min(rh, rw) / max(rh, rw)


def best_partition(height: int, width: int, candidates: list[PartitionGrid]) -> PartitionGrid:
    """The candidate with the highest matching ratio; ties go to the larger
    token count, then to the earlier candidate."""
    if not candidates:
        raise ValueError("empty candidate set")
    best = candidates[0]
    best_score = (matching_ratio(best, height, width), best.tokens)
    for grid in candidates[1:]:
        score = (matching_ratio(grid, height, width), grid.tokens)
        if score > best_score:
            best, best_score = grid, score
    return best


def pad_batch(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad [n_i, d] sequences to [B, n_max, d] plus a validity mask.

    mask[b, j] is True where token j of sequence b is real. Every sequence
    must contain at least one token.
    """
    if not seqs:
        raise ValueError("empty batch")
    arrs = [np.asarray(s, dtype=float) for s in seqs]
    d = arrs[0].shape[-1]
    for a in arrs:
        if a.ndim != 2 or a.shape[-1] != d:
            raise ValueError(f"all sequences need shape [n, {d}], got {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("sequences must contain at least one token")
    n_max = max(a.shape[0] for a in arrs)
    padded = np.zeros((len(arrs), n_max, d))
    mask = np.zeros((len(arrs), n_max), dtype=bool)
    for b, a in enumerate(arrs):
        padded[b, : a.shape[0]] = a
        mask[b, : a.shape[0]] = True
    return padded, mask
