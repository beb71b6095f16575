"""Dense f64 array kernels: the GEMM, token-grid coordinates and pooling matrices.

Plain numpy ndarrays are the tensor carrier: contiguous row-major buffers of
f64 scalars, the only dtype that models, checkpoints and training use.
Kernels are pure and deterministic for identical inputs, over leading batch
axes that matmul broadcasts as numpy does (GQA shares a kv head over a group
axis).
"""

from __future__ import annotations

import math

import numpy as np


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[i,j] = sum_k a[i,k] * b[k,j], with optional broadcast leading batch axes.

    A 2-d b under a batched a is one GEMM over a's flattened rows, not one
    small product per leading index.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs rank >= 2 operands, got {a.ndim} and {b.ndim}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner axes mismatch: {a.shape} x {b.shape}")
    if b.ndim == 2 and a.ndim > 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    return a @ b


def grid_coords(grid: tuple[int, int]) -> np.ndarray:
    """Row-major (row, col) coordinates of an h x w token grid, shape [h*w, 2]."""
    h, w = grid
    if h < 1 or w < 1:
        raise ValueError(f"grid {grid} must be positive")
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.stack([rows, cols], axis=-1).reshape(h * w, 2).astype(np.float64)


def pool_matrix(grid: tuple[int, int], window: tuple[int, int]) -> np.ndarray:
    """Row-stochastic matrix M with M @ tokens = window means, for average
    pooling of a row-major h x w token grid by wh x ww windows.

    M has ceil(h/wh) * ceil(w/ww) rows, one per window in row-major order.
    Windows at the bottom/right edge of a non-divisible grid are smaller;
    the mean is taken over contained tokens only, never over replicated
    padding.
    """
    h, w = grid
    wh, ww = window
    if h < 1 or w < 1 or wh < 1 or ww < 1:
        raise ValueError(f"grid {grid} and window {window} must be positive")
    ow = math.ceil(w / ww)
    # assign[i] is the window of token i; counts[j] the tokens in window j
    assign = ((np.arange(h) // wh)[:, None] * ow + (np.arange(w) // ww)[None, :]).reshape(-1)
    counts = np.bincount(assign, minlength=math.ceil(h / wh) * ow)
    m = np.zeros((len(counts), len(assign)))
    m[assign, np.arange(len(assign))] = 1.0 / counts[assign]
    return m
