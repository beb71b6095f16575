"""Minimal deterministic dense-tensor kernels shared by every other module.

Plain numpy ndarrays are the tensor carrier: contiguous row-major buffers of
f64 scalars, the only dtype that models, checkpoints and training use.
Kernels are pure and deterministic for identical inputs, over leading batch
axes that matmul broadcasts as numpy does (GQA shares a kv head over a group
axis). EPS is the RMS-norm epsilon; Next-DiT fixes it, so no caller sets it.

Tensors serialize to a small binary container for model checkpoints: magic
"NKT1", u8 dtype tag (2 = f64, the only one), u32 rank, one u64 per dim,
then the raw little-endian row-major buffer.
"""

from __future__ import annotations

import math
import struct

import numpy as np

Tensor = np.ndarray

EPS = 1e-6
_MAGIC = b"NKT1"
_F64_TAG = 2
_F64 = np.dtype("<f8")


def matmul(a: Tensor, b: Tensor) -> Tensor:
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


def holds(out, *operands) -> bool:
    """Whether an elementwise op of out with operands can write into out:
    out is a writeable array whose shape and dtype are the result's, so
    broadcasting against no operand grows it and no operand widens it."""
    return (
        isinstance(out, np.ndarray)
        and out.flags.writeable
        and np.broadcast(out, *operands).shape == out.shape
        and np.result_type(out, *operands) == out.dtype
    )


def _rms_inverse(x: Tensor) -> Tensor:
    """(mean(x^2, last axis) + EPS)^-1/2, the scale autodiff.rms_norm applies.

    The sum over the count is what np.mean computes, bit for bit, without
    its Python wrapper. A row whose mean square overflows (|x| above about
    1.3e154) is redone on x / max|x|, as RMS normalisation is
    scale-invariant; finite rows keep their bits, and a NaN row stays NaN.
    """
    ms = np.add.reduce(x * x, -1, keepdims=True) / x.shape[-1]
    inv = (ms + EPS) ** -0.5
    if math.isfinite(np.maximum.reduce(ms, None, initial=0.0)):  # NaN propagates through the max
        return inv
    rows = ~np.isfinite(ms[..., 0])
    big = x[rows]
    top = np.max(np.abs(big), axis=-1, keepdims=True)
    unit = big / top
    # top^2 * (mean(unit^2) + EPS / top^2) is the overflowing mean square plus EPS
    inv[rows] = (np.add.reduce(unit * unit, -1, keepdims=True) / x.shape[-1] + EPS / top / top) ** -0.5 / top
    return inv


def pool_assignments(grid: tuple[int, int], window: tuple[int, int]) -> tuple[np.ndarray, int, np.ndarray]:
    """Token-to-window assignment for average pooling on an h x w grid.

    Returns (assign, n_out, counts): assign[i] is the output index of input
    token i (row-major), n_out = ceil(h/wh) * ceil(w/ww), counts[j] the number
    of member tokens of window j. Windows at the bottom/right edge of a
    non-divisible grid are smaller; the mean is taken over contained tokens
    only, never over replicated padding.
    """
    h, w = grid
    wh, ww = window
    if h < 1 or w < 1 or wh < 1 or ww < 1:
        raise ValueError(f"grid {grid} and window {window} must be positive")
    ow = math.ceil(w / ww)
    rows = np.arange(h) // wh
    cols = np.arange(w) // ww
    assign = (rows[:, None] * ow + cols[None, :]).reshape(-1)
    n_out = math.ceil(h / wh) * ow
    counts = np.bincount(assign, minlength=n_out)
    return assign, n_out, counts


def grid_coords(grid: tuple[int, int]) -> Tensor:
    """Row-major (row, col) coordinates of an h x w token grid, shape [h*w, 2]."""
    h, w = grid
    if h < 1 or w < 1:
        raise ValueError(f"grid {grid} must be positive")
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.stack([rows, cols], axis=-1).reshape(h * w, 2).astype(np.float64)


def pool_matrix(grid: tuple[int, int], window: tuple[int, int]) -> Tensor:
    """Row-stochastic matrix M with M @ tokens = window means."""
    assign, n_out, counts = pool_assignments(grid, window)
    m = np.zeros((n_out, len(assign)))
    m[assign, np.arange(len(assign))] = 1.0 / counts[assign]
    return m


def save_tensor(path, x: Tensor) -> None:
    """Write one f64 tensor to the NKT1 container."""
    x = np.asarray(x)
    if x.ndim:  # ascontiguousarray would silently promote rank 0 to rank 1
        x = np.ascontiguousarray(x)
    if x.dtype != np.float64:
        raise ValueError(f"unsupported dtype {x.dtype}; only f64 serializes")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<BI", _F64_TAG, x.ndim))
        f.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        f.write(x.astype(_F64, copy=False).tobytes())


def load_tensor(path) -> Tensor:
    """Read one f64 tensor from the NKT1 container."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 9:
        raise ValueError(f"{path}: truncated header")
    tag, rank = struct.unpack_from("<BI", raw, 4)
    if tag != _F64_TAG:
        raise ValueError(f"{path}: dtype tag {tag} is not {_F64_TAG} (f64), the only dtype NKT1 holds")
    start = 9 + 8 * rank
    if len(raw) < start:
        raise ValueError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{rank}Q", raw, 9)
    # exact integers: a numpy product wraps silently past int64
    if math.prod(d for d in dims if d) * _F64.itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"{path}: shape {dims} is too large")
    count = math.prod(dims)
    expected = start + count * _F64.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=_F64, count=count, offset=start).reshape(dims).astype(np.float64)
