"""Minimal deterministic dense-tensor kernels shared by every other module.

Plain numpy ndarrays are the tensor carrier: contiguous row-major buffers of
f32 or f64 scalars. f64 is the default dtype everywhere; f32 is offered for
speed runs. All kernels are pure functions of their inputs, deterministic for
identical inputs and dtype, and support leading batch axes only (no other
broadcasting, so the contracts stay auditable).

Tensors serialize to a small binary container for test fixtures and model
checkpoints: magic "NKT1", u8 dtype tag (1 = f32, 2 = f64), u32 rank, one u64
per dim, then the raw little-endian row-major buffer.
"""

from __future__ import annotations

import math
import struct

import numpy as np

Tensor = np.ndarray

_MAGIC = b"NKT1"
_DTYPE_TAGS = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_TAG_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """c[i,j] = sum_k a[i,k] * b[k,j], with optional shared leading batch axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs rank >= 2 operands, got {a.ndim} and {b.ndim}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner axes mismatch: {a.shape} x {b.shape}")
    return a @ b


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`.

    Outputs are nonnegative and sum to 1 along the axis. NaN inputs propagate
    to NaN outputs; a slice that is entirely -inf also yields NaN (callers
    guarantee at least one finite logit per slice).
    """
    x = np.asarray(x)
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """y = x / sqrt(mean(x^2, last axis) + eps) * gain."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    x = np.asarray(x)
    inv = (np.mean(x * x, axis=-1, keepdims=True) + eps) ** -0.5
    return (x * inv) * np.asarray(gain)


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


def pool_matrix(grid: tuple[int, int], window: tuple[int, int], dtype=np.float64) -> Tensor:
    """Row-stochastic matrix M with M @ tokens = window means."""
    assign, n_out, counts = pool_assignments(grid, window)
    m = np.zeros((n_out, len(assign)), dtype=dtype)
    m[assign, np.arange(len(assign))] = 1.0 / counts[assign]
    return m


def save_tensor(path, x: Tensor) -> None:
    """Write one tensor to the NKT1 container."""
    x = np.asarray(x)
    if x.ndim:  # ascontiguousarray would silently promote rank 0 to rank 1
        x = np.ascontiguousarray(x)
    tag = _DTYPE_TAGS.get(x.dtype)
    if tag is None:
        raise ValueError(f"unsupported dtype {x.dtype}; only f32 and f64 serialize")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<BI", tag, x.ndim))
        f.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        f.write(x.astype(x.dtype.newbyteorder("<"), copy=False).tobytes())


def load_tensor(path) -> Tensor:
    """Read one tensor from the NKT1 container."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    tag, rank = struct.unpack_from("<BI", raw, 4)
    if tag not in _TAG_DTYPES:
        raise ValueError(f"{path}: unknown dtype tag {tag}")
    dims = struct.unpack_from(f"<{rank}Q", raw, 9)
    dtype = _TAG_DTYPES[tag]
    count = int(np.prod(dims)) if rank else 1
    start = 9 + 8 * rank
    expected = start + count * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=start)
    return data.reshape(dims).astype(dtype.newbyteorder("="), copy=True)
