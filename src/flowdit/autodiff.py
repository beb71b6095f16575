"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Var` wraps an ndarray value plus a closure that maps the output cotangent
to parent cotangents. Every op in this module accepts either plain ndarrays
or Vars; with no Var among the arguments it returns a plain ndarray computed
by exactly the same numpy expressions, so inference and training share one
forward codebase and produce bit-identical values.

The op set is the thirteen ops the model runs: add, mul, matmul, sum_,
mean, reshape, transpose, take, softmax, rms_norm, rotate_pairs (RoPE),
and the nonlinearities tanh and silu. A difference is add of a negated
constant, and an axis swap is transpose. Indexing is the only operator a
Var supports; anything else, numpy ufuncs included, raises rather than
differentiating silently.
"""

from __future__ import annotations

import numpy as np

from . import numkernel


class Var:
    """Node in the reverse-mode tape."""

    # keep numpy from consuming Vars elementwise: ufuncs and array operators raise
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, _parents=(), _vjp=None):
        self.value = np.asarray(value)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, dtype={self.value.dtype})"

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad over the whole tape."""
        if self.value.ndim != 0 and self.value.size != 1:
            raise ValueError("backward() expects a scalar root")
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    def __getitem__(self, idx):
        return take(self, idx)


def val(x):
    return x.value if isinstance(x, Var) else np.asarray(x)


def _tracked(*xs):
    return any(isinstance(x, Var) for x in xs)


def _unbroadcast(g, shape):
    """Sum a cotangent back down to the broadcast source shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def _node(out, parents, vjp):
    tracked = tuple(p for p in parents if isinstance(p, Var))
    return Var(out, tracked, vjp)


def add(a, b):
    out = val(a) + val(b)
    if not _tracked(a, b):
        return out

    def vjp(g):
        return tuple(
            _unbroadcast(g, p.value.shape) for p in (a, b) if isinstance(p, Var)
        )

    return _node(out, (a, b), vjp)


def mul(a, b):
    av, bv = val(a), val(b)
    out = av * bv
    if not _tracked(a, b):
        return out

    def vjp(g):
        gs = []
        if isinstance(a, Var):
            gs.append(_unbroadcast(g * bv, av.shape))
        if isinstance(b, Var):
            gs.append(_unbroadcast(g * av, bv.shape))
        return tuple(gs)

    return _node(out, (a, b), vjp)


def tanh(a):
    out = np.tanh(val(a))
    if not _tracked(a):
        return out
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def silu(a):
    av = val(a)
    # sig = 1 / (1 + exp(-a)) built in one buffer by the same operations in
    # the same order, so both paths stay bitwise equal to that expression;
    # a is never written, and only sig (the VJP keeps it) and out are new
    sig = np.negative(av)
    sig = np.exp(sig, out=sig if np.issubdtype(sig.dtype, np.inexact) else None)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    out = av * sig
    if not _tracked(a):
        return out
    return _node(out, (a,), lambda g: (g * sig * (1.0 + av * (1.0 - sig)),))


def matmul(a, b):
    av, bv = val(a), val(b)
    out = numkernel.matmul(av, bv)
    if not _tracked(a, b):
        return out

    # a 2-d weight shared over leading axes: both cotangents are one GEMM
    # over the flattened rows, not a stack of small products
    shared = bv.ndim == 2 and av.ndim > 2

    def vjp(g):
        gs = []
        if isinstance(a, Var):
            if shared:
                ga = (g.reshape(-1, g.shape[-1]) @ bv.T).reshape(av.shape)
            else:
                ga = _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)
            gs.append(ga)
        if isinstance(b, Var):
            if shared:
                gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)
            gs.append(gb)
        return tuple(gs)

    return _node(out, (a, b), vjp)


def _expand_reduced(g, shape, axis, keepdims):
    g = np.asarray(g)
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
    return np.broadcast_to(g, shape)


def sum_(a, axis=None, keepdims=False):
    av = val(a)
    out = av.sum(axis=axis, keepdims=keepdims)
    if not _tracked(a):
        return out
    return _node(out, (a,), lambda g: (_expand_reduced(g, av.shape, axis, keepdims),))


def mean(a, axis=None, keepdims=False):
    av = val(a)
    out = av.mean(axis=axis, keepdims=keepdims)
    if not _tracked(a):
        return out
    count = av.size / out.size
    return _node(
        out, (a,), lambda g: (_expand_reduced(g / count, av.shape, axis, keepdims),)
    )


def reshape(a, shape):
    av = val(a)
    out = av.reshape(shape)
    if not _tracked(a):
        return out
    return _node(out, (a,), lambda g: (g.reshape(av.shape),))


def transpose(a, axes):
    av = val(a)
    out = av.transpose(axes)
    if not _tracked(a):
        return out
    inv = np.argsort(axes)
    return _node(out, (a,), lambda g: (g.transpose(inv),))


def _is_basic_index(idx) -> bool:
    """Ints, slices, Ellipsis and None only: each source element is picked at most once."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        p is None or p is Ellipsis or isinstance(p, slice)
        or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
        for p in parts
    )


def take(a, idx):
    """Basic or integer-array indexing.

    A basic index writes the cotangent into place; integer arrays may repeat
    an element, so their cotangent scatters with accumulation.
    """
    av = val(a)
    out = av[idx]
    if not _tracked(a):
        return out
    basic = _is_basic_index(idx)

    def vjp(g):
        ga = np.zeros_like(av)
        if basic:
            ga[idx] = g
        else:
            np.add.at(ga, idx, g)
        return (ga,)

    return _node(out, (a,), vjp)


def softmax(a, axis=-1):
    av = val(a)
    out = numkernel.softmax(av, axis=axis)
    if not _tracked(a):
        return out

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (a,), vjp)


def rms_norm(a, gain, eps: float = 1e-6):
    """Differentiable twin of numkernel.rms_norm (same expression order), one tape node.

    With n = a * inv and inv = (mean(a^2) + eps)^-1/2, the cotangent of
    a is inv * (u - n * mean(u * n)) for u = g * gain, and that of gain is
    sum(g * n) over the broadcast axes (Zhang & Sennrich 2019).
    """
    av, gv = val(a), val(gain)
    if not _tracked(a, gain):
        return numkernel.rms_norm(av, gv, eps)
    inv = numkernel._rms_inverse(av, eps)
    n = av * inv
    out = n * gv

    def vjp(g):
        gs = []
        if isinstance(a, Var):
            u = g * gv
            ga = inv * (u - n * np.mean(u * n, axis=-1, keepdims=True))
            gs.append(_unbroadcast(ga, av.shape))
        if isinstance(gain, Var):
            gs.append(_unbroadcast(g * n, gv.shape))
        return tuple(gs)

    return _node(out, (a, gain), vjp)


def rotate_pairs(x, cos, sin):
    """Rotate the channel pairs (x[..., 2i], x[..., 2i+1]) by angles with these cos/sin.

    cos and sin are constants broadcasting against x[..., 0::2]. The
    cotangent is the rotation by the opposite angle (RoFormer, Su et al.).
    """
    if isinstance(cos, Var) or isinstance(sin, Var):
        raise TypeError("rotate_pairs() angles must be constants")
    xv = val(x)
    xe, xo = xv[..., 0::2], xv[..., 1::2]
    ye = xe * cos - xo * sin
    yo = xe * sin + xo * cos
    out = np.stack([ye, yo], axis=-1).reshape(xv.shape)
    if not _tracked(x):
        return out

    def vjp(g):
        ge, go = g[..., 0::2], g[..., 1::2]
        gx = np.stack([ge * cos + go * sin, go * cos - ge * sin], axis=-1)
        return (gx.reshape(xv.shape),)

    return _node(out, (x,), vjp)
