"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Var` wraps an ndarray value plus a closure that maps the output cotangent
to parent cotangents. Every op in this module accepts either plain ndarrays
or Vars; with no Var among the arguments it returns a plain ndarray computed
by exactly the same numpy expressions, so inference and training share one
forward codebase and produce bit-identical values. A cotangent that is a
forward op runs its kernel: numkernel.matmul, or the RoPE rotation at -sin.

The op set is the thirteen ops the model runs: add, mul, matmul, sum_,
mean, reshape, transpose, take, rms_norm (the model's one RMS norm, with
the fixed epsilon EPS), rotate_pairs (RoPE), attend (attention's
softmax(logits) @ v, normalised after the AV GEMM), and the
nonlinearities tanh and silu. A difference is add of a negated constant,
and an axis swap is transpose. Indexing is the only operator a Var
supports; anything else, numpy ufuncs included, raises rather than
differentiating silently.

One composition serves the sandwich block: modulate(n, scale, shift) is
add(mul(n, scale), shift), both AdaLN's n * scale + shift and the gated
residual branch * gate + x. Taped, it builds exactly those nodes.
Untracked, it writes the result into n, so n must be an array the caller
has just made and nothing else holds; an n whose shape or dtype cannot
hold the result (_holds) is left alone and a fresh array returned. Both
paths give the same bits.
"""

from __future__ import annotations

import math

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
        # each later node is a parent of an earlier one, so it has a gradient
        for node in reversed(order):
            if node._vjp is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
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


def _holds(out, *operands) -> bool:
    """Whether an elementwise op of out with operands can write into out:
    out is a writeable array whose shape and dtype are the result's, so
    broadcasting against no operand grows it and no operand widens it."""
    return (
        isinstance(out, np.ndarray)
        and out.flags.writeable
        and np.broadcast(out, *operands).shape == out.shape
        and np.result_type(out, *operands) == out.dtype
    )


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
    # a is never written; taped, sig (the VJP keeps it) and out are new,
    # and untracked, sig is the one new array and becomes out; sig is an
    # array of the float result dtype even for a 0-d or integer a, where a
    # bare np.negative would give a numpy scalar or an integer array
    sig = np.negative(av, out=np.empty(av.shape, np.result_type(av, 1.0)))
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    if not _tracked(a):  # nothing keeps sig: the output overwrites it
        return np.multiply(av, sig, out=sig)
    out = av * sig
    return _node(out, (a,), lambda g: (g * sig * (1.0 + av * (1.0 - sig)),))


def modulate(n, scale, shift):
    """n * scale + shift: add(mul(n, scale), shift) taped, written into n untracked.

    n must be an array the caller owns (see the module docstring); scale
    and shift are never written.
    """
    if _tracked(n, scale, shift) or not _holds(n, scale, shift):
        return add(mul(n, scale), shift)
    n *= scale
    n += shift
    return n


def matmul(a, b):
    av, bv = val(a), val(b)
    out = numkernel.matmul(av, bv)
    if not _tracked(a, b):
        return out

    def vjp(g):
        gs = []
        if isinstance(a, Var):
            gs.append(_unbroadcast(numkernel.matmul(g, np.swapaxes(bv, -1, -2)), av.shape))
        if isinstance(b, Var):
            if bv.ndim == 2:  # a weight shared over leading axes: one GEMM over the flattened rows
                gs.append(numkernel.matmul(av.reshape(-1, av.shape[-1]).T, g.reshape(-1, g.shape[-1])))
            else:
                gs.append(_unbroadcast(numkernel.matmul(np.swapaxes(av, -1, -2), g), bv.shape))
        return tuple(gs)

    return _node(out, (a, b), vjp)


def sum_(a, axis=None):
    av = val(a)
    out = av.sum(axis=axis)
    if not _tracked(a):
        return out
    axes = tuple(range(av.ndim)) if axis is None else axis
    return _node(out, (a,), lambda g: (np.broadcast_to(np.expand_dims(g, axes), av.shape),))


def mean(a):
    av = val(a)
    out = av.mean()
    if not _tracked(a):
        return out
    return _node(out, (a,), lambda g: (np.broadcast_to(g / av.size, av.shape),))


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


# Logits known to lie within +-EXP_LIMIT exponentiate with no row max taken:
# e^512 times any key count below 1e86 stays finite, and e^-512 is normal.
EXP_LIMIT = 512.0


def attend(logits, v, bound=np.inf):
    """softmax(logits) @ v over the last (key) axis of logits, one tape node.

    It computes E = exp(logits), s = sum(E, -1) and (E @ v) / s: the
    division follows the AV GEMM (FlashAttention, Dao et al. 2022). bound
    is what the caller knows of max |logits| (masked -inf aside). Only
    when it is not within EXP_LIMIT (NaN included) or there is one key is
    the row max subtracted first; a lone key then gets weight exactly 1.0.
    NaN logits give NaN rows. Untracked, E is written into logits, so
    logits must be a float array the caller has just made and nothing else
    holds (one that cannot hold E is left alone); s and the output are
    the only new arrays. Taped, with P = E / s, the cotangent of v is
    P^T g summed over broadcast axes, and that of logits is
    P * (g v^T - sum(g * out, -1)), zero for a lone key.
    """
    lv, vv = val(logits), val(v)
    tracked = _tracked(logits, v)
    owned = not tracked and _holds(lv) and np.issubdtype(lv.dtype, np.inexact)
    e = lv if owned else None
    if lv.shape[-1] == 1 or not bound <= EXP_LIMIT:
        e = np.subtract(lv, np.max(lv, axis=-1, keepdims=True), out=e)
        # an integer e cannot hold its exp; numpy picks the float dtype then
        e = np.exp(e, out=e if np.issubdtype(e.dtype, np.inexact) else None)
    else:
        e = np.exp(lv, out=e)
    s = np.add.reduce(e, -1, keepdims=True)
    out = numkernel.matmul(e, vv)
    out /= s
    if not tracked:
        return out

    def vjp(g):
        p = e / s
        gs = []
        if isinstance(logits, Var):
            if lv.shape[-1] == 1:  # a lone key's weight is the constant 1
                gl = np.zeros_like(p)
            else:
                gl = p * (numkernel.matmul(g, np.swapaxes(vv, -1, -2))
                          - np.sum(g * out, axis=-1, keepdims=True))
            gs.append(_unbroadcast(gl, lv.shape))
        if isinstance(v, Var):
            gs.append(_unbroadcast(numkernel.matmul(np.swapaxes(p, -1, -2), g), vv.shape))
        return tuple(gs)

    return _node(out, (logits, v), vjp)


# the RMS-norm epsilon; Next-DiT fixes it, so no caller sets it
EPS = 1e-6


def _rms_inverse(x):
    """(mean(x^2, last axis) + EPS)^-1/2, the scale rms_norm applies.

    The sum over the count is what np.mean computes, bit for bit, without
    its Python wrapper. Below the bound, n squares and their sum stay under
    a quarter of the result dtype's largest value. A row with some |x| at
    or above it (about 2.4e153 for f64 at n = 8) is redone on x / max|x|,
    as RMS normalisation is scale-invariant; the other rows keep their
    bits, and a NaN row stays NaN. Two reductions that skip NaN find the
    largest |x| first, so no product or sum overflows, and no numpy warning
    or error reaches the caller.
    """
    n = x.shape[-1]
    bound = 0.5 * math.sqrt(np.finfo(np.result_type(x, 1.0)).max / n)
    if max(np.fmax.reduce(x, None, initial=0), -np.fmin.reduce(x, None, initial=0)) < bound:
        return (np.add.reduce(x * x, -1, keepdims=True) / n + EPS) ** -0.5
    top = np.max(np.abs(x), axis=-1, keepdims=True)
    top[top < bound] = 1.0  # x / 1 is x: these rows keep their bits
    unit = x / top
    # top^2 * (mean(unit^2) + EPS / top^2) is the mean square plus EPS
    return (np.add.reduce(unit * unit, -1, keepdims=True) / n + EPS / top / top) ** -0.5 / top


def rms_norm(a, gain):
    """y = a / sqrt(mean(a^2, last axis) + EPS) * gain, one tape node.

    The contract holds for every finite input, squares that overflow
    included (_rms_inverse): before the gain, each row's RMS is
    below 1, which the logit bound in dit.gqa_attention relies on. a is
    never written, and a * inv is made in C order (exactly rounded, so no
    bit depends on a's strides). Untracked, the gain multiplies in place
    into a * inv, the one array returned, unless it broadcasts that to a
    larger shape or a wider dtype. With n = a * inv and inv = (mean(a^2) + EPS)^-1/2, the
    cotangent of a is inv * (u - n * mean(u * n)) for u = g * gain, and
    that of gain is sum(g * n) over the broadcast axes (Zhang & Sennrich
    2019).
    """
    av, gv = val(a), val(gain)
    inv = _rms_inverse(av)
    n = np.multiply(av, inv, order="C")
    if not _tracked(a, gain):
        return np.multiply(n, gv, out=n if _holds(n, gv) else None)
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


def _rotate(xv, cos, sin):
    """The pairs (xv[..., 2i], xv[..., 2i+1]) rotated by the angles with these cos/sin."""
    xe, xo = xv[..., 0::2], xv[..., 1::2]
    # both halves are written into the interleaved output, which holds
    # what np.stack([ye, yo], axis=-1) would, by the same expressions
    pairs = np.empty(np.broadcast_shapes(xe.shape, np.shape(cos), np.shape(sin)) + (2,),
                     np.result_type(xv, cos, sin))
    np.subtract(xe * cos, xo * sin, out=pairs[..., 0])
    np.add(xe * sin, xo * cos, out=pairs[..., 1])
    return pairs.reshape(xv.shape)


def rotate_pairs(x, cos, sin):
    """Rotate the channel pairs (x[..., 2i], x[..., 2i+1]) by angles with these cos/sin.

    cos and sin are constants broadcasting against x[..., 0::2]. The
    cotangent is the rotation by the opposite angle (RoFormer, Su et al.),
    _rotate at -sin: bitwise, as IEEE arithmetic is exact under sign flips.
    """
    if isinstance(cos, Var) or isinstance(sin, Var):
        raise TypeError("rotate_pairs() angles must be constants")
    out = _rotate(val(x), cos, sin)
    if not _tracked(x):
        return out
    return _node(out, (x,), lambda g: (_rotate(g, cos, -sin),))
