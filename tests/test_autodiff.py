"""Reverse-mode tape checked op by op against central finite differences,
plus the dispatch contract: untracked inputs bypass the tape entirely and
produce bit-identical plain arrays."""

import numpy as np
import pytest

from flowdit import autodiff as ad
from flowdit import numkernel as nk
from flowdit import rope


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar-valued f at x, elementwise."""
    x = np.array(x, dtype=float)  # perturb a private copy, never the caller's
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = float(ad.val(f(x)))
        flat[i] = keep - eps
        down = float(ad.val(f(x)))
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * eps)
    return g


def check_op(build, x, atol=1e-7):
    """Compare tape gradients of sum(build(x)) with finite differences."""
    var = ad.Var(np.asarray(x, dtype=float))
    out = ad.sum_(build(var))
    out.backward()
    fd = numeric_grad(lambda a: ad.sum_(build(np.asarray(a))), x)
    assert var.grad is not None
    assert np.allclose(var.grad, fd, atol=atol), f"max err {np.abs(var.grad - fd).max()}"


RNG = np.random.default_rng(0)
X23 = RNG.standard_normal((2, 3))
POS23 = np.abs(X23) + 0.5
W34 = RNG.standard_normal((3, 4))
W43 = RNG.standard_normal((4, 3))
WB232 = RNG.standard_normal((2, 3, 2))
W32 = RNG.standard_normal((3, 2))
X253 = RNG.standard_normal((2, 5, 3))
X2253 = RNG.standard_normal((2, 2, 5, 3))
X2318 = RNG.standard_normal((2, 3, 1, 8))
FREQS = rope.freq_matrix(100.0, 8, 2)
COORDS = RNG.uniform(0.0, 9.0, (5, 2))
ANG = rope.rope_angles(COORDS, FREQS)
# distinct per-row weights, so a cotangent whose rows land out of order shows
ROWS2254 = np.random.default_rng(1).standard_normal((2, 2, 5, 4))


@pytest.mark.parametrize(
    "name,build,x",
    [
        ("add_broadcast", lambda v: ad.add(v, np.ones(3)), X23),
        ("sub_left", lambda v: ad.sub(v, X23 * 0.5), X23),
        ("sub_right", lambda v: ad.sub(1.5, v), X23),
        ("mul_broadcast", lambda v: ad.mul(v, np.arange(3.0)), X23),
        ("div_num", lambda v: ad.div(v, POS23), X23),
        ("div_den", lambda v: ad.div(X23, v), POS23),
        ("power", lambda v: ad.power(v, 3.0), X23),
        ("exp", ad.exp, X23),
        ("log", ad.log, POS23),
        ("tanh", ad.tanh, X23),
        ("sigmoid", ad.sigmoid, X23),
        ("silu", ad.silu, X23),
        ("sin", ad.sin, X23),
        ("cos", ad.cos, X23),
        ("matmul_left", lambda v: ad.matmul(v, W34), X23),
        ("matmul_right", lambda v: ad.matmul(X23, v), W34),
        ("matmul_batched", lambda v: ad.matmul(v, WB232), RNG.standard_normal((2, 4, 3))),
        ("matmul_shared_weight_3d", lambda v: ad.matmul(X253, v), W34),
        ("matmul_shared_weight_4d", lambda v: ad.matmul(X2253, v), W34),
        ("matmul_lhs_under_shared_weight", lambda v: ad.matmul(v, W34), X2253),
        ("matmul_lhs_under_shared_weight_rows", lambda v: ad.mul(ad.matmul(v, W34), ROWS2254), X2253),
        ("matmul_shared_weight_rows", lambda v: ad.mul(ad.matmul(X2253, v), ROWS2254), W34),
        ("sum_axis", lambda v: ad.mul(ad.sum_(v, axis=0), np.arange(3.0)), X23),
        ("sum_keepdims", lambda v: ad.mul(ad.sum_(v, axis=-1, keepdims=True), v), X23),
        ("mean_all", lambda v: ad.mul(ad.mean(v), 7.0), X23),
        ("mean_axis", lambda v: ad.mul(ad.mean(v, axis=1), np.array([2.0, -1.0])), X23),
        ("reshape", lambda v: ad.mul(ad.reshape(v, (3, 2)), np.ones((3, 2))), X23),
        ("swapaxes", lambda v: ad.mul(ad.swapaxes(v, 0, 1), np.arange(6.0).reshape(3, 2)), X23),
        ("transpose", lambda v: ad.mul(ad.transpose(v, (2, 0, 1)), 2.0), RNG.standard_normal((2, 3, 4))),
        ("concat", lambda v: ad.concat([v, ad.mul(v, 2.0)], axis=-1), X23),
        ("stack", lambda v: ad.stack([v, ad.mul(v, -1.0)], axis=0), X23),
        ("take_slice", lambda v: ad.mul(v[0:1], 3.0), X23),
        ("take_fancy_repeats", lambda v: v[np.array([0, 1, 0])], X23),
        ("take_basic_tuple", lambda v: ad.mul(v[..., 1:3], np.array([2.0, -1.0])), X23),
        ("take_array_and_slice", lambda v: ad.mul(v[np.array([1, 0, 1]), 1:], W32), X23),
        ("take_int_and_none", lambda v: ad.mul(v[1, None], 3.0), X23),
        ("repeat", lambda v: ad.mul(ad.repeat(v, 2, axis=0), W43), X23),
        ("mask_fill", lambda v: ad.mask_fill(v, X23 > 0, -2.0), X23),
        ("softmax", lambda v: ad.mul(ad.softmax(v), np.arange(3.0)), X23),
        ("rms_norm_input", lambda v: ad.rms_norm(v, np.arange(1.0, 4.0)), X23),
        ("rms_norm_scalar_gain", lambda v: ad.mul(ad.rms_norm(v, np.asarray(1.0)), W43[:2]), X23),
        ("rotate_pairs", lambda v: ad.mul(ad.rotate_pairs(v, np.cos(ANG), np.sin(ANG)), X253[0, :, :1]), RNG.standard_normal((3, 5, 8))),
        ("apply_rope", lambda v: ad.mul(rope.apply_rope(v, COORDS, FREQS), np.arange(8.0)), RNG.standard_normal((2, 5, 8))),
        ("neg_operator", lambda v: -v, X23),
        ("pow_operator", lambda v: v**2.0, X23),
    ],
    ids=lambda p: p if isinstance(p, str) else "",
)
def test_op_gradients_match_finite_differences(name, build, x):
    check_op(build, x)


def test_rms_norm_gain_gradient():
    gain = ad.Var(np.array([1.0, 2.0, 0.5]))
    out = ad.sum_(ad.rms_norm(X23, gain))
    out.backward()
    fd = numeric_grad(lambda g: ad.sum_(ad.rms_norm(X23, np.asarray(g))), gain.value)
    assert np.allclose(gain.grad, fd, atol=1e-7)


def test_rms_norm_input_and_gain_tracked_together():
    # head-shaped, as attention's QK norm sees it: [batch, heads, tokens, d_head]
    weights = RNG.standard_normal(X2318.shape)
    gain0 = np.linspace(0.5, 2.0, 8)
    x, gain = ad.Var(X2318), ad.Var(gain0)
    ad.sum_(ad.mul(ad.rms_norm(x, gain), weights)).backward()
    fd_x = numeric_grad(lambda a: ad.sum_(ad.mul(ad.rms_norm(a, gain0), weights)), X2318)
    fd_gain = numeric_grad(lambda g: ad.sum_(ad.mul(ad.rms_norm(X2318, g), weights)), gain0)
    assert np.allclose(x.grad, fd_x, atol=1e-7)
    assert np.allclose(gain.grad, fd_gain, atol=1e-7)
    assert gain.grad.shape == (8,)


def test_rotation_tracked_and_untracked_forward_bit_identical():
    x = RNG.standard_normal((2, 3, 5, 8))
    cos, sin = np.cos(ANG), np.sin(ANG)
    xe, xo = x[..., 0::2], x[..., 1::2]
    expected = np.stack([xe * cos - xo * sin, xe * sin + xo * cos], axis=-1).reshape(x.shape)
    assert np.array_equal(ad.rotate_pairs(x, cos, sin), expected)
    assert np.array_equal(ad.rotate_pairs(ad.Var(x), cos, sin).value, expected)
    assert np.array_equal(rope.apply_rope(ad.Var(x), COORDS, FREQS).value, rope.apply_rope(x, COORDS, FREQS))


def test_rotate_pairs_rejects_tracked_angles():
    with pytest.raises(TypeError, match="constants"):
        ad.rotate_pairs(np.ones((5, 8)), ad.Var(np.cos(ANG)), np.sin(ANG))


def test_untracked_ops_return_plain_arrays():
    x = RNG.standard_normal((2, 3))
    for out in (
        ad.add(x, 1.0),
        ad.matmul(x, W34),
        ad.softmax(x),
        ad.rms_norm(x, np.ones(3)),
        ad.sum_(x, axis=0),
        ad.take(x, np.array([1, 0])),
    ):
        assert isinstance(out, np.ndarray)
        assert not isinstance(out, ad.Var)


def test_tracked_and_untracked_forward_bit_identical():
    x = RNG.standard_normal((4, 8))
    gain = RNG.standard_normal(8)

    def pipeline(mod, a, g):
        h = mod.rms_norm(a, g)
        h = mod.matmul(h, W := np.linspace(-1, 1, 8 * 8).reshape(8, 8))
        h = mod.silu(h)
        return mod.softmax(h, axis=-1)

    plain = pipeline(ad, x, gain)
    taped = pipeline(ad, ad.Var(x), gain)
    assert np.array_equal(plain, taped.value)
    # and the plain route agrees with the kernel module wherever both exist
    assert np.array_equal(ad.rms_norm(x, gain), nk.rms_norm(x, gain))
    assert np.array_equal(ad.softmax(x), nk.softmax(x))


def test_grad_accumulates_across_reuse():
    x = ad.Var(np.array([2.0, 3.0]))
    # y = x*x + x -> dy/dx = 2x + 1
    out = ad.sum_(ad.add(ad.mul(x, x), x))
    out.backward()
    assert np.allclose(x.grad, 2.0 * x.value + 1.0, atol=1e-12)


def test_take_scatter_accumulates_duplicate_indices():
    x = ad.Var(np.array([1.0, 2.0, 3.0]))
    out = ad.sum_(x[np.array([0, 0, 2])])
    out.backward()
    assert np.array_equal(x.grad, np.array([2.0, 0.0, 1.0]))


def test_backward_requires_scalar_root():
    x = ad.Var(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        ad.mul(x, 2.0).backward()


def test_power_rejects_tracked_exponent():
    with pytest.raises(TypeError, match="constant"):
        ad.power(ad.Var(np.ones(2)), ad.Var(np.array(2.0)))


def test_operators_route_through_tape():
    a = ad.Var(np.array([[1.0, 2.0]]))
    b = np.array([[3.0, 4.0]])
    out = ad.sum_((a + b) * a - b / a + a @ np.ones((2, 1)))
    out.backward()
    assert a.grad is not None
    # reflected ops: plain array on the left still lands on the tape
    r = ad.sum_(b * a)
    r.backward()


def test_unreached_leaf_keeps_none_grad():
    x = ad.Var(np.ones(3))
    y = ad.Var(np.ones(3))
    ad.sum_(ad.mul(x, 2.0)).backward()
    assert x.grad is not None
    assert y.grad is None


def test_deep_chain_does_not_recurse():
    # iterative topological order: depth beyond any recursion limit
    x = ad.Var(np.array(1.0))
    h = x
    for _ in range(5000):
        h = ad.mul(h, 1.0)
    h.backward()
    assert float(x.grad) == 1.0


def test_mean_gradient_scales_by_count():
    x = ad.Var(np.ones((4, 5)))
    ad.mean(x).backward()
    assert np.allclose(x.grad, np.full((4, 5), 1.0 / 20.0), atol=1e-15)


def test_softmax_gradient_orthogonal_to_constants():
    # softmax is shift invariant, so the gradient sums to zero along the axis
    x = ad.Var(RNG.standard_normal((3, 5)))
    ad.sum_(ad.mul(ad.softmax(x), RNG.standard_normal((3, 5)))).backward()
    assert np.allclose(x.grad.sum(axis=-1), 0.0, atol=1e-12)


def test_unbroadcast_restores_shapes():
    a = ad.Var(np.ones((1, 3)))
    b = ad.Var(np.ones((4, 1)))
    ad.sum_(ad.mul(a, b)).backward()
    assert a.grad.shape == (1, 3)
    assert b.grad.shape == (4, 1)
    assert np.allclose(a.grad, 4.0)
    assert np.allclose(b.grad, 3.0)
