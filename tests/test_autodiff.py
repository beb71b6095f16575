"""Reverse-mode tape checked op by op against central finite differences,
plus the dispatch contract: untracked inputs bypass the tape entirely and
produce bit-identical plain arrays."""

import inspect

import numpy as np
import pytest

from flowdit import autodiff as ad
from flowdit import dit
from flowdit import numkernel as nk
from flowdit import rope
from flowdit.flowlab import training


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
        ("mul_broadcast", lambda v: ad.mul(v, np.arange(3.0)), X23),
        ("tanh", ad.tanh, X23),
        ("silu", ad.silu, X23),
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
        ("transpose_last_two", lambda v: ad.mul(ad.transpose(v, (0, 2, 1)), ROWS2254[0, :, :4, :3]), RNG.standard_normal((2, 3, 4))),
        ("transpose", lambda v: ad.mul(ad.transpose(v, (2, 0, 1)), 2.0), RNG.standard_normal((2, 3, 4))),
        ("take_slice", lambda v: ad.mul(v[0:1], 3.0), X23),
        ("take_fancy_repeats", lambda v: v[np.array([0, 1, 0])], X23),
        ("take_basic_tuple", lambda v: ad.mul(v[..., 1:3], np.array([2.0, -1.0])), X23),
        ("take_array_and_slice", lambda v: ad.mul(v[np.array([1, 0, 1]), 1:], W32), X23),
        ("take_int_and_none", lambda v: ad.mul(v[1, None], 3.0), X23),
        ("softmax", lambda v: ad.mul(ad.softmax(v), np.arange(3.0)), X23),
        ("rms_norm_input", lambda v: ad.rms_norm(v, np.arange(1.0, 4.0)), X23),
        ("rms_norm_scalar_gain", lambda v: ad.mul(ad.rms_norm(v, np.asarray(1.0)), W43[:2]), X23),
        ("rotate_pairs", lambda v: ad.mul(ad.rotate_pairs(v, np.cos(ANG), np.sin(ANG)), X253[0, :, :1]), RNG.standard_normal((3, 5, 8))),
        ("apply_rope", lambda v: ad.mul(rope.apply_rope(v, COORDS, FREQS), np.arange(8.0)), RNG.standard_normal((2, 5, 8))),
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


def test_rms_norm_rejects_negative_eps_on_both_paths():
    x, gain = RNG.standard_normal((2, 3)), np.ones(3)
    for a, g in ((ad.Var(x), gain), (x, ad.Var(gain)), (x, gain)):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            ad.rms_norm(a, g, eps=-1e-3)


def test_unsupported_arithmetic_on_a_var_raises():
    v = ad.Var(np.ones(2))
    unsupported = (
        lambda: v + 1,
        lambda: 1 + v,
        lambda: v - 1,
        lambda: v * 2,
        lambda: v / 2,
        lambda: v @ np.ones(2),
        lambda: -v,
        lambda: v**2,
        lambda: np.ones(2) * v,
        lambda: np.exp(v),
    )
    for op in unsupported:
        with pytest.raises(TypeError):
            op()


def _run_model_paths():
    """A point training loss, a GQA image velocity with pooled keys and a
    masked recognition pass, each with its backward."""
    rng = np.random.default_rng(3)
    point = training.wrap_parameters(dit.init_model(training.point_model_config(), seed=0))
    x1, noise = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
    training.grad(point, training.cfm_loss(point, x1, rng.uniform(0.0, 1.0, 8), noise))

    config = dit.ModelConfig(d_model=32, n_layers=1, n_q_heads=4, n_kv_heads=2, time_dim=16)
    image = training.wrap_parameters(dit.init_model(config, seed=0))
    v = dit.forward_velocity(image, rng.standard_normal((2, 8, 8, 2)), 0.4, kv_pool=((4, 4), (2, 2)))
    training.grad(image, ad.mean(ad.mul(v, v)))

    config = dit.ModelConfig(d_model=32, n_layers=1, mode="recognition", n_classes=3, time_dim=16)
    recognizer = training.wrap_parameters(dit.init_model(config, seed=0))
    tokens = rng.standard_normal((2, 5, config.token_dim))
    coords = np.stack([np.arange(5.0), np.zeros(5)], axis=-1)
    mask = np.array([[True] * 5, [True, True, True, False, False]])
    logits = dit.recognition_forward(recognizer, tokens, coords, mask=mask)
    training.grad(recognizer, ad.mean(ad.mul(logits, logits)))


def test_every_tape_op_runs_in_a_model_path():
    ops = [
        (name, fn)
        for name, fn in vars(ad).items()
        if not name.startswith("_") and name != "val" and inspect.isfunction(fn) and fn.__module__ == ad.__name__
    ]
    calls = dict.fromkeys((name for name, _ in ops), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    try:
        for name, fn in ops:
            setattr(ad, name, counted(name, fn))
        _run_model_paths()
    finally:
        for name, fn in ops:
            setattr(ad, name, fn)
    assert [name for name, n in calls.items() if n == 0] == []


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
