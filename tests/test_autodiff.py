"""Reverse-mode tape checked op by op against central finite differences,
plus the dispatch contract: untracked inputs bypass the tape entirely and
produce bit-identical plain arrays."""

import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

from flowdit import autodiff as ad
from flowdit import dit
from flowdit import numkernel as nk
from flowdit import rope
from flowdit.flowlab import training
from test_dit import randomized


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
TABLES = rope.rope_tables(COORDS, FREQS)
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
        ("mean_all", lambda v: ad.mul(ad.mean(v), 7.0), X23),
        ("reshape", lambda v: ad.mul(ad.reshape(v, (3, 2)), np.ones((3, 2))), X23),
        ("transpose_last_two", lambda v: ad.mul(ad.transpose(v, (0, 2, 1)), ROWS2254[0, :, :4, :3]), RNG.standard_normal((2, 3, 4))),
        ("transpose", lambda v: ad.mul(ad.transpose(v, (2, 0, 1)), 2.0), RNG.standard_normal((2, 3, 4))),
        ("take_slice", lambda v: ad.mul(v[0:1], 3.0), X23),
        ("take_fancy_repeats", lambda v: v[np.array([0, 1, 0])], X23),
        ("take_basic_tuple", lambda v: ad.mul(v[..., 1:3], np.array([2.0, -1.0])), X23),
        ("take_array_and_slice", lambda v: ad.mul(v[np.array([1, 0, 1]), 1:], W32), X23),
        ("take_int_and_none", lambda v: ad.mul(v[1, None], 3.0), X23),
        # untracked, attend writes into its logits: add(., 0.0) hands it a fresh copy
        ("attend_logits", lambda v: ad.mul(ad.attend(ad.add(v, 0.0), W34), ROWS2254[0, 0, :2]), X23),
        ("attend_values", lambda v: ad.mul(ad.attend(X23.copy(), v, 4.0), ROWS2254[0, 0, :2]), W34),
        ("rms_norm_input", lambda v: ad.rms_norm(v, np.arange(1.0, 4.0)), X23),
        ("rms_norm_scalar_gain", lambda v: ad.mul(ad.rms_norm(v, np.asarray(1.0)), W43[:2]), X23),
        ("rotate_pairs", lambda v: ad.mul(ad.rotate_pairs(v, np.cos(ANG), np.sin(ANG)), X253[0, :, :1]), RNG.standard_normal((3, 5, 8))),
        ("apply_rope", lambda v: ad.mul(rope.apply_rope(v, TABLES), np.arange(8.0)), RNG.standard_normal((2, 5, 8))),
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
    assert np.array_equal(rope.apply_rope(ad.Var(x), TABLES).value, rope.apply_rope(x, TABLES))


def test_rotate_pairs_rejects_tracked_angles():
    with pytest.raises(TypeError, match="constants"):
        ad.rotate_pairs(np.ones((5, 8)), ad.Var(np.cos(ANG)), np.sin(ANG))


def test_untracked_ops_return_plain_arrays():
    x = RNG.standard_normal((2, 3))
    for out in (
        ad.add(x, 1.0),
        ad.matmul(x, W34),
        ad.attend(x.copy(), W34),
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
        return mod.attend(h, W)

    plain = pipeline(ad, x, gain)
    taped = pipeline(ad, ad.Var(x), gain)
    assert np.array_equal(plain, taped.value)
    # and the norm alone, whose untracked route multiplies the gain in place
    assert ad.rms_norm(x, gain).tobytes() == ad.rms_norm(ad.Var(x), gain).value.tobytes()


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

    config = dit.ModelConfig(d_model=32, n_layers=1, n_q_heads=4, n_kv_heads=2)
    image = training.wrap_parameters(dit.init_model(config, seed=0))
    v = dit.forward_velocity(image, rng.standard_normal((2, 8, 8, 2)), 0.4, kv_pool=((4, 4), (2, 2)))
    training.grad(image, ad.mean(ad.mul(v, v)))

    config = dit.ModelConfig(d_model=32, n_layers=1, mode="recognition", n_classes=3)
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


@pytest.mark.parametrize("bound", [np.inf, 8.0], ids=["row_max", "bounded"])
def test_attend_logit_gradient_orthogonal_to_constants(bound):
    # softmax is shift invariant, so the gradient sums to zero along the key axis
    x = ad.Var(RNG.standard_normal((3, 5)))
    ad.sum_(ad.mul(ad.attend(x, RNG.standard_normal((5, 4)), bound), RNG.standard_normal((3, 4)))).backward()
    assert np.allclose(x.grad.sum(axis=-1), 0.0, atol=1e-12)


def test_unbroadcast_restores_shapes():
    a = ad.Var(np.ones((1, 3)))
    b = ad.Var(np.ones((4, 1)))
    ad.sum_(ad.mul(a, b)).backward()
    assert a.grad.shape == (1, 3)
    assert b.grad.shape == (4, 1)
    assert np.allclose(a.grad, 4.0)
    assert np.allclose(b.grad, 3.0)


SIDE_SHAPES = [(1, 1, 6), (4, 1, 1), (4, 1, 6)]


def _compositions(rng, side_shape):
    """(name, op, expression, x, side, n): op(x, side, n) writes into n
    untracked, and expression is the add(mul(...)) it stands for."""
    x, side, n = rng.standard_normal((4, 5, 6)), rng.standard_normal(side_shape), rng.standard_normal((4, 5, 6))
    return [
        ("modulate", lambda a, s, m: ad.modulate(m, s, a), lambda a, s, m: ad.add(ad.mul(m, s), a), x, side, n),
    ]


@pytest.mark.parametrize("side_shape", SIDE_SHAPES, ids=["1x1xd", "Bx1x1", "Bx1xd"])
def test_untracked_compositions_write_n_with_the_taped_value_bitwise(side_shape):
    for name, op, _, x, side, n in _compositions(np.random.default_rng(31), side_shape):
        x0, side0, n0 = x.copy(), side.copy(), n.copy()
        taped = op(ad.Var(x0), ad.Var(side0), ad.Var(n0.copy())).value
        out = op(x, side, n)
        assert out is n, name
        assert out.tobytes() == taped.tobytes(), name
        assert x.tobytes() == x0.tobytes() and side.tobytes() == side0.tobytes(), name


@pytest.mark.parametrize("side_shape", SIDE_SHAPES, ids=["1x1xd", "Bx1x1", "Bx1xd"])
def test_taped_compositions_are_their_add_mul_expressions(side_shape):
    """Same nodes, operands and order: equal values and bitwise-equal
    gradients for every argument, and no argument written."""
    for name, op, expression, x, side, n in _compositions(np.random.default_rng(32), side_shape):
        before = [a.tobytes() for a in (x, side, n)]
        weights = np.random.default_rng(33).standard_normal(n.shape)
        results = []
        for build in (op, expression):
            leaves = [ad.Var(a) for a in (x, side, n)]
            out = build(*leaves)
            assert len(out._parents) == 2 and len(out._parents[0]._parents) == 2, name
            ad.sum_(ad.mul(out, weights)).backward()
            results.append([out.value.tobytes()] + [leaf.grad.tobytes() for leaf in leaves])
        assert results[0] == results[1], name
        assert [a.tobytes() for a in (x, side, n)] == before, name


@pytest.mark.parametrize(
    "n_shape,n_dtype,writeable",
    [((1, 5, 6), float, True), ((4, 5, 6), np.int64, True), ((4, 5, 6), float, False)],
    ids=["broadcasts", "widens", "read_only"],
)
def test_an_n_that_cannot_hold_the_result_stays_unchanged(n_shape, n_dtype, writeable):
    rng = np.random.default_rng(34)
    x, side = rng.standard_normal((4, 5, 6)), rng.standard_normal((4, 1, 6))
    for name, op, expression, *_ in _compositions(rng, (4, 1, 6)):
        n = (10 * rng.standard_normal(n_shape)).astype(n_dtype)
        n.flags.writeable = writeable
        n0 = n.copy()
        out = op(x, side, n)
        assert out is not n, name
        assert out.tobytes() == expression(x, side, n).tobytes(), name
        assert n.tobytes() == n0.tobytes(), name


def test_untracked_silu_makes_one_array():
    x = RNG.standard_normal((64, 32))
    x0 = x.copy()
    ad.silu(x)
    tracemalloc.start()
    try:
        out = ad.silu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes() == ad.silu(ad.Var(x)).value.tobytes()
    assert x.tobytes() == x0.tobytes()
    assert x.nbytes <= peak < 2 * x.nbytes, peak


def _softmax_av(logits, v):
    """The max-subtracted softmax before the AV product: attend's oracle."""
    z = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return (z / np.sum(z, axis=-1, keepdims=True)) @ v


def _mask_bias(shape, rng):
    """A constant bias of 0 or -inf per key, keeping at least one key per row."""
    keep = rng.uniform(size=shape) < 0.6
    keep[..., 0] = True
    return np.where(keep, 0.0, -np.inf)


# (logits shape, values shape, masked): GQA logits [B, n_kv, group, n, m]
# against values [B, n_kv, 1, m, d], whose kv heads broadcast over the group
ATTEND_CASES = {
    "gqa": ((2, 2, 3, 4, 5), (2, 2, 1, 5, 3), False),
    "mask": ((2, 2, 3, 4, 5), (2, 2, 1, 5, 3), True),
    "pooled_keys": ((2, 2, 2, 6, 2), (2, 2, 1, 2, 3), False),
}


@pytest.mark.parametrize("bound", [np.inf, 3.0], ids=["row_max", "bounded"])
@pytest.mark.parametrize("case", list(ATTEND_CASES))
def test_attend_gradients_match_finite_differences(case, bound):
    logits_shape, v_shape, masked = ATTEND_CASES[case]
    rng = np.random.default_rng(41)
    logits, v = rng.uniform(-3.0, 3.0, logits_shape), rng.standard_normal(v_shape)
    bias = _mask_bias(logits_shape, rng) if masked else np.zeros(logits_shape)
    weights = rng.standard_normal(np.broadcast_shapes(logits_shape[:-2], v_shape[:-2]) + (logits_shape[-2], v_shape[-1]))

    def loss(a, b):
        # the bias add makes the fresh logits an untracked attend writes into
        return ad.sum_(ad.mul(ad.attend(ad.add(a, bias), b, bound), weights))

    tracked_logits, tracked_v = ad.Var(logits), ad.Var(v)
    loss(tracked_logits, tracked_v).backward()
    fd_logits = numeric_grad(lambda a: loss(a, v), logits)
    fd_v = numeric_grad(lambda b: loss(logits, b), v)
    assert np.allclose(tracked_logits.grad, fd_logits, atol=1e-7), np.abs(tracked_logits.grad - fd_logits).max()
    assert np.allclose(tracked_v.grad, fd_v, atol=1e-7), np.abs(tracked_v.grad - fd_v).max()
    if masked:
        assert np.all(tracked_logits.grad[bias == -np.inf] == 0.0)


@pytest.mark.parametrize("bound", [900.0, np.nan], ids=["beyond_limit", "nan"])
def test_attend_subtracts_the_row_max_past_its_limit(bound):
    # logits near +-800: exp alone would overflow to inf, and the rows to NaN
    rng = np.random.default_rng(42)
    logits = rng.uniform(-800.0, 800.0, (3, 4, 6))
    logits[..., 0] = 800.0
    v = rng.standard_normal((3, 6, 5))
    want = _softmax_av(logits, v)
    untracked = ad.attend(logits.copy(), v, bound)
    taped = ad.attend(ad.Var(logits), v, bound).value
    assert untracked.tobytes() == taped.tobytes()
    assert np.isfinite(untracked).all()
    assert np.allclose(untracked, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("bound", [np.inf, 4.0], ids=["row_max", "bounded"])
def test_attend_keeps_a_nan_logit_nan(bound):
    rng = np.random.default_rng(43)
    logits = rng.uniform(-2.0, 2.0, (2, 3, 4))
    logits[1, 2, 3] = np.nan
    v = rng.standard_normal((4, 5))
    for out in (ad.attend(logits.copy(), v, bound), ad.attend(ad.Var(logits), v, bound).value):
        assert np.isnan(out[1, 2]).all()
        rows = np.ones((2, 3), dtype=bool)
        rows[1, 2] = False
        assert np.isfinite(out[rows]).all()


def test_silu_takes_a_0d_input():
    want = 1.0 / (1.0 + np.exp(-0.75)) * 0.75
    for a in (np.asarray(0.75), 0.75):
        assert np.asarray(ad.silu(a)).shape == ()
        assert float(ad.silu(a)) == want
    x = ad.Var(np.asarray(0.75))
    out = ad.silu(x)
    out.backward()
    assert float(out.value) == want
    assert np.isclose(float(x.grad), numeric_grad(lambda a: ad.silu(a), 0.75), atol=1e-9)


def test_rms_norm_is_scale_invariant_past_overflowing_squares():
    # |x| above ~1.3e154 overflows x * x; rows near that are redone on
    # x / max|x|, and the other finite rows keep their bits.
    rng = np.random.default_rng(44)
    x = rng.standard_normal((3, 4, 8))
    x[2, 1, 5] = np.nan
    gain = np.linspace(0.5, 2.0, 8)
    weights = rng.standard_normal(x.shape)
    want = ad.rms_norm(x * 1e100, gain)  # EPS is below rounding at this scale
    mixed = x * 1e100
    mixed[0] *= 1e100
    for h in (ad.rms_norm(x * 1e200, gain), ad.rms_norm(ad.Var(x * 1e200), gain).value):
        assert np.isnan(h[2, 1]).all()
        assert np.isnan(want[2, 1]).all()
        finite = ~np.isnan(want)
        assert np.allclose(h[finite], want[finite], rtol=1e-14, atol=0.0)
    got = ad.rms_norm(mixed, gain)
    assert got[1:].tobytes() == want[1:].tobytes()
    assert np.allclose(got[0], want[0], rtol=1e-14, atol=0.0)

    grads = []
    for scale in (1e100, 1e200):
        leaf = ad.Var(np.nan_to_num(x) * scale)
        ad.sum_(ad.mul(ad.rms_norm(leaf, gain), weights)).backward()
        grads.append(leaf.grad * scale)
    assert np.allclose(grads[1], grads[0], rtol=1e-12, atol=0.0)


def test_overflowing_squares_raise_no_numpy_warning():
    # the overflow in the mean square is part of rms_norm's contract, so a
    # library caller under numpy's default error policy sees no warning:
    # squares of 1e200 overflow, and so does the sum of finite 1.44e308 squares
    model = randomized(dit.init_model(training.point_model_config(), seed=0), seed=62)
    gain = np.ones(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in (np.full((1, 4), 1e200), np.full((1, 4), 1.2e154)):
            assert ad.rms_norm(row, gain).tobytes() == np.ones((1, 4)).tobytes()
            assert np.array_equal(ad.rms_norm(ad.Var(row), gain).value, np.ones((1, 4)))
        velocity = training.point_velocity(model, np.array([[1e200, 0.0]]), 0.5)
    assert np.isfinite(velocity).all() and velocity.any()


# The VJP expressions of matmul, attend and rotate_pairs before they ran the
# forward kernels, kept as oracles: the shared-weight branch's own flattened
# GEMMs and bare @ elsewhere, attend's two bare GEMMs, and the transposed
# rotation built with np.stack. Each forward is the op's own, so only the
# cotangents differ in how they are spelled. The rotation oracle's forward is
# the op bound here, before the GQA test patches ad.rotate_pairs with it.
_rotate_untracked = ad.rotate_pairs


def stacked_matmul(a, b):
    av, bv = ad.val(a), ad.val(b)
    shared = bv.ndim == 2 and av.ndim > 2

    def vjp(g):
        gs = []
        if isinstance(a, ad.Var):
            if shared:
                ga = (g.reshape(-1, g.shape[-1]) @ bv.T).reshape(av.shape)
            else:
                ga = ad._unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)
            gs.append(ga)
        if isinstance(b, ad.Var):
            if shared:
                gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = ad._unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)
            gs.append(gb)
        return tuple(gs)

    return ad._node(nk.matmul(av, bv), (a, b), vjp)


def stacked_attend(logits, v, bound=np.inf):
    lv, vv = ad.val(logits), ad.val(v)
    if lv.shape[-1] == 1 or not bound <= ad.EXP_LIMIT:
        e = np.exp(lv - np.max(lv, axis=-1, keepdims=True))
    else:
        e = np.exp(lv)
    s = np.add.reduce(e, -1, keepdims=True)
    out = nk.matmul(e, vv) / s

    def vjp(g):
        p = e / s
        gs = []
        if isinstance(logits, ad.Var):
            if lv.shape[-1] == 1:
                gl = np.zeros_like(p)
            else:
                gl = p * (g @ np.swapaxes(vv, -1, -2) - np.sum(g * out, axis=-1, keepdims=True))
            gs.append(ad._unbroadcast(gl, lv.shape))
        if isinstance(v, ad.Var):
            gs.append(ad._unbroadcast(np.swapaxes(p, -1, -2) @ g, vv.shape))
        return tuple(gs)

    return ad._node(out, (logits, v), vjp)


def stacked_rotate_pairs(x, cos, sin):
    out = _rotate_untracked(ad.val(x), cos, sin)

    def vjp(g):
        ge, go = g[..., 0::2], g[..., 1::2]
        gx = np.stack([ge * cos + go * sin, go * cos - ge * sin], axis=-1)
        return (gx.reshape(out.shape),)

    return ad._node(out, (x,), vjp)


def _rotation_angles(shape):
    angles = np.random.default_rng(52).uniform(-40.0, 40.0, shape)
    return np.cos(angles), np.sin(angles)


# name -> (op, oracle, operand shapes, constant keyword arguments)
VJP_ORACLE_CASES = {
    "shared_weight": (ad.matmul, stacked_matmul, [(512, 1, 32), (32, 130)], {}),
    "plain_2d": (ad.matmul, stacked_matmul, [(33, 17), (17, 9)], {}),
    "pool_matrix": (ad.matmul, stacked_matmul, [(21, 65), (2, 65, 16)], {}),
    "grouped_qk": (ad.matmul, stacked_matmul, [(2, 2, 2, 63, 8), (2, 2, 1, 8, 63)], {}),
    "attend_63_keys": (ad.attend, stacked_attend, [(2, 2, 2, 63, 63), (2, 2, 1, 63, 8)], {"bound": 8.0}),
    "attend_63_keys_row_max": (ad.attend, stacked_attend, [(2, 2, 2, 63, 63), (2, 2, 1, 63, 8)], {}),
    "attend_one_key": (ad.attend, stacked_attend, [(2, 2, 2, 5, 1), (2, 2, 1, 1, 8)], {"bound": 8.0}),
    "rotate_pairs": (ad.rotate_pairs, stacked_rotate_pairs, [(2, 2, 2, 250, 8)],
                     dict(zip(("cos", "sin"), _rotation_angles((250, 4))))),
}


@pytest.mark.parametrize("case", list(VJP_ORACLE_CASES))
def test_vjps_equal_their_stacked_oracles_bitwise(case):
    op, oracle, shapes, constants = VJP_ORACLE_CASES[case]
    rng = np.random.default_rng(51)
    operands = [rng.standard_normal(shape) for shape in shapes]
    runs = []
    for fn in (op, oracle):
        leaves = [ad.Var(a) for a in operands]
        out = fn(*leaves, **constants)
        weights = np.random.default_rng(53).standard_normal(out.shape)
        loss = ad.sum_(ad.mul(out, weights))
        loss.backward()
        runs.append([out.value, loss.value] + [leaf.grad for leaf in leaves])
    got, want = runs
    assert all(g.any() for g in want[2:]) or case == "attend_one_key"
    assert [g.shape for g in got] == [w.shape for w in want]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("kv_pool", [None, ((4, 4), (2, 2))], ids=["plain", "pooled"])
def test_gqa_gradients_equal_the_stacked_oracles_bitwise(monkeypatch, kv_pool):
    # a taped 4/2-head image velocity with labels and a per-sample t runs
    # every rewritten VJP: shared weights, pooling, q @ k^T, attend and RoPE
    config = dit.ModelConfig(d_model=32, n_layers=2, n_q_heads=4, n_kv_heads=2, n_classes=3)
    model = training.wrap_parameters(randomized(dit.init_model(config, seed=0), seed=54))
    rng = np.random.default_rng(55)
    x = rng.standard_normal((2, 8, 8, 2))
    t, label = rng.uniform(0.0, 1.0, 2), np.array([2, 0])
    weights = rng.standard_normal(x.shape)

    def run():
        v = dit.forward_velocity(model, x, t, label=label, kv_pool=kv_pool)
        return v.value, training.grad(model, ad.sum_(ad.mul(v, weights)))

    got_v, got = run()
    monkeypatch.setattr(ad, "matmul", stacked_matmul)
    monkeypatch.setattr(ad, "attend", stacked_attend)
    monkeypatch.setattr(ad, "rotate_pairs", stacked_rotate_pairs)
    want_v, want = run()
    assert got_v.tobytes() == want_v.tobytes()
    assert list(got) == list(want) and all(want[name].any() for name in want)
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)
