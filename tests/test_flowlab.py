"""Closed-form Gaussian flows, toy datasets, the energy distance, and the
training loop. Velocity fields are checked two independent ways: against
finite differences of the marginal moments, and against Monte-Carlo
moment identities of the transport equation."""

import tracemalloc

import numpy as np
import pytest

from flowdit import autodiff as ad
from flowdit import dit, sampler
from flowdit.flowlab import datasets, gaussian, metrics, training


# Oracles: sampling, labelling and differencing helpers that only the tests need.


def target_sample(spec: gaussian.GaussianFlowSpec, n: int, seed: int = 0) -> np.ndarray:
    """n draws from the target N(mean, std^2 I)."""
    rng = np.random.default_rng(seed)
    return spec.mean_vec + spec.std * rng.standard_normal((n, spec.mean_vec.size))


def marginal_sample(spec: gaussian.GaussianFlowSpec, n: int, t: float, seed: int = 0) -> np.ndarray:
    """n draws from the time-t marginal N(t m, q(t) I)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, spec.mean_vec.size))
    return t * spec.mean_vec + np.sqrt(gaussian.marginal_variance(spec, t)) * z


def mode_assignments(points: np.ndarray) -> np.ndarray:
    """Nearest eight_gaussians mode index for each point."""
    d2 = ((np.asarray(points)[:, None, :] - datasets.EIGHT_CENTERS[None, :, :]) ** 2).sum(-1)
    return d2.argmin(axis=1)


def finite_difference_grad(model: dit.ModelParams, loss_fn, name: str, index, eps: float = 1e-4) -> float:
    """Central-difference d loss / d model[name][index] on a plain model."""
    leaf = model.params[name]
    keep = leaf[index]
    try:
        leaf[index] = keep + eps
        up = float(ad.val(loss_fn(model)))
        leaf[index] = keep - eps
        down = float(ad.val(loss_fn(model)))
    finally:
        leaf[index] = keep
    return (up - down) / (2.0 * eps)


def test_spec_validation_and_mean_vec():
    with pytest.raises(ValueError, match="std"):
        gaussian.GaussianFlowSpec(mean=(0.0,), std=0.0)
    spec = gaussian.GaussianFlowSpec(mean=(2.0, -1.0), std=0.5)
    assert np.array_equal(spec.mean_vec, [2.0, -1.0])


def test_marginal_variance_endpoints():
    spec = gaussian.GaussianFlowSpec(mean=(0.0, 0.0), std=0.25)
    assert gaussian.marginal_variance(spec, 0.0) == 1.0
    assert gaussian.marginal_variance(spec, 1.0) == 0.0625
    # interpolant of two independent gaussians: variances add in quadrature
    t = np.linspace(0, 1, 7)
    assert np.allclose(
        gaussian.marginal_variance(spec, t), (1 - t) ** 2 + (0.25 * t) ** 2, atol=1e-15
    )


def test_velocity_matches_moment_derivatives():
    # a gaussian path N(mu(t), sigma(t)^2 I) follows the unique affine field
    # v = mu' + (sigma'/sigma)(x - mu); get sigma' by central differences
    spec = gaussian.GaussianFlowSpec(mean=(2.0, -1.0), std=0.25)
    v = gaussian.velocity(spec)
    rng = np.random.default_rng(0)
    eps = 1e-6
    for t in (0.1, 0.37, 0.5, 0.82, 0.94):
        x = rng.standard_normal((64, 2)) * 2.0
        sig = lambda u: np.sqrt(gaussian.marginal_variance(spec, u))
        dsig = (sig(t + eps) - sig(t - eps)) / (2.0 * eps)
        want = spec.mean_vec + (dsig / sig(t)) * (x - t * spec.mean_vec)
        assert np.allclose(v(x, t), want, atol=1e-7)


def test_velocity_satisfies_transport_moment_identities():
    # under X ~ N(t m, q(t) I): E[v] = d/dt E[X] = m, and the covariance
    # identity 2 E[(x - tm) . (v - m)] / dim = q'(t)
    spec = gaussian.GaussianFlowSpec(mean=(1.0, 3.0), std=2.0)
    v = gaussian.velocity(spec)
    eps = 1e-6
    for t, seed in ((0.2, 1), (0.6, 2), (0.9, 3)):
        x = marginal_sample(spec, 200_000, t, seed=seed)
        vals = v(x, t)
        assert np.allclose(vals.mean(axis=0), spec.mean_vec, atol=0.02)
        centred = ((x - t * spec.mean_vec) * (vals - spec.mean_vec)).sum(-1).mean() / 2.0
        q_prime = (
            gaussian.marginal_variance(spec, t + eps)
            - gaussian.marginal_variance(spec, t - eps)
        ) / (2.0 * eps)
        assert np.isclose(2.0 * centred, q_prime, rtol=0.02, atol=0.02)


def test_exact_field_transports_source_to_target():
    spec = gaussian.GaussianFlowSpec(mean=(-1.0, 2.0), std=0.5)
    x0 = gaussian.source_sample(spec, 2048, seed=4)
    out = sampler.sample_flow(
        gaussian.velocity(spec), x0, sampler.ScheduleSpec(n_steps=64), "rk4"
    )
    assert np.allclose(out.mean(axis=0), spec.mean_vec, atol=0.08)
    assert np.allclose(out.std(axis=0), spec.std, atol=0.08)


def test_sampling_helpers_moments_and_determinism():
    spec = gaussian.GaussianFlowSpec(mean=(3.0, 0.0), std=0.3)
    assert np.array_equal(
        target_sample(spec, 100, seed=5), target_sample(spec, 100, seed=5)
    )
    tgt = target_sample(spec, 50_000, seed=6)
    assert np.allclose(tgt.mean(axis=0), [3.0, 0.0], atol=0.01)
    assert np.allclose(tgt.std(axis=0), 0.3, atol=0.01)
    mid = marginal_sample(spec, 50_000, 0.5, seed=7)
    assert np.allclose(
        mid.std(axis=0), np.sqrt(gaussian.marginal_variance(spec, 0.5)), atol=0.01
    )


def test_toy_dataset_determinism_and_validation():
    a = datasets.toy_dataset("eight_gaussians", 512, seed=3)
    b = datasets.toy_dataset("eight_gaussians", 512, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (512, 2)
    with pytest.raises(ValueError, match="one point"):
        datasets.toy_dataset("eight_gaussians", 0)
    with pytest.raises(ValueError, match="unknown dataset"):
        datasets.toy_dataset("spiral", 16)


def test_eight_gaussians_structure():
    pts = datasets.toy_dataset("eight_gaussians", 20_000, seed=0)
    modes = mode_assignments(pts)
    # every point hugs its mode: 6 sigma = 1.2 around a centre
    dist = np.linalg.norm(pts - datasets.EIGHT_CENTERS[modes], axis=1)
    assert dist.max() < 1.2
    counts = np.bincount(modes, minlength=8)
    assert counts.min() > 20_000 / 8 * 0.85
    assert np.allclose(np.linalg.norm(datasets.EIGHT_CENTERS, axis=1), 4.0, atol=1e-12)


def test_checkerboard_parity():
    pts = datasets.toy_dataset("checkerboard", 5000, seed=1)
    assert pts.min() >= -4.0 and pts.max() <= 4.0
    col = np.floor((pts[:, 0] + 4.0) / 2.0).astype(int)
    row = np.floor((pts[:, 1] + 4.0) / 2.0).astype(int)
    assert np.all((row + col) % 2 == 0)


def test_two_moons_bounded():
    pts = datasets.toy_dataset("two_moons", 5000, seed=2)
    assert pts.shape == (5000, 2)
    assert np.abs(pts).max() < 5.0


def test_mode_assignments_exact_on_centres():
    jitter = 0.05 * np.random.default_rng(8).standard_normal((8, 2))
    assert np.array_equal(
        mode_assignments(datasets.EIGHT_CENTERS + jitter), np.arange(8)
    )


def test_energy_distance_identical_sets_is_exact_zero():
    for n in (300, 1000):  # one chunk; two, the second split into 61-row parts
        a = np.random.default_rng(9).standard_normal((n, 2))
        assert metrics.energy_distance(a, a.copy()) == 0.0


def test_energy_distance_hand_oracle():
    a = np.array([[0.0], [2.0]])
    b = np.array([[1.0]])
    # cross mean 1, within-a mean 1, within-b mean 0: 2*1 - 1 - 0 = 1
    assert np.isclose(metrics.energy_distance(a, b), 1.0, atol=1e-15)


def test_energy_distance_matches_full_matrix_oracle():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((700, 3))  # crosses the 512-row chunk boundary
    b = rng.standard_normal((650, 3)) + 0.3

    def full(u, w):
        return np.linalg.norm(u[:, None, :] - w[None, :, :], axis=-1).mean()

    want = 2.0 * full(a, b) - full(a, a) - full(b, b)
    assert np.isclose(metrics.energy_distance(a, b), want, atol=1e-12)
    assert np.isclose(
        metrics.energy_distance(a, b), metrics.energy_distance(b, a), atol=1e-12
    )


def reference_mean_distance(u: np.ndarray, w: np.ndarray) -> np.float64:
    """The scorer's mean before tiling: each 512-row chunk as one [512, len(w)] block, summed whole."""
    w_sq = (w * w).sum(axis=1)
    total = 0.0
    for start in range(0, u.shape[0], 512):
        block = u[start : start + 512]
        d2 = (block * block).sum(axis=1)[:, None] + w_sq[None, :] - 2.0 * block @ w.T
        total += np.sqrt(np.maximum(d2, 0.0)).sum()
    return total / (u.shape[0] * w.shape[0])


def reference_energy_distance(a: np.ndarray, b: np.ndarray) -> np.float64:
    return 2.0 * reference_mean_distance(a, b) - reference_mean_distance(a, a) - reference_mean_distance(b, b)


def point_sets(n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(n_a + n_b)
    return rng.standard_normal((n_a, 2)), rng.standard_normal((n_b, 2)) + 0.3


# The criterion-11, perfbench and `gen --n` default shape, and sizes whose
# chunks split into parts of 61 and 64 rows: every part's GEMM takes the bits
# the whole chunk's GEMM gave its rows.
@pytest.mark.parametrize("n_a, n_b", [(4096, 4096), (8192, 4096), (4096, 1000), (512, 7)])
def test_energy_distance_keeps_the_chunked_scorers_bytes(n_a, n_b):
    a, b = point_sets(n_a, n_b)
    assert metrics.energy_distance(a, b).tobytes() == reference_energy_distance(a, b).tobytes()


# OpenBLAS may give a part's rows other bits than the whole chunk's GEMM when
# the width is not a multiple of 8 (the 300x300 self term of 300x5 does), so
# other sizes are held to rounding.
@pytest.mark.parametrize("n_a, n_b", [(1000, 4096), (300, 5), (512, 1), (1, 1)])
def test_energy_distance_matches_the_chunked_scorer_within_rounding(n_a, n_b):
    a, b = point_sets(n_a, n_b)
    assert abs(metrics.energy_distance(a, b) - reference_energy_distance(a, b)) <= 1e-12


# A last chunk of any row count is split where numpy's pairwise sum splits its
# block, so its sum keeps its bits too, at widths that keep the GEMM's.
@pytest.mark.parametrize("rows", [1000, 700, 513, 65, 2])
@pytest.mark.parametrize("width", [1000, 7, 2, 1])
def test_a_chunk_of_any_row_count_keeps_its_bytes(rows, width):
    a, b = point_sets(rows, width)
    got = metrics._mean_pairwise_distance(a, (a * a).sum(axis=1), b, (b * b).sum(axis=1))
    assert got.tobytes() == reference_mean_distance(a, b).tobytes()


def test_energy_distance_scratch_is_two_tiles_not_a_chunk():
    # numpy reports its buffers to tracemalloc; two [64, 4096] tiles are 4 MiB,
    # where three [512, 4096] chunk temporaries were 48 MiB
    a, b = point_sets(4096, 4096)
    tracemalloc.start()
    try:
        metrics.energy_distance(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


@pytest.mark.parametrize("side", ["a", "b"])
def test_energy_distance_refuses_an_empty_set(side):
    sets = {"a": np.zeros((3, 2)), "b": np.ones((4, 2))}
    sets[side] = np.zeros((0, 2))
    with pytest.raises(ValueError, match=f"sample set {side} is empty"):
        metrics.energy_distance(sets["a"], sets["b"])


def test_energy_distance_validation_and_discrimination():
    with pytest.raises(ValueError, match="matching d"):
        metrics.energy_distance(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="sample sets"):
        metrics.energy_distance(np.zeros(4), np.zeros(4))
    with pytest.raises(FloatingPointError, match="energy distance is not finite"):
        metrics.energy_distance(np.array([[np.nan, 0.0], [1.0, 2.0]]), np.zeros((3, 2)))
    rng = np.random.default_rng(11)
    same = metrics.energy_distance(rng.standard_normal((800, 2)), rng.standard_normal((800, 2)))
    far = metrics.energy_distance(
        rng.standard_normal((800, 2)), rng.standard_normal((800, 2)) + 2.0
    )
    assert same < 0.05 < far


def test_train_config_validation():
    with pytest.raises(ValueError, match="optimizer"):
        training.TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError, match="positive"):
        training.TrainConfig(steps=0)
    for lr in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning rate"):
            training.TrainConfig(lr=lr)


@pytest.mark.parametrize("field", ["steps", "batch_size"])
@pytest.mark.parametrize("value", [2.5, 4.0, True], ids=["fractional", "integral_float", "bool"])
def test_train_config_refuses_a_non_integer_count(field, value):
    # steps=2.5 failed at the first draw naming no field, and steps=True trained one step
    with pytest.raises(ValueError, match=f"{field} must be a positive integer, got {value!r}"):
        training.TrainConfig(**{field: value})
    assert getattr(training.TrainConfig(**{field: np.int64(4)}), field) == 4


def test_point_model_treats_points_as_one_token():
    config = training.point_model_config(16, 1)
    assert config.token_dim == 2
    model = dit.init_model(config, seed=0)
    pts = np.random.default_rng(12).standard_normal((5, 2))
    assert np.all(training.point_velocity(model, pts, 0.5) == 0.0)


def test_cfm_loss_fresh_model_equals_target_norm():
    config = training.point_model_config(16, 1)
    model = dit.init_model(config, seed=0)
    rng = np.random.default_rng(13)
    x1 = rng.standard_normal((32, 2))
    t = rng.uniform(0, 1, 32)
    noise = rng.standard_normal((32, 2))
    loss = training.cfm_loss(model, x1, t, noise)
    # a fresh model predicts exactly zero, so only the target term remains
    target = x1 - noise
    assert float(ad.val(loss)) == np.mean(np.sum(target * target, axis=-1))


def test_wrap_parameters_is_a_deep_var_copy():
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    keep = model.flat.copy()
    wrapped = training.wrap_parameters(model)
    assert all(isinstance(leaf, ad.Var) for _, leaf in dit.named_parameters(wrapped))
    assert wrapped.flat.tobytes() == keep.tobytes() and not np.shares_memory(wrapped.flat, model.flat)
    wrapped.params["blocks.0.attn.wq"].value += 1.0
    assert model.flat.tobytes() == keep.tobytes()
    assert not np.array_equal(wrapped.params["blocks.0.attn.wq"].value, model.params["blocks.0.attn.wq"])
    # the Var's value is its view of the copy, so the edit reached the copy's vector
    assert not np.array_equal(wrapped.flat, keep)


def assert_views_of_one_vector(model: dit.ModelParams) -> None:
    """Every parameter is a C-contiguous view of model.flat, laid end to end in manifest order."""
    flat = model.flat
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
    start = 0
    for name, leaf in dit.named_parameters(model):
        view = ad.val(leaf)
        assert view.dtype == np.float64 and view.flags.c_contiguous, name
        assert np.shares_memory(view, flat), name
        assert view.ctypes.data == flat.ctypes.data + start * flat.itemsize, name
        start += view.size
    assert start == flat.size


def test_every_parameter_is_a_view_of_its_models_one_vector(tmp_path):
    config = training.point_model_config(16, 1)
    model = dit.init_model(config, seed=0)
    assert_views_of_one_vector(model)
    dit.set_parameter(model, "b_out", np.array([0.5, -0.5]))
    assert_views_of_one_vector(model)
    dit.save_model(tmp_path / "ckpt", model)
    loaded = dit.load_model(tmp_path / "ckpt")
    assert_views_of_one_vector(loaded)
    assert loaded.flat.tobytes() == model.flat.tobytes()
    assert_views_of_one_vector(training.wrap_parameters(model))
    data = datasets.toy_dataset("eight_gaussians", 64, seed=0)
    training.train(model, data, training.TrainConfig(steps=2, batch_size=8))
    assert_views_of_one_vector(model)
    assert not np.array_equal(model.flat, loaded.flat)


# The training loop before the parameters shared one vector, kept as the
# oracle: every leaf a separate array, and Adam's moments and the update
# computed leaf by leaf with the same expressions.
def per_leaf_train(model: dit.ModelParams, data: np.ndarray, config: training.TrainConfig):
    rng = np.random.default_rng(config.seed)
    leaves = {name: ad.Var(np.array(a)) for name, a in model.params.items()}
    wrapped = dit.ModelParams(model.config, None, leaves)
    m_state = {name: np.zeros_like(leaf.value) for name, leaf in leaves.items()}
    v_state = {name: np.zeros_like(leaf.value) for name, leaf in leaves.items()}
    losses = np.empty(config.steps)
    for step in range(config.steps):
        idx = rng.integers(0, data.shape[0], config.batch_size)
        x1 = data[idx]
        noise = rng.standard_normal(x1.shape)
        t = rng.uniform(0.0, 1.0, config.batch_size)
        loss = training.cfm_loss(wrapped, x1, t, noise)
        losses[step] = float(loss.value)
        grads = training.grad(wrapped, loss)
        for name, leaf in leaves.items():
            g = grads[name]
            if config.optimizer == "sgd":
                value = leaf.value - config.lr * g
            else:
                m_state[name] = 0.9 * m_state[name] + (1.0 - 0.9) * g
                v_state[name] = 0.999 * v_state[name] + (1.0 - 0.999) * g * g
                m_hat = m_state[name] / (1.0 - 0.9 ** (step + 1))
                v_hat = v_state[name] / (1.0 - 0.999 ** (step + 1))
                value = leaf.value - config.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            leaf.value = value
    return losses, {name: leaf.value for name, leaf in leaves.items()}


@pytest.mark.parametrize("optimizer", training.OPTIMIZERS)
def test_flat_training_equals_the_per_leaf_oracle_bitwise(monkeypatch, optimizer):
    # the working vector starts 8 bytes into its buffer, so every view and
    # every SIMD loop over it runs unaligned, against aligned separate arrays
    model = dit.init_model(training.point_model_config(16, 2), seed=0, weight_std=0.2)
    rng = np.random.default_rng(61)
    for name, arr in dit.named_parameters(model):
        if not np.any(arr):
            dit.set_parameter(model, name, 0.2 * rng.standard_normal(arr.shape))
    data = datasets.toy_dataset("eight_gaussians", 64, seed=0)
    config = training.TrainConfig(steps=4, batch_size=8, lr=1e-2, optimizer=optimizer, seed=3)
    want_losses, want_params = per_leaf_train(model, data, config)
    initial = model.flat.copy()

    def unaligned_copy(model):
        flat = np.empty(model.flat.size + 1)[1:]
        assert flat.ctypes.data % 16 == 8
        flat[...] = model.flat
        views = dit.parameter_views(flat, model.params)
        return dit.ModelParams(model.config, flat, {name: ad.Var(view) for name, view in views.items()})

    monkeypatch.setattr(training, "wrap_parameters", unaligned_copy)
    losses = training.train(model, data, config)
    assert losses.tobytes() == want_losses.tobytes()
    assert [name for name, _ in dit.named_parameters(model)] == list(want_params)
    assert all(model.params[name].tobytes() == want.tobytes() for name, want in want_params.items())
    assert not np.array_equal(model.flat, initial)


def test_grad_requires_taped_loss_and_wrapped_model():
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    wrapped = training.wrap_parameters(model)
    rng = np.random.default_rng(14)
    x1 = rng.standard_normal((8, 2))
    t = rng.uniform(0, 1, 8)
    noise = rng.standard_normal((8, 2))
    with pytest.raises(TypeError, match="not on the tape"):
        training.grad(wrapped, 1.5)
    loss = training.cfm_loss(wrapped, x1, t, noise)
    with pytest.raises(TypeError, match="not wrapped"):
        training.grad(model, loss)
    grads = training.grad(wrapped, loss)
    assert set(grads) == {n for n, _ in dit.named_parameters(model)}
    assert any(np.any(g) for g in grads.values())


def test_grad_spot_checked_against_finite_differences():
    config = training.point_model_config(16, 1)
    model = dit.init_model(config, seed=0, weight_std=0.2)
    # zero-initialised leaves block gradient flow; give them signal
    rng = np.random.default_rng(15)
    for name, arr in dit.named_parameters(model):
        if not np.any(arr):
            dit.set_parameter(model, name, 0.2 * rng.standard_normal(arr.shape))
    x1 = rng.standard_normal((8, 2))
    t = rng.uniform(0.1, 0.9, 8)
    noise = rng.standard_normal((8, 2))
    loss_fn = lambda m: training.cfm_loss(m, x1, t, noise)
    wrapped = training.wrap_parameters(model)
    grads = training.grad(wrapped, loss_fn(wrapped))
    for name, index in (("blocks.0.attn.wq", (3, 5)), ("w_out", (7, 1)), ("b_mod" , None)):
        if name == "b_mod":
            name, index = "blocks.0.b_mod", (4,)
        fd = finite_difference_grad(model, loss_fn, name, index)
        got = grads[name][index]
        assert abs(got - fd) / max(abs(got), abs(fd), 1e-8) < 1e-4, name


def test_finite_difference_grad_restores_on_error():
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    keep = model.params["w_embed"].copy()

    def explode(_):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        finite_difference_grad(model, explode, "w_embed", (0, 0))
    assert np.array_equal(model.params["w_embed"], keep)


def test_train_rejects_bad_data():
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    with pytest.raises(ValueError, match="training points"):
        training.train(model, np.zeros((4, 3)), training.TrainConfig(steps=1, batch_size=2))
    keep = model.flat.copy()
    message = r"^expected \[n, 2\] training points with n >= 1, got \(0, 2\)$"
    with pytest.raises(ValueError, match=message):
        training.train(model, np.zeros((0, 2)), training.TrainConfig(steps=1, batch_size=2))
    assert model.flat.tobytes() == keep.tobytes()


def test_train_reduces_loss_and_is_reproducible():
    data = datasets.toy_dataset("eight_gaussians", 256, seed=0)
    config = training.TrainConfig(steps=30, batch_size=32, seed=0)

    def run():
        model = dit.init_model(training.point_model_config(16, 1), seed=0)
        losses = training.train(model, data, config)
        return model, losses

    model_a, losses_a = run()
    model_b, losses_b = run()
    assert losses_a.shape == (30,)
    assert np.all(np.isfinite(losses_a))
    assert losses_a[-10:].mean() < losses_a[:10].mean()
    assert np.array_equal(losses_a, losses_b)
    for (name, xa), (_, xb) in zip(
        dit.named_parameters(model_a), dit.named_parameters(model_b)
    ):
        assert isinstance(xa, np.ndarray) and not isinstance(xa, ad.Var)
        assert np.array_equal(xa, xb), name


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_raises_on_divergence():
    data = datasets.toy_dataset("eight_gaussians", 128, seed=0)
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    config = training.TrainConfig(steps=50, batch_size=16, lr=1e8, optimizer="sgd")
    with pytest.raises(training.DivergenceError, match="loss became"):
        training.train(model, data, config)


def test_train_raises_on_non_finite_gradient(monkeypatch):
    data = datasets.toy_dataset("eight_gaussians", 128, seed=0)
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    keep = model.params["w_out"].copy()
    real_grad = training.grad
    calls = []

    def poisoned(wrapped, loss):
        grads = real_grad(wrapped, loss)
        calls.append(len(calls))
        if len(calls) == 3:  # the loss of step 2 is finite; one gradient is not
            grads["blocks.0.attn.wk"][1, 2] = np.nan
        return grads

    monkeypatch.setattr(training, "grad", poisoned)
    config = training.TrainConfig(steps=5, batch_size=16, seed=0)
    with pytest.raises(training.DivergenceError, match=r"gradient of blocks\.0\.attn\.wk .* at step 2"):
        training.train(model, data, config)
    assert np.array_equal(model.params["w_out"], keep)


# Adam's m_hat / sqrt(v_hat) of an infinite gradient is inf / inf
@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("optimizer,bad", [("sgd", np.inf), ("sgd", np.nan), ("adam", -np.inf)])
def test_train_names_the_non_finite_gradient_under_either_optimizer(monkeypatch, optimizer, bad):
    data = datasets.toy_dataset("eight_gaussians", 128, seed=0)
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    real_grad = training.grad

    def poisoned(wrapped, loss):
        grads = real_grad(wrapped, loss)
        grads["b_out"][1] = bad
        return grads

    monkeypatch.setattr(training, "grad", poisoned)
    config = training.TrainConfig(steps=3, batch_size=16, optimizer=optimizer)
    with pytest.raises(training.DivergenceError, match=r"^gradient of b_out became non-finite at step 0$"):
        training.train(model, data, config)


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_raises_on_a_non_finite_parameter_from_finite_gradients():
    # the gradients of step 0 are finite, but lr * gradient overflows for w_out
    data = datasets.toy_dataset("eight_gaussians", 128, seed=0)
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    keep = dict(model.params)
    config = training.TrainConfig(steps=3, batch_size=16, lr=1e308, optimizer="sgd")
    with pytest.raises(training.DivergenceError, match=r"^w_out became non-finite at step 0$"):
        training.train(model, data, config)
    assert all(model.params[name] is keep[name] for name in keep)


def tape_of(root):
    """(op node count, ids of every Var reached) of the tape behind root."""
    nodes, seen, stack = 0, set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += node._vjp is not None
        stack.extend(node._parents)
    return nodes, seen


def test_training_step_tape_size_is_pinned():
    # one cfm_loss on the criterion-11 model; a change that splits a fused
    # op (rms_norm) back into primitives changes this count, and the head's
    # final norm takes its scale as the gain, one node for norm and scale
    model = training.wrap_parameters(dit.init_model(training.point_model_config(), seed=0))
    rng = np.random.default_rng(16)
    x1 = rng.standard_normal((64, 2))
    t = rng.uniform(0, 1, 64)
    noise = rng.standard_normal((64, 2))
    loss = training.cfm_loss(model, x1, t, noise)
    nodes, seen = tape_of(loss)
    # one token attends to its own value row, so the query/key path is
    # never built: those 8 leaves are unreached and get exact zeros
    unreached = {name for name, leaf in dit.named_parameters(model) if id(leaf) not in seen}
    assert unreached == {f"blocks.{i}.attn.{n}" for i in (0, 1) for n in ("wq", "wk", "q_gain", "k_gain")}
    assert len(seen) - nodes == 30
    assert nodes == 82
    grads = training.grad(model, loss)
    assert all(not grads[name].any() for name in unreached)


@pytest.mark.parametrize("kv_pool,size", [(None, 153), (((4, 4), (2, 2)), 157)], ids=["plain", "pooled"])
def test_gqa_image_tape_size_is_pinned(kv_pool, size):
    # a GQA 4/2 image velocity: each kv head is broadcast over its query
    # group, not copied by a tape node; pooling adds two matmuls per block;
    # the head's final norm takes its scale as the gain (one node, not two);
    # attention's weights and AV product are one attend node per block
    config = dit.ModelConfig(d_model=32, n_layers=2, n_q_heads=4, n_kv_heads=2)
    model = training.wrap_parameters(dit.init_model(config, seed=0))
    v = dit.forward_velocity(model, np.random.default_rng(17).standard_normal((2, 8, 8, 2)), 0.4, kv_pool=kv_pool)
    nodes, seen = tape_of(ad.mean(ad.mul(v, v)))
    assert len(seen) - nodes == len(model.params) == 38  # every leaf is reached
    assert len(seen) == size


@pytest.mark.parametrize("n_layers", [1, 3])
def test_unmasked_recognition_builds_no_bias(n_layers):
    # mask=None gives the bits of an all-True mask, and its tape lacks the
    # mask bias's add, one node per block
    config = dit.ModelConfig(d_model=32, n_layers=n_layers, n_q_heads=4, n_kv_heads=2, mode="recognition", n_classes=3)
    model = dit.init_model(config, seed=0)
    rng = np.random.default_rng(n_layers)
    for i in range(n_layers):  # open the zero-initialised gates so attention reaches the logits
        dit.set_parameter(model, f"blocks.{i}.gates", rng.uniform(0.5, 1.0, 2))
    tokens = rng.standard_normal((2, 6, config.token_dim))
    coords = np.stack([np.arange(6.0), np.zeros(6)], axis=-1)
    runs = []
    for mask in (None, np.ones((2, 6), dtype=bool)):
        wrapped, x = training.wrap_parameters(model), ad.Var(tokens)
        logits = dit.recognition_forward(wrapped, x, coords, mask=mask)
        loss = ad.mean(ad.mul(logits, logits))
        nodes, _ = tape_of(loss)
        grads = training.grad(wrapped, loss)
        runs.append((nodes, logits.value.tobytes(), x.grad.tobytes(), {k: g.tobytes() for k, g in grads.items()}))
    (plain_nodes, *plain), (masked_nodes, *masked) = runs
    assert plain == masked
    assert masked_nodes - plain_nodes == n_layers


def test_generate_fresh_model_returns_its_noise():
    model = dit.init_model(training.point_model_config(16, 1), seed=0)
    out = training.generate(model, 64, sampler.ScheduleSpec(n_steps=4), seed=21)
    assert np.array_equal(out, np.random.default_rng(21).standard_normal((64, 2)))
    again = training.generate(model, 64, sampler.ScheduleSpec(n_steps=4), seed=21)
    assert np.array_equal(out, again)
