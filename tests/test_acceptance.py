"""Acceptance gate: one test per shipping criterion.

Each test pins its tolerances and asserts its own runtime budget, so
`pytest -v` reads as a pass/fail line per criterion. Heavier end-to-end
checks (training, transport) sit at the bottom.
"""

import math
import time
from pathlib import Path

import numpy as np

from flowdit import autodiff as ad
from flowdit import cli, contextdrop, dit, partitioner, rope, sampler
from flowdit import numkernel as nk
from flowdit.flowlab import datasets, gaussian, metrics, training

GOLDEN = Path(__file__).parent / "golden"


def test_criterion_01_rope_translation_invariance_and_isometry():
    start = time.perf_counter()
    for axes, d_head in ((1, 8), (2, 12), (3, 24)):
        freqs = rope.freq_matrix(10000.0, d_head, axes)
        rng = np.random.default_rng(axes)
        q = rng.standard_normal((12, d_head))
        k = rng.standard_normal((10, d_head))
        cq = rng.uniform(0.0, 32.0, (12, axes))
        ck = rng.uniform(0.0, 32.0, (10, axes))
        base = rope.rope_attention_logits(q, k, cq, ck, freqs)
        for _ in range(4):
            shift = rng.uniform(-64.0, 64.0, axes)
            moved = rope.rope_attention_logits(q, k, cq + shift, ck + shift, freqs)
            assert np.max(np.abs(moved - base)) < 1e-9
        x = rng.standard_normal((5, 12, d_head))
        rx = rope.apply_rope(x, cq, freqs)
        norms = np.linalg.norm(x, axis=-1)
        assert np.max(np.abs(np.linalg.norm(rx, axis=-1) - norms)) < 1e-9
    assert time.perf_counter() - start < 5.0


def test_criterion_02_scaling_strategy_equalities_and_ordering():
    start = time.perf_counter()
    base, d_head, extent = 5.0, 24, 16.0
    for axes in (1, 2, 3):
        freqs = rope.freq_matrix(base, d_head, axes)
        for s in (2.0, 4.0, 8.0):
            interp = rope.scaled_freqs(freqs, rope.ScaleSpec("interpolate", s=s)).theta
            ntk = rope.scaled_freqs(freqs, rope.ScaleSpec("ntk", s=s)).theta
            at0 = rope.scaled_freqs(freqs, rope.ScaleSpec("time_aware", s=s, t=0.0)).theta
            at1 = rope.scaled_freqs(freqs, rope.ScaleSpec("time_aware", s=s, t=1.0)).theta
            assert np.max(np.abs(at0 - interp)) < 1e-12
            assert np.max(np.abs(at1 - ntk)) < 1e-12

            spec_fa = rope.ScaleSpec("freq_aware", s=s, train_extent=extent)
            fa = rope.scaled_freqs(freqs, spec_fa).theta
            d_t = rope.d_target(base, d_head, axes, extent)
            pivot_got = rope.scaled_theta(freqs, spec_fa, d_t)
            pivot_want = rope.scaled_theta(freqs, rope.ScaleSpec("interpolate", s=s), d_t)
            assert abs(float(pivot_got) - float(pivot_want)) < 1e-12
            # interpolation floors the curve, the unscaled table caps it
            assert np.all(interp <= fa + 1e-15)
            assert np.all(fa <= freqs.theta + 1e-15)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_schedule_identities_and_golden_defaults(tmp_path):
    start = time.perf_counter()
    uniform = np.arange(13) / 12
    for form in sampler.SCHEDULE_FORMS:
        spec = sampler.ScheduleSpec(kind="rational", sigma=1.0, n_steps=12, form=form)
        assert np.array_equal(sampler.schedule_points(spec), uniform)

    rng = np.random.default_rng(0)
    for _ in range(100):
        mu = rng.uniform(0.05, 0.95)
        alpha = rng.uniform(0.5, 30.0)
        beta = rng.uniform(0.5, 30.0)
        left = 1.0 / (1.0 + np.exp(-alpha * (mu - mu)))
        right = 1.0 - 1.0 / (1.0 + np.exp(beta * (mu - mu)))
        assert left == 0.5 and right == 0.5
        assert float(sampler.sigmoid_warp(mu, mu, alpha, beta)) == 0.5
        ts = sampler.schedule_points(
            sampler.ScheduleSpec(kind="sigmoid", n_steps=9, mu=mu, alpha=alpha, beta=beta)
        )
        assert ts[0] == 0.0 and ts[-1] == 1.0
    for sigma in (0.7, 2.5):
        ts = sampler.schedule_points(
            sampler.ScheduleSpec(kind="rational", sigma=sigma, n_steps=9)
        )
        assert ts[0] == 0.0 and ts[-1] == 1.0

    out = tmp_path / "schedule.csv"
    rc = cli.main(["schedule", "--kind", "sigmoid", "--steps", "20", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "schedule_sigmoid_default.csv").read_bytes()
    assert time.perf_counter() - start < 1.0


def test_criterion_04_solver_orders_and_bitwise_midpoint():
    start = time.perf_counter()
    exact = math.exp(-1.0)
    decay = lambda x, t: -x

    def err(solver, n):
        out = sampler.sample_flow(decay, np.array([1.0]), sampler.ScheduleSpec(n_steps=n), solver)
        return abs(float(out[0]) - exact)

    for solver, nominal in (("euler", 1.0), ("midpoint", 2.0), ("rk4", 4.0)):
        order = math.log2(err(solver, 20) / err(solver, 40))
        assert abs(order - nominal) < 0.5, (solver, order)

    field = lambda x, t: np.sin(x) + 0.1 * t * x * x
    x0 = np.random.default_rng(0).standard_normal((6, 2))
    ts = sampler.schedule_points(sampler.ScheduleSpec(kind="sigmoid", n_steps=11))
    assert np.array_equal(
        sampler.midpoint_sample(field, x0, ts),
        sampler.rk_sample(sampler.MIDPOINT, field, x0, ts),
    )

    calls = 0

    def counting(x, t):
        nonlocal calls
        calls += 1
        return -x

    sampler.sample_flow(counting, np.ones(2), sampler.ScheduleSpec(n_steps=17), "midpoint")
    assert calls == 2 * 17
    assert time.perf_counter() - start < 5.0


def test_criterion_05_truncation_and_curvature_diagnostics():
    start = time.perf_counter()
    # curvature vanishes identically for a constant field; dyadic start
    # points and step counts make every float operation exact
    rng = np.random.default_rng(2)
    x0c = rng.integers(-512, 512, (16, 2)) / 256.0
    const = lambda x, t: np.broadcast_to(np.array([2.0, -3.0]), x.shape)
    kappas = sampler.curvature_profile(const, x0c, n_anchor=4, substeps=64)
    assert np.array_equal(kappas, np.zeros(3))

    spec = gaussian.GaussianFlowSpec(mean=(2.0, 2.0), std=0.25)
    v = gaussian.velocity(spec)
    x0 = gaussian.source_sample(spec, 256, seed=0)
    tau_c = sampler.truncation_error_profile(v, x0, n_anchor=25, substeps=100)
    tau_f = sampler.truncation_error_profile(v, x0, n_anchor=50, substeps=100)
    assert 3.0 < tau_c.max() / tau_f.max() < 5.0
    kap_c = sampler.curvature_profile(v, x0, n_anchor=25, substeps=100)
    kap_f = sampler.curvature_profile(v, x0, n_anchor=50, substeps=100)
    assert 3.0 < kap_c.max() / kap_f.max() < 5.0
    assert time.perf_counter() - start < 30.0

    # exact path x_t = t m + sqrt(q(t)) x0, q = (1-t)^2 + s^2 t^2, so x'' = s^2 q^(-3/2) x0
    # and the per-step Euler error peaks at t* = 1/(1+s^2): data end if s < 1, noise end if s > 1
    taus = sampler.truncation_error_profile(v, x0, n_anchor=50, substeps=100)
    s2, h = spec.std**2, 1.0 / 50
    t = np.arange(51) * h
    q = (1.0 - t) ** 2 + s2 * t**2
    dq = -2.0 * (1.0 - t) + 2.0 * s2 * t
    r = np.sqrt(q)
    law = np.mean(np.linalg.norm(x0, axis=1)) * np.abs(
        r[1:] - r[:-1] - h * dq[:-1] / (2.0 * r[:-1])
    )
    np.testing.assert_allclose(taus, law, rtol=2e-2)
    assert int(taus.argmax()) == 47, f"argmax = {int(taus.argmax())}, t* = {1 / (1 + s2):.3f}"

    wide = gaussian.GaussianFlowSpec(mean=(2.0, 2.0), std=4.0)
    taus = sampler.truncation_error_profile(gaussian.velocity(wide), x0, n_anchor=50, substeps=100)
    assert int(taus.argmax()) < 5, f"argmax = {int(taus.argmax())}, t* = {1 / 17:.3f}"
    assert taus[:5].max() > np.median(taus), (
        "early-step truncation error does not dominate: "
        f"max(first 10%) = {taus[:5].max():.4e}, median = {np.median(taus):.4e}, "
        f"argmax = {int(taus.argmax())} of 50"
    )


def test_criterion_06_oracle_transport_moments():
    start = time.perf_counter()
    spec = gaussian.GaussianFlowSpec(mean=(2.0, 2.0), std=0.25)
    x0 = gaussian.source_sample(spec, 4096, seed=0)
    out = sampler.sample_flow(
        gaussian.velocity(spec), x0, sampler.ScheduleSpec(n_steps=64), "rk4"
    )
    assert np.max(np.abs(out.mean(axis=0) - spec.mean_vec)) < 0.05
    assert np.max(np.abs(out.std(axis=0) - spec.std)) < 0.05
    assert time.perf_counter() - start < 30.0


def reference_mha(x, p, freqs, coords, eps):
    """Plain multi-head attention, no grouping logic anywhere."""
    d_head = x.shape[-1] // p.n_q_heads

    def split(a):
        s = a.shape
        return np.swapaxes(a.reshape(s[:-1] + (p.n_q_heads, s[-1] // p.n_q_heads)), -3, -2)

    q = split(nk.matmul(x, p.wq))
    k = split(nk.matmul(x, p.wk))
    v = split(nk.matmul(x, p.wv))
    q = rope.apply_rope(nk.rms_norm(q, p.q_gain, eps), coords, freqs)
    k = rope.apply_rope(nk.rms_norm(k, p.k_gain, eps), coords, freqs)
    logits = nk.matmul(q, np.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(d_head))
    out = np.swapaxes(nk.matmul(nk.softmax(logits, axis=-1), v), -3, -2)
    s = out.shape
    return nk.matmul(out.reshape(s[:-2] + (s[-2] * s[-1],)), p.wo)


def test_criterion_07_block_identity_gqa_probe_masking():
    start = time.perf_counter()
    config = dit.ModelConfig(d_model=32, n_layers=2, n_q_heads=4, n_kv_heads=4,
                             patch=2, in_channels=2, time_dim=16)
    model = dit.init_model(config, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 8, config.d_model))
    cond = rng.standard_normal((3, config.d_model))
    coords = nk.grid_coords((2, 4))
    freqs = dit.model_freqs(config)
    y = dit.sandwich_block(x, cond, model.blocks[0], config, freqs, coords)
    assert np.array_equal(y, x)
    img = rng.standard_normal((2, 4, 4, 2))
    assert np.all(dit.forward_velocity(model, img, 0.5) == 0.0)

    p = model.blocks[0].attn
    p = dit.AttentionParams(
        wq=rng.standard_normal((32, 32)), wk=rng.standard_normal((32, 32)),
        wv=rng.standard_normal((32, 32)), wo=rng.standard_normal((32, 32)),
        q_gain=rng.uniform(0.5, 1.5, 8), k_gain=rng.uniform(0.5, 1.5, 8),
        n_q_heads=4, n_kv_heads=4,
    )
    xt = rng.standard_normal((2, 8, 32))
    got = dit.gqa_attention(xt, p, freqs, coords)
    assert np.array_equal(got, reference_mha(xt, p, freqs, coords, 1e-6))

    def probe_peak(style):
        cfg = dit.ModelConfig(d_model=64, n_layers=24, n_q_heads=4, n_kv_heads=4,
                              patch=2, in_channels=2, block_style=style)
        m = dit.init_model(cfg, seed=0, weight_std=4.0 / math.sqrt(64))
        for block in m.blocks:
            block.b_mod = block.b_mod.copy()
            block.b_mod[2 * 64] = 1.0  # attention gate bias, pre-tanh
            block.b_mod[4 * 64 + 1] = 1.0  # mlp gate bias
        rows = dit.activation_probe(m, (8, 8), (0.0, 0.5, 1.0), n_samples=8, seed=0)
        return max(r[3] for r in rows)

    assert probe_peak("sandwich") < probe_peak("prenorm")

    rec = dit.init_model(
        dit.ModelConfig(d_model=32, n_layers=2, n_q_heads=4, n_kv_heads=4,
                        mode="recognition", n_classes=4, time_dim=16),
        seed=0,
    )
    for i in range(2):
        dit.set_parameter(rec, f"blocks.{i}.gates", np.array([0.9, 0.7]))
    coords8 = nk.grid_coords((2, 4))
    tokens = rng.standard_normal((8, rec.config.token_dim))
    padded = np.concatenate([tokens[:5], 1e6 * np.ones((3, rec.config.token_dim))])
    mask = np.array([True] * 5 + [False] * 3)
    got = dit.recognition_forward(rec, padded, coords8, mask=mask)
    want = dit.recognition_forward(rec, tokens[:5], coords8[:5])
    assert np.max(np.abs(got - want)) < 1e-9
    assert time.perf_counter() - start < 60.0


def test_criterion_08_context_drop_identities_and_length_law():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    k = rng.standard_normal((2, 12, 6))
    v = rng.standard_normal((2, 12, 6))
    coords = nk.grid_coords((3, 4))
    pk, pv, pc = contextdrop.pool_kv(k, v, coords, (3, 4), contextdrop.window_for_ratio(0.0))
    assert pk is k and pv is v and pc is coords

    config = dit.ModelConfig(d_model=16, n_layers=1, n_q_heads=2, n_kv_heads=2,
                             patch=1, in_channels=2, time_dim=8)
    freqs = dit.model_freqs(config)
    p = dit.AttentionParams(
        wq=rng.standard_normal((16, 16)), wk=rng.standard_normal((16, 16)),
        wv=rng.standard_normal((16, 16)), wo=rng.standard_normal((16, 16)),
        q_gain=np.ones(8), k_gain=np.ones(8), n_q_heads=2, n_kv_heads=2,
    )
    x = rng.standard_normal((12, 16))
    assert np.array_equal(
        dit.gqa_attention(x, p, freqs, coords),
        dit.gqa_attention(x, p, freqs, coords, kv_pool=((3, 4), (1, 1))),
    )

    # pooling is an exact identity on windows of equal values
    const = np.broadcast_to(np.array([1.0, 2.0, 3.0]), (64, 3))
    for window in contextdrop.WINDOWS:
        pooled, _, _ = contextdrop.pool_kv(const, const, nk.grid_coords((8, 8)), (8, 8), window)
        assert np.array_equal(pooled, np.broadcast_to([1.0, 2.0, 3.0], pooled.shape))

    for h in range(1, 9):
        for w in range(1, 9):
            tokens = rng.standard_normal((h * w, 3))
            for window in contextdrop.WINDOWS:
                wh, ww = window
                n_out = math.ceil(h / wh) * math.ceil(w / ww)
                pooled, _, _ = contextdrop.pool_kv(tokens, tokens, nk.grid_coords((h, w)), (h, w), window)
                assert pooled.shape == (n_out, 3)

    assert contextdrop.window_for_ratio(0.75) == (2, 2)
    ones = np.ones((16, 3))
    pk, _, _ = contextdrop.pool_kv(ones, ones, nk.grid_coords((4, 4)), (4, 4), contextdrop.window_for_ratio(0.75))
    assert pk.shape == (4, 3)
    assert time.perf_counter() - start < 5.0


def test_criterion_09_partitioner_brute_force_equivalence():
    start = time.perf_counter()
    for max_tokens in range(1, 65):
        for max_aspect in (1.0, 2.0, 4.0):
            got = partitioner.candidate_set(max_tokens, max_aspect, 16)
            want = [
                partitioner.PartitionGrid(r, c, 16)
                for r in range(1, max_tokens + 1)
                for c in range(1, max_tokens + 1)
                if r * c <= max_tokens and max(r, c) / min(r, c) <= max_aspect
            ]
            assert got == want

    cands = partitioner.candidate_set(64, 4.0, 16)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        h = int(rng.integers(1, 4096))
        w = int(rng.integers(1, 4096))
        best = None
        for g in cands:
            key = (partitioner.matching_ratio(g, h, w), g.tokens)
            if best is None or key > best[0]:
                best = (key, g)
        assert partitioner.best_partition(h, w, cands) == best[1]
        for g in cands[:8]:
            assert partitioner.matching_ratio(g, h, w) == partitioner.matching_ratio(g, 2 * h, 2 * w)
    assert partitioner.best_partition(448, 224, partitioner.candidate_set(128, 4.0, 16)).pixel_size == (256, 128)
    assert time.perf_counter() - start < 5.0


def test_criterion_10_gradients_match_finite_differences():
    start = time.perf_counter()
    config = dit.ModelConfig(d_model=32, n_layers=2, n_q_heads=4, n_kv_heads=2,
                             patch=2, in_channels=2, time_dim=16)
    model = dit.init_model(config, seed=0, weight_std=0.2)
    rng = np.random.default_rng(1)
    for name, arr in dit.named_parameters(model):
        if not np.any(arr):
            dit.set_parameter(model, name, 0.2 * rng.standard_normal(arr.shape))
    x = rng.standard_normal((3, 4, 4, 2))
    t = rng.uniform(0.1, 0.9, 3)
    target = rng.standard_normal((3, 4, 4, 2))

    def loss_fn(m):
        diff = ad.sub(dit.forward_velocity(m, x, t), target)
        return ad.mean(ad.mul(diff, diff))

    wrapped = training.wrap_parameters(model)
    grads = training.grad(wrapped, loss_fn(wrapped))

    leaves = dit.named_parameters(model)
    for _ in range(100):
        name, arr = leaves[int(rng.integers(len(leaves)))]
        index = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        fd = training.finite_difference_grad(model, loss_fn, name, index)
        got = float(grads[name][index])
        rel = abs(got - fd) / max(abs(got), abs(fd), 1e-8)
        assert rel < 1e-4, (name, index, got, fd, rel)
    assert time.perf_counter() - start < 60.0


def test_criterion_11_toy_generation_quality_and_solver_ordering():
    start = time.perf_counter()
    data = datasets.toy_dataset("eight_gaussians", 65536, seed=7)
    model = dit.init_model(training.point_model_config(), seed=0)
    training.train(model, data, training.TrainConfig(steps=5000, batch_size=512, lr=2e-3, seed=0))

    held_out = datasets.toy_dataset("eight_gaussians", 4096, seed=1234)
    mid = training.generate(
        model, 4096, sampler.ScheduleSpec(kind="sigmoid", n_steps=8), solver="midpoint", seed=1
    )
    euler = training.generate(
        model, 4096, sampler.ScheduleSpec(kind="uniform", n_steps=16), solver="euler", seed=1
    )
    ed_mid = metrics.energy_distance(mid, held_out)
    ed_euler = metrics.energy_distance(euler, held_out)
    # both runs spend 16 field evaluations; the curvature-adapted grid
    # plus the second-order step must not lose to first order on it
    assert ed_mid < 0.05, ed_mid
    assert ed_euler >= ed_mid, (ed_euler, ed_mid)
    assert time.perf_counter() - start < 600.0
