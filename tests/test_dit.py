"""Transformer trunk contracts: zero-init identity, attention against a
per-head loop oracle, grouped-query expansion, masking, patch layout,
and checkpoint round-trips."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from flowdit import autodiff as ad
from flowdit import contextdrop as cd
from flowdit import dit, flowlab
from flowdit import numkernel as nk
from flowdit import rope
from test_numkernel import pool_oracle


def small_config(**overrides):
    kw = dict(d_model=16, n_layers=2, n_q_heads=2, n_kv_heads=2, patch=2,
              in_channels=2)
    kw.update(overrides)
    return dit.ModelConfig(**kw)


def randomized(model, seed):
    """Overwrite every zero-initialised leaf so all paths carry signal."""
    rng = np.random.default_rng(seed)
    for name, arr in dit.named_parameters(model):
        if not np.any(arr):
            dit.set_parameter(model, name, 0.1 * rng.standard_normal(arr.shape))
    return model


def test_config_validation_messages():
    with pytest.raises(ValueError, match="unknown mode"):
        small_config(mode="both")
    with pytest.raises(ValueError, match="block style"):
        small_config(block_style="postnorm")
    with pytest.raises(ValueError, match="layer"):
        small_config(n_layers=0)
    for zero in ("d_model", "n_q_heads", "n_kv_heads"):
        with pytest.raises(ValueError, match="must be positive"):
            small_config(**{zero: 0})
    with pytest.raises(ValueError, match="query heads"):
        small_config(d_model=18, n_q_heads=4)
    with pytest.raises(ValueError, match="kv heads"):
        small_config(n_q_heads=2, n_kv_heads=3)
    with pytest.raises(ValueError, match="head dim 6 not divisible by 4"):
        small_config(d_model=12, n_q_heads=2)
    with pytest.raises(ValueError, match="n_classes"):
        small_config(mode="recognition", n_classes=0)
    with pytest.raises(ValueError, match="generative mode needs n_classes >= 0, got -3"):
        small_config(n_classes=-3)
    with pytest.raises(ValueError, match="positive"):
        small_config(patch=0)


@pytest.mark.parametrize(
    "field,value", [("axes", 2), ("rope_base", 10000.0), ("mlp_ratio", 4), ("eps", -1.0), ("time_dim", 16)],
    ids=["axes", "rope_base", "mlp_ratio", "eps", "time_dim"],
)
def test_fixed_architecture_values_are_not_config_fields(field, value):
    with pytest.raises(TypeError, match=field):
        dit.ModelConfig(**{field: value})


def test_config_derived_sizes():
    c = small_config()
    assert c.d_head == 8
    assert c.d_kv == 16
    assert c.token_dim == 8


def test_init_is_deterministic_and_seed_sensitive():
    a = dit.init_model(small_config(), seed=5)
    b = dit.init_model(small_config(), seed=5)
    c = dit.init_model(small_config(), seed=6)
    for (name, xa), (_, xb) in zip(dit.named_parameters(a), dit.named_parameters(b)):
        assert np.array_equal(xa, xb), name
    assert any(
        not np.array_equal(xa, xc)
        for (_, xa), (_, xc) in zip(dit.named_parameters(a), dit.named_parameters(c))
    )


def test_truncated_init_stays_within_two_sigma():
    model = dit.init_model(small_config(), seed=0, weight_std=0.5)
    w = model.params["blocks.0.attn.wq"]
    assert np.abs(w).max() <= 2.0 * 0.5
    assert w.std() > 0.2


def test_zero_init_block_is_exact_identity():
    config = small_config()
    model = dit.init_model(config, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 6, config.d_model))
    cond = rng.standard_normal((3, config.d_model))
    coords = nk.grid_coords((2, 3))
    freqs = dit.model_freqs(config)
    block = dit._blocks(model)[0]
    y = dit.sandwich_block(x, dit.block_modulation(cond[:, None], block, config.d_model), block, config, dit.attention_tables(coords, freqs))
    assert np.array_equal(y, x)


def test_fresh_generative_model_outputs_exact_zero():
    config = small_config()
    model = dit.init_model(config, seed=0)
    x = np.random.default_rng(2).standard_normal((4, 4, 4, 2))
    out = dit.forward_velocity(model, x, 0.3)
    assert out.shape == x.shape
    assert np.all(out == 0.0)


def rotate_complex(x, coords, freqs):
    """Rotate channel pairs via complex multiplication (oracle path)."""
    angles = rope.rope_angles(coords, freqs)
    z = x[..., 0::2] + 1j * x[..., 1::2]
    z = z * np.exp(1j * angles)
    out = np.empty_like(x)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def slow_attention(x, p, n_q, n_kv, freqs, coords, eps, kv_pool=None):
    """Per-head loop with explicit softmax; handles grouping by indexing.

    kv_pool = (grid, window) loop-pools keys, values and key coordinates.
    """
    n, d = x.shape
    dh = d // n_q
    group = n_q // n_kv
    q, k, v = x @ p["wq"], x @ p["wk"], x @ p["wv"]
    coords_k = coords
    if kv_pool is not None:
        k, v, coords_k = (pool_oracle(a, *kv_pool) for a in (k, v, coords))
    outs = []
    for i in range(n_q):
        j = i // group
        qi = q[:, i * dh : (i + 1) * dh]
        kj = k[:, j * dh : (j + 1) * dh]
        vj = v[:, j * dh : (j + 1) * dh]
        qi = qi / np.sqrt(np.mean(qi * qi, -1, keepdims=True) + eps) * p["q_gain"]
        kj = kj / np.sqrt(np.mean(kj * kj, -1, keepdims=True) + eps) * p["k_gain"]
        qi = rotate_complex(qi, coords, freqs)
        kj = rotate_complex(kj, coords_k, freqs)
        logits = qi @ kj.T / np.sqrt(dh)
        w = np.exp(logits - logits.max(-1, keepdims=True))
        w = w / w.sum(-1, keepdims=True)
        outs.append(w @ vj)
    return np.concatenate(outs, -1) @ p["wo"]


def attention(x, p, freqs, coords, mask=None, kv_pool=None):
    """dit.gqa_attention on the tables a forward call builds for coords, kv_pool and mask."""
    return dit.gqa_attention(x, p, dit.attention_tables(coords, freqs, kv_pool, mask), kv_pool=kv_pool)


def make_attn(d, n_q, n_kv, seed):
    rng = np.random.default_rng(seed)
    dh = d // n_q
    return dict(
        wq=rng.standard_normal((d, d)),
        wk=rng.standard_normal((d, n_kv * dh)),
        wv=rng.standard_normal((d, n_kv * dh)),
        wo=rng.standard_normal((d, d)),
        q_gain=rng.uniform(0.5, 1.5, dh),
        k_gain=rng.uniform(0.5, 1.5, dh),
    )


@pytest.mark.parametrize("n_q,n_kv", [(2, 2), (4, 2), (4, 1)])
def test_attention_matches_per_head_oracle(n_q, n_kv):
    d = 8 * n_q
    p = make_attn(d, n_q, n_kv, seed=n_q * 10 + n_kv)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords((2, 3))
    x = np.random.default_rng(0).standard_normal((6, d))
    got = attention(x, p, freqs, coords)
    want = slow_attention(x, p, n_q, n_kv, freqs, coords, 1e-6)
    assert np.allclose(got, want, atol=1e-12)


def test_attention_with_logits_past_the_exp_limit_matches_the_per_head_oracle(monkeypatch):
    # gains of 17 bound the logits by sqrt(8) * 17^2 = 817 > ad.EXP_LIMIT, and
    # keys equal to the queries put each token's own logit near that bound,
    # where exp alone overflows: the row max must be subtracted first
    d, n_q = 16, 2
    p = make_attn(d, n_q, n_q, seed=23)
    p["wk"] = p["wq"]
    p["q_gain"] = p["k_gain"] = np.full(d // n_q, 17.0)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords((2, 3))
    x = np.random.default_rng(24).standard_normal((6, d))
    with monkeypatch.context() as unlimited, np.errstate(over="ignore", invalid="ignore"):
        unlimited.setattr(ad, "EXP_LIMIT", np.inf)
        assert not np.isfinite(attention(x, p, freqs, coords)).all()
    got = attention(x, p, freqs, coords)
    assert np.isfinite(got).all()
    want = slow_attention(x, p, n_q, n_q, freqs, coords, 1e-6)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize(
    "grid,window", [((3, 5), (2, 2)), ((4, 4), (4, 2)), ((2, 3), (2, 1)), ((5, 2), (4, 4))]
)
def test_pooled_attention_matches_per_head_oracle(grid, window):
    n_q, n_kv, d = 4, 2, 32
    p = make_attn(d, n_q, n_kv, seed=11)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords(grid)
    x = np.random.default_rng(12).standard_normal((grid[0] * grid[1], d))
    got = attention(x, p, freqs, coords, kv_pool=(grid, window))
    want = slow_attention(x, p, n_q, n_kv, freqs, coords, 1e-6, kv_pool=(grid, window))
    assert np.allclose(got, want, atol=1e-12)


def test_grouped_kv_equals_duplicated_heads_bitwise():
    # duplicating each kv head's columns (so the shapes give n_kv = n_q)
    # must reproduce the grouped computation exactly: kv head j is broadcast
    # over query heads [j*group, (j+1)*group)
    d, n_q, n_kv = 16, 4, 2
    dh, group = d // n_q, n_q // n_kv
    p = make_attn(d, n_q, n_kv, seed=3)
    cols = [p["wk"][:, j * dh : (j + 1) * dh] for j in range(n_kv)]
    colsv = [p["wv"][:, j * dh : (j + 1) * dh] for j in range(n_kv)]
    wide = dict(
        p,
        wk=np.concatenate([c for j in range(n_kv) for c in [cols[j]] * group], axis=1),
        wv=np.concatenate([c for j in range(n_kv) for c in [colsv[j]] * group], axis=1),
    )
    freqs = rope.freq_matrix(100.0, dh, 2)
    coords = nk.grid_coords((2, 2))
    x = np.random.default_rng(4).standard_normal((4, d))
    grouped = attention(x, p, freqs, coords)
    ungrouped = attention(x, wide, freqs, coords)
    assert np.allclose(grouped, ungrouped, atol=1e-13)


def test_masked_attention_ignores_padding():
    d = 16
    p = make_attn(d, 2, 2, seed=5)
    freqs = rope.freq_matrix(100.0, 8, 2)
    coords = nk.grid_coords((1, 6))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 6, d))
    junk = x.copy()
    junk[:, 4:] = 1e6  # absurd values in the padded slots
    mask = np.zeros((2, 6), dtype=bool)
    mask[:, :4] = True
    out_masked = attention(junk, p, freqs, coords, mask=mask)
    out_ref = attention(x[:, :4], p, freqs, coords[:4])
    assert np.allclose(out_masked[:, :4], out_ref, atol=1e-12)


@pytest.mark.parametrize(
    "mask,kv_pool,message",
    [
        (np.zeros(4, dtype=bool), None, "no valid keys"),
        (np.ones(4, dtype=bool), ((2, 2), (2, 1)), "mask cannot apply"),
        # a key axis of 1 would broadcast over the 4 keys, one of 3 would not
        (np.ones((2, 1), dtype=bool), None, r"mask shape \(2, 1\) does not end in the 4 keys of coords \(4, 2\)"),
        (np.ones(3, dtype=bool), None, r"mask shape \(3,\) does not end in the 4 keys of coords \(4, 2\)"),
    ],
    ids=["no_valid_keys", "with_kv_pool", "one_key_column", "three_keys"],
)
def test_attention_mask_validation(mask, kv_pool, message):
    d = 16
    p = make_attn(d, 2, 2, seed=7)
    freqs = rope.freq_matrix(100.0, 8, 2)
    coords = nk.grid_coords((2, 2))
    x = np.zeros((2, 4, d))
    with pytest.raises(ValueError, match=message):
        attention(x, p, freqs, coords, mask=mask, kv_pool=kv_pool)


def test_attention_refuses_tables_built_for_another_kv_pool():
    # pooling follows the tables, so a kv_pool they were not built for would do nothing
    p = make_attn(16, 2, 2, seed=8)
    freqs = rope.freq_matrix(100.0, 8, 2)
    coords = nk.grid_coords((2, 2))
    x = np.ones((4, 16))
    with pytest.raises(ValueError, match="another kv_pool"):
        dit.gqa_attention(x, p, dit.attention_tables(coords, freqs), kv_pool=((2, 2), (2, 1)))
    with pytest.raises(ValueError, match="another kv_pool"):
        dit.gqa_attention(x, p, dit.attention_tables(coords, freqs, ((2, 2), (2, 1))))


def test_kv_pool_identity_window_is_bitwise_noop():
    d = 16
    p = make_attn(d, 2, 2, seed=8)
    freqs = rope.freq_matrix(100.0, 8, 2)
    coords = nk.grid_coords((2, 2))
    x = np.random.default_rng(9).standard_normal((4, d))
    plain = attention(x, p, freqs, coords)
    noop = attention(x, p, freqs, coords, kv_pool=((2, 2), (1, 1)))
    pooled = attention(x, p, freqs, coords, kv_pool=((2, 2), (2, 1)))
    assert np.array_equal(plain, noop)
    assert not np.allclose(plain, pooled, atol=1e-6)


@pytest.mark.parametrize(
    "n_q,n_kv,extra",
    [
        (4, 4, {}),
        (4, 2, {"kv_pool": ((4, 4), (2, 2))}),
        (4, 2, {"mask": [[True] * 16, [True] * 10 + [False] * 6]}),
    ],
    ids=["mha", "gqa_kv_pool", "gqa_mask"],
)
def test_attention_is_translation_invariant(n_q, n_kv, extra):
    # RoPE makes the scores depend on coordinates only through differences,
    # so moving the whole grid (and the pooled coordinates with it) by one
    # constant vector leaves the attention output unchanged
    d = 32
    p = make_attn(d, n_q, n_kv, seed=3 * n_q + n_kv)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords((4, 4))
    x = np.random.default_rng(17).standard_normal((2, 16, d))
    base = attention(x, p, freqs, coords, **extra)
    for shift in ([41.0, 17.25], [-3.5, 7.0], [0.125, -60.0]):
        moved = attention(x, p, freqs, coords + np.array(shift), **extra)
        assert np.max(np.abs(moved - base)) <= 1e-12, shift


def softmax(logits):
    """Max-subtracted softmax over the last axis, one tape node when taped."""
    lv = ad.val(logits)
    z = np.exp(lv - np.max(lv, axis=-1, keepdims=True))
    out = z / np.sum(z, axis=-1, keepdims=True)
    if not isinstance(logits, ad.Var):
        return out
    return ad.Var(out, (logits,), lambda g: (out * (g - np.sum(g * out, axis=-1, keepdims=True)),))


def general_attention(x, p, freqs, coords, mask=None, kv_pool=None):
    """gqa_attention's general expression, with no one-token shortcut and
    a plain softmax before the AV product."""
    d_head = ad.val(p["q_gain"]).shape[-1]
    group = ad.val(p["wq"]).shape[-1] // ad.val(p["wk"]).shape[-1]
    q, k, v = (ad.matmul(x, p[w]) for w in ("wq", "wk", "wv"))
    rope_q, pool, rope_k, _ = dit.attention_tables(coords, freqs, kv_pool)
    k, v = cd.pool_kv(k, v, pool)
    q, k, v = dit._split_heads(q, d_head, group), dit._split_heads(k, d_head), dit._split_heads(v, d_head)
    q, k = ad.rms_norm(q, p["q_gain"]), ad.rms_norm(k, p["k_gain"])
    logits = ad.mul(rope.rope_attention_logits(q, k, rope_q, rope_k), 1.0 / np.sqrt(d_head))
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        logits = ad.add(logits, np.where(keep, 0.0, -np.inf)[..., None, None, None, :])
    out = ad.matmul(softmax(logits), v)
    return ad.matmul(dit._merge_heads(out), p["wo"])


@pytest.mark.parametrize("n_q,n_kv", [(4, 4), (4, 2)])
@pytest.mark.parametrize("extra", [{}, {"mask": [True]}, {"kv_pool": ((1, 1), (1, 1))}])
def test_one_token_attention_is_the_general_expression_bitwise(n_q, n_kv, extra):
    d = 32
    p = make_attn(d, n_q, n_kv, seed=n_q + n_kv)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords((1, 1))
    rng = np.random.default_rng(13)
    x = rng.standard_normal((5, 1, d))
    weights = rng.standard_normal((5, 1, d))
    got = attention(x, p, freqs, coords, **extra)
    assert np.array_equal(got, general_attention(x, p, freqs, coords, **extra))

    grads = []
    for forward in (attention, general_attention):
        xv, pv = ad.Var(x), {name: ad.Var(a) for name, a in p.items()}
        out = forward(xv, pv, freqs, coords, **extra)
        ad.sum_(ad.mul(out, weights)).backward()
        assert np.array_equal(out.value, got)
        grads.append([xv.grad, pv["wv"].grad, pv["wo"].grad])
    for fast, general in zip(*grads):
        assert np.array_equal(fast, general)


@pytest.mark.parametrize("n_q,n_kv", [(4, 4), (4, 2)])
@pytest.mark.parametrize(
    "extra",
    [{}, {"mask": [[True] * 16, [True] * 11 + [False] * 5]}, {"kv_pool": ((4, 4), (2, 2))}],
    ids=["full", "mask", "kv_pool"],
)
def test_multi_token_untracked_attention_is_the_taped_value_bitwise(n_q, n_kv, extra):
    # the untracked core normalises the logits in place; the tape runs the
    # same ops as nodes, so both must give the same bits
    d = 32
    p = make_attn(d, n_q, n_kv, seed=5 * n_q + n_kv)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords((4, 4))
    x = np.random.default_rng(19).standard_normal((2, 16, d))
    got = attention(x, p, freqs, coords, **extra)
    taped = attention(ad.Var(x), {name: ad.Var(a) for name, a in p.items()}, freqs, coords, **extra)
    assert isinstance(taped, ad.Var)
    assert got.tobytes() == taped.value.tobytes()


def test_untracked_full_attention_does_not_page_fault():
    # one scores-sized array per call, reused by the allocator, touches no
    # fresh pages; each extra scores-sized temporary costs 977 of them here
    resource = pytest.importorskip("resource")
    d, n_q, n_kv = 64, 4, 2
    p = make_attn(d, n_q, n_kv, seed=21)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords((10, 25))
    x = np.random.default_rng(22).standard_normal((2, 250, d))
    scores_pages = 2 * n_q * 250 * 250 * 8 / 4096  # [2, n_kv, group, 250, 250] f64
    for _ in range(3):
        attention(x, p, freqs, coords)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        attention(x, p, freqs, coords)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50
    assert faults < scores_pages / 4, faults


def test_one_token_attention_keeps_its_checks():
    p = make_attn(16, 2, 2, seed=14)
    freqs = rope.freq_matrix(100.0, 8, 2)
    coords = nk.grid_coords((1, 1))
    x = np.ones((1, 16))
    with pytest.raises(ValueError, match="no valid keys"):
        attention(x, p, freqs, coords, mask=[False])
    with pytest.raises(ValueError, match="grid"):
        attention(x, p, freqs, coords, kv_pool=((2, 1), (1, 1)))


@pytest.mark.parametrize("n_q,n_kv", [(4, 2), (4, 1)])
@pytest.mark.parametrize(
    "extra",
    [{"kv_pool": ((2, 3), (2, 2))}, {"mask": [[True] * 6, [True] * 4 + [False] * 2]}],
    ids=["kv_pool", "mask"],
)
def test_grouped_attention_gradients_match_finite_differences(n_q, n_kv, extra):
    # each kv head is broadcast over its query group, so its cotangent must
    # come back summed over that group through matmul's backward
    d, eps = 16, 1e-6
    p = make_attn(d, n_q, n_kv, seed=10 * n_q + n_kv)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords((2, 3))
    rng = np.random.default_rng(n_kv)
    inputs = {"x": rng.standard_normal((2, 6, d)), **p}
    weights = rng.standard_normal((2, 6, d))

    def loss(named):
        return ad.sum_(ad.mul(attention(named["x"], named, freqs, coords, **extra), weights))

    tracked = {name: ad.Var(a) for name, a in inputs.items()}
    loss(tracked).backward()
    for name, value in inputs.items():
        fd = np.zeros_like(value)
        for i in np.ndindex(value.shape):
            shifted = value.copy()
            shifted[i] += eps
            up = float(loss(dict(inputs, **{name: shifted})))
            shifted[i] -= 2 * eps
            fd[i] = (up - float(loss(dict(inputs, **{name: shifted})))) / (2 * eps)
        err = np.abs(tracked[name].grad - fd).max()
        assert err < 1e-7 * max(1.0, np.abs(fd).max()), (name, err)


def test_attention_permutation_equivariance():
    d = 16
    p = make_attn(d, 4, 2, seed=10)
    freqs = rope.freq_matrix(100.0, 4, 2)
    coords = nk.grid_coords((2, 3))
    x = np.random.default_rng(11).standard_normal((6, d))
    perm = np.random.default_rng(12).permutation(6)
    out = attention(x, p, freqs, coords)
    out_p = attention(x[perm], p, freqs, coords[perm])
    assert np.allclose(out_p, out[perm], atol=1e-12)


def test_qk_norm_returns_head_major_rows_and_layout_moves_no_bits():
    # the split heads are a transposed, token-major view; rms_norm allocates
    # its result in C order, and an elementwise product is exactly rounded,
    # so the layout changes no byte of the values or of either gradient
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 12, 32))
    gain = rng.uniform(0.5, 1.5, 8)
    weights = rng.standard_normal((2, 2, 2, 12, 8))
    view = dit._split_heads(x, 8, 2)
    assert view.shape == weights.shape and not view.flags.c_contiguous
    out = ad.rms_norm(view, gain)
    assert out.flags.c_contiguous
    assert out.tobytes() == ad.rms_norm(np.ascontiguousarray(view), gain).tobytes()

    taped = []
    for source, split in ((x, True), (np.ascontiguousarray(view), False)):
        xv, gv = ad.Var(source), ad.Var(gain)
        heads = dit._split_heads(xv, 8, 2) if split else xv
        normed = ad.rms_norm(heads, gv)
        ad.sum_(ad.mul(normed, weights)).backward()
        assert normed.value.flags.c_contiguous
        taped.append((normed.value, heads.grad, gv.grad))
    assert taped[0][0].tobytes() == out.tobytes()
    for split, contiguous in zip(*taped):
        assert split.tobytes() == contiguous.tobytes()

    cos, sin = rope.rope_tables(nk.grid_coords((3, 4)), rope.freq_matrix(100.0, 8, 2))
    rotated = ad.rotate_pairs(view, cos, sin)
    assert rotated.tobytes() == ad.rotate_pairs(np.ascontiguousarray(view), cos, sin).tobytes()


def test_patchify_layout_against_loop():
    patch, h, w, c = 2, 4, 6, 3
    x = np.arange(h * w * c, dtype=float).reshape(h, w, c)
    tokens, coords, grid = dit.patchify(x[None], patch)
    assert grid == (2, 3)
    assert np.array_equal(coords, nk.grid_coords(grid))
    for r in range(2):
        for col in range(3):
            want = x[r * patch : (r + 1) * patch, col * patch : (col + 1) * patch].reshape(-1)
            assert np.array_equal(tokens[0, r * 3 + col], want)


def test_patchify_roundtrip_bitwise():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 4, 6, 3))
    tokens, _, grid = dit.patchify(x, 2)
    back = dit.unpatchify(tokens, grid, 2, 3)
    assert np.array_equal(back, x)


def test_patchify_validation():
    with pytest.raises(ValueError, match="expected"):
        dit.patchify(np.zeros((4, 4)), 2)
    with pytest.raises(ValueError, match="divisible"):
        dit.patchify(np.zeros((1, 5, 4, 2)), 2)


@pytest.mark.parametrize("call", ["patchify", "forward_velocity", "recognition_forward"])
def test_unbatched_inputs_raise_value_error(call):
    # one image [H, W, C] or one token set [n, token_dim] without its batch axis
    if call == "patchify":
        run = lambda: dit.patchify(np.zeros((4, 4, 2)), 2)
    elif call == "forward_velocity":
        model = dit.init_model(small_config(), seed=0)
        run = lambda: dit.forward_velocity(model, np.zeros((4, 4, 2)), 0.5)
    else:
        model = dit.init_model(small_config(mode="recognition", n_classes=2), seed=0)
        tokens = np.zeros((4, model.config.token_dim))
        run = lambda: dit.recognition_forward(model, tokens, nk.grid_coords((2, 2)))
    with pytest.raises(ValueError, match=r"\[B,"):
        run()


def test_time_embedding_shape_and_determinism():
    model = dit.init_model(small_config(), seed=0)
    t = np.array([0.0, 0.25, 1.0])
    e1 = dit.time_embedding(model, t)
    e2 = dit.time_embedding(model, t)
    assert e1.shape == (3, 16)
    assert np.array_equal(e1, e2)
    assert not np.allclose(e1[0], e1[2])


def test_forward_velocity_batch_consistency():
    config = small_config()
    model = randomized(dit.init_model(config, seed=0), seed=1)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 4, 4, 2))
    t = np.array([0.1, 0.5, 0.9])
    out = dit.forward_velocity(model, x, t)
    for i in range(3):
        # blas may pick a different kernel for batch 1: equal to rounding
        single = dit.forward_velocity(model, x[i][None], float(t[i]))[0]
        assert np.allclose(out[i], single, atol=1e-12)


def test_forward_velocity_validation():
    config = small_config()
    model = dit.init_model(config, seed=0)
    x = np.zeros((2, 4, 4, 2))
    with pytest.raises(ValueError, match="t has shape"):
        dit.forward_velocity(model, x, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="no label table"):
        dit.forward_velocity(model, x, 0.2, label=np.array([0, 1]))
    rec = dit.init_model(small_config(mode="recognition", n_classes=3), seed=0)
    with pytest.raises(ValueError, match="generative-mode"):
        dit.forward_velocity(rec, x, 0.2)


@pytest.mark.parametrize("grid", [(6, 2), (3, 4)], ids=["transposed", "reshaped"])
def test_forward_velocity_rejects_a_kv_pool_grid_that_is_not_the_patch_grid(grid):
    """12 tokens fit both wrong grids, whose windows pool other tokens."""
    model = randomized(dit.init_model(small_config(), seed=0), seed=1)
    x = np.random.default_rng(17).standard_normal((2, 4, 12, 2))  # a 2x6 patch grid
    assert dit.forward_velocity(model, x, 0.5, kv_pool=((2, 6), (2, 2))).shape == x.shape
    with pytest.raises(ValueError, match=r"kv_pool grid \(\d, \d\) is not the patch grid \(2, 6\)"):
        dit.forward_velocity(model, x, 0.5, kv_pool=(grid, (2, 2)))


@pytest.mark.parametrize(
    "config,side",
    [(flowlab.point_model_config(), 1), (small_config(n_q_heads=4, n_kv_heads=2, n_classes=3), 4)],
    ids=["point", "gqa_labels"],
)
def test_scalar_t_equals_per_sample_t(config, side):
    # a scalar t conditions through one row; per-sample t through batch rows
    model = randomized(dit.init_model(config, seed=0), seed=3)
    x = np.random.default_rng(15).standard_normal((6, side, side, config.in_channels))
    for t in (0.0, 0.37, 1.0):
        one_row = dit.forward_velocity(model, x, t)
        assert np.allclose(one_row, dit.forward_velocity(model, x, np.full(6, t)), rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError, match="t has shape"):
        dit.forward_velocity(model, x, np.full((6, 1), 0.5))


def test_label_conditioning_changes_output():
    config = small_config(n_classes=4)
    model = randomized(dit.init_model(config, seed=0), seed=2)
    x = np.random.default_rng(15).standard_normal((2, 4, 4, 2))
    null = dit.forward_velocity(model, x, 0.4)
    lab = dit.forward_velocity(model, x, 0.4, label=np.array([0, 3]))
    assert not np.allclose(null, lab, atol=1e-8)
    with pytest.raises(ValueError, match="labels must be"):
        dit.forward_velocity(model, x, 0.4, label=np.array([0, 4]))
    with pytest.raises(ValueError, match="labels must be"):
        dit.forward_velocity(model, x, 0.4, label=np.array([1]))


@pytest.mark.parametrize(
    "n_classes,label",
    [(4, [0.5, 1.0]), (4, [0.0, 1.0]), (4, [True, False]), (2, [True, False, True])],
    ids=["fractional_floats", "integral_floats", "bools", "bools_one_per_class"],
)
def test_labels_must_be_integer_ids(n_classes, label):
    # numpy would index with floats or with a boolean mask, failing with an error that names no label
    model = dit.init_model(small_config(n_classes=n_classes), seed=0)
    x = np.zeros((len(label), 4, 4, 2))
    with pytest.raises(ValueError, match=f"labels must be {len(label)} ids below {n_classes}"):
        dit.forward_velocity(model, x, 0.4, label=np.array(label))


def with_token_axis(u):
    """The earlier conditioning layout's reshape node: [..., d] -> [..., 1, d]."""
    shape = ad.val(u).shape
    return ad.reshape(u, shape[:-1] + (1, shape[-1]))


def token_axis_last_modulation(cond, block, d):
    """block_modulation's oracle: a [T, d] projection, then the token axis."""
    mod = with_token_axis(ad.add(ad.matmul(ad.silu(cond), block["w_mod"]), block["b_mod"]))
    shift_a, scale_a, gate_a, shift_m, scale_m, gate_m = (mod[..., part] for part in dit.modulation_slices(d).values())
    return [shift_a, ad.add(scale_a, 1.0), ad.tanh(gate_a), shift_m, ad.add(scale_m, 1.0), ad.tanh(gate_m)]


def token_axis_last_velocity(model, x_t, t_arr, idx):
    """forward_velocity's one-part oracle from a [T, d] conditioning row."""
    config, p = model.config, model.params
    tokens, coords, grid = dit.patchify(x_t, config.patch)
    cond = ad.add(dit.time_embedding(model, t_arr), p["label_embed"][idx])
    blocks = dit._blocks(model)
    mods = [token_axis_last_modulation(cond, block, config.d_model) for block in blocks]
    scale = ad.add(with_token_axis(ad.add(ad.matmul(ad.silu(cond), p["w_final_mod"]), p["b_final_mod"])), 1.0)
    h = dit._trunk(model, blocks, tokens, mods, dit.attention_tables(coords, dit.model_freqs(config)))
    out = ad.add(ad.matmul(ad.rms_norm(h, scale), p["w_out"]), p["b_out"])
    return dit.unpatchify(out, grid, config.patch, config.in_channels)


@pytest.mark.parametrize("rows", [1, 512])
def test_block_modulation_equals_the_token_axis_last_form_bitwise(rows):
    # a [T, 1, d] row projects as the same GEMM over T rows, and the b_mod
    # cotangent sums the size-1 token axis exactly, so values and gradients
    # keep their bytes on any machine
    d = 32
    rng = np.random.default_rng(rows)
    cond = rng.standard_normal((rows, d))
    params = {"w_mod": rng.standard_normal((d, 4 * d + 2)), "b_mod": rng.standard_normal(4 * d + 2)}
    weights = [rng.standard_normal((rows, 1, s.stop - s.start)) for s in dit.modulation_slices(d).values()]
    for got, want in zip(dit.block_modulation(cond[:, None], params, d), token_axis_last_modulation(cond, params, d)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def grads(modulation, cond_value):
        leaves = {"cond": ad.Var(cond_value), **{name: ad.Var(a) for name, a in params.items()}}
        loss = None
        for part, w in zip(modulation(leaves["cond"], leaves, d), weights):
            term = ad.sum_(ad.mul(part, w))
            loss = term if loss is None else ad.add(loss, term)
        loss.backward()
        return loss.value, {name: leaf.grad for name, leaf in leaves.items()}

    got_loss, got = grads(dit.block_modulation, cond[:, None])
    want_loss, want = grads(token_axis_last_modulation, cond)
    assert got_loss.tobytes() == want_loss.tobytes()
    assert got["cond"].shape == (rows, 1, d) and got.pop("cond").tobytes() == want.pop("cond").tobytes()
    assert all(got[name].shape == want[name].shape and got[name].tobytes() == want[name].tobytes() for name in want)


@pytest.mark.parametrize("label", [None, [2, 0, 1, 2]], ids=["null_row", "labels"])
def test_forward_velocity_equals_the_token_axis_last_form_bitwise(label):
    # the label table's gradient scatters through idx[:, None] as through idx
    config = small_config(n_q_heads=4, n_kv_heads=2, n_classes=3)
    model = flowlab.wrap_parameters(randomized(dit.init_model(config, seed=0), seed=5))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 4, 6, config.in_channels))
    weights = rng.standard_normal(x.shape)
    if label is None:
        t, t_arr, idx = 0.3, np.full(1, 0.3), np.full(1, config.n_classes)
    else:
        t = t_arr = rng.uniform(0, 1, 4)
        label = idx = np.array(label)
    results = []
    for v in (dit.forward_velocity(model, x, t, label=label), token_axis_last_velocity(model, x, t_arr, idx)):
        loss = ad.sum_(ad.mul(v, weights))
        results.append((v.value, flowlab.grad(model, loss)))
    (got_v, got), (want_v, want) = results
    assert got_v.tobytes() == want_v.tobytes()
    assert want["label_embed"].any() and list(got) == list(want)
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)


def test_forward_velocity_capture_collects_block_outputs():
    config = small_config(n_layers=3)
    model = dit.init_model(config, seed=0)
    states = []
    x = np.random.default_rng(16).standard_normal((2, 4, 4, 2))
    dit.forward_velocity(model, x, 0.5, capture=states)
    assert len(states) == 3
    assert all(s.shape == (2, 4, config.d_model) for s in states)


def test_recognition_zero_gates_reduce_to_embedding_head():
    config = small_config(mode="recognition", n_classes=5)
    model = dit.init_model(config, seed=0)
    rng = np.random.default_rng(17)
    tokens = rng.standard_normal((3, 6, config.token_dim))
    coords = nk.grid_coords((2, 3))
    mask = np.ones((3, 6), dtype=bool)
    mask[0, 4:] = False
    logits = dit.recognition_forward(model, tokens, coords, mask=mask)
    # gates start at zero: the trunk is the identity, so only the
    # embedding, the masked mean, and the head participate
    p = model.params
    h = tokens @ p["w_embed"] + p["b_embed"]
    w = mask / mask.sum(-1, keepdims=True)
    pooled = (h * w[..., None]).sum(-2)
    z = pooled @ p["head_w1"] + p["head_b1"]
    h1 = z * (1.0 / (1.0 + np.exp(-z)))
    want = h1 @ p["head_w2"] + p["head_b2"]
    assert logits.shape == (3, 5)
    assert np.allclose(logits, want, atol=1e-12)


def test_recognition_padding_invariance_with_active_gates():
    config = small_config(mode="recognition", n_classes=4, n_layers=2)
    model = dit.init_model(config, seed=0)
    for i in range(config.n_layers):
        dit.set_parameter(model, f"blocks.{i}.gates", np.array([0.8, 0.6]))
    rng = np.random.default_rng(18)
    coords = nk.grid_coords((1, 8))
    full = rng.standard_normal((8, config.token_dim))
    padded = np.concatenate([full[:5], 1e5 * np.ones((3, config.token_dim))])
    mask = np.array([True] * 5 + [False] * 3)
    got = dit.recognition_forward(model, padded[None], coords, mask=mask[None])
    want = dit.recognition_forward(model, full[:5][None], coords[:5])
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize(
    "mode,mask,message",
    [
        ("recognition", np.zeros((2, 4), dtype=bool), "mask leaves a sample with no valid keys"),
        ("generative", None, "recognition-mode"),
        # a [2, 1] mask would broadcast to a token sum, not a mean
        ("recognition", np.ones((2, 1), dtype=bool), r"mask shape \(2, 1\) is not the tokens' \(2, 4\)"),
        ("recognition", np.ones(4, dtype=bool), r"mask shape \(4,\) is not the tokens' \(2, 4\)"),
    ],
    ids=["no_valid_tokens", "generative_model", "mask_2x1", "mask_without_batch"],
)
def test_recognition_validation(mode, mask, message):
    config = small_config(mode=mode, n_classes=2)
    model = dit.init_model(config, seed=0)
    tokens = np.zeros((2, 4, config.token_dim))
    coords = nk.grid_coords((2, 2))
    with pytest.raises(ValueError, match=message):
        dit.recognition_forward(model, tokens, coords, mask=mask)


def test_activation_probe_rows_and_determinism():
    config = small_config(n_layers=3)
    model = randomized(dit.init_model(config, seed=0), seed=3)
    rows = dit.activation_probe(model, (4, 4), [0.0, 0.5, 1.0], n_samples=2, seed=9)
    assert len(rows) == 9
    assert [r[0] for r in rows[:3]] == [0, 1, 2]
    assert all(r[3] >= r[2] > 0.0 for r in rows)
    again = dit.activation_probe(model, (4, 4), [0.0, 0.5, 1.0], n_samples=2, seed=9)
    assert rows == again


def test_named_parameters_unique_and_settable():
    model = dit.init_model(small_config(n_classes=2), seed=0)
    names = [n for n, _ in dit.named_parameters(model)]
    assert len(names) == len(set(names))
    assert "blocks.0.attn.wq" in names and "label_embed" in names
    probe = np.full_like(model.params["blocks.1.w_mlp1"], 0.5)
    dit.set_parameter(model, "blocks.1.w_mlp1", probe)
    # the value is written into the parameter's view of the model's vector
    assert np.shares_memory(model.params["blocks.1.w_mlp1"], model.flat)
    assert np.array_equal(model.params["blocks.1.w_mlp1"], probe)
    with pytest.raises(KeyError, match="no parameter"):
        dit.set_parameter(model, "blocks.9.w_mlp1", probe)


@pytest.mark.parametrize(
    "name,value",
    [("w_embed", np.zeros(3)), ("blocks.0.w_mlp1", np.zeros(64)), ("b_embed", np.zeros((1, 16))), ("b_embed", 0.0)],
    ids=["rank_1_into_a_matrix", "row_broadcast_into_every_row", "extra_axis", "scalar"],
)
def test_set_parameter_refuses_any_other_shape(name, value):
    model = dit.init_model(small_config(), seed=0)
    keep = model.flat.copy()
    message = f"parameter {name} has shape {model.params[name].shape}; got a value of shape {np.shape(value)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        dit.set_parameter(model, name, value)
    assert model.flat.tobytes() == keep.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_set_parameter_stores_f64(dtype):
    model = dit.init_model(small_config(), seed=0)
    value = np.arange(16).astype(dtype)
    dit.set_parameter(model, "b_embed", value)
    stored = model.params["b_embed"]
    assert stored.dtype == np.float64 and np.shares_memory(stored, model.flat)
    assert np.array_equal(stored, np.arange(16.0))


def test_parameter_names_match_the_committed_checkpoint_manifest():
    # perturbations and checkpoints walk the parameters in this order
    manifest = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoint" / "manifest.json"
    want = json.loads(manifest.read_text())["tensors"]
    model = dit.init_model(flowlab.point_model_config(), seed=0)
    assert len(want) == 38
    assert [name for name, _ in dit.named_parameters(model)] == want


@pytest.mark.parametrize(
    "config,size,digest",
    [
        (
            dit.ModelConfig(d_model=32, n_layers=2, n_q_heads=4, n_kv_heads=2, n_classes=3),
            36268,
            "5ccea2cc4079d0dcb4e461bc4268058a0941e6e86e41cf83b5ae30efea7eac94",
        ),
        (
            dit.ModelConfig(d_model=16, n_layers=2, n_q_heads=2, n_kv_heads=1, mode="recognition", n_classes=5),
            6297,
            "72af37b42832e7b354e698352151ce506f4da4845a085da09bc3f102ae4bf70d",
        ),
    ],
    ids=["generative_gqa_labels", "recognition"],
)
def test_init_draws_are_pinned(config, size, digest):
    # a change in the draw order, the shapes or the manifest order moves the digest
    params = dit.named_parameters(dit.init_model(config, seed=0))
    flat = np.concatenate([a.ravel() for _, a in params])
    assert flat.size == size
    assert hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest() == digest


def test_checkpoint_roundtrip_bitwise(tmp_path):
    config = small_config(n_classes=3)
    model = randomized(dit.init_model(config, seed=0), seed=4)
    dit.save_model(tmp_path / "ckpt", model)
    loaded = dit.load_model(tmp_path / "ckpt")
    assert loaded.config == config
    for (name, a), (_, b) in zip(dit.named_parameters(model), dit.named_parameters(loaded)):
        assert np.array_equal(a, b), name


def test_load_model_draws_no_weight(tmp_path, monkeypatch):
    """The layout comes from the shapes alone, and every entry of the loaded
    vector is a stored one, with the manifest's layout."""
    config = small_config(n_classes=3)
    model = randomized(dit.init_model(config, seed=0), seed=5)
    dit.save_model(tmp_path / "ckpt", model)

    def draw(*args):
        raise AssertionError("load_model drew a weight")

    monkeypatch.setattr(dit, "_trunc_normal", draw)
    loaded = dit.load_model(tmp_path / "ckpt")
    assert loaded.flat.tobytes() == model.flat.tobytes()
    assert list(loaded.params) == list(model.params)
    assert all(np.shares_memory(view, loaded.flat) for view in loaded.params.values())


def test_checkpoint_rejects_bad_format(tmp_path):
    model = dit.init_model(small_config(), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    manifest = (tmp_path / "ckpt" / "manifest.json")
    text = manifest.read_text().replace(dit.CHECKPOINT_FORMAT, "other-format")
    manifest.write_text(text)
    with pytest.raises(ValueError, match="unknown checkpoint format"):
        dit.load_model(tmp_path / "ckpt")


def test_checkpoint_rejects_manifest_mismatch(tmp_path):
    import json

    model = dit.init_model(small_config(), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    manifest["tensors"] = manifest["tensors"][:-1]
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest does not match"):
        dit.load_model(tmp_path / "ckpt")


def test_saved_manifest_config_keeps_the_fixed_values(tmp_path):
    # older flowdit versions read axes, rope_base, mlp_ratio, eps and time_dim as config fields
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoint"
    want = json.loads((committed / "manifest.json").read_text())["config"]
    fixed = {"axes": 2, "rope_base": 10000.0, "mlp_ratio": 4, "eps": 1e-6, "time_dim": 64}
    assert {key: want[key] for key in fixed} == fixed
    assert dit.load_model(committed).config == flowlab.point_model_config()
    dit.save_model(tmp_path / "ckpt", dit.init_model(flowlab.point_model_config(), seed=0))
    assert json.loads((tmp_path / "ckpt" / "manifest.json").read_text())["config"] == want


def test_committed_checkpoint_loads_as_f64():
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoint"
    model = dit.load_model(committed)
    for name, value in dit.named_parameters(model):
        assert (committed / f"{name}.nkt").read_bytes()[4] == 2, name  # the f64 tag
        assert value.dtype == np.float64, name


def test_checkpoint_without_the_fixed_values_loads(tmp_path):
    model = randomized(dit.init_model(small_config(), seed=0), seed=2)
    dit.save_model(tmp_path / "ckpt", model)
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    for key in dit.FIXED_MANIFEST_CONFIG:
        del manifest["config"][key]
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    loaded = dit.load_model(tmp_path / "ckpt")
    assert loaded.config == model.config
    for (name, a), (_, b) in zip(dit.named_parameters(model), dit.named_parameters(loaded)):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize(
    "key,value",
    [("axes", 3), ("rope_base", float("nan")), ("mlp_ratio", 2), ("eps", 1e-5), ("eps", -1e-3), ("time_dim", 16)],
    ids=["axes", "rope_base", "mlp_ratio", "eps", "eps_negative", "time_dim"],
)
def test_checkpoint_rejects_other_fixed_values(tmp_path, key, value):
    # a manifest comes from outside the program; it may name a fixed value only at that value
    dit.save_model(tmp_path / "ckpt", dit.init_model(small_config(), seed=0))
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    manifest["config"][key] = value
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(f"config {key} is {value!r}; flowdit fixes it at")):
        dit.load_model(tmp_path / "ckpt")


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    model = dit.init_model(small_config(), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    dit._save_tensor(tmp_path / "ckpt" / "w_embed.nkt", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="stored shape"):
        dit.load_model(tmp_path / "ckpt")


@pytest.mark.parametrize("occupant", ["file", "directory"])
def test_save_model_refuses_to_replace_what_is_not_a_checkpoint(tmp_path, occupant):
    target = tmp_path / "model"
    if occupant == "file":
        target.write_text("keep")
    else:
        target.mkdir()
        (target / "notes.txt").write_text("keep")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    with pytest.raises(FileExistsError, match=f"{target} exists and is neither a checkpoint nor an empty directory"):
        dit.save_model(target, dit.init_model(small_config(), seed=0))
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]  # no temp dirs left


def test_save_model_fills_an_empty_directory(tmp_path):
    (tmp_path / "ckpt").mkdir()
    model = randomized(dit.init_model(small_config(), seed=0), seed=1)
    dit.save_model(tmp_path / "ckpt", model)
    loaded = dit.load_model(tmp_path / "ckpt")
    for (name, a), (_, b) in zip(dit.named_parameters(model), dit.named_parameters(loaded)):
        assert np.array_equal(a, b), name


def test_checkpoint_rejects_non_finite_tensor(tmp_path):
    model = dit.init_model(small_config(), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    name, value = dit.named_parameters(model)[3]
    bad = value.copy()
    bad.flat[1] = np.nan
    dit._save_tensor(tmp_path / "ckpt" / f"{name}.nkt", bad)
    with pytest.raises(ValueError, match="non-finite") as err:
        dit.load_model(tmp_path / "ckpt")
    assert name in str(err.value)


def test_checkpoint_overwrite_is_all_or_nothing(tmp_path, monkeypatch):
    def assert_loads_as(model):
        assert [q.name for q in tmp_path.iterdir()] == ["ckpt"]  # no temp dirs left
        loaded = dit.load_model(tmp_path / "ckpt")
        for (name, a), (_, b) in zip(dit.named_parameters(model), dit.named_parameters(loaded)):
            assert np.array_equal(a, b), name

    old = randomized(dit.init_model(small_config(), seed=0), seed=1)
    new = randomized(dit.init_model(small_config(), seed=5), seed=6)
    dit.save_model(tmp_path / "ckpt", old)
    save_tensor = dit._save_tensor
    calls = []

    def failing_save(path, x):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        save_tensor(path, x)

    monkeypatch.setattr(dit, "_save_tensor", failing_save)
    with pytest.raises(OSError, match="disk full"):
        dit.save_model(tmp_path / "ckpt", new)
    monkeypatch.undo()
    assert_loads_as(old)
    dit.save_model(tmp_path / "ckpt", new)
    assert_loads_as(new)
