"""Transformer trunk contracts: zero-init identity, attention against a
per-head loop oracle, grouped-query expansion, masking, patch layout,
and checkpoint round-trips."""

import dataclasses

import numpy as np
import pytest

from flowdit import autodiff as ad
from flowdit import dit
from flowdit import numkernel as nk
from flowdit import rope


def small_config(**overrides):
    kw = dict(d_model=16, n_layers=2, n_q_heads=2, n_kv_heads=2, patch=2,
              in_channels=2, axes=2, time_dim=8)
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
    with pytest.raises(ValueError, match="query heads"):
        small_config(d_model=18, n_q_heads=4)
    with pytest.raises(ValueError, match="kv heads"):
        small_config(n_q_heads=2, n_kv_heads=3)
    with pytest.raises(ValueError, match="2\\*axes"):
        small_config(axes=3)
    with pytest.raises(ValueError, match="time_dim"):
        small_config(time_dim=7)
    with pytest.raises(ValueError, match="n_classes"):
        small_config(mode="recognition", n_classes=0)
    with pytest.raises(ValueError, match="positive"):
        small_config(patch=0)


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
    w = model.blocks[0].attn.wq
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
    y = dit.sandwich_block(x, cond, model.blocks[0], config, freqs, coords)
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


def loop_pool(x, grid, window):
    """Window means of a row-major token grid, gathered one window at a time."""
    (h, w), (wh, ww) = grid, window
    cells = [
        [r * w + c for r in range(i, min(i + wh, h)) for c in range(j, min(j + ww, w))]
        for i in range(0, h, wh)
        for j in range(0, w, ww)
    ]
    return np.stack([x[cell].mean(axis=0) for cell in cells])


def slow_attention(x, p, freqs, coords, eps, kv_pool=None):
    """Per-head loop with explicit softmax; handles grouping by indexing.

    kv_pool = (grid, window) loop-pools keys, values and key coordinates.
    """
    n, d = x.shape
    dh = d // p.n_q_heads
    group = p.n_q_heads // p.n_kv_heads
    q, k, v = x @ p.wq, x @ p.wk, x @ p.wv
    coords_k = coords
    if kv_pool is not None:
        k, v, coords_k = (loop_pool(a, *kv_pool) for a in (k, v, coords))
    outs = []
    for i in range(p.n_q_heads):
        j = i // group
        qi = q[:, i * dh : (i + 1) * dh]
        kj = k[:, j * dh : (j + 1) * dh]
        vj = v[:, j * dh : (j + 1) * dh]
        qi = qi / np.sqrt(np.mean(qi * qi, -1, keepdims=True) + eps) * p.q_gain
        kj = kj / np.sqrt(np.mean(kj * kj, -1, keepdims=True) + eps) * p.k_gain
        qi = rotate_complex(qi, coords, freqs)
        kj = rotate_complex(kj, coords_k, freqs)
        logits = qi @ kj.T / np.sqrt(dh)
        w = np.exp(logits - logits.max(-1, keepdims=True))
        w = w / w.sum(-1, keepdims=True)
        outs.append(w @ vj)
    return np.concatenate(outs, -1) @ p.wo


def make_attn(d, n_q, n_kv, seed):
    rng = np.random.default_rng(seed)
    dh = d // n_q
    return dit.AttentionParams(
        wq=rng.standard_normal((d, d)),
        wk=rng.standard_normal((d, n_kv * dh)),
        wv=rng.standard_normal((d, n_kv * dh)),
        wo=rng.standard_normal((d, d)),
        q_gain=rng.uniform(0.5, 1.5, dh),
        k_gain=rng.uniform(0.5, 1.5, dh),
        n_q_heads=n_q,
        n_kv_heads=n_kv,
    )


@pytest.mark.parametrize("n_q,n_kv", [(2, 2), (4, 2), (4, 1)])
def test_attention_matches_per_head_oracle(n_q, n_kv):
    d = 8 * n_q
    p = make_attn(d, n_q, n_kv, seed=n_q * 10 + n_kv)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords((2, 3))
    x = np.random.default_rng(0).standard_normal((6, d))
    got = dit.gqa_attention(x, p, freqs, coords)
    want = slow_attention(x, p, freqs, coords, 1e-6)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize(
    "grid,window", [((3, 5), (2, 2)), ((4, 4), (4, 2)), ((2, 3), (2, 1)), ((5, 2), (4, 4))]
)
def test_pooled_attention_matches_per_head_oracle(grid, window):
    n_q, n_kv, d = 4, 2, 32
    p = make_attn(d, n_q, n_kv, seed=11)
    freqs = rope.freq_matrix(100.0, d // n_q, 2)
    coords = nk.grid_coords(grid)
    x = np.random.default_rng(12).standard_normal((grid[0] * grid[1], d))
    got = dit.gqa_attention(x, p, freqs, coords, kv_pool=(grid, window))
    want = slow_attention(x, p, freqs, coords, 1e-6, kv_pool=(grid, window))
    assert np.allclose(got, want, atol=1e-12)


def test_grouped_kv_equals_duplicated_heads_bitwise():
    # duplicating each kv head's columns and declaring n_kv = n_q must
    # reproduce the grouped computation exactly: the repeat axis is -3,
    # so head j serves query heads [j*group, (j+1)*group)
    d, n_q, n_kv = 16, 4, 2
    dh, group = d // n_q, n_q // n_kv
    p = make_attn(d, n_q, n_kv, seed=3)
    cols = [p.wk[:, j * dh : (j + 1) * dh] for j in range(n_kv)]
    colsv = [p.wv[:, j * dh : (j + 1) * dh] for j in range(n_kv)]
    wide = dataclasses.replace(
        p,
        wk=np.concatenate([c for j in range(n_kv) for c in [cols[j]] * group], axis=1),
        wv=np.concatenate([c for j in range(n_kv) for c in [colsv[j]] * group], axis=1),
        n_kv_heads=n_q,
    )
    freqs = rope.freq_matrix(100.0, dh, 2)
    coords = nk.grid_coords((2, 2))
    x = np.random.default_rng(4).standard_normal((4, d))
    grouped = dit.gqa_attention(x, p, freqs, coords)
    ungrouped = dit.gqa_attention(x, wide, freqs, coords)
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
    out_masked = dit.gqa_attention(junk, p, freqs, coords, mask=mask)
    out_ref = dit.gqa_attention(x[:, :4], p, freqs, coords[:4])
    assert np.allclose(out_masked[:, :4], out_ref, atol=1e-12)


def test_attention_mask_validation():
    d = 16
    p = make_attn(d, 2, 2, seed=7)
    freqs = rope.freq_matrix(100.0, 8, 2)
    coords = nk.grid_coords((2, 2))
    x = np.zeros((4, d))
    with pytest.raises(ValueError, match="no valid keys"):
        dit.gqa_attention(x, p, freqs, coords, mask=np.zeros(4, dtype=bool))
    with pytest.raises(ValueError, match="mask cannot apply"):
        dit.gqa_attention(
            x, p, freqs, coords,
            mask=np.ones(4, dtype=bool), kv_pool=((2, 2), (2, 1)),
        )


def test_kv_pool_identity_window_is_bitwise_noop():
    d = 16
    p = make_attn(d, 2, 2, seed=8)
    freqs = rope.freq_matrix(100.0, 8, 2)
    coords = nk.grid_coords((2, 2))
    x = np.random.default_rng(9).standard_normal((4, d))
    plain = dit.gqa_attention(x, p, freqs, coords)
    noop = dit.gqa_attention(x, p, freqs, coords, kv_pool=((2, 2), (1, 1)))
    pooled = dit.gqa_attention(x, p, freqs, coords, kv_pool=((2, 2), (2, 1)))
    assert np.array_equal(plain, noop)
    assert not np.allclose(plain, pooled, atol=1e-6)


def test_attention_permutation_equivariance():
    d = 16
    p = make_attn(d, 4, 2, seed=10)
    freqs = rope.freq_matrix(100.0, 4, 2)
    coords = nk.grid_coords((2, 3))
    x = np.random.default_rng(11).standard_normal((6, d))
    perm = np.random.default_rng(12).permutation(6)
    out = dit.gqa_attention(x, p, freqs, coords)
    out_p = dit.gqa_attention(x[perm], p, freqs, coords[perm])
    assert np.allclose(out_p, out[perm], atol=1e-12)


def test_patchify_layout_against_loop():
    patch, h, w, c = 2, 4, 6, 3
    x = np.arange(h * w * c, dtype=float).reshape(h, w, c)
    tokens, coords, grid = dit.patchify(x, patch)
    assert grid == (2, 3)
    assert np.array_equal(coords, nk.grid_coords(grid))
    for r in range(2):
        for col in range(3):
            want = x[r * patch : (r + 1) * patch, col * patch : (col + 1) * patch].reshape(-1)
            assert np.array_equal(tokens[r * 3 + col], want)


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
        dit.patchify(np.zeros((5, 4, 2)), 2)


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
        single = dit.forward_velocity(model, x[i], float(t[i]))
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
    h = tokens @ model.w_embed + model.b_embed
    w = mask / mask.sum(-1, keepdims=True)
    pooled = (h * w[..., None]).sum(-2)
    z = pooled @ model.head_w1 + model.head_b1
    h1 = z * (1.0 / (1.0 + np.exp(-z)))
    want = h1 @ model.head_w2 + model.head_b2
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
    got = dit.recognition_forward(model, padded, coords, mask=mask)
    want = dit.recognition_forward(model, full[:5], coords[:5])
    assert np.allclose(got, want, atol=1e-9)


def test_recognition_validation():
    config = small_config(mode="recognition", n_classes=2)
    model = dit.init_model(config, seed=0)
    tokens = np.zeros((2, 4, config.token_dim))
    coords = nk.grid_coords((2, 2))
    with pytest.raises(ValueError, match="no valid tokens"):
        dit.recognition_forward(model, tokens, coords, mask=np.zeros((2, 4), dtype=bool))
    gen = dit.init_model(small_config(), seed=0)
    with pytest.raises(ValueError, match="recognition-mode"):
        dit.recognition_forward(gen, tokens, coords)


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
    probe = np.full_like(model.blocks[1].w_mlp1, 0.5)
    dit.set_parameter(model, "blocks.1.w_mlp1", probe)
    assert model.blocks[1].w_mlp1 is probe
    with pytest.raises(KeyError, match="no parameter"):
        dit.set_parameter(model, "blocks.9.w_mlp1", probe)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    config = small_config(n_classes=3)
    model = randomized(dit.init_model(config, seed=0), seed=4)
    dit.save_model(tmp_path / "ckpt", model)
    loaded = dit.load_model(tmp_path / "ckpt")
    assert loaded.config == config
    for (name, a), (_, b) in zip(dit.named_parameters(model), dit.named_parameters(loaded)):
        assert np.array_equal(a, b), name


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


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    model = dit.init_model(small_config(), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    nk.save_tensor(tmp_path / "ckpt" / "w_embed.nkt", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="stored shape"):
        dit.load_model(tmp_path / "ckpt")


def test_checkpoint_rejects_non_finite_tensor(tmp_path):
    model = dit.init_model(small_config(), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    name, value = dit.named_parameters(model)[3]
    bad = value.copy()
    bad.flat[1] = np.nan
    nk.save_tensor(tmp_path / "ckpt" / f"{name}.nkt", bad)
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
    save_tensor = nk.save_tensor
    calls = []

    def failing_save(path, x):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        save_tensor(path, x)

    monkeypatch.setattr(nk, "save_tensor", failing_save)
    with pytest.raises(OSError, match="disk full"):
        dit.save_model(tmp_path / "ckpt", new)
    monkeypatch.undo()
    assert_loads_as(old)
    dit.save_model(tmp_path / "ckpt", new)
    assert_loads_as(new)
