"""Rotary embedding oracles: an independent complex-pair implementation of
the relative-position logits, translation/isometry properties, and the
equalities and orderings the scaling strategies advertise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdit import autodiff as ad
from flowdit import contextdrop, dit
from flowdit import numkernel as nk
from flowdit import rope

TWO_PI = 2.0 * math.pi


def complex_logits_oracle(q, k, coords_q, coords_k, freqs):
    """Relative form: Re sum_d q_d conj(k_d) exp(i theta_d (c_q - c_k)).

    Independent of apply_rope: pairs become complex numbers and the angle
    enters only through the coordinate difference.
    """
    n_q, n_k = q.shape[0], k.shape[0]
    qc = q[:, 0::2] + 1j * q[:, 1::2]
    kc = k[:, 0::2] + 1j * k[:, 1::2]
    theta = np.tile(freqs.theta, freqs.axes)
    out = np.zeros((n_q, n_k))
    for i in range(n_q):
        for j in range(n_k):
            delta = np.concatenate(
                [
                    np.full(freqs.dims_per_axis, coords_q[i, a] - coords_k[j, a])
                    for a in range(freqs.axes)
                ]
            )
            out[i, j] = np.real(np.sum(qc[i] * np.conj(kc[j]) * np.exp(1j * theta * delta)))
    return out


@pytest.mark.parametrize("axes,d_head", [(1, 8), (2, 12), (3, 24)])
def test_logits_match_complex_oracle(axes, d_head):
    rng = np.random.default_rng(axes)
    freqs = rope.freq_matrix(100.0, d_head, axes)
    n_q, n_k = 5, 7
    q = rng.standard_normal((n_q, d_head))
    k = rng.standard_normal((n_k, d_head))
    cq = rng.uniform(0, 20, (n_q, axes))
    ck = rng.uniform(0, 20, (n_k, axes))
    got = rope.rope_attention_logits(q, k, rope.rope_tables(cq, freqs), rope.rope_tables(ck, freqs))
    assert np.allclose(got, complex_logits_oracle(q, k, cq, ck, freqs), atol=1e-10)


@pytest.mark.parametrize("axes,d_head", [(1, 8), (2, 12), (3, 24)])
def test_logits_translation_invariant(axes, d_head):
    rng = np.random.default_rng(10 + axes)
    freqs = rope.freq_matrix(10000.0, d_head, axes)
    q = rng.standard_normal((6, d_head))
    k = rng.standard_normal((6, d_head))
    coords = rng.uniform(0, 32, (6, axes))
    shift = rng.uniform(-100, 100, axes)
    tables, moved_tables = rope.rope_tables(coords, freqs), rope.rope_tables(coords + shift, freqs)
    base_logits = rope.rope_attention_logits(q, k, tables, tables)
    moved = rope.rope_attention_logits(q, k, moved_tables, moved_tables)
    assert np.allclose(base_logits, moved, atol=1e-9)


def test_apply_rope_is_isometry():
    rng = np.random.default_rng(20)
    freqs = rope.freq_matrix(10000.0, 16, 2)
    x = rng.standard_normal((3, 9, 16))
    coords = rng.uniform(0, 50, (9, 2))
    y = rope.apply_rope(x, rope.rope_tables(coords, freqs))
    assert np.allclose(
        np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-12
    )


def test_apply_rope_zero_coords_identity():
    rng = np.random.default_rng(21)
    freqs = rope.freq_matrix(100.0, 8, 2)
    x = rng.standard_normal((4, 8))
    y = rope.apply_rope(x, rope.rope_tables(np.zeros((4, 2)), freqs))
    assert np.allclose(y, x, atol=1e-15)


def test_apply_rope_validates_shapes():
    freqs = rope.freq_matrix(100.0, 8, 2)
    with pytest.raises(ValueError, match="d_head"):
        rope.apply_rope(np.ones((3, 6)), rope.rope_tables(np.zeros((3, 2)), freqs))
    with pytest.raises(ValueError, match="coords"):
        rope.apply_rope(np.ones((3, 8)), rope.rope_tables(np.zeros((4, 2)), freqs))
    with pytest.raises(ValueError, match="axes"):
        rope.rope_angles(np.zeros((3, 3)), freqs)


def test_rope_angles_layout():
    # one axis chunk per coordinate, dims within a chunk share the coordinate
    freqs = rope.freq_matrix(4.0, 8, 2)  # 2 dims per axis
    ang = rope.rope_angles(np.array([[2.0, 3.0]]), freqs)
    expected = np.array([2.0 * freqs.theta[0], 2.0 * freqs.theta[1],
                         3.0 * freqs.theta[0], 3.0 * freqs.theta[1]])
    assert np.allclose(ang[0], expected, atol=1e-15)


def per_axis_angles(coords, freqs):
    """rope_angles in its per-axis form: a table with one equal row per axis,
    each axis's chunk multiplied out on its own, the chunks concatenated."""
    table = np.tile(freqs.theta, (freqs.axes, 1))
    coords = np.asarray(coords, dtype=float)
    chunks = [coords[:, a : a + 1] * table[a][None, :] for a in range(freqs.axes)]
    return np.concatenate(chunks, axis=-1)


GEN_IMAGE_FREQS = dit.model_freqs(dit.ModelConfig(d_model=64, n_layers=4, n_q_heads=4, n_kv_heads=2, patch=2))
GEN_IMAGE_GRID = nk.grid_coords((16, 16))


@pytest.mark.parametrize(
    "freqs,coords",
    [
        (rope.freq_matrix(100.0, 8, 1), np.random.default_rng(50).uniform(-40, 40, (9, 1))),
        (rope.freq_matrix(10000.0, 12, 2), np.random.default_rng(51).uniform(-40, 40, (9, 2))),
        (rope.freq_matrix(5.0, 24, 3), np.random.default_rng(52).uniform(-40, 40, (9, 3))),
        (rope.scaled_freqs(rope.freq_matrix(5.0, 24, 3), rope.ScaleSpec("freq_aware", s=2.0, train_extent=16.0)),
         np.random.default_rng(53).uniform(-40, 40, (9, 3))),
        (GEN_IMAGE_FREQS, GEN_IMAGE_GRID),
        (GEN_IMAGE_FREQS, contextdrop.pool_plan(GEN_IMAGE_GRID, (16, 16), (2, 2))[1]),
    ],
    ids=["1_axis", "2_axes", "3_axes", "3_axes_scaled", "gen_image_grid", "gen_image_pooled"],
)
def test_rope_angles_and_tables_equal_the_per_axis_form_bitwise(freqs, coords):
    expected = per_axis_angles(coords, freqs)
    assert rope.rope_angles(coords, freqs).tobytes() == expected.tobytes()
    cos, sin = rope.rope_tables(coords, freqs)
    assert (cos.shape, cos.tobytes(), sin.tobytes()) == (expected.shape, np.cos(expected).tobytes(), np.sin(expected).tobytes())


def test_freq_matrix_values_and_validation():
    freqs = rope.freq_matrix(10000.0, 12, 2)
    n = 12 // 4
    expected = 10000.0 ** (-(4.0) * np.arange(n) / 12.0)
    assert freqs.theta.shape == (n,)
    assert np.allclose(freqs.theta, expected, atol=1e-15)
    assert freqs.theta[0] == 1.0
    with pytest.raises(ValueError, match="axes"):
        rope.freq_matrix(100.0, 16, 4)
    for base in (1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="base"):
            rope.freq_matrix(base, 8, 2)
    with pytest.raises(ValueError, match="divisible"):
        rope.freq_matrix(100.0, 10, 2)
    for d_head in (0, -4):
        with pytest.raises(ValueError, match="must be positive"):
            rope.freq_matrix(100.0, d_head, 2)
    with pytest.raises(ValueError, match="convention"):
        rope.ScaleSpec("interpolate", convention="other")


def test_wavelength_inverts_frequency():
    freqs = rope.freq_matrix(5.0, 24, 3)
    assert np.allclose(rope.wavelength(freqs) * freqs.theta, TWO_PI, atol=1e-15)


def test_d_target_solves_wavelength_equation():
    base, d_head, axes, extent = 5.0, 24, 3, 16.0
    d_star = rope.d_target(base, d_head, axes, extent)
    freqs = rope.freq_matrix(base, d_head, axes)
    # the continuous curve at d_star has wavelength exactly the extent
    theta_star = rope.scaled_theta(freqs, rope.ScaleSpec("extrapolate"), d_star)
    assert np.isclose(TWO_PI / theta_star, extent, atol=1e-9)
    with pytest.raises(ValueError, match="extent"):
        rope.d_target(base, d_head, axes, 6.0)


def test_scale_spec_validation():
    with pytest.raises(ValueError, match="strategy"):
        rope.ScaleSpec("other")
    for s in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=">= 1"):
            rope.ScaleSpec("interpolate", s=s)
    for extent in (np.nan, np.inf):
        with pytest.raises(ValueError, match="extent must be finite"):
            rope.ScaleSpec("freq_aware", s=2.0, train_extent=extent)
    # one scale factor and one extent serve every axis; a per-axis tuple is refused
    with pytest.raises(ValueError, match=r"scale factor must be one number, got \(2.0, 4.0\)"):
        rope.ScaleSpec("interpolate", s=(2.0, 4.0))
    with pytest.raises(ValueError, match=r"training extent must be one number, got \(16.0, 32.0\)"):
        rope.ScaleSpec("freq_aware", s=2.0, train_extent=(16.0, 32.0))
    with pytest.raises(ValueError, match="t in"):
        rope.ScaleSpec("time_aware", s=2.0)
    with pytest.raises(ValueError, match="extent"):
        rope.ScaleSpec("freq_aware", s=2.0)


FIG_SETTING = dict(base=5.0, d_head=24, axes=3)


def _theta(strategy, s, convention="consistent", **kw):
    freqs = rope.freq_matrix(**FIG_SETTING)
    spec = rope.ScaleSpec(strategy, s=s, convention=convention, **kw)
    return rope.scaled_freqs(freqs, spec).theta


def test_scale_one_is_identity_for_every_strategy():
    base = rope.freq_matrix(**FIG_SETTING)
    for convention in rope.CONVENTIONS:
        for strategy in rope.STRATEGIES:
            theta = _theta(strategy, 1.0, convention, train_extent=16.0, t=0.3)
            assert np.array_equal(theta, np.asarray(base.theta)), (convention, strategy)


@pytest.mark.parametrize("s", [2.0, 4.0, 8.0])
def test_consistent_mode_equalities(s):
    interp = _theta("interpolate", s)
    ntk = _theta("ntk", s)
    assert np.allclose(_theta("time_aware", s, t=0.0), interp, atol=1e-12)
    assert np.allclose(_theta("time_aware", s, t=1.0), ntk, atol=1e-12)
    # the frequency-aware curve passes through the interpolation value at
    # the pivot dimension
    freqs = rope.freq_matrix(**FIG_SETTING)
    d_star = rope.d_target(5.0, 24, 3, 16.0)
    spec = rope.ScaleSpec("freq_aware", s=s, train_extent=16.0)
    at_pivot = rope.scaled_theta(freqs, spec, d_star)
    interp_at_pivot = rope.scaled_theta(freqs, rope.ScaleSpec("interpolate", s=s), d_star)
    assert np.allclose(at_pivot, interp_at_pivot, atol=1e-12)


@pytest.mark.parametrize("s", [2.0, 4.0, 8.0])
def test_consistent_mode_ordering(s):
    interp = _theta("interpolate", s)
    fa = _theta("freq_aware", s, train_extent=16.0)
    extrap = _theta("extrapolate", s)
    assert np.all(interp <= fa + 1e-15)
    assert np.all(fa <= extrap + 1e-15)


def test_ntk_consistent_last_dim_matches_interpolation():
    # the adjusted base is calibrated so the slowest dimension interpolates
    s = 4.0
    ntk = _theta("ntk", s)
    interp = _theta("interpolate", s)
    assert np.allclose(ntk[-1], interp[-1], rtol=1e-12)
    assert np.allclose(ntk[0], 1.0, atol=1e-15)  # fastest dim untouched


def test_paper_literal_forms_verbatim():
    base, d_head, axes, s = 5.0, 24.0, 3.0, 2.0
    n = int(d_head // (2 * axes))
    d = np.arange(n, dtype=float)
    theta = base ** (-(2.0 * axes) * d / d_head)
    freqs = rope.freq_matrix(base, int(d_head), int(axes))
    literal = "paper_literal"
    got_interp = rope.scaled_theta(freqs, rope.ScaleSpec("interpolate", s=s, convention=literal), d)
    assert np.allclose(got_interp, theta * s, atol=1e-15)
    got_ntk = rope.scaled_theta(freqs, rope.ScaleSpec("ntk", s=s, convention=literal), d)
    assert np.allclose(got_ntk, (base * s) ** (-(2.0 * axes) * d / d_head), atol=1e-15)
    got_ta = rope.scaled_theta(freqs, rope.ScaleSpec("time_aware", s=s, t=0.5, convention=literal), d)
    d_t = (d_head - 1.0) * 0.5 + 1.0
    bp = base * s ** (d_head / d_t)
    assert np.allclose(
        got_ta, np.maximum(bp ** (-(2.0 * axes) * d / d_head), theta * s), atol=1e-15
    )


def test_paper_literal_d_target_omits_axis_factor():
    consistent = rope.d_target(5.0, 24, 3, 16.0, "consistent")
    literal = rope.d_target(5.0, 24, 3, 16.0, "paper_literal")
    assert np.isclose(literal, 6.0 * consistent, rtol=1e-12)
    assert np.isclose(consistent, (24 / 6) * math.log(16.0 / TWO_PI) / math.log(5.0), rtol=1e-12)


def test_scaled_fourier_features_layout_and_endpoints():
    p = np.array([[0.25, 0.5]])
    theta = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    s = 3.0
    # t=1: d_t = F, uniform scale s
    out = rope.scaled_fourier_features(p, theta, t=1.0, s=s)
    assert out.shape == (1, 6)
    args = TWO_PI * (p @ (theta * s).T)[0]
    assert np.allclose(out[0, 0::2], np.cos(args), atol=1e-12)
    assert np.allclose(out[0, 1::2], np.sin(args), atol=1e-12)
    # t=0: d_t = 1, scale s^F
    out0 = rope.scaled_fourier_features(p, theta, t=0.0, s=s)
    args0 = TWO_PI * (p @ (theta * s**3).T)[0]
    assert np.allclose(out0[0, 0::2], np.cos(args0), atol=1e-12)


def test_scaled_fourier_features_validation():
    p = np.ones((2, 3))
    theta = np.ones((4, 3))
    with pytest.raises(ValueError, match="t must"):
        rope.scaled_fourier_features(p, theta, t=1.5, s=2.0)
    with pytest.raises(ValueError, match="s must"):
        rope.scaled_fourier_features(p, theta, t=0.5, s=0.5)
    with pytest.raises(ValueError, match="incompatible"):
        rope.scaled_fourier_features(p, np.ones((4, 2)), t=0.5, s=2.0)


def test_freq_table_rows_shape():
    freqs = rope.freq_matrix(5.0, 24, 3)
    rows = rope.freq_table_rows(freqs, "extrapolate")
    assert len(rows) == 3 * 4
    strategy, axis, d, theta, lam = rows[0]
    assert strategy == "extrapolate" and axis == 0 and d == 0
    assert np.isclose(lam, TWO_PI / theta, rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 3),
    st.floats(-1000.0, 1000.0, allow_nan=False),
    st.integers(0, 2**31 - 1),
)
def test_translation_invariance_property(axes, shift, seed):
    rng = np.random.default_rng(seed)
    d_head = 8 * axes
    freqs = rope.freq_matrix(50.0, d_head, axes)
    q = rng.standard_normal((3, d_head))
    k = rng.standard_normal((4, d_head))
    cq = rng.uniform(0, 16, (3, axes))
    ck = rng.uniform(0, 16, (4, axes))
    a = rope.rope_attention_logits(q, k, rope.rope_tables(cq, freqs), rope.rope_tables(ck, freqs))
    b = rope.rope_attention_logits(q, k, rope.rope_tables(cq + shift, freqs), rope.rope_tables(ck + shift, freqs))
    assert np.allclose(a, b, atol=1e-8)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1), st.floats(1.0, 64.0, allow_nan=False))
def test_interpolation_floors_frequency_aware_property(seed, s):
    fa = _theta("freq_aware", s, train_extent=16.0)
    interp = _theta("interpolate", s)
    assert np.all(fa >= interp - 1e-15)


def test_keys_on_the_queries_coordinates_reuse_their_tables_bitwise():
    freqs = rope.freq_matrix(100.0, 16, 2)
    coords = nk.grid_coords((3, 4))
    rng = np.random.default_rng(41)
    q, k = rng.standard_normal((2, 2, 3, 12, 16)), rng.standard_normal((2, 2, 1, 12, 16))
    ang = rope.rope_angles(coords, freqs)
    qr = ad.rotate_pairs(q, np.cos(ang), np.sin(ang))
    kr = ad.rotate_pairs(k, np.cos(ang), np.sin(ang))
    expected = ad.matmul(qr, np.swapaxes(kr, -1, -2))
    tables = rope.rope_tables(coords, freqs)
    assert rope.rope_attention_logits(q, k, tables, tables).tobytes() == expected.tobytes()
    assert rope.rope_attention_logits(q, k, tables, rope.rope_tables(coords.copy(), freqs)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kv_pool,tokens", [(None, [16]), (((4, 4), (2, 2)), [16, 4])], ids=["unpooled", "pooled"])
def test_attention_builds_rope_angles_once_unless_keys_are_pooled(monkeypatch, kv_pool, tokens):
    """Per forward_velocity call, whatever its layers and parts: the tokens of
    each rope_angles call are the queries', then the pooled keys' if any, and
    pool_matrix runs once if keys are pooled."""
    calls = {"rope_angles": [], "pool_matrix": [], "gqa_attention": [], "_trunk": []}

    def counted(module, name, record=lambda *args: None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(record(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(rope, "rope_angles", lambda coords, freqs: len(coords))
    counted(nk, "pool_matrix")
    counted(dit, "gqa_attention")
    counted(dit, "_trunk")
    x = np.random.default_rng(42).standard_normal((2, 4, 4, 2))
    for n_layers in (1, 4):
        model = dit.init_model(dit.ModelConfig(d_model=32, n_layers=n_layers, n_q_heads=4, n_kv_heads=2, patch=1), seed=3)
        for parts in (1, 2):
            # 16 tokens per part cut the two 16-token images in two
            monkeypatch.setattr(dit, "_PART_TOKENS", 1024 if parts == 1 else 16)
            for record in calls.values():
                record.clear()
            dit.forward_velocity(model, x, 0.5, kv_pool=kv_pool)
            assert len(calls["_trunk"]) == parts
            assert len(calls["gqa_attention"]) == n_layers * parts
            assert calls["rope_angles"] == tokens
            assert len(calls["pool_matrix"]) == (kv_pool is not None)
