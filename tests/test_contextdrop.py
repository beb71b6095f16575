"""Key/value pooling windows: drop-ratio bookkeeping, the window picker,
and pooled tensors checked against a plain loop over window cells."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdit import contextdrop as cd
from flowdit import numkernel as nk


def test_window_catalog_drop_fractions():
    got = {w: cd.drop_fraction(w) for w in cd.WINDOWS}
    assert got == {
        (1, 1): 0.0,
        (2, 1): 0.5,
        (2, 2): 0.75,
        (4, 2): 0.875,
        (4, 4): 0.9375,
    }


def test_window_for_ratio_boundaries():
    assert cd.window_for_ratio(0.0) == (1, 1)
    assert cd.window_for_ratio(0.49) == (1, 1)
    assert cd.window_for_ratio(0.5) == (2, 1)
    assert cd.window_for_ratio(0.6) == (2, 1)
    assert cd.window_for_ratio(0.75) == (2, 2)
    assert cd.window_for_ratio(0.9) == (4, 2)
    assert cd.window_for_ratio(0.95) == (4, 4)


def test_window_for_ratio_validation():
    with pytest.raises(ValueError, match="ratio"):
        cd.window_for_ratio(-0.1)
    with pytest.raises(ValueError, match="ratio"):
        cd.window_for_ratio(1.0)


def test_drop_spec_validation_and_ramp():
    with pytest.raises(ValueError, match="r_max"):
        cd.DropSpec(r_max=1.0)
    with pytest.raises(ValueError, match="r_max"):
        cd.DropSpec(r_max=-0.2)
    spec = cd.DropSpec(r_max=0.8)
    with pytest.raises(ValueError, match="t"):
        spec.ratio(-0.01)
    with pytest.raises(ValueError, match="t"):
        spec.ratio(1.01)
    # linear decay from r_max at pure noise to zero at data
    assert spec.ratio(0.0) == 0.8
    assert spec.ratio(0.5) == 0.4
    assert spec.ratio(1.0) == 0.0


def test_ramp_window_schedule():
    spec = cd.DropSpec(r_max=0.9375)
    assert cd.window_for_ratio(spec.ratio(0.0)) == (4, 4)
    assert cd.window_for_ratio(spec.ratio(1.0)) == (1, 1)


def pooled_oracle(x, h, w, window):
    """Mean over each window cell, computed with explicit loops."""
    wh, ww = window
    n_h = -(-h // wh)
    n_w = -(-w // ww)
    d = x.shape[-1]
    out = np.zeros(x.shape[:-2] + (n_h * n_w, d))
    counts = np.zeros(n_h * n_w)
    for tok in range(h * w):
        r, c = divmod(tok, w)
        cell = (r // wh) * n_w + (c // ww)
        out[..., cell, :] += x[..., tok, :]
        counts[cell] += 1
    return out / counts[:, None]


def test_pool_kv_low_ratio_returns_same_objects():
    rng = np.random.default_rng(0)
    k = rng.standard_normal((2, 6, 4))
    v = rng.standard_normal((2, 6, 4))
    coords = nk.grid_coords((2, 3))
    window = cd.window_for_ratio(0.3)
    assert window == (1, 1)
    pk, pv, pc = cd.pool_kv(k, v, coords, (2, 3), window)
    assert pk is k and pv is v and pc is coords


@pytest.mark.parametrize(
    "h,w,ratio,window",
    [(4, 4, 0.75, (2, 2)), (4, 6, 0.5, (2, 1)), (5, 3, 0.9, (4, 2)), (3, 5, 0.99, (4, 4))],
)
def test_pool_kv_matches_loop_oracle(h, w, ratio, window):
    assert cd.window_for_ratio(ratio) == window
    rng = np.random.default_rng(h * 100 + w)
    k = rng.standard_normal((2, h * w, 5))
    v = rng.standard_normal((2, h * w, 5))
    coords = nk.grid_coords((h, w))
    pk, pv, pc = cd.pool_kv(k, v, coords, (h, w), window)
    assert np.allclose(pk, pooled_oracle(k, h, w, window), atol=1e-12)
    assert np.allclose(pv, pooled_oracle(v, h, w, window), atol=1e-12)
    assert np.allclose(pc, pooled_oracle(coords, h, w, window), atol=1e-12)


def test_pool_kv_constant_rows_are_preserved():
    h, w = 4, 4
    x = np.broadcast_to(np.arange(3.0), (h * w, 3)).copy()
    pk, pv, _ = cd.pool_kv(x, x, nk.grid_coords((h, w)), (h, w), (2, 2))
    assert np.allclose(pk, np.arange(3.0), atol=1e-15)
    assert np.allclose(pv, np.arange(3.0), atol=1e-15)


def test_pool_kv_handles_leading_batch_axes():
    rng = np.random.default_rng(3)
    k = rng.standard_normal((3, 2, 8, 4))
    v = rng.standard_normal((3, 2, 8, 4))
    coords = nk.grid_coords((2, 4))
    pk, pv, pc = cd.pool_kv(k, v, coords, (2, 4), (2, 2))
    assert pk.shape == (3, 2, 2, 4) and pv.shape == pk.shape
    assert pc.shape == (2, 2)
    # each batch slice pools independently
    for i in range(3):
        for j in range(2):
            lk, lv, _ = cd.pool_kv(k[i, j], v[i, j], coords, (2, 4), (2, 2))
            assert np.array_equal(pk[i, j], lk)
            assert np.array_equal(pv[i, j], lv)


def test_pool_kv_custom_coords_are_pooled_too():
    rng = np.random.default_rng(4)
    k = rng.standard_normal((4, 3))
    coords = rng.standard_normal((4, 2))
    _, _, pc = cd.pool_kv(k, k, coords, (2, 2), (2, 2))
    assert np.allclose(pc, coords.mean(axis=0), atol=1e-15)


def test_pool_kv_rejects_wrong_token_count():
    x = np.ones((5, 2))
    for window in ((2, 2), (1, 1)):
        with pytest.raises(ValueError, match="tokens"):
            cd.pool_kv(x, x, nk.grid_coords((2, 3)), (2, 3), window)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from(cd.WINDOWS))
def test_pooled_length_law(h, w, window):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((h * w, 3))
    pk, _, pc = cd.pool_kv(x, x, nk.grid_coords((h, w)), (h, w), window)
    wh, ww = window
    n_out = (-(-h // wh)) * (-(-w // ww))
    assert pk.shape == (n_out, 3)
    assert pc.shape == (n_out, 2)


@settings(deadline=None, max_examples=40)
@given(st.floats(0.0, 0.999), st.floats(0.0, 1.0))
def test_ramp_ratio_always_maps_to_a_window(r_max, t):
    ratio = cd.DropSpec(r_max=r_max).ratio(t)
    window = cd.window_for_ratio(ratio)
    assert window in cd.WINDOWS
    assert cd.drop_fraction(window) <= ratio
