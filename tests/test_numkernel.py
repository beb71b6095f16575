"""Kernel contracts: independent oracles for pooling, softmax, and the
tensor container, plus the exact-arithmetic properties the rest of the
stack leans on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdit import contextdrop as cd
from flowdit import numkernel as nk


def test_matmul_matches_einsum():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((3, 5, 2))
    # same contraction, different summation order: equal to rounding only
    assert np.allclose(nk.matmul(a, b), np.einsum("bik,bkj->bij", a, b), atol=1e-13)


def test_matmul_rejects_vectors_and_mismatched_inner_axes():
    with pytest.raises(ValueError, match="rank >= 2"):
        nk.matmul(np.ones(3), np.ones((3, 2)))
    with pytest.raises(ValueError, match="inner axes"):
        nk.matmul(np.ones((2, 3)), np.ones((4, 2)))


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 7)) * 10.0
    p = nk.softmax(x)
    assert np.all(p >= 0.0)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-15)


def test_softmax_shift_invariant_and_overflow_safe():
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(nk.softmax(x), nk.softmax(x + 1000.0), atol=1e-15)
    huge = np.array([1e308, 1e308, 0.0])
    assert np.all(np.isfinite(nk.softmax(huge)))


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    expected = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
    assert np.allclose(nk.softmax(x), expected, atol=1e-15)


def test_rms_norm_matches_definition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 6))
    gain = rng.standard_normal(6)
    eps = 1e-6
    expected = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * gain
    assert np.allclose(nk.rms_norm(x, gain, eps), expected, atol=1e-14)


def test_rms_norm_output_has_unit_rms_at_unit_gain():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 32)) * 5.0
    y = nk.rms_norm(x, np.ones(32), eps=0.0)
    assert np.allclose(np.sqrt(np.mean(y * y, axis=-1)), 1.0, atol=1e-12)


def test_rms_norm_rejects_negative_eps():
    with pytest.raises(ValueError, match="eps"):
        nk.rms_norm(np.ones(3), np.ones(3), eps=-1e-6)


def _pool_oracle(x, grid, window):
    # independent route: explicit window membership, mean per window
    h, w = grid
    wh, ww = window
    x = x.reshape(x.shape[:-2] + (h, w) + x.shape[-1:])
    oh, ow = math.ceil(h / wh), math.ceil(w / ww)
    out = np.empty(x.shape[:-3] + (oh, ow) + x.shape[-1:])
    for i in range(oh):
        for j in range(ow):
            block = x[..., i * wh : (i + 1) * wh, j * ww : (j + 1) * ww, :]
            out[..., i, j, :] = block.mean(axis=(-3, -2))
    return out.reshape(out.shape[:-3] + (oh * ow,) + out.shape[-1:])


@pytest.mark.parametrize("grid", [(1, 1), (2, 3), (4, 4), (5, 7), (8, 8)])
@pytest.mark.parametrize("window", [(1, 1), (2, 1), (2, 2), (4, 2), (3, 3)])
def test_avg_pool_tokens_matches_loop_oracle(grid, window):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, grid[0] * grid[1], 3))
    pooled, _, _ = cd.pool_kv(x, x, nk.grid_coords(grid), grid, window)
    assert np.allclose(pooled, _pool_oracle(x, grid, window), atol=1e-14)


def test_avg_pool_tokens_identity_window_copies():
    # kept under its old id; the (1, 1) window of contextdrop.pool_kv now
    # returns its inputs unchanged as the same objects rather than copies
    x = np.arange(12.0).reshape(6, 2)
    coords = nk.grid_coords((2, 3))
    pk, pv, pc = cd.pool_kv(x, x, coords, (2, 3), (1, 1))
    assert np.array_equal(pk, x) and np.array_equal(pv, x)
    assert pk is x and pv is x and pc is coords


def test_pool_assignments_counts_and_edges():
    # 5x5 grid, 2x2 windows: 3x3 outputs, right/bottom edge windows shrink
    assign, n_out, counts = nk.pool_assignments((5, 5), (2, 2))
    assert n_out == 9
    assert counts.sum() == 25
    assert counts.tolist() == [4, 4, 2, 4, 4, 2, 2, 2, 1]
    assert assign[0] == 0 and assign[24] == 8


def test_pool_assignments_output_count_law():
    for h in range(1, 9):
        for w in range(1, 9):
            for wh in range(1, 9):
                for ww in range(1, 9):
                    _, n_out, counts = nk.pool_assignments((h, w), (wh, ww))
                    assert n_out == math.ceil(h / wh) * math.ceil(w / ww)
                    assert counts.sum() == h * w
                    assert np.all(counts >= 1)


def test_pool_assignments_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        nk.pool_assignments((0, 3), (1, 1))
    with pytest.raises(ValueError, match="positive"):
        nk.pool_assignments((2, 2), (1, 0))


def test_pool_matrix_is_row_stochastic():
    m = nk.pool_matrix((5, 7), (2, 3))
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-15)
    assert np.all(m >= 0.0)


def test_grid_coords_row_major():
    expected = [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
    assert nk.grid_coords((2, 3)).tolist() == expected


def test_grid_coords_rejects_empty():
    with pytest.raises(ValueError, match="positive"):
        nk.grid_coords((0, 4))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_roundtrip_bitwise(tmp_path, dtype):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4, 5)).astype(dtype)
    path = tmp_path / "t.nkt"
    nk.save_tensor(path, x)
    y = nk.load_tensor(path)
    assert y.dtype == np.dtype(dtype)
    assert np.array_equal(y, x)
    assert y.tobytes() == x.tobytes()


def test_tensor_container_layout(tmp_path):
    x = np.array([[1.0, 2.0]], dtype=np.float64)
    path = tmp_path / "t.nkt"
    nk.save_tensor(path, x)
    raw = path.read_bytes()
    assert raw[:4] == b"NKT1"
    assert raw[4] == 2  # f64 tag
    assert int.from_bytes(raw[5:9], "little") == 2  # rank
    assert int.from_bytes(raw[9:17], "little") == 1
    assert int.from_bytes(raw[17:25], "little") == 2
    assert raw[25:] == x.tobytes()


def test_tensor_load_rejects_corruption(tmp_path):
    x = np.ones((2, 2))
    path = tmp_path / "t.nkt"
    nk.save_tensor(path, x)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad_magic.nkt"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        nk.load_tensor(bad_magic)
    truncated = tmp_path / "short.nkt"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="bytes"):
        nk.load_tensor(truncated)
    bad_tag = tmp_path / "bad_tag.nkt"
    bad_tag.write_bytes(raw[:4] + b"\x09" + raw[5:])
    with pytest.raises(ValueError, match="dtype tag"):
        nk.load_tensor(bad_tag)


def test_save_tensor_rejects_other_dtypes(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        nk.save_tensor(tmp_path / "t.nkt", np.ones(3, dtype=np.int64))


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.integers(1, 5), min_size=0, max_size=4),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
def test_tensor_roundtrip_property(tmp_path_factory, shape, dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    path = tmp_path_factory.mktemp("nkt") / "t.nkt"
    nk.save_tensor(path, x)
    y = nk.load_tensor(path)
    assert y.shape == x.shape and y.dtype == x.dtype
    assert np.array_equal(y, x)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
def test_pool_count_law_property(h, w, wh, ww):
    _, n_out, counts = nk.pool_assignments((h, w), (wh, ww))
    assert n_out == math.ceil(h / wh) * math.ceil(w / ww)
    assert counts.sum() == h * w
