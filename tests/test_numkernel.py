"""Kernel contracts: independent oracles for pooling, attention weights,
and the checkpoints' NKT1 tensor files, plus the exact-arithmetic
properties the rest of the stack leans on."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdit import autodiff as ad
from flowdit import contextdrop as cd
from flowdit import dit
from flowdit import numkernel as nk


def test_matmul_matches_einsum():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((3, 5, 2))
    # same contraction, different summation order: equal to rounding only
    assert np.allclose(nk.matmul(a, b), np.einsum("bik,bkj->bij", a, b), atol=1e-13)


@pytest.mark.parametrize("lead", [(7,), (3, 4)], ids=["rank3", "rank4"])
@pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "swapaxes"])
def test_matmul_under_shared_weight_matches_einsum(lead, contiguous):
    # a 2-d weight under a batched lhs runs as one GEMM over the flat rows
    rng = np.random.default_rng(len(lead))
    a = rng.standard_normal(lead + (5, 6))
    if not contiguous:
        a = np.swapaxes(rng.standard_normal(lead + (6, 5)), -1, -2)
    b = rng.standard_normal((6, 3))
    got = nk.matmul(a, b)
    assert got.shape == lead + (5, 3)
    assert np.allclose(got, np.einsum("...ik,kj->...ij", a, b), rtol=0.0, atol=1e-13)


def test_matmul_rejects_vectors_and_mismatched_inner_axes():
    with pytest.raises(ValueError, match="rank >= 2"):
        nk.matmul(np.ones(3), np.ones((3, 2)))
    with pytest.raises(ValueError, match="inner axes"):
        nk.matmul(np.ones((2, 3)), np.ones((4, 2)))


def attention_weights(x, bound=np.inf):
    """softmax(x) over the last axis through ad.attend: x @ I is exact."""
    return ad.attend(np.array(x, dtype=float), np.eye(np.shape(x)[-1]), bound)


@pytest.mark.parametrize("bound", [np.inf, 40.0], ids=["row_max", "bounded"])
def test_attention_weights_rows_are_distributions(bound):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 7)) * 10.0
    p = attention_weights(x, bound)
    assert np.all(p >= 0.0)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-15)


def test_attention_weights_shift_invariant_and_overflow_safe():
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(attention_weights(x), attention_weights(x + 1000.0), atol=1e-15)
    huge = np.array([[1e308, 1e308, 0.0]])
    assert np.all(np.isfinite(attention_weights(huge)))


@pytest.mark.parametrize("bound", [np.inf, 4.0], ids=["row_max", "bounded"])
def test_attention_weights_match_direct_formula(bound):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    expected = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
    assert np.allclose(attention_weights(x, bound), expected, atol=1e-15)


def test_rms_norm_matches_definition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 6))
    gain = rng.standard_normal(6)
    expected = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * gain
    assert np.allclose(ad.rms_norm(x, gain), expected, atol=1e-14)


def test_rms_norm_output_has_unit_rms_at_unit_gain():
    # up to the epsilon: the output RMS is sqrt(ms / (ms + EPS)) for input mean square ms
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 32)) * 5.0
    y = ad.rms_norm(x, np.ones(32))
    ms = np.mean(x * x, axis=-1)
    assert np.allclose(np.sqrt(np.mean(y * y, axis=-1)), np.sqrt(ms / (ms + ad.EPS)), atol=1e-12)


# The fresh-array expressions these kernels computed before they worked in
# place; the in-place forms must match them bit for bit.
def _attend_reference(x, bound=np.inf):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True) if not bound <= ad.EXP_LIMIT else x)
    return nk.matmul(e, _values(x)) / np.sum(e, axis=-1, keepdims=True)


def _rms_norm_reference(x, gain):
    return (x * (np.mean(x * x, axis=-1, keepdims=True) + ad.EPS) ** -0.5) * gain


def _silu_reference(x):
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig


def _gain(x):
    return np.linspace(0.25, 2.0, x.shape[-1])


def _values(x):
    return np.linspace(-2.0, 3.0, 3 * x.shape[-1]).reshape(x.shape[-1], 3)


_KERNELS = {
    # the taped op never writes its logits; untracked, it writes a copy
    "attend_tracked": (lambda x: ad.attend(ad.Var(x), _values(x)).value, _attend_reference),
    "attend_untracked": (lambda x: ad.attend(np.copy(x, order="K"), _values(x)), _attend_reference),
    "attend_bounded": (lambda x: ad.attend(np.copy(x, order="K"), _values(x), ad.EXP_LIMIT),
                       lambda x: _attend_reference(x, ad.EXP_LIMIT)),
    "rms_norm": (lambda x: ad.rms_norm(x, _gain(x)), lambda x: _rms_norm_reference(x, _gain(x))),
    "silu_untracked": (ad.silu, _silu_reference),
    "silu_tracked": (lambda x: ad.silu(ad.Var(x)).value, _silu_reference),
}


@pytest.mark.parametrize("name", list(_KERNELS))
def test_in_place_kernels_keep_their_contract(name):
    kernel, reference = _KERNELS[name]
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal((3, 5, 8)) * 4.0, np.swapaxes(rng.standard_normal((8, 5, 3)) * 4.0, 0, -1)]
    if name.startswith("attend"):
        row = rng.standard_normal((2, 8))
        row[0, [1, 4, 5]] = -np.inf
        inputs.append(row)
    inputs.append(np.arange(-12, 12, dtype=np.int64).reshape(3, 8))
    for x in inputs:
        before = x.tobytes()
        got = kernel(x)
        assert x.tobytes() == before
        assert not np.shares_memory(got, x)
        want = reference(x)
        assert got.dtype == want.dtype == (np.float64 if x.dtype == np.int64 else x.dtype)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rms_norm_gain_may_broadcast_input_up():
    # a gain that widens the result's shape or dtype cannot multiply in place
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 4))
    gain = rng.standard_normal((3, 1, 4))
    got = ad.rms_norm(x, gain)
    assert got.shape == (3, 1, 4)
    assert got.tobytes() == _rms_norm_reference(x, gain).tobytes()
    x32 = x.astype(np.float32)
    got = ad.rms_norm(x32, gain[0])
    assert got.dtype == np.float64
    assert got.tobytes() == _rms_norm_reference(x32, gain[0]).tobytes()


@pytest.mark.parametrize(
    "name,shape,bound",
    [("attend_tracked", (2, 2, 2, 250, 250), 1.5), ("rms_norm", (2, 250, 64), 1.75)],
    ids=["attend_tracked", "rms_norm"],
)
def test_in_place_kernels_allocate_little_beyond_their_result(name, shape, bound):
    # numpy reports its buffers to tracemalloc, so the peak counts every
    # temporary: the result alone is 1.0x the input's bytes
    kernel, _ = _KERNELS[name]
    x = np.random.default_rng(13).standard_normal(shape)
    nbytes = x.nbytes
    tracemalloc.start()
    try:
        kernel(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * nbytes, peak / nbytes


@pytest.mark.parametrize("bound", [np.inf, ad.EXP_LIMIT], ids=["row_max", "bounded"])
def test_attend_writes_into_its_logits_bitwise_and_allocates_no_scores_array(bound):
    # the untracked attention core exponentiates the logits it owns this way
    rng = np.random.default_rng(14)
    row = rng.standard_normal((2, 8))
    row[0, [1, 4, 5]] = -np.inf
    for x in (rng.standard_normal((3, 5, 8)) * 4.0, row):
        x0 = x.copy()
        want = ad.attend(ad.Var(x0), _values(x0), bound).value
        got = ad.attend(x, _values(x0), bound)
        assert got.tobytes() == want.tobytes()
        shift = np.max(x0, axis=-1, keepdims=True) if bound == np.inf else 0.0
        assert x.tobytes() == np.exp(x0 - shift).tobytes()
    # the row max and sum rows and the [.., 250, 16] output are the only new
    # arrays: together 18/250 of the scores
    x = rng.standard_normal((2, 2, 2, 250, 250))
    v = rng.standard_normal((2, 2, 1, 250, 16))
    tracemalloc.start()
    try:
        ad.attend(x, v, bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * x.nbytes, peak / x.nbytes


def pool_oracle(x, grid, window):
    """Window means of a row-major token grid [..., h*w, d], one window at a time."""
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
    pooled, _ = cd.pool_kv(x, x, cd.pool_plan(nk.grid_coords(grid), grid, window)[0])
    assert np.allclose(pooled, pool_oracle(x, grid, window), atol=1e-14)


def test_avg_pool_tokens_identity_window_copies():
    # kept under its old id; the (1, 1) window of contextdrop.pool_plan and
    # pool_kv now returns the inputs unchanged as the same objects rather than copies
    x = np.arange(12.0).reshape(6, 2)
    coords = nk.grid_coords((2, 3))
    pool, pc = cd.pool_plan(coords, (2, 3), (1, 1))
    pk, pv = cd.pool_kv(x, x, pool)
    assert np.array_equal(pk, x) and np.array_equal(pv, x)
    assert pk is x and pv is x and pc is coords


def pool_assignments(grid, window):
    """(assign, n_out, counts) read off nk.pool_matrix: assign[i] is the window
    of token i, n_out the number of windows, counts[j] the tokens in window j."""
    m = nk.pool_matrix(grid, window)
    return np.argmax(m > 0, axis=0), m.shape[0], np.count_nonzero(m, axis=1)


def test_pool_assignments_counts_and_edges():
    # 5x5 grid, 2x2 windows: 3x3 outputs, right/bottom edge windows shrink
    assign, n_out, counts = pool_assignments((5, 5), (2, 2))
    assert n_out == 9
    assert counts.sum() == 25
    assert counts.tolist() == [4, 4, 2, 4, 4, 2, 2, 2, 1]
    assert assign[0] == 0 and assign[24] == 8


def test_pool_assignments_output_count_law():
    for h in range(1, 9):
        for w in range(1, 9):
            for wh in range(1, 9):
                for ww in range(1, 9):
                    _, n_out, counts = pool_assignments((h, w), (wh, ww))
                    assert n_out == math.ceil(h / wh) * math.ceil(w / ww)
                    assert counts.sum() == h * w
                    assert np.all(counts >= 1)


def test_pool_assignments_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        pool_assignments((0, 3), (1, 1))
    with pytest.raises(ValueError, match="positive"):
        pool_assignments((2, 2), (1, 0))


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


def test_tensor_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4, 5))
    path = tmp_path / "t.nkt"
    dit._save_tensor(path, x)
    y = dit._load_tensor(path)
    assert y.dtype == np.float64
    assert np.array_equal(y, x)
    assert y.tobytes() == x.tobytes()


def test_tensor_container_layout(tmp_path):
    x = np.array([[1.0, 2.0]], dtype=np.float64)
    path = tmp_path / "t.nkt"
    dit._save_tensor(path, x)
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
    dit._save_tensor(path, x)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad_magic.nkt"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        dit._load_tensor(bad_magic)
    truncated = tmp_path / "short.nkt"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="bytes"):
        dit._load_tensor(truncated)
    bad_tag = tmp_path / "bad_tag.nkt"
    bad_tag.write_bytes(raw[:4] + b"\x09" + raw[5:])
    with pytest.raises(ValueError, match="dtype tag"):
        dit._load_tensor(bad_tag)


def test_tensor_load_rejects_header_cut_before_rank(tmp_path):
    path = tmp_path / "t.nkt"
    path.write_bytes(b"NKT1\x02")  # magic and dtype tag, no rank
    with pytest.raises(ValueError, match=r"t\.nkt: truncated header"):
        dit._load_tensor(path)


def test_tensor_load_rejects_dims_past_end_of_file(tmp_path):
    path = tmp_path / "t.nkt"
    dit._save_tensor(path, np.ones((2, 3, 4)))
    raw = path.read_bytes()
    cut = tmp_path / "cut.nkt"
    cut.write_bytes(raw[: 9 + 8 * 2])  # the header names 3 dims; 2 remain
    with pytest.raises(ValueError, match=r"cut\.nkt: truncated header"):
        dit._load_tensor(cut)


@pytest.mark.parametrize("dims", [(2**32, 2**32), (2**32, 2**32, 0)], ids=["wraps_to_zero", "zero_size"])
def test_tensor_load_rejects_dims_too_large_to_count(tmp_path, dims):
    # an int64 product of these dims is 0, so only exact counting sees the size
    path = tmp_path / "huge.nkt"
    path.write_bytes(b"NKT1" + struct.pack("<BI", 2, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims))
    with pytest.raises(ValueError, match=r"huge\.nkt: shape .* is too large"):
        dit._load_tensor(path)


def test_save_tensor_rejects_other_dtypes(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        dit._save_tensor(tmp_path / "t.nkt", np.ones(3, dtype=np.int64))


def test_save_tensor_refuses_f32(tmp_path):
    path = tmp_path / "t.nkt"
    with pytest.raises(ValueError, match="unsupported dtype float32; only f64 serializes"):
        dit._save_tensor(path, np.ones(3, dtype=np.float32))
    assert not path.exists()


def test_load_tensor_refuses_an_f32_file(tmp_path):
    # the tag-1 (f32) layout that older flowdit versions wrote, by hand
    path = tmp_path / "f32.nkt"
    path.write_bytes(b"NKT1" + struct.pack("<BIQ", 1, 1, 3) + np.ones(3, dtype="<f4").tobytes())
    with pytest.raises(ValueError, match=r"f32\.nkt: dtype tag 1 is not 2 \(f64\)"):
        dit._load_tensor(path)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(1, 5), min_size=0, max_size=4), st.integers(0, 2**32 - 1))
def test_tensor_roundtrip_property(tmp_path_factory, shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    path = tmp_path_factory.mktemp("nkt") / "t.nkt"
    dit._save_tensor(path, x)
    y = dit._load_tensor(path)
    assert y.shape == x.shape and y.dtype == np.float64
    assert np.array_equal(y, x)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
def test_pool_count_law_property(h, w, wh, ww):
    _, n_out, counts = pool_assignments((h, w), (wh, ww))
    assert n_out == math.ceil(h / wh) * math.ceil(w / ww)
    assert counts.sum() == h * w
