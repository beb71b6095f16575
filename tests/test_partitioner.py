"""Grid enumeration and selection, cross-checked against brute-force
enumeration and argmax loops, plus the batch padding helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdit import partitioner as pt


def brute_candidates(max_tokens, max_aspect, patch):
    """Every legal grid, by scanning the full rows x cols square."""
    out = []
    for rows in range(1, max_tokens + 1):
        for cols in range(1, max_tokens + 1):
            if rows * cols > max_tokens:
                continue
            if max(rows, cols) / min(rows, cols) > max_aspect:
                continue
            out.append(pt.PartitionGrid(rows, cols, patch))
    return out


def brute_best(height, width, candidates):
    """Argmax with the documented tie-break, as an explicit loop."""
    best = None
    for grid in candidates:
        key = (pt.matching_ratio(grid, height, width), grid.tokens)
        if best is None or key > best[0]:
            best = (key, grid)
    return best[1]


def test_grid_validation_and_properties():
    with pytest.raises(ValueError, match="positive"):
        pt.PartitionGrid(0, 3, 16)
    with pytest.raises(ValueError, match="positive"):
        pt.PartitionGrid(3, 3, 0)
    g = pt.PartitionGrid(3, 5, 16)
    assert g.tokens == 15
    assert g.aspect == 5 / 3
    assert g.pixel_size == (48, 80)


def test_candidate_set_validation():
    with pytest.raises(ValueError, match="budget"):
        pt.candidate_set(0, 4.0, 16)
    with pytest.raises(ValueError, match="aspect"):
        pt.candidate_set(16, 0.5, 16)


@pytest.mark.parametrize("max_tokens", [1, 7, 16, 64])
@pytest.mark.parametrize("max_aspect", [1.0, 2.0, 4.0])
def test_candidate_set_matches_brute_force(max_tokens, max_aspect):
    got = pt.candidate_set(max_tokens, max_aspect, 16)
    want = brute_candidates(max_tokens, max_aspect, 16)
    assert got == want  # same grids, same deterministic order


def test_candidate_order_is_rows_then_cols():
    got = pt.candidate_set(4, 4.0, 8)
    keys = [(g.rows, g.cols) for g in got]
    assert keys == sorted(keys)


def test_matching_ratio_validation_and_scale_invariance():
    g = pt.PartitionGrid(4, 3, 16)
    with pytest.raises(ValueError, match="positive"):
        pt.matching_ratio(g, 0, 100)
    # doubling the image changes nothing, exactly
    assert pt.matching_ratio(g, 200, 100) == pt.matching_ratio(g, 400, 200)
    assert np.isclose(
        pt.matching_ratio(g, 200, 100), pt.matching_ratio(g, 600, 300), rtol=1e-15
    )
    # a perfectly proportional image scores exactly 1
    assert pt.matching_ratio(g, 400, 300) == 1.0


def test_best_partition_worked_example():
    cands = pt.candidate_set(128, 4.0, 16)
    grid = pt.best_partition(448, 224, cands)
    assert (grid.rows, grid.cols) == (16, 8)
    assert grid.pixel_size == (256, 128)


def test_best_partition_rejects_empty_set():
    with pytest.raises(ValueError, match="empty"):
        pt.best_partition(100, 100, [])


def test_ties_prefer_more_tokens_then_earlier():
    # both grids match a square image perfectly; 2x2 carries more tokens
    cands = [pt.PartitionGrid(1, 1, 16), pt.PartitionGrid(2, 2, 16)]
    assert pt.best_partition(64, 64, cands).tokens == 4
    # identical score and tokens: first listed wins
    a, b = pt.PartitionGrid(1, 2, 16), pt.PartitionGrid(2, 1, 16)
    assert pt.best_partition(50, 50, [a, b]) is a
    assert pt.best_partition(50, 50, [b, a]) is b


def test_best_partition_matches_brute_argmax_on_random_sizes():
    rng = np.random.default_rng(0)
    cands = pt.candidate_set(64, 4.0, 16)
    for _ in range(1000):
        h = int(rng.integers(1, 2048))
        w = int(rng.integers(1, 2048))
        assert pt.best_partition(h, w, cands) == brute_best(h, w, cands)


def test_pad_batch_layout_and_mask():
    seqs = [np.ones((1, 3)), 2 * np.ones((4, 3)), 3 * np.ones((2, 3))]
    padded, mask = pt.pad_batch(seqs)
    assert padded.shape == (3, 4, 3)
    assert mask.shape == (3, 4)
    assert mask.tolist() == [
        [True, False, False, False],
        [True, True, True, True],
        [True, True, False, False],
    ]
    assert np.array_equal(padded[1], seqs[1])
    assert np.all(padded[~mask] == 0.0)
    assert np.all(padded[0, 0] == 1.0) and np.all(padded[2, :2] == 3.0)


def test_pad_batch_validation():
    with pytest.raises(ValueError, match="empty"):
        pt.pad_batch([])
    with pytest.raises(ValueError, match="shape"):
        pt.pad_batch([np.ones((2, 3)), np.ones((2, 4))])
    with pytest.raises(ValueError, match="shape"):
        pt.pad_batch([np.ones(3)])
    with pytest.raises(ValueError, match="token"):
        pt.pad_batch([np.ones((0, 3))])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 64), st.floats(1.0, 6.0))
def test_candidate_set_invariants(max_tokens, max_aspect):
    cands = pt.candidate_set(max_tokens, max_aspect, 16)
    assert cands  # (1, 1) always qualifies
    for g in cands:
        assert g.tokens <= max_tokens
        assert g.aspect <= max_aspect


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 1000), st.integers(1, 1000), st.integers(0, 3))
def test_chosen_grid_scores_at_least_every_candidate(h, w, shift):
    cands = pt.candidate_set(32, 3.0, 16)
    best = pt.best_partition(h, w, cands)
    top = pt.matching_ratio(best, h, w)
    for g in cands:
        assert pt.matching_ratio(g, h, w) <= top
    # power-of-two upscaling is exact in binary: the winner cannot move
    assert pt.best_partition(h << shift, w << shift, cands) == best
    # non-dyadic scaling can reshuffle exact ties, but never the top score
    best3 = pt.best_partition(3 * h, 3 * w, cands)
    assert np.isclose(pt.matching_ratio(best3, 3 * h, 3 * w), top, rtol=1e-12)
