"""An untracked forward with one broadcast conditioning row and no capture
runs its batch in parts of whole images on the calling thread and worker
threads. Every split call must equal the one-part call bit for bit, and the
threads must behave: errors come back in batch order after every part has
finished, np.errstate reaches the workers, a forked child gets its own pool,
and a tracked, per-sample-conditioned or capturing call never splits.
Within a part, an untracked block MLP runs in row tiles on the same rules,
and must equal the untiled expression bit for bit; the tiles keep the
`gen` path from faulting its arrays in again on every evaluation.

Two measured rules make the split bitwise (numpy 2.4.6, OpenBLAS 0.3.31,
one BLAS thread, an AVX-512 Intel Xeon): no part holds a single GEMM row,
which numpy would hand to GEMV, and every GEMM a part runs is a multiple of
8 columns wide. Cutting the point checkpoint's 4096-token forward after rows
2, 3, 5, 7, 8, 15, 16, 33, 37, 63, 834, 1000, 1365, 4090 or 4094 gave the
one-part bytes; after row 1 or 4095 it did not. Plain 4096-row GEMMs of
widths 8, 16, 24, 32, 40, 48, 64, 72, 96, 128 and 256 kept their bytes at
every cut tried, and widths 2, 12, 130, 250 and 258 did not. Another BLAS
build or CPU may need other rules, which these tests would catch."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from flowdit import autodiff as ad
from flowdit import dit, flowlab, sampler
from test_dit import randomized, small_config

ROOT = Path(__file__).resolve().parents[1]
CHECKPOINT = ROOT / "perfbench" / "checkpoint"
TWO_CPUS = len(os.sched_getaffinity(0)) >= 2
SIZES = [1025, 2049, 2500, 4096, 8191]


@pytest.fixture(scope="module")
def point_model():
    return dit.load_model(CHECKPOINT)


@pytest.fixture(scope="module")
def image_model():
    return randomized(dit.init_model(small_config(n_classes=3), seed=3), seed=4)


@pytest.fixture(scope="module")
def gqa_model():
    """gen_image's attention shape: 4 query heads over 2 kv heads, d_model 64."""
    return randomized(dit.init_model(small_config(d_model=64, n_q_heads=4, n_kv_heads=2), seed=5), seed=6)


@pytest.fixture
def parts_seen(monkeypatch):
    """(span, thread ident) of every part that runs, through a spy on the part runner."""
    seen = []
    run_parts = dit._run_parts

    def spy(fn, jobs):
        def traced(job):
            seen.append((job, threading.get_ident()))
            return fn(job)

        return run_parts(traced, jobs)

    monkeypatch.setattr(dit, "_run_parts", spy)
    return seen


def one_part(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(dit, "_part_bounds", lambda config, batch, tokens: [0, batch])
        return call()


def usable_cpus(monkeypatch, n):
    """The part policy sees n usable CPUs: the caller and n - 1 pool workers."""
    monkeypatch.setattr(dit, "_pool", lambda pid: (None, n - 1))


def assert_split_across_threads(parts_seen, n_images):
    spans = sorted(span for span, _ in parts_seen)
    assert len(spans) >= 2 and spans[0][0] == 0 and spans[-1][1] == n_images
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))  # contiguous, whole images
    if TWO_CPUS:
        assert len({ident for _, ident in parts_seen}) == 2
    else:
        assert {ident for _, ident in parts_seen} == {threading.get_ident()}


@pytest.mark.parametrize("per_sample_t", [False, True], ids=["scalar_t", "per_sample_t"])
@pytest.mark.parametrize("n", SIZES)
def test_split_point_forward_is_bitwise_one_part(point_model, parts_seen, monkeypatch, n, per_sample_t):
    """Per-sample t gives one conditioning row per image, which the parts
    would have to slice: such a call runs as one part."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 1, 1, 2))
    t = rng.uniform(size=n) if per_sample_t else 0.37
    whole = one_part(monkeypatch, lambda: dit.forward_velocity(point_model, x, t))
    assert parts_seen == []
    split = dit.forward_velocity(point_model, x, t)
    if per_sample_t:
        assert parts_seen == []
    else:
        assert_split_across_threads(parts_seen, n)
    assert np.array_equal(split, whole)


@pytest.mark.parametrize("per_sample_t", [False, True], ids=["scalar_t", "per_sample_t"])
@pytest.mark.parametrize("n", SIZES)
def test_split_image_forward_is_bitwise_one_part_with_labels_pool_and_capture(
    image_model, parts_seen, monkeypatch, n, per_sample_t
):
    """Labels give one conditioning row per image and capture wants every
    image's states, so this call runs as one part and equals the one-part
    call, states included."""
    rng = np.random.default_rng(n + 1)
    x = rng.standard_normal((n, 4, 4, 2))
    t = rng.uniform(size=n) if per_sample_t else 0.61
    label = rng.integers(0, 3, n)
    kv_pool = ((2, 2), (2, 1))
    whole_states, split_states = [], []
    whole = one_part(
        monkeypatch, lambda: dit.forward_velocity(image_model, x, t, label=label, kv_pool=kv_pool, capture=whole_states)
    )
    split = dit.forward_velocity(image_model, x, t, label=label, kv_pool=kv_pool, capture=split_states)
    assert parts_seen == []
    assert np.array_equal(split, whole)
    assert len(split_states) == len(whole_states) == image_model.config.n_layers
    for got, want in zip(split_states, whole_states):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "capture"])
def test_labels_or_capture_alone_keep_a_scalar_t_call_in_one_part(image_model, parts_seen, monkeypatch, labelled):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4096, 4, 4, 2))
    label, states = (rng.integers(0, 3, 4096), None) if labelled else (None, [])
    whole_states = None if labelled else []
    whole = one_part(monkeypatch, lambda: dit.forward_velocity(image_model, x, 0.61, label=label, capture=whole_states))
    out = dit.forward_velocity(image_model, x, 0.61, label=label, capture=states)
    assert parts_seen == []
    assert np.array_equal(out, whole)
    assert labelled or all(np.array_equal(got, want) for got, want in zip(states, whole_states, strict=True))


@pytest.mark.parametrize("n", SIZES)
def test_split_image_forward_with_pool_is_bitwise_one_part(image_model, parts_seen, monkeypatch, n):
    """4x4 images of 2x2 patches: 4 tokens each, so parts cut the token
    GEMMs and the pooled attention at other row counts than the whole."""
    x = np.random.default_rng(n + 2).standard_normal((n, 4, 4, 2))
    kv_pool = ((2, 2), (2, 1))
    whole = one_part(monkeypatch, lambda: dit.forward_velocity(image_model, x, 0.61, kv_pool=kv_pool))
    split = dit.forward_velocity(image_model, x, 0.61, kv_pool=kv_pool)
    assert_split_across_threads(parts_seen, n)
    assert np.array_equal(split, whole)


@pytest.mark.parametrize("window", [None, (1, 1), (2, 2), (4, 4)], ids=["full", "1x1", "2x2", "4x4"])
@pytest.mark.parametrize("grid", [(10, 25), (16, 16)], ids=["10x25", "16x16"])
@pytest.mark.parametrize("batch", [2, 3])
def test_split_gqa_image_forward_is_bitwise_one_part(gqa_model, one_worker, parts_seen, monkeypatch, batch, grid, window):
    """gen_image's shapes: 250- and 256-token images on two CPUs (one pool
    worker, whatever this host has) run as two parts, the first image on
    the caller and the rest on the worker."""
    x = np.random.default_rng(batch).standard_normal((batch, 2 * grid[0], 2 * grid[1], 2))
    kv_pool = None if window is None else (grid, window)
    whole = one_part(monkeypatch, lambda: dit.forward_velocity(gqa_model, x, 0.61, kv_pool=kv_pool))
    assert parts_seen == []
    split = dit.forward_velocity(gqa_model, x, 0.61, kv_pool=kv_pool)
    (first, caller), (rest, worker) = sorted(parts_seen)
    assert (first, rest) == ((0, 1), (1, batch))
    assert caller == threading.get_ident() != worker
    assert np.array_equal(split, whole)


@pytest.mark.parametrize(
    "bounds", [[0, 2, 4096], [0, 3, 37, 4096], [0, 834, 1667, 2500, 4096], [0, 1000, 1365, 4094, 4096]]
)
def test_point_forward_cut_off_64_row_multiples_is_bitwise_one_part(point_model, one_worker, parts_seen, monkeypatch, bounds):
    x = np.random.default_rng(11).standard_normal((4096, 1, 1, 2))
    whole = one_part(monkeypatch, lambda: dit.forward_velocity(point_model, x, 0.37))
    monkeypatch.setattr(dit, "_part_bounds", lambda config, batch, tokens: bounds)
    split = dit.forward_velocity(point_model, x, 0.37)
    assert sorted(span for span, _ in parts_seen) == list(zip(bounds, bounds[1:]))
    assert np.array_equal(split, whole)


def test_generate_splits_every_velocity_evaluation(point_model, parts_seen):
    """gen's parallel path: each of the sampler's evaluations runs in parts."""
    spec = sampler.ScheduleSpec(kind="uniform", n_steps=3)
    flowlab.generate(point_model, 4096, spec, solver="midpoint", seed=0)
    n_parts, n_evals = 4, 3 * 2
    assert dit._part_bounds(point_model.config, 4096, 1) == [0, 1024, 2048, 3072, 4096]
    assert len(parts_seen) == n_parts * n_evals


def test_part_bounds_follow_the_policy(point_model, image_model, gqa_model, monkeypatch):
    """Policy, not correctness: about one part of whole images per 1024
    tokens, and for images of 192 tokens or more at least one per usable CPU."""
    points, images = point_model.config, gqa_model.config
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        assert dit._part_bounds(points, 4096, 1) == [0, 1024, 2048, 3072, 4096]  # gen_point's cut
        assert all(dit._part_bounds(points, n, 1) == [0, n] for n in range(1, 1025))
        assert dit._part_bounds(points, 1025, 1) == [0, 512, 1025]
        assert dit._part_bounds(points, 2049, 1) == [0, 683, 1366, 2049]
        assert dit._part_bounds(image_model.config, 1025, 4) == [0, 205, 410, 615, 820, 1025]
        assert dit._part_bounds(images, 2, 128) == [0, 2]  # too small to be worth a thread
        assert dit._part_bounds(images, 1, 256) == [0, 1]
        assert dit._part_bounds(images, 5, 256) == [0, 2, 5]
    usable_cpus(monkeypatch, 1)
    assert dit._part_bounds(images, 2, 250) == [0, 2]
    usable_cpus(monkeypatch, 2)
    assert dit._part_bounds(images, 2, 250) == [0, 1, 2]  # gen_image's batches
    assert dit._part_bounds(images, 3, 192) == [0, 1, 3]
    usable_cpus(monkeypatch, 4)
    assert dit._part_bounds(images, 2, 250) == [0, 1, 2]
    assert dit._part_bounds(images, 6, 250) == [0, 1, 3, 4, 6]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_no_part_is_a_single_gemm_row(point_model, gqa_model, monkeypatch, cpus):
    """A 1-row part goes to GEMV and moves bits; parts are near-equal runs of whole images."""
    usable_cpus(monkeypatch, cpus)
    for config in (point_model.config, gqa_model.config):
        for tokens in (1, 2, 4, 100, 191, 192, 250, 256, 1024, 1500):
            for batch in [*range(1, 70), *range(70, 9000, 97)]:
                bounds = dit._part_bounds(config, batch, tokens)
                sizes = np.diff(bounds)
                assert bounds[0] == 0 and bounds[-1] == batch and sizes.min() >= 1
                assert sizes.max() - sizes.min() <= 1
                assert len(sizes) == 1 or sizes.min() * tokens >= 2


def test_models_with_gemm_widths_off_the_multiple_of_8_never_split():
    """d_model 12: the token GEMMs' column tails would take other bits on
    OpenBLAS's small-matrix path in a part than on the blocked path in the whole."""
    config = small_config(d_model=12, n_q_heads=3, n_kv_heads=3)
    assert dit._part_bounds(config, 8192, 1) == [0, 8192]
    assert dit._part_bounds(config, 4, 256) == [0, 4]


def test_tracked_call_never_splits(point_model, parts_seen):
    x = np.random.default_rng(5).standard_normal((2048, 1, 1, 2))
    tracked = flowlab.wrap_parameters(point_model)
    dit.forward_velocity(tracked, x, 0.5)
    dit.forward_velocity(point_model, ad.Var(x), 0.5)
    assert parts_seen == []
    dit.forward_velocity(point_model, x, 0.5)  # the spy sees an untracked call
    assert len(parts_seen) == 2


def test_worker_parts_follow_the_callers_errstate(point_model, parts_seen):
    """The last part's points are infinite, so its embedding GEMM meets
    inf - inf; with two CPUs a worker runs it."""
    x = np.random.default_rng(6).standard_normal((2048, 1, 1, 2))
    x[1024:] = np.inf
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError, match="invalid value"):
            dit.forward_velocity(point_model, x, 0.5)
    last = [ident for span, ident in parts_seen if span == (1024, 2048)]
    assert len(last) == 1
    if TWO_CPUS:
        assert last[0] != threading.get_ident()
    with np.errstate(all="ignore"):  # a worker under the default state would warn, which fails the test
        out = dit.forward_velocity(point_model, x, 0.5)
    assert out.shape == x.shape


def test_concurrent_callers_share_the_pool(point_model, monkeypatch):
    """More calling threads than CPUs, switching often: every split call
    still returns its own one-part bytes, and none waits forever."""
    xs = [np.random.default_rng(10 + i).standard_normal((2049, 1, 1, 2)) for i in range(4)]
    wants = [one_part(monkeypatch, lambda x=x: dit.forward_velocity(point_model, x, 0.3)) for x in xs]
    gots = [None] * len(xs)

    def call(i):
        for _ in range(3):
            gots[i] = dit.forward_velocity(point_model, xs[i], 0.3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(xs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(np.array_equal(got, want) for got, want in zip(gots, wants))


@pytest.fixture
def one_worker(monkeypatch):
    """A one-worker pool whatever the CPU count."""
    executor = ThreadPoolExecutor(1)
    monkeypatch.setattr(dit, "_pool", lambda pid: (executor, 1))
    yield
    executor.shutdown()


def test_run_parts_returns_in_job_order(one_worker):
    out = dit._run_parts(lambda job: (job, threading.get_ident()), [0, 1, 2, 3])
    assert [job for job, _ in out] == [0, 1, 2, 3]
    caller = threading.get_ident()
    assert [ident == caller for _, ident in out] == [True, True, False, False]


@pytest.mark.parametrize(
    "failing,raised",
    [({0, 3}, 0), ({1, 2}, 1), ({2}, 2), ({3}, 3)],
    ids=["caller_and_worker", "both_shares", "worker_first", "worker_last"],
)
def test_run_parts_waits_for_every_part_and_raises_the_first_error_in_job_order(one_worker, failing, raised):
    finished = []

    def fn(job):
        try:
            if job >= 2:
                time.sleep(0.1)  # the worker's share ends well after the caller's
            if job in failing:
                raise ValueError(job)
            return job
        finally:
            finished.append(job)

    with pytest.raises(ValueError) as err:
        dit._run_parts(fn, [0, 1, 2, 3])
    done = list(finished)
    time.sleep(0.15)
    assert err.value.args == (raised,)
    assert done == finished  # nothing ran on after the call
    assert {2} <= set(done)  # the worker's share ran although the caller's failed


def _forward_in_child(model, x, expected):
    if not np.array_equal(dit.forward_velocity(model, x, 0.4), expected):
        raise SystemExit(1)


# Python 3.12+ warns when a process with threads forks; forking after a
# split call is exactly what this test does
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_makes_its_own_pool(point_model, parts_seen):
    x = np.random.default_rng(7).standard_normal((4096, 1, 1, 2))
    expected = dit.forward_velocity(point_model, x, 0.4)  # the parent's pool now has its threads
    assert len(parts_seen) == 4
    child = multiprocessing.get_context("fork").Process(target=_forward_in_child, args=(point_model, x, expected))
    child.start()
    child.join(60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0


# argv[1] is perfbench/ and argv[2] the CPUs to run on, as JSON; the
# affinity is set before numpy or flowdit loads
_CHECK_GENERATIONS = r"""
import hashlib
import json
import os
import sys
import threading

os.sched_setaffinity(0, json.loads(sys.argv[2]))
sys.path.insert(0, sys.argv[1])
import workloads

w = workloads.GenImage()
state = {"model": w.model()}
out = {}
for drop in (True, False):
    x1 = w.generate(state, w.check_noise(), w.check_grid, workloads.Outcome(), drop=drop)
    out[f"drop={drop}"] = hashlib.sha256(x1.tobytes()).hexdigest()
out["workers"] = sum(t.name.startswith("flowdit-part") for t in threading.enumerate())
print(json.dumps(out))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or not TWO_CPUS, reason="needs two usable CPUs to compare")
def test_gen_image_check_outputs_do_not_depend_on_the_usable_cpus():
    """gen_image's dropped and full check generations give the same bytes on
    one CPU, where every call runs as one part, and on all usable CPUs."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    cpus = sorted(os.sched_getaffinity(0))
    runs = []
    for allowed in (cpus[:1], cpus):
        proc = subprocess.run([sys.executable, "-c", _CHECK_GENERATIONS, str(ROOT / "perfbench"), json.dumps(allowed)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    one, every = runs
    assert one.pop("workers") == 0 and every.pop("workers") >= 1
    assert one == every


def _digest(model, x):
    return [x.tobytes()] + [value.tobytes() for value in model.params.values()]


@pytest.mark.parametrize(
    "case", ["points_4_parts", "images_2_parts", "pooled_images_2_parts", "per_sample_t", "capture"]
)
def test_forward_velocity_leaves_its_inputs_and_parameters_byte_identical(
    point_model, gqa_model, one_worker, parts_seen, case
):
    """The untracked block writes into the arrays it makes, never into x_t,
    a parameter or the shared modulation, in any part on any thread."""
    rng = np.random.default_rng(51)
    kwargs, parts = {}, 2
    if case == "points_4_parts":
        model, x, t, parts = point_model, rng.standard_normal((4096, 1, 1, 2)), 0.37, 4
    else:
        model, x, t = gqa_model, rng.standard_normal((2, 20, 50, 2)), 0.61
        if case == "pooled_images_2_parts":
            kwargs["kv_pool"] = ((10, 25), (2, 2))
        elif case == "per_sample_t":
            t, parts = np.array([0.2, 0.7]), 0
        elif case == "capture":
            kwargs["capture"], parts = [], 0
    before = _digest(model, x)
    dit.forward_velocity(model, x, t, **kwargs)
    assert len(parts_seen) == parts
    assert _digest(model, x) == before


def test_untracked_point_forward_allocation_peak_is_bounded(point_model):
    """Peak traced memory of one untracked 1024-point forward (one part) of
    the point checkpoint. With the norm, modulation, gate and SiLU chains
    written in place it read 2.77 MiB, and 3.76 MiB when each of those ops
    made a fresh array (numpy 2.4.6); with the MLP in 256-row tiles, 1.26 MiB."""
    x = np.random.default_rng(52).standard_normal((1024, 1, 1, 2))
    assert dit._part_bounds(point_model.config, 1024, 1) == [0, 1024]
    dit.forward_velocity(point_model, x, 0.37)
    tracemalloc.start()
    try:
        dit.forward_velocity(point_model, x, 0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2**20, peak / 2**20


def untiled_mlp(h, w1, w2):
    """The block's MLP as one expression over every row: the oracle of the tiles."""
    return ad.matmul(ad.silu(ad.matmul(h, w1)), w2)


@pytest.fixture
def tiles_seen(monkeypatch):
    """The tile cuts of every untracked MLP that runs, through a spy on _mlp_tiles."""
    seen = []
    mlp_tiles = dit._mlp_tiles

    def spy(rows, d, hidden):
        seen.append(mlp_tiles(rows, d, hidden))
        return seen[-1]

    monkeypatch.setattr(dit, "_mlp_tiles", spy)
    return seen


def untiled(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(dit, "_mlp", untiled_mlp)
        return call()


@pytest.mark.parametrize("n, tile_rows", [(255, [255]), (256, [256]), (257, [128, 129]), (513, [171, 171, 171]),
                                          (4096, [256] * 4)])
def test_tiled_point_mlp_is_bitwise_the_untiled_expression(point_model, tiles_seen, monkeypatch, n, tile_rows):
    """The point model's hidden is 128 wide, so a tile holds at most 256 rows;
    4096 points run in four 1024-point parts of four tiles each."""
    x = np.random.default_rng(n).standard_normal((n, 1, 1, 2))
    whole = untiled(monkeypatch, lambda: dit.forward_velocity(point_model, x, 0.37))
    assert tiles_seen == []
    tiled = dit.forward_velocity(point_model, x, 0.37)
    assert tiled.tobytes() == whole.tobytes()
    assert len(tiles_seen) == point_model.config.n_layers * max(1, n // 1024)
    assert all(np.diff(cuts).tolist() == tile_rows for cuts in tiles_seen)


def test_tiled_image_mlp_is_bitwise_the_untiled_expression(gqa_model, tiles_seen, monkeypatch):
    """gen_image's model: d_model 64, so a 256-wide hidden and tiles of at
    most 128 rows; two 250-token images in one part make four 125-row tiles."""
    x = np.random.default_rng(53).standard_normal((2, 20, 50, 2))
    kv_pool = ((10, 25), (2, 2))

    def call():
        return one_part(monkeypatch, lambda: dit.forward_velocity(gqa_model, x, 0.61, kv_pool=kv_pool))

    whole = untiled(monkeypatch, call)
    assert call().tobytes() == whole.tobytes()
    assert tiles_seen == [[0, 125, 250, 375, 500]] * gqa_model.config.n_layers


def test_mlps_off_the_multiple_of_8_run_untiled(tiles_seen, monkeypatch):
    model = randomized(dit.init_model(small_config(d_model=12, n_q_heads=3, n_kv_heads=3), seed=7), seed=8)
    x = np.random.default_rng(54).standard_normal((4, 16, 32, 2))
    whole = untiled(monkeypatch, lambda: dit.forward_velocity(model, x, 0.5))
    assert dit.forward_velocity(model, x, 0.5).tobytes() == whole.tobytes()
    assert tiles_seen == [[0, 512]] * model.config.n_layers
    assert dit._mlp_tiles(4096, 12, 48) == [0, 4096]
    assert dit._mlp_tiles(4096, 16, 20) == [0, 4096]


def test_taped_mlp_never_tiles(point_model, tiles_seen):
    x = np.random.default_rng(55).standard_normal((1024, 1, 1, 2))
    dit.forward_velocity(flowlab.wrap_parameters(point_model), x, 0.5)
    assert tiles_seen == []


def test_no_mlp_tile_is_a_single_gemm_row():
    """Near-equal tiles of at most 32768 hidden values (past a 16384-wide
    hidden, two rows are more than that), none of one row."""
    for hidden in (8, 16, 128, 256, 1024, 16384, 32768):
        for rows in [*range(0, 600), *range(600, 9000, 53)]:
            sizes = np.diff(dit._mlp_tiles(rows, 8, hidden))
            assert len(sizes) >= 1 and sizes.sum() == rows
            assert sizes.max() - sizes.min() <= 1
            assert len(sizes) == 1 or sizes.min() >= 2
            if hidden <= 16384:
                assert sizes.max() * hidden <= 32768 or len(sizes) == rows // 2


# argv[1] is src/ and argv[2] the CPUs to run on, as JSON; prints the minor
# page faults of each 4096-point point_velocity call on perfbench's checkpoint
_COUNT_FAULTS = r"""
import json
import os
import resource
import sys

os.sched_setaffinity(0, json.loads(sys.argv[2]))
import numpy as np
from flowdit import dit, flowlab

model = dit.load_model(os.path.join(sys.argv[1], "checkpoint"))
x = np.random.default_rng(0).standard_normal((4096, 2))
faults = []
for _ in range(21):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    flowlab.point_velocity(model, x, 0.3)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def gen_path_faults(cpus):
    """Median minor faults per 4096-point evaluation after the first, in a
    fresh interpreter with glibc's malloc at its defaults."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _COUNT_FAULTS, str(ROOT / "perfbench"), json.dumps(cpus)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return float(np.median(json.loads(proc.stdout.splitlines()[-1])[1:]))


GLIBC = hasattr(os, "confstr") and "glibc" in (os.confstr("CS_GNU_LIBC_VERSION") or "")


@pytest.mark.skipif(not GLIBC or not hasattr(os, "sched_setaffinity"), reason="counts glibc's heap trims")
@pytest.mark.parametrize("n_cpus", [2, 1])
def test_gen_path_does_not_fault_its_arrays_in_on_every_evaluation(n_cpus):
    """Whole, a 1024-point part's MLP hidden array and SiLU buffer were 1 MB
    each; glibc gave their pages back when the call freed them, and the next
    call faulted them in again: 4224 faults per call on 2 CPUs and 4320 on
    one (numpy 2.4.6, glibc 2.36). Tiles keep the heap under glibc's trim
    threshold. On one CPU the four part outputs and their 1 MB concatenation
    still reach it, at 480."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < n_cpus:
        pytest.skip(f"needs {n_cpus} usable CPUs")
    faults = gen_path_faults(cpus[:n_cpus])
    assert faults < (100 if n_cpus == 2 else 4320 / 8), faults
