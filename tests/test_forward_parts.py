"""An untracked forward with one broadcast conditioning row and no capture
runs a large batch in parts of whole images on the calling thread and worker
threads. Every split call must equal the one-part call bit for bit, and the
threads must behave: errors come back in batch order after every part has
finished, np.errstate reaches the workers, a forked child gets its own pool,
and a tracked, per-sample-conditioned or capturing call never splits."""

import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from flowdit import autodiff as ad
from flowdit import dit, flowlab, sampler
from test_dit import randomized, small_config

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoint"
TWO_CPUS = len(os.sched_getaffinity(0)) >= 2
SIZES = [1025, 2049, 2500, 4096, 8191]


@pytest.fixture(scope="module")
def point_model():
    return dit.load_model(CHECKPOINT)


@pytest.fixture(scope="module")
def image_model():
    return randomized(dit.init_model(small_config(n_classes=3), seed=3), seed=4)


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
        m.setattr(dit, "_PART_TOKENS", 1 << 62)
        return call()


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


def test_generate_splits_every_velocity_evaluation(point_model, parts_seen):
    """gen's parallel path: each of the sampler's evaluations runs in parts."""
    spec = sampler.ScheduleSpec(kind="uniform", n_steps=3)
    flowlab.generate(point_model, 4096, spec, solver="midpoint", seed=0)
    n_parts, n_evals = 4, 3 * 2
    assert dit._part_bounds(point_model.config, 4096, 1) == [0, 1024, 2048, 3072, 4096]
    assert len(parts_seen) == n_parts * n_evals


def test_part_bounds_are_aligned_and_near_equal(point_model, image_model):
    points, images = point_model.config, image_model.config
    assert dit._part_bounds(points, 1024, 1) == [0, 1024]
    assert dit._part_bounds(points, 1025, 1) == [0, 512, 1025]
    assert dit._part_bounds(points, 2049, 1) == [0, 704, 1344, 2049]
    assert dit._part_bounds(points, 4096, 1) == [0, 1024, 2048, 3072, 4096]
    assert dit._part_bounds(images, 1025, 4) == [0, 208, 416, 608, 816, 1025]  # 16 images per 64 rows
    assert dit._part_bounds(images, 2, 256) == [0, 2]  # gen_image's batches stay one part
    assert dit._part_bounds(images, 5, 256) == [0, 2, 5]
    for n in range(1025, 9000, 97):
        bounds = dit._part_bounds(points, n, 1)
        sizes = np.diff(bounds)
        assert all(b % 64 == 0 for b in bounds[:-1]) and sizes.min() >= 64
        assert sizes.max() <= 1024 + 64


def test_models_with_gemm_widths_off_the_multiple_of_8_never_split():
    """d_model 12: the token GEMMs' column tails would take other bits on
    OpenBLAS's small-matrix path in a part than on the blocked path in the whole."""
    config = small_config(d_model=12, n_q_heads=3, n_kv_heads=3)
    assert dit._part_bounds(config, 8192, 1) == [0, 8192]


def test_tracked_call_never_splits(point_model, parts_seen):
    x = np.random.default_rng(5).standard_normal((2048, 1, 1, 2))
    tracked = dit.ModelParams(point_model.config, {k: ad.Var(v) for k, v in point_model.params.items()})
    dit.forward_velocity(tracked, x, 0.5)
    dit.forward_velocity(point_model, ad.Var(x), 0.5)
    assert parts_seen == []
    dit.forward_velocity(point_model, x, 0.5)  # the spy sees an untracked call
    assert len(parts_seen) == 2


def test_worker_parts_follow_the_callers_errstate(point_model, parts_seen):
    """The last part overflows; with two CPUs a worker runs it."""
    x = np.random.default_rng(6).standard_normal((2048, 1, 1, 2))
    x[1024:] = 1e300
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
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
