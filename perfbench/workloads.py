"""The three closed-loop workloads of the flowdit benchmark.

Each workload has one caller that waits for every training step or
generation before it starts the next. `setup` builds what a user pays for
once (dataset, model or checkpoint, warm-up), `run` drives the program for
a given number of seconds and times every operation, and `check` runs the
fixed-input correctness checks whose failures count toward the fail rate.
All flowdit functions are looked up on their modules at call time, so a
traced run sees the wrappers that `tracing.Tracer` installs.
"""

from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from flowdit import contextdrop, dit, flowlab, partitioner, sampler

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "checkpoint"
REFERENCE = HERE / "reference.json"

# `flowdit gen` defaults used by criterion 11: 8 midpoint steps, 16 evaluations
SPEC = sampler.ScheduleSpec(kind="sigmoid", n_steps=8)
SOLVER = "midpoint"


class SpeedProbe:
    """Times a fixed numpy kernel between operations, at most every `interval_s`.

    The host is shared and its speed drifts by tens of percent within
    seconds, alike for this kernel and for flowdit. The kernel times around
    an operation measure the speed the machine had for it; run.py scales the
    operation's time by that, so runs made at different moments compare.
    The kernel never calls flowdit.
    """

    interval_s = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 32, 96))
        self.b = rng.standard_normal((256, 32, 64))
        self.e = rng.standard_normal(250_000)
        self.ms = []
        self.at = []  # perf_counter at each sample's start
        self.total_s = 0.0
        self._last = -np.inf

    def maybe_sample(self) -> None:
        start = perf_counter()
        if start - self._last < self.interval_s:
            return
        np.swapaxes(self.a, -1, -2) @ self.b
        np.exp(self.e)
        self._last = perf_counter()
        self.at.append(start)
        self.ms.append((self._last - start) * 1e3)
        self.total_s += self._last - start


@dataclass
class Outcome:
    """What one timed run produced."""

    op_ms: list = field(default_factory=list)  # per training step or velocity evaluation
    op_at: list = field(default_factory=list)  # perf_counter at each operation's start
    items: int = 0  # training samples, generated points or generated images
    wall_s: float = 0.0  # the timed loop, without the probe's time
    probe: SpeedProbe | None = None  # timed runs only
    attempted: int = 0
    failed: int = 0
    quality: float = float("nan")  # train_point only; the generators score a fixed input in check()
    token_fill: float = 0.0  # gen_image only


def _failed_operation(workload: str) -> None:
    print(f"{workload}: operation failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


class StepClock(np.random.Generator):
    """The training generator, stamping the boundaries of every step.

    `flowlab.train` seeds its generator with `default_rng(config.seed)`,
    which returns a Generator unaltered, and draws the batch indices with
    one `integers` call at the start of each step. The draws equal those of
    `default_rng(seed)`, so the run is the one the seed names. The speed
    probe runs between a step's end and the next step's start.
    """

    def __init__(self, seed: int, probe: SpeedProbe | None = None):
        super().__init__(np.random.PCG64(seed))
        self.probe = probe
        self.starts = []
        self.ends = []  # ends[i] closes step i - 1

    def integers(self, *args, **kwargs):
        self.ends.append(perf_counter())
        if self.probe is not None:
            self.probe.maybe_sample()
        self.starts.append(perf_counter())
        return super().integers(*args, **kwargs)

    def step_ms(self, end: float) -> list:
        return list((np.array(self.ends[1:] + [end]) - np.array(self.starts)) * 1e3)


class TrainPoint:
    """`flowlab.train` at the criterion-11 configuration."""

    name = "train_point"
    prefix, op, items, quality = "train", "step_ms", "samples_per_s", "loss_tail"
    batch = 512
    tail_steps = 200  # loss_tail averages steps [180, 200), so it is fixed by the seed
    warmup_steps = 3
    reference_steps = 20

    @staticmethod
    def train_config(steps: int, seed) -> flowlab.TrainConfig:
        return flowlab.TrainConfig(steps=steps, batch_size=TrainPoint.batch, lr=2e-3, optimizer="adam", seed=seed)

    @staticmethod
    def data() -> np.ndarray:
        return flowlab.toy_dataset("eight_gaussians", 65536, seed=7)

    def setup(self, seed: int) -> dict:
        data = self.data()
        config = flowlab.point_model_config()
        clock = StepClock(seed)
        flowlab.train(dit.init_model(config, seed=seed), data, self.train_config(self.warmup_steps, clock))
        step_s = float(np.median(clock.step_ms(perf_counter())[1:])) / 1e3
        return {"seed": seed, "data": data, "model": dit.init_model(config, seed=seed), "step_s": step_s}

    def run(self, state: dict, seconds: float, min_steps: int = 0) -> Outcome:
        """One `train` call, sized from the warm-up so it lasts about `seconds`."""
        steps = max(min_steps, round(seconds / state["step_s"]), 2)
        out = Outcome(items=steps * self.batch, attempted=steps, probe=SpeedProbe())
        clock = StepClock(state["seed"], out.probe)
        start = perf_counter()
        try:
            losses = flowlab.train(state["model"], state["data"], self.train_config(steps, clock))
        except Exception:
            _failed_operation(self.name)
            losses = np.full(steps, np.nan)
        end = perf_counter()
        out.op_ms, out.op_at = clock.step_ms(end), clock.starts
        out.wall_s = end - start - out.probe.total_s
        out.failed = int(np.count_nonzero(~np.isfinite(losses)))
        if steps >= self.tail_steps:
            out.quality = float(np.mean(losses[self.tail_steps - self.tail_steps // 10 : self.tail_steps]))
        return out

    def reference_loss(self) -> float:
        """Loss at the last of the first 20 steps of the criterion-11 run (seed 0)."""
        model = dit.init_model(flowlab.point_model_config(), seed=0)
        return float(flowlab.train(model, self.data(), self.train_config(self.reference_steps, 0))[-1])

    def check(self, state: dict, outcome: Outcome, reference: dict) -> list:
        """[(name, passed, detail)]; the timed steps are checked in run()."""
        ref = reference["train_point"]
        try:
            loss = self.reference_loss()
            passed = bool(np.isclose(loss, ref["loss"], rtol=ref["rtol"], atol=0.0))
            detail = f"loss at step {self.reference_steps - 1} = {loss!r}, stored {ref['loss']!r}, rtol {ref['rtol']}"
        except Exception:
            _failed_operation(self.name)
            passed, detail = False, "raised"
        return [("reference_loss", passed, detail)]


class GenPoint:
    """`flowdit gen` on the committed point-flow checkpoint."""

    name = "gen_point"
    prefix, op, items, quality = "gen", "nfe_ms", "samples_per_s", "energy_distance"
    n_samples = 4096
    warmup_samples = 256

    def setup(self, seed: int) -> dict:
        model = dit.load_model(CHECKPOINT)
        state = {"model": model, "rng": np.random.default_rng(seed)}
        self.generate(state, np.random.default_rng(seed).standard_normal((self.warmup_samples, 2)), Outcome())
        return state

    @staticmethod
    def generate(state: dict, x0: np.ndarray, out: Outcome) -> np.ndarray:
        model = state["model"]

        def velocity(x, t):
            if out.probe is not None:
                out.probe.maybe_sample()
            start = perf_counter()
            v = flowlab.point_velocity(model, x, t)
            out.op_ms.append((perf_counter() - start) * 1e3)
            out.op_at.append(start)
            return v

        return sampler.sample_flow(velocity, x0, SPEC, solver=SOLVER)

    def run(self, state: dict, seconds: float, min_steps: int = 0) -> Outcome:
        out = Outcome(probe=SpeedProbe())
        start = perf_counter()
        while perf_counter() - start < seconds:
            x0 = state["rng"].standard_normal((self.n_samples, 2))
            out.attempted += 1
            try:
                x1 = self.generate(state, x0, out)
            except Exception:
                _failed_operation(self.name)
                out.failed += 1
                continue
            out.items += self.n_samples
            out.failed += int(not np.isfinite(x1).all())
        out.wall_s = perf_counter() - start - out.probe.total_s
        return out

    def energy_distance(self, state: dict) -> float:
        """Criterion 11's score: seed-1 samples against 4096 held-out points (seed 1234)."""
        x1 = self.generate(state, np.random.default_rng(1).standard_normal((self.n_samples, 2)), Outcome())
        held_out = flowlab.toy_dataset("eight_gaussians", self.n_samples, seed=1234)
        return float(flowlab.energy_distance(x1, held_out))

    def check(self, state: dict, outcome: Outcome, reference: dict) -> list:
        bound = reference["gen_point"]["energy_distance_bound"]
        try:
            outcome.quality = self.energy_distance(state)
            passed = outcome.quality < bound
            detail = f"energy distance {outcome.quality!r} < {bound}"
        except Exception:
            _failed_operation(self.name)
            passed, detail = False, "raised"
        return [("energy_distance", passed, detail)]


class GenImage:
    """Multi-token generation with dynamic patch grids and context drop."""

    name = "gen_image"
    prefix, op, items, quality = "img", "nfe_ms", "images_per_s", "drop_error"
    config = dit.ModelConfig(d_model=64, n_layers=4, n_q_heads=4, n_kv_heads=2, patch=2)
    perturb_seed, perturb_std = 2406, 0.1
    token_budget, max_aspect = 256, 4.0
    # requested aspect ratios (rows:cols); each has an exact grid that fills 94-100%
    # of the token budget, so every pass costs the same whatever the seed
    aspects = ((1, 1), (1, 4), (4, 1), (3, 5), (5, 3), (7, 9), (9, 7), (2, 5), (5, 2))
    batch = 2  # requests per aspect in one pass, sampled together
    drop = contextdrop.DropSpec(0.9)
    check_grid, check_seed = (10, 25), 0

    def model(self) -> dit.ModelParams:
        """A fresh model outputs exactly 0, so every weight gets fixed noise."""
        model = dit.init_model(self.config, seed=0)
        rng = np.random.default_rng(self.perturb_seed)
        for name, value in dit.named_parameters(model):
            dit.set_parameter(model, name, value + self.perturb_std * rng.standard_normal(value.shape))
        return model

    def setup(self, seed: int) -> dict:
        state = {"model": self.model(), "rng": np.random.default_rng(seed)}
        side = 16 * self.config.patch
        x = np.random.default_rng(seed).standard_normal((self.batch, side, side, self.config.in_channels))
        dit.forward_velocity(state["model"], x, 0.5)
        return state

    def generate(self, state: dict, x0: np.ndarray, grid, out: Outcome, drop: bool = True) -> np.ndarray:
        model = state["model"]

        def velocity(x, t):
            if out.probe is not None:
                out.probe.maybe_sample()
            start = perf_counter()
            kv_pool = (grid, contextdrop.window_for_ratio(self.drop.ratio(float(t)))) if drop else None
            v = dit.forward_velocity(model, x, t, kv_pool=kv_pool)
            out.op_ms.append((perf_counter() - start) * 1e3)
            out.op_at.append(start)
            return v

        return sampler.sample_flow(velocity, x0, SPEC, solver=SOLVER)

    def requests(self, rng) -> list:
        """One pass: `batch` requests per aspect, seeded pixel sizes, seeded order."""
        sizes = [(a * m, b * m) for a, b in self.aspects for m in rng.integers(8, 160, self.batch)]
        return [sizes[i] for i in rng.permutation(len(sizes))]

    def run(self, state: dict, seconds: float, min_steps: int = 0) -> Outcome:
        """Whole passes only, as many as the first one says fit in `seconds`.

        NFE times cluster by grid and pooling window, so a partial pass would
        shift the percentiles with the seed's request order.
        """
        out = Outcome(probe=SpeedProbe())
        rng, patch = state["rng"], self.config.patch
        fills = []
        passes, done = 1, 0
        start = perf_counter()
        while done < passes:
            candidates = partitioner.candidate_set(self.token_budget, self.max_aspect, patch)
            batches = {}
            for height, width in self.requests(rng):
                grid = partitioner.best_partition(height, width, candidates)
                fills.append(grid.tokens / self.token_budget)
                batches.setdefault((grid.rows, grid.cols), []).append((height, width))
            for grid, members in batches.items():
                x0 = rng.standard_normal((len(members), grid[0] * patch, grid[1] * patch, self.config.in_channels))
                out.attempted += 1
                try:
                    x1 = self.generate(state, x0, grid, out)
                except Exception:
                    _failed_operation(self.name)
                    out.failed += 1
                    continue
                out.items += len(members)
                out.failed += int(not np.isfinite(x1).all())
            done += 1
            if done == 1:
                passes = max(1, round(seconds / (perf_counter() - start)))
        out.wall_s = perf_counter() - start - out.probe.total_s
        out.token_fill = float(np.mean(fills))
        return out

    def check_noise(self) -> np.ndarray:
        rows, cols = self.check_grid
        shape = (self.batch, rows * self.config.patch, cols * self.config.patch, self.config.in_channels)
        return np.random.default_rng(self.check_seed).standard_normal(shape)

    @staticmethod
    def fingerprint(x: np.ndarray) -> list:
        return [float(x.mean()), float(np.abs(x).mean()), float(np.sqrt(np.mean(x * x))), float(x.flat[0]), float(x.flat[-1])]

    def check(self, state: dict, outcome: Outcome, reference: dict) -> list:
        """Fixed-input checks; the drop-vs-full error of the check batch is the quality."""
        ref = reference["gen_image"]
        results = []
        x0 = self.check_noise()
        try:
            pooled = dit.forward_velocity(state["model"], x0, 0.3, kv_pool=(self.check_grid, (1, 1)))
            plain = dit.forward_velocity(state["model"], x0, 0.3)
            results.append(("window_1x1_bit_identical", bool(np.array_equal(pooled, plain)), "kv_pool (1,1) vs None"))
        except Exception:
            _failed_operation(self.name)
            results.append(("window_1x1_bit_identical", False, "raised"))
        try:
            dropped = self.generate(state, x0, self.check_grid, Outcome())
            full = self.generate(state, x0, self.check_grid, Outcome(), drop=False)
            got = self.fingerprint(dropped)
            passed = bool(np.isfinite(dropped).all()) and bool(np.allclose(got, ref["fingerprint"], rtol=ref["rtol"], atol=0.0))
            results.append(("fingerprint", passed, f"{got} vs stored, rtol {ref['rtol']}"))
            outcome.quality = float(np.linalg.norm(dropped - full) / np.linalg.norm(full))
        except Exception:
            _failed_operation(self.name)
            results.append(("fingerprint", False, "raised"))
        return results


WORKLOADS = {w.name: w for w in (TrainPoint(), GenPoint(), GenImage())}
