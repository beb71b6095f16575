"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import statistics
import subprocess
import sys

import run

run.prepare()

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flowdit import autodiff, dit, flowlab  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def layer_functions() -> dict:
    return {
        (name, attr): fn
        for name in tracing.LAYER_MODULES
        for attr, fn in tracing.public_functions(importlib.import_module(name))
    }


def test_untraced_run_keeps_every_original_function():
    before = layer_functions()
    assert ("flowdit.autodiff", "matmul") in before and ("flowdit.flowlab", "train") in before
    run.run_workload("gen_point", seed=0, seconds=0.5, trace=False)
    assert all(after is before[key] for key, after in layer_functions().items())

    tracer = tracing.Tracer()
    with tracer.installed():
        assert autodiff.matmul is not before[("flowdit.autodiff", "matmul")]
        assert flowlab.train is not before[("flowdit.flowlab", "train")]
    assert layer_functions() == before
    assert all(after is before[key] for key, after in layer_functions().items())


def test_train_self_times_add_up_to_step_time():
    """fwd (cfm_loss span) + bwd (grad span) + optimizer (train's self time)
    against the step time the untraced step clock measures: within 5%."""
    workload = workloads.TrainPoint()
    state = workload.setup(0)
    tracer = tracing.Tracer()
    with tracer.installed():
        outcome = workload.run(state, seconds=1.5)
    m = run.per_layer(tracer, outcome, outcome, (0, 0.0))
    step = statistics.fmean(outcome.op_ms)
    parts = m["autodiff.fwd_ms"] + m["autodiff.bwd_ms"] + m["flowlab.optimizer_ms"]
    assert abs(parts - step) / step < 0.05, (parts, step)
    assert sum(m[f"autodiff.bwd.{op}_ms"] for op in run.BWD_OPS) <= m["autodiff.bwd_ms"]
    assert m["autodiff.nodes_per_step"] > 0 and m["autodiff.nodes_per_step"].is_integer()


def test_step_clock_draws_what_the_seed_names():
    data = workloads.TrainPoint.data()
    config = flowlab.point_model_config()
    by_seed = flowlab.train(dit.init_model(config, seed=3), data, workloads.TrainPoint.train_config(3, 3))
    clock = workloads.StepClock(3)
    by_clock = flowlab.train(dit.init_model(config, seed=3), data, workloads.TrainPoint.train_config(3, clock))
    assert np.array_equal(by_seed, by_clock) and len(clock.starts) == 3


def test_benchmark_json_lists_what_run_reports():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: v[0] for k, v in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "gen_point", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
