"""The bitwise anchors: sha256 prefixes of ten fixed runs' bytes, which a
change that claims unchanged bits must keep.

- `gen_image.drop` / `.full`: perfbench's gen_image check generation, with
  and without context drop.
- `gen.<solver>.<schedule>`: 4096 points from the committed checkpoint at
  8 steps, seed 1.
- `train.losses` / `train.params`: 200 criterion-11 steps; the losses, and
  the final parameters concatenated in dict order.

The hashes depend on OpenBLAS's kernels, so they hold only on the machine
anchors.json records (numpy, BLAS and CPU model as perfbench's `machine`
line reports them). Elsewhere the test skips and its reason gives the
hashes computed there, ready to record. A change that moves bits on
purpose re-pins anchors.json in its own commit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = json.loads((Path(__file__).parent / "anchors.json").read_text())

# run with one BLAS thread; argv[1] is perfbench/, whose workloads and
# machine report the gen_image recipe and the machine key come from
_RECIPES = r"""
import hashlib
import json
import sys

import numpy as np

perfbench = sys.argv[1]
sys.path.insert(0, perfbench)
import run
import workloads
from flowdit import dit, flowlab, sampler


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:12]


anchors = {}
w = workloads.GenImage()
state = {"model": w.model()}
for name, drop in (("drop", True), ("full", False)):
    x1 = w.generate(state, w.check_noise(), w.check_grid, workloads.Outcome(), drop=drop)
    anchors[f"gen_image.{name}"] = digest(x1)
model = dit.load_model(f"{perfbench}/checkpoint")
for solver in ("euler", "midpoint", "rk4"):
    for kind in ("uniform", "sigmoid"):
        spec = sampler.ScheduleSpec(kind=kind, n_steps=8)
        anchors[f"gen.{solver}.{kind}"] = digest(flowlab.generate(model, 4096, spec, solver=solver, seed=1))
model = dit.init_model(flowlab.point_model_config(), seed=0)
data = flowlab.toy_dataset("eight_gaussians", 65536, seed=7)
losses = flowlab.train(model, data, flowlab.TrainConfig(steps=200, batch_size=512, lr=2e-3, seed=0))
anchors["train.losses"] = digest(np.asarray(losses))
anchors["train.params"] = digest(np.concatenate([np.ravel(a) for a in model.params.values()]))
machine = {key: run.machine_info(1)[key] for key in ("blas", "cpu_model", "numpy")}
print(json.dumps({"machine": machine, "anchors": anchors}))
"""


def test_bitwise_anchors_hold_on_the_recorded_machine():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _RECIPES, str(ROOT / "perfbench")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    if got["machine"] != RECORDED["machine"]:
        pytest.skip(f"anchors are recorded for {RECORDED['machine']}; on {got['machine']} "
                    f"they hash to {json.dumps(got['anchors'])}")
    assert got["anchors"].keys() == RECORDED["anchors"].keys()
    moved = [f"{name}: {want} -> {got['anchors'][name]}"
             for name, want in RECORDED["anchors"].items() if got["anchors"][name] != want]
    assert not moved, "anchors moved: " + "; ".join(moved)
