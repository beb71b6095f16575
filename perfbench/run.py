#!/usr/bin/env python3
"""flowdit benchmark: toy training, point generation and patch-grid generation.

    python3 perfbench/run.py --workload train_point --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the workload runs untraced and the report gives the
end-to-end metrics. With --trace 1 the first third of the time runs
untraced and the rest with every public flowdit function wrapped, and the
report gives the per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Run it from a checkout: it imports flowdit from ../src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREADS = 1  # two were no faster on 2 CPUs (small GEMMs) and spread more; never above nproc
SETUPS = 5  # setup_s is the median of this many set-ups in one run
# times are scaled to a machine on which the speed probe's kernel takes this long
# (about its median on the 2-CPU Xeon the baseline came from) ...
PROBE_NOMINAL_MS = 6.0
# ... by the probe samples taken within this many seconds of an operation's start
PROBE_WINDOW_S = 2.0
UNTRACED_SHARE = 1 / 3  # of a traced run's seconds, spent untraced for trace.overhead_pct

# the end-to-end metrics every workload reports, and the name each has in a workload
END_TO_END = {
    "op_ms.p50": ("ms", "{op}.p50"),
    "op_ms.p90": ("ms", "{op}.p90"),
    "items_per_s": ("1/s", "{items}"),
    "quality": ("1", "{quality}"),
    "setup_s": ("s", "setup_s"),
    "peak_rss_mb": ("MB", "peak_rss_mb"),
}

BWD_OPS = ("matmul", "add", "mul", "sub", "take", "power", "mean", "sum_", "reshape",
           "swapaxes", "stack", "repeat", "softmax", "silu", "tanh")
FWD_OPS = BWD_OPS + ("rms_norm", "transpose")


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {"autodiff.nodes_per_step": "count", "autodiff.fwd_ms": "ms", "autodiff.bwd_ms": "ms"}
    for op in BWD_OPS:
        units[f"autodiff.bwd.{op}_ms"] = "ms"
        units[f"autodiff.bwd.{op}_calls"] = "count"
    for op in FWD_OPS:
        units[f"autodiff.fwd.{op}_ms"] = "ms"
    units.update({
        "numkernel.matmul_calls": "count",
        "numkernel.matmul_ms": "ms",
        "numkernel.matmul_gflop": "GFLOP",
        "numkernel.matmul_gflop_per_s": "GFLOP/s",
        "numkernel.softmax_ms": "ms",
        "numkernel.rms_norm_ms": "ms",
        "numkernel.pool_matrix_ms": "ms",
        "rope.apply_rope_ms": "ms",
        "rope.apply_rope_calls": "count",
        "dit.attn_ms": "ms",
        "dit.block_self_ms": "ms",
        "dit.trunk_self_ms": "ms",
        "dit.load_model_ms": "ms",
        "contextdrop.kept_key_fraction": "ratio",
        "partitioner.candidate_set_ms": "ms",
        "partitioner.best_partition_ms": "ms",
        "partitioner.token_fill": "ratio",
        "sampler.nfe": "count",
        "sampler.self_ms": "ms",
        "flowlab.optimizer_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


def machine_info(blas_threads: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_threads_reported": openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def openblas_threads():
    """The thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of the sample, by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slowdowns(outcome) -> list:
    """Per operation, how much slower than nominal the machine ran around it."""
    near_all = statistics.median(outcome.probe.ms)
    out = []
    for t in outcome.op_at:
        near = [ms for at, ms in zip(outcome.probe.at, outcome.probe.ms) if abs(at - t) <= PROBE_WINDOW_S]
        out.append((statistics.median(near) if near else near_all) / PROBE_NOMINAL_MS)
    return out


def scaled_ms(outcome) -> list:
    return [ms / slow for ms, slow in zip(outcome.op_ms, slowdowns(outcome))]


def end_to_end(outcome, setup_times, op_ms: list) -> dict:
    """The metrics, at the machine speed `op_ms` (scaled or not) was taken at."""
    machine = sum(outcome.op_ms) / sum(op_ms)  # the run's time-weighted slowdown
    return {
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": percentile(op_ms, 90),
        "items_per_s": outcome.items / outcome.wall_s * machine,
        "quality": outcome.quality,
        "setup_s": statistics.median(setup_times) / machine,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, untraced, traced, load_model) -> dict:
    """Layer metrics from one traced run; `_ms` and counts are per operation."""
    n = len(traced.op_ms)

    def per_op_ms(seconds):
        return seconds * 1e3 / n

    incl, self_time, calls = tracer.inclusive, tracer.self_time, tracer.calls
    m = {
        "autodiff.nodes_per_step": tracer.nodes / n,
        "autodiff.fwd_ms": per_op_ms(incl("flowlab.cfm_loss")),
        "autodiff.bwd_ms": per_op_ms(incl("flowlab.grad")),
    }
    for op in BWD_OPS:
        m[f"autodiff.bwd.{op}_ms"] = per_op_ms(incl(f"autodiff.bwd.{op}"))
        m[f"autodiff.bwd.{op}_calls"] = calls(f"autodiff.bwd.{op}") / n
    for op in FWD_OPS:
        m[f"autodiff.fwd.{op}_ms"] = per_op_ms(self_time(f"autodiff.{op}"))
    matmul_s = incl("numkernel.matmul")
    m.update({
        "numkernel.matmul_calls": calls("numkernel.matmul") / n,
        "numkernel.matmul_ms": per_op_ms(matmul_s),
        "numkernel.matmul_gflop": tracer.matmul_flop / 1e9 / n,
        "numkernel.matmul_gflop_per_s": tracer.matmul_flop / 1e9 / matmul_s if matmul_s else 0.0,
        "numkernel.softmax_ms": per_op_ms(incl("numkernel.softmax")),
        "numkernel.rms_norm_ms": per_op_ms(incl("numkernel.rms_norm")),
        "numkernel.pool_matrix_ms": per_op_ms(incl("numkernel.pool_matrix")),
        "rope.apply_rope_ms": per_op_ms(incl("rope.apply_rope")),
        "rope.apply_rope_calls": calls("rope.apply_rope") / n,
        "dit.attn_ms": per_op_ms(incl("dit.gqa_attention")),
        "dit.block_self_ms": per_op_ms(incl("dit.sandwich_block") - incl("dit.gqa_attention")),
        "dit.trunk_self_ms": per_op_ms(incl("dit.forward_velocity") - incl("dit.sandwich_block")),
        "dit.load_model_ms": load_model[1] * 1e3 / load_model[0] if load_model[0] else 0.0,
        "contextdrop.kept_key_fraction": tracer.keys_kept / tracer.keys_available if tracer.keys_available else 0.0,
    })
    for fn in ("candidate_set", "best_partition"):
        name = f"partitioner.{fn}"
        m[f"{name}_ms"] = incl(name) * 1e3 / calls(name) if calls(name) else 0.0
    m["partitioner.token_fill"] = traced.token_fill
    flows = calls("sampler.sample_flow")
    m["sampler.nfe"] = n / flows if flows else 0.0
    # the speed probe runs inside sample_flow (gen_*) or train (train_point)
    probe_s = traced.probe.total_s
    m["sampler.self_ms"] = (incl("sampler.sample_flow") * 1e3 - sum(traced.op_ms) - probe_s * 1e3) / flows if flows else 0.0
    m["flowlab.optimizer_ms"] = per_op_ms(self_time("flowlab.train") - probe_s) if calls("flowlab.train") else 0.0
    base = statistics.median(scaled_ms(untraced))
    m["trace.overhead_pct"] = (statistics.median(scaled_ms(traced)) - base) / base * 100.0
    if "autodiff.bwd" in tracer.missing:
        for name in list(m):
            if name.startswith("autodiff.bwd.") or name == "autodiff.nodes_per_step":
                del m[name]
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """(metrics, fail counts, report lines) for one workload run."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    lines = []
    if not trace:
        setup_times = []
        for _ in range(SETUPS):
            start = perf_counter()
            state = workload.setup(seed)
            setup_times.append(perf_counter() - start)
        outcome = workload.run(state, seconds, min_steps=getattr(workload, "tail_steps", 0))
        runs = [outcome]
    else:
        state = workload.setup(seed)
        untraced = workload.run(state, seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        with tracer.installed():
            workload.setup(seed)
            load_model = (tracer.calls("dit.load_model"), tracer.inclusive("dit.load_model"))
            tracer.reset()
            outcome = workload.run(state, seconds * (1 - UNTRACED_SHARE))
        runs = [untraced, outcome]
    checks = workload.check(state, outcome, reference)
    for check, passed, detail in checks:
        lines.append(f"check {check}: {'pass' if passed else 'FAIL'} ({detail})")
    counts = {
        "attempted": sum(r.attempted for r in runs) + len(checks),
        "failed": sum(r.failed for r in runs) + sum(not passed for _, passed, _ in checks),
    }
    if trace:
        metrics = per_layer(tracer, untraced, outcome, load_model)
        units = per_layer_units()
        metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}
        for missing in sorted(set(units) - set(metrics)):
            lines.append(f"{missing}: missing (the tape's Var has no _vjp attribute)")
        for k, v in metrics.items():
            lines.append(f"{k:36s} {v['value']:.6g} {v['unit']}")
        return metrics, counts, lines
    op_ms = scaled_ms(outcome)
    values, raw = end_to_end(outcome, setup_times, op_ms), end_to_end(outcome, setup_times, outcome.op_ms)
    metrics = {}
    for key, (unit, local) in END_TO_END.items():
        # a failed check leaves its quality NaN, which JSON cannot carry
        metrics[key] = {"value": values[key] if math.isfinite(values[key]) else None, "unit": unit}
        label = local.format(op=f"{workload.prefix}.{workload.op}", items=f"{workload.prefix}.{workload.items}",
                             quality=f"{workload.prefix}.{workload.quality}")
        lines.append(f"{label:28s} {values[key]:.6g} {unit}  (as measured: {raw[key]:.6g})")
    lines.append(f"  (timings over {len(outcome.op_ms)} operations; setup_s is the median of {SETUPS} set-ups;"
                 f" the machine ran {sum(outcome.op_ms) / sum(op_ms):.3f}x slower than nominal,"
                 f" by {len(outcome.probe.ms)} probe samples)")
    lines.append(f"{'fail_rate':28s} {counts['failed'] / counts['attempted']:.6g} ({counts['failed']} of {counts['attempted']})")
    return metrics, counts, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train_point", "gen_point", "gen_image", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare() -> int:
    """Pin the BLAS threads and import flowdit from this checkout; returns the thread count.

    Must run before numpy is imported. Raises SystemExit(2) without the sources.
    """
    if not (SRC / "flowdit" / "__init__.py").is_file():
        print(f"perfbench: no flowdit sources at {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import flowdit

    if Path(flowdit.__file__).resolve().parent != SRC / "flowdit":
        print(f"perfbench: imported flowdit from {flowdit.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return threads


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = []
        for name in ("train_point", "gen_point", "gen_image"):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(cmd, check=False).returncode)
        return max(codes)
    threads = prepare()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_info(threads), sort_keys=True))
    metrics, counts, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps({"correct": counts["failed"] == 0, **counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
