#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload gen_image --seeds 10 --seconds 30 [--out FILE]

For every metric it prints the median, the quartiles and the spread, the
distance between the quartiles as a share of the median, which is the
quantity the acceptance rule bounds. --out writes every value with the
machine it came from, as the files in perfbench/baseline/ do for the parent commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[len("machine "):])
    return json.loads(lines[-1]), machine


def summarize(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0, dest="first_seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    values, results, machine = {}, [], None
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        result, machine = run_once(args.workload, seed, args.seconds, args.trace)
        results.append({"seed": seed, **result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    summary = {name: summarize(vals) for name, vals in values.items()}
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "machine": machine, "summary": summary, "runs": results}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
