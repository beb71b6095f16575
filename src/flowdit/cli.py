"""Command-line front end: schedules, sampling, diagnostics, scans, training.

Every run is deterministic given its flags (and --seed where randomness is
involved): CSV and PGM outputs are byte-reproducible. Exit codes: 0 on
success, 2 for configuration errors (bad flags, bad config file, invalid
parameter combinations), 1 for runtime failures such as divergent training.

--config FILE loads a JSON object of flag defaults (keys are flag dests);
explicit command-line flags win over the file, the file wins over built-ins.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dit, flowlab, partitioner, rope, sampler

_CONFIG_ERRORS = (ValueError, KeyError, TypeError, FileNotFoundError, NotADirectoryError)


def _floats(value) -> tuple[float, ...]:
    if isinstance(value, str):
        return tuple(float(p) for p in value.split(",") if p != "")
    return tuple(float(x) for x in np.atleast_1d(value))


def _size(value) -> tuple[int, int]:
    if isinstance(value, str):
        parts = value.lower().split("x")
    else:
        parts = list(np.atleast_1d(value))
    if len(parts) != 2:
        raise ValueError(f"expected HxW, got {value!r}")
    return int(parts[0]), int(parts[1])


def _write_csv(path, header: list[str], rows) -> None:
    # repr() floats: shortest round-trip decimal, stable across runs
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5)."""
    img = np.asarray(image)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(f"PGM needs a 2-d uint8 image, got {img.shape} {img.dtype}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())


def render_density(points: np.ndarray, bins: int = 64, extent: float = 6.0) -> np.ndarray:
    """2-d histogram as a uint8 image (bright = dense), north = +y."""
    pts = np.asarray(points, dtype=float)
    edges = np.linspace(-extent, extent, bins + 1)
    counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=(edges, edges))
    img = counts.T[::-1]
    top = img.max()
    if top > 0:
        img = img * (255.0 / top)
    return img.astype(np.uint8)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="uniform", choices=sampler.SCHEDULE_KINDS, help="timestep warp")
    p.add_argument("--steps", type=int, default=50, help="number of solver intervals")
    p.add_argument("--form", default="endpoint_normalized", choices=sampler.SCHEDULE_FORMS)
    p.add_argument("--sigma", type=float, default=1.0, help="rational warp strength")
    p.add_argument("--mu", type=float, default=0.6, help="sigmoid crossover")
    p.add_argument("--alpha", type=float, default=6.0, help="sigmoid left sharpness")
    p.add_argument("--beta", type=float, default=20.0, help="sigmoid right sharpness")


def _schedule_spec(args) -> sampler.ScheduleSpec:
    return sampler.ScheduleSpec(
        kind=args.kind,
        n_steps=args.steps,
        form=args.form,
        sigma=args.sigma,
        mu=args.mu,
        alpha=args.alpha,
        beta=args.beta,
    )


def _cmd_schedule(args) -> None:
    ts = sampler.schedule_points(_schedule_spec(args))
    _write_csv(args.out, ["i", "t"], list(enumerate(ts)))
    print(f"schedule: wrote {len(ts)} {args.kind} grid points to {args.out}")


def _gaussian_spec(args) -> flowlab.GaussianFlowSpec:
    return flowlab.GaussianFlowSpec(mean=_floats(args.mean), std=args.std)


def _cmd_sample(args) -> None:
    spec = _gaussian_spec(args)
    v = flowlab.velocity(spec)
    x0 = flowlab.source_sample(spec, args.n, seed=args.seed)
    x1 = sampler.sample_flow(v, x0, _schedule_spec(args), solver=args.solver)
    if args.out:
        _write_csv(args.out, [f"x{i}" for i in range(x1.shape[1])], x1.tolist())
    if args.pgm:
        write_pgm(args.pgm, render_density(x1))
    mean_err = float(np.abs(x1.mean(axis=0) - spec.mean_vec).max())
    std_err = float(np.abs(x1.std(axis=0) - spec.std).max())
    print(
        f"sample: {args.n} points, {args.solver} x{args.steps}, "
        f"worst |mean err| {mean_err:.4g}, worst |std err| {std_err:.4g}"
    )


def _cmd_diagnose(args) -> None:
    spec = _gaussian_spec(args)
    v = flowlab.velocity(spec)
    x0 = flowlab.source_sample(spec, args.n, seed=args.seed)
    taus = sampler.truncation_error_profile(v, x0, args.anchors, args.substeps)
    kappas = sampler.curvature_profile(v, x0, args.anchors, args.substeps)
    ts = np.arange(args.anchors + 1) / args.anchors
    rows = []
    for i in range(args.anchors):
        kappa = repr(float(kappas[i - 1])) if 1 <= i < args.anchors else ""
        rows.append((i, ts[i], taus[i], kappa))
    _write_csv(args.out, ["i", "t", "tau", "kappa"], rows)
    print(
        f"diagnose: {args.anchors} anchors, peak tau {taus.max():.4g} "
        f"at step {int(taus.argmax())}, wrote {args.out}"
    )


def _cmd_rope_scan(args) -> None:
    base = rope.freq_matrix(args.base, args.d_head, args.axes, args.convention)
    chosen = args.strategy
    if isinstance(chosen, str):
        chosen = [s.strip() for s in chosen.split(",")]
    strategies = list(rope.STRATEGIES) if "all" in chosen else chosen
    rows = []
    for strategy in strategies:
        spec = rope.ScaleSpec(
            strategy=strategy,
            s=args.scale,
            train_extent=args.extent,
            t=args.t,
        )
        rows.extend(rope.freq_table_rows(rope.scaled_freqs(base, spec), strategy))
    _write_csv(args.out, ["strategy", "axis", "d", "theta", "lambda"], rows)
    print(f"rope-scan: {len(strategies)} strategies x {base.axes} axes x {base.dims_per_axis} dims -> {args.out}")


def _cmd_partition(args) -> None:
    candidates = partitioner.candidate_set(args.max_patches, args.max_aspect, args.patch)
    best = partitioner.best_partition(args.height, args.width, candidates)
    if args.out:
        rows = [
            (g.rows, g.cols, g.tokens, partitioner.matching_ratio(g, args.height, args.width), int(g == best))
            for g in candidates
        ]
        _write_csv(args.out, ["rows", "cols", "tokens", "ratio", "chosen"], rows)
    target = partitioner.resize_target(best)
    print(
        f"partition: {args.height}x{args.width} -> grid {best.rows}x{best.cols} "
        f"({best.tokens} tokens), resize to {target[0]}x{target[1]}"
    )


def _cmd_probe(args) -> None:
    config = dit.ModelConfig(
        d_model=args.d_model,
        n_layers=args.layers,
        n_q_heads=args.q_heads,
        n_kv_heads=args.kv_heads,
        patch=args.patch,
        in_channels=args.channels,
        block_style=args.style,
    )
    model = dit.init_model(config, seed=args.seed, weight_std=args.weight_std)
    if args.gate is not None:
        # fixed gate bias on every block: probes signal growth with open gates
        for block in model.blocks:
            block.b_mod = block.b_mod.copy()
            d = config.d_model
            block.b_mod[2 * d] = args.gate
            block.b_mod[4 * d + 1] = args.gate
    rows = dit.activation_probe(
        model,
        _size(args.image),
        _floats(args.timesteps),
        n_samples=args.samples,
        seed=args.seed,
    )
    _write_csv(args.out, ["layer", "t", "rms_mean", "rms_max"], rows)
    peak = max(r[3] for r in rows)
    print(f"probe: {config.n_layers} layers ({args.style}), peak token RMS {peak:.4g}, wrote {args.out}")


def _cmd_train(args) -> None:
    data = flowlab.toy_dataset(args.dataset, args.train_points, seed=args.data_seed)
    config = flowlab.point_model_config(args.d_model, args.layers, args.heads)
    model = dit.init_model(config, seed=args.seed)
    train_config = flowlab.TrainConfig(
        steps=args.steps,
        batch_size=args.batch,
        lr=args.lr,
        optimizer=args.optimizer,
        seed=args.seed,
    )
    losses = flowlab.train(model, data, train_config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dit.save_model(out_dir / "model", model)
    _write_csv(out_dir / "losses.csv", ["step", "loss"], list(enumerate(losses)))
    print(
        f"train: {args.dataset}, {args.steps} steps, final loss {losses[-1]:.4f} "
        f"(first {losses[0]:.4f}), checkpoint in {out_dir / 'model'}"
    )


def _cmd_gen(args) -> None:
    path = Path(args.model)
    if not (path / "manifest.json").exists() and (path / "model" / "manifest.json").exists():
        path = path / "model"  # accept a train --out-dir directly
    model = dit.load_model(path)
    config = model.config
    if config.mode != "generative" or (config.patch, config.in_channels) != (1, 2):
        raise ValueError("gen expects a point-flow checkpoint (1x1 two-channel patches)")
    x1 = flowlab.generate(model, args.n, _schedule_spec(args), solver=args.solver, seed=args.seed)
    if args.out:
        _write_csv(args.out, ["x0", "x1"], x1.tolist())
    if args.pgm:
        write_pgm(args.pgm, render_density(x1))
    print(f"gen: {args.n} samples via {args.solver} x{args.steps} from {args.model}")
    if args.held_out:
        # criterion 11's convention: as many held-out points as samples, seed 1234
        held_out = flowlab.toy_dataset(args.held_out, args.n, seed=1234)
        print(f"gen: energy distance to held-out {args.held_out}: {flowlab.energy_distance(x1, held_out):.4f}")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="flowdit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON file of flag defaults")
        p.set_defaults(func=func)
        by_name[name] = p
        return p

    p = sub("schedule", _cmd_schedule, "emit a timestep schedule as CSV")
    _add_schedule_flags(p)
    p.add_argument("--out", required=True)

    p = sub("sample", _cmd_sample, "integrate a closed-form Gaussian flow")
    _add_schedule_flags(p)
    p.add_argument("--mean", default="2,2", help="target mean, comma separated")
    p.add_argument("--std", type=float, default=0.5, help="target std")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--solver", default="midpoint", choices=sorted(sampler.TABLEAUS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="samples CSV")
    p.add_argument("--pgm", default=None, help="density image (PGM)")

    p = sub("diagnose", _cmd_diagnose, "truncation-error and curvature profiles")
    p.add_argument("--mean", default="2,2")
    p.add_argument("--std", type=float, default=0.25)
    p.add_argument("--n", type=int, default=256, help="batch of source points")
    p.add_argument("--anchors", type=int, default=50, help="uniform anchor intervals")
    p.add_argument("--substeps", type=int, default=100, help="dense Euler substeps per anchor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub("rope-scan", _cmd_rope_scan, "scaled rotary frequency tables")
    p.add_argument("--base", type=float, default=5.0)
    p.add_argument("--dhead", type=int, default=24, dest="d_head")
    p.add_argument("--axes", type=int, default=3)
    p.add_argument("--extent", type=float, default=16.0, help="max trained extent per axis")
    p.add_argument("--scale", type=float, default=2.0, help="extension factor s")
    p.add_argument("--t", type=float, default=0.5, help="diffusion time for time_aware")
    p.add_argument("--strategy", default="all", help="'all' or a comma list")
    p.add_argument("--convention", default="consistent", choices=rope.CONVENTIONS)
    p.add_argument("--out", required=True)

    p = sub("partition", _cmd_partition, "pick a patch grid for an image size")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--max-patches", type=int, default=128, dest="max_patches")
    p.add_argument("--max-aspect", type=float, default=4.0, dest="max_aspect")
    p.add_argument("--patch", type=int, default=16)
    p.add_argument("--out", default=None, help="candidate table CSV")

    p = sub("probe", _cmd_probe, "per-layer activation RMS of a fresh model")
    p.add_argument("--layers", type=int, default=24)
    p.add_argument("--d-model", type=int, default=64, dest="d_model")
    p.add_argument("--q-heads", type=int, default=4, dest="q_heads")
    p.add_argument("--kv-heads", type=int, default=4, dest="kv_heads")
    p.add_argument("--patch", type=int, default=2)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--style", default="sandwich", choices=dit.BLOCK_STYLES)
    p.add_argument("--weight-std", type=float, default=0.02, dest="weight_std")
    p.add_argument("--gate", type=float, default=None, help="fixed pre-tanh gate bias")
    p.add_argument("--image", default="8x8", help="probe image size HxW")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--timesteps", default="0.0,0.5,1.0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub("train", _cmd_train, "flow-matching training on a 2-d toy")
    p.add_argument("--dataset", default="eight_gaussians", choices=flowlab.DATASETS)
    p.add_argument("--train-points", type=int, default=65536, dest="train_points")
    p.add_argument("--data-seed", type=int, default=7, dest="data_seed")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--optimizer", default="adam", choices=flowlab.training.OPTIMIZERS)
    p.add_argument("--d-model", type=int, default=32, dest="d_model")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True, dest="out_dir")

    p = sub("gen", _cmd_gen, "sample from a trained point-flow checkpoint")
    _add_schedule_flags(p)
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--solver", default="midpoint", choices=sorted(sampler.TABLEAUS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--pgm", default=None)
    p.add_argument("--held-out", default=None, dest="held_out", choices=flowlab.DATASETS,
                   help="print the energy distance to held-out points of this toy")

    return parser, by_name


def _apply_config(subparser: argparse.ArgumentParser, path: str) -> None:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    dests = {a.dest for a in subparser._actions}
    unknown = sorted(set(data) - dests)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    subparser.set_defaults(**data)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = build_parser()
    command = next((a for a in argv if not a.startswith("-")), None)
    try:
        if command in by_name:
            pre = argparse.ArgumentParser(add_help=False)
            pre.add_argument("--config", default=None)
            known, _ = pre.parse_known_args(argv)
            if known.config:
                _apply_config(by_name[command], known.config)
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except _CONFIG_ERRORS as err:
        print(f"flowdit: configuration error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure, e.g. divergent training
        print(f"flowdit: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
