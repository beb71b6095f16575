"""Command-line front end: schedules, sampling, diagnostics, scans, training.

Every run is deterministic given its flags (and --seed where randomness is
involved): CSV and PGM outputs are byte-reproducible. Exit codes: 0 on
success, 2 for configuration errors (bad flags, bad config file, invalid
parameter combinations, a warp or rope-scaling value that the chosen kind or
strategy never reads), 1 for runtime failures such as divergent training.

Every command reports a non-finite value as its own error: the sampler, the
diagnostics, the rope tables, the probe, training and the energy distance
each raise on the first one they make. So `main` runs every command under
np.errstate(all="ignore"), and numpy's overflow, invalid and divide warnings
never print, in a shell or under a warnings-as-errors filter.

--config FILE reads a JSON object keyed by flag dests; each value (a string or a
number) parses as a --flag=value token ahead of the typed flags, which still win.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import dit, flowlab, partitioner, rope, sampler

_CONFIG_ERRORS = (ValueError, KeyError, TypeError, FileNotFoundError, NotADirectoryError, IsADirectoryError)
# density images: a bins x bins histogram of [-extent, extent]^2
_DENSITY_BINS, _DENSITY_EXTENT = 64, 6.0


def _floats(flag: str, value: str) -> tuple[float, ...]:
    parts = value.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"{flag} {value!r} has an empty entry")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{flag} {value!r} has an entry that is not a number") from None


def _size(flag: str, value: str) -> tuple[int, int]:
    parts = value.lower().split("x")
    if len(parts) != 2 or not all(p.isdecimal() and int(p) > 0 for p in parts):
        raise ValueError(f"{flag} expects HxW with positive integer sides, got {value!r}")
    return int(parts[0]), int(parts[1])


def _write_file(path, data: bytes) -> None:
    """Put data at path all or nothing (Pillai et al., OSDI 2014): write a
    sibling temporary file, fsync it, os.replace it over path, then fsync
    the parent directory. A failed write leaves the previous file as it was
    and no temporary behind. A symlink's target is replaced. A path that
    exists and is not a regular file (a directory, /dev/null, a pipe), or
    whose directory is missing, is written in place: a device stays one,
    and an error names the path as given."""
    target = Path(os.path.realpath(path))
    if not target.parent.is_dir() or (target.exists() and not target.is_file()):
        Path(path).write_bytes(data)
        return
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _write_csv(path, header: list[str], rows) -> None:
    # repr() floats: shortest round-trip decimal, stable across runs
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row))
    _write_file(path, ("\n".join(lines) + "\n").encode())


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5)."""
    img = np.asarray(image)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(f"PGM needs a 2-d uint8 image, got {img.shape} {img.dtype}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    _write_file(path, header + img.tobytes())


def render_density(points: np.ndarray) -> np.ndarray:
    """2-d histogram as a uint8 image (bright = dense), north = +y."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"density image needs [n, 2] points, got shape {pts.shape}")
    edges = np.linspace(-_DENSITY_EXTENT, _DENSITY_EXTENT, _DENSITY_BINS + 1)
    counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=(edges, edges))
    img = counts.T[::-1]
    top = img.max()
    if top > 0:
        img = img * (255.0 / top)
    return img.astype(np.uint8)


def _write_samples(args, x1: np.ndarray) -> None:
    if args.out:
        _write_csv(args.out, [f"x{i}" for i in range(x1.shape[1])], x1.tolist())
    if args.pgm:
        write_pgm(args.pgm, render_density(x1))


def _reject_unread(args, flags: dict[str, str], read, chosen: str) -> None:
    """Exit 2 on a flag that the chosen kind or strategy never reads; flags maps each dest to the name read."""
    unread = [f"--{flag}" for flag, field in flags.items() if getattr(args, flag) is not None and field not in read]
    if unread:
        raise ValueError(f"{', '.join(unread)}: no effect with {chosen}")


# warp flags default to None, so a flag the kind ignores is caught; unset, ScheduleSpec's defaults apply.
# schedule's --form, an argument of schedule_points and not a spec field, is caught the same way
_WARP_FLAGS = ("sigma", "mu", "alpha", "beta")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="uniform", choices=sampler.SCHEDULE_KINDS, help="timestep warp")
    p.add_argument("--steps", type=int, default=50, help="number of solver intervals")
    p.add_argument("--sigma", type=float, default=None, help="rational warp strength (default 1)")
    p.add_argument("--mu", type=float, default=None, help="sigmoid crossover (default 0.6)")
    p.add_argument("--alpha", type=float, default=None, help="sigmoid left sharpness (default 6)")
    p.add_argument("--beta", type=float, default=None, help="sigmoid right sharpness (default 20)")


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    _add_schedule_flags(p)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--solver", default="midpoint", choices=sorted(sampler.TABLEAUS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="samples CSV")
    p.add_argument("--pgm", default=None, help="density image (PGM)")


def _schedule_spec(args, *more: str) -> sampler.ScheduleSpec:
    warp = {f: getattr(args, f) for f in _WARP_FLAGS if getattr(args, f) is not None}
    spec = sampler.ScheduleSpec(kind=args.kind, n_steps=args.steps, **warp)
    _reject_unread(args, {f: f for f in _WARP_FLAGS + more}, sampler.SCHEDULE_FIELDS[spec.kind], f"--kind {spec.kind}")
    return spec


def _cmd_schedule(args) -> None:
    ts = sampler.schedule_points(_schedule_spec(args, "form"), args.form or "endpoint_normalized")
    _write_csv(args.out, ["i", "t"], list(enumerate(ts)))
    print(f"schedule: wrote {len(ts)} {args.kind} grid points to {args.out}")


def _gaussian_spec(args) -> flowlab.GaussianFlowSpec:
    return flowlab.GaussianFlowSpec(mean=_floats("--mean", args.mean), std=args.std)


def _cmd_sample(args) -> None:
    spec = _gaussian_spec(args)
    if args.pgm and len(spec.mean) != 2:
        raise ValueError(f"--pgm draws 2-d points; --mean has {len(spec.mean)} coordinates")
    v = flowlab.velocity(spec)
    x0 = flowlab.source_sample(spec, args.n, seed=args.seed)
    x1 = sampler.sample_flow(v, x0, _schedule_spec(args), solver=args.solver)
    _write_samples(args, x1)
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
    taus, kappas = sampler.error_profiles(v, x0, args.anchors, args.substeps)
    ts = np.arange(args.anchors + 1) / args.anchors
    rows = [(i, ts[i], taus[i], repr(float(kappas[i - 1])) if i else "") for i in range(args.anchors)]
    _write_csv(args.out, ["i", "t", "tau", "kappa"], rows)
    print(
        f"diagnose: {args.anchors} anchors, peak tau {taus.max():.4g} "
        f"at step {int(taus.argmax())}, wrote {args.out}"
    )


# rope-scan flag dest -> (ScaleSpec field, value when unset)
_SCALE_FLAGS = {"scale": ("s", 2.0), "extent": ("train_extent", 16.0), "t": ("t", 0.5),
                "convention": ("convention", "consistent")}


def _cmd_rope_scan(args) -> None:
    base = rope.freq_matrix(args.base, args.d_head, args.axes)
    chosen = [s.strip() for s in args.strategy.split(",")]
    strategies = [s for name in chosen for s in (rope.STRATEGIES if name == "all" else (name,))]
    if repeated := next((s for i, s in enumerate(strategies) if s in strategies[:i]), None):
        raise ValueError(f"--strategy {args.strategy} names {repeated} twice")
    fields = {
        field: default if getattr(args, flag) is None else getattr(args, flag)
        for flag, (field, default) in _SCALE_FLAGS.items()
    }
    specs = [rope.ScaleSpec(strategy=strategy, **fields) for strategy in strategies]
    # an ignored flag is refused before any table is built, as a table may fail
    read = {field for strategy in strategies for field in rope.STRATEGY_FIELDS[strategy]}
    flags = {flag: field for flag, (field, _) in _SCALE_FLAGS.items()}
    _reject_unread(args, flags, read, f"--strategy {','.join(strategies)}")
    rows = [row for spec in specs for row in rope.freq_table_rows(rope.scaled_freqs(base, spec), spec.strategy)]
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
    target = best.pixel_size
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
    if args.gate is not None and not np.isfinite(args.gate):
        raise ValueError(f"--gate must be finite, got {args.gate}")
    model = dit.init_model(config, seed=args.seed, weight_std=args.weight_std)
    if args.gate is not None:
        # fixed gate bias on every block: probes signal growth with open gates
        parts = dit.modulation_slices(config.d_model)
        gates = [parts["gate_a"].start, parts["gate_m"].start]
        for i in range(config.n_layers):
            model.params[f"blocks.{i}.b_mod"][gates] = args.gate
    rows = dit.activation_probe(
        model,
        _size("--image", args.image),
        _floats("--timesteps", args.timesteps),
        n_samples=args.samples,
        seed=args.seed,
    )
    _write_csv(args.out, ["layer", "t", "rms_mean", "rms_max"], rows)
    peak = max(r[3] for r in rows)
    print(f"probe: {config.n_layers} layers ({args.style}), peak token RMS {peak:.4g}, wrote {args.out}")


def _cmd_train(args) -> None:
    data = flowlab.toy_dataset(args.dataset, args.train_points, seed=args.data_seed)
    config = flowlab.point_model_config(args.d_model, args.layers)
    model = dit.init_model(config, seed=args.seed)
    train_config = flowlab.TrainConfig(
        steps=args.steps,
        batch_size=args.batch,
        lr=args.lr,
        optimizer=args.optimizer,
        seed=args.seed,
    )
    # checked before training, so an unusable --out-dir costs no training steps
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dit.check_save_target(out_dir / "model")
    losses = flowlab.train(model, data, train_config)
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
    if args.held_out:
        # scored before any file is written, so a non-finite score leaves none behind;
        # criterion 11's convention: as many held-out points as samples, seed 1234
        held_out = flowlab.toy_dataset(args.held_out, args.n, seed=1234)
        score = flowlab.energy_distance(x1, held_out)
    _write_samples(args, x1)
    print(f"gen: {args.n} samples via {args.solver} x{args.steps} from {args.model}")
    if args.held_out:
        print(f"gen: energy distance to held-out {args.held_out}: {score:.4f}")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="flowdit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON object of flag values, parsed ahead of the command line")
        p.set_defaults(func=func)
        by_name[name] = p
        return p

    p = sub("schedule", _cmd_schedule, "emit a timestep schedule as CSV")
    _add_schedule_flags(p)
    p.add_argument("--form", default=None, choices=sampler.SCHEDULE_FORMS,
                   help="rational and sigmoid warps (default endpoint_normalized)")
    p.add_argument("--out", required=True)

    p = sub("sample", _cmd_sample, "integrate a closed-form Gaussian flow")
    p.add_argument("--mean", default="2,2", help="target mean, comma separated")
    p.add_argument("--std", type=float, default=0.5, help="target std")
    _add_sampling_flags(p)

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
    p.add_argument("--extent", type=float, default=None, help="max trained extent, for freq_aware (default 16)")
    p.add_argument("--scale", type=float, default=None, help="extension factor s, for all but extrapolate (default 2)")
    p.add_argument("--t", type=float, default=None, help="diffusion time for time_aware (default 0.5)")
    p.add_argument("--strategy", default="all", help="'all' (every strategy) or a comma list, each once")
    p.add_argument("--convention", default=None, choices=rope.CONVENTIONS,
                   help="scaling exponents, for all but extrapolate (default consistent)")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True, dest="out_dir")

    p = sub("gen", _cmd_gen, "sample from a trained point-flow checkpoint")
    p.add_argument("--model", required=True, help="checkpoint directory")
    _add_sampling_flags(p)
    p.add_argument("--held-out", default=None, dest="held_out", choices=flowlab.DATASETS,
                   help="print the energy distance to held-out points of this toy")

    return parser, by_name


def _config_argv(subparser: argparse.ArgumentParser, path: str) -> list[str]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    flags = {a.dest: a.option_strings[-1] for a in subparser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(data) - set(flags))
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"{path}: config key {key!r} must be a string or a number, got {json.dumps(value)}")
    return [f"{flags[key]}={value}" for key, value in data.items()]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = build_parser()
    command = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    try:
        if command is not None and argv[command] in by_name:
            pre = argparse.ArgumentParser(add_help=False)
            pre.add_argument("--config", default=None)
            known, _ = pre.parse_known_args(argv)
            if known.config:
                argv[command + 1:command + 1] = _config_argv(by_name[argv[command]], known.config)
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):
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
