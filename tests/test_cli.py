"""End-to-end command-line checks: exit codes, config precedence, golden
CSV bytes, PGM layout, and the train -> gen round trip."""

import json
import os
import shlex
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowdit import cli, dit, flowlab
from flowdit import numkernel as nk

GOLDEN = Path(__file__).parent / "golden"


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_schedule_sigmoid_golden_bytes(tmp_path):
    out = tmp_path / "s.csv"
    rc = cli.main([
        "schedule", "--kind", "sigmoid", "--mu", "0.6", "--alpha", "6",
        "--beta", "20", "--steps", "20", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "schedule_sigmoid_default.csv").read_bytes()
    header, rows = read_csv(out)
    assert header == ["i", "t"]
    assert len(rows) == 21
    assert rows[0] == ["0", "0.0"]
    assert rows[-1] == ["20", "1.0"]


def test_schedule_sigmoid_defaults_match_explicit_flags(tmp_path):
    out = tmp_path / "d.csv"
    assert cli.main(["schedule", "--kind", "sigmoid", "--steps", "20", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "schedule_sigmoid_default.csv").read_bytes()


def test_schedule_uniform_grid_values(tmp_path):
    out = tmp_path / "u.csv"
    assert cli.main(["schedule", "--steps", "10", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    ts = np.array([float(r[1]) for r in rows])
    assert np.array_equal(ts, np.arange(11) / 10)


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["schedule", "--bogus", "1", "--out", "x.csv"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_invalid_parameter_returns_two(tmp_path, capsys):
    rc = cli.main([
        "schedule", "--kind", "rational", "--sigma", "0.4",
        "--form", "paper_literal", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_runtime_failure_returns_one(tmp_path, capsys):
    # --out pointing at a directory fails at write time, not config time
    rc = cli.main(["schedule", "--steps", "3", "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 5, "kind": "sigmoid"}))
    out = tmp_path / "a.csv"
    assert cli.main(["schedule", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 6  # file beats built-in default of 50
    out2 = tmp_path / "b.csv"
    assert cli.main([
        "schedule", "--config", str(cfg), "--steps", "7", "--out", str(out2),
    ]) == 0
    _, rows2 = read_csv(out2)
    assert len(rows2) == 8  # explicit flag beats the file


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stepz": 5}))
    rc = cli.main(["schedule", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_file_must_exist(tmp_path):
    rc = cli.main([
        "schedule", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


def test_sample_is_byte_reproducible(tmp_path):
    args = ["sample", "--n", "256", "--steps", "8", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = read_csv(a)
    assert header == ["x0", "x1"]
    assert len(rows) == 256


def test_sample_pgm_layout(tmp_path):
    pgm = tmp_path / "d.pgm"
    assert cli.main(["sample", "--n", "512", "--steps", "8", "--pgm", str(pgm)]) == 0
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n64 64\n255\n")
    assert len(blob) == len(b"P5\n64 64\n255\n") + 64 * 64


def test_write_pgm_validation(tmp_path):
    with pytest.raises(ValueError, match="uint8"):
        cli.write_pgm(tmp_path / "x.pgm", np.zeros((4, 4)))
    with pytest.raises(ValueError, match="2-d"):
        cli.write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3), dtype=np.uint8))


def test_render_density_orientation():
    # a cluster north-east of the origin lights up the top-right corner
    pts = np.full((100, 2), 4.0)
    img = cli.render_density(pts, bins=8, extent=6.0)
    assert img.shape == (8, 8)
    assert img[1, 6] >= 254 and img[6, 1] == 0  # uint8 cast truncates 254.999..


def test_diagnose_csv_schema(tmp_path):
    out = tmp_path / "diag.csv"
    rc = cli.main([
        "diagnose", "--n", "16", "--anchors", "10", "--substeps", "8", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["i", "t", "tau", "kappa"]
    assert len(rows) == 10
    assert rows[0][3] == ""  # curvature needs a left and right interval
    assert all(r[3] != "" for r in rows[1:])
    assert float(rows[3][1]) == 0.3


def test_rope_scan_all_strategies(tmp_path):
    out = tmp_path / "scan.csv"
    rc = cli.main([
        "rope-scan", "--base", "5", "--dhead", "24", "--axes", "3",
        "--extent", "16", "--scale", "2", "--strategy", "all", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["strategy", "axis", "d", "theta", "lambda"]
    assert len(rows) == 5 * 3 * 4  # strategies x axes x dims per axis
    assert {r[0] for r in rows} == {
        "extrapolate", "interpolate", "ntk", "freq_aware", "time_aware",
    }
    lam = np.array([float(r[4]) for r in rows])
    theta = np.array([float(r[3]) for r in rows])
    assert np.allclose(lam, 2.0 * np.pi / theta, rtol=1e-12)


def test_rope_scan_single_strategy(tmp_path):
    out = tmp_path / "one.csv"
    rc = cli.main(["rope-scan", "--strategy", "ntk", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert {r[0] for r in rows} == {"ntk"}


def test_partition_worked_example(tmp_path, capsys):
    out = tmp_path / "parts.csv"
    rc = cli.main([
        "partition", "--height", "448", "--width", "224",
        "--max-patches", "128", "--max-aspect", "4", "--patch", "16",
        "--out", str(out),
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line == "partition: 448x224 -> grid 16x8 (128 tokens), resize to 256x128"
    header, rows = read_csv(out)
    assert header == ["rows", "cols", "tokens", "ratio", "chosen"]
    chosen = [r for r in rows if r[4] == "1"]
    assert len(chosen) == 1
    assert chosen[0][:2] == ["16", "8"]


def test_probe_csv_schema(tmp_path):
    out = tmp_path / "probe.csv"
    rc = cli.main([
        "probe", "--layers", "2", "--d-model", "16", "--q-heads", "2",
        "--kv-heads", "2", "--image", "4x4", "--samples", "2",
        "--timesteps", "0.0,1.0", "--gate", "1.0", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["layer", "t", "rms_mean", "rms_max"]
    assert len(rows) == 4  # layers x timesteps
    assert [r[0] for r in rows[:2]] == ["0", "1"]
    assert all(float(r[3]) >= float(r[2]) > 0.0 for r in rows)


def test_train_then_gen_round_trip(tmp_path, capsys):
    run = tmp_path / "run"
    rc = cli.main([
        "train", "--steps", "5", "--batch", "8", "--train-points", "64",
        "--d-model", "16", "--layers", "1", "--heads", "2", "--out-dir", str(run),
    ])
    assert rc == 0
    assert (run / "model" / "manifest.json").exists()
    header, rows = read_csv(run / "losses.csv")
    assert header == ["step", "loss"]
    assert len(rows) == 5
    assert all(np.isfinite(float(r[1])) for r in rows)

    out = tmp_path / "gen.csv"
    rc = cli.main([
        "gen", "--model", str(run), "--n", "32", "--steps", "4", "--out", str(out),
    ])
    assert rc == 0  # accepts the out-dir; finds the model/ subdirectory
    _, rows = read_csv(out)
    assert len(rows) == 32

    direct = tmp_path / "gen2.csv"
    rc = cli.main([
        "gen", "--model", str(run / "model"), "--n", "32", "--steps", "4",
        "--out", str(direct),
    ])
    assert rc == 0
    assert out.read_bytes() == direct.read_bytes()

    pgm = tmp_path / "gen.pgm"
    out64 = tmp_path / "gen64.csv"
    capsys.readouterr()
    rc = cli.main([
        "gen", "--model", str(run), "--n", "64", "--steps", "4",
        "--pgm", str(pgm), "--out", str(out64), "--held-out", "two_moons",
    ])
    assert rc == 0
    assert pgm.read_bytes().startswith(b"P5\n64 64\n255\n")
    samples = np.loadtxt(out64, delimiter=",", skiprows=1)
    ed = flowlab.energy_distance(samples, flowlab.toy_dataset("two_moons", 64, seed=1234))
    assert f"energy distance to held-out two_moons: {ed:.4f}" in capsys.readouterr().out


def test_gen_drop_flag_is_rejected(tmp_path):
    # point checkpoints are one-token grids, where every pooling window is the identity
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--model", str(tmp_path), "--drop", "0.6"])
    assert exc.value.code == 2


def test_gen_rejects_image_checkpoints(tmp_path, capsys):
    model = dit.init_model(dit.ModelConfig(d_model=16, n_q_heads=2, n_kv_heads=2, time_dim=8), seed=0)
    dit.save_model(tmp_path / "img", model)
    rc = cli.main(["gen", "--model", str(tmp_path / "img"), "--n", "8", "--steps", "2"])
    assert rc == 2
    assert "point-flow checkpoint" in capsys.readouterr().err


def test_gen_missing_checkpoint_returns_two(tmp_path):
    rc = cli.main(["gen", "--model", str(tmp_path / "nope"), "--n", "8", "--steps", "2"])
    assert rc == 2


def test_gen_rejects_non_finite_checkpoint(tmp_path, capsys):
    model = dit.init_model(flowlab.point_model_config(16, 1, 2), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    nk.save_tensor(tmp_path / "ckpt" / "w_embed.nkt", np.full_like(model.w_embed, np.inf))
    rc = cli.main(["gen", "--model", str(tmp_path / "ckpt"), "--n", "8", "--steps", "2"])
    assert rc == 2
    assert "w_embed" in capsys.readouterr().err


def test_train_and_gen_are_byte_identical_across_blas_thread_counts(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        run = tmp_path / f"blas{threads}"
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        for argv in (
            ["train", "--steps", "40", "--batch", "256", "--train-points", "4096", "--out-dir", str(run)],
            ["gen", "--model", str(run), "--n", "512", "--steps", "4", "--out", str(run / "gen.csv")],
        ):
            subprocess.run([sys.executable, "-m", "flowdit.cli", *argv], env=env, check=True, capture_output=True)
        runs.append({p.relative_to(run): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()})
    names = {p.name for p in runs[0]}
    assert {"losses.csv", "gen.csv", "manifest.json", "w_embed.nkt"} <= names
    assert runs[0] == runs[1]


def test_readme_commands_parse():
    parser, _ = cli.build_parser()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in readme.split("```")[1::2]:
        loop_vars = {}  # a `for VAR in A B ...; do` line binds $VAR to A
        for line in block.splitlines():
            if not line.strip().startswith(("flowdit ", "for ")):
                continue
            words = shlex.split(line, comments=True)
            if words[0] == "for":
                loop_vars[words[1]] = words[3]
            else:
                commands.append([string.Template(w).substitute(loop_vars) for w in words[1:]])
    assert len(commands) >= 10
    for argv in commands:
        parser.parse_args(argv)
