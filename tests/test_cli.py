"""End-to-end command-line checks: exit codes, config precedence, golden
CSV bytes, PGM layout, and the train -> gen round trip."""

import errno
import json
import os
import shlex
import shutil
import string
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowdit import cli, dit, flowlab

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


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


def test_non_finite_warp_values_exit_two_naming_them(tmp_path, capsys):
    # not as a grid that fails to increase
    out = tmp_path / "x.csv"
    for warp, message in [
        (["--kind", "rational", "--sigma", "nan"], "rational warp needs a finite sigma > 0, got nan"),
        (["--kind", "rational", "--sigma", "inf"], "rational warp needs a finite sigma > 0, got inf"),
        (["--kind", "sigmoid", "--alpha", "nan"], "sigmoid alpha, beta must be finite and > 0, got nan, 20.0"),
        (["--kind", "sigmoid", "--beta", "inf"], "sigmoid alpha, beta must be finite and > 0, got 6.0, inf"),
    ]:
        assert cli.main(["schedule", *warp, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"flowdit: configuration error: {message}\n"
        assert not out.exists()


def test_runtime_failure_returns_one(tmp_path, capsys, monkeypatch):
    # a disk that fills up fails the write at write time, not config time
    def full(path, text):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(Path, "write_text", full)
    rc = cli.main(["schedule", "--steps", "3", "--out", str(tmp_path / "t.csv")])
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


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["schedule"], {"steps": 4.5}, "argument --steps: invalid int value: '4.5'"),
        (["sample", "--n", "8"], {"steps": 4.5}, "argument --steps: invalid int value: '4.5'"),
        (["sample", "--n", "8", "--steps", "2"], {"solver": "rk5"}, "argument --solver: invalid choice: 'rk5'"),
    ],
    ids=["schedule_float_steps", "sample_float_steps", "sample_solver_choice"],
)
def test_config_values_pass_the_flag_checks(tmp_path, capsys, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--config", "cfg.json", "--out", "out.csv"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_value_satisfies_a_required_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": "s.csv", "steps": 3}))
    assert cli.main(["schedule", "--config", "cfg.json"]) == 0
    _, rows = read_csv(tmp_path / "s.csv")
    assert len(rows) == 4


@pytest.mark.parametrize(
    "key,value",
    [("n", True), ("out", None), ("mean", [2, 2]), ("seed", {"a": 1})],
    ids=["bool", "null", "list", "object"],
)
def test_config_values_that_are_not_strings_or_numbers_exit_two(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert cli.main(["sample", "--n", "8", "--steps", "2", "--config", "cfg.json", "--out", "out.csv"]) == 2
    assert f"config key '{key}' must be a string or a number" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_negative_config_value_parses_like_the_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"mean": "-2,2"}))
    args = ["sample", "--n", "64", "--steps", "4"]
    assert cli.main(args + ["--config", "cfg.json", "--out", "a.csv"]) == 0
    assert cli.main(args + ["--mean=-2,2", "--out", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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


@pytest.mark.parametrize("mean", ["2", "1,2,3"])
def test_sample_pgm_needs_a_two_d_mean(tmp_path, capsys, monkeypatch, mean):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sample", "--mean", mean, "--n", "8", "--steps", "2", "--out", "a.csv", "--pgm", "a.pgm"]) == 2
    assert f"--pgm draws 2-d points; --mean has {len(mean.split(','))} coordinates" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 3)])
def test_render_density_needs_two_d_points(shape):
    with pytest.raises(ValueError, match=r"needs \[n, 2\] points"):
        cli.render_density(np.zeros(shape))


def test_write_pgm_validation(tmp_path):
    with pytest.raises(ValueError, match="uint8"):
        cli.write_pgm(tmp_path / "x.pgm", np.zeros((4, 4)))
    with pytest.raises(ValueError, match="2-d"):
        cli.write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3), dtype=np.uint8))


def test_render_density_orientation():
    # a cluster north-east of the origin lights up the top-right corner
    # (4, 4) falls in bin (4 + 6) / (12 / 64) = 53.3 of [-6, 6]^2 on each axis
    pts = np.full((100, 2), 4.0)
    img = cli.render_density(pts)
    assert img.shape == (64, 64)
    assert img[63 - 53, 53] >= 254 and img[53, 63 - 53] == 0  # uint8 cast truncates 254.999..


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


def test_diagnose_refuses_one_substep_and_writes_nothing(tmp_path, capsys):
    # one substep makes the reference path the Euler probe itself: every tau was 0
    out = tmp_path / "diag.csv"
    assert cli.main(["diagnose", "--n", "4", "--anchors", "3", "--substeps", "1", "--out", str(out)]) == 2
    assert "need at least 2 substeps per anchor, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_exits_one_and_writes_nothing_on_a_non_finite_profile(tmp_path, capsys):
    # the states stay finite near 1.7e308, but their differences overflow to inf at anchor 2
    out = tmp_path / "diag.csv"
    rc = cli.main(["diagnose", "--mean", "1.7e308,1", "--std", "0.5", "--n", "8", "--anchors", "4",
                   "--substeps", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "non-finite tau at anchor 2, t=0.5" in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("convention", ["consistent", "paper_literal"])
def test_rope_scan_golden_bytes(tmp_path, convention):
    out = tmp_path / "scan.csv"
    rc = cli.main([
        "rope-scan", "--base", "5", "--dhead", "24", "--axes", "3", "--extent", "16", "--scale", "2",
        "--strategy", "all", "--convention", convention, "--out", str(out),
    ])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"rope_scan_all_{convention}.csv").read_bytes()


def test_rope_scan_single_strategy(tmp_path):
    out = tmp_path / "one.csv"
    rc = cli.main(["rope-scan", "--strategy", "ntk", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert {r[0] for r in rows} == {"ntk"}


@pytest.mark.parametrize(
    "strategy,message",
    [("ntk,ntk", "--strategy ntk,ntk names ntk twice"), ("all,ntk", "--strategy all,ntk names ntk twice"),
     ("all,all", "--strategy all,all names extrapolate twice")],
    ids=["repeated", "covered_by_all", "all_twice"],
)
def test_rope_scan_refuses_a_strategy_named_twice(tmp_path, capsys, strategy, message):
    out = tmp_path / "scan.csv"
    assert cli.main(["rope-scan", "--strategy", strategy, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        # theta = 1/s is finite (down to 3e-309), but its wavelength overflows
        (["--strategy", "interpolate", "--scale", "1e308"], "non-finite interpolate frequency table"),
        # the scaled base overflows to inf, so theta is 0 beyond d = 0
        (["--base", "1e308", "--dhead", "24", "--axes", "3", "--strategy", "ntk", "--scale", "2"],
         "non-finite ntk frequency table"),
        # Python's float ** raises OverflowError on s ** (d_head / (d_head - 2 * axes))
        (["--strategy", "ntk", "--scale", "1e250"], "non-finite ntk frequency table"),
    ],
    ids=["interpolate_wavelength", "ntk_base", "ntk_power"],
)
def test_rope_scan_exits_one_and_writes_nothing_on_a_non_finite_table(tmp_path, capsys, argv, message):
    out = tmp_path / "scan.csv"
    rc = cli.main(["rope-scan", *argv, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,config,flag",
    [
        (["schedule", "--kind", "uniform", "--form", "paper_literal"], None, "--form"),
        (["sample", "--kind", "sigmoid", "--sigma", "3", "--n", "4"], None, "--sigma"),
        (["schedule", "--kind", "rational", "--mu", "0.2"], None, "--mu"),
        (["gen", "--model", "ckpt", "--n", "4"], {"alpha": 2.0}, "--alpha"),
        (["sample", "--kind", "rational", "--n", "4"], {"beta": 5.0}, "--beta"),
        (["rope-scan", "--strategy", "ntk", "--t", "0.9"], None, "--t"),
        (["rope-scan", "--strategy", "interpolate,time_aware", "--extent", "100"], None, "--extent"),
        (["rope-scan", "--strategy", "extrapolate"], {"scale": 3.0}, "--scale"),
        (["rope-scan", "--strategy", "extrapolate", "--convention", "paper_literal"], None, "--convention"),
        (["rope-scan", "--strategy", "extrapolate"], {"convention": "consistent"}, "--convention"),
        # ntk's table at this scale is not finite: the unread --t is refused before any table is built
        (["rope-scan", "--strategy", "ntk", "--t", "0.5", "--scale", "1e300"], None, "--t"),
    ],
    ids=["form", "sigma", "mu", "alpha_config", "beta_config", "t", "extent", "scale_config", "convention",
         "convention_config", "t_before_a_non_finite_table"],
)
def test_flags_the_chosen_kind_or_strategy_ignores_exit_two(tmp_path, capsys, monkeypatch, argv, config, flag):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "gen":
        dit.save_model(tmp_path / "ckpt", dit.init_model(flowlab.point_model_config(16, 1), seed=0))
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    assert cli.main(argv + ["--out", "out.csv"]) == 2
    assert f"{flag}: no effect with" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--layers", "24", "--style", "prenorm", "--gate", "5", "--weight-std", "1e80"],
         "non-finite block output RMS at layer 0, t=0.0"),
        (["--layers", "2", "--weight-std", "1e200"], "non-finite block output RMS at layer 0, t=0.0"),
    ],
    ids=["rms_overflows", "output_nan"],
)
def test_probe_exits_one_and_writes_nothing_on_a_non_finite_block_output(tmp_path, capsys, argv, message):
    out = tmp_path / "probe.csv"
    rc = cli.main(["probe", *argv, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_train_then_gen_round_trip(tmp_path, capsys):
    run = tmp_path / "run"
    rc = cli.main([
        "train", "--steps", "5", "--batch", "8", "--train-points", "64",
        "--d-model", "16", "--layers", "1", "--out-dir", str(run),
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
    model = dit.init_model(dit.ModelConfig(d_model=16, n_q_heads=2, n_kv_heads=2), seed=0)
    dit.save_model(tmp_path / "img", model)
    rc = cli.main(["gen", "--model", str(tmp_path / "img"), "--n", "8", "--steps", "2"])
    assert rc == 2
    assert "point-flow checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--steps", "2", "--config", "taken"],
        ["schedule", "--steps", "2", "--out", "taken"],
        ["gen", "--model", "ckpt", "--n", "8", "--steps", "2", "--out", "taken"],
    ],
    ids=["config", "schedule_out", "gen_out"],
)
def test_a_directory_where_a_file_belongs_exits_two(tmp_path, capsys, monkeypatch, argv):
    # a missing file was already a configuration error; a directory exited 1
    monkeypatch.chdir(tmp_path)
    dit.save_model(tmp_path / "ckpt", dit.init_model(flowlab.point_model_config(16, 1), seed=0))
    (tmp_path / "taken").mkdir()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "Is a directory: 'taken'" in err
    assert list((tmp_path / "taken").iterdir()) == []


def test_gen_missing_checkpoint_returns_two(tmp_path):
    rc = cli.main(["gen", "--model", str(tmp_path / "nope"), "--n", "8", "--steps", "2"])
    assert rc == 2


def test_gen_rejects_non_finite_checkpoint(tmp_path, capsys):
    model = dit.init_model(flowlab.point_model_config(16, 1), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    dit._save_tensor(tmp_path / "ckpt" / "w_embed.nkt", np.full_like(model.params["w_embed"], np.inf))
    rc = cli.main(["gen", "--model", str(tmp_path / "ckpt"), "--n", "8", "--steps", "2"])
    assert rc == 2
    assert "w_embed" in capsys.readouterr().err


def test_gen_refuses_a_checkpoint_with_an_f32_tensor(tmp_path, capsys, monkeypatch):
    # the tag-1 (f32) layout that older flowdit versions could write, by hand
    monkeypatch.chdir(tmp_path)
    model = dit.init_model(flowlab.point_model_config(16, 1), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    w = model.params["w_embed"].astype("<f4")
    header = b"NKT1" + struct.pack(f"<BI{w.ndim}Q", 1, w.ndim, *w.shape)
    (tmp_path / "ckpt" / "w_embed.nkt").write_bytes(header + w.tobytes())
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["gen", "--model", "ckpt", "--n", "8", "--steps", "2", "--out", "g.csv", "--pgm", "g.pgm"]) == 2
    assert "w_embed.nkt: dtype tag 1 is not 2 (f64)" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "key,value", [("axes", 3), ("rope_base", float("nan")), ("mlp_ratio", 2), ("eps", 1e-5), ("time_dim", 16)],
    ids=["axes", "rope_base", "mlp_ratio", "eps", "time_dim"],
)
def test_gen_refuses_a_checkpoint_naming_other_fixed_values(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    dit.save_model(tmp_path / "ckpt", dit.init_model(flowlab.point_model_config(16, 1), seed=0))
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    manifest["config"][key] = value
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["gen", "--model", "ckpt", "--n", "8", "--steps", "2", "--out", "g.csv", "--pgm", "g.pgm"]) == 2
    assert f"config {key} is {value!r}; flowdit fixes it at" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: "[]",
        lambda text: "{",
        lambda text: json.dumps({**json.loads(text), "config": [["d_model", 16]]}),
        # an object keyed by the tensor names: set() and iteration see the same names as in the list
        lambda text: json.dumps({**(m := json.loads(text)), "tensors": dict.fromkeys(m["tensors"])}),
        lambda text: json.dumps({**(m := json.loads(text)),
                                 "config": {("d_modle" if k == "d_model" else k): v for k, v in m["config"].items()}}),
        lambda text: json.dumps({**(m := json.loads(text)), "config": {**m["config"], "d_model": "16"}}),
        lambda text: json.dumps({**(m := json.loads(text)), "config": {**m["config"], "d_model": 16.0}}),
        lambda text: json.dumps({**(m := json.loads(text)), "config": {**m["config"], "patch": True}}),
        lambda text: json.dumps({**(m := json.loads(text)), "tensors": [[m["tensors"][0]], *m["tensors"][1:]]}),
        # every name and one of them again: set() sees the architecture's names
        lambda text: json.dumps({**(m := json.loads(text)), "tensors": [*m["tensors"], m["tensors"][0]]}),
        lambda text: json.dumps({**(m := json.loads(text)), "config": {**m["config"], "n_classes": -5}}),
    ],
    ids=["list", "truncated", "config_not_an_object", "tensors_not_a_list", "unknown_config_key",
         "config_value_of_wrong_type", "config_value_a_float", "config_value_a_bool", "tensor_name_not_a_string",
         "tensor_name_listed_twice", "negative_class_count"],
)
def test_gen_refuses_a_malformed_manifest_naming_it(tmp_path, capsys, monkeypatch, edit):
    monkeypatch.chdir(tmp_path)
    dit.save_model(tmp_path / "ckpt", dit.init_model(flowlab.point_model_config(16, 1), seed=0))
    manifest = tmp_path / "ckpt" / "manifest.json"
    manifest.write_text(edit(manifest.read_text()))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["gen", "--model", "ckpt", "--n", "8", "--steps", "2", "--out", "g.csv", "--pgm", "g.pgm"]) == 2
    assert f"{Path('ckpt') / 'manifest.json'}: " in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def copy_overflowing_checkpoint(ckpt):
    """perfbench's point checkpoint with every b_out entry at 1.7e308: each entry
    is finite, so load_model accepts the copy, yet the samples reach 1.7e308."""
    shutil.copytree(ROOT / "perfbench" / "checkpoint", ckpt)
    dit._save_tensor(ckpt / "b_out.nkt", np.full_like(dit._load_tensor(ckpt / "b_out.nkt"), 1.7e308))


def test_gen_non_finite_energy_distance_exits_one_and_writes_nothing(tmp_path, capsys):
    # the forward pass and the samples' squared distances overflow on the way
    ckpt = tmp_path / "ckpt"
    copy_overflowing_checkpoint(ckpt)
    out, pgm = tmp_path / "g.csv", tmp_path / "g.pgm"
    rc = cli.main(["gen", "--model", str(ckpt), "--n", "8", "--steps", "4", "--held-out", "eight_gaussians",
                   "--out", str(out), "--pgm", str(pgm)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "energy distance is not finite" in err
    assert "RuntimeWarning" not in err
    assert not out.exists() and not pgm.exists()


@pytest.mark.parametrize("command", ["sample", "gen"])
@pytest.mark.parametrize(
    "warp,ends",
    [
        (["--kind", "rational", "--sigma", "2"], "t=0.0 to t=0.3333333333333333"),
        (["--kind", "rational", "--sigma", "0.7"], "t=0.0 to t=2.5000000000000004"),
        (["--kind", "sigmoid"], "t=0.026596993576865863 to t=0.9996646498695335"),
    ],
    ids=["rational_sigma2", "rational_sigma0.7", "sigmoid"],
)
def test_paper_literal_grids_exit_two_and_write_nothing(tmp_path, capsys, monkeypatch, command, warp, ends):
    # a grid that does not run from 0 to 1 is integrated wrongly, so sampling takes no --form
    monkeypatch.chdir(tmp_path)
    argv = [command, "--form", "paper_literal", *warp, "--steps", "8", "--n", "8", "--out", "x.csv", "--pgm", "x.pgm"]
    if command == "gen":
        argv += ["--model", str(ROOT / "perfbench" / "checkpoint")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --form paper_literal" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # schedule still writes the literal grid
    assert cli.main(["schedule", "--form", "paper_literal", *warp, "--steps", "8", "--out", "s.csv"]) == 0
    _, rows = read_csv(tmp_path / "s.csv")
    assert f"t={rows[0][1]} to t={rows[-1][1]}" == ends


# numerically failing runs: argv, exit code and the one stderr line
NON_FINITE_RUNS = {
    "schedule": (
        ["schedule", "--kind", "sigmoid", "--alpha", "5000", "--out", "s.csv"], 2,
        "flowdit: configuration error: schedule is not strictly increasing: ScheduleSpec(kind='sigmoid', "
        "n_steps=50, sigma=1.0, mu=0.6, alpha=5000.0, beta=20.0)",
    ),
    "sample": (
        ["sample", "--mean", "1e308,1e308", "--std", "1e300", "--out", "x.csv"], 1,
        "flowdit: error: non-finite velocity at step 0, t=0.0",
    ),
    "train": (
        ["train", "--optimizer", "sgd", "--lr", "1e308", "--steps", "1", "--out-dir", "run"], 1,
        "flowdit: error: w_out became non-finite at step 0",
    ),
    "gen": (
        ["gen", "--model", "ckpt", "--n", "8", "--steps", "4", "--held-out", "eight_gaussians",
         "--out", "g.csv", "--pgm", "g.pgm"], 1,
        "flowdit: error: energy distance is not finite (nan)",
    ),
}


def shell_env(**extra) -> dict:
    """The environment of a `python -m flowdit.cli` child that imports this checkout's src/."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.parametrize("how", ["in_process", "shell"])
@pytest.mark.parametrize("case", list(NON_FINITE_RUNS))
def test_a_non_finite_run_prints_one_flowdit_line_in_process_and_in_a_shell(tmp_path, capsys, monkeypatch, case, how):
    # in process, pytest turns any numpy warning into an error; in a shell, it would print
    monkeypatch.chdir(tmp_path)
    argv, code, line = NON_FINITE_RUNS[case]
    if case == "gen":
        copy_overflowing_checkpoint(tmp_path / "ckpt")
    before = sorted(tmp_path.rglob("*"))
    if how == "in_process":
        rc, err = cli.main(argv), capsys.readouterr().err
    else:
        child = subprocess.run([sys.executable, "-m", "flowdit.cli", *argv], env=shell_env(),
                               capture_output=True, text=True)
        rc, err = child.returncode, child.stderr
    assert (rc, err) == (code, line + "\n")
    # train makes --out-dir before its first step, but writes no model/ into it
    made = [p.relative_to(tmp_path) for p in sorted(tmp_path.rglob("*")) if p not in before]
    assert made == ([Path("run")] if case == "train" else [])


def test_gen_rejects_truncated_tensor_header(tmp_path, capsys):
    model = dit.init_model(flowlab.point_model_config(16, 1), seed=0)
    dit.save_model(tmp_path / "ckpt", model)
    path = tmp_path / "ckpt" / "blocks.0.attn.wk.nkt"
    path.write_bytes(path.read_bytes()[:5])
    rc = cli.main(["gen", "--model", str(tmp_path / "ckpt"), "--n", "8", "--steps", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "blocks.0.attn.wk.nkt: truncated header" in err


@pytest.mark.parametrize(
    "argv,config,count",
    [
        (["sample", "--n", "0", "--steps", "2", "--pgm", "d.pgm"], None, 0),
        (["sample", "--n", "-3", "--steps", "2"], None, -3),
        (["sample", "--steps", "2"], {"n": 0}, 0),
        (["diagnose", "--n", "0", "--anchors", "2", "--substeps", "2"], None, 0),
        (["probe", "--layers", "1", "--d-model", "16", "--q-heads", "2", "--kv-heads", "2",
          "--image", "4x4", "--samples", "0"], None, 0),
        (["probe", "--layers", "1", "--d-model", "16", "--q-heads", "2", "--kv-heads", "2",
          "--image", "4x4"], {"samples": -1}, -1),
        (["gen", "--model", "ckpt", "--n", "0", "--steps", "2", "--pgm", "g.pgm"], None, 0),
        (["gen", "--model", "ckpt", "--steps", "2"], {"n": 0}, 0),
    ],
    ids=["sample", "sample_negative", "sample_config", "diagnose", "probe", "probe_config", "gen", "gen_config"],
)
def test_sample_counts_below_one_exit_two_and_write_nothing(tmp_path, capsys, monkeypatch, argv, config, count):
    monkeypatch.chdir(tmp_path)
    dit.save_model(tmp_path / "ckpt", dit.init_model(flowlab.point_model_config(16, 1), seed=0))
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv + ["--out", "out.csv"]) == 2
    assert f"need at least one sample, got {count}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "argv,message",
    [
        (["probe", "--layers", "1", "--d-model", "16", "--q-heads", "2", "--kv-heads", "2",
          "--image", "4x4", "--timesteps", ","], "--timesteps ',' has an empty entry"),
        (["sample", "--mean", ",", "--steps", "2"], "--mean ',' has an empty entry"),
        (["diagnose", "--mean", ",", "--anchors", "3", "--substeps", "2"], "--mean ',' has an empty entry"),
        (["probe", "--layers", "1", "--d-model", "16", "--q-heads", "2", "--kv-heads", "2",
          "--image", "4x4", "--timesteps", "0,,1"], "--timesteps '0,,1' has an empty entry"),
        (["sample", "--mean", "1,,2", "--steps", "2"], "--mean '1,,2' has an empty entry"),
        (["sample", "--mean", "1,2,", "--steps", "2"], "--mean '1,2,' has an empty entry"),
        (["sample", "--mean", "1, ,2", "--steps", "2"], "--mean '1, ,2' has an empty entry"),
    ],
    ids=["probe", "sample", "diagnose", "probe_inner_entry", "sample_inner_entry", "sample_trailing_entry",
         "sample_blank_entry"],
)
def test_empty_list_flags_exit_two_and_write_nothing(tmp_path, capsys, monkeypatch, argv, message):
    # an empty entry is refused, not skipped: `--mean 1,,2` once integrated a 2-d target
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "out.csv"]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_PROBE_NO_IMAGE = ["probe", "--layers", "1", "--d-model", "16", "--q-heads", "2", "--kv-heads", "2"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sample", "--mean", "1,x", "--steps", "2"], "--mean '1,x' has an entry that is not a number"),
        (["diagnose", "--mean", "2,1e", "--anchors", "3", "--substeps", "2"],
         "--mean '2,1e' has an entry that is not a number"),
        (_PROBE_NO_IMAGE + ["--image", "4x4", "--timesteps", "0,half"],
         "--timesteps '0,half' has an entry that is not a number"),
        (_PROBE_NO_IMAGE + ["--image", "8x2.5"], "--image expects HxW with positive integer sides, got '8x2.5'"),
        (_PROBE_NO_IMAGE + ["--image", "8x-2"], "--image expects HxW with positive integer sides, got '8x-2'"),
        (_PROBE_NO_IMAGE + ["--image", "0x8"], "--image expects HxW with positive integer sides, got '0x8'"),
        (_PROBE_NO_IMAGE + ["--image", "8x"], "--image expects HxW with positive integer sides, got '8x'"),
        (_PROBE_NO_IMAGE + ["--image", "8"], "--image expects HxW with positive integer sides, got '8'"),
    ],
    ids=["sample_word", "diagnose_bad_exponent", "probe_timestep_word", "probe_fractional_side",
         "probe_negative_side", "probe_zero_side", "probe_missing_side", "probe_one_side"],
)
def test_malformed_list_or_size_entries_exit_two_naming_the_flag(tmp_path, capsys, monkeypatch, argv, message):
    # float() and int() name neither the flag nor the value, and numpy refused
    # a negative side with its own message, a zero side in grid_coords
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "out.csv"]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_PROBE = ["probe", "--layers", "1", "--d-model", "16", "--q-heads", "2", "--kv-heads", "2", "--image", "4x4"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sample", "--std", "nan", "--n", "4"], "target std must be positive and finite, got nan"),
        (["sample", "--std", "inf", "--n", "4"], "target std must be positive and finite, got inf"),
        (["sample", "--mean", "nan,1", "--n", "4"], "target mean must be finite, got (nan, 1.0)"),
        (["diagnose", "--mean", "inf,0", "--anchors", "3", "--substeps", "2"], "target mean must be finite, got (inf, 0.0)"),
        (_PROBE + ["--timesteps", "nan,0.5"], "timesteps must lie in [0, 1], got nan"),
        (_PROBE + ["--timesteps", "2.0"], "timesteps must lie in [0, 1], got 2.0"),
        (_PROBE + ["--weight-std", "nan"], "weight_std must be finite, got nan"),
        (_PROBE + ["--weight-std", "-0.02"], "weight_std must be nonnegative, got -0.02"),
        (_PROBE + ["--gate", "nan"], "--gate must be finite, got nan"),
        (_PROBE + ["--q-heads", "0"], "d_model, n_q_heads, n_kv_heads, patch, and in_channels must be positive"),
        (_PROBE + ["--kv-heads", "0"], "d_model, n_q_heads, n_kv_heads, patch, and in_channels must be positive"),
        (_PROBE + ["--d-model", "0"], "d_model, n_q_heads, n_kv_heads, patch, and in_channels must be positive"),
        (["rope-scan", "--dhead", "0", "--strategy", "interpolate"], "d_head=0 must be positive and divisible by 2*axes=6"),
        (["rope-scan", "--base", "nan"], "rotary base must be finite and exceed 1, got nan"),
        (["rope-scan", "--scale", "nan"], "scale factor must be finite and >= 1, got nan"),
        (["rope-scan", "--scale", "inf"], "scale factor must be finite and >= 1, got inf"),
        (["rope-scan", "--strategy", "freq_aware", "--extent", "nan"], "training extent must be finite, got nan"),
        (["rope-scan", "--strategy", "freq_aware", "--extent", "inf"], "training extent must be finite, got inf"),
        (["partition", "--height", "64", "--width", "64", "--max-aspect", "nan"], "aspect bound must be >= 1, got nan"),
    ],
    ids=["sample_std_nan", "sample_std_inf", "sample_mean_nan", "diagnose_mean_inf", "probe_t_nan", "probe_t_above_one",
         "probe_weight_std_nan", "probe_weight_std_negative", "probe_gate_nan", "probe_q_heads_zero",
         "probe_kv_heads_zero", "probe_d_model_zero",
         "rope_dhead_zero", "rope_base_nan", "rope_scale_nan", "rope_scale_inf",
         "rope_extent_nan", "rope_extent_inf", "partition_max_aspect_nan"],
)
def test_non_finite_or_out_of_domain_inputs_exit_two_and_write_nothing(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "out.csv"]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_with_a_non_finite_learning_rate_exits_two_before_training(tmp_path, capsys, lr):
    argv = ["train", "--steps", "2", "--batch", "8", "--train-points", "64", "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv + ["--lr", lr]) == 2
    assert "learning rate must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "d_model,message",
    [("0", "d_model must be a positive multiple of 4, got 0"),
     ("6", "d_model must be a positive multiple of 4, got 6")],
    ids=["zero", "not_a_multiple_of_four"],
)
def test_train_with_an_unusable_d_model_exits_two_before_training(tmp_path, capsys, d_model, message):
    argv = ["train", "--steps", "2", "--batch", "8", "--train-points", "64", "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv + ["--d-model", d_model]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_has_no_heads_flag(tmp_path):
    # one-token attention never reads the head count, so there is nothing to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--heads", "2", "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_train_checks_its_out_dir_before_training(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train ran before --out-dir was made")

    monkeypatch.setattr(cli.flowlab, "train", no_training)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    argv = ["train", "--steps", "2", "--batch", "8", "--train-points", "64", "--out-dir", str(taken)]
    assert cli.main(argv) == 1
    assert "File exists" in capsys.readouterr().err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("occupant", ["file", "directory"])
def test_train_refuses_a_model_path_that_is_not_a_checkpoint_before_training(tmp_path, capsys, monkeypatch, occupant):
    def no_training(*args, **kwargs):
        raise AssertionError("train ran although its checkpoint path is taken")

    monkeypatch.setattr(cli.flowlab, "train", no_training)
    model = tmp_path / "run" / "model"
    if occupant == "file":
        model.parent.mkdir()
        model.write_text("keep")
    else:
        model.mkdir(parents=True)
        (model / "notes.txt").write_text("keep")
    before = sorted(tmp_path.rglob("*"))
    argv = ["train", "--steps", "2", "--batch", "8", "--train-points", "64", "--out-dir", str(model.parent)]
    assert cli.main(argv) == 1
    assert f"{model} exists and is neither a checkpoint nor an empty directory" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (model if occupant == "file" else model / "notes.txt").read_text() == "keep"


def test_train_and_gen_are_byte_identical_across_blas_thread_counts(tmp_path):
    runs = []
    for threads in ("1", "2"):
        run = tmp_path / f"blas{threads}"
        env = shell_env(OPENBLAS_NUM_THREADS=threads)
        for argv in (
            ["train", "--steps", "40", "--batch", "256", "--train-points", "4096", "--out-dir", str(run)],
            ["gen", "--model", str(run), "--n", "512", "--steps", "4", "--out", str(run / "gen.csv")],
            # 4096 points run the forward in parts on the caller and worker threads
            ["gen", "--model", str(run), "--n", "4096", "--steps", "4", "--out", str(run / "gen_parts.csv")],
        ):
            subprocess.run([sys.executable, "-m", "flowdit.cli", *argv], env=env, check=True, capture_output=True)
        runs.append({p.relative_to(run): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()})
    names = {p.name for p in runs[0]}
    assert {"losses.csv", "gen.csv", "gen_parts.csv", "manifest.json", "w_embed.nkt"} <= names
    assert runs[0] == runs[1]


def test_readme_commands_parse():
    parser, _ = cli.build_parser()
    readme = (ROOT / "README.md").read_text()
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
