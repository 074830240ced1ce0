import contextlib
import hashlib
import io
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulse import cli
from pulse import tensor as T
from pulse import training
from pulse.cli import main
from pulse.model import config_from_text, init_params, params_from_arrays
from pulse.radar import JOINT_NAMES
from pulse.storage import load_checkpoint, load_dataset, save_checkpoint, write_rdt
from tests.conftest import (TINY_GRID, TINY_MODEL, TINY_TRAIN, float32_pose_tolerance,
                            openblas_threads, parse_train_log)


def synth(out, seed="3", extra=()):
    rc = main(["synth", "--out", str(out), "--seed", seed, "--sequences", "3",
               "--frames", "6", "--motion", "mixed", *TINY_GRID, *extra])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("clidata") / "ds")


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli_dataset):
    out = tmp_path_factory.mktemp("clirun") / "run"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
               "--seed", "5", *TINY_MODEL, *TINY_TRAIN])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# BLAS pin

def test_importing_pulse_pins_blas_before_numpy_loads():
    repo = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(repo / "src"), str(repo)])
    code = ("import pulse.model, numpy; from tests.conftest import openblas_threads; "
            "print(openblas_threads())")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "1"


def test_the_suite_runs_one_blas_thread():
    assert openblas_threads() == 1


# ---------------------------------------------------------------------------
# synth

def test_synth_layout_and_summary(cli_dataset, capsys):
    assert (cli_dataset / "manifest.txt").exists()
    assert (cli_dataset / "poses.csv").exists()
    assert (cli_dataset / "resolved.cfg").exists()
    frames = list((cli_dataset / "frames").iterdir())
    assert len(frames) == 18


def test_synth_reruns_byte_identical(tmp_path):
    a = synth(tmp_path / "a", seed="9")
    b = synth(tmp_path / "b", seed="9")
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_synth_clutter_off_recorded(tmp_path):
    out = synth(tmp_path / "nc", extra=["--clutter", "off"])
    manifest = (out / "manifest.txt").read_text()
    assert "clutter=false" in manifest


def test_synth_rejects_unknown_motion(tmp_path):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--motion", "fly", *TINY_GRID])
    assert rc == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key=1\n")
    rc = main(["synth", "--out", str(tmp_path / "y"), "--config", str(cfg), *TINY_GRID])
    assert rc == 3


def test_out_of_range_config_value_exits_3(cli_dataset, tmp_path, capsys):
    cfg = tmp_path / "lr0.cfg"
    cfg.write_text("lr=0\n")
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(tmp_path / "o"),
               "--config", str(cfg)])
    assert rc == 3
    assert "lr must be positive and finite, got 0.0" in capsys.readouterr().err


def test_config_file_flag_override(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("noise_std=0.25\nseed=4\n")
    out = tmp_path / "ds"
    rc = main(["synth", "--out", str(out), "--config", str(cfg), "--seed", "6",
               "--sequences", "2", "--frames", "4", *TINY_GRID])
    assert rc == 0
    resolved = (out / "resolved.cfg").read_text()
    assert "noise_std=0.25" in resolved
    assert "seed=6" in resolved  # flag wins over file
    assert "seed=6" in (out / "manifest.txt").read_text().replace("seed=6", "seed=6")


def test_beta_overrides_a_config_entry_but_not_gate_strength(tmp_path, capsys):
    cfg = tmp_path / "beta.cfg"
    cfg.write_text("gate_strength=0.5\n")
    argv = ["synth", "--config", str(cfg), "--beta", "2", "--sequences", "2",
            "--frames", "4", *TINY_GRID]
    assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
    assert "gate_strength=2\n" in (tmp_path / "ok" / "resolved.cfg").read_text()
    capsys.readouterr()
    assert main(argv + ["--gate_strength", "1", "--out", str(tmp_path / "both")]) == 2
    assert "--beta and --gate_strength" in capsys.readouterr().err
    assert not (tmp_path / "both").exists()


def test_pulse_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PULSE_SEED", "77")
    out = tmp_path / "env"
    rc = main(["synth", "--out", str(out), "--sequences", "2", "--frames", "4",
               *TINY_GRID])
    assert rc == 0
    assert "seed=77" in (out / "manifest.txt").read_text()
    monkeypatch.setenv("PULSE_SEED", "-1")
    assert main(["synth", "--out", str(tmp_path / "neg"), "--sequences", "2",
                 "--frames", "4", *TINY_GRID]) == 3
    assert "seed must be in [0, 2**64), got -1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval

def test_train_outputs(cli_run):
    assert (cli_run / "model.ckpt").exists()
    log = parse_train_log((cli_run / "train_log.csv").read_text())
    assert len(log) == 2
    assert (cli_run / "resolved.cfg").exists()


def test_train_deterministic_rerun(tmp_path, cli_dataset):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
                   "--seed", "5", *TINY_MODEL, *TINY_TRAIN])
        assert rc == 0
        outs.append(out)
    for rel in ("model.ckpt", "train_log.csv", "resolved.cfg"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_train_seed_2_63_is_its_own_run(cli_dataset, tmp_path):
    checkpoints = []
    for seed in (0, 2**63):
        out = tmp_path / str(seed)
        assert main(["train", "--dataset", str(cli_dataset), "--out", str(out),
                     "--seed", str(seed), *TINY_MODEL, *TINY_TRAIN, "--max_steps", "1"]) == 0
        checkpoints.append(load_checkpoint(out / "model.ckpt"))
    (_, seed_a, params_a), (_, seed_b, params_b) = checkpoints
    assert (seed_a, seed_b) == (0, 2**63)
    assert not all(np.array_equal(a, b) for (_, a), (_, b) in zip(params_a, params_b))


def test_resolved_cfg_reproduces_the_run(cli_run, cli_dataset, tmp_path):
    out = tmp_path / "again"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
               "--config", str(cli_run / "resolved.cfg")])
    assert rc == 0
    for rel in ("model.ckpt", "train_log.csv", "resolved.cfg"):
        assert (out / rel).read_bytes() == (cli_run / rel).read_bytes(), rel


def test_resolved_cfg_records_the_datasets_radar_settings(cli_run, cli_dataset, tmp_path):
    manifest = dict(line.split("=", 1) for line in
                    (cli_dataset / "manifest.txt").read_text().splitlines())
    resolved = dict(line.split("=", 1) for line in
                    (cli_run / "resolved.cfg").read_text().splitlines())
    for key, name in (("carrier_hz", "carrier_hz"), ("bandwidth_hz", "bandwidth_hz"),
                      ("chirp_duration_s", "chirp_duration_s"),
                      ("fast_samples_per_chirp", "fast_samples_per_chirp"),
                      ("virtual_elements", "virtual_elements"),
                      ("noise_std", "noise_std"), ("frame_rate_hz", "frame_rate")):
        assert resolved[key] == manifest[name], key
    assert (resolved["bandwidth_hz"], resolved["virtual_elements"]) == ("500000000.0", "4")
    # a flag that matches the manifest numerically is no conflict, and the
    # run records the manifest's spelling
    out = tmp_path / "flags"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), "--seed", "5",
               *TINY_MODEL, *TINY_TRAIN, *TINY_GRID])
    assert rc == 0
    assert (out / "resolved.cfg").read_bytes() == (cli_run / "resolved.cfg").read_bytes()


def test_eval_and_diag_record_what_they_ran(cli_run, cli_dataset, tmp_path):
    # copies of the inputs elsewhere: the record holds digests, not paths
    copies = []
    for name in ("a", "b"):
        ds, ckpt = tmp_path / name / "ds", tmp_path / name / "model.ckpt"
        shutil.copytree(cli_dataset, ds)
        shutil.copy(cli_run / "model.ckpt", ckpt)
        for command, flags in (("eval", ["--split", "val", "--pa-scale", "off"]),
                               ("diag", ["--split", "all", "--bins", "3"])):
            rc = main([command, "--checkpoint", str(ckpt), "--dataset", str(ds),
                       "--out", str(tmp_path / name / command), *flags])
            assert rc == 0
        copies.append(tmp_path / name)
    digests = (
        f"checkpoint_sha256={hashlib.sha256((cli_run / 'model.ckpt').read_bytes()).hexdigest()}\n"
        f"manifest_sha256={hashlib.sha256((cli_dataset / 'manifest.txt').read_bytes()).hexdigest()}\n")
    for copy in copies:
        assert (copy / "eval" / "resolved.cfg").read_text() == \
            digests + "pa_scale=off\nsplit=val\n"
        assert (copy / "diag" / "resolved.cfg").read_text() == \
            "bins=3\ncell_selection=occupied\n" + digests + "split=all\n"


def test_checkpoint_round_trip_bytes(cli_run, tmp_path):
    text, seed, named = load_checkpoint(cli_run / "model.ckpt")
    copy = tmp_path / "copy.ckpt"
    save_checkpoint(copy, text, seed, named)
    assert copy.read_bytes() == (cli_run / "model.ckpt").read_bytes()


def test_train_grid_conflict_rejected(cli_dataset, tmp_path):
    # 64 is also the ModelConfig default: passing it explicitly still conflicts
    for r in ("32", "64"):
        rc = main(["train", "--dataset", str(cli_dataset), "--out",
                   str(tmp_path / "x"), "--R", r, *TINY_MODEL, *TINY_TRAIN])
        assert rc == 3, r


def _float64_val_evaluation(run, dataset):
    """(model config, float64 evaluate_split of the val split, the log's best
    val MPJPE) of the checkpoint's values as stored."""
    text, _, named = load_checkpoint(run / "model.ckpt")
    mcfg = config_from_text(text)
    evaluation = training.evaluate_split(params_from_arrays(mcfg, named), mcfg,
                                         load_dataset(dataset), "val")
    log = parse_train_log((run / "train_log.csv").read_text())
    return mcfg, evaluation, min(r.val_mpjpe for r in log)


def test_float64_evaluation_reproduces_training_log_best(cli_run, cli_dataset):
    # the checkpoint holds the best epoch's float64 values, and a float64
    # evaluation of them repeats that epoch's validation pass
    _, (report, _, _), best = _float64_val_evaluation(cli_run, cli_dataset)
    assert abs(report.mpjpe - best) < 1e-9


def test_eval_matches_training_log_best(cli_run, cli_dataset, tmp_path):
    # eval runs the same values in float32: within the float32 tolerance,
    # derived from the model geometry and the pose scale, of the float64 best
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(cli_run / "model.ckpt"),
               "--dataset", str(cli_dataset), "--split", "val",
               "--out", str(out)])
    assert rc == 0
    rows = dict(line.split(",") for line in
                (out / "metrics.csv").read_text().splitlines()[1:])
    mcfg, (_, preds, _), best = _float64_val_evaluation(cli_run, cli_dataset)
    assert abs(float(rows["mpjpe"]) - best) < float32_pose_tolerance(mcfg, preds)
    pj = (out / "per_joint.csv").read_text().splitlines()
    assert pj[0] == "joint,mpjpe,mpjve"
    assert len(pj) == 9  # 8 joints


def test_load_model_casts_the_parameters_to_float32(cli_run):
    stored = dict(load_checkpoint(cli_run / "model.ckpt")[2])
    _, params, _ = cli.load_model(cli_run / "model.ckpt")
    assert params.names() == list(stored)
    for name, p in params.params.items():
        assert p.data.dtype == np.float32, name
        assert np.array_equal(p.data, stored[name].astype(np.float32)), name


def test_a_train_checkpoint_holds_float64_parameters(cli_run):
    named = load_checkpoint(cli_run / "model.ckpt")[2]
    assert named and all(values.dtype == np.float64 for _, values in named)


def test_eval_and_diag_compute_in_float32(cli_run, cli_dataset, tmp_path, op_dtypes):
    for command in ("eval", "diag"):
        op_dtypes.clear()
        assert main([command, "--checkpoint", str(cli_run / "model.ckpt"),
                     "--dataset", str(cli_dataset), "--split", "all",
                     "--out", str(tmp_path / command)]) == 0
        assert set(op_dtypes) == {np.dtype(np.float32)}, (command, set(op_dtypes))


def test_train_and_gradcheck_compute_in_float64(cli_dataset, tmp_path, op_dtypes):
    # training, its validation passes and the gradient checker stay float64
    assert main(["train", "--dataset", str(cli_dataset), "--out", str(tmp_path / "run"),
                 *TINY_MODEL, *TINY_TRAIN, "--max_steps", "2"]) == 0
    assert op_dtypes and set(op_dtypes) == {np.dtype(np.float64)}
    op_dtypes.clear()
    assert main(["gradcheck", "--R", "8", "--A", "8", "--D", "4"]) == 0
    assert op_dtypes and set(op_dtypes) == {np.dtype(np.float64)}


def test_eval_all_per_joint_pools_like_metrics(cli_run, cli_dataset, tmp_path):
    # --split all pools three sequences: no velocity may span two of them.
    out = tmp_path / "all"
    rc = main(["eval", "--checkpoint", str(cli_run / "model.ckpt"),
               "--dataset", str(cli_dataset), "--split", "all",
               "--out", str(out)])
    assert rc == 0
    rows = dict(line.split(",") for line in
                (out / "metrics.csv").read_text().splitlines()[1:])
    pj = [line.split(",") for line in
          (out / "per_joint.csv").read_text().splitlines()[1:]]
    assert abs(np.mean([float(r[1]) for r in pj]) - float(rows["mpjpe"])) < 1e-9
    assert abs(np.mean([float(r[2]) for r in pj]) - float(rows["mpjve"])) < 1e-9


def test_eval_names_the_joints_of_a_manifest_without_joint_names(cli_dataset, tmp_path):
    # joint_names is optional: J=8 takes the built-in names, another J one
    # joint_<j> per joint, before any output is written
    ds = tmp_path / "ds"
    shutil.copytree(cli_dataset, ds)
    text = re.sub(r"\njoint_names=[^\n]*\n", "\n", (ds / "manifest.txt").read_text())
    (ds / "manifest.txt").write_text(text)
    assert load_dataset(ds).joint_names == list(JOINT_NAMES)
    (ds / "manifest.txt").write_text(text.replace("\nJ=8\n", "\nJ=4\n"))
    lines = (ds / "poses.csv").read_text().splitlines()
    (ds / "poses.csv").write_text("\n".join(
        lines[:1] + [line for line in lines[1:] if int(line.split(",")[2]) < 4]) + "\n")
    run, out = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--dataset", str(ds), "--out", str(run), "--seed", "5",
                 *TINY_MODEL, *TINY_TRAIN]) == 0
    assert main(["eval", "--checkpoint", str(run / "model.ckpt"), "--dataset",
                 str(ds), "--split", "val", "--out", str(out)]) == 0
    rows = (out / "per_joint.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [f"joint_{j}" for j in range(4)]


def test_eval_reruns_byte_identical(cli_run, cli_dataset, tmp_path):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        rc = main(["eval", "--checkpoint", str(cli_run / "model.ckpt"),
                   "--dataset", str(cli_dataset), "--split", "val",
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for rel in ("metrics.csv", "per_joint.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_eval_missing_checkpoint(cli_dataset, tmp_path):
    rc = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
               "--dataset", str(cli_dataset), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_eval_wrong_grid_checkpoint(cli_run, tmp_path):
    other = synth(tmp_path / "other", extra=["--R", "32", "--A", "32",
                                             "--fast_samples_per_chirp", "64"])
    rc = main(["eval", "--checkpoint", str(cli_run / "model.ckpt"),
               "--dataset", str(other), "--out", str(tmp_path / "o")])
    assert rc == 3


# ---------------------------------------------------------------------------
# ablate

def test_ablate_beta_zero_full_equals_ungated(cli_dataset, tmp_path):
    out = tmp_path / "ab"
    rc = main(["ablate", "--dataset", str(cli_dataset), "--out", str(out),
               "--variants", "full,ungated", "--beta", "0", "--split", "val",
               "--seed", "5", *TINY_MODEL, *TINY_TRAIN])
    assert rc == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,mpjpe,pa_mpjpe,mpjve,akv"
    full_row = lines[1].split(",")[1:]
    ungated_row = lines[2].split(",")[1:]
    assert full_row == ungated_row


def test_ablate_unknown_variant(cli_dataset, tmp_path):
    rc = main(["ablate", "--dataset", str(cli_dataset),
               "--out", str(tmp_path / "x"), "--variants", "bogus"])
    assert rc == 2


def test_ablate_sweep_rows(cli_dataset, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["ablate", "--dataset", str(cli_dataset), "--out", str(out),
               "--sweep", "beta", "--sweep-values", "0,1", "--split", "val",
               "--seed", "5", *TINY_MODEL, *TINY_TRAIN])
    assert rc == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["beta=0", "beta=1"]


# ---------------------------------------------------------------------------
# gradcheck / diag

def test_gradcheck_passes_desk_config(capsys):
    rc = main(["gradcheck", "--R", "8", "--A", "8", "--D", "4", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall max rel err" in out
    assert re.search(r"^worst entry: [\w.]+\[\d+\] analytic=\S+ numeric=\S+$", out,
                     re.MULTILINE)


def test_gradcheck_writes_table(tmp_path):
    rc = main(["gradcheck", "--R", "8", "--A", "8", "--D", "4", "--seed", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "gradcheck.csv").read_text().splitlines()
    assert lines[0] == "param,max_rel_err"
    assert all(float(ln.split(",")[1]) < 1e-4 for ln in lines[1:])


def test_gradcheck_fails_with_impossible_tol():
    rc = main(["gradcheck", "--R", "8", "--A", "8", "--D", "4", "--seed", "1",
               "--tol", "1e-18"])
    assert rc == 4


def test_gradcheck_fails_on_a_wrong_gradient(monkeypatch):
    def relu_passing_every_gradient(x):
        return T._result(np.maximum(x.data, 0.0), (x,), lambda g: T._accumulate(x, g))

    monkeypatch.setattr(T, "relu", relu_passing_every_gradient)
    rc = main(["gradcheck", "--R", "8", "--A", "8", "--D", "4", "--seed", "1"])
    assert rc == 4


def test_diag_outputs(cli_run, cli_dataset, tmp_path, capsys):
    out = tmp_path / "diag"
    rc = main(["diag", "--checkpoint", str(cli_run / "model.ckpt"),
               "--dataset", str(cli_dataset), "--split", "all", "--bins", "3",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "gate_diag.csv").read_text().splitlines()
    assert lines[0] == "frame,g_bar,v_t,bin"
    # 3 sequences x 6 frames, last frame of each lacks a successor
    assert len(lines) - 1 == 3 * 5
    assert "pearson_r" in capsys.readouterr().out


def test_eval_pa_scale_flag(cli_run, cli_dataset, tmp_path):
    vals = {}
    for mode in ("on", "off"):
        out = tmp_path / mode
        rc = main(["eval", "--checkpoint", str(cli_run / "model.ckpt"),
                   "--dataset", str(cli_dataset), "--split", "val",
                   "--pa-scale", mode, "--out", str(out)])
        assert rc == 0
        rows = dict(line.split(",") for line in
                    (out / "metrics.csv").read_text().splitlines()[1:])
        vals[mode] = float(rows["pa_mpjpe"])
    assert vals["on"] <= vals["off"] + 1e-9  # scale can only help alignment


# ---------------------------------------------------------------------------
# malformed input: exit 2 or 3 naming the key or file, never a traceback

def _train_with(*flags, name=None):
    def case(ds, run, tmp):
        return (["train", "--dataset", str(ds), "--out", str(tmp / "o"),
                 *TINY_MODEL, *TINY_TRAIN, *flags], name or flags[0].lstrip("-"))
    return case


def _synth_with(*flags, name=None):
    def case(ds, run, tmp):
        return (["synth", "--out", str(tmp / "o"), *TINY_GRID, *flags],
                name or flags[0].lstrip("-"))
    return case


def _gradcheck_with(*flags, name=None):
    def case(ds, run, tmp):
        return (["gradcheck", "--R", "8", "--A", "8", "--D", "4", *flags],
                name or flags[0])
    return case


def _command_with(command, *flags, name):
    """`command` on the copied dataset, with the trained checkpoint for eval
    and diag and one small variant for ablate."""
    def case(ds, run, tmp):
        extra = (["--variants", "full", *TINY_MODEL, *TINY_TRAIN]
                 if command == "ablate" else ["--checkpoint", str(run / "model.ckpt")])
        return ([command, "--dataset", str(ds), "--out", str(tmp / "o"), *extra,
                 *flags], name)
    return case


def _config_file(ds, run, tmp):
    (tmp / "bad.cfg").write_text("lr=fast\n")
    return ["train", "--dataset", str(ds), "--out", str(tmp / "o"),
            "--config", str(tmp / "bad.cfg")], "lr"


def _eval_args(ds, ckpt, tmp):
    return ["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
            "--out", str(tmp / "o")]


def _ckpt_bad_value(ds, run, tmp):
    text, seed, named = load_checkpoint(run / "model.ckpt")
    assert "embed_dim=8" in text
    save_checkpoint(tmp / "m.ckpt", text.replace("embed_dim=8", "embed_dim=eight"),
                    seed, named)
    return _eval_args(ds, tmp / "m.ckpt", tmp), "embed_dim"


def _ckpt_bad_utf8(ds, run, tmp):
    blob = bytearray((run / "model.ckpt").read_bytes())
    blob[16] = 0xFF  # first byte of the config text after magic, version, length
    (tmp / "m.ckpt").write_bytes(bytes(blob))
    return _eval_args(ds, tmp / "m.ckpt", tmp), "m.ckpt"


def _ckpt_bad_shape(ds, run, tmp):
    text, seed, named = load_checkpoint(run / "model.ckpt")
    named[0] = (named[0][0], np.zeros((3, 3)))
    save_checkpoint(tmp / "m.ckpt", text, seed, named)
    return _eval_args(ds, tmp / "m.ckpt", tmp), "m.ckpt"


def _ckpt_nan(command, param):
    """`command` on a checkpoint with one NaN entry in `param`."""
    def case(ds, run, tmp):
        text, seed, named = load_checkpoint(run / "model.ckpt")
        dict(named)[param].reshape(-1)[0] = np.nan
        save_checkpoint(tmp / "m.ckpt", text, seed, named)
        return ([command, "--checkpoint", str(tmp / "m.ckpt"), "--dataset", str(ds),
                 "--split", "val", "--out", str(tmp / "o")],
                f"m.ckpt: parameter {param!r}")
    return case


def _init_checkpoint(run, path):
    """Save init_params of the trained run's model config to `path`: its
    zero biases make a misread header field read zero extents."""
    text, seed, _ = load_checkpoint(run / "model.ckpt")
    params = init_params(config_from_text(text), seed)
    save_checkpoint(path, text, seed, [(n, params[n].data) for n in params.names()])
    return path.read_bytes()


def _header_field(blob, name, index):
    """Byte offset of parameter `name`'s rank (index -1) or dims[index]."""
    label = name.encode()
    rank_at = blob.index(struct.pack("<I", len(label)) + label) + 4 + len(label)
    return rank_at + 4 * (index + 1)


def _ckpt_flip(name, index, bit):
    """eval on the init checkpoint with one bit of `name`'s rank (index -1)
    or dims[index] flipped."""
    def case(ds, run, tmp):
        blob = bytearray(_init_checkpoint(run, tmp / "m.ckpt"))
        at = _header_field(blob, name, index)
        field = struct.unpack_from("<I", blob, at)[0] ^ (1 << bit)
        struct.pack_into("<I", blob, at, field)
        (tmp / "m.ckpt").write_bytes(bytes(blob))
        return _eval_args(ds, tmp / "m.ckpt", tmp), "m.ckpt: parameter "
    return case


def _ckpt_huge_config(ds, run, tmp):
    # a stored config far beyond any address space, over the tiny parameters
    text, seed, named = load_checkpoint(run / "model.ckpt")
    lines = [{"R=16": "R=1048576", "A=16": "A=1048576",
              "embed_dim=8": "embed_dim=1024"}.get(line, line)
             for line in text.splitlines()]
    assert lines != text.splitlines()
    save_checkpoint(tmp / "m.ckpt", "\n".join(lines), seed, named)
    return (_eval_args(ds, tmp / "m.ckpt", tmp),
            "m.ckpt: parameter 'spatial_encoder.weight' shape (16, 8) != "
            "expected (16, 1024)")


def _rdt_truncated(ds, run, tmp):
    (ds / "frames" / "000_0002.rdt").write_bytes(b"RDT1")
    return _eval_args(ds, run / "model.ckpt", tmp), "000_0002.rdt"


def _poses_edit(edit, name="poses.csv"):
    def case(ds, run, tmp):
        lines = (ds / "poses.csv").read_text().splitlines()
        assert lines[1].startswith("000,0,0,") and lines[2].startswith("000,0,1,")
        edit(lines)
        (ds / "poses.csv").write_text("\n".join(lines) + "\n")
        return _eval_args(ds, run / "model.ckpt", tmp), name
    return case


def _set_field(index, column, value):
    """Set one field of line `index` (column 2 is the joint, 3 is x_mm)."""
    def edit(lines):
        row = lines[index].split(",")
        row[column] = value
        lines[index] = ",".join(row)
    return edit


def _drop_joint_1(lines):
    del lines[2]


def _repeat_joint_0(lines):
    lines[2] = lines[1]


def _split_without_poses(ds, run, tmp):
    text = (ds / "manifest.txt").read_text()
    assert "\nsplit_test=\n" in text
    (ds / "manifest.txt").write_text(text.replace("\nsplit_test=\n", "\nsplit_test=009\n"))
    return _eval_args(ds, run / "model.ckpt", tmp), "split_test lists sequence '009'"


def _high_bit(name, byte):
    """Flip the high bit of byte `byte` of dataset file `name`: no longer UTF-8."""
    def case(ds, run, tmp):
        blob = bytearray((ds / name).read_bytes())
        blob[byte] ^= 0x80
        (ds / name).write_bytes(bytes(blob))
        return _eval_args(ds, run / "model.ckpt", tmp), f"{name}: byte {byte} is not UTF-8"
    return case


def _config_not_utf8(ds, run, tmp):
    (tmp / "bad.cfg").write_bytes(b"lr=0.01\nbatch=\xff4\n")
    return (["train", "--dataset", str(ds), "--out", str(tmp / "o"),
             "--config", str(tmp / "bad.cfg")], "bad.cfg: byte 14 is not UTF-8")


def _split_listed_twice(old, new, name):
    def case(ds, run, tmp):
        text = (ds / "manifest.txt").read_text()
        assert old in text
        (ds / "manifest.txt").write_text(text.replace(old, new))
        return _eval_args(ds, run / "model.ckpt", tmp), name
    return case


def _rdt_nan(ds, run, tmp):
    frame = np.ones((16, 16, 8))
    frame[1, 2, 3] = np.nan
    write_rdt(ds / "frames" / "001_0004.rdt", frame)
    return _eval_args(ds, run / "model.ckpt", tmp), "001_0004.rdt"


def _rdt_other_grid(ds, run, tmp):
    write_rdt(ds / "frames" / "000_0003.rdt", np.ones((8, 8, 4)))
    return _eval_args(ds, run / "model.ckpt", tmp), "000_0003.rdt"


def _out_is_file(make_case, below=False):
    """The command of `make_case` with --out naming an existing file, or
    (below) a path under one."""
    def case(ds, run, tmp):
        (tmp / "o").write_text("")
        argv, _ = make_case(ds, run, tmp)
        out = str(tmp / "o" / "sub" if below else tmp / "o")
        if "--out" in argv:
            argv[argv.index("--out") + 1] = out
        else:
            argv += ["--out", out]
        return argv, "--out"
    return case


def _line_without_equals(ds, run, tmp):
    text = (ds / "manifest.txt").read_text()
    (ds / "manifest.txt").write_text(text.replace("\n", "\nno equals sign\n", 1))
    return _eval_args(ds, run / "model.ckpt", tmp), "manifest.txt: line 2: "


def _config_line_without_equals(ds, run, tmp):
    (tmp / "bad.cfg").write_text("# lr first\nlr=0.01\nbatch 4\n")
    return (["train", "--dataset", str(ds), "--out", str(tmp / "o"),
             "--config", str(tmp / "bad.cfg")], "bad.cfg: line 3: ")


def _ckpt_line_without_equals(ds, run, tmp):
    text, seed, named = load_checkpoint(run / "model.ckpt")
    save_checkpoint(tmp / "m.ckpt", "R=16\nno equals sign\n" + text, seed, named)
    return _eval_args(ds, tmp / "m.ckpt", tmp), "m.ckpt: model config: line 2: "


def _manifest_radar_value(ds, run, tmp):
    text = (ds / "manifest.txt").read_text()
    (ds / "manifest.txt").write_text(text.replace("carrier_hz=", "carrier_hz=6O", 1))
    return (["train", "--dataset", str(ds), "--out", str(tmp / "o"), *TINY_MODEL,
             *TINY_TRAIN], "manifest.txt: carrier_hz='6O")


def _diag_one_frame(ds, run, tmp):
    synth(tmp / "one", extra=["--frames", "1"])
    return (["diag", "--checkpoint", str(run / "model.ckpt"), "--dataset",
             str(tmp / "one"), "--split", "all", "--out", str(tmp / "o")],
            "split 'all' sequence 000 has 1 frame")


def _ckpt_other_grid(command):
    """`command` with a checkpoint of the trained model's config at R=32, on
    the R=16 dataset."""
    def case(ds, run, tmp):
        text, seed, _ = load_checkpoint(run / "model.ckpt")
        assert text.startswith("R=16\n")
        text = "R=32" + text[len("R=16"):]
        params = init_params(config_from_text(text), seed)
        save_checkpoint(tmp / "m.ckpt", text, seed,
                        [(n, params[n].data) for n in params.names()])
        return ([command, "--checkpoint", str(tmp / "m.ckpt"), "--dataset", str(ds),
                 "--out", str(tmp / "o")],
                f"{tmp / 'm.ckpt'}: checkpoint grid (32, 16, 8)/J=8 does not match "
                f"{ds / 'manifest.txt'}: dataset (16, 16, 8)/J=8")
    return case


def _joint_names_count(ds, run, tmp):
    text = (ds / "manifest.txt").read_text()
    assert "\njoint_names=head," in text
    (ds / "manifest.txt").write_text(
        re.sub(r"\njoint_names=[^\n]*\n", "\njoint_names=a,b,c\n", text))
    return (_eval_args(ds, run / "model.ckpt", tmp),
            "manifest.txt: joint_names lists 3 names for J=8")


def _empty_split(command, split):
    """train, or ablate of the train split, on the copy with `split` emptied
    in its manifest: the error names the manifest and the split."""
    def case(ds, run, tmp):
        text = (ds / "manifest.txt").read_text()
        text, count = re.subn(rf"\nsplit_{split}=[^\n]+\n", f"\nsplit_{split}=\n", text)
        assert count == 1
        (ds / "manifest.txt").write_text(text)
        argv = (["train", "--dataset", str(ds), "--out", str(tmp / "o"), *TINY_MODEL,
                 *TINY_TRAIN] if command == "train" else
                _command_with("ablate", "--split", "train", name="")(ds, run, tmp)[0])
        return argv, f"{ds / 'manifest.txt'}: split {split!r} is empty"
    return case


@pytest.mark.parametrize("case", [
    pytest.param(_train_with("--embed_dim", "abc"), id="embed_dim"),
    pytest.param(_synth_with("--noise_std", "abc"), id="noise_std"),
    pytest.param(_synth_with("--seed", "abc"), id="seed"),
    pytest.param(_train_with("--dropout", "x"), id="dropout"),
    pytest.param(_train_with("--batch", "0"), id="batch"),
    pytest.param(_config_file, id="config_file"),
    pytest.param(_ckpt_bad_value, id="ckpt_value"),
    pytest.param(_ckpt_bad_utf8, id="ckpt_utf8"),
    pytest.param(_rdt_truncated, id="rdt_truncated"),
    pytest.param(_poses_edit(_set_field(3, 2, "x")), id="poses_joint"),
    pytest.param(_poses_edit(_set_field(3, 2, "8")), id="poses_joint_range"),
    pytest.param(_rdt_nan, id="rdt_nan"),
    pytest.param(_train_with("--noise_std", "abc"), id="train_noise_std"),
    pytest.param(_ckpt_bad_shape, id="ckpt_shape"),
    pytest.param(_rdt_other_grid, id="rdt_grid"),
    pytest.param(
        _poses_edit(_drop_joint_1, "poses.csv: sequence 000 frame 0 lacks joints [1]"),
        id="poses_missing_joint"),
    pytest.param(_poses_edit(_repeat_joint_0,
                             "poses.csv: line 3: sequence 000 frame 0 repeats joint 0"),
                 id="poses_repeated_joint"),
    pytest.param(
        _poses_edit(_set_field(1, 3, "nan"), "poses.csv: line 2: non-finite coordinate"),
        id="poses_nan"),
    pytest.param(_split_without_poses, id="split_without_poses"),
    pytest.param(_synth_with("--frames", "0"), id="synth_frames"),
    pytest.param(_synth_with("--split-ratios", "nan,0.25,0.25"), id="split_nan"),
    pytest.param(_synth_with("--split-ratios", "0.5,-3,0.5", "--sequences", "3"),
                 id="split_negative"),
    pytest.param(_synth_with("--split-ratios", "0,0,0"), id="split_zero"),
    pytest.param(_command_with("eval", "--split", "bogus", name="--split"),
                 id="eval_split"),
    pytest.param(_command_with("diag", "--split", "bogus", name="--split"),
                 id="diag_split"),
    pytest.param(_command_with("ablate", "--split", "bogus", name="--split"),
                 id="ablate_split"),
    pytest.param(_command_with("diag", "--split", "all", "--bins", "1", name="--bins"),
                 id="diag_bins"),
    pytest.param(_command_with("eval", "--split", "test",
                               name="manifest.txt: split 'test' is empty"),
                 id="eval_split_empty"),
    pytest.param(_command_with("ablate", "--split", "test",
                               name="manifest.txt: split 'test' is empty"),
                 id="ablate_split_empty"),
    pytest.param(_diag_one_frame, id="diag_one_frame"),
    pytest.param(_train_with("--heads", "0"), id="heads_zero"),
    pytest.param(_train_with("--heads", "-2"), id="heads_negative"),
    pytest.param(_train_with("--patch_r", "0"), id="patch_r_zero"),
    pytest.param(_train_with("--embed_dim", "0"), id="embed_dim_zero"),
    pytest.param(_train_with("--layers", "-1"), id="layers_negative"),
    pytest.param(_train_with("--lr", "nan"), id="lr_nan"),
    pytest.param(_train_with("--weight_decay", "nan"), id="weight_decay_nan"),
    pytest.param(_train_with("--clip", "nan"), id="clip_nan"),
    pytest.param(_synth_with("--frame_rate_hz", "0"), id="frame_rate_zero"),
    pytest.param(_synth_with("--frame_rate_hz", "nan"), id="frame_rate_nan"),
    pytest.param(_synth_with("--chirp_duration_s", "0"), id="chirp_duration_zero"),
    pytest.param(_synth_with("--bandwidth_hz", "0"), id="bandwidth_zero"),
    pytest.param(_synth_with("--carrier_hz", "0"), id="carrier_zero"),
    pytest.param(_synth_with("--noise_std", "nan"), id="noise_std_nan"),
    pytest.param(_synth_with("--noise_std", "inf"), id="noise_std_inf"),
    pytest.param(_gradcheck_with("--tol", "nan"), id="gradcheck_tol_nan"),
    pytest.param(_gradcheck_with("--tol", "0"), id="gradcheck_tol_zero"),
    pytest.param(_gradcheck_with("--step", "nan"), id="gradcheck_step_nan"),
    pytest.param(_gradcheck_with("--step", "inf"), id="gradcheck_step_inf"),
    pytest.param(_ckpt_nan("eval", "head.l2.weight"), id="ckpt_nan_head_eval"),
    pytest.param(_ckpt_nan("diag", "token_gate.bias"), id="ckpt_nan_gate_diag"),
    pytest.param(_ckpt_nan("eval", "pos_embed"), id="ckpt_nan_pos_eval"),
    pytest.param(_ckpt_nan("diag", "pos_embed"), id="ckpt_nan_pos_diag"),
    pytest.param(_ckpt_flip("spatial_encoder.bias", -1, 9), id="ckpt_rank_flip"),
    pytest.param(_ckpt_flip("doppler_encoder.l1.bias", 0, 10), id="ckpt_dims_flip"),
    pytest.param(_ckpt_huge_config, id="ckpt_huge_config"),
    pytest.param(_high_bit("manifest.txt", 3), id="manifest_utf8"),
    pytest.param(_high_bit("poses.csv", 40), id="poses_utf8"),
    pytest.param(_config_not_utf8, id="config_utf8"),
    pytest.param(
        _split_listed_twice("split_val=002", "split_val=000",
                            "split_val lists sequence '000', which split_train "
                            "already lists"),
        id="split_in_two_splits"),
    pytest.param(
        _split_listed_twice("split_train=000", "split_train=000,000",
                            "split_train lists sequence '000', which split_train "
                            "already lists"),
        id="split_repeated"),
    pytest.param(_out_is_file(_train_with("--seed", "5")), id="train_out_is_file"),
    pytest.param(_out_is_file(_command_with("eval", "--split", "val", name="")),
                 id="eval_out_is_file"),
    pytest.param(_out_is_file(_command_with("diag", "--split", "val", name=""), below=True),
                 id="diag_out_below_file"),
    pytest.param(_out_is_file(_command_with("ablate", "--split", "val", name="")),
                 id="ablate_out_is_file"),
    pytest.param(_out_is_file(_gradcheck_with("--seed", "1"), below=True),
                 id="gradcheck_out_below_file"),
    pytest.param(_train_with("--joints", "4"), id="joints_conflict"),
    pytest.param(_line_without_equals, id="manifest_line"),
    pytest.param(_config_line_without_equals, id="config_line"),
    pytest.param(_ckpt_line_without_equals, id="ckpt_config_line"),
    pytest.param(_train_with("--bandwidth_hz", "1e9"), id="bandwidth_conflict"),
    pytest.param(_train_with("--virtual_elements", "8"), id="virtual_elements_conflict"),
    pytest.param(
        _command_with("ablate", "--split", "val", "--frame_rate_hz", "5",
                      name="flag frame_rate_hz=5 conflicts with dataset frame_rate=10.0"),
        id="ablate_frame_rate_conflict"),
    pytest.param(_manifest_radar_value, id="manifest_radar_value"),
    pytest.param(
        _train_with("--frame_window", "0", name="frame_window must be >= 1, got 0"),
        id="frame_window_zero"),
    pytest.param(
        _train_with("--neighborhood", "0", name="neighborhood must be >= 1, got 0"),
        id="neighborhood_zero"),
    pytest.param(_train_with("--agg_eps", "0", name="agg_eps must be > 0, got 0.0"),
                 id="agg_eps_zero"),
    pytest.param(_command_with("diag", "--split", "val", "--bins", "6",
                               name="--bins 6 exceeds the 5 scored frames of split 'val'"),
                 id="diag_bins_over_frames"),
    pytest.param(_joint_names_count, id="joint_names_count"),
    pytest.param(_command_with("ablate", "--split", "val", "--sweep-values", "0,1,2",
                               name="--sweep-values needs --sweep"),
                 id="ablate_sweep_values_without_sweep"),
    pytest.param(_train_with("--beta", "2", "--gate_strength", "0.5",
                             name="--beta and --gate_strength both set gate_strength"),
                 id="beta_and_gate_strength"),
    pytest.param(_ckpt_other_grid("eval"), id="eval_ckpt_other_grid"),
    pytest.param(_ckpt_other_grid("diag"), id="diag_ckpt_other_grid"),
    pytest.param(_command_with("ablate", "--split", "val", "--sweep", "bogus",
                               name="unknown sweep 'bogus'"),
                 id="ablate_sweep_unknown"),
    # an empty --variants overrides the one _command_with passes
    pytest.param(_command_with("ablate", "--split", "val", "--variants", "",
                               name="nothing to do: pass --variants and/or --sweep"),
                 id="ablate_nothing_to_do"),
    pytest.param(_synth_with("--split-ratios", "0.5,0.5",
                             name="--split-ratios needs three comma-separated values"),
                 id="split_two_values"),
    pytest.param(_synth_with("--split-ratios", "a,b,c", name="bad --split-ratios 'a,b,c'"),
                 id="split_not_numbers"),
    pytest.param(_synth_with("--seed", "-1", name="seed must be in [0, 2**64), got -1"),
                 id="synth_seed_negative"),
    pytest.param(_train_with("--seed", "-1", name="seed must be in [0, 2**64), got -1"),
                 id="train_seed_negative"),
    pytest.param(
        _train_with("--seed", str(2**64), name=f"seed must be in [0, 2**64), got {2**64}"),
        id="train_seed_too_large"),
    pytest.param(_gradcheck_with("--seed", "-1", name="seed must be in [0, 2**64), got -1"),
                 id="gradcheck_seed_negative"),
    pytest.param(_synth_with("--bandwidth_hz", "1e10",
                             name="exceeds the span: max_range_m=0.24, set by R=16 and "
                                  "bandwidth_hz=1e+10"),
                 id="synth_range_span"),
    pytest.param(_synth_with("--chirp_duration_s", "1e-2",
                             name="exceeds the span: max_speed_mps=0.12, set by "
                                  "carrier_hz=6e+10 and chirp_duration_s=0.01"),
                 id="synth_speed_span"),
    pytest.param(_empty_split("train", "val"), id="train_val_empty"),
    pytest.param(_empty_split("train", "train"), id="train_train_empty"),
    pytest.param(_empty_split("ablate", "val"), id="ablate_val_empty"),
])
def test_malformed_input_exits_cleanly(case, cli_dataset, cli_run, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(cli_dataset, ds)
    argv, name = case(ds, cli_run, tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (2, 3), err
    assert name in err
    assert "Traceback" not in err
    # a failing eval or diag writes no report
    assert not (tmp_path / "o" / "metrics.csv").exists()
    assert not (tmp_path / "o" / "gate_diag.csv").exists()
    # an empty split is refused before --out is made
    if "is empty" in name:
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", [
    pytest.param(_empty_split("train", "val"), id="train_val"),
    pytest.param(_empty_split("train", "train"), id="train_train"),
    pytest.param(_empty_split("ablate", "val"), id="ablate_val"),
    pytest.param(_command_with("ablate", "--split", "test",
                               name="manifest.txt: split 'test' is empty"),
                 id="ablate_test"),
    pytest.param(_command_with("eval", "--split", "test",
                               name="manifest.txt: split 'test' is empty"),
                 id="eval_test"),
])
def test_an_empty_split_exits_3_before_any_forward(case, cli_dataset, cli_run, tmp_path,
                                                   capsys, monkeypatch):
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(training, "forward", no_forward)
    ds = tmp_path / "ds"
    shutil.copytree(cli_dataset, ds)
    argv, name = case(ds, cli_run, tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert name in err


def test_out_of_memory_exits_3_naming_the_command(cli_dataset, tmp_path, capsys,
                                                  monkeypatch):
    # the MemoryError numpy raises for a model too large for the machine,
    # raised without allocating
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 512. MiB for an array with shape "
                          "(4096, 16384) and data type float64")

    monkeypatch.setattr(cli, "train_model", exhausted)
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(tmp_path / "o"),
               *TINY_MODEL, *TINY_TRAIN])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "pulse train ran out of memory: Unable to allocate 512. MiB" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# checkpoint fuzz: a damaged checkpoint exits 3 (or, where a flip still
# parses and matches the model, 0), never with a traceback

@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory, cli_run):
    """(work dir, init checkpoint bytes, bit positions of its header fields:
    everything but the float64 payload, which can flip to a legal value)."""
    work = tmp_path_factory.mktemp("fuzz")
    blob = _init_checkpoint(cli_run, work / "base.ckpt")
    text, _, named = load_checkpoint(work / "base.ckpt")
    header = list(range(8 + 4 + 4 + len(text.encode()) + 8 + 4))
    at = len(header)
    for name, values in named:
        size = 4 + len(name.encode()) + 4 + 4 * values.ndim
        header += range(at, at + size)
        at += size + values.nbytes
    assert at == len(blob)
    return work, blob, [8 * byte + bit for byte in header for bit in range(8)]


def _eval_damaged(ds, work, blob):
    (work / "m.ckpt").write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(_eval_args(ds, work / "m.ckpt", work) + ["--split", "val"])
    return rc, err.getvalue()


def _fuzz(examples):
    return settings(max_examples=examples, derandomize=True, database=None,
                    deadline=None)


@_fuzz(100)
@given(data=st.data())
def test_truncated_checkpoint_exits_3(data, cli_dataset, fuzz_checkpoint):
    work, blob, _ = fuzz_checkpoint
    size = data.draw(st.integers(0, len(blob) - 1))
    rc, err = _eval_damaged(cli_dataset, work, blob[:size])
    assert rc == 3 and "m.ckpt" in err, (size, err)


@_fuzz(400)
@given(data=st.data())
def test_checkpoint_header_bit_flip_exits_0_or_3(data, cli_dataset, fuzz_checkpoint):
    work, blob, bits = fuzz_checkpoint
    bit = data.draw(st.sampled_from(bits))
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    rc, err = _eval_damaged(cli_dataset, work, bytes(damaged))
    assert rc in (0, 3), (bit, err)


# ---------------------------------------------------------------------------
# dataset fuzz: a damaged .rdt header, manifest.txt or poses.csv exits 2 or 3
# (or 0, where the damage leaves a legal file), never with a traceback

FUZZ_FILES = {"rdt": "frames/001_0003.rdt", "manifest": "manifest.txt",
              "poses": "poses.csv"}


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory, cli_dataset):
    work = tmp_path_factory.mktemp("datafuzz")
    shutil.copytree(cli_dataset, work / "ds")
    return work, work / "ds"


def _eval_damaged_file(fuzz_dataset, cli_run, kind, damage):
    """eval of the val split with file `kind` replaced by damage(its bytes)."""
    work, ds = fuzz_dataset
    path = ds / FUZZ_FILES[kind]
    original = path.read_bytes()
    path.write_bytes(damage(original))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(_eval_args(ds, cli_run / "model.ckpt", work) + ["--split", "val"])
    finally:
        path.write_bytes(original)
    assert "Traceback" not in err.getvalue()
    return rc, err.getvalue()


@_fuzz(60)
@given(kind=st.sampled_from(sorted(FUZZ_FILES)), data=st.data())
def test_truncated_dataset_file_exits_cleanly(kind, data, fuzz_dataset, cli_run):
    size = (fuzz_dataset[1] / FUZZ_FILES[kind]).stat().st_size
    keep = data.draw(st.integers(0, size - 1))
    rc, err = _eval_damaged_file(fuzz_dataset, cli_run, kind, lambda b: b[:keep])
    # an .rdt must hold its whole payload; a poses.csv cut at a row boundary
    # is a shorter legal table
    assert rc == 3 if kind == "rdt" else rc in (0, 3), (kind, keep, err)
    assert rc == 0 or FUZZ_FILES[kind].split("/")[-1] in err, (kind, keep, err)


@_fuzz(120)
@given(kind=st.sampled_from(sorted(FUZZ_FILES)), data=st.data())
def test_dataset_file_bit_flip_exits_cleanly(kind, data, fuzz_dataset, cli_run):
    # the .rdt payload is left out: a flipped float32 can be a legal value
    size = 16 if kind == "rdt" else (fuzz_dataset[1] / FUZZ_FILES[kind]).stat().st_size
    bit = data.draw(st.integers(0, 8 * size - 1))

    def flip(blob):
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        return bytes(damaged)

    rc, err = _eval_damaged_file(fuzz_dataset, cli_run, kind, flip)
    assert rc in (0, 2, 3), (kind, bit, err)
