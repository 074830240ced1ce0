import re
import shutil

import numpy as np
import pytest

from pulse.cli import main
from pulse.storage import load_checkpoint, save_checkpoint, write_rdt
from tests.conftest import parse_train_log

DESK = ["--bandwidth_hz", "0.5e9", "--R", "16", "--A", "16", "--D", "8",
        "--fast_samples_per_chirp", "32", "--virtual_elements", "4"]
SMALL_MODEL = ["--embed_dim", "8", "--layers", "1", "--heads", "2",
               "--patch_r", "4", "--patch_a", "4"]
FAST_TRAIN = ["--lr", "3e-3", "--batch", "4", "--epochs", "2", "--patience", "5"]


def synth(out, seed="3", extra=()):
    rc = main(["synth", "--out", str(out), "--seed", seed, "--sequences", "3",
               "--frames", "6", "--motion", "mixed", *DESK, *extra])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("clidata") / "ds")


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli_dataset):
    out = tmp_path_factory.mktemp("clirun") / "run"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
               "--seed", "5", *SMALL_MODEL, *FAST_TRAIN])
    assert rc == 0
    return out


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
    rc = main(["synth", "--out", str(tmp_path / "x"), "--motion", "fly", *DESK])
    assert rc == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key=1\n")
    rc = main(["synth", "--out", str(tmp_path / "y"), "--config", str(cfg), *DESK])
    assert rc == 3


def test_config_file_flag_override(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("noise_std=0.25\nseed=4\n")
    out = tmp_path / "ds"
    rc = main(["synth", "--out", str(out), "--config", str(cfg), "--seed", "6",
               "--sequences", "2", "--frames", "4", *DESK])
    assert rc == 0
    resolved = (out / "resolved.cfg").read_text()
    assert "noise_std=0.25" in resolved
    assert "seed=6" in resolved  # flag wins over file
    assert "seed=6" in (out / "manifest.txt").read_text().replace("seed=6", "seed=6")


def test_pulse_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PULSE_SEED", "77")
    out = tmp_path / "env"
    rc = main(["synth", "--out", str(out), "--sequences", "2", "--frames", "4",
               *DESK])
    assert rc == 0
    assert "seed=77" in (out / "manifest.txt").read_text()


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
                   "--seed", "5", *SMALL_MODEL, *FAST_TRAIN])
        assert rc == 0
        outs.append(out)
    for rel in ("model.ckpt", "train_log.csv", "resolved.cfg"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_checkpoint_round_trip_bytes(cli_run, tmp_path):
    text, seed, named = load_checkpoint(cli_run / "model.ckpt")
    copy = tmp_path / "copy.ckpt"
    save_checkpoint(copy, text, seed, named)
    assert copy.read_bytes() == (cli_run / "model.ckpt").read_bytes()


def test_train_grid_conflict_rejected(cli_dataset, tmp_path):
    # 64 is also the ModelConfig default: passing it explicitly still conflicts
    for r in ("32", "64"):
        rc = main(["train", "--dataset", str(cli_dataset), "--out",
                   str(tmp_path / "x"), "--R", r, *SMALL_MODEL, *FAST_TRAIN])
        assert rc == 3, r


def test_eval_matches_training_log_best(cli_run, cli_dataset, tmp_path):
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(cli_run / "model.ckpt"),
               "--dataset", str(cli_dataset), "--split", "val",
               "--out", str(out)])
    assert rc == 0
    rows = dict(line.split(",") for line in
                (out / "metrics.csv").read_text().splitlines()[1:])
    log = parse_train_log((cli_run / "train_log.csv").read_text())
    best = min(r.val_mpjpe for r in log)
    assert abs(float(rows["mpjpe"]) - best) < 1e-9
    pj = (out / "per_joint.csv").read_text().splitlines()
    assert pj[0] == "joint,mpjpe,mpjve"
    assert len(pj) == 9  # 8 joints


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
               "--seed", "5", *SMALL_MODEL, *FAST_TRAIN])
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
               "--seed", "5", *SMALL_MODEL, *FAST_TRAIN])
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

def _train_with(*flags):
    def case(ds, run, tmp):
        return (["train", "--dataset", str(ds), "--out", str(tmp / "o"),
                 *SMALL_MODEL, *FAST_TRAIN, *flags], flags[0].lstrip("-"))
    return case


def _synth_with(*flags):
    def case(ds, run, tmp):
        return ["synth", "--out", str(tmp / "o"), *DESK, *flags], flags[0].lstrip("-")
    return case


def _command_with(command, *flags, name):
    """`command` on the copied dataset, with the trained checkpoint for eval
    and diag and one small variant for ablate."""
    def case(ds, run, tmp):
        extra = (["--variants", "full", *SMALL_MODEL, *FAST_TRAIN]
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


def _rdt_nan(ds, run, tmp):
    frame = np.ones((16, 16, 8))
    frame[1, 2, 3] = np.nan
    write_rdt(ds / "frames" / "001_0004.rdt", frame)
    return _eval_args(ds, run / "model.ckpt", tmp), "001_0004.rdt"


def _rdt_other_grid(ds, run, tmp):
    write_rdt(ds / "frames" / "000_0003.rdt", np.ones((8, 8, 4)))
    return _eval_args(ds, run / "model.ckpt", tmp), "000_0003.rdt"


def _diag_one_frame(ds, run, tmp):
    synth(tmp / "one", extra=["--frames", "1"])
    return (["diag", "--checkpoint", str(run / "model.ckpt"), "--dataset",
             str(tmp / "one"), "--split", "all", "--out", str(tmp / "o")],
            "split 'all' sequence 000 has 1 frame")


@pytest.mark.parametrize("case", [
    _train_with("--embed_dim", "abc"), _synth_with("--noise_std", "abc"),
    _synth_with("--seed", "abc"), _train_with("--dropout", "x"),
    _train_with("--batch", "0"), _config_file, _ckpt_bad_value, _ckpt_bad_utf8,
    _rdt_truncated, _poses_edit(_set_field(3, 2, "x")),
    _poses_edit(_set_field(3, 2, "8")), _rdt_nan,
    _train_with("--noise_std", "abc"), _ckpt_bad_shape, _rdt_other_grid,
    _poses_edit(_drop_joint_1, "poses.csv: sequence 000 frame 0 lacks joints [1]"),
    _poses_edit(_repeat_joint_0, "poses.csv: line 3: sequence 000 frame 0 repeats joint 0"),
    _poses_edit(_set_field(1, 3, "nan"), "poses.csv: line 2: non-finite coordinate"),
    _split_without_poses, _synth_with("--frames", "0"),
    _synth_with("--split-ratios", "nan,0.25,0.25"),
    _synth_with("--split-ratios", "0.5,-3,0.5", "--sequences", "3"),
    _synth_with("--split-ratios", "0,0,0"),
    _command_with("eval", "--split", "bogus", name="--split"),
    _command_with("diag", "--split", "bogus", name="--split"),
    _command_with("ablate", "--split", "bogus", name="--split"),
    _command_with("diag", "--split", "all", "--bins", "1", name="--bins"),
    _command_with("eval", "--split", "test", name="manifest.txt: split 'test' is empty"),
    _command_with("ablate", "--split", "test",
                  name="manifest.txt: split 'test' is empty"),
    _diag_one_frame,
], ids=["embed_dim", "noise_std", "seed", "dropout", "batch", "config_file",
        "ckpt_value", "ckpt_utf8", "rdt_truncated", "poses_joint",
        "poses_joint_range", "rdt_nan", "train_noise_std", "ckpt_shape",
        "rdt_grid", "poses_missing_joint", "poses_repeated_joint",
        "poses_nan", "split_without_poses", "synth_frames", "split_nan",
        "split_negative", "split_zero", "eval_split", "diag_split",
        "ablate_split", "diag_bins", "eval_split_empty", "ablate_split_empty",
        "diag_one_frame"])
def test_malformed_input_exits_cleanly(case, cli_dataset, cli_run, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(cli_dataset, ds)
    argv, name = case(ds, cli_run, tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (2, 3), err
    assert name in err
    assert "Traceback" not in err
