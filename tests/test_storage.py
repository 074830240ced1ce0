import struct
from dataclasses import fields

import numpy as np
import pytest

from pulse.errors import ConfigError, DataError, UsageError
from pulse.model import ModelConfig, config_to_text, init_params
from pulse.radar import RadarConfig, emit_dataset, make_scene, split_sequences
from pulse.storage import (CKP_MAGIC, CKP_VERSION, POSES_HEADER, _pack_str,
                           key_value_text, load_checkpoint,
                           load_dataset, parse_key_values, read_poses_csv,
                           read_rdt, read_text, save_checkpoint, write_csv,
                           write_rdt)


def small_cfg():
    # quarter bandwidth: 8 coarse range bins still span the 0-4.8 m scene
    return RadarConfig(R=8, A=8, chirps_per_frame=4, fast_samples_per_chirp=16,
                       virtual_elements=4, noise_std=0.5, bandwidth_hz=0.25e9)


# ---------------------------------------------------------------------------
# .rdt

def test_rdt_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensor = rng.random((5, 6, 7)).astype(np.float32).astype(np.float64)
    path = tmp_path / "frame.rdt"
    write_rdt(path, tensor)
    again = read_rdt(path)
    # float32, as stored, with the exact stored values
    assert again.dtype == np.float32
    np.testing.assert_array_equal(again, tensor)
    # writing the loaded tensor reproduces the file byte for byte
    path2 = tmp_path / "copy.rdt"
    write_rdt(path2, again)
    assert path.read_bytes() == path2.read_bytes()


def test_rdt_bad_magic(tmp_path):
    path = tmp_path / "bad.rdt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        read_rdt(path)


def test_rdt_truncated(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "t.rdt"
    write_rdt(path, rng.random((2, 2, 2)))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DataError):
        read_rdt(path)


# ---------------------------------------------------------------------------
# key=value text / CSV

def test_manifest_round_trip(tmp_path):
    entries = {"seed": "7", "R": "8", "note": "a=b stays intact"}
    path = tmp_path / "manifest.txt"
    path.write_text(key_value_text(entries) + "\n")
    assert parse_key_values(read_text(path), path, DataError) == \
        {"seed": "7", "R": "8", "note": "a=b stays intact"}


def test_key_values_skip_comments_strip_and_keep_last():
    text = "# a comment\n\n  seed = 7 \nR=8\n\t# indented comment\nseed=9"
    assert parse_key_values(text, "cfg", DataError) == {"seed": "9", "R": "8"}
    assert key_value_text({"a": 1, "b": "x=y"}) == "a=1\nb=x=y"


def test_key_values_line_without_equals_names_source_and_line():
    with pytest.raises(ConfigError, match=r"^run\.cfg: line 3: .*'lr 0\.1'"):
        parse_key_values("seed=1\n\nlr 0.1\n", "run.cfg", ConfigError)


def test_poses_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    poses = rng.random((3, 2, 3)) * 100
    rows = [("000", t, j, *poses[t, j]) for t in range(3) for j in range(2)]
    path = tmp_path / "poses.csv"
    write_csv(path, POSES_HEADER, rows)
    got = read_poses_csv(path, joints=2)
    np.testing.assert_array_equal(got["000"], poses)


def test_poses_rejects_gap(tmp_path):
    path = tmp_path / "poses.csv"
    rows = [("000", 0, 0, 1.0, 2.0, 3.0), ("000", 2, 0, 1.0, 2.0, 3.0)]
    write_csv(path, POSES_HEADER, rows)
    with pytest.raises(DataError):
        read_poses_csv(path, joints=1)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    named = [("a.weight", rng.standard_normal((3, 4))),
             ("a.bias", rng.standard_normal(4)),
             ("scalar", np.array(1.5))]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "R=8\nA=8", seed=42, named_params=named)
    cfg_text, seed, params = load_checkpoint(path)
    assert cfg_text == "R=8\nA=8"
    assert seed == 42
    for (n0, v0), (n1, v1) in zip(named, params):
        assert n0 == n1
        np.testing.assert_array_equal(v0, v1)
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, cfg_text, seed, params)
    assert path.read_bytes() == path2.read_bytes()


def _joined_checkpoint_bytes(config_text, seed, named_params):
    """The reference writer: every part of the file joined in memory."""
    parts = [CKP_MAGIC, struct.pack("<I", CKP_VERSION), _pack_str(config_text),
             struct.pack("<Q", int(seed) & (2**64 - 1))]
    named_params = list(named_params)
    parts.append(struct.pack("<I", len(named_params)))
    for name, values in named_params:
        values = np.asarray(values, dtype=np.float64)
        parts.append(_pack_str(name))
        parts.append(struct.pack("<I", values.ndim))
        parts.append(struct.pack(f"<{values.ndim}I", *values.shape))
        parts.append(values.astype("<f8").tobytes(order="C"))
    return b"".join(parts)


@pytest.mark.parametrize("profile", ["full", "empty"])
def test_checkpoint_writer_streams_the_joined_bytes(profile, tmp_path):
    if profile == "full":
        cfg = ModelConfig(R=64, A=64, D=16, patch_r=4, patch_a=4, embed_dim=32,
                          layers=4, heads=4, dropout=0.1, joints=8)
        params = init_params(cfg, seed=2)
        text = config_to_text(cfg)
        named = [(n, params[n].data) for n in params.names()]
        # a transposed view and a float32 array take the writer's conversions
        named += [("view", named[0][1].T), ("single", np.arange(5, dtype=np.float32))]
    else:
        text, named = "", []
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, text, 2**64 + 7, named)
    assert path.read_bytes() == _joined_checkpoint_bytes(text, 2**64 + 7, named)
    loaded_text, seed, loaded = load_checkpoint(path)
    assert (loaded_text, seed) == (text, 7)
    assert [n for n, _ in loaded] == [n for n, _ in named]
    for (_, want), (_, got) in zip(named, loaded):
        np.testing.assert_array_equal(got, want)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "x=1", seed=0, named_params=[])
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 20)
    with pytest.raises(DataError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# dataset emission + loading

def test_split_sequences_basic():
    assert split_sequences(4, (0.5, 0.25, 0.25)) == (["000", "001"], ["002"], ["003"])
    train, val, test = split_sequences(2, (0.5, 0.25, 0.25))
    assert train and val and not test


def test_split_ratios_are_weights():
    # A zero test weight leaves test empty; train takes the remainder.
    assert split_sequences(4, (0.5, 0.25, 0.0)) == (["000", "001", "002"], ["003"], [])
    assert split_sequences(4, (0.5, 0.5, 0.5)) == (["000"], ["001"], ["002", "003"])


@pytest.mark.parametrize("ratios", [(0.5, 0.25, 0.25), (0.7, 0.3, 0.0), (1.0, 0.0, 0.0),
                                    (0.0, 0.0, 1.0), (0.2, 0.9, 0.4), (3.0, 2.0, 1.0)])
def test_split_sequences_disjoint_and_cover(ratios):
    for n in range(1, 9):
        train, val, test = split_sequences(n, ratios)
        ids = train + val + test
        assert sorted(ids) == [f"{i:03d}" for i in range(n)], (n, ratios)
        assert len(set(ids)) == n and train


@pytest.mark.parametrize("ratios", [(float("nan"), 0.25, 0.25), (float("inf"), 0.0, 0.0),
                                    (0.5, -3.0, 0.5), (0.5, 0.25, -0.25),
                                    (0.0, 0.0, 0.0)])
def test_split_sequences_rejects_bad_ratios(ratios):
    with pytest.raises(UsageError, match="--split-ratios"):
        split_sequences(3, ratios)


def test_emit_dataset_layout_and_round_trip(tmp_path):
    cfg = small_cfg()
    scenes = [make_scene(cfg, seed=10 + i, motion="walk") for i in range(2)]
    out = tmp_path / "data"
    manifest = emit_dataset(cfg, scenes, (0.5, 0.5, 0.0), out, seed=5,
                            frames_per_seq=4, motions=["walk", "walk"])
    files = sorted(p.name for p in (out / "frames").iterdir())
    assert len(files) == 8
    assert files[0] == "000_0000.rdt"
    ds = load_dataset(out)
    assert ds.splits["train"] == ["000"] and ds.splits["val"] == ["001"]
    assert ds.frames["000"].shape == (4, cfg.R, cfg.A, cfg.D)
    assert ds.frames["000"].dtype == np.float32
    np.testing.assert_array_equal(ds.frames["001"][3],
                                  read_rdt(out / "frames" / "001_0003.rdt"))
    assert ds.poses["001"].shape == (4, 8, 3)
    # every radar config value is recorded in the manifest
    recorded = ds.manifest
    for f in fields(RadarConfig):
        key = "frame_rate" if f.name == "frame_rate_hz" else f.name
        assert recorded[key] == str(getattr(cfg, f.name)), f.name
    assert manifest["split_train"] == "000"


def test_emit_dataset_deterministic(tmp_path):
    cfg = small_cfg()

    def build(path):
        scenes = [make_scene(cfg, seed=20 + i, motion="wave") for i in range(2)]
        emit_dataset(cfg, scenes, (0.5, 0.5, 0.0), path, seed=9,
                     frames_per_seq=3, motions=["wave", "wave"])

    build(tmp_path / "a")
    build(tmp_path / "b")
    for rel in ["manifest.txt", "poses.csv"] + \
            [f"frames/{s}_{f:04d}.rdt" for s in ("000", "001") for f in range(3)]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_checkpoint_mismatched_config_fails_loudly(tmp_path):
    # a checkpoint whose stored config disagrees with its parameter list
    from pulse.cli import load_model
    from pulse.model import ModelConfig, config_to_text, init_params

    cfg = ModelConfig(R=8, A=8, D=4, patch_r=4, patch_a=4, embed_dim=8,
                      layers=1, heads=2, joints=4)
    params = init_params(cfg, seed=0)
    path = tmp_path / "model.ckpt"
    other = ModelConfig(R=8, A=8, D=4, patch_r=4, patch_a=4, embed_dim=8,
                        layers=2, heads=2, joints=4)  # extra layer of params
    save_checkpoint(path, config_to_text(other), 0,
                    [(n, params[n].data) for n in params.names()])
    with pytest.raises(DataError):
        load_model(path)
