"""Acceptance suite.

One test per criterion, each printing a PASS line with its measured values.
The desk-scale training fixture (shared by the direction and gate checks)
trains full and spatial_only variants for three seeds on a clutter-heavy
synthetic dataset rendered through the CLI.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from pulse import tensor as T
from pulse.cli import main
from pulse.features import reconstruct_rad, spatial_magnitude
from pulse.metrics import gate_motion_diag, kalman_smooth, sequence_report
from pulse.model import (ModelConfig, conditional_cross_attention, forward,
                         init_params, params_from_arrays, tokenize_doppler,
                         tokenize_spatial)
from pulse.radar import (RadarConfig, Scatterer, angle_bin, doppler_bin,
                         range_bin, range_for_bin, rad_fft, render_frame,
                         sin_theta_for_bin, speed_for_bin)
from pulse.storage import load_dataset
from pulse.training import TrainConfig, evaluate_split, train_model

# Desk-scale training profile: overrides of the full-scale defaults sized
# for a few CPU minutes per run.
DESK = {
    "grid": dict(R=32, A=32, D=16),
    "model": dict(patch_r=4, patch_a=4, embed_dim=16, layers=2, heads=2,
                  dropout=0.1, joints=8),
    "train": dict(lr=3e-3, weight_decay=0.01, batch=4, clip=1.0, epochs=500,
                  patience=500, max_steps=2200, gate_loss_weight=30.0),
    "noise_std": 2.0,
    "sequences": 8,
    "frames": 64,
    "seeds": (1, 2, 3),
}


def _passline(name, detail):
    print(f"\nACCEPTANCE PASS [{name}] {detail}")


# ---------------------------------------------------------------------------
# Shared desk-scale fixtures

@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "dataset"
    t0 = time.perf_counter()
    rc = main(["synth", "--out", str(out), "--seed", "80",
               "--R", str(DESK["grid"]["R"]), "--A", str(DESK["grid"]["A"]),
               "--D", str(DESK["grid"]["D"]),
               "--sequences", str(DESK["sequences"]),
               "--frames", str(DESK["frames"]), "--motion", "mixed",
               "--clutter", "on", "--noise_std", str(DESK["noise_std"])])
    assert rc == 0
    return load_dataset(out), time.perf_counter() - t0


@pytest.fixture(scope="session")
def trained_models(desk_dataset):
    dataset, synth_seconds = desk_dataset
    models = {}
    t0 = time.perf_counter()
    for variant in ("full", "spatial_only"):
        for seed in DESK["seeds"]:
            mcfg = ModelConfig(**DESK["grid"], **DESK["model"], ablation=variant)
            tcfg = TrainConfig(**DESK["train"], seed=seed)
            result = train_model(dataset, mcfg, tcfg)
            params = params_from_arrays(mcfg, result.best_values.items())
            models[(variant, seed)] = (params, mcfg)
    train_seconds = time.perf_counter() - t0
    return dataset, models, synth_seconds + train_seconds


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite via cmd_gradcheck

def test_gradient_suite(capsys):
    t0 = time.perf_counter()
    rc = main(["gradcheck", "--R", "8", "--A", "8", "--D", "4"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0, out
    worst = float(out.split("overall max rel err:")[1].split()[0])
    assert worst < 1e-4
    assert elapsed < 60.0
    for group in ("cross_attn", "token_gate", "residual_gate", "transformer",
                  "head"):
        assert group in out
    _passline("gradient-suite", f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: exact ablation equivalences

def test_ablation_equivalences():
    cfg_full0 = ModelConfig(R=16, A=16, D=8, patch_r=4, patch_a=4, embed_dim=8,
                            layers=2, heads=2, joints=4, gate_strength=0.0)
    cfg_ungated = ModelConfig(R=16, A=16, D=8, patch_r=4, patch_a=4, embed_dim=8,
                              layers=2, heads=2, joints=4, ablation="ungated")
    params = init_params(cfg_full0, seed=21, randomize_all=True)
    rng = np.random.default_rng(22)
    frames = [rng.random((16, 16, 8))]
    a = forward([frames], params, cfg_full0).pose.data
    b = forward([frames], params, cfg_ungated).pose.data
    assert np.array_equal(a, b)

    # (b) constant gates reproduce ungated attention weights within 1e-12
    spatial = tokenize_spatial(spatial_magnitude(frames[0])[None], params, cfg_ungated)
    doppler = tokenize_doppler(frames, params)
    const = T.Tensor(np.full((1, cfg_ungated.n_cells, 1), 0.42), batched=True)
    cfg_gated = ModelConfig(R=16, A=16, D=8, patch_r=4, patch_a=4, embed_dim=8,
                            layers=2, heads=2, joints=4, gate_strength=1.0)
    _, w_gated = conditional_cross_attention(spatial, doppler, const, params, cfg_gated)
    _, w_ungated = conditional_cross_attention(spatial, doppler, None, params, cfg_ungated)
    # window weights: hidden entries are exactly 0 on both sides
    worst = max(np.max(np.abs(g - u)) for g, u in zip(w_gated[0], w_ungated[0]))
    assert worst < 1e-12

    # (c) spatial_only output invariant to arbitrary Doppler perturbations
    cfg_sp = ModelConfig(R=16, A=16, D=8, patch_r=4, patch_a=4, embed_dim=8,
                         layers=2, heads=2, joints=4, ablation="spatial_only")
    base = forward([frames], params, cfg_sp).pose.data
    for trial in range(5):
        vol = frames[0] * (1.0 + rng.random((16, 16, 8)))
        scale_ra = spatial_magnitude(frames[0]) / np.maximum(
            spatial_magnitude(vol), 1e-300)
        out = forward([[vol * scale_ra[:, :, None]]], params, cfg_sp).pose.data
        np.testing.assert_allclose(out, base, atol=1e-9)
    _passline("ablation-equivalences",
              f"beta0 bit-identical, const-gate diff {worst:.1e}, "
              "spatial_only Doppler-invariant")


# ---------------------------------------------------------------------------
# Criterion 3: multi-frame reduction at K=1

def test_multiframe_reduction():
    worst = 0.0
    for seed in range(5):
        cfg = ModelConfig(R=16, A=16, D=8, patch_r=4, patch_a=4, embed_dim=8,
                          layers=2, heads=2, joints=4)
        params = init_params(cfg, seed=seed, randomize_all=True)
        rng = np.random.default_rng(100 + seed)
        frames = [rng.random((16, 16, 8))]
        direct = forward([frames], params, cfg).pose.data
        agg = forward([frames], params, cfg, force_aggregate=True).pose.data
        rel = np.max(np.abs(direct - agg)) / max(np.max(np.abs(direct)), 1e-300)
        worst = max(worst, rel)
    assert worst < 1e-5
    _passline("multiframe-reduction", f"max relative deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 4: radar argmax oracle

def test_radar_oracle():
    t0 = time.perf_counter()
    cfg = RadarConfig(noise_std=0.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        rb = int(rng.integers(1, cfg.R - 1))
        ab = int(rng.integers(2, cfg.A - 2))
        db = int(rng.integers(1, cfg.D - 1))
        r = range_for_bin(rb, cfg)
        s = sin_theta_for_bin(ab, cfg)
        v = speed_for_bin(db, cfg)
        pos = np.array([r * s, r * math.sqrt(1 - s * s), 0.0])
        sc = Scatterer(pos, v, 1.0)
        out = rad_fft(render_frame([sc], cfg, seed=0), cfg.R, cfg.A, cfg.D)
        got = np.unravel_index(np.argmax(out), out.shape)
        want = (range_bin(np.linalg.norm(pos), cfg),
                angle_bin(math.asin(s), cfg), doppler_bin(v, cfg))
        assert got == want == (rb, ab, db)
    for _ in range(10):
        rb = int(rng.integers(2, cfg.R - 2))
        ab = int(rng.integers(3, cfg.A - 3))
        db = int(rng.integers(2, cfg.D - 2))
        off = rng.uniform(-0.45, 0.45, size=3)
        r = range_for_bin(rb + off[0], cfg)
        s = sin_theta_for_bin(ab + off[1], cfg)
        v = speed_for_bin(db + off[2], cfg)
        pos = np.array([r * s, r * math.sqrt(1 - s * s), 0.0])
        out = rad_fft(render_frame([Scatterer(pos, v, 1.0)], cfg, seed=0),
                      cfg.R, cfg.A, cfg.D)
        got = np.unravel_index(np.argmax(out), out.shape)
        assert abs(got[0] - rb) <= 1 and abs(got[1] - ab) <= 1 \
            and abs(got[2] - db) <= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passline("radar-oracle", f"20 exact + 10 off-center scenes in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: RA/RD reconstruction marginalization

def test_xrf55_reconstruction():
    rng = np.random.default_rng(11)
    eps = 1e-8
    worst = 0.0
    for _ in range(100):
        r_bins = int(rng.integers(4, 12))
        a_bins = int(rng.integers(4, 12))
        d_bins = int(rng.integers(3, 9))
        ra = rng.uniform(0.0, 3.0, size=(r_bins, a_bins))
        ra[ra.sum(axis=1) < 1e3 * eps, 0] += 1.0  # enforce row mass
        rd = rng.uniform(0.0, 7.0, size=(r_bins, d_bins))
        h = reconstruct_rad(ra, rd, eps=eps)
        dev = np.max(np.abs(h.sum(axis=1) - rd))
        assert dev <= 1e-6 * rd.max()
        worst = max(worst, dev / rd.max())
    _passline("xrf55-reconstruction", f"worst normalized deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 6: metric oracles

def _umeyama_reference(pred, gt):
    """Independent similarity Procrustes written from the classic equations."""
    n = pred.shape[0]
    mu_p = pred.mean(axis=0)
    mu_g = gt.mean(axis=0)
    p0 = pred - mu_p
    g0 = gt - mu_g
    sigma = sum(float(p0[i] @ p0[i]) for i in range(n)) / n
    cov = sum(np.outer(g0[i], p0[i]) for i in range(n)) / n
    u, s, vt = np.linalg.svd(cov)
    d = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        d[2, 2] = -1.0
    rot = u @ d @ vt
    scale = float(np.trace(np.diag(s) @ d)) / sigma
    aligned = scale * p0 @ rot.T + mu_g
    return float(np.mean([np.linalg.norm(aligned[i] - gt[i]) for i in range(n)]))


def test_metric_oracles():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        t_len = int(rng.integers(2, 6))
        joints = int(rng.integers(3, 7))
        pred = 100.0 * rng.standard_normal((t_len, joints, 3))
        gt = 100.0 * rng.standard_normal((t_len, joints, 3))
        # brute-force loops
        pos = vel = mag = 0.0
        for t in range(t_len):
            for j in range(joints):
                pos += math.sqrt(sum((pred[t, j, k] - gt[t, j, k]) ** 2
                                     for k in range(3)))
        for t in range(t_len - 1):
            for j in range(joints):
                dv = [(pred[t + 1, j, k] - pred[t, j, k])
                      - (gt[t + 1, j, k] - gt[t, j, k]) for k in range(3)]
                vel += math.sqrt(sum(x * x for x in dv))
                pv = [pred[t + 1, j, k] - pred[t, j, k] for k in range(3)]
                mag += math.sqrt(sum(x * x for x in pv))
        n_pos = t_len * joints
        n_vel = (t_len - 1) * joints
        report = sequence_report([pred], [gt])
        worst = max(worst, abs(report.mpjpe - pos / n_pos))
        worst = max(worst, abs(report.mpjve - vel / n_vel))
        worst = max(worst, abs(report.akv - mag / n_vel))
        pa_ref = np.mean([_umeyama_reference(pred[t], gt[t])
                          for t in range(t_len)])
        worst = max(worst, abs(report.pa_mpjpe - pa_ref))
        assert worst < 1e-9
    # rigid-transform absorption
    rng2 = np.random.default_rng(17)
    base = 100.0 * rng2.standard_normal((6, 3))
    angle = 1.234
    axis = np.array([0.3, -1.1, 0.7])
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    rot = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    moved = base @ rot.T + np.array([40.0, -90.0, 15.0])
    residual = sequence_report([moved[None]], [base[None]]).pa_mpjpe
    assert residual < 1e-6
    _passline("metric-oracles",
              f"100 instances, worst |diff| {worst:.2e}; rigid residual "
              f"{residual:.1e} mm")


# ---------------------------------------------------------------------------
# Criteria 7 + 8: desk-scale training direction and gate-motion correlation

def test_training_direction(trained_models):
    dataset, models, seconds = trained_models
    metrics = {}
    for (variant, seed), (params, mcfg) in models.items():
        report, _, _ = evaluate_split(params, mcfg, dataset, "test")
        metrics[(variant, seed)] = report
    med = lambda variant, attr: float(np.median(
        [getattr(metrics[(variant, s)], attr) for s in DESK["seeds"]]))
    full_mpjve, sp_mpjve = med("full", "mpjve"), med("spatial_only", "mpjve")
    full_akv, sp_akv = med("full", "akv"), med("spatial_only", "akv")
    assert full_mpjve < sp_mpjve, (full_mpjve, sp_mpjve)
    assert full_akv < sp_akv, (full_akv, sp_akv)
    assert seconds <= 15 * 60.0
    _passline("training-direction",
              f"median MPJVE {full_mpjve:.2f} < {sp_mpjve:.2f}, "
              f"median AKV {full_akv:.2f} < {sp_akv:.2f}, "
              f"runtime {seconds / 60.0:.1f} min")


def test_gate_motion_direction(trained_models):
    dataset, models, _ = trained_models
    correlations = []
    for seed in DESK["seeds"]:
        params, mcfg = models[("full", seed)]
        _, preds, gts, gate_seqs, smaps = evaluate_split(
            params, mcfg, dataset, "all", collect_gates=True)
        diag = gate_motion_diag(gate_seqs, preds, gts, smaps)
        assert diag.pearson is not None
        correlations.append(diag.pearson)
    median_r = float(np.median(correlations))
    assert median_r > 0.3, correlations
    _passline("gate-motion-direction",
              f"median Pearson r {median_r:.3f} "
              f"(per seed: {', '.join(f'{r:+.3f}' for r in correlations)})")


# ---------------------------------------------------------------------------
# Criterion 9: Kalman direction

def _akv(seq):
    """AKV of one (T, J, 3) sequence (it reads the prediction alone)."""
    return sequence_report([seq], [seq], align=False).akv


def test_kalman_direction():
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        base = 100.0 * rng.standard_normal((1, 4, 3))
        seq = np.tile(base, (24, 1, 1)) + 6.0 * rng.standard_normal((24, 4, 3))
        if _akv(kalman_smooth(seq)) < _akv(seq):
            wins += 1
    assert wins >= 95
    _passline("kalman-direction", f"AKV reduced in {wins}/100 seeded trials")


# ---------------------------------------------------------------------------
# Criterion 10: CLI determinism

DET_FLAGS = ["--bandwidth_hz", "0.5e9", "--R", "16", "--A", "16", "--D", "8",
             "--fast_samples_per_chirp", "32", "--virtual_elements", "4"]
DET_MODEL = ["--embed_dim", "8", "--layers", "1", "--heads", "2"]
DET_TRAIN = ["--lr", "3e-3", "--batch", "4", "--epochs", "2", "--patience", "5"]


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_cli_determinism(tmp_path):
    trees = {}
    for tag in ("one", "two"):
        ds = tmp_path / tag / "ds"
        run = tmp_path / tag / "run"
        ev = tmp_path / tag / "eval"
        assert main(["synth", "--out", str(ds), "--seed", "12",
                     "--sequences", "3", "--frames", "6", *DET_FLAGS]) == 0
        assert main(["train", "--dataset", str(ds), "--out", str(run),
                     "--seed", "5", *DET_MODEL, *DET_TRAIN]) == 0
        assert main(["eval", "--checkpoint", str(run / "model.ckpt"),
                     "--dataset", str(ds), "--split", "val",
                     "--out", str(ev)]) == 0
        trees[tag] = {f"ds/{k}": v for k, v in _tree_bytes(ds).items()}
        trees[tag].update({f"run/{k}": v for k, v in _tree_bytes(run).items()})
        trees[tag].update({f"eval/{k}": v for k, v in _tree_bytes(ev).items()})
    assert trees["one"].keys() == trees["two"].keys()
    diffs = [k for k in trees["one"] if trees["one"][k] != trees["two"][k]]
    assert not diffs, diffs
    _passline("cli-determinism",
              f"{len(trees['one'])} files byte-identical across reruns")
