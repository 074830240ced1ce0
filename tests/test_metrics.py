import math

import numpy as np
import pytest
from scipy.optimize import minimize

from pulse.errors import ConfigError, DomainError, ShapeError
from pulse.metrics import (KalmanConfig, MetricReport, akv,
                           frame_gate_score, gate_motion_diag, kalman_smooth,
                           motion_proxy, mpjpe, mpjve, pa_mpjpe, pearson_r,
                           per_joint_report, sequence_report, similarity_align,
                           velocities)


def rand_seq(seed, t=5, j=4, scale=100.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((t, j, 3))


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


# ---------------------------------------------------------------------------
# mpjpe

def test_mpjpe_zero_for_equal():
    seq = rand_seq(0)
    assert mpjpe(seq, seq) == 0.0


def test_mpjpe_pythagorean_offset():
    gt = rand_seq(1)
    pred = gt + np.array([3.0, 4.0, 0.0])
    assert mpjpe(pred, gt) == pytest.approx(5.0, abs=1e-12)


def test_mpjpe_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = rng.standard_normal((3, 2, 3))
        gt = rng.standard_normal((3, 2, 3))
        total = 0.0
        for t in range(3):
            for j in range(2):
                d = 0.0
                for ax in range(3):
                    d += (pred[t, j, ax] - gt[t, j, ax]) ** 2
                total += math.sqrt(d)
        assert abs(mpjpe(pred, gt) - total / 6.0) < 1e-12


def test_mpjpe_symmetric():
    a, b = rand_seq(3), rand_seq(4)
    assert mpjpe(a, b) == pytest.approx(mpjpe(b, a), abs=1e-12)


def test_mpjpe_shape_mismatch():
    with pytest.raises(ShapeError):
        mpjpe(np.zeros((2, 3, 3)), np.zeros((2, 4, 3)))


# ---------------------------------------------------------------------------
# pa_mpjpe

def test_pa_absorbs_rigid_motion():
    gt = rand_seq(5, t=1)[0]
    rot = rotation_matrix([1.0, 2.0, 0.5], 1.1)
    pred = gt @ rot.T + np.array([100.0, -50.0, 30.0])
    assert pa_mpjpe(pred, gt) < 1e-9


def test_pa_absorbs_scale():
    gt = rand_seq(6, t=1)[0]
    assert pa_mpjpe(2.0 * gt, gt) < 1e-9
    # without scale the error stays
    assert pa_mpjpe(2.0 * gt, gt, with_scale=False) > 1.0


def test_pa_never_exceeds_mpjpe():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pred = 50.0 * rng.standard_normal((2, 5, 3))
        gt = 50.0 * rng.standard_normal((2, 5, 3))
        assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9


def test_pa_matches_descent_oracle():
    # The alignment minimizes squared error (Procrustes); the metric is the
    # mean norm at that optimum. Descend on the SSE, then evaluate the norm.
    rng = np.random.default_rng(8)
    pred = 100.0 * rng.standard_normal((6, 3))
    gt = 100.0 * rng.standard_normal((6, 3))

    def aligned_for(theta):
        angle = np.linalg.norm(theta[:3])
        axis = theta[:3] / angle if angle > 0 else np.array([1.0, 0.0, 0.0])
        rot = rotation_matrix(axis, angle)
        return theta[3] * (pred - pred.mean(axis=0)) @ rot.T + theta[4:]

    def sse(theta):
        diff = aligned_for(theta) - gt
        return float((diff * diff).sum())

    starts = [np.concatenate([d, [0.3], gt.mean(axis=0)])
              for d in np.random.default_rng(9).uniform(-2, 2, (6, 3))]
    best = min((minimize(sse, x0, method="Powell",
                         options={"maxiter": 4000, "xtol": 1e-12, "ftol": 1e-14})
                for x0 in starts), key=lambda r: r.fun)
    oracle_metric = np.linalg.norm(aligned_for(best.x) - gt, axis=-1).mean()
    assert abs(pa_mpjpe(pred, gt) - oracle_metric) < 1e-3


def test_pa_degenerate_falls_back_to_translation():
    gt = rand_seq(10, t=1)[0]
    pred = np.tile(np.array([5.0, 5.0, 5.0]), (gt.shape[0], 1))
    out = pa_mpjpe(pred, gt)  # no crash; translation-only alignment
    centered = gt - gt.mean(axis=0)
    assert out == pytest.approx(np.linalg.norm(centered, axis=-1).mean(), abs=1e-9)


# ---------------------------------------------------------------------------
# velocity metrics

def test_velocities_shape_and_values():
    seq = np.zeros((3, 2, 3))
    seq[1, :, 0] = 1.0
    seq[2, :, 0] = 3.0
    v = velocities(seq)
    assert v.shape == (2, 2, 3)
    np.testing.assert_array_equal(v[0, :, 0], [1.0, 1.0])
    np.testing.assert_array_equal(v[1, :, 0], [2.0, 2.0])


def test_akv_zero_for_static():
    assert akv(np.tile(rand_seq(11, t=1), (4, 1, 1))) == 0.0


def test_mpjve_zero_for_constant_offset():
    gt = rand_seq(12)
    assert mpjve(gt + np.array([7.0, -2.0, 1.0]), gt) == pytest.approx(0.0, abs=1e-12)


def test_mpjve_unit_drift():
    gt = np.zeros((4, 1, 3))
    pred = np.zeros((4, 1, 3))
    pred[:, 0, 0] = np.arange(4.0)  # 1 mm/frame along x
    assert mpjve(pred, gt) == pytest.approx(1.0, abs=1e-12)
    assert akv(pred) == pytest.approx(1.0, abs=1e-12)


def test_velocity_metrics_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pred = rng.standard_normal((4, 3, 3))
        gt = rng.standard_normal((4, 3, 3))
        ve = vm = 0.0
        for t in range(3):
            for j in range(3):
                dv = (pred[t + 1, j] - pred[t, j]) - (gt[t + 1, j] - gt[t, j])
                ve += math.sqrt(float((dv * dv).sum()))
                pv = pred[t + 1, j] - pred[t, j]
                vm += math.sqrt(float((pv * pv).sum()))
        assert abs(mpjve(pred, gt) - ve / 9.0) < 1e-12
        assert abs(akv(pred) - vm / 9.0) < 1e-12


def test_velocity_needs_two_frames():
    with pytest.raises(ShapeError):
        velocities(np.zeros((1, 2, 3)))


# ---------------------------------------------------------------------------
# per-joint / aggregation

def test_per_joint_rows_mean_equals_scalar():
    pred, gt = rand_seq(14), rand_seq(15)
    names = [f"j{i}" for i in range(pred.shape[1])]
    rows = per_joint_report([pred], [gt], names)
    assert abs(np.mean([r[1] for r in rows]) - mpjpe(pred, gt)) < 1e-12
    assert abs(np.mean([r[2] for r in rows]) - mpjve(pred, gt)) < 1e-12


def test_per_joint_pools_sequences_like_sequence_report():
    # Two unequal sequences 10 m apart: a velocity taken across the boundary
    # between them would dwarf every real one.
    pred1, gt1 = rand_seq(32, t=4), rand_seq(33, t=4)
    pred2, gt2 = rand_seq(34, t=7) + 1e4, rand_seq(35, t=7) + 1e4
    rows = per_joint_report([pred1, pred2], [gt1, gt2], ["a", "b", "c", "d"])
    rep = sequence_report([pred1, pred2], [gt1, gt2])
    assert abs(np.mean([r[1] for r in rows]) - rep.mpjpe) < 1e-12
    assert abs(np.mean([r[2] for r in rows]) - rep.mpjve) < 1e-12


def test_per_joint_isolates_single_bad_joint():
    gt = rand_seq(16)
    pred = gt.copy()
    pred[:, 2, :] += np.array([3.0, 4.0, 0.0])
    rows = per_joint_report([pred], [gt], ["a", "b", "c", "d"])
    assert rows[2][1] == pytest.approx(5.0, abs=1e-12)
    for j in (0, 1, 3):
        assert rows[j][1] == 0.0


def test_sequence_report_pools_frames():
    pred1, gt1 = rand_seq(17, t=4), rand_seq(18, t=4)
    pred2, gt2 = rand_seq(19, t=6), rand_seq(20, t=6)
    rep = sequence_report([pred1, pred2], [gt1, gt2])
    joined_pos = np.concatenate([np.linalg.norm(pred1 - gt1, axis=-1).reshape(-1),
                                 np.linalg.norm(pred2 - gt2, axis=-1).reshape(-1)])
    assert rep.mpjpe == pytest.approx(joined_pos.mean(), abs=1e-12)
    assert rep.pa_mpjpe <= rep.mpjpe + 1e-9


def test_sequence_report_without_alignment_keeps_other_metrics():
    preds = [rand_seq(21, t=4), rand_seq(22, t=3)]
    gts = [rand_seq(23, t=4), rand_seq(24, t=3)]
    full = sequence_report(preds, gts)
    fast = sequence_report(preds, gts, align=False)
    assert math.isnan(fast.pa_mpjpe)
    assert (fast.mpjpe, fast.mpjve, fast.akv) == (full.mpjpe, full.mpjve, full.akv)


def test_one_frame_sequences_have_no_velocity_metrics():
    # no velocity term exists: nan, not the 0.0 of perfect stability
    preds = [rand_seq(25, t=1), rand_seq(26, t=1)]
    gts = [rand_seq(27, t=1), rand_seq(28, t=1)]
    rep = sequence_report(preds, gts)
    assert rep.mpjpe > 0.0 and rep.pa_mpjpe > 0.0
    assert math.isnan(rep.mpjve) and math.isnan(rep.akv)
    rows = per_joint_report(preds, gts, ["a", "b", "c", "d"])
    assert all(math.isnan(mpjve) for _, _, mpjve in rows)


# ---------------------------------------------------------------------------
# gate diagnostics

def test_pearson_hand_case():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
    xc, yc = x - x.mean(), y - y.mean()
    want = float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))
    assert pearson_r(x, y) == pytest.approx(want, abs=1e-12)


def test_pearson_undefined_for_constant():
    assert pearson_r(np.ones(5), np.arange(5.0)) is None


def test_gate_equals_proxy_gives_r_one():
    rng = np.random.default_rng(21)
    gt = rand_seq(22, t=9, j=3)
    proxy = motion_proxy(gt)
    n_cells = 16
    gates = np.tile(proxy[:, None], (1, n_cells))
    gates = np.vstack([gates, gates[-1:]])  # length T
    smaps = rng.random((9, n_cells))
    diag = gate_motion_diag([gates], [gt + rng.standard_normal(gt.shape)], [gt],
                            [smaps], bins=3)
    assert diag.pearson == pytest.approx(1.0, abs=1e-12)
    assert len(diag.binned_mpjve) == 3
    assert len(diag.records) == 8


def test_gate_constant_reports_undefined():
    gt = rand_seq(23, t=6, j=2)
    gates = np.full((6, 8), 0.5)
    smaps = np.random.default_rng(24).random((6, 8))
    diag = gate_motion_diag([gates], [gt], [gt], [smaps])
    assert diag.pearson is None


def test_frame_gate_score_occupied_cells():
    gates = np.array([1.0, 0.0, 0.0, 0.0])
    smap = np.array([10.0, 0.1, 0.1, 0.1])  # only cell 0 above the median
    assert frame_gate_score(gates, smap) == 1.0
    assert frame_gate_score(gates, smap, cell_selection="global") == 0.25


def test_frame_gate_score_constant_map_falls_back():
    gates = np.array([0.2, 0.4, 0.6, 0.8])
    assert frame_gate_score(gates, np.ones(4)) == pytest.approx(0.5)


def test_gate_diag_needs_two_bins():
    with pytest.raises(DomainError):
        gate_motion_diag([], [], [], [], bins=1)


# ---------------------------------------------------------------------------
# Kalman baseline

def test_kalman_tracks_constant_input_with_tiny_noise():
    cfg = KalmanConfig(process_noise=1.0, measurement_noise=1e-12)
    seq = np.tile(rand_seq(25, t=1), (6, 1, 1))
    out = kalman_smooth(seq, cfg)
    np.testing.assert_allclose(out, seq, atol=1e-9)


def test_kalman_reduces_akv_on_jittered_static():
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        base = 100.0 * rng.standard_normal((1, 3, 3))
        seq = np.tile(base, (20, 1, 1)) + 5.0 * rng.standard_normal((20, 3, 3))
        if akv(kalman_smooth(seq)) < akv(seq):
            wins += 1
    assert wins >= 95


def test_kalman_is_causal():
    seq = rand_seq(26, t=12)
    full = kalman_smooth(seq)
    head = kalman_smooth(seq[:7])
    np.testing.assert_allclose(full[:7], head, atol=1e-12)


def test_kalman_smoothing_tradeoff_direction():
    # jitter on a moving trajectory: AKV drops, velocity error can rise
    rng = np.random.default_rng(27)
    t = np.arange(30)
    gt = np.zeros((30, 2, 3))
    gt[:, :, 0] = 10.0 * np.sin(0.7 * t)[:, None]
    noisy = gt + 3.0 * rng.standard_normal(gt.shape)
    smoothed = kalman_smooth(noisy, KalmanConfig(process_noise=0.05,
                                                 measurement_noise=40.0))
    assert akv(smoothed) < akv(noisy)


def test_kalman_rejects_bad_noise():
    with pytest.raises(ConfigError):
        KalmanConfig(process_noise=0.0)


def test_report_rows():
    rep = MetricReport(1.0, 0.5, 2.0, 3.0)
    assert rep.as_rows() == [("mpjpe", 1.0), ("pa_mpjpe", 0.5),
                             ("mpjve", 2.0), ("akv", 3.0)]


def test_velocity_metrics_offset_invariance():
    pred, gt = rand_seq(28), rand_seq(29)
    shift = np.array([12.0, -7.0, 3.0])
    assert mpjve(pred + shift, gt) == pytest.approx(mpjve(pred, gt), abs=1e-12)
    assert akv(pred + shift) == pytest.approx(akv(pred), abs=1e-12)


def test_mpjve_symmetric():
    pred, gt = rand_seq(30), rand_seq(31)
    assert mpjve(pred, gt) == pytest.approx(mpjve(gt, pred), abs=1e-12)
