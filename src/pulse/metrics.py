"""Pose evaluation: position and velocity metrics, per-joint breakdowns,
gate-motion diagnostics, and a constant-velocity Kalman baseline.

Positions are millimeters; velocities are first-order finite differences
between consecutive frames with a one-frame timestep, reported in mm/frame.
No smoothing, filtering, or interpolation is applied anywhere except by the
explicit Kalman baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DomainError, ShapeError


def _check_pair(pred, gt):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction shape {pred.shape} != ground truth {gt.shape}")
    return pred, gt


# ---------------------------------------------------------------------------
# Position metrics

def mpjpe(pred, gt):
    """Mean Euclidean joint error in mm over all frames and joints.

    Accepts (J, 3) poses or (T, J, 3) sequences.
    """
    pred, gt = _check_pair(pred, gt)
    return float(np.linalg.norm(pred - gt, axis=-1).mean())


def similarity_align(pred, gt, with_scale=True):
    """Best-fit similarity transform (rotation via SVD of the cross-covariance
    with reflection correction, optional scale, translation) mapping one
    (J, 3) pose onto another; returns the aligned prediction.

    Coincident-joint degenerate inputs fall back to translation-only.
    """
    pred, gt = _check_pair(pred, gt)
    mu_p = pred.mean(axis=0)
    mu_g = gt.mean(axis=0)
    p0 = pred - mu_p
    g0 = gt - mu_g
    var_p = float((p0 * p0).sum()) / len(pred)
    var_g = float((g0 * g0).sum()) / len(gt)
    if var_p < 1e-18 or var_g < 1e-18:
        return pred - mu_p + mu_g
    cov = g0.T @ p0 / len(pred)
    u, s, vt = np.linalg.svd(cov)
    d = np.ones(3)
    d[-1] = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    rot = u @ np.diag(d) @ vt
    scale = float((s * d).sum()) / var_p if with_scale else 1.0
    return scale * p0 @ rot.T + mu_g


def pa_mpjpe(pred, gt, with_scale=True):
    """MPJPE after per-frame similarity alignment; never exceeds mpjpe."""
    pred, gt = _check_pair(pred, gt)
    if pred.ndim == 2:
        pred, gt = pred[None], gt[None]
    return float(pose_errors(pred, gt, with_scale).aligned.mean())


# ---------------------------------------------------------------------------
# Velocity metrics

def velocities(seq):
    """(T-1, J, 3) finite differences between consecutive frames (dt = 1)."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[0] < 2:
        raise ShapeError(f"need a (T>=2, J, 3) sequence, got shape {seq.shape}")
    return np.diff(seq, axis=0)


def mpjve(pred, gt):
    """Mean norm of the velocity error, mm/frame."""
    pred, gt = _check_pair(pred, gt)
    return float(np.linalg.norm(velocities(pred) - velocities(gt), axis=-1).mean())


def akv(pred):
    """Mean norm of the predicted velocities, mm/frame."""
    return float(np.linalg.norm(velocities(pred), axis=-1).mean())


# ---------------------------------------------------------------------------
# Per-sequence error table and its reductions

@dataclass
class PoseErrors:
    """Per-frame, per-joint errors of one (T, J, 3) sequence."""
    position: np.ndarray              # (T, J) mm
    aligned: np.ndarray | None        # (T, J) mm after similarity alignment
    velocity: np.ndarray              # (T-1, J) mm/frame
    speed: np.ndarray                 # (T-1, J) predicted speed, mm/frame


def pose_errors(pred, gt, with_scale=True, align=True):
    """The error table every pose metric reduces. Velocities never cross a
    sequence boundary; a one-frame sequence has empty velocity rows.
    align=False skips the per-frame alignment (aligned is None)."""
    pred, gt = _check_pair(pred, gt)
    if pred.ndim != 3:
        raise ShapeError(f"need a (T, J, 3) sequence, got shape {pred.shape}")
    vel_pred = np.diff(pred, axis=0)
    return PoseErrors(
        position=np.linalg.norm(pred - gt, axis=-1),
        aligned=np.stack([np.linalg.norm(similarity_align(p, g, with_scale) - g,
                                         axis=-1) for p, g in zip(pred, gt)])
        if align else None,
        velocity=np.linalg.norm(vel_pred - np.diff(gt, axis=0), axis=-1),
        speed=np.linalg.norm(vel_pred, axis=-1))


def _sequence_errors(preds, gts, with_scale=True, align=True):
    """pose_errors of each (pred, gt) pair of two matching lists."""
    if not preds or len(preds) != len(gts):
        raise ShapeError("need matching nonempty prediction/target lists")
    return [pose_errors(p, g, with_scale, align) for p, g in zip(preds, gts)]


def _pooled(arrays):
    """Mean over every entry of several sequences' error arrays, each
    frame-joint term weighted equally; nan when there is none (one-frame
    sequences have no velocity terms)."""
    arrays = list(arrays)
    count = sum(a.size for a in arrays)
    return sum(float(a.sum()) for a in arrays) / count if count else float("nan")


@dataclass
class MetricReport:
    mpjpe: float
    pa_mpjpe: float
    mpjve: float
    akv: float

    def as_rows(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def sequence_report(preds, gts, with_scale=True, align=True):
    """Pooled metrics over a list of (T, J, 3) sequences; every frame-joint
    term carries equal weight regardless of sequence lengths. align=False
    skips the per-frame alignment and reports pa_mpjpe as nan."""
    errors = _sequence_errors(preds, gts, with_scale, align)
    return MetricReport(
        mpjpe=_pooled(e.position for e in errors),
        pa_mpjpe=_pooled(e.aligned for e in errors) if align else float("nan"),
        mpjve=_pooled(e.velocity for e in errors),
        akv=_pooled(e.speed for e in errors),
    )


def per_joint_report(preds, gts, joint_names):
    """Per-joint (name, MPJPE, MPJVE) rows over a list of (T, J, 3)
    sequences, pooled the way sequence_report pools them: the rows average
    to its MPJPE and MPJVE."""
    errors = _sequence_errors(preds, gts, align=False)
    joints = errors[0].position.shape[1]
    if len(joint_names) != joints:
        raise ShapeError(f"{len(joint_names)} names for {joints} joints")
    return [(name, _pooled(e.position[:, j] for e in errors),
             _pooled(e.velocity[:, j] for e in errors))
            for j, name in enumerate(joint_names)]


# ---------------------------------------------------------------------------
# Gate-motion diagnostics

def motion_proxy(gt):
    """Per-frame mean joint displacement of the ground truth, length T-1."""
    return np.linalg.norm(velocities(gt), axis=-1).mean(axis=1)


def occupied_cells(spatial_map):
    """Flat boolean mask of the body-occupied cells: spatial magnitude above
    the frame median, or every cell when nothing exceeds it."""
    flat = np.asarray(spatial_map, dtype=np.float64).reshape(-1)
    selected = flat > np.median(flat)
    return selected if selected.any() else np.ones_like(selected)


def frame_gate_score(gates, spatial_map, cell_selection="occupied"):
    """Collapse per-cell gates to one frame score.

    occupied: mean over the occupied_cells (a body-occupancy proxy).
    global: mean over all cells.
    """
    gates = np.asarray(gates, dtype=np.float64).reshape(-1)
    if cell_selection == "global":
        return float(gates.mean())
    if cell_selection != "occupied":
        raise ConfigError(f"unknown cell_selection {cell_selection!r}")
    selected = occupied_cells(spatial_map)
    if selected.shape != gates.shape:
        raise ShapeError("spatial map and gate vector disagree on cell count")
    return float(gates[selected].mean())


def pearson_r(x, y):
    """Pearson correlation; None when either input has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ShapeError("pearson_r needs two equal-length vectors, n >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0.0:
        return None
    return float((xc * yc).sum() / denom)


@dataclass
class GateDiagnostics:
    records: list                      # (seq, frame, g_bar, v_t, bin)
    pearson: float | None
    binned_mpjve: list = field(default_factory=list)   # one value per quantile bin


def gate_motion_diag(gate_seqs, preds, gts, spatial_maps, bins=5,
                     cell_selection="occupied"):
    """Correlate frame gate scores with the ground-truth motion proxy and
    stratify per-frame velocity error by gate quantile.

    gate_seqs[i]: (T_i, N_v); spatial_maps[i]: (T_i, R*A) or (T_i, R, A).
    Frames lacking a successor (the last of each sequence) are skipped.
    """
    if bins < 2:
        raise DomainError(f"need at least 2 quantile bins, got {bins}")
    errors = _sequence_errors(preds, gts, align=False)
    proxies = [motion_proxy(gt) for gt in gts]
    keys = [(idx, t) for idx, proxy in enumerate(proxies) for t in range(len(proxy))]
    g_scores = np.array([frame_gate_score(gate_seqs[idx][t],
                                          np.asarray(spatial_maps[idx][t]),
                                          cell_selection) for idx, t in keys])
    v_vals = np.concatenate(proxies)
    e_vals = np.concatenate([e.velocity.mean(axis=1) for e in errors])
    r = pearson_r(g_scores, v_vals)
    order = np.argsort(g_scores, kind="stable")
    bin_of = np.zeros(len(order), dtype=int)
    binned = []
    for b, chunk in enumerate(np.array_split(order, bins)):
        bin_of[chunk] = b
        binned.append(float(e_vals[chunk].mean()) if len(chunk) else float("nan"))
    records = [key + (float(g), float(v), int(b))
               for key, g, v, b in zip(keys, g_scores, v_vals, bin_of)]
    return GateDiagnostics(records=records, pearson=r, binned_mpjve=binned)


# ---------------------------------------------------------------------------
# Constant-velocity Kalman baseline

@dataclass
class KalmanConfig:
    process_noise: float = 1.0        # mm^2 / frame^2
    measurement_noise: float = 25.0   # mm^2
    initial_covariance: float = 1e4

    def __post_init__(self):
        if self.process_noise <= 0 or self.measurement_noise <= 0:
            raise ConfigError("Kalman noise parameters must be positive")


def kalman_smooth(pred, cfg=None):
    """Causal constant-velocity Kalman filter over each joint axis.

    State [position, velocity], transition [[1, 1], [0, 1]], measurement
    extracts position. The first frame initializes the state and passes
    through unchanged; no backward smoothing pass.
    """
    cfg = cfg or KalmanConfig()
    seq = np.asarray(pred, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[0] < 2:
        raise ShapeError(f"need a (T>=2, J, 3) sequence, got shape {seq.shape}")
    t_len, joints, axes = seq.shape
    flat = seq.reshape(t_len, joints * axes)
    out = np.empty_like(flat)
    f_mat = np.array([[1.0, 1.0], [0.0, 1.0]])
    q_mat = cfg.process_noise * np.array([[0.25, 0.5], [0.5, 1.0]])
    h = np.array([1.0, 0.0])
    for col in range(flat.shape[1]):
        x = np.array([flat[0, col], 0.0])
        p = np.eye(2) * cfg.initial_covariance
        out[0, col] = x[0]
        for t in range(1, t_len):
            x = f_mat @ x
            p = f_mat @ p @ f_mat.T + q_mat
            innovation = flat[t, col] - h @ x
            s = h @ p @ h + cfg.measurement_noise
            k = (p @ h) / s
            x = x + k * innovation
            p = p - np.outer(k, h @ p)
            out[t, col] = x[0]
    return out.reshape(t_len, joints, axes)
