"""Supervised training: per-frame joint regression loss, optional auxiliary
gate supervision, Adam with decoupled weight decay and global-norm clipping,
early stopping on validation MPJPE.

Single-writer, single-threaded; batch order is a seeded shuffle, dropout
keys derive from (seed, step, sample), so a fixed seed reproduces training
bit-for-bit. No temporal loss term exists anywhere: velocity quality must
come from the motion cues, not from smoothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import DataError, NumericError, ShapeError, UsageError
from .features import normalize_frame, spatial_magnitude
from .model import forward, init_params
from .metrics import motion_proxy, occupied_cells, sequence_report
from .optim import ParamGroup, adam_step, clip_global_norm


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 0.01
    batch: int = 8
    epochs: int = 100
    clip: float = 1.0
    seed: int = 0
    gate_loss_weight: float = 0.0     # auxiliary gate supervision, 0 disables
    patience: int = 10                # early-stop epochs without val improvement
    max_steps: int = 0                # 0 = no step cap (desk-scale runs cap this)

    def __post_init__(self):
        if self.lr <= 0:
            raise UsageError(f"lr must be positive, got {self.lr}")
        if self.patience < 1:
            raise UsageError(f"patience must be >= 1, got {self.patience}")
        if self.batch < 1 or self.epochs < 1:
            raise UsageError(f"batch and epochs must be >= 1, got "
                             f"{self.batch} and {self.epochs}")
        if self.clip <= 0:
            raise UsageError(f"clip must be positive, got {self.clip}")
        if self.weight_decay < 0 or self.max_steps < 0:
            raise UsageError(f"weight_decay and max_steps must be >= 0, got "
                             f"{self.weight_decay} and {self.max_steps}")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    val_mpjpe: float
    val_mpjve: float
    val_akv: float
    grad_norm: float
    seconds: float


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    HEADER = "epoch,loss,val_mpjpe,val_mpjve,val_akv,grad_norm,seconds"

    def add(self, rec):
        if self.records and rec.epoch <= self.records[-1].epoch:
            raise UsageError("epoch indices must be strictly increasing")
        self.records.append(rec)

    def to_csv_text(self):
        # Wall time stays in memory only; the emitted column is fixed to 0.0
        # so identical reruns produce byte-identical logs.
        lines = [self.HEADER]
        for r in self.records:
            lines.append(f"{r.epoch},{r.loss!r},{r.val_mpjpe!r},{r.val_mpjve!r},"
                         f"{r.val_akv!r},{r.grad_norm!r},0.0")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Losses

def loss_pos(pred, gt):
    """Mean over joints of the Euclidean error (mm); pred is a (J, 3) graph
    tensor, gt an array."""
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"pose shapes differ: {pred.shape} vs {gt.shape}")
    diff = T.sub(pred, T.Tensor(gt))
    sq_norm = T.tsum(T.mul(diff, diff), axis=1)
    return T.mean_over_axis(T.sqrt(sq_norm), axis=0)


def minmax_normalize(value, lo, hi):
    """Min-max map to [0, 1]; constant spans collapse to 0."""
    if hi <= lo:
        return 0.0
    return (value - lo) / (hi - lo)


def loss_gate(gate_score, proxy_value, bounds):
    """Squared error between a frame gate score (scalar graph tensor) and the
    min-max-normalized motion proxy."""
    target = minmax_normalize(proxy_value, *bounds)
    diff = T.sub(gate_score, float(target))
    return T.reshape(T.mul(diff, diff), ())


def frame_gate_score_tensor(gate_tensor, spatial_map):
    """Differentiable mean gate over the occupied_cells of the frame."""
    selected = occupied_cells(spatial_map)
    weights = selected.astype(np.float64) / selected.sum()
    return T.reshape(T.matmul(T.Tensor(weights[None, :]), gate_tensor), ())


# ---------------------------------------------------------------------------
# Samples and evaluation

@dataclass
class Sample:
    seq: str
    frame: int
    window: list                      # frame_window normalized (R, A, D) arrays
    pose: np.ndarray                  # (J, 3) mm
    smap: np.ndarray                  # spatial magnitude of the last frame
    gate_target: Optional[tuple]      # (proxy value, (lo, hi)) or None


def frame_windows(frames, frame_window):
    """Normalize each frame of a sequence and pair it with its window of the
    last `frame_window` normalized frames. Windows stay inside the sequence
    and left-pad by repeating the first frame. -> [(frame, window)]."""
    normed = [normalize_frame(f) for f in frames]
    padded = normed[:1] * (frame_window - 1) + normed
    return [(normed[t], padded[t:t + frame_window]) for t in range(len(normed))]


def build_samples(dataset, split, mcfg):
    """One sample per frame, each carrying its frame_windows window."""
    samples = []
    for seq_id, frames, poses in dataset.split_sequences(split):
        if frames.shape[1:] != (mcfg.R, mcfg.A, mcfg.D):
            raise DataError(
                f"sequence {seq_id} grid {frames.shape[1:]} != model "
                f"({mcfg.R}, {mcfg.A}, {mcfg.D})")
        proxy = motion_proxy(poses) if len(frames) >= 2 else np.zeros(0)
        bounds = (float(proxy.min()), float(proxy.max())) if len(proxy) else (0.0, 0.0)
        for t, (frame, window) in enumerate(frame_windows(frames, mcfg.frame_window)):
            gate_target = (float(proxy[t]), bounds) if t < len(proxy) else None
            samples.append(Sample(seq=seq_id, frame=t, window=window,
                                  pose=poses[t], smap=spatial_magnitude(frame),
                                  gate_target=gate_target))
    return samples


def evaluate_split(params, mcfg, dataset, split, with_scale=True,
                   collect_gates=False, align=True):
    """Deterministic eval-mode pass over a split.

    Returns (MetricReport, per-sequence predictions, per-sequence ground
    truth[, gate sequences, spatial-map sequences]). With collect_gates the
    report is None, sparing the gate diagnostics its per-frame alignment;
    align=False spares it too and leaves the report's pa_mpjpe nan."""
    preds, gts, gate_seqs, smap_seqs = [], [], [], []
    for seq_id, frames, poses in dataset.split_sequences(split):
        seq_pred, seq_gates, seq_smaps = [], [], []
        for frame, window in frame_windows(frames, mcfg.frame_window):
            result = forward(window, params, mcfg, train=False)
            seq_pred.append(result.pose.data)
            if collect_gates:
                seq_gates.append(result.gate.data.reshape(-1)
                                 if result.gate is not None
                                 else np.zeros(mcfg.n_cells))
                seq_smaps.append(spatial_magnitude(frame).reshape(-1))
        preds.append(np.stack(seq_pred))
        gts.append(poses)
        if collect_gates:
            gate_seqs.append(np.stack(seq_gates))
            smap_seqs.append(np.stack(seq_smaps))
    if not preds:
        raise DataError(f"split {split!r} is empty")
    if collect_gates:
        return None, preds, gts, gate_seqs, smap_seqs
    report = sequence_report(preds, gts, with_scale=with_scale, align=align)
    return report, preds, gts


# ---------------------------------------------------------------------------
# Training loop

@dataclass
class TrainResult:
    best_values: dict                 # parameter values at the best epoch
    best_epoch: int
    best_val_mpjpe: float
    log: TrainLog
    params: ParamGroup                # final (not necessarily best) parameters


def _mix_key(seed, step, sample_idx):
    return (int(seed) * 1_000_003 + step * 1009 + sample_idx) & (2**63 - 1)


def train_model(dataset, mcfg, tcfg):
    """Minimize loss_pos (+ optional gate loss) with Adam; keep the best
    validation-MPJPE parameters; stop early after `patience` stale epochs."""
    train_samples = build_samples(dataset, "train", mcfg)
    if not train_samples:
        raise DataError("train split is empty")
    if not dataset.splits.get("val"):
        raise DataError("val split is empty")

    params = init_params(mcfg, tcfg.seed)
    # Anchor the regression output at the mean training pose so the head
    # only has to learn residuals.
    mean_pose = np.mean([s.pose for s in train_samples], axis=0).reshape(-1)
    params["head.out_bias"].data = mean_pose.copy()

    order_rng = np.random.default_rng(
        np.random.SeedSequence([int(tcfg.seed) & (2**63 - 1), 909]))
    log = TrainLog()
    best_values = params.copy_values()
    best_epoch = 0
    best_val = float("inf")
    stale = 0
    global_step = 0
    done = False

    for epoch in range(1, tcfg.epochs + 1):
        t_start = time.perf_counter()
        order = order_rng.permutation(len(train_samples))
        epoch_losses = []
        epoch_norms = []
        for start in range(0, len(order), tcfg.batch):
            batch = [train_samples[i] for i in order[start:start + tcfg.batch]]
            total = None
            for k, sample in enumerate(batch):
                result = forward(sample.window, params, mcfg, train=True,
                                 base_key=_mix_key(tcfg.seed, global_step, k))
                term = loss_pos(result.pose, sample.pose)
                if tcfg.gate_loss_weight > 0 and sample.gate_target is not None \
                        and result.gate is not None:
                    score = frame_gate_score_tensor(result.gate, sample.smap)
                    proxy, bounds = sample.gate_target
                    term = T.add(term, T.scale(loss_gate(score, proxy, bounds),
                                               tcfg.gate_loss_weight))
                total = term if total is None else T.add(total, term)
            loss = T.scale(total, 1.0 / len(batch))
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite loss {loss_val} at epoch {epoch} step {global_step}")
            params.zero_grad()
            T.backward(loss)
            grads, norm = clip_global_norm(params.grads(), tcfg.clip)
            adam_step(params, grads, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
            epoch_losses.append(loss_val)
            epoch_norms.append(norm)
            global_step += 1
            if tcfg.max_steps and global_step >= tcfg.max_steps:
                done = True
                break
        # the log records no pa_mpjpe, so skip the per-frame alignment
        report, _, _ = evaluate_split(params, mcfg, dataset, "val", align=False)
        log.add(EpochRecord(
            epoch=epoch,
            loss=float(np.mean(epoch_losses)),
            val_mpjpe=report.mpjpe,
            val_mpjve=report.mpjve,
            val_akv=report.akv,
            grad_norm=float(np.mean(epoch_norms)),
            seconds=time.perf_counter() - t_start,
        ))
        if report.mpjpe < best_val:
            best_val = report.mpjpe
            best_values = params.copy_values()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
        if done or stale >= tcfg.patience:
            break
    return TrainResult(best_values=best_values, best_epoch=best_epoch,
                       best_val_mpjpe=best_val, log=log, params=params)
