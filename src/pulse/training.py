"""Supervised training: per-frame joint regression loss, optional auxiliary
gate supervision, Adam with decoupled weight decay and global-norm clipping,
early stopping on validation MPJPE.

Single-writer, single-threaded; batch order is a seeded shuffle, dropout
keys derive from (seed, step, sample), so a fixed seed reproduces training
bit-for-bit. No temporal loss term exists anywhere: velocity quality must
come from the motion cues, not from smoothing.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, NumericError, ShapeError, UsageError
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
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.batch < 1 or self.epochs < 1:
            raise ConfigError(f"batch and epochs must be >= 1, got "
                              f"{self.batch} and {self.epochs}")
        if not 0.0 < self.clip < math.inf:
            raise ConfigError(f"clip must be positive and finite, got {self.clip}")
        for name in ("weight_decay", "gate_loss_weight", "max_steps"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, "
                                  f"got {getattr(self, name)}")


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

    HEADER = ",".join(f.name for f in fields(EpochRecord))

    def add(self, rec):
        if self.records and rec.epoch <= self.records[-1].epoch:
            raise UsageError("epoch indices must be strictly increasing")
        self.records.append(rec)

    def as_rows(self):
        """The records as train_log.csv rows, in HEADER's column order.
        Wall time stays in memory only; the emitted seconds are 0.0 so
        identical reruns produce byte-identical logs."""
        return [astuple(replace(r, seconds=0.0)) for r in self.records]


# ---------------------------------------------------------------------------
# Losses

def loss_pos(pred, gt):
    """Mean over joints of the Euclidean error (mm); pred is a (J, 3) graph
    tensor, gt an array. A (B, J, 3) batch gives one loss per sample."""
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"pose shapes differ: {pred.shape} vs {gt.shape}")
    diff = T.sub(pred, T.Tensor(gt))
    sq_norm = T.tsum(T.mul(diff, diff), axis=-1)
    return T.mean_over_axis(T.sqrt(sq_norm), axis=-1)


def minmax_normalize(value, lo, hi):
    """Min-max map to [0, 1]; constant spans collapse to 0."""
    if hi <= lo:
        return 0.0
    return (value - lo) / (hi - lo)


def loss_gate(gate_scores, proxy_values, bounds):
    """Squared errors between a batch of frame gate scores (a (B,) graph
    tensor) and their min-max-normalized motion proxies: B proxy values and
    B (lo, hi) bounds."""
    targets = [minmax_normalize(v, *b) for v, b in zip(proxy_values, bounds)]
    diff = T.sub(gate_scores, T.Tensor(targets))
    return T.mul(diff, diff)


def occupied_cell_weights(spatial_map):
    """Flat weights averaging a frame's gates over its occupied_cells."""
    selected = occupied_cells(spatial_map)
    return selected.astype(np.float64) / selected.sum()


def frame_gate_score_tensor(gates, cell_weights):
    """Differentiable mean gate over the occupied cells of each frame: a
    (B, N_v, 1) batch of gates and B occupied_cell_weights -> (B,) scores."""
    weights = T.Tensor(np.stack(cell_weights)[:, None, :], batched=True)
    return T.reshape(T.matmul(weights, gates), (len(cell_weights),))


# ---------------------------------------------------------------------------
# Samples and evaluation

@dataclass
class Sample:
    seq: str
    frame: int
    window: list                      # frame_window normalized (R, A, D) arrays
    pose: np.ndarray                  # (J, 3) mm
    cell_weights: np.ndarray          # occupied_cell_weights of the last frame
    gate_target: Optional[tuple]      # (proxy value, (lo, hi)) or None
    gate_weight: float                # 1.0 with a gate target, else 0.0


def frame_windows(frames, frame_window):
    """Yield each frame of a sequence, normalized, with its window of the
    last `frame_window` normalized frames. Windows stay inside the sequence
    and left-pad by repeating the first frame. A frame is drawn from
    `frames` and normalized only when its window is due, so a caller that
    drops each window holds one window, not the sequence. -> (frame, window)
    pairs, each window a fresh list."""
    window = []
    for frame in frames:
        frame = normalize_frame(frame)
        window = (window or [frame] * frame_window)[1:] + [frame]
        yield frame, window


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
            samples.append(Sample(
                seq=seq_id, frame=t, window=window, pose=poses[t],
                cell_weights=occupied_cell_weights(spatial_magnitude(frame)),
                gate_target=gate_target, gate_weight=float(gate_target is not None)))
    return samples


def evaluate_split(params, mcfg, dataset, split, with_scale=True,
                   collect_gates=False, align=True):
    """Deterministic eval-mode pass over a split.

    Returns (MetricReport, per-sequence predictions, per-sequence ground
    truth[, gate sequences, spatial-map sequences]). With collect_gates the
    report is None, sparing the gate diagnostics its per-frame alignment;
    align=False spares it too and leaves the report's pa_mpjpe nan.

    The forward runs on constant tensors sharing the parameters' arrays, so
    it records no graph and leaves every .grad untouched."""
    constants = {name: T.Tensor(p.data) for name, p in params.params.items()}
    preds, gts, gate_seqs, smap_seqs = [], [], [], []
    for seq_id, frames, poses in dataset.split_sequences(split):
        seq_pred, seq_gates, seq_smaps = [], [], []
        for frame, window in frame_windows(frames, mcfg.frame_window):
            result = forward([window], constants, mcfg, train=False)
            seq_pred.append(result.pose.data[0])
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


def batch_loss(batch, params, mcfg, tcfg, step):
    """Mean training loss of a batch of samples, from one forward of the
    whole batch: loss_pos per sample plus its gate loss times
    gate_loss_weight * gate_weight. The per-sample losses are summed in
    batch order, so the loss and its gradients are bitwise those of one
    graph per sample added up in a loop that takes the gate loss only where
    a sample has a gate target: a 0.0-weighted term adds +0.0 to a positive
    position loss and only zeros to the gradients."""
    result = forward([s.window for s in batch], params, mcfg, train=True,
                     base_keys=[_mix_key(tcfg.seed, step, k) for k in range(len(batch))])
    terms = loss_pos(result.pose, np.stack([s.pose for s in batch]))
    if tcfg.gate_loss_weight > 0 and result.gate is not None:
        score = frame_gate_score_tensor(result.gate, [s.cell_weights for s in batch])
        # a finite stand-in where a sample has no target: its weight is 0.0
        proxies, bounds = zip(*(s.gate_target or (0.0, (0.0, 0.0)) for s in batch))
        weights = [tcfg.gate_loss_weight * s.gate_weight for s in batch]
        terms = T.add(terms, T.mul(loss_gate(score, proxies, bounds), weights))
    return T.scale(T.fold_sum(terms), 1.0 / len(batch))


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
    params["head.out_bias"].data[...] = mean_pose

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
            loss = batch_loss(batch, params, mcfg, tcfg, global_step)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite loss {loss_val} at epoch {epoch} step {global_step}")
            params.zero_grad()
            T.backward(loss)
            grads, norm = clip_global_norm(params, tcfg.clip)
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
