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

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, NumericError, ShapeError, UsageError
from .features import normalize_frame
from .features import spatial_magnitude  # unused here: only perfbench/tracing.py reads it
from .model import forward, init_params
from .metrics import frame_gate_scores, motion_proxy, occupied_cells, sequence_report
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
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
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
    """Mean over joints of the Euclidean error (mm) of a (B, J, 3) graph
    tensor against a (B, J, 3) array: one loss per sample. A (J, 3) pair
    gives one loss."""
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"pose shapes differ: {pred.shape} vs {gt.shape}")
    diff = T.sub(pred, T.Tensor(gt))
    sq_norm = T.tsum(T.mul(diff, diff), axis=-1)
    return T.mean_over_axis(T.sqrt(sq_norm), axis=-1)


def minmax_normalize(values, lo, hi):
    """Min-max map of a value or an array to [0, 1]; constant spans
    collapse to 0."""
    if hi <= lo:
        return np.zeros(np.shape(values))
    return (values - lo) / (hi - lo)


def loss_gate(gate_scores, targets):
    """Squared errors between a batch of frame gate scores (a (B,) graph
    tensor) and their B gate targets."""
    diff = T.sub(gate_scores, T.Tensor(targets))
    return T.mul(diff, diff)


def frame_gate_score_tensor(gates, spatial_maps):
    """Differentiable mean gate over the occupied_cells of each frame: a
    (B, N_v, 1) batch of gates and the (B, ...) stack of spatial maps the
    forward read -> (B,) scores."""
    selected = occupied_cells(spatial_maps)
    weights = selected / selected.sum(axis=1, keepdims=True)
    return T.reshape(T.matmul(T.Tensor(weights[:, None, :], batched=True), gates),
                     (len(weights),))


# ---------------------------------------------------------------------------
# Targets, windows and evaluation

def window_batches(sequences, frame_window, size, order=None):
    """Yield (indices, windows) for each run of `size` indices of `order`
    (default: sequence order) into the frames of `sequences`, a list of
    (F, R, A, D) arrays indexed flat. A window is the last `frame_window`
    normalized frames up to its own, inside its sequence, left-padded by
    repeating the first frame. A frame is normalized only when its window
    is due, and frames shared with the previous window are reused, so
    sequence order normalizes each frame once and holds one batch."""
    slots = [(k, t) for k, frames in enumerate(sequences) for t in range(len(frames))]
    order = range(len(slots)) if order is None else order
    held = {}
    for start in range(0, len(order), size):
        indices = order[start:start + size]
        windows = []
        for i in indices:
            k, t = slots[i]
            keys = [(k, max(s, 0)) for s in range(t + 1 - frame_window, t + 1)]
            held = {key: held[key] if key in held
                    else normalize_frame(sequences[k][key[1]])
                    for key in dict.fromkeys(keys)}
            windows.append([held[key] for key in keys])
        yield indices, windows


def build_samples(dataset, split, mcfg):
    """The training targets of every frame of the split, from its poses
    alone, in sequence order, the order of window_batches' indices:
    (poses (N, J, 3), gate targets (N,), gate weights (N,)). A frame's gate
    target is its motion proxy min-max-normalized over its sequence, with
    weight 1.0; a sequence's last frame has no proxy, so target and weight
    0.0. The frames stay in the dataset."""
    poses, targets, weights = [], [], []
    for seq_id, frames, seq_poses in dataset.split_sequences(split):
        if frames.shape[1:] != (mcfg.R, mcfg.A, mcfg.D):
            raise DataError(
                f"sequence {seq_id} grid {frames.shape[1:]} != model "
                f"({mcfg.R}, {mcfg.A}, {mcfg.D})")
        proxy = motion_proxy(seq_poses) if len(frames) >= 2 else np.zeros(0)
        span = (proxy.min(), proxy.max()) if len(proxy) else (0.0, 0.0)
        poses.append(seq_poses)
        targets += [minmax_normalize(proxy, *span), [0.0]]
        weights += [np.ones(len(proxy)), [0.0]]
    return np.concatenate(poses), np.concatenate(targets), np.concatenate(weights)


# Dense cross-attention logit bytes one evaluation forward may span.
# Measured: desk evaluates fastest at 3 windows a batch and slower at 4
# than at 1, and at full a second window adds 12.6 MB of peak RSS and no
# speed. A float32 forward halves the logit bytes, yet desk float32 eval
# still runs 3 windows a batch faster than 6 (0.60 s against 0.70 s a
# split pass).
EVAL_LOGIT_BYTES = 3 * 2**20


def eval_batch(mcfg):
    """Windows per evaluation forward, from the model geometry alone: as
    many as keep a batch's dense cross-attention logits (heads x spatial
    tokens x cells, counted at 8 bytes each; the band computes a share of
    them) within EVAL_LOGIT_BYTES, at least one. The count is the same for
    training's float64 validation passes and the float32 forwards of eval
    and diag. Desk (32x32x16, 2 heads, 1 MiB a window) runs 3 windows a
    batch; full (64x64x16, 4 heads, 32 MiB) runs 1."""
    return max(1, EVAL_LOGIT_BYTES // (8 * mcfg.heads * mcfg.n_spatial * mcfg.n_cells))


def _eval_forwards(params, mcfg, dataset, split):
    """The eval-mode pass evaluate_split and score_gates share: (per-sequence
    ground truth, sequence lengths, a generator of the ForwardResult of each
    window_batches batch of eval_batch windows, in sequence order). The
    forward runs on constant tensors sharing the parameters' arrays, so it
    records no graph and leaves every .grad untouched."""
    sequences = dataset.split_sequences(split)
    frames = [f for _, f, _ in sequences]
    constants = {name: T.Tensor(p.data) for name, p in params.params.items()}
    results = (forward(windows, constants, mcfg, train=False) for _, windows
               in window_batches(frames, mcfg.frame_window, eval_batch(mcfg)))
    return [p for _, _, p in sequences], [len(f) for f in frames], results


def _by_sequence(batches, lengths):
    """Per-batch arrays of frames, cut into sequences of `lengths` frames."""
    return np.split(np.concatenate(batches), np.cumsum(lengths)[:-1])


def evaluate_split(params, mcfg, dataset, split, with_scale=True, align=True):
    """Deterministic eval-mode pass over a split -> (MetricReport,
    per-sequence predictions, per-sequence ground truth). align=False spares
    the report its per-frame alignment and leaves its pa_mpjpe nan."""
    gts, lengths, results = _eval_forwards(params, mcfg, dataset, split)
    preds = _by_sequence([result.pose.data for result in results], lengths)
    return sequence_report(preds, gts, with_scale=with_scale, align=align), preds, gts


def score_gates(params, mcfg, dataset, split, cell_selection="occupied"):
    """evaluate_split's pass for diag -> (per-sequence predictions, ground
    truth, frame_gate_scores of each batch as its forward returns it; 0.0
    for a model without a gate)."""
    gts, lengths, results = _eval_forwards(params, mcfg, dataset, split)
    poses, scores = [], []
    for result in results:
        poses.append(result.pose.data)
        scores.append(np.zeros(len(result.pose.data)) if result.gate is None else
                      frame_gate_scores(result.gate.data, result.spatial, cell_selection))
    return _by_sequence(poses, lengths), gts, _by_sequence(scores, lengths)


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
    return int(seed) * 1_000_003 + step * 1009 + sample_idx


def batch_loss(targets, indices, windows, params, mcfg, tcfg, step):
    """Mean training loss of the frames at `indices` of build_samples'
    `targets` and their windows, from one forward of the whole batch:
    loss_pos per frame plus its gate loss times gate_loss_weight *
    gate_weight, the gate score read over the occupied cells of the
    forward's spatial maps. The per-frame losses are summed in batch order,
    so the loss and its gradients are bitwise those of one graph per frame
    added up in a loop that takes the gate loss only where a frame has a
    gate target: a 0.0-weighted term adds +0.0 to a positive position loss
    and only zeros to the gradients."""
    poses, gate_targets, gate_weights = targets
    result = forward(windows, params, mcfg, train=True,
                     base_keys=[_mix_key(tcfg.seed, step, k) for k in range(len(indices))])
    terms = loss_pos(result.pose, poses[indices])
    if tcfg.gate_loss_weight > 0 and result.gate is not None:
        score = frame_gate_score_tensor(result.gate, result.spatial)
        weights = tcfg.gate_loss_weight * gate_weights[indices]
        terms = T.add(terms, T.mul(loss_gate(score, gate_targets[indices]), weights))
    return T.scale(T.fold_sum(terms), 1.0 / len(indices))


def train_model(dataset, mcfg, tcfg):
    """Minimize loss_pos (+ optional gate loss) with Adam; keep the best
    validation-MPJPE parameters; stop early after `patience` stale epochs."""
    targets = build_samples(dataset, "train", mcfg)
    train_frames = [f for _, f, _ in dataset.split_sequences("train")]
    dataset.split_sequences("val")    # an empty val split fails before any step

    params = init_params(mcfg, tcfg.seed)
    # Anchor the regression output at the mean training pose so the head
    # only has to learn residuals.
    params["head.out_bias"].data[...] = targets[0].mean(axis=0).reshape(-1)

    order_rng = np.random.default_rng(np.random.SeedSequence([int(tcfg.seed), 909]))
    log = TrainLog()
    best_values = params.copy_values()
    best_epoch = 0
    best_val = float("inf")
    stale = 0
    global_step = 0
    done = False

    for epoch in range(1, tcfg.epochs + 1):
        t_start = time.perf_counter()
        order = order_rng.permutation(len(targets[0]))
        epoch_losses = []
        epoch_norms = []
        for indices, windows in window_batches(train_frames, mcfg.frame_window,
                                               tcfg.batch, order):
            loss = batch_loss(targets, indices, windows, params, mcfg, tcfg, global_step)
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
