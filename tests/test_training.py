import numpy as np
import pytest

from pulse import tensor as T
from pulse.errors import DataError, NumericError, ShapeError, UsageError
from pulse.model import forward, init_params
from pulse.optim import adam_step, clip_global_norm
from pulse.storage import Dataset
from pulse.training import (EpochRecord, TrainConfig, TrainLog,
                            build_samples, evaluate_split,
                            frame_gate_score_tensor, loss_gate, loss_pos,
                            minmax_normalize, train_model)
from tests.conftest import parse_train_log, tiny_model_cfg


def desk_train_cfg(**kw):
    base = dict(lr=3e-3, weight_decay=0.01, batch=4, epochs=3, clip=1.0, seed=1,
                patience=5)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# loss_pos

def test_loss_pos_zero_for_match():
    gt = np.random.default_rng(0).random((4, 3))
    assert loss_pos(T.Tensor(gt), gt).item() == 0.0


def test_loss_pos_uniform_offset_pythagorean():
    gt = np.random.default_rng(1).random((5, 3))
    pred = gt + np.array([3.0, 4.0, 0.0])
    assert loss_pos(T.Tensor(pred), gt).item() == pytest.approx(5.0, abs=1e-12)


def test_loss_pos_brute_force_oracle():
    rng = np.random.default_rng(2)
    pred = rng.random((4, 3)) * 50
    gt = rng.random((4, 3)) * 50
    total = 0.0
    for j in range(4):
        d = pred[j] - gt[j]
        total += float(np.sqrt((d * d).sum()))
    assert abs(loss_pos(T.Tensor(pred), gt).item() - total / 4.0) < 1e-12


def test_loss_pos_joint_count_mismatch():
    with pytest.raises(ShapeError):
        loss_pos(T.Tensor(np.zeros((4, 3))), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# loss_gate / normalization

def test_minmax_normalize_hand():
    assert minmax_normalize(3.0, 1.0, 5.0) == 0.5
    assert minmax_normalize(2.0, 2.0, 2.0) == 0.0


def test_loss_gate_zero_when_matched():
    score = T.Tensor(np.array(0.25))
    assert loss_gate(score, 2.0, (1.0, 5.0)).item() == pytest.approx(0.0, abs=1e-15)


def test_loss_gate_hand_value():
    score = T.Tensor(np.array(0.5))
    assert loss_gate(score, 0.0, (0.0, 1.0)).item() == pytest.approx(0.25)


def test_loss_gate_batch_minmax_hand():
    proxies = [1.0, 3.0, 5.0]
    lo, hi = min(proxies), max(proxies)
    scores = [0.1, 0.6, 0.9]
    total = sum(loss_gate(T.Tensor(np.array(s)), v, (lo, hi)).item()
                for s, v in zip(scores, proxies))
    want = sum((s - (v - lo) / (hi - lo)) ** 2 for s, v in zip(scores, proxies))
    assert abs(total - want) < 1e-12


def test_frame_gate_score_tensor_matches_metrics():
    from pulse.metrics import frame_gate_score
    rng = np.random.default_rng(3)
    gates = rng.random((16, 1))
    smap = rng.random(16)
    got = frame_gate_score_tensor(T.Tensor(gates), smap).item()
    want = frame_gate_score(gates, smap)
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# TrainLog

def test_train_log_round_trip_and_zeroed_seconds():
    log = TrainLog()
    log.add(EpochRecord(1, 2.5, 10.0, 1.5, 0.7, 3.3, seconds=12.7))
    log.add(EpochRecord(2, 2.0, 9.0, 1.4, 0.6, 3.1, seconds=11.2))
    text = log.to_csv_text()
    assert text.splitlines()[0] == TrainLog.HEADER
    again = parse_train_log(text)
    assert [r.epoch for r in again] == [1, 2]
    assert again[0].val_mpjpe == 10.0
    assert all(r.seconds == 0.0 for r in again)


def test_train_log_requires_increasing_epochs():
    log = TrainLog()
    log.add(EpochRecord(1, 1, 1, 1, 1, 1, 0))
    with pytest.raises(UsageError):
        log.add(EpochRecord(1, 1, 1, 1, 1, 1, 0))


# ---------------------------------------------------------------------------
# sample building

def test_build_samples_counts_and_padding(tiny_dataset):
    mcfg = tiny_model_cfg(frame_window=3)
    samples = build_samples(tiny_dataset, "train", mcfg)
    per_seq = 8
    assert len(samples) == 2 * per_seq
    first = samples[0]
    assert len(first.window) == 3
    np.testing.assert_array_equal(first.window[0], first.window[2])  # left pad
    assert samples[2].window[1] is not samples[2].window[2]


def test_build_samples_gate_targets(tiny_dataset):
    mcfg = tiny_model_cfg()
    samples = build_samples(tiny_dataset, "train", mcfg)
    last = [s for s in samples if s.frame == 7]
    assert all(s.gate_target is None for s in last)
    mid = [s for s in samples if s.frame == 3][0]
    proxy, (lo, hi) = mid.gate_target
    assert lo <= proxy <= hi


def test_build_samples_grid_mismatch(tiny_dataset):
    mcfg = tiny_model_cfg(R=32, A=32)
    with pytest.raises(DataError):
        build_samples(tiny_dataset, "train", mcfg)


# ---------------------------------------------------------------------------
# train loop

def test_train_runs_and_logs(tiny_dataset):
    mcfg = tiny_model_cfg()
    result = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=2))
    assert len(result.log.records) == 2
    assert result.best_epoch >= 1
    assert set(result.best_values) == set(result.params.names())


def test_train_deterministic_same_seed(tiny_dataset):
    mcfg = tiny_model_cfg()
    a = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=2, seed=7))
    b = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=2, seed=7))
    for name in a.best_values:
        np.testing.assert_array_equal(a.best_values[name], b.best_values[name])
    c = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=2, seed=8))
    assert any(not np.array_equal(a.best_values[n], c.best_values[n])
               for n in a.best_values)


def test_train_loss_decreases(tiny_dataset):
    mcfg = tiny_model_cfg()
    result = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=12, patience=12))
    losses = [r.loss for r in result.log.records]
    assert losses[-1] < losses[0]


def test_single_step_matches_manual_adam(tiny_dataset):
    mcfg = tiny_model_cfg(dropout=0.1)
    tcfg = desk_train_cfg(epochs=1, batch=4, clip=1e9, weight_decay=0.01,
                          max_steps=1, seed=3)
    result = train_model(tiny_dataset, mcfg, tcfg)

    # manual replication of the first optimizer step
    from pulse.training import _mix_key
    samples = build_samples(tiny_dataset, "train", mcfg)
    params = init_params(mcfg, tcfg.seed)
    mean_pose = np.mean([s.pose for s in samples], axis=0).reshape(-1)
    params["head.out_bias"].data = mean_pose.copy()
    order = np.random.default_rng(
        np.random.SeedSequence([tcfg.seed, 909])).permutation(len(samples))
    batch = [samples[i] for i in order[:tcfg.batch]]
    total = None
    for k, sample in enumerate(batch):
        out = forward(sample.window, params, mcfg, train=True,
                      base_key=_mix_key(tcfg.seed, 0, k))
        term = loss_pos(out.pose, sample.pose)
        total = term if total is None else T.add(total, term)
    loss = T.scale(total, 1.0 / len(batch))
    params.zero_grad()
    T.backward(loss)
    grads, _ = clip_global_norm(params.grads(), tcfg.clip)
    adam_step(params, grads, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    for name, tensor in params.params.items():
        np.testing.assert_array_equal(tensor.data, result.params[name].data)


def test_early_stopping_keeps_best(tiny_dataset):
    mcfg = tiny_model_cfg()
    result = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=6, patience=2))
    observed = [r.val_mpjpe for r in result.log.records]
    assert result.best_val_mpjpe == min(observed)


def test_gate_loss_zero_weight_is_noop(tiny_dataset):
    mcfg = tiny_model_cfg()
    base = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=1, seed=5))
    explicit = train_model(tiny_dataset, mcfg,
                           desk_train_cfg(epochs=1, seed=5, gate_loss_weight=0.0))
    for name in base.best_values:
        np.testing.assert_array_equal(base.best_values[name],
                                      explicit.best_values[name])


def test_gate_loss_weight_changes_training(tiny_dataset):
    mcfg = tiny_model_cfg()
    base = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=1, seed=5))
    gated = train_model(tiny_dataset, mcfg,
                        desk_train_cfg(epochs=1, seed=5, gate_loss_weight=0.1))
    assert any(not np.array_equal(base.best_values[n], gated.best_values[n])
               for n in base.best_values)


def test_nan_loss_aborts_with_context(tiny_dataset):
    mcfg = tiny_model_cfg()
    poisoned = Dataset(tiny_dataset.root, tiny_dataset.manifest,
                       tiny_dataset.splits, tiny_dataset.frames,
                       {k: v * np.inf for k, v in tiny_dataset.poses.items()})
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError) as exc:
            train_model(poisoned, mcfg, desk_train_cfg(epochs=1))
    assert "epoch 1" in str(exc.value)


def test_empty_split_rejected(tiny_dataset):
    mcfg = tiny_model_cfg()
    empty = Dataset(tiny_dataset.root, tiny_dataset.manifest,
                    {"train": [], "val": tiny_dataset.splits["val"], "test": []},
                    tiny_dataset.frames, tiny_dataset.poses)
    with pytest.raises(DataError):
        train_model(empty, mcfg, desk_train_cfg())


def test_evaluate_split_deterministic_and_self_consistent(tiny_dataset):
    mcfg = tiny_model_cfg()
    params = init_params(mcfg, seed=2)
    rep1, preds1, _ = evaluate_split(params, mcfg, tiny_dataset, "val")
    rep2, preds2, _ = evaluate_split(params, mcfg, tiny_dataset, "val")
    assert rep1 == rep2
    np.testing.assert_array_equal(preds1[0], preds2[0])


def test_train_config_validation():
    for bad in (dict(lr=0.0), dict(patience=0), dict(batch=0), dict(epochs=0),
                dict(clip=0.0), dict(weight_decay=-0.1), dict(max_steps=-1)):
        with pytest.raises(UsageError):
            TrainConfig(**bad)


def test_train_with_frame_window(tiny_dataset):
    mcfg = tiny_model_cfg(frame_window=2)
    result = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=1, max_steps=3))
    assert len(result.log.records) == 1
    rep, preds, _ = evaluate_split(result.params, mcfg, tiny_dataset, "val")
    assert np.isfinite(rep.mpjpe)
    assert preds[0].shape == (8, 8, 3)
