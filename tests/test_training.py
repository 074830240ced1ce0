import numpy as np
import pytest

from pulse import tensor as T
from pulse import training
from pulse.errors import ConfigError, DataError, NumericError, ShapeError, UsageError
from pulse.features import normalize_frame, spatial_magnitude
from pulse.metrics import frame_gate_scores
from pulse.model import ABLATIONS, ModelConfig, _KeyStream, forward, init_params
from pulse.optim import adam_step, clip_global_norm
from pulse.radar import RadarConfig, SkeletonMotion, make_scene
from pulse.storage import Dataset, write_csv
from pulse.training import (EpochRecord, TrainConfig, TrainLog, _mix_key,
                            build_samples, evaluate_split,
                            frame_gate_score_tensor, loss_gate, loss_pos,
                            minmax_normalize, score_gates, train_model,
                            window_batches)
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


def _scores(*values):
    return T.Tensor(np.array(values), batched=True)


def test_loss_gate_zero_when_matched():
    score = _scores(0.25)
    target = minmax_normalize(2.0, 1.0, 5.0)
    assert loss_gate(score, [target]).item() == pytest.approx(0.0, abs=1e-15)


def test_loss_gate_hand_value():
    score = _scores(0.5)
    assert loss_gate(score, [minmax_normalize(0.0, 0.0, 1.0)]).item() == pytest.approx(0.25)


def test_loss_gate_batch_minmax_hand():
    proxies = [1.0, 3.0, 5.0]
    lo, hi = min(proxies), max(proxies)
    scores = [0.1, 0.6, 0.9]
    targets = minmax_normalize(np.array(proxies), lo, hi)
    total = loss_gate(_scores(*scores), targets).data.sum()
    want = sum((s - (v - lo) / (hi - lo)) ** 2 for s, v in zip(scores, proxies))
    assert abs(total - want) < 1e-12


def test_frame_gate_score_tensor_matches_metrics():
    rng = np.random.default_rng(3)
    gates = rng.random((2, 16, 1))
    smaps = list(rng.random((2, 16)))
    got = frame_gate_score_tensor(T.Tensor(gates, batched=True), np.stack(smaps)).data
    for k in range(2):
        assert abs(got[k] - frame_gate_scores(gates[k:k + 1], smaps[k][None])[0]) < 1e-12


# ---------------------------------------------------------------------------
# TrainLog

def test_train_log_round_trip_and_zeroed_seconds(tmp_path):
    log = TrainLog()
    log.add(EpochRecord(1, 2.5, 10.0, 1.5, 0.7, 3.3, seconds=12.7))
    log.add(EpochRecord(2, 2.0, 9.0, 1.4, 0.6, 3.1, seconds=11.2))
    write_csv(tmp_path / "train_log.csv", TrainLog.HEADER, log.as_rows())
    text = (tmp_path / "train_log.csv").read_text()
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
# training targets

def _train_windows(dataset, mcfg, indices):
    """The windows of the train split's frames at `indices`, one batch."""
    frames = [f for _, f, _ in dataset.split_sequences("train")]
    (_, windows), = window_batches(frames, mcfg.frame_window, len(indices), indices)
    return windows


def test_build_samples_counts_and_padding(tiny_dataset):
    mcfg = tiny_model_cfg(frame_window=3)
    targets = build_samples(tiny_dataset, "train", mcfg)
    per_seq = 8
    assert len(targets[0]) == 2 * per_seq
    # no frame held: poses (N, J, 3), gate targets and weights (N,)
    assert [v.shape for v in targets] == [(2 * per_seq, 8, 3), (2 * per_seq,),
                                          (2 * per_seq,)]
    windows = _train_windows(tiny_dataset, mcfg, range(len(targets[0])))
    first = windows[0]
    assert len(first) == 3
    np.testing.assert_array_equal(first[0], first[2])  # left pad
    assert windows[2][1] is not windows[2][2]


@pytest.mark.parametrize("frame_window", [1, 2, 3])
def test_window_batches_match_the_list_reference(frame_window):
    rng = np.random.default_rng(4)
    sequences = [rng.random((5, 4, 4, 2)).astype(np.float32),
                 rng.random((3, 4, 4, 2)).astype(np.float32)]
    reference = []                    # (frame, window) of each flat index
    for frames in sequences:
        normed = [normalize_frame(f) for f in frames]
        padded = normed[:1] * (frame_window - 1) + normed
        reference += [(normed[t], padded[t:t + frame_window])
                      for t in range(len(frames))]
    # sequence order, as evaluation draws it, and a shuffle, as training does
    for order in (None, [3, 6, 0, 4, 7, 2, 1, 5]):
        batches = list(window_batches(sequences, frame_window, 3, order))
        assert [len(w) for _, w in batches] == [3, 3, 2]
        pairs = [(i, w) for indices, windows in batches
                 for i, w in zip(indices, windows, strict=True)]
        assert [i for i, _ in pairs] == list(order or range(len(reference)))
        for i, window in pairs:
            frame, padded = reference[i]
            np.testing.assert_array_equal(window[-1], frame)
            assert len(window) == frame_window
            for got, want in zip(window, padded, strict=True):
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, want)


def test_window_batches_draws_a_frame_only_when_its_window_is_due():
    drawn = []

    class Frames:
        def __len__(self):
            return 3

        def __getitem__(self, t):
            drawn.append(t)
            return np.full((2, 2, 2), t + 1.0, dtype=np.float32)

    batches = window_batches([Frames()], 2, 1)
    _, (first,) = next(batches)
    assert drawn == [0] and len(first) == 2
    _, (second,) = next(batches)
    assert drawn == [0, 1] and second[0] is first[1]


def test_build_samples_gate_targets(tiny_dataset):
    mcfg = tiny_model_cfg()
    poses, targets, weights = build_samples(tiny_dataset, "train", mcfg)
    frame = np.arange(len(poses)) % 8           # two 8-frame sequences
    last = frame == 7
    assert (targets[last] == 0.0).all()
    assert list(weights) == [float(t != 7) for t in frame]
    mid = targets[frame == 3]
    assert ((0.0 <= mid) & (mid <= 1.0)).all()
    # the min-max span of each sequence's proxy is reached
    for seq in (targets[:7], targets[8:15]):
        assert seq.min() == 0.0 and seq.max() == 1.0


def test_build_samples_targets_from_poses_alone(tiny_dataset):
    # a one-frame sequence, one moving at a constant speed (a constant
    # motion proxy) and a random one; the frames are zeros, which the
    # targets never read
    rng = np.random.default_rng(8)
    steady = np.arange(5.0)[:, None, None] * np.array([3.0, 4.0, 0.0]) + np.ones((5, 8, 3))
    poses = {"a": rng.random((1, 8, 3)), "b": steady, "c": 100.0 * rng.random((4, 8, 3))}
    frames = {k: np.zeros((len(p), 16, 16, 8), dtype=np.float32) for k, p in poses.items()}
    dataset = Dataset(tiny_dataset.root, tiny_dataset.manifest,
                      {"train": ["a", "b", "c"], "val": [], "test": []},
                      frames, poses, tiny_dataset.joint_names)
    got_poses, targets, weights = build_samples(dataset, "train", tiny_model_cfg())
    np.testing.assert_array_equal(got_poses, np.concatenate(list(poses.values())))
    assert list(weights) == [0.0] + [1.0] * 4 + [0.0] + [1.0] * 3 + [0.0]
    assert list(targets[:6]) == [0.0] * 6          # one frame; constant proxy
    proxy = training.motion_proxy(poses["c"])
    want = (proxy - proxy.min()) / (proxy.max() - proxy.min())
    assert targets[6:].tobytes() == np.append(want, 0.0).tobytes()


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
    # the parameters, the head.out_bias anchor included, train in the arena
    values = result.params.arena()[0]
    assert all(np.shares_memory(p.data, values) for p in result.params.params.values())


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


def _per_sample_loss(targets, indices, windows, params, mcfg, tcfg, step):
    """The loop batch_loss replaced, kept as its reference: one graph per
    frame (a batch of one), the per-frame losses added in batch order, each
    frame's cell weights read from its own window's last frame."""
    poses, gate_targets, gate_weights = targets
    total = None
    for k, (i, window) in enumerate(zip(indices, windows, strict=True)):
        result = forward([window], params, mcfg, train=True,
                         base_keys=[_mix_key(tcfg.seed, step, k)])
        term = loss_pos(result.pose, poses[i][None])
        if tcfg.gate_loss_weight > 0 and gate_weights[i] == 1.0 \
                and result.gate is not None:
            score = frame_gate_score_tensor(result.gate,
                                            spatial_magnitude(window[-1])[None])
            term = T.add(term, T.scale(loss_gate(score, [gate_targets[i]]),
                                       tcfg.gate_loss_weight))
        total = term if total is None else T.add(total, term)
    return T.scale(total, 1.0 / len(indices))


def _first_epoch(dataset, mcfg, tcfg, loss_fn):
    """Train the first epoch as train_model does, with loss_fn building each
    batch's loss. -> [(loss, gradients)] per step, final parameters."""
    targets = build_samples(dataset, "train", mcfg)
    params = init_params(mcfg, tcfg.seed)
    mean_pose = np.mean(list(targets[0]), axis=0).reshape(-1)
    params["head.out_bias"].data = mean_pose.copy()
    order = np.random.default_rng(
        np.random.SeedSequence([tcfg.seed, 909])).permutation(len(targets[0]))
    frames = [f for _, f, _ in dataset.split_sequences("train")]
    steps = []
    for step, (indices, windows) in enumerate(
            window_batches(frames, mcfg.frame_window, tcfg.batch, order)):
        loss = loss_fn(targets, indices, windows, params, mcfg, tcfg, step)
        params.zero_grad()
        T.backward(loss)
        steps.append((loss.item(), params.grads()))
        grads, _ = clip_global_norm(params, tcfg.clip)
        adam_step(params, grads, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    return steps, params


def test_single_step_matches_manual_adam(tiny_dataset):
    mcfg = tiny_model_cfg(dropout=0.1)
    tcfg = desk_train_cfg(epochs=1, batch=4, clip=1e9, weight_decay=0.01,
                          max_steps=1, seed=3)
    result = train_model(tiny_dataset, mcfg, tcfg)

    # manual replication of the first optimizer step, one graph per sample
    targets = build_samples(tiny_dataset, "train", mcfg)
    params = init_params(mcfg, tcfg.seed)
    mean_pose = np.mean(list(targets[0]), axis=0).reshape(-1)
    params["head.out_bias"].data = mean_pose.copy()
    order = np.random.default_rng(
        np.random.SeedSequence([tcfg.seed, 909])).permutation(len(targets[0]))
    windows = _train_windows(tiny_dataset, mcfg, order[:tcfg.batch])
    loss = _per_sample_loss(targets, order[:tcfg.batch], windows, params, mcfg, tcfg, 0)
    params.zero_grad()
    T.backward(loss)
    grads, _ = clip_global_norm(params, tcfg.clip)
    adam_step(params, grads, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    for name, tensor in params.params.items():
        np.testing.assert_array_equal(tensor.data, result.params[name].data)


@pytest.mark.parametrize("gate_loss_weight", [0.0, 30.0])
@pytest.mark.parametrize("frame_window", [1, 2])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_batch_step_is_bitwise_the_per_sample_loop(tiny_dataset, ablation,
                                                   frame_window, gate_loss_weight):
    mcfg = tiny_model_cfg(dropout=0.1, ablation=ablation, frame_window=frame_window)
    # 16 train samples: batches of 4, of 8 (a fold of 8 terms, where numpy's
    # sum turns pairwise) and of 6, whose last batch is a partial 4
    for batch in (4, 8, 6):
        tcfg = desk_train_cfg(epochs=1, batch=batch, seed=3,
                              gate_loss_weight=gate_loss_weight)
        ref_steps, ref_params = _first_epoch(tiny_dataset, mcfg, tcfg,
                                             _per_sample_loss)
        steps, params = _first_epoch(tiny_dataset, mcfg, tcfg, training.batch_loss)
        assert len(steps) == -(-16 // batch)
        # bytes, not ==: a flipped sign of zero counts as a difference
        for step, ((ref_loss, ref_grads), (loss, grads)) in enumerate(
                zip(ref_steps, steps, strict=True)):
            assert loss == ref_loss, (batch, step)
            for name in ref_grads:
                assert grads[name].tobytes() == ref_grads[name].tobytes(), \
                    (name, batch, step)
        # and train_model runs exactly those steps
        result = train_model(tiny_dataset, mcfg,
                             desk_train_cfg(epochs=1, batch=batch, seed=3,
                                            gate_loss_weight=gate_loss_weight,
                                            max_steps=len(steps)))
        for name, tensor in ref_params.params.items():
            assert params[name].data.tobytes() == tensor.data.tobytes(), name
            assert result.params[name].data.tobytes() == tensor.data.tobytes(), name


def test_batch_loss_weighs_out_the_samples_without_a_gate_target(tiny_dataset):
    # a sequence's last frame has no gate target: in a batch where all
    # samples but one are such frames, and in one where all are, their
    # 0.0-weighted gate terms must change no bit of the loss or a gradient
    mcfg = tiny_model_cfg(dropout=0.1, frame_window=2)
    tcfg = desk_train_cfg(seed=3, gate_loss_weight=30.0)
    targets = build_samples(tiny_dataset, "train", mcfg)
    last = list(np.flatnonzero(targets[2] == 0.0))
    for indices in ([last[0], 3, last[1]], last):
        windows = _train_windows(tiny_dataset, mcfg, indices)
        runs = []
        for loss_fn in (_per_sample_loss, training.batch_loss):
            params = init_params(mcfg, seed=6, randomize_all=True)
            loss = loss_fn(targets, np.array(indices), windows, params, mcfg, tcfg, 0)
            T.backward(loss)
            runs.append((loss.item(), params.grads()))
        (ref_loss, ref_grads), (loss, grads) = runs
        assert loss == ref_loss, len(indices)
        for name in ref_grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), (name, len(indices))


@pytest.mark.parametrize("frame_window", [1, 2])
def test_ungated_and_no_gating_are_one_model(tiny_dataset, frame_window):
    # both only drop the gate bias of the cross-attention; the gate is still
    # computed and, with the gate loss on, still supervised
    tcfg = desk_train_cfg(seed=3, gate_loss_weight=30.0)
    indices = np.arange(4)
    runs = []
    for ablation in ("ungated", "no_gating"):
        mcfg = tiny_model_cfg(dropout=0.1, ablation=ablation, frame_window=frame_window)
        targets = build_samples(tiny_dataset, "train", mcfg)
        windows = _train_windows(tiny_dataset, mcfg, indices)
        params = init_params(mcfg, seed=6, randomize_all=True)
        constants = {name: T.Tensor(p.data) for name, p in params.params.items()}
        result = forward(windows, constants, mcfg)
        loss = training.batch_loss(targets, indices, windows, params, mcfg, tcfg, 0)
        T.backward(loss)
        runs.append([result.pose.data, result.gate.data, loss.data, params.grads()])
    (*ungated, ungated_grads), (*no_gating, no_gating_grads) = runs
    for a, b in zip(ungated, no_gating, strict=True):
        assert a.tobytes() == b.tobytes()
    assert list(ungated_grads) == list(no_gating_grads)
    for name in ungated_grads:
        assert ungated_grads[name].tobytes() == no_gating_grads[name].tobytes(), name


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
                       {k: v * np.inf for k, v in tiny_dataset.poses.items()},
                       tiny_dataset.joint_names)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError) as exc:
            train_model(poisoned, mcfg, desk_train_cfg(epochs=1))
    assert "epoch 1" in str(exc.value)


def test_empty_split_rejected(tiny_dataset):
    mcfg = tiny_model_cfg()
    empty = Dataset(tiny_dataset.root, tiny_dataset.manifest,
                    {"train": [], "val": tiny_dataset.splits["val"], "test": []},
                    tiny_dataset.frames, tiny_dataset.poses, tiny_dataset.joint_names)
    with pytest.raises(DataError):
        train_model(empty, mcfg, desk_train_cfg())


def _without_split(dataset, split):
    return Dataset(dataset.root, dataset.manifest, dict(dataset.splits, **{split: []}),
                   dataset.frames, dataset.poses, dataset.joint_names)


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_model_names_the_manifest_of_an_empty_split(tiny_dataset, split,
                                                         monkeypatch):
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(training, "forward", no_forward)
    with pytest.raises(DataError) as exc:
        train_model(_without_split(tiny_dataset, split), tiny_model_cfg(), desk_train_cfg())
    manifest = tiny_dataset.root / "manifest.txt"
    assert str(exc.value) == f"{manifest}: split {split!r} is empty"


def test_evaluate_split_names_the_manifest_of_an_empty_split(tiny_dataset):
    mcfg = tiny_model_cfg()
    assert tiny_dataset.splits["test"] == []
    with pytest.raises(DataError) as exc:
        evaluate_split(init_params(mcfg, 0), mcfg, tiny_dataset, "test")
    assert str(exc.value) == f"{tiny_dataset.root / 'manifest.txt'}: split 'test' is empty"


def test_evaluate_split_deterministic_and_self_consistent(tiny_dataset):
    mcfg = tiny_model_cfg()
    params = init_params(mcfg, seed=2)
    rep1, preds1, _ = evaluate_split(params, mcfg, tiny_dataset, "val")
    rep2, preds2, _ = evaluate_split(params, mcfg, tiny_dataset, "val")
    assert rep1 == rep2
    np.testing.assert_array_equal(preds1[0], preds2[0])


def test_train_config_validation():
    for bad in (dict(lr=0.0), dict(patience=0), dict(batch=0), dict(epochs=0),
                dict(clip=0.0), dict(weight_decay=-0.1), dict(max_steps=-1),
                dict(gate_loss_weight=-1.0), dict(gate_loss_weight=float("nan"))):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


def test_train_with_frame_window(tiny_dataset):
    mcfg = tiny_model_cfg(frame_window=2)
    result = train_model(tiny_dataset, mcfg, desk_train_cfg(epochs=1, max_steps=3))
    assert len(result.log.records) == 1
    rep, preds, _ = evaluate_split(result.params, mcfg, tiny_dataset, "val")
    assert np.isfinite(rep.mpjpe)
    assert preds[0].shape == (8, 8, 3)


@pytest.mark.parametrize("frame_window", [1, 2])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_evaluate_split_builds_no_graph_and_matches_forward(
        tiny_dataset, monkeypatch, ablation, frame_window):
    mcfg = tiny_model_cfg(ablation=ablation, frame_window=frame_window)
    params = init_params(mcfg, seed=4, randomize_all=True)
    untouched = {name: np.full(p.shape, 7.0) for name, p in params.params.items()}
    for name, p in params.params.items():
        p.grad = untouched[name]
    results = []

    def recording_forward(windows, constants, *args, **kwargs):
        for name, p in params.params.items():
            assert constants[name].data is p.data
        results.append(forward(windows, constants, *args, **kwargs))
        return results[-1]

    # reference: one forward per frame on the grad-carrying parameters, and
    # one forward of the whole sequence as a batch
    sequences = tiny_dataset.split_sequences("all")
    references = []
    for _, frames, _ in sequences:
        (_, windows), = window_batches([frames], frame_window, len(frames))
        references.append((forward(windows, params, mcfg, train=False),
                           [forward([w], params, mcfg, train=False) for w in windows]))
    total = sum(len(frames) for _, frames, _ in sequences)

    monkeypatch.setattr(training, "forward", recording_forward)
    # the rule's batch, 48, which holds all 24 frames at this geometry, and a
    # batch of 5, whose batches straddle the 8-frame sequences and end in a
    # partial batch of 4
    for batch in (training.eval_batch(mcfg), 5):
        monkeypatch.setattr(training, "eval_batch", lambda cfg: batch)
        results.clear()
        _, preds, _ = evaluate_split(params, mcfg, tiny_dataset, "all")
        gate_preds, _, scores = score_gates(params, mcfg, tiny_dataset, "all")
        sizes = [min(batch, total - start) for start in range(0, total, batch)]
        assert [len(r.pose.data) for r in results] == sizes * 2
        for result in results:
            for t in (result.pose, result.gate):
                assert t is None or (not t.requires_grad and t._parents == ()
                                     and t._backprop is None)

        for (whole, per_window), seq_pred, seq_gate_pred, seq_scores in zip(
                references, preds, gate_preds, scores, strict=True):
            for t, ref in enumerate(per_window):
                assert ref.pose.requires_grad
                np.testing.assert_array_equal(seq_pred[t], ref.pose.data[0])
                np.testing.assert_array_equal(seq_gate_pred[t], ref.pose.data[0])
                np.testing.assert_array_equal(seq_pred[t], whole.pose.data[t])
                ref_score = (0.0 if ref.gate is None
                             else frame_gate_scores(ref.gate.data, ref.spatial)[0])
                assert seq_scores[t] == ref_score
                if whole.gate is not None:
                    assert seq_scores[t] == frame_gate_scores(whole.gate.data,
                                                              whole.spatial)[t]
    for name, p in params.params.items():
        assert p.grad is untouched[name] and (p.grad == 7.0).all()


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_score_gates_predicts_as_evaluate_split(tiny_dataset, ablation):
    mcfg = tiny_model_cfg(ablation=ablation, frame_window=2)
    params = init_params(mcfg, seed=4, randomize_all=True)
    _, preds, gts = evaluate_split(params, mcfg, tiny_dataset, "all")
    for selection in ("occupied", "global"):
        got_preds, got_gts, scores = score_gates(params, mcfg, tiny_dataset, "all",
                                                 selection)
        for want, got in zip(preds + gts, got_preds + got_gts, strict=True):
            np.testing.assert_array_equal(got, want)
        assert [s.shape for s in scores] == [(len(p),) for p in preds]


def test_score_gates_without_a_gate_are_zero(tiny_dataset):
    mcfg = tiny_model_cfg(ablation="spatial_only")
    params = init_params(mcfg, seed=4, randomize_all=True)
    lengths = [len(f) for _, f, _ in tiny_dataset.split_sequences("all")]
    for selection in ("occupied", "global"):
        _, _, scores = score_gates(params, mcfg, tiny_dataset, "all", selection)
        assert [s.tolist() for s in scores] == [[0.0] * n for n in lengths]


def test_eval_batch_from_the_model_geometry():
    desk = ModelConfig(R=32, A=32, D=16, embed_dim=16, layers=2, heads=2)
    assert training.eval_batch(desk) == 3
    assert training.eval_batch(ModelConfig()) == 1


def _retaining_backward(loss):
    """The walk that keeps the whole graph: the reference for T.backward."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in visited:
            continue
        if expanded:
            visited.add(id(node))
            topo.append(node)
            continue
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)
    for node in topo:
        if node._parts is not None:
            T._fold(node)


def _graph(loss):
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_backward_frees_the_graph_and_keeps_leaf_gradients(tiny_dataset):
    # one desk training batch as train_model builds it: dropout, a two-frame
    # window and the gate loss all on, and a sample without a gate target
    mcfg = tiny_model_cfg(dropout=0.1, frame_window=2)
    tcfg = desk_train_cfg(seed=3, gate_loss_weight=30.0)
    targets = build_samples(tiny_dataset, "train", mcfg)
    indices = np.arange(4, 9)
    windows = _train_windows(tiny_dataset, mcfg, indices)
    assert list(targets[2][indices] == 0.0) == [False] * 3 + [True, False]

    reference = init_params(mcfg, seed=6, randomize_all=True)
    _retaining_backward(training.batch_loss(targets, indices, windows, reference,
                                            mcfg, tcfg, 0))
    params = init_params(mcfg, seed=6, randomize_all=True)
    loss = training.batch_loss(targets, indices, windows, params, mcfg, tcfg, 0)
    interior = [n for n in _graph(loss) if n._backprop is not None]
    ops = {n._backprop.__qualname__.split(".")[0] for n in interior}
    assert {"attention", "affine", "layer_norm", "dropout"} <= ops
    T.backward(loss)
    for name, p in params.params.items():
        assert p.grad is not None, name
        np.testing.assert_array_equal(p.grad, reference[name].grad, err_msg=name)
    for node in interior:
        assert node._parents == () and node.grad is None
        assert node._backprop is T._consumed
    for p in params.params.values():
        assert p._parts is None


# ---------------------------------------------------------------------------
# Seeds: TrainConfig bounds a seed to [0, 2**64) once; every random stream
# takes it whole

def _key_streams_as_the_masked_seed(monkeypatch, seed):
    """Key every np.random.SeedSequence([s, tag]) stream with the masked
    expression [seed & (2**63 - 1), tag], whatever s the code passes: the
    reference for init_params, the training shuffle, SkeletonMotion and
    make_scene at seeds below 2**63."""
    real = np.random.SeedSequence

    def masked(entropy, *args, **kwargs):
        if isinstance(entropy, list):
            entropy = [seed & (2**63 - 1), *entropy[1:]]
        return real(entropy, *args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", masked)


def _seeded_draws(dataset, seed, monkeypatch):
    """What each seeded stream draws from `seed`: the init_params arrays,
    the first training shuffle, and SkeletonMotion's and make_scene's
    arrays."""
    orders = []

    def spy(sequences, frame_window, size, order=None):
        orders.append(order)
        return window_batches(sequences, frame_window, size, order)

    monkeypatch.setattr(training, "window_batches", spy)
    train_model(dataset, tiny_model_cfg(), desk_train_cfg(seed=seed, max_steps=1))
    params = init_params(tiny_model_cfg(), seed)
    motion = SkeletonMotion(seed, "walk")
    scene = make_scene(RadarConfig(), seed)
    return {
        "init_params": [params[name].data for name in params.names()],
        "shuffle": [orders[0]],
        "SkeletonMotion": [motion.base, motion.amp, motion.freq, motion.phase],
        "make_scene": [scene.body_reflectivities, scene.clutter_positions,
                       scene.clutter_reflectivities, scene.mirror_x, *scene.oscillator],
    }


def _mask_of(key):
    ones = T.Tensor(np.ones((1, 64)), batched=True)
    return T.dropout(ones, 0.5, [key], True).data


def _dropout_masks(seed, step, sample, draws=3):
    """The masks T.dropout draws from the first `draws` keys of the
    _KeyStream batch_loss gives sample `sample` of step `step`."""
    stream = _KeyStream([_mix_key(seed, step, sample)])
    return [_mask_of(stream.next()[0]) for _ in range(draws)]


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("seed", [0, 5, 2**62 + 3])
def test_seeds_below_2_63_draw_what_the_masked_seed_drew(tiny_dataset, seed, monkeypatch):
    draws = _seeded_draws(tiny_dataset, seed, monkeypatch)
    _key_streams_as_the_masked_seed(monkeypatch, seed)
    old = _seeded_draws(tiny_dataset, seed, monkeypatch)
    for stream in draws:
        assert _same(draws[stream], old[stream]), stream


def test_seed_2_63_is_not_seed_0(tiny_dataset, monkeypatch):
    zero = _seeded_draws(tiny_dataset, 0, monkeypatch)
    top = _seeded_draws(tiny_dataset, 2**63, monkeypatch)
    for stream in zero:
        assert not _same(zero[stream], top[stream]), stream
    assert not _same(_dropout_masks(0, 3, 1), _dropout_masks(2**63, 3, 1))


@pytest.mark.parametrize("seed", [0, 5, 9 * 10**12])
def test_dropout_keys_match_the_masked_keys_where_mix_key_did_not_wrap(seed):
    # below seed (2**63 - 1) // 1_000_003, about 9.2e12, no base reaches
    # 2**63, so a 63-bit mask of the base changes no key; above it, it did
    for step, sample in ((0, 0), (7, 3)):
        old_base = (seed * 1_000_003 + step * 1009 + sample) & (2**63 - 1)
        old = [_mask_of((old_base * 131 + count) & (2**64 - 1)) for count in range(3)]
        assert _same(_dropout_masks(seed, step, sample), old)


def test_key_stream_keys_reach_dropout_as_their_64_bit_residues():
    # T.dropout reduces each key mod 2**64, so a _KeyStream key of any
    # width draws the mask of its residue
    for base in (5, _mix_key(2**62 + 3, 7, 3), _mix_key(2**64 - 1, 7, 3)):
        stream = _KeyStream([base])
        for count in range(3):
            assert np.array_equal(_mask_of(stream.next()[0]),
                                  _mask_of((base * 131 + count) & (2**64 - 1)))
