import numpy as np
import pytest

from pulse import tensor as T
from pulse import training
from pulse.errors import ConfigError, DataError, NumericError, ShapeError, UsageError
from pulse.features import normalize_frame
from pulse.model import ABLATIONS, forward, init_params
from pulse.optim import adam_step, clip_global_norm
from pulse.storage import Dataset, write_csv
from pulse.training import (EpochRecord, TrainConfig, TrainLog, _mix_key,
                            build_samples, evaluate_split,
                            frame_gate_score_tensor, frame_windows, loss_gate,
                            loss_pos, minmax_normalize, occupied_cell_weights,
                            train_model)
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
    assert loss_gate(score, [2.0], [(1.0, 5.0)]).item() == pytest.approx(0.0, abs=1e-15)


def test_loss_gate_hand_value():
    score = _scores(0.5)
    assert loss_gate(score, [0.0], [(0.0, 1.0)]).item() == pytest.approx(0.25)


def test_loss_gate_batch_minmax_hand():
    proxies = [1.0, 3.0, 5.0]
    lo, hi = min(proxies), max(proxies)
    scores = [0.1, 0.6, 0.9]
    total = loss_gate(_scores(*scores), proxies, [(lo, hi)] * 3).data.sum()
    want = sum((s - (v - lo) / (hi - lo)) ** 2 for s, v in zip(scores, proxies))
    assert abs(total - want) < 1e-12


def test_frame_gate_score_tensor_matches_metrics():
    from pulse.metrics import frame_gate_score
    rng = np.random.default_rng(3)
    gates = rng.random((2, 16, 1))
    smaps = list(rng.random((2, 16)))
    got = frame_gate_score_tensor(T.Tensor(gates, batched=True),
                                  [occupied_cell_weights(m) for m in smaps]).data
    for k in range(2):
        assert abs(got[k] - frame_gate_score(gates[k], smaps[k])) < 1e-12


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


@pytest.mark.parametrize("frame_window", [1, 2, 3])
def test_frame_windows_match_the_list_reference(frame_window):
    frames = np.random.default_rng(4).random((5, 4, 4, 2)).astype(np.float32)
    normed = [normalize_frame(f) for f in frames]
    padded = normed[:1] * (frame_window - 1) + normed
    pairs = list(frame_windows(frames, frame_window))
    assert len(pairs) == len(frames)
    for t, (frame, window) in enumerate(pairs):
        np.testing.assert_array_equal(frame, normed[t])
        assert len(window) == frame_window
        for got, want in zip(window, padded[t:t + frame_window], strict=True):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)


def test_frame_windows_draws_a_frame_only_when_its_window_is_due():
    drawn = []

    def frames():
        for t in range(3):
            drawn.append(t)
            yield np.full((2, 2, 2), t + 1.0, dtype=np.float32)

    pairs = frame_windows(frames(), 2)
    _, first = next(pairs)
    assert drawn == [0] and len(first) == 2
    _, second = next(pairs)
    assert drawn == [0, 1] and second[0] is first[1]


def test_build_samples_gate_targets(tiny_dataset):
    mcfg = tiny_model_cfg()
    samples = build_samples(tiny_dataset, "train", mcfg)
    last = [s for s in samples if s.frame == 7]
    assert all(s.gate_target is None for s in last)
    assert [s.gate_weight for s in samples] == [float(s.frame != 7) for s in samples]
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


def _per_sample_loss(batch, params, mcfg, tcfg, step):
    """The loop batch_loss replaced, kept as its reference: one graph per
    sample (a batch of one), the per-sample losses added in batch order."""
    total = None
    for k, sample in enumerate(batch):
        result = forward([sample.window], params, mcfg, train=True,
                         base_keys=[_mix_key(tcfg.seed, step, k)])
        term = loss_pos(result.pose, sample.pose[None])
        if tcfg.gate_loss_weight > 0 and sample.gate_target is not None \
                and result.gate is not None:
            score = frame_gate_score_tensor(result.gate, [sample.cell_weights])
            proxy, bounds = sample.gate_target
            term = T.add(term, T.scale(loss_gate(score, [proxy], [bounds]),
                                       tcfg.gate_loss_weight))
        total = term if total is None else T.add(total, term)
    return T.scale(total, 1.0 / len(batch))


def _first_epoch(dataset, mcfg, tcfg, loss_fn):
    """Train the first epoch as train_model does, with loss_fn building each
    batch's loss. -> [(loss, gradients)] per step, final parameters."""
    samples = build_samples(dataset, "train", mcfg)
    params = init_params(mcfg, tcfg.seed)
    mean_pose = np.mean([s.pose for s in samples], axis=0).reshape(-1)
    params["head.out_bias"].data = mean_pose.copy()
    order = np.random.default_rng(
        np.random.SeedSequence([tcfg.seed, 909])).permutation(len(samples))
    steps = []
    for step, start in enumerate(range(0, len(order), tcfg.batch)):
        batch = [samples[i] for i in order[start:start + tcfg.batch]]
        loss = loss_fn(batch, params, mcfg, tcfg, step)
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
    samples = build_samples(tiny_dataset, "train", mcfg)
    params = init_params(mcfg, tcfg.seed)
    mean_pose = np.mean([s.pose for s in samples], axis=0).reshape(-1)
    params["head.out_bias"].data = mean_pose.copy()
    order = np.random.default_rng(
        np.random.SeedSequence([tcfg.seed, 909])).permutation(len(samples))
    batch = [samples[i] for i in order[:tcfg.batch]]
    loss = _per_sample_loss(batch, params, mcfg, tcfg, 0)
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
    samples = build_samples(tiny_dataset, "train", mcfg)
    last = [s for s in samples if s.gate_target is None]
    for batch in ([last[0], samples[3], last[1]], last):
        runs = []
        for loss_fn in (_per_sample_loss, training.batch_loss):
            params = init_params(mcfg, seed=6, randomize_all=True)
            loss = loss_fn(batch, params, mcfg, tcfg, 0)
            T.backward(loss)
            runs.append((loss.item(), params.grads()))
        (ref_loss, ref_grads), (loss, grads) = runs
        assert loss == ref_loss, len(batch)
        for name in ref_grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), (name, len(batch))


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
        assert len(windows) == 1
        for name, p in params.params.items():
            assert constants[name].data is p.data
        results.append(forward(windows, constants, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(training, "forward", recording_forward)
    _, preds, _ = evaluate_split(params, mcfg, tiny_dataset, "all")
    _, gate_preds, _, gates, _ = evaluate_split(params, mcfg, tiny_dataset, "all",
                                                collect_gates=True)
    for result in results:
        for t in (result.pose, result.gate):
            assert t is None or (not t.requires_grad and t._parents == ()
                                 and t._backprop is None)

    # reference: one forward per frame on the grad-carrying parameters, and
    # one forward of the whole sequence as a batch
    sequences = tiny_dataset.split_sequences("all")
    for (_, frames, _), seq_pred, seq_gate_pred, seq_gates in zip(
            sequences, preds, gate_preds, gates, strict=True):
        windows = [window for _, window in frame_windows(frames, frame_window)]
        whole = forward(windows, params, mcfg, train=False)
        for t, window in enumerate(windows):
            ref = forward([window], params, mcfg, train=False)
            assert ref.pose.requires_grad
            np.testing.assert_array_equal(seq_pred[t], ref.pose.data[0])
            np.testing.assert_array_equal(seq_gate_pred[t], ref.pose.data[0])
            np.testing.assert_array_equal(seq_pred[t], whole.pose.data[t])
            ref_gate = (np.zeros(mcfg.n_cells) if ref.gate is None
                        else ref.gate.data.reshape(-1))
            np.testing.assert_array_equal(seq_gates[t], ref_gate)
            if whole.gate is not None:
                np.testing.assert_array_equal(seq_gates[t], whole.gate.data[t, :, 0])
    for name, p in params.params.items():
        assert p.grad is untouched[name] and (p.grad == 7.0).all()


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
    batch = build_samples(tiny_dataset, "train", mcfg)[4:9]
    assert [s.gate_target is None for s in batch] == [False] * 3 + [True, False]

    reference = init_params(mcfg, seed=6, randomize_all=True)
    _retaining_backward(training.batch_loss(batch, reference, mcfg, tcfg, 0))
    params = init_params(mcfg, seed=6, randomize_all=True)
    loss = training.batch_loss(batch, params, mcfg, tcfg, 0)
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
