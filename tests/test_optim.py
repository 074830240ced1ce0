import numpy as np
import pytest

from pulse import tensor as T
from pulse.errors import DomainError, UsageError
from pulse.model import _lattice_band
from pulse.optim import (ParamGroup, adam_step, clip_global_norm, grad_check,
                         group_errors_by_prefix, uniform_init)
from tests.conftest import one


def make_group(values):
    group = ParamGroup()
    for name, v in values.items():
        group.add(name, v)
    return group


def with_grads(group, grads):
    """The group with each named gradient set as backward would leave it."""
    for name, g in grads.items():
        group[name].grad = np.array(g, dtype=np.float64)
    return group


# ---------------------------------------------------------------------------
# grad_check on each differentiable op at random points

def batch_of_one(x):
    """x as a batch of one sample. A probed tensor enters through a batched
    add, as a parameter enters a forward, so its gradient takes the deferred
    per-sample path of the backward a training step runs; an array becomes
    a batched leaf."""
    if isinstance(x, T.Tensor):
        return T.add(T.Tensor(np.zeros((1,) + (1,) * x.data.ndim), batched=True), x)
    return one(x)


def op_cases():
    rng = np.random.default_rng(11)

    def c(name, build, shape):
        return name, build, rng.standard_normal(shape)

    gain = rng.standard_normal(5) * 0.3 + 1.0
    bias = rng.standard_normal(5) * 0.3
    other = rng.standard_normal((4, 5)) + 2.5
    w = rng.standard_normal((5, 3))
    # attention: dense over 5 keys, and banded on a 16x8 grid of 2x4
    # patches with window 4, which clips at the top and bottom rows
    keys = rng.standard_normal((5, 4))
    band = _lattice_band(16, 8, 2, 4, 4)
    queries = rng.standard_normal((16, 4))
    cells = rng.standard_normal((128, 4))
    gates = rng.uniform(0.0, 1.0, (128, 1))
    target = rng.standard_normal((16, 4))

    def dense(q, kv=keys, b=None, weights=other[:, :4]):
        out, _ = T.attention(batch_of_one(q), batch_of_one(kv), batch_of_one(kv), 2, 0.7,
                             bias=None if b is None else batch_of_one(b))
        return T.tsum(T.mul(out, T.Tensor(weights)))

    def banded(q=queries, k=cells, v=cells, b=gates):
        out, _ = T.attention(batch_of_one(q), batch_of_one(k), batch_of_one(v), 2, 0.6,
                             bias=batch_of_one(b), band=band)
        return T.tsum(T.mul(out, T.Tensor(target)))

    cases = [
        c("add", lambda x: T.tsum(T.add(x, T.Tensor(other))), (4, 5)),
        c("sub", lambda x: T.tsum(T.sub(T.Tensor(other), x)), (4, 5)),
        c("mul", lambda x: T.tsum(T.mul(x, T.Tensor(other))), (4, 5)),
        c("div", lambda x: T.tsum(T.div(x, T.Tensor(other))), (4, 5)),
        c("scale", lambda x: T.tsum(T.scale(x, -1.7)), (4, 5)),
        c("matmul", lambda x: T.tsum(T.matmul(x, T.Tensor(w))), (4, 5)),
    ]
    # the point of the deleted transpose case is still drawn, so every later
    # case keeps its point
    rng.standard_normal((4, 5))
    return cases + [
        c("reshape", lambda x: T.tsum(T.mul(T.reshape(x, (2, 10)),
                                            T.Tensor(other.reshape(2, 10)))), (4, 5)),
        c("concat", lambda x: T.tsum(T.mul(T.concat_lastdim([x, x]),
                                           T.Tensor(np.tile(other, (1, 2))))), (4, 5)),
        c("mean", lambda x: T.tsum(T.mul(T.mean_over_axis(x, 0), T.Tensor(other[0]))), (4, 5)),
        c("relu", lambda x: T.tsum(T.mul(T.relu(x), T.Tensor(other))), (4, 5)),
        c("sigmoid", lambda x: T.tsum(T.mul(T.sigmoid(x), T.Tensor(other))), (4, 5)),
        c("sqrt", lambda x: T.tsum(T.sqrt(T.mul(x, x))), (4, 5)),
        c("softmax", lambda x: dense(x), (4, 4)),
        c("softmax_bias", lambda x: dense(other[:, :4], b=x, weights=other[:, 1:]), (5, 1)),
        c("attention", lambda x: dense(x, kv=x), (4, 4)),
        c("attention_band_q", lambda x: banded(q=x), (16, 4)),
        c("attention_band_k", lambda x: banded(k=x), (128, 4)),
        c("attention_band_v", lambda x: banded(v=x), (128, 4)),
        c("attention_band_bias", lambda x: banded(b=x), (128, 1)),
        c("layer_norm", lambda x: T.tsum(T.mul(
            T.layer_norm(x, T.Tensor(gain), T.Tensor(bias)), T.Tensor(other))), (4, 5)),
        c("dropout", lambda x: T.tsum(T.mul(T.dropout(batch_of_one(x), 0.4, key=[9],
                                                      train=True),
                                            T.Tensor(other))), (4, 5)),
    ]


@pytest.mark.parametrize("name,build,point", op_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_grad_check_per_op(name, build, point):
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(1000 + 17 * trial)
        group = make_group({"x": point + 0.05 * rng.standard_normal(point.shape)})
        report = grad_check(lambda g: build(g["x"]), group)
        worst = max(worst, report["x"])
    assert worst < 1e-4, f"{name}: max rel err {worst}"


def test_grad_check_linear_is_exact():
    group = make_group({"x": np.array([0.3, -1.2, 4.0])})
    report = grad_check(lambda g: T.tsum(g["x"]), group)
    assert report["x"] < 1e-10


def test_grad_check_sigmoid_at_zero():
    group = make_group({"x": np.zeros(3)})
    group.zero_grad()
    loss = T.tsum(T.sigmoid(group["x"]))
    T.backward(loss)
    np.testing.assert_allclose(group["x"].grad, 0.25, atol=1e-12)
    report = grad_check(lambda g: T.tsum(T.sigmoid(g["x"])), group)
    assert report["x"] < 1e-4


def test_grad_check_names_worst_entry():
    # relu at exactly 0: autodiff takes the zero branch, the central
    # difference sees slope 1/2, so entry 1 of "y" is the worst entry
    group = make_group({"x": np.array([0.5, -2.0]), "y": np.array([1.0, 0.0, 3.0])})
    report = grad_check(lambda g: T.add(T.tsum(g["x"]), T.tsum(T.relu(g["y"]))),
                        group)
    name, index, analytic, numeric = report.worst
    assert (name, index, analytic) == ("y", 1, 0.0)
    assert numeric == pytest.approx(0.5, rel=1e-6)
    assert report["y"] == 1.0 and report["x"] < 1e-8


def test_grad_check_rejects_bad_step():
    group = make_group({"x": np.zeros(2)})
    with pytest.raises(DomainError):
        grad_check(lambda g: T.tsum(g["x"]), group, step=0.0)


def test_two_layer_mlp_grad_check():
    rng = np.random.default_rng(21)
    group = make_group({
        "w1": uniform_init(rng, (6, 8), 6),
        "b1": np.zeros(8),
        "w2": uniform_init(rng, (8, 2), 8),
        "b2": np.zeros(2),
    })
    x = T.Tensor(rng.standard_normal((5, 6)))
    target = T.Tensor(rng.standard_normal((5, 2)))

    def build(g):
        h = T.relu(T.affine(x, g["w1"], g["b1"]))
        out = T.affine(h, g["w2"], g["b2"])
        diff = T.sub(out, target)
        return T.mean_over_axis(T.reshape(T.mul(diff, diff), (10,)), axis=0)

    report = grad_check(build, group)
    assert max(report.values()) < 1e-4


# ---------------------------------------------------------------------------
# adam / clipping

def test_adam_zero_grads_no_decay_leaves_params():
    group = make_group({"w": np.array([1.0, -2.0])})
    adam_step(group, np.zeros(2), lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(group["w"].data, [1.0, -2.0])


def test_clip_below_threshold_unchanged():
    group = with_grads(make_group({"a": np.zeros(2)}), {"a": [0.3, 0.4]})  # norm 0.5
    clipped, norm = clip_global_norm(group, 1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(clipped, group["a"].grad)


def test_clip_rescales_to_max_norm():
    group = with_grads(make_group({"a": np.zeros(2), "b": np.zeros(1)}),
                       {"a": [3.0, 0.0], "b": [4.0]})  # norm 5
    clipped, norm = clip_global_norm(group, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(float((clipped * clipped).sum()))
    assert total == pytest.approx(1.0)
    np.testing.assert_allclose(clipped[:2], [0.6, 0.0])


def test_adam_single_scalar_matches_hand_recurrence():
    lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
    theta0, g = 2.0, 0.5
    group = make_group({"w": np.array([theta0])})
    adam_step(group, np.array([g]), lr=lr, beta1=b1, beta2=b2,
              eps_adam=eps, weight_decay=wd)
    # hand recurrence: decoupled decay first, then bias-corrected Adam
    theta = theta0 - lr * wd * theta0
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    theta -= lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    assert abs(group["w"].data[0] - theta) < 1e-12


def test_adam_two_steps_match_hand_recurrence():
    lr, b1, b2, eps = 0.05, 0.8, 0.99, 1e-8
    group = make_group({"w": np.array([1.0])})
    grads = [0.3, -0.7]
    m = v = 0.0
    theta = 1.0
    for t, g in enumerate(grads, start=1):
        adam_step(group, np.array([g]), lr=lr, beta1=b1, beta2=b2,
                  eps_adam=eps, weight_decay=0.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert abs(group["w"].data[0] - theta) < 1e-12


def test_adam_rejects_bad_betas():
    group = make_group({"w": np.array([1.0])})
    with pytest.raises(DomainError):
        adam_step(group, np.array([0.0]), lr=0.1, beta1=1.0)


def test_group_errors_by_prefix():
    table = {"head.l1.weight": 1e-6, "head.l2.weight": 3e-6, "gate.weight": 2e-7}
    grouped = group_errors_by_prefix(table)
    assert grouped == {"head": 3e-6, "gate": 2e-7}


def test_moment_buffers_match_shapes_and_start_zero():
    # no buffers before the first step; a zero-gradient first step without
    # decay leaves the zeroed buffers zero
    group = make_group({"w": np.ones((3, 2)), "b": np.ones(2)})
    assert group.moments == {}
    adam_step(group, np.zeros(8), lr=0.1)
    assert list(group.moments) == group.names()
    for name, (m, v) in group.moments.items():
        assert m.shape == v.shape == group[name].data.shape
        assert np.all(m == 0.0) and np.all(v == 0.0)


def _reference_step(values, moments, grads, t, max_norm, lr, weight_decay,
                    beta1=0.9, beta2=0.999, eps_adam=1e-8):
    """clip_global_norm and adam_step as a loop over the parameters, the
    form the arena replaced, kept as its reference. -> the global norm."""
    sq = 0.0
    for g in grads.values():
        sq += float((g * g).sum())
    norm = np.sqrt(sq)
    if norm > max_norm:
        grads = {name: g * (max_norm / norm) for name, g in grads.items()}
    bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for name, p in values.items():
        g = grads[name]
        if weight_decay:
            p -= lr * weight_decay * p
        m, v = moments.setdefault(name, (np.zeros_like(p), np.zeros_like(p)))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps_adam)
    return norm


def test_arena_adam_is_bitwise_the_per_parameter_loop():
    rng = np.random.default_rng(31)
    shapes = {"w1": (6, 5), "b1": (5,), "gain": (1,), "w2": (3, 4, 5), "bias": (7,)}
    start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    group = make_group({name: v.copy() for name, v in start.items()})
    values, moments = {name: v.copy() for name, v in start.items()}, {}
    clipped = 0
    for t in range(1, 9):
        # every third step's gradient lies within max_norm, the others
        # clip; on odd steps "gain" gets no gradient, which reads as zeros
        scale = 0.01 if t % 3 == 0 else 1.0
        grads = {name: scale * rng.standard_normal(shape)
                 for name, shape in shapes.items()}
        if t % 2:
            grads["gain"] = np.zeros(1)
        group.zero_grad()
        with_grads(group, {n: g for n, g in grads.items() if n != "gain" or t % 2 == 0})
        flat, norm = clip_global_norm(group, 2.0)
        adam_step(group, flat, lr=0.01, weight_decay=0.1)
        assert norm == _reference_step(values, moments, grads, t, 2.0, 0.01, 0.1)
        clipped += norm > 2.0
        for name in shapes:
            assert group[name].data.tobytes() == values[name].tobytes(), (name, t)
            for got, ref in zip(group.moments[name], moments[name], strict=True):
                assert got.tobytes() == ref.tobytes(), (name, t)
    assert clipped == 6


def test_arena_adam_ignores_the_sign_of_a_zero_gradient():
    # a sample that contributes only zeros to a gradient may flip a zero's
    # sign; clipping and Adam must then leave every bit as it was
    rng = np.random.default_rng(41)
    shapes = {"w": (4, 3), "b": (3,), "unused": (2,)}
    start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    groups = [make_group({n: v.copy() for n, v in start.items()}) for _ in range(2)]
    for _ in range(3):
        # nonzero moments, except "unused", whose gradient has been all zeros
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        grads["unused"] = np.zeros(2)
        for group in groups:
            with_grads(group, grads)
            adam_step(group, clip_global_norm(group, 1.0)[0], lr=0.01, weight_decay=0.1)
    grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    zeros = {"w": (slice(None), 1), "b": 2, "unused": slice(None)}
    for group, zero in zip(groups, (-0.0, 0.0)):
        signed = {name: g.copy() for name, g in grads.items()}
        for name, where in zeros.items():
            signed[name][where] = zero
        with_grads(group, signed)
        flat, norm = clip_global_norm(group, 1.0)
        assert norm > 1.0
        adam_step(group, flat, lr=0.01, weight_decay=0.1)
    negative, positive = groups
    assert np.signbit(negative.arena()[1]).sum() > np.signbit(positive.arena()[1]).sum()
    for name in shapes:
        assert negative[name].data.tobytes() == positive[name].data.tobytes(), name
        for a, b in zip(negative.moments[name], positive.moments[name], strict=True):
            assert a.tobytes() == b.tobytes(), name


def test_arena_parameters_are_views_and_rebinding_raises():
    group = make_group({"w": np.ones((2, 3)), "b": np.zeros(3)})
    group.load_values({"w": np.full((2, 3), 2.0), "b": np.ones(3)})
    assert group._arena is None and group.moments == {}
    with_grads(group, {"w": np.ones((2, 3))})
    adam_step(group, clip_global_norm(group, 1.0)[0], lr=0.1)
    values = group.arena()[0]
    assert all(np.shares_memory(p.data, values) for p in group.params.values())
    # in-place writes land in the arena
    group["b"].data[...] = 5.0
    group.load_values({"w": np.zeros((2, 3)), "b": np.ones(3)})
    np.testing.assert_array_equal(values, [0.0] * 6 + [1.0] * 3)
    # a rebound .data would train a stale arena
    group["w"].data = np.zeros((2, 3))
    with pytest.raises(UsageError, match="'w'"):
        adam_step(group, np.zeros(9), lr=0.1)
    with pytest.raises(UsageError, match="'w'"):
        clip_global_norm(group, 1.0)
    with pytest.raises(UsageError, match="'late'"):
        group.add("late", np.zeros(1))
    with pytest.raises(UsageError, match="flat gradient of 2 entries"):
        adam_step(make_group({"w": np.zeros(2)}), np.zeros(3), lr=0.1)
