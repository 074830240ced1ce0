import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulse import tensor as T
from pulse.errors import DomainError, ShapeError, UsageError
from pulse.model import _lattice_band
from tests.conftest import one


def rand(rng, *shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# values

def test_tensor_keeps_float32_and_float64_and_casts_the_rest_to_float64():
    x32 = np.arange(6, dtype=np.float32).reshape(2, 3)
    x64 = x32.astype(np.float64)
    assert T.Tensor(x32).data is x32
    assert T.Tensor(x64).data is x64
    for other in (np.arange(3), np.arange(3, dtype=np.float16), [1.0, 2.0],
                  np.float32(2.0), 3):
        assert T.Tensor(other).data.dtype == np.float64, other


def test_band_windows_and_overlap_add_keep_the_input_dtype():
    band = _lattice_band(16, 8, 2, 4, 3)
    rng = np.random.default_rng(3)
    for dtype in (np.float32, np.float64):
        keys = rand(rng, 2, 128, 4).astype(dtype)
        windows = band.windows(keys, 2)
        assert windows.dtype == dtype
        assert band.overlap_add(windows[0]).dtype == dtype


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = T.Tensor(np.eye(2))
    np.testing.assert_array_equal(T.matmul(eye, a).data, a.data)


def test_matmul_zero():
    rng = np.random.default_rng(0)
    a = T.Tensor(rand(rng, 3, 4))
    z = T.Tensor(np.zeros((4, 2)))
    np.testing.assert_array_equal(T.matmul(a, z).data, np.zeros((3, 2)))


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(1)
    a = rand(rng, 3, 4)
    b = rand(rng, 4, 2)
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.max(np.abs(got - expected)) < 1e-12


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_backward_rules():
    rng = np.random.default_rng(2)
    a = T.Tensor(rand(rng, 3, 4), requires_grad=True)
    b = T.Tensor(rand(rng, 4, 2), requires_grad=True)
    c = T.matmul(a, b)
    w = rand(rng, 3, 2)  # arbitrary cotangent via weighted sum
    loss = T.tsum(T.mul(c, T.Tensor(w)))
    T.backward(loss)
    np.testing.assert_allclose(a.grad, w @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ w, atol=1e-12)


# ---------------------------------------------------------------------------
# attention: its softmax, the band and its backward

def attend(q, k, v=None, bias=None, band=None, heads=1, scale=1.0):
    """One sample's attention weights, (heads, G, N / G, K): a batch of one
    of each array."""
    _, p = T.attention(one(q), one(k), one(k if v is None else v), heads, scale,
                       bias=None if bias is None else one(bias), band=band)
    return p[0]


def test_attention_equal_logits_weigh_keys_equally():
    # zero queries: every key gets the same logit
    p = attend(np.zeros((1, 2)), np.arange(8.0).reshape(4, 2))
    np.testing.assert_allclose(p[0, 0], [[0.25, 0.25, 0.25, 0.25]], atol=1e-15)


def test_attention_hand_case():
    p = attend(np.ones((1, 1)), np.array([[0.0], [math.log(3.0)]]))
    np.testing.assert_allclose(p[0, 0], [[0.25, 0.75]], atol=1e-12)


def test_attention_bias_shift_invariance():
    rng = np.random.default_rng(3)
    q, k = rand(rng, 5, 4), rand(rng, 6, 4)
    bias = rand(rng, 1, 6).T             # one logit bias per key, a column
    base = attend(q, k, bias=bias, heads=2)
    shifted = attend(q, k, bias=bias + 7.25, heads=2)
    assert np.max(np.abs(base - shifted)) < 1e-12


def test_attention_band_zeroes_and_renormalizes():
    rng = np.random.default_rng(4)
    band = _lattice_band(16, 8, 2, 4, 3)
    p = attend(rand(rng, 16, 4), rand(rng, 128, 4), band=band, heads=2)
    assert p.shape == (2,) + band.visible.shape
    assert np.all(p[:, ~band.visible] == 0.0) and np.all(p[:, band.visible] > 0.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_band_fully_hidden_row_rejected():
    visible = np.ones((2, 2, 4), dtype=bool)
    visible[1, 0, :3] = False
    T.Band(visible, 0, 2)
    visible[1, 0, 3] = False
    with pytest.raises(DomainError):
        T.Band(visible, 0, 2)


def test_attention_rejects_unbatched_inputs():
    x = np.zeros((4, 2))
    with pytest.raises(ShapeError, match="batched"):
        T.attention(T.Tensor(x), T.Tensor(x), T.Tensor(x), 1, 1.0)
    with pytest.raises(ShapeError, match="batched"):
        T.attention(one(x), T.Tensor(x), one(x), 1, 1.0)


def test_attention_rejects_a_row_bias():
    # the bias is a (B, M, 1) column, the shape of a gate; a (1, M) row is
    # the layout of no caller
    with pytest.raises(ShapeError, match=r"\(B, M, 1\) = \(1, 6, 1\), got \(1, 6\)"):
        T.attention(one(np.zeros((5, 4))), one(np.zeros((6, 4))), one(np.zeros((6, 4))),
                    2, 1.0, bias=T.Tensor(np.zeros((1, 6))))


def test_attention_band_shape_mismatch_rejected():
    band = _lattice_band(16, 8, 2, 4, 3)
    with pytest.raises(ShapeError):
        attend(np.zeros((16, 4)), np.zeros((64, 4)), band=band)
    with pytest.raises(ShapeError):
        attend(np.zeros((8, 4)), np.zeros((128, 4)), band=band)
    with pytest.raises(ShapeError):
        attend(np.zeros((16, 4)), np.zeros((128, 4)), bias=np.zeros((16, 128)),
               band=band)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 5))
def test_attention_band_rows_sum_to_one(seed, patches_r, patches_a, patch_r, patch_a, w):
    rng = np.random.default_rng(seed)
    R, A = patches_r * patch_r, patches_a * patch_a
    band = _lattice_band(R, A, patch_r, patch_a, w)
    p = attend(10.0 * rand(rng, patches_r * patches_a, 2),
               rand(rng, R * A, 2), bias=rand(rng, 1, R * A).T, band=band)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p[:, ~band.visible] == 0.0)


def masked_softmax_reference(p, band):
    """T._softmax of banded logits as it was before the band became an
    additive offset, kept as its reference: the row max and the
    exponentials read only the visible keys, and the hidden ones are set
    to 0.0."""
    p -= p.max(axis=-1, keepdims=True, where=band.visible, initial=-np.inf)
    np.exp(p, out=p, where=band.visible)
    np.copyto(p, 0.0, where=~band.visible)
    p /= p.sum(axis=-1, keepdims=True)


# (R, A, patch_r, patch_a, window): the desk and full profiles, the grid of
# tools/cli_pipeline.sh, and a seeded sample of the band geometry sweep's
# patch grids 1-8 x 1-8 and patch sizes 1-4, with windows 1-9 (a window
# twice the patch grid sees every key, as window 99 does)
_SAMPLE = np.random.default_rng(27).integers([1, 1, 1, 1, 1], [9, 9, 5, 5, 10], (8, 5))
BAND_GEOMETRIES = {
    "desk": (32, 32, 4, 4, 3), "full": (64, 64, 4, 4, 3), "pipeline": (16, 16, 4, 4, 3),
    "window99": (12, 8, 3, 2, 99),
    **{f"grid{gr}x{ga}_patch{pr}x{pa}_w{w}": (gr * pr, ga * pa, pr, pa, w)
       for gr, ga, pr, pa, w in _SAMPLE.tolist()},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geometry", list(BAND_GEOMETRIES.values()),
                         ids=list(BAND_GEOMETRIES))
def test_banded_attention_is_bitwise_the_masked_softmax(geometry, dtype, monkeypatch):
    band = _lattice_band(*geometry)
    n, m = band.groups * band.rows_per_group, band.groups * band.block
    rng = np.random.default_rng(list(geometry))
    for batch in (1, 4):
        values = [3.0 * rand(rng, batch, n, 8), rand(rng, batch, m, 8),
                  rand(rng, batch, m, 8), rand(rng, batch, m, 1)]
        upstream = rand(rng, batch, n, 8)
        for with_bias in (False, True):
            def run():
                leaves = [T.Tensor(x.astype(dtype), requires_grad=dtype == np.float64,
                                   batched=True) for x in values]
                q, k, v, bias = leaves
                ctx, p = T.attention(q, k, v, 2, 0.7, bias=bias if with_bias else None,
                                     band=band)
                out = [p, ctx.data]
                if dtype == np.float64:
                    T.backward(T.fold_sum(T.tsum(T.mul(ctx, upstream), axis=(1, 2))))
                    out += [x.grad for x in leaves[:3 + with_bias]]
                return out

            got = run()
            with monkeypatch.context() as patch:
                patch.setattr(T, "_softmax", masked_softmax_reference)
                want = run()
            assert got[0].dtype == dtype and len(got) == len(want)
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.tobytes() == b.tobytes(), (batch, with_bias, i)


# ---------------------------------------------------------------------------
# elementwise ops / layer_norm / dropout

def test_sigmoid_zero():
    assert T.sigmoid(T.Tensor(0.0)).item() == 0.5


def test_sigmoid_extreme_inputs_finite():
    out = T.sigmoid(T.Tensor([-1e4, 1e4])).data
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 1.0


def test_dropout_eval_is_identity():
    rng = np.random.default_rng(5)
    x = T.Tensor(rand(rng, 4, 4))
    out = T.dropout(x, 0.1, key=123, train=False)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_deterministic_given_key():
    rng = np.random.default_rng(6)
    x = one(rand(rng, 8, 8))
    a = T.dropout(x, 0.5, key=[42], train=True).data
    b = T.dropout(x, 0.5, key=[42], train=True).data
    np.testing.assert_array_equal(a, b)
    c = T.dropout(x, 0.5, key=[43], train=True).data
    assert not np.array_equal(a, c)


def test_train_dropout_rejects_an_unbatched_tensor():
    x = T.Tensor(np.ones((4, 4)))
    with pytest.raises(ShapeError, match="batched"):
        T.dropout(x, 0.5, key=[42], train=True)


def test_layer_norm_hand_case():
    x = T.Tensor([[1.0, 2.0, 3.0]])
    gain = T.Tensor(np.ones(3))
    bias = T.Tensor(np.zeros(3))
    out = T.layer_norm(x, gain, bias).data[0]
    assert abs(out.mean()) < 1e-12
    assert abs(out.var() - 1.0) < 1e-12
    # hand: centered (-1,0,1), std sqrt(2/3)
    np.testing.assert_allclose(out, np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0 / 3.0),
                               atol=1e-12)


def test_mean_over_axis():
    x = T.Tensor([[1.0, 3.0], [5.0, 7.0]])
    np.testing.assert_allclose(T.mean_over_axis(x, axis=0).data, [3.0, 5.0])
    np.testing.assert_allclose(T.mean_over_axis(x, axis=1).data, [2.0, 6.0])


# ---------------------------------------------------------------------------
# backward

def test_backward_sum_gives_ones():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square_analytic():
    x = T.Tensor([1.0, -2.0, 0.0], requires_grad=True)
    T.backward(T.tsum(T.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, -4.0, 0.0])


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(UsageError):
        T.backward(T.mul(x, x))


def test_backward_fanout_sums_both_paths():
    # y = x*x + 3x reuses x in two consumers; grad must be 2x + 3.
    x = T.Tensor([1.5, -0.5], requires_grad=True)
    loss = T.tsum(T.add(T.mul(x, x), T.scale(x, 3.0)))
    T.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0, atol=1e-15)

    # Compare against the two single-path gradients summed.
    x1 = T.Tensor(x.data, requires_grad=True)
    T.backward(T.tsum(T.mul(x1, x1)))
    x2 = T.Tensor(x.data, requires_grad=True)
    T.backward(T.tsum(T.scale(x2, 3.0)))
    np.testing.assert_allclose(x.grad, x1.grad + x2.grad, atol=1e-15)


def test_second_backward_on_a_consumed_graph_raises():
    x = T.Tensor([[3.0]])
    w = T.Tensor([[2.0]], requires_grad=True)
    y = T.matmul(x, w)
    loss = T.tsum(T.mul(y, y))
    T.backward(loss)
    np.testing.assert_array_equal(w.grad, [[36.0]])
    with pytest.raises(UsageError):
        T.backward(loss)
    # a new graph on top of a consumed node cannot reach w either
    with pytest.raises(UsageError):
        T.backward(T.tsum(T.scale(y, 2.0)))
    np.testing.assert_array_equal(w.grad, [[36.0]])


def test_broadcast_add_unbroadcasts_grad():
    x = T.Tensor(np.ones((3, 4)), requires_grad=True)
    b = T.Tensor(np.zeros(4), requires_grad=True)
    T.backward(T.tsum(T.add(x, b)))
    np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0, 3.0])
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_forward_ops_finite_on_finite_inputs():
    rng = np.random.default_rng(7)
    x = one(1e3 * rand(rng, 4, 5))
    for out in (T.attention(x, x, x, 5, 1.0)[0], T.sigmoid(x), T.relu(x),
                T.layer_norm(x, T.Tensor(np.ones(5)), T.Tensor(np.zeros(5)))):
        assert np.all(np.isfinite(out.data))



# ---------------------------------------------------------------------------
# the batch axis: each sample bitwise as if alone

def _per_sample_and_batched(build, batch_inputs, params):
    """Run build(inputs, params) -> scalar loss once per sample and once on
    the batch; -> (per-sample outputs, batched output, per-sample loop
    gradients, batched gradients) with gradients keyed by parameter index."""
    def fresh():
        return [T.Tensor(p, requires_grad=True) for p in params]

    loop_params = fresh()
    outs, total = [], None
    for sample in zip(*batch_inputs):
        out, loss = build([T.Tensor(x[None], batched=True) for x in sample],
                          loop_params)
        outs.append(out.data[0])
        total = loss if total is None else T.add(total, loss)
    T.backward(total)
    batch_params = fresh()
    out, loss = build([T.Tensor(x, batched=True) for x in batch_inputs], batch_params)
    T.backward(T.fold_sum(loss))
    return (outs, out.data, [p.grad for p in loop_params],
            [p.grad for p in batch_params])


@pytest.mark.parametrize("with_band", [False, True])
def test_batched_ops_match_per_sample_bitwise(with_band):
    rng = np.random.default_rng(11)
    band = _lattice_band(8, 8, 4, 4, 3) if with_band else None
    n, m, d, batch = 4, 64, 4, 5
    inputs = [rand(rng, batch, n, 3), rand(rng, batch, m, 3),
              rand(rng, batch, 1, m).reshape(batch, m, 1)]
    params = [rand(rng, 3, d), rand(rng, d), rand(rng, d), rand(rng, d),
              rand(rng, 3, d), rand(rng, n * d, 2)]

    def build(x, p):
        tokens, keys, bias = x
        w, b, gain, shift, wk, head = p
        h = T.layer_norm(T.affine(tokens, w, b), gain, shift)
        kv = T.matmul(keys, wk)
        ctx, _ = T.attention(h, kv, kv, 2, 0.7, bias=bias, band=band)
        out = T.matmul(T.reshape(T.relu(ctx), (len(tokens.data), 1, n * d)), head)
        loss = T.mean_over_axis(T.tsum(T.mul(out, out), axis=-1), axis=-1)
        return out, loss

    outs, out, loop_grads, batch_grads = _per_sample_and_batched(build, inputs, params)
    for k, one in enumerate(outs):
        np.testing.assert_array_equal(out[k], one)
    for i, (want, got) in enumerate(zip(loop_grads, batch_grads, strict=True)):
        np.testing.assert_array_equal(got, want, err_msg=f"param {i}")


def test_batched_dropout_draws_each_samples_own_mask():
    rng = np.random.default_rng(12)
    x = rand(rng, 3, 4, 5)
    batched = T.dropout(T.Tensor(x, batched=True), 0.3, [7, 8, 9], train=True).data
    for k, key in enumerate([7, 8, 9]):
        np.testing.assert_array_equal(
            batched[k], T.dropout(one(x[k]), 0.3, [key], train=True).data[0])
    with pytest.raises(ShapeError):
        T.dropout(T.Tensor(x, batched=True), 0.3, [7, 8], train=True)


def test_fold_sum_is_the_left_fold():
    values = np.array([1.0] + [1e-16] * 9)
    loop = 0.0 + values[0]
    for v in values[1:]:
        loop += v
    assert loop != values.sum()      # numpy sums these pairwise
    x = T.Tensor(values, requires_grad=True, batched=True)
    total = T.fold_sum(x)
    assert total.item() == loop and not total.batched
    T.backward(total)
    np.testing.assert_array_equal(x.grad, np.ones(10))


def test_batched_op_rejects_a_shared_interior_tensor():
    w = T.Tensor(np.ones((2, 2)), requires_grad=True)
    shared = T.scale(w, 2.0)          # unbatched, and not a leaf
    x = T.Tensor(np.ones((3, 1, 2)), batched=True)
    loss = T.fold_sum(T.reshape(T.tsum(T.matmul(x, shared), axis=(1, 2)), (3,)))
    with pytest.raises(UsageError):
        T.backward(loss)
    assert w._parts is None


# ---------------------------------------------------------------------------
# fused layers: bitwise their composites of primitives

def _affine_composite(x, w, b):
    """T.affine as it was built from primitives, kept as its reference."""
    return T.add(T.matmul(x, w), b)


def _layer_norm_composite(x, gain, bias):
    """T.layer_norm as it was built from primitives, kept as its reference."""
    mu = T.mean_over_axis(x, axis=-1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.mean_over_axis(T.mul(centered, centered), axis=-1, keepdims=True)
    sd = T.sqrt(T.add(var, T.LAYER_NORM_VAR_EPS))
    return T.add(T.mul(T.div(centered, sd), gain), bias)


@pytest.mark.parametrize("batched", [False, True])
def test_fused_layers_are_bitwise_their_composites(batched):
    rng = np.random.default_rng(13)
    shape = (3, 5, 4) if batched else (5, 4)
    values = [rand(rng, *shape), rand(rng, 4, 6), rand(rng, 6), 1.0 + rand(rng, 6),
              rand(rng, 6), rand(rng, 6, 6)]

    def total(t):
        return T.fold_sum(T.tsum(t, axis=(1, 2))) if batched else T.tsum(t)

    def run(affine, layer_norm):
        x, w, b, gain, shift, w2 = [T.Tensor(v, requires_grad=True, batched=batched and i == 0)
                                    for i, v in enumerate(values)]
        h = affine(x, w, b)
        # h feeds a layer norm, the residual add and a third consumer; the
        # gain, the shift and the bias b are each used twice
        r = T.add(h, layer_norm(h, gain, shift))
        third = T.mul(h, h)
        out = affine(T.relu(layer_norm(r, gain, shift)), w2, b)
        loss = T.add(total(T.mul(out, out)), total(third))
        T.backward(loss)
        return [out.data, loss.data] + [t.grad for t in (x, w, b, gain, shift, w2)]

    fused = run(T.affine, T.layer_norm)
    for i, (got, want) in enumerate(zip(fused, run(_affine_composite, _layer_norm_composite),
                                        strict=True)):
        assert got.tobytes() == want.tobytes(), i
