import numpy as np
import pytest

from pulse import tensor as T
from pulse.errors import ConfigError, DataError, UsageError
from pulse.features import spatial_magnitude
from pulse.model import (ABLATIONS, ModelConfig,
                         aggregate_doppler_multiframe,
                         conditional_cross_attention, config_from_text,
                         config_to_text, forward, gate, init_params,
                         naive_concat_update, neighborhood, neighborhood_band,
                         param_table,
                         params_from_arrays, patch_matrix, regress, residual_update, spatial_transformer,
                         tokenize_doppler, tokenize_spatial)
from pulse.optim import grad_check, group_errors_by_prefix
from pulse.training import loss_pos
from tests.conftest import one


def desk_cfg(**kw):
    base = dict(R=16, A=16, D=8, patch_r=4, patch_a=4, embed_dim=8, layers=2,
                heads=2, dropout=0.1, neighborhood=3, joints=4)
    base.update(kw)
    return ModelConfig(**base)


def rand_frames(cfg, seed, n=None):
    rng = np.random.default_rng(seed)
    return [rng.random((cfg.R, cfg.A, cfg.D)) for _ in range(n or cfg.frame_window)]


def tokens_of(frame, params, cfg):
    """Spatial and Doppler tokens of one frame, each a batch of one."""
    return (tokenize_spatial(spatial_magnitude(frame)[None], params, cfg),
            tokenize_doppler([frame], params))


def dense_weights(weights, cfg):
    """One sample's window weights of conditional_cross_attention, (heads,
    G, N_s / G, K), as dense (heads, N_s, N_v) rows: each token's visible
    window entries scattered onto its neighborhood cells, zeros elsewhere.
    Asserts that every hidden window entry is exactly 0."""
    band = neighborhood_band(cfg)
    if band is None:
        return weights[:, 0]
    assert np.all(weights[:, band.hidden] == 0.0)
    dense = np.zeros((len(weights), cfg.n_spatial, cfg.n_cells))
    for i in range(cfg.n_spatial):
        group, token = divmod(i, cfg.patches_a)
        dense[:, i, neighborhood(i, cfg)] = weights[:, group, token][:, band.visible[group, token]]
    return dense


# ---------------------------------------------------------------------------
# Config

def test_table_scale_token_counts():
    cfg = ModelConfig()  # 64x64 grid, 4x4 patches
    assert cfg.n_spatial == 256
    assert cfg.n_cells == 4096


def test_config_divisibility_enforced():
    with pytest.raises(ConfigError):
        ModelConfig(R=30, A=32, patch_r=4, patch_a=4)
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=30, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(ablation="missing")


@pytest.mark.parametrize("bad", [dict(heads=0), dict(patch_a=0), dict(joints=0),
                                 dict(layers=-1), dict(agg_eps=float("nan")),
                                 dict(gate_strength=float("inf"))])
def test_config_rejects_nonpositive_sizes_and_nonfinite_scales(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        ModelConfig(**bad)


def test_config_text_round_trip():
    cfg = desk_cfg(gate_strength=0.5, ablation="ungated", agg_eps=1e-6)
    again = config_from_text(config_to_text(cfg))
    assert again == cfg


# ---------------------------------------------------------------------------
# Parameters

@pytest.mark.parametrize("ablation", ABLATIONS)
def test_param_table_is_init_params_layout(ablation):
    cfg = desk_cfg(ablation=ablation)
    for randomize_all in (False, True):
        params = init_params(cfg, seed=3, randomize_all=randomize_all)
        assert [(n, params[n].data.shape) for n in params.names()] == \
            [(name, shape) for name, shape, _ in param_table(cfg)]


def test_params_from_arrays_shares_arrays_and_checks_the_table():
    cfg = desk_cfg()
    named = [(n, p.data) for n, p in init_params(cfg, seed=3).params.items()]
    params = params_from_arrays(cfg, named)
    assert all(params[n].data is values for n, values in named)
    assert params.moments == {}
    renamed = [("pos", named[0][1])] + named[1:]
    with pytest.raises(DataError, match="parameter 0 is 'pos', the model config "
                                        "expects 'spatial_encoder.weight'"):
        params_from_arrays(cfg, renamed)
    reshaped = named[:2] + [("pos_embed", np.zeros((3, 8)))] + named[3:]
    with pytest.raises(DataError, match=r"'pos_embed' shape \(3, 8\) != "
                                        r"expected \(16, 8\)"):
        params_from_arrays(cfg, reshaped)
    with pytest.raises(DataError, match=f"{len(named) - 1} parameters stored, "
                                        f"the model config has {len(named)}"):
        params_from_arrays(cfg, named[:-1])


# ---------------------------------------------------------------------------
# Tokenization

def test_spatial_token_count_and_zero_map_gives_pos():
    cfg = desk_cfg()
    params = init_params(cfg, seed=0)
    out = tokenize_spatial(np.zeros((1, cfg.R, cfg.A)), params, cfg)
    assert out.shape == (1, cfg.n_spatial, cfg.embed_dim)
    np.testing.assert_array_equal(out.data[0], params["pos_embed"].data)


def test_spatial_patch_permutation_permutes_content():
    cfg = desk_cfg()
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    s = rng.random((cfg.R, cfg.A))
    pm = patch_matrix(s[None], cfg)[0]
    base = tokenize_spatial(s[None], params, cfg).data[0] - params["pos_embed"].data
    # swap two patches by editing the map through the patch matrix layout
    pm2 = pm.copy()
    pm2[[3, 7]] = pm2[[7, 3]]
    blocks = pm2.reshape(cfg.patches_r, cfg.patches_a, cfg.patch_r, cfg.patch_a)
    s2 = blocks.transpose(0, 2, 1, 3).reshape(cfg.R, cfg.A)
    swapped = tokenize_spatial(s2[None], params, cfg).data[0] - params["pos_embed"].data
    np.testing.assert_allclose(swapped[3], base[7], atol=1e-12)
    np.testing.assert_allclose(swapped[7], base[3], atol=1e-12)


def test_doppler_token_count_and_shared_mlp():
    cfg = desk_cfg()
    params = init_params(cfg, seed=3)
    vol = np.zeros((cfg.R, cfg.A, cfg.D))
    vol[0, 0] = vol[2, 5] = np.linspace(0, 1, cfg.D)
    toks = tokenize_doppler([vol], params).data[0]
    assert toks.shape == (cfg.n_cells, cfg.embed_dim)
    np.testing.assert_array_equal(toks[0 * cfg.A + 0], toks[2 * cfg.A + 5])


def test_doppler_cell_independence():
    cfg = desk_cfg()
    params = init_params(cfg, seed=4)
    rng = np.random.default_rng(5)
    vol = rng.random((cfg.R, cfg.A, cfg.D))
    base = tokenize_doppler([vol], params).data[0]
    vol2 = vol.copy()
    vol2[3, 4] += 0.5
    toks2 = tokenize_doppler([vol2], params).data[0]
    changed = np.any(toks2 != base, axis=1)
    assert changed[3 * cfg.A + 4]
    assert changed.sum() == 1


# ---------------------------------------------------------------------------
# Gate

def test_gate_zero_params_half():
    cfg = desk_cfg()
    params = init_params(cfg, seed=6)
    params["token_gate.weight"].data[:] = 0.0
    params["token_gate.bias"].data[:] = 0.0
    toks = tokenize_doppler(rand_frames(cfg, 7), params)
    g = gate(toks, params).data
    np.testing.assert_array_equal(g, np.full((1, cfg.n_cells, 1), 0.5))


def test_gate_monotone_in_logit():
    cfg = desk_cfg()
    params = init_params(cfg, seed=8)
    toks = tokenize_doppler(rand_frames(cfg, 9), params)
    g = gate(toks, params).data[0]
    logits = toks.data[0] @ params["token_gate.weight"].data + params["token_gate.bias"].data
    order = np.argsort(logits[:, 0])
    assert np.all(np.diff(g[order, 0]) >= 0)
    assert np.all((g > 0) & (g < 1))


# ---------------------------------------------------------------------------
# Neighborhoods

def test_interior_neighborhood_144_cells():
    cfg = ModelConfig(R=32, A=32, D=8, patch_r=4, patch_a=4, neighborhood=3,
                      embed_dim=8, heads=2, layers=1)
    interior = (3 * cfg.patches_a) + 3
    assert len(neighborhood(interior, cfg)) == (3 * 4) ** 2


def test_corner_neighborhood_clipped_to_64():
    cfg = ModelConfig(R=32, A=32, D=8, patch_r=4, patch_a=4, neighborhood=3,
                      embed_dim=8, heads=2, layers=1)
    assert len(neighborhood(0, cfg)) == (2 * 4) ** 2


def test_window_covering_grid_matches_global():
    cfg = desk_cfg(neighborhood=99)
    cfg_global = desk_cfg(ablation="global_interaction")
    for i in (0, 5, cfg.n_spatial - 1):
        np.testing.assert_array_equal(neighborhood(i, cfg),
                                      neighborhood(i, cfg_global))
    assert len(neighborhood(0, cfg_global)) == cfg.n_cells


@pytest.mark.parametrize("kw", [{}, dict(neighborhood=1), dict(neighborhood=2),
                                dict(R=16, A=8, patch_r=2, patch_a=4, neighborhood=4)],
                         ids=["w3", "w1", "w2", "w4_rect"])
def test_neighborhood_rows_match_lists(kw):
    cfg = desk_cfg(**kw)
    # naive_concat's pooled token, passed through a fuse layer [0; I]
    d = cfg.embed_dim
    doppler = np.random.default_rng(5).uniform(1.0, 2.0, (cfg.n_cells, d))
    fuse = {"concat_fuse.weight": T.Tensor(np.vstack([np.zeros((d, d)), np.eye(d)])),
            "concat_fuse.bias": T.Tensor(np.zeros(d))}
    pooled = naive_concat_update(one(np.ones((cfg.n_spatial, d))),
                                 one(doppler), fuse, cfg).data[0]
    offsets = range(-((cfg.neighborhood - 1) // 2), cfg.neighborhood // 2 + 1)
    for i in range(cfg.n_spatial):
        # the cells of the clipped patch window, listed patch by patch
        pi_r, pi_a = divmod(i, cfg.patches_a)
        cells = []
        for pr in {min(max(pi_r + o, 0), cfg.patches_r - 1) for o in offsets}:
            for pa in {min(max(pi_a + o, 0), cfg.patches_a - 1) for o in offsets}:
                for r in range(pr * cfg.patch_r, (pr + 1) * cfg.patch_r):
                    for a in range(pa * cfg.patch_a, (pa + 1) * cfg.patch_a):
                        cells.append(r * cfg.A + a)
        cells = sorted(cells)
        np.testing.assert_array_equal(neighborhood(i, cfg), cells)
        np.testing.assert_allclose(pooled[i], doppler[cells].mean(axis=0),
                                   rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Cross-attention

def test_attention_rows_sum_to_one_over_neighborhood():
    cfg = desk_cfg()
    params = init_params(cfg, seed=10)
    frames = rand_frames(cfg, 11)
    spatial, doppler = tokens_of(frames[0], params, cfg)
    g = gate(doppler, params)
    _, weights = conditional_cross_attention(spatial, doppler, g, params, cfg)
    mask = np.zeros((cfg.n_spatial, cfg.n_cells), dtype=bool)
    for i in range(cfg.n_spatial):
        mask[i, neighborhood(i, cfg)] = True
    for alpha in dense_weights(weights[0], cfg):
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(alpha[~mask] == 0.0)


def test_singleton_neighborhood_copies_value_row():
    cfg = desk_cfg(patch_r=1, patch_a=1, neighborhood=1, heads=1)
    params = init_params(cfg, seed=12)
    frames = rand_frames(cfg, 13)
    spatial, doppler = tokens_of(frames[0], params, cfg)
    g = gate(doppler, params)
    ctx, weights = conditional_cross_attention(spatial, doppler, g, params, cfg)
    alpha = dense_weights(weights[0], cfg)[0]
    assert np.allclose(alpha.max(axis=1), 1.0)
    values = doppler.data[0] @ params["cross_attn.v.weight"].data
    merged = values @ params["cross_attn.out.weight"].data + params["cross_attn.out.bias"].data
    np.testing.assert_allclose(ctx.data[0], merged, atol=1e-12)


def test_constant_gate_matches_ungated_weights():
    cfg = desk_cfg()
    params = init_params(cfg, seed=14)
    frames = rand_frames(cfg, 15)
    spatial, doppler = tokens_of(frames[0], params, cfg)
    const_gate = one(np.full((cfg.n_cells, 1), 0.37))
    _, gated = conditional_cross_attention(spatial, doppler, const_gate, params, cfg)
    cfg_un = desk_cfg(ablation="ungated")
    _, ungated = conditional_cross_attention(spatial, doppler, const_gate, params, cfg_un)
    for a, b in zip(gated[0], ungated[0]):
        assert np.max(np.abs(a - b)) < 1e-12


def test_huge_gate_strength_concentrates_mass():
    cfg = desk_cfg(gate_strength=50.0, heads=1)
    params = init_params(cfg, seed=16)
    # equal content logits: zero q projection kills the content term
    params["cross_attn.q.weight"].data[:] = 0.0
    frames = rand_frames(cfg, 17)
    spatial, doppler = tokens_of(frames[0], params, cfg)
    rng = np.random.default_rng(18)
    g_vals = rng.uniform(0.0, 0.3, size=(cfg.n_cells, 1))
    probe = 5  # an interior spatial token
    favored = int(neighborhood(probe, cfg)[7])
    g_vals[favored, 0] = 0.95
    _, weights = conditional_cross_attention(spatial, doppler, one(g_vals), params, cfg)
    assert dense_weights(weights[0], cfg)[0][probe, favored] > 0.99


def test_locality_far_cell_cannot_change_context():
    cfg = desk_cfg(R=16, A=16, patch_r=4, patch_a=4, neighborhood=1)
    params = init_params(cfg, seed=19)
    frames = rand_frames(cfg, 20)
    spatial, doppler = tokens_of(frames[0], params, cfg)
    g = gate(doppler, params)
    base = conditional_cross_attention(spatial, doppler, g, params, cfg)[0].data[0]
    # perturb a Doppler cell in the far corner (outside N(0) with w=1)
    vol = frames[0].copy()
    vol[cfg.R - 1, cfg.A - 1] += 1.0
    doppler2 = tokenize_doppler([vol], params)
    g2 = gate(doppler2, params)
    out2 = conditional_cross_attention(spatial, doppler2, g2, params, cfg)[0].data[0]
    far_cell = (cfg.R - 1) * cfg.A + (cfg.A - 1)
    unaffected = [i for i in range(cfg.n_spatial)
                  if far_cell not in set(neighborhood(i, cfg))]
    assert unaffected
    for i in unaffected:
        np.testing.assert_array_equal(out2[i], base[i])


@pytest.mark.parametrize("w", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_cross_attention_matches_dense_head_loop(ablation, w):
    # a 16x8 grid of 2x4 patches: 8 patch rows, windows clipped at the
    # edges, and w=9 wider than the grid
    cfg = desk_cfg(R=16, A=8, patch_r=2, patch_a=4, neighborhood=w,
                   ablation=ablation, gate_strength=0.8)
    params = init_params(cfg, seed=62, randomize_all=True)
    rng = np.random.default_rng(63)
    spatial = one(rng.standard_normal((cfg.n_spatial, cfg.embed_dim)), requires_grad=True)
    doppler = one(rng.standard_normal((cfg.n_cells, cfg.embed_dim)), requires_grad=True)
    gates = one(rng.uniform(0.0, 1.0, (cfg.n_cells, 1)), requires_grad=True)
    g = rng.standard_normal((cfg.n_spatial, cfg.embed_dim))
    out, weights = conditional_cross_attention(spatial, doppler, gates, params, cfg)
    T.backward(T.tsum(T.mul(out, T.Tensor(g))))
    weights = dense_weights(weights[0], cfg)

    # reference: a loop over heads of the dense masked softmax, and its
    # backward by hand
    wq, wk, wv, wo = (params[f"cross_attn.{n}.weight"].data
                      for n in ("q", "k", "v", "out"))
    q, k, v = spatial.data[0] @ wq, doppler.data[0] @ wk, doppler.data[0] @ wv
    gated = ablation not in ("ungated", "no_gating")
    bias = cfg.gate_strength * gates.data[0].T if gated else 0.0
    mask = np.zeros((cfg.n_spatial, cfg.n_cells), dtype=bool)
    for i in range(cfg.n_spatial):
        mask[i, neighborhood(i, cfg)] = True
    c = 1.0 / np.sqrt(cfg.head_dim)
    g_ctx = g @ wo.T
    ctx, dq, dk, dv = (np.zeros_like(x) for x in (q, q, k, v))
    dbias = np.zeros((1, cfg.n_cells))
    for h in range(cfg.heads):
        cols = slice(h * cfg.head_dim, (h + 1) * cfg.head_dim)
        z = q[:, cols] @ k[:, cols].T * c + bias
        zmax = np.where(mask, z, -np.inf).max(axis=-1, keepdims=True)
        e = np.where(mask, np.exp(np.where(mask, z, zmax) - zmax), 0.0)
        alpha = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(weights[h], alpha, rtol=1e-12, atol=0)
        assert np.all(weights[h][~mask] == 0.0)
        ctx[:, cols] = alpha @ v[:, cols]
        dp = g_ctx[:, cols] @ v[:, cols].T
        dz = alpha * (dp - (dp * alpha).sum(axis=-1, keepdims=True))
        dq[:, cols] = dz * c @ k[:, cols]
        dk[:, cols] = (dz * c).T @ q[:, cols]
        dv[:, cols] = alpha.T @ g_ctx[:, cols]
        dbias += dz.sum(axis=0, keepdims=True)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    assert close(out.data[0], ctx @ wo + params["cross_attn.out.bias"].data)
    assert close(spatial.grad[0], dq @ wq.T)
    assert close(doppler.grad[0], dk @ wk.T + dv @ wv.T)
    if gated:
        assert close(gates.grad[0], cfg.gate_strength * dbias.T)
    else:
        assert gates.grad is None


# ---------------------------------------------------------------------------
# Aggregation

def test_aggregate_equal_gates_is_plain_average():
    cfg = desk_cfg()
    rng = np.random.default_rng(21)
    toks = [T.Tensor(rng.random((6, 4))) for _ in range(3)]
    gates = [T.Tensor(np.full((6, 1), 0.5))] * 3
    out = aggregate_doppler_multiframe(toks, gates, cfg).data
    want = sum(t.data for t in toks) * 0.5 / (1.5 + cfg.agg_eps)
    np.testing.assert_allclose(out, want, atol=1e-12)
    plain = sum(t.data for t in toks) / 3.0
    assert np.max(np.abs(out - plain)) < 1e-5


def test_aggregate_one_hot_gate_selects_frame():
    cfg = desk_cfg()
    rng = np.random.default_rng(22)
    toks = [T.Tensor(rng.random((5, 3))) for _ in range(3)]
    gates = [T.Tensor(np.zeros((5, 1))), T.Tensor(np.ones((5, 1))),
             T.Tensor(np.zeros((5, 1)))]
    out = aggregate_doppler_multiframe(toks, gates, cfg).data
    rel = np.max(np.abs(out - toks[1].data)) / np.max(np.abs(toks[1].data))
    assert rel <= 2 * cfg.agg_eps


def test_aggregate_hand_case():
    cfg = desk_cfg()
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, -1.0]])
    out = aggregate_doppler_multiframe(
        [T.Tensor(a), T.Tensor(b)],
        [T.Tensor(np.array([[0.2]])), T.Tensor(np.array([[0.6]]))], cfg).data
    np.testing.assert_allclose(out, (0.2 * a + 0.6 * b) / (0.8 + cfg.agg_eps),
                               atol=1e-15)


# ---------------------------------------------------------------------------
# Residual update / transformer / regression

def test_residual_zero_context_identity():
    cfg = desk_cfg()
    params = init_params(cfg, seed=23)
    rng = np.random.default_rng(24)
    t_s = T.Tensor(rng.random((cfg.n_spatial, cfg.embed_dim)))
    zero_ctx = T.Tensor(np.zeros_like(t_s.data))
    np.testing.assert_array_equal(residual_update(t_s, zero_ctx, params).data,
                                  t_s.data)


def test_residual_saturated_negative_blend_keeps_tokens():
    cfg = desk_cfg()
    params = init_params(cfg, seed=25)
    params["residual_gate.weight"].data[:] = 0.0
    params["residual_gate.bias"].data[:] = -60.0
    rng = np.random.default_rng(26)
    t_s = T.Tensor(rng.random((cfg.n_spatial, cfg.embed_dim)))
    ctx = T.Tensor(rng.random((cfg.n_spatial, cfg.embed_dim)))
    out = residual_update(t_s, ctx, params).data
    np.testing.assert_allclose(out, t_s.data, atol=1e-12)


def test_residual_hand_arithmetic():
    cfg = desk_cfg()
    params = init_params(cfg, seed=27)
    params["residual_gate.weight"].data[:] = 0.0
    params["residual_gate.bias"].data[:] = 0.0  # lambda = 0.5
    t_s = T.Tensor(np.zeros((1, cfg.embed_dim)))
    ctx_row = np.zeros((1, cfg.embed_dim))
    ctx_row[0, 0] = 2.0
    out = residual_update(t_s, T.Tensor(ctx_row), params).data
    assert out[0, 0] == 1.0 and np.all(out[0, 1:] == 0.0)


def test_transformer_zero_projections_identity():
    cfg = desk_cfg()
    params = init_params(cfg, seed=28)  # out projections are zero-init
    rng = np.random.default_rng(29)
    x = one(rng.random((cfg.n_spatial, cfg.embed_dim)))
    out = spatial_transformer(x, params, cfg, train=False)
    np.testing.assert_array_equal(out.data, x.data)


def test_transformer_permutation_equivariance():
    cfg = desk_cfg()
    params = init_params(cfg, seed=30, randomize_all=True)
    rng = np.random.default_rng(31)
    x = rng.random((cfg.n_spatial, cfg.embed_dim))
    perm = rng.permutation(cfg.n_spatial)
    out = spatial_transformer(one(x), params, cfg, train=False).data[0]
    out_perm = spatial_transformer(one(x[perm]), params, cfg, train=False).data[0]
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)


def test_regress_shapes_and_zero_case():
    cfg = desk_cfg()
    params = init_params(cfg, seed=32)
    params["head.l2.weight"].data[:] = 0.0
    params["head.out_bias"].data[:] = 0.0
    z = one(np.zeros((cfg.n_spatial, cfg.embed_dim)))
    pose = regress(z, params, cfg)
    assert pose.shape == (1, cfg.joints, 3)
    np.testing.assert_array_equal(pose.data, 0.0)


# ---------------------------------------------------------------------------
# Forward-level equivalences

def test_eval_forward_deterministic():
    cfg = desk_cfg()
    params = init_params(cfg, seed=33)
    frames = rand_frames(cfg, 34)
    a = forward([frames], params, cfg).pose.data
    b = forward([frames], params, cfg).pose.data
    np.testing.assert_array_equal(a, b)


def test_train_forward_dropout_reproducible():
    cfg = desk_cfg()
    # randomized params: zero-init branch outputs would make dropout a no-op
    params = init_params(cfg, seed=35, randomize_all=True)
    frames = rand_frames(cfg, 36)
    a = forward([frames], params, cfg, train=True, base_keys=[5]).pose.data
    b = forward([frames], params, cfg, train=True, base_keys=[5]).pose.data
    c = forward([frames], params, cfg, train=True, base_keys=[6]).pose.data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_window_length_checked():
    cfg = desk_cfg(frame_window=3)
    params = init_params(cfg, seed=37)
    with pytest.raises(UsageError):
        forward([rand_frames(cfg, 38, n=2)], params, cfg)


def test_beta_zero_bit_identical_to_ungated():
    cfg = desk_cfg(gate_strength=0.0)
    cfg_un = desk_cfg(ablation="ungated", gate_strength=1.0)
    params = init_params(cfg, seed=39)
    frames = rand_frames(cfg, 40)
    a = forward([frames], params, cfg).pose.data
    b = forward([frames], params, cfg_un).pose.data
    assert np.array_equal(a, b)


def test_no_gating_equals_ungated_computation():
    cfg_ng = desk_cfg(ablation="no_gating")
    cfg_un = desk_cfg(ablation="ungated")
    params = init_params(cfg_ng, seed=41)
    frames = rand_frames(cfg_ng, 42)
    np.testing.assert_array_equal(forward([frames], params, cfg_ng).pose.data,
                                  forward([frames], params, cfg_un).pose.data)


@pytest.mark.parametrize("frame_window", [1, 2])
def test_forward_returns_the_spatial_maps_it_reads(frame_window):
    cfg = desk_cfg(frame_window=frame_window)
    params = init_params(cfg, seed=45)
    for batch in (1, 3):
        windows = [rand_frames(cfg, 46 + k) for k in range(batch)]
        spatial = forward(windows, params, cfg).spatial
        assert isinstance(spatial, np.ndarray) and spatial.shape == (batch, cfg.R, cfg.A)
        for k, window in enumerate(windows):
            assert spatial[k].tobytes() == spatial_magnitude(window[-1]).tobytes()


def test_spatial_only_invariant_to_doppler():
    cfg = desk_cfg(ablation="spatial_only")
    params = init_params(cfg, seed=43)
    frames = rand_frames(cfg, 44)
    base = forward([frames], params, cfg).pose.data
    rng = np.random.default_rng(45)
    for _ in range(3):
        tweaked = frames[0] * (1.0 + rng.random((cfg.R, cfg.A, cfg.D)))
        # keep the spatial magnitude identical by rescaling per cell
        scale_ra = spatial_magnitude(frames[0]) / np.maximum(
            spatial_magnitude(tweaked), 1e-300)
        tweaked = tweaked * scale_ra[:, :, None]
        out = forward([[tweaked]], params, cfg).pose.data
        np.testing.assert_allclose(out, base, atol=1e-9)


def test_doppler_only_ignores_spatial_encoder():
    # the spatial map and the Doppler volume come from the same frame, so
    # the testable invariance is that the patch encoder has no influence
    cfg = desk_cfg(ablation="doppler_only")
    params = init_params(cfg, seed=46)
    frames = rand_frames(cfg, 47)
    base = forward([frames], params, cfg).pose.data
    params["spatial_encoder.weight"].data[:] = 7.7
    params["spatial_encoder.bias"].data[:] = -3.0
    out = forward([frames], params, cfg).pose.data
    np.testing.assert_array_equal(base, out)
    # positional embeddings stay live
    params["pos_embed"].data[:] += 0.5
    out2 = forward([frames], params, cfg).pose.data
    assert not np.array_equal(base, out2)


def test_k1_aggregated_path_close_to_single_frame():
    cfg = desk_cfg()
    params = init_params(cfg, seed=48)
    frames = rand_frames(cfg, 49)
    direct = forward([frames], params, cfg).pose.data
    aggregated = forward([frames], params, cfg, force_aggregate=True).pose.data
    rel = np.max(np.abs(direct - aggregated)) / max(np.max(np.abs(direct)), 1e-12)
    assert rel < 1e-5


def test_multiframe_window_runs_and_uses_history():
    cfg = desk_cfg(frame_window=3)
    params = init_params(cfg, seed=50)
    frames = rand_frames(cfg, 51, n=3)
    out = forward([frames], params, cfg)
    assert out.pose.shape == (1, cfg.joints, 3)
    assert out.gate.shape == (1, cfg.n_cells, 1)
    # changing an earlier frame's Doppler must change the pose
    frames2 = [frames[0] * 2.0, frames[1], frames[2]]
    out2 = forward([frames2], params, cfg)
    assert not np.array_equal(out.pose.data, out2.pose.data)


def test_naive_concat_variant_runs():
    cfg = desk_cfg(ablation="naive_concat")
    params = init_params(cfg, seed=52)
    out = forward([rand_frames(cfg, 53)], params, cfg)
    assert out.pose.shape == (1, cfg.joints, 3)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_all_ablations_forward(ablation):
    cfg = desk_cfg(ablation=ablation)
    params = init_params(cfg, seed=54)
    out = forward([rand_frames(cfg, 55)], params, cfg)
    assert np.all(np.isfinite(out.pose.data))


# ---------------------------------------------------------------------------
# End-to-end gradient check (8x8x4 grid, d=8)

def grad_cfg(**kw):
    base = dict(R=8, A=8, D=4, patch_r=4, patch_a=4, embed_dim=8, layers=2,
                heads=2, dropout=0.0, neighborhood=3, joints=3)
    base.update(kw)
    return ModelConfig(**base)


def test_full_forward_grad_check():
    cfg = grad_cfg()
    params = init_params(cfg, seed=4, randomize_all=True)
    rng = np.random.default_rng(57)
    frames = [rng.random((cfg.R, cfg.A, cfg.D))]
    gt = forward([frames], params, cfg).pose.data + rng.uniform(-5, 5, (cfg.joints, 3))

    def build(group):
        return loss_pos(forward([frames], group, cfg).pose, gt)

    report = grad_check(build, params)
    grouped = group_errors_by_prefix(report)
    for group_name in ("spatial_encoder", "pos_embed", "doppler_encoder",
                       "token_gate", "cross_attn", "residual_gate",
                       "transformer", "head"):
        assert grouped[group_name] < 1e-4, (group_name, grouped[group_name])


def test_regress_grad_through_loss_pos():
    cfg = grad_cfg(layers=1)
    params = init_params(cfg, seed=58, randomize_all=True)
    rng = np.random.default_rng(59)
    z = rng.random((cfg.n_spatial, cfg.embed_dim))
    gt = rng.random((cfg.joints, 3)) * 5.0

    def build(group):
        return loss_pos(regress(one(z), group, cfg), gt[None])

    report = grad_check(build, params)
    head_errs = {k: v for k, v in report.items() if k.startswith("head.")}
    assert max(head_errs.values()) < 1e-4


@pytest.mark.parametrize("frame_window", [1, 2])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_a_float32_forward_computes_only_in_float32(ablation, frame_window, op_dtypes):
    # a forward computes in its parameters' dtype: no op of a float32
    # forward may promote to float64, not even where a scalar or a constant
    # array meets an activation, and the float64 forward stays float64
    cfg = desk_cfg(ablation=ablation, frame_window=frame_window)
    params = init_params(cfg, seed=62, randomize_all=True)
    rng = np.random.default_rng(63)
    windows = [[rng.random((cfg.R, cfg.A, cfg.D)) for _ in range(frame_window)]
               for _ in range(2)]
    results = {}
    for dtype in (np.float32, np.float64):
        constants = {name: T.Tensor(p.data.astype(dtype))
                     for name, p in params.params.items()}
        op_dtypes.clear()
        result = forward(windows, constants, cfg)
        assert set(op_dtypes) == {np.dtype(dtype)}, (dtype, set(op_dtypes))
        assert result.pose.data.dtype == dtype and result.spatial.dtype == dtype
        results[dtype] = result.pose.data
    np.testing.assert_allclose(results[np.float32], results[np.float64], atol=1e-3)


def test_gate_strength_zero_is_bitwise_ungated_in_float32():
    # criterion 2's exact equivalence, which the acceptance suite checks in
    # float64, holds in the float32 forwards of eval and diag too
    full0, ungated = desk_cfg(gate_strength=0.0), desk_cfg(ablation="ungated")
    params = init_params(full0, seed=64, randomize_all=True)
    constants = {name: T.Tensor(p.data.astype(np.float32))
                 for name, p in params.params.items()}
    frames = rand_frames(full0, 65)
    a = forward([frames], constants, full0).pose.data
    b = forward([frames], constants, ungated).pose.data
    assert a.dtype == np.float32 and np.array_equal(a, b)


def test_full_scale_profile_forward_smoke():
    # default profile: 64x64x16 grid, 256 spatial / 4096 Doppler tokens
    cfg = ModelConfig()
    params = init_params(cfg, seed=60)
    rng = np.random.default_rng(61)
    out = forward([[rng.random((cfg.R, cfg.A, cfg.D))]], params, cfg)
    assert out.pose.shape == (1, cfg.joints, 3)
    assert out.gate.shape == (1, 4096, 1)
    assert np.all(np.isfinite(out.pose.data))

