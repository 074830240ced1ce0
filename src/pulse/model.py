"""Dual-domain pose regressor with confidence-gated Doppler prompting.

The spatial pathway tokenizes the range-angle magnitude map into patch
embeddings; the Doppler pathway embeds each cell's spectrum and scores its
motion relevance with a sigmoid gate. Cross-attention lets every spatial
token read Doppler tokens inside a clipped window of nearby patches, with
the gate added to the attention logits (scaled by a global gate strength),
and writes the result back through a token-wise sigmoid-blended residual.
A pre-norm transformer over the updated spatial tokens feeds an MLP head
that regresses joint coordinates in millimeters.

Multi-frame mode aggregates per-frame Doppler tokens by their gates
(confidence-weighted mean with a small eps in the denominator) before
prompting; the spatial pathway always uses the last frame only.

Every published ablation is a config switch: spatial_only (Doppler context
zeroed), doppler_only (spatial encoder output zeroed, positional embeddings
kept), naive_concat (concatenate spatial token with the neighborhood-mean
Doppler token, affine back), ungated / no_gating (drop the gate bias from
the attention logits), global_interaction (no neighborhood restriction).
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, UsageError
from .features import cell_spectra, spatial_magnitude
from .optim import ParamGroup, uniform_init

ABLATIONS = ("full", "spatial_only", "doppler_only", "naive_concat",
             "ungated", "global_interaction", "no_gating")


@dataclass
class ModelConfig:
    R: int = 64
    A: int = 64
    D: int = 16
    patch_r: int = 4
    patch_a: int = 4
    embed_dim: int = 32
    layers: int = 4
    heads: int = 4
    dropout: float = 0.1
    neighborhood: int = 3        # cross-attention window, in patches
    gate_strength: float = 1.0   # scales the gate bias on attention logits
    frame_window: int = 1        # frames aggregated before prompting
    agg_eps: float = 1e-6
    joints: int = 8
    ablation: str = "full"
    head_scale: float = 100.0    # fixed output scale of the regression MLP

    def __post_init__(self):
        if self.R % self.patch_r or self.A % self.patch_a:
            raise ConfigError(
                f"grid {self.R}x{self.A} not divisible by patch "
                f"{self.patch_r}x{self.patch_a}")
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        if self.neighborhood < 1 or self.frame_window < 1 or self.agg_eps <= 0:
            raise ConfigError("neighborhood, frame_window must be >= 1 and agg_eps > 0")

    @property
    def patches_r(self):
        return self.R // self.patch_r

    @property
    def patches_a(self):
        return self.A // self.patch_a

    @property
    def n_spatial(self):
        return self.patches_r * self.patches_a

    @property
    def n_cells(self):
        return self.R * self.A

    @property
    def head_dim(self):
        return self.embed_dim // self.heads

    @property
    def mlp_hidden(self):
        return 4 * self.embed_dim


def typed_values(cls, values):
    """Convert a {field: string} map by the declared field types of the
    config dataclass `cls`. An unknown key or a value its type cannot parse
    raises ConfigError naming the key."""
    hints = typing.get_type_hints(cls)
    typed = {}
    for key, raw in values.items():
        if key not in hints:
            raise ConfigError(f"unknown {cls.__name__} key {key!r}")
        try:
            typed[key] = hints[key](raw)
        except ValueError:
            raise ConfigError(f"{key}={raw!r} is not a valid "
                              f"{hints[key].__name__}") from None
    return typed


def config_from_strings(cls, values):
    """Build the config dataclass `cls` from a {field: string} map of
    typed_values; fields not given keep their defaults."""
    return cls(**typed_values(cls, values))


def config_to_text(cfg):
    return "\n".join(f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg))


def config_from_text(text):
    values = {}
    for line in text.strip().splitlines():
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()
    return config_from_strings(ModelConfig, values)


# ---------------------------------------------------------------------------
# Parameters

def init_params(cfg, seed, randomize_all=False):
    """Seeded parameter group for the full computation graph.

    Affine weights are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases
    zero, layernorm gains one. Transformer output projections start at zero
    so each block is the identity at init. randomize_all instead draws every
    parameter (including the zero/one-initialized ones) uniform in
    [-0.8, 0.8]: a generic, well-conditioned probe point for gradient
    checking where no activation is flat or saturated, not a training init.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 303]))
    d = cfg.embed_dim
    g = ParamGroup()
    patch_in = cfg.patch_r * cfg.patch_a
    g.add("spatial_encoder.weight", uniform_init(rng, (patch_in, d), patch_in))
    g.add("spatial_encoder.bias", np.zeros(d))
    g.add("pos_embed", rng.uniform(-0.1, 0.1, size=(cfg.n_spatial, d)))
    g.add("doppler_encoder.l1.weight", uniform_init(rng, (cfg.D, d), cfg.D))
    g.add("doppler_encoder.l1.bias", np.zeros(d))
    g.add("doppler_encoder.l2.weight", uniform_init(rng, (d, d), d))
    g.add("doppler_encoder.l2.bias", np.zeros(d))
    g.add("token_gate.weight", uniform_init(rng, (d, 1), d))
    g.add("token_gate.bias", np.zeros(1))
    for proj in ("q", "k", "v"):
        g.add(f"cross_attn.{proj}.weight", uniform_init(rng, (d, d), d))
    g.add("cross_attn.out.weight", uniform_init(rng, (d, d), d))
    g.add("cross_attn.out.bias", np.zeros(d))
    g.add("residual_gate.weight", uniform_init(rng, (d, 1), d))
    g.add("residual_gate.bias", np.zeros(1))
    if cfg.ablation == "naive_concat":
        g.add("concat_fuse.weight", uniform_init(rng, (2 * d, d), 2 * d))
        g.add("concat_fuse.bias", np.zeros(d))
    for i in range(cfg.layers):
        p = f"transformer.{i}"
        g.add(f"{p}.ln1.gain", np.ones(d))
        g.add(f"{p}.ln1.bias", np.zeros(d))
        for proj in ("q", "k", "v"):
            g.add(f"{p}.attn.{proj}.weight", uniform_init(rng, (d, d), d))
        g.add(f"{p}.attn.out.weight", np.zeros((d, d)))
        g.add(f"{p}.attn.out.bias", np.zeros(d))
        g.add(f"{p}.ln2.gain", np.ones(d))
        g.add(f"{p}.ln2.bias", np.zeros(d))
        g.add(f"{p}.mlp.l1.weight", uniform_init(rng, (d, cfg.mlp_hidden), d))
        g.add(f"{p}.mlp.l1.bias", np.zeros(cfg.mlp_hidden))
        g.add(f"{p}.mlp.l2.weight", np.zeros((cfg.mlp_hidden, d)))
        g.add(f"{p}.mlp.l2.bias", np.zeros(d))
    flat = cfg.n_spatial * d
    g.add("head.l1.weight", uniform_init(rng, (flat, cfg.mlp_hidden), flat))
    g.add("head.l1.bias", np.zeros(cfg.mlp_hidden))
    g.add("head.l2.weight", uniform_init(rng, (cfg.mlp_hidden, cfg.joints * 3),
                                         cfg.mlp_hidden))
    g.add("head.out_bias", np.zeros(cfg.joints * 3))
    if randomize_all:
        # Redraw everything (including the zero/one-initialized tensors) so
        # no branch output is exactly zero and no softmax or sigmoid
        # saturates. Attention score projections get site-specific scales
        # keeping both attention maps away from uniform and one-hot, where
        # score gradients degenerate.
        for name, p in g.params.items():
            if name.startswith("cross_attn.") and (".q." in name or ".k." in name):
                bound = 0.9
            elif ".attn." in name and (".q." in name or ".k." in name):
                bound = 0.3
            elif p.data.ndim == 2:
                bound = 1.0 / np.sqrt(p.data.shape[0])
            else:
                bound = 0.5
            p.data = rng.uniform(-bound, bound, size=p.data.shape)
            if name.endswith(".gain"):
                p.data += 1.0
    return g


# ---------------------------------------------------------------------------
# Neighborhoods on the shared range-angle lattice

@functools.lru_cache(maxsize=None)
def _lattice_table(R, A, patch_r, patch_a, w):
    """LiveEntries of the (N_s, N_v) neighborhood pattern: spatial token i
    sees the cells of the w x w patch window centered on patch i, clipped
    to the grid."""
    patches_r, patches_a = R // patch_r, A // patch_a
    token_r, token_a = np.divmod(np.arange(patches_r * patches_a), patches_a)
    cell_r, cell_a = np.divmod(np.arange(R * A), A)

    def inside(token, cell, patches, size):
        lo = np.maximum(token - (w - 1) // 2, 0) * size
        hi = (np.minimum(token + w // 2, patches - 1) + 1) * size
        return (cell >= lo[:, None]) & (cell < hi[:, None])

    return T.LiveEntries(inside(token_r, cell_r, patches_r, patch_r)
                         & inside(token_a, cell_a, patches_a, patch_a))


@functools.lru_cache(maxsize=None)
def _lattice_band(R, A, patch_r, patch_a, w):
    """T.Band of the same pattern: the tokens of one patch row form a query
    group that reads the cell rows of the w patch rows around it (fewer
    where w exceeds the grid), and an additive mask taken from the table
    keeps each token's clipped patch window."""
    table = _lattice_table(R, A, patch_r, patch_a, w)
    patches_r, patches_a = R // patch_r, A // patch_a
    before = min((w - 1) // 2, patches_r - 1)
    window = before + min(w // 2, patches_r - 1) + 1
    block = patch_r * A
    group, token = np.divmod(table.rows, patches_a)
    mask = np.full((patches_r, patches_a, window * block), -np.inf)
    mask[group, token, table.cols - (group - before) * block] = 0.0
    return T.Band(mask, before, block)


def neighborhood_table(cfg):
    """LiveEntries of the cross-attention pattern, cached per lattice
    geometry; None for global_interaction, where every cell is live."""
    if cfg.ablation == "global_interaction":
        return None
    return _lattice_table(cfg.R, cfg.A, cfg.patch_r, cfg.patch_a, cfg.neighborhood)


def neighborhood_band(cfg):
    """T.Band the cross-attention reads its keys through, cached per lattice
    geometry; None for global_interaction, where every cell is a key."""
    if cfg.ablation == "global_interaction":
        return None
    return _lattice_band(cfg.R, cfg.A, cfg.patch_r, cfg.patch_a, cfg.neighborhood)


def neighborhood(i, cfg):
    """Doppler cell indices a spatial token may attend to: the cells of the
    w x w patch window centered on patch i, clipped to the grid. The
    global_interaction ablation returns every cell."""
    if not 0 <= i < cfg.n_spatial:
        raise UsageError(f"spatial token index {i} out of range")
    table = neighborhood_table(cfg)
    return np.arange(cfg.n_cells) if table is None else table.row(i)


def neighborhood_mean_matrix(cfg):
    """(N_s, N_v) matrix whose product with the Doppler tokens averages
    each spatial token's neighborhood."""
    table = neighborhood_table(cfg)
    mean = np.zeros(table.shape)
    mean[table.rows, table.cols] = 1.0 / np.bincount(table.rows)[table.rows]
    return mean


# ---------------------------------------------------------------------------
# Tokenization and gating

def patch_matrix(s_map, cfg):
    """(N_s, patch_r*patch_a) matrix of flattened non-overlapping patches,
    patches in row-major order over the patch lattice."""
    s = np.asarray(s_map, dtype=np.float64)
    if s.shape != (cfg.R, cfg.A):
        raise ShapeError(f"spatial map shape {s.shape} != ({cfg.R}, {cfg.A})")
    blocks = s.reshape(cfg.patches_r, cfg.patch_r, cfg.patches_a, cfg.patch_a)
    return blocks.transpose(0, 2, 1, 3).reshape(cfg.n_spatial, -1)


def tokenize_spatial(s_map, params, cfg):
    """Patch-encode the spatial map and add the learned positional
    embeddings. doppler_only zeroes the encoder output (embeddings stay)."""
    pos = params["pos_embed"]
    if cfg.ablation == "doppler_only":
        return T.add(pos, 0.0)
    patches = T.Tensor(patch_matrix(s_map, cfg))
    content = T.affine(patches, params["spatial_encoder.weight"],
                       params["spatial_encoder.bias"])
    return T.add(content, pos)


def tokenize_doppler(volume, params):
    """Embed every cell's Doppler spectrum independently with a shared
    two-layer ReLU MLP: (N_v, D) -> (N_v, d)."""
    spectra = T.Tensor(cell_spectra(volume))
    h = T.relu(T.affine(spectra, params["doppler_encoder.l1.weight"],
                        params["doppler_encoder.l1.bias"]))
    return T.affine(h, params["doppler_encoder.l2.weight"],
                    params["doppler_encoder.l2.bias"])


def gate(doppler_tokens, params):
    """Per-token motion-relevance score in (0, 1), shape (N_v, 1)."""
    return T.sigmoid(T.affine(doppler_tokens, params["token_gate.weight"],
                              params["token_gate.bias"]))


# ---------------------------------------------------------------------------
# Prompting

def conditional_cross_attention(spatial, doppler, gates, params, cfg,
                                return_weights=False):
    """Gate-biased multi-head attention from spatial tokens onto their
    Doppler neighborhoods; rows normalize over the neighborhood per head.
    Keys are read through the neighborhood_band, so no (N_s, N_v) logits
    are built; return_weights scatters the per-head weights into dense
    (N_s, N_v) arrays.

    gates enter the logits as an additive bias (gate_strength * gate), shared
    across heads; the ungated/no_gating ablations and gate_strength == 0 drop
    the bias term entirely so both routes run the identical computation.
    """
    gated = (gates is not None and cfg.gate_strength != 0.0
             and cfg.ablation not in ("ungated", "no_gating"))
    bias = T.scale(T.transpose(gates), cfg.gate_strength) if gated else None
    band = neighborhood_band(cfg)
    contexts, weights = T.attention(T.matmul(spatial, params["cross_attn.q.weight"]),
                                    T.matmul(doppler, params["cross_attn.k.weight"]),
                                    T.matmul(doppler, params["cross_attn.v.weight"]),
                                    cfg.heads, 1.0 / np.sqrt(cfg.head_dim),
                                    bias=bias, band=band)
    merged = T.affine(contexts, params["cross_attn.out.weight"],
                      params["cross_attn.out.bias"])
    if not return_weights:
        return merged
    return merged, list(weights[:, 0] if band is None else band.dense(weights))


def aggregate_doppler_multiframe(frame_tokens, frame_gates, cfg):
    """Confidence-weighted per-cell mean over a window of frames:
    sum_f gate_f * token_f / (sum_f gate_f + eps)."""
    if len(frame_tokens) != len(frame_gates) or not frame_tokens:
        raise ShapeError("token and gate windows must be nonempty and aligned")
    shape = frame_tokens[0].shape
    for t, gv in zip(frame_tokens, frame_gates):
        if t.shape != shape or gv.shape != (shape[0], 1):
            raise ShapeError("aggregation inputs disagree on the cell lattice")
    num = T.mul(frame_gates[0], frame_tokens[0])
    den = frame_gates[0]
    for t, gv in zip(frame_tokens[1:], frame_gates[1:]):
        num = T.add(num, T.mul(gv, t))
        den = T.add(den, gv)
    return T.div(num, T.add(den, cfg.agg_eps))


def residual_update(spatial, contexts, params):
    """spatial + lambda * context with lambda = sigmoid of a learned
    projection of the spatial token itself."""
    lam = T.sigmoid(T.affine(spatial, params["residual_gate.weight"],
                             params["residual_gate.bias"]))
    return T.add(spatial, T.mul(lam, contexts))


def naive_concat_update(spatial, doppler, params, cfg):
    """Capacity-matched control: concatenate each spatial token with its
    neighborhood-mean Doppler token, then project back to width d."""
    pool = T.matmul(T.Tensor(neighborhood_mean_matrix(cfg)), doppler)
    return T.affine(T.concat_lastdim([spatial, pool]),
                    params["concat_fuse.weight"], params["concat_fuse.bias"])


# ---------------------------------------------------------------------------
# Spatial reasoning and regression

class _KeyStream:
    """Distinct dropout keys derived from a per-forward base key."""

    def __init__(self, base):
        self.base = int(base)
        self.count = 0

    def next(self):
        key = (self.base * 131 + self.count) & (2**64 - 1)
        self.count += 1
        return key


def spatial_transformer(tokens, params, cfg, train=False, keys=None):
    """Pre-norm transformer blocks (self-attention + ReLU MLP, residuals,
    dropout on both branch outputs when training)."""
    keys = keys or _KeyStream(0)
    x = tokens
    for i in range(cfg.layers):
        p = f"transformer.{i}"
        h = T.layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        ctx, _ = T.attention(T.matmul(h, params[f"{p}.attn.q.weight"]),
                             T.matmul(h, params[f"{p}.attn.k.weight"]),
                             T.matmul(h, params[f"{p}.attn.v.weight"]),
                             cfg.heads, 1.0 / np.sqrt(cfg.head_dim))
        attn_out = T.affine(ctx, params[f"{p}.attn.out.weight"],
                            params[f"{p}.attn.out.bias"])
        x = T.add(x, T.dropout(attn_out, cfg.dropout, keys.next(), train))
        h2 = T.layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        m = T.affine(T.relu(T.affine(h2, params[f"{p}.mlp.l1.weight"],
                                     params[f"{p}.mlp.l1.bias"])),
                     params[f"{p}.mlp.l2.weight"], params[f"{p}.mlp.l2.bias"])
        x = T.add(x, T.dropout(m, cfg.dropout, keys.next(), train))
    return x


def regress(embedding, params, cfg):
    """Flatten the token embedding and regress joints (J, 3) in mm; the MLP
    output is multiplied by a fixed scale so weights stay O(1)."""
    flat = T.reshape(embedding, (1, cfg.n_spatial * cfg.embed_dim))
    h = T.relu(T.affine(flat, params["head.l1.weight"], params["head.l1.bias"]))
    out = T.add(T.scale(T.matmul(h, params["head.l2.weight"]), cfg.head_scale),
                params["head.out_bias"])
    return T.reshape(out, (cfg.joints, 3))


# ---------------------------------------------------------------------------
# End-to-end forward

@dataclass
class ForwardResult:
    pose: T.Tensor                       # (J, 3) mm
    gate: Optional[T.Tensor]             # gate used at the prompting stage, (N_v, 1)
    frame_gates: list                    # per input frame, (N_v, 1)


def forward(frames, params, cfg, train=False, base_key=0,
            force_aggregate=False):
    """Window of frame tensors -> pose (plus gate diagnostics).

    The spatial map comes from the last frame only; Doppler tokens and gates
    are computed per frame and, for windows longer than one frame (or when
    force_aggregate is set), merged by confidence-weighted aggregation with
    the prompting gate recomputed from the merged tokens.
    """
    frames = list(frames)
    if len(frames) != cfg.frame_window:
        raise UsageError(
            f"expected a window of {cfg.frame_window} frames, got {len(frames)}")
    keys = _KeyStream(base_key)
    spatial = tokenize_spatial(spatial_magnitude(frames[-1]), params, cfg)

    gate_used = None
    frame_gates = []
    if cfg.ablation == "spatial_only":
        updated = spatial
    else:
        tokens = [tokenize_doppler(f, params) for f in frames]
        frame_gates = [gate(t, params) for t in tokens]
        if len(frames) > 1 or force_aggregate:
            doppler = aggregate_doppler_multiframe(tokens, frame_gates, cfg)
            gate_used = gate(doppler, params)
        else:
            doppler = tokens[0]
            gate_used = frame_gates[0]
        if cfg.ablation == "naive_concat":
            updated = naive_concat_update(spatial, doppler, params, cfg)
        else:
            ctx = conditional_cross_attention(spatial, doppler, gate_used,
                                              params, cfg)
            updated = residual_update(spatial, ctx, params)

    z = spatial_transformer(updated, params, cfg, train=train, keys=keys)
    pose = regress(z, params, cfg)
    return ForwardResult(pose=pose, gate=gate_used, frame_gates=frame_gates)
