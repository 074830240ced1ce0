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
import math
import typing
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError, UsageError
from .features import cell_spectra, spatial_magnitude
from .optim import ParamGroup, uniform_init
from .storage import key_value_text, parse_key_values

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
        for name in ("R", "A", "D", "patch_r", "patch_a", "embed_dim", "heads",
                     "joints", "neighborhood", "frame_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        for name in ("gate_strength", "agg_eps", "head_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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
        if self.agg_eps <= 0:
            raise ConfigError(f"agg_eps must be > 0, got {self.agg_eps}")

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
    """The checkpoint's config text: key=value lines of every field."""
    return key_value_text(asdict(cfg))


def config_from_text(text):
    """ModelConfig of a config_to_text text."""
    return config_from_strings(ModelConfig,
                               parse_key_values(text, "model config", ConfigError))


# ---------------------------------------------------------------------------
# Parameters

def _zeros(rng, shape):
    return np.zeros(shape)


def _ones(rng, shape):
    return np.ones(shape)


def _fan_in(rng, shape):
    """uniform_init with the input width shape[0] as the fan-in."""
    return uniform_init(rng, shape, shape[0])


def _pos_uniform(rng, shape):
    return rng.uniform(-0.1, 0.1, size=shape)


def param_table(cfg):
    """The model's parameters as ordered (name, shape, initializer) rows;
    initializer(rng, shape) draws the initial values. init_params draws
    from it and params_from_arrays checks stored parameters against it."""
    d, hidden = cfg.embed_dim, cfg.mlp_hidden

    def affine(name, n_in, n_out, weight=_fan_in):
        return [(f"{name}.weight", (n_in, n_out), weight),
                (f"{name}.bias", (n_out,), _zeros)]

    patch_in = cfg.patch_r * cfg.patch_a
    rows = [*affine("spatial_encoder", patch_in, d),
            ("pos_embed", (cfg.n_spatial, d), _pos_uniform),
            *affine("doppler_encoder.l1", cfg.D, d),
            *affine("doppler_encoder.l2", d, d),
            *affine("token_gate", d, 1),
            *[(f"cross_attn.{proj}.weight", (d, d), _fan_in) for proj in "qkv"],
            *affine("cross_attn.out", d, d),
            *affine("residual_gate", d, 1)]
    if cfg.ablation == "naive_concat":
        rows += affine("concat_fuse", 2 * d, d)
    for i in range(cfg.layers):
        p = f"transformer.{i}"
        rows += [(f"{p}.ln1.gain", (d,), _ones), (f"{p}.ln1.bias", (d,), _zeros),
                 *[(f"{p}.attn.{proj}.weight", (d, d), _fan_in) for proj in "qkv"],
                 *affine(f"{p}.attn.out", d, d, weight=_zeros),
                 (f"{p}.ln2.gain", (d,), _ones), (f"{p}.ln2.bias", (d,), _zeros),
                 *affine(f"{p}.mlp.l1", d, hidden),
                 *affine(f"{p}.mlp.l2", hidden, d, weight=_zeros)]
    rows += [*affine("head.l1", cfg.n_spatial * d, hidden),
             ("head.l2.weight", (hidden, cfg.joints * 3), _fan_in),
             ("head.out_bias", (cfg.joints * 3,), _zeros)]
    return rows


def params_from_arrays(cfg, named):
    """ParamGroup over the (name, float64 array) pairs `named`, which must
    match param_table(cfg) row for row in name and shape; the arrays become
    the parameters without a copy. A mismatch raises DataError naming the
    first parameter that differs, before anything is allocated."""
    named = list(named)
    table = param_table(cfg)
    for i, ((name, values), (want, shape, _)) in enumerate(zip(named, table)):
        if name != want:
            raise DataError(f"parameter {i} is {name!r}, the model config "
                            f"expects {want!r}")
        if values.shape != shape:
            raise DataError(f"parameter {name!r} shape {values.shape} != "
                            f"expected {shape}")
    if len(named) != len(table):
        raise DataError(f"{len(named)} parameters stored, the model config "
                        f"has {len(table)}")
    g = ParamGroup()
    for name, values in named:
        g.add(name, values)
    return g


def init_params(cfg, seed, randomize_all=False):
    """Seeded parameter group for the full computation graph, drawn from
    param_table in its order.

    Affine weights are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases
    zero, layernorm gains one. Transformer output projections start at zero
    so each block is the identity at init. randomize_all instead draws every
    parameter (including the zero/one-initialized ones) uniform in
    [-0.8, 0.8]: a generic, well-conditioned probe point for gradient
    checking where no activation is flat or saturated, not a training init.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 303]))
    g = ParamGroup()
    for name, shape, initializer in param_table(cfg):
        g.add(name, initializer(rng, shape))
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
def _lattice_band(R, A, patch_r, patch_a, w):
    """T.Band of the neighborhood pattern: spatial token i sees the cells of
    the w x w patch window centered on patch i, clipped to the grid.

    The tokens of one patch row form a query group that reads the cell rows
    of the w patch rows around it (fewer where w exceeds the grid). A key of
    that window is visible to a token when its patch row is on the grid and
    its patch column is within the token's column window."""
    patches_r, patches_a = R // patch_r, A // patch_a
    lo, hi = (w - 1) // 2, w // 2
    before = min(lo, patches_r - 1)
    window = before + min(hi, patches_r - 1) + 1
    # a window slot's patch row is at most lo above and hi below the
    # group's own, so only the grid edge can hide it
    row = np.arange(patches_r)[:, None] - before + np.arange(window)
    row_ok = (row >= 0) & (row < patches_r)
    col = np.arange(A) // patch_a - np.arange(patches_a)[:, None]
    col_ok = (col >= -lo) & (col <= hi)
    visible = row_ok[:, None, :, None, None] & col_ok[None, :, None, None, :]
    shape = (patches_r, patches_a, window, patch_r, A)
    return T.Band(np.broadcast_to(visible, shape).reshape(patches_r, patches_a, -1),
                  before, patch_r * A)


def neighborhood_band(cfg):
    """T.Band the cross-attention reads its keys through, cached per lattice
    geometry; None for global_interaction, where every cell is a key."""
    if cfg.ablation == "global_interaction":
        return None
    return _lattice_band(cfg.R, cfg.A, cfg.patch_r, cfg.patch_a, cfg.neighborhood)


def neighborhood(i, cfg):
    """Doppler cell indices a spatial token may attend to, ascending: the
    cells of the w x w patch window centered on patch i, clipped to the
    grid, read off the band. The global_interaction ablation returns every
    cell."""
    if not 0 <= i < cfg.n_spatial:
        raise UsageError(f"spatial token index {i} out of range")
    band = neighborhood_band(cfg)
    if band is None:
        return np.arange(cfg.n_cells)
    group, token = divmod(i, cfg.patches_a)
    first = (group - band.before) * band.block
    return first + np.flatnonzero(band.visible[group, token])


# ---------------------------------------------------------------------------
# Tokenization and gating

def patch_matrix(s_map, cfg):
    """(N_s, patch_r*patch_a) matrix of flattened non-overlapping patches,
    patches in row-major order over the patch lattice; a (B, R, A) batch of
    maps gives one matrix per map."""
    s = np.asarray(s_map, dtype=np.float64)
    if s.shape[-2:] != (cfg.R, cfg.A) or s.ndim not in (2, 3):
        raise ShapeError(f"spatial map shape {s.shape} != ({cfg.R}, {cfg.A})")
    lead = s.shape[:-2]
    blocks = s.reshape(lead + (cfg.patches_r, cfg.patch_r, cfg.patches_a, cfg.patch_a))
    return np.swapaxes(blocks, -3, -2).reshape(lead + (cfg.n_spatial, -1))


def tokenize_spatial(s_map, params, cfg):
    """Patch-encode the spatial map (or each map of a (B, R, A) batch) and
    add the learned positional embeddings. doppler_only zeroes the encoder
    output (embeddings stay)."""
    pos = params["pos_embed"]
    s_map = np.asarray(s_map)
    batched = s_map.ndim == 3
    if cfg.ablation == "doppler_only":
        # + 0.0 gives every sample its own copy of the embeddings
        zero = T.Tensor(np.zeros((len(s_map), 1, 1)), batched=True) if batched else 0.0
        return T.add(pos, zero)
    patches = T.Tensor(patch_matrix(s_map, cfg), batched=batched)
    content = T.affine(patches, params["spatial_encoder.weight"],
                       params["spatial_encoder.bias"])
    return T.add(content, pos)


def _stack(arrays):
    """np.stack, without the copy for a batch of one."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def tokenize_doppler(volume, params):
    """Embed every cell's Doppler spectrum independently with a shared
    two-layer ReLU MLP: (N_v, D) -> (N_v, d). A list of B volumes is a
    batch and gives (B, N_v, d)."""
    if isinstance(volume, list):
        spectra = T.Tensor(_stack([cell_spectra(v) for v in volume]), batched=True)
    else:
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
    are built; return_weights scatters the per-head weights of an unbatched
    call into dense (N_s, N_v) arrays.

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
        if t.shape != shape or gv.shape != shape[:-1] + (1,):
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
    neighborhood-mean Doppler token, then project back to width d. The mean
    is one attention head over the neighborhood_band with zero queries:
    every logit is 0, so each visible cell gets weight 1/count."""
    queries = T.Tensor(np.zeros(spatial.shape), batched=spatial.batched)
    keys = T.Tensor(np.zeros(doppler.shape), batched=doppler.batched)
    pool, _ = T.attention(queries, keys, doppler, 1, 1.0, band=neighborhood_band(cfg))
    return T.affine(T.concat_lastdim([spatial, pool]),
                    params["concat_fuse.weight"], params["concat_fuse.bias"])


# ---------------------------------------------------------------------------
# Spatial reasoning and regression

class _KeyStream:
    """Distinct dropout keys derived from per-forward base keys, one stream
    per sample of a batch: next() gives each sample its next key."""

    def __init__(self, bases):
        self.bases = [int(b) for b in bases]
        self.count = 0

    def next(self):
        keys = [(b * 131 + self.count) & (2**64 - 1) for b in self.bases]
        self.count += 1
        return keys


def spatial_transformer(tokens, params, cfg, train=False, keys=None):
    """Pre-norm transformer blocks (self-attention + ReLU MLP, residuals,
    dropout on both branch outputs when training). Training takes batched
    tokens and their _KeyStream."""
    keys = keys or _KeyStream([])
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
    """Flatten the token embedding and regress joints (J, 3) in mm, (B, J, 3)
    for a batch; the MLP output is multiplied by a fixed scale so weights
    stay O(1)."""
    lead = embedding.shape[:-2]
    flat = T.reshape(embedding, lead + (1, cfg.n_spatial * cfg.embed_dim))
    h = T.relu(T.affine(flat, params["head.l1.weight"], params["head.l1.bias"]))
    out = T.add(T.scale(T.matmul(h, params["head.l2.weight"]), cfg.head_scale),
                params["head.out_bias"])
    return T.reshape(out, lead + (cfg.joints, 3))


# ---------------------------------------------------------------------------
# End-to-end forward

@dataclass
class ForwardResult:
    pose: T.Tensor                       # (B, J, 3) mm
    gate: Optional[T.Tensor]             # gate used at the prompting stage, (B, N_v, 1)
    frame_gates: list                    # per input frame, (B, N_v, 1)


def forward(windows, params, cfg, train=False, base_keys=None,
            force_aggregate=False):
    """Batch of windows of frames -> poses (plus gate diagnostics), one per
    window; a single window is a batch of one. Every tensor of the result
    has the leading batch axis, and each sample's values are bitwise those
    of its window run alone.

    The spatial map comes from the last frame only; Doppler tokens and gates
    are computed per frame and, for windows longer than one frame (or when
    force_aggregate is set), merged by confidence-weighted aggregation with
    the prompting gate recomputed from the merged tokens. base_keys gives
    each sample its own dropout key stream (default 0 for every sample).
    """
    windows = [list(w) for w in windows]
    for w in windows:
        if len(w) != cfg.frame_window:
            raise UsageError(
                f"expected a window of {cfg.frame_window} frames, got {len(w)}")
    keys = _KeyStream([0] * len(windows) if base_keys is None else base_keys)
    if len(keys.bases) != len(windows):
        raise UsageError(f"{len(keys.bases)} dropout keys for {len(windows)} windows")
    spatial = tokenize_spatial(_stack([spatial_magnitude(w[-1]) for w in windows]),
                               params, cfg)

    gate_used = None
    frame_gates = []
    if cfg.ablation == "spatial_only":
        updated = spatial
    else:
        tokens = [tokenize_doppler([w[f] for w in windows], params)
                  for f in range(cfg.frame_window)]
        frame_gates = [gate(t, params) for t in tokens]
        if cfg.frame_window > 1 or force_aggregate:
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
