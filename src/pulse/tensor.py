"""Dense row-major tensors with reverse-mode automatic differentiation.

Values live in float64 numpy arrays; the graph bookkeeping and every
backward rule are local to this module. Graphs are built functionally: each
op returns a fresh Tensor holding its parents and a closure that pushes the
upstream gradient to them; an op none of whose inputs requires grad records
neither, so a forward on constant parameters builds no graph. `backward`
walks the reverse topological order exactly once per node and accumulates
gradients additively, so a tensor feeding two consumers receives the sum of
both path gradients; it frees each interior node as it finishes it.

All ops are deterministic given identical inputs; dropout takes an explicit
integer key and draws its mask from a counter-based Philox stream so runs
are bit-reproducible.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ShapeError, UsageError


class Tensor:
    """A node in the autodiff graph.

    data          row-major float64 numpy array
    requires_grad whether gradients should flow to (or through) this node
    grad          populated by backward(); same shape as data
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, values, requires_grad=False, _parents=(), _backprop=None):
        self.data = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backprop = _backprop

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


def _lift(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _result(data, parents, backprop):
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data, requires_grad=False)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backprop=backprop)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _accumulate(tensor, grad, fresh=False):
    """Add `grad` into tensor.grad. fresh=True asserts the caller hands over
    ownership of a newly allocated array, skipping the defensive copy."""
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = grad if fresh else np.array(grad, dtype=tensor.data.dtype)
    else:
        tensor.grad += grad


# ---------------------------------------------------------------------------
# Elementwise arithmetic (numpy broadcasting, gradients unbroadcast).

def add(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data + b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape), fresh=g.shape != a.shape)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape), fresh=g.shape != b.shape)

    return _result(out, (a, b), backprop)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data - b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape), fresh=g.shape != a.shape)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape), fresh=True)

    return _result(out, (a, b), backprop)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data * b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return _result(out, (a, b), backprop)


def div(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data / b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
                        fresh=True)

    return _result(out, (a, b), backprop)


def scale(x, c):
    x = _lift(x)
    c = float(c)
    out = x.data * c

    def backprop(g):
        _accumulate(x, g * c, fresh=True)

    return _result(out, (x,), backprop)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (m,k)@(k,n), got {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T, fresh=True)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g, fresh=True)

    return _result(out, (a, b), backprop)


def transpose(x):
    x = _lift(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got shape {x.shape}")
    out = x.data.T.copy()

    def backprop(g):
        _accumulate(x, g.T.copy(), fresh=True)

    return _result(out, (x,), backprop)


def reshape(x, shape):
    x = _lift(x)
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def backprop(g):
        _accumulate(x, g.reshape(x.shape).copy(), fresh=True)

    return _result(out, (x,), backprop)


def concat_lastdim(parts):
    parts = [_lift(p) for p in parts]
    widths = [p.shape[-1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)

    def backprop(g):
        lo = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                _accumulate(p, g[..., lo:lo + w].copy(), fresh=True)
            lo += w

    return _result(out, tuple(parts), backprop)


# ---------------------------------------------------------------------------
# Reductions.

def tsum(x, axis=None, keepdims=False):
    x = _lift(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backprop(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.shape).copy(), fresh=True)
        else:
            gk = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(gk, x.shape).copy(), fresh=True)

    return _result(out, (x,), backprop)


def mean_over_axis(x, axis, keepdims=False):
    x = _lift(x)
    n = x.shape[axis]
    out = x.data.mean(axis=axis, keepdims=keepdims)

    def backprop(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(gk / n, x.shape).copy(), fresh=True)

    return _result(out, (x,), backprop)


# ---------------------------------------------------------------------------
# Nonlinearities.

def relu(x):
    x = _lift(x)
    out = np.maximum(x.data, 0.0)

    def backprop(g):
        _accumulate(x, g * (x.data > 0.0), fresh=True)

    return _result(out, (x,), backprop)


def sigmoid(x):
    x = _lift(x)
    # Two-sided form avoids overflow in exp for large |x|.
    pos = x.data >= 0
    out = np.empty_like(x.data)
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backprop(g):
        _accumulate(x, g * out * (1.0 - out), fresh=True)

    return _result(out, (x,), backprop)


def sqrt(x):
    x = _lift(x)
    if np.any(x.data < 0):
        raise DomainError("sqrt of a negative value")
    out = np.sqrt(x.data)

    def backprop(g):
        _accumulate(x, g * 0.5 / out, fresh=True)

    return _result(out, (x,), backprop)


class Band:
    """Key windows of a banded attention pattern.

    The N queries form G equal groups of consecutive rows, and the M keys G
    equal blocks of `block` consecutive rows. Query group g reads the
    contiguous window of key blocks g - before .. g - before + window - 1;
    blocks past either end of the keys are zero padding. `visible` is the
    boolean (G, N / G, window * block) array of the keys each query keeps
    in its group's window; `mask` is the additive 0 / -inf array derived
    from it and `hidden` its complement. A query row with no visible key is
    rejected.
    """

    def __init__(self, visible, before, block):
        visible = np.array(visible, dtype=bool)
        if visible.ndim != 3 or visible.shape[2] % block:
            raise ShapeError(f"band visibility {visible.shape} is not (groups, "
                             f"rows, window * {block})")
        if not visible.any(axis=2).all():
            raise DomainError("Band: a query row has no visible key")
        self.visible = visible
        self.hidden = ~visible
        self.mask = np.where(visible, 0.0, -np.inf)
        for arr in (self.mask, self.visible, self.hidden):
            arr.setflags(write=False)
        self.groups, self.rows_per_group, width = visible.shape
        self.block = int(block)
        self.window = width // self.block
        self.before = int(before)

    def windows(self, x, heads):
        """(M, heads * e) key rows -> (heads, G, window * block, e): each
        head's rows of every group's window, zero rows in the padding."""
        g, b = self.groups, self.block
        padded = np.zeros((heads, g + self.window - 1, b, x.shape[1] // heads))
        padded[:, self.before:self.before + g] = \
            x.reshape(g, b, heads, -1).transpose(2, 0, 1, 3)
        shifted = sliding_window_view(padded, self.window, axis=1)
        return shifted.transpose(0, 1, 4, 2, 3).reshape(heads, g, -1, padded.shape[3])

    def overlap_add(self, xw):
        """Adjoint of windows: (heads, G, window * block, e) -> (M, heads * e),
        summing each key row over the windows that share it."""
        heads, g, _, e = xw.shape
        padded = np.zeros((heads, g + self.window - 1, self.block, e))
        shifted = xw.reshape(heads, g, self.window, self.block, e)
        for o in range(self.window):
            padded[:, o:o + g] += shifted[:, :, o]
        return padded[:, self.before:self.before + g].transpose(1, 2, 0, 3) \
            .reshape(g * self.block, heads * e)

    def dense(self, weights):
        """(heads, G, N / G, window * block) window weights -> (heads, N, M),
        zero outside each group's window."""
        heads, g, rows = weights.shape[:3]
        out = np.zeros((heads, g, rows, g + self.window - 1, self.block))
        shifted = weights.reshape(heads, g, rows, self.window, self.block)
        for i in range(g):
            out[:, i, :, i:i + self.window] = shifted[:, i]
        return out[:, :, :, self.before:self.before + g].reshape(
            heads, g * rows, g * self.block)


def attention(q, k, v, heads, logit_scale, bias=None, band=None):
    """Multi-head attention: per head h, softmax(logit_scale * q_h k_h^T +
    bias) v_h, with the heads as one batch axis.

    q       : (N, d) queries; k, v : (M, d) keys and values. Head h owns the
              columns h * d/heads .. (h + 1) * d/heads - 1.
    bias    : optional (1, M) tensor added to every head's logits, per key.
    band    : optional Band; each query group then scores only the keys of
              its window, and keys it hides get weight exactly 0.
              None lets every query see every key (one group, one block).
    Returns the (N, d) tensor of the head contexts side by side, and the
    weights as a (heads, G, N / G, K) array: G = 1 and K = M without a band,
    else the band's groups and window width.

    The logits of all heads live in one array and the softmax runs on it in
    place; the backward is one closure using dz = P * (dP - rowsum(dP * P)).
    With a band, the key, value and bias gradients of the overlapping
    windows are added back onto the shared key rows.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    n, d = q.shape
    m = k.shape[0]
    if k.shape != (m, d) or v.shape != (m, d) or d % heads:
        raise ShapeError(f"attention needs (N, d) queries and (M, d) keys and "
                         f"values with heads | d, got {q.shape}, {k.shape}, "
                         f"{v.shape} and {heads} heads")
    if band is not None and (band.groups * band.rows_per_group != n
                             or band.groups * band.block != m):
        raise ShapeError(f"band of {band.groups} groups of {band.rows_per_group} "
                         f"queries and blocks of {band.block} keys does not fit "
                         f"{n} queries and {m} keys")
    c = float(logit_scale)
    dh = d // heads
    groups = 1 if band is None else band.groups

    def windows(x, h):
        if band is None:
            return x.reshape(1, m, h, -1).transpose(2, 0, 1, 3)
        return band.windows(x, h)

    def overlap_add(xw):
        if band is None:
            return xw[:, 0].transpose(1, 0, 2).reshape(m, -1)
        return band.overlap_add(xw)

    parents = [q, k, v]
    qg = q.data.reshape(groups, n // groups, heads, dh).transpose(2, 0, 1, 3) * c
    kw, vw = windows(k.data, heads), windows(v.data, heads)
    p = qg @ kw.swapaxes(-1, -2)
    shift = None if band is None else band.mask
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != (1, m):
            raise ShapeError(f"attention bias must be (1, {m}), got {bias.shape}")
        parents.append(bias)
        per_key = windows(bias.data.reshape(m, 1), 1)[0, :, None, :, 0]
        shift = per_key if shift is None else shift + per_key
    if shift is not None:
        p += shift
    p -= p.max(axis=-1, keepdims=True)
    if band is None:
        np.exp(p, out=p)
    else:
        # exp of -inf takes numpy's slow path: skip the hidden entries
        np.exp(p, out=p, where=band.visible)
        np.copyto(p, 0.0, where=band.hidden)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = p @ vw
    out = ctx.transpose(1, 2, 0, 3).reshape(n, d)

    def backprop(g):
        gh = g.reshape(groups, n // groups, heads, dh).transpose(2, 0, 1, 3)
        if v.requires_grad:
            _accumulate(v, overlap_add(p.swapaxes(-1, -2) @ gh), fresh=True)
        bias_grad = bias is not None and bias.requires_grad
        if not (q.requires_grad or k.requires_grad or bias_grad):
            return
        # rowsum(dP * P) = rowsum(g * ctx), as P @ V = ctx
        dz = gh @ vw.swapaxes(-1, -2)
        dz -= np.einsum("...e,...e->...", gh, ctx)[..., None]
        dz *= p
        if q.requires_grad:
            dq = (dz @ kw) * c
            _accumulate(q, dq.transpose(1, 2, 0, 3).reshape(n, d), fresh=True)
        if k.requires_grad:
            _accumulate(k, overlap_add(dz.swapaxes(-1, -2) @ qg), fresh=True)
        if bias_grad:
            per_key = dz.sum(axis=(0, 2))[None, :, :, None]
            _accumulate(bias, overlap_add(per_key).reshape(1, m), fresh=True)

    return _result(out, tuple(parents), backprop), p


def dropout(x, p, key, train):
    """Inverted dropout; identity when train is off.

    The mask comes from a Philox stream keyed by `key`, so a fixed key
    reproduces the same mask bit-for-bit regardless of call order.
    """
    x = _lift(x)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout probability must be in [0,1), got {p}")
    if not train or p == 0.0:
        return x
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(key) & (2**64 - 1))))
    keep = rng.random(x.shape) >= p
    factor = keep / (1.0 - p)
    out = x.data * factor

    def backprop(g):
        _accumulate(x, g * factor, fresh=True)

    return _result(out, (x,), backprop)


# ---------------------------------------------------------------------------
# Composite layers (autodiff comes for free from the primitives).

def affine(x, w, b):
    """x @ w + b with b broadcast over rows."""
    return add(matmul(x, w), b)


LAYER_NORM_VAR_EPS = 1e-15


def layer_norm(x, gain, bias):
    """Per-row normalization over the last axis, then elementwise affine.

    The variance floor is tiny so a normalized row really has unit variance
    to near machine precision; constant rows map to zeros instead of NaN.
    """
    mu = mean_over_axis(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = mean_over_axis(mul(centered, centered), axis=-1, keepdims=True)
    sd = sqrt(add(var, LAYER_NORM_VAR_EPS))
    return add(mul(div(centered, sd), gain), bias)


def _consumed(g):
    raise UsageError("backward reached a node whose graph an earlier backward "
                     "already consumed; build the graph again (one backward "
                     "per graph)")


def backward(loss):
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Reverse topological order, one visit per node; multi-use tensors
    accumulate contributions additively. The walk consumes the graph: once
    an interior node's closure has run, the node drops its parents, its
    closure and its gradient, so each buffer is freed as soon as nothing
    upstream needs it. Leaves keep .grad. A second backward through a
    consumed node raises UsageError.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    # Iterative DFS topological sort over the requires_grad subgraph.
    topo = []
    visited = set()
    stack = [(loss, False)]
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
        if node._backprop is None:
            continue
        if node.grad is not None:
            node._backprop(node.grad)
        node._parents, node._backprop, node.grad = (), _consumed, None
