"""Dense row-major tensors with reverse-mode automatic differentiation.

Values live in float64 numpy arrays; the graph bookkeeping and every
backward rule are local to this module. Graphs are built functionally: each
op returns a fresh Tensor holding its parents and a closure that pushes the
upstream gradient to them. `backward` walks the reverse topological order
exactly once per node and accumulates gradients additively, so a tensor
feeding two consumers receives the sum of both path gradients.

All ops are deterministic given identical inputs; dropout takes an explicit
integer key and draws its mask from a counter-based Philox stream so runs
are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

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


def slice_lastdim(x, lo, hi):
    x = _lift(x)
    out = x.data[..., lo:hi].copy()

    def backprop(g):
        full = np.zeros_like(x.data)
        full[..., lo:hi] = g
        _accumulate(x, full, fresh=True)

    return _result(out, (x,), backprop)


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


class LiveEntries:
    """The True entries of an (n_rows, n_cols) boolean mask, for a
    softmax_lastdim that gives every other entry probability exactly 0.
    Built once per mask; a row with no live entry is rejected.

    shape      : (n_rows, n_cols)
    rows, cols : (L,) row and column index of each live entry, row-major
    padded     : (n_rows, K) positions into rows/cols of each row's entries,
                 K the longest row; a shorter row repeats its last entry,
                 which leaves the row max unchanged
    """

    def __init__(self, mask):
        mask = np.asarray(mask, dtype=bool)
        counts = mask.sum(axis=1)
        if not counts.all():
            raise DomainError("softmax_lastdim: a row has no live entry")
        self.shape = mask.shape
        self.rows, self.cols = np.nonzero(mask)
        ends = np.cumsum(counts)
        self.padded = np.minimum((ends - counts)[:, None] + np.arange(counts.max()),
                                 ends[:, None] - 1)
        for arr in (self.rows, self.cols, self.padded):
            arr.setflags(write=False)

    def row(self, i):
        """Column indices of row i's live entries, ascending."""
        return self.cols[self.padded[i, 0]:self.padded[i, -1] + 1]


def softmax_lastdim(x, bias=None, live=None, logit_scale=1.0):
    """Row-wise softmax of logit_scale * x + bias over the last axis,
    stabilized by max-subtraction.

    bias : optional tensor broadcastable to x, added to the scaled logits
           (gradient flows to it).
    live : optional LiveEntries of x's 2-D shape; each row
           normalizes over its live entries and every other entry is
           exactly 0. Only the live logits are scaled, added, maxed,
           exponentiated and divided; the row sums run over the dense rows,
           so the result is bitwise the dense masked softmax.
    """
    x = _lift(x)
    c = float(logit_scale)
    parents = [x]
    if bias is not None:
        bias = _lift(bias)
        parents.append(bias)
    if live is None:
        z = x.data * c
        if bias is not None:
            z = z + bias.data
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        out = e / e.sum(axis=-1, keepdims=True)
    else:
        if x.shape != live.shape:
            raise ShapeError(f"softmax_lastdim: logits {x.shape} != live entries "
                             f"{live.shape}")
        rows, cols = live.rows, live.cols
        z = x.data[rows, cols] * c
        if bias is not None:
            z = z + np.broadcast_to(bias.data, x.shape)[rows, cols]
        e = np.exp(z - z[live.padded].max(axis=1)[rows])
        out = np.zeros(x.shape, dtype=z.dtype)
        out[rows, cols] = e
        out[rows, cols] = e / out.sum(axis=-1)[rows]

    def backprop(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        dz = out * (g - inner)
        if x.requires_grad:
            _accumulate(x, _unbroadcast(dz * c, x.shape), fresh=True)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(dz, bias.shape), fresh=True)

    return _result(out, tuple(parents), backprop)


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


def backward(loss):
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Reverse topological order, one visit per node; multi-use tensors
    accumulate contributions additively.
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
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)
