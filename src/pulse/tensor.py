"""Dense row-major tensors with reverse-mode automatic differentiation.

Values live in float32 or float64 numpy arrays, and an op computes in the
dtype of its inputs: the training graph runs in float64, an evaluation
forward on float32 parameters in float32. Scalars stay Python floats, which
take the dtype of the array they meet. The graph bookkeeping and every
backward rule are local to this module. Graphs are built functionally: each
op returns a fresh Tensor holding its parents and a closure that pushes the
upstream gradient to them; an op none of whose inputs requires grad records
neither, so a forward on constant parameters builds no graph. `backward`
walks the reverse topological order exactly once per node and accumulates
gradients additively, so a tensor feeding two consumers receives the sum of
both path gradients; it frees each interior node as it finishes it.

A batched tensor has a leading batch axis of independent samples; ops on it
act on each sample as they would on that sample alone. Activations are
batched (a single sample is a batch of one): `attention` and train-mode
`dropout` accept nothing else. An unbatched tensor a batched op reads (a
parameter every sample shares, always a leaf) receives each sample's
gradient summed on its own, and backward folds those sample by sample once
the walk ends: all of sample 0's contributions in walk order, then sample
1's, and so on. So a batch of B gives bitwise the gradients of B per-sample
graphs summed in a loop.

All ops are deterministic given identical inputs; dropout takes an explicit
integer key per sample and draws each mask from a counter-based Philox
stream so runs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ShapeError, UsageError


_FLOAT32 = np.dtype(np.float32)


class Tensor:
    """A node in the autodiff graph.

    data          row-major numpy array: a float32 array stays float32,
                  anything else becomes float64
    requires_grad whether gradients should flow to (or through) this node
    batched       whether axis 0 of data is a batch of independent samples
    grad          populated by backward(); same shape as data
    """

    __slots__ = ("data", "grad", "requires_grad", "batched", "_parents",
                 "_backprop", "_parts", "_waiting")

    def __init__(self, values, requires_grad=False, _parents=(), _backprop=None,
                 batched=False):
        if not (type(values) is np.ndarray and values.dtype == _FLOAT32):
            values = np.asarray(values, dtype=np.float64)
        self.data = values
        self.requires_grad = bool(requires_grad)
        self.batched = bool(batched)
        self.grad = None
        self._parents = _parents
        self._backprop = _backprop
        self._parts = None      # deferred per-sample gradients, see _defer
        self._waiting = 0       # consumers a leaf still waits on during backward

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
    batched = requires = False
    for p in parents:
        batched = batched or p.batched
        requires = requires or p.requires_grad
    if not requires:
        return Tensor(data, batched=batched)
    return Tensor(data, requires_grad=True, _parents=tuple(parents),
                  _backprop=backprop, batched=batched)


def _unbroadcast(grad, shape, lead=0):
    """Sum `grad` down to `shape`, undoing numpy broadcasting. lead=1 keeps
    grad's leading batch axis and sums each sample's gradient on its own,
    to (batch, *shape)."""
    while grad.ndim > len(shape) + lead:
        grad = grad.sum(axis=lead)
    for axis, extent in enumerate(shape, start=lead):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(grad.shape[:lead] + tuple(shape))


def _accumulate(tensor, grad, fresh=False):
    """Add `grad` into tensor.grad. fresh=True asserts the caller hands over
    ownership of a newly allocated array, skipping the defensive copy."""
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = grad if fresh else np.array(grad, dtype=tensor.data.dtype)
    else:
        tensor.grad += grad


def _defer(tensor, grads):
    """Keep the per-sample gradients `grads`, shape (batch, *tensor.shape),
    of an unbatched leaf until its last consumer in the walk has handed in
    its own, then fold them all; see _fold."""
    if tensor._backprop is not None:
        raise UsageError("a batched op read an unbatched interior tensor; only "
                         "leaves may be shared by the samples of a batch")
    if tensor._parts is None:
        tensor._parts = []
    tensor._parts.append(grads)
    tensor._waiting -= 1
    if tensor._waiting == 0:
        _fold(tensor)


def _fold(tensor):
    """Add a leaf's deferred per-sample gradients into its .grad sample-major:
    sample 0's contributions in walk order, then sample 1's, and so on,
    which is the order a loop of per-sample graphs would add them in."""
    parts, tensor._parts = tensor._parts, None
    for b in range(len(parts[0])):
        for grads in parts:
            if tensor.grad is None:
                tensor.grad = grads[b].copy()
            else:
                tensor.grad += grads[b]


def _push(tensor, grad, batched, fresh=False):
    """Hand `tensor` its share `grad` of the gradient of a broadcasting op's
    output. An unbatched tensor a batched op read gets each sample's share
    summed on its own and deferred; any other gets the share summed down to
    its shape."""
    if not tensor.requires_grad:
        return
    if batched and not tensor.batched:
        _defer(tensor, _unbroadcast(grad, tensor.shape, lead=1))
    else:
        _accumulate(tensor, _unbroadcast(grad, tensor.shape),
                    fresh=fresh or grad.shape != tensor.shape)


# ---------------------------------------------------------------------------
# Elementwise arithmetic (numpy broadcasting, gradients unbroadcast).

def add(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data + b.data

    def backprop(g):
        batched = a.batched or b.batched
        _push(a, g, batched)
        _push(b, g, batched)

    return _result(out, (a, b), backprop)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data - b.data

    def backprop(g):
        batched = a.batched or b.batched
        _push(a, g, batched)
        if b.requires_grad:
            _push(b, -g, batched, fresh=True)

    return _result(out, (a, b), backprop)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data * b.data

    def backprop(g):
        batched = a.batched or b.batched
        if a.requires_grad:
            _push(a, g * b.data, batched, fresh=True)
        if b.requires_grad:
            _push(b, g * a.data, batched, fresh=True)

    return _result(out, (a, b), backprop)


def div(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data / b.data

    def backprop(g):
        batched = a.batched or b.batched
        if a.requires_grad:
            _push(a, g / b.data, batched, fresh=True)
        if b.requires_grad:
            _push(b, -g * a.data / (b.data * b.data), batched, fresh=True)

    return _result(out, (a, b), backprop)


def scale(x, c):
    x = _lift(x)
    c = float(c)
    out = x.data * c

    def backprop(g):
        _accumulate(x, g * c, fresh=True)

    return _result(out, (x,), backprop)


def _check_matmul(a, b):
    if not 2 <= a.data.ndim <= 2 + a.batched or not 2 <= b.data.ndim <= 2 + b.batched \
            or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul needs (m,k)@(k,n), got {a.shape} @ {b.shape}")


def matmul(a, b):
    """(m,k)@(k,n); either side may carry a leading batch axis."""
    a, b = _lift(a), _lift(b)
    _check_matmul(a, b)
    out = a.data @ b.data

    def backprop(g):
        batched = a.batched or b.batched
        if a.requires_grad:
            _push(a, g @ b.data.swapaxes(-1, -2), batched, fresh=True)
        if b.requires_grad:
            _push(b, a.data.swapaxes(-1, -2) @ g, batched, fresh=True)

    return _result(out, (a, b), backprop)


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
    in its group's window and `hidden` its complement. A query row with no
    visible key is rejected.
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
        for arr in (self.visible, self.hidden):
            arr.setflags(write=False)
        self.groups, self.rows_per_group, width = visible.shape
        self.block = int(block)
        self.window = width // self.block
        self.before = int(before)

    def windows(self, x, heads):
        """(B, M, heads * e) key rows -> (B, heads, G, window * block, e):
        each head's rows of every group's window, zero rows in the padding."""
        g, b = self.groups, self.block
        batch = len(x)
        padded = np.zeros((batch, heads, g + self.window - 1, b, x.shape[-1] // heads),
                          x.dtype)
        padded[:, :, self.before:self.before + g] = \
            x.reshape(batch, g, b, heads, -1).transpose(0, 3, 1, 2, 4)
        shifted = sliding_window_view(padded, self.window, axis=2)
        return shifted.transpose(0, 1, 2, 5, 3, 4).reshape(
            batch, heads, g, -1, padded.shape[-1])

    def overlap_add(self, xw):
        """Adjoint of windows for one sample: (heads, G, window * block, e) ->
        (M, heads * e), summing each key row over the windows that share it."""
        heads, g, _, e = xw.shape
        padded = np.zeros((heads, g + self.window - 1, self.block, e), xw.dtype)
        shifted = xw.reshape(heads, g, self.window, self.block, e)
        for o in range(self.window):
            padded[:, o:o + g] += shifted[:, :, o]
        return padded[:, self.before:self.before + g].transpose(1, 2, 0, 3) \
            .reshape(g * self.block, heads * e)


def attention(q, k, v, heads, logit_scale, bias=None, band=None):
    """Multi-head attention over a batch: per sample and head h,
    softmax(logit_scale * q_h k_h^T + bias) v_h, with the heads as one more
    batch axis.

    q       : batched (B, N, d) queries; k, v : batched (B, M, d) keys and
              values. Head h owns the columns h * d/heads .. (h + 1) * d/heads - 1.
    bias    : optional (B, M, 1) tensor, one column per sample (the shape of
              a gate), added to every head's logits, per key.
    band    : optional Band; each query group then scores only the keys of
              its window, and keys it hides get weight exactly 0.
              None lets every query see every key (one group, one block).
    Returns the (B, N, d) tensor of the head contexts side by side, and the
    weights as a (B, heads, G, N / G, K) array: G = 1 and K = M without a
    band, else the band's groups and window width.

    The logits of all heads live in one array and the softmax runs on it in
    place; the backward is one closure that runs a sample at a time, using
    dz = P * (dP - rowsum(dP * P)). With a band, the key, value and bias
    gradients of the overlapping windows are added back onto the shared key
    rows.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    # k.shape[::2] and q.shape[::2] are each (B, d)
    if not (q.batched and k.batched and v.batched) or q.data.ndim != 3 \
            or k.data.ndim != 3 or k.shape[::2] != q.shape[::2] \
            or v.shape != k.shape or q.shape[2] % heads:
        raise ShapeError(f"attention needs batched (B, N, d) queries and (B, M, d) "
                         f"keys and values with heads | d, got {q.shape}, "
                         f"{k.shape}, {v.shape} and {heads} heads")
    batch, n, d = q.shape
    m = k.shape[1]
    if band is not None and (band.groups * band.rows_per_group != n
                             or band.groups * band.block != m):
        raise ShapeError(f"band of {band.groups} groups of {band.rows_per_group} "
                         f"queries and blocks of {band.block} keys does not fit "
                         f"{n} queries and {m} keys")
    c = float(logit_scale)
    dh = d // heads
    groups = 1 if band is None else band.groups

    def windows(x, h):
        """(B, M, h * e) -> (B, h, G, K, e)"""
        if band is None:
            return x.reshape(batch, 1, m, h, -1).transpose(0, 3, 1, 2, 4)
        return band.windows(x, h)

    def overlap_add(xw):
        """One sample's (heads, G, K, e) -> (M, heads * e)"""
        if band is None:
            return xw[:, 0].transpose(1, 0, 2).reshape(m, -1)
        return band.overlap_add(xw)

    def split_heads(x):
        """(B, N, d) -> (B, heads, G, N / G, dh)"""
        return x.reshape(batch, groups, n // groups, heads, dh).transpose(0, 3, 1, 2, 4)

    parents = [q, k, v]
    qg = split_heads(q.data) * c
    kw, vw = windows(k.data, heads), windows(v.data, heads)
    p = qg @ kw.swapaxes(-1, -2)
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != (batch, m, 1):
            raise ShapeError(f"attention bias must be (B, M, 1) = {(batch, m, 1)}, "
                             f"got {bias.shape}")
        parents.append(bias)
        p += windows(bias.data, 1)[..., 0][..., None, :]
    if band is None:
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
    else:
        # the row max, exp and zeroing read only the visible entries, so the
        # hidden ones need no -inf
        p -= p.max(axis=-1, keepdims=True, where=band.visible, initial=-np.inf)
        np.exp(p, out=p, where=band.visible)
        np.copyto(p, 0.0, where=band.hidden)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = p @ vw
    out = ctx.transpose(0, 2, 3, 1, 4).reshape(batch, n, d)

    bias_grad = bias is not None and bias.requires_grad

    def sample_grads(gh, p, qg, kw, vw, ctx):
        """One sample's gradients of v, q, k and bias, None where not needed."""
        dv = overlap_add(p.swapaxes(-1, -2) @ gh) if v.requires_grad else None
        if not (q.requires_grad or k.requires_grad or bias_grad):
            return dv, None, None, None
        # rowsum(dP * P) = rowsum(g * ctx), as P @ V = ctx
        dz = gh @ vw.swapaxes(-1, -2)
        dz -= np.einsum("...e,...e->...", gh, ctx)[..., None]
        dz *= p
        dq = ((dz @ kw) * c).transpose(1, 2, 0, 3).reshape(n, d) \
            if q.requires_grad else None
        dk = overlap_add(dz.swapaxes(-1, -2) @ qg) if k.requires_grad else None
        db = overlap_add(dz.sum(axis=(0, 2))[None, :, :, None]) if bias_grad else None
        return dv, dq, dk, db

    def backprop(g):
        # a sample at a time: whole-batch temporaries (1.5 MB each at the
        # desk profile) made the allocator hand pages back and fault them
        # in again on every step
        per_sample = zip(*(sample_grads(*one)
                           for one in zip(split_heads(g), p, qg, kw, vw, ctx)))
        for tensor, parts in zip((v, q, k, bias), per_sample):
            if parts[0] is not None:
                _accumulate(tensor, np.stack(parts), fresh=True)

    return _result(out, tuple(parents), backprop), p


def dropout(x, p, key, train):
    """Inverted dropout; identity when train is off.

    x is batched and takes one key per sample; each sample draws its mask
    from a Philox stream keyed by its key, so a fixed key reproduces the
    same mask bit-for-bit regardless of call order or batch.
    """
    x = _lift(x)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout probability must be in [0,1), got {p}")
    if not train or p == 0.0:
        return x
    if not x.batched:
        raise ShapeError(f"dropout needs a batched tensor, got unbatched {x.shape}")
    if len(key) != len(x.data):
        raise ShapeError(f"{len(key)} dropout keys for a batch of {len(x.data)}")

    def draw(k):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(int(k) & (2**64 - 1))))
        return rng.random(x.shape[1:])

    keep = np.stack([draw(k) for k in key]) >= p
    factor = keep / (1.0 - p)
    out = x.data * factor

    def backprop(g):
        _accumulate(x, g * factor, fresh=True)

    return _result(out, (x,), backprop)


def fold_sum(x):
    """Sum over the batch axis as the left fold ((x0 + x1) + x2) + ..., the
    order of a per-sample loop; numpy's sum is pairwise from 8 terms on."""
    x = _lift(x)
    out = x.data[0]
    for value in x.data[1:]:
        out = out + value

    def backprop(g):
        _accumulate(x, np.broadcast_to(g, x.shape).copy(), fresh=True)

    total = _result(out, (x,), backprop)
    total.batched = False
    return total


# ---------------------------------------------------------------------------
# Fused layers. Each is one node whose backward performs the float operations
# of the composite of primitives it replaces, in the composite's order, and
# hands its inputs their shares in the order the composite's walk did; the
# graph walk reaches its inputs in the composite's order too. So outputs and
# gradients are bitwise the composite's.

def affine(x, w, b):
    """x @ w + b with the (n,) bias b broadcast over rows; x may carry a
    leading batch axis. The backward is add(matmul(x, w), b)'s: b's share,
    then x's, then w's."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    _check_matmul(x, w)
    if b.shape != w.shape[-1:]:
        raise ShapeError(f"affine bias must be {w.shape[-1:]}, got {b.shape}")
    out = x.data @ w.data
    out += b.data

    def backprop(g):
        batched = x.batched or w.batched or b.batched
        _push(b, g, batched)
        if x.requires_grad:
            _push(x, g @ w.data.swapaxes(-1, -2), batched, fresh=True)
        if w.requires_grad:
            _push(w, x.data.swapaxes(-1, -2) @ g, batched, fresh=True)

    return _result(out, (x, w, b), backprop)


LAYER_NORM_VAR_EPS = 1e-15


def layer_norm(x, gain, bias):
    """Per-row normalization over the last axis, then elementwise affine.

    The variance floor is tiny so a normalized row really has unit variance
    to near machine precision; constant rows map to zeros instead of NaN.
    The backward is that of the composite
    add(mul(div(c, sqrt(add(mean(mul(c, c)), eps))), gain), bias) with
    c = sub(x, mean(x)): bias's share, gain's, then x's through c and
    through its mean.
    """
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    n = x.shape[-1]
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    sd = np.sqrt((centered * centered).mean(axis=-1, keepdims=True)
                 + LAYER_NORM_VAR_EPS)
    normed = centered / sd
    out = normed * gain.data
    out += bias.data

    def backprop(g):
        _push(bias, g, x.batched or gain.batched or bias.batched)
        if gain.requires_grad:
            _push(gain, g * normed, x.batched or gain.batched, fresh=True)
        if not x.requires_grad:
            return
        g_normed = g * gain.data
        g_sd = (-g_normed * centered / (sd * sd)).sum(axis=-1, keepdims=True)
        g_var = g_sd * 0.5 / sd
        # mul(c, c) hands c its share twice, after div's
        g_square = (g_var / n) * centered
        g_centered = g_normed / sd
        g_centered += g_square
        g_centered += g_square
        g_mean = (-g_centered).sum(axis=-1, keepdims=True)
        _accumulate(x, g_centered, fresh=True)
        _accumulate(x, np.broadcast_to(g_mean / n, x.shape))

    return _result(out, (x, gain, bias), backprop)


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
    upstream needs it. Leaves keep .grad; the per-sample gradients a batch
    deferred to a leaf are folded in once its last consumer has run. A
    second backward through a consumed node raises UsageError.
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
            for parent in node._parents:
                if parent.requires_grad and parent._backprop is None:
                    parent._waiting += 1
            continue
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(topo):
            if node._backprop is None:
                continue
            if node.grad is not None:
                node._backprop(node.grad)
            node._parents, node._backprop, node.grad = (), _consumed, None
    except BaseException:
        for node in topo:
            node._parts, node._waiting = None, 0
        raise
    # a consumer whose gradient stayed None never handed its share in
    for node in topo:
        node._waiting = 0
        if node._parts is not None:
            _fold(node)
