"""Named parameter groups, Adam with decoupled weight decay, global-norm
gradient clipping, and a central-difference gradient checker.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .tensor import Tensor, backward


class ParamGroup:
    """Ordered named parameters. A float64 array given to `add` becomes the
    parameter's storage without a copy.

    The group's first clip_global_norm or adam_step lays out its optimizer
    arena: one (6, size) array whose rows hold every parameter end to end,
    in order: the values, the gradients, Adam's m and v, and two scratch
    rows. Each parameter's .data becomes a view of its slice of the values
    row, and `moments` maps each name to views of its m and v slices; until
    then `moments` stays empty, so a group that is only evaluated allocates
    no optimizer state. After that, write a parameter's values in place: an
    optimizer call on a group with a rebound .data raises UsageError.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step_count = 0
        self._arena = None
        self._slices = []    # each parameter's slice of an arena row

    def add(self, name, values):
        if name in self.params:
            raise UsageError(f"duplicate parameter name {name!r}")
        if self._arena is not None:
            raise UsageError(f"cannot add {name!r} to a group whose optimizer "
                             f"arena is laid out")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name):
        return self.params[name]

    def names(self):
        return list(self.params.keys())

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def grads(self):
        """Current gradients keyed by name (zeros where backward saw no path)."""
        out = {}
        for name, p in self.params.items():
            out[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        return out

    def copy_values(self):
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_values(self, values):
        for name, p in self.params.items():
            src = np.asarray(values[name], dtype=np.float64)
            if src.shape != p.data.shape:
                raise UsageError(
                    f"parameter {name!r} shape {src.shape} != expected {p.data.shape}")
            p.data[...] = src

    def arena(self):
        """The optimizer arena's rows (values, gradients, m, v, scratch,
        scratch), laid out on the first call."""
        if self._arena is None:
            ends = [0]
            for p in self.params.values():
                ends.append(ends[-1] + p.data.size)
            self._arena = np.zeros((6, ends[-1]))
            self._slices = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
            values, _, m, v, _, _ = self._arena
            for (name, p), s in zip(self.params.items(), self._slices):
                values[s] = p.data.reshape(-1)
                p.data = values[s].reshape(p.data.shape)
                self.moments[name] = (m[s].reshape(p.data.shape),
                                      v[s].reshape(p.data.shape))
        for name, p in self.params.items():
            if p.data.base is not self._arena:
                raise UsageError(f"parameter {name!r}: .data was rebound after "
                                 f"the optimizer arena was laid out; write "
                                 f"its values in place")
        return self._arena


def uniform_init(rng, shape, fan_in):
    """Affine weight init: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def clip_global_norm(group, max_norm):
    """Gather the group's gradients into its arena (zeros where backward
    saw no path) and rescale them there by max_norm/|g| only when the joint
    norm |g| exceeds max_norm. The squared norm is summed parameter by
    parameter, in order. Returns (the arena's gradient row, |g|)."""
    if max_norm <= 0:
        raise DomainError(f"max_norm must be positive, got {max_norm}")
    _, grads, _, _, square, _ = group.arena()
    for p, s in zip(group.params.values(), group._slices):
        grads[s] = 0.0 if p.grad is None else p.grad.reshape(-1)
    np.multiply(grads, grads, out=square)
    sq = 0.0
    for s in group._slices:
        sq += float(square[s].sum())
    norm = math.sqrt(sq)
    if norm > max_norm:
        grads *= max_norm / norm
    return grads, norm


def adam_step(group, grads, lr, beta1=0.9, beta2=0.999, eps_adam=1e-8,
              weight_decay=0.0):
    """One Adam update of the whole arena from `grads`, the flat gradient
    of the group's parameters in order (as clip_global_norm returns it).

    Decoupled weight decay shrinks parameters by lr*wd before the moment
    update, so the decay never enters the moment estimates. The moments
    start at zero. Every op is elementwise over the arena's rows.
    """
    if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
        raise DomainError(f"beta1/beta2 must lie in (0,1), got {beta1}, {beta2}")
    values, _, m, v, denom, step = group.arena()
    if np.shape(grads) != values.shape:
        raise UsageError(f"adam_step needs a flat gradient of {values.size} "
                         f"entries, got shape {np.shape(grads)}")
    group.step_count += 1
    t = group.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    if weight_decay:
        np.multiply(values, lr * weight_decay, out=step)
        values -= step
    m *= beta1
    np.multiply(grads, 1.0 - beta1, out=step)
    m += step
    v *= beta2
    np.multiply(grads, grads, out=step)
    step *= 1.0 - beta2
    v += step
    # lr * (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps_adam
    np.divide(m, bc1, out=step)
    step *= lr
    step /= denom
    values -= step
    return group


class GradReport(dict):
    """{name: max relative error} of a grad_check, plus `worst`: the
    (name, flat index, analytic, numeric) of the entry with the largest
    relative error over all parameters, or None if the group is empty."""

    worst = None


def grad_check(build_loss, group, step=1e-5):
    """Compare autodiff gradients against central differences.

    build_loss(params) must construct a fresh scalar loss graph from the
    current values of params[name]: the group for the analytic backward,
    and for the central-difference probes constant tensors that share the
    parameters' arrays, so a probe records no graph. Returns a GradReport
    {name: max relative error} with the relative error of entry i defined
    as |a_i - n_i| / max(|a_i|, |n_i|, 1e-8).
    """
    if step <= 0:
        raise DomainError(f"grad_check step must be positive, got {step}")
    constants = {name: Tensor(p.data) for name, p in group.params.items()}

    def eval_loss():
        val = build_loss(constants).item()
        if not math.isfinite(val):
            raise NumericError(f"non-finite loss {val} at a probe point")
        return val

    group.zero_grad()
    loss = build_loss(group)
    if not np.isfinite(loss.data).all():
        raise NumericError("non-finite loss at the evaluation point")
    backward(loss)
    analytic = {name: g.copy() for name, g in group.grads().items()}

    report = GradReport()
    for name, p in group.params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = eval_loss()
            flat[i] = orig - step
            f_minus = eval_loss()
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * step)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        errors = np.abs(a - numeric) / denom
        report[name] = float(np.max(errors)) if flat.size else 0.0
        if flat.size and report[name] >= max(report.values()):
            i = int(np.argmax(errors))
            report.worst = (name, i, float(a[i]), float(numeric[i]))
    return report


def group_errors_by_prefix(report):
    """Collapse a per-parameter error table onto top-level name prefixes."""
    grouped = {}
    for name, err in report.items():
        prefix = name.split(".", 1)[0]
        grouped[prefix] = max(grouped.get(prefix, 0.0), err)
    return grouped
