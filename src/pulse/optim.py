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

    `moments` holds each parameter's Adam (m, v) buffers; it stays empty
    until adam_step first updates the group, so a group that is only
    evaluated allocates no optimizer state.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step_count = 0

    def add(self, name, values):
        if name in self.params:
            raise UsageError(f"duplicate parameter name {name!r}")
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
            p.data = src.copy()


def uniform_init(rng, shape, fan_in):
    """Affine weight init: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def clip_global_norm(grads, max_norm):
    """Rescale all gradients by max_norm/|g| only when the joint norm exceeds
    max_norm. Returns (grads, global_norm)."""
    if max_norm <= 0:
        raise DomainError(f"max_norm must be positive, got {max_norm}")
    sq = 0.0
    for g in grads.values():
        sq += float((g * g).sum())
    norm = math.sqrt(sq)
    if norm > max_norm:
        factor = max_norm / norm
        grads = {name: g * factor for name, g in grads.items()}
    return grads, norm


def adam_step(group, grads, lr, beta1=0.9, beta2=0.999, eps_adam=1e-8,
              weight_decay=0.0):
    """One Adam update over every parameter in the group.

    Decoupled weight decay shrinks parameters by lr*wd before the moment
    update, so the decay never enters the moment estimates. A parameter's
    moment buffers are created zeroed on its first update.
    """
    if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
        raise DomainError(f"beta1/beta2 must lie in (0,1), got {beta1}, {beta2}")
    group.step_count += 1
    t = group.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in group.params.items():
        g = grads[name]
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        if name not in group.moments:
            group.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = group.moments[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps_adam)
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
