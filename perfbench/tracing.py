"""Spans and counters recorded from outside the program.

A Tracer replaces a module attribute (or a class method) with a wrapper
that records one span per call: name, phase, parent span, start and end.
Wrappers are installed at the names each caller looks up, so
`training.forward` is wrapped where `train_model` and `evaluate_split`
find it, and nothing under src/ is edited. Spans stay in memory until the
run ends; `write` stores them and `layer_metrics` derives the per-layer
numbers from them.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = str(Path(__file__).resolve().parent)

# Phases whose spans belong to the workload itself. "probe" is the short
# coverage pass every traced run makes; a layer the workload never calls
# takes its numbers from there. "count" spans come from the profiled pass
# and are slowed by the profile hook, so no timing is taken from them.
OWN_PHASES = ("setup", "run")
PROBE_PHASE = "probe"
COUNT_PHASE = "count"

# Spans that give structure (parents, self time, steps, val passes) but no
# per-call timing metric of their own.
CONTEXT_SPANS = ("radar.emit_dataset", "training.train_model",
                 "training.evaluate_split")


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.sites = _sites()
        self.spans = []        # [name, phase, parent index or -1, start, end]
        self.stack = []
        self.phase = None
        self.phase_wall = defaultdict(float)
        self.counts = defaultdict(int)
        self.in_step = False
        self.counting = False  # profile hook and graph walks active
        self._patches = []

    def timed_phase(self, phase, fn, profile=False):
        """Run fn with the wrappers installed, its spans tagged `phase`;
        with profile, also count calls per training step and graph nodes."""
        self.phase = phase
        for owner, attr, name, before, after in self.sites:
            self._wrap(owner, attr, name, before, after)
        if profile:
            self.counting = True
            sys.setprofile(self._profile)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.phase_wall[phase] += perf_counter() - t0
            if profile:
                sys.setprofile(None)
                self.counting = False
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _wrap(self, owner, attr, name, before, after):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span = [name, tracer.phase, tracer.stack[-1] if tracer.stack else -1,
                    perf_counter(), 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- exact counts -------------------------------------------------------

    def _profile(self, frame, event, arg):
        """sys.setprofile hook: counts Python and C function calls made
        while a training step runs, leaving out the benchmark's own frames."""
        if self.in_step and self.counting and event in ("call", "c_call") \
                and not frame.f_code.co_filename.startswith(HERE):
            self.counts["step_calls"] += 1

    def write(self, path):
        t_zero = self.spans[0][3] if self.spans else 0.0
        lines = ["id,parent,phase,name,start_s,end_s"]
        for i, (name, phase, parent, start, end) in enumerate(self.spans):
            lines.append(f"{i},{parent},{phase},{name},{start - t_zero:.9f},"
                         f"{end - t_zero:.9f}")
        Path(path).write_text("\n".join(lines) + "\n")


def graph_nodes(loss):
    """Number of distinct tensors reachable from `loss` through parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# ---------------------------------------------------------------------------
# Hooks run around single calls

def _count_frame(tracer, args, kwargs, result):
    tracer.counts[f"{tracer.phase}.rendered_frames"] += 1
    tracer.counts[f"{tracer.phase}.scatterers"] += len(args[0])


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts[f"{tracer.phase}.rdt_writes"] += 1
    tracer.counts[f"{tracer.phase}.rdt_bytes"] += os.path.getsize(args[0])


def _step_begins(tracer, args, kwargs):
    if kwargs.get("train"):
        tracer.in_step = True
        tracer.counts[f"{tracer.phase}.step_samples"] += 1


def _step_ends(tracer, args, kwargs, result):
    tracer.in_step = False
    tracer.counts[f"{tracer.phase}.steps"] += 1


def _walk_graph(tracer, args, kwargs):
    if tracer.counting:
        tracer.counting = False          # the walk itself is not counted
        tracer.counts["graph_nodes"] += graph_nodes(args[0])
        tracer.counting = True


def _sites():
    """Every public function the per-layer metrics time, at the name its
    caller looks up: (owner, attribute, span name, before hook, after hook)."""
    from pulse import cli, model, radar, storage, tensor, training

    return [
        (radar, "emit_dataset", "radar.emit_dataset", None, None),
        (radar, "make_scene", "radar.make_scene", None, None),
        (radar.Scene, "scatterers_at", "radar.scatterers_at", None, None),
        (radar, "render_frame", "radar.render_frame", None, _count_frame),
        (radar, "rad_fft", "radar.rad_fft", None, None),
        (storage, "write_rdt", "storage.write_rdt", None, _count_bytes),
        (storage, "load_dataset", "storage.load_dataset", None, None),
        (cli, "load_checkpoint", "storage.load_checkpoint", None, None),
        (training, "normalize_frame", "features.normalize_frame", None, None),
        (training, "spatial_magnitude", "features.spatial_magnitude", None, None),
        (model, "spatial_magnitude", "features.spatial_magnitude", None, None),
        (training, "forward", "model.forward", _step_begins, None),
        (model, "tokenize_spatial", "model.tokenize_spatial", None, None),
        (model, "tokenize_doppler", "model.tokenize_doppler", None, None),
        (model, "gate", "model.gate", None, None),
        (model, "conditional_cross_attention", "model.xattn", None, None),
        (model, "residual_update", "model.residual", None, None),
        (model, "spatial_transformer", "model.transformer", None, None),
        (model, "regress", "model.regress", None, None),
        (tensor, "backward", "tensor.backward", _walk_graph, None),
        (training, "clip_global_norm", "optim.clip", None, None),
        (training, "adam_step", "optim.adam_step", None, _step_ends),
        (training, "train_model", "training.train_model", None, None),
        (training, "build_samples", "training.build_samples", None, None),
        (training, "evaluate_split", "training.evaluate_split", None, None),
        (training, "sequence_report", "metrics.sequence_report", None, None),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans

def tail(values):
    """The highest order statistic with at least ten samples above it, and
    its percentile level; the maximum while that would not lie above the
    median (fewer than 22 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n - 11 > n // 2 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def _step_durations(spans, indices):
    """A training step runs from its first training forward to the end of
    its Adam update; both are direct children of train_model."""
    out = []
    start = None
    for i in indices:
        name, _, _, s0, s1 = spans[i]
        if name == "model.forward" and start is None:
            start = s0
        elif name == "optim.adam_step":
            out.append(s1 - start)
            start = None
    return out


def layer_metrics(tracer):
    """-> (metrics dict, notes list). Each layer's numbers come from the
    workload's own phases when it called that layer, else from the probe."""
    spans = tracer.spans
    children = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[2]].append(i)
    self_time = [s[4] - s[3] - sum(spans[c][4] - spans[c][3] for c in children[i])
                 for i, s in enumerate(spans)]
    groups = {own: defaultdict(list) for own in (True, False)}
    for i, span in enumerate(spans):
        if span[1] == COUNT_PHASE:
            continue
        groups[span[1] in OWN_PHASES][span[0]].append(i)

    def pick(name):
        own = groups[True].get(name)
        return (own, "own") if own else (groups[False].get(name, []), "probe")

    metrics, notes = {}, []

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def put_times(metric, durations, source):
        if not durations:
            raise RuntimeError(f"no samples for {metric}")
        ms = [1e3 * d for d in durations]
        value, level = tail(ms)
        put(f"{metric}_ms", statistics.median(ms), "ms")
        put(f"{metric}_tail_ms", value, "ms")
        notes.append(f"{metric}: n={len(ms)} tail=p{level:.1f} source={source}")

    for name in dict.fromkeys(site[2] for site in tracer.sites):
        if name in CONTEXT_SPANS:
            continue
        indices, source = pick(name)
        put_times(name, [spans[i][4] - spans[i][3] for i in indices], source)

    # val passes: evaluate_split called by train_model
    indices, source = pick("training.train_model")
    runs = set(indices)
    val = [i for i in groups[source == "own"]["training.evaluate_split"]
           if spans[i][2] in runs]
    put_times("training.val_eval", [spans[i][4] - spans[i][3] for i in val], source)
    steps = []
    for run in indices:
        steps += _step_durations(spans, children[run])
    put_times("training.step", steps, source)

    # the model stages account for the forward pass up to its self time
    indices, source = pick("model.forward")
    total = sum(spans[i][4] - spans[i][3] for i in indices)
    put("model.forward_self_pct", 100.0 * sum(self_time[i] for i in indices) / total,
        "%")

    # where the time went: each module's self time as a share of the first
    # phase, of run, setup and probe, in which the module has spans
    for module in dict.fromkeys(site[2].split(".")[0] for site in tracer.sites):
        for phase in ("run", "setup", PROBE_PHASE):
            mine = [i for i, span in enumerate(spans) if span[1] == phase
                    and span[0].startswith(module + ".")]
            if mine:
                break
        put(f"{module}.self_pct",
            100.0 * sum(self_time[i] for i in mine) / tracer.phase_wall[phase], "%")
        notes.append(f"{module}.self_pct: share of phase {phase}")

    # exact counts
    def per(num, den):
        for phases in (OWN_PHASES, (PROBE_PHASE,)):
            d = sum(tracer.counts[f"{phase}.{den}"] for phase in phases)
            if d:
                return sum(tracer.counts[f"{phase}.{num}"] for phase in phases) / d
        raise RuntimeError(f"no samples for {num}/{den}")

    put("radar.scatterers_per_frame", per("scatterers", "rendered_frames"), "count")
    put("storage.bytes_written", per("rdt_bytes", "rdt_writes"), "bytes")
    steps = tracer.counts[f"{COUNT_PHASE}.steps"]
    samples = tracer.counts[f"{COUNT_PHASE}.step_samples"]
    put("training.py_calls_per_step", tracer.counts["step_calls"] / steps, "count")
    put("tensor.graph_nodes_per_sample", tracer.counts["graph_nodes"] / samples,
        "count")
    return metrics, notes
