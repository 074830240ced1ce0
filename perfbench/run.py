"""pulse benchmark: dataset synthesis, desk training and full-profile
evaluation, timed end to end and, in a traced run, per module.

Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Lines before it say the same for a human reader.
Inputs derive from --seed only; every workload is a closed loop with one
client, and checks its outputs outside the timed region. See README.md in
this directory for the workloads, metrics and predictions.
"""

import os

# One thread for every BLAS the process may load, before numpy is imported.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 3
# the reference kernel's typical time on the 2-vCPU Xeon host (2.1 GHz) the
# benchmark was defined on; setup_s is reported in seconds of that host
REFERENCE_S = 0.25
MIN_JOBS = 2

# Radar and model settings of the two profiles (ROADMAP, README).
DESK_RADAR = dict(R=32, A=32, chirps_per_frame=16, noise_std=2.0)
FULL_RADAR = dict(R=64, A=64, chirps_per_frame=16, noise_std=2.0)
DESK_MODEL = dict(R=32, A=32, D=16, patch_r=4, patch_a=4, embed_dim=16, layers=2,
                  heads=2, dropout=0.1, joints=8, ablation="full")
FULL_MODEL = dict(R=64, A=64, D=16, patch_r=4, patch_a=4, embed_dim=32, layers=4,
                  heads=4, dropout=0.1, joints=8, ablation="full")
DESK_TRAIN = dict(lr=3e-3, weight_decay=0.01, batch=4, clip=1.0, epochs=500,
                  patience=500, gate_loss_weight=30.0)

# train-desk: 3 train sequences of 16 frames = 12 full batches an epoch;
# a job is two epochs plus their two val passes over 16 frames.
TRAIN_SEQUENCES, TRAIN_FRAMES, TRAIN_RATIOS = 4, 16, (0.75, 0.25, 0.0)
TRAIN_STEPS = 24
# infer-full: a job evaluates every frame of a 2 x 6 frame dataset.
INFER_SEQUENCES, INFER_FRAMES = 2, 6
# the coverage probe of a traced run: 1 train and 1 val sequence of 8 frames
PROBE_SEQUENCES, PROBE_FRAMES, PROBE_RATIOS = 2, 8, (0.5, 0.5, 0.0)


if not (SRC / "pulse" / "__init__.py").is_file():
    print(f"perfbench: no pulse sources under {SRC}; run from a full checkout",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from pulse import cli, model, radar, storage, training  # noqa: E402
from pulse.errors import PulseError  # noqa: E402

import tracing  # noqa: E402


class Checks:
    """Operations and correctness checks attempted and failed in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# The program's public entry points, called as the CLI commands call them

def synthesize(rcfg, seed, indices, frames, out, ratios=(0.5, 0.25, 0.25)):
    """`pulse synth` with mixed motion and clutter: one seeded scene for each
    of the sequence indices, then emit_dataset."""
    motions = [radar.MOTIONS[i % len(radar.MOTIONS)] for i in indices]
    scenes = [radar.make_scene(rcfg, seed=seed * 100_003 + i, motion=m, clutter=True)
              for i, m in zip(indices, motions)]
    radar.emit_dataset(rcfg, scenes, ratios, out, seed=seed,
                       frames_per_seq=frames, motions=motions, clutter=True)
    return scenes


def evaluate(checkpoint, data_dir, split):
    """`pulse eval`: load the dataset and the checkpoint, evaluate a split."""
    dataset = storage.load_dataset(data_dir)
    mcfg, params, _ = cli.load_model(checkpoint)
    return training.evaluate_split(params, mcfg, dataset, split)


def save_params(path, mcfg, seed, params):
    """The checkpoint `pulse train` writes."""
    storage.save_checkpoint(path, model.config_to_text(mcfg), seed,
                            [(name, params[name].data) for name in params.names()])


def frame_digest(data_dir):
    digest = hashlib.sha256()
    for path in sorted((Path(data_dir) / "frames").iterdir()):
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Workloads. Each has prepare (the set-up, repeated), a job (one closed-loop
# request, returning the frames it processed and its output) and verify.

class SynthDesk:
    """`pulse synth` of the acceptance desk dataset (32x32x16 grid, mixed
    motion, clutter on, noise 2.0, 8 sequences x 64 frames), one sequence
    per job: job k synthesizes sequence k mod 8 into a fresh directory."""

    sequences, frames = 8, 64

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.rcfg = radar.RadarConfig(**DESK_RADAR)

    def prepare(self):
        self.jobs = 0

    def job(self):
        index = self.jobs % self.sequences
        self.jobs += 1
        out = self.work / f"synth-{self.jobs}"
        scene, = synthesize(self.rcfg, self.seed, [index], self.frames, out)
        return self.frames, (index, scene, out)

    def verify(self, outputs, checks):
        shape = (self.rcfg.R, self.rcfg.A, self.rcfg.D)
        digests = {}
        for index, _, out in outputs:
            digest = frame_digest(out)
            checks.check(digests.setdefault(index, digest) == digest,
                         f"sequence {index} written twice with other bytes")
            for path in sorted((out / "frames").iterdir()):
                values = storage.read_rdt(path)
                checks.check(values.shape == shape and np.isfinite(values).all()
                             and (values >= 0).all(), f"{path}: shape or range")
        # one frame per sequence, re-rendered, must reload as written
        rng = np.random.default_rng([self.seed, 17])
        for index, scene, out in outputs[:self.sequences]:
            f_idx = int(rng.integers(self.frames))
            want = radar.render_scene_frame(scene, f_idx, self.rcfg,
                                            noise_seed=[self.seed, 0, f_idx])
            got = storage.read_rdt(out / "frames" / f"000_{f_idx:04d}.rdt")
            checks.check(np.array_equal(got, want.astype(np.float32)),
                         f"sequence {index} frame {f_idx} reloads to other values")
        # single-scatterer frames land on the oracle bins
        quiet = dataclasses.replace(self.rcfg, noise_std=0.0)
        for _ in range(8):
            rb = int(rng.integers(1, quiet.R - 1))
            ab = int(rng.integers(2, quiet.A - 2))
            db = int(rng.integers(1, quiet.D - 1))
            r = radar.range_for_bin(rb, quiet)
            s = radar.sin_theta_for_bin(ab, quiet)
            pos = np.array([r * s, r * math.sqrt(1 - s * s), 0.0])
            sc = radar.Scatterer(pos, radar.speed_for_bin(db, quiet), 1.0)
            out = radar.rad_fft(radar.render_frame([sc], quiet, seed=0),
                                quiet.R, quiet.A, quiet.D)
            got = np.unravel_index(np.argmax(out), out.shape)
            want = (radar.range_bin(float(np.linalg.norm(pos)), quiet),
                    radar.angle_bin(math.asin(s), quiet),
                    radar.doppler_bin(sc.radial_velocity, quiet))
            checks.check(tuple(int(g) for g in got) == want == (rb, ab, db),
                         f"oracle bins {want} != argmax {got}")


class TrainDesk:
    """`pulse train` at the desk acceptance settings with a step cap."""

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.rcfg = radar.RadarConfig(**DESK_RADAR)
        self.mcfg = model.ModelConfig(**DESK_MODEL)
        self.tcfg = training.TrainConfig(**DESK_TRAIN, max_steps=TRAIN_STEPS,
                                         seed=seed)

    def prepare(self):
        synthesize(self.rcfg, self.seed, range(TRAIN_SEQUENCES), TRAIN_FRAMES,
                   self.work / "train", ratios=TRAIN_RATIOS)
        self.dataset = storage.load_dataset(self.work / "train")
        self.val_frames = sum(len(f) for _, f, _ in
                              self.dataset.split_sequences("val"))

    def job(self):
        result = training.train_model(self.dataset, self.mcfg, self.tcfg)
        samples = (self.tcfg.max_steps * self.tcfg.batch
                   + len(result.log.records) * self.val_frames)
        # keep only what verify reads, so memory does not grow with the jobs
        return samples, (result.best_val_mpjpe, [r.loss for r in result.log.records])

    def verify(self, outputs, checks):
        first = outputs[0][0]
        for val_mpjpe, losses in outputs:
            checks.check(all(map(math.isfinite, losses)) and math.isfinite(val_mpjpe),
                         "non-finite training loss or val MPJPE")
            checks.check(val_mpjpe == first, f"val MPJPE {val_mpjpe!r} != {first!r} "
                         "on a repeat of one seed")
        self.val_mpjpe_mm = first


class InferFull:
    """`pulse eval` at the full profile (64x64x16, d=32, 4 layers, 4 heads)
    of a seeded-init checkpoint."""

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.rcfg = radar.RadarConfig(**FULL_RADAR)
        self.mcfg = model.ModelConfig(**FULL_MODEL)

    def prepare(self):
        synthesize(self.rcfg, self.seed, range(INFER_SEQUENCES), INFER_FRAMES,
                   self.work / "infer")
        save_params(self.work / "infer.ckpt", self.mcfg, self.seed,
                    model.init_params(self.mcfg, self.seed))

    def job(self):
        _, preds, _ = evaluate(self.work / "infer.ckpt", self.work / "infer", "all")
        return sum(len(p) for p in preds), np.concatenate(preds)

    def verify(self, outputs, checks):
        for preds in outputs:
            checks.check(np.isfinite(preds).all(), "non-finite predictions")
            checks.check(np.array_equal(preds, outputs[0]),
                         "predictions differ on a repeat of one seed")


WORKLOADS = {"synth-desk": SynthDesk, "train-desk": TrainDesk,
             "infer-full": InferFull}


# ---------------------------------------------------------------------------
# Measurement

def reference_seconds():
    """Wall time of a fixed kernel that shares no code with pulse, about
    0.3 s in four parts of like length: small-array Python loops (as in
    training), 3-D FFTs (as in synthesis), a 256 x 256 matmul with a
    softmax, and masked attention over 256 x 4096 scores in blocks of 16
    rows (as at the full profile). Its inputs are made and freed inside
    each call, so it holds memory only while it runs."""
    t0 = perf_counter()
    rng = np.random.default_rng(0)
    x0, w = rng.standard_normal((64, 16)), rng.standard_normal((16, 16))
    x, recent = x0, {}
    for i in range(5000):
        y = np.tanh(x @ w)
        x = x0 + 0.01 * y
        recent[i % 97] = (y, x)
    cube = rng.standard_normal((32, 32, 16))
    for i in range(180):
        np.abs(np.fft.fftn(cube + i)).sum()
    a, b = rng.standard_normal((256, 256)), rng.standard_normal((256, 256))
    for _ in range(72):
        s = a @ b
        np.exp(s - s.max(axis=1, keepdims=True)).sum()
    q, k = rng.standard_normal((256, 32)), rng.standard_normal((4096, 32))
    mask = rng.integers(0, 20, (256, 4096), dtype=np.uint8) == 0
    for _ in range(4):
        for rows in range(0, 256, 16):
            s = np.where(mask[rows:rows + 16], q[rows:rows + 16] @ k.T, -np.inf)
            s = np.exp(s - s.max(axis=1, keepdims=True))
            (s / s.sum(axis=1, keepdims=True)) @ k
    return perf_counter() - t0


class ReferenceClock:
    """Times calls in runs of the reference kernel. The kernel runs once
    when the clock is made and again after every timed call, and a call's
    wall time is divided by the mean of the two reference times around it.
    The host's speed drifts by up to 1.6x over seconds to minutes, and the
    reference drifts with it, so the ratio keeps the program's cost and
    drops most of the host's."""

    def __init__(self):
        self.before = reference_seconds()

    def time(self, call):
        """-> (call's result, its wall seconds, its time in reference runs)."""
        t0 = perf_counter()
        result = call()
        elapsed = perf_counter() - t0
        after = reference_seconds()
        ratio = elapsed / ((self.before + after) / 2)
        self.before = after
        return result, elapsed, ratio


def closed_loop(jobs, seconds, checks):
    """Issue jobs back to back on a ReferenceClock, taking the callables in
    `jobs` in turn, until `seconds` have passed and each has run MIN_JOBS
    times. -> (for each callable: a job's frames over its median wall time,
    and over its median time in reference runs; the outputs of all jobs)."""
    times = [[] for _ in jobs]
    ratios = [[] for _ in jobs]
    outputs = []
    t_start = perf_counter()
    clock = ReferenceClock()
    while len(times[-1]) < MIN_JOBS or perf_counter() - t_start < seconds:
        for job, job_times, job_ratios in zip(jobs, times, ratios):
            try:
                (frames, output), elapsed, ratio = clock.time(job)
            except PulseError:
                traceback.print_exc()
                checks.check(False, "job raised")
                nans = [float("nan")] * len(jobs)
                return nans, nans, outputs
            job_times.append(elapsed)
            job_ratios.append(ratio)
            outputs.append(output)
            checks.check(True, "job")
    return ([frames / statistics.median(t) for t in times],
            [frames / statistics.median(r) for r in ratios], outputs)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload):
    """Program start-up in a fresh interpreter, as each CLI call pays, plus
    the workload's input preparation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import pulse.cli"], env=env, check=True)
    workload.prepare()


def run_untraced(workload, seconds, checks):
    # set-up time in seconds of a host on which the reference takes REFERENCE_S
    clock = ReferenceClock()
    setup_s = REFERENCE_S * statistics.median(
        clock.time(lambda: set_up(workload))[2] for _ in range(SETUP_REPEATS))
    (frames_per_s,), (frames_per_ref,), outputs = closed_loop(
        [workload.job], seconds, checks)
    rss = peak_rss_mb()
    if outputs:
        workload.verify(outputs, checks)
    notes = [f"frames_per_s = {frames_per_s:.6g} 1/s (wall clock, with host drift)"]
    return {"frames_per_ref": {"value": frames_per_ref, "unit": "1/ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}, notes


def probe(seed, work):
    """Coverage pass: a tiny desk pipeline (synth, train one epoch, save and
    load the checkpoint, eval) so every layer has spans in every traced run."""
    rcfg = radar.RadarConfig(**DESK_RADAR)
    mcfg = model.ModelConfig(**DESK_MODEL)
    tcfg = training.TrainConfig(**DESK_TRAIN, max_steps=2, seed=seed)
    synthesize(rcfg, seed, range(PROBE_SEQUENCES), PROBE_FRAMES, work / "probe",
               ratios=PROBE_RATIOS)
    dataset = storage.load_dataset(work / "probe")
    result = training.train_model(dataset, mcfg, tcfg)
    params = model.init_params(mcfg, seed)
    params.load_values(result.best_values)
    save_params(work / "probe.ckpt", mcfg, seed, params)
    evaluate(work / "probe.ckpt", work / "probe", "val")
    return dataset, mcfg, tcfg, result


def run_traced(workload, seconds, checks, spans_path):
    """Traced set-up, then untraced and traced jobs in turn, then the probe
    and the profiled count pass. -> per-layer metrics and notes."""
    tracer = tracing.Tracer()
    tracer.timed_phase("setup", workload.prepare)
    _, (untraced, traced), outputs = closed_loop(
        [workload.job, lambda: tracer.timed_phase("run", workload.job)],
        seconds, checks)
    dataset, mcfg, tcfg, result = tracer.timed_phase(
        tracing.PROBE_PHASE, lambda: probe(workload.seed, workload.work))
    tracer.timed_phase(tracing.COUNT_PHASE,
                       lambda: training.train_model(dataset, mcfg, tcfg),
                       profile=True)
    if outputs:
        workload.verify(outputs, checks)
    tracer.write(spans_path)
    layer, notes = tracing.layer_metrics(tracer)
    # cross-attention scores: live neighborhood entries over the dense N_s x N_v
    own = getattr(workload, "mcfg", mcfg)
    live = sum(len(model.neighborhood(i, own)) for i in range(own.n_spatial))
    base = own.n_spatial * own.n_cells
    layer["model.xattn_live_fraction"] = {"value": live / base, "unit": "ratio"}
    layer["model.xattn_score_base"] = {"value": base, "unit": "count"}
    layer["training.val_mpjpe_mm"] = {
        "value": getattr(workload, "val_mpjpe_mm", result.best_val_mpjpe),
        "unit": "mm"}
    layer["trace.untraced_frames_per_ref"] = {"value": untraced, "unit": "1/ref"}
    layer["trace.traced_frames_per_ref"] = {"value": traced, "unit": "1/ref"}
    layer["trace.overhead_pct"] = {"value": 100.0 * (untraced / traced - 1.0),
                                   "unit": "%"}
    return layer, notes


def environment():
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    pins = ",".join(f"{v}={os.environ[v]}" for v in THREAD_PINS)
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={np.__version__} blas={blas['name']}-{blas.get('version')} {pins}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            result, notes = run_traced(workload, args.seconds, checks, spans)
        else:
            result, notes = run_untraced(workload, args.seconds, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{environment()}")
    for line in notes:
        print(f"  {line}")
    for name, m in result.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if hasattr(workload, "val_mpjpe_mm"):
        print(f"  val_mpjpe_mm = {workload.val_mpjpe_mm!r}")
    print(f"  failed_share = {checks.failed / max(checks.attempted, 1)} "
          f"({checks.failed} of {checks.attempted})")
    if args.trace:
        print(f"  spans -> {spans.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
