"""Command-line interface: dataset synthesis, training, evaluation, ablation
sweeps, gradient checking, and gate diagnostics.

Every command is reproducible under fixed flags: outputs carry no
timestamps, the resolved configuration is written next to the results, and
reruns produce byte-identical files. Exit codes: 0 success, 2 usage error,
3 data/config error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, DomainError, NumericError,
                     ShapeError, UsageError)
from .metrics import gate_motion_diag, per_joint_report
from .model import (ABLATIONS, ModelConfig, config_from_strings,
                    config_from_text, config_to_text, forward, init_params,
                    params_from_arrays, typed_values)
from .optim import grad_check, group_errors_by_prefix
from .radar import MOTIONS, RadarConfig, emit_dataset, make_scene
from .storage import (SPLITS, key_value_text, load_checkpoint, load_dataset,
                      parse_key_values, read_text, save_checkpoint, write_csv)
from .training import (TrainConfig, TrainLog, evaluate_split, loss_pos,
                       train_model)


def _config_defaults():
    """Flag and config-file keys with their default strings: the fields of
    the three config dataclasses. Where R, A and D are shared, the
    ModelConfig default wins; RadarConfig.chirps_per_frame is fed from D."""
    defaults = {}
    for cls in (ModelConfig, TrainConfig, RadarConfig):
        for f in fields(cls):
            if f.name != "chirps_per_frame":
                defaults.setdefault(f.name, str(f.default))
    return defaults


CONFIG_DEFAULTS = _config_defaults()

SWEEP_AXES = {
    "beta": ("gate_strength", ["0", "0.5", "1", "2", "4"]),
    "neighborhood": ("neighborhood", ["2", "3", "5", "7"]),
    "patch": ("patch", ["2", "4", "8"]),
}


def _env_seed():
    return os.environ.get("PULSE_SEED", "0")


def _add_config_flags(parser):
    for key in CONFIG_DEFAULTS:
        parser.add_argument(f"--{key}", default=None)
    parser.add_argument("--beta", dest="gate_strength_alias", default=None,
                        help="alias for --gate_strength")
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags override its entries")


def read_config_file(path):
    values = parse_key_values(read_text(path, error=ConfigError), path, ConfigError)
    for key in values:
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return values


def resolve_config(args):
    """Merge defaults <- config file <- CLI flags into a flat string map.

    Returns the map and the set of keys the config file or a flag set.
    Values stay strings, so resolved.cfg keeps the user's spelling. Each
    explicit value is type-checked here, also on commands that never build
    its config dataclass.
    """
    explicit = read_config_file(args.config) if args.config else {}
    for key in CONFIG_DEFAULTS:
        if getattr(args, key) is not None:
            explicit[key] = getattr(args, key)
    if args.gate_strength_alias is not None:
        if args.gate_strength is not None:
            raise UsageError("--beta and --gate_strength both set gate_strength; "
                             "pass one of them")
        explicit["gate_strength"] = args.gate_strength_alias
    for cls in (ModelConfig, TrainConfig, RadarConfig):
        typed_values(cls, {f.name: explicit[f.name] for f in fields(cls)
                           if f.name in explicit})
    resolved = dict(CONFIG_DEFAULTS, seed=_env_seed())
    resolved.update(explicit)
    return resolved, set(explicit)


def config_from_resolved(cls, resolved, **overrides):
    """`cls` built from the resolved strings, overrides applied on top."""
    values = {f.name: resolved["D" if f.name == "chirps_per_frame" else f.name]
              for f in fields(cls)}
    values.update(overrides)
    return config_from_strings(cls, values)


def write_resolved(resolved, out_dir):
    """resolved.cfg, the resolved strings sorted by key; a train or ablate
    run's is a valid --config."""
    text = key_value_text({key: resolved[key] for key in sorted(resolved)})
    (Path(out_dir) / "resolved.cfg").write_text(text + "\n")


def _make_out_dir(path):
    """Create the --out directory; a path that is, or lies under, something
    other than a directory raises UsageError before any work is done."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {out}: cannot create the directory: "
                         f"{exc.strerror}") from None
    return out


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(args):
    resolved, _ = resolve_config(args)
    rcfg = config_from_resolved(RadarConfig, resolved)
    seed = config_from_strings(TrainConfig, {"seed": resolved["seed"]}).seed
    if args.motion == "mixed":
        motions = [MOTIONS[i % len(MOTIONS)] for i in range(args.sequences)]
    elif args.motion in MOTIONS:
        motions = [args.motion] * args.sequences
    else:
        raise UsageError(f"unknown motion {args.motion!r}; "
                         f"expected one of {MOTIONS + ('mixed',)}")
    clutter = args.clutter == "on"
    try:
        ratios = tuple(float(v) for v in args.split_ratios.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --split-ratios {args.split_ratios!r}") from exc
    if len(ratios) != 3:
        raise UsageError("--split-ratios needs three comma-separated values")
    if args.frames < 1:
        raise UsageError(f"--frames must be at least 1, got {args.frames}")
    scenes = [make_scene(rcfg, seed=seed * 100_003 + i, motion=m, clutter=clutter)
              for i, m in enumerate(motions)]
    out = Path(args.out)
    manifest = emit_dataset(rcfg, scenes, ratios, out, seed=seed,
                            frames_per_seq=args.frames, motions=motions,
                            clutter=clutter)
    write_resolved(resolved, out)
    print(f"synth: {args.sequences} sequences x {args.frames} frames, "
          f"grid {rcfg.R}x{rcfg.A}x{rcfg.D}, seed {seed} -> {out}")
    print(f"splits: train={manifest['split_train']} val={manifest['split_val']} "
          f"test={manifest['split_test']}")
    return 0


# The settings a dataset fixes: config key -> (its config class, the
# manifest.txt field holding it).
DATASET_FIELDS = {
    "R": (ModelConfig, "R"), "A": (ModelConfig, "A"), "D": (ModelConfig, "D"),
    "joints": (ModelConfig, "J"),
    **{key: (RadarConfig, key) for key in (
        "carrier_hz", "bandwidth_hz", "chirp_duration_s", "fast_samples_per_chirp",
        "virtual_elements", "noise_std")},
    "frame_rate_hz": (RadarConfig, "frame_rate"),
}


def _use_dataset_settings(resolved, explicit, dataset):
    """Set the resolved grid, joint count and radar settings to the values
    of the dataset's manifest.txt, so resolved.cfg records the data the run
    used. An explicit value that differs numerically raises ConfigError
    naming the flag and the manifest field; a manifest value its config
    type cannot parse raises DataError. A radar field the manifest lacks
    keeps the resolved value."""
    manifest = dataset.manifest
    for key, (cls, name) in DATASET_FIELDS.items():
        if name not in manifest:
            continue
        try:
            stored = typed_values(cls, {key: manifest[name]})[key]
        except ConfigError:
            raise DataError(f"{dataset.root / 'manifest.txt'}: {name}="
                            f"{manifest[name]!r} is not a valid {key} value") from None
        if key in explicit and typed_values(cls, {key: resolved[key]})[key] != stored:
            raise ConfigError(f"flag {key}={resolved[key]} conflicts with dataset "
                              f"{name}={manifest[name]}")
        resolved[key] = manifest[name]


def _sha256(path):
    import hashlib  # loads OpenSSL, about 4 ms: only eval and diag pay it

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_evaluation_record(args, out, flags):
    """eval's and diag's resolved.cfg: the command's `flags`, and the
    digests of the checkpoint and of the dataset's manifest.txt (digests,
    not paths, so runs on copies of the inputs write the same file)."""
    record = {flag: getattr(args, flag) for flag in flags}
    record["checkpoint_sha256"] = _sha256(args.checkpoint)
    record["manifest_sha256"] = _sha256(Path(args.dataset) / "manifest.txt")
    write_resolved(record, out)


def _train_once(dataset, mcfg, tcfg):
    result = train_model(dataset, mcfg, tcfg)
    return result, params_from_arrays(mcfg, result.best_values.items())


def cmd_train(args):
    resolved, explicit = resolve_config(args)
    dataset = load_dataset(args.dataset)
    _use_dataset_settings(resolved, explicit, dataset)
    mcfg = config_from_resolved(ModelConfig, resolved)
    tcfg = config_from_resolved(TrainConfig, resolved)
    out = _make_out_dir(args.out)
    result, params = _train_once(dataset, mcfg, tcfg)
    ckpt_path = out / "model.ckpt"
    save_checkpoint(ckpt_path, config_to_text(mcfg), tcfg.seed,
                    [(name, params[name].data) for name in params.names()])
    write_csv(out / "train_log.csv", TrainLog.HEADER, result.log.as_rows())
    write_resolved(resolved, out)
    for rec in result.log.records:
        print(f"epoch {rec.epoch}: loss={rec.loss:.4f} "
              f"val_mpjpe={rec.val_mpjpe:.3f} val_mpjve={rec.val_mpjve:.3f} "
              f"val_akv={rec.val_akv:.3f} ({rec.seconds:.1f}s)")
    print(f"best epoch {result.best_epoch}: val_mpjpe={result.best_val_mpjpe:.6f}")
    print(f"checkpoint -> {ckpt_path}")
    return 0


def load_model(ckpt_path):
    """-> (model config, parameters, seed) of a checkpoint, its parameters
    checked against the config's param_table and used without a copy."""
    config_text, seed, named = load_checkpoint(ckpt_path)
    try:
        mcfg = config_from_text(config_text)
    except ConfigError as exc:
        raise ConfigError(f"{ckpt_path}: {exc}") from None
    try:
        params = params_from_arrays(mcfg, named)
    except DataError as exc:
        raise DataError(f"{ckpt_path}: {exc}") from None
    return mcfg, params, seed


def _check_split(split, dataset=None):
    """--split names a split, and one with sequences in `dataset` if given."""
    if split not in SPLITS + ("all",):
        raise UsageError(f"--split must be one of {', '.join(SPLITS)} or all, "
                         f"got {split!r}")
    if dataset is not None and not dataset.split_sequences(split):
        raise DataError(f"{dataset.root / 'manifest.txt'}: split {split!r} is empty")


def _load_evaluation(args):
    """eval and diag: the dataset and the checkpoint's model, checked to
    share a grid and to hold a nonempty --split."""
    _check_split(args.split)
    dataset = load_dataset(args.dataset)
    mcfg, params, _ = load_model(args.checkpoint)
    manifest = dataset.manifest
    grid = (int(manifest["R"]), int(manifest["A"]), int(manifest["D"]))
    if grid != (mcfg.R, mcfg.A, mcfg.D) or int(manifest["J"]) != mcfg.joints:
        raise ConfigError(
            f"checkpoint grid {(mcfg.R, mcfg.A, mcfg.D)}/J={mcfg.joints} does not "
            f"match dataset {grid}/J={manifest['J']}")
    _check_split(args.split, dataset)
    return dataset, mcfg, params


def cmd_eval(args):
    dataset, mcfg, params = _load_evaluation(args)
    out = _make_out_dir(args.out)
    report, preds, gts = evaluate_split(params, mcfg, dataset, args.split,
                                        with_scale=args.pa_scale == "on")
    write_csv(out / "metrics.csv", "metric,value", report.as_rows())
    write_csv(out / "per_joint.csv", "joint,mpjpe,mpjve",
              per_joint_report(preds, gts, dataset.joint_names))
    _write_evaluation_record(args, out, ("split", "pa_scale"))
    for name, value in report.as_rows():
        print(f"{name}: {value:.6f}")
    return 0


def cmd_ablate(args):
    if args.sweep_values and not args.sweep:
        raise UsageError("--sweep-values needs --sweep to name the axis it sweeps")
    _check_split(args.split)
    resolved, explicit = resolve_config(args)
    dataset = load_dataset(args.dataset)
    _use_dataset_settings(resolved, explicit, dataset)
    tcfg = config_from_resolved(TrainConfig, resolved)
    runs = []
    if args.variants:
        for variant in args.variants.split(","):
            variant = variant.strip()
            if variant not in ABLATIONS:
                raise UsageError(f"unknown variant {variant!r}; "
                                 f"expected subset of {ABLATIONS}")
            runs.append((variant, config_from_resolved(ModelConfig, resolved,
                                                       ablation=variant)))
    if args.sweep:
        if args.sweep not in SWEEP_AXES:
            raise UsageError(f"unknown sweep {args.sweep!r}; "
                             f"expected one of {sorted(SWEEP_AXES)}")
        key, defaults = SWEEP_AXES[args.sweep]
        values = (args.sweep_values.split(",") if args.sweep_values else defaults)
        for value in values:
            label = f"{args.sweep}={value}"
            local = dict(resolved)
            if key == "patch":
                local["patch_r"] = local["patch_a"] = value
            else:
                local[key] = value
            runs.append((label, config_from_resolved(ModelConfig, local)))
    if not runs:
        raise UsageError("nothing to do: pass --variants and/or --sweep")
    _check_split(args.split, dataset)
    out = _make_out_dir(args.out)
    rows = []
    for label, mcfg in runs:
        _, params = _train_once(dataset, mcfg, tcfg)
        metrics = evaluate_split(params, mcfg, dataset, args.split)[0].as_rows()
        rows.append([label] + [v for _, v in metrics])
        print(f"{label}: " + " ".join(f"{n}={v:.3f}" for n, v in metrics))
    write_csv(out / "ablation.csv", ",".join(["variant"] + [n for n, _ in metrics]),
              rows)
    write_resolved(resolved, out)
    return 0


GRADCHECK_DEFAULTS = {"R": "8", "A": "8", "D": "4", "embed_dim": "8",
                      "layers": "2", "heads": "2", "dropout": "0.0",
                      "joints": "4", "frame_window": "1"}


def cmd_gradcheck(args):
    for flag, value in (("--step", args.step), ("--tol", args.tol)):
        if not 0.0 < value < np.inf:
            raise UsageError(f"{flag} must be positive and finite, got {value}")
    resolved, explicit = resolve_config(args)
    for key, value in GRADCHECK_DEFAULTS.items():
        if key not in explicit:
            resolved[key] = value
    mcfg = config_from_resolved(ModelConfig, resolved)
    seed = config_from_strings(TrainConfig, {"seed": resolved["seed"]}).seed
    out = _make_out_dir(args.out) if args.out else None
    params = init_params(mcfg, seed, randomize_all=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 404]))
    frames = [rng.random((mcfg.R, mcfg.A, mcfg.D))
              for _ in range(mcfg.frame_window)]
    # Regression target near the probe-point pose: keeps the loss and its
    # rounding noise small so the finite differences stay well conditioned.
    base_pose = forward([frames], params, mcfg).pose.data
    target = base_pose + rng.uniform(-5.0, 5.0, size=base_pose.shape)

    def build(group):
        return loss_pos(forward([frames], group, mcfg).pose, target)

    report = grad_check(build, params, step=args.step)
    grouped = group_errors_by_prefix(report)
    if out:
        write_csv(out / "gradcheck.csv", "param,max_rel_err", report.items())
    width = max(len(n) for n in grouped)
    print(f"{'group'.ljust(width)}  max_rel_err")
    for name in sorted(grouped):
        print(f"{name.ljust(width)}  {grouped[name]:.3e}")
    worst = max(grouped.values())
    print(f"overall max rel err: {worst:.3e} (tolerance {args.tol:g})")
    name, index, analytic, numeric = report.worst
    print(f"worst entry: {name}[{index}] analytic={analytic:.9e} "
          f"numeric={numeric:.9e}")
    if worst >= args.tol:
        raise NumericError(f"gradient check failed: {worst:.3e} >= {args.tol:g}")
    return 0


def cmd_diag(args):
    if args.bins < 2:
        raise UsageError(f"--bins must be at least 2, got {args.bins}")
    dataset, mcfg, params = _load_evaluation(args)
    scored = 0                      # frames with a successor
    for seq_id, frames, _ in dataset.split_sequences(args.split):
        if len(frames) < 2:
            raise DataError(f"{dataset.root / 'manifest.txt'}: split {args.split!r} "
                            f"sequence {seq_id} has {len(frames)} frame; the gate "
                            f"diagnostics need at least 2 per sequence")
        scored += len(frames) - 1
    if args.bins > scored:
        raise UsageError(f"--bins {args.bins} exceeds the {scored} scored frames "
                         f"of split {args.split!r}")
    out = _make_out_dir(args.out)
    _, preds, gts, gate_seqs, smaps = evaluate_split(
        params, mcfg, dataset, args.split, collect_gates=True)
    diag = gate_motion_diag(gate_seqs, preds, gts, smaps, bins=args.bins,
                            cell_selection=args.cell_selection)
    write_csv(out / "gate_diag.csv", "frame,g_bar,v_t,bin",
              [(i, *record[2:]) for i, record in enumerate(diag.records)])
    _write_evaluation_record(args, out, ("split", "bins", "cell_selection"))
    if diag.pearson is None:
        print("pearson_r: undefined (zero variance)")
    else:
        print(f"pearson_r: {diag.pearson:.6f}")
    for b, value in enumerate(diag.binned_mpjve):
        print(f"gate bin {b}: mpjve={value:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="pulse",
        description="Desk-scale mmWave pose estimation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--sequences", type=int, default=4)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--motion", default="mixed")
    p.add_argument("--clutter", choices=("on", "off"), default="on")
    p.add_argument("--split-ratios", default="0.5,0.25,0.25")
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--pa-scale", choices=("on", "off"), default="on",
                   help="include scale in the Procrustes alignment")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", default="")
    p.add_argument("--sweep", default="")
    p.add_argument("--sweep-values", default="")
    p.add_argument("--split", default="test")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("diag", help="gate-motion diagnostics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--cell-selection", choices=("occupied", "global"),
                   default="occupied")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diag)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DataError, DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
