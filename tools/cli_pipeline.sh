#!/usr/bin/env bash
# The CLI pipeline whose output files must not depend on the interpreter.
#
#   PYTHONHASHSEED=<n> PYTHONPATH=<tree>/src tools/cli_pipeline.sh <out>
#
# Runs the pulse package found on PYTHONPATH, under the caller's
# PYTHONHASHSEED, and writes everything under <out>. test_cli_determinism
# reruns inside one interpreter; fresh processes with different
# PYTHONHASHSEED values also catch set or dict order that leaks into an
# output file. The second train covers multi-frame aggregation and the gate
# loss; the third, 12 train frames at batch 8, a fold of 8 losses and a
# partial last batch; gradcheck covers the probe path. eval --pa-scale off
# and diag --cell-selection global cover the two evaluation switches. A
# run's resolved.cfg fed back as --config must reproduce the run byte for
# byte. The last synth renders two frames at the CLI's default grid, the
# full profile (64x64x16, 64 fast samples, 48 scatterers a scene).
# tools/byte_identity.sh, which CI runs, runs this copy for both trees.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <out>" >&2
    exit 2
fi
out=$1
grid="--bandwidth_hz 0.5e9 --R 16 --A 16 --D 8 --fast_samples_per_chirp 32 --virtual_elements 4"
model="--embed_dim 8 --layers 1 --heads 2 --lr 3e-3 --batch 4 --epochs 2 --patience 5"
pulse() { python3 -m pulse.cli "$@"; }
pulse synth --out "$out/ds" --seed 12 --sequences 3 --frames 6 $grid
pulse train --dataset "$out/ds" --out "$out/run" --seed 5 $model
pulse train --dataset "$out/ds" --config "$out/run/resolved.cfg" --out "$out/run_cfg"
diff -r "$out/run" "$out/run_cfg" >&2
pulse eval --checkpoint "$out/run/model.ckpt" --dataset "$out/ds" --split val --out "$out/eval"
pulse diag --checkpoint "$out/run/model.ckpt" --dataset "$out/ds" --split all --out "$out/diag"
pulse eval --checkpoint "$out/run/model.ckpt" --dataset "$out/ds" --split val --pa-scale off --out "$out/eval_pa_off"
pulse diag --checkpoint "$out/run/model.ckpt" --dataset "$out/ds" --split all --cell-selection global --out "$out/diag_global"
pulse train --dataset "$out/ds" --out "$out/run_fw2" --seed 5 --frame_window 2 --gate_loss_weight 30 $model
pulse eval --checkpoint "$out/run_fw2/model.ckpt" --dataset "$out/ds" --split val --out "$out/eval_fw2"
pulse diag --checkpoint "$out/run_fw2/model.ckpt" --dataset "$out/ds" --split all --out "$out/diag_fw2"
pulse train --dataset "$out/ds" --out "$out/run_b8" --seed 5 $model --batch 8
pulse ablate --dataset "$out/ds" --out "$out/ablate" --variants full,spatial_only,doppler_only,naive_concat,ungated,global_interaction,no_gating --split val --seed 5 $model
pulse gradcheck --R 8 --A 8 --D 4 --seed 1 --out "$out/gradcheck"
pulse synth --out "$out/ds_full" --seed 12 --sequences 1 --frames 2
