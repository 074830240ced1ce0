#!/usr/bin/env bash
# Byte-identity check of a change against a git ref.
#
#   tools/byte_identity.sh <ref> [--acceptance]
#
# Runs the working tree's tools/cli_pipeline.sh under PYTHONHASHSEED 1 and 2,
# once with a `git archive` of <ref> on PYTHONPATH and once with the working
# tree, then compares the two output trees with `diff -r`.
# --acceptance adds the seed-80 acceptance dataset of tests/test_acceptance.py
# with `train`/`eval`/`diag` of `full` (seed 1) and `spatial_only` (seed 2) at
# the desk profile, 2200 steps each: a few minutes per tree.
#
# Then the working tree's tools/graph_digest.py runs once with each tree's
# src on PYTHONPATH: one sha256 over eval forwards and batch-4 training
# losses and gradients of every ablation, which the CLI outputs reach only
# in part.
#
# Run from anywhere inside the repository. Outputs stay in a fresh directory
# under ${TMPDIR:-/tmp}, printed at the end; the exit status is diff's (0 when
# both trees wrote the same bytes), or 1 when the outputs match but the graph
# digests differ.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || ( $# -eq 2 && $2 != --acceptance ) ]]; then
    echo "usage: $0 <ref> [--acceptance]" >&2
    exit 2
fi
ref=$1
acceptance=${2:-}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/byte-identity.XXXXXX")
mkdir "$work/ref-src"
git -C "$root" archive "$ref" | tar -x -C "$work/ref-src"

# run_tree <source root> <output dir>
run_tree() {
    local src=$1 out=$2 hash_seed
    for hash_seed in 1 2; do
        PYTHONHASHSEED=$hash_seed PYTHONPATH="$src/src" \
            "$root/tools/cli_pipeline.sh" "$out/pipeline-$hash_seed" > /dev/null
    done
    if [[ -n $acceptance ]]; then
        pulse() { PYTHONHASHSEED=1 PYTHONPATH="$src/src" python3 -m pulse.cli "$@" > /dev/null; }
        local dir="$out/acceptance"
        local desk="--patch_r 4 --patch_a 4 --embed_dim 16 --layers 2 --heads 2 --dropout 0.1 --joints 8 --lr 3e-3 --weight_decay 0.01 --batch 4 --clip 1.0 --epochs 500 --patience 500 --max_steps 2200 --gate_loss_weight 30"
        pulse synth --out "$dir/ds" --seed 80 --R 32 --A 32 --D 16 --sequences 8 --frames 64 --motion mixed --clutter on --noise_std 2.0
        local variant_seed variant seed
        for variant_seed in full:1 spatial_only:2; do
            variant=${variant_seed%:*} seed=${variant_seed#*:}
            pulse train --dataset "$dir/ds" --out "$dir/$variant-$seed" --seed "$seed" --ablation "$variant" $desk
            pulse eval --checkpoint "$dir/$variant-$seed/model.ckpt" --dataset "$dir/ds" --split test --out "$dir/$variant-$seed/eval"
            pulse diag --checkpoint "$dir/$variant-$seed/model.ckpt" --dataset "$dir/ds" --split test --out "$dir/$variant-$seed/diag"
        done
    fi
}

# the two trees run side by side, one process each
run_tree "$work/ref-src" "$work/ref" &
ref_pid=$!
run_tree "$root" "$work/tree"
wait "$ref_pid"
status=0
diff -r "$work/ref" "$work/tree" || status=$?
echo "byte_identity: $ref vs working tree: outputs in $work/ref and $work/tree (diff status $status)"
ref_digest=$(PYTHONPATH="$work/ref-src/src" python3 "$root/tools/graph_digest.py")
tree_digest=$(PYTHONPATH="$root/src" python3 "$root/tools/graph_digest.py")
echo "graph_digest: $ref: $ref_digest"
echo "graph_digest: working tree: $tree_digest"
if [[ $ref_digest != "$tree_digest" ]]; then
    echo "byte_identity: graph digests differ" >&2
    [[ $status -ne 0 ]] || status=1
fi
exit "$status"
