#!/usr/bin/env bash
# Byte-identity check of a change against a git ref.
#
#   tools/byte_identity.sh <ref> [--acceptance]
#
# Runs the working tree's tools/cli_pipeline.sh under PYTHONHASHSEED 1 and 2,
# once with a `git archive` of <ref> on PYTHONPATH and once with the working
# tree, then compares the two output trees with `diff -r`, and each tree's
# pipeline-1 output with its pipeline-2 output. `tools/byte_identity.sh HEAD`
# in a clean checkout is the A/A run CI makes.
# --acceptance adds the seed-80 acceptance dataset of tests/test_acceptance.py
# with `train`/`eval`/`diag` of `full` (seed 1) and `spatial_only` (seed 2) at
# the desk profile, 2200 steps each: a few minutes per tree.
#
# Then each tree's own tools/graph_digest.py runs with that tree's src on
# PYTHONPATH: one sha256 over eval forwards and batch-4 training losses and
# gradients of every ablation, which the CLI outputs reach only in part.
# Each copy calls its own tree's API, and any difference between the two
# copies is printed; the digests match only when both hash the same names,
# dtypes, shapes and bytes.
#
# When the two trees differ, each differing CSV is printed with the largest
# absolute difference of each numeric column (a column is numeric when
# every value of it in both files parses as a float), so a difference
# shows its size as well as its place.
#
# Run from anywhere inside the repository. Outputs stay in a fresh directory
# under ${TMPDIR:-/tmp}, printed at the end; the exit status is diff's (0 when
# both trees wrote the same bytes), or 1 when the outputs match but a tree's
# two hash seeds wrote different bytes or the graph digests differ. A ref
# without tools/graph_digest.py (before commit 774b5a7) exits 1 at once.
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
if [[ ! -f $work/ref-src/tools/graph_digest.py ]]; then
    echo "byte_identity: $ref has no tools/graph_digest.py" >&2
    exit 1
fi

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
if [[ $status -ne 0 ]]; then
    python3 - "$work/ref" "$work/tree" <<'PY'
import csv
import sys
from pathlib import Path

ref, tree = map(Path, sys.argv[1:])
for a in sorted(ref.rglob("*.csv")):
    b = tree / a.relative_to(ref)
    if not b.is_file() or a.read_bytes() == b.read_bytes():
        continue
    (head, *rows_a), (_, *rows_b) = (list(csv.reader(p.read_text().splitlines()))
                                     for p in (a, b))
    name = a.relative_to(ref)
    if len(rows_a) != len(rows_b) or any(len(x) != len(y) for x, y in zip(rows_a, rows_b)):
        print(f"csv_diff: {name}: the files differ in shape")
        continue
    sizes = []
    for col, title in enumerate(head):
        try:
            diffs = [abs(float(x[col]) - float(y[col])) for x, y in zip(rows_a, rows_b)]
        except ValueError:
            continue
        sizes.append(f"{title} {max(diffs, default=0.0):.3g}")
    print(f"csv_diff: {name}: largest |ref - tree| by column: {', '.join(sizes) or 'no numeric column'}")
PY
fi
echo "byte_identity: $ref vs working tree: outputs in $work/ref and $work/tree (diff status $status)"
for tree in ref tree; do
    if ! diff -r "$work/$tree/pipeline-1" "$work/$tree/pipeline-2"; then
        echo "byte_identity: $work/$tree: PYTHONHASHSEED 1 and 2 wrote different bytes" >&2
        [[ $status -ne 0 ]] || status=1
    fi
done
if git -C "$root" diff --quiet "$ref" -- tools/graph_digest.py; then
    echo "graph_digest: $ref and the working tree run the same script"
else
    echo "graph_digest: the script differs between $ref and the working tree:"
    git -C "$root" --no-pager diff "$ref" -- tools/graph_digest.py
fi
ref_digest=$(PYTHONPATH="$work/ref-src/src" python3 "$work/ref-src/tools/graph_digest.py")
tree_digest=$(PYTHONPATH="$root/src" python3 "$root/tools/graph_digest.py")
echo "graph_digest: $ref: $ref_digest"
echo "graph_digest: working tree: $tree_digest"
if [[ $ref_digest != "$tree_digest" ]]; then
    echo "byte_identity: graph digests differ" >&2
    [[ $status -ne 0 ]] || status=1
fi
exit "$status"
