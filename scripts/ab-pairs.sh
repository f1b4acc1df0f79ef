#!/usr/bin/env bash
# Runs alternating A/B pairs of two layerbench builds on one workload and
# summarizes every end-to-end metric that BENCHMARK.json declares.
#
# Usage: scripts/ab-pairs.sh <parent-bin> <change-bin> <workload> <pairs> <seconds> <outdir> [args]
#
# Any further arguments go to every run, e.g. `--seed 3`.
#
# Pair i runs the parent first when i is odd and the change first when i
# is even, so a drift in the host's speed does not favour one side. Each
# run saves its `--out` file as <outdir>/{parent,change}_<i>.json, and
# `layerbench --compare` of the pair goes to <outdir>/compare_<i>.txt. A
# binary built as <root>/layerbench/target/release/compresso-layerbench
# runs from <root>, so it records the revision and source digest of the
# tree it was built from.
#
# The summary gives, per metric, each side's median and quartiles (linear
# interpolation) and how many pairs the change won by the metric's
# `better` field; ties count for neither side.
set -euo pipefail

if [ $# -lt 6 ]; then
    sed -n '5p' "$0" | sed 's/^# //' >&2
    exit 2
fi
parent_bin=$(realpath "$1")
change_bin=$(realpath "$2")
workload=$3
pairs=$4
seconds=$5
outdir=$6
extra=("${@:7}")
bench=$(dirname "$(realpath "$0")")/../BENCHMARK.json
mkdir -p "$outdir"
outdir=$(realpath "$outdir")

# The checkout a layerbench binary was built in, else the current one.
root_of() {
    local root
    root=$(realpath "$(dirname "$1")/../../..")
    if [ -d "$root/crates" ]; then echo "$root"; else pwd; fi
}

run() { # <side> <bin> <pair>
    local out
    out=$(printf '%s/%s_%02d.json' "$outdir" "$1" "$3")
    (cd "$(root_of "$2")" && "$2" --workload "$workload" --seconds "$seconds" --out "$out" \
        "${extra[@]}" > /dev/null 2>&1)
    jq -e '.result.correct == true and .result.failed == 0' "$out" > /dev/null ||
        echo "warning: $out is not a correct run" >&2
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        run parent "$parent_bin" "$i"
        run change "$change_bin" "$i"
    else
        run change "$change_bin" "$i"
        run parent "$parent_bin" "$i"
    fi
    tag=$(printf '%02d' "$i")
    "$change_bin" --compare "$outdir/parent_$tag.json" "$outdir/change_$tag.json" \
        > "$outdir/compare_$tag.txt"
    echo "pair $i/$pairs done ($outdir/compare_$tag.txt)" >&2
done

# The files sort in pair order, so parent run i meets change run i.
jq -n -r --slurpfile bench "$bench" \
    --slurpfile parent <(cat "$outdir"/parent_*.json) \
    --slurpfile change <(cat "$outdir"/change_*.json) '
    def q($p): sort as $s | ($s | length - 1) as $last | ($last * $p) as $h | ($h | floor) as $lo
        | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $last] | min] - $s[$lo]);
    $bench[0].end_to_end[] as $m
    | [$parent[].result.metrics[$m.name].value] as $p
    | [$change[].result.metrics[$m.name].value] as $c
    | select(($p + $c) | all(. != null))
    | [range(0; $p | length)
       | select(if $m.better == "higher" then $c[.] > $p[.] else $c[.] < $p[.] end)]
    | length as $wins
    | [$m.name, $m.unit, ($p | q(0.5), q(0.25), q(0.75)), ($c | q(0.5), q(0.25), q(0.75)),
       "\($wins)/\($p | length)"]
    | @tsv' |
    awk -F'\t' -v w="$workload" '
    function num(x) { return x >= 1e5 ? sprintf("%.0f", x) : sprintf("%.6g", x) }
    function stats(m, lo, hi) { return sprintf("%s [%s, %s]", num(m), num(lo), num(hi)) }
    BEGIN {
        printf "%s\n%-24s %-6s %-34s %-34s %s\n", w, "metric", "unit",
            "parent median [q1, q3]", "change median [q1, q3]", "change won"
    } {
        printf "%-24s %-6s %-34s %-34s %s\n", $1, $2, stats($3, $4, $5), stats($6, $7, $8), $9
    }'
