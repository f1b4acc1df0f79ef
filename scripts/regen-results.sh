#!/usr/bin/env bash
# Regenerates every committed `results/*.txt` from its figure binary's
# default run. The output depends only on the binaries and their defaults,
# not on the worker count; `--jobs 2` just bounds the run's cores.
#
# Usage: scripts/regen-results.sh
# To check that the committed files are current:
#   scripts/regen-results.sh && git diff --exit-code results/
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release -q -p compresso-exp
log=$(mktemp)
trap 'rm -f "$log"' EXIT
for fig in balloon fig2 fig4 fig6 fig7 fig9 fig10 fig11 fig12 tab2 tradeoffs; do
    start=$SECONDS
    # The sweep's per-cell progress goes to the log, shown only on failure.
    if ! cargo run --release -q -p compresso-exp --bin "$fig" -- --jobs 2 \
        > "results/$fig.txt" 2> "$log"; then
        cat "$log" >&2
        echo "$fig failed" >&2
        exit 1
    fi
    echo "results/$fig.txt ($((SECONDS - start)) s)"
done
