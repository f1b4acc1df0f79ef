#!/usr/bin/env bash
# Net line count of the working tree against a base commit, split into
# non-test library code, tests, goldens, docs, scripts and the rest, so
# every change reports its size the same way.
#
#   scripts/net-lines.sh <base>
#
# A Rust file under a `src/` directory is library code up to its first
# `#[cfg(test)]` line and test code from that line on. Untracked files
# that git does not ignore count as added; binary files count no lines.
set -euo pipefail

base=${1:?usage: scripts/net-lines.sh <base>}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify -q "$base^{commit}" >/dev/null || {
    echo "net-lines: unknown commit '$base'" >&2
    exit 2
}

category() {
    case "$1" in
        vendor/*) echo other ;;
        */golden/* | results/*) echo goldens ;;
        *.md) echo docs ;;
        scripts/*) echo scripts ;;
        tests/* | */tests/* | */benches/*) echo tests ;;
        src/*.rs | */src/*.rs) echo library ;;
        *) echo other ;;
    esac
}

# Line number of the first `#[cfg(test)]` on stdin (past the end if none).
test_start() {
    awk '/^#\[cfg\(test\)\]/ { n = NR; exit } END { print n ? n : 1000000000 }'
}

declare -A ins=() del=()
add() { ins[$1]=$((${ins[$1]:-0} + $2)); del[$1]=$((${del[$1]:-0} + $3)); }

# Library file: split each hunk of `git diff -U0` at the old and new
# `#[cfg(test)]` lines.
split_rs() {
    local file=$1 old_start new_start
    old_start=$( (git show "$base:$file" 2>/dev/null || true) | test_start)
    new_start=$( (cat "$file" 2>/dev/null || true) | test_start)
    read -r lib_ins lib_del test_ins test_del < <(
        git diff --no-renames -U0 "$base" -- "$file" | awk -v os="$old_start" -v ns="$new_start" '
            function below(start, count, limit,    n) {
                n = limit - start
                return n < 0 ? 0 : (n > count ? count : n)
            }
            /^@@ / {
                split(substr($2, 2), o, ","); split(substr($3, 2), n, ",")
                oc = (2 in o) ? o[2] : 1; nc = (2 in n) ? n[2] : 1
                ld += below(o[1], oc, os); td += oc - below(o[1], oc, os)
                li += below(n[1], nc, ns); ti += nc - below(n[1], nc, ns)
            }
            END { print li + 0, ld + 0, ti + 0, td + 0 }')
    add library "$lib_ins" "$lib_del"
    add tests "$test_ins" "$test_del"
}

while IFS=$'\t' read -r added deleted file; do
    [ "$added" = - ] && continue # binary
    cat=$(category "$file")
    if [ "$cat" = library ]; then
        split_rs "$file"
    else
        add "$cat" "$added" "$deleted"
    fi
done < <(git diff --no-renames --numstat "$base")

while IFS= read -r file; do
    grep -qI . "$file" 2>/dev/null || continue # binary or empty
    lines=$(wc -l <"$file")
    cat=$(category "$file")
    if [ "$cat" = library ]; then
        start=$(test_start <"$file")
        lib=$((start - 1 < lines ? start - 1 : lines))
        add library "$lib" 0
        add tests $((lines - lib)) 0
    else
        add "$cat" "$lines" 0
    fi
done < <(git ls-files --others --exclude-standard)

printf '%-8s %8s %8s %8s\n' category insert delete net
total_ins=0 total_del=0
for cat in library tests goldens docs scripts other; do
    i=${ins[$cat]:-0} d=${del[$cat]:-0}
    printf '%-8s %8s %8s %+8d\n' "$cat" "+$i" "-$d" $((i - d))
    total_ins=$((total_ins + i)) total_del=$((total_del + d))
done
printf '%-8s %8s %8s %+8d\n' total "+$total_ins" "-$total_del" $((total_ins - total_del))
