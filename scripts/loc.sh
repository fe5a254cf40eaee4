#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of every `.rs` file under
# crates/*/src and src, each file counted up to the `#[cfg(test)]` line
# that opens its `mod tests` (the same cut the gates in scripts/check.sh
# make), then the total.
#
#   scripts/loc.sh         # the working tree
#   scripts/loc.sh REV     # a revision, read through `git archive`
#
# With a revision, the working tree is left alone.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git archive "$1" -- crates src | tar -x -C "$tree"
    cd "$tree"
fi

count() { # directory -> its non-test lines
    find "$1" -name '*.rs' | sort | xargs awk '
        FNR == 1 { n += pending; pending = 0; done = 0 }
        done { next }
        /^#\[cfg\(test\)\]/ { n += pending; pending = 1; next }
        pending && /^mod tests/ { pending = 0; done = 1; next }
        { n += 1 + pending; pending = 0 }
        END { print n + pending }
    '
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
