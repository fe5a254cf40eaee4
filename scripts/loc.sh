#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of every `.rs` file under
# crates/*/src and src, each file counted up to the `#[cfg(test)]` line
# that opens its `mod tests` (the same cut the gates in scripts/check.sh
# make), then the total.
#
#   scripts/loc.sh              # the working tree
#   scripts/loc.sh REV          # a revision, read through `git archive`
#   scripts/loc.sh --since REV  # each crate at REV and in the working
#                               # tree, the difference, and the totals
#
# A revision is read into a temporary directory; the working tree is left
# alone.
set -euo pipefail
cd "$(dirname "$0")/.."

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

counts() { # tree -> "directory lines", one line per crate, sorted
    (
        cd "$1"
        for dir in crates/*/src src; do
            [ -d "$dir" ] || continue
            printf '%s %d\n' "$dir" "$(count "$dir")"
        done
    ) | LC_ALL=C sort
}

revision() { # REV -> $tree, a temporary directory holding its sources
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git archive "$1" -- crates src | tar -x -C "$tree"
}

if [ "${1-}" = --since ]; then
    if [ $# -ne 2 ]; then
        echo "usage: scripts/loc.sh --since REV" >&2
        exit 2
    fi
    revision "$2"
    echo "non-test lines at $2 (then) and in the working tree (now):"
    printf '%7s %7s %7s\n' then now change
    LC_ALL=C join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(counts "$tree") <(counts .) | awk '
        { printf "%7d %7d %+7d  %s\n", $2, $3, $3 - $2, $1; old += $2; new += $3 }
        END { printf "%7d %7d %+7d  total\n", old, new, new - old }
    '
    exit 0
fi

root=.
if [ $# -gt 0 ]; then
    revision "$1"
    root=$tree
fi
counts "$root" | awk '
    { printf "%7d  %s\n", $2, $1; total += $2 }
    END { printf "%7d  total\n", total }
'
