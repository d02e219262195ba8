#!/usr/bin/env bash
# Prints the non-test Rust code lines at a revision (default HEAD) and in
# the working tree, and their difference: the net LOC a change reports.
# Paths after the revision limit the count to those files or directories.
#
#   scripts/net-loc.sh [rev] [path...]
#   scripts/net-loc.sh d00296e crates/core/src/world.rs
#
# A code line is a non-blank line that does not start with `//` once its
# indentation is stripped. Each file is cut at its first `#[cfg(test)]`,
# and files under tests/, benches/, examples/, vendor/ and perfbench/ are
# skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:-HEAD}
shift || true
skip='(^|/)(tests|benches|examples|vendor|perfbench)/'

# Code lines of the Rust source on stdin.
count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
         cut { next }
         { sub(/^[[:space:]]+/, "") }
         $0 != "" && substr($0, 1, 2) != "//" { n++ }
         END { print n + 0 }'
}

at_rev=0
while IFS= read -r f; do
    at_rev=$((at_rev + $(git show "$rev:$f" | count)))
done < <(git ls-tree -r --name-only "$rev" -- "$@" | grep '\.rs$' | grep -Ev "$skip")

in_tree=0
while IFS= read -r f; do
    [ -f "$f" ] && in_tree=$((in_tree + $(count < "$f")))
done < <(git ls-files --cached --others --exclude-standard -- "$@" | grep '\.rs$' | grep -Ev "$skip")

echo "$rev: $at_rev"
echo "working tree: $in_tree"
echo "net: $((in_tree - at_rev))"
