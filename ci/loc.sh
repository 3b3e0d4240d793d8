#!/usr/bin/env bash
# Non-test Rust lines per crate, so the trend ROADMAP item 3 tracks (one
# protocol core, two thin drivers, then the diet) is visible in CI output.
#
# "Non-test" is what ships: every line of a crate's src/**/*.rs above the
# file's first `#[cfg(test)]` (unit-test modules sit at the bottom of their
# file throughout this workspace). tests/, benches/ and examples/ are not
# counted. Blank and comment lines are: the figure is a size, not a score.
#
#   ./ci/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
printf '%-12s %8s\n' crate non-test
for dir in crates/*/ vendor/*/; do
    [ -d "${dir}src" ] || continue
    lines=0
    while IFS= read -r -d '' file; do
        n="$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
        lines=$((lines + n))
    done < <(find "${dir}src" -name '*.rs' -print0)
    printf '%-12s %8d\n' "$(basename "$dir")" "$lines"
    total=$((total + lines))
done
printf '%-12s %8d\n' total "$total"
