#!/usr/bin/env bash
# Non-test Rust lines per crate, and how they split between the paper's
# system, the simulator it runs on and the tooling around both (ROADMAP
# aim 2), so the trends are visible in CI output — and held: the script
# exits non-zero when any of the four rows is above its ceiling written
# at the bottom, so a count only rises by editing that line.
#
# "Non-test" is what ships: every line of a crate's src/**/*.rs above the
# file's first `#[cfg(test)]` (unit-test modules sit at the bottom of their
# file throughout this workspace). tests/, benches/ and examples/ are not
# counted. Blank and comment lines are: the figure is a size, not a score.
#
#   ./ci/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The paper's system and its simulated substrate; every other crate is
# tooling.
system=" probe monitor wizard lang proto wire core live apps "
simulator=" sim net hostsim "

total=0
system_total=0
simulator_total=0
printf '%-12s %8s\n' crate non-test
for dir in crates/*/; do
    [ -d "${dir}src" ] || continue
    lines=0
    while IFS= read -r -d '' file; do
        n="$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
        lines=$((lines + n))
    done < <(find "${dir}src" -name '*.rs' -print0)
    name="$(basename "$dir")"
    printf '%-12s %8d\n' "$name" "$lines"
    total=$((total + lines))
    case "$system" in *" $name "*) system_total=$((system_total + lines)) ;; esac
    case "$simulator" in *" $name "*) simulator_total=$((simulator_total + lines)) ;; esac
done
tooling_total=$((total - system_total - simulator_total))
printf '%-12s %8d\n' system "$system_total" simulator "$simulator_total" \
    tooling "$tooling_total" total "$total"

# The ceilings: what this tree measured when they were last written.
# Lower them with every deletion; raising one is a reviewed decision.
system_ceiling=10454
simulator_ceiling=3548
tooling_ceiling=6336
total_ceiling=20338
status=0
check() { # row, figure, ceiling
    if [ "$2" -gt "$3" ]; then
        echo "loc: $1 $2 is above its ceiling $3" >&2
        status=1
    fi
}
check system "$system_total" "$system_ceiling"
check simulator "$simulator_total" "$simulator_ceiling"
check tooling "$tooling_total" "$tooling_ceiling"
check total "$total" "$total_ceiling"
exit "$status"
