#!/usr/bin/env bash
# Byte check of this checkout against a parent revision: do the simulated
# outputs that every trace_sha, golden and figure is read from stay the same?
#
#   ./ci/same_bytes.sh PARENT_REV
#
# The parent is exported with git archive into a temporary directory that
# is removed on exit, and this checkout, uncommitted edits included, is the
# change; each is built once, offline, in release (the parent from cold).
# Each side then runs, in its own directory, with one job per CPU (neither
# output depends on the job count):
#   repro --jobs N --trace-out <t> all        (stdout and the trace)
#   profile bench --jobs N --out <f> all      (the profile document)
#   the fault_drill example with --trace <t>  (stdout and the trace)
# and the two sides' files are compared with cmp. Prints `same bytes` and
# exits 0, or names each differing file and exits 1.
# A tool, not a gate: a change that moves trace bytes on purpose re-pins.
# Needs git, tar and cargo.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 PARENT_REV" >&2
    exit 2
fi
parent="$(git rev-parse --short=12 "$1^{commit}")"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
tree="$out/parent-$parent"
mkdir "$tree"
git archive "$parent" | tar -x -C "$tree"
jobs="$(nproc)"
# Paths the outputs name are relative to each side's directory, so both
# sides print the same text.
files=(repro.out repro.trace profile.json drill.out drill.trace)
for side in parent change; do
    dir="$tree"
    if [ "$side" = change ]; then dir=.; fi
    echo "== $side: building and running in $dir" >&2
    (
        cd "$dir" || exit 1
        cargo build --release --offline --quiet -p smartsock-bench --bin repro \
            -p smartsock-profile --bin profile
        cargo build --release --offline --quiet --example fault_drill
        mkdir -p target/same_bytes
        ./target/release/repro --jobs "$jobs" --trace-out target/same_bytes/repro.trace all \
            >target/same_bytes/repro.out
        ./target/release/profile bench --jobs "$jobs" --out target/same_bytes/profile.json all \
            >/dev/null
        ./target/release/examples/fault_drill --trace target/same_bytes/drill.trace \
            >target/same_bytes/drill.out
    )
    mkdir -p "$out/$side"
    for f in "${files[@]}"; do
        cp "$dir/target/same_bytes/$f" "$out/$side/$f"
    done
done

status=0
for f in "${files[@]}"; do
    if ! cmp -s "$out/parent/$f" "$out/change/$f"; then
        echo "differs: $f"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "same bytes"
fi
exit "$status"
