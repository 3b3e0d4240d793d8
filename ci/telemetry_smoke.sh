#!/usr/bin/env bash
# Telemetry CLI smoke checks: run the fault drill with a trace export,
# then assert the summary/timeline/slowest/rollup/merge views see the
# expected spans and events. Single source of truth for CI (ci.yml `telemetry` job) and
# for local runs:
#
#   ./ci/telemetry_smoke.sh
#
# Exits non-zero on the first failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

trace=target/fault_drill.jsonl

echo "== fault drill with trace export =="
cargo run -q --example fault_drill -- 909 --trace "$trace"

echo "== summary smoke check =="
out="$(cargo run -q -p smartsock-telemetry -- summary "$trace")"
echo "$out"
echo "$out" | grep -q "client-request"
echo "$out" | grep -q "fault-injected"
echo "$out" | grep -q "fault-recovered"
! echo "$out" | grep -q "total: 0 spans"

echo "== timeline & slowest smoke check =="
cargo run -q -p smartsock-telemetry -- timeline lhost "$trace" | grep "fault-injected"
cargo run -q -p smartsock-telemetry -- slowest 5 "$trace" | grep "client-request"

echo "== rollup smoke check =="
rout="$(cargo run -q -p smartsock-telemetry -- rollup "$trace")"
echo "$rout" | grep -q "host/"
echo "$rout" | grep -q "records folded"
cargo run -q -p smartsock-telemetry -- --json rollup "$trace" | grep -q '"rows":'

echo "== merged-trace smoke check =="
# The parallel runner's merged export must still parse and keep the same
# span names visible: merge the drill trace with itself as two shards and
# re-run the summary over the merge.
merged=target/fault_drill_merged.jsonl
cargo run -q -p smartsock-telemetry -- merge "$merged" shardA="$trace" shardB="$trace"
mout="$(cargo run -q -p smartsock-telemetry -- summary "$merged")"
echo "$mout" | grep -q "client-request"
echo "$mout" | grep -q "fault-injected"

echo "telemetry smoke: ok"
