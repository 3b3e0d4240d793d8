#!/usr/bin/env bash
# Fleet-scale smoke check: expand the generated 1k-host topology, run the
# fleet.1k experiment with a trace export, then assert the scale actually
# happened — a thousand live status rows, busy subnets pruned, the walk
# stopped once the reply settled, per-subnet rollup scopes in the
# telemetry, and wizard-match spans in the summary.
# Single source of truth for CI (ci.yml `fleet-smoke` job) and for local runs:
#
#   ./ci/fleet_smoke.sh
#
# Exits non-zero on the first failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

trace=target/fleet_smoke_trace.jsonl

echo "== fleet.1k with trace export =="
out="$(cargo run --release -q -p smartsock-bench --bin repro -- \
    --trace-out "$trace" fleet.1k)"
echo "$out"

echo "== report smoke check =="
echo "$out" | grep -q "fleet.1k"
echo "$out" | grep -Eq "hosts +\| +1000"
echo "$out" | grep -Eq "live server records +\| +1000"
# Half the fleet lives in busy/legacy subnets whose rollup ranges fail
# the cpu_free requirement: pruning must have skipped shards.
echo "$out" | grep -E "shards pruned" | grep -Evq "\| +0/"
# Eight top-scored rows fill the 8-server reply: the walk stops there.
echo "$out" | grep -Eq "rows evaluated +\| +8$"

echo "== rollup smoke check (per-subnet scopes) =="
rout="$(cargo run --release -q -p smartsock-telemetry -- rollup "$trace")"
# Here-strings, not `echo | grep -q`: grep -q exits at its first match,
# and under pipefail the echo's SIGPIPE on a large output fails the check.
subnets="$(grep -c "subnet/" <<< "$rout")"
echo "rollup subnet scopes: $subnets"
[ "$subnets" -gt 1 ]
grep -q "fleet-report-ingested" <<< "$rout"

echo "== summary smoke check (wizard-match spans) =="
sout="$(cargo run --release -q -p smartsock-telemetry -- summary "$trace")"
grep -q "wizard-match" <<< "$sout"
! grep -q "total: 0 spans" <<< "$sout"

echo "fleet smoke: ok"
