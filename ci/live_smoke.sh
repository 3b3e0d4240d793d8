#!/usr/bin/env bash
# Live-backend end-to-end smoke: run the real `smartsockd` daemon over
# loopback UDP, feed it a synthetic probe report and two procfs-fixture
# reports, issue a request, overwrite a row and ask again, ask with a
# requirement mixing a test with other statements, a hostile request, one
# longer than 4 KiB and one nobody answers, check that the idle daemon
# uses no CPU, then stop it gracefully and check the stats and the
# telemetry trace (streamed to its file while the daemon runs, ended with
# the summary lines at shutdown). Single source of truth for CI (ci.yml
# `live-smoke` job, under a hard timeout) and for local runs:
#
#   ./ci/live_smoke.sh
#
# Loopback-only: no packet leaves 127.0.0.1. Exits non-zero on the first
# failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

trace=target/live_smoke_trace.jsonl
wizlog=target/live_smoke_wizard.txt
fifo=target/live_smoke.stdin
longreq=target/live_smoke_long_requirement.txt

cargo build -q -p smartsock-live --bin smartsockd
bin=target/debug/smartsockd

echo "== start the wizard daemon (ephemeral loopback port) =="
rm -f "$fifo" "$wizlog" "$trace" "$longreq"
mkfifo "$fifo"
# --trace streams records to "$trace" as they happen.
"$bin" wizard --bind 127.0.0.1:0 --trace "$trace" <"$fifo" >"$wizlog" &
wizpid=$!
# Hold the FIFO's write end open; closing it (or writing a line) stops
# the daemon.
exec 3>"$fifo"

addr=""
for _ in $(seq 1 100); do
  addr="$(grep -oE 'listening on [0-9.:]+' "$wizlog" 2>/dev/null | awk '{print $3}' || true)"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "wizard never came up"; cat "$wizlog"; exit 1; }
echo "wizard at $addr"

echo "== probe: one-shot synthetic report =="
"$bin" probe --wizard "$addr" --host helene --ip 192.168.3.10 --cpu-free 0.96 \
  | grep "byte report"

echo "== probe: --watch over the committed procfs fixtures =="
"$bin" probe --wizard "$addr" --host mimas --ip 192.168.3.11 \
  --proc-root crates/live/tests/fixtures/proc --watch 1 --count 2 \
  | grep "sent 2 reports"

echo "== request --json round-trip =="
out="$("$bin" request --wizard "$addr" --servers 2 --req 'host_cpu_free > 0.9' --json)"
echo "$out"
echo "$out" | grep -q '"seq":'
echo "$out" | grep -q '192.168.3.10:1200'

echo "== live stats snapshot from the running daemon =="
stats="$("$bin" stats --wizard "$addr")"
echo "$stats"
echo "$stats" | grep -q "snapshot at"
echo "$stats" | grep -q "sysmon-reports"
echo "$stats" | grep -q "wizard-replies"
# --json prints the daemon's summary lines verbatim: the trace's own schema.
"$bin" stats --wizard "$addr" --json | grep -q '^{"t":"hist","name":"wizard-match",'

echo "== an overwritten /24 is tightened by the request that reads it =="
# A second /24 turns up idle, then reports itself busy: the overwrite only
# widens the shard's summary ([0.10, 0.96]); the next request must make it
# exact again and prune the whole /24 on it.
"$bin" probe --wizard "$addr" --host dione --ip 192.168.4.10 --cpu-free 0.96 \
  | grep "byte report"
"$bin" probe --wizard "$addr" --host dione --ip 192.168.4.10 --cpu-free 0.10 \
  | grep "byte report"
out="$("$bin" request --wizard "$addr" --servers 5 --req 'host_cpu_free > 0.9' --json)"
echo "$out"
echo "$out" | grep -q '192.168.3.10:1200'
if echo "$out" | grep -q '192.168.4.10'; then
  echo "a host that reported itself busy was offered"; exit 1
fi
pruned="$("$bin" stats --wizard "$addr" | awk '$1 == "counter" && $2 == "wizard-shards-pruned" {print $3}')"
echo "wizard-shards-pruned $pruned"
[ "${pruned:-0}" -ge 1 ] || { echo "the overwritten /24 was not pruned"; exit 1; }

echo "== a test, a statement that is not one and a denied host, in one requirement =="
# `host_cpu_free > 0.965` is a test: the daemon screens every row with it.
# `x < 5` is not one, so the program still runs on the rows that pass, and
# titan is denied by name. The reply is exactly what these reports imply
# (helene at 0.96, mimas and dione fail the test), in address order.
for h in "rhea 192.168.5.10 0.97 0.5" "tethys 192.168.5.11 0.98 6" \
  "titan 192.168.5.12 0.99 0.2" "iapetus 192.168.5.13 0.50 0.1" \
  "phoebe 192.168.5.14 0.975 1"; do
  read -r host ip cpu load <<<"$h"
  "$bin" probe --wizard "$addr" --host "$host" --ip "$ip" --cpu-free "$cpu" --load1 "$load" \
    | grep "byte report"
done
req="$(printf 'host_cpu_free > 0.965\nx = host_system_load1 + 1\nx < 5\nuser_denied_host1 = titan')"
out="$("$bin" request --wizard "$addr" --servers 10 --req "$req" --json)"
echo "$out"
echo "$out" | grep -q '"servers":\["192.168.5.10:1200","192.168.5.14:1200"\]' \
  || { echo "the reply is not exactly rhea and phoebe"; exit 1; }

echo "== hostile datagram: a 1500-deep requirement is refused, the daemon lives =="
# Debug build, 2 MB daemon stack: any recursive walk over a tree this deep
# aborts the process, so the parser must refuse to build it.
deep="$(head -c 1500 /dev/zero | tr '\0' '(')1$(head -c 1500 /dev/zero | tr '\0' ')') > 0"
out="$("$bin" request --wizard "$addr" --servers 2 --req "$deep" --json)"
echo "$out" | grep -q '"servers":\[\]'
"$bin" request --wizard "$addr" --servers 2 --req 'host_cpu_free > 0.9' --json \
  | grep -q '192.168.3.10:1200'

echo "== a requirement longer than 4 KiB is read to its last statement =="
# Every statement passes every host but the last, which no host passes; the
# first 4096 bytes of the datagram end right before it.
{
  printf '#%s\n' "$(head -c 286 /dev/zero | tr '\0' x)"
  for _ in $(seq 1 200); do echo 'host_cpu_free >= 0'; done
  echo 'host_cpu_free > 2'
} >"$longreq"
[ "$(wc -c <"$longreq")" -gt 4096 ] || { echo "the requirement is not over 4 KiB"; exit 1; }
out="$("$bin" request --wizard "$addr" --servers 2 --file "$longreq" --json)"
echo "$out"
echo "$out" | grep -q '"servers":\[\]' || { echo "a host was offered"; exit 1; }

echo "== a request to a closed port gives up within its budget =="
# --retries 0 is one attempt: one --timeout-ms wait, then a non-zero exit.
# The hard cap is 2x the timeout (the bounded wait, end to end).
if timeout 1 "$bin" request --wizard 127.0.0.1:9 --retries 0 --timeout-ms 500; then
  echo "a request nobody answered reported success"; exit 1
elif [ $? -eq 124 ]; then
  echo "request --retries 0 --timeout-ms 500 was still waiting after 1 s"; exit 1
fi

echo "== the idle daemon costs no CPU =="
# utime + stime of the whole daemon (fields 14 and 15 of its stat, in
# clock ticks), twice, 1 s apart: a daemon asleep in recv_from gains none,
# one that kept polling about a hundred. One tick of slack.
if [ -r "/proc/$wizpid/stat" ]; then
  ticks() { sed 's/^.*) //' "/proc/$wizpid/stat" | awk '{print $12 + $13}'; }
  t0="$(ticks)"
  sleep 1
  t1="$(ticks)"
  echo "daemon CPU ticks: $t0 -> $t1"
  [ $((t1 - t0)) -le 1 ] || { echo "the idle daemon used $((t1 - t0)) ticks in 1 s"; exit 1; }
else
  echo "no /proc/$wizpid/stat: skipped"
fi

echo "== graceful stop & daemon stats =="
echo >&3
exec 3>&-
wait "$wizpid"
rm -f "$fifo"
grep "ingested 10 reports" "$wizlog"
grep "served 6 requests" "$wizlog"

echo "== live trace is readable by the telemetry CLI =="
sout="$(cargo run -q -p smartsock-telemetry -- summary "$trace")"
echo "$sout" | grep -q "wizard-match"
# Counters ride in the raw trace; the names are the simulator's own.
grep -q '"name":"sysmon-reports"' "$trace"
grep -q '"name":"wizard-replies"' "$trace"
# The daemon heartbeats into its own trace (first inbound datagram).
grep -q '"name":"daemon-heartbeat"' "$trace"

echo "live smoke: ok"
