#!/usr/bin/env bash
# Paired wall-clock comparison of this checkout against a parent revision,
# on the workloads BENCHMARK.json gates:
#
#   ./ci/bench_pairs.sh [--record] PARENT_REV [SEED] [PAIRS]
#
# The parent is exported with git archive into a temporary directory that
# is removed on exit, and this checkout, uncommitted edits included, is the
# change; each is built once, offline (the parent from cold), and this
# checkout's benchmark/Cargo.lock is left as the script found it.
# Each workload then runs PAIRS times on each side (default 10, seed 7),
# the sides alternating which goes first, every run being the contract's
# `command` plus `--workload W --seed SEED --seconds run_seconds --trace 0`,
# of whose output only the last line is read.
# Printed per workload and side: q1/median/q3 of op_p50_us and setup_s,
# failed operations, and in how many pairs the change was the lower.
# Then, per metric, the verdict the benchmark gate applies to a claimed
# gain: `unresolved` when the parent's q3 - q1 exceeds the metric's bound
# (BENCHMARK.json, a share of the parent's median); else `gain` when the
# change was the lower in at least 9 of 10 pairs and the medians differ
# by more than the parent's q3 - q1; else `no gain`.
# --record first reads the host's noise: a fixed single-thread awk loop
# (≈ 75 ms on a quiet host) timed once a second for 30 s. Its p50 and p90
# in ms are printed and written as `noise_ms` into the one JSON line per
# workload that --record appends to BENCH_wall.json, so that records
# taken in a slow stretch can be told apart.
# Needs git, tar, cargo and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

record=0
if [ "${1:-}" = "--record" ]; then
    record=1
    shift
fi
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 [--record] PARENT_REV [SEED] [PAIRS]" >&2
    exit 2
fi
parent="$(git rev-parse --short=12 "$1^{commit}")"
seed="${2:-7}"
pairs="${3:-10}"
commit="$(git describe --always --dirty --abbrev=12)"

# The contract's command builds the benchmark unlocked, which prunes stale
# entries from this checkout's benchmark/Cargo.lock: put it back on exit.
scratch="$(mktemp -d)"
cp benchmark/Cargo.lock "$scratch/Cargo.lock"
trap 'cp "$scratch/Cargo.lock" benchmark/Cargo.lock; rm -rf "$scratch"' EXIT
tree="$scratch/parent-$parent"
mkdir "$tree"
git archive "$parent" | tar -x -C "$tree"
for side in "$tree" .; do
    echo "== building $side" >&2
    (cd "$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One run on one side: the driver's last stdout line.
run() {
    local side="$1" workload="$2" seconds
    local -a cmd
    mapfile -t cmd < <(jq -r '.command[]' "$side/BENCHMARK.json")
    seconds="$(jq -r '.run_seconds' "$side/BENCHMARK.json")"
    (cd "$side" && "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 | tail -n 1)
}

# A quantile of an array, by linear interpolation.
quantile='def q($p): sort as $s | (($s | length - 1) * $p) as $h | ($h | floor) as $i
    | $s[$i] + ($h - $i) * (($s[[$i + 1, ($s | length - 1)] | min]) - $s[$i]);'
# q1/median/q3 (to 4 decimals) and the sum of failed operations over one
# side's result lines.
summary="$quantile"'
  def quart: [q(0.25), q(0.5), q(0.75) | . * 1e4 | round / 1e4];
  { op_p50_us: (map(.metrics.op_p50_us.value) | quart),
    setup_s: (map(.metrics.setup_s.value) | quart),
    failed: (map(.failed) | add) }'
# Pairs in which the change read lower than the parent, per metric.
wins='[transpose[] | {p: .[0].metrics, c: .[1].metrics}]
  | { op_p50_us: map(select(.c.op_p50_us.value < .p.op_p50_us.value)) | length,
      setup_s: map(select(.c.setup_s.value < .p.setup_s.value)) | length }'

# The noise reading: 30 timings of the fixed loop, one a second, as
# [p50, p90] in ms to 1 decimal.
noise() {
    local i start end
    for ((i = 0; i < 30; i++)); do
        start="$EPOCHREALTIME"
        awk 'BEGIN { for (i = 0; i < 1750000; i++) s += i; if (s < 0) print s }'
        end="$EPOCHREALTIME"
        awk -v a="$start" -v b="$end" 'BEGIN { print (b - a) * 1000 }'
        sleep "$(awk -v a="$start" -v b="$end" 'BEGIN { d = 1 - (b - a); print (d > 0 ? d : 0) }')"
    done | jq -sc "$quantile [q(0.5), q(0.9)] | map(. * 10 | round / 10)"
}
noise_ms=null
if ((record)); then
    echo "== noise reading, 30 s" >&2
    noise_ms="$(LC_ALL=C noise)"
    echo "noise_ms [p50, p90]: $noise_ms"
fi

nproc="$(nproc)"
cpu="$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo)"
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
bounds="$(jq -c '[.end_to_end[] | {(.name): .bound}] | add' BENCHMARK.json)"
for workload in "${workloads[@]}"; do
    : >"$scratch/parent" && : >"$scratch/change"
    for ((i = 0; i < pairs; i++)); do
        order=("$tree" parent . change)
        if ((i % 2)); then order=(. change "$tree" parent); fi
        for j in 0 2; do
            echo "== $workload pair $((i + 1))/$pairs: ${order[j + 1]}" >&2
            run "${order[j]}" "$workload" >>"$scratch/${order[j + 1]}"
        done
    done
    line="$(jq -cn --arg workload "$workload" --arg commit "$commit" --arg parent "$parent" \
        --argjson seed "$seed" --argjson pairs "$pairs" --argjson nproc "$nproc" \
        --arg cpu "$cpu" --argjson noise_ms "$noise_ms" \
        --slurpfile p "$scratch/parent" --slurpfile c "$scratch/change" \
        "{workload: \$workload, commit: \$commit, parent: \$parent, seed: \$seed,
          pairs: \$pairs, nproc: \$nproc, cpu: \$cpu, noise_ms: \$noise_ms,
          parent_side: (\$p | $summary), change: (\$c | $summary),
          change_lower: ([\$p, \$c] | $wins)}")"
    jq -r --argjson bounds "$bounds" '
        def verdict($m): .parent_side[$m] as [$q1, $median, $q3]
            | if $q3 - $q1 > $bounds[$m] * $median then "unresolved"
              elif .change_lower[$m] * 10 >= .pairs * 9 and $median - .change[$m][1] > $q3 - $q1
              then "gain" else "no gain" end;
        "\(.workload) (seed \(.seed), \(.pairs) pairs; q1 / median / q3)",
        (["parent", .parent_side], ["change", .change] | "  \(.[0])  op_p50_us \(
            .[1].op_p50_us | join(" / "))  setup_s \(.[1].setup_s | join(" / "))  failed \(
            .[1].failed)"),
        "  change lower in \(.change_lower.op_p50_us)/\(.pairs) pairs on op_p50_us, \(
            .change_lower.setup_s)/\(.pairs) on setup_s",
        "  verdict: op_p50_us \(verdict("op_p50_us")), setup_s \(verdict("setup_s"))"' <<<"$line"
    if ((record)); then
        echo "$line" >>BENCH_wall.json
    fi
done
