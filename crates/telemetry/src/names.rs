//! The telemetry name registries: the closed sets of span, event, and
//! counter names any smartsock component may emit.
//!
//! Spans, events and counters are queried by name across traces
//! (`telemetry summary`, `telemetry rollup`, the live `smartsockd stats`
//! frame, and the experiment invariants in `smartsock-bench`), so a
//! renamed or ad-hoc name silently ends the series every such query reads
//! and starts a new one. Registering names here keeps them stable and
//! greppable.
//!
//! A trace check enforces the registries. Two tests,
//! `full_catalog_is_byte_identical_across_jobs_1_and_8`
//! (`crates/bench/tests/parallel_determinism.rs`) over the full catalog
//! and `a_stats_reply_is_the_summary_its_trace_ends_with`
//! (`crates/live/tests/live_backend.rs`) over a live daemon, fail on any
//! emitted span name outside [`SPAN_NAMES`], or event or counter name (a
//! counter's `/label` stripped) outside [`EVENT_NAMES`] /
//! [`COUNTER_NAMES`]. Adding a name is a one-line change here plus the
//! call site. Test code may emit ad-hoc names.
//!
//! Keep the lists sorted and kebab-case; this module's own test holds
//! both.

/// Every registered span name, sorted.
pub const SPAN_NAMES: &[&str] = &[
    // core: one speculative hedge attempt, child of the client-request it
    // duplicates (crates/core/src/client.rs).
    "client-hedge",
    // core: one client request from send to reply/ timeout, surviving
    // retries (crates/core/src/client.rs).
    "client-request",
    // net: lifetime of one fluid bulk transfer, start to last byte
    // (crates/net/src/state.rs).
    "net-flow-transfer",
    // monitor: one sequential probing round over every monitored path
    // (crates/monitor/src/netmon.rs).
    "netmon-round",
    // probe: one status-report tick — scan /proc, differentiate, encode,
    // send (crates/probe/src/lib.rs).
    "probe-report",
    // wizard: matching one user request against the status databases
    // (crates/wizard/src/lib.rs).
    "wizard-match",
];

/// Every registered event name, sorted.
pub const EVENT_NAMES: &[&str] = &[
    // core: one exponential-backoff pause before a retry
    // (crates/core/src/client.rs).
    "client-backoff",
    // core: a request abandoned at its deadline (crates/core/src/client.rs).
    "client-deadline-exceeded",
    // core: a speculative hedge launched / a hedge reply winning the race
    // (crates/core/src/client.rs).
    "client-hedge-fired",
    "client-hedge-won",
    // core: one retransmit of an unanswered request
    // (crates/core/src/client.rs).
    "client-retry",
    // live: the periodic sonar-style self-report of a live daemon, with
    // its own-process procfs gauges alongside (crates/live/src/wizard.rs).
    "daemon-heartbeat",
    // faults: one fault applied / healed, attributed by kind
    // (crates/faults/src/lib.rs).
    "fault-injected",
    "fault-recovered",
    // bench: one generated fleet status report upserted into the wizard's
    // sysdb; the host field is the server's IP string so telemetry rollups
    // gain per-subnet scopes (crates/bench/src/experiments/fleet.rs).
    "fleet-report-ingested",
    // core: a socket group swapping a dead server for a fresh one
    // (crates/core/src/group.rs).
    "group-repaired",
    // wizard: a server moving between healthy/probation/quarantine
    // (crates/wizard/src/lib.rs).
    "health-transition",
    // monitor: a path estimate reaching its convergence criterion
    // (crates/monitor/src/netmon.rs).
    "netmon-estimate-converged",
    // monitor+wizard: a stale server record swept out of a status DB.
    "status-db-expired",
    // wizard: one shard's share of a sweep — subnet plus eviction count
    // (crates/wizard/src/lib.rs).
    "status-db-shard-swept",
];

/// Every registered counter name, sorted. Labeled counters register the
/// base name; the `/label` dimension stays free-form.
pub const COUNTER_NAMES: &[&str] = &[
    // core client request loop: retries, hedges, deadlines, repair.
    "client-auto-repairs",
    "client-backoff-ms-total",
    "client-bad-replies",
    "client-deadline-exceeded",
    "client-group-repaired",
    "client-hedge-timeouts",
    "client-hedges-fired",
    "client-hedges-won",
    "client-outcome-reports",
    "client-requests",
    "client-responses",
    "client-retries",
    "client-stale-timeouts",
    "client-timeouts",
    "client-unmatched-replies",
    "client-unreachable",
    // live: heartbeats emitted by a running daemon.
    "daemon-heartbeats",
    // faults: injector bookkeeping by fault kind.
    "faults-applied",
    "faults-chaos-ticks",
    "faults-daemon-kills",
    "faults-daemon-restarts",
    "faults-heals",
    "faults-host-crashes",
    "faults-host-reboots",
    "faults-latency-spikes",
    "faults-link-down",
    "faults-link-up",
    "faults-loss-spikes",
    "faults-partitions",
    // wizard health layer: outcome-report-driven quarantine.
    "health-probations",
    "health-quarantines",
    // monitor tools.
    "iperf-measurements",
    // apps (§4 workloads).
    "massd-blocks-received",
    "massd-client-bad-msgs",
    "massd-server-bad-msgs",
    "matmul-master-bad-msgs",
    "matmul-tiles-done",
    "matmul-worker-bad-msgs",
    "matmul-worker-oom",
    // net: datagram/stream/flow accounting.
    "net-datagrams-fragmented",
    "net-flow-dropped-unroutable",
    "net-flows-completed",
    "net-flows-started",
    "net-fragments",
    "net-host-down-drops",
    "net-icmp-echoes",
    "net-link-down-drops",
    "net-node-crashes",
    "net-node-revivals",
    "net-stream-blocked",
    "net-stream-bytes",
    "net-stream-dropped-unroutable",
    "net-stream-messages",
    "net-stream-refused",
    "net-udp-bytes",
    "net-udp-datagrams",
    "net-udp-dropped-unroutable",
    "net-udp-drops",
    "net-udp-lost",
    // monitor: network-monitor probing rounds.
    "netmon-bytes",
    "netmon-pairs-timed-out",
    "netmon-probes",
    "netmon-rounds-empty",
    "netmon-rounds-ok",
    // probe daemon.
    "probe-report-bytes",
    "probe-reports",
    "probe-restarts",
    // §3.4 receiver/transmitter data plane.
    "receiver-bad-frames",
    "receiver-bytes",
    "receiver-frames",
    "receiver-pull-requests",
    // sim scheduler.
    "sim-events-dispatched",
    // monitor tools.
    "slops-streams",
    // monitor+wizard ingest.
    "sysmon-bad-reports",
    "sysmon-bytes",
    "sysmon-expired",
    "sysmon-reports",
    "sysmon-restarts",
    // telemetry itself: records dropped by a streaming sink's
    // backpressure policy (crates/telemetry/src/sink.rs).
    "telemetry-dropped",
    "transmitter-bad-requests",
    "transmitter-bytes",
    "transmitter-pulls",
    "transmitter-snapshots",
    // wizard matching and reply path. `wizard-replies` counts the replies
    // the engine hands out; a backend counts a failed send in
    // `wizard-reply-send-errors`, so replies sent = the first − the second.
    "wizard-bad-requests",
    "wizard-outcome-reports",
    "wizard-quarantined-assignments",
    "wizard-replies",
    "wizard-reply-send-errors",
    "wizard-reply-servers",
    "wizard-requests",
    "wizard-restarts",
    // wizard shard-pruned matching: rows actually evaluated, shards
    // skipped by the summary prune, shards descended into.
    "wizard-rows-evaluated",
    "wizard-shards-pruned",
    "wizard-shards-scanned",
    "wizard-stale-evictions",
    // `SSQ1` stats polls on the wizard's port (both backends answer them).
    "wizard-stats-requests",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_sorted_deduped_kebab_case() {
        for (which, names) in
            [("spans", SPAN_NAMES), ("events", EVENT_NAMES), ("counters", COUNTER_NAMES)]
        {
            for w in names.windows(2) {
                assert!(
                    w[0] < w[1],
                    "{which} registry must stay sorted/deduped: {:?} vs {:?}",
                    w[0],
                    w[1]
                );
            }
            for name in names {
                assert!(
                    name.split('-').all(|seg| {
                        !seg.is_empty()
                            && seg.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
                    }),
                    "{which}: {name:?} is not kebab-case"
                );
            }
        }
    }
}
