//! The telemetry subsystem's determinism contract, end to end: two runs of
//! the same seeded scenario — including scripted fault injection — export
//! byte-identical JSONL traces, a streaming sink at any buffer size emits
//! those same bytes, and the histogram edge cases behave at the public API.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::RequestSpec;
use smartsock::{SockGroup, Testbed};
use smartsock_faults::{Daemon, FaultKind, FaultPlan};
use smartsock_proto::consts::ports;
use smartsock_proto::Endpoint;
use smartsock_sim::{Scheduler, SimDuration, SimTime, Telemetry};
use smartsock_telemetry::{RollupSink, SharedBuf, Sink, StreamSink};

/// One full scripted run with the given telemetry sink installed: testbed
/// up, a repairing socket group, a fault plan that crashes a server and
/// kills the wizard, everything traced. Returns the scheduler so callers
/// can export, finish, or inspect the sink.
fn scripted_run(seed: u64, sink: Option<Box<dyn Sink>>) -> Scheduler {
    let (mut s, tb) = Testbed::paper(seed);
    if let Some(sink) = sink {
        s.telemetry.set_sink(sink);
    }
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    s.run_until(SimTime::from_secs(10));

    let client = tb.client("sagit");
    let slot = Rc::new(RefCell::new(None));
    let g = Rc::clone(&slot);
    SockGroup::request(
        &client,
        &mut s,
        RequestSpec::new("host_cpu_free > 0.9\nuser_denied_host1 = sagit\n", 3),
        move |_s, r| *g.borrow_mut() = Some(r.expect("group forms")),
    );
    s.run_until(s.now() + SimDuration::from_secs(3));
    let group = slot.borrow_mut().take().expect("request completed");
    let _guard = group.auto_repair(&mut s, SimDuration::from_secs(2));

    let inj = tb.fault_injector();
    let ep = tb.service_endpoint("telesto");
    let net = tb.net.clone();
    inj.on_reboot("telesto", move |_s| net.bind_stream(ep, |_s, _m| {}));
    let t0 = s.now();
    let plan = FaultPlan::new()
        .window(
            t0 + SimDuration::from_secs(2),
            t0 + SimDuration::from_secs(20),
            FaultKind::Host { host: "telesto".to_owned() },
        )
        .window(
            t0 + SimDuration::from_secs(5),
            t0 + SimDuration::from_secs(9),
            FaultKind::Daemon(Daemon::Wizard),
        );
    inj.schedule(&mut s, &plan);
    s.run_until(t0 + SimDuration::from_secs(40));
    s
}

/// The accumulated JSONL export of one scripted run.
fn traced_run(seed: u64) -> String {
    scripted_run(seed, None).telemetry.export_jsonl()
}

#[test]
fn same_seed_exports_byte_identical_traces_under_faults() {
    let a = traced_run(424242);
    let b = traced_run(424242);
    assert_eq!(a, b, "same seed must reproduce the trace byte for byte");
    assert!(a.lines().any(|l| l.contains("\"fault-injected\"")), "faults were traced");
    assert!(a.lines().any(|l| l.contains("\"fault-recovered\"")), "recoveries were traced");
    assert!(a.lines().any(|l| l.contains("\"client-request\"")), "request spans were traced");

    let c = traced_run(424243);
    assert_ne!(a, c, "a different seed perturbs the trace");
}

/// The core streaming invariant: whatever the buffer size — flushing on
/// every record (1), at an awkward prime boundary (7), or rarely (4096) —
/// the bytes a `StreamSink` emits for the fault-plan scenario are exactly
/// the bytes the default accumulator exports at the end.
#[test]
fn stream_sink_is_byte_identical_to_accum_at_every_buffer_size() {
    let seed = 424242;
    let accumulated = traced_run(seed);
    for cap in [1usize, 7, 4096] {
        let buf = SharedBuf::new();
        let sink = StreamSink::new(Box::new(buf.clone()), cap);
        let mut s = scripted_run(seed, Some(Box::new(sink)));
        // Flush residual lines and the summary tail.
        s.telemetry.finish();
        let streamed = String::from_utf8(buf.contents()).expect("JSONL is UTF-8");
        assert_eq!(
            streamed, accumulated,
            "StreamSink(cap={cap}) diverged from the accumulated export"
        );
        assert_eq!(s.telemetry.dropped(), 0, "nothing may drop on a healthy writer");
    }
}

/// The rollup's totals must agree with the accumulated trace: same number
/// of records folded, same per-name span counts — just bounded by name ×
/// scope cardinality instead of run length.
#[test]
fn rollup_sink_totals_equal_the_accumulated_summary() {
    let seed = 424242;
    let accumulated = traced_run(seed);
    let record_lines = accumulated
        .lines()
        .filter(|l| {
            l.starts_with("{\"t\":\"span-start\"")
                || l.starts_with("{\"t\":\"span-end\"")
                || l.starts_with("{\"t\":\"event\"")
        })
        .count() as u64;
    let span_ends = |name: &str| {
        accumulated
            .lines()
            .filter(|l| {
                l.starts_with("{\"t\":\"span-end\"") && l.contains(&format!("\"name\":\"{name}\""))
            })
            .count() as u64
    };
    let events = |name: &str| {
        accumulated
            .lines()
            .filter(|l| {
                l.starts_with("{\"t\":\"event\"") && l.contains(&format!("\"name\":\"{name}\""))
            })
            .count() as u64
    };

    let s = scripted_run(seed, Some(Box::new(RollupSink::new())));
    let rollup = s.telemetry.rollup().expect("rollup sink exposes its rollup");
    assert_eq!(rollup.records(), record_lines, "every record folds exactly once");
    for name in ["client-request", "wizard-match", "probe-report"] {
        assert_eq!(
            rollup.total(name),
            span_ends(name),
            "rollup total for span {name} disagrees with the trace"
        );
    }
    for name in ["fault-injected", "fault-recovered"] {
        assert_eq!(
            rollup.total(name),
            events(name),
            "rollup total for event {name} disagrees with the trace"
        );
    }
}

#[test]
fn empty_histograms_do_not_exist() {
    let t = Telemetry::new();
    assert!(t.histogram("never-observed").is_none());
    let mut t = Telemetry::new();
    t.counter_incr("some-counter");
    assert!(t.histogram("some-counter").is_none(), "counters are not histograms");
}

#[test]
fn single_sample_histograms_report_that_sample_at_every_quantile() {
    let mut t = Telemetry::new();
    t.observe_ns("lone-sample", 12_345);
    let h = t.histogram("lone-sample").expect("summary exists");
    assert_eq!(h.count, 1);
    assert_eq!(h.sum, 12_345);
    assert_eq!((h.min, h.max), (12_345, 12_345));
    assert_eq!((h.p50, h.p95, h.p99), (12_345, 12_345, 12_345));
}

#[test]
fn saturated_top_bucket_clamps_to_the_observed_max() {
    let mut t = Telemetry::new();
    t.observe_ns("huge", u64::MAX);
    t.observe_ns("huge", u64::MAX - 1);
    let h = t.histogram("huge").expect("summary exists");
    assert_eq!(h.count, 2);
    assert_eq!(h.max, u64::MAX);
    assert!(h.p50 >= h.min && h.p99 <= h.max, "quantiles stay within [min, max]");
    assert_eq!(h.p99, u64::MAX, "top-rank quantile clamps to max, not past it");
}
