//! Integration tests for the real-socket backend: daemon lifecycle,
//! typestate client round-trips, procfs-backed probing, deterministic
//! datagram loss, and manual-clock staleness — all over real UDP on
//! 127.0.0.1.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests poll real daemon threads over real UDP; their waits are wall time by nature"
)]

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

use smartsock_live::{
    live_request, query_stats, send_live_report, Clock, FaultShim, LiveProbe, LiveSock, LiveWizard,
    RequestError, ShimPolicy,
};
use smartsock_probe::ProbeIdentity;
use smartsock_proto::typestate::Requested;
use smartsock_proto::{
    Endpoint, Ip, ReplyStatus, RequestOption, ServerStatusReport, UserRequest, WizardReply,
};
use smartsock_telemetry::names::{COUNTER_NAMES, EVENT_NAMES, SPAN_NAMES};
use smartsock_telemetry::trace::Trace;
use smartsock_wizard::{ClientError, RequestSpec};

fn report(name: &str, last_octet: u8, cpu_idle: f64) -> ServerStatusReport {
    let mut r = ServerStatusReport::empty(name, Ip::new(192, 168, 9, last_octet));
    r.cpu_idle = cpu_idle;
    r.mem_free = 200 << 20;
    r.mem_total = 256 << 20;
    r
}

fn req(seq: u32, server_num: u16, detail: &str) -> UserRequest {
    UserRequest { seq, server_num, option: RequestOption::DEFAULT, detail: detail.to_owned() }
}

/// Poll until the wizard has ingested `n` reports (ingestion is
/// asynchronous to the sender's return).
fn wait_for_reports(wiz: &LiveWizard, n: u64) {
    for _ in 0..400 {
        if wiz.reports_ingested() >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("wizard never ingested {n} reports (got {})", wiz.reports_ingested());
}

/// Every `status-db-shard-swept` event of a trace: (subnet, rows evicted).
fn shard_sweeps(trace: &Trace) -> Vec<(&str, &str)> {
    trace
        .events
        .iter()
        .filter(|e| e.name == "status-db-shard-swept")
        .map(|e| (e.attrs["subnet"].as_str(), e.attrs["evicted"].as_str()))
        .collect()
}

#[test]
fn typestate_client_roundtrip_selects_qualified_servers() {
    let wiz = LiveWizard::spawn().unwrap();
    send_live_report(wiz.addr(), &report("idle1", 1, 0.97)).unwrap();
    send_live_report(wiz.addr(), &report("busy", 2, 0.10)).unwrap();
    send_live_report(wiz.addr(), &report("idle2", 3, 0.95)).unwrap();
    wait_for_reports(&wiz, 3);
    assert_eq!(wiz.live_servers(), 3);

    let sock = LiveSock::bind(wiz.addr()).unwrap();
    let waiting = sock.request(req(0xabcd, 5, "host_cpu_free > 0.9\n")).unwrap();
    let connected = match waiting.await_reply(Duration::from_millis(500), 3) {
        Ok(c) => c,
        Err((_, e)) => panic!("request failed: {e}"),
    };
    assert_eq!(connected.servers().len(), 2);
    let reply = connected.into_reply();
    assert_eq!(reply.seq, 0xabcd);
    assert_eq!(reply.status(5), ReplyStatus::Short { requested: 5, returned: 2 });

    let stats = wiz.shutdown().unwrap();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.reports, 3);
}

#[test]
fn shutdown_is_prompt_without_traffic() {
    // The daemon blocks in recv_from with no read timeout; shutdown must
    // still return promptly (the wakeup datagram) — a hang here is the
    // test's own timeout.
    let wiz = LiveWizard::spawn().unwrap();
    let stats = wiz.shutdown().unwrap();
    assert_eq!(stats.served, 0);
    assert_eq!(stats.reports, 0);
}

#[test]
fn live_trace_carries_simulator_telemetry_names() {
    let wiz = LiveWizard::spawn().unwrap();
    send_live_report(wiz.addr(), &report("idle1", 1, 0.97)).unwrap();
    wait_for_reports(&wiz, 1);
    let _ = live_request(wiz.addr(), &req(7, 1, ""), Duration::from_millis(500), 3).unwrap();
    let trace = wiz.shutdown().unwrap().trace_jsonl;
    for needle in [
        "sysmon-reports",
        "sysmon-bytes",
        "wizard-match",
        "wizard-replies",
        "wizard-reply-servers",
        "wizard-rows-evaluated",
        "wizard-shards-scanned",
        "wizard-shards-pruned",
    ] {
        assert!(trace.contains(needle), "trace missing {needle}:\n{trace}");
    }
}

/// The summary lines a trace ends with: every line but its records.
fn summary_lines(trace: &str) -> String {
    let record = |l: &str| l.starts_with(r#"{"t":"span-"#) || l.starts_with(r#"{"t":"event""#);
    trace.lines().filter(|l| !record(l)).map(|l| format!("{l}\n")).collect()
}

/// Whether any of `lines` starts with `prefix`.
fn has_line(lines: &str, prefix: &str) -> bool {
    lines.lines().any(|l| l.starts_with(prefix))
}

/// Every span, event and counter name in `trace` that the registries in
/// `smartsock_telemetry::names` lack; a counter's `/label` is not part of
/// its name. The registries are kebab-case (their own unit test), so an
/// empty set also means every emitted name is.
fn unregistered_names(trace: &Trace) -> BTreeSet<&str> {
    let spans =
        trace.starts.values().map(|(name, ..)| name).chain(trace.spans.iter().map(|s| &s.name));
    let spans = spans.map(String::as_str).filter(|n| !SPAN_NAMES.contains(n));
    let events = trace.events.iter().map(|e| e.name.as_str()).filter(|n| !EVENT_NAMES.contains(n));
    let counters = trace
        .counters
        .keys()
        .map(|n| n.split_once('/').map_or(n.as_str(), |(base, _)| base))
        .filter(|n| !COUNTER_NAMES.contains(n));
    spans.chain(events).chain(counters).collect()
}

#[test]
fn stats_query_snapshots_a_running_daemon() {
    let wiz = LiveWizard::spawn().unwrap();
    send_live_report(wiz.addr(), &report("idle1", 1, 0.97)).unwrap();
    wait_for_reports(&wiz, 1);
    let _ = live_request(wiz.addr(), &req(9, 1, ""), Duration::from_millis(500), 3).unwrap();

    let snap = query_stats(wiz.addr(), 0x51a7, Duration::from_millis(500), 3).unwrap();
    assert!(!snap.truncated);
    let counters = Trace::parse(&snap.lines).counters;
    assert_eq!(counters.get("sysmon-reports"), Some(&1), "{}", snap.lines);
    assert_eq!(counters.get("wizard-replies"), Some(&1), "{}", snap.lines);
    assert!(
        has_line(&snap.lines, r#"{"t":"hist","name":"wizard-match","count":1,"#),
        "match histogram missing:\n{}",
        snap.lines
    );
    // The query itself is counted, in its own snapshot and every later one.
    assert!(counters["wizard-stats-requests"] >= 1);
    let again = query_stats(wiz.addr(), 0x51a8, Duration::from_millis(500), 3).unwrap();
    assert!(Trace::parse(&again.lines).counters["wizard-stats-requests"] >= 2);

    // Heartbeat: the first inbound datagram carries the daemon's first
    // self-report, so the shutdown trace records it.
    let trace = wiz.shutdown().unwrap().trace_jsonl;
    assert!(trace.contains("daemon-heartbeat"), "no heartbeat in trace:\n{trace}");
}

#[test]
fn a_stats_reply_is_the_summary_its_trace_ends_with() {
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", Clock::manual().0).unwrap();
    subnet_reports(&wiz, 9, 0.95);
    let ask = req(1, 5, "host_cpu_free > 0.9\n");
    let reply = live_request(wiz.addr(), &ask, Duration::from_millis(500), 3).unwrap();
    assert_eq!(reply.servers.len(), 5);
    // One send per poll: a retransmitted one would reach the daemon after
    // the snapshot was taken.
    let poll = |seq| query_stats(wiz.addr(), seq, Duration::from_secs(5), 0).unwrap();
    let first = poll(1);
    let second = poll(2);
    assert_ne!(first.lines, second.lines, "a poll counts itself");
    assert!(!second.truncated);
    for prefix in [
        r#"{"t":"hist","name":"wizard-match","#,
        r#"{"t":"counter","name":"wizard-stats-requests","value":2}"#,
        r#"{"t":"gauge","name":"daemon-"#,
    ] {
        assert!(has_line(&second.lines, prefix), "no {prefix} line in:\n{}", second.lines);
    }
    // Nothing reaches the daemon after the second poll but the shutdown
    // wake-up, which records nothing: the trace ends with the same bytes.
    let trace = wiz.shutdown().unwrap().trace_jsonl;
    assert_eq!(second.lines, summary_lines(&trace));
    let parsed = Trace::parse(&trace);
    let unregistered = unregistered_names(&parsed);
    assert!(unregistered.is_empty(), "names missing from names.rs: {unregistered:?}");
}

#[test]
fn streaming_wizard_writes_the_trace_incrementally() {
    let dir = std::env::temp_dir().join(format!("smartsock-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.jsonl");
    let wiz = LiveWizard::spawn_streaming("127.0.0.1:0", Clock::wall(), &path).unwrap();
    send_live_report(wiz.addr(), &report("idle1", 1, 0.97)).unwrap();
    wait_for_reports(&wiz, 1);
    // Live stats still work in stream mode: the summary stays in memory.
    let snap = query_stats(wiz.addr(), 0x51a9, Duration::from_millis(500), 3).unwrap();
    assert_eq!(Trace::parse(&snap.lines).counters.get("sysmon-reports"), Some(&1));
    let stats = wiz.shutdown().unwrap();
    assert_eq!(stats.dropped, 0);
    let streamed = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(streamed.contains("daemon-heartbeat"), "streamed trace missing records:\n{streamed}");
    assert!(streamed.contains("\"t\":\"counter\""), "summary tail not flushed:\n{streamed}");
    // The in-memory copy holds only the summary (records went to the file).
    assert!(stats.trace_jsonl.contains("sysmon-reports"));
}

#[test]
fn procfs_probe_watch_reports_the_requested_count() {
    let wiz = LiveWizard::spawn().unwrap();
    let id = ProbeIdentity {
        host: "fixture".into(),
        ip: Ip::new(192, 168, 9, 40),
        bogomips: 3394.76,
        iface: "eth0".to_owned(),
        services: Default::default(),
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/proc");
    let mut probe = LiveProbe::new(wiz.addr(), id, Clock::wall()).unwrap().with_proc_root(root);
    let (_keepalive, stop) = mpsc::channel::<()>();
    let sent = probe.watch(Duration::from_millis(10), 3, &stop).unwrap();
    assert_eq!(sent, 3);
    wait_for_reports(&wiz, 3);
    assert_eq!(wiz.live_servers(), 1, "same host upserts in place");
    let stats = wiz.shutdown().unwrap();
    assert_eq!(stats.reports, 3);
}

#[test]
fn procfs_probe_first_report_reflects_modern_proc_fixture() {
    // The fixture uses the modern kernel formats: per-field meminfo, no
    // disk_io line — the probe must absorb both.
    let wiz = LiveWizard::spawn().unwrap();
    let id = ProbeIdentity {
        host: "fixture".into(),
        ip: Ip::new(192, 168, 9, 41),
        bogomips: 1000.0,
        iface: "eth0".to_owned(),
        services: Default::default(),
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/proc");
    let mut probe = LiveProbe::new(wiz.addr(), id, Clock::wall()).unwrap().with_proc_root(root);
    let bytes = probe.report_once().unwrap();
    assert!(bytes < 200, "report must stay under 200 bytes, got {bytes}");
    wait_for_reports(&wiz, 1);
    // First scan differentiates against boot: 1500 idle of 2000 jiffies.
    let reply = live_request(
        wiz.addr(),
        &req(11, 1, "host_cpu_free > 0.7\nhost_memory_free > 100000000\n"),
        Duration::from_millis(500),
        3,
    )
    .unwrap();
    assert_eq!(reply.servers.len(), 1, "fixture host qualifies on cpu and memory");
}

#[test]
fn client_retries_through_dropped_datagrams() {
    let wiz = LiveWizard::spawn().unwrap();
    send_live_report(wiz.addr(), &report("idle1", 1, 0.97)).unwrap();
    wait_for_reports(&wiz, 1);

    let shim =
        FaultShim::spawn(wiz.addr(), ShimPolicy { drop_requests: 1, drop_replies: 0 }).unwrap();
    // First request is eaten; the retransmit (same sequence number) lands.
    let reply = live_request(shim.addr(), &req(42, 1, ""), Duration::from_millis(100), 3).unwrap();
    assert_eq!(reply.seq, 42);
    assert_eq!(reply.servers.len(), 1);
    assert_eq!(shim.dropped(), 1);
    assert!(shim.forwarded() >= 2, "request + reply forwarded, got {}", shim.forwarded());
    shim.shutdown().unwrap();
    assert_eq!(wiz.shutdown().unwrap().served, 1);
}

#[test]
fn manual_clock_expires_stale_reports() {
    let (clock, hand) = Clock::manual();
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", clock).unwrap();
    send_live_report(wiz.addr(), &report("ephemeral", 9, 0.99)).unwrap();
    wait_for_reports(&wiz, 1);

    let fresh = live_request(wiz.addr(), &req(1, 1, ""), Duration::from_millis(500), 3).unwrap();
    assert_eq!(fresh.servers.len(), 1, "fresh record is offered");

    // Default staleness window is 3 probe intervals (6 s); jump past it.
    hand.advance_secs(60);
    let stale = live_request(wiz.addr(), &req(2, 1, ""), Duration::from_millis(500), 3).unwrap();
    assert!(stale.servers.is_empty(), "stale record must not be offered");
    let trace = wiz.shutdown().unwrap().trace_jsonl;
    assert!(trace.contains("status-db-expired"), "expiry must be traced:\n{trace}");
    assert!(trace.contains("status-db-shard-swept"), "per-shard sweep event missing:\n{trace}");
}

#[test]
fn a_stats_poll_alone_shows_the_sweep_in_live_servers() {
    let (clock, hand) = Clock::manual();
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", clock).unwrap();
    for last in 1..=3 {
        send_live_report(wiz.addr(), &report("gone", last, 0.9)).unwrap();
    }
    wait_for_reports(&wiz, 3);
    assert_eq!(wiz.live_servers(), 3);

    // Silence past the window, then nothing but a monitoring poll: the
    // sweep it triggers must show in the side channel, not only in the DB.
    hand.advance_secs(7);
    query_stats(wiz.addr(), 1, Duration::from_millis(500), 3).unwrap();
    assert_eq!(wiz.live_servers(), 0, "evicted rows still counted as live");
    let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
    assert_eq!(trace.events.iter().filter(|e| e.name == "status-db-expired").count(), 3);
}

#[test]
fn a_silent_subnet_expires_beside_one_that_keeps_reporting() {
    let (clock, hand) = Clock::manual();
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", clock).unwrap();
    let mut talker = report("talker", 1, 0.9);
    talker.ip = Ip::new(192, 168, 10, 1);
    // Subnet 192.168.9.0/24 reports once; 192.168.10.0/24 every 2 s.
    send_live_report(wiz.addr(), &report("silent1", 1, 0.9)).unwrap();
    send_live_report(wiz.addr(), &report("silent2", 2, 0.9)).unwrap();
    for (round, secs) in [0, 2, 4, 6].into_iter().enumerate() {
        hand.set_ns(secs * 1_000_000_000);
        send_live_report(wiz.addr(), &talker).unwrap();
        wait_for_reports(&wiz, 3 + round as u64);
    }
    // Aged exactly the 6 s window: kept.
    assert_eq!(wiz.live_servers(), 3);

    // The next datagram at t = 7 s — the request itself — sweeps first:
    // the untouched shard is due and goes, the busy one stays.
    hand.set_ns(7_000_000_000);
    let reply = live_request(wiz.addr(), &req(7, 10, ""), Duration::from_millis(500), 3).unwrap();
    let offered: Vec<Ip> = reply.servers.iter().map(|e| e.ip).collect();
    assert_eq!(offered, [talker.ip]);
    assert_eq!(wiz.live_servers(), 1);

    let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
    assert_eq!(shard_sweeps(&trace), [("192.168.9.0/24", "2")]);
    let expired: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "status-db-expired")
        .map(|e| e.attrs["server"].as_str())
        .collect();
    assert_eq!(expired, ["192.168.9.1", "192.168.9.2"]);
}

/// Twenty hosts of `192.168.<subnet>.0/24` report `cpu_idle`, and the
/// daemon is waited for, so a burst never outruns the socket buffer.
fn subnet_reports(wiz: &LiveWizard, subnet: u8, cpu_idle: f64) {
    let before = wiz.reports_ingested();
    for last in 1..=20 {
        let mut r = report("h", last, cpu_idle);
        r.ip = Ip::new(192, 168, subnet, last);
        send_live_report(wiz.addr(), &r).unwrap();
    }
    wait_for_reports(wiz, before + 20);
}

#[test]
fn a_request_after_a_thousand_overwrites_prunes_like_a_freshly_filled_daemon() {
    // What one request evaluates, read off the daemon's own trace.
    let ask = |wiz: LiveWizard| {
        let ask = req(1, 60, "host_cpu_free > 0.9\n");
        let reply = live_request(wiz.addr(), &ask, Duration::from_millis(500), 3).unwrap();
        let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
        let count = |name: &str| trace.counters.get(name).copied();
        (reply.servers, count("wizard-shards-pruned"), count("wizard-rows-evaluated"))
    };
    let spawn = || LiveWizard::spawn_with("127.0.0.1:0", Clock::manual().0);

    // Both /24s idle, then subnet 9 reports itself busy fifty times over:
    // every one of the 1000 reports overwrites a row, and none of them is
    // followed by a walk of its shard.
    let worn = spawn().unwrap();
    subnet_reports(&worn, 9, 0.95);
    subnet_reports(&worn, 10, 0.95);
    for round in 0..50 {
        subnet_reports(&worn, 9, 0.10 + f64::from(round % 5) / 100.0);
    }
    assert_eq!(worn.reports_ingested(), 1040);
    let fresh = spawn().unwrap();
    subnet_reports(&fresh, 9, 0.14);
    subnet_reports(&fresh, 10, 0.95);

    // The request tightens what the reports overwrote: the busy /24 is
    // pruned on its summary, exactly as in a daemon that never held the
    // idle values.
    let worn = ask(worn);
    assert_eq!((worn.1, worn.2), (Some(1), Some(20)));
    assert_eq!(worn, ask(fresh));
}

#[test]
fn a_settled_reply_stops_the_daemons_scan() {
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", Clock::manual().0).unwrap();
    for subnet in [9, 10, 11] {
        subnet_reports(&wiz, subnet, 0.95);
    }
    let ask = req(1, 5, "host_cpu_free > 0.9\n");
    let reply = live_request(wiz.addr(), &ask, Duration::from_millis(500), 3).unwrap();
    let first: Vec<Ip> = (1..=5).map(|last| Ip::new(192, 168, 9, last)).collect();
    assert_eq!(reply.servers.iter().map(|e| e.ip).collect::<Vec<_>>(), first);
    // Five idle rows fill the reply and no later row can beat them: the
    // daemon visits those five and never descends into the other /24s.
    let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
    assert_eq!(trace.counters.get("wizard-rows-evaluated"), Some(&5));
    assert_eq!(trace.counters.get("wizard-shards-pruned"), Some(&2));
    assert_eq!(trace.counters.get("wizard-shards-scanned"), Some(&1));
}

#[test]
fn reports_alone_evict_a_silent_subnet_with_no_request_arriving() {
    let (clock, hand) = Clock::manual();
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", clock).unwrap();
    subnet_reports(&wiz, 9, 0.95);
    subnet_reports(&wiz, 10, 0.95);
    // Subnet 10 falls silent; subnet 9 keeps overwriting its rows. Nothing
    // reads the summaries — eviction is the sweep's, on the next datagram
    // past the window, whoever sent it.
    for secs in [2, 4, 6] {
        hand.set_ns(secs * 1_000_000_000);
        subnet_reports(&wiz, 9, 0.5);
        assert_eq!(wiz.live_servers(), 40, "t = {secs} s: aged at most the 6 s window");
    }
    hand.set_ns(7_000_000_000);
    subnet_reports(&wiz, 9, 0.5);
    assert_eq!(wiz.live_servers(), 20);

    let stats = wiz.shutdown().unwrap();
    assert_eq!((stats.reports, stats.served), (120, 0));
    let trace = Trace::parse(&stats.trace_jsonl);
    assert_eq!(shard_sweeps(&trace), [("192.168.10.0/24", "20")]);
}

#[test]
fn garbage_datagrams_count_as_bad_requests_and_open_no_match_span() {
    let wiz = LiveWizard::spawn().unwrap();
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.send_to(b"xy", wiz.addr()).unwrap();
    // A served request proves the daemon is past the garbage (one socket,
    // one thread: datagrams are handled in arrival order).
    let _ = live_request(wiz.addr(), &req(3, 1, ""), Duration::from_millis(500), 3).unwrap();
    let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
    assert_eq!(trace.counters.get("wizard-bad-requests"), Some(&1));
    assert_eq!(trace.counters.get("wizard-requests"), Some(&1));
    let matches = trace.spans.iter().filter(|s| s.name == "wizard-match").count();
    assert_eq!(matches, 1, "only the decodable request opens a wizard-match span");
}

#[test]
fn a_maximally_nested_requirement_gets_an_empty_reply_and_the_daemon_lives() {
    // One datagram, 2040 parentheses deep: parsing, evaluating, printing
    // or even dropping that tree recursively used to overflow the daemon
    // thread's stack and abort the process. It is now refused at compile
    // time like any other uncompilable requirement.
    let wiz = LiveWizard::spawn().unwrap();
    send_live_report(wiz.addr(), &report("idle1", 1, 0.97)).unwrap();
    wait_for_reports(&wiz, 1);
    let nested = format!("{}1{} > 0\n", "(".repeat(2040), ")".repeat(2040));
    let chain = format!("1{} > 0\n", "+1".repeat(2039));
    for (seq, hostile) in [(1, nested), (2, chain)] {
        let reply = live_request(wiz.addr(), &req(seq, 1, &hostile), Duration::from_millis(500), 3)
            .unwrap();
        assert!(reply.servers.is_empty());
    }
    // The daemon is still there, and still selects.
    let reply = live_request(
        wiz.addr(),
        &req(3, 1, "host_cpu_free > 0.9\n"),
        Duration::from_millis(500),
        3,
    )
    .unwrap();
    assert_eq!(reply.servers.len(), 1);
    let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
    assert_eq!(trace.counters.get("wizard-requests"), Some(&3));
}

#[test]
fn a_requirement_longer_than_4_kib_is_read_to_its_end() {
    // Regression: the daemon and the shim received into 4 KiB. A request's
    // requirement is the rest of its datagram, so a longer one was cut
    // silently — here right after a statement, which left a requirement
    // every host passes, and the daemon offered a host.
    let wiz = LiveWizard::spawn().unwrap();
    send_live_report(wiz.addr(), &report("idle1", 1, 0.97)).unwrap();
    wait_for_reports(&wiz, 1);
    let long =
        format!("#{}\n{}host_cpu_free > 2\n", "x".repeat(286), "host_cpu_free >= 0\n".repeat(200));
    let wire = req(1, 1, &long).encode();
    assert!(wire.len() > 4096 && wire[4095] == b'\n', "the first 4 KiB end on a statement");
    let shim = FaultShim::spawn(wiz.addr(), ShimPolicy::default()).unwrap();
    for (seq, to) in [(1, wiz.addr()), (2, shim.addr())] {
        let reply = live_request(to, &req(seq, 1, &long), Duration::from_millis(500), 3).unwrap();
        assert!(reply.servers.is_empty(), "the last statement disqualifies every host: {reply:?}");
    }
    shim.shutdown().unwrap();
    assert_eq!(wiz.shutdown().unwrap().served, 2);
}

#[test]
fn timeout_hands_the_socket_back_in_the_requested_phase() {
    let silent = silent_port();
    let sock = LiveSock::bind(silent.local_addr().unwrap()).unwrap();
    let waiting = sock.request(req(5, 1, "")).unwrap();
    let waiting = match waiting.await_reply(Duration::from_millis(20), 1) {
        Ok(_) => panic!("nobody is answering; the request cannot connect"),
        Err((sock, RequestError::Failed(e))) => {
            assert_eq!(e, ClientError::Timeout { retries: 1 });
            sock
        }
        Err((_, e)) => panic!("expected a timeout, got {e}"),
    };
    // Still awaiting the same request: waiting again issues it afresh.
    assert!(waiting.await_reply(Duration::from_millis(20), 0).is_err());
    let frames = datagrams_received(&silent);
    assert_eq!(frames.len(), 3);
    assert!(frames.iter().all(|frame| *frame == req(5, 1, "").encode().to_vec()));
}

/// A bound socket nobody reads from until the test counts what arrived.
fn silent_port() -> std::net::UdpSocket {
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_nonblocking(true).unwrap();
    sock
}

fn datagrams_received(sock: &std::net::UdpSocket) -> Vec<Vec<u8>> {
    let mut buf = [0u8; 4096];
    std::iter::from_fn(|| sock.recv_from(&mut buf).ok().map(|(n, _)| buf[..n].to_vec())).collect()
}

#[test]
fn stray_datagrams_cannot_extend_a_wait() {
    // Regression: every `recv_from` used to get a fresh full timeout, so
    // noise arriving more often than the timeout kept an attempt alive
    // for as long as the noise lasted.
    let timeout = Duration::from_millis(60);
    let wizard = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let sock = LiveSock::bind(wizard.local_addr().unwrap()).unwrap();
    let waiting = sock.request(req(6, 1, "")).unwrap();
    let (_, target) = wizard.recv_from(&mut [0u8; 64]).unwrap();
    let noise = std::thread::spawn(move || {
        let sender = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        for _ in 0..50 {
            sender.send_to(b"noise", target).unwrap();
            std::thread::sleep(timeout / 3);
        }
    });
    let clock = Clock::wall();
    let outcome = waiting.await_reply(timeout, 0);
    let waited = Duration::from_nanos(clock.now_ns());
    noise.join().unwrap();
    match outcome {
        Err((_, RequestError::Failed(e))) => assert_eq!(e, ClientError::Timeout { retries: 0 }),
        Ok(_) => panic!("nobody answered"),
        Err((_, e)) => panic!("expected a timeout, got {e}"),
    }
    assert!(waited < 4 * timeout, "a 60 ms wait under noise took {waited:?}");
}

#[test]
fn retries_means_retransmissions_after_the_first_send_in_both_commands() {
    // Regression: `smartsockd request --retries 2` sent three datagrams,
    // `smartsockd stats --retries 2` two.
    let silent = silent_port();
    let addr = silent.local_addr().unwrap();
    let timeout = Duration::from_millis(20);
    for retries in [0, 2] {
        assert!(live_request(addr, &req(8, 1, ""), timeout, retries).is_err());
        assert_eq!(datagrams_received(&silent).len(), retries as usize + 1, "request, {retries}");
        assert!(query_stats(addr, 8, timeout, retries).is_err());
        assert_eq!(datagrams_received(&silent).len(), retries as usize + 1, "stats, {retries}");
    }
}

#[test]
fn only_the_wizard_asked_can_answer() {
    // Regression: the reply's sender used to be discarded, so anyone who
    // echoed the sequence number resolved the request.
    let wizard = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let stranger = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let sock = LiveSock::bind(wizard.local_addr().unwrap()).unwrap();
    let offer = |last| {
        let servers = vec![Endpoint::new(Ip::new(192, 168, 9, last), 1200)];
        WizardReply { seq: 9, servers }.encode()
    };

    let waiting = sock.request(req(9, 1, "")).unwrap();
    let (_, client) = wizard.recv_from(&mut [0u8; 64]).unwrap();
    stranger.send_to(&offer(66), client).unwrap();
    let waiting = match waiting.await_reply(Duration::from_millis(50), 0) {
        Err((sock, RequestError::Failed(ClientError::Timeout { .. }))) => sock,
        Ok(c) => panic!("a third party resolved the request: {:?}", c.servers()),
        Err((_, e)) => panic!("expected a timeout, got {e}"),
    };
    // The same frame shape from the wizard itself does resolve it.
    wizard.send_to(&offer(1), client).unwrap();
    let connected = waiting.await_reply(Duration::from_millis(500), 0).map_err(|(_, e)| e).unwrap();
    assert_eq!(connected.servers()[0].ip, Ip::new(192, 168, 9, 1));
}

/// A hand-driven wizard: a bare socket the test reads and answers itself.
fn fake_wizard() -> std::net::UdpSocket {
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock
}

/// The next request `wizard` reads, and the address it came from.
fn next_request(wizard: &std::net::UdpSocket) -> (UserRequest, std::net::SocketAddr) {
    let mut buf = [0u8; 4096];
    let (n, from) = wizard.recv_from(&mut buf).unwrap();
    (UserRequest::decode(&buf[..n]).unwrap(), from)
}

/// Reply to `seq` at `to` with the one server 192.168.9.`last`.
fn answer(wizard: &std::net::UdpSocket, to: std::net::SocketAddr, seq: u32, last: u8) {
    let servers = vec![Endpoint::new(Ip::new(192, 168, 9, last), 1200)];
    wizard.send_to(&WizardReply { seq, servers }.encode(), to).unwrap();
}

fn first_server(waiting: LiveSock<Requested>, timeout: Duration, retries: u32) -> Ip {
    let connected = waiting.await_reply(timeout, retries).map_err(|(_, e)| e).unwrap();
    connected.servers()[0].ip
}

#[test]
fn an_unbounded_timeout_waits_for_its_reply() {
    // Regression: the engine armed `now + timeout`, which overflowed — a
    // panic in debug, and in release a wait that gave up at once.
    let wizard = fake_wizard();
    let addr = wizard.local_addr().unwrap();
    let (done, finished) = mpsc::channel();
    let client = std::thread::spawn(move || {
        let waiting = LiveSock::bind(addr).unwrap().request(req(3, 1, "")).unwrap();
        done.send(first_server(waiting, Duration::MAX, 0)).unwrap();
    });
    let (_, from) = next_request(&wizard);
    let early = finished.recv_timeout(Duration::from_millis(200));
    assert_eq!(early, Err(mpsc::RecvTimeoutError::Timeout), "still waiting after 200 ms");
    answer(&wizard, from, 3, 1);
    assert_eq!(finished.recv().unwrap(), Ip::new(192, 168, 9, 1));
    client.join().unwrap();
}

#[test]
fn clean_requests_in_a_row_leave_from_one_port() {
    let wizard = fake_wizard();
    let mut ports = Vec::new();
    for seq in [1, 2] {
        let waiting = LiveSock::bind(wizard.local_addr().unwrap()).unwrap();
        let waiting = waiting.request(req(seq, 1, "")).unwrap();
        let (_, from) = next_request(&wizard);
        answer(&wizard, from, seq, 1);
        first_server(waiting, Duration::from_millis(500), 0);
        ports.push(from.port());
    }
    assert_eq!(ports[0], ports[1]);
}

#[test]
fn a_late_reply_to_a_retransmitted_request_never_reaches_the_next() {
    // Attempt 0 goes unanswered, attempt 1 is answered twice; the second
    // answer is in the socket before it is dropped. Were that socket
    // reused, the next request under the same `seq` would read it.
    const S: u32 = 0x5eed;
    let wizard = fake_wizard();
    let addr = wizard.local_addr().unwrap();
    let (dup_sent, dup_was_sent) = mpsc::channel();
    let fake = std::thread::spawn(move || {
        next_request(&wizard);
        let (_, from) = next_request(&wizard);
        answer(&wizard, from, S, 1);
        answer(&wizard, from, S, 1);
        dup_sent.send(()).unwrap();
        let (_, from) = next_request(&wizard);
        answer(&wizard, from, S, 2);
    });
    let first = LiveSock::bind(addr).unwrap().request(req(S, 1, "")).unwrap();
    assert_eq!(first_server(first, Duration::from_millis(50), 1), Ip::new(192, 168, 9, 1));
    dup_was_sent.recv().unwrap();
    let next = LiveSock::bind(addr).unwrap().request(req(S, 1, "")).unwrap();
    assert_eq!(first_server(next, Duration::from_millis(500), 0), Ip::new(192, 168, 9, 2));
    fake.join().unwrap();
}

#[test]
fn a_socket_dropped_awaiting_its_reply_is_not_reused() {
    const S: u32 = 0xd0d0;
    let wizard = fake_wizard();
    let addr = wizard.local_addr().unwrap();
    let abandoned = LiveSock::bind(addr).unwrap().request(req(S, 1, "")).unwrap();
    let (_, from) = next_request(&wizard);
    answer(&wizard, from, S, 1);
    drop(abandoned);
    let next = LiveSock::bind(addr).unwrap().request(req(S, 1, "")).unwrap();
    let (_, from) = next_request(&wizard);
    answer(&wizard, from, S, 2);
    assert_eq!(first_server(next, Duration::from_millis(500), 0), Ip::new(192, 168, 9, 2));
}

#[test]
fn each_reuse_of_a_port_draws_a_fresh_seq() {
    let wizard = fake_wizard();
    let mut sent = Vec::new();
    for _ in 0..2 {
        let sock = LiveSock::bind(wizard.local_addr().unwrap()).unwrap();
        let waiting = sock.request_spec(RequestSpec::new("", 1)).unwrap();
        let (request, from) = next_request(&wizard);
        answer(&wizard, from, request.seq, 1);
        first_server(waiting, Duration::from_millis(500), 0);
        sent.push((from.port(), request.seq));
    }
    assert_eq!(sent[0].0, sent[1].0, "one port");
    assert_ne!(sent[0].1, sent[1].1, "a seq repeated on it");
}

#[test]
fn an_unwritable_trace_path_fails_before_the_daemon_listens() {
    let dir = std::env::temp_dir().join(format!("smartsock-no-such-dir-{}", std::process::id()));
    assert!(!dir.exists());
    let path = dir.join("t.jsonl");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smartsockd"))
        .args(["wizard", "--bind", "127.0.0.1:0", "--trace"])
        .arg(&path)
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(!out.status.success(), "exited 0: {stdout}");
    assert!(stderr.contains(path.to_str().unwrap()), "the path is not named: {stderr}");
    assert!(!stdout.contains("listening"), "the daemon ran first: {stdout}");
}

/// Run `smartsockd` with `args` to completion.
fn smartsockd(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_smartsockd"))
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap()
}

/// A bound socket for a probe to report to, and the datagram it got
/// within 200 ms, if any.
fn probe_into_port(extra: &[&str]) -> (std::process::Output, Option<Vec<u8>>) {
    let port = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = port.local_addr().unwrap().to_string();
    let mut args = vec!["probe", "--wizard", &addr, "--host", "helene", "--ip", "192.168.3.10"];
    args.extend_from_slice(extra);
    let out = smartsockd(&args);
    port.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    let mut buf = [0u8; 4096];
    let got = port.recv_from(&mut buf).ok().map(|(n, _)| buf[..n].to_vec());
    (out, got)
}

#[test]
fn a_probe_refuses_a_report_no_host_could_send() {
    // Regression: 300 MB free of a 256 MB total panicked (debug) or sent
    // a wrapped `mem_used` (release); NaN and a negative load were sent
    // as they were.
    for (flag, value) in [
        ("--mem-free-mb", "300"),
        ("--cpu-free", "nan"),
        ("--cpu-free", "1.5"),
        ("--load1", "-3"),
        ("--load1", "inf"),
    ] {
        let (out, got) = probe_into_port(&[flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} exited 0");
        assert!(stderr.contains(flag), "{flag} {value}: the flag is not named: {stderr}");
        assert_eq!(got, None, "{flag} {value} sent a report");
    }
    // The edge is still a report: all memory free, none used.
    let (out, got) = probe_into_port(&["--mem-free-mb", "256"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = got.expect("a report arrives");
    let report = ServerStatusReport::parse_ascii(std::str::from_utf8(&got).unwrap()).unwrap();
    assert_eq!((report.mem_used, report.mem_free), (0, 256 << 20));
}

/// Exit 2 with the usage text on stderr.
fn assert_usage_error(out: &std::process::Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.contains("usage: smartsockd"), "{what}: no usage text: {stderr}");
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    // Regression: a misspelt --timeout-ms ran with the default 1 s timeout.
    let out = smartsockd(&["stats", "--wizard", "127.0.0.1:9", "--timout-ms", "10"]);
    assert_usage_error(&out, "--timout-ms");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--timout-ms"));
}

#[test]
fn a_stray_token_is_a_usage_error() {
    let out = smartsockd(&["request", "--wizard", "127.0.0.1:9", "stray", "--servers", "1"]);
    assert_usage_error(&out, "stray");
    assert!(String::from_utf8_lossy(&out.stderr).contains("stray"));
}

#[test]
fn a_probe_asked_for_zero_reports_sends_none() {
    let (out, got) = probe_into_port(&["--count", "0"]);
    assert_usage_error(&out, "--count 0");
    assert_eq!(got, None, "--count 0 sent a report");
}

#[test]
fn a_trace_is_written_while_the_daemon_runs() {
    use std::io::{BufRead, Write};
    let dir = std::env::temp_dir().join(format!("smartsock-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.jsonl");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_smartsockd"))
        .args(["wizard", "--bind", "127.0.0.1:0", "--trace"])
        .arg(&path)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr: std::net::SocketAddr =
        line.trim().rsplit(' ').next().unwrap().parse().expect("a listening line");

    // One report and 100 requests: more records than the stream buffers.
    send_live_report(addr, &report("idle1", 1, 0.97)).unwrap();
    for seq in 0..100 {
        live_request(addr, &req(seq, 1, ""), Duration::from_millis(500), 3).unwrap();
    }
    let streamed = (0..100)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            std::fs::metadata(&path).unwrap().len()
        })
        .find(|&len| len > 0);
    assert!(streamed.is_some(), "nothing reached the trace while the daemon ran");

    // Closing stdin stops the daemon, which ends the trace with its
    // summary lines.
    child.stdin.take().unwrap().write_all(b"\n").unwrap();
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(child.wait().unwrap().success(), "{rest}");
    let trace = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(Trace::parse(&trace).counters.get("wizard-replies"), Some(&100));
}

#[test]
fn a_request_stopped_and_continued_still_waits_for_its_reply() {
    // Regression: Linux fails a timed `recv_from` with EINTR after SIGSTOP
    // and SIGCONT, and the client reported it ("Interrupted system call")
    // instead of waiting out the time left — Ctrl-Z then `fg` killed it.
    let wizard = fake_wizard();
    let addr = wizard.local_addr().unwrap().to_string();
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_smartsockd"))
        .args(["request", "--wizard", &addr, "--servers", "1", "--timeout-ms", "3000"])
        .args(["--retries", "0"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let (request, from) = next_request(&wizard);
    let signal = |sig: &str| {
        let pid = child.id().to_string();
        let status = std::process::Command::new("/usr/bin/kill").args([sig, &pid]).status();
        assert!(status.unwrap().success(), "kill {sig}");
    };
    // Well inside its `recv_from` by now.
    std::thread::sleep(Duration::from_millis(100));
    signal("-STOP");
    std::thread::sleep(Duration::from_millis(100));
    signal("-CONT");
    std::thread::sleep(Duration::from_millis(200));
    answer(&wizard, from, request.seq, 1);
    let out = child.wait_with_output().unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "exited {:?}: {stderr}", out.status.code());
    assert_eq!(stdout.trim(), "192.168.9.1:1200");
}
