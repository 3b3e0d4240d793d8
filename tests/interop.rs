//! Interop conformance suite: one protocol stack, two engines.
//!
//! Every scenario feeds the *same* encoded wire bytes — ASCII
//! `ServerStatusReport` lines and binary `UserRequest` frames — to both
//! backends:
//!
//! * **sim**: a `SystemMonitor` + `Wizard` pair on a simulated LAN,
//!   datagrams travelling through the deterministic network model;
//! * **live**: a `LiveWizard` daemon thread over real UDP on 127.0.0.1,
//!   driven by a manual clock so staleness is as controllable as virtual
//!   time.
//!
//! Each scenario then asserts the reply frames are **byte-identical**, that
//! the request-path telemetry counters agree (both backends drive the one
//! `WizardEngine`, which also writes their traces) and that the decoded,
//! protocol-visible outcome (sequence echo, server set, ordering) matches.
//! Reports claim their own IP inside the payload, so a loopback datagram
//! can carry the exact bytes a simulated 10.0.9.x server would send — both
//! sysdbs end up keyed identically.

use std::cell::RefCell;
use std::io;
use std::net::UdpSocket;
use std::rc::Rc;
use std::time::Duration;

use smartsock_live::{Clock, FaultShim, LiveWizard, ShimPolicy};
use smartsock_monitor::db::shared_dbs;
use smartsock_monitor::{SysMonConfig, SystemMonitor};
use smartsock_net::{HostParams, LinkParams, NetworkBuilder, Payload};
use smartsock_proto::{Endpoint, Ip, RequestOption, ServerStatusReport, UserRequest, WizardReply};
use smartsock_sim::{Scheduler, SimDuration, SimTime};
use smartsock_telemetry::trace::Trace;
use smartsock_wizard::{SelectPolicy, Wizard, WizardConfig};

const WIZ_IP: Ip = Ip::new(10, 0, 0, 1);
const CLIENT_IP: Ip = Ip::new(10, 0, 0, 2);

/// The exact report bytes both backends ingest. The claimed IP lives in
/// the payload, so the same bytes mean the same server to either sysdb.
fn report_bytes(name: &str, last_octet: u8, cpu_idle: f64) -> Vec<u8> {
    let mut r = ServerStatusReport::empty(name, Ip::new(10, 0, 9, last_octet));
    r.cpu_idle = cpu_idle;
    r.load1 = 1.0 - cpu_idle;
    r.bogomips = 3394.76;
    r.mem_free = 200 << 20;
    r.mem_total = 256 << 20;
    r.encode_ascii().into_bytes()
}

/// The exact request frame both backends receive.
fn request_bytes(seq: u32, server_num: u16, detail: &str) -> Vec<u8> {
    let req =
        UserRequest { seq, server_num, option: RequestOption::DEFAULT, detail: detail.to_owned() };
    req.encode().freeze().to_vec()
}

/// The counters a request leaves behind, in either backend's trace.
const REQUEST_PATH_COUNTERS: [&str; 6] = [
    "wizard-requests",
    "wizard-replies",
    "wizard-reply-servers",
    "wizard-rows-evaluated",
    "wizard-shards-scanned",
    "wizard-shards-pruned",
];

/// What one backend made of a scenario: the raw reply datagram and the
/// [`REQUEST_PATH_COUNTERS`] values. Scenarios compare the two whole.
#[derive(Debug, PartialEq)]
struct Answer {
    reply: Vec<u8>,
    counters: Vec<u64>,
}

fn server_ips(reply: &WizardReply) -> Vec<Ip> {
    reply.servers.iter().map(|e| e.ip).collect()
}

/// Run the simulated backend: reports arrive at t=0 through the system
/// monitor's real ingest path, the request frame is sent after
/// `request_at_secs` of virtual time, and the raw reply datagram bytes are
/// captured at the client's UDP binding.
fn sim_reply(reports: &[Vec<u8>], request_at_secs: u64, request: &[u8]) -> Answer {
    let mut b = NetworkBuilder::new(11);
    let w = b.host("wizard", WIZ_IP, HostParams::testbed());
    let c = b.host("client", CLIENT_IP, HostParams::testbed());
    b.duplex(w, c, LinkParams::lan_100mbps());
    let net = b.build();

    let (sysdb, netdb, secdb) = shared_dbs();
    let mut s = Scheduler::new();
    let sysmon = SystemMonitor::new(WIZ_IP, sysdb.clone(), SysMonConfig::default());
    sysmon.start(&mut s, &net);
    let wiz = Wizard::new(WIZ_IP, net.clone(), sysdb, netdb, secdb, WizardConfig::default());
    wiz.start(&mut s);

    let client_ep = Endpoint::new(CLIENT_IP, 50001);
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    net.bind_udp(client_ep, move |_s, d| {
        *g.borrow_mut() = Some(d.payload.data.to_vec());
    });

    for r in reports {
        net.send_udp(&mut s, client_ep, sysmon.endpoint(), Payload::data(r.clone()), None);
    }
    s.run_until(SimTime::from_secs(request_at_secs));
    net.send_udp(&mut s, client_ep, wiz.endpoint(), Payload::data(request.to_vec()), None);
    s.run_until(s.now() + SimDuration::from_secs(2));

    let reply = got.borrow_mut().take().expect("sim wizard replied");
    let counters = REQUEST_PATH_COUNTERS.iter().map(|name| s.telemetry.counter(name)).collect();
    Answer { reply, counters }
}

/// Run the live backend: the same report bytes arrive over real UDP, the
/// manual clock advances `advance_secs` (the live analogue of virtual
/// time passing), and the same request frame is sent — optionally through
/// a fault shim — from a plain UDP socket that retries on timeout.
/// Returns the answer (counters read from the daemon's shutdown trace) plus
/// how many datagrams the shim dropped.
fn live_reply(
    reports: &[Vec<u8>],
    advance_secs: u64,
    request: &[u8],
    shim_policy: Option<ShimPolicy>,
) -> (Answer, u64) {
    let (clock, hand) = Clock::manual();
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", SelectPolicy::default(), clock).unwrap();

    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    for r in reports {
        sender.send_to(r, wiz.addr()).unwrap();
    }
    for _ in 0..400 {
        if wiz.reports_ingested() >= reports.len() as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(wiz.reports_ingested(), reports.len() as u64, "live wizard ingested every report");
    hand.advance_secs(advance_secs);

    let shim = shim_policy.map(|p| FaultShim::spawn(wiz.addr(), p).unwrap());
    let target = shim.as_ref().map_or(wiz.addr(), |sh| sh.addr());

    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    client.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
    let mut reply = None;
    let mut buf = [0u8; 2048];
    for _attempt in 0..5 {
        client.send_to(request, target).unwrap();
        match client.recv_from(&mut buf) {
            Ok((n, _)) => {
                reply = Some(buf[..n].to_vec());
                break;
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue; // lost datagram — retransmit the same frame
            }
            Err(e) => panic!("live recv failed: {e}"),
        }
    }
    let dropped = shim.as_ref().map_or(0, FaultShim::dropped);
    drop(shim);
    let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
    let counters = REQUEST_PATH_COUNTERS
        .iter()
        .map(|name| trace.counters.get(*name).copied().unwrap_or(0))
        .collect();
    (Answer { reply: reply.expect("live wizard replied"), counters }, dropped)
}

// ---------------------------------------------------------------------
// Scenario 1: basic selection.
// ---------------------------------------------------------------------
#[test]
fn basic_selection_reply_frames_are_byte_identical() {
    let reports = vec![
        report_bytes("alpha", 1, 0.97),
        report_bytes("busy", 2, 0.10),
        report_bytes("gamma", 3, 0.93),
    ];
    let request = request_bytes(0xA1A1_0001, 5, "host_cpu_free > 0.9\n");

    let sim = sim_reply(&reports, 1, &request);
    let (live, _) = live_reply(&reports, 0, &request, None);
    assert_eq!(sim, live, "reply frames or request counters differ between backends");

    let reply = WizardReply::decode(&live.reply).unwrap();
    assert_eq!(reply.seq, 0xA1A1_0001, "sequence echo");
    assert_eq!(
        server_ips(&reply),
        vec![Ip::new(10, 0, 9, 1), Ip::new(10, 0, 9, 3)],
        "both idle servers, busy one filtered, address order"
    );
}

// ---------------------------------------------------------------------
// Scenario 2: requirement-language deny/prefer lists.
// ---------------------------------------------------------------------
#[test]
fn deny_and_prefer_lists_filter_and_order_identically() {
    let reports = vec![
        report_bytes("alpha", 1, 0.95),
        report_bytes("beta", 2, 0.95),
        report_bytes("gamma", 3, 0.95),
    ];
    let request = request_bytes(
        0xA1A1_0002,
        5,
        "host_cpu_free > 0.5\nuser_denied_host1 = beta\nuser_preferred_host1 = gamma\n",
    );

    let sim = sim_reply(&reports, 1, &request);
    let (live, _) = live_reply(&reports, 0, &request, None);
    assert_eq!(sim, live, "reply frames or request counters differ between backends");

    let reply = WizardReply::decode(&live.reply).unwrap();
    assert_eq!(
        server_ips(&reply),
        vec![Ip::new(10, 0, 9, 3), Ip::new(10, 0, 9, 1)],
        "preferred gamma first, denied beta absent"
    );
}

// ---------------------------------------------------------------------
// Scenario 3: multi-server top-up — ask past the pool and get a short
// reply; ask under it and get exactly server_num.
// ---------------------------------------------------------------------
#[test]
fn server_num_cap_and_short_replies_are_identical() {
    let reports: Vec<Vec<u8>> =
        (1..=4).map(|i| report_bytes(&format!("pool{i}"), i, 0.92)).collect();

    // Under the pool: truncated to server_num, address order.
    let truncating = request_bytes(0xA1A1_0003, 3, "");
    let sim = sim_reply(&reports, 1, &truncating);
    let (live, _) = live_reply(&reports, 0, &truncating, None);
    assert_eq!(sim, live, "truncated reply frames differ");
    assert_eq!(WizardReply::decode(&live.reply).unwrap().servers.len(), 3);

    // Past the pool: a short reply carrying every qualified server.
    let short = request_bytes(0xA1A1_0004, 60, "");
    let sim = sim_reply(&reports, 1, &short);
    let (live, _) = live_reply(&reports, 0, &short, None);
    assert_eq!(sim, live, "short reply frames differ");
    let reply = WizardReply::decode(&live.reply).unwrap();
    assert_eq!(
        server_ips(&reply),
        (1..=4).map(|i| Ip::new(10, 0, 9, i)).collect::<Vec<_>>(),
        "all four offered when the pool is smaller than server_num"
    );
}

// ---------------------------------------------------------------------
// Scenario 4: stale-report expiry — virtual time in the simulator,
// manual clock in the live daemon; both cross the 6 s staleness window.
// ---------------------------------------------------------------------
#[test]
fn stale_reports_expire_identically_under_both_clocks() {
    let reports = vec![report_bytes("fading", 1, 0.97)];
    let request = request_bytes(0xA1A1_0005, 5, "host_cpu_free > 0.9\n");

    let sim = sim_reply(&reports, 10, &request);
    let (live, _) = live_reply(&reports, 10, &request, None);
    assert_eq!(sim, live, "stale-expiry reply frames differ");

    let reply = WizardReply::decode(&live.reply).unwrap();
    assert_eq!(reply.seq, 0xA1A1_0005, "empty reply still echoes the sequence");
    assert!(reply.servers.is_empty(), "the 10 s old report is past the 6 s window");
}

// ---------------------------------------------------------------------
// Scenario 5: retry after a dropped datagram — the live request passes a
// socket-level fault shim that eats the first frame (the live analogue of
// the fault catalogue's loss spikes); the client's retransmission carries
// the identical bytes, so the eventual reply must still match the
// loss-free simulator run.
// ---------------------------------------------------------------------
#[test]
fn retry_after_drop_converges_to_the_loss_free_reply() {
    let reports = vec![
        report_bytes("alpha", 1, 0.97),
        report_bytes("busy", 2, 0.10),
        report_bytes("gamma", 3, 0.93),
    ];
    let request = request_bytes(0xA1A1_0006, 5, "host_cpu_free > 0.9\n");

    let sim = sim_reply(&reports, 1, &request);
    let (live, dropped) =
        live_reply(&reports, 0, &request, Some(ShimPolicy { drop_requests: 1, drop_replies: 0 }));
    assert_eq!(dropped, 1, "the shim ate exactly the first request frame");
    assert_eq!(sim, live, "post-retry reply frame differs from the loss-free sim reply");

    let reply = WizardReply::decode(&live.reply).unwrap();
    assert_eq!(server_ips(&reply), vec![Ip::new(10, 0, 9, 1), Ip::new(10, 0, 9, 3)]);
}

// ---------------------------------------------------------------------
// Scenario 6: the report frames themselves — the probe engine's ASCII
// encoding round-trips through both ingest paths into identical database
// rows, proven end-to-end by the replies above and directly here.
// ---------------------------------------------------------------------
#[test]
fn report_frames_round_trip_identically_through_both_ingest_paths() {
    let bytes = report_bytes("echo", 7, 0.88);
    // The frame respects the paper's size bound and decodes to itself.
    assert!(bytes.len() < 200, "report frame stays under the paper's 200-byte bound");
    let text = std::str::from_utf8(&bytes).unwrap();
    let decoded = ServerStatusReport::parse_ascii(text).unwrap();
    assert_eq!(decoded.encode_ascii().into_bytes(), bytes, "ASCII encoding is canonical");

    // Both backends accept it and offer the claimed endpoint back.
    let request = request_bytes(0xA1A1_0007, 1, "host_cpu_free > 0.8\n");
    let sim = sim_reply(std::slice::from_ref(&bytes), 1, &request);
    let (live, _) = live_reply(&[bytes], 0, &request, None);
    assert_eq!(sim, live);
    let reply = WizardReply::decode(&live.reply).unwrap();
    assert_eq!(server_ips(&reply), vec![Ip::new(10, 0, 9, 7)]);
}
