//! Interop conformance suite: one protocol stack, two engines.
//!
//! Every scenario feeds the *same* encoded wire bytes — ASCII
//! `ServerStatusReport` lines, binary `UserRequest` frames and, in scenario
//! 11, outcome reports and stats polls, which both answer — to both
//! backends:
//!
//! * **sim**: a `Wizard` on a simulated LAN, reports and requests alike
//!   sent to its request port, datagrams travelling through the
//!   deterministic network model;
//! * **live**: a `LiveWizard` daemon thread over real UDP on 127.0.0.1,
//!   driven by a manual clock so staleness is as controllable as virtual
//!   time.
//!
//! Both backends ingest and answer through the one `WizardEngine`'s demux,
//! which also writes their traces. Each scenario then asserts the reply
//! frames are **byte-identical**, that the engine's ingest and request
//! counters agree, and that the decoded, protocol-visible outcome
//! (sequence echo, server set, ordering) matches.
//! Reports claim their own IP inside the payload, so a loopback datagram
//! can carry the exact bytes a simulated 10.0.9.x server would send — both
//! sysdbs end up keyed identically.
//!
//! The client side is held to the same standard (scenarios 7–10): one
//! [`ClientScript`] — requests, what the wire drops, which servers refuse
//! the connect — is run by the simulated `SmartClient` and by the live
//! `LiveSock`, both drivers of the one `ClientEngine`, and the frames they
//! put on the wire, what each request resolved to and the `client-*`
//! counters they leave behind must agree.

#![expect(
    clippy::disallowed_methods,
    reason = "the live half polls real daemon threads over real UDP; its waits are wall time by nature"
)]

use std::cell::RefCell;
use std::io;
use std::net::UdpSocket;
use std::rc::Rc;
use std::time::Duration;

use smartsock::client::{ClientError, RequestSpec, SmartClient};
use smartsock_live::{Clock, FaultShim, LiveSock, LiveWizard, RequestError, ShimPolicy};
use smartsock_net::{HostParams, LinkParams, NetworkBuilder, Payload};
use smartsock_proto::consts::ports;
use smartsock_proto::{
    Endpoint, Ip, OutcomeKind, OutcomeReport, RequestOption, ServerStatusReport, StatsReply,
    StatsRequest, UserRequest, WizardReply,
};
use smartsock_sim::{Scheduler, SimDuration, SimTime, Telemetry};
use smartsock_telemetry::trace::Trace;
use smartsock_wizard::{Wizard, WizardConfig};

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

/// The counters the engine's ingest and request paths leave behind, in
/// either backend's trace.
const ENGINE_COUNTERS: [&str; 9] = [
    "sysmon-reports",
    "sysmon-bad-reports",
    "sysmon-bytes",
    "wizard-requests",
    "wizard-replies",
    "wizard-reply-servers",
    "wizard-rows-evaluated",
    "wizard-shards-scanned",
    "wizard-shards-pruned",
];

/// What one backend made of a scenario: the raw reply datagram and the
/// [`ENGINE_COUNTERS`] values. Scenarios compare the two whole.
#[derive(Debug, PartialEq)]
struct Answer {
    reply: Vec<u8>,
    counters: Vec<u64>,
}

fn server_ips(reply: &WizardReply) -> Vec<Ip> {
    reply.servers.iter().map(|e| e.ip).collect()
}

/// Run the simulated backend: reports arrive at t=0 through the wizard
/// engine's ingest path, the request frame is sent after
/// `request_at_secs` of virtual time, and the raw reply datagram bytes are
/// captured at the client's UDP binding.
fn sim_reply(reports: &[Vec<u8>], request_at_secs: u64, request: &[u8]) -> Answer {
    let (mut replies, s) = sim_run(reports, request_at_secs, &[request]);
    let reply = replies.pop().expect("sim wizard replied");
    let counters = ENGINE_COUNTERS.iter().map(|name| s.telemetry.counter(name)).collect();
    Answer { reply, counters }
}

/// [`sim_reply`]'s run: `datagrams` sent to the wizard's port at t=0, then
/// from `request_at_secs` on the `requests`, 2 s apart. Returns every
/// datagram the sender received, and the scheduler whose telemetry the
/// wizard wrote.
fn sim_run(
    datagrams: &[Vec<u8>],
    request_at_secs: u64,
    requests: &[&[u8]],
) -> (Vec<Vec<u8>>, Scheduler) {
    let mut b = NetworkBuilder::new(11);
    let w = b.host("wizard", WIZ_IP, HostParams::testbed());
    let c = b.host("client", CLIENT_IP, HostParams::testbed());
    b.duplex(w, c, LinkParams::lan_100mbps());
    let net = b.build();

    let mut s = Scheduler::new();
    let wiz = Wizard::new(WIZ_IP, net.clone(), WizardConfig::default());
    wiz.start(&mut s);

    let client_ep = Endpoint::new(CLIENT_IP, 50001);
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = Rc::clone(&got);
    net.bind_udp(client_ep, move |_s, d| g.borrow_mut().push(d.payload.data.to_vec()));

    for d in datagrams {
        net.send_udp(&mut s, client_ep, wiz.endpoint(), Payload::data(d.clone()), None);
    }
    s.run_until(SimTime::from_secs(request_at_secs));
    for request in requests {
        net.send_udp(&mut s, client_ep, wiz.endpoint(), Payload::data(request.to_vec()), None);
        s.run_until(s.now() + SimDuration::from_secs(2));
    }
    (got.take(), s)
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
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", clock).unwrap();

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
    let counters = ENGINE_COUNTERS
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

// ---------------------------------------------------------------------
// The client side: one script, both drivers of the one `ClientEngine`.
// ---------------------------------------------------------------------

const SHIM_IP: Ip = Ip::new(10, 0, 0, 3);

/// What a client-side scenario does, backend-neutral.
struct ClientScript {
    reports: Vec<Vec<u8>>,
    /// Issued one after the other, each once the previous one resolved.
    requests: Vec<RequestSpec>,
    /// What the wire between client and wizard eats.
    wire: ShimPolicy,
    /// Servers whose service port refuses the connect.
    dead: Vec<Ip>,
    /// Whether connect verdicts flow back to the wizard.
    report_outcomes: bool,
}

/// Counters both backends must agree on. `client-backoff-ms-total` is
/// left out: how far a retry is stretched is the one thing the drivers'
/// different randomness may change.
const CLIENT_PATH_COUNTERS: [&str; 14] = [
    "client-requests",
    "client-responses",
    "client-retries",
    "client-timeouts",
    "client-unreachable",
    "client-deadline-exceeded",
    "client-hedges-fired",
    "client-hedges-won",
    "client-hedge-timeouts",
    "client-unmatched-replies",
    "client-bad-replies",
    "client-outcome-reports",
    "wizard-reply-servers",
    "health-quarantines",
];

/// What one backend made of a [`ClientScript`].
#[derive(Debug, PartialEq)]
struct ClientAnswer {
    /// Every datagram the client sent toward the wizard, in order, made
    /// comparable by [`canonical_frames`]: each request frame's sequence
    /// number replaced by its rank of first appearance (the drivers draw
    /// them from different streams).
    frames: Vec<Vec<u8>>,
    /// Per request: the servers connected to, or why there are none.
    results: Vec<Result<Vec<Endpoint>, ClientError>>,
    counters: Vec<u64>,
}

fn canonical_frames(frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    // Request frames are at least 8 bytes; outcome reports are 7 and
    // carry no sequence number.
    let is_request = |frame: &Vec<u8>| frame.len() >= 8;
    let mut seen: Vec<[u8; 4]> = Vec::new();
    let mut frames: Vec<Vec<u8>> = frames
        .into_iter()
        .map(|mut frame| {
            let request = is_request(&frame);
            if let Some(seq) = frame.first_chunk_mut::<4>().filter(|_| request) {
                let known = seen.iter().position(|s| s == seq);
                let rank = known.unwrap_or_else(|| {
                    seen.push(*seq);
                    seen.len() - 1
                });
                *seq = (rank as u32).to_le_bytes();
            }
            frame
        })
        .collect();
    // One resolution's outcome reports leave in one instant, and the
    // simulated LAN's jitter may reorder such a burst: compare it as a set.
    for burst in frames.chunk_by_mut(|a, b| !is_request(a) && !is_request(b)) {
        burst.sort();
    }
    frames
}

/// The simulated backend: `SmartClient` talks to a relay host that logs
/// and drops like the live `FaultShim`, in front of the real wizard.
fn sim_client(script: &ClientScript) -> ClientAnswer {
    let servers: Vec<Ip> = (1..=3).map(|i| Ip::new(10, 0, 9, i)).collect();
    let mut b = NetworkBuilder::new(11);
    let sw = b.router("sw", Ip::new(10, 0, 0, 254));
    let named = [("wizard", WIZ_IP), ("client", CLIENT_IP), ("shim", SHIM_IP)];
    let hosts = named.into_iter().chain(servers.iter().map(|&ip| ("server", ip)));
    for (i, (name, ip)) in hosts.enumerate() {
        let node = b.host(&format!("{name}{i}"), ip, HostParams::testbed());
        b.duplex(node, sw, LinkParams::lan_100mbps());
    }
    let net = b.build();
    for ip in servers.iter().filter(|ip| !script.dead.contains(ip)) {
        net.bind_stream(Endpoint::new(*ip, ports::SERVICE), |_s, _m| {});
    }

    let mut s = Scheduler::new();
    let wiz = Wizard::new(WIZ_IP, net.clone(), WizardConfig::default());
    wiz.start(&mut s);

    // The relay: the wizard's port, the same budgets as `FaultShim`.
    let frames = Rc::new(RefCell::new(Vec::new()));
    let budget = Rc::new(RefCell::new(script.wire));
    let client_ep = Rc::new(RefCell::new(None));
    let (net2, logged) = (net.clone(), Rc::clone(&frames));
    let here = Endpoint::new(SHIM_IP, ports::WIZARD);
    net.bind_udp(here, move |s, d| {
        let mut budget = budget.borrow_mut();
        let (to, left) = if d.from.ip == WIZ_IP {
            (*client_ep.borrow(), &mut budget.drop_replies)
        } else {
            *client_ep.borrow_mut() = Some(d.from);
            logged.borrow_mut().push(d.payload.data.to_vec());
            (Some(Endpoint::new(WIZ_IP, ports::WIZARD)), &mut budget.drop_requests)
        };
        if *left > 0 {
            *left -= 1;
        } else if let Some(to) = to {
            net2.send_udp(s, here, to, d.payload, None);
        }
    });

    let reporter = Endpoint::new(CLIENT_IP, 50001);
    for r in &script.reports {
        net.send_udp(&mut s, reporter, wiz.endpoint(), Payload::data(r.clone()), None);
    }
    s.run_until(SimTime::from_secs(1));

    let mut client = SmartClient::new(net.clone(), CLIENT_IP, SHIM_IP, 7);
    if script.report_outcomes {
        client = client.with_outcome_reports();
    }
    let mut results = Vec::new();
    for spec in &script.requests {
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        client.request(&mut s, spec.clone(), move |_s, r| *g.borrow_mut() = Some(r));
        s.run_until(s.now() + SimDuration::from_secs(1));
        let result = got.borrow_mut().take().expect("sim request resolved within a second");
        results.push(result.map(|socks| socks.iter().map(|sock| sock.remote).collect()));
    }
    let counters = CLIENT_PATH_COUNTERS.iter().map(|name| s.telemetry.counter(name)).collect();
    let frames = canonical_frames(frames.take());
    ClientAnswer { frames, results, counters }
}

/// The live backend: `LiveSock` through a `FaultShim` to a `LiveWizard`.
fn live_client(script: &ClientScript) -> ClientAnswer {
    let (clock, _hand) = Clock::manual();
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", clock).unwrap();
    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    for r in &script.reports {
        sender.send_to(r, wiz.addr()).unwrap();
    }
    for _ in 0..400 {
        if wiz.reports_ingested() >= script.reports.len() as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let shim = FaultShim::spawn(wiz.addr(), script.wire).unwrap();

    let mut results = Vec::new();
    let mut counters = vec![0u64; CLIENT_PATH_COUNTERS.len()];
    for spec in &script.requests {
        let mut sock = LiveSock::bind(shim.addr()).unwrap();
        *sock.telemetry() = Some(Telemetry::new());
        let (result, tel) = match sock.request_spec(spec.clone()).unwrap().wait() {
            Ok(mut connected) => {
                let offered = connected.servers().to_vec();
                let refuses = |ep: &Endpoint| script.dead.contains(&ep.ip);
                for ep in offered.iter().filter(|_| script.report_outcomes) {
                    let outcome = if refuses(ep) {
                        OutcomeKind::ConnectFailed
                    } else {
                        OutcomeKind::Completed
                    };
                    connected.report_outcome(ep.ip, outcome).unwrap();
                }
                let up = offered.into_iter().filter(|ep| !refuses(ep)).collect();
                (Ok(up), connected.telemetry().take())
            }
            Err((mut sock, RequestError::Failed(e))) => (Err(e), sock.telemetry().take()),
            Err((_, e)) => panic!("live request failed outside the protocol: {e}"),
        };
        results.push(result);
        let tel = tel.expect("the socket was traced");
        for (sum, name) in counters.iter_mut().zip(CLIENT_PATH_COUNTERS) {
            *sum += tel.counter(name);
        }
    }
    // The shim logs in arrival order: once a marker sent after the last
    // request resolved is in the log, so is everything the clients sent.
    // (The daemon skips it as an undecodable stats query.)
    let marker = b"SSQ1 end of script";
    sender.send_to(marker, shim.addr()).unwrap();
    let mut frames = shim.requests();
    for _ in 0..400 {
        if frames.last().is_some_and(|frame| frame == marker) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        frames = shim.requests();
    }
    assert_eq!(frames.pop().as_deref(), Some(&marker[..]), "the shim never saw the marker");
    let frames = canonical_frames(frames);
    drop(shim);
    let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
    for (sum, name) in counters.iter_mut().zip(CLIENT_PATH_COUNTERS) {
        *sum += trace.counters.get(name).copied().unwrap_or(0);
    }
    ClientAnswer { frames, results, counters }
}

fn three_idle_servers() -> Vec<Vec<u8>> {
    (1..=3).map(|i| report_bytes(&format!("pool{i}"), i, 0.95)).collect()
}

fn spec_ms(servers: u16, timeout_ms: u64) -> RequestSpec {
    RequestSpec {
        timeout: SimDuration::from_millis(timeout_ms),
        ..RequestSpec::new("host_cpu_free > 0.9\n", servers)
    }
}

fn pool(last_octets: &[u8]) -> Vec<Endpoint> {
    last_octets.iter().map(|&i| Endpoint::new(Ip::new(10, 0, 9, i), ports::SERVICE)).collect()
}

fn counter(answer: &ClientAnswer, name: &str) -> u64 {
    let at = CLIENT_PATH_COUNTERS.iter().position(|n| *n == name).expect("a compared counter");
    answer.counters[at]
}

// ---------------------------------------------------------------------
// Scenario 7: the first request frame is lost; the retry — the same frame,
// the same sequence number — recovers.
// ---------------------------------------------------------------------
#[test]
fn a_dropped_request_is_retried_identically_by_both_clients() {
    let script = ClientScript {
        reports: three_idle_servers(),
        requests: vec![spec_ms(2, 100)],
        wire: ShimPolicy { drop_requests: 1, drop_replies: 0 },
        dead: Vec::new(),
        report_outcomes: false,
    };
    let (sim, live) = (sim_client(&script), live_client(&script));
    assert_eq!(sim, live, "frames, resolution or client counters differ between backends");
    assert_eq!(live.frames.len(), 2);
    assert_eq!(live.frames[0], live.frames[1], "the retransmission is the identical frame");
    assert_eq!(live.results, [Ok(pool(&[1, 2]))]);
    assert_eq!(counter(&live, "client-retries"), 1);
}

// ---------------------------------------------------------------------
// Scenario 8: a silent wizard and a deadline shorter than the retry
// ladder — both clients stop at the deadline, mid-ladder.
// ---------------------------------------------------------------------
#[test]
fn a_deadline_shorter_than_the_ladder_ends_both_clients_identically() {
    let script = ClientScript {
        reports: Vec::new(),
        requests: vec![spec_ms(1, 50).with_deadline(SimDuration::from_millis(80))],
        wire: ShimPolicy { drop_requests: u32::MAX, drop_replies: 0 },
        dead: Vec::new(),
        report_outcomes: false,
    };
    let (sim, live) = (sim_client(&script), live_client(&script));
    assert_eq!(sim, live, "frames, resolution or client counters differ between backends");
    assert_eq!(live.results, [Err(ClientError::DeadlineExceeded)]);
    assert_eq!(live.frames.len(), 2, "one retry fit inside the budget");
    assert_eq!(counter(&live, "client-deadline-exceeded"), 1);
    assert_eq!(counter(&live, "client-timeouts"), 0);
}

// ---------------------------------------------------------------------
// Scenario 9: the reply to the primary is lost; the hedge goes out under a
// fresh sequence number and wins.
// ---------------------------------------------------------------------
#[test]
fn a_hedge_rescues_a_lost_reply_identically_in_both_clients() {
    let script = ClientScript {
        reports: three_idle_servers(),
        requests: vec![spec_ms(3, 400).with_hedge(SimDuration::from_millis(40))],
        wire: ShimPolicy { drop_requests: 0, drop_replies: 1 },
        dead: Vec::new(),
        report_outcomes: false,
    };
    let (sim, live) = (sim_client(&script), live_client(&script));
    assert_eq!(sim, live, "frames, resolution or client counters differ between backends");
    assert_eq!(live.frames.len(), 2);
    assert_ne!(live.frames[0][..4], live.frames[1][..4], "the hedge has its own sequence number");
    assert_eq!(live.frames[0][4..], live.frames[1][4..], "and is otherwise the same request");
    assert_eq!(live.results, [Ok(pool(&[1, 2, 3]))]);
    assert_eq!(counter(&live, "client-hedges-won"), 1);
    assert_eq!(counter(&live, "client-retries"), 0);
}

// ---------------------------------------------------------------------
// Scenario 10: the self-healing loop, end to end on both backends — a
// server that refuses connects is reported, quarantined after the second
// failure, and missing from the third reply.
// ---------------------------------------------------------------------
#[test]
fn connect_failures_reported_by_either_client_quarantine_the_server() {
    let flaky = Ip::new(10, 0, 9, 2);
    let script = ClientScript {
        reports: three_idle_servers(),
        requests: vec![spec_ms(3, 200); 3],
        wire: ShimPolicy::default(),
        dead: vec![flaky],
        report_outcomes: true,
    };
    let (sim, live) = (sim_client(&script), live_client(&script));
    assert_eq!(sim, live, "frames, resolution or client counters differ between backends");
    assert_eq!(live.results, vec![Ok(pool(&[1, 3])); 3], "the refusing server is skipped");
    assert_eq!(counter(&live, "health-quarantines"), 1);
    // Three servers offered twice, then the quarantined one is left out.
    assert_eq!(counter(&live, "wizard-reply-servers"), 3 + 3 + 2);
    assert_eq!(counter(&live, "client-outcome-reports"), 3 + 3 + 2);
}

// ---------------------------------------------------------------------
// Scenario 11: one port, one demux — outcome reports, stats polls and a
// malformed 7-byte datagram reach port 1120 of both wizards, among the
// reports; each backend tells them apart as the other does, and answers
// the poll quoting the same counters.
// ---------------------------------------------------------------------

/// The counters each kind of datagram on the wizard's port moves.
const DEMUX_COUNTERS: [&str; 7] = [
    "sysmon-reports",
    "wizard-requests",
    "wizard-bad-requests",
    "wizard-outcome-reports",
    "wizard-stats-requests",
    "health-quarantines",
    "health-probations",
];

#[test]
fn every_kind_of_datagram_on_the_wizard_port_is_told_apart_alike() {
    let failed =
        OutcomeReport { server: Ip::new(10, 0, 9, 2), outcome: OutcomeKind::ConnectFailed };
    let failed = failed.encode().to_vec();
    let mut malformed = failed.clone();
    malformed[4] = 9; // no such outcome kind
    let mut datagrams = three_idle_servers();
    datagrams.extend([failed.clone(), failed, malformed, b"SSQ1 no poll".to_vec()]);
    let poll = StatsRequest { seq: 1 }.encode().to_vec();
    let request = request_bytes(0xA1A1_0011, 5, "");

    // The simulated network does not keep datagrams sent in one instant in
    // order, so the poll follows the rest a second later.
    let (sim_frames, s) = sim_run(&datagrams, 1, &[&poll, &request]);
    let sim_counters: Vec<u64> = DEMUX_COUNTERS.iter().map(|n| s.telemetry.counter(n)).collect();

    let (clock, _hand) = Clock::manual();
    let wiz = LiveWizard::spawn_with("127.0.0.1:0", clock).unwrap();
    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    sender.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    // Loopback keeps one sender's datagrams in order: the poll's answer
    // tells the sender that the daemon has handled every datagram before it.
    for d in datagrams.iter().chain([&poll]) {
        sender.send_to(d, wiz.addr()).unwrap();
    }
    let mut buf = [0u8; 65536];
    let (n, _) = sender.recv_from(&mut buf).expect("the live daemon answers a stats poll");
    let live_poll = buf[..n].to_vec();
    sender.send_to(&request, wiz.addr()).unwrap();
    let (n, _) = sender.recv_from(&mut buf).expect("the live daemon answers the request");
    let live_reply = buf[..n].to_vec();
    let trace = Trace::parse(&wiz.shutdown().unwrap().trace_jsonl);
    let live_counters: Vec<u64> =
        DEMUX_COUNTERS.iter().map(|n| trace.counters.get(*n).copied().unwrap_or(0)).collect();

    let [sim_poll, sim_reply]: [Vec<u8>; 2] =
        sim_frames.try_into().expect("the sim wizard answers the poll and the request");
    assert_eq!(sim_reply, live_reply, "the request is answered byte for byte alike");
    // Each poll's answer quotes its daemon's own summary lines, which hold
    // more than the wizard's counters; those must agree.
    let quoted = |frame: &[u8]| {
        let answer = StatsReply::decode(frame).unwrap();
        assert_eq!(answer.seq, 1);
        let counters = Trace::parse(&answer.lines).counters;
        DEMUX_COUNTERS.map(|n| counters.get(n).copied().unwrap_or(0))
    };
    let at_poll = quoted(&sim_poll);
    assert_eq!(at_poll, quoted(&live_poll), "the backends' polls quote different counters");
    // Three reports, the malformed 7-byte datagram, two outcome reports,
    // two polls (the valid one counted in its own answer) and a quarantine;
    // the request comes after the poll.
    assert_eq!(at_poll, [3, 0, 1, 2, 2, 1, 0]);
    assert_eq!(sim_counters, live_counters, "the backends told the datagrams apart differently");
    assert_eq!(sim_counters, [3, 1, 1, 2, 2, 1, 0]);
    let reply = WizardReply::decode(&sim_reply).unwrap();
    assert_eq!(
        server_ips(&reply),
        vec![Ip::new(10, 0, 9, 1), Ip::new(10, 0, 9, 3)],
        "the quarantined server is not offered"
    );
}
