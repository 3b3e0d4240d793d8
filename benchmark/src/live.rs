//! The live workloads: one daemon thread under test, one load-generator
//! thread (the caller's), real UDP over the host's loopback interface.
//!
//! Everything the program receives is a generated datagram; everything
//! it does is reached through `LiveWizard` / `LiveSock` (the measured
//! runs) or through `WizardEngine` + `UdpTransport` + `Telemetry` (the
//! traced replay, which rebuilds `LiveWizard`'s serve loop out of public
//! calls so that a span can sit around each step).

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smartsock_live::{endpoint_of, Clock, LiveSock, LiveWizard, UdpTransport};
use smartsock_proto::typestate::Requested;
use smartsock_proto::{Endpoint, ServerStatusReport, Transport, TransportError, UserRequest};
use smartsock_sim::SimTime;
use smartsock_telemetry::{AccumSink, RollupSink, TeeSink, Telemetry};
use smartsock_wizard::{Ingest, SelectPolicy, WizardEngine};

use crate::inputs::{Fleet, LiveInputs};
use crate::procstat;
use crate::spans::{Recorder, Span, SpanId};

/// Requests kept in flight by the closed loop. The issue sized this at
/// two, with the generator blocking in `await_reply`; on the 2-vCPU VM
/// this was built on, that pair flips between two scheduler placements
/// from run to run (both threads parked on one vCPU by wake-affine:
/// 40k requests/s; one vCPU each with a cross-CPU wake-up per message:
/// 22k requests/s) — a 45 % swing that no code change caused. Wake-ups
/// are therefore kept out of the measurement: the generator never sleeps
/// (it spins on the daemon's public `requests_served()` counter and only
/// then collects the reply, so it holds one vCPU and the daemon gets the
/// other), and four requests are kept queued so the daemon never sleeps
/// either. What is left is the daemon's service time per request, which
/// is what a change to the program moves.
const IN_FLIGHT: usize = 4;
/// The paper's probe interval: every host reports once per cadence.
const REPORT_CADENCE: Duration = Duration::from_secs(2);
/// Most overdue reports the paced reporter sends in one go. A longer
/// catch-up burst overflows the default 208 KiB socket buffer and drops
/// the request queued behind it.
const BURST_CAP: usize = 32;
/// Most reports sent but not yet counted by `reports_ingested()`.
const INGEST_WINDOW: u64 = 64;
/// On the ingest workload every this-many-th operation is a request
/// checked against the expected reply.
const FENCE_EVERY: u64 = 1000;
const REPLY_TIMEOUT: Duration = Duration::from_millis(500);
/// A reporter later than this lets rows age into another freshness tier
/// (3 s), which changes the expected reply: the run is invalid.
pub const MAX_LATE: Duration = Duration::from_secs(1);
/// How long a sent report may stay uncounted before it is called lost.
const ACK_DEADLINE: Duration = Duration::from_secs(2);

/// What the closed loop drives: a request-heavy or a report-heavy mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Closed-loop requests, `IN_FLIGHT` at a time, beside reports paced
    /// at the 2 s cadence.
    Request,
    /// Reports back to back (at most 64 unacknowledged), with a fence
    /// request every 1000th operation.
    Ingest,
}

#[derive(Clone, Copy, Debug)]
pub struct LiveWorkload {
    pub fleet: Fleet,
    pub mix: Mix,
}

/// Warm-up, then `trials` equal trials.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: Duration,
    pub trial: Duration,
    pub trials: usize,
}

/// The daemon side the load generator needs: where to send, and the
/// acknowledgement counter.
pub trait Target {
    fn addr(&self) -> SocketAddr;
    fn reports_ingested(&self) -> u64;
    fn requests_served(&self) -> u64;
}

impl Target for LiveWizard {
    fn addr(&self) -> SocketAddr {
        LiveWizard::addr(self)
    }
    fn reports_ingested(&self) -> u64 {
        LiveWizard::reports_ingested(self)
    }
    fn requests_served(&self) -> u64 {
        LiveWizard::requests_served(self)
    }
}

/// What one measured run of the loop produced.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Latencies (µs) of the operations completed in each trial.
    pub trial_latencies_us: Vec<Vec<f64>>,
    pub trial_secs: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// How late the paced reporter ran at worst (0 on the ingest mix,
    /// which has no schedule to be late against).
    pub late_max: Duration,
    /// Process CPU seconds spent during the trials (daemon + generator).
    pub cpu_s: Option<f64>,
}

struct Trials {
    from: Instant,
    trial: Duration,
    latencies_us: Vec<Vec<f64>>,
    cpu_at_start: Option<f64>,
    started: bool,
}

impl Trials {
    fn new(begin: Instant, plan: &Plan) -> Trials {
        Trials {
            from: begin + plan.warmup,
            trial: plan.trial,
            latencies_us: vec![Vec::new(); plan.trials.max(1)],
            cpu_at_start: None,
            started: false,
        }
    }

    fn end(&self) -> Instant {
        self.from + self.trial * u32::try_from(self.latencies_us.len()).unwrap_or(u32::MAX)
    }

    /// File a completed operation under the trial it completed in;
    /// warm-up completions are dropped, the drain after the last trial
    /// counts into the last.
    fn record(&mut self, done: Instant, latency: Duration) {
        if done < self.from {
            return;
        }
        if !self.started {
            self.started = true;
            self.cpu_at_start = procstat::cpu_seconds();
        }
        let index = (done - self.from).as_nanos() / self.trial.as_nanos().max(1);
        let last = self.latencies_us.len() - 1;
        let index = usize::try_from(index).unwrap_or(last).min(last);
        if let Some(t) = self.latencies_us.get_mut(index) {
            t.push(latency.as_secs_f64() * 1e6);
        }
    }
}

struct InFlight {
    sock: LiveSock<Requested>,
    t0: Instant,
    case: usize,
    root: SpanId,
    seq: u32,
    /// `requests_served()` reaches this once the reply has been sent.
    served_at: u64,
}

/// The paced reporter's schedule: report `k` is due at `start + k·gap`,
/// hosts round-robin, so each host reports once per cadence.
struct Pacer {
    start: Instant,
    gap_ns: u64,
    next: u64,
    late_max: Duration,
}

impl Pacer {
    fn due(&self) -> Instant {
        self.start + Duration::from_nanos(self.gap_ns.saturating_mul(self.next))
    }
}

/// The load generator. Lives on the calling thread.
pub struct LoadGen<'a> {
    target: &'a dyn Target,
    addr: SocketAddr,
    inputs: &'a LiveInputs,
    report_sock: UdpSocket,
    rec: Recorder,
    next_seq: u32,
    next_case: usize,
    reports_sent: u64,
    /// Requests issued, on top of what the daemon had served at the start.
    requests_issued: u64,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl<'a> LoadGen<'a> {
    pub fn new(
        target: &'a dyn Target,
        inputs: &'a LiveInputs,
        seed: u64,
        rec: Recorder,
    ) -> io::Result<LoadGen<'a>> {
        Ok(LoadGen {
            target,
            addr: target.addr(),
            inputs,
            report_sock: UdpSocket::bind("127.0.0.1:0")?,
            rec,
            // Table 3.5's "random tag": seeded, and never 0 (0 marks
            // spans that belong to no request).
            next_seq: (smartsock_sim::rng::splitmix64(seed) as u32) | 1,
            next_case: 0,
            reports_sent: 0,
            requests_issued: target.requests_served(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        })
    }

    /// The client-thread spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.rec.into_spans()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    fn send_report(&mut self) -> io::Result<()> {
        let n = self.inputs.datagrams.len() as u64;
        let datagram = &self.inputs.datagrams[(self.reports_sent % n) as usize];
        self.report_sock.send_to(datagram, self.addr)?;
        self.reports_sent += 1;
        Ok(())
    }

    /// Fill the status DB: every host reports once, windowed on the
    /// acknowledgement counter, and the call returns once all are in.
    pub fn fill(&mut self) -> io::Result<()> {
        let base = self.target.reports_ingested();
        let sent_before = self.reports_sent;
        for _ in 0..self.inputs.datagrams.len() {
            self.wait_for_window(base, sent_before, INGEST_WINDOW)?;
            self.send_report()?;
        }
        self.wait_for_window(base, sent_before, 1)
    }

    /// Spin until fewer than `window` of the reports sent since
    /// `sent_before` are unacknowledged. Spinning (not sleeping) is
    /// deliberate: the generator has a vCPU of its own and the
    /// acknowledgement arrives within microseconds.
    fn wait_for_window(&self, base: u64, sent_before: u64, window: u64) -> io::Result<()> {
        let sent = self.reports_sent - sent_before;
        let started = Instant::now();
        let mut spins = 0u32;
        while sent - (self.target.reports_ingested() - base).min(sent) >= window {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins % 1024 == 0 {
                std::thread::yield_now();
                if started.elapsed() > ACK_DEADLINE {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "{} of {sent} reports never counted by reports_ingested()",
                            sent - (self.target.reports_ingested() - base).min(sent)
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn issue(&mut self) -> io::Result<InFlight> {
        let case = self.next_case;
        self.next_case = (case + 1) % self.inputs.requests.len();
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(2); // stays odd, hence non-zero
        let request: UserRequest = self.inputs.requests[case].request(seq);
        let t0 = Instant::now();
        let root = self.rec.open("request", SpanId::NONE, seq);
        let s = self.rec.open("live.bind", root, seq);
        let sock = LiveSock::bind(self.addr)?;
        self.rec.close(s);
        let s = self.rec.open("live.request", root, seq);
        let sock = sock.request(request)?;
        self.rec.close(s);
        self.requests_issued += 1;
        Ok(InFlight { sock, t0, case, root, seq, served_at: self.requests_issued })
    }

    /// Await one request and check its reply; returns when it completed
    /// and how long it took since just before its `bind`.
    fn complete(&mut self, f: InFlight) -> (Instant, Duration) {
        // Wait by spinning on the daemon's served counter, so that the
        // reply is already queued when `await_reply` looks and this
        // thread never sleeps (see `IN_FLIGHT`).
        let s = self.rec.open("loadgen.spin", f.root, f.seq);
        let mut spins = 0u32;
        while self.target.requests_served() < f.served_at {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins % 4096 == 0 && f.t0.elapsed() > REPLY_TIMEOUT {
                break; // lost: let `await_reply` time out and say so
            }
        }
        self.rec.close(s);
        let s = self.rec.open("live.await_reply", f.root, f.seq);
        let result = f.sock.await_reply(REPLY_TIMEOUT, 0);
        let done = Instant::now();
        self.rec.close(s);
        self.rec.close(f.root);
        self.attempted += 1;
        match result {
            Ok(connected) => {
                let expected: &[Endpoint] = &self.inputs.requests[f.case].expected;
                if connected.servers() != expected {
                    let got = connected.servers().to_vec();
                    self.fail(format!("request seq {} got {got:?}, expected {expected:?}", f.seq));
                }
            }
            Err((_sock, e)) => self.fail(format!("request seq {}: {e}", f.seq)),
        }
        (done, done - f.t0)
    }

    fn pace(&mut self, pacer: &mut Pacer) -> io::Result<()> {
        let now = Instant::now();
        for _ in 0..BURST_CAP {
            let due = pacer.due();
            if due > now {
                break;
            }
            self.send_report()?;
            pacer.late_max = pacer.late_max.max(now - due);
            pacer.next += 1;
        }
        Ok(())
    }

    fn outcome(&mut self, trials: Trials, late_max: Duration) -> RunOutcome {
        RunOutcome {
            trial_latencies_us: trials.latencies_us,
            trial_secs: trials.trial.as_secs_f64(),
            attempted: std::mem::take(&mut self.attempted),
            failed: std::mem::take(&mut self.failed),
            first_failure: self.first_failure.take(),
            late_max,
            cpu_s: procstat::cpu_seconds_since(trials.cpu_at_start),
        }
    }

    pub fn run(&mut self, mix: Mix, plan: &Plan) -> io::Result<RunOutcome> {
        match mix {
            Mix::Request => self.run_requests(plan),
            Mix::Ingest => self.run_ingest(plan),
        }
    }

    /// Closed loop, `IN_FLIGHT` requests in flight (the next is issued
    /// before the oldest is collected), beside the paced reporter.
    fn run_requests(&mut self, plan: &Plan) -> io::Result<RunOutcome> {
        let begin = Instant::now();
        let mut trials = Trials::new(begin, plan);
        let end = trials.end();
        let hosts = self.inputs.datagrams.len() as u64;
        let mut pacer = Pacer {
            start: begin,
            gap_ns: u64::try_from(REPORT_CADENCE.as_nanos()).unwrap_or(u64::MAX) / hosts.max(1),
            next: 0,
            late_max: Duration::ZERO,
        };
        let mut pending: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
        let base = self.target.reports_ingested();
        let sent_before = self.reports_sent;
        loop {
            self.pace(&mut pacer)?;
            if Instant::now() < end {
                while pending.len() < IN_FLIGHT {
                    let f = self.issue()?;
                    pending.push_back(f);
                }
            }
            let Some(f) = pending.pop_front() else { break };
            let (done, latency) = self.complete(f);
            trials.record(done, latency);
        }
        // Lossless-ingest equality: every paced report must be counted.
        if let Err(e) = self.wait_for_window(base, sent_before, 1) {
            self.attempted += 1;
            self.fail(e.to_string());
        }
        Ok(self.outcome(trials, pacer.late_max))
    }

    /// Reports back to back, round-robin over the hosts, at most 64
    /// unacknowledged. An operation is a report (latency: send →
    /// counted by `reports_ingested()`) or, every 1000th, a fence
    /// request (latency: bind → decoded reply).
    fn run_ingest(&mut self, plan: &Plan) -> io::Result<RunOutcome> {
        let begin = Instant::now();
        let mut trials = Trials::new(begin, plan);
        let end = trials.end();
        let base = self.target.reports_ingested();
        let sent_before = self.reports_sent;
        let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(INGEST_WINDOW as usize + 1);
        let mut acked = 0u64;
        let mut ops = 0u64;
        loop {
            let now = Instant::now();
            // Retire every report the daemon has counted since last look.
            let counted = self.target.reports_ingested() - base;
            while acked < counted {
                let Some(at) = sent_at.pop_front() else { break };
                acked += 1;
                self.attempted += 1;
                trials.record(now, now - at);
            }
            if now >= end {
                break;
            }
            if (self.reports_sent - sent_before) - acked >= INGEST_WINDOW {
                std::hint::spin_loop();
                continue;
            }
            ops += 1;
            if ops % FENCE_EVERY == 0 {
                let f = self.issue()?;
                let (done, latency) = self.complete(f);
                trials.record(done, latency);
            } else {
                self.send_report()?;
                sent_at.push_back(Instant::now());
            }
        }
        // Lossless-ingest equality: every report sent must be counted.
        if let Err(e) = self.wait_for_window(base, sent_before, 1) {
            for _ in 0..sent_at.len() {
                self.attempted += 1;
                self.fail(e.to_string());
            }
        } else {
            let now = Instant::now();
            for at in sent_at.drain(..) {
                self.attempted += 1;
                trials.record(now, now - at);
            }
        }
        Ok(self.outcome(trials, Duration::ZERO))
    }
}

// ----------------------------------------------------------------------
// The traced replay daemon
// ----------------------------------------------------------------------

/// `UdpTransport` with a span around the send, so the reply's syscall is
/// separated from the rest of `WizardEngine::handle`.
struct TracedTransport<'a, 'r> {
    inner: UdpTransport<'a>,
    rec: &'r mut Recorder,
    parent: SpanId,
    seq: u32,
}

impl Transport for TracedTransport<'_, '_> {
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn send(&mut self, from: Endpoint, to: Endpoint, payload: &[u8]) -> Result<(), TransportError> {
        let s = self.rec.open("live.udp_send", self.parent, self.seq);
        let result = self.inner.send(from, to, payload);
        self.rec.close(s);
        result
    }
}

/// A single-threaded daemon loop owned by the benchmark and made only of
/// public calls, in `LiveWizard`'s order: `recv_from` → clock read →
/// `WizardEngine::sweep` → `wizard-match` span start → `handle` over
/// `UdpTransport` → span end and the counter bumps. (The 5-second
/// heartbeat and the `smartsockd stats` side channel are left out; the
/// load generator sends neither, and the replay's untraced throughput is
/// compared with `LiveWizard`'s before its trace is trusted.)
pub struct ReplayDaemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reports: Arc<AtomicU64>,
    served: Arc<AtomicU64>,
    handle: Option<JoinHandle<io::Result<Vec<Span>>>>,
}

impl Target for ReplayDaemon {
    fn addr(&self) -> SocketAddr {
        self.addr
    }
    fn reports_ingested(&self) -> u64 {
        self.reports.load(Ordering::SeqCst)
    }
    fn requests_served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }
}

impl ReplayDaemon {
    pub fn spawn(rec: Recorder) -> io::Result<ReplayDaemon> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        let addr = sock.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reports = Arc::new(AtomicU64::new(0));
        let served = Arc::new(AtomicU64::new(0));
        let (stop_t, reports_t, served_t) =
            (Arc::clone(&stop), Arc::clone(&reports), Arc::clone(&served));
        let handle =
            std::thread::spawn(move || replay_loop(sock, rec, &stop_t, &reports_t, &served_t));
        Ok(ReplayDaemon { addr, stop, reports, served, handle: Some(handle) })
    }

    /// Stop the loop (woken by an empty datagram, as `LiveWizard` is) and
    /// collect the daemon-thread spans.
    pub fn shutdown(mut self) -> io::Result<Vec<Span>> {
        self.stop.store(true, Ordering::SeqCst);
        UdpSocket::bind("127.0.0.1:0")?.send_to(&[], self.addr)?;
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| io::Error::other("replay daemon panicked"))?,
            None => Ok(Vec::new()),
        }
    }
}

fn replay_loop(
    sock: UdpSocket,
    mut rec: Recorder,
    stop: &AtomicBool,
    reports: &AtomicU64,
    served: &AtomicU64,
) -> io::Result<Vec<Span>> {
    let local = endpoint_of(sock.local_addr()?)
        .ok_or_else(|| io::Error::other("replay daemon requires an IPv4 bind address"))?;
    let mut engine = WizardEngine::new(local.ip, SelectPolicy::default());
    let clock = Clock::wall();
    let mut tel = Telemetry::with_sink(Box::new(TeeSink::new(
        Box::new(AccumSink::new()),
        Box::new(RollupSink::new()),
    )));
    let host = engine.endpoint().ip.to_string();
    let mut buf = [0u8; 4096];
    loop {
        let s_recv = rec.open("live.recv_from", SpanId::NONE, 0);
        let (n, from) = sock.recv_from(&mut buf)?;
        rec.close(s_recv);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Some(payload) = buf.get(..n) else { continue };
        let Some(from_ep) = endpoint_of(from) else { continue };
        let is_report = payload.starts_with(ServerStatusReport::ASCII_MAGIC.as_bytes());
        // A request's first four bytes are its `seq` (Table 3.5).
        let seq = match (is_report, payload.get(..4)) {
            (false, Some(&[a, b, c, d])) => u32::from_le_bytes([a, b, c, d]),
            _ => 0,
        };
        rec.set_seq(s_recv, seq);
        let root = rec.open("daemon.datagram", SpanId::NONE, seq);

        let now = clock.now_ns();
        tel.set_now(now);
        let s = rec.open("wizard.sweep", root, seq);
        let evicted = engine.sweep(SimTime(now));
        rec.close(s);
        if !evicted.is_empty() {
            tel.counter_add("wizard-stale-evictions", evicted.len() as u64);
        }

        let s = rec.open("telemetry.span_start", root, seq);
        let span = if is_report { None } else { Some(tel.span_start("wizard-match", &host)) };
        rec.close(s);

        let s = rec.open("wizard.handle", root, seq);
        let outcome = {
            let mut t = TracedTransport {
                inner: UdpTransport::new(&sock, &clock),
                rec: &mut rec,
                parent: s,
                seq,
            };
            engine.handle(&mut t, from_ep, payload)
        };
        rec.close(s);

        let s = rec.open("telemetry.record", root, seq);
        if let Some(span) = span {
            tel.span_end(span);
        }
        match outcome {
            Ok(Ingest::Report(_)) => {
                tel.counter_incr("sysmon-reports");
                tel.counter_add("sysmon-bytes", n as u64);
                reports.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Ingest::BadReport(_)) => tel.counter_incr("sysmon-bad-reports"),
            Ok(Ingest::Replied { reply, to: _ }) => {
                tel.counter_incr("wizard-requests");
                tel.counter_incr("wizard-replies");
                tel.counter_add("wizard-reply-servers", reply.servers.len() as u64);
                served.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Ingest::BadRequest) => tel.counter_incr("wizard-bad-requests"),
            Err(_) => tel.counter_incr("wizard-reply-send-errors"),
        }
        rec.close(s);
        rec.close(root);
    }
    Ok(rec.into_spans())
}
