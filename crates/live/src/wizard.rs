//! The combined monitor+wizard daemon on a real UDP socket.
//!
//! One background thread owns a [`WizardEngine`] — the one wizard the
//! simulated daemon also drives — and the [`Telemetry`] the engine
//! records into, so `telemetry summary` reads a live trace exactly like a
//! simulated one. `serve` is transport glue around
//! [`WizardEngine::step`]: per datagram it reads the clock once, steps a
//! sweep tick and then the datagram, and sends the frame that comes back
//! (a reply, or a stats reply quoting the summary lines the trace will end
//! with). What is left here is what only a real daemon has: the socket,
//! the clock, the heartbeat and the side-channel atomics.
//!
//! The receive loop polls a few times, then blocks in `recv_from` with
//! **no read timeout**: a stopped daemon is woken by one empty datagram to
//! its own port (the classic self-pipe trick, in UDP), so shutdown is
//! prompt and the idle daemon costs zero CPU.

use std::fs::File;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use smartsock_sim::SimTime;
use smartsock_telemetry::{AccumSink, Sink, StreamSink, Telemetry};
use smartsock_wizard::{Input, SelectPolicy, Stepped, WizardEngine};

use crate::clock::Clock;
use crate::transport::{endpoint_of, sockaddr_of};

/// How often the daemon self-reports (a `daemon-heartbeat` event with
/// own-process procfs gauges). Checked opportunistically on every inbound
/// datagram — no timer thread; an idle daemon polls [`SPIN_POLLS`] times,
/// blocks and emits no heartbeats, so it costs no CPU. The first datagram
/// after the interval elapses carries the beat, and a `smartsockd stats`
/// query is itself a datagram, so polling the daemon also freshens it.
const HEARTBEAT_INTERVAL_NS: u64 = 5_000_000_000;

/// Empty non-blocking receives the daemon tries before it blocks, so a
/// daemon just ahead of its sender does not sleep after every report and
/// pay a cross-CPU wake-up for the next. An empty poll costs ≈ 0.25 µs on
/// a 2-vCPU x86-64 Xeon, so 4 spin ≈ 1 µs: the fewest that held
/// `live-fleet1k-ingest`'s `op_p50_us` at ≈ 3.7 µs (from ≈ 7.5 µs) in every
/// run; 2 flickered, 1 gave ≈ 5.3 µs. Counted in polls: no clock read.
const SPIN_POLLS: u32 = 4;

/// Line-buffer capacity of the streaming trace sink (bytes).
const STREAM_CAP: usize = 4096;

/// Records the default in-memory trace keeps: a flight recorder of the
/// newest 2048 to 4096 (two a request), so a long-running daemon's memory
/// does not grow with the requests it served; the summary lines count
/// every request. On `live-fleet1k-request` (2-vCPU x86-64 Xeon, 10 s
/// runs) caps of 1024, 4096 and 16384 read alike, so this keeps a
/// thousand requests of history in ≈ 300 KiB, a quarter of what 16384
/// would put in the 2 MiB per-core L2 beside the status database.
const TRACE_RING: usize = 4096;

/// Receive buffer size: 64 KiB holds the largest UDP payload, so no
/// datagram is cut. A request's requirement is the rest of its datagram;
/// a cut one would be answered as if it ended at the cut.
pub(crate) const MAX_DATAGRAM: usize = 65_536;

/// What a stopped daemon hands back.
#[derive(Clone, Debug)]
pub struct WizardStats {
    /// User requests answered.
    pub served: u64,
    /// Probe reports ingested.
    pub reports: u64,
    /// Telemetry records dropped: the oldest ones the default in-memory
    /// ring evicted, or every record a streaming sink whose file write
    /// failed could not persist.
    pub dropped: u64,
    /// The JSONL telemetry trace — same schema as the simulator's
    /// `Telemetry::export_jsonl`, consumable by the `telemetry` binary.
    /// From the default sink: the newest records under their global
    /// sequence numbers, then (once any were evicted) a `"kind":"ring"`
    /// trailer and the summary lines, which count every record.
    /// When the daemon streams its trace to a file instead, this holds
    /// only the summary lines (counters/gauges/hists); the records are in
    /// the streamed file.
    pub trace_jsonl: String,
}

/// A monitor+wizard daemon on a background thread.
pub struct LiveWizard {
    addr: SocketAddr,
    shared: Shared,
    handle: Option<JoinHandle<io::Result<WizardStats>>>,
}

impl LiveWizard {
    /// Bind an ephemeral loopback port and start serving with wall-clock
    /// time.
    pub fn spawn() -> io::Result<LiveWizard> {
        Self::spawn_with("127.0.0.1:0", Clock::wall())
    }

    /// Bind `addr` and serve with the default staleness/ranking policy on
    /// `clock`. A [`Clock::manual`] here lets tests replay time-dependent
    /// scenarios deterministically.
    ///
    /// The trace's newest records stay in memory and are returned by
    /// [`LiveWizard::shutdown`].
    pub fn spawn_with(addr: &str, clock: Clock) -> io::Result<LiveWizard> {
        Self::spawn_sink(addr, clock, None)
    }

    /// Like [`LiveWizard::spawn_with`], but stream the trace to `trace`
    /// incrementally instead of accumulating it: records hit the file as
    /// they happen (backpressure policy: a failed write drops records and
    /// counts them, never blocking the serve loop). Live stats queries
    /// read the summary lines, which stay in memory either way.
    pub fn spawn_streaming(addr: &str, clock: Clock, trace: &Path) -> io::Result<LiveWizard> {
        // Created here, so a bad path fails the caller, not the daemon.
        let file = File::create(trace).map_err(|e| {
            io::Error::new(e.kind(), format!("cannot create trace {}: {e}", trace.display()))
        })?;
        Self::spawn_sink(addr, clock, Some(file))
    }

    fn spawn_sink(addr: &str, clock: Clock, trace: Option<File>) -> io::Result<LiveWizard> {
        let sock = UdpSocket::bind(addr)?;
        let addr = sock.local_addr()?;
        let ip = endpoint_of(addr)
            .ok_or_else(|| io::Error::other("live wizard requires an IPv4 bind address"))?
            .ip;
        let engine = WizardEngine::new(ip, SelectPolicy::default());
        let shared = Shared::default();
        let theirs = shared.clone();
        sock.set_nonblocking(true)?;
        let handle = std::thread::Builder::new()
            .name("smartsock-wizard".into())
            .spawn(move || serve(sock, engine, clock, theirs, trace))?;
        Ok(LiveWizard { addr, shared, handle: Some(handle) })
    }

    /// Where probes report and clients ask.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of live server records (post the most recent sweep).
    pub fn live_servers(&self) -> usize {
        self.shared.records.load(Ordering::SeqCst) as usize
    }

    /// Probe reports ingested so far.
    pub fn reports_ingested(&self) -> u64 {
        self.shared.reports.load(Ordering::SeqCst)
    }

    /// User requests answered so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Stop the daemon promptly and collect its stats and trace.
    pub fn shutdown(mut self) -> io::Result<WizardStats> {
        let joined = self.stop().expect("invariant: only shutdown or drop stops the daemon");
        joined.map_err(|_| io::Error::other("wizard thread panicked"))?
    }

    /// Stop and join the daemon thread; `None` once it was.
    fn stop(&mut self) -> Option<thread::Result<io::Result<WizardStats>>> {
        self.shared.stop.store(true, Ordering::SeqCst);
        let handle = self.handle.take()?;
        wake(self.addr);
        Some(handle.join())
    }
}

impl Drop for LiveWizard {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Nudge a blocked `recv_from` with an empty datagram. Best-effort: if
/// the send fails the join below still completes once any datagram lands.
pub(crate) fn wake(addr: SocketAddr) {
    if let Ok(sock) = UdpSocket::bind("127.0.0.1:0") {
        let _ = sock.send_to(&[], addr);
    }
}

/// What the daemon thread and its [`LiveWizard`] handle both see.
#[derive(Clone, Default)]
struct Shared {
    stop: Arc<AtomicBool>,
    reports: Arc<AtomicU64>,
    served: Arc<AtomicU64>,
    records: Arc<AtomicU64>,
}

fn serve(
    sock: UdpSocket,
    mut engine: WizardEngine,
    clock: Clock,
    shared: Shared,
    trace: Option<File>,
) -> io::Result<WizardStats> {
    // Telemetry is single-owner by design (the sim hangs it on the
    // scheduler); here the daemon thread owns it and exports at shutdown.
    // Sinks are not `Send`, so it is built here, on the thread.
    let sink: Box<dyn Sink> = match trace {
        Some(file) => Box::new(StreamSink::new(Box::new(file), STREAM_CAP)),
        None => Box::new(AccumSink::ring(TRACE_RING)),
    };
    let mut tel = Telemetry::with_sink(sink);
    let host = engine.endpoint().ip.to_string();
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let mut last_heartbeat: Option<u64> = None;
    // The side channel callers poll while the daemon runs: a store only
    // when the row count moved, so most datagrams leave its line alone.
    let mut rows = 0;
    let mut publish_rows = |n: usize| {
        if n != rows {
            rows = n;
            shared.records.store(n as u64, Ordering::SeqCst);
        }
    };
    loop {
        let (n, from) = match recv(&sock, &mut buf) {
            Ok(x) => x,
            Err(e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                return Err(e);
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let (Some(bytes), Some(from)) = (buf.get(..n), endpoint_of(from)) else { continue };
        let now = clock.now_ns();
        tel.set_now(now);
        // Opportunistic stale sweep: every inbound datagram advances the
        // expiry horizon, with no timer thread (`select` skips stale rows
        // anyway). Affordable per datagram because the sweep only evicts
        // what each table's deadline set says is due (one comparison when
        // nothing is); a request tightens what reports overwrote.
        engine.step(SimTime(now), Input::Tick, &mut tel);
        let stepped = engine.step(SimTime(now), Input::Datagram { from, bytes }, &mut tel);
        // Row count before any reply leaves, and before the report that
        // moved it is counted: a caller that saw either reads a
        // `live_servers()` that includes it.
        publish_rows(engine.live_servers());
        match stepped {
            Stepped::Report => {
                shared.reports.fetch_add(1, Ordering::SeqCst);
            }
            Stepped::Reply(to, frame) => match sock.send_to(&frame, sockaddr_of(to)) {
                Ok(_) => {
                    shared.served.fetch_add(1, Ordering::SeqCst);
                }
                // The client's retry loop covers it, exactly as it covers
                // a datagram lost on the wire.
                Err(_) => tel.counter_incr("wizard-reply-send-errors"),
            },
            Stepped::Stats(to, frame) => {
                let _ = sock.send_to(&frame, sockaddr_of(to));
            }
            Stepped::Quiet => {}
        }
        // Sonar-style self-report: every so often the daemon describes
        // itself in its own trace, same schema a probe would send about it.
        if last_heartbeat.is_none_or(|at| now.saturating_sub(at) >= HEARTBEAT_INTERVAL_NS) {
            last_heartbeat = Some(now);
            heartbeat(&mut tel, &host, &shared);
        }
    }
    // Flush a streaming sink's buffer and write its summary tail before
    // snapshotting the trace for the caller.
    tel.finish();
    Ok(WizardStats {
        served: shared.served.load(Ordering::SeqCst),
        reports: shared.reports.load(Ordering::SeqCst),
        dropped: tel.dropped(),
        trace_jsonl: tel.export_jsonl(),
    })
}

/// The next datagram: up to [`SPIN_POLLS`] non-blocking tries, then one
/// blocking wait. Replies leave on this non-blocking socket too, so a send
/// that would block fails with `WouldBlock`: a reply lost so is counted in
/// `wizard-reply-send-errors`, and the client's retry covers it.
fn recv(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
    for _ in 0..SPIN_POLLS {
        match sock.recv_from(buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
            got => return got,
        }
    }
    sock.set_nonblocking(false)?;
    let got = sock.recv_from(buf);
    sock.set_nonblocking(true).and(got)
}

/// Emit the periodic self-report: a `daemon-heartbeat` event carrying the
/// serve counters, plus own-host gauges sampled from the real `/proc`
/// through the same parsers the probe uses. Platforms without a parseable
/// procfs still get the event, just not the gauges.
fn heartbeat(tel: &mut Telemetry, host: &str, shared: &Shared) {
    tel.counter_incr("daemon-heartbeats");
    let served = shared.served.load(Ordering::SeqCst).to_string();
    let reports = shared.reports.load(Ordering::SeqCst).to_string();
    tel.event("daemon-heartbeat", host, &[("served", &served), ("reports", &reports)]);
    if let Ok(s) = crate::probe::sample_proc(Path::new("/proc"), "lo") {
        // Loads are centi-scaled: gauges are integers by design.
        tel.gauge_set("daemon-load1-centi", host, (s.load1 * 100.0) as i64);
        let bytes = |n: u64| i64::try_from(n).unwrap_or(i64::MAX);
        tel.gauge_set("daemon-mem-free-bytes", host, bytes(s.mem.free));
        tel.gauge_set("daemon-mem-total-bytes", host, bytes(s.mem.total));
    }
}
