//! The combined monitor+wizard daemon on a real UDP socket.
//!
//! One background thread owns a [`WizardEngine`] — the one wizard the
//! simulated daemon also drives — and the [`Telemetry`] the engine
//! records into, so `telemetry summary` reads a live trace exactly like a
//! simulated one. Every datagram goes to [`WizardEngine::datagram`], which
//! tells what it is. What is left here is what only a real daemon has: the
//! socket, the clock, the heartbeat and the stats reply, which is the
//! summary lines the trace will end with, as they stand.
//!
//! The receive loop blocks in `recv_from` with **no read timeout**: a
//! stopped daemon is woken by one empty datagram to its own port (the
//! classic self-pipe trick, in UDP), so shutdown is prompt and the idle
//! daemon costs zero CPU.

use std::fs::File;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use smartsock_proto::StatsReply;
use smartsock_sim::SimTime;
use smartsock_telemetry::{AccumSink, Sink, StreamSink, Telemetry};
use smartsock_wizard::{Arrival, Ingest, SelectPolicy, WizardEngine};

use crate::clock::Clock;
use crate::transport::{endpoint_of, UdpTransport};

/// How often the daemon self-reports (a `daemon-heartbeat` event with
/// own-process procfs gauges). Checked opportunistically on every inbound
/// datagram — no timer thread; an idle daemon emits no heartbeats, which
/// keeps the idle-costs-zero-CPU property. The first datagram after the
/// interval elapses carries the beat, and a `smartsockd stats` query is
/// itself a datagram, so polling the daemon also freshens it.
const HEARTBEAT_INTERVAL_NS: u64 = 5_000_000_000;

/// Line-buffer capacity of the streaming trace sink (bytes).
const STREAM_CAP: usize = 4096;

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
    /// Telemetry records dropped by the sink's backpressure policy
    /// (always 0 for the default in-memory sink; a streaming sink whose
    /// file write failed counts every record it could not persist).
    pub dropped: u64,
    /// The JSONL telemetry trace — same schema as the simulator's
    /// `Telemetry::export_jsonl`, consumable by the `telemetry` binary.
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
    /// The trace accumulates in memory and is returned by
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
        let handle = std::thread::spawn(move || serve(sock, engine, clock, theirs, trace));
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
        self.shared.stop.store(true, Ordering::SeqCst);
        wake(self.addr);
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| io::Error::other("wizard thread panicked"))?,
            None => Err(io::Error::other("wizard already stopped")),
        }
    }
}

impl Drop for LiveWizard {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            wake(self.addr);
            let _ = h.join();
        }
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
        None => Box::new(AccumSink::new()),
    };
    let mut tel = Telemetry::with_sink(sink);
    let host = engine.endpoint().ip.to_string();
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let mut last_heartbeat: Option<u64> = None;
    loop {
        let (n, from) = match sock.recv_from(&mut buf) {
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
        let now = clock.now_ns();
        tel.set_now(now);
        // Opportunistic stale sweep: every inbound datagram advances the
        // expiry horizon, with no timer thread (`select` skips stale rows
        // anyway). Affordable per datagram because the sweep only evicts
        // (one comparison for the health table and one per /24, a walk only
        // of what is due); `handle` tightens what reports overwrote.
        // `live_servers()` sees the sweep before any reply leaves.
        engine.sweep(SimTime(now));
        engine.record(&mut tel);
        shared.records.store(engine.live_servers() as u64, Ordering::SeqCst);
        // Sonar-style self-report: every so often the daemon describes
        // itself in its own trace, same schema a probe would send about it.
        if last_heartbeat.is_none_or(|at| now.saturating_sub(at) >= HEARTBEAT_INTERVAL_NS) {
            last_heartbeat = Some(now);
            heartbeat(&mut tel, &host, &shared);
        }
        let (Some(payload), Some(from_ep)) = (buf.get(..n), endpoint_of(from)) else { continue };
        let arrival = engine.datagram(&mut UdpTransport::new(&sock, &clock), from_ep, payload);
        engine.record(&mut tel);
        // The side channel callers poll while the daemon runs; everything
        // else about the datagram is in the trace the engine just wrote.
        // Row count first: a caller that waited for `reports_ingested()`
        // then reads a `live_servers()` that includes that report.
        shared.records.store(engine.live_servers() as u64, Ordering::SeqCst);
        match arrival {
            // A `smartsockd stats` poll: the reply is the trace's own
            // summary lines, this poll already counted in them.
            Ok(Arrival::Stats(Some(q))) => {
                let lines = tel.summary_tail();
                let reply = StatsReply { seq: q.seq, now_ns: now, truncated: false, lines };
                let _ = sock.send_to(&reply.encode(), from);
            }
            Ok(Arrival::Handled(Ingest::Report(_))) => {
                shared.reports.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Arrival::Handled(Ingest::Replied { .. })) => {
                shared.served.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
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
