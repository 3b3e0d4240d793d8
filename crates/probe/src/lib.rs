//! # smartsock-probe
//!
//! The server probe daemon (paper §3.2.1, §4.1).
//!
//! Every monitored server runs one probe. At a configurable interval
//! (2–10 s depending on the experiment) the probe:
//!
//! 1. renders and re-parses the five `/proc` files of Table 3.1 —
//!    `loadavg`, `stat` (CPU + disk), `meminfo`, `net/dev` — through
//!    [`smartsock_hostsim::procfs`], exercising the same text formats a
//!    2004 Linux kernel produced;
//! 2. differentiates cumulative counters (CPU jiffies, NIC bytes) against
//!    the previous scan to obtain usage fractions and per-second rates;
//! 3. formats the result as the sub-200-byte ASCII status report of
//!    §3.2.1 — decimal strings precisely so that endianness never matters —
//!    and sends it by UDP to the system monitor (port 1111).
//!
//! A failed host's probe goes silent; after three missed intervals the
//! system monitor expires the record (§4.1). The probe resumes reporting
//! when the host recovers.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod engine;

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_hostsim::procfs;
use smartsock_hostsim::Host;
use smartsock_net::{Network, Payload};
use smartsock_proto::consts::{ports, timing};
use smartsock_proto::{Endpoint, ServerStatusReport};
use smartsock_sim::{EventId, Scheduler, SimDuration, SimTime};

pub use engine::{ProbeIdentity, ProcSample, ReportEngine};

/// Probe configuration.
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// Reporting interval (default 2 s, the Table 5.2 setting).
    pub interval: SimDuration,
    /// Where the system monitor listens.
    pub monitor: Endpoint,
}

impl ProbeConfig {
    pub fn new(monitor_ip: smartsock_proto::Ip) -> ProbeConfig {
        ProbeConfig {
            interval: SimDuration::from_secs(timing::PROBE_INTERVAL_SECS),
            monitor: Endpoint::new(monitor_ip, ports::MON_SYS),
        }
    }

    pub fn with_interval(mut self, interval: SimDuration) -> ProbeConfig {
        self.interval = interval;
        self
    }
}

struct ProbeState {
    /// The backend-shared differentiation core (crate::engine) — the live
    /// daemon runs the identical code over the real `/proc`.
    engine: ReportEngine,
    reports_sent: u64,
    /// The reporting loop's one pending tick while the daemon runs, and
    /// `None` once it is stopped: `stop` cancels it, so a stopped probe
    /// holds nothing on the scheduler.
    tick: Option<EventId>,
}

/// One probe daemon instance.
#[derive(Clone)]
pub struct ServerProbe {
    host: Host,
    net: Network,
    cfg: ProbeConfig,
    st: Rc<RefCell<ProbeState>>,
}

impl ServerProbe {
    pub fn new(host: Host, net: Network, cfg: ProbeConfig) -> ServerProbe {
        ServerProbe {
            host,
            net,
            cfg,
            st: Rc::new(RefCell::new(ProbeState {
                engine: ReportEngine::new(),
                reports_sent: 0,
                tick: None,
            })),
        }
    }

    /// Start the periodic reporting loop. The first report goes out after
    /// one interval (the probe needs two scans to differentiate counters).
    pub fn start(&self, s: &mut Scheduler) {
        // Take the baseline scan now.
        let _ = self.scan(s.now());
        self.schedule_tick(s);
    }

    /// Kill the daemon: cancel the reporting loop's pending tick.
    pub fn stop(&self, s: &mut Scheduler) {
        if let Some(id) = self.st.borrow_mut().tick.take() {
            s.cancel(id);
        }
    }

    /// Restart a stopped daemon: re-baseline the differentiated counters
    /// (a fresh process has no previous scan) and resume the loop.
    pub fn restart(&self, s: &mut Scheduler) {
        if self.is_running() {
            return;
        }
        self.st.borrow_mut().engine.reset();
        s.telemetry.counter_incr("probe-restarts");
        self.start(s);
    }

    /// The host this probe daemon runs on.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Whether the reporting loop is running: it holds a pending tick.
    pub fn is_running(&self) -> bool {
        self.st.borrow().tick.is_some()
    }

    /// Number of reports sent so far.
    pub fn reports_sent(&self) -> u64 {
        self.st.borrow().reports_sent
    }

    fn tick(&self, s: &mut Scheduler) {
        if !self.host.is_failed() {
            let span = s.telemetry.span_start("probe-report", self.host.name().as_str());
            let report = self.scan(s.now());
            self.send(s, report);
            s.telemetry.span_end(span);
        }
        self.schedule_tick(s);
    }

    fn schedule_tick(&self, s: &mut Scheduler) {
        let probe = self.clone();
        let id = s.schedule_in(self.cfg.interval, move |s| probe.tick(s));
        self.st.borrow_mut().tick = Some(id);
    }

    /// One probing pass: render the /proc files, parse them back, and
    /// hand the parsed sample to the shared [`ReportEngine`].
    #[expect(
        clippy::expect_used,
        reason = "invariant: each parse reads the text rendered just above, for the iface rendered"
    )]
    fn scan(&self, now: SimTime) -> ServerStatusReport {
        let sample = self.host.sample(now);
        let uptime = now.as_secs_f64();

        // Render-then-parse: the identical artefacts a real kernel serves.
        let loadavg_text = procfs::render_loadavg(&sample, self.host.runnable(), 60);
        let stat_text = procfs::render_stat(&sample, uptime);
        let meminfo_text = procfs::render_meminfo(&sample);
        let netdev_text = procfs::render_net_dev(&sample, "eth0");

        let (load1, load5, load15) = procfs::parse_loadavg(&loadavg_text)
            .expect("invariant: parsing our own rendered loadavg");
        let jiffies =
            procfs::parse_stat_cpu(&stat_text).expect("invariant: parsing our own rendered stat");
        let disk = procfs::parse_stat_disk(&stat_text)
            .expect("invariant: parsing our own rendered disk_io");
        let mem = procfs::parse_meminfo(&meminfo_text)
            .expect("invariant: parsing our own rendered meminfo");
        let net = procfs::parse_net_dev(&netdev_text, "eth0")
            .expect("invariant: parsing our own rendered net/dev for the iface we rendered");

        let id = ProbeIdentity {
            host: self.host.name(),
            ip: self.host.ip(),
            bogomips: self.host.cpu_model().bogomips,
            iface: "eth0".to_owned(),
            services: self.host.services(),
        };
        let parsed = ProcSample { load1, load5, load15, jiffies, disk, mem, net };
        self.st.borrow_mut().engine.report(now, &id, &parsed)
    }

    fn send(&self, s: &mut Scheduler, report: ServerStatusReport) {
        let line = report.encode_ascii();
        let bytes = line.len() as u64;
        let from =
            Endpoint::new(self.host.ip(), 40000 + (self.st.borrow().reports_sent % 1000) as u16);
        s.telemetry.counter_add_labeled("probe-report-bytes", self.host.name().as_str(), bytes);
        s.telemetry.counter_incr("probe-reports");
        self.host.note_tx(bytes + 28, 1);
        let payload = Payload::data(line.into_bytes());
        self.net.send_udp(s, from, self.cfg.monitor, payload, None);
        self.st.borrow_mut().reports_sent += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_hostsim::{CpuModel, HostConfig, Workload};
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::Ip;

    fn rig() -> (Scheduler, Network, Host, Rc<RefCell<Vec<ServerStatusReport>>>) {
        let mut b = NetworkBuilder::new(99);
        let server = b.host("helene", Ip::new(192, 168, 3, 10), HostParams::testbed());
        let mon = b.host("monitor", Ip::new(192, 168, 3, 1), HostParams::testbed());
        b.duplex(server, mon, LinkParams::lan_100mbps());
        let net = b.build();
        let host =
            Host::new(HostConfig::new("helene", Ip::new(192, 168, 3, 10), CpuModel::P4_1700, 256));

        let got: Rc<RefCell<Vec<ServerStatusReport>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&got);
        net.bind_udp(Endpoint::new(Ip::new(192, 168, 3, 1), ports::MON_SYS), move |_s, d| {
            let text = std::str::from_utf8(&d.payload.data).unwrap();
            sink.borrow_mut().push(ServerStatusReport::parse_ascii(text).unwrap());
        });
        (Scheduler::new(), net, host, got)
    }

    #[test]
    fn probe_reports_at_the_configured_interval() {
        let (mut s, net, host, got) = rig();
        let probe = ServerProbe::new(
            host,
            net.clone(),
            ProbeConfig::new(Ip::new(192, 168, 3, 1)).with_interval(SimDuration::from_secs(2)),
        );
        probe.start(&mut s);
        s.run_until(SimTime::from_secs(11));
        // Reports at t = 2,4,6,8,10.
        assert_eq!(got.borrow().len(), 5);
        assert_eq!(probe.reports_sent(), 5);
        assert_eq!(got.borrow()[0].host.as_str(), "helene");
        assert!((got.borrow()[0].bogomips - 3394.76).abs() < 0.01);
    }

    #[test]
    fn idle_host_reports_idle_cpu_and_zero_load() {
        let (mut s, net, host, got) = rig();
        ServerProbe::new(host, net, ProbeConfig::new(Ip::new(192, 168, 3, 1))).start(&mut s);
        s.run_until(SimTime::from_secs(5));
        let r = got.borrow()[0].clone();
        assert!(r.cpu_idle > 0.98, "idle = {}", r.cpu_idle);
        assert!(r.load1 < 0.01);
    }

    #[test]
    fn busy_host_reports_load_and_cpu_usage() {
        let (mut s, net, host, got) = rig();
        host.spawn_workload(&mut s, &Workload::super_pi(25)).unwrap();
        ServerProbe::new(host, net, ProbeConfig::new(Ip::new(192, 168, 3, 1))).start(&mut s);
        s.run_until(SimTime::from_secs(121));
        let r = got.borrow().last().unwrap().clone();
        assert!(r.cpu_idle < 0.05, "idle = {}", r.cpu_idle);
        assert!(r.cpu_user > 0.9);
        assert!(r.load1 > 0.8, "load1 = {}", r.load1);
        // SuperPI(25) holds 150 MB.
        assert!(r.mem_free < 100 << 20);
    }

    #[test]
    fn failed_host_goes_silent_and_resumes() {
        let (mut s, net, host, got) = rig();
        let probe = ServerProbe::new(host.clone(), net, ProbeConfig::new(Ip::new(192, 168, 3, 1)));
        probe.start(&mut s);
        s.run_until(SimTime::from_secs(5)); // t=2,4 → 2 reports
        assert_eq!(got.borrow().len(), 2);
        host.fail();
        s.run_until(SimTime::from_secs(11)); // silence
        assert_eq!(got.borrow().len(), 2);
        host.recover();
        s.run_until(SimTime::from_secs(15)); // resumes at t=12,14
        assert_eq!(got.borrow().len(), 4);
    }

    #[test]
    fn stop_cancels_the_pending_tick_and_restart_arms_exactly_one() {
        let (mut s, net, host, got) = rig();
        let probe = ServerProbe::new(host, net, ProbeConfig::new(Ip::new(192, 168, 3, 1)));
        probe.start(&mut s);
        s.run_until(SimTime::from_secs(5)); // t=2,4 → 2 reports
        let running = s.pending();
        probe.stop(&mut s);
        assert_eq!(s.pending(), running - 1, "stop cancels the one pending tick");
        assert!(!probe.is_running());
        s.run_until(SimTime::from_secs(9));
        assert_eq!(got.borrow().len(), 2, "a stopped probe is silent");

        let stopped = s.pending();
        probe.restart(&mut s);
        probe.restart(&mut s); // a running probe's restart is a no-op
        assert_eq!(s.pending(), stopped + 1, "restart arms exactly one tick");
        s.run_until(SimTime::from_secs(16)); // t=11,13,15
        assert_eq!(got.borrow().len(), 5, "one report per interval, no doubled loop");
        assert_eq!(s.telemetry.counter("probe-restarts"), 1);
    }

    #[test]
    fn reports_stay_under_200_bytes_and_carry_rates() {
        let (mut s, net, host, got) = rig();
        host.note_tx(0, 0);
        ServerProbe::new(host.clone(), net, ProbeConfig::new(Ip::new(192, 168, 3, 1)))
            .start(&mut s);
        // Generate some NIC traffic between scans.
        s.schedule_in(SimDuration::from_secs(1), {
            let h = host.clone();
            move |_| h.note_rx(2_000_000, 1500)
        });
        s.run_until(SimTime::from_secs(3));
        let r = got.borrow()[0].clone();
        assert!(r.encode_ascii().len() < 200);
        // 2 MB over a 2 s window ≈ 1 MB/s.
        assert!((r.net_rbytes_ps - 1_000_000.0).abs() < 50_000.0, "rate {}", r.net_rbytes_ps);
    }

    #[test]
    fn probe_bandwidth_matches_table_5_2_scale() {
        // §5.2: ~190-byte reports every 2 s ⇒ ~0.1 KB/s payload, well under
        // the 0.5–0.6 KBps the paper measured with headers and retries.
        let (mut s, net, host, _got) = rig();
        ServerProbe::new(host, net, ProbeConfig::new(Ip::new(192, 168, 3, 1))).start(&mut s);
        s.run_until(SimTime::from_secs(60));
        let bytes = s.telemetry.counter_labeled("probe-report-bytes", "helene");
        let rate = bytes as f64 / 60.0;
        assert!(rate > 40.0 && rate < 620.0, "probe payload rate {rate} B/s");
    }
}
