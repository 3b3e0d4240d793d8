//! The system status monitor (paper §3.2.2).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smartsock_net::Network;
use smartsock_proto::consts::{ports, timing};
use smartsock_proto::{Endpoint, Ip};
use smartsock_sim::{EventId, Scheduler, SimDuration};

use crate::db::StatusDbs;
use crate::ingest::ingest_ascii;

/// The monitor daemon: listens on UDP port 1111, maintains `sysdb`.
#[derive(Clone)]
pub struct SystemMonitor {
    ip: Ip,
    /// The monitor machine's databases; this daemon writes `sys`.
    dbs: Rc<RefCell<StatusDbs>>,
    /// The probes' reporting interval, and the sweep's: a server missing
    /// [`timing::FAILURE_INTERVALS`] consecutive intervals is expired.
    probe_interval: SimDuration,
    /// The sweep loop's one pending tick while the daemon runs, and `None`
    /// once it is stopped: `stop` cancels it.
    tick: Rc<Cell<Option<EventId>>>,
}

impl SystemMonitor {
    /// A monitor whose stale sweep runs once per `probe_interval`.
    pub fn new(ip: Ip, dbs: Rc<RefCell<StatusDbs>>, probe_interval: SimDuration) -> SystemMonitor {
        SystemMonitor { ip, dbs, probe_interval, tick: Rc::default() }
    }

    /// The endpoint probes report to.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::new(self.ip, ports::MON_SYS)
    }

    /// Bind the report socket and start the stale-record sweeper.
    pub fn start(&self, s: &mut Scheduler, net: &Network) {
        let mon = self.clone();
        net.bind_udp(self.endpoint(), move |s, dgram| {
            // The decode-and-upsert itself is the backend-shared ingest
            // path (crate::ingest) — the live daemon runs the same code.
            match ingest_ascii(&mut mon.dbs.borrow_mut().sys, &dgram.payload.data, s.now()) {
                Ok(_ip) => {
                    s.telemetry.counter_incr("sysmon-reports");
                    s.telemetry.counter_add("sysmon-bytes", dgram.payload.len());
                }
                Err(_) => s.telemetry.counter_incr("sysmon-bad-reports"),
            }
        });
        self.schedule_sweep(s);
    }

    /// Kill the daemon: unbind the report socket and cancel the sweep
    /// loop's pending tick. Reports sent while it is down are lost, exactly
    /// like a real machine crash; records it held go stale on its next
    /// restart sweep.
    pub fn stop(&self, s: &mut Scheduler, net: &Network) {
        if let Some(id) = self.tick.take() {
            s.cancel(id);
        }
        net.unbind_udp(self.endpoint());
    }

    /// Restart the daemon: stop it if it runs, rebind, sweep immediately
    /// (everything that expired during the outage is purged at once), and
    /// resume one sweep loop.
    pub fn restart(&self, s: &mut Scheduler, net: &Network) {
        self.stop(s, net);
        s.telemetry.counter_incr("sysmon-restarts");
        self.start(s, net);
        self.sweep_once(s);
    }

    fn sweep(&self, s: &mut Scheduler) {
        self.sweep_once(s);
        self.schedule_sweep(s);
    }

    fn schedule_sweep(&self, s: &mut Scheduler) {
        let mon = self.clone();
        self.tick.set(Some(s.schedule_in(self.probe_interval, move |s| mon.sweep(s))));
    }

    fn sweep_once(&self, s: &mut Scheduler) {
        let max_age = self.probe_interval.saturating_mul(u64::from(timing::FAILURE_INTERVALS));
        let dropped = self.dbs.borrow_mut().sys.expire(s.now(), max_age);
        if !dropped.is_empty() {
            s.telemetry.counter_add("sysmon-expired", dropped.len() as u64);
            for ip in &dropped {
                s.telemetry.event(
                    "status-db-expired",
                    &self.ip.to_string(),
                    &[("db", "sysdb"), ("server", &ip.to_string())],
                );
            }
        }
    }

    /// Number of live server records.
    pub fn live_servers(&self) -> usize {
        self.dbs.borrow().sys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_hostsim::{CpuModel, Host, HostConfig};
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_probe::{ProbeConfig, ServerProbe};
    use smartsock_sim::SimTime;

    fn rig(n_servers: u8) -> (Scheduler, Network, Vec<Host>, SystemMonitor) {
        let mut b = NetworkBuilder::new(7);
        let r = b.router("switch", Ip::new(192, 168, 1, 254));
        let mon_node = b.host("monmachine", Ip::new(192, 168, 1, 1), HostParams::testbed());
        b.duplex(mon_node, r, LinkParams::lan_100mbps());
        let mut hosts = Vec::new();
        for i in 0..n_servers {
            let ip = Ip::new(192, 168, 1, 10 + i);
            let name = format!("srv{i}");
            let node = b.host(&name, ip, HostParams::testbed());
            b.duplex(node, r, LinkParams::lan_100mbps());
            hosts.push(Host::new(HostConfig::new(&name, ip, CpuModel::P4_1700, 256)));
        }
        let net = b.build();
        let interval = SimDuration::from_secs(timing::PROBE_INTERVAL_SECS);
        let mon = SystemMonitor::new(Ip::new(192, 168, 1, 1), Rc::default(), interval);
        let mut s = Scheduler::new();
        mon.start(&mut s, &net);
        for h in &hosts {
            ServerProbe::new(h.clone(), net.clone(), ProbeConfig::new(Ip::new(192, 168, 1, 1)))
                .start(&mut s);
        }
        (s, net, hosts, mon)
    }

    #[test]
    fn reports_populate_the_database() {
        let (mut s, _net, _hosts, mon) = rig(4);
        s.run_until(SimTime::from_secs(5));
        assert_eq!(mon.live_servers(), 4);
        assert_eq!(s.telemetry.counter("sysmon-reports"), 8); // t=2 and t=4
        assert_eq!(s.telemetry.counter("sysmon-bad-reports"), 0);
    }

    #[test]
    fn failed_server_expires_after_three_intervals_and_rejoins() {
        let (mut s, _net, hosts, mon) = rig(2);
        s.run_until(SimTime::from_secs(5));
        assert_eq!(mon.live_servers(), 2);

        hosts[0].fail();
        // Expiry horizon: 3 × 2 s after the last report (t=4, plus transit):
        // the sweep at t=10 keeps it, the one at t=12 drops it — so two
        // intervals or four fail here.
        s.run_until(SimTime::from_secs(11));
        assert_eq!(mon.live_servers(), 2, "a failed server is listed for three intervals");
        s.run_until(SimTime::from_secs(13));
        assert_eq!(mon.live_servers(), 1, "failed server must expire");

        hosts[0].recover();
        s.run_until(SimTime::from_secs(17));
        assert_eq!(mon.live_servers(), 2, "recovered server rejoins");
    }

    #[test]
    fn stop_cancels_the_pending_sweep_and_restart_arms_exactly_one() {
        // No probes: the monitor's sweep is the only event on the queue.
        let (mut s, net, _hosts, mon) = rig(0);
        s.run_until(SimTime::from_secs(5)); // sweeps at t=2,4
        assert_eq!(s.events_processed(), 2);
        mon.stop(&mut s, &net);
        assert_eq!(s.pending(), 0, "stop cancels the one pending sweep");
        s.run_until(SimTime::from_secs(9));
        assert_eq!(s.events_processed(), 2, "a stopped monitor does not sweep");

        mon.restart(&mut s, &net);
        assert_eq!(s.pending(), 1, "restart arms exactly one sweep");
        mon.restart(&mut s, &net); // a running monitor's restart replaces its loop
        assert_eq!(s.pending(), 1);
        s.run_until(SimTime::from_secs(16)); // t=11,13,15
        assert_eq!(s.events_processed(), 5, "one sweep per interval, no doubled loop");
        assert_eq!(s.telemetry.counter("sysmon-restarts"), 2);
    }

    #[test]
    fn malformed_reports_are_counted_and_ignored() {
        let (mut s, net, _hosts, mon) = rig(1);
        let from = Endpoint::new(Ip::new(192, 168, 1, 10), 45000);
        net.send_udp(
            &mut s,
            from,
            mon.endpoint(),
            smartsock_net::Payload::data(&b"garbage report"[..]),
            None,
        );
        s.run_until(SimTime::from_secs(1));
        assert_eq!(s.telemetry.counter("sysmon-bad-reports"), 1);
        assert_eq!(mon.live_servers(), 0);
    }

    #[test]
    fn database_reflects_newest_report() {
        let (mut s, _net, hosts, mon) = rig(1);
        hosts[0].spawn_workload(&mut s, &smartsock_hostsim::Workload::super_pi(25)).unwrap();
        s.run_until(SimTime::from_secs(200));
        let snap = mon.dbs.borrow().sys.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].load1 > 0.8, "latest report shows the hog: {}", snap[0].load1);
    }
}
