//! Deployment builder: assemble the whole Fig 3.1 system on the Fig 5.1
//! testbed in one call.
//!
//! The default layout matches the thesis:
//!
//! * the eleven Table 5.1 machines on six 100 Mbps segments (five private
//!   `/24`s plus the campus network holding `sagit`), joined by a core
//!   switch and the `dalmatian` gateway's segment;
//! * a server probe on every machine;
//! * the system monitor, the security log (loaded once into `secdb`) and
//!   the transmitter on the *monitor machine*, `MONITOR_MACHINE` — the
//!   Table 5.2 resource figures were measured there;
//! * one network monitor per declared server group (§3.3.3), all writing
//!   the one `netdb` of the monitor machine;
//! * the wizard, whose receiver port fills its tables, on the same machine;
//! * centralized push or distributed pull between them (§3.5.1).
//!
//! Deviation noted in DESIGN.md: the thesis deploys one transmitter per
//! monitor machine; this builder keeps all monitors' databases on a single
//! monitor machine with one transmitter, which preserves every observable
//! the experiments use while keeping the wiring orthogonal.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use smartsock_hostsim::{machine_specs, Host, MachineSpec};
use smartsock_monitor::{secmon, NetworkMonitor, StatusDbs, SystemMonitor};
use smartsock_net::{HostParams, LinkParams, Network, NetworkBuilder};
use smartsock_probe::{ProbeConfig, ServerProbe};
use smartsock_proto::consts::ports;
use smartsock_proto::{Endpoint, Ip};
use smartsock_sim::{Scheduler, SimDuration};
use smartsock_wire::{Mode, Transmitter};
use smartsock_wizard::{SelectPolicy, Wizard, WizardConfig, WizardMode};

use crate::client::SmartClient;

/// The machine that runs the monitors, the transmitter and the wizard.
const MONITOR_MACHINE: &str = "dalmatian";

/// Background utilisation of every testbed LAN link.
const LINK_CROSS_LOAD: f64 = 0.02;

/// Builds a [`Testbed`].
pub struct TestbedBuilder {
    seed: u64,
    machines: Vec<MachineSpec>,
    probe_interval: SimDuration,
    distributed: bool,
    /// (monitor-host, members) per server group; hosts outside any group
    /// fall into the monitor machine's implicit group.
    groups: Vec<(String, Vec<String>)>,
    security_log: String,
    netmon_pairs_per_round: usize,
    multi_monitor: bool,
    wizard_age_discount: bool,
}

impl TestbedBuilder {
    pub fn new(seed: u64) -> TestbedBuilder {
        TestbedBuilder {
            seed,
            machines: machine_specs(),
            probe_interval: SimDuration::from_secs(2),
            distributed: false,
            groups: Vec::new(),
            security_log: String::new(),
            netmon_pairs_per_round: NetworkMonitor::DEFAULT_PAIRS_PER_ROUND,
            multi_monitor: false,
            wizard_age_discount: true,
        }
    }

    /// Disable the wizard's staleness-aware selection discount (the
    /// `hostile.staleness` experiment's control arm).
    pub fn no_age_discount(mut self) -> TestbedBuilder {
        self.wizard_age_discount = false;
        self
    }

    /// Use the distributed transmitter/receiver mode (§3.5.1).
    pub fn distributed(mut self) -> TestbedBuilder {
        self.distributed = true;
        self
    }

    /// Faithful multi-monitor layout: every declared group gets its *own*
    /// monitor machine running system/network/security monitors and a
    /// transmitter, exactly as Fig 3.8/3.9 sketch for large deployments;
    /// each group's probes report to their group's monitor, and the one
    /// receiver on the wizard machine merges all the snapshots.
    pub fn multi_monitor(mut self) -> TestbedBuilder {
        self.multi_monitor = true;
        self
    }

    pub fn probe_interval(mut self, interval: SimDuration) -> TestbedBuilder {
        self.probe_interval = interval;
        self
    }

    /// Declare a server group with its network monitor host (§3.3.3).
    pub fn group(mut self, monitor_host: &str, members: &[&str]) -> TestbedBuilder {
        self.groups
            .push((monitor_host.to_owned(), members.iter().map(|m| (*m).to_owned()).collect()));
        self
    }

    /// Provide the dummy security log (§3.4.1).
    pub fn security_log(mut self, log: &str) -> TestbedBuilder {
        self.security_log = log.to_owned();
        self
    }

    /// (S1, S2) pairs each network-monitor round sends.
    pub fn netmon_pairs_per_round(mut self, pairs: usize) -> TestbedBuilder {
        self.netmon_pairs_per_round = pairs;
        self
    }

    /// Build the network, hosts and daemons and start everything.
    pub fn start(self, s: &mut Scheduler) -> Testbed {
        // ---- network (Fig 5.1) ----
        let mut b = NetworkBuilder::new(self.seed);
        let core = b.router("core-sw", Ip::new(192, 168, 0, 254));
        let campus = b.router("campus-gw", Ip::new(137, 132, 81, 1));
        b.duplex(campus, core, LinkParams::campus());
        let mut seg_router = BTreeMap::new();
        for seg in 1..=5u8 {
            let r = b.router(&format!("sw{seg}"), Ip::new(192, 168, seg, 254));
            b.duplex(r, core, LinkParams::lan_100mbps().with_cross_load(LINK_CROSS_LOAD));
            seg_router.insert(seg, r);
        }
        let mut hosts = BTreeMap::new();
        let mut nodes = BTreeMap::new();
        for m in &self.machines {
            let node = b.host(m.name, m.ip, HostParams::testbed());
            #[expect(clippy::expect_used, reason = "invariant: segments 1..=5 registered above")]
            let attach = if m.segment == 0 {
                campus
            } else {
                *seg_router.get(&m.segment).expect("invariant: segments 1..=5 registered above")
            };
            b.duplex(node, attach, LinkParams::lan_100mbps().with_cross_load(LINK_CROSS_LOAD));
            nodes.insert(m.name.to_owned(), node);
            hosts.insert(m.name.to_owned(), Host::new(m.host_config()));
        }
        let net = b.build();

        let ip_of = |name: &str| -> Ip {
            self.machines
                .iter()
                .find(|m| m.name.eq_ignore_ascii_case(name))
                .unwrap_or_else(|| panic!("unknown machine {name:?}"))
                .ip
        };
        let monitor_ip = ip_of(MONITOR_MACHINE);
        let wizard_ip = monitor_ip;

        // ---- group layout ----
        let mut group_of: BTreeMap<Ip, Ip> = BTreeMap::new();
        let mut monitor_ips = vec![monitor_ip];
        for (mon_host, members) in &self.groups {
            let mon = ip_of(mon_host);
            // Once per machine, whatever the order groups were declared in:
            // two monitors on one machine would probe at once (§3.3.3).
            if !monitor_ips.contains(&mon) {
                monitor_ips.push(mon);
            }
            for member in members {
                group_of.insert(ip_of(member), mon);
            }
        }
        for m in &self.machines {
            group_of.entry(m.ip).or_insert(monitor_ip);
        }

        // ---- monitor-machine databases & daemons ----
        //
        // Default layout: one monitor machine holds all three databases.
        // `multi_monitor()`: one full monitor stack per group (Fig 3.8),
        // probes reporting to their group's machine. A stack's daemons
        // share its machine's one `StatusDbs`.
        let mode = if self.distributed { Mode::Distributed } else { Mode::Centralized };
        let stack_ips: Vec<Ip> =
            if self.multi_monitor { monitor_ips.clone() } else { vec![monitor_ip] };
        let mut sysmons = Vec::new();
        let mut transmitters = Vec::new();
        let mut netmons = Vec::new();
        let mut primary_dbs = None;
        for &stack_ip in &stack_ips {
            let dbs: Rc<RefCell<StatusDbs>> = Rc::default();
            let sysmon = SystemMonitor::new(stack_ip, Rc::clone(&dbs), self.probe_interval);
            sysmon.start(s, &net);
            sysmons.push(sysmon);
            #[expect(
                clippy::expect_used,
                reason = "invariant: the built-in security log template parses"
            )]
            secmon::load(&mut dbs.borrow_mut().sec, &self.security_log)
                .expect("invariant: the built-in security log template parses");
            if self.multi_monitor {
                // Each group's network monitor writes its own netdb.
                let pairs = self.netmon_pairs_per_round;
                let nm = NetworkMonitor::new(stack_ip, net.clone(), Rc::clone(&dbs), pairs);
                for &peer in &monitor_ips {
                    nm.add_peer(peer);
                }
                nm.start(s);
                netmons.push(nm);
            } else {
                // Single monitor machine: all group netmons share one netdb.
                for &mon_ip in &monitor_ips {
                    let pairs = self.netmon_pairs_per_round;
                    let nm = NetworkMonitor::new(mon_ip, net.clone(), Rc::clone(&dbs), pairs);
                    for &peer in &monitor_ips {
                        nm.add_peer(peer);
                    }
                    nm.start(s);
                    netmons.push(nm);
                }
            }
            let tx = Transmitter::new(stack_ip, net.clone(), mode, wizard_ip, Rc::clone(&dbs))
                .with_interval(self.probe_interval);
            tx.start(s);
            transmitters.push(tx);
            if primary_dbs.is_none() {
                primary_dbs = Some(dbs);
            }
        }
        #[expect(clippy::expect_used, reason = "invariant: `stack_ips` holds the monitor machine")]
        let dbs = primary_dbs.expect("invariant: stack_ips always holds the monitor machine");
        #[expect(clippy::expect_used, reason = "invariant: one stack per stack_ip, never empty")]
        let sysmon =
            sysmons.first().expect("invariant: one stack per stack_ip, never empty").clone();

        // ---- probes ----
        let mut probes = Vec::new();
        for host in hosts.values() {
            // In multi-monitor mode a probe reports to its group's stack
            // (if that machine runs one); otherwise to the monitor machine.
            let report_to = if self.multi_monitor {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: every machine ip entered in the group layout above"
                )]
                let g = *group_of
                    .get(&host.ip())
                    .expect("invariant: every machine ip entered in the group layout above");
                if stack_ips.contains(&g) {
                    g
                } else {
                    monitor_ip
                }
            } else {
                monitor_ip
            };
            let probe = ServerProbe::new(
                host.clone(),
                net.clone(),
                ProbeConfig::new(report_to).with_interval(self.probe_interval),
            );
            probe.start(s);
            probes.push(probe);
        }

        // ---- wizard (its receiver port included) ----
        let wizard_mode = if self.distributed {
            WizardMode::Distributed { transmitters: stack_ips.clone() }
        } else {
            WizardMode::Centralized
        };
        let wizard = Wizard::new(
            wizard_ip,
            net.clone(),
            WizardConfig {
                mode: wizard_mode,
                policy: SelectPolicy {
                    stale_max_age: Some(self.probe_interval.saturating_mul(4)),
                    age_discount: self.wizard_age_discount,
                },
            },
        );
        for (&host_ip, &mon_ip) in &group_of {
            wizard.map_group(host_ip, mon_ip);
        }
        wizard.start(s);

        Testbed {
            seed: self.seed,
            net,
            hosts,
            nodes,
            probes,
            sysmon,
            sysmons,
            netmons,
            transmitters,
            wizard,
            dbs,
            monitor_ip,
            wizard_ip,
        }
    }
}

/// A running deployment of the whole system.
pub struct Testbed {
    pub seed: u64,
    pub net: Network,
    pub hosts: BTreeMap<String, Host>,
    pub nodes: BTreeMap<String, smartsock_net::NodeId>,
    pub probes: Vec<ServerProbe>,
    /// The primary (monitor-machine) system monitor.
    pub sysmon: SystemMonitor,
    /// Every system monitor (one per group in multi-monitor mode).
    pub sysmons: Vec<SystemMonitor>,
    pub netmons: Vec<NetworkMonitor>,
    /// Every transmitter (one per group in multi-monitor mode).
    pub transmitters: Vec<Transmitter>,
    /// The wizard; its engine holds the wizard machine's copies of the
    /// databases (`wizard.engine().dbs()`).
    pub wizard: Wizard,
    /// The (primary) monitor machine's databases.
    pub dbs: Rc<RefCell<StatusDbs>>,
    pub monitor_ip: Ip,
    pub wizard_ip: Ip,
}

impl Testbed {
    pub fn builder(seed: u64) -> TestbedBuilder {
        TestbedBuilder::new(seed)
    }

    /// The default paper deployment, started on a fresh scheduler.
    pub fn paper(seed: u64) -> (Scheduler, Testbed) {
        let mut s = Scheduler::new();
        let tb = TestbedBuilder::new(seed).start(&mut s);
        (s, tb)
    }

    pub fn host(&self, name: &str) -> &Host {
        self.hosts
            .get(&name.to_ascii_lowercase())
            .unwrap_or_else(|| panic!("unknown host {name:?}"))
    }

    pub fn node(&self, name: &str) -> smartsock_net::NodeId {
        self.nodes
            .get(&name.to_ascii_lowercase())
            .copied()
            .unwrap_or_else(|| panic!("unknown host {name:?}"))
    }

    pub fn ip(&self, name: &str) -> Ip {
        self.host(name).ip()
    }

    /// The application service endpoint of one machine.
    pub fn service_endpoint(&self, name: &str) -> Endpoint {
        Endpoint::new(self.ip(name), ports::SERVICE)
    }

    /// A Smart socket client running on `host`.
    pub fn client(&self, host: &str) -> SmartClient {
        SmartClient::new(self.net.clone(), self.ip(host), self.wizard_ip, self.seed)
    }

    /// Apply the `rshaper` substitute to one machine (§5.3.2); `None`
    /// restores the raw line rate.
    pub fn set_rshaper(&self, host: &str, mbps: Option<f64>) {
        self.net.set_access_rate(self.node(host), mbps.map(|m| m * 1e6));
    }

    /// A fault injector with every moving part of this deployment
    /// pre-registered: all hosts, their probes, every system monitor and
    /// the wizard (whose restart re-binds its receiver port). Chaos
    /// sampling derives from the testbed seed.
    pub fn fault_injector(&self) -> smartsock_faults::FaultInjector {
        let inj = smartsock_faults::FaultInjector::new(self.net.clone(), self.seed);
        for host in self.hosts.values() {
            inj.register_host(host.clone());
        }
        for probe in &self.probes {
            inj.register_probe(probe.host().name().as_str(), probe.clone());
        }
        for mon in &self.sysmons {
            if let Some(node) = self.net.node_by_ip(mon.endpoint().ip) {
                inj.register_monitor(self.net.name_of(node).as_str(), mon.clone());
            }
        }
        inj.register_wizard(self.wizard.clone());
        // A transmitter's socket bindings die with its machine: re-install
        // any distributed-mode pull listener when the machine reboots.
        for tx in &self.transmitters {
            let tx = tx.clone();
            if let Some(host) = self.host_of_ip(tx.endpoint().ip) {
                inj.on_reboot(&host, move |s| tx.rebind(s));
            }
        }
        inj
    }

    fn host_of_ip(&self, ip: Ip) -> Option<String> {
        self.net.node_by_ip(ip).map(|n| self.net.name_of(n).as_str().to_ascii_lowercase())
    }

    /// Service endpoints of every machine except the named exclusions —
    /// the conventional "static server list" baselines select from.
    pub fn service_pool(&self, exclude: &[&str]) -> Vec<Endpoint> {
        self.hosts
            .keys()
            .filter(|name| !exclude.iter().any(|e| e.eq_ignore_ascii_case(name)))
            .map(|name| self.service_endpoint(name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RequestSpec;
    use smartsock_sim::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn paper_testbed_comes_up_and_reports_all_servers() {
        let (mut s, tb) = Testbed::paper(11);
        s.run_until(SimTime::from_secs(10));
        assert_eq!(tb.sysmon.live_servers(), 11);
        // The wizard machine's copy catches up via the transmitter.
        assert_eq!(tb.wizard.engine().dbs().sys.len(), 11);
    }

    #[test]
    fn end_to_end_selection_over_the_full_stack() {
        let (mut s, tb) = Testbed::paper(13);
        // Service daemons on every machine.
        for name in tb.hosts.keys() {
            tb.net.bind_stream(Endpoint::new(tb.host(name).ip(), ports::SERVICE), |_s, _m| {});
        }
        s.run_until(SimTime::from_secs(10));

        let client = tb.client("sagit");
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        // Table 5.3's requirement: the two P4-2.4 machines qualify.
        client.request(
            &mut s,
            RequestSpec::new(
                "(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && (host_memory_free > 5*1024*1024)\n",
                2,
            ),
            move |_s, r| *g.borrow_mut() = Some(r),
        );
        s.run_until(SimTime::from_secs(12));
        let socks = got.borrow_mut().take().unwrap().expect("selection succeeds");
        assert_eq!(socks.len(), 2);
        let mut ips: Vec<Ip> = socks.iter().map(|k| k.remote.ip).collect();
        ips.sort();
        assert_eq!(ips, vec![tb.ip("dalmatian"), tb.ip("dione")]);
    }

    #[test]
    fn distributed_mode_answers_after_a_pull() {
        let mut s = Scheduler::new();
        let tb = Testbed::builder(17).distributed().start(&mut s);
        for name in tb.hosts.keys() {
            tb.net.bind_stream(Endpoint::new(tb.host(name).ip(), ports::SERVICE), |_s, _m| {});
        }
        s.run_until(SimTime::from_secs(6));
        // No periodic pushes in distributed mode.
        assert_eq!(s.telemetry.counter("transmitter-snapshots"), 0);

        let client = tb.client("sagit");
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        client.request(&mut s, RequestSpec::new("host_cpu_free > 0.5\n", 3), move |_s, r| {
            *g.borrow_mut() = Some(r)
        });
        s.run_until(SimTime::from_secs(10));
        let socks = got.borrow_mut().take().unwrap().expect("distributed selection succeeds");
        assert_eq!(socks.len(), 3);
        assert!(s.telemetry.counter("transmitter-pulls") >= 1);
    }

    #[test]
    fn groups_feed_the_wizard_group_map() {
        let mut s = Scheduler::new();
        let tb = Testbed::builder(19)
            .group("mimas", &["mimas", "telesto", "lhost"])
            .group("dione", &["dione", "titan-x", "pandora-x"])
            .start(&mut s);
        s.run_until(SimTime::from_secs(20));
        // The group monitors probed each other: netdb has cross-group
        // records involving mimas and dione monitors.
        let snap = tb.dbs.borrow().net.snapshot();
        let mimas = tb.ip("mimas");
        let dione = tb.ip("dione");
        assert!(
            snap.iter().any(|r| r.from_monitor == mimas && r.to_monitor == dione),
            "mimas→dione path measured: {snap:?}"
        );
    }

    #[test]
    fn a_monitor_machine_declared_twice_runs_one_monitor_stack() {
        // `dalmatian` is the default monitor machine; declared again after
        // another group it is still one machine, with one network monitor
        // (§3.3.3: no two probes at once) and, multi-monitor, one stack.
        let builder =
            || Testbed::builder(29).group("mimas", &["mimas"]).group("dalmatian", &["dione"]);
        let tb = builder().start(&mut Scheduler::new());
        assert_eq!(tb.netmons.len(), 2);
        let tb = builder().multi_monitor().start(&mut Scheduler::new());
        assert_eq!(tb.sysmons.len(), 2);
        assert_eq!(tb.netmons.len(), 2);
    }

    #[test]
    fn rshaper_throttles_and_restores() {
        let (mut s, tb) = Testbed::paper(23);
        let _ = &mut s;
        tb.set_rshaper("lhost", Some(5.0));
        let sagit = tb.node("sagit");
        let lhost = tb.node("lhost");
        let bw = tb.net.path_available_bw(sagit, lhost).unwrap() / 1e6;
        assert!(bw < 5.1, "shaped to {bw}");
        tb.set_rshaper("lhost", None);
        let bw = tb.net.path_available_bw(sagit, lhost).unwrap() / 1e6;
        assert!(bw > 90.0, "restored to {bw}");
    }
}
