//! # smartsock-faults
//!
//! Deterministic fault injection for the smartsock simulation.
//!
//! The thesis's fault story (§6) is qualitative: the monitor stops
//! offering dead servers and the library "redirects the failed connection
//! to other running servers". This crate makes that story *testable* by
//! turning faults into first-class, reproducible simulation inputs:
//!
//! * a [`FaultPlan`] is a declarative schedule of [`FaultKind`]s — link
//!   cuts and heals, host crashes and reboots, network partitions, daemon
//!   kills/restarts (probe, system monitor, wizard), transient loss and
//!   latency spikes — applied at exact simulation times;
//! * [`FaultInjector::chaos`] mode samples faults at fixed gentle per-tick
//!   rates using the simulation's seeded RNG
//!   ([`smartsock_sim::rng::derive`]), so a chaos run is exactly
//!   reproducible from its seed and two different seeds give different
//!   fault timings;
//! * the [`FaultInjector`] owns name-keyed registries of every moving part
//!   (network nodes, simulated hosts, probes, monitors, the wizard) and
//!   knows the *composite* meaning of each fault: a `HostCrash` marks the
//!   node down in the network (dropping datagrams, stalling flows, wiping
//!   socket bindings), kills the host's tasks and stops its daemons; the
//!   matching `HostReboot` revives the node, zeroes the procfs counters,
//!   restarts the daemons and fires any registered reboot hooks (e.g.
//!   re-binding a service's stream endpoint).
//!
//! Every applied fault increments a `faults.*` metric, so two runs with
//! the same seed can be compared byte-for-byte on the metrics table.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;

use smartsock_hostsim::Host;
use smartsock_monitor::SystemMonitor;
use smartsock_net::{LinkId, Network, NodeId};
use smartsock_probe::ServerProbe;
use smartsock_sim::{rng as simrng, Scheduler, SimDuration, SimTime};
use smartsock_wizard::Wizard;

/// Which daemon a [`FaultKind::DaemonKill`]/[`FaultKind::DaemonRestart`]
/// targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Daemon {
    /// The server probe on the named host.
    Probe(String),
    /// The system monitor on the named host.
    Monitor(String),
    /// The wizard.
    Wizard,
}

/// One injectable fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Cut the duplex link between two adjacent nodes.
    LinkDown { a: String, b: String },
    /// Restore a cut link.
    LinkUp { a: String, b: String },
    /// Hard-crash a host: network node down, sockets wiped, tasks killed,
    /// daemons stopped.
    HostCrash { host: String },
    /// Reboot a crashed host: node revived, procfs counters zeroed,
    /// daemons restarted, reboot hooks fired.
    HostReboot { host: String },
    /// Cut every link that inter-group paths use but intra-group paths do
    /// not, isolating the two named groups from each other. The cut set is
    /// remembered under `name` for [`FaultKind::Heal`].
    Partition { name: String, side_a: Vec<String>, side_b: Vec<String> },
    /// Restore the links cut by the named partition.
    Heal { name: String },
    /// Stop a daemon without touching its machine.
    DaemonKill { daemon: Daemon },
    /// Restart a stopped daemon.
    DaemonRestart { daemon: Daemon },
    /// Transient loss spike on the duplex link between two adjacent nodes.
    LossSpike { a: String, b: String, prob: f64 },
    /// Clear a loss spike (restores the link's base loss probability).
    LossClear { a: String, b: String },
    /// Transient extra latency on the duplex link between two nodes.
    LatencySpike { a: String, b: String, extra: SimDuration },
    /// Clear a latency spike (restores the base propagation delay).
    LatencyClear { a: String, b: String },
}

/// A declarative fault schedule: `(when, what)` pairs. Insertion order is
/// irrelevant; the scheduler orders execution by time.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultKind)>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a fault at an absolute simulation time.
    pub fn at(mut self, t: SimTime, kind: FaultKind) -> FaultPlan {
        self.events.push((t, kind));
        self
    }

    /// Add a fault at `secs` seconds of simulation time.
    pub fn at_secs(self, secs: u64, kind: FaultKind) -> FaultPlan {
        self.at(SimTime::from_secs(secs), kind)
    }

    /// The scheduled `(when, what)` pairs, in insertion order. Two faults
    /// at the *same* time apply in this order (the scheduler is FIFO at
    /// equal timestamps), so overlapping same-host faults are
    /// deterministic: last inserted wins the final state.
    pub fn events(&self) -> &[(SimTime, FaultKind)] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    // ------------------------------------------------------------------
    // Hostile-workload generators
    // ------------------------------------------------------------------

    /// A flapping link: cut `a<->b` every `period` starting at `from`,
    /// restore after `down_for`, until `until`. The classic grey-failure
    /// shape — short enough that naive retry loops keep slamming the same
    /// path, long enough to kill in-flight requests.
    pub fn flapping_link(
        mut self,
        a: &str,
        b: &str,
        from: SimTime,
        until: SimTime,
        period: SimDuration,
        down_for: SimDuration,
    ) -> FaultPlan {
        assert!(down_for < period, "flapping_link: link must come back up within each period");
        let mut t = from;
        while t < until {
            self = self
                .at(t, FaultKind::LinkDown { a: a.into(), b: b.into() })
                .at(t + down_for, FaultKind::LinkUp { a: a.into(), b: b.into() });
            t += period;
        }
        self
    }

    /// A straggler server: inflate the latency of `host`'s access link to
    /// `peer` by `extra` over `[from, until)`. The host stays up and keeps
    /// reporting healthy status — only its data path is slow, which is
    /// exactly the case hedged requests exist for.
    pub fn straggler(
        self,
        host: &str,
        peer: &str,
        from: SimTime,
        until: SimTime,
        extra: SimDuration,
    ) -> FaultPlan {
        self.at(from, FaultKind::LatencySpike { a: host.into(), b: peer.into(), extra })
            .at(until, FaultKind::LatencyClear { a: host.into(), b: peer.into() })
    }
}

// The gentle chaos of `FaultInjector::chaos`: every probability is
// evaluated once per tick; a sampled fault picks its victim uniformly from
// the registered population and schedules its own recovery after a
// uniform draw from `CHAOS_OUTAGE`. Something breaks every few ticks and
// nothing stays broken longer than `CHAOS_OUTAGE.1`.

/// Sampling tick.
const CHAOS_TICK: SimDuration = SimDuration::from_secs(1);
/// Per-tick probability of cutting one random host's access link.
const LINK_DOWN_PROB: f64 = 0.05;
/// Per-tick probability of crashing one random host.
const HOST_CRASH_PROB: f64 = 0.03;
/// Per-tick probability of killing one random host's probe daemon.
const DAEMON_KILL_PROB: f64 = 0.03;
/// Per-tick probability of a loss spike on one random access link.
const LOSS_SPIKE_PROB: f64 = 0.05;
/// Outage duration range (uniform) before the matching recovery.
const CHAOS_OUTAGE: (SimDuration, SimDuration) =
    (SimDuration::from_secs(2), SimDuration::from_secs(6));

/// Reject a chaos window that ends before the first sampling tick: no
/// fault could ever fire in it.
fn check_chaos_window(until: SimTime) -> Result<(), String> {
    if until.since(SimTime::ZERO) < CHAOS_TICK {
        return Err(format!(
            "chaos window ends at {until:?} before the first tick at {CHAOS_TICK:?}: \
             no fault can ever fire"
        ));
    }
    Ok(())
}

type RebootHook = Box<dyn FnMut(&mut Scheduler)>;

struct Inner {
    net: Network,
    hosts: BTreeMap<String, Host>,
    probes: BTreeMap<String, ServerProbe>,
    monitors: BTreeMap<String, SystemMonitor>,
    wizard: Option<Wizard>,
    /// Saved cut sets of named partitions.
    partitions: BTreeMap<String, Vec<LinkId>>,
    /// Hooks fired after a host reboots (keyed by lowercase host name) —
    /// how a service learns it may re-bind.
    reboot_hooks: BTreeMap<String, Vec<RebootHook>>,
    rng: StdRng,
}

/// The fault-injection engine. Clones share state.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Rc<RefCell<Inner>>,
}

impl FaultInjector {
    /// Create an injector over `net`, deriving the chaos RNG from the
    /// experiment seed (label-separated from every other RNG stream).
    pub fn new(net: Network, seed: u64) -> FaultInjector {
        FaultInjector {
            inner: Rc::new(RefCell::new(Inner {
                net,
                hosts: BTreeMap::new(),
                probes: BTreeMap::new(),
                monitors: BTreeMap::new(),
                wizard: None,
                partitions: BTreeMap::new(),
                reboot_hooks: BTreeMap::new(),
                rng: simrng::derive(seed, "smartsock-faults"),
            })),
        }
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Register a simulated host so `HostCrash`/`HostReboot` reach its
    /// CPU/memory state, not just its network node.
    pub fn register_host(&self, host: Host) {
        let name = host.name().as_str().to_ascii_lowercase();
        self.inner.borrow_mut().hosts.insert(name, host);
    }

    /// Register the probe daemon running on `host`.
    pub fn register_probe(&self, host: &str, probe: ServerProbe) {
        self.inner.borrow_mut().probes.insert(host.to_ascii_lowercase(), probe);
    }

    /// Register the system monitor running on `host`.
    pub fn register_monitor(&self, host: &str, monitor: SystemMonitor) {
        self.inner.borrow_mut().monitors.insert(host.to_ascii_lowercase(), monitor);
    }

    /// Register the wizard. A `HostCrash` of the machine whose IP the
    /// wizard is bound to takes it down too.
    pub fn register_wizard(&self, wizard: Wizard) {
        self.inner.borrow_mut().wizard = Some(wizard);
    }

    /// Run `hook` every time the named host reboots — the hook point for
    /// re-binding services.
    pub fn on_reboot(&self, host: &str, hook: impl FnMut(&mut Scheduler) + 'static) {
        self.inner
            .borrow_mut()
            .reboot_hooks
            .entry(host.to_ascii_lowercase())
            .or_default()
            .push(Box::new(hook));
    }

    // ------------------------------------------------------------------
    // Scripted plans
    // ------------------------------------------------------------------

    /// Schedule every fault of `plan` on the scheduler.
    pub fn schedule(&self, s: &mut Scheduler, plan: &FaultPlan) {
        for (t, kind) in plan.events.clone() {
            let inj = self.clone();
            s.schedule_at(t, move |s| inj.apply(s, &kind));
        }
    }

    /// Apply one fault right now. Every application lands in the telemetry
    /// trace as a `fault-injected` or `fault-recovered` event (attrs:
    /// `kind`, `target`), so failover timelines are reconstructible from
    /// the exported JSONL without counter archaeology.
    pub fn apply(&self, s: &mut Scheduler, kind: &FaultKind) {
        s.telemetry.counter_incr("faults-applied");
        match kind {
            FaultKind::LinkDown { a, b } => {
                s.telemetry.counter_incr("faults-link-down");
                let target = format!("{a}<->{b}");
                s.telemetry.event(
                    "fault-injected",
                    a,
                    &[("kind", "link-down"), ("target", &target)],
                );
                let (na, nb) = (self.resolve(a), self.resolve(b));
                self.net().set_link_up_between(s, na, nb, false);
            }
            FaultKind::LinkUp { a, b } => {
                s.telemetry.counter_incr("faults-link-up");
                let target = format!("{a}<->{b}");
                s.telemetry.event(
                    "fault-recovered",
                    a,
                    &[("kind", "link-up"), ("target", &target)],
                );
                let (na, nb) = (self.resolve(a), self.resolve(b));
                self.net().set_link_up_between(s, na, nb, true);
            }
            FaultKind::HostCrash { host } => self.crash_host(s, host),
            FaultKind::HostReboot { host } => self.reboot_host(s, host),
            FaultKind::Partition { name, side_a, side_b } => {
                self.partition(s, name, side_a, side_b);
            }
            FaultKind::Heal { name } => self.heal(s, name),
            FaultKind::DaemonKill { daemon } => self.daemon_kill(s, daemon),
            FaultKind::DaemonRestart { daemon } => self.daemon_restart(s, daemon),
            FaultKind::LossSpike { a, b, prob } => {
                s.telemetry.counter_incr("faults-loss-spikes");
                let target = format!("{a}<->{b}");
                let prob_text = format!("{prob:.4}");
                s.telemetry.event(
                    "fault-injected",
                    a,
                    &[("kind", "loss-spike"), ("target", &target), ("prob", &prob_text)],
                );
                let (na, nb) = (self.resolve(a), self.resolve(b));
                self.net().set_link_loss_between(na, nb, Some(*prob));
            }
            FaultKind::LossClear { a, b } => {
                let target = format!("{a}<->{b}");
                s.telemetry.event(
                    "fault-recovered",
                    a,
                    &[("kind", "loss-clear"), ("target", &target)],
                );
                let (na, nb) = (self.resolve(a), self.resolve(b));
                self.net().set_link_loss_between(na, nb, None);
            }
            FaultKind::LatencySpike { a, b, extra } => {
                s.telemetry.counter_incr("faults-latency-spikes");
                let target = format!("{a}<->{b}");
                let extra_ns = extra.as_nanos().to_string();
                s.telemetry.event(
                    "fault-injected",
                    a,
                    &[("kind", "latency-spike"), ("target", &target), ("extra-ns", &extra_ns)],
                );
                let (na, nb) = (self.resolve(a), self.resolve(b));
                self.net().set_link_extra_delay_between(na, nb, Some(*extra));
            }
            FaultKind::LatencyClear { a, b } => {
                let target = format!("{a}<->{b}");
                s.telemetry.event(
                    "fault-recovered",
                    a,
                    &[("kind", "latency-clear"), ("target", &target)],
                );
                let (na, nb) = (self.resolve(a), self.resolve(b));
                self.net().set_link_extra_delay_between(na, nb, None);
            }
        }
    }

    // ------------------------------------------------------------------
    // Composite faults
    // ------------------------------------------------------------------

    fn crash_host(&self, s: &mut Scheduler, host: &str) {
        s.telemetry.counter_incr("faults-host-crashes");
        s.telemetry.event("fault-injected", host, &[("kind", "host-crash"), ("target", host)]);
        let key = host.to_ascii_lowercase();
        let node = self.resolve(host);
        let (probe, monitor, wizard, sim_host, net) = self.units_on(&key, node);
        // Daemons die first (they stop rescheduling), then the machine.
        if let Some(p) = probe {
            p.stop();
        }
        if let Some(m) = monitor {
            m.stop(&net);
        }
        if let Some(w) = wizard {
            w.stop();
        }
        if let Some(h) = sim_host {
            h.crash(s);
        }
        net.crash_node(s, node);
    }

    fn reboot_host(&self, s: &mut Scheduler, host: &str) {
        s.telemetry.counter_incr("faults-host-reboots");
        s.telemetry.event("fault-recovered", host, &[("kind", "host-reboot"), ("target", host)]);
        let key = host.to_ascii_lowercase();
        let node = self.resolve(host);
        let (probe, monitor, wizard, sim_host, net) = self.units_on(&key, node);
        net.revive_node(s, node);
        if let Some(h) = sim_host {
            h.reboot(s);
        }
        if let Some(p) = probe {
            p.restart(s);
        }
        if let Some(m) = monitor {
            m.restart(s, &net);
        }
        if let Some(w) = wizard {
            w.restart(s);
        }
        // Hooks run last: daemons are back, services can re-bind.
        let mut hooks = self.inner.borrow_mut().reboot_hooks.remove(&key).unwrap_or_default();
        for hook in hooks.iter_mut() {
            hook(s);
        }
        if !hooks.is_empty() {
            self.inner.borrow_mut().reboot_hooks.entry(key).or_default().extend(hooks);
        }
    }

    /// Everything registered as running on the host `key` / node `node`.
    fn units_on(
        &self,
        key: &str,
        node: NodeId,
    ) -> (Option<ServerProbe>, Option<SystemMonitor>, Option<Wizard>, Option<Host>, Network) {
        let inner = self.inner.borrow();
        (
            inner.probes.get(key).cloned(),
            inner.monitors.get(key).cloned(),
            inner.wizard.clone().filter(|w| inner.net.node_by_ip(w.endpoint().ip) == Some(node)),
            inner.hosts.get(key).cloned(),
            inner.net.clone(),
        )
    }

    /// Cut the two groups apart: every link used by some inter-group path
    /// but by no intra-group path goes down, and the cut set is remembered
    /// under `name` for [`FaultKind::Heal`].
    fn partition(&self, s: &mut Scheduler, name: &str, side_a: &[String], side_b: &[String]) {
        s.telemetry.counter_incr("faults-partitions");
        s.telemetry.event("fault-injected", name, &[("kind", "partition"), ("target", name)]);
        let a_nodes: Vec<NodeId> = side_a.iter().map(|h| self.resolve(h)).collect();
        let b_nodes: Vec<NodeId> = side_b.iter().map(|h| self.resolve(h)).collect();
        let net = self.net();
        let collect = |set: &mut BTreeSet<LinkId>, x: NodeId, y: NodeId| {
            if let Some(links) = net.path_links(x, y) {
                set.extend(links);
            }
        };
        let mut inter = BTreeSet::new();
        for &x in &a_nodes {
            for &y in &b_nodes {
                collect(&mut inter, x, y);
                collect(&mut inter, y, x);
            }
        }
        let mut intra = BTreeSet::new();
        for group in [&a_nodes, &b_nodes] {
            for &x in group.iter() {
                for &y in group.iter() {
                    if x != y {
                        collect(&mut intra, x, y);
                    }
                }
            }
        }
        let cut: Vec<LinkId> = inter.difference(&intra).copied().collect();
        net.set_links_up(s, &cut, false);
        self.inner.borrow_mut().partitions.insert(name.to_owned(), cut);
    }

    fn heal(&self, s: &mut Scheduler, name: &str) {
        s.telemetry.counter_incr("faults-heals");
        s.telemetry.event("fault-recovered", name, &[("kind", "heal"), ("target", name)]);
        let cut = self.inner.borrow_mut().partitions.remove(name);
        if let Some(cut) = cut {
            self.net().set_links_up(s, &cut, true);
        }
    }

    /// `(host-for-the-timeline, target-description)` of a daemon.
    fn daemon_label(daemon: &Daemon) -> (String, String) {
        match daemon {
            Daemon::Probe(host) => (host.clone(), format!("probe@{host}")),
            Daemon::Monitor(host) => (host.clone(), format!("monitor@{host}")),
            Daemon::Wizard => ("wizard".to_owned(), "wizard".to_owned()),
        }
    }

    fn daemon_kill(&self, s: &mut Scheduler, daemon: &Daemon) {
        s.telemetry.counter_incr("faults-daemon-kills");
        let (host, target) = Self::daemon_label(daemon);
        s.telemetry.event("fault-injected", &host, &[("kind", "daemon-kill"), ("target", &target)]);
        match daemon {
            Daemon::Probe(host) => {
                let p = self.inner.borrow().probes.get(&host.to_ascii_lowercase()).cloned();
                if let Some(p) = p {
                    p.stop();
                }
            }
            Daemon::Monitor(host) => {
                let (m, net) = {
                    let inner = self.inner.borrow();
                    (inner.monitors.get(&host.to_ascii_lowercase()).cloned(), inner.net.clone())
                };
                if let Some(m) = m {
                    m.stop(&net);
                }
            }
            Daemon::Wizard => {
                let w = self.inner.borrow().wizard.clone();
                if let Some(w) = w {
                    w.stop();
                }
            }
        }
    }

    fn daemon_restart(&self, s: &mut Scheduler, daemon: &Daemon) {
        s.telemetry.counter_incr("faults-daemon-restarts");
        let (host, target) = Self::daemon_label(daemon);
        s.telemetry.event(
            "fault-recovered",
            &host,
            &[("kind", "daemon-restart"), ("target", &target)],
        );
        match daemon {
            Daemon::Probe(host) => {
                let p = self.inner.borrow().probes.get(&host.to_ascii_lowercase()).cloned();
                if let Some(p) = p {
                    p.restart(s);
                }
            }
            Daemon::Monitor(host) => {
                let (m, net) = {
                    let inner = self.inner.borrow();
                    (inner.monitors.get(&host.to_ascii_lowercase()).cloned(), inner.net.clone())
                };
                if let Some(m) = m {
                    m.restart(s, &net);
                }
            }
            Daemon::Wizard => {
                let w = self.inner.borrow().wizard.clone();
                if let Some(w) = w {
                    w.restart(s);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // ChaosRng mode
    // ------------------------------------------------------------------

    /// Start sampling faults at the gentle per-tick rates until `until`.
    /// Every sampled fault schedules its own recovery, so by
    /// `until + CHAOS_OUTAGE.1` (6 s) the system is fault-free again.
    /// Reproducible from the injector's seed; different seeds produce
    /// different timings.
    ///
    /// # Panics
    ///
    /// Panics if `until` is before the first 1 s tick — a window that
    /// could never inject anything is a bug at the call site, not a run to
    /// quietly report clean.
    pub fn chaos(&self, s: &mut Scheduler, until: SimTime) {
        if let Err(why) = check_chaos_window(until) {
            panic!("invalid chaos window: {why}");
        }
        let inj = self.clone();
        s.schedule_in(CHAOS_TICK, move |s| inj.chaos_tick(s, until));
    }

    fn chaos_tick(&self, s: &mut Scheduler, until: SimTime) {
        if s.now() > until {
            return;
        }
        s.telemetry.counter_incr("faults-chaos-ticks");

        if self.roll(HOST_CRASH_PROB) {
            let up = self.pick_host(|inj, h| {
                inj.net().node_by_name(h).is_some_and(|n| inj.net().node_up(n))
            });
            if let Some(victim) = up {
                self.apply(s, &FaultKind::HostCrash { host: victim.clone() });
                let recover_at = self.outage_end(s);
                let inj = self.clone();
                s.schedule_at(recover_at, move |s| {
                    inj.apply(s, &FaultKind::HostReboot { host: victim.clone() });
                });
            }
        }
        if self.roll(LINK_DOWN_PROB) {
            // Only flap access links of hosts that are up and whose link is
            // currently up — no double-cuts, no cutting under a crash.
            let flappable = self.pick_host(|inj, h| {
                let net = inj.net();
                let Some(node) = net.node_by_name(h) else { return false };
                net.node_up(node)
                    && net
                        .links_between(node, inj.access_peer(node))
                        .iter()
                        .all(|&l| net.link_up(l))
            });
            if let Some(victim) = flappable {
                let node = self.resolve(&victim);
                let peer = self.net().name_of(self.access_peer(node)).as_str().to_owned();
                self.apply(s, &FaultKind::LinkDown { a: victim.clone(), b: peer.clone() });
                let recover_at = self.outage_end(s);
                let inj = self.clone();
                s.schedule_at(recover_at, move |s| {
                    inj.apply(s, &FaultKind::LinkUp { a: victim.clone(), b: peer.clone() });
                });
            }
        }
        if self.roll(DAEMON_KILL_PROB) {
            let running = self.pick_host(|inj, h| {
                inj.inner.borrow().probes.get(h).is_some_and(ServerProbe::is_running)
            });
            if let Some(victim) = running {
                self.apply(s, &FaultKind::DaemonKill { daemon: Daemon::Probe(victim.clone()) });
                let recover_at = self.outage_end(s);
                let inj = self.clone();
                s.schedule_at(recover_at, move |s| {
                    inj.apply(
                        s,
                        &FaultKind::DaemonRestart { daemon: Daemon::Probe(victim.clone()) },
                    );
                });
            }
        }
        if self.roll(LOSS_SPIKE_PROB) {
            if let Some(victim) = self.pick_host(|inj, h| inj.net().node_by_name(h).is_some()) {
                let node = self.resolve(&victim);
                let peer = self.net().name_of(self.access_peer(node)).as_str().to_owned();
                let prob = self.inner.borrow_mut().rng.gen_range(0.05..0.4);
                self.apply(s, &FaultKind::LossSpike { a: victim.clone(), b: peer.clone(), prob });
                let recover_at = self.outage_end(s);
                let inj = self.clone();
                s.schedule_at(recover_at, move |s| {
                    inj.apply(s, &FaultKind::LossClear { a: victim.clone(), b: peer.clone() });
                });
            }
        }

        let inj = self.clone();
        s.schedule_in(CHAOS_TICK, move |s| inj.chaos_tick(s, until));
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn net(&self) -> Network {
        self.inner.borrow().net.clone()
    }

    fn resolve(&self, designator: &str) -> NodeId {
        self.net().resolve(designator).unwrap_or_else(|| panic!("unknown host/node {designator:?}"))
    }

    /// The far end of `node`'s first hop toward any other host — its
    /// access switch (every testbed host has exactly one uplink).
    fn access_peer(&self, node: NodeId) -> NodeId {
        let net = self.net();
        for other in net.hosts() {
            if other == node {
                continue;
            }
            if let Some(links) = net.path_links(node, other) {
                if let Some(&first) = links.first() {
                    return net.link_endpoints(first).1;
                }
            }
        }
        panic!("node {node} has no path to any other host");
    }

    fn roll(&self, prob: f64) -> bool {
        self.inner.borrow_mut().rng.gen_range(0.0..1.0) < prob
    }

    /// Deterministically pick one registered host satisfying `keep`
    /// (uniform over the name-sorted candidate list).
    fn pick_host(&self, keep: impl Fn(&FaultInjector, &str) -> bool) -> Option<String> {
        let names: Vec<String> = self.inner.borrow().hosts.keys().cloned().collect();
        let candidates: Vec<String> = names.into_iter().filter(|h| keep(self, h)).collect();
        if candidates.is_empty() {
            return None;
        }
        let idx = self.inner.borrow_mut().rng.gen_range(0..candidates.len());
        Some(candidates[idx].clone())
    }

    fn outage_end(&self, s: &Scheduler) -> SimTime {
        let (lo, hi) = CHAOS_OUTAGE;
        let extra = self.inner.borrow_mut().rng.gen_range(0..hi.as_nanos() - lo.as_nanos());
        s.now() + lo + SimDuration::from_nanos(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_hostsim::{CpuModel, HostConfig};
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::Ip;

    /// Two segments behind a core router: h1,h2 — sw1 — core — sw2 — h3,h4.
    fn rig(seed: u64) -> (Scheduler, Network, FaultInjector) {
        let mut b = NetworkBuilder::new(seed);
        let core = b.router("core", Ip::new(10, 0, 0, 254));
        let sw1 = b.router("sw1", Ip::new(10, 0, 1, 254));
        let sw2 = b.router("sw2", Ip::new(10, 0, 2, 254));
        b.duplex(sw1, core, LinkParams::lan_100mbps());
        b.duplex(sw2, core, LinkParams::lan_100mbps());
        let mut ips = Vec::new();
        for (i, name) in ["h1", "h2", "h3", "h4"].iter().enumerate() {
            let seg = if i < 2 { 1 } else { 2 };
            let ip = Ip::new(10, 0, seg, 10 + i as u8);
            let n = b.host(name, ip, HostParams::testbed());
            b.duplex(n, if i < 2 { sw1 } else { sw2 }, LinkParams::lan_100mbps());
            ips.push(ip);
        }
        let net = b.build();
        let inj = FaultInjector::new(net.clone(), seed);
        for (i, name) in ["h1", "h2", "h3", "h4"].iter().enumerate() {
            inj.register_host(Host::new(HostConfig::new(name, ips[i], CpuModel::P3_866, 512)));
        }
        (Scheduler::new(), net, inj)
    }

    fn ip_of(net: &Network, name: &str) -> Ip {
        let node = net.node_by_name(name).unwrap();
        net.ip_of(node)
    }

    #[test]
    fn scripted_plan_cuts_and_restores_links_at_exact_times() {
        let (mut s, net, inj) = rig(3);
        let plan = FaultPlan::new()
            .at_secs(1, FaultKind::LinkDown { a: "h1".into(), b: "sw1".into() })
            .at_secs(3, FaultKind::LinkUp { a: "h1".into(), b: "sw1".into() });
        inj.schedule(&mut s, &plan);
        let (h1, h3) = (ip_of(&net, "h1"), ip_of(&net, "h3"));
        assert!(net.reachable(h1, h3));
        s.run_until(SimTime::from_secs(2));
        assert!(!net.reachable(h1, h3), "link is down between the plan's events");
        s.run_until(SimTime::from_secs(4));
        assert!(net.reachable(h1, h3), "restored after LinkUp");
        assert_eq!(s.telemetry.counter("faults-link-down"), 1);
        assert_eq!(s.telemetry.counter("faults-link-up"), 1);
        assert_eq!(s.telemetry.counter("faults-applied"), 2);
    }

    #[test]
    fn partition_cut_spares_intra_side_links_and_heal_restores() {
        let (mut s, net, inj) = rig(5);
        inj.apply(
            &mut s,
            &FaultKind::Partition {
                name: "split".into(),
                side_a: vec!["h1".into(), "h2".into()],
                side_b: vec!["h3".into(), "h4".into()],
            },
        );
        let (h1, h2, h3, h4) =
            (ip_of(&net, "h1"), ip_of(&net, "h2"), ip_of(&net, "h3"), ip_of(&net, "h4"));
        assert!(net.reachable(h1, h2), "intra-side traffic survives the cut");
        assert!(net.reachable(h3, h4), "intra-side traffic survives the cut");
        assert!(!net.reachable(h1, h3));
        assert!(!net.reachable(h4, h2));
        inj.apply(&mut s, &FaultKind::Heal { name: "split".into() });
        assert!(net.reachable(h1, h3));
        assert!(net.reachable(h4, h2));
        assert_eq!(s.telemetry.counter("faults-partitions"), 1);
        assert_eq!(s.telemetry.counter("faults-heals"), 1);
    }

    #[test]
    fn overlapping_same_host_faults_apply_in_insertion_order() {
        // Two contradictory faults on the same link at the same instant:
        // the scheduler is FIFO at equal timestamps, so the last one
        // inserted into the plan decides the final state. Reversing the
        // insertion order flips the outcome — insertion order is part of
        // the deterministic contract, not an accident.
        let outcome = |down_first: bool| -> bool {
            let (mut s, net, inj) = rig(7);
            let down = FaultKind::LinkDown { a: "h1".into(), b: "sw1".into() };
            let up = FaultKind::LinkUp { a: "h1".into(), b: "sw1".into() };
            let plan = if down_first {
                FaultPlan::new().at_secs(2, down).at_secs(2, up)
            } else {
                FaultPlan::new().at_secs(2, up).at_secs(2, down)
            };
            assert_eq!(plan.events().len(), 2);
            inj.schedule(&mut s, &plan);
            s.run_until(SimTime::from_secs(3));
            net.reachable(ip_of(&net, "h1"), ip_of(&net, "h3"))
        };
        assert!(outcome(true), "down-then-up at the same tick leaves the link up");
        assert!(!outcome(false), "up-then-down at the same tick leaves the link down");
    }

    #[test]
    fn flapping_link_generator_emits_paired_cut_and_restore_events() {
        let plan = FaultPlan::new().flapping_link(
            "h1",
            "sw1",
            SimTime::from_secs(5),
            SimTime::from_secs(11),
            SimDuration::from_secs(3),
            SimDuration::from_secs(1),
        );
        // Flaps at t=5 and t=8 (t=11 is excluded): two down/up pairs.
        assert_eq!(plan.len(), 4);
        let downs: Vec<SimTime> = plan
            .events()
            .iter()
            .filter(|(_, k)| matches!(k, FaultKind::LinkDown { .. }))
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(downs, vec![SimTime::from_secs(5), SimTime::from_secs(8)]);
        let (mut s, net, inj) = rig(11);
        inj.schedule(&mut s, &plan);
        let (h1, h3) = (ip_of(&net, "h1"), ip_of(&net, "h3"));
        s.run_until(SimTime::from_secs(5) + SimDuration::from_millis(500));
        assert!(!net.reachable(h1, h3), "down during the first flap");
        s.run_until(SimTime::from_secs(7));
        assert!(net.reachable(h1, h3), "restored between flaps");
        s.run_until(SimTime::from_secs(12));
        assert!(net.reachable(h1, h3), "healthy after the flap window");
    }

    #[test]
    fn straggler_generator_inflates_then_clears_latency() {
        let plan = FaultPlan::new().straggler(
            "h1",
            "sw1",
            SimTime::from_secs(2),
            SimTime::from_secs(6),
            SimDuration::from_secs(1),
        );
        assert_eq!(plan.len(), 2);
        let (mut s, _net, inj) = rig(13);
        inj.schedule(&mut s, &plan);
        s.run_until(SimTime::from_secs(7));
        assert_eq!(s.telemetry.counter("faults-latency-spikes"), 1);
        assert_eq!(s.telemetry.counter("faults-applied"), 2);
    }

    #[test]
    fn chaos_config_validation_rejects_silent_no_ops() {
        assert!(check_chaos_window(SimTime::from_secs(30)).is_ok());
        assert!(check_chaos_window(SimTime::from_secs(1)).is_ok());
        let narrow = check_chaos_window(SimTime::from_secs_f64(0.5));
        assert!(narrow.unwrap_err().contains("no fault can ever fire"));
    }

    #[test]
    #[should_panic(expected = "invalid chaos window")]
    fn chaos_panics_on_an_invalid_config() {
        let (mut s, _net, inj) = rig(17);
        inj.chaos(&mut s, SimTime::from_secs_f64(0.5));
    }

    #[test]
    fn chaos_is_reproducible_from_its_seed() {
        let run = |seed: u64| -> Vec<String> {
            let (mut s, net, inj) = rig(seed);
            inj.chaos(&mut s, SimTime::from_secs(30));
            s.run_until(SimTime::from_secs(40));
            // Every sampled fault scheduled its recovery: the rig converges.
            for name in ["h1", "h2", "h3", "h4"] {
                let node = net.node_by_name(name).unwrap();
                assert!(net.node_up(node), "{name} recovered after chaos ended");
            }
            s.telemetry.export_jsonl().lines().map(str::to_owned).collect()
        };
        let a = run(91);
        assert!(a.iter().any(|m| m.contains("\"faults-applied\"")), "chaos injected something");
        assert_eq!(a, run(91), "same seed, byte-identical metrics");
        assert_ne!(a, run(92), "different seed, different fault history");
    }
}
