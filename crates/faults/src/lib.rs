//! # smartsock-faults
//!
//! Deterministic fault injection for the smartsock simulation.
//!
//! The thesis's fault story (§6) is qualitative: the monitor stops
//! offering dead servers and the library "redirects the failed connection
//! to other running servers". This crate makes that story *testable* by
//! turning faults into first-class, reproducible simulation inputs:
//!
//! * a [`FaultKind`] names one thing that can break — a link, a host, a
//!   partition between two groups, a daemon, a loss spike or a latency
//!   spike — and is either injected ([`FaultInjector::apply`]) or
//!   recovered ([`FaultInjector::recover`]), which undoes exactly what the
//!   injection broke;
//! * a [`FaultPlan`] schedules those halves at exact simulation times
//!   ([`FaultPlan::at`], [`FaultPlan::recover_at`], [`FaultPlan::window`]);
//! * [`FaultInjector::chaos`] mode samples faults at fixed gentle per-tick
//!   rates using the simulation's seeded RNG
//!   ([`smartsock_sim::rng::derive`]) and recovers each after a drawn
//!   outage, so a chaos run is exactly reproducible from its seed and two
//!   different seeds give different fault timings;
//! * the [`FaultInjector`] owns name-keyed registries of every moving part
//!   (network nodes, simulated hosts, probes, monitors, the wizard) and
//!   knows the *composite* meaning of each fault: injecting a `Host` marks
//!   the node down in the network (dropping datagrams, stalling flows,
//!   wiping socket bindings), kills the host's tasks and stops its
//!   daemons; recovering it revives the node, zeroes the procfs counters,
//!   restarts the daemons and fires any registered reboot hooks (e.g.
//!   re-binding a service's stream endpoint).
//!
//! Every half of a fault increments `faults-applied` and lands in the
//! trace as a `fault-injected` or `fault-recovered` event, so two runs
//! with the same seed can be compared byte for byte.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use smartsock_hostsim::Host;
use smartsock_monitor::SystemMonitor;
use smartsock_net::{LinkId, Network, NodeId};
use smartsock_probe::ServerProbe;
use smartsock_sim::rng::{self as simrng, SimRng};
use smartsock_sim::{Scheduler, SimDuration, SimTime};
use smartsock_wizard::Wizard;

/// Which daemon a [`FaultKind::Daemon`] stops and restarts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Daemon {
    /// The server probe on the named host.
    Probe(String),
    /// The wizard.
    Wizard,
}

/// One thing that can break. [`FaultInjector::apply`] injects it and
/// [`FaultInjector::recover`] undoes it.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The duplex link between two adjacent nodes is cut; recovery
    /// restores it.
    Link { a: String, b: String },
    /// A hard host crash: network node down, sockets wiped, tasks killed,
    /// daemons stopped. Recovery reboots it: node revived, procfs counters
    /// zeroed, daemons restarted, reboot hooks fired.
    Host { host: String },
    /// Every link that inter-group paths use but intra-group paths do not
    /// is cut, isolating the two groups from each other; recovery
    /// restores the same links.
    Partition { name: String, side_a: Vec<String>, side_b: Vec<String> },
    /// A daemon stops without touching its machine; recovery restarts it.
    Daemon(Daemon),
    /// A transient loss spike on the duplex link between two adjacent
    /// nodes; recovery restores the link's base loss probability.
    Loss { a: String, b: String, prob: f64 },
    /// Transient extra latency on the duplex link between two nodes;
    /// recovery restores the base propagation delay.
    Latency { a: String, b: String, extra: SimDuration },
}

/// A declarative fault schedule: `(when, fault, recover?)` steps. Two
/// steps at the *same* time run in insertion order (the scheduler is FIFO
/// at equal timestamps), so overlapping same-host faults are
/// deterministic: the last inserted decides the final state.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    steps: Vec<(SimTime, FaultKind, bool)>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Inject `fault` at an absolute simulation time.
    pub fn at(mut self, t: SimTime, fault: FaultKind) -> FaultPlan {
        self.steps.push((t, fault, false));
        self
    }

    /// Recover `fault` at an absolute simulation time.
    pub fn recover_at(mut self, t: SimTime, fault: FaultKind) -> FaultPlan {
        self.steps.push((t, fault, true));
        self
    }

    /// Inject `fault` at `from` and recover it at `until`.
    pub fn window(self, from: SimTime, until: SimTime, fault: FaultKind) -> FaultPlan {
        self.at(from, fault.clone()).recover_at(until, fault)
    }

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
            self = self.window(t, t + down_for, FaultKind::Link { a: a.into(), b: b.into() });
            t += period;
        }
        self
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

/// Reject a chaos window started at `now` that ends before its first
/// sampling tick: no fault could ever fire in it.
fn check_chaos_window(now: SimTime, until: SimTime) -> Result<(), String> {
    let first = now + CHAOS_TICK;
    if until < first {
        return Err(format!(
            "chaos window ends at {until:?} before the first tick at {first:?}: \
             no fault can ever fire"
        ));
    }
    Ok(())
}

/// Count and trace one half of a fault: `faults-applied`, the half's own
/// counter if it has one, and a `fault-injected`/`fault-recovered` event
/// on `host`'s timeline with the `kind`, `target` and `extra` attributes.
fn trace(
    s: &mut Scheduler,
    recover: bool,
    host: &str,
    kind: &'static str,
    counter: Option<&'static str>,
    target: &str,
    extra: Option<(&'static str, String)>,
) {
    s.telemetry.counter_incr("faults-applied");
    if let Some(counter) = counter {
        s.telemetry.counter_incr(counter);
    }
    let mut attrs = vec![("kind", kind), ("target", target)];
    if let Some((key, value)) = &extra {
        attrs.push((*key, value.as_str()));
    }
    let name = if recover { "fault-recovered" } else { "fault-injected" };
    s.telemetry.event(name, host, &attrs);
}

type RebootHook = Box<dyn FnMut(&mut Scheduler)>;

struct Inner {
    net: Network,
    hosts: BTreeMap<String, Host>,
    probes: BTreeMap<String, ServerProbe>,
    monitors: BTreeMap<String, SystemMonitor>,
    wizard: Option<Wizard>,
    /// Hooks fired after a host reboots (keyed by lowercase host name) —
    /// how a service learns it may re-bind.
    reboot_hooks: BTreeMap<String, Vec<RebootHook>>,
    rng: SimRng,
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
                reboot_hooks: BTreeMap::new(),
                rng: simrng::derive(seed, "smartsock-faults"),
            })),
        }
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Register a simulated host so a `Host` fault reaches its CPU/memory
    /// state, not just its network node.
    pub fn register_host(&self, host: Host) {
        let name = host.name().as_str().to_ascii_lowercase();
        self.inner.borrow_mut().hosts.insert(name, host);
    }

    /// Register the probe daemon running on `host`.
    pub fn register_probe(&self, host: &str, probe: ServerProbe) {
        self.inner.borrow_mut().probes.insert(host.to_ascii_lowercase(), probe);
    }

    /// Register the system monitor running on `host`, which a `Host` fault
    /// on that machine stops and restarts.
    pub fn register_monitor(&self, host: &str, monitor: SystemMonitor) {
        self.inner.borrow_mut().monitors.insert(host.to_ascii_lowercase(), monitor);
    }

    /// Register the wizard. A `Host` fault on the machine whose IP the
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
    // Injection and recovery
    // ------------------------------------------------------------------

    /// Schedule every step of `plan` on the scheduler.
    pub fn schedule(&self, s: &mut Scheduler, plan: &FaultPlan) {
        for (t, fault, recover) in plan.steps.clone() {
            let inj = self.clone();
            s.schedule_at(t, move |s| inj.step(s, &fault, recover));
        }
    }

    /// Inject `fault` right now. Each half of a fault lands in the
    /// telemetry trace as a `fault-injected` or `fault-recovered` event
    /// (attrs: `kind`, `target`), so failover timelines are
    /// reconstructible from the exported JSONL without counter archaeology.
    pub fn apply(&self, s: &mut Scheduler, fault: &FaultKind) {
        self.step(s, fault, false);
    }

    /// Recover `fault` right now: undo what [`FaultInjector::apply`] broke.
    pub fn recover(&self, s: &mut Scheduler, fault: &FaultKind) {
        self.step(s, fault, true);
    }

    /// One half of a fault. Each arm names both halves' labels and the
    /// fault's action; `recover` picks the half.
    fn step(&self, s: &mut Scheduler, fault: &FaultKind, recover: bool) {
        let half = |inject: &'static str, undo: &'static str| if recover { undo } else { inject };
        let link = |a: &str, b: &str| format!("{a}<->{b}");
        let net = self.net();
        match fault {
            FaultKind::Link { a, b } => {
                let kind = half("link-down", "link-up");
                let counter = Some(half("faults-link-down", "faults-link-up"));
                trace(s, recover, a, kind, counter, &link(a, b), None);
                net.set_link_up_between(s, self.resolve(a), self.resolve(b), recover);
            }
            FaultKind::Host { host } => {
                let kind = half("host-crash", "host-reboot");
                let counter = Some(half("faults-host-crashes", "faults-host-reboots"));
                trace(s, recover, host, kind, counter, host, None);
                self.host(s, host, recover);
            }
            FaultKind::Partition { name, side_a, side_b } => {
                let kind = half("partition", "heal");
                let counter = Some(half("faults-partitions", "faults-heals"));
                trace(s, recover, name, kind, counter, name, None);
                net.set_links_up(s, &self.cut(side_a, side_b), recover);
            }
            FaultKind::Daemon(daemon) => {
                let kind = half("daemon-kill", "daemon-restart");
                let counter = Some(half("faults-daemon-kills", "faults-daemon-restarts"));
                match daemon {
                    Daemon::Probe(host) => {
                        trace(s, recover, host, kind, counter, &format!("probe@{host}"), None);
                        let probe =
                            self.inner.borrow().probes.get(&host.to_ascii_lowercase()).cloned();
                        match probe {
                            Some(p) if recover => p.restart(s),
                            Some(p) => p.stop(s),
                            None => {}
                        }
                    }
                    Daemon::Wizard => {
                        trace(s, recover, "wizard", kind, counter, "wizard", None);
                        let wizard = self.inner.borrow().wizard.clone();
                        match wizard {
                            Some(w) if recover => w.restart(s),
                            Some(w) => w.stop(s),
                            None => {}
                        }
                    }
                }
            }
            // Only a spike is counted on its own and carries its size.
            FaultKind::Loss { a, b, prob } => {
                let kind = half("loss-spike", "loss-clear");
                let counter = (!recover).then_some("faults-loss-spikes");
                let size = (!recover).then(|| ("prob", format!("{prob:.4}")));
                trace(s, recover, a, kind, counter, &link(a, b), size);
                let loss = (!recover).then_some(*prob);
                net.set_link_loss_between(self.resolve(a), self.resolve(b), loss);
            }
            FaultKind::Latency { a, b, extra } => {
                let kind = half("latency-spike", "latency-clear");
                let counter = (!recover).then_some("faults-latency-spikes");
                let size = (!recover).then(|| ("extra-ns", extra.as_nanos().to_string()));
                trace(s, recover, a, kind, counter, &link(a, b), size);
                let delay = (!recover).then_some(*extra);
                net.set_link_extra_delay_between(self.resolve(a), self.resolve(b), delay);
            }
        }
    }

    /// A host crash stops the host's daemons, then the machine, then its
    /// network node; the reboot brings them back in the opposite order and
    /// fires the reboot hooks last, once services can re-bind.
    fn host(&self, s: &mut Scheduler, host: &str, recover: bool) {
        let key = host.to_ascii_lowercase();
        let node = self.resolve(host);
        let (probe, monitor, wizard, sim_host, net) = {
            let inner = self.inner.borrow();
            (
                inner.probes.get(&key).cloned(),
                inner.monitors.get(&key).cloned(),
                inner
                    .wizard
                    .clone()
                    .filter(|w| inner.net.node_by_ip(w.endpoint().ip) == Some(node)),
                inner.hosts.get(&key).cloned(),
                inner.net.clone(),
            )
        };
        if !recover {
            if let Some(p) = probe {
                p.stop(s);
            }
            if let Some(m) = monitor {
                m.stop(s, &net);
            }
            if let Some(w) = wizard {
                w.stop(s);
            }
            if let Some(h) = sim_host {
                h.crash(s);
            }
            net.crash_node(s, node);
            return;
        }
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
        let mut hooks = self.inner.borrow_mut().reboot_hooks.remove(&key).unwrap_or_default();
        for hook in hooks.iter_mut() {
            hook(s);
        }
        if !hooks.is_empty() {
            self.inner.borrow_mut().reboot_hooks.entry(key).or_default().extend(hooks);
        }
    }

    /// The links a partition between two groups cuts: every link used by
    /// some inter-group path but by no intra-group path. Routing is
    /// static, so the same sides always give the same cut.
    fn cut(&self, side_a: &[String], side_b: &[String]) -> Vec<LinkId> {
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
        inter.difference(&intra).copied().collect()
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
    /// Panics if `until` is before the first tick, 1 s from now — a window
    /// that could never inject anything is a bug at the call site, not a
    /// run to quietly report clean.
    pub fn chaos(&self, s: &mut Scheduler, until: SimTime) {
        if let Err(why) = check_chaos_window(s.now(), until) {
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

        let up = |inj: &FaultInjector, h: &str| {
            let net = inj.net();
            net.node_by_name(h).is_some_and(|n| net.node_up(n))
        };
        if let Some(host) = self.sample(HOST_CRASH_PROB, up) {
            self.outage(s, FaultKind::Host { host });
        }
        let access_link_all = |inj: &FaultInjector, h: &str, ok: fn(&Network, LinkId) -> bool| {
            let net = inj.net();
            let Some(node) = net.node_by_name(h) else { return false };
            net.links_between(node, inj.access_peer(node)).iter().all(|&l| ok(&net, l))
        };
        // Only flap access links of hosts that are up and whose link is
        // currently up — no double-cuts, no cutting under a crash.
        let flappable =
            |inj: &FaultInjector, h: &str| up(inj, h) && access_link_all(inj, h, Network::link_up);
        if let Some(a) = self.sample(LINK_DOWN_PROB, flappable) {
            let b = self.access_peer_name(&a);
            self.outage(s, FaultKind::Link { a, b });
        }
        let running = |inj: &FaultInjector, h: &str| {
            inj.inner.borrow().probes.get(h).is_some_and(ServerProbe::is_running)
        };
        if let Some(host) = self.sample(DAEMON_KILL_PROB, running) {
            self.outage(s, FaultKind::Daemon(Daemon::Probe(host)));
        }
        // Never stack spikes: the first one's clear would end both.
        let unspiked =
            |inj: &FaultInjector, h: &str| access_link_all(inj, h, |n, l| !n.link_loss_spiked(l));
        if let Some(a) = self.sample(LOSS_SPIKE_PROB, unspiked) {
            let b = self.access_peer_name(&a);
            let prob = self.inner.borrow_mut().rng.range(0.05..0.4);
            self.outage(s, FaultKind::Loss { a, b, prob });
        }

        let inj = self.clone();
        s.schedule_in(CHAOS_TICK, move |s| inj.chaos_tick(s, until));
    }

    /// With probability `prob`, deterministically pick one registered host
    /// satisfying `keep` (uniform over the name-sorted candidate list).
    fn sample(&self, prob: f64, keep: impl Fn(&FaultInjector, &str) -> bool) -> Option<String> {
        if self.inner.borrow_mut().rng.unit() >= prob {
            return None;
        }
        let names: Vec<String> = self.inner.borrow().hosts.keys().cloned().collect();
        let candidates: Vec<String> = names.into_iter().filter(|h| keep(self, h)).collect();
        if candidates.is_empty() {
            return None;
        }
        let idx = self.inner.borrow_mut().rng.below(candidates.len() as u64) as usize;
        Some(candidates[idx].clone())
    }

    /// Inject `fault` now and recover it after a uniform draw from
    /// `CHAOS_OUTAGE`.
    fn outage(&self, s: &mut Scheduler, fault: FaultKind) {
        self.apply(s, &fault);
        let (lo, hi) = CHAOS_OUTAGE;
        let extra = self.inner.borrow_mut().rng.below(hi.as_nanos() - lo.as_nanos());
        let inj = self.clone();
        s.schedule_at(s.now() + lo + SimDuration::from_nanos(extra), move |s| {
            inj.recover(s, &fault);
        });
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

    fn access_peer_name(&self, host: &str) -> String {
        self.net().name_of(self.access_peer(self.resolve(host))).as_str().to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_hostsim::{CpuModel, HostConfig};
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder, Payload};
    use smartsock_probe::ProbeConfig;
    use smartsock_proto::{Endpoint, Ip};
    use smartsock_wizard::WizardConfig;

    const HOSTS: [&str; 4] = ["h1", "h2", "h3", "h4"];

    /// Two segments behind a core router: h1,h2 — sw1 — core — sw2 — h3,h4.
    fn rig(seed: u64) -> (Scheduler, Network, FaultInjector) {
        let mut b = NetworkBuilder::new(seed);
        let core = b.router("core", Ip::new(10, 0, 0, 254));
        let sw1 = b.router("sw1", Ip::new(10, 0, 1, 254));
        let sw2 = b.router("sw2", Ip::new(10, 0, 2, 254));
        b.duplex(sw1, core, LinkParams::lan_100mbps());
        b.duplex(sw2, core, LinkParams::lan_100mbps());
        let mut ips = Vec::new();
        for (i, name) in HOSTS.iter().enumerate() {
            let seg = if i < 2 { 1 } else { 2 };
            let ip = Ip::new(10, 0, seg, 10 + i as u8);
            let n = b.host(name, ip, HostParams::testbed());
            b.duplex(n, if i < 2 { sw1 } else { sw2 }, LinkParams::lan_100mbps());
            ips.push(ip);
        }
        let net = b.build();
        let inj = FaultInjector::new(net.clone(), seed);
        for (i, name) in HOSTS.iter().enumerate() {
            inj.register_host(Host::new(HostConfig::new(name, ips[i], CpuModel::P3_866, 512)));
        }
        (Scheduler::new(), net, inj)
    }

    fn ip_of(net: &Network, name: &str) -> Ip {
        let node = net.node_by_name(name).unwrap();
        net.ip_of(node)
    }

    fn link(a: &str, b: &str) -> FaultKind {
        FaultKind::Link { a: a.into(), b: b.into() }
    }

    #[test]
    fn scripted_plan_cuts_and_restores_links_at_exact_times() {
        let (mut s, net, inj) = rig(3);
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(1), link("h1", "sw1"))
            .recover_at(SimTime::from_secs(3), link("h1", "sw1"));
        inj.schedule(&mut s, &plan);
        let (h1, h3) = (ip_of(&net, "h1"), ip_of(&net, "h3"));
        assert!(net.reachable(h1, h3));
        s.run_until(SimTime::from_secs(2));
        assert!(!net.reachable(h1, h3), "link is down between the plan's steps");
        s.run_until(SimTime::from_secs(4));
        assert!(net.reachable(h1, h3), "restored by the recovery");
        assert_eq!(s.telemetry.counter("faults-link-down"), 1);
        assert_eq!(s.telemetry.counter("faults-link-up"), 1);
        assert_eq!(s.telemetry.counter("faults-applied"), 2);
    }

    #[test]
    fn partition_cut_spares_intra_side_links_and_heal_restores() {
        let (mut s, net, inj) = rig(5);
        let split = FaultKind::Partition {
            name: "split".into(),
            side_a: vec!["h1".into(), "h2".into()],
            side_b: vec!["h3".into(), "h4".into()],
        };
        inj.apply(&mut s, &split);
        let (h1, h2, h3, h4) =
            (ip_of(&net, "h1"), ip_of(&net, "h2"), ip_of(&net, "h3"), ip_of(&net, "h4"));
        assert!(net.reachable(h1, h2), "intra-side traffic survives the cut");
        assert!(net.reachable(h3, h4), "intra-side traffic survives the cut");
        assert!(!net.reachable(h1, h3));
        assert!(!net.reachable(h4, h2));
        inj.recover(&mut s, &split);
        assert!(net.reachable(h1, h3));
        assert!(net.reachable(h4, h2));
        assert_eq!(s.telemetry.counter("faults-partitions"), 1);
        assert_eq!(s.telemetry.counter("faults-heals"), 1);
    }

    #[test]
    fn overlapping_same_host_faults_apply_in_insertion_order() {
        // Contradictory steps on the same link at the same instant: the
        // scheduler is FIFO at equal timestamps, so the last one inserted
        // into the plan decides the final state. Reversing the insertion
        // order flips the outcome — insertion order is part of the
        // deterministic contract, not an accident.
        let outcome = |down_first: bool| -> bool {
            let (mut s, net, inj) = rig(7);
            let t = SimTime::from_secs(2);
            let plan = if down_first {
                FaultPlan::new().at(t, link("h1", "sw1")).recover_at(t, link("h1", "sw1"))
            } else {
                FaultPlan::new().recover_at(t, link("h1", "sw1")).at(t, link("h1", "sw1"))
            };
            assert_eq!(plan.steps.len(), 2);
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
        assert_eq!(plan.steps.len(), 4);
        let downs: Vec<SimTime> =
            plan.steps.iter().filter(|(_, _, recover)| !recover).map(|&(t, _, _)| t).collect();
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
    fn window_injects_then_recovers_a_latency_spike() {
        let spike = FaultKind::Latency {
            a: "h1".into(),
            b: "sw1".into(),
            extra: SimDuration::from_secs(1),
        };
        let plan = FaultPlan::new().window(SimTime::from_secs(2), SimTime::from_secs(6), spike);
        assert_eq!(plan.steps.len(), 2);
        let (mut s, _net, inj) = rig(13);
        inj.schedule(&mut s, &plan);
        s.run_until(SimTime::from_secs(7));
        assert_eq!(s.telemetry.counter("faults-latency-spikes"), 1);
        assert_eq!(s.telemetry.counter("faults-applied"), 2);
    }

    /// What a fault can change: both-way reachability, base RTT and node
    /// state of every host pair, whether h1's probe runs, and how many of
    /// ten datagrams from h1 reach h3.
    fn observe(s: &mut Scheduler, net: &Network, probe: &ServerProbe) -> (Vec<String>, bool, u32) {
        let mut pairs = Vec::new();
        for x in HOSTS {
            for y in HOSTS {
                let (nx, ny) = (net.node_by_name(x).unwrap(), net.node_by_name(y).unwrap());
                let (ix, iy) = (ip_of(net, x), ip_of(net, y));
                pairs.push(format!(
                    "{x}->{y}: {} {} {:?} {} {}",
                    net.reachable(ix, iy),
                    net.reachable(iy, ix),
                    net.base_rtt(nx, ny),
                    net.node_up(nx),
                    net.node_up(ny)
                ));
            }
        }
        let got = Rc::new(RefCell::new(0u32));
        let to = Endpoint::new(ip_of(net, "h3"), 7000);
        let seen = Rc::clone(&got);
        net.bind_udp(to, move |_s, _d| *seen.borrow_mut() += 1);
        let from = Endpoint::new(ip_of(net, "h1"), 7001);
        for _ in 0..10 {
            net.send_udp(s, from, to, Payload::data(vec![0u8; 64]), None);
        }
        s.run_until(s.now() + SimDuration::from_secs(1));
        net.unbind_udp(to);
        let delivered = *got.borrow();
        (pairs, probe.is_running(), delivered)
    }

    #[test]
    fn recovery_undoes_injection_for_every_fault() {
        let faults = [
            link("h1", "sw1"),
            FaultKind::Host { host: "h1".into() },
            FaultKind::Partition {
                name: "split".into(),
                side_a: vec!["h1".into(), "h2".into()],
                side_b: vec!["h3".into(), "h4".into()],
            },
            FaultKind::Daemon(Daemon::Probe("h1".into())),
            FaultKind::Loss { a: "h1".into(), b: "sw1".into(), prob: 1.0 },
            FaultKind::Latency {
                a: "h1".into(),
                b: "sw1".into(),
                extra: SimDuration::from_millis(50),
            },
        ];
        for fault in faults {
            let (mut s, net, inj) = rig(19);
            let h1 = Host::new(HostConfig::new("h1", ip_of(&net, "h1"), CpuModel::P3_866, 512));
            inj.register_host(h1.clone());
            let probe = ServerProbe::new(h1, net.clone(), ProbeConfig::new(ip_of(&net, "h4")));
            probe.start(&mut s);
            inj.register_probe("h1", probe.clone());

            let before = observe(&mut s, &net, &probe);
            assert_eq!(before.2, 10, "the rig loses nothing");
            inj.apply(&mut s, &fault);
            assert_ne!(observe(&mut s, &net, &probe), before, "{fault:?} changed nothing");
            inj.recover(&mut s, &fault);
            assert_eq!(observe(&mut s, &net, &probe), before, "{fault:?} outlived its recovery");
        }
    }

    /// The injector's own path, as the experiments drive it: a daemon kill
    /// and a host crash, each with its recovery, leave exactly one pending
    /// tick per daemon they touch, and the probes report once per interval
    /// again afterwards.
    #[test]
    fn each_stop_and_restart_leaves_one_pending_tick_per_daemon() {
        let (mut s, net, inj) = rig(23);
        let (h1, h4) = (ip_of(&net, "h1"), ip_of(&net, "h4"));
        let monitor = SystemMonitor::new(h4, Rc::default(), SimDuration::from_secs(2));
        monitor.start(&mut s, &net);
        inj.register_monitor("h4", monitor);
        let wizard = Wizard::new(h4, net.clone(), WizardConfig::default());
        wizard.start(&mut s);
        inj.register_wizard(wizard);
        let mut probes = Vec::new();
        for (name, ip) in [("h1", h1), ("h4", h4)] {
            let host = Host::new(HostConfig::new(name, ip, CpuModel::P3_866, 512));
            inj.register_host(host.clone());
            let probe = ServerProbe::new(host, net.clone(), ProbeConfig::new(h4));
            probe.start(&mut s);
            inj.register_probe(name, probe.clone());
            probes.push(probe);
        }
        // Between ticks nothing is in flight: four daemons, four ticks.
        s.run_until(SimTime::from_secs(5));
        assert_eq!(s.pending(), 4);

        let kill = FaultKind::Daemon(Daemon::Probe("h1".into()));
        inj.apply(&mut s, &kill);
        assert_eq!(s.pending(), 3, "the killed probe holds no tick");
        inj.recover(&mut s, &kill);
        assert_eq!(s.pending(), 4, "its restart arms exactly one");

        let crash = FaultKind::Host { host: "h4".into() };
        inj.apply(&mut s, &crash);
        assert_eq!(s.pending(), 1, "h4's probe, monitor and wizard hold no tick");
        inj.recover(&mut s, &crash);
        assert_eq!(s.pending(), 4, "the reboot restarts each with exactly one");

        let sent: Vec<u64> = probes.iter().map(ServerProbe::reports_sent).collect();
        let received = s.telemetry.counter("sysmon-reports");
        s.run_until(SimTime::from_secs(16)); // t=7,9,11,13,15
        for (probe, before) in probes.iter().zip(sent) {
            assert_eq!(probe.reports_sent() - before, 5, "one report per interval");
        }
        assert_eq!(s.telemetry.counter("sysmon-reports") - received, 10, "all reach the monitor");
    }

    #[test]
    fn chaos_config_validation_rejects_silent_no_ops() {
        let t0 = SimTime::ZERO;
        assert!(check_chaos_window(t0, SimTime::from_secs(30)).is_ok());
        assert!(check_chaos_window(t0, SimTime::from_secs(1)).is_ok());
        let narrow = check_chaos_window(t0, SimTime::from_secs_f64(0.5));
        assert!(narrow.unwrap_err().contains("no fault can ever fire"));
    }

    #[test]
    #[should_panic(expected = "invalid chaos window")]
    fn chaos_panics_on_an_invalid_config() {
        let (mut s, _net, inj) = rig(17);
        inj.chaos(&mut s, SimTime::from_secs_f64(0.5));
    }

    #[test]
    #[should_panic(expected = "invalid chaos window")]
    fn chaos_window_is_counted_from_now() {
        let (mut s, _net, inj) = rig(17);
        s.run_until(SimTime::from_secs(30));
        inj.chaos(&mut s, SimTime::from_secs_f64(30.5));
    }

    #[test]
    fn chaos_never_stacks_two_loss_spikes_on_one_link() {
        for seed in 1..=60 {
            let (mut s, _net, inj) = rig(seed);
            inj.chaos(&mut s, SimTime::from_secs(60));
            s.run_until(SimTime::from_secs(70));
            // (time, spike?, link): at one instant a clear sorts first.
            let mut halves: Vec<(u64, bool, String)> = Vec::new();
            for (name, kind, spike) in
                [("fault-injected", "loss-spike", true), ("fault-recovered", "loss-clear", false)]
            {
                for e in s.telemetry.events_named(name) {
                    if e.attr("kind") == Some(kind) {
                        halves.push((e.at_ns, spike, e.attr("target").unwrap().to_owned()));
                    }
                }
            }
            halves.sort();
            let mut spiked = BTreeSet::new();
            for (at, spike, link) in halves {
                if spike {
                    assert!(
                        spiked.insert(link.clone()),
                        "seed {seed}: {link} spiked twice at {at} ns"
                    );
                } else {
                    spiked.remove(&link);
                }
            }
            assert!(spiked.is_empty(), "seed {seed}: spikes never cleared: {spiked:?}");
        }
    }

    #[test]
    fn chaos_is_reproducible_from_its_seed() {
        let run = |seed: u64| -> Vec<String> {
            let (mut s, net, inj) = rig(seed);
            inj.chaos(&mut s, SimTime::from_secs(30));
            s.run_until(SimTime::from_secs(40));
            // Every sampled fault scheduled its recovery: the rig converges.
            for name in HOSTS {
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
