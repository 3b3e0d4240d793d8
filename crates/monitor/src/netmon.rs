//! The network monitor (paper §3.3.3).
//!
//! One monitor runs per server group. Each round it probes **one** peer
//! monitor — rounds never overlap, honouring the paper's rule that
//! concurrent probes would interfere — by sending `pairs_per_round`
//! (S1, S2) UDP datagrams to a closed port and timing the ICMP
//! port-unreachable echoes. The reduced `(delay, bandwidth)` record goes
//! into `netdb`, giving the Table 3.4 matrix over time.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_net::{Network, Payload};
use smartsock_proto::consts::{ports, timing};
use smartsock_proto::{Endpoint, Ip, NetPathRecord};
use smartsock_sim::{Scheduler, SimDuration, SpanId};

use crate::db::StatusDbs;
use crate::estimator::{reduce_round, ProbePairSpec};

/// Gap between successive probing rounds (§5.2: every 2 s).
const INTERVAL: SimDuration = SimDuration::from_secs(timing::NETPROBE_INTERVAL_SECS);
/// Probe sizes: the paper's 1600/2900.
const SPEC: ProbePairSpec = ProbePairSpec::OPTIMAL_1500;
/// Abort a round if an echo does not return within this time.
const ECHO_TIMEOUT: SimDuration = SimDuration::from_secs(2);

struct MonState {
    peers: Vec<Ip>,
    next_peer: usize,
    rounds_completed: u64,
}

/// One network-monitor daemon.
#[derive(Clone)]
pub struct NetworkMonitor {
    ip: Ip,
    net: Network,
    /// The monitor machine's databases; this daemon writes `net`.
    dbs: Rc<RefCell<StatusDbs>>,
    /// (S1, S2) repetitions per round.
    pairs_per_round: usize,
    st: Rc<RefCell<MonState>>,
}

/// Per-round shared context for the chained echo callbacks.
struct RoundCtx {
    samples: Vec<(SimDuration, SimDuration)>,
    /// T1 of the in-flight pair, once measured.
    t1: Option<SimDuration>,
    /// Pairs fully handled so far (sampled or skipped on timeout); late
    /// echoes from a skipped pair compare against this and are ignored.
    resolved: usize,
    finished: bool,
    /// Completion callback; owned here so the timeout guards can fire it
    /// even when the echo chain stalls (unreachable peer).
    on_done: Option<DoneCb>,
    /// The round's "netmon-round" span, closed when the round finalizes.
    span: SpanId,
}

impl NetworkMonitor {
    /// The (S1, S2) pairs a round sends unless a deployment asks for
    /// fewer (Table 5.2's sends one).
    pub const DEFAULT_PAIRS_PER_ROUND: usize = 5;

    pub fn new(
        ip: Ip,
        net: Network,
        dbs: Rc<RefCell<StatusDbs>>,
        pairs_per_round: usize,
    ) -> NetworkMonitor {
        NetworkMonitor {
            ip,
            net,
            dbs,
            pairs_per_round,
            st: Rc::new(RefCell::new(MonState {
                peers: Vec::new(),
                next_peer: 0,
                rounds_completed: 0,
            })),
        }
    }

    pub fn ip(&self) -> Ip {
        self.ip
    }

    /// The databases whose `net` this monitor writes (shared with the
    /// transmitter).
    pub fn dbs(&self) -> &Rc<RefCell<StatusDbs>> {
        &self.dbs
    }

    /// Inform this monitor about a neighbouring group's monitor.
    pub fn add_peer(&self, peer: Ip) {
        if peer != self.ip {
            self.st.borrow_mut().peers.push(peer);
        }
    }

    pub fn rounds_completed(&self) -> u64 {
        self.st.borrow().rounds_completed
    }

    /// Start the sequential probing loop.
    pub fn start(&self, s: &mut Scheduler) {
        let mon = self.clone();
        s.schedule_in(INTERVAL, move |s| mon.round(s));
    }

    /// Run one probing round immediately (used by the harness to measure
    /// without waiting for the schedule). `on_done` fires when the round's
    /// record has been stored (or the round was abandoned).
    pub fn probe_peer_now(
        &self,
        s: &mut Scheduler,
        peer: Ip,
        on_done: impl FnOnce(&mut Scheduler, Option<NetPathRecord>) + 'static,
    ) {
        let span = s.telemetry.span_start("netmon-round", &self.ip.to_string());
        let ctx = Rc::new(RefCell::new(RoundCtx {
            samples: Vec::new(),
            t1: None,
            resolved: 0,
            finished: false,
            on_done: Some(Box::new(on_done)),
            span,
        }));
        self.clone().send_pair(s, peer, Rc::clone(&ctx), 0);
        // Round guard: if echoes stop coming back, finalize with whatever
        // was collected.
        let mon = self.clone();
        let guard_ctx = Rc::clone(&ctx);
        let total_guard = SimDuration::from_nanos(
            ECHO_TIMEOUT.as_nanos() * (self.pairs_per_round as u64 * 2 + 1),
        );
        s.schedule_in(total_guard, move |s| {
            if !guard_ctx.borrow().finished {
                mon.finish_round(s, peer, &guard_ctx);
            }
        });
    }

    fn round(&self, s: &mut Scheduler) {
        let peer = {
            let mut st = self.st.borrow_mut();
            let n = st.peers.len();
            if n == 0 {
                None
            } else {
                let p = st.peers.get(st.next_peer % n).copied();
                st.next_peer += 1;
                p
            }
        };
        match peer {
            None => {
                let mon = self.clone();
                s.schedule_in(INTERVAL, move |s| mon.round(s));
            }
            Some(peer) => {
                let mon = self.clone();
                self.probe_peer_now(s, peer, move |s, _rec| {
                    // Sequential schedule: the next round starts one
                    // interval after this one *finished*.
                    let mon2 = mon.clone();
                    s.schedule_in(INTERVAL, move |s| mon2.round(s));
                });
            }
        }
    }

    fn send_pair(self, s: &mut Scheduler, peer: Ip, ctx: Rc<RefCell<RoundCtx>>, pair_index: usize) {
        if pair_index >= self.pairs_per_round {
            self.finish_round(s, peer, &ctx);
            return;
        }
        let from = Endpoint::new(self.ip, ports::MON_NET);
        let to = Endpoint::new(peer, ports::UDP_PROBE_CLOSED);
        s.telemetry.counter_incr("netmon-probes");
        s.telemetry.counter_add("netmon-bytes", u64::from(SPEC.s1_bytes + SPEC.s2_bytes));
        // Per-pair timeout: if either echo is lost, skip this pair and
        // move on rather than stalling the whole round (§3.3.1: loss is
        // rare but must not wedge the sequential schedule).
        let guard_mon = self.clone();
        let guard_ctx = Rc::clone(&ctx);
        s.schedule_in(SimDuration::from_nanos(ECHO_TIMEOUT.as_nanos() * 2), move |s| {
            let stuck = {
                let c = guard_ctx.borrow();
                !c.finished && c.resolved == pair_index
            };
            if stuck {
                s.telemetry.counter_incr("netmon-pairs-timed-out");
                {
                    let mut c = guard_ctx.borrow_mut();
                    c.resolved = pair_index + 1;
                    c.t1 = None;
                }
                guard_mon.send_pair(s, peer, guard_ctx, pair_index + 1);
            }
        });
        // Send S1; on its echo, send S2; on that echo, advance.
        let mon = self.clone();
        let ctx1 = Rc::clone(&ctx);
        self.net.clone().send_udp(
            s,
            from,
            to,
            Payload::zeroes(u64::from(SPEC.s1_bytes)),
            Some(Box::new(move |s, echo1| {
                {
                    let c = ctx1.borrow();
                    if c.finished || c.resolved != pair_index {
                        return; // round over or pair already skipped
                    }
                }
                ctx1.borrow_mut().t1 = Some(echo1.rtt());
                let mon2 = mon.clone();
                let ctx2 = Rc::clone(&ctx1);
                mon.net.clone().send_udp(
                    s,
                    from,
                    to,
                    Payload::zeroes(u64::from(SPEC.s2_bytes)),
                    Some(Box::new(move |s, echo2| {
                        {
                            let c = ctx2.borrow();
                            if c.finished || c.resolved != pair_index {
                                return;
                            }
                        }
                        {
                            let mut c = ctx2.borrow_mut();
                            if let Some(t1) = c.t1.take() {
                                c.samples.push((t1, echo2.rtt()));
                            }
                            c.resolved = pair_index + 1;
                        }
                        mon2.send_pair(s, peer, ctx2, pair_index + 1);
                    })),
                );
            })),
        );
    }

    fn finish_round(&self, s: &mut Scheduler, peer: Ip, ctx: &Rc<RefCell<RoundCtx>>) {
        let (on_done, span) = {
            let mut c = ctx.borrow_mut();
            if c.finished {
                return;
            }
            c.finished = true;
            (c.on_done.take(), c.span)
        };
        let record = reduce_round(SPEC, &ctx.borrow().samples).map(|est| NetPathRecord {
            from_monitor: self.ip,
            to_monitor: peer,
            delay_ms: est.delay_ms,
            bw_mbps: est.bw_mbps,
            timestamp_ns: s.now().0,
        });
        if let Some(rec) = record {
            self.dbs.borrow_mut().net.upsert(rec);
            s.telemetry.counter_incr("netmon-rounds-ok");
            s.telemetry.event(
                "netmon-estimate-converged",
                &self.ip.to_string(),
                &[
                    ("peer", &peer.to_string()),
                    ("bw-mbps", &format!("{:.3}", rec.bw_mbps)),
                    ("delay-ms", &format!("{:.3}", rec.delay_ms)),
                    ("samples", &ctx.borrow().samples.len().to_string()),
                ],
            );
        } else {
            s.telemetry.counter_incr("netmon-rounds-empty");
        }
        s.telemetry.span_end(span);
        self.st.borrow_mut().rounds_completed += 1;
        if let Some(cb) = on_done {
            cb(s, record);
        }
    }
}

type DoneCb = Box<dyn FnOnce(&mut Scheduler, Option<NetPathRecord>)>;

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_sim::SimTime;

    /// Two monitor machines across a router, optionally shaped.
    fn rig(cap_mbps: Option<f64>) -> (Scheduler, Network, NetworkMonitor, NetworkMonitor) {
        let mut b = NetworkBuilder::new(77);
        let m1 = b.host("mon1", Ip::new(192, 168, 1, 1), HostParams::testbed());
        let r = b.router("core", Ip::new(192, 168, 0, 254));
        let m2 = b.host("mon2", Ip::new(192, 168, 2, 1), HostParams::testbed());
        b.duplex(m1, r, LinkParams::lan_100mbps().with_cross_load(0.05));
        b.duplex(r, m2, LinkParams::lan_100mbps().with_cross_load(0.05));
        let net = b.build();
        if let Some(cap) = cap_mbps {
            net.set_access_rate(m2, Some(cap * 1e6));
        }
        let monitor = |ip| {
            NetworkMonitor::new(
                ip,
                net.clone(),
                Rc::default(),
                NetworkMonitor::DEFAULT_PAIRS_PER_ROUND,
            )
        };
        let (a, bmon) = (monitor(Ip::new(192, 168, 1, 1)), monitor(Ip::new(192, 168, 2, 1)));
        a.add_peer(bmon.ip());
        bmon.add_peer(a.ip());
        (Scheduler::new(), net, a, bmon)
    }

    #[test]
    fn a_round_measures_the_unshaped_path_near_truth() {
        let (mut s, net, a, b) = rig(None);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        a.probe_peer_now(&mut s, b.ip(), move |_s, rec| *g.borrow_mut() = rec);
        s.run_until(SimTime::from_secs(30));
        let rec = got.borrow().expect("round must produce a record");
        let truth = net
            .path_available_bw(net.node_by_name("mon1").unwrap(), net.node_by_name("mon2").unwrap())
            .unwrap()
            / 1e6;
        assert!(
            (rec.bw_mbps - truth).abs() / truth < 0.35,
            "estimate {:.1} vs truth {truth:.1} Mbps",
            rec.bw_mbps
        );
        assert!(rec.delay_ms > 0.0 && rec.delay_ms < 5.0);
    }

    #[test]
    fn shaped_paths_are_estimated_near_the_cap() {
        for cap in [2.0f64, 5.0, 8.0] {
            let (mut s, _net, a, b) = rig(Some(cap));
            let got = Rc::new(RefCell::new(None));
            let g = Rc::clone(&got);
            a.probe_peer_now(&mut s, b.ip(), move |_s, rec| *g.borrow_mut() = rec);
            s.run_until(SimTime::from_secs(60));
            let rec = got.borrow().expect("record");
            assert!(
                (rec.bw_mbps - cap).abs() / cap < 0.35,
                "cap {cap} Mbps, estimated {:.2}",
                rec.bw_mbps
            );
        }
    }

    #[test]
    fn periodic_rounds_fill_the_database_sequentially() {
        let (mut s, _net, a, b) = rig(None);
        a.start(&mut s);
        b.start(&mut s);
        s.run_until(SimTime::from_secs(30));
        assert!(a.rounds_completed() >= 5, "completed {}", a.rounds_completed());
        assert!(a.dbs.borrow().net.get(a.ip(), b.ip()).is_some());
        assert!(b.dbs.borrow().net.get(b.ip(), a.ip()).is_some());
        // Each monitor keeps its own view; records are directional.
        assert!(a.dbs.borrow().net.get(b.ip(), a.ip()).is_none());
    }

    #[test]
    fn unreachable_peer_rounds_finish_via_the_guard() {
        let (mut s, _net, a, _b) = rig(None);
        a.add_peer(Ip::new(203, 0, 113, 77)); // not in the topology
        let got = Rc::new(RefCell::new(false));
        let g = Rc::clone(&got);
        a.probe_peer_now(&mut s, Ip::new(203, 0, 113, 77), move |_s, rec| {
            assert!(rec.is_none());
            *g.borrow_mut() = true;
        });
        s.run_until(SimTime::from_secs(60));
        assert!(*got.borrow(), "guard must finalize the round");
        assert_eq!(s.telemetry.counter("netmon-rounds-empty"), 1);
    }

    #[test]
    fn monitors_never_probe_themselves() {
        let (_s, _net, a, _b) = rig(None);
        a.add_peer(a.ip());
        assert_eq!(a.st.borrow().peers.len(), 1, "self-peer must be ignored");
    }
}
