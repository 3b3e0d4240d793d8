//! A pipechar-style packet-pair estimator — one of the two reference
//! tools the thesis compares against (§2.1, Table 3.3).
//!
//! "Pipechar ... uses the packet pair method to estimate the link capacity
//! and bandwidth usage. It sends out two probing packets and measures the
//! echo time. The bandwidth value is calculated based on the gap in the
//! echo time. As a single end packet pair based tool, pipechar is very
//! flexible but less robust to network delay fluctuations."
//!
//! Implementation: two equal-size datagrams are sent back to back to a
//! closed port; the bottleneck serializes them, so the ICMP echoes return
//! separated by `S_wire / R_bottleneck` plus jitter. The estimate is
//! `S_wire / dispersion`, taken as the median over several pairs. The
//! fragility the paper observed falls out naturally: every sample inherits
//! the jitter of *one* gap, with no ΔS differencing to cancel overheads.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_net::packet::udp_wire_size;
use smartsock_net::{Network, NodeId, Payload};
use smartsock_proto::consts::ports;
use smartsock_proto::Endpoint;
use smartsock_sim::{Scheduler, SimDuration, SimTime};

/// Probe payload bytes; kept under the MTU so each probe is one frame
/// (dispersion of fragmented probes measures fragment spacing instead).
const PROBE_BYTES: u32 = 1400;
/// Number of pairs; the median dispersion is used.
const PAIRS: usize = 9;
/// Gap between successive pairs.
const PAIR_SPACING: SimDuration = SimDuration::from_millis(30);
/// Give up on a pair whose echoes don't return within this time.
const TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Run the packet-pair estimate from `src` to `dst`; `on_done` receives
/// the estimated bandwidth in Mbps, or `None` when too few echoes return.
pub fn estimate(
    s: &mut Scheduler,
    net: &Network,
    src: NodeId,
    dst: NodeId,
    on_done: impl FnOnce(&mut Scheduler, Option<f64>) + 'static,
) {
    let from = Endpoint::new(net.ip_of(src), ports::MON_NET);
    let to = Endpoint::new(net.ip_of(dst), ports::UDP_PROBE_CLOSED);
    // Echo arrival times per pair: (first, second).
    type PairTimes = (Option<SimTime>, Option<SimTime>);
    let arrivals: Rc<RefCell<Vec<PairTimes>>> = Rc::new(RefCell::new(vec![(None, None); PAIRS]));

    for pair in 0..PAIRS {
        let at = s.now() + SimDuration::from_nanos(PAIR_SPACING.as_nanos() * pair as u64);
        let net2 = net.clone();
        let arr = Rc::clone(&arrivals);
        s.schedule_at(at, move |s| {
            // Two back-to-back probes; the bottleneck spaces them.
            for leg in 0..2usize {
                let arr2 = Rc::clone(&arr);
                net2.send_udp(
                    s,
                    from,
                    to,
                    Payload::zeroes(u64::from(PROBE_BYTES)),
                    Some(Box::new(move |s, echo| {
                        let mut a = arr2.borrow_mut();
                        if let Some(times) = a.get_mut(pair) {
                            if leg == 0 {
                                times.0 = Some(echo.received_at);
                            } else {
                                times.1 = Some(echo.received_at);
                            }
                        }
                        let _ = s;
                    })),
                );
            }
        });
    }

    // Reduce once everything returned (or the deadline passes).
    let deadline =
        s.now() + SimDuration::from_nanos(PAIR_SPACING.as_nanos() * PAIRS as u64) + TIMEOUT;
    let arr = Rc::clone(&arrivals);
    let wire = udp_wire_size(u64::from(PROBE_BYTES));
    s.schedule_at(deadline, move |s| {
        let mut dispersions_ns: Vec<u64> = arr
            .borrow()
            .iter()
            .filter_map(|&(a, b)| match (a, b) {
                (Some(a), Some(b)) if b > a => Some(b.since(a).as_nanos()),
                _ => None,
            })
            .collect();
        dispersions_ns.sort_unstable();
        let Some(&median) = dispersions_ns.get(dispersions_ns.len() / 2) else {
            on_done(s, None);
            return;
        };
        let mbps = wire as f64 * 8.0 / (median as f64 / 1e9) / 1e6;
        on_done(s, Some(mbps));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::Ip;

    fn pair_net(seed: u64, rate_mbps: f64) -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(seed);
        let a = b.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let r = b.router("r", Ip::new(10, 0, 0, 254));
        let c = b.host("c", Ip::new(10, 0, 1, 1), HostParams::testbed());
        b.duplex(a, r, LinkParams::lan_100mbps());
        b.duplex(r, c, LinkParams::lan_100mbps().with_rate(rate_mbps * 1e6));
        (b.build(), a, c)
    }

    fn run_estimate(net: &Network, a: NodeId, c: NodeId) -> Option<f64> {
        let mut s = Scheduler::new();
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        estimate(&mut s, net, a, c, move |_s, e| *g.borrow_mut() = Some(e));
        s.run();
        let e = got.borrow_mut().take().expect("estimate finishes");
        e
    }

    #[test]
    fn packet_pair_finds_the_bottleneck_rate() {
        for rate in [10.0f64, 30.0, 100.0] {
            let (net, a, c) = pair_net(7, rate);
            let est = run_estimate(&net, a, c).expect("echoes return");
            assert!((est - rate).abs() / rate < 0.3, "bottleneck {rate} Mbps, estimated {est:.1}");
        }
    }

    #[test]
    fn unreachable_targets_yield_none() {
        let mut b = NetworkBuilder::new(9);
        let a = b.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let x = b.host("x", Ip::new(10, 9, 9, 9), HostParams::testbed());
        let net = b.build();
        let mut s = Scheduler::new();
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        estimate(&mut s, &net, a, x, move |_s, e| *g.borrow_mut() = Some(e));
        s.run();
        assert_eq!(got.borrow_mut().take(), Some(None));
    }
}
