//! Background cross-traffic generators.
//!
//! The static `cross_load` link parameter models a constant utilisation;
//! this module adds *dynamic* competing traffic — long-lived bulk flows
//! that come and go — so experiments can watch the network monitor track a
//! changing available bandwidth (the whole point of probing periodically,
//! §3.3.3) and bulk transfers contend with real neighbours.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_sim::{Scheduler, SimDuration};

use crate::state::Network;
use crate::types::NodeId;

/// A repeating bulk-transfer source between two nodes.
///
/// Every `period`, the generator starts a flow of `bytes_per_burst`; with
/// `period ≈ bytes·8/target_rate` the long-run average load approaches the
/// target (subject to fair-share contention). Stop via [`CrossTraffic::stop`].
#[derive(Clone)]
pub struct CrossTraffic {
    net: Network,
    src: NodeId,
    dst: NodeId,
    bytes_per_burst: u64,
    period: SimDuration,
    active: Rc<RefCell<bool>>,
}

impl CrossTraffic {
    /// Create a generator approximating `rate_mbps` from `src` to `dst`
    /// with ~1-second bursts.
    pub fn new(net: &Network, src: NodeId, dst: NodeId, rate_mbps: f64) -> CrossTraffic {
        assert!(rate_mbps > 0.0, "cross traffic rate must be positive");
        // 200 ms bursts keep the load reasonably smooth.
        let period = SimDuration::from_millis(200);
        let bytes_per_burst = (rate_mbps * 1e6 / 8.0 * period.as_secs_f64()) as u64;
        CrossTraffic {
            net: net.clone(),
            src,
            dst,
            bytes_per_burst,
            period,
            active: Rc::new(RefCell::new(false)),
        }
    }

    /// Begin generating.
    pub fn start(&self, s: &mut Scheduler) {
        *self.active.borrow_mut() = true;
        self.burst(s);
    }

    /// Stop after the in-flight burst drains.
    pub fn stop(&self) {
        *self.active.borrow_mut() = false;
    }

    fn burst(&self, s: &mut Scheduler) {
        if !*self.active.borrow() {
            return;
        }
        s.telemetry.counter_incr("net-cross-bursts");
        self.net.start_flow(s, self.src, self.dst, self.bytes_per_burst, |_s, _stats| {});
        let gen = self.clone();
        s.schedule_in(self.period, move |s| gen.burst(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use crate::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::{consts::ports, Endpoint, Ip};
    use smartsock_sim::SimTime;

    fn line(seed: u64) -> (Network, NodeId, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(seed);
        let a = b.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let r = b.router("r", Ip::new(10, 0, 0, 254));
        let c = b.host("c", Ip::new(10, 0, 1, 1), HostParams::testbed());
        let x = b.host("x", Ip::new(10, 0, 1, 2), HostParams::testbed());
        b.duplex(a, r, LinkParams::lan_100mbps());
        b.duplex(r, c, LinkParams::default().with_rate(20e6));
        b.duplex(r, x, LinkParams::lan_100mbps());
        (b.build(), a, c, x)
    }

    /// Mean RTT of 2900-byte probes over `n` samples spaced 50 ms apart,
    /// without pausing background traffic.
    fn mean_probe_rtt_ms(net: &Network, s: &mut Scheduler, a: NodeId, c: NodeId, n: u32) -> f64 {
        let mut sum = 0.0;
        let mut got = 0u32;
        for _ in 0..n {
            let out = Rc::new(RefCell::new(None));
            let o = Rc::clone(&out);
            net.send_udp(
                s,
                Endpoint::new(net.ip_of(a), 50000),
                Endpoint::new(net.ip_of(c), ports::UDP_PROBE_CLOSED),
                Payload::zeroes(2900),
                Some(Box::new(move |_s, e| *o.borrow_mut() = Some(e.rtt().as_millis_f64()))),
            );
            let watch = Rc::clone(&out);
            s.run_while(SimTime::FAR_FUTURE, move || watch.borrow().is_none());
            if let Some(r) = *out.borrow() {
                sum += r;
                got += 1;
            }
            // Space the samples out so they see different burst phases.
            s.run_until(s.now() + SimDuration::from_millis(50));
        }
        sum / f64::from(got.max(1))
    }

    #[test]
    fn probes_see_the_load_appear_and_disappear() {
        let (net, a, c, _x) = line(3);
        let mut s = Scheduler::new();
        let before = mean_probe_rtt_ms(&net, &mut s, a, c, 12);

        // 15 Mbps of competing traffic over the 20 Mbps bottleneck the
        // probes cross: their mean RTT must inflate while it runs.
        let gen = CrossTraffic::new(&net, a, c, 15.0);
        gen.start(&mut s);
        s.run_until(s.now() + SimDuration::from_secs(3));
        let during = mean_probe_rtt_ms(&net, &mut s, a, c, 12);
        assert!(
            during > before * 3.0,
            "probe RTT must inflate under load: {during:.2} ms vs idle {before:.2} ms"
        );

        gen.stop();
        s.run_until(s.now() + SimDuration::from_secs(5));
        let after = mean_probe_rtt_ms(&net, &mut s, a, c, 12);
        assert!(
            after < during / 2.0,
            "probe RTT recovers after the load stops: {after:.2} vs {during:.2} ms"
        );
    }

    #[test]
    fn generator_average_rate_is_near_target() {
        let (net, a, c, _x) = line(5);
        let mut s = Scheduler::new();
        let gen = CrossTraffic::new(&net, a, c, 10.0);
        gen.start(&mut s);
        s.run_until(SimTime::from_secs(20));
        gen.stop();
        s.run_until(SimTime::from_secs(40));
        let bursts = s.telemetry.counter("net-cross-bursts");
        // ~5 bursts per second (200 ms period) for 20 s.
        assert!((80..=120).contains(&(bursts as i64)), "bursts {bursts}");
        assert_eq!(net.active_flows(), 0, "flows drained after stop");
    }
}
