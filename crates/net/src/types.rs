//! Core identifiers and parameter bundles of the simulated network.

use smartsock_sim::SimDuration;

/// Index of a node (host or router) within one [`crate::Network`].
pub type NodeId = usize;

/// Index of a *directed* link within one [`crate::Network`].
pub type LinkId = usize;

/// Parameters of a simulated host's NIC and kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostParams {
    /// Interface MTU in bytes (IP header included). Datagrams larger than
    /// this fragment at the source — the knee position of Figs 3.3–3.5.
    pub mtu: u32,
    /// The paper's `Speed_init` in bits/second: the rate at which the
    /// kernel hands the *first* frame of a datagram to the NIC (conjecture
    /// of §3.3.2, estimated at 25 Mbps on the thesis testbed). `None`
    /// disables the effect (virtual/loopback interfaces, observation 1).
    pub speed_init_bps: Option<f64>,
    /// Fixed per-datagram kernel processing overhead on send and on
    /// receive — the `Overhead_sys` term of Formula 3.4.
    pub sys_overhead: SimDuration,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            mtu: 1500,
            speed_init_bps: Some(25e6),
            sys_overhead: SimDuration::from_micros(30),
        }
    }
}

impl HostParams {
    /// Parameters matching the thesis testbed hosts (100 Mbps Ethernet,
    /// MTU 1500, `Speed_init` ≈ 25 Mbps).
    pub fn testbed() -> Self {
        Self::default()
    }

    pub fn with_mtu(mut self, mtu: u32) -> Self {
        self.mtu = mtu;
        self
    }

    pub fn without_init_stage(mut self) -> Self {
        self.speed_init_bps = None;
        self
    }
}

/// Parameters of one direction of a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Raw line rate in bits/second.
    pub rate_bps: f64,
    /// One-way propagation delay (`d_prop`).
    pub prop_delay: SimDuration,
    /// Fraction of the line rate consumed by background cross traffic,
    /// `0.0..1.0`. Reduces the rate seen by both probes and flows.
    pub cross_load: f64,
    /// Mean of the exponential per-fragment queueing jitter (`d_queue`
    /// randomness). High values shadow the MTU knee (observation 4 of
    /// §3.3.2).
    pub jitter_mean: SimDuration,
    /// Fixed per-fragment forwarding cost at the downstream node
    /// (`d_proc`). More fragments ⇒ more accumulated overhead, which is
    /// why probe pairs should generate equal fragment counts (§3.3.2
    /// probe-size rule 3).
    pub per_fragment_overhead: SimDuration,
    /// Per-fragment drop probability. §3.3.1 notes "the packet loss rate
    /// is relatively low under today's high speed networking technology",
    /// so the default is zero; lossy-path experiments raise it. A dropped
    /// fragment loses the whole datagram (reassembly fails); the stream
    /// transport hides loss behind retransmission, as TCP does.
    pub loss_prob: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            rate_bps: 100e6,
            prop_delay: SimDuration::from_micros(20),
            cross_load: 0.0,
            jitter_mean: SimDuration::from_micros(3),
            per_fragment_overhead: SimDuration::from_micros(7),
            loss_prob: 0.0,
        }
    }
}

impl LinkParams {
    /// A quiet 100 Mbps Ethernet segment, the testbed default.
    pub fn lan_100mbps() -> Self {
        Self::default()
    }

    /// A campus backbone hop with light cross traffic.
    pub fn campus() -> Self {
        LinkParams { cross_load: 0.05, ..Self::default() }
    }

    /// A WAN hop: long propagation, heavy jitter. `rtt_ms` is the
    /// *round-trip* contribution of this hop, so the one-way propagation
    /// delay is half of it.
    pub fn wan(rtt_ms: f64) -> Self {
        LinkParams {
            rate_bps: 155e6, // OC-3-ish trunk
            prop_delay: SimDuration::from_millis_f64(rtt_ms / 2.0),
            cross_load: 0.3,
            jitter_mean: SimDuration::from_millis_f64(rtt_ms / 25.0),
            per_fragment_overhead: SimDuration::from_micros(10),
            loss_prob: 0.001,
        }
    }

    pub fn with_rate(mut self, rate_bps: f64) -> Self {
        self.rate_bps = rate_bps;
        self
    }

    pub fn with_cross_load(mut self, load: f64) -> Self {
        assert!((0.0..1.0).contains(&load), "cross load must be in [0,1): {load}");
        self.cross_load = load;
        self
    }

    pub fn with_prop_delay(mut self, d: SimDuration) -> Self {
        self.prop_delay = d;
        self
    }

    pub fn with_loss(mut self, loss_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss_prob), "loss probability out of range: {loss_prob}");
        self.loss_prob = loss_prob;
        self
    }

    /// Effective rate after cross traffic: the "available bandwidth" ground
    /// truth the estimator tries to recover.
    pub fn effective_rate(&self) -> f64 {
        self.rate_bps * (1.0 - self.cross_load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_testbed() {
        let h = HostParams::testbed();
        assert_eq!(h.mtu, 1500);
        assert_eq!(h.speed_init_bps, Some(25e6));
        let l = LinkParams::lan_100mbps();
        assert_eq!(l.rate_bps, 100e6);
        assert_eq!(l.effective_rate(), 100e6);
    }

    #[test]
    fn effective_rate_subtracts_cross_traffic() {
        let l = LinkParams::lan_100mbps().with_cross_load(0.05);
        assert!((l.effective_rate() - 95e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "cross load")]
    fn full_cross_load_is_rejected() {
        let _ = LinkParams::lan_100mbps().with_cross_load(1.0);
    }

    #[test]
    fn wan_preset_splits_rtt() {
        let l = LinkParams::wan(126.0);
        assert_eq!(l.prop_delay, SimDuration::from_millis(63));
        assert!(l.jitter_mean > SimDuration::from_millis(1));
    }
}
