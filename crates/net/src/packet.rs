//! Datagram-level transit: fragmentation, per-hop timing, ICMP echoes.
//!
//! This module computes, at send time, the full hop-by-hop timeline of a
//! datagram's fragments, reserving serialization slots on each traversed
//! link (`busy_until` bookkeeping). Because the scheduler processes events
//! in time order, senders reserve slots in time order too, which keeps the
//! model deterministic.
//!
//! The timeline implements Formula (3.6) of the paper:
//!
//! ```text
//! T = S/B + min(S, MTU)/Speed_init + Overhead_sys + Overhead_net
//! ```
//!
//! * `min(S, MTU)/Speed_init` — the NIC initialization stage, paid once per
//!   datagram at the source host;
//! * `S/B` — per-fragment serialization at every link's effective rate;
//!   fragments pipeline (store-and-forward per fragment), so the end-to-end
//!   slope above the MTU is `1/bottleneck`, while below the MTU the whole
//!   datagram is one frame and the slope is `Σ 1/R_i + 1/Speed_init`;
//! * `Overhead_sys` — fixed kernel cost at source and destination;
//! * `Overhead_net` — per-fragment forwarding overhead plus exponential
//!   queueing jitter on each hop.

use std::sync::Arc;

use smartsock_proto::consts::overhead;
use smartsock_proto::Endpoint;
use smartsock_sim::{SimDuration, SimTime};

/// A message payload: real bytes for control traffic plus a count of
/// *virtual* bytes for bulk data whose content is irrelevant to the
/// experiment (probe padding, matrix blocks, downloaded files). Wire-size
/// computations use the sum. The real bytes are shared, so a payload
/// cloned per hop copies a pointer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Payload {
    pub data: Arc<[u8]>,
    pub virtual_bytes: u64,
}

impl Payload {
    /// A payload carrying real bytes.
    pub fn data(data: impl Into<Arc<[u8]>>) -> Payload {
        Payload { data: data.into(), virtual_bytes: 0 }
    }

    /// A payload of `n` content-free bytes (probe padding, bulk data).
    pub fn zeroes(n: u64) -> Payload {
        Payload { data: Arc::default(), virtual_bytes: n }
    }

    /// Real bytes followed by `n` virtual ones (header + bulk body).
    pub fn data_with_padding(data: impl Into<Arc<[u8]>>, n: u64) -> Payload {
        Payload { data: data.into(), virtual_bytes: n }
    }

    /// Total payload length in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64 + self.virtual_bytes
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A delivered UDP datagram.
#[derive(Clone, Debug)]
pub struct UdpDatagram {
    pub from: Endpoint,
    pub to: Endpoint,
    pub payload: Payload,
    /// When the sender issued the datagram.
    pub sent_at: SimTime,
}

/// An ICMP port-unreachable echo delivered back to a prober.
#[derive(Clone, Copy, Debug)]
pub struct IcmpEcho {
    /// When the original probe was sent.
    pub sent_at: SimTime,
    /// When the ICMP error arrived back — `received_at - sent_at` is the
    /// round-trip time of §3.3.2's measurements.
    pub received_at: SimTime,
    /// Size of the probing datagram's UDP payload, for bookkeeping.
    pub probe_payload: u64,
}

impl IcmpEcho {
    pub fn rtt(&self) -> SimDuration {
        self.received_at.since(self.sent_at)
    }
}

/// A delivered TCP-style message (connection establishment and streaming
/// are abstracted into latency + a fluid flow; see `Network::send_stream`).
#[derive(Clone, Debug)]
pub struct StreamMessage {
    pub from: Endpoint,
    pub to: Endpoint,
    pub payload: Payload,
}

/// Split a UDP datagram into IP fragment wire sizes.
///
/// `payload` is the UDP payload length; the datagram's IP payload is
/// `payload + 8` (UDP header), split into chunks of at most `mtu - 20`,
/// each fragment then re-gaining a 20-byte IP header on the wire.
pub fn fragment_sizes(payload: u64, mtu: u32) -> Vec<u64> {
    let ip_payload = payload + u64::from(overhead::UDP_HEADER);
    let chunk = u64::from(mtu - overhead::IP_HEADER).max(8);
    let mut out = Vec::new();
    let mut left = ip_payload;
    while left > 0 {
        let take = left.min(chunk);
        out.push(take + u64::from(overhead::IP_HEADER));
        left -= take;
    }
    if out.is_empty() {
        out.push(u64::from(overhead::IP_HEADER));
    }
    out
}

/// Total wire bytes of a UDP datagram before fragmentation (single IP
/// header) — the `S` of the paper's formulas.
pub fn udp_wire_size(payload: u64) -> u64 {
    payload + u64::from(overhead::UDP_HEADER) + u64::from(overhead::IP_HEADER)
}

/// Wire size of an ICMP port-unreachable message: IP + ICMP headers + the
/// embedded original IP header + 8 bytes of the original payload.
pub const ICMP_UNREACHABLE_WIRE: u64 =
    (overhead::IP_HEADER + overhead::ICMP_HEADER + overhead::IP_HEADER + 8) as u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_lengths_combine_real_and_virtual() {
        let p = Payload::data_with_padding(vec![1u8, 2, 3], 100);
        assert_eq!(p.len(), 103);
        assert!(!p.is_empty());
        assert!(Payload::default().is_empty());
        assert_eq!(Payload::zeroes(50).len(), 50);
    }

    #[test]
    fn small_datagrams_do_not_fragment() {
        // payload 100 → IP payload 108 ≤ 1480 → one fragment of 128 wire bytes.
        assert_eq!(fragment_sizes(100, 1500), vec![128]);
    }

    #[test]
    fn fragmentation_at_the_mtu_boundary() {
        // IP payload capacity per fragment at MTU 1500 is 1480 bytes.
        // payload 1472 → IP payload 1480 → exactly one fragment.
        assert_eq!(fragment_sizes(1472, 1500), vec![1500]);
        // payload 1473 → 1481 → two fragments.
        let frags = fragment_sizes(1473, 1500);
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0], 1500);
        assert_eq!(frags[1], 1 + 20);
    }

    #[test]
    fn paper_probe_sizes_have_equal_fragment_counts() {
        // §3.3.2 rule 3: S1=1600 and S2=2900 both make 2 fragments at MTU
        // 1500 — the property that makes them the best probe pair.
        assert_eq!(fragment_sizes(1600, 1500).len(), 2);
        assert_eq!(fragment_sizes(2900, 1500).len(), 2);
        // Whereas the 4000~6000 group differs by two fragments.
        assert_eq!(fragment_sizes(4000, 1500).len(), 3);
        assert_eq!(fragment_sizes(6000, 1500).len(), 5);
    }

    #[test]
    fn fragment_sizes_conserve_bytes() {
        for payload in [0u64, 1, 100, 1472, 1473, 2900, 6000, 64000] {
            for mtu in [500u32, 1000, 1500] {
                let frags = fragment_sizes(payload, mtu);
                let total: u64 = frags.iter().sum();
                let n = frags.len() as u64;
                // wire total = payload + UDP hdr + n × IP hdr
                assert_eq!(total, payload + 8 + 20 * n, "payload={payload} mtu={mtu}");
                assert!(frags.iter().all(|&f| f <= u64::from(mtu)));
            }
        }
    }

    #[test]
    fn icmp_echo_rtt() {
        let e = IcmpEcho {
            sent_at: SimTime::from_secs(1),
            received_at: SimTime::from_secs_f64(1.0025),
            probe_payload: 1600,
        };
        assert!((e.rtt().as_millis_f64() - 2.5).abs() < 1e-9);
    }
}
