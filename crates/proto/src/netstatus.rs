//! Network-path status records exchanged between network monitors
//! (paper §3.3.3, Table 3.4).
//!
//! Each server group runs one network monitor; monitors probe one another
//! and keep a `(delay, bandwidth)` pair per neighbouring group. The
//! resulting table (`netdb` in Fig 3.10) is what the wizard consults for
//! requirements like `monitor_network_delay < 20` or
//! `monitor_network_bw > 10`.

use crate::addr::Ip;
use crate::cursor::LeCursor;
use crate::ProtoError;

/// Measured metrics of one network path between two monitor groups.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetPathRecord {
    /// Address of the monitor that performed the measurement.
    pub from_monitor: Ip,
    /// Address of the probed peer monitor.
    pub to_monitor: Ip,
    /// One-way-inferred network delay in milliseconds.
    pub delay_ms: f64,
    /// Estimated available bandwidth in Mbps (one-way UDP stream method).
    pub bw_mbps: f64,
    /// Measurement timestamp (virtual nanoseconds).
    pub timestamp_ns: u64,
}

impl NetPathRecord {
    /// Size of the binary encoding in bytes.
    pub const BINARY_BYTES: usize = 4 + 4 + 8 + 8 + 8;

    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.from_monitor.0.to_le_bytes());
        out.extend_from_slice(&self.to_monitor.0.to_le_bytes());
        out.extend_from_slice(&self.delay_ms.to_le_bytes());
        out.extend_from_slice(&self.bw_mbps.to_le_bytes());
        out.extend_from_slice(&self.timestamp_ns.to_le_bytes());
    }

    pub fn decode_binary(buf: &mut &[u8]) -> Result<Self, ProtoError> {
        if buf.remaining() < Self::BINARY_BYTES {
            return Err(ProtoError::Truncated {
                expected: Self::BINARY_BYTES,
                got: buf.remaining(),
            });
        }
        Ok(NetPathRecord {
            from_monitor: Ip(buf.get_u32_le()),
            to_monitor: Ip(buf.get_u32_le()),
            delay_ms: buf.get_f64_le(),
            bw_mbps: buf.get_f64_le(),
            timestamp_ns: buf.get_u64_le(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_roundtrip() {
        let r = NetPathRecord {
            from_monitor: Ip::new(192, 168, 1, 1),
            to_monitor: Ip::new(192, 168, 2, 1),
            delay_ms: 12.75,
            bw_mbps: 92.86,
            timestamp_ns: 42,
        };
        let mut buf = Vec::new();
        r.encode_binary(&mut buf);
        assert_eq!(buf.len(), NetPathRecord::BINARY_BYTES);
        assert_eq!(NetPathRecord::decode_binary(&mut &buf[..]).unwrap(), r);
    }

    #[test]
    fn decode_rejects_short_input() {
        assert!(matches!(
            NetPathRecord::decode_binary(&mut &[0u8; 10][..]),
            Err(ProtoError::Truncated { .. })
        ));
    }
}
