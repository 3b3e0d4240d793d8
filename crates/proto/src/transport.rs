//! A datagram-transport seam: a clock and a best-effort send.
//!
//! The paper's control plane is four daemons exchanging UDP datagrams
//! (probe → monitor, client ↔ wizard). Nothing in the protocol logic
//! cares *how* a datagram travels — only that bytes sent to an
//! [`Endpoint`] arrive there. Neither protocol engine sends through this
//! trait: `smartsock_wizard::WizardEngine::step` and
//! `smartsock_wizard::client::ClientEngine::step` take the time as an
//! argument and hand back the frame to send, and each backend's driver
//! sends it. The trait's remaining users are
//! `smartsock_wizard::WizardEngine::handle` and its OS-socket
//! implementation, `smartsock_live::UdpTransport`; both are kept only for
//! `benchmark/`, until ROADMAP's real-daemon benchmark item removes them.
//!
//! Time is exposed as plain nanoseconds rather than a clock object:
//! `u64` is the common denominator between `SimTime` and a monotonic
//! anchor.

use crate::addr::Endpoint;

/// Why a transport send failed. The simulator never fails (loss is
/// modeled in-band, as silence); the socket backend surfaces OS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError(pub String);

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transport send failed: {}", self.0)
    }
}

impl std::error::Error for TransportError {}

/// A datagram transport plus the clock that stamps its traffic.
///
/// Implementations promise best-effort datagram semantics — sends may be
/// silently lost (UDP, or a simulated drop), never duplicated by the
/// transport itself, and delivered with payload bytes unchanged. The
/// protocol engines are written against exactly those guarantees.
pub trait Transport {
    /// The backend's current time in nanoseconds. Virtual time in the
    /// simulator; time since daemon start on the socket backend.
    fn now_ns(&self) -> u64;

    /// Send one datagram. `from` is advisory on socket backends (the OS
    /// socket defines the true source); the simulator routes by it.
    fn send(&mut self, from: Endpoint, to: Endpoint, payload: &[u8]) -> Result<(), TransportError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ip;

    /// A loopback transport for engine unit tests: records every send.
    struct RecordingTransport {
        now: u64,
        sent: Vec<(Endpoint, Endpoint, Vec<u8>)>,
    }

    impl Transport for RecordingTransport {
        fn now_ns(&self) -> u64 {
            self.now
        }
        fn send(
            &mut self,
            from: Endpoint,
            to: Endpoint,
            payload: &[u8],
        ) -> Result<(), TransportError> {
            self.sent.push((from, to, payload.to_vec()));
            Ok(())
        }
    }

    #[test]
    fn trait_is_object_safe_and_usable_via_dyn() {
        let mut t = RecordingTransport { now: 42, sent: Vec::new() };
        {
            let dt: &mut dyn Transport = &mut t;
            assert_eq!(dt.now_ns(), 42);
            let a = Endpoint::new(Ip::new(10, 0, 0, 1), 1111);
            let b = Endpoint::new(Ip::new(10, 0, 0, 2), 1120);
            dt.send(a, b, b"hello").unwrap();
        }
        assert_eq!(t.sent.len(), 1);
        assert_eq!(t.sent[0].2, b"hello");
    }

    #[test]
    fn error_displays_the_cause() {
        let e = TransportError("socket closed".to_owned());
        assert!(e.to_string().contains("socket closed"));
    }
}
