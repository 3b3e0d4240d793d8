//! Client outcome reports: the feedback half of the self-healing layer.
//!
//! The thesis's wizard is open-loop — it hands out candidate lists and
//! never hears how they worked out. The self-healing extension closes the
//! loop: after a request resolves, the client library (or the application,
//! via `SmartClient::report_outcome`) sends one small UDP datagram per
//! server to the wizard's port 1120 describing what happened (at 7 bytes it
//! is shorter than any request, which is how the wizard tells it apart). The wizard
//! feeds these into its health-score table (DESIGN.md §11), which drives
//! the quarantine state machine and selection discounts.
//!
//! Wire format (7 bytes): `[server ip u32 le | kind u8 | reserved u16 le]`.
//! UDP and fire-and-forget, like the request path: a lost report only
//! delays convergence, it never wedges a request.

use crate::addr::Ip;
use crate::cursor::LeCursor;
use crate::ProtoError;

/// What happened with one assigned server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The server did its job (connect succeeded, or the application
    /// finished its work there).
    Completed,
    /// The server accepted the assignment but stopped responding.
    Timeout,
    /// The service connection could not be established at all.
    ConnectFailed,
}

impl OutcomeKind {
    /// Stable kebab-case label (used in telemetry attrs).
    pub fn label(self) -> &'static str {
        match self {
            OutcomeKind::Completed => "completed",
            OutcomeKind::Timeout => "timeout",
            OutcomeKind::ConnectFailed => "connect-failed",
        }
    }

    /// Whether this outcome counts against the server's health score.
    pub fn is_failure(self) -> bool {
        !matches!(self, OutcomeKind::Completed)
    }

    fn to_u8(self) -> u8 {
        match self {
            OutcomeKind::Completed => 0,
            OutcomeKind::Timeout => 1,
            OutcomeKind::ConnectFailed => 2,
        }
    }

    fn from_u8(v: u8) -> Option<OutcomeKind> {
        match v {
            0 => Some(OutcomeKind::Completed),
            1 => Some(OutcomeKind::Timeout),
            2 => Some(OutcomeKind::ConnectFailed),
            _ => None,
        }
    }
}

/// One client-observed outcome for one server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutcomeReport {
    /// The server the outcome is about (not the reporting client).
    pub server: Ip,
    pub outcome: OutcomeKind,
}

impl OutcomeReport {
    /// The encoded length.
    pub const LEN: usize = 7;

    /// Encode as a UDP payload.
    ///
    /// # Example
    ///
    /// ```
    /// use smartsock_proto::{Ip, OutcomeKind, OutcomeReport};
    ///
    /// let rep = OutcomeReport { server: Ip::new(192, 168, 4, 11), outcome: OutcomeKind::Timeout };
    /// assert_eq!(OutcomeReport::decode(&rep.encode()).unwrap(), rep);
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        out.extend_from_slice(&self.server.0.to_le_bytes());
        out.push(self.outcome.to_u8());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out
    }

    pub fn decode(mut buf: &[u8]) -> Result<Self, ProtoError> {
        if buf.remaining() < Self::LEN {
            return Err(ProtoError::Truncated { expected: Self::LEN, got: buf.remaining() });
        }
        let server = Ip(buf.get_u32_le());
        let kind = buf.get_u8();
        let _reserved = buf.get_u16_le();
        if buf.remaining() > 0 {
            return Err(ProtoError::Malformed("trailing bytes after outcome report".into()));
        }
        let outcome = OutcomeKind::from_u8(kind)
            .ok_or_else(|| ProtoError::Malformed(format!("unknown outcome kind {kind}")))?;
        Ok(OutcomeReport { server, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_kind() {
        for outcome in [OutcomeKind::Completed, OutcomeKind::Timeout, OutcomeKind::ConnectFailed] {
            let rep = OutcomeReport { server: Ip::new(10, 0, 1, 2), outcome };
            assert_eq!(OutcomeReport::decode(&rep.encode()).unwrap(), rep);
        }
    }

    #[test]
    fn decode_rejects_short_unknown_and_trailing() {
        assert!(OutcomeReport::decode(&[1, 2, 3]).is_err());
        let mut wire =
            OutcomeReport { server: Ip::new(1, 2, 3, 4), outcome: OutcomeKind::Completed }.encode();
        wire[4] = 9; // unknown kind
        assert!(OutcomeReport::decode(&wire).is_err());
        let mut wire =
            OutcomeReport { server: Ip::new(1, 2, 3, 4), outcome: OutcomeKind::Completed }.encode();
        wire.push(0);
        assert!(OutcomeReport::decode(&wire).is_err());
    }

    #[test]
    fn labels_are_kebab_case() {
        for outcome in [OutcomeKind::Completed, OutcomeKind::Timeout, OutcomeKind::ConnectFailed] {
            let label = outcome.label();
            assert!(label
                .split('-')
                .all(|seg| !seg.is_empty() && seg.bytes().all(|b| b.is_ascii_lowercase())));
        }
    }
}
