//! # smartsock-proto
//!
//! Wire formats and protocol constants of the Smart TCP socket system.
//!
//! The paper fixes several concrete formats, all implemented here:
//!
//! * the ASCII **server status report** a probe sends to the system monitor
//!   every few seconds (§3.2.1, Table 3.1) — numbers are transmitted as
//!   decimal strings precisely so that big- and little-endian machines
//!   interoperate without marshalling;
//! * the binary **`[type, size, data]` framing** the transmitter uses to
//!   ship whole status databases to the receiver over TCP (§3.5.1) — binary
//!   because a monitor may handle many servers and ASCII conversion would be
//!   wasteful; the paper notes this requires both ends to agree on layout,
//!   and we pin an explicit little-endian layout;
//! * the **user request** and **wizard reply** UDP messages (§3.6.1,
//!   Tables 3.5 and 3.6), including the 60-server reply cap;
//! * the **port numbers** (Table 4.2) of the deployment;
//! * network-path records `(delay, bandwidth)` exchanged between network
//!   monitors (Table 3.4) and security-level records (§3.4).
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod addr;
pub mod consts;
pub mod cursor;
pub mod framing;
pub mod netstatus;
pub mod outcome;
pub mod request;
pub mod security;
pub mod services;
pub mod stats;
pub mod status;
pub mod transport;
pub mod typestate;

pub use addr::{Endpoint, HostName, Ip};
pub use cursor::LeCursor;
pub use framing::{Frame, RecordType};
pub use netstatus::NetPathRecord;
pub use outcome::{OutcomeKind, OutcomeReport};
pub use request::{ReplyStatus, RequestOption, UserRequest, WizardReply, MAX_SERVERS_PER_REPLY};
pub use security::SecurityRecord;
pub use services::ServiceMask;
pub use stats::{StatsReply, StatsRequest};
pub use status::ServerStatusReport;
pub use transport::{Transport, TransportError};

/// Errors produced when parsing any of the protocol formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Input ended before the format was complete.
    Truncated { expected: usize, got: usize },
    /// A field failed to parse; carries the field name and offending text.
    BadField { field: &'static str, text: String },
    /// A frame or message advertised an unknown type tag.
    UnknownType(u32),
    /// A structural problem (wrong magic, bad count, ...).
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated { expected, got } => {
                write!(f, "truncated message: expected {expected} bytes, got {got}")
            }
            ProtoError::BadField { field, text } => {
                write!(f, "bad field {field}: {text:?}")
            }
            ProtoError::UnknownType(t) => write!(f, "unknown record type {t}"),
            ProtoError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The next token of a positional text line, or the [`ProtoError::BadField`]
/// naming the field the line stopped before — built only when it is returned.
pub(crate) fn take_field<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    field: &'static str,
) -> Result<&'a str, ProtoError> {
    it.next().ok_or_else(|| ProtoError::BadField { field, text: "<missing>".into() })
}
