//! User request and wizard reply messages (paper §3.6.1, Tables 3.5/3.6).
//!
//! Request: `[Sequence Num | Server Num | Option | Request Detail]`, sent as
//! one UDP datagram to the wizard. Reply: `[Sequence Num | Server Num |
//! Server-1 | ... | Server-n]`. The sequence number is a client-chosen
//! random tag matching replies to requests; the reply is capped at 60
//! servers "because the server list is sent back in the UDP message, which
//! is not reliable when the message becomes long".

use crate::addr::{Endpoint, Ip};
use crate::cursor::LeCursor;
use crate::ProtoError;

/// Upper bound on servers per reply (paper: "Currently the limit is set to
/// be 60").
pub const MAX_SERVERS_PER_REPLY: usize = 60;

/// The request `Option` field: what the wizard/client should do in special
/// situations (paper: shortfall handling and requirement templates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestOption {
    /// Accept a candidate list shorter than requested instead of failing.
    pub accept_fewer: bool,
    /// Index of a wizard-side predefined requirement template to apply in
    /// addition to (before) the request detail. `None` when unused.
    pub template: Option<u8>,
}

impl RequestOption {
    pub const DEFAULT: RequestOption = RequestOption { accept_fewer: true, template: None };

    /// Strict variant: the request fails unless all servers are found.
    pub const EXACT: RequestOption = RequestOption { accept_fewer: false, template: None };

    // Bit layout: bit 0 = accept_fewer, bit 1 = template present,
    // bits 8..16 = template id.
    fn to_u16(self) -> u16 {
        let mut v = 0u16;
        if self.accept_fewer {
            v |= 0x0001;
        }
        if let Some(t) = self.template {
            v |= 0x0002 | (u16::from(t) << 8);
        }
        v
    }

    fn from_u16(v: u16) -> RequestOption {
        RequestOption {
            accept_fewer: v & 0x0001 != 0,
            template: if v & 0x0002 != 0 {
                Some(u8::try_from(v >> 8).expect("invariant: u16 >> 8 always fits u8"))
            } else {
                None
            },
        }
    }
}

impl Default for RequestOption {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A user request for `server_num` servers satisfying `detail`.
#[derive(Clone, Debug, PartialEq)]
pub struct UserRequest {
    /// Random tag identifying the request (Table 3.5 "Sequence Num").
    pub seq: u32,
    /// Number of servers wanted; the wizard caps the reply at
    /// [`MAX_SERVERS_PER_REPLY`].
    pub server_num: u16,
    pub option: RequestOption,
    /// The requirement text in the meta language (§4.3).
    pub detail: String,
}

impl UserRequest {
    /// Encode as a UDP payload.
    ///
    /// # Example
    ///
    /// ```
    /// use smartsock_proto::{RequestOption, UserRequest};
    ///
    /// let req = UserRequest {
    ///     seq: 0x1234,
    ///     server_num: 3,
    ///     option: RequestOption::DEFAULT,
    ///     detail: "host_cpu_free > 0.9\n".to_owned(),
    /// };
    /// let wire = req.encode();
    /// assert_eq!(UserRequest::decode(&wire).unwrap(), req);
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.detail.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.server_num.to_le_bytes());
        out.extend_from_slice(&self.option.to_u16().to_le_bytes());
        out.extend_from_slice(self.detail.as_bytes());
        out
    }

    pub fn decode(mut buf: &[u8]) -> Result<Self, ProtoError> {
        if buf.remaining() < 8 {
            return Err(ProtoError::Truncated { expected: 8, got: buf.remaining() });
        }
        let seq = buf.get_u32_le();
        let server_num = buf.get_u16_le();
        let option = RequestOption::from_u16(buf.get_u16_le());
        let detail = std::str::from_utf8(buf)
            .map_err(|_| ProtoError::Malformed("request detail is not UTF-8".into()))?
            .to_owned();
        Ok(UserRequest { seq, server_num, option, detail })
    }
}

/// Outcome classification carried implicitly by the reply length; computed
/// client-side when matching Table 3.6 replies against the original request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The wizard found every requested server.
    Full,
    /// Fewer servers than requested (paper §3.6.2 step 3: "client library
    /// will take different actions based on the option from the user").
    Short { requested: u16, returned: u16 },
    /// No server qualified.
    Empty,
}

/// The wizard's reply: the candidate server list.
#[derive(Clone, Debug, PartialEq)]
pub struct WizardReply {
    /// Echoes the request's sequence number.
    pub seq: u32,
    /// Service endpoints of the selected servers, best match first.
    pub servers: Vec<Endpoint>,
}

impl WizardReply {
    /// Encode as a UDP payload. Panics (debug) if over the 60-server cap —
    /// the wizard enforces the cap before constructing the reply.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert!(self.servers.len() <= MAX_SERVERS_PER_REPLY);
        let mut out = Vec::with_capacity(8 + self.servers.len() * 6);
        out.extend_from_slice(&self.seq.to_le_bytes());
        let count = u16::try_from(self.servers.len())
            .expect("invariant: reply capped at MAX_SERVERS_PER_REPLY (60)");
        out.extend_from_slice(&count.to_le_bytes());
        for s in &self.servers {
            out.extend_from_slice(&s.ip.0.to_le_bytes());
            out.extend_from_slice(&s.port.to_le_bytes());
        }
        out
    }

    pub fn decode(mut buf: &[u8]) -> Result<Self, ProtoError> {
        if buf.remaining() < 6 {
            return Err(ProtoError::Truncated { expected: 6, got: buf.remaining() });
        }
        let seq = buf.get_u32_le();
        let n = buf.get_u16_le() as usize;
        if n > MAX_SERVERS_PER_REPLY {
            return Err(ProtoError::Malformed(format!("reply claims {n} servers (cap 60)")));
        }
        if buf.remaining() < n * 6 {
            return Err(ProtoError::Truncated { expected: n * 6, got: buf.remaining() });
        }
        let mut servers = Vec::with_capacity(n);
        for _ in 0..n {
            let ip = Ip(buf.get_u32_le());
            let port = buf.get_u16_le();
            servers.push(Endpoint::new(ip, port));
        }
        if buf.remaining() > 0 {
            return Err(ProtoError::Malformed("trailing bytes after server list".into()));
        }
        Ok(WizardReply { seq, servers })
    }

    /// Classify this reply against the request it answers.
    pub fn status(&self, requested: u16) -> ReplyStatus {
        let returned = u16::try_from(self.servers.len())
            .expect("invariant: decode rejects lists over the 60-server cap");
        if returned == 0 {
            ReplyStatus::Empty
        } else if returned < requested {
            ReplyStatus::Short { requested, returned }
        } else {
            ReplyStatus::Full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = UserRequest {
            seq: 0xdead_beef,
            server_num: 4,
            option: RequestOption { accept_fewer: false, template: Some(7) },
            detail: "host_cpu_free > 0.9\nhost_memory_free > 5\n".to_owned(),
        };
        let wire = req.encode();
        assert_eq!(UserRequest::decode(&wire).unwrap(), req);
    }

    #[test]
    fn request_decode_rejects_short_and_non_utf8() {
        assert!(UserRequest::decode(&[1, 2, 3]).is_err());
        let mut wire = UserRequest {
            seq: 1,
            server_num: 1,
            option: RequestOption::DEFAULT,
            detail: String::new(),
        }
        .encode();
        wire.extend_from_slice(&[0xff, 0xfe]);
        assert!(UserRequest::decode(&wire).is_err());
    }

    #[test]
    fn option_bits_roundtrip() {
        for opt in [
            RequestOption::DEFAULT,
            RequestOption::EXACT,
            RequestOption { accept_fewer: true, template: Some(0) },
            RequestOption { accept_fewer: false, template: Some(255) },
        ] {
            assert_eq!(RequestOption::from_u16(opt.to_u16()), opt);
        }
    }

    #[test]
    fn reply_roundtrip_and_status() {
        let reply = WizardReply {
            seq: 42,
            servers: vec![
                Endpoint::new(Ip::new(192, 168, 1, 2), 1200),
                Endpoint::new(Ip::new(192, 168, 2, 3), 1200),
            ],
        };
        let wire = reply.encode();
        let back = WizardReply::decode(&wire).unwrap();
        assert_eq!(back, reply);
        assert_eq!(back.status(2), ReplyStatus::Full);
        assert_eq!(back.status(1), ReplyStatus::Full);
        assert_eq!(back.status(5), ReplyStatus::Short { requested: 5, returned: 2 });
        let empty = WizardReply { seq: 1, servers: vec![] };
        assert_eq!(empty.status(3), ReplyStatus::Empty);
    }

    #[test]
    fn reply_decode_enforces_cap_and_exact_length() {
        let wire = [&1u32.to_le_bytes()[..], &61u16.to_le_bytes()].concat(); // over the cap
        assert!(WizardReply::decode(&wire).is_err());

        let reply = WizardReply { seq: 9, servers: vec![Endpoint::new(Ip::new(1, 2, 3, 4), 80)] };
        let mut wire = reply.encode();
        wire.push(0); // stray byte
        assert!(WizardReply::decode(&wire).is_err());
        let short = &reply.encode()[..8];
        assert!(WizardReply::decode(short).is_err());
    }

    #[test]
    fn sixty_servers_fit_in_one_reply() {
        let servers: Vec<Endpoint> =
            (0u8..60).map(|i| Endpoint::new(Ip::new(10, 0, 0, i), 1200)).collect();
        let reply = WizardReply { seq: 7, servers };
        let wire = reply.encode();
        // Must fit comfortably within one UDP datagram (< 64 KiB, and in
        // fact < 1 standard MTU minus headers — 6+60*6 = 366 bytes).
        assert!(wire.len() < 1472);
        assert_eq!(WizardReply::decode(&wire).unwrap().servers.len(), 60);
    }
}
