//! Live daemon stats query: `smartsockd stats` on the wire.
//!
//! A running daemon answers an out-of-band snapshot query over the same
//! UDP socket it serves on. The exchange is one datagram each way:
//!
//! ```text
//! request:  "SSQ1" | seq:u32
//! reply:    "SSA1" | seq:u32 | now_ns:u64 | truncated:u8 | lines
//! ```
//!
//! All integers little-endian, matching every other smartsock frame.
//! `lines` are the daemon's telemetry summary lines — the `sink` trailer
//! when records were dropped, then the `counter`, `gauge` and `hist`
//! lines — exactly as its trace ends with them, so a snapshot needs no
//! schema of its own: whatever reads a trace reads a snapshot. The reply
//! must fit one UDP datagram, so the encoder keeps the whole lines that
//! fit in [`StatsReply::SOFT_LIMIT`] bytes and sets `truncated` when it
//! cut any. Requests are matched to replies by the echoed client-chosen
//! `seq`, same as the wizard request path.

use crate::cursor::LeCursor;
use crate::ProtoError;

/// A stats snapshot query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsRequest {
    /// Client-chosen tag echoed in the reply.
    pub seq: u32,
}

impl StatsRequest {
    /// First bytes of every stats request; daemons demux on this before
    /// their normal message handling, like `"SSR1"` status reports.
    pub const ASCII_MAGIC: &'static str = "SSQ1";

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        out.extend_from_slice(Self::ASCII_MAGIC.as_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out
    }

    pub fn decode(mut buf: &[u8]) -> Result<Self, ProtoError> {
        if buf.remaining() < 8 {
            return Err(ProtoError::Truncated { expected: 8, got: buf.remaining() });
        }
        let magic: [u8; 4] = buf.get_array();
        if magic != Self::ASCII_MAGIC.as_bytes()[..] {
            return Err(ProtoError::Malformed(format!("bad stats-request magic {magic:?}")));
        }
        let seq = buf.get_u32_le();
        if buf.remaining() > 0 {
            return Err(ProtoError::Malformed("trailing bytes after stats request".into()));
        }
        Ok(StatsRequest { seq })
    }
}

/// The daemon's snapshot reply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Echoes the request's `seq`.
    pub seq: u32,
    /// The daemon's clock when the snapshot was taken.
    pub now_ns: u64,
    /// Whether lines were cut to honor the datagram size cap.
    pub truncated: bool,
    /// The daemon's summary lines, each ending in `\n`.
    pub lines: String,
}

impl StatsReply {
    /// First bytes of every stats reply.
    pub const ASCII_MAGIC: &'static str = "SSA1";

    /// Encoded-size ceiling: the encoder keeps only the lines that fit
    /// (and flags `truncated`), keeping the reply a single safe UDP
    /// datagram well under one MTU-and-a-bit.
    pub const SOFT_LIMIT: usize = 4000;

    /// Magic, `seq`, `now_ns` and the truncated flag.
    const HEADER: usize = 17;

    /// Encode, cutting after the last whole line that keeps the frame
    /// within [`Self::SOFT_LIMIT`] and setting the truncated flag if
    /// anything was cut. Lines keep their order, so the cut drops the
    /// tail.
    pub fn encode(&self) -> Vec<u8> {
        let lines = self.lines.as_bytes();
        let window = &lines[..lines.len().min(Self::SOFT_LIMIT - Self::HEADER)];
        let kept = window.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut out = Vec::with_capacity(Self::HEADER + kept);
        out.extend_from_slice(Self::ASCII_MAGIC.as_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.now_ns.to_le_bytes());
        out.push(u8::from(self.truncated || kept < lines.len()));
        out.extend_from_slice(&lines[..kept]);
        out
    }

    pub fn decode(mut buf: &[u8]) -> Result<Self, ProtoError> {
        if buf.remaining() < Self::HEADER {
            return Err(ProtoError::Truncated { expected: Self::HEADER, got: buf.remaining() });
        }
        let magic: [u8; 4] = buf.get_array();
        if magic != Self::ASCII_MAGIC.as_bytes()[..] {
            return Err(ProtoError::Malformed(format!("bad stats-reply magic {magic:?}")));
        }
        let seq = buf.get_u32_le();
        let now_ns = buf.get_u64_le();
        let truncated = match buf.get_u8() {
            0 => false,
            1 => true,
            other => {
                return Err(ProtoError::Malformed(format!("bad truncated flag {other}")));
            }
        };
        let lines = std::str::from_utf8(buf)
            .map_err(|_| ProtoError::Malformed("stats lines are not UTF-8".into()))?;
        if !lines.is_empty() && !lines.ends_with('\n') {
            return Err(ProtoError::Malformed("trailing bytes after the last stats line".into()));
        }
        Ok(StatsReply { seq, now_ns, truncated, lines: lines.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reply() -> StatsReply {
        StatsReply {
            seq: 0xfeed_f00d,
            now_ns: 123_456_789,
            truncated: false,
            lines: concat!(
                "{\"t\":\"counter\",\"name\":\"wizard-requests\",\"value\":17}\n",
                "{\"t\":\"gauge\",\"name\":\"daemon-load1-centi/10.0.1.5\",\"value\":12}\n",
                "{\"t\":\"hist\",\"name\":\"wizard-match\",\"count\":17,\"sum\":9000,",
                "\"min\":100,\"max\":1000,\"p50\":500,\"p95\":900,\"p99\":1000}\n",
            )
            .to_owned(),
        }
    }

    #[test]
    fn request_roundtrip_and_magic() {
        let req = StatsRequest { seq: 0xabad_1dea };
        let wire = req.encode();
        assert!(wire.starts_with(StatsRequest::ASCII_MAGIC.as_bytes()));
        assert_eq!(StatsRequest::decode(&wire).unwrap(), req);
        assert!(StatsRequest::decode(&wire[..5]).is_err());
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(StatsRequest::decode(&bad).is_err());
        let mut long = wire.clone();
        long.push(0);
        assert!(StatsRequest::decode(&long).is_err());
    }

    #[test]
    fn reply_roundtrip() {
        let reply = sample_reply();
        let wire = reply.encode();
        assert!(wire.starts_with(StatsReply::ASCII_MAGIC.as_bytes()));
        assert_eq!(&wire[StatsReply::HEADER..], reply.lines.as_bytes(), "lines travel verbatim");
        assert_eq!(StatsReply::decode(&wire).unwrap(), reply);
    }

    #[test]
    fn empty_reply_roundtrips() {
        let reply = StatsReply { seq: 1, ..StatsReply::default() };
        assert_eq!(StatsReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn reply_decode_rejects_damage() {
        let wire = sample_reply().encode();
        assert!(StatsReply::decode(&wire[..StatsReply::HEADER - 1]).is_err());
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(StatsReply::decode(&bad).is_err());
        let mut flag = wire.clone();
        flag[StatsReply::HEADER - 1] = 2;
        assert!(StatsReply::decode(&flag).is_err());
        // What follows the last newline is a partial line: never sent.
        let mut trailing = wire.clone();
        trailing.push(b'{');
        assert!(StatsReply::decode(&trailing).is_err());
        let mut not_utf8 = wire.clone();
        not_utf8.extend_from_slice(&[0xff, b'\n']);
        assert!(StatsReply::decode(&not_utf8).is_err());
    }

    #[test]
    fn encode_cuts_after_the_last_whole_line_and_flags_truncation() {
        let line = |i: u32| format!("{{\"t\":\"counter\",\"name\":\"net-udp-datagrams/{i}\"}}\n");
        let mut reply = StatsReply { seq: 2, ..StatsReply::default() };
        for i in 0..500 {
            reply.lines.push_str(&line(i));
        }
        let wire = reply.encode();
        assert!(wire.len() <= StatsReply::SOFT_LIMIT, "frame over cap: {}", wire.len());
        let back = StatsReply::decode(&wire).unwrap();
        assert!(back.truncated, "cut lines must be flagged");
        // A prefix of whole lines, and the next one would not have fit.
        let kept = back.lines.lines().count();
        assert!(kept > 0 && kept < 500);
        assert!(reply.lines.starts_with(&back.lines));
        let next = line(u32::try_from(kept).unwrap());
        assert!(wire.len() + next.len() > StatsReply::SOFT_LIMIT);
        // A partial last line is cut too, and says so.
        let partial = StatsReply { lines: format!("{}{{\"t\"", line(0)), ..StatsReply::default() };
        let back = StatsReply::decode(&partial.encode()).unwrap();
        assert_eq!((back.lines, back.truncated), (line(0), true));
    }
}
