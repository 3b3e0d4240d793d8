//! Security-level records (paper §3.4).
//!
//! The thesis deliberately keeps security pluggable: "the security monitor
//! reads the security records from a dummy security log. The log file
//! contains the server names and the correspondingly security levels, which
//! is an integer representing the clearance level of each server." We
//! implement exactly that record plus the dummy-log text format, so a third
//! party agent (the paper cites Cisco NAC) could be substituted by emitting
//! the same lines.

use crate::addr::{HostName, Ip};
use crate::cursor::LeCursor;
use crate::{take_field, ProtoError};

/// One server's clearance level, as read from the security log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SecurityRecord {
    pub host: HostName,
    pub ip: Ip,
    /// Integer clearance level; larger means more trusted. Exposed to the
    /// requirement language as `host_security_level`.
    pub level: i32,
}

impl SecurityRecord {
    pub const BINARY_BYTES: usize = 24 + 4 + 4;

    /// Parse one line of the dummy security log: `<host> <ip> <level>`,
    /// `#`-comments and blank lines skipped by the caller.
    pub fn parse_log_line(line: &str) -> Result<Self, ProtoError> {
        let mut it = line.split_ascii_whitespace();
        let host = take_field(&mut it, "host")?;
        let ip: Ip = take_field(&mut it, "ip")?.parse()?;
        let level = take_field(&mut it, "level")?;
        let level: i32 = level
            .parse()
            .map_err(|_| ProtoError::BadField { field: "level", text: level.into() })?;
        if it.next().is_some() {
            return Err(ProtoError::Malformed("trailing fields in security log line".into()));
        }
        Ok(SecurityRecord { host: HostName::new(host), ip, level })
    }

    /// Render as a dummy-log line.
    pub fn to_log_line(&self) -> String {
        format!("{} {} {}", self.host, self.ip, self.level)
    }

    /// Parse a whole dummy log, skipping comments and blank lines.
    pub fn parse_log(text: &str) -> Result<Vec<Self>, ProtoError> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(Self::parse_log_line)
            .collect()
    }

    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        let mut host = [0u8; 24];
        let src = self.host.as_str().as_bytes();
        let n = src.len().min(23);
        host[..n].copy_from_slice(&src[..n]);
        out.extend_from_slice(&host);
        out.extend_from_slice(&self.ip.0.to_le_bytes());
        out.extend_from_slice(&self.level.to_le_bytes());
    }

    pub fn decode_binary(buf: &mut &[u8]) -> Result<Self, ProtoError> {
        if buf.remaining() < Self::BINARY_BYTES {
            return Err(ProtoError::Truncated {
                expected: Self::BINARY_BYTES,
                got: buf.remaining(),
            });
        }
        let host: [u8; 24] = buf.get_array();
        let end = host.iter().position(|&b| b == 0).unwrap_or(host.len());
        let host = HostName::new(String::from_utf8_lossy(&host[..end]).into_owned());
        Ok(SecurityRecord { host, ip: Ip(buf.get_u32_le()), level: buf.get_i32_le() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_line_roundtrip() {
        let r = SecurityRecord { host: "helene".into(), ip: Ip::new(192, 168, 3, 1), level: 5 };
        let line = r.to_log_line();
        assert_eq!(SecurityRecord::parse_log_line(&line).unwrap(), r);
    }

    #[test]
    fn log_parser_skips_comments_and_blanks() {
        let log = "# dummy security log\n\nhelene 192.168.3.1 5\n  # indented comment\nmimas 192.168.2.1 -1\n";
        let recs = SecurityRecord::parse_log(log).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].host.as_str(), "helene");
        assert_eq!(recs[1].level, -1);
    }

    #[test]
    fn log_line_rejects_garbage() {
        assert!(SecurityRecord::parse_log_line("helene").is_err());
        assert!(SecurityRecord::parse_log_line("helene 192.168.3.1 high").is_err());
        assert!(SecurityRecord::parse_log_line("helene 192.168.3.1 5 extra").is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let r = SecurityRecord { host: "titan-x".into(), ip: Ip::new(192, 168, 4, 1), level: 3 };
        let mut buf = Vec::new();
        r.encode_binary(&mut buf);
        assert_eq!(buf.len(), SecurityRecord::BINARY_BYTES);
        assert_eq!(SecurityRecord::decode_binary(&mut &buf[..]).unwrap(), r);
    }
}
