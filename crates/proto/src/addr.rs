//! Addressing: IPv4-style host addresses, hostnames and endpoints.
//!
//! The requirement language lets users write either dotted-quad addresses
//! (`137.132.90.182`) or domain names (`sagit.ddns.comp.nus.edu.sg`) for the
//! preferred/denied host lists (§3.6.1, lexical class `NETADDR`). The
//! simulated testbed keeps a name↔address registry, so both spellings
//! resolve to the same server.

use std::fmt;
use std::str::FromStr;

use crate::ProtoError;

/// An IPv4 address in the simulated internet, stored big-endian-logically
/// (the first octet is the most significant byte).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ip(pub u32);

impl Ip {
    #[expect(
        clippy::big_endian_bytes,
        reason = "dotted-quad value ordering (the definition of an IPv4 address), not wire-frame layout: frames carry the u32 as _le"
    )]
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ip {
        Ip(u32::from_be_bytes([a, b, c, d]))
    }

    /// The loopback address `127.0.0.1`.
    pub const LOOPBACK: Ip = Ip::new(127, 0, 0, 1);

    #[expect(
        clippy::big_endian_bytes,
        reason = "inverse of `new`: recovers display octets, not bytes on the wire"
    )]
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// True if this address is in `127.0.0.0/8`.
    pub fn is_loopback(self) -> bool {
        self.octets()[0] == 127
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ip {
    type Err = ProtoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ProtoError::BadField { field: "ip", text: s.to_owned() };
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for o in &mut octets {
            let p = parts.next().ok_or_else(bad)?;
            // Reject empty and non-digit segments explicitly; `parse::<u8>`
            // would also reject them but with less precise intent.
            if p.is_empty() || !p.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            *o = p.parse().map_err(|_| bad())?;
        }
        if parts.next().is_some() {
            return Err(bad());
        }
        Ok(Ip::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// A (host, port) pair — the address of one simulated socket.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    pub ip: Ip,
    pub port: u16,
}

impl Endpoint {
    pub const fn new(ip: Ip, port: u16) -> Endpoint {
        Endpoint { ip, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Endpoint {
    type Err = ProtoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, port) = s
            .split_once(':')
            .ok_or_else(|| ProtoError::BadField { field: "endpoint", text: s.to_owned() })?;
        Ok(Endpoint {
            ip: ip.parse()?,
            port: port
                .parse()
                .map_err(|_| ProtoError::BadField { field: "port", text: port.to_owned() })?,
        })
    }
}

/// A symbolic host name, as written in requirement files.
///
/// Host names in the testbed mirror the paper's machines (`sagit`,
/// `dalmatian`, `mimas`, ...). Comparison is case-insensitive, matching
/// common DNS behaviour.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostName(String);

impl HostName {
    pub fn new(name: impl Into<String>) -> HostName {
        let mut name = name.into();
        name.make_ascii_lowercase(); // in place: one allocation per name
        HostName(name)
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The unqualified leading label (`sagit` of `sagit.comp.nus.edu.sg`).
    pub fn short(&self) -> &str {
        self.0.split('.').next().unwrap_or(&self.0)
    }

    /// True when `other` names the same machine: equal fully-qualified
    /// names, or one side is the unqualified form of the other.
    pub fn matches(&self, other: &HostName) -> bool {
        self == other || self.short() == other.short()
    }
}

impl fmt::Display for HostName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for HostName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&str> for HostName {
    fn from(s: &str) -> Self {
        HostName::new(s)
    }
}

/// Either spelling of a network address in the requirement language.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum NetAddr {
    Ip(Ip),
    Name(HostName),
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetAddr::Ip(ip) => write!(f, "{ip}"),
            NetAddr::Name(n) => write!(f, "{n}"),
        }
    }
}

impl FromStr for NetAddr {
    type Err = ProtoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Ok(ip) = s.parse::<Ip>() {
            return Ok(NetAddr::Ip(ip));
        }
        if s.is_empty()
            || !s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_')
        {
            return Err(ProtoError::BadField { field: "netaddr", text: s.to_owned() });
        }
        Ok(NetAddr::Name(HostName::new(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_display_parse_roundtrip() {
        let ip = Ip::new(137, 132, 90, 182);
        assert_eq!(ip.to_string(), "137.132.90.182");
        assert_eq!("137.132.90.182".parse::<Ip>().unwrap(), ip);
    }

    #[test]
    fn ip_rejects_malformed_text() {
        for bad in ["", "1.2.3", "1.2.3.4.5", "1.2.3.x", "300.1.1.1", "1..2.3", "1.2.3.4 "] {
            assert!(bad.parse::<Ip>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn loopback_is_127_slash_8() {
        assert!(Ip::LOOPBACK.is_loopback());
        assert!(!Ip::new(192, 168, 1, 9).is_loopback());
    }

    #[test]
    fn endpoint_roundtrip() {
        let e = Endpoint::new(Ip::new(192, 168, 1, 2), 1120);
        assert_eq!(e.to_string(), "192.168.1.2:1120");
        assert_eq!("192.168.1.2:1120".parse::<Endpoint>().unwrap(), e);
        assert!("192.168.1.2".parse::<Endpoint>().is_err());
        assert!("192.168.1.2:http".parse::<Endpoint>().is_err());
    }

    #[test]
    fn hostname_matching_is_case_insensitive_and_label_aware() {
        let full: HostName = "Sagit.ddns.comp.nus.edu.sg".into();
        let short: HostName = "sagit".into();
        assert_eq!(full.short(), "sagit");
        assert!(full.matches(&short));
        assert!(short.matches(&full));
        assert!(!short.matches(&"mimas".into()));
    }

    #[test]
    fn netaddr_distinguishes_ips_and_names() {
        assert_eq!("10.0.0.1".parse::<NetAddr>().unwrap(), NetAddr::Ip(Ip::new(10, 0, 0, 1)));
        assert_eq!(
            "sagit.comp.nus.edu.sg".parse::<NetAddr>().unwrap(),
            NetAddr::Name("sagit.comp.nus.edu.sg".into())
        );
        assert!("not a host!".parse::<NetAddr>().is_err());
    }
}
