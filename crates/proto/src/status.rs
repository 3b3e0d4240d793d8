//! The server status report (paper §3.2.1, Table 3.1).
//!
//! A probe scans `/proc/loadavg`, `/proc/stat`, `/proc/meminfo` and
//! `/proc/net/dev`, then sends the extracted numbers to the system monitor.
//! Two encodings exist, both from the paper:
//!
//! * **ASCII** (probe → system monitor, UDP): numbers as decimal strings so
//!   probes "can run on both machines with Big Endian and Little Endian
//!   without any modification". The message must stay under 200 bytes.
//! * **Binary** (transmitter → receiver, TCP): a fixed 204-byte packed
//!   record (§5.2: "a server status structure, which is 204 bytes long").
//!   The paper ships raw structs and warns both ends must share endianness;
//!   we instead pin an explicit little-endian layout, which preserves the
//!   efficiency rationale while removing the portability hazard.

use crate::addr::{HostName, Ip};
use crate::consts::sizes::BINARY_STATUS_RECORD_BYTES;
use crate::cursor::LeCursor;
use crate::services::ServiceMask;
use crate::{take_field as take, ProtoError};

/// One server's resource snapshot, the unit record of the system-status
/// database (`sysdb` in Fig 3.10).
#[derive(Clone, Debug, PartialEq)]
pub struct ServerStatusReport {
    /// Unqualified host name (≤ 23 bytes in the binary encoding).
    pub host: HostName,
    /// Address application sockets will connect to.
    pub ip: Ip,
    /// Probe-side timestamp in nanoseconds of virtual time. Zero in the
    /// ASCII encoding (the monitor stamps receipt); carried in the binary
    /// record so the wizard can judge staleness.
    pub timestamp_ns: u64,
    /// System load averages over 1, 5 and 15 minutes (`/proc/loadavg`).
    pub load1: f64,
    pub load5: f64,
    pub load15: f64,
    /// CPU time fractions since the previous scan (`/proc/stat`); the four
    /// fields sum to ≈ 1.
    pub cpu_user: f64,
    pub cpu_nice: f64,
    pub cpu_system: f64,
    pub cpu_idle: f64,
    /// BogoMIPS as printed by the kernel at boot; the requirement language
    /// exposes it as `host_cpu_bogomips` (used in Tables 5.3/5.4).
    pub bogomips: f64,
    /// Memory occupancy in bytes (`/proc/meminfo`).
    pub mem_total: u64,
    pub mem_used: u64,
    pub mem_free: u64,
    pub mem_buffers: u64,
    pub mem_cached: u64,
    /// Disk request/block counters accumulated since the previous scan
    /// (`disk_io` of `/proc/stat`).
    pub disk_allreq: u64,
    pub disk_rreq: u64,
    pub disk_rblocks: u64,
    pub disk_wreq: u64,
    pub disk_wblocks: u64,
    /// Primary network interface name (`/proc/net/dev`).
    pub iface: String,
    /// Interface throughput in bytes and packets per second, averaged over
    /// the scan interval.
    pub net_rbytes_ps: f64,
    pub net_rpackets_ps: f64,
    pub net_tbytes_ps: f64,
    pub net_tpackets_ps: f64,
    /// Services this host advertises (§6 extension; `ServiceMask::NONE`
    /// on hosts that predate the extension).
    pub services: ServiceMask,
}

impl ServerStatusReport {
    /// A zeroed report for `host`/`ip`, useful as a builder base.
    pub fn empty(host: impl Into<HostName>, ip: Ip) -> Self {
        ServerStatusReport {
            host: host.into(),
            ip,
            timestamp_ns: 0,
            load1: 0.0,
            load5: 0.0,
            load15: 0.0,
            cpu_user: 0.0,
            cpu_nice: 0.0,
            cpu_system: 0.0,
            cpu_idle: 1.0,
            bogomips: 0.0,
            mem_total: 0,
            mem_used: 0,
            mem_free: 0,
            mem_buffers: 0,
            mem_cached: 0,
            disk_allreq: 0,
            disk_rreq: 0,
            disk_rblocks: 0,
            disk_wreq: 0,
            disk_wblocks: 0,
            iface: "eth0".to_owned(),
            net_rbytes_ps: 0.0,
            net_rpackets_ps: 0.0,
            net_tbytes_ps: 0.0,
            net_tpackets_ps: 0.0,
            services: ServiceMask::NONE,
        }
    }

    /// Free CPU fraction — the requirement variable `host_cpu_free`.
    pub fn cpu_free(&self) -> f64 {
        self.cpu_idle
    }

    // ------------------------------------------------------------------
    // ASCII encoding (probe → system monitor)
    // ------------------------------------------------------------------

    /// Magic token opening every ASCII report.
    pub const ASCII_MAGIC: &'static str = "SSR1";

    /// Encode as the positional ASCII line sent over UDP.
    ///
    /// Field order is fixed; floats carry just enough precision for the
    /// requirement language, keeping the whole message under the paper's
    /// 200-byte bound for realistic values.
    ///
    /// # Example
    ///
    /// ```
    /// use smartsock_proto::{Ip, ServerStatusReport};
    ///
    /// let mut report = ServerStatusReport::empty("helene", Ip::new(192, 168, 3, 10));
    /// report.load1 = 0.25;
    /// let line = report.encode_ascii();
    /// assert!(line.len() < 200, "the paper's size bound");
    /// let back = ServerStatusReport::parse_ascii(&line).unwrap();
    /// assert_eq!(back.host.as_str(), "helene");
    /// assert_eq!(back.load1, 0.25);
    /// ```
    pub fn encode_ascii(&self) -> String {
        format!(
            "{magic} {host} {ip} {l1:.2} {l5:.2} {l15:.2} \
             {cu:.3} {cn:.3} {cs:.3} {ci:.3} {bm:.2} \
             {mt} {mu} {mf} {mb} {mc} \
             {da} {dr} {drb} {dw} {dwb} \
             {ifc} {nrb:.1} {nrp:.1} {ntb:.1} {ntp:.1} {svc}",
            magic = Self::ASCII_MAGIC,
            host = self.host,
            ip = self.ip,
            l1 = self.load1,
            l5 = self.load5,
            l15 = self.load15,
            cu = self.cpu_user,
            cn = self.cpu_nice,
            cs = self.cpu_system,
            ci = self.cpu_idle,
            bm = self.bogomips,
            mt = self.mem_total,
            mu = self.mem_used,
            mf = self.mem_free,
            mb = self.mem_buffers,
            mc = self.mem_cached,
            da = self.disk_allreq,
            dr = self.disk_rreq,
            drb = self.disk_rblocks,
            dw = self.disk_wreq,
            dwb = self.disk_wblocks,
            ifc = self.iface,
            nrb = self.net_rbytes_ps,
            nrp = self.net_rpackets_ps,
            ntb = self.net_tbytes_ps,
            ntp = self.net_tpackets_ps,
            svc = self.services.0,
        )
    }

    /// Parse the positional ASCII line. A well-formed line allocates the
    /// two strings its row keeps (host and interface name) and nothing
    /// else: error values are built only on the path that returns them.
    pub fn parse_ascii(text: &str) -> Result<Self, ProtoError> {
        let mut it = text.split_ascii_whitespace();
        let magic = it.next().unwrap_or("");
        if magic != Self::ASCII_MAGIC {
            return Err(ProtoError::Malformed(format!("bad magic {magic:?}")));
        }
        // `"NaN".parse::<f64>()` is `Ok`, and a NaN row is invisible to
        // the shard range summaries the wizard prunes by: finite only.
        fn f64_of(s: &str, field: &'static str) -> Result<f64, ProtoError> {
            s.parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| ProtoError::BadField { field, text: s.into() })
        }
        fn u64_of(s: &str, field: &'static str) -> Result<u64, ProtoError> {
            s.parse().map_err(|_| ProtoError::BadField { field, text: s.into() })
        }

        let host = HostName::new(take(&mut it, "host")?);
        let ip: Ip = take(&mut it, "ip")?.parse()?;
        let mut r = ServerStatusReport::empty(host, ip);
        r.load1 = f64_of(take(&mut it, "load1")?, "load1")?;
        r.load5 = f64_of(take(&mut it, "load5")?, "load5")?;
        r.load15 = f64_of(take(&mut it, "load15")?, "load15")?;
        r.cpu_user = f64_of(take(&mut it, "cpu_user")?, "cpu_user")?;
        r.cpu_nice = f64_of(take(&mut it, "cpu_nice")?, "cpu_nice")?;
        r.cpu_system = f64_of(take(&mut it, "cpu_system")?, "cpu_system")?;
        r.cpu_idle = f64_of(take(&mut it, "cpu_idle")?, "cpu_idle")?;
        r.bogomips = f64_of(take(&mut it, "bogomips")?, "bogomips")?;
        r.mem_total = u64_of(take(&mut it, "mem_total")?, "mem_total")?;
        r.mem_used = u64_of(take(&mut it, "mem_used")?, "mem_used")?;
        r.mem_free = u64_of(take(&mut it, "mem_free")?, "mem_free")?;
        r.mem_buffers = u64_of(take(&mut it, "mem_buffers")?, "mem_buffers")?;
        r.mem_cached = u64_of(take(&mut it, "mem_cached")?, "mem_cached")?;
        r.disk_allreq = u64_of(take(&mut it, "disk_allreq")?, "disk_allreq")?;
        r.disk_rreq = u64_of(take(&mut it, "disk_rreq")?, "disk_rreq")?;
        r.disk_rblocks = u64_of(take(&mut it, "disk_rblocks")?, "disk_rblocks")?;
        r.disk_wreq = u64_of(take(&mut it, "disk_wreq")?, "disk_wreq")?;
        r.disk_wblocks = u64_of(take(&mut it, "disk_wblocks")?, "disk_wblocks")?;
        r.iface.clear(); // `empty()`'s "eth0": its buffer is reused
        r.iface.push_str(take(&mut it, "iface")?);
        r.net_rbytes_ps = f64_of(take(&mut it, "net_rbytes_ps")?, "net_rbytes_ps")?;
        r.net_rpackets_ps = f64_of(take(&mut it, "net_rpackets_ps")?, "net_rpackets_ps")?;
        r.net_tbytes_ps = f64_of(take(&mut it, "net_tbytes_ps")?, "net_tbytes_ps")?;
        r.net_tpackets_ps = f64_of(take(&mut it, "net_tpackets_ps")?, "net_tpackets_ps")?;
        // §6 service extension: present on new probes, absent on old ones.
        if let Some(tok) = it.next() {
            let mask: u32 = tok
                .parse()
                .map_err(|_| ProtoError::BadField { field: "services", text: tok.into() })?;
            r.services = ServiceMask(mask);
        }
        if it.next().is_some() {
            return Err(ProtoError::Malformed("trailing fields".into()));
        }
        Ok(r)
    }

    // ------------------------------------------------------------------
    // Binary encoding (transmitter → receiver)
    // ------------------------------------------------------------------

    const HOST_FIELD: usize = 24;
    const IFACE_FIELD: usize = 8;

    /// Encode as the fixed-size 204-byte little-endian record.
    ///
    /// Layout (offsets in bytes):
    /// `host[24] ip[4] timestamp[8] loads[3×f32] cpu[4×f32] bogomips[f32]
    /// mem[5×u64] disk[5×u64] net[4×f32] iface[8] reserved[32]`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Table 3.5 gives the loads, cpu shares, bogomips and net rates as f32 fields"
    )]
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        let mut host = [0u8; Self::HOST_FIELD];
        copy_truncated(&mut host, self.host.as_str().as_bytes());
        out.extend_from_slice(&host);
        out.extend_from_slice(&self.ip.0.to_le_bytes());
        out.extend_from_slice(&self.timestamp_ns.to_le_bytes());
        for v in [self.load1, self.load5, self.load15] {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        }
        for v in [self.cpu_user, self.cpu_nice, self.cpu_system, self.cpu_idle] {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        }
        out.extend_from_slice(&(self.bogomips as f32).to_le_bytes());
        for v in [self.mem_total, self.mem_used, self.mem_free, self.mem_buffers, self.mem_cached] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in
            [self.disk_allreq, self.disk_rreq, self.disk_rblocks, self.disk_wreq, self.disk_wblocks]
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in
            [self.net_rbytes_ps, self.net_rpackets_ps, self.net_tbytes_ps, self.net_tpackets_ps]
        {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        }
        let mut iface = [0u8; Self::IFACE_FIELD];
        copy_truncated(&mut iface, self.iface.as_bytes());
        out.extend_from_slice(&iface);
        out.extend_from_slice(&self.services.0.to_le_bytes()); // §6 service extension
        out.extend_from_slice(&[0u8; 28]); // reserved
    }

    /// Decode one 204-byte record, consuming it from `buf`.
    pub fn decode_binary(buf: &mut &[u8]) -> Result<Self, ProtoError> {
        if buf.remaining() < BINARY_STATUS_RECORD_BYTES {
            return Err(ProtoError::Truncated {
                expected: BINARY_STATUS_RECORD_BYTES,
                got: buf.remaining(),
            });
        }
        let host = HostName::new(cstr_of(&buf.get_array::<{ Self::HOST_FIELD }>()));
        let ip = Ip(buf.get_u32_le());
        let mut r = ServerStatusReport::empty(host, ip);
        r.timestamp_ns = buf.get_u64_le();
        r.load1 = buf.get_f32_le() as f64;
        r.load5 = buf.get_f32_le() as f64;
        r.load15 = buf.get_f32_le() as f64;
        r.cpu_user = buf.get_f32_le() as f64;
        r.cpu_nice = buf.get_f32_le() as f64;
        r.cpu_system = buf.get_f32_le() as f64;
        r.cpu_idle = buf.get_f32_le() as f64;
        r.bogomips = buf.get_f32_le() as f64;
        r.mem_total = buf.get_u64_le();
        r.mem_used = buf.get_u64_le();
        r.mem_free = buf.get_u64_le();
        r.mem_buffers = buf.get_u64_le();
        r.mem_cached = buf.get_u64_le();
        r.disk_allreq = buf.get_u64_le();
        r.disk_rreq = buf.get_u64_le();
        r.disk_rblocks = buf.get_u64_le();
        r.disk_wreq = buf.get_u64_le();
        r.disk_wblocks = buf.get_u64_le();
        r.net_rbytes_ps = buf.get_f32_le() as f64;
        r.net_rpackets_ps = buf.get_f32_le() as f64;
        r.net_tbytes_ps = buf.get_f32_le() as f64;
        r.net_tpackets_ps = buf.get_f32_le() as f64;
        r.iface = cstr_of(&buf.get_array::<{ Self::IFACE_FIELD }>());
        r.services = ServiceMask(buf.get_u32_le());
        let _reserved: [u8; 28] = buf.get_array();
        Ok(r)
    }
}

fn copy_truncated(dst: &mut [u8], src: &[u8]) {
    let n = src.len().min(dst.len().saturating_sub(1)); // keep a trailing NUL
    dst[..n].copy_from_slice(&src[..n]);
}

fn cstr_of(bytes: &[u8]) -> String {
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    String::from_utf8_lossy(&bytes[..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServerStatusReport {
        let mut r = ServerStatusReport::empty("pandora-x", Ip::new(192, 168, 4, 2));
        r.timestamp_ns = 123_456_789;
        r.load1 = 0.12;
        r.load5 = 0.34;
        r.load15 = 0.56;
        r.cpu_user = 0.02;
        r.cpu_nice = 0.0;
        r.cpu_system = 0.01;
        r.cpu_idle = 0.97;
        r.bogomips = 3591.37;
        r.mem_total = 268_435_456;
        r.mem_used = 121_085_952;
        r.mem_free = 141_127_680;
        r.mem_buffers = 18_284_544;
        r.mem_cached = 82_911_232;
        r.disk_allreq = 1234;
        r.disk_rreq = 100;
        r.disk_rblocks = 800;
        r.disk_wreq = 50;
        r.disk_wblocks = 400;
        r.net_rbytes_ps = 1024.0;
        r.net_rpackets_ps = 10.0;
        r.net_tbytes_ps = 204_800.5;
        r.net_tpackets_ps = 120.0;
        r.services = ServiceMask::COMPUTE | ServiceMask::FILE;
        r
    }

    #[test]
    fn ascii_roundtrip_preserves_fields() {
        let r = sample();
        let line = r.encode_ascii();
        let back = ServerStatusReport::parse_ascii(&line).unwrap();
        assert_eq!(back.host, r.host);
        assert_eq!(back.ip, r.ip);
        assert_eq!(back.mem_total, r.mem_total);
        assert_eq!(back.disk_wblocks, r.disk_wblocks);
        assert!((back.load1 - r.load1).abs() < 0.005);
        assert!((back.cpu_idle - r.cpu_idle).abs() < 0.0005);
        assert!((back.net_tbytes_ps - r.net_tbytes_ps).abs() < 0.05);
        assert_eq!(back.services, r.services);
        // ASCII encoding intentionally drops the timestamp.
        assert_eq!(back.timestamp_ns, 0);
    }

    #[test]
    fn ascii_report_is_under_200_bytes_as_the_paper_states() {
        // §3.2.1: "The server status report message is less than 200 bytes".
        let mut r = sample();
        // Exercise a worst case: huge counters, long-ish host name.
        r.host = "dalmatian".into();
        r.mem_total = 536_870_912;
        r.mem_used = 536_870_912;
        r.mem_free = 536_870_912;
        r.mem_buffers = 536_870_912;
        r.mem_cached = 536_870_912;
        r.disk_allreq = 99_999_999;
        r.disk_rblocks = 99_999_999;
        r.disk_wblocks = 99_999_999;
        r.net_tbytes_ps = 12_500_000.0;
        r.net_rbytes_ps = 12_500_000.0;
        let len = r.encode_ascii().len();
        assert!(
            len < crate::consts::sizes::MAX_STATUS_REPORT_BYTES,
            "report too long: {len} bytes"
        );
    }

    #[test]
    fn ascii_rejects_bad_magic_and_truncation() {
        assert!(ServerStatusReport::parse_ascii("XXX 1 2 3").is_err());
        let line = sample().encode_ascii();
        let cut: String = line.split_ascii_whitespace().take(5).collect::<Vec<_>>().join(" ");
        assert!(ServerStatusReport::parse_ascii(&cut).is_err());
        let extended = format!("{line} 99");
        assert!(ServerStatusReport::parse_ascii(&extended).is_err(), "extra field after the mask");
        let bad_mask_line = line.rsplit_once(' ').unwrap().0;
        let bad = format!("{bad_mask_line} notamask");
        assert!(ServerStatusReport::parse_ascii(&bad).is_err());
    }

    #[test]
    fn ascii_rejects_non_finite_floats_in_every_float_field() {
        let line = sample().encode_ascii();
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        // loads, cpu shares, bogomips; then the four net rates.
        for i in (3..=10).chain(22..=25) {
            for token in ["NaN", "nan", "inf", "-inf", "infinity"] {
                let mut bad = fields.clone();
                bad[i] = token;
                let got = ServerStatusReport::parse_ascii(&bad.join(" "));
                assert!(
                    matches!(got, Err(ProtoError::BadField { .. })),
                    "field {i} = {token}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn binary_record_is_exactly_204_bytes() {
        // §5.2: the parsed server status structure is 204 bytes long.
        let mut buf = Vec::new();
        sample().encode_binary(&mut buf);
        assert_eq!(buf.len(), BINARY_STATUS_RECORD_BYTES);
    }

    #[test]
    fn binary_roundtrip_preserves_fields() {
        let r = sample();
        let mut buf = Vec::new();
        r.encode_binary(&mut buf);
        let back = ServerStatusReport::decode_binary(&mut &buf[..]).unwrap();
        assert_eq!(back.host, r.host);
        assert_eq!(back.ip, r.ip);
        assert_eq!(back.timestamp_ns, r.timestamp_ns);
        assert_eq!(back.mem_total, r.mem_total);
        assert_eq!(back.disk_rblocks, r.disk_rblocks);
        assert_eq!(back.iface, r.iface);
        assert_eq!(back.services, r.services);
        assert!((back.bogomips - r.bogomips).abs() < 0.01);
        assert!((back.cpu_idle - r.cpu_idle).abs() < 1e-6);
    }

    #[test]
    fn binary_decode_rejects_short_buffers() {
        let mut buf = Vec::new();
        sample().encode_binary(&mut buf);
        assert_eq!(
            ServerStatusReport::decode_binary(&mut &buf[..100]),
            Err(ProtoError::Truncated { expected: 204, got: 100 })
        );
    }

    #[test]
    fn long_host_names_are_truncated_not_corrupted() {
        let mut r = sample();
        r.host = "a-very-long-host-name-that-exceeds-the-field".into();
        let mut buf = Vec::new();
        r.encode_binary(&mut buf);
        let back = ServerStatusReport::decode_binary(&mut &buf[..]).unwrap();
        assert_eq!(back.host.as_str(), &r.host.as_str()[..23]);
    }
}
