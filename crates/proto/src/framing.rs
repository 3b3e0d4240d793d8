//! The `[type, size, data]` binary framing used between transmitter and
//! receiver (paper §3.5.1).
//!
//! "The format for data transmission is `[type, size, data]`. *Type* and
//! *size* fields are transmitted first, so the receiver can determine the
//! amount of memory that should be allocated to store the *data* field."
//!
//! Both header fields are little-endian `u32`. The data field carries a
//! snapshot of one status database: a `u32` record count followed by that
//! many fixed-size records of the frame's type.

use crate::consts::sizes::BINARY_STATUS_RECORD_BYTES;
use crate::cursor::LeCursor;
use crate::netstatus::NetPathRecord;
use crate::security::SecurityRecord;
use crate::status::ServerStatusReport;
use crate::ProtoError;

/// Which status database a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum RecordType {
    /// Server status reports (`sysdb`).
    System = 1,
    /// Network path records (`netdb`).
    Network = 2,
    /// Security records (`secdb`).
    Security = 3,
    /// Server status reports with per-record age (`sysdb` with staleness
    /// preserved across the transmitter→receiver hop).
    SystemAged = 4,
}

impl From<RecordType> for u32 {
    fn from(t: RecordType) -> u32 {
        t as u32
    }
}

impl RecordType {
    /// A wire tag decodes to the variant whose declared discriminant it
    /// is: there is no literal here to disagree with the declaration.
    pub fn from_u32(v: u32) -> Result<Self, ProtoError> {
        use RecordType::{Network, Security, System, SystemAged};
        [System, Network, Security, SystemAged]
            .into_iter()
            .find(|t| u32::from(*t) == v)
            .ok_or(ProtoError::UnknownType(v))
    }
}

/// One framed message: a typed, length-prefixed byte payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    pub rtype: RecordType,
    pub data: Vec<u8>,
}

impl Frame {
    /// Header size: `type` + `size`, both `u32`.
    pub const HEADER_BYTES: usize = 8;

    /// Serialize header + payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&u32::from(self.rtype).to_le_bytes());
        out.extend_from_slice(&size_header(self.data.len()).to_le_bytes());
        out.extend_from_slice(&self.data);
    }

    /// Total on-wire length of this frame.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_BYTES + self.data.len()
    }

    /// Try to decode one frame from the front of `buf`, advancing it past
    /// the frame. Returns `Ok(None)` when more bytes are needed (stream
    /// reassembly); neither that nor an error consumes anything.
    pub fn decode(buf: &mut &[u8]) -> Result<Option<Frame>, ProtoError> {
        if buf.remaining() < Self::HEADER_BYTES {
            return Ok(None);
        }
        let mut peek = *buf;
        let rtype = peek.get_u32_le();
        let size = peek.get_u32_le() as usize;
        if peek.remaining() < size {
            return Ok(None);
        }
        let rtype = RecordType::from_u32(rtype)?;
        let (data, rest) = peek.split_at(size);
        *buf = rest;
        Ok(Some(Frame { rtype, data: data.to_vec() }))
    }

    // ------------------------------------------------------------------
    // Snapshot payloads
    // ------------------------------------------------------------------

    /// Build a `System` frame from a database snapshot.
    pub fn system(records: &[ServerStatusReport]) -> Frame {
        let mut data = counted(records.len(), BINARY_STATUS_RECORD_BYTES);
        for r in records {
            r.encode_binary(&mut data);
        }
        Frame { rtype: RecordType::System, data }
    }

    /// Build a `SystemAged` frame: each report plus its age in nanoseconds
    /// at snapshot time. Plain `System` frames lose row staleness in
    /// transit (the receiver can only stamp the arrival time); this
    /// variant lets the wizard machine reconstruct each record's original
    /// report time, so its staleness-aware selection sees true ages.
    pub fn system_aged(records: &[(ServerStatusReport, u64)]) -> Frame {
        let mut data = counted(records.len(), BINARY_STATUS_RECORD_BYTES + 8);
        for (r, age_ns) in records {
            r.encode_binary(&mut data);
            data.extend_from_slice(&age_ns.to_le_bytes());
        }
        Frame { rtype: RecordType::SystemAged, data }
    }

    /// Build a `Network` frame from a database snapshot.
    pub fn network(records: &[NetPathRecord]) -> Frame {
        let mut data = counted(records.len(), NetPathRecord::BINARY_BYTES);
        for r in records {
            r.encode_binary(&mut data);
        }
        Frame { rtype: RecordType::Network, data }
    }

    /// Build a `Security` frame from a database snapshot.
    pub fn security(records: &[SecurityRecord]) -> Frame {
        let mut data = counted(records.len(), SecurityRecord::BINARY_BYTES);
        for r in records {
            r.encode_binary(&mut data);
        }
        Frame { rtype: RecordType::Security, data }
    }

    /// Decode a `System` payload.
    pub fn decode_system(&self) -> Result<Vec<ServerStatusReport>, ProtoError> {
        self.expect(RecordType::System)?;
        decode_counted(&self.data, ServerStatusReport::decode_binary)
    }

    /// Decode a `SystemAged` payload into `(report, age_ns)` pairs.
    pub fn decode_system_aged(&self) -> Result<Vec<(ServerStatusReport, u64)>, ProtoError> {
        self.expect(RecordType::SystemAged)?;
        decode_counted(&self.data, |cursor| {
            let report = ServerStatusReport::decode_binary(cursor)?;
            if cursor.remaining() < 8 {
                return Err(ProtoError::Truncated { expected: 8, got: cursor.remaining() });
            }
            Ok((report, cursor.get_u64_le()))
        })
    }

    /// Decode a `Network` payload.
    pub fn decode_network(&self) -> Result<Vec<NetPathRecord>, ProtoError> {
        self.expect(RecordType::Network)?;
        decode_counted(&self.data, NetPathRecord::decode_binary)
    }

    /// Decode a `Security` payload.
    pub fn decode_security(&self) -> Result<Vec<SecurityRecord>, ProtoError> {
        self.expect(RecordType::Security)?;
        decode_counted(&self.data, SecurityRecord::decode_binary)
    }

    fn expect(&self, want: RecordType) -> Result<(), ProtoError> {
        if self.rtype == want {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!("expected {want:?} frame, got {:?}", self.rtype)))
        }
    }
}

/// Checked `usize → u32` for header fields. Both the payload length and the
/// record count are bounded far below `u32::MAX` by construction (snapshots
/// of small in-memory databases), but a silent `as` truncation here would
/// desynchronize the stream; panicking loudly is the lesser evil.
fn size_header(n: usize) -> u32 {
    u32::try_from(n).expect("invariant: frame payload/record count fits the u32 header")
}

/// A snapshot payload's buffer, sized for `n` records of `record_bytes`
/// each and holding their `u32` count.
fn counted(n: usize, record_bytes: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(4 + n * record_bytes);
    data.extend_from_slice(&size_header(n).to_le_bytes());
    data
}

fn decode_counted<T>(
    mut cursor: &[u8],
    decode_one: impl Fn(&mut &[u8]) -> Result<T, ProtoError>,
) -> Result<Vec<T>, ProtoError> {
    if cursor.remaining() < 4 {
        return Err(ProtoError::Truncated { expected: 4, got: cursor.remaining() });
    }
    let count = cursor.get_u32_le() as usize;
    // The count is the wire's claim; every record takes at least one of
    // the bytes that follow, so those bound what is worth reserving.
    let mut out = Vec::with_capacity(count.min(cursor.remaining()));
    for _ in 0..count {
        out.push(decode_one(&mut cursor)?);
    }
    if cursor.remaining() > 0 {
        return Err(ProtoError::Malformed(format!(
            "{} trailing bytes after {} records",
            cursor.remaining(),
            count
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ip;

    fn sys_report(i: u8) -> ServerStatusReport {
        let mut r = ServerStatusReport::empty(format!("host{i}").as_str(), Ip::new(192, 168, 1, i));
        r.load1 = f64::from(i) / 10.0;
        r.mem_total = 1 << 28;
        r
    }

    #[test]
    fn every_record_type_decodes_from_its_own_discriminant() {
        // Exhaustive: a new variant does not compile until it joins this
        // walk, and then fails the round trip until `from_u32` lists it.
        fn next(t: RecordType) -> Option<RecordType> {
            match t {
                RecordType::System => Some(RecordType::Network),
                RecordType::Network => Some(RecordType::Security),
                RecordType::Security => Some(RecordType::SystemAged),
                RecordType::SystemAged => None,
            }
        }
        let mut walk = Some(RecordType::System);
        let mut seen = 0;
        while let Some(t) = walk {
            assert_eq!(RecordType::from_u32(u32::from(t)), Ok(t));
            seen += 1;
            walk = next(t);
        }
        assert_eq!(seen, 4);
        assert_eq!(RecordType::from_u32(0), Err(ProtoError::UnknownType(0)));
        assert_eq!(RecordType::from_u32(5), Err(ProtoError::UnknownType(5)));
    }

    #[test]
    fn a_huge_record_count_is_truncated_not_reserved() {
        // 12 bytes: a 4-byte payload claiming u32::MAX records.
        let frame = |rtype: RecordType| {
            let wire = [u32::from(rtype), 4, u32::MAX].map(u32::to_le_bytes).concat();
            Frame::decode(&mut &wire[..]).unwrap().unwrap()
        };
        let truncated =
            |r: Result<usize, ProtoError>| matches!(r, Err(ProtoError::Truncated { .. }));
        assert!(truncated(frame(RecordType::System).decode_system().map(|v| v.len())));
        assert!(truncated(frame(RecordType::SystemAged).decode_system_aged().map(|v| v.len())));
        assert!(truncated(frame(RecordType::Network).decode_network().map(|v| v.len())));
        assert!(truncated(frame(RecordType::Security).decode_security().map(|v| v.len())));
    }

    #[test]
    fn frame_roundtrip_over_a_byte_stream() {
        let frame = Frame::system(&[sys_report(1), sys_report(2)]);
        let mut wire = Vec::new();
        frame.encode(&mut wire);
        assert_eq!(wire.len(), frame.wire_len());

        let mut rest = &wire[..];
        let got = Frame::decode(&mut rest).unwrap().unwrap();
        assert_eq!(got, frame);
        assert!(rest.is_empty());
        let records = got.decode_system().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].host.as_str(), "host2");
    }

    #[test]
    fn aged_system_frames_carry_per_record_ages() {
        let frame = Frame::system_aged(&[(sys_report(1), 0), (sys_report(2), 4_500_000_000)]);
        let mut wire = Vec::new();
        frame.encode(&mut wire);
        let got = Frame::decode(&mut &wire[..]).unwrap().unwrap();
        let records = got.decode_system_aged().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].1, 0);
        assert_eq!(records[1].0.host.as_str(), "host2");
        assert_eq!(records[1].1, 4_500_000_000);
        // Type confusion against the un-aged decoder is rejected.
        assert!(got.decode_system().is_err());
    }

    #[test]
    fn decode_waits_for_partial_frames() {
        let frame = Frame::security(&[SecurityRecord {
            host: "helene".into(),
            ip: Ip::new(192, 168, 3, 1),
            level: 2,
        }]);
        let mut wire = Vec::new();
        frame.encode(&mut wire);

        // Feed the stream byte by byte; nothing decodes until complete,
        // and a partial frame is left unconsumed.
        for len in 0..wire.len() {
            let mut rx = &wire[..len];
            assert_eq!(Frame::decode(&mut rx), Ok(None), "decoded early at byte {len}");
            assert_eq!(rx.len(), len);
        }
        assert_eq!(Frame::decode(&mut &wire[..]), Ok(Some(frame)));
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let f1 = Frame::system(&[sys_report(1)]);
        let f2 = Frame::network(&[NetPathRecord {
            from_monitor: Ip::new(10, 0, 0, 1),
            to_monitor: Ip::new(10, 0, 0, 2),
            delay_ms: 1.5,
            bw_mbps: 88.0,
            timestamp_ns: 7,
        }]);
        let mut wire = Vec::new();
        f1.encode(&mut wire);
        f2.encode(&mut wire);
        let mut rest = &wire[..];
        assert_eq!(Frame::decode(&mut rest).unwrap().unwrap(), f1);
        assert_eq!(Frame::decode(&mut rest).unwrap().unwrap(), f2);
        assert!(Frame::decode(&mut rest).unwrap().is_none());
    }

    #[test]
    fn unknown_type_is_an_error() {
        let wire = [99u32, 0].map(u32::to_le_bytes).concat();
        assert_eq!(Frame::decode(&mut &wire[..]), Err(ProtoError::UnknownType(99)));
    }

    #[test]
    fn type_confusion_is_rejected() {
        let frame = Frame::system(&[sys_report(1)]);
        assert!(frame.decode_network().is_err());
        assert!(frame.decode_security().is_err());
    }

    #[test]
    fn trailing_bytes_in_payload_are_rejected() {
        // Zero records, but a stray byte.
        let frame = Frame { rtype: RecordType::System, data: vec![0, 0, 0, 0, 0xff] };
        assert!(frame.decode_system().is_err());
    }

    #[test]
    fn empty_snapshots_are_valid() {
        let frame = Frame::network(&[]);
        assert_eq!(frame.decode_network().unwrap(), vec![]);
    }
}
