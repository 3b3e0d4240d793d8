//! Property-based tests of the wire formats and network-model invariants.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use smartsock_hostsim::TopologySpec;
use smartsock_net::packet::{fragment_sizes, udp_wire_size};
use smartsock_proto::{
    Endpoint, Frame, Ip, NetPathRecord, OutcomeKind, OutcomeReport, ProtoError, RecordType,
    RequestOption, SecurityRecord, ServerStatusReport, StatsReply, StatsRequest, UserRequest,
    WizardReply,
};
use smartsock_sim::{SimTime, Telemetry};
use smartsock_wizard::{Input, SelectPolicy, Stepped, WizardEngine};

fn arb_ip() -> impl Strategy<Value = Ip> {
    any::<u32>().prop_map(Ip)
}

fn arb_report() -> impl Strategy<Value = ServerStatusReport> {
    (
        "[a-z][a-z0-9-]{0,14}",
        arb_ip(),
        0.0f64..100.0,
        proptest::collection::vec(0u64..1u64 << 33, 5),
        0.0f64..1e8,
    )
        .prop_map(|(host, ip, load, mems, rate)| {
            let mut r = ServerStatusReport::empty(host.as_str(), ip);
            r.load1 = load;
            r.load5 = load / 2.0;
            r.cpu_idle = 0.5;
            r.cpu_user = 0.5;
            r.mem_total = mems[0];
            r.mem_used = mems[1];
            r.mem_free = mems[2];
            r.mem_buffers = mems[3];
            r.mem_cached = mems[4];
            r.disk_rblocks = mems[0] % 100_000;
            r.net_tbytes_ps = rate;
            r.timestamp_ns = mems[1];
            r
        })
}

/// Bytes in a stats reply before its lines: magic, `seq`, `now_ns` and
/// the truncated flag.
const STATS_HEADER: usize = 4 + 4 + 8 + 1;

/// A stats body of whole lines that fits the reply's cap uncut: the lines
/// a generator draws, kept while the frame stays within `SOFT_LIMIT`.
fn arb_stats_lines() -> impl Strategy<Value = String> {
    proptest::collection::vec("[ -~]{0,120}", 0..=60).prop_map(|drawn| {
        let mut lines = String::new();
        for line in drawn {
            if STATS_HEADER + lines.len() + line.len() + 1 > StatsReply::SOFT_LIMIT {
                break;
            }
            lines.push_str(&line);
            lines.push('\n');
        }
        lines
    })
}

proptest! {
    /// Every generated report's ASCII encoding stays under the paper's
    /// 200-byte bound and round-trips its integer fields exactly.
    #[test]
    fn ascii_report_roundtrip_and_bound(r in arb_report()) {
        let line = r.encode_ascii();
        prop_assert!(line.len() < 200, "{} bytes", line.len());
        let back = ServerStatusReport::parse_ascii(&line).unwrap();
        prop_assert_eq!(back.host, r.host);
        prop_assert_eq!(back.ip, r.ip);
        prop_assert_eq!(back.mem_total, r.mem_total);
        prop_assert_eq!(back.mem_free, r.mem_free);
        prop_assert_eq!(back.disk_rblocks, r.disk_rblocks);
        prop_assert!((back.load1 - r.load1).abs() <= 0.005);
    }

    /// The binary record is always exactly 204 bytes and round-trips.
    #[test]
    fn binary_report_roundtrip(r in arb_report()) {
        let mut buf = BytesMut::new();
        r.encode_binary(&mut buf);
        prop_assert_eq!(buf.len(), 204);
        let back = ServerStatusReport::decode_binary(&mut buf).unwrap();
        prop_assert_eq!(back.ip, r.ip);
        prop_assert_eq!(back.timestamp_ns, r.timestamp_ns);
        prop_assert_eq!(back.mem_cached, r.mem_cached);
    }

    /// Frames of arbitrary record batches round-trip over a reassembled
    /// byte stream, even when delivered in two arbitrary chunks.
    #[test]
    fn frame_roundtrip_with_arbitrary_split(
        reports in proptest::collection::vec(arb_report(), 0..20),
        split in 0usize..200,
    ) {
        let frame = Frame::system(&reports);
        let mut wire = BytesMut::new();
        frame.encode(&mut wire);
        let cut = split.min(wire.len());
        let mut rx = BytesMut::new();
        rx.extend_from_slice(&wire[..cut]);
        if cut < wire.len() {
            prop_assert!(Frame::decode(&mut rx).unwrap().is_none() || cut >= frame.wire_len());
            rx.extend_from_slice(&wire[cut..]);
        }
        let got = Frame::decode(&mut rx).unwrap().unwrap();
        prop_assert_eq!(got.decode_system().unwrap().len(), reports.len());
    }

    /// User requests round-trip for any detail text and option bits.
    #[test]
    fn user_request_roundtrip(
        seq in any::<u32>(),
        n in any::<u16>(),
        accept in any::<bool>(),
        template in proptest::option::of(any::<u8>()),
        detail in "[ -~\n]{0,300}",
    ) {
        let req = UserRequest {
            seq,
            server_num: n,
            option: RequestOption { accept_fewer: accept, template },
            detail,
        };
        let wire = req.encode();
        prop_assert_eq!(UserRequest::decode(&wire).unwrap(), req);
    }

    /// Wizard replies round-trip for any legal server list.
    #[test]
    fn wizard_reply_roundtrip(
        seq in any::<u32>(),
        servers in proptest::collection::vec((arb_ip(), any::<u16>()), 0..=60),
    ) {
        let reply = WizardReply {
            seq,
            servers: servers.into_iter().map(|(ip, p)| Endpoint::new(ip, p)).collect(),
        };
        let wire = reply.encode();
        prop_assert_eq!(WizardReply::decode(&wire).unwrap(), reply);
    }

    /// Random prefixes of a valid reply never decode successfully
    /// (truncation is always detected).
    #[test]
    fn truncated_replies_are_rejected(
        servers in proptest::collection::vec(arb_ip(), 1..=10),
        frac in 0.0f64..0.99,
    ) {
        let reply = WizardReply {
            seq: 7,
            servers: servers.into_iter().map(|ip| Endpoint::new(ip, 1200)).collect(),
        };
        let wire = reply.encode();
        let cut = ((wire.len() as f64) * frac) as usize;
        prop_assert!(WizardReply::decode(&wire[..cut]).is_err());
    }

    /// Network/security records round-trip.
    #[test]
    fn net_and_sec_record_roundtrip(
        from in arb_ip(), to in arb_ip(),
        delay in 0.0f64..1e4, bw in 0.0f64..1e4,
        level in any::<i32>(),
    ) {
        let rec = NetPathRecord { from_monitor: from, to_monitor: to, delay_ms: delay, bw_mbps: bw, timestamp_ns: 9 };
        let mut buf = BytesMut::new();
        rec.encode_binary(&mut buf);
        prop_assert_eq!(NetPathRecord::decode_binary(&mut buf).unwrap(), rec);

        let sec = SecurityRecord { host: "h".into(), ip: from, level };
        let mut buf = BytesMut::new();
        sec.encode_binary(&mut buf);
        prop_assert_eq!(SecurityRecord::decode_binary(&mut buf).unwrap(), sec);
    }

    /// No wire decoder panics or aborts on arbitrary bytes: each call
    /// returns, `Ok` or `Err`. Short inputs probe the length checks;
    /// long ones reach past the first record. The wizard's demux is one
    /// more decoder, and it answers exactly the requests and the polls.
    #[test]
    fn every_decoder_survives_arbitrary_bytes(
        short in proptest::collection::vec(any::<u8>(), 0..40),
        long in proptest::collection::vec(any::<u8>(), 0..600),
        port in arb_datagram(),
    ) {
        for bytes in [&short, &long, &port] {
            decode_everything(bytes);
            the_wizard_answers_only_requests_and_polls(bytes);
        }
    }

    /// Fragmentation conserves payload bytes, never exceeds the MTU, and
    /// its fragment count is monotone in the payload size.
    #[test]
    fn fragmentation_invariants(payload in 0u64..100_000, mtu in 100u32..9000) {
        let frags = fragment_sizes(payload, mtu);
        let total: u64 = frags.iter().sum();
        let n = frags.len() as u64;
        prop_assert_eq!(total, payload + 8 + 20 * n);
        prop_assert!(frags.iter().all(|&f| f <= u64::from(mtu.max(28))));
        let frags_bigger = fragment_sizes(payload + 1480, mtu);
        prop_assert!(frags_bigger.len() >= frags.len());
        prop_assert!(udp_wire_size(payload) == payload + 28);
    }

    /// Stats requests round-trip for any `seq`.
    #[test]
    fn stats_request_roundtrip(seq in any::<u32>()) {
        let req = StatsRequest { seq };
        prop_assert_eq!(StatsRequest::decode(&req.encode()).unwrap(), req);
    }

    /// Stats replies round-trip every field, up to the datagram cap: a
    /// body that fits travels whole and the truncated flag as it was set.
    #[test]
    fn stats_reply_roundtrip(
        seq in any::<u32>(),
        now_ns in any::<u64>(),
        truncated in any::<bool>(),
        lines in arb_stats_lines(),
    ) {
        let reply = StatsReply { seq, now_ns, truncated, lines };
        let wire = reply.encode();
        prop_assert!(wire.len() <= StatsReply::SOFT_LIMIT, "{} bytes", wire.len());
        prop_assert_eq!(StatsReply::decode(&wire).unwrap(), reply);
    }

    /// Outcome reports round-trip for any server and every kind.
    #[test]
    fn outcome_report_roundtrip(
        server in arb_ip(),
        outcome in prop_oneof![
            Just(OutcomeKind::Completed),
            Just(OutcomeKind::Timeout),
            Just(OutcomeKind::ConnectFailed),
        ],
    ) {
        let rep = OutcomeReport { server, outcome };
        let wire = rep.encode();
        prop_assert_eq!(wire.len(), 7);
        prop_assert_eq!(OutcomeReport::decode(&wire).unwrap(), rep);
    }

    /// Endpoint display/parse round-trips.
    #[test]
    fn endpoint_roundtrip(ip in arb_ip(), port in any::<u16>()) {
        let e = Endpoint::new(ip, port);
        prop_assert_eq!(e.to_string().parse::<Endpoint>().unwrap(), e);
    }
}

// ---- the two positional text parsers, pinned field by field ----------------

/// Feed `bytes` to every wire decoder, discarding the results. They are
/// also framed as the payload of each record type, whose leading `u32` is
/// a record count the rest need not back, and parsed as text behind the
/// status line's magic.
/// Bytes for the wizard's port: random, a magic and an ASCII tail (which
/// would decode as a request), or of an outcome report's or a stats poll's
/// length.
fn arb_datagram() -> impl Strategy<Value = Vec<u8>> {
    let bytes = |len: usize| proptest::collection::vec(any::<u8>(), len);
    let magic = prop_oneof![Just(*b"SSR1"), Just(*b"SSQ1")];
    let ascii = proptest::collection::vec(0u8..128, 0..40);
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..40),
        (magic, ascii).prop_map(|(magic, rest)| [&magic[..], &rest].concat()),
        bytes(7),
        bytes(8),
    ]
}

/// `WizardEngine::step` hands back one frame, for the sender, when the
/// bytes decode as a request and start with neither magic, or decode as a
/// stats poll; none otherwise.
fn the_wizard_answers_only_requests_and_polls(bytes: &[u8]) {
    let mut wizard = WizardEngine::new(Ip::new(10, 0, 0, 1), SelectPolicy::default());
    let from = Endpoint::new(Ip::new(10, 0, 0, 2), 47000);
    let input = Input::Datagram { from, bytes };
    let sent = match wizard.step(SimTime::ZERO, input, &mut Telemetry::new()) {
        Stepped::Reply(to, _) | Stepped::Stats(to, _) => vec![to],
        Stepped::Report | Stepped::Quiet => vec![],
    };
    let magics = [StatsRequest::ASCII_MAGIC, ServerStatusReport::ASCII_MAGIC];
    let magic = magics.iter().any(|m| bytes.starts_with(m.as_bytes()));
    let request = !magic && UserRequest::decode(bytes).is_ok();
    let poll = bytes.starts_with(StatsRequest::ASCII_MAGIC.as_bytes())
        && StatsRequest::decode(bytes).is_ok();
    assert_eq!(sent, if request || poll { vec![from] } else { vec![] }, "{bytes:?}");
}

fn decode_everything(bytes: &[u8]) {
    let _ = UserRequest::decode(bytes);
    let _ = WizardReply::decode(bytes);
    let _ = OutcomeReport::decode(bytes);
    let _ = StatsRequest::decode(bytes);
    let _ = StatsReply::decode(bytes);
    let _ = ServerStatusReport::decode_binary(&mut &bytes[..]);
    let _ = NetPathRecord::decode_binary(&mut &bytes[..]);
    let _ = SecurityRecord::decode_binary(&mut &bytes[..]);

    let mut wire = BytesMut::from(bytes);
    while let Ok(Some(_)) = Frame::decode(&mut wire) {}
    let framed = |rtype| Frame { rtype, data: Bytes::copy_from_slice(bytes) };
    let _ = framed(RecordType::System).decode_system();
    let _ = framed(RecordType::SystemAged).decode_system_aged();
    let _ = framed(RecordType::Network).decode_network();
    let _ = framed(RecordType::Security).decode_security();

    let text = String::from_utf8_lossy(bytes);
    for line in [text.to_string(), format!("{} {text}", ServerStatusReport::ASCII_MAGIC)] {
        let _ = ServerStatusReport::parse_ascii(&line);
        let _ = SecurityRecord::parse_log_line(&line);
    }
}

fn bad_field(field: &'static str, text: &str) -> ProtoError {
    ProtoError::BadField { field, text: text.to_owned() }
}

/// What `ServerStatusReport::parse_ascii` must keep doing however cheaply
/// it does it: name the field a cut line stopped before, quote the text of
/// a float it refuses, refuse a 28th token, lower-case the host — and
/// stay the inverse of `encode_ascii` on every line the fleet generator
/// emits.
#[test]
fn status_line_parser_contract() {
    /// Every token after the magic, in line order; `true`: a float field.
    const FIELDS: [(&str, bool); 26] = [
        ("host", false),
        ("ip", false),
        ("load1", true),
        ("load5", true),
        ("load15", true),
        ("cpu_user", true),
        ("cpu_nice", true),
        ("cpu_system", true),
        ("cpu_idle", true),
        ("bogomips", true),
        ("mem_total", false),
        ("mem_used", false),
        ("mem_free", false),
        ("mem_buffers", false),
        ("mem_cached", false),
        ("disk_allreq", false),
        ("disk_rreq", false),
        ("disk_rblocks", false),
        ("disk_wreq", false),
        ("disk_wblocks", false),
        ("iface", false),
        ("net_rbytes_ps", true),
        ("net_rpackets_ps", true),
        ("net_tbytes_ps", true),
        ("net_tpackets_ps", true),
        ("services", false),
    ];
    let line = "SSR1 Pandora-X 192.168.4.2 0.12 0.34 0.56 0.020 0.000 0.010 0.970 3591.37 \
                268435456 121085952 141127680 18284544 82911232 1234 100 800 50 400 \
                eth0 1024.0 10.0 204800.5 120.0 3";
    let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
    assert_eq!(tokens.len(), 1 + FIELDS.len());
    let parse = |tokens: &[&str]| ServerStatusReport::parse_ascii(&tokens.join(" "));

    let whole = parse(&tokens).unwrap();
    assert_eq!(whole.host.as_str(), "pandora-x", "an upper-case host is stored lower-cased");
    assert_eq!(whole.iface, "eth0");
    assert_eq!(whole.encode_ascii(), tokens.join(" ").replace("Pandora-X", "pandora-x"));

    for (i, &(field, is_float)) in FIELDS.iter().enumerate() {
        // Cut just before token `i + 1`: that field is the one missing —
        // except the service mask, which old probes do not send.
        let cut = parse(&tokens[..=i]);
        if field == "services" {
            assert_eq!(cut.map(|r| r.services.0), Ok(0));
        } else {
            assert_eq!(cut, Err(bad_field(field, "<missing>")), "cut before {field}");
        }
        if is_float {
            for text in ["NaN", "nan", "inf", "-inf", "+infinity", "1e999"] {
                let mut bad = tokens.clone();
                bad[i + 1] = text;
                assert_eq!(parse(&bad), Err(bad_field(field, text)), "{field} = {text}");
            }
        }
    }
    let mut extra = tokens.clone();
    extra.push("99");
    assert_eq!(parse(&extra), Err(ProtoError::Malformed("trailing fields".into())));

    let mut lines = 0;
    for topology in ["testbed11", "fleet1k", "fleet10k"] {
        for seed in [7, 424_242, 20_050_614] {
            for host in TopologySpec::named(topology).unwrap().expand(seed).hosts {
                let line = host.status_report().encode_ascii();
                let back = ServerStatusReport::parse_ascii(&line).unwrap();
                assert_eq!(back.encode_ascii(), line);
                lines += 1;
            }
        }
    }
    assert_eq!(lines, 3 * (11 + 1_000 + 10_000));
}

/// The same pins for the sibling parser, `SecurityRecord::parse_log_line`.
#[test]
fn security_log_line_parser_contract() {
    let tokens = ["Helene", "192.168.3.1", "-5"];
    let parse = |tokens: &[&str]| SecurityRecord::parse_log_line(&tokens.join(" "));

    let whole = parse(&tokens).unwrap();
    assert_eq!(whole.host.as_str(), "helene", "an upper-case host is stored lower-cased");
    assert_eq!((whole.ip, whole.level), (Ip::new(192, 168, 3, 1), -5));
    assert_eq!(whole.to_log_line(), "helene 192.168.3.1 -5");

    for (i, field) in ["host", "ip", "level"].into_iter().enumerate() {
        assert_eq!(parse(&tokens[..i]), Err(bad_field(field, "<missing>")), "cut before {field}");
    }
    assert_eq!(parse(&["helene", "192.168.3", "5"]), Err(bad_field("ip", "192.168.3")));
    assert_eq!(parse(&["helene", "192.168.3.1", "high"]), Err(bad_field("level", "high")));
    assert_eq!(
        parse(&["helene", "192.168.3.1", "5", "extra"]),
        Err(ProtoError::Malformed("trailing fields in security log line".into()))
    );
}
