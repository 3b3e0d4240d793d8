//! Property-based tests of the wire formats and network-model invariants.

use smartsock_hostsim::TopologySpec;
use smartsock_net::packet::{fragment_sizes, udp_wire_size};
use smartsock_proto::{
    Endpoint, Frame, Ip, NetPathRecord, OutcomeKind, OutcomeReport, ProtoError, RecordType,
    RequestOption, SecurityRecord, ServerStatusReport, StatsReply, StatsRequest, UserRequest,
    WizardReply,
};
use smartsock_sim::rng::{cases, SimRng};
use smartsock_sim::{SimTime, Telemetry};
use smartsock_wizard::{Input, SelectPolicy, Stepped, WizardEngine};

fn arb_ip(rng: &mut SimRng) -> Ip {
    Ip(rng.u32())
}

/// Up to `max` characters, each drawn from `alphabet`.
fn text(rng: &mut SimRng, alphabet: &[char], max: u64) -> String {
    (0..rng.below(max + 1)).map(|_| alphabet[rng.below(alphabet.len() as u64) as usize]).collect()
}

/// Printable ASCII, then `extra`.
fn printable(extra: &[char]) -> Vec<char> {
    (' '..='~').chain(extra.iter().copied()).collect()
}

/// A report whose host is a lower-case letter and up to 14 more of
/// `[a-z0-9-]`, with random load, memory and traffic figures.
fn arb_report(rng: &mut SimRng) -> ServerStatusReport {
    let tail: Vec<char> = ('a'..='z').chain('0'..='9').chain(['-']).collect();
    let first = char::from(b'a' + rng.below(26) as u8);
    let host = format!("{first}{}", text(rng, &tail, 14));
    let ip = arb_ip(rng);
    let load = rng.range(0.0..100.0);
    let mems: Vec<u64> = (0..5).map(|_| rng.below(1 << 33)).collect();
    let rate = rng.range(0.0..1e8);
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
}

/// The length of a stats reply before its lines: magic, `seq`, `now_ns` and
/// the truncated flag.
const STATS_HEADER: usize = 4 + 4 + 8 + 1;

/// A stats body of whole lines that fits the reply's cap uncut: the lines
/// a generator draws, kept while the frame stays within `SOFT_LIMIT`.
fn arb_stats_lines(rng: &mut SimRng) -> String {
    let ascii = printable(&[]);
    let mut lines = String::new();
    for _ in 0..rng.below(61) {
        let line = text(rng, &ascii, 120);
        if STATS_HEADER + lines.len() + line.len() + 1 > StatsReply::SOFT_LIMIT {
            break;
        }
        lines.push_str(&line);
        lines.push('\n');
    }
    lines
}

/// Every generated report's ASCII encoding stays under the paper's
/// 200-byte bound and round-trips its integer fields exactly.
#[test]
fn ascii_report_roundtrip_and_bound() {
    cases("ascii_report_roundtrip_and_bound", |rng| {
        let r = arb_report(rng);
        let line = r.encode_ascii();
        assert!(line.len() < 200, "{} bytes", line.len());
        let back = ServerStatusReport::parse_ascii(&line).unwrap();
        assert_eq!(back.host, r.host);
        assert_eq!(back.ip, r.ip);
        assert_eq!(back.mem_total, r.mem_total);
        assert_eq!(back.mem_free, r.mem_free);
        assert_eq!(back.disk_rblocks, r.disk_rblocks);
        assert!((back.load1 - r.load1).abs() <= 0.005);
    });
}

/// The binary record is always exactly 204 bytes and round-trips.
#[test]
fn binary_report_roundtrip() {
    cases("binary_report_roundtrip", |rng| {
        let r = arb_report(rng);
        let mut buf = Vec::new();
        r.encode_binary(&mut buf);
        assert_eq!(buf.len(), 204);
        let back = ServerStatusReport::decode_binary(&mut &buf[..]).unwrap();
        assert_eq!(back.ip, r.ip);
        assert_eq!(back.timestamp_ns, r.timestamp_ns);
        assert_eq!(back.mem_cached, r.mem_cached);
    });
}

/// Frames of arbitrary record batches round-trip over a reassembled
/// byte stream, even when delivered in two arbitrary chunks.
#[test]
fn frame_roundtrip_with_arbitrary_split() {
    cases("frame_roundtrip_with_arbitrary_split", |rng| {
        let reports: Vec<ServerStatusReport> =
            (0..rng.below(20)).map(|_| arb_report(rng)).collect();
        let split = rng.below(200) as usize;
        let frame = Frame::system(&reports);
        let mut wire = Vec::new();
        frame.encode(&mut wire);
        let cut = split.min(wire.len());
        let mut rx = wire[..cut].to_vec();
        if cut < wire.len() {
            assert!(Frame::decode(&mut &rx[..]).unwrap().is_none() || cut >= frame.wire_len());
            rx.extend_from_slice(&wire[cut..]);
        }
        let got = Frame::decode(&mut &rx[..]).unwrap().unwrap();
        assert_eq!(got.decode_system().unwrap().len(), reports.len());
    });
}

/// User requests round-trip for any detail text and option bits.
#[test]
fn user_request_roundtrip() {
    cases("user_request_roundtrip", |rng| {
        let (seq, n, accept) = (rng.u32(), rng.next_u64() as u16, rng.below(2) == 1);
        let template = (rng.below(4) > 0).then(|| rng.next_u64() as u8);
        let detail = text(rng, &printable(&['\n']), 300);
        let req = UserRequest {
            seq,
            server_num: n,
            option: RequestOption { accept_fewer: accept, template },
            detail,
        };
        let wire = req.encode();
        assert_eq!(UserRequest::decode(&wire).unwrap(), req);
    });
}

/// Wizard replies round-trip for any legal server list.
#[test]
fn wizard_reply_roundtrip() {
    cases("wizard_reply_roundtrip", |rng| {
        let seq = rng.u32();
        let servers =
            (0..rng.below(61)).map(|_| Endpoint::new(arb_ip(rng), rng.next_u64() as u16)).collect();
        let reply = WizardReply { seq, servers };
        let wire = reply.encode();
        assert_eq!(WizardReply::decode(&wire).unwrap(), reply);
    });
}

/// Every strict prefix of a fixed-layout encoding is refused, never
/// decoded to a value or a panic: the wire records, their headers and
/// snapshot payloads, and the `[type, size, data]` frame.
#[test]
fn truncated_replies_are_rejected() {
    cases("truncated_replies_are_rejected", |rng| {
        let servers: Vec<Ip> = (0..1 + rng.below(10)).map(|_| arb_ip(rng)).collect();
        let reports: Vec<ServerStatusReport> =
            (0..1 + rng.below(3)).map(|_| arb_report(rng)).collect();
        let seq = rng.u32();
        let detail = text(rng, &printable(&['\n']), 40);
        let lines = arb_stats_lines(rng);
        let level = rng.u32() as i32;
        let reply = WizardReply {
            seq,
            servers: servers.iter().map(|&ip| Endpoint::new(ip, 1200)).collect(),
        };
        refused_when_cut("WizardReply", &reply.encode(), None, |b| WizardReply::decode(b).is_err());
        let request = UserRequest { seq, server_num: 3, option: RequestOption::DEFAULT, detail };
        refused_when_cut("UserRequest", &request.encode(), Some(8), |b| {
            UserRequest::decode(b).is_err()
        });
        let outcome = OutcomeReport { server: servers[0], outcome: OutcomeKind::Timeout };
        refused_when_cut("OutcomeReport", &outcome.encode(), None, |b| {
            OutcomeReport::decode(b).is_err()
        });
        refused_when_cut("StatsRequest", &StatsRequest { seq }.encode(), None, |b| {
            StatsRequest::decode(b).is_err()
        });
        let stats = StatsReply { seq, now_ns: 5, truncated: false, lines };
        refused_when_cut("StatsReply", &stats.encode(), Some(STATS_HEADER), |b| {
            StatsReply::decode(b).is_err()
        });

        let path = NetPathRecord {
            from_monitor: servers[0],
            to_monitor: reports[0].ip,
            delay_ms: 1.5,
            bw_mbps: 88.0,
            timestamp_ns: 7,
        };
        let sec = SecurityRecord { host: reports[0].host.clone(), ip: reports[0].ip, level };
        let binary = |encode: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            encode(&mut out);
            out
        };
        let report = binary(&|o| reports[0].encode_binary(o));
        refused_when_cut("ServerStatusReport", &report, None, |mut b| {
            ServerStatusReport::decode_binary(&mut b).is_err()
        });
        refused_when_cut("NetPathRecord", &binary(&|o| path.encode_binary(o)), None, |mut b| {
            NetPathRecord::decode_binary(&mut b).is_err()
        });
        refused_when_cut("SecurityRecord", &binary(&|o| sec.encode_binary(o)), None, |mut b| {
            SecurityRecord::decode_binary(&mut b).is_err()
        });

        let payload = |rtype, b: &[u8]| Frame { rtype, data: b.to_vec() };
        refused_when_cut("system", &Frame::system(&reports).data, None, |b| {
            payload(RecordType::System, b).decode_system().is_err()
        });
        let aged: Vec<_> = reports.iter().map(|r| (r.clone(), 4_500_000_000)).collect();
        let frame = Frame::system_aged(&aged);
        refused_when_cut("system-aged", &frame.data, None, |b| {
            payload(RecordType::SystemAged, b).decode_system_aged().is_err()
        });
        refused_when_cut("network", &Frame::network(&[path]).data, None, |b| {
            payload(RecordType::Network, b).decode_network().is_err()
        });
        refused_when_cut(
            "security",
            &Frame::security(std::slice::from_ref(&sec)).data,
            None,
            |b| payload(RecordType::Security, b).decode_security().is_err(),
        );
        // A cut frame is one still arriving: `Ok(None)`, and nothing consumed.
        refused_when_cut("Frame", &binary(&|o| frame.encode(o)), None, |b| {
            let mut rest = b;
            Frame::decode(&mut rest) == Ok(None) && rest.len() == b.len()
        });
    });
}

/// Network/security records round-trip.
#[test]
fn net_and_sec_record_roundtrip() {
    cases("net_and_sec_record_roundtrip", |rng| {
        let (from, to) = (arb_ip(rng), arb_ip(rng));
        let (delay, bw) = (rng.range(0.0..1e4), rng.range(0.0..1e4));
        let level = rng.u32() as i32;
        let rec = NetPathRecord {
            from_monitor: from,
            to_monitor: to,
            delay_ms: delay,
            bw_mbps: bw,
            timestamp_ns: 9,
        };
        let mut buf = Vec::new();
        rec.encode_binary(&mut buf);
        assert_eq!(NetPathRecord::decode_binary(&mut &buf[..]).unwrap(), rec);

        let sec = SecurityRecord { host: "h".into(), ip: from, level };
        let mut buf = Vec::new();
        sec.encode_binary(&mut buf);
        assert_eq!(SecurityRecord::decode_binary(&mut &buf[..]).unwrap(), sec);
    });
}

/// No wire decoder panics or aborts on arbitrary bytes: each call
/// returns, `Ok` or `Err`. Short inputs probe the length checks;
/// long ones reach past the first record. The wizard's demux is one
/// more decoder, and it answers exactly the requests and the polls.
#[test]
fn every_decoder_survives_arbitrary_bytes() {
    cases("every_decoder_survives_arbitrary_bytes", |rng| {
        let len = rng.below(40);
        let short = arb_bytes(rng, len);
        let len = rng.below(600);
        let long = arb_bytes(rng, len);
        let port = arb_datagram(rng);
        for bytes in [&short, &long, &port] {
            decode_everything(bytes);
            the_wizard_answers_only_requests_and_polls(bytes);
        }
    });
}

/// Fragmentation conserves payload bytes, never exceeds the MTU, and
/// its fragment count is monotone in the payload size.
#[test]
fn fragmentation_invariants() {
    cases("fragmentation_invariants", |rng| {
        let (payload, mtu) = (rng.below(100_000), 100 + rng.below(8900) as u32);
        let frags = fragment_sizes(payload, mtu);
        let total: u64 = frags.iter().sum();
        let n = frags.len() as u64;
        assert_eq!(total, payload + 8 + 20 * n);
        assert!(frags.iter().all(|&f| f <= u64::from(mtu.max(28))));
        let frags_bigger = fragment_sizes(payload + 1480, mtu);
        assert!(frags_bigger.len() >= frags.len());
        assert!(udp_wire_size(payload) == payload + 28);
    });
}

/// Stats requests round-trip for any `seq`.
#[test]
fn stats_request_roundtrip() {
    cases("stats_request_roundtrip", |rng| {
        let seq = rng.u32();
        let req = StatsRequest { seq };
        assert_eq!(StatsRequest::decode(&req.encode()).unwrap(), req);
    });
}

/// Stats replies round-trip every field, up to the datagram cap: a
/// body that fits travels whole and the truncated flag as it was set.
#[test]
fn stats_reply_roundtrip() {
    cases("stats_reply_roundtrip", |rng| {
        let (seq, now_ns, truncated) = (rng.u32(), rng.next_u64(), rng.below(2) == 1);
        let lines = arb_stats_lines(rng);
        let reply = StatsReply { seq, now_ns, truncated, lines };
        let wire = reply.encode();
        assert!(wire.len() <= StatsReply::SOFT_LIMIT, "{} bytes", wire.len());
        assert_eq!(StatsReply::decode(&wire).unwrap(), reply);
    });
}

/// Outcome reports round-trip for any server and every kind.
#[test]
fn outcome_report_roundtrip() {
    cases("outcome_report_roundtrip", |rng| {
        let server = arb_ip(rng);
        let outcome = [OutcomeKind::Completed, OutcomeKind::Timeout, OutcomeKind::ConnectFailed]
            [rng.below(3) as usize];
        let rep = OutcomeReport { server, outcome };
        let wire = rep.encode();
        assert_eq!(wire.len(), 7);
        assert_eq!(OutcomeReport::decode(&wire).unwrap(), rep);
    });
}

/// Endpoint display/parse round-trips.
#[test]
fn endpoint_roundtrip() {
    cases("endpoint_roundtrip", |rng| {
        let (ip, port) = (arb_ip(rng), rng.next_u64() as u16);
        let e = Endpoint::new(ip, port);
        assert_eq!(e.to_string().parse::<Endpoint>().unwrap(), e);
    });
}

// ---- the two positional text parsers, pinned field by field ----------------

/// Datagrams for the wizard's port: random, a magic and an ASCII tail (which
/// would decode as a request), or of an outcome report's or a stats poll's
/// length.
fn arb_datagram(rng: &mut SimRng) -> Vec<u8> {
    match rng.below(4) {
        0 => {
            let len = rng.below(40);
            arb_bytes(rng, len)
        }
        1 => {
            let magic = if rng.below(2) == 0 { b"SSR1" } else { b"SSQ1" };
            let ascii = (0..rng.below(40)).map(|_| rng.below(128) as u8);
            magic.iter().copied().chain(ascii).collect()
        }
        2 => arb_bytes(rng, 7),
        _ => arb_bytes(rng, 8),
    }
}

fn arb_bytes(rng: &mut SimRng, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
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

/// `wire` is a valid encoding whose first `fixed` bytes (all of them when
/// `None`) are fixed layout, and `refuses` its decoder's verdict on a
/// slice: the whole encoding is taken, every cut short of `fixed` refused.
fn refused_when_cut(
    name: &str,
    wire: &[u8],
    fixed: Option<usize>,
    refuses: impl Fn(&[u8]) -> bool,
) {
    assert!(!refuses(wire), "{name} refused its own encoding");
    let fixed = fixed.unwrap_or(wire.len());
    for cut in 0..fixed {
        assert!(refuses(&wire[..cut]), "{name} took a {cut}-byte prefix of {fixed}");
    }
}

/// Feed `bytes` to every wire decoder, discarding the results. They are
/// also framed as the payload of each record type, whose leading `u32` is
/// a record count the rest need not back, and parsed as text behind the
/// status line's magic.
fn decode_everything(bytes: &[u8]) {
    let _ = UserRequest::decode(bytes);
    let _ = WizardReply::decode(bytes);
    let _ = OutcomeReport::decode(bytes);
    let _ = StatsRequest::decode(bytes);
    let _ = StatsReply::decode(bytes);
    let _ = ServerStatusReport::decode_binary(&mut &bytes[..]);
    let _ = NetPathRecord::decode_binary(&mut &bytes[..]);
    let _ = SecurityRecord::decode_binary(&mut &bytes[..]);

    let mut wire = bytes;
    while let Ok(Some(_)) = Frame::decode(&mut wire) {}
    let framed = |rtype| Frame { rtype, data: bytes.to_vec() };
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
