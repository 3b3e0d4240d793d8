//! Round-trip property: whatever sequence of recordings a run produces,
//! `Telemetry::export_jsonl` → `Trace::parse` must reconstruct the records
//! exactly — no skipped lines, no lost fields, hostile strings included.
//!
//! `telemetry summary`, `slowest` and `rollup` read *re-parsed* traces,
//! so the hand-rolled JSON writer and parser must agree on every byte
//! they might exchange; this suite is that contract.

use std::collections::BTreeMap;

use smartsock_sim::rng::cases;
use smartsock_telemetry::trace::Trace;
use smartsock_telemetry::{Record, SpanId, Telemetry};

/// Span/event names are `&'static str` by API design, so properties draw
/// from a pool; the *structure* (nesting, interleaving, timing, hosts,
/// labels, attribute values) is what varies arbitrarily.
const NAMES: &[&str] = &[
    "client-request",
    "net-flow-transfer",
    "netmon-round",
    "probe-report",
    "wizard-match",
    "x-span",
];
const KEYS: &[&str] = &["kind", "target", "detail"];

/// Deterministic string with hostile characters derived from `x`: quotes,
/// backslashes, control characters, multi-byte UTF-8, JSON structure.
fn wild_string(x: u64) -> String {
    const POOL: &[char] =
        &['a', 'z', '0', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{7f}', 'é', '日', ' ', '/', '{'];
    let mut s = String::new();
    let mut v = x;
    for _ in 0..(x % 9) {
        s.push(POOL[(v % POOL.len() as u64) as usize]);
        v = v / 7 + 13;
    }
    s
}

fn pick(pool: &[&'static str], x: u64) -> &'static str {
    pool[(x % pool.len() as u64) as usize]
}

/// Apply an arbitrary op sequence (open/close spans in arbitrary order,
/// events with hostile attribute values, labeled counters, gauges,
/// histogram samples, clock advances), export, re-parse, and compare
/// against the in-memory records field by field.
#[test]
fn export_then_parse_reconstructs_every_record() {
    cases("export_then_parse_reconstructs_every_record", |rng| {
        let ops: Vec<(u64, u64, u64)> =
            (0..rng.below(80)).map(|_| (rng.below(7), rng.next_u64(), rng.next_u64())).collect();
        let mut t = Telemetry::new();
        let mut now = 0u64;
        let mut open: Vec<SpanId> = Vec::new();
        let mut want_counters: BTreeMap<String, u64> = BTreeMap::new();
        for (op, a, b) in ops {
            match op {
                0 => {
                    now += a % 1_000_000;
                    t.set_now(now);
                }
                1 => {
                    let name = pick(NAMES, a);
                    let host = wild_string(b);
                    let id = match open.last() {
                        Some(parent) if b % 2 == 0 => t.span_child(name, &host, *parent),
                        _ => t.span_start(name, &host),
                    };
                    open.push(id);
                }
                2 => {
                    if !open.is_empty() {
                        let id = open.remove(a as usize % open.len());
                        t.span_end(id);
                    }
                }
                3 => {
                    // Distinct keys only: the parsed Trace stores attrs as a
                    // map, so duplicate keys would collapse by design.
                    let attrs: Vec<(&'static str, String)> = KEYS
                        .iter()
                        .take(a as usize % (KEYS.len() + 1))
                        .map(|k| (*k, wild_string(b ^ u64::from(k.len() as u8))))
                        .collect();
                    let borrowed: Vec<(&'static str, &str)> =
                        attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
                    t.event(pick(NAMES, a), &wild_string(b), &borrowed);
                }
                4 => {
                    t.counter_add(pick(NAMES, a), b % 10_000);
                    *want_counters.entry(pick(NAMES, a).to_owned()).or_default() += b % 10_000;
                }
                5 => {
                    t.counter_add_labeled(pick(NAMES, a), &wild_string(b), b % 100);
                    let key = format!("{}/{}", pick(NAMES, a), wild_string(b));
                    *want_counters.entry(key).or_default() += b % 100;
                }
                _ => {
                    t.gauge_set(pick(NAMES, a), &wild_string(b), (b % 1000) as i64 - 500);
                    t.observe_ns(pick(NAMES, a), b % 1_000_000_000);
                }
            }
        }
        // Any spans left in `open` stay unclosed on purpose: they must
        // surface in `starts` but never in `spans`.

        let export = t.export_jsonl();
        let tr = Trace::parse(&export);
        assert_eq!(tr.skipped, 0, "parser rejected writer output:\n{}", export);

        let mut want_starts: BTreeMap<u64, (&str, String, Option<u64>, u64)> = BTreeMap::new();
        let mut want_spans = Vec::new();
        let mut want_events = Vec::new();
        for r in t.records() {
            match r {
                Record::SpanStart { at_ns, id, parent, name, host } => {
                    want_starts.insert(*id, (*name, host.to_string(), *parent, *at_ns));
                }
                Record::SpanEnd { at_ns, id, name, host, dur_ns } => {
                    want_spans.push((*id, *name, host.to_string(), *at_ns, *dur_ns));
                }
                Record::Event(e) => want_events.push(e),
            }
        }

        assert_eq!(tr.spans.len(), want_spans.len());
        for (got, (id, name, host, end_ns, dur_ns)) in tr.spans.iter().zip(&want_spans) {
            assert_eq!(got.id, *id);
            assert_eq!(got.name.as_str(), *name);
            assert_eq!(&got.host, host);
            assert_eq!(got.end_ns, *end_ns);
            assert_eq!(got.dur_ns, *dur_ns);
            let (_, _, parent, start_ns) = &want_starts[id];
            assert_eq!(got.parent, *parent);
            assert_eq!(got.start_ns, *start_ns);
        }

        assert_eq!(tr.starts.len(), want_starts.len(), "unclosed spans must parse too");
        for (id, (name, host, parent, at_ns)) in &want_starts {
            let got = &tr.starts[id];
            assert_eq!(got.0.as_str(), *name);
            assert_eq!(&got.1, host);
            assert_eq!(got.2, *parent);
            assert_eq!(got.3, *at_ns);
        }

        assert_eq!(tr.events.len(), want_events.len());
        for (got, want) in tr.events.iter().zip(&want_events) {
            assert_eq!(got.at_ns, want.at_ns);
            assert_eq!(got.name.as_str(), want.name);
            assert_eq!(got.host.as_str(), &*want.host);
            let want_attrs: BTreeMap<String, String> =
                want.attrs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect();
            assert_eq!(&got.attrs, &want_attrs);
        }

        assert_eq!(&tr.counters, &want_counters);
    });
}

/// The exporter is a pure function of the recorded state, and parsing is
/// stable under re-parse: two exports are byte-identical and yield the
/// same span/event counts.
#[test]
fn export_is_idempotent() {
    cases("export_is_idempotent", |rng| {
        let seed = rng.next_u64();
        let mut t = Telemetry::new();
        t.set_now(seed % 1000);
        let root = t.span_start(pick(NAMES, seed), &wild_string(seed));
        t.event(pick(NAMES, seed >> 3), &wild_string(seed >> 7), &[("kind", "x")]);
        t.set_now(seed % 1000 + 17);
        t.span_end(root);
        let a = t.export_jsonl();
        let b = t.export_jsonl();
        assert_eq!(&a, &b);
        let ta = Trace::parse(&a);
        assert_eq!(ta.skipped, 0);
        assert_eq!(ta.spans.len(), 1);
        assert_eq!(ta.events.len(), 1);
    });
}
