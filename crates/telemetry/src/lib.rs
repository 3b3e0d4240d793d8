//! # smartsock-telemetry
//!
//! Deterministic observability for the smartsock testbed: spans keyed to
//! simulated time, typed counters and gauges, fixed-bucket latency
//! histograms, and a structured JSONL trace sink.
//!
//! The paper's evaluation (Table 5.2, §5) is an observability exercise —
//! per-component CPU/memory/bandwidth accounting across eleven probes — and
//! every future performance PR needs per-path latency distributions to
//! measure against. This crate is that substrate.
//!
//! ## Determinism contract
//!
//! Telemetry output is part of the simulation's observable state: for the
//! same seed, two runs must export **byte-identical** traces. Consequently:
//!
//! * timestamps are the scheduler's virtual clock (`u64` nanoseconds fed in
//!   via [`Telemetry::set_now`]) — never wall-clock;
//! * all internal storage is `BTreeMap` / append-order `Vec` — never hashed
//!   iteration;
//! * span, event and counter names are `&'static str` (the recorders'
//!   signatures), so name cardinality is bounded at compile time;
//!   per-entity dimensions go in labels/attributes. The names come from
//!   the closed, kebab-case registries in [`names`], so per-name profiles
//!   stay comparable across versions: two trace tests, over the full
//!   catalog and over a live daemon, fail on any emitted name missing
//!   there.
//!
//! ## Model
//!
//! * **Counters** — monotone `u64`, optionally labeled (`name/label`).
//! * **Gauges** — last-write-wins `i64` per `(name, label)`.
//! * **Histograms** — power-of-two buckets with p50/p95/p99 summaries
//!   ([`hist::Histogram`]); every finished span feeds the histogram of its
//!   name.
//! * **Spans** — enter/exit pairs with parent nesting, attributed to a
//!   host.
//! * **Events** — point-in-time facts with key/value attributes (fault
//!   injections, recoveries, expiries, convergence, ...).
//!
//! The sink ([`Telemetry::export_jsonl`]) writes one JSON object per line:
//! span-start/span-end/event records in global sequence order, then
//! `counter`, `gauge`, and `hist` summary lines sorted by name.
//! [`merge::Merger`] writes many exports into one file, each verbatim
//! under a shard header, and [`trace::Trace`] reads either as one trace;
//! the `telemetry` binary in this crate answers queries over it.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod hist;
pub mod json;
pub mod merge;
pub mod names;
pub mod sink;
pub mod trace;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use hist::Histogram;
pub use sink::{AccumSink, Rollup, RollupSink, SharedBuf, Sink, StreamSink, TeeSink};

/// Identifier of an open (or finished) span.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SpanId(u64);

/// A point-in-time fact: name, host, and key/value attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    pub at_ns: u64,
    pub name: &'static str,
    pub host: Rc<str>,
    pub attrs: Vec<(&'static str, String)>,
}

impl EventRecord {
    /// Look up one attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }
}

/// One entry of the trace, in global sequence order. Records naming a
/// recent host share one copy of its label.
#[derive(Clone, Debug)]
pub enum Record {
    SpanStart { at_ns: u64, id: u64, parent: Option<u64>, name: &'static str, host: Rc<str> },
    SpanEnd { at_ns: u64, id: u64, name: &'static str, host: Rc<str>, dur_ns: u64 },
    Event(EventRecord),
}

struct OpenSpan {
    id: u64,
    name: &'static str,
    host: Rc<str>,
    start_ns: u64,
}

/// The latest host labels, newest first, each allocated once while it
/// stays here: a daemon names one host for its whole life, and a
/// simulated exchange alternates between a few. A label not among them
/// is allocated afresh (as every label once was), so a fleet-wide sweep
/// over a thousand hosts pays no search.
struct Hosts([Rc<str>; 4]);

impl Hosts {
    fn new() -> Hosts {
        let empty: Rc<str> = Rc::from("");
        Hosts([(); 4].map(|()| Rc::clone(&empty)))
    }

    fn intern(&mut self, host: &str) -> Rc<str> {
        let last = self.0.len() - 1;
        let at = self.0.iter().position(|h| **h == *host).unwrap_or_else(|| {
            self.0[last] = host.into();
            last
        });
        self.0[..=at].rotate_right(1);
        Rc::clone(&self.0[0])
    }
}

/// Unlabeled counter bumps land in a slot picked by the name's address,
/// so the common bump is one pointer compare, not a search of the sorted
/// map; a slot folds into the map when another name takes it, and every
/// slot does before anything reads the map.
const COUNTER_SLOTS: usize = 64;

struct Counters {
    sorted: BTreeMap<String, u64>,
    slots: [Option<(&'static str, u64)>; COUNTER_SLOTS],
}

impl Counters {
    fn new() -> Counters {
        Counters { sorted: BTreeMap::new(), slots: [None; COUNTER_SLOTS] }
    }

    fn bump(&mut self, name: &'static str, delta: u64) {
        let at = (name.as_ptr() as usize as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
        match &mut self.slots[at as usize % COUNTER_SLOTS] {
            Some((held, value)) if std::ptr::eq(*held, name) => *value += delta,
            slot => {
                if let Some((held, value)) = slot.replace((name, delta)) {
                    Self::add(&mut self.sorted, held, value);
                }
            }
        }
    }

    fn add(sorted: &mut BTreeMap<String, u64>, key: &str, delta: u64) {
        if let Some(v) = sorted.get_mut(key) {
            *v += delta;
        } else {
            sorted.insert(key.to_owned(), delta);
        }
    }

    /// The map, with every pending bump folded in.
    fn sorted(&mut self) -> &mut BTreeMap<String, u64> {
        for (name, delta) in self.slots.iter_mut().filter_map(Option::take) {
            Self::add(&mut self.sorted, name, delta);
        }
        &mut self.sorted
    }
}

/// The deterministic telemetry recorder. One instance lives on the
/// scheduler (`Scheduler::telemetry`); daemons record through it from
/// their event handlers. Records flow into a pluggable [`Sink`]
/// ([`AccumSink`] by default — retain and export at the end); counters,
/// gauges and histograms are bounded-size aggregates and stay here.
pub struct Telemetry {
    now_ns: u64,
    next_span: u64,
    next_seq: u64,
    sink: Box<dyn Sink>,
    /// Newest last; a span usually closes before any opened after it.
    open: Vec<OpenSpan>,
    hosts: Hosts,
    /// Behind a `RefCell` because reads and the summary tail fold the
    /// pending bumps and the sink's drop total in from `&self`.
    counters: RefCell<Counters>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<&'static str, Histogram>,
    /// Sink drops already folded into the `telemetry-dropped` counter
    /// (interior mutability: the fold happens inside `&self` exports).
    dropped_counted: Cell<u64>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Self::with_sink(Box::new(AccumSink::new()))
    }

    /// A recorder feeding a specific sink; see [`sink`] for the menu.
    pub fn with_sink(sink: Box<dyn Sink>) -> Telemetry {
        Telemetry {
            now_ns: 0,
            next_span: 1,
            next_seq: 0,
            sink,
            open: Vec::new(),
            hosts: Hosts::new(),
            counters: RefCell::new(Counters::new()),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            dropped_counted: Cell::new(0),
        }
    }

    /// Swap the sink, returning the old one. Install before recording:
    /// records already delivered to the old sink do not migrate.
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) -> Box<dyn Sink> {
        std::mem::replace(&mut self.sink, sink)
    }

    /// Aggregate view, when the sink (or one side of a tee) folds one.
    pub fn rollup(&self) -> Option<&Rollup> {
        self.sink.rollup()
    }

    /// Records dropped by the sink's backpressure policy so far.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Sync the virtual clock. The scheduler calls this before dispatching
    /// each event; nothing else should.
    pub fn set_now(&mut self, ns: u64) {
        self.now_ns = ns;
    }

    /// Current virtual time as raw nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    // ---- counters -------------------------------------------------------

    /// Add `delta` to counter `name`.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        self.counters.get_mut().bump(name, delta);
    }

    /// Increment counter `name` by one.
    pub fn counter_incr(&mut self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Add `delta` to the `label` dimension of counter `name`, stored as
    /// `name/label`. Use this for per-entity counts (per host, per link)
    /// so the metric *name* stays a static literal.
    pub fn counter_add_labeled(&mut self, name: &'static str, label: &str, delta: u64) {
        Counters::add(&mut self.counters.get_mut().sorted, &format!("{name}/{label}"), delta);
    }

    /// Current value of the unlabeled counter `name` (zero if untouched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow_mut().sorted().get(name).copied().unwrap_or(0)
    }

    /// Value of one labeled dimension of counter `name`.
    pub fn counter_labeled(&self, name: &str, label: &str) -> u64 {
        self.counters.borrow_mut().sorted().get(&format!("{name}/{label}")).copied().unwrap_or(0)
    }

    /// Sum of the unlabeled counter plus every labeled dimension of `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        let mut c = self.counters.borrow_mut();
        let c = c.sorted();
        let mut total = c.get(name).copied().unwrap_or(0);
        let prefix = format!("{name}/");
        total += c
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| *v)
            .sum::<u64>();
        total
    }

    // ---- gauges ---------------------------------------------------------

    /// Set gauge `name` for `label` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, label: &str, value: i64) {
        self.gauges.insert(format!("{name}/{label}"), value);
    }

    // ---- histograms -----------------------------------------------------

    /// Record a latency/size sample into the histogram `name`.
    pub fn observe_ns(&mut self, name: &'static str, ns: u64) {
        self.hists.entry(name).or_default().record(ns);
    }

    /// Summary of histogram `name`, if it has samples.
    pub fn histogram(&self, name: &str) -> Option<hist::Summary> {
        self.hists.get(name).and_then(Histogram::summary)
    }

    // ---- spans ----------------------------------------------------------

    /// Open a root span.
    pub fn span_start(&mut self, name: &'static str, host: &str) -> SpanId {
        self.span_open(name, host, None)
    }

    /// Open a span nested under `parent`.
    pub fn span_child(&mut self, name: &'static str, host: &str, parent: SpanId) -> SpanId {
        self.span_open(name, host, Some(parent.0))
    }

    fn span_open(&mut self, name: &'static str, host: &str, parent: Option<u64>) -> SpanId {
        let id = self.next_span;
        self.next_span += 1;
        let host = self.hosts.intern(host);
        let at_ns = self.now_ns;
        self.push(Record::SpanStart { at_ns, id, parent, name, host: Rc::clone(&host) });
        self.open.push(OpenSpan { id, name, host, start_ns: at_ns });
        SpanId(id)
    }

    /// Hand one record to the sink with its global sequence number.
    fn push(&mut self, rec: Record) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sink.record(seq, rec);
    }

    /// Close a span: emits the exit record and feeds the span's duration
    /// into the histogram of the span's name. Closing an already-closed
    /// span is a no-op.
    pub fn span_end(&mut self, id: SpanId) {
        let Some(at) = self.open.iter().rposition(|s| s.id == id.0) else { return };
        let span = self.open.remove(at);
        let dur_ns = self.now_ns.saturating_sub(span.start_ns);
        self.push(Record::SpanEnd {
            at_ns: self.now_ns,
            id: id.0,
            name: span.name,
            host: span.host,
            dur_ns,
        });
        self.observe_ns(span.name, dur_ns);
    }

    // ---- events ---------------------------------------------------------

    /// Record a point-in-time event.
    pub fn event(&mut self, name: &'static str, host: &str, attrs: &[(&'static str, &str)]) {
        let host = self.hosts.intern(host);
        self.push(Record::Event(EventRecord {
            at_ns: self.now_ns,
            name,
            host,
            attrs: attrs.iter().map(|&(k, v)| (k, v.to_owned())).collect(),
        }));
    }

    // ---- queries --------------------------------------------------------

    /// All records in global sequence order. Empty for sinks that do not
    /// retain records (streaming, rollup-only): record-level queries are
    /// an accumulate-mode feature.
    pub fn records(&self) -> &[Record] {
        self.sink.records()
    }

    /// Every event named `name`, in emission order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.records().iter().filter_map(move |r| match r {
            Record::Event(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// Number of events named `name`.
    pub fn event_count(&self, name: &str) -> usize {
        self.events_named(name).count()
    }

    /// Number of events named `name` carrying attribute `key == value`.
    pub fn event_count_where(&self, name: &str, key: &str, value: &str) -> usize {
        self.events_named(name).filter(|e| e.attr(key) == Some(value)).count()
    }

    /// Durations (ns) of every finished span named `name`, in finish order.
    pub fn span_durations_ns(&self, name: &str) -> Vec<u64> {
        self.records()
            .iter()
            .filter_map(|r| match r {
                Record::SpanEnd { name: n, dur_ns, .. } if *n == name => Some(*dur_ns),
                _ => None,
            })
            .collect()
    }

    /// Drop all recorded state (records, spans, counters, gauges,
    /// histograms). Used between experiment repetitions.
    pub fn clear(&mut self) {
        self.sink.reset();
        self.open.clear();
        *self.counters.get_mut() = Counters::new();
        self.gauges.clear();
        self.hists.clear();
        self.next_span = 1;
        self.next_seq = 0;
        self.dropped_counted.set(0);
    }

    // ---- export ---------------------------------------------------------

    /// Serialize the full trace as JSONL: records in sequence order, then
    /// `counter`, `gauge` and `hist` lines sorted by name. Byte-identical
    /// across same-seed runs. For non-retaining sinks only the summary
    /// tail comes out — the records already left through the sink.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        let first = self.sink.first_seq();
        for (seq, r) in (first..).zip(self.sink.records()) {
            sink::write_record_line(&mut out, seq, r);
        }
        out.push_str(&self.summary_tail());
        out
    }

    /// End of run for streaming sinks: flush buffered record lines and
    /// write the summary tail to the sink's destination, so the streamed
    /// file carries exactly the bytes [`Telemetry::export_jsonl`] would
    /// have produced. No-op for accumulating sinks.
    pub fn finish(&mut self) {
        let tail = self.summary_tail();
        self.sink.finish(&tail);
    }

    /// The summary lines every export ends with: an optional
    /// `{"t":"sink",...}` trailer (only when records were dropped, so an
    /// untruncated trace keeps its historical bytes), then `counter`,
    /// `gauge` and `hist` lines sorted by name. Folds the sink's drop
    /// total into the `telemetry-dropped` counter first. A live daemon
    /// answers `smartsockd stats` with these lines as they stand.
    pub fn summary_tail(&self) -> String {
        let dropped = self.sink.dropped();
        if dropped > self.dropped_counted.get() {
            let delta = dropped - self.dropped_counted.get();
            Counters::add(&mut self.counters.borrow_mut().sorted, "telemetry-dropped", delta);
            self.dropped_counted.set(dropped);
        }
        let mut out = String::new();
        if dropped > 0 {
            let _ = writeln!(
                out,
                "{{\"t\":\"sink\",\"kind\":\"{}\",\"dropped\":{dropped}}}",
                self.sink.kind(),
            );
        }
        for (name, value) in self.counters.borrow_mut().sorted().iter() {
            sink::write_scalar(&mut out, "counter", name, value);
        }
        for (name, value) in &self.gauges {
            sink::write_scalar(&mut out, "gauge", name, value);
        }
        for (name, h) in &self.hists {
            if let Some(s) = h.summary() {
                sink::write_hist(&mut out, name, &s);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_plain_labeled_and_total() {
        let mut t = Telemetry::new();
        t.counter_add("net-udp-bytes", 100);
        t.counter_incr("net-udp-bytes");
        t.counter_add_labeled("probe-report-bytes", "helene", 40);
        t.counter_add_labeled("probe-report-bytes", "ariel", 2);
        t.counter_add_labeled("probe-report-bytes", "helene", 8);
        assert_eq!(t.counter("net-udp-bytes"), 101);
        assert_eq!(t.counter_labeled("probe-report-bytes", "helene"), 48);
        assert_eq!(t.counter_total("probe-report-bytes"), 50);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn spans_nest_and_feed_histograms() {
        let mut t = Telemetry::new();
        t.set_now(1_000);
        let root = t.span_start("client-request", "alice");
        t.set_now(1_400);
        let child = t.span_child("client-connect", "alice", root);
        t.set_now(2_000);
        t.span_end(child);
        t.set_now(3_000);
        t.span_end(root);
        t.span_end(root); // double-close is a no-op

        assert_eq!(t.span_durations_ns("client-request"), vec![2_000]);
        assert_eq!(t.span_durations_ns("client-connect"), vec![600]);
        let s = t.histogram("client-request").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.p99, 2_000);
    }

    #[test]
    fn events_are_queryable_by_name_and_attr() {
        let mut t = Telemetry::new();
        t.event("fault-injected", "helene", &[("kind", "host-crash")]);
        t.event("fault-injected", "switch", &[("kind", "link-down")]);
        t.event("fault-recovered", "helene", &[("kind", "host-reboot")]);
        assert_eq!(t.event_count("fault-injected"), 2);
        assert_eq!(t.event_count_where("fault-injected", "kind", "link-down"), 1);
        assert_eq!(
            t.events_named("fault-recovered").next().unwrap().attr("kind"),
            Some("host-reboot")
        );
    }

    #[test]
    fn export_is_stable_and_parseable() {
        let mut t = Telemetry::new();
        t.set_now(5);
        let id = t.span_start("wizard-match", "wizmachine");
        t.event("status-db-expired", "monmachine", &[("records", "2")]);
        t.set_now(9);
        t.span_end(id);
        t.counter_add("sysmon-reports", 3);
        t.gauge_set("net-link-backlog-ns", "l0", 42);

        let a = t.export_jsonl();
        let b = t.export_jsonl();
        assert_eq!(a, b, "export must be deterministic");
        for line in a.lines() {
            assert!(json::parse(line).is_some(), "invalid JSON line: {line}");
        }
        assert!(a.contains("\"t\":\"span-end\""));
        assert!(a.contains("\"t\":\"hist\""));
        assert!(a.contains("net-link-backlog-ns/l0"));
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = Telemetry::new();
        let id = t.span_start("x-span", "h");
        t.span_end(id);
        t.event("x-event", "h", &[]);
        t.counter_incr("x-count");
        t.clear();
        assert!(t.records().is_empty());
        assert_eq!(t.counter("x-count"), 0);
        assert_eq!(t.histogram("x-span"), None);
    }
}
