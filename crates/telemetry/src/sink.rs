//! Pluggable trace sinks: where records go as they are emitted.
//!
//! PR 3's telemetry was accumulate-then-export: every record buffered in
//! memory until the run ends. That caps observability at short sim runs
//! and gives long-running live daemons no runtime visibility. The
//! [`Sink`] trait splits "what is recorded" from "where it goes",
//! sonar-style:
//!
//! * [`AccumSink`] — the original behavior: retain records in memory,
//!   export at the end. The default; all determinism fingerprints are
//!   computed over its export.
//! * [`StreamSink`] — bounded-buffer incremental JSONL writer. Records
//!   serialize into a byte buffer that flushes to an [`io::Write`] each
//!   time it crosses the configured threshold. **Backpressure policy:
//!   drop, never block.** A failed write marks the sink failed; the
//!   buffered records and every later record are counted in
//!   [`Sink::dropped`] (surfaced as the `telemetry-dropped` counter and a
//!   `{"t":"sink",...}` trailer) and the scheduler never waits.
//! * [`RollupSink`] — folds records into per-host / per-subnet
//!   counter+histogram aggregates ([`Rollup`]) instead of per-record
//!   rows: bounded memory regardless of run length. The `telemetry
//!   rollup` CLI folds finished traces through the same [`Rollup`].
//! * [`TeeSink`] — duplicates records into two sinks, e.g. accumulate a
//!   full trace *and* fold a rollup of it.
//!
//! ## The byte-identity invariant
//!
//! A streamed trace must be **byte-identical** to the accumulated export
//! of the same run at any buffer size. Both paths therefore serialize
//! through one function, [`write_record_line`]; buffering only batches
//! complete lines and never reorders or rewrites them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::net::Ipv4Addr;
use std::rc::Rc;

use crate::hist::{Histogram, Summary};
use crate::{json, Record};

/// Serialize one trace record as its JSONL line (with trailing newline),
/// exactly as `Telemetry::export_jsonl` has always written it. The
/// accumulating export and the streaming writer both call this, so the
/// two are byte-identical by construction. Strings are escaped here;
/// `json::escape` borrows when there is nothing to escape, which is
/// every registered name.
pub fn write_record_line(out: &mut String, seq: u64, r: &Record) {
    match r {
        Record::SpanStart { at_ns, id, parent, name, host } => {
            let _ = write!(
                out,
                "{{\"t\":\"span-start\",\"seq\":{seq},\"ns\":{at_ns},\"id\":{id},\"parent\":"
            );
            match parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"name\":\"{}\",\"host\":\"{}\"}}",
                json::escape(name),
                json::escape(host)
            );
        }
        Record::SpanEnd { at_ns, id, name, host, dur_ns } => {
            let _ = writeln!(
                out,
                "{{\"t\":\"span-end\",\"seq\":{seq},\"ns\":{at_ns},\"id\":{id},\
                 \"name\":\"{}\",\"host\":\"{}\",\"dur_ns\":{dur_ns}}}",
                json::escape(name),
                json::escape(host),
            );
        }
        Record::Event(e) => {
            let _ = write!(
                out,
                "{{\"t\":\"event\",\"seq\":{seq},\"ns\":{},\"name\":\"{}\",\"host\":\"{}\",\"attrs\":{{",
                e.at_ns,
                json::escape(e.name),
                json::escape(&e.host),
            );
            for (i, (k, v)) in e.attrs.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{}\":\"{}\"", json::escape(k), json::escape(v));
            }
            out.push_str("}}\n");
        }
    }
}

// The summary lines, one writer each; `Telemetry::summary_tail` writes
// every trace's tail through them, and the live wizard's stats reply
// reuses that tail.

/// A `counter` or `gauge` summary line (`kind` is that tag).
pub fn write_scalar(out: &mut String, kind: &str, name: &str, value: impl std::fmt::Display) {
    let _ =
        writeln!(out, "{{\"t\":\"{kind}\",\"name\":\"{}\",\"value\":{value}}}", json::escape(name));
}

/// A `hist` summary line.
pub fn write_hist(out: &mut String, name: &str, s: &Summary) {
    let _ = writeln!(
        out,
        "{{\"t\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\
         \"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        json::escape(name),
        s.count,
        s.sum,
        s.min,
        s.max,
        s.p50,
        s.p95,
        s.p99,
    );
}

/// A destination for trace records. `Telemetry` owns exactly one sink
/// (possibly a [`TeeSink`] pair) and feeds it every record with its
/// global sequence number.
pub trait Sink {
    /// Consume one record. `seq` is the global sequence number assigned
    /// by the emitting `Telemetry` (starting at 0, dense).
    fn record(&mut self, seq: u64, rec: Record);

    /// Retained records, for sinks that keep them. Streaming and rollup
    /// sinks return an empty slice: queries over individual records are
    /// an accumulate-mode feature.
    fn records(&self) -> &[Record] {
        &[]
    }

    /// Records dropped by the backpressure policy (streaming sinks).
    fn dropped(&self) -> u64 {
        0
    }

    /// Aggregate view, for sinks that fold instead of retain.
    fn rollup(&self) -> Option<&Rollup> {
        None
    }

    /// Machine-readable sink kind tag (`accum`, `stream`, `rollup`,
    /// `tee`), surfaced in the `{"t":"sink",...}` trailer and `telemetry
    /// summary`.
    fn kind(&self) -> &'static str;

    /// End of run: flush buffered record lines, then write the
    /// pre-serialized summary `tail` (counter/gauge/hist/sink lines) to
    /// the sink's destination. No-op for sinks without a destination.
    fn finish(&mut self, tail: &str);

    /// Drop all accumulated state (between experiment repetitions).
    fn reset(&mut self);
}

/// The original accumulate-then-export behavior: records are retained in
/// memory in sequence order and serialized by `Telemetry::export_jsonl`.
#[derive(Default)]
pub struct AccumSink {
    records: Vec<Record>,
}

impl AccumSink {
    pub fn new() -> AccumSink {
        AccumSink::default()
    }
}

impl Sink for AccumSink {
    fn record(&mut self, seq: u64, rec: Record) {
        debug_assert_eq!(seq, self.records.len() as u64, "accum sink expects dense seq");
        self.records.push(rec);
    }

    fn records(&self) -> &[Record] {
        &self.records
    }

    fn kind(&self) -> &'static str {
        "accum"
    }

    fn finish(&mut self, _tail: &str) {}

    fn reset(&mut self) {
        self.records.clear();
    }
}

/// Bounded-buffer incremental JSONL writer; see the module docs for the
/// drop-never-block backpressure policy.
pub struct StreamSink {
    out: Box<dyn io::Write>,
    buf: String,
    /// Records currently serialized into `buf`.
    buffered: u64,
    /// Flush threshold in bytes. `0` flushes after every record.
    cap: usize,
    dropped: u64,
    /// Set after the first write failure: from then on every record is
    /// dropped immediately — the destination is gone, and retrying would
    /// put I/O stalls on the recording path.
    failed: bool,
}

impl StreamSink {
    /// Stream to `out`, flushing whole lines whenever more than `cap`
    /// bytes are buffered.
    pub fn new(out: Box<dyn io::Write>, cap: usize) -> StreamSink {
        StreamSink { out, buf: String::new(), buffered: 0, cap, dropped: 0, failed: false }
    }

    fn flush_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if !self.failed && self.out.write_all(self.buf.as_bytes()).is_err() {
            self.failed = true;
        }
        if self.failed {
            self.dropped += self.buffered;
        }
        self.buf.clear();
        self.buffered = 0;
    }
}

impl Sink for StreamSink {
    fn record(&mut self, seq: u64, rec: Record) {
        if self.failed {
            self.dropped += 1;
            return;
        }
        write_record_line(&mut self.buf, seq, &rec);
        self.buffered += 1;
        if self.buf.len() >= self.cap {
            self.flush_buf();
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn kind(&self) -> &'static str {
        "stream"
    }

    fn finish(&mut self, tail: &str) {
        self.flush_buf();
        if !self.failed && self.out.write_all(tail.as_bytes()).is_err() {
            self.failed = true;
        }
        let _ = self.out.flush();
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.buffered = 0;
        self.dropped = 0;
        self.failed = false;
    }
}

/// Per-scope aggregates folded from the record stream: how many times
/// each span/event name fired per host and per /24 subnet, plus a latency
/// histogram per (scope, span name). Bounded by name × scope cardinality,
/// not by run length.
#[derive(Default, Clone)]
pub struct Rollup {
    /// Records folded so far (all kinds, including span-starts).
    records: u64,
    counts: BTreeMap<(String, String), u64>,
    hists: BTreeMap<(String, String), Histogram>,
}

/// The scopes a host aggregates into: always `host/<name>`, plus
/// `subnet/<a>.<b>.<c>.0/24` when the host name parses as an IPv4
/// address (live daemons key records by dotted quad).
fn scopes_of(host: &str) -> Vec<String> {
    let mut scopes = vec![format!("host/{host}")];
    if let Ok(ip) = host.parse::<Ipv4Addr>() {
        let o = ip.octets();
        scopes.push(format!("subnet/{}.{}.{}.0/24", o[0], o[1], o[2]));
    }
    scopes
}

impl Rollup {
    /// Fold one record. Span-ends count (and feed the duration
    /// histogram); events count; span-starts only advance the record
    /// total — a span is counted once, at completion.
    pub fn fold(&mut self, rec: &Record) {
        self.records += 1;
        match rec {
            Record::SpanStart { .. } => {}
            Record::SpanEnd { name, host, dur_ns, .. } => {
                self.records -= 1; // fold_span re-counts
                self.fold_span(host, name, *dur_ns);
            }
            Record::Event(e) => {
                self.records -= 1; // fold_event re-counts
                self.fold_event(&e.host, e.name);
            }
        }
    }

    /// Fold one finished span by name (the string-keyed entry point the
    /// `telemetry rollup` CLI uses over parsed traces).
    pub fn fold_span(&mut self, host: &str, name: &str, dur_ns: u64) {
        self.records += 1;
        for scope in scopes_of(host) {
            *self.counts.entry((scope.clone(), name.to_owned())).or_insert(0) += 1;
            self.hists.entry((scope, name.to_owned())).or_default().record(dur_ns);
        }
    }

    /// Fold one event by name (string-keyed, for parsed traces).
    pub fn fold_event(&mut self, host: &str, name: &str) {
        self.records += 1;
        for scope in scopes_of(host) {
            *self.counts.entry((scope, name.to_owned())).or_insert(0) += 1;
        }
    }

    /// Total records folded (all kinds).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Occurrences of `name` in `scope` (e.g. `("host/helene",
    /// "fault-injected")`).
    pub fn count(&self, scope: &str, name: &str) -> u64 {
        self.counts.get(&(scope.to_owned(), name.to_owned())).copied().unwrap_or(0)
    }

    /// Occurrences of `name` summed over every `host/...` scope — the
    /// fleet-wide total (subnet scopes are a regrouping of the same
    /// records, so they are excluded from the sum).
    pub fn total(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .filter(|((scope, n), _)| n == name && scope.starts_with("host/"))
            .map(|(_, v)| *v)
            .sum()
    }

    /// All `(scope, name, count)` rows, sorted.
    pub fn counts(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counts.iter().map(|((s, n), v)| (s.as_str(), n.as_str(), *v))
    }

    /// All `(scope, name, summary)` histogram rows, sorted.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &str, Summary)> + '_ {
        self.hists
            .iter()
            .filter_map(|((s, n), h)| h.summary().map(|sum| (s.as_str(), n.as_str(), sum)))
    }

    /// Latency summary of span `name` in `scope`.
    pub fn hist_summary(&self, scope: &str, name: &str) -> Option<Summary> {
        self.hists.get(&(scope.to_owned(), name.to_owned())).and_then(Histogram::summary)
    }

    /// True when nothing has been folded.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }
}

/// A sink that folds every record into a [`Rollup`] and retains nothing
/// else.
#[derive(Default)]
pub struct RollupSink {
    rollup: Rollup,
}

impl RollupSink {
    pub fn new() -> RollupSink {
        RollupSink::default()
    }
}

impl Sink for RollupSink {
    fn record(&mut self, _seq: u64, rec: Record) {
        self.rollup.fold(&rec);
    }

    fn rollup(&self) -> Option<&Rollup> {
        Some(&self.rollup)
    }

    fn kind(&self) -> &'static str {
        "rollup"
    }

    fn finish(&mut self, _tail: &str) {}

    fn reset(&mut self) {
        self.rollup = Rollup::default();
    }
}

/// Duplicate every record into two sinks — e.g. `Tee(Accum, Rollup)`: the
/// full trace survives for export and the rollup folds it as it goes.
pub struct TeeSink {
    a: Box<dyn Sink>,
    b: Box<dyn Sink>,
}

impl TeeSink {
    pub fn new(a: Box<dyn Sink>, b: Box<dyn Sink>) -> TeeSink {
        TeeSink { a, b }
    }
}

impl Sink for TeeSink {
    fn record(&mut self, seq: u64, rec: Record) {
        self.a.record(seq, rec.clone());
        self.b.record(seq, rec);
    }

    fn records(&self) -> &[Record] {
        if self.a.records().is_empty() {
            self.b.records()
        } else {
            self.a.records()
        }
    }

    fn dropped(&self) -> u64 {
        self.a.dropped() + self.b.dropped()
    }

    fn rollup(&self) -> Option<&Rollup> {
        self.a.rollup().or_else(|| self.b.rollup())
    }

    fn kind(&self) -> &'static str {
        "tee"
    }

    fn finish(&mut self, tail: &str) {
        self.a.finish(tail);
        self.b.finish(tail);
    }

    fn reset(&mut self) {
        self.a.reset();
        self.b.reset();
    }
}

/// A shareable in-memory [`io::Write`] target: hand a clone to a
/// [`StreamSink`], keep one to read the bytes back. Used by the sink
/// equivalence tests and handy for any embedder that streams to memory.
#[derive(Clone, Default)]
pub struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// Everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.borrow().clone()
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An [`io::Write`] that fails every write — the test double for the
/// backpressure policy (a vanished pipe, a full disk).
#[derive(Clone, Copy, Default)]
pub struct BrokenPipe;

impl io::Write for BrokenPipe {
    fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
        Err(io::Error::new(io::ErrorKind::BrokenPipe, "broken pipe"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::BrokenPipe, "broken pipe"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamSink, Telemetry};

    fn emit_sample(t: &mut Telemetry) {
        t.set_now(100);
        let root = t.span_start("client-request", "10.0.1.5");
        t.event("fault-injected", "10.0.1.5", &[("kind", "host-crash")]);
        t.set_now(400);
        t.span_end(root);
        t.set_now(500);
        let s = t.span_start("wizard-match", "10.0.2.9");
        t.set_now(900);
        t.span_end(s);
        t.counter_add("sysmon-reports", 2);
    }

    #[test]
    fn each_line_kind_has_one_writer_and_its_bytes_are_pinned() {
        let host = "he\"le\\ne";
        let ev = |attrs: Vec<(&'static str, String)>| {
            Record::Event(crate::EventRecord {
                at_ns: 9,
                name: "fault-injected",
                host: host.into(),
                attrs,
            })
        };
        let record = |seq, r: Record| {
            let mut s = String::new();
            write_record_line(&mut s, seq, &r);
            s
        };
        let with = |f: &dyn Fn(&mut String)| {
            let mut s = String::new();
            f(&mut s);
            s
        };
        let start = |parent| Record::SpanStart {
            at_ns: 5,
            id: 2,
            parent,
            name: "wizard-match",
            host: host.into(),
        };
        let end =
            Record::SpanEnd { at_ns: 8, id: 2, name: "wizard-match", host: host.into(), dur_ns: 3 };
        let two = vec![("kind", "link-down".to_owned()), ("why", "a\nb".to_owned())];
        let cases = [
            (
                record(0, start(None)),
                r#"{"t":"span-start","seq":0,"ns":5,"id":2,"parent":null,"name":"wizard-match","host":"he\"le\\ne"}"#,
            ),
            (
                record(1, start(Some(1))),
                r#"{"t":"span-start","seq":1,"ns":5,"id":2,"parent":1,"name":"wizard-match","host":"he\"le\\ne"}"#,
            ),
            (
                record(2, end),
                r#"{"t":"span-end","seq":2,"ns":8,"id":2,"name":"wizard-match","host":"he\"le\\ne","dur_ns":3}"#,
            ),
            (
                record(3, ev(vec![])),
                r#"{"t":"event","seq":3,"ns":9,"name":"fault-injected","host":"he\"le\\ne","attrs":{}}"#,
            ),
            (
                record(4, ev(two)),
                r#"{"t":"event","seq":4,"ns":9,"name":"fault-injected","host":"he\"le\\ne","attrs":{"kind":"link-down","why":"a\nb"}}"#,
            ),
            (
                with(&|s| write_scalar(s, "counter", "probe-report-bytes/helene", 48u64)),
                r#"{"t":"counter","name":"probe-report-bytes/helene","value":48}"#,
            ),
            (
                with(&|s| write_scalar(s, "gauge", "net-link-backlog-ns/l0", -42i64)),
                r#"{"t":"gauge","name":"net-link-backlog-ns/l0","value":-42}"#,
            ),
            (
                with(&|s| {
                    let h = Summary {
                        count: 2,
                        sum: 300,
                        min: 100,
                        max: 200,
                        p50: 100,
                        p95: 200,
                        p99: 200,
                    };
                    write_hist(s, "wizard-match", &h)
                }),
                r#"{"t":"hist","name":"wizard-match","count":2,"sum":300,"min":100,"max":200,"p50":100,"p95":200,"p99":200}"#,
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, format!("{want}\n"));
            assert!(json::parse(want).is_some(), "invalid JSON line: {want}");
        }
    }

    #[test]
    fn stream_sink_is_byte_identical_to_accum_at_any_cap() {
        let mut accum = Telemetry::new();
        emit_sample(&mut accum);
        let expect = accum.export_jsonl();
        for cap in [0usize, 1, 7, 64, 4096] {
            let buf = SharedBuf::new();
            let mut t = Telemetry::with_sink(Box::new(StreamSink::new(Box::new(buf.clone()), cap)));
            emit_sample(&mut t);
            t.finish();
            assert_eq!(
                String::from_utf8(buf.contents()).unwrap(),
                expect,
                "cap {cap} must not perturb the bytes"
            );
        }
    }

    #[test]
    fn stream_sink_drops_and_counts_on_write_failure() {
        let mut t = Telemetry::with_sink(Box::new(StreamSink::new(Box::new(BrokenPipe), 0)));
        emit_sample(&mut t);
        t.finish();
        // 5 record lines (2 span pairs + 1 event) all dropped.
        assert_eq!(t.dropped(), 5);
        // The drop total surfaces as a counter in the (unwritable) tail
        // and in the normal export.
        assert_eq!(t.counter("telemetry-dropped"), 5);
    }

    #[test]
    fn rollup_folds_per_host_and_per_subnet() {
        let mut t = Telemetry::with_sink(Box::new(RollupSink::new()));
        emit_sample(&mut t);
        let r = t.rollup().expect("rollup sink exposes a rollup");
        assert_eq!(r.count("host/10.0.1.5", "client-request"), 1);
        assert_eq!(r.count("host/10.0.1.5", "fault-injected"), 1);
        assert_eq!(r.count("host/10.0.2.9", "wizard-match"), 1);
        assert_eq!(r.count("subnet/10.0.1.0/24", "client-request"), 1);
        assert_eq!(r.count("subnet/10.0.2.0/24", "wizard-match"), 1);
        assert_eq!(r.total("client-request"), 1);
        let s = r.hist_summary("host/10.0.2.9", "wizard-match").unwrap();
        assert_eq!((s.count, s.min, s.max), (1, 400, 400));
        // 6 records: 2 starts, 2 ends, 1 event... plus nothing else.
        assert_eq!(r.records(), 5);
    }

    #[test]
    fn non_ip_hosts_roll_up_without_a_subnet_scope() {
        let mut r = Rollup::default();
        r.fold(&Record::Event(crate::EventRecord {
            at_ns: 1,
            name: "fault-injected",
            host: "helene".to_owned(),
            attrs: vec![],
        }));
        assert_eq!(r.count("host/helene", "fault-injected"), 1);
        assert!(r.counts().all(|(scope, _, _)| !scope.starts_with("subnet/")));
    }

    #[test]
    fn tee_keeps_records_and_rollup_together() {
        let mut t = Telemetry::with_sink(Box::new(TeeSink::new(
            Box::new(AccumSink::new()),
            Box::new(RollupSink::new()),
        )));
        emit_sample(&mut t);
        assert_eq!(t.records().len(), 5);
        assert_eq!(t.rollup().unwrap().total("wizard-match"), 1);
        // The accumulating side still exports the canonical bytes.
        let mut plain = Telemetry::new();
        emit_sample(&mut plain);
        assert_eq!(t.export_jsonl(), plain.export_jsonl());
    }
}
