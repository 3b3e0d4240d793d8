//! The benchmark's own span recorder (choosing-metrics §4): spans are
//! taken around calls into each layer from outside, kept in memory, and
//! written out when the run ends. Nothing here touches the program's own
//! telemetry.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Handle of an open span; `NONE` is "no parent" and what a disabled
/// recorder hands out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The request's `seq` — the identifier all spans of one request
    /// share, on both threads. 0 for work that belongs to no request.
    pub seq: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's recorder. Threads share the `anchor`, so their
/// timestamps are on one monotonic timeline, and own disjoint id ranges
/// (`tag`), so the per-thread vectors can simply be concatenated.
pub struct Recorder {
    anchor: Instant,
    tag: u32,
    enabled: bool,
    spans: Vec<Span>,
}

const TAG_SHIFT: u32 = 28;

impl Recorder {
    pub fn new(anchor: Instant, tag: u32, enabled: bool) -> Recorder {
        Recorder { anchor, tag, enabled, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now. A disabled recorder reads no clock and stores
    /// nothing, so the untraced replay pays one branch per call site.
    pub fn open(&mut self, name: &'static str, parent: SpanId, seq: u32) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let index = u32::try_from(self.spans.len()).unwrap_or(u32::MAX) & ((1 << TAG_SHIFT) - 1);
        let id = SpanId((self.tag << TAG_SHIFT) | (index + 1));
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, parent, seq, start_ns, end_ns: start_ns });
        id
    }

    /// The stored span behind a handle this recorder gave out.
    fn slot(&mut self, id: SpanId) -> Option<&mut Span> {
        let index = (id.0 & ((1 << TAG_SHIFT) - 1)) as usize;
        self.spans.get_mut(index.checked_sub(1)?)
    }

    /// Close a span opened by this recorder.
    pub fn close(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.slot(id) {
            span.end_ns = end_ns;
        }
    }

    /// Attach the request identifier once it is known (the daemon learns
    /// it only after `recv_from` returns).
    pub fn set_seq(&mut self, id: SpanId, seq: u32) {
        if let Some(span) = self.slot(id) {
            span.seq = seq;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Parent every parentless span named `child_root` under the span named
/// `parent_root` that carries the same `seq` — how the daemon thread's
/// per-datagram spans get "the span that caused it" from the client
/// thread after both have finished.
pub fn link_by_seq(spans: &mut [Span], parent_root: &str, child_root: &str) {
    let by_seq: BTreeMap<u32, SpanId> = spans
        .iter()
        .filter(|s| s.name == parent_root && s.seq != 0)
        .map(|s| (s.seq, s.id))
        .collect();
    for s in spans.iter_mut() {
        if s.name == child_root && s.parent == SpanId::NONE {
            if let Some(&p) = by_seq.get(&s.seq) {
                s.parent = p;
            }
        }
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children may overlap one another and may stick out
/// of the parent when they ran on another thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != SpanId::NONE {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = match children.get_mut(&s.id) {
            Some(kids) => {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut edge = s.start_ns; // everything before `edge` is already counted
                for &(a, b) in kids.iter() {
                    let a = a.max(edge);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
                covered
            }
            None => 0,
        };
        out.insert(s.id, dur.saturating_sub(covered));
    }
    out
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

pub fn fold_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
    }
    out
}

/// Write at most `cap` spans as JSON lines (a 6 s traced replay at
/// 30k requests/s records ~2M spans; the aggregate tables are computed
/// over all of them, the file keeps the head as the inspectable sample).
pub fn write_jsonl(out: &mut impl Write, spans: &[Span], cap: usize) -> io::Result<()> {
    writeln!(
        out,
        "{{\"t\":\"header\",\"spans_recorded\":{},\"spans_written\":{}}}",
        spans.len(),
        spans.len().min(cap)
    )?;
    for s in spans.iter().take(cap) {
        writeln!(
            out,
            "{{\"t\":\"span\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"seq\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id.0, s.parent.0, s.seq, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, seq: u32, start: u64, end: u64) -> Span {
        Span { name, id: SpanId(id), parent: SpanId(parent), seq, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", 1, 0, 7, 0, 100),
            span("a", 2, 1, 7, 10, 30),
            span("b", 3, 1, 7, 50, 70),
            span("leaf", 4, 2, 7, 12, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&SpanId(1)], 100 - 20 - 20);
        assert_eq!(st[&SpanId(2)], 20 - 8);
        assert_eq!(st[&SpanId(3)], 20);
        assert_eq!(st[&SpanId(4)], 8);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children overlap on 20..30: coverage is the union 10..40.
        let spans = vec![
            span("root", 1, 0, 0, 0, 100),
            span("a", 2, 1, 0, 10, 30),
            span("b", 3, 1, 0, 20, 40),
        ];
        assert_eq!(self_times(&spans)[&SpanId(1)], 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        // A cross-thread child that starts before and ends after the
        // parent covers all of it and no more.
        let spans = vec![span("root", 1, 0, 0, 50, 60), span("other-thread", 2, 1, 0, 0, 100)];
        let st = self_times(&spans);
        assert_eq!(st[&SpanId(1)], 0);
        assert_eq!(st[&SpanId(2)], 100);
        // And one that only overlaps the tail.
        let spans = vec![span("root", 1, 0, 0, 50, 60), span("tail", 2, 1, 0, 58, 90)];
        assert_eq!(self_times(&spans)[&SpanId(1)], 8);
    }

    #[test]
    fn fold_sums_calls_self_and_total_by_name() {
        let spans = vec![
            span("req", 1, 0, 1, 0, 10),
            span("step", 2, 1, 1, 2, 6),
            span("req", 3, 0, 2, 20, 50),
            span("step", 4, 3, 2, 25, 30),
        ];
        let f = fold_by_name(&spans);
        assert_eq!(f["req"], NameTotals { calls: 2, self_ns: 6 + 25, total_ns: 40 });
        assert_eq!(f["step"], NameTotals { calls: 2, self_ns: 9, total_ns: 9 });
    }

    #[test]
    fn recorder_threads_share_a_timeline_and_link_by_seq() {
        let anchor = Instant::now();
        let mut client = Recorder::new(anchor, 1, true);
        let mut daemon = Recorder::new(anchor, 2, true);
        let root = client.open("request", SpanId::NONE, 42);
        let d = daemon.open("daemon.datagram", SpanId::NONE, 0);
        daemon.set_seq(d, 42);
        let inner = daemon.open("wizard.handle", d, 42);
        daemon.close(inner);
        daemon.close(d);
        client.close(root);
        let mut all = client.into_spans();
        all.extend(daemon.into_spans());
        link_by_seq(&mut all, "request", "daemon.datagram");
        assert_eq!(all.len(), 3);
        let datagram = all.iter().find(|s| s.name == "daemon.datagram").unwrap();
        assert_eq!(datagram.parent, root);
        assert_ne!(datagram.id, root);
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now(), 1, false);
        let id = r.open("x", SpanId::NONE, 1);
        r.close(id);
        assert_eq!(id, SpanId::NONE);
        assert!(r.into_spans().is_empty());
    }

    #[test]
    fn jsonl_head_is_capped_and_says_so() {
        let spans =
            vec![span("a", 1, 0, 0, 0, 1), span("b", 2, 0, 0, 1, 2), span("c", 3, 0, 0, 2, 3)];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &spans, 2).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"t\":\"header\",\"spans_recorded\":3,\"spans_written\":2}"));
    }
}
