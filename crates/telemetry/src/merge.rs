//! Deterministic merge of per-shard JSONL trace exports.
//!
//! The parallel experiment runner (`repro --jobs N`) runs every
//! (experiment, seed) cell on its own scheduler with its own [`crate::Telemetry`]
//! sink, then needs the per-cell [`crate::Telemetry::export_jsonl`] documents
//! combined into one artifact. Concatenating them naively would violate the
//! two invariants consumers rely on:
//!
//! * `seq` is strictly increasing over all record lines of a document, and
//! * span `id`s are unique, so parent pointers join unambiguously.
//!
//! [`Merger`] restores both, incrementally: shards are pushed in the
//! caller's order (the caller sorts by the stable (experiment, seed) key),
//! each prefixed with a `{"t":"shard",...}` header line; record `seq`
//! numbers are rewritten to one global sequence and span `id`/`parent`
//! fields are offset per shard past every id of the shards before it.
//! Record lines are written straight through to the output, so memory
//! stays bounded by one shard plus the summary accumulators no matter how
//! many shards stream past. Summary lines are merged across shards and
//! appended once by [`Merger::finish`], sorted by name, mirroring the
//! single-sink export layout:
//!
//! * **counters** sum (they are monotone totals);
//! * **gauges** are last-write-wins in shard order, matching the in-process
//!   semantics of a gauge;
//! * **histograms** sum `count`/`sum` and combine `min`/`max`; a name
//!   only one shard reported keeps that shard's `p50`/`p95`/`p99`
//!   verbatim, and the quantiles are *omitted* for names spanning more
//!   than one shard: quantiles of a distribution cannot be recovered from
//!   per-shard summaries, and a wrong number is worse than a missing
//!   field (the parser treats them as optional).
//!
//! The output is a pure function of the input sequence, so two runs that
//! produce the same shards in the same order merge to byte-identical
//! documents regardless of how many worker threads raced to produce them.
//! Malformed or unknown lines are dropped (counted per the returned
//! [`Merged::dropped`]), keeping the artifact schema-clean; every line is
//! re-rendered by the writers in [`crate::sink`] that wrote it.
//!
//! [`merge_jsonl`] wraps a [`Merger`] over an in-memory buffer for callers
//! that want the whole document as a `String`.

use std::collections::BTreeMap;
use std::io;

use crate::json::{self, Value};
use crate::sink;

/// Result of an in-memory merge: the combined document plus drop
/// accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Merged {
    /// The merged JSONL document.
    pub jsonl: String,
    /// Lines dropped because they failed to parse or carried an unknown
    /// record type.
    pub dropped: usize,
}

#[derive(Clone, Debug, Default)]
struct HistAcc {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Quantiles of the single shard that defined this name, kept only
    /// while exactly one shard has contributed.
    quantiles: Option<(u64, u64, u64)>,
    shards: u32,
}

/// Streaming shard merger over any [`io::Write`]; see the module docs.
pub struct Merger<W: io::Write> {
    out: W,
    dropped: usize,
    seq: u64,
    id_base: u64,
    index: usize,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, String>,
    hists: BTreeMap<String, HistAcc>,
}

impl<W: io::Write> Merger<W> {
    pub fn new(out: W) -> Merger<W> {
        Merger {
            out,
            dropped: 0,
            seq: 0,
            id_base: 0,
            index: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// Lines dropped so far.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Append one shard: header line plus its record lines (rewritten),
    /// summaries folded into the accumulators.
    pub fn push_shard(&mut self, label: &str, src: &str) -> io::Result<()> {
        writeln!(
            self.out,
            "{{\"t\":\"shard\",\"seq\":{},\"index\":{},\"label\":\"{}\"}}",
            self.seq,
            self.index,
            json::escape(label),
        )?;
        self.seq += 1;
        self.index += 1;
        let mut max_id = 0u64;
        for line in src.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let parsed = json::parse(line);
            let action = parsed.as_ref().and_then(|v| self.fold_line(v, &mut max_id));
            match action {
                None => self.dropped += 1,
                Some(None) => {}
                Some(Some(rendered)) => self.out.write_all(rendered.as_bytes())?,
            }
        }
        self.id_base += max_id;
        Ok(())
    }

    /// Write the merged summary lines and flush. Returns the total number
    /// of dropped lines.
    pub fn finish(mut self) -> io::Result<usize> {
        let mut tail = String::new();
        for (name, value) in &self.counters {
            sink::write_scalar(&mut tail, "counter", name, value);
        }
        for (name, raw) in &self.gauges {
            sink::write_scalar(&mut tail, "gauge", name, raw);
        }
        for (name, h) in &self.hists {
            sink::write_hist(&mut tail, name, (h.count, h.sum, h.min, h.max), h.quantiles);
        }
        self.out.write_all(tail.as_bytes())?;
        self.out.flush()?;
        Ok(self.dropped)
    }

    /// Classify one parsed line: `None` = drop it; `Some(None)` = folded
    /// into a summary accumulator; `Some(Some(s))` = a record line,
    /// re-rendered with the rewritten `seq`/`id`, ready to write.
    fn fold_line(&mut self, v: &Value, max_id: &mut u64) -> Option<Option<String>> {
        let text = |key: &str| v.get(key).and_then(Value::as_str);
        let num = |key: &str| v.get(key).and_then(Value::as_u64);
        let mut span_id = || {
            let id = num("id")?;
            *max_id = (*max_id).max(id);
            Some(id + self.id_base)
        };
        let mut out = String::new();
        match text("t")? {
            "span-start" => {
                let parent = num("parent").map(|p| p + self.id_base);
                let (id, ns, name, host) = (span_id()?, num("ns")?, text("name")?, text("host")?);
                sink::write_span_start(&mut out, self.seq, ns, id, parent, name, host);
            }
            "span-end" => {
                let (id, ns, name, host) = (span_id()?, num("ns")?, text("name")?, text("host")?);
                sink::write_span_end(&mut out, self.seq, ns, id, name, host, num("dur_ns")?);
            }
            "event" => {
                let attrs = match v.get("attrs") {
                    Some(Value::Obj(m)) => Some(m),
                    _ => None,
                };
                let attrs = attrs
                    .into_iter()
                    .flatten()
                    .map(|(k, val)| (k.as_str(), val.as_str().unwrap_or_default()));
                sink::write_event(
                    &mut out,
                    self.seq,
                    num("ns")?,
                    text("name")?,
                    text("host")?,
                    attrs,
                );
            }
            "counter" => {
                *self.counters.entry(text("name")?.to_owned()).or_insert(0) += num("value")?;
                return Some(None);
            }
            "gauge" => {
                // Keep the raw number text (gauges are i64; re-parsing through
                // a float could perturb it). Later shards overwrite: gauges are
                // last-write-wins in process, so they are in the merge too.
                let Value::Num(raw) = v.get("value")? else { return None };
                self.gauges.insert(text("name")?.to_owned(), raw.clone());
                return Some(None);
            }
            "hist" => {
                let (count, sum, min, max) = (num("count")?, num("sum")?, num("min")?, num("max")?);
                let q = match (num("p50"), num("p95"), num("p99")) {
                    (Some(p50), Some(p95), Some(p99)) => Some((p50, p95, p99)),
                    _ => None,
                };
                let h = self.hists.entry(text("name")?.to_owned()).or_default();
                if h.shards == 0 {
                    (h.min, h.max, h.quantiles) = (min, max, q);
                } else {
                    (h.min, h.max, h.quantiles) = (h.min.min(min), h.max.max(max), None);
                }
                h.count += count;
                h.sum += sum;
                h.shards += 1;
                return Some(None);
            }
            // A sink trailer describes the shard's own stream, not the
            // merged document; its drop total already reached the
            // `telemetry-dropped` counter.
            "sink" => return Some(None),
            _ => return None,
        }
        self.seq += 1;
        Some(Some(out))
    }
}

/// Merge per-shard JSONL exports into one in-memory document. Shards are
/// `(label, jsonl)` pairs in the caller's (stable) order; the label lands
/// in the shard header line so queries can attribute records to their
/// cell.
pub fn merge_jsonl<'a, I>(shards: I) -> Merged
where
    I: IntoIterator<Item = (&'a str, &'a str)>,
{
    let mut buf: Vec<u8> = Vec::new();
    let mut merger = Merger::new(&mut buf);
    for (label, src) in shards {
        // Writes into a Vec cannot fail.
        let _ = merger.push_shard(label, src);
    }
    let dropped = merger.finish().unwrap_or(0);
    Merged { jsonl: String::from_utf8_lossy(&buf).into_owned(), dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use crate::Telemetry;

    fn shard_a() -> String {
        let mut t = Telemetry::new();
        t.set_now(10);
        let root = t.span_start("client-request", "sagit");
        let child = t.span_child("probe-report", "sagit", root);
        t.set_now(25);
        t.span_end(child);
        t.set_now(40);
        t.span_end(root);
        t.event("fault-injected", "sagit", &[("kind", "link-down")]);
        t.counter_add("net-udp-bytes", 100);
        t.gauge_set("wizard-live-servers", "wiz", 7);
        t.export_jsonl()
    }

    fn shard_b() -> String {
        let mut t = Telemetry::new();
        t.set_now(5);
        let s = t.span_start("client-request", "suna");
        t.set_now(9);
        t.span_end(s);
        t.counter_add("net-udp-bytes", 11);
        t.gauge_set("wizard-live-servers", "wiz", 9);
        t.export_jsonl()
    }

    #[test]
    fn merge_is_deterministic_and_labels_shards() {
        let (a, b) = (shard_a(), shard_b());
        let m1 = merge_jsonl([("fig3.3#1/0", a.as_str()), ("fig3.3#2/0", b.as_str())]);
        let m2 = merge_jsonl([("fig3.3#1/0", a.as_str()), ("fig3.3#2/0", b.as_str())]);
        assert_eq!(m1, m2, "same shards, same bytes");
        assert_eq!(m1.dropped, 0);
        assert!(m1.jsonl.contains("\"t\":\"shard\""));
        assert!(m1.jsonl.contains("fig3.3#1/0"));
        assert!(m1.jsonl.contains("fig3.3#2/0"));
    }

    #[test]
    fn seq_is_strictly_increasing_across_the_merged_document() {
        let (a, b) = (shard_a(), shard_b());
        let m = merge_jsonl([("a", a.as_str()), ("b", b.as_str())]);
        let mut last: Option<u64> = None;
        let mut seen = 0;
        for line in m.jsonl.lines() {
            let v = crate::json::parse(line).expect("merged lines parse");
            if let Some(s) = v.get("seq").and_then(Value::as_u64) {
                assert!(last.is_none_or(|p| s > p), "seq {s} after {last:?}");
                last = Some(s);
                seen += 1;
            }
        }
        assert!(seen > 4, "record lines carried seq numbers");
    }

    #[test]
    fn span_ids_are_offset_so_parents_join_unambiguously() {
        let (a, b) = (shard_a(), shard_b());
        let m = merge_jsonl([("a", a.as_str()), ("b", b.as_str())]);
        let tr = Trace::parse(&m.jsonl);
        // 3 spans total; every id unique; the child still points at its
        // own shard's root.
        assert_eq!(tr.spans.len(), 3);
        let mut ids: Vec<u64> = tr.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "span ids must not collide across shards");
        let probe = tr.spans.iter().find(|s| s.name == "probe-report").unwrap();
        let parent = probe.parent.expect("child keeps a parent");
        let root = tr.spans.iter().find(|s| s.id == parent).unwrap();
        assert_eq!(root.name, "client-request");
        assert_eq!(root.host, "sagit", "parent resolves into the same shard");
    }

    #[test]
    fn counters_sum_and_gauges_take_the_last_shard() {
        let (a, b) = (shard_a(), shard_b());
        let m = merge_jsonl([("a", a.as_str()), ("b", b.as_str())]);
        let tr = Trace::parse(&m.jsonl);
        assert_eq!(tr.counters.get("net-udp-bytes"), Some(&111));
        assert!(m
            .jsonl
            .contains("{\"t\":\"gauge\",\"name\":\"wizard-live-servers/wiz\",\"value\":9}"));
    }

    #[test]
    fn hist_quantiles_survive_single_shard_but_not_bucketless_multi_shard_merges() {
        let mut t = Telemetry::new();
        t.observe_ns("client-request", 100);
        t.observe_ns("client-request", 200);
        let a = t.export_jsonl();
        let single = merge_jsonl([("a", a.as_str())]);
        assert!(single.jsonl.contains("\"p50\":"), "single shard keeps quantiles");
        let multi = merge_jsonl([("a", a.as_str()), ("b", a.as_str())]);
        let hist_line = multi
            .jsonl
            .lines()
            .find(|l| l.contains("\"t\":\"hist\""))
            .expect("merged hist line present");
        assert!(hist_line.contains("\"count\":4"));
        assert!(!hist_line.contains("p50"), "cross-shard quantiles are unrecoverable");
        // A `buckets` field on an input line is ignored, not an error.
        let bucketed = a.replace("}\n", ",\"buckets\":[[7,1],[8,1]]}\n");
        assert!(bucketed.contains("buckets"));
        assert_eq!(merge_jsonl([("a", bucketed.as_str())]), single);
        assert_eq!(merge_jsonl([("a", bucketed.as_str()), ("b", a.as_str())]), multi);
    }

    #[test]
    fn streaming_merger_matches_in_memory_merge() {
        let (a, b) = (shard_a(), shard_b());
        let whole = merge_jsonl([("a", a.as_str()), ("b", b.as_str())]);
        let mut buf: Vec<u8> = Vec::new();
        let mut m = Merger::new(&mut buf);
        m.push_shard("a", &a).unwrap();
        m.push_shard("b", &b).unwrap();
        let dropped = m.finish().unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), whole.jsonl);
        assert_eq!(dropped, whole.dropped);
    }

    #[test]
    fn empty_input_and_malformed_lines() {
        assert_eq!(merge_jsonl([]).jsonl, "");
        let m = merge_jsonl([("a", "this is not json\n{\"t\":\"mystery\"}\n")]);
        assert_eq!(m.dropped, 2);
        // Only the shard header survives.
        assert_eq!(m.jsonl.lines().count(), 1);
    }
}
