//! Trace-file model and the queries behind the `telemetry` CLI.
//!
//! A trace is the JSONL document written by [`crate::Telemetry::export_jsonl`]:
//! span-start / span-end / event lines in sequence order followed by
//! counter / gauge / hist summary lines — or many such exports, each under
//! the `{"t":"shard",...}` header [`crate::merge::Merger`] writes. Every
//! export numbers its spans from 1, so [`Trace::parse`] is where shards
//! are joined: each shard's span ids and parents are shifted past the
//! largest id of the shards before it, and counters and sink drop counts
//! sum across shards. The queries here re-derive span statistics from the
//! raw span-end records (exact quantiles over the actual durations, not
//! the bucketed in-process histogram), so the CLI is also a cross-check
//! of the exporter.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// One span-end line, joined with its start's parent pointer.
#[derive(Clone, Debug)]
pub struct SpanRow {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub host: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub dur_ns: u64,
}

/// One event line.
#[derive(Clone, Debug)]
pub struct EventRow {
    pub at_ns: u64,
    pub name: String,
    pub host: String,
    pub attrs: BTreeMap<String, String>,
}

/// A fully parsed trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Finished spans in completion order.
    pub spans: Vec<SpanRow>,
    /// `id -> (name, host, parent, start_ns)` for every span-start seen
    /// (including spans never closed).
    pub starts: BTreeMap<u64, (String, String, Option<u64>, u64)>,
    pub events: Vec<EventRow>,
    /// Counter totals, summed over shards.
    pub counters: BTreeMap<String, u64>,
    /// Lines that failed to parse (counted so the CLI can warn).
    pub skipped: usize,
    /// The `{"t":"sink",...}` trailer, when present: which sink kind
    /// wrote the trace. Only emitted when records were dropped, so its
    /// presence means the trace is incomplete.
    pub sink_kind: Option<String>,
    /// Records dropped by the writing sinks' backpressure policy (from
    /// the sink trailers, summed over shards; `0` for a complete trace).
    pub sink_dropped: u64,
    /// Added to the current shard's span ids and parents: the sum of the
    /// largest span id of every shard before it.
    id_base: u64,
    /// The largest span id the current shard has named so far.
    shard_max_id: u64,
}

impl Trace {
    /// Parse a JSONL document. Unknown record types and malformed lines are
    /// skipped (and counted), not fatal: traces should stay readable across
    /// schema additions.
    pub fn parse(src: &str) -> Trace {
        let mut t = Trace::default();
        for line in src.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Some(v) = json::parse(line) else {
                t.skipped += 1;
                continue;
            };
            if t.apply(&v).is_none() {
                t.skipped += 1;
            }
        }
        t
    }

    /// A span line's id, shifted into the joined id space; `None` when
    /// the shift overflows.
    fn span_id(&mut self, v: &Value) -> Option<u64> {
        let id = v.get("id")?.as_u64()?;
        self.shard_max_id = self.shard_max_id.max(id);
        id.checked_add(self.id_base)
    }

    fn apply(&mut self, v: &Value) -> Option<()> {
        match v.get("t")?.as_str()? {
            "span-start" => {
                let id = self.span_id(v)?;
                let parent = match v.get("parent").and_then(Value::as_u64) {
                    Some(p) => Some(p.checked_add(self.id_base)?),
                    None => None,
                };
                self.starts.insert(
                    id,
                    (
                        v.get("name")?.as_str()?.to_owned(),
                        v.get("host")?.as_str()?.to_owned(),
                        parent,
                        v.get("ns")?.as_u64()?,
                    ),
                );
            }
            "span-end" => {
                let id = self.span_id(v)?;
                let end_ns = v.get("ns")?.as_u64()?;
                let dur_ns = v.get("dur_ns")?.as_u64()?;
                let (parent, start_ns) = match self.starts.get(&id) {
                    Some((_, _, parent, start)) => (*parent, *start),
                    None => (None, end_ns.saturating_sub(dur_ns)),
                };
                self.spans.push(SpanRow {
                    id,
                    parent,
                    name: v.get("name")?.as_str()?.to_owned(),
                    host: v.get("host")?.as_str()?.to_owned(),
                    start_ns,
                    end_ns,
                    dur_ns,
                });
            }
            "event" => {
                let mut attrs = BTreeMap::new();
                if let Some(Value::Obj(m)) = v.get("attrs") {
                    for (k, val) in m {
                        attrs.insert(k.clone(), val.as_str().unwrap_or_default().to_owned());
                    }
                }
                self.events.push(EventRow {
                    at_ns: v.get("ns")?.as_u64()?,
                    name: v.get("name")?.as_str()?.to_owned(),
                    host: v.get("host")?.as_str()?.to_owned(),
                    attrs,
                });
            }
            "counter" => {
                let value = v.get("value")?.as_u64()?;
                let total = self.counters.entry(v.get("name")?.as_str()?.to_owned()).or_insert(0);
                *total = total.saturating_add(value);
            }
            "sink" => {
                let dropped = v.get("dropped")?.as_u64()?;
                self.sink_kind = Some(v.get("kind")?.as_str()?.to_owned());
                self.sink_dropped = self.sink_dropped.saturating_add(dropped);
            }
            "shard" => {
                self.id_base = self.id_base.saturating_add(std::mem::take(&mut self.shard_max_id));
            }
            // gauge / hist summary lines carry no extra query surface yet.
            "gauge" | "hist" => {}
            _ => return None,
        }
        Some(())
    }

    /// Exact quantile over a sorted slice (nearest-rank).
    fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Per-span-name statistics: `(name, count, total, p50, p95, p99)`,
    /// sorted by name.
    pub fn span_summary(&self) -> Vec<(String, u64, u64, u64, u64, u64)> {
        let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(&s.name).or_default().push(s.dur_ns);
        }
        by_name
            .into_iter()
            .map(|(name, mut durs)| {
                durs.sort_unstable();
                let total: u64 = durs.iter().sum();
                (
                    name.to_owned(),
                    durs.len() as u64,
                    total,
                    Self::quantile_sorted(&durs, 0.50),
                    Self::quantile_sorted(&durs, 0.95),
                    Self::quantile_sorted(&durs, 0.99),
                )
            })
            .collect()
    }

    /// Event counts per name, sorted by name.
    pub fn event_summary(&self) -> Vec<(String, u64)> {
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &self.events {
            *by_name.entry(&e.name).or_default() += 1;
        }
        by_name.into_iter().map(|(n, c)| (n.to_owned(), c)).collect()
    }

    /// All records touching `host`, ordered by timestamp (ties keep file
    /// order). Each line is `(at_ns, description)`. A record matches if its
    /// `host` field equals the query, or — for events — if any attribute
    /// value does, so `timeline telesto` finds the faults *targeting*
    /// telesto even though the injector recorded them under its own host.
    pub fn timeline(&self, host: &str) -> Vec<(u64, String)> {
        let mut rows: Vec<(u64, usize, String)> = Vec::new();
        let mut ord = 0usize;
        for (id, (name, h, _, start_ns)) in &self.starts {
            if h == host {
                rows.push((*start_ns, ord, format!("span-start {name} (id {id})")));
                ord += 1;
            }
        }
        for s in &self.spans {
            if s.host == host {
                rows.push((
                    s.end_ns,
                    ord,
                    format!("span-end   {} (id {}, {} ns)", s.name, s.id, s.dur_ns),
                ));
                ord += 1;
            }
        }
        for e in &self.events {
            if e.host == host || e.attrs.values().any(|v| v == host) {
                let attrs =
                    e.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ");
                rows.push((e.at_ns, ord, format!("event      {} {attrs}", e.name)));
                ord += 1;
            }
        }
        rows.sort_by_key(|r| (r.0, r.1));
        rows.into_iter().map(|(ns, _, line)| (ns, line)).collect()
    }

    /// The `n` longest spans, worst first, each with its ancestor chain
    /// (`child <- parent <- grandparent`).
    pub fn slowest(&self, n: usize) -> Vec<(SpanRow, String)> {
        let mut spans = self.spans.clone();
        spans.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.id.cmp(&b.id)));
        spans
            .into_iter()
            .take(n)
            .map(|s| {
                let mut chain = vec![s.name.clone()];
                let mut cur = s.parent;
                // Bounded walk: a trace with a parent cycle is malformed,
                // so cap the ancestry depth rather than loop forever.
                for _ in 0..32 {
                    let Some(pid) = cur else { break };
                    let Some((name, _, parent, _)) = self.starts.get(&pid) else { break };
                    chain.push(name.clone());
                    cur = *parent;
                }
                let ancestry = chain.join(" <- ");
                (s, ancestry)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample_trace() -> Trace {
        let mut t = Telemetry::new();
        t.set_now(100);
        let root = t.span_start("client-request", "alice");
        t.set_now(150);
        let child = t.span_child("client-connect", "alice", root);
        t.event("fault-injected", "helene", &[("kind", "host-crash"), ("target", "telesto")]);
        t.set_now(400);
        t.span_end(child);
        t.set_now(900);
        t.span_end(root);
        t.event("fault-recovered", "helene", &[("kind", "host-reboot")]);
        t.counter_add("sysmon-reports", 12);
        Trace::parse(&t.export_jsonl())
    }

    #[test]
    fn parses_spans_events_and_counters() {
        let tr = sample_trace();
        assert_eq!(tr.skipped, 0);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.events.len(), 2);
        assert_eq!(tr.counters.get("sysmon-reports"), Some(&12));
        let summary = tr.span_summary();
        assert_eq!(summary[0].0, "client-connect");
        assert_eq!(summary[1], ("client-request".to_owned(), 1, 800, 800, 800, 800));
    }

    #[test]
    fn timeline_orders_by_timestamp() {
        let tr = sample_trace();
        let tl = tr.timeline("alice");
        assert_eq!(tl.len(), 4);
        assert!(tl.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(tl[0].1.contains("span-start client-request"));
        let faults = tr.timeline("helene");
        assert_eq!(faults.len(), 2);
        assert!(faults[0].1.contains("kind=host-crash"));
        // Attribute values match too: the crash was recorded by helene's
        // injector but *targets* telesto, and both timelines should show it.
        let targeted = tr.timeline("telesto");
        assert_eq!(targeted.len(), 1);
        assert!(targeted[0].1.contains("fault-injected"));
    }

    #[test]
    fn slowest_reports_ancestry() {
        let tr = sample_trace();
        let worst = tr.slowest(10);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].0.name, "client-request");
        assert_eq!(worst[1].1, "client-connect <- client-request");
    }

    /// Two exports joined the way `repro --trace-out` writes them.
    fn two_shards() -> String {
        let mut a = Telemetry::new();
        a.set_now(10);
        let root = a.span_start("client-request", "sagit");
        let child = a.span_child("probe-report", "sagit", root);
        a.set_now(25);
        a.span_end(child);
        a.set_now(40);
        a.span_end(root);
        a.counter_add("net-udp-bytes", 100);
        let mut b = Telemetry::new();
        b.set_now(5);
        let root = b.span_start("client-request", "suna");
        let child = b.span_child("probe-report", "suna", root);
        b.set_now(9);
        b.span_end(child);
        b.span_end(root);
        b.counter_add("net-udp-bytes", 11);
        let mut buf = Vec::new();
        let mut m = crate::merge::Merger::new(&mut buf);
        m.push_shard("a", &a.export_jsonl()).unwrap();
        m.push_shard("b", &b.export_jsonl()).unwrap();
        m.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn span_ids_do_not_collide_and_a_child_s_parent_resolves_in_its_own_shard() {
        let tr = Trace::parse(&two_shards());
        assert_eq!(tr.skipped, 0);
        let mut ids: Vec<u64> = tr.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 2, 3, 4], "the second shard's ids start past the first's");
        for probe in tr.spans.iter().filter(|s| s.name == "probe-report") {
            let parent = probe.parent.expect("child keeps a parent");
            let (name, host, ..) = &tr.starts[&parent];
            assert_eq!((name.as_str(), host), ("client-request", &probe.host));
        }
        assert_eq!(tr.slowest(1)[0].1, "client-request");
        assert_eq!(tr.slowest(4)[3].1, "probe-report <- client-request");
    }

    #[test]
    fn counters_sum_across_shards() {
        let tr = Trace::parse(&two_shards());
        assert_eq!(tr.counters.get("net-udp-bytes"), Some(&111));
    }

    #[test]
    fn a_malformed_line_inside_a_shard_is_counted_in_skipped() {
        let doc = two_shards().replacen("{\"t\":\"span-end\"", "{\"t\":\"span-end\",", 1);
        let tr = Trace::parse(&doc);
        assert_eq!(tr.skipped, 1);
        assert_eq!(tr.spans.len(), 3);
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let tr = Trace::parse("{\"t\":\"span-end\"}\nnot json\n{\"t\":\"mystery\"}\n");
        assert_eq!(tr.skipped, 3);
        assert!(tr.spans.is_empty());
        // Sums and id shifts past u64::MAX saturate or skip, never wrap.
        let m = u64::MAX;
        let counter = format!("{{\"t\":\"counter\",\"name\":\"c\",\"value\":{m}}}\n");
        let start = |id| {
            format!("{{\"t\":\"span-start\",\"ns\":0,\"id\":{id},\"name\":\"s\",\"host\":\"h\"}}\n")
        };
        let shard = "{\"t\":\"shard\"}\n";
        let tr = Trace::parse(&format!("{counter}{counter}{shard}{}{shard}{}", start(m), start(1)));
        assert_eq!(tr.counters["c"], m);
        assert_eq!((tr.skipped, tr.starts.len()), (1, 1));
    }
}
