//! The `BENCH_profile.json` baseline: schema, writer/parser, and the
//! threshold diff that gates CI.
//!
//! Per experiment the file records
//! `{experiment_id, sim_events, sim_time_ms,
//!   spans: {name: {calls, self_ms, total_ms}}, trace_sha}`
//! plus the seed and the queue/allocation proxies. Millisecond fields are
//! printed with exactly six decimals so they round-trip to integer
//! nanoseconds; the whole document is a pure function of the seed, so two
//! runs compare with `cmp`. Wall time is `benchmark/`'s to measure
//! (`sim.run_ms.*`); a `wall_ms` key in an older document is ignored.
//!
//! Diff policy: dispatched events and per-span self-time gate against
//! `Thresholds::pct`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use smartsock_bench::RunProfile;
use smartsock_telemetry::json::{self, Value};
use smartsock_telemetry::trace::Trace;

use crate::fold::{fold_traces, ms, parse_ms, SpanStat};
use crate::sha::sha256_hex;

/// One experiment's entry in `BENCH_profile.json`. Times are kept in
/// nanoseconds internally and rendered as fixed-point milliseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentProfile {
    pub experiment_id: String,
    pub seed: u64,
    pub sim_events: u64,
    pub sim_time_ns: u64,
    pub peak_pending: u64,
    pub records: u64,
    pub schedulers: u64,
    pub spans: BTreeMap<String, SpanStat>,
    /// SHA-256 over the concatenated exported traces.
    pub trace_sha: String,
}

impl ExperimentProfile {
    /// Build the baseline entry from a raw bench capture: parse and fold
    /// the traces, fingerprint the bytes.
    pub fn from_run(p: &RunProfile) -> ExperimentProfile {
        let parsed: Vec<Trace> = p.traces.iter().map(|t| Trace::parse(t)).collect();
        let folded = fold_traces(&parsed);
        let mut bytes = Vec::new();
        for t in &p.traces {
            bytes.extend_from_slice(t.as_bytes());
        }
        ExperimentProfile {
            experiment_id: p.experiment_id.clone(),
            seed: p.seed,
            sim_events: p.sim_events,
            sim_time_ns: p.sim_time_ns,
            peak_pending: p.peak_pending as u64,
            records: p.records,
            schedulers: p.schedulers,
            spans: folded.spans,
            trace_sha: sha256_hex(&bytes),
        }
    }
}

/// Render profiles as the canonical `BENCH_profile.json` document:
/// sorted by (experiment id, seed) — the same stable key order the
/// parallel executor merges on, so the document's bytes are independent
/// of how many workers captured the shards — one experiment per line,
/// fixed field order.
pub fn render_profiles(profiles: &[ExperimentProfile]) -> String {
    let mut sorted: Vec<&ExperimentProfile> = profiles.iter().collect();
    sorted.sort_by(|a, b| {
        (a.experiment_id.as_str(), a.seed).cmp(&(b.experiment_id.as_str(), b.seed))
    });
    let mut s = String::from("{\"version\":1,\"profiles\":[\n");
    for (i, p) in sorted.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "{{\"experiment_id\":\"{}\",\"seed\":{},\"sim_events\":{},\"sim_time_ms\":{},\
             \"peak_pending\":{},\"records\":{},\"schedulers\":{},\"spans\":{{",
            json::escape(&p.experiment_id),
            p.seed,
            p.sim_events,
            ms(p.sim_time_ns),
            p.peak_pending,
            p.records,
            p.schedulers,
        );
        for (j, (name, st)) in p.spans.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"calls\":{},\"self_ms\":{},\"total_ms\":{}}}",
                json::escape(name),
                st.calls,
                ms(st.self_ns),
                ms(st.total_ns),
            );
        }
        let _ = write!(s, "}},\"trace_sha\":\"{}\"}}", json::escape(&p.trace_sha));
    }
    s.push_str("\n]}\n");
    s
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing field {key:?}"))
}

fn u64_field(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    field(v, key, what)?.as_u64().ok_or_else(|| format!("{what}: field {key:?} is not a u64"))
}

fn ms_field(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    match field(v, key, what)? {
        Value::Num(raw) => parse_ms(raw)
            .ok_or_else(|| format!("{what}: field {key:?} is not <int>.<6-digit> milliseconds")),
        _ => Err(format!("{what}: field {key:?} is not a number")),
    }
}

/// Parse a `BENCH_profile.json` document.
pub fn parse_profiles(src: &str) -> Result<Vec<ExperimentProfile>, String> {
    let doc = json::parse(src).ok_or("BENCH_profile.json: not valid JSON")?;
    let profiles = match field(&doc, "profiles", "BENCH_profile.json")? {
        Value::Arr(xs) => xs,
        _ => return Err("BENCH_profile.json: \"profiles\" is not an array".into()),
    };
    let mut out = Vec::new();
    for v in profiles {
        let id = field(v, "experiment_id", "profile entry")?
            .as_str()
            .ok_or("profile entry: experiment_id is not a string")?
            .to_owned();
        let what = format!("profile {id}");
        let mut spans = BTreeMap::new();
        match field(v, "spans", &what)? {
            Value::Obj(m) => {
                for (name, sv) in m {
                    spans.insert(
                        name.clone(),
                        SpanStat {
                            calls: u64_field(sv, "calls", &what)?,
                            self_ns: ms_field(sv, "self_ms", &what)?,
                            total_ns: ms_field(sv, "total_ms", &what)?,
                        },
                    );
                }
            }
            _ => return Err(format!("{what}: \"spans\" is not an object")),
        }
        out.push(ExperimentProfile {
            seed: u64_field(v, "seed", &what)?,
            sim_events: u64_field(v, "sim_events", &what)?,
            sim_time_ns: ms_field(v, "sim_time_ms", &what)?,
            peak_pending: u64_field(v, "peak_pending", &what)?,
            records: u64_field(v, "records", &what)?,
            schedulers: u64_field(v, "schedulers", &what)?,
            trace_sha: field(v, "trace_sha", &what)?
                .as_str()
                .ok_or_else(|| format!("{what}: trace_sha is not a string"))?
                .to_owned(),
            spans,
            experiment_id: id,
        });
    }
    Ok(out)
}

/// Diff threshold: the relative change (new vs old, percent) of sim
/// events or span self-time beyond which an experiment gates.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    pub pct: f64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds { pct: 5.0 }
    }
}

/// Per-experiment classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Neutral,
}

#[derive(Clone, Debug)]
pub struct ExperimentDiff {
    pub experiment_id: String,
    pub verdict: Verdict,
    /// Human-readable evidence lines, deterministic order.
    pub notes: Vec<String>,
}

#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    pub entries: Vec<ExperimentDiff>,
    /// Experiments in the baseline but absent from the new profile — a
    /// gating failure: the trajectory for them would silently end.
    pub missing_in_new: Vec<String>,
    /// Experiments only in the new profile (start being tracked once the
    /// baseline is regenerated).
    pub added_in_new: Vec<String>,
}

impl DiffReport {
    /// Whether CI should fail.
    pub fn has_regression(&self) -> bool {
        !self.missing_in_new.is_empty()
            || self.entries.iter().any(|e| e.verdict == Verdict::Regressed)
    }
}

/// Relative change in percent; `None` when both sides are zero.
fn pct_change(old: u64, new: u64) -> Option<f64> {
    if old == 0 && new == 0 {
        return None;
    }
    if old == 0 {
        return Some(f64::INFINITY);
    }
    Some((new as f64 - old as f64) * 100.0 / old as f64)
}

struct Tally {
    notes: Vec<String>,
    regressed: bool,
    improved: bool,
}

impl Tally {
    /// Check one gated metric: over +threshold regresses, under -threshold
    /// improves, in between is silent.
    fn gate(&mut self, label: &str, old: u64, new: u64, threshold: f64) {
        let Some(pct) = pct_change(old, new) else { return };
        if pct > threshold {
            self.regressed = true;
            self.notes
                .push(format!("{label} {pct:+.1}% ({old} -> {new}) exceeds +{threshold:.1}%"));
        } else if pct < -threshold {
            self.improved = true;
            self.notes.push(format!("{label} {pct:+.1}% ({old} -> {new})"));
        }
    }
}

/// Diff a new profile set against the baseline.
pub fn diff(old: &[ExperimentProfile], new: &[ExperimentProfile], th: &Thresholds) -> DiffReport {
    let new_by_id: BTreeMap<&str, &ExperimentProfile> =
        new.iter().map(|p| (p.experiment_id.as_str(), p)).collect();
    let old_ids: std::collections::BTreeSet<&str> =
        old.iter().map(|p| p.experiment_id.as_str()).collect();

    let mut report = DiffReport {
        added_in_new: new
            .iter()
            .filter(|p| !old_ids.contains(p.experiment_id.as_str()))
            .map(|p| p.experiment_id.clone())
            .collect(),
        ..DiffReport::default()
    };

    let mut sorted_old: Vec<&ExperimentProfile> = old.iter().collect();
    sorted_old.sort_by(|a, b| a.experiment_id.cmp(&b.experiment_id));
    for o in sorted_old {
        let Some(n) = new_by_id.get(o.experiment_id.as_str()) else {
            report.missing_in_new.push(o.experiment_id.clone());
            continue;
        };
        let mut t = Tally { notes: Vec::new(), regressed: false, improved: false };
        t.gate("sim_events", o.sim_events, n.sim_events, th.pct);
        for (name, os) in &o.spans {
            match n.spans.get(name) {
                Some(ns) => {
                    t.gate(&format!("span {name} self_ms"), os.self_ns, ns.self_ns, th.pct);
                }
                None => {
                    t.regressed = true;
                    t.notes.push(format!(
                        "span {name} disappeared from the profile (regenerate the baseline \
                         if the rename/removal is intentional)"
                    ));
                }
            }
        }
        if t.notes.is_empty() && o.trace_sha != n.trace_sha {
            t.notes
                .push("trace bytes changed (sha) with all gated metrics within thresholds".into());
        }
        let verdict = if t.regressed {
            Verdict::Regressed
        } else if t.improved {
            Verdict::Improved
        } else {
            Verdict::Neutral
        };
        report.entries.push(ExperimentDiff {
            experiment_id: o.experiment_id.clone(),
            verdict,
            notes: t.notes,
        });
    }
    report
}

/// Render a diff report for humans / CI logs.
pub fn render_diff(r: &DiffReport) -> String {
    let mut s = String::new();
    for e in &r.entries {
        let v = match e.verdict {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Neutral => "neutral",
        };
        let _ = writeln!(s, "{}: {v}", e.experiment_id);
        for n in &e.notes {
            let _ = writeln!(s, "  {n}");
        }
    }
    for id in &r.missing_in_new {
        let _ = writeln!(s, "{id}: MISSING from new profile (baseline still tracks it)");
    }
    for id in &r.added_in_new {
        let _ = writeln!(s, "{id}: new experiment, not in baseline");
    }
    let _ = writeln!(s, "verdict: {}", if r.has_regression() { "REGRESSION" } else { "ok" });
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(id: &str, sim_events: u64, span_self: u64) -> ExperimentProfile {
        let mut spans = BTreeMap::new();
        spans.insert(
            "probe-report".to_owned(),
            SpanStat { calls: 4, self_ns: span_self, total_ns: span_self },
        );
        ExperimentProfile {
            experiment_id: id.to_owned(),
            seed: 1,
            sim_events,
            sim_time_ns: 5_000_000,
            peak_pending: 7,
            records: 100,
            schedulers: 1,
            spans,
            trace_sha: "deadbeef".to_owned(),
        }
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        let ps = vec![profile("fig3.3", 1000, 2_500_000), profile("table5.2", 50, 1)];
        let doc = render_profiles(&ps);
        let back = parse_profiles(&doc).expect("own output must parse");
        let mut want = ps.clone();
        want.sort_by(|a, b| a.experiment_id.cmp(&b.experiment_id));
        assert_eq!(back, want);
        // Deterministic bytes.
        assert_eq!(doc, render_profiles(&ps));
    }

    #[test]
    fn within_threshold_is_neutral() {
        let old = vec![profile("fig3.3", 1000, 1_000_000)];
        let new = vec![profile("fig3.3", 1030, 1_020_000)];
        let r = diff(&old, &new, &Thresholds::default());
        assert_eq!(r.entries[0].verdict, Verdict::Neutral);
        assert!(!r.has_regression());
    }

    #[test]
    fn event_count_regression_beyond_threshold_gates() {
        let old = vec![profile("fig3.3", 1000, 1_000_000)];
        let new = vec![profile("fig3.3", 1100, 1_000_000)];
        let r = diff(&old, &new, &Thresholds::default());
        assert_eq!(r.entries[0].verdict, Verdict::Regressed);
        assert!(r.has_regression());
        assert!(render_diff(&r).contains("sim_events +10.0%"));
    }

    #[test]
    fn span_self_time_regression_gates_and_improvement_classifies() {
        let old = vec![profile("fig3.3", 1000, 1_000_000)];
        let slow = vec![profile("fig3.3", 1000, 1_200_000)];
        assert!(diff(&old, &slow, &Thresholds::default()).has_regression());
        let fast = vec![profile("fig3.3", 1000, 800_000)];
        let r = diff(&old, &fast, &Thresholds::default());
        assert_eq!(r.entries[0].verdict, Verdict::Improved);
        assert!(!r.has_regression());
    }

    #[test]
    fn disappeared_span_and_missing_experiment_gate() {
        let old = vec![profile("fig3.3", 1000, 1_000_000)];
        let mut gone = profile("fig3.3", 1000, 1_000_000);
        gone.spans.clear();
        let r = diff(&old, &[gone], &Thresholds::default());
        assert!(r.has_regression());
        let r = diff(&old, &[], &Thresholds::default());
        assert_eq!(r.missing_in_new, ["fig3.3"]);
        assert!(r.has_regression());
    }

    #[test]
    fn a_document_that_still_carries_wall_ms_parses_and_is_never_written_back() {
        let ps = vec![profile("fig3.3", 1000, 2_500_000)];
        let doc = render_profiles(&ps);
        assert!(!doc.contains("wall"), "{doc}");
        let old = doc.replace("\"peak_pending\"", "\"wall_ms\":42.000000,\"peak_pending\"");
        assert!(old.contains("\"wall_ms\":42.000000,"));
        let back = parse_profiles(&old).expect("a version-1 document with wall_ms still parses");
        assert_eq!(back, ps);
        assert_eq!(render_profiles(&back), doc);
    }

    #[test]
    fn sha_change_alone_is_a_neutral_note() {
        let old = vec![profile("fig3.3", 1000, 1_000_000)];
        let mut new = profile("fig3.3", 1000, 1_000_000);
        new.trace_sha = "cafebabe".to_owned();
        let r = diff(&old, &[new], &Thresholds::default());
        assert_eq!(r.entries[0].verdict, Verdict::Neutral);
        assert!(r.entries[0].notes[0].contains("trace bytes changed"));
    }
}
