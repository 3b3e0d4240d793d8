//! The `BENCH_profile.json` pin: schema, writer and parser.
//!
//! Per experiment the document records `{experiment_id, seed, trace_sha}`:
//! the SHA-256 of the exact telemetry bytes the experiment exported at
//! that seed. The document is a pure function of its ids and seeds, so
//! two runs compare with `cmp`, and any change to a simulated trace byte
//! changes a `trace_sha`. Wall time is `benchmark/`'s to measure
//! (`sim.run_ms.*`); keys an older document carries beyond these three
//! (`sim_events`, `spans`, `wall_ms`, …) are ignored.

use std::fmt::Write as _;

use smartsock_bench::RunProfile;
use smartsock_telemetry::json::{self, Value};

use crate::sha::sha256_hex;

/// One experiment's entry in `BENCH_profile.json`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentProfile {
    pub experiment_id: String,
    pub seed: u64,
    /// SHA-256 over the concatenated exported traces.
    pub trace_sha: String,
}

impl ExperimentProfile {
    /// Build the pin entry from a raw bench capture: fingerprint the
    /// trace bytes.
    pub fn from_run(p: &RunProfile) -> ExperimentProfile {
        ExperimentProfile {
            experiment_id: p.experiment_id.clone(),
            seed: p.seed,
            trace_sha: sha256_hex(p.traces.concat().as_bytes()),
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
    let mut s = String::from("{\"version\":2,\"profiles\":[\n");
    for (i, p) in sorted.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "{{\"experiment_id\":\"{}\",\"seed\":{},\"trace_sha\":\"{}\"}}",
            json::escape(&p.experiment_id),
            p.seed,
            json::escape(&p.trace_sha),
        );
    }
    s.push_str("\n]}\n");
    s
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing field {key:?}"))
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
        out.push(ExperimentProfile {
            seed: field(v, "seed", &what)?
                .as_u64()
                .ok_or_else(|| format!("{what}: field \"seed\" is not a u64"))?,
            trace_sha: field(v, "trace_sha", &what)?
                .as_str()
                .ok_or_else(|| format!("{what}: trace_sha is not a string"))?
                .to_owned(),
            experiment_id: id,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(id: &str, seed: u64) -> ExperimentProfile {
        ExperimentProfile { experiment_id: id.to_owned(), seed, trace_sha: "deadbeef".to_owned() }
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        let ps = vec![profile("table5.2", 1), profile("fig3.3", 2), profile("fig3.3", 1)];
        let doc = render_profiles(&ps);
        let back = parse_profiles(&doc).expect("own output must parse");
        let mut want = ps.clone();
        want.sort_by(|a, b| (&a.experiment_id, a.seed).cmp(&(&b.experiment_id, b.seed)));
        assert_eq!(back, want);
        // Deterministic bytes.
        assert_eq!(doc, render_profiles(&ps));
    }

    #[test]
    fn a_document_that_still_carries_wall_ms_parses_and_is_never_written_back() {
        let ps = vec![profile("fig3.3", 1)];
        let doc = render_profiles(&ps);
        assert!(!doc.contains("wall"), "{doc}");
        // A version-1 entry: the cost fields and an older wall_ms beside the pin.
        let old = "{\"version\":1,\"profiles\":[\n{\"experiment_id\":\"fig3.3\",\"seed\":1,\
                   \"sim_events\":288,\"wall_ms\":42.000000,\"sim_time_ms\":147.584274,\
                   \"peak_pending\":1,\"records\":10,\"schedulers\":1,\
                   \"spans\":{\"wizard-match\":{\"calls\":3,\"self_ms\":0.000000,\
                   \"total_ms\":0.000000}},\"trace_sha\":\"deadbeef\"}\n]}\n";
        let back = parse_profiles(old).expect("a version-1 document still parses");
        assert_eq!(back, ps);
        assert_eq!(render_profiles(&back), doc);
    }
}
