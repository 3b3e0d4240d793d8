//! `profile` — deterministic profiling and perf-baseline gating.
//!
//! ```text
//! profile report [--top N] <trace.jsonl>   hot-path table by self-time
//! profile flame <trace.jsonl>              flamegraph collapsed stacks
//! profile bench [--seed N] [--jobs N] [--out PATH] (all | id ...)
//!                                          run repro experiments under the
//!                                          profiler (sharded across --jobs
//!                                          workers), write BENCH_profile.json
//! profile diff [--threshold-pct P] [--only PREFIX]
//!              <old.json> <new.json>       classify vs baseline; exit 1 on
//!                                          regression
//! ```
//!
//! `report` and `flame` are byte-deterministic for same-seed traces. The
//! default `bench` subset (fig3.3, table5.2, fleet.11/100/1k) is the CI
//! gate — cheap to run and between them they exercise the probe, monitor,
//! wizard and client span paths plus shard-pruned matching at fleet
//! scale. `diff --only` filters both documents by id prefix so one job
//! can gate one experiment family against the full committed baseline.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::io::Write as _;
use std::process::ExitCode;

use smartsock_profile::{baseline, fold};
use smartsock_telemetry::trace::Trace;

const USAGE: &str = "usage:\n  profile report [--top N] <trace.jsonl>\n  profile flame <trace.jsonl>\n  profile bench [--seed N] [--jobs N] [--out PATH] (all | experiment-id ...)\n  profile diff [--threshold-pct P] [--only PREFIX] <old.json> <new.json>\n";

/// The CI gating subset: the two cheapest catalog experiments that drive
/// full scheduler runs (fig1.4 never builds one), plus the fleet family
/// up to 1k hosts so shard-pruned matching is perf-gated at scale
/// (fleet.10k stays nightly-only).
const DEFAULT_BENCH_IDS: &[&str] = &["fig3.3", "table5.2", "fleet.11", "fleet.100", "fleet.1k"];

fn load_trace(path: &str) -> Result<Trace, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let tr = Trace::parse(&src);
    if tr.skipped > 0 {
        eprintln!("profile: warning: skipped {} malformed line(s) in {path}", tr.skipped);
    }
    Ok(tr)
}

fn cmd_report(args: &[&str]) -> Result<String, String> {
    let (top, path) = match args {
        ["--top", n, path] => (n.parse::<usize>().map_err(|_| format!("not a count: {n}"))?, *path),
        [path] => (20, *path),
        _ => return Err(USAGE.to_owned()),
    };
    Ok(fold::render_report(&fold::fold(&load_trace(path)?), top))
}

fn cmd_flame(args: &[&str]) -> Result<String, String> {
    let [path] = args else { return Err(USAGE.to_owned()) };
    Ok(fold::render_flame(&fold::fold(&load_trace(path)?)))
}

fn cmd_bench(args: &[&str]) -> Result<String, String> {
    let mut seed = smartsock_bench::DEFAULT_SEED;
    let mut out_path: Option<String> = None;
    let mut jobs: usize = 1;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match *a {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("not a seed: {v}"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("bad --jobs value (want an integer >= 1): {v}")),
                };
            }
            "--out" => out_path = Some(it.next().ok_or("--out needs a path")?.to_string()),
            id => ids.push(id.to_owned()),
        }
    }
    if ids.is_empty() {
        ids = DEFAULT_BENCH_IDS.iter().map(|s| (*s).to_owned()).collect();
    }
    let catalog = smartsock_bench::catalog();
    let selected: Vec<(&'static str, smartsock_bench::Experiment)> =
        if ids.iter().any(|i| i == "all") {
            catalog
        } else {
            ids.iter()
                .map(|want| {
                    catalog
                        .iter()
                        .find(|(id, _)| id == want)
                        .copied()
                        .ok_or_else(|| format!("unknown experiment id: {want}"))
                })
                .collect::<Result<_, _>>()?
        };
    let results =
        smartsock_bench::run_cells(smartsock_bench::executor::cells_for(&selected, &[seed]), jobs);
    let mut profiles = Vec::new();
    for r in &results {
        let (_, run) = r
            .outcome
            .as_ref()
            .map_err(|panic| format!("{} @ seed {}: PANIC: {panic}", r.id, r.seed))?;
        eprintln!(
            "profile: {}: {} sim events, {} trace(s)",
            r.id,
            run.sim_events,
            run.traces.len()
        );
        profiles.push(baseline::ExperimentProfile::from_run(run));
    }
    let doc = baseline::render_profiles(&profiles);
    match out_path {
        Some(p) => {
            std::fs::write(&p, &doc).map_err(|e| format!("cannot write {p}: {e}"))?;
            Ok(format!("wrote {} experiment profile(s) to {p}\n", profiles.len()))
        }
        None => Ok(doc),
    }
}

/// Returns the rendered diff plus whether it regressed.
fn cmd_diff(args: &[&str]) -> Result<(String, bool), String> {
    let mut th = baseline::Thresholds::default();
    let mut only: Option<String> = None;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match *a {
            "--threshold-pct" => {
                let v = it.next().ok_or("--threshold-pct needs a value")?;
                th.pct = v.parse().map_err(|_| format!("not a percentage: {v}"))?;
            }
            "--only" => only = Some(it.next().ok_or("--only needs an id prefix")?.to_string()),
            p => paths.push(p),
        }
    }
    let [old_path, new_path] = paths[..] else { return Err(USAGE.to_owned()) };
    let load = |p: &str| -> Result<Vec<baseline::ExperimentProfile>, String> {
        let src = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        let mut profiles = baseline::parse_profiles(&src).map_err(|e| format!("{p}: {e}"))?;
        // `--only PREFIX` restricts BOTH documents before diffing, so a
        // baseline holding the full catalog can gate a partial rerun
        // without every absent experiment reading as a disappearance.
        if let Some(prefix) = &only {
            profiles.retain(|ep| ep.experiment_id.starts_with(prefix.as_str()));
            if profiles.is_empty() {
                return Err(format!("{p}: no experiments match --only {prefix}"));
            }
        }
        Ok(profiles)
    };
    let report = baseline::diff(&load(old_path)?, &load(new_path)?, &th);
    Ok((baseline::render_diff(&report), report.has_regression()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let result: Result<(String, bool), String> = match argv.split_first() {
        Some((&"report", rest)) => cmd_report(rest).map(|s| (s, false)),
        Some((&"flame", rest)) => cmd_flame(rest).map(|s| (s, false)),
        Some((&"bench", rest)) => cmd_bench(rest).map(|s| (s, false)),
        Some((&"diff", rest)) => cmd_diff(rest),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok((text, regressed)) => {
            let mut out = std::io::stdout().lock();
            let _ = out.write_all(text.as_bytes());
            let _ = out.flush();
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("profile: {msg}");
            ExitCode::FAILURE
        }
    }
}
