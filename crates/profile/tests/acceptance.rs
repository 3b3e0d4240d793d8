//! Acceptance coverage for the profiler: byte-identical output across
//! same-seed runs, and a nonzero `profile diff` exit on an injected
//! regression beyond the threshold.

use std::path::PathBuf;
use std::process::Command;

use smartsock_bench::{profile_run, DEFAULT_SEED};
use smartsock_profile::{baseline, fold};
use smartsock_telemetry::trace::Trace;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_profile"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("smartsock-profile-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// One profiled run of a cheap span-producing catalog experiment, folded.
fn folded_run(seed: u64) -> (baseline::ExperimentProfile, fold::Folded, Vec<String>) {
    let (_, run) = profile_run("table5.2", seed).expect("table5.2 is in the catalog");
    let parsed: Vec<Trace> = run.traces.iter().map(|t| Trace::parse(t)).collect();
    let folded = fold::fold_traces(&parsed);
    (baseline::ExperimentProfile::from_run(&run), folded, run.traces)
}

#[test]
fn same_seed_runs_produce_byte_identical_report_flame_and_baseline() {
    let (pa, fa, traces_a) = folded_run(DEFAULT_SEED);
    let (pb, fb, traces_b) = folded_run(DEFAULT_SEED);

    assert_eq!(traces_a, traces_b, "exported traces must be byte-identical per seed");
    assert_eq!(fold::render_report(&fa, 20), fold::render_report(&fb, 20));
    assert_eq!(fold::render_flame(&fa), fold::render_flame(&fb));
    assert_eq!(pa.trace_sha, pb.trace_sha);

    assert_eq!(pa, pb, "the baseline entry is a pure function of the seed");
}

#[test]
fn cli_bench_run_twice_with_no_flag_writes_byte_identical_documents() {
    let run = |jobs: &str| {
        let args = ["bench", "--jobs", jobs, "fig3.3", "table5.2"];
        let out = bin().args(args).output().expect("run profile bench");
        assert!(out.status.success(), "bench failed: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let doc = run("1");
    assert_eq!(doc, run("1"), "BENCH_profile.json must compare with cmp");
    assert_eq!(doc, run("8"), "and must not depend on --jobs");
    assert!(!String::from_utf8_lossy(&doc).contains("wall"));
}

#[test]
fn cli_report_and_flame_are_deterministic_over_a_trace_file() {
    let (_, _, traces) = folded_run(11);
    let path = scratch("table5_2_seed11.jsonl");
    std::fs::write(&path, traces.join("")).expect("write trace");

    let run = |sub: &str| {
        let out = bin().arg(sub).arg(&path).output().expect("run profile");
        assert!(out.status.success(), "{sub} failed: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    assert_eq!(run("report"), run("report"));
    assert_eq!(run("flame"), run("flame"));
    assert!(!run("flame").is_empty(), "table5.2 opens probe/net/wizard spans");
}

#[test]
fn cli_diff_exits_nonzero_on_injected_regression_and_zero_when_clean() {
    let (profile, _, _) = folded_run(DEFAULT_SEED);
    let old_doc = baseline::render_profiles(std::slice::from_ref(&profile));

    // Inject a +10% sim-event regression (threshold is 5%).
    let mut slow = profile.clone();
    slow.sim_events += slow.sim_events / 10 + 1;
    let new_doc = baseline::render_profiles(std::slice::from_ref(&slow));

    let old_path = scratch("baseline.json");
    let new_path = scratch("regressed.json");
    std::fs::write(&old_path, &old_doc).expect("write baseline");
    std::fs::write(&new_path, &new_doc).expect("write regressed");

    let out = bin().args(["diff"]).arg(&old_path).arg(&new_path).output().expect("run diff");
    assert!(!out.status.success(), "a +10% event regression must gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("verdict: REGRESSION"), "{text}");

    // Same file on both sides: clean exit.
    let out = bin().args(["diff"]).arg(&old_path).arg(&old_path).output().expect("run diff");
    assert!(out.status.success(), "identical profiles must pass");
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict: ok"));

    // A generous threshold lets the same delta through.
    let out = bin()
        .args(["diff", "--threshold-pct", "50"])
        .arg(&old_path)
        .arg(&new_path)
        .output()
        .expect("run diff");
    assert!(out.status.success(), "50% threshold must tolerate +10%");
}
