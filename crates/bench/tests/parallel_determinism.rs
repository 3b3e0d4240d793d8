//! Property: the parallel executor is invisible in the output. Running
//! the full catalog with `--jobs 8` must produce byte-identical rendered
//! reports AND a byte-identical merged telemetry export compared to
//! `--jobs 1`. This is the contract that lets CI shard the catalog
//! without a determinism caveat. The same merged trace holds every span,
//! event and counter name the catalog emits to `names.rs`.

use std::collections::BTreeSet;

use smartsock_bench::executor::cells_for;
use smartsock_bench::{catalog, run_cells, CellResult, DEFAULT_SEED};
use smartsock_telemetry::merge::Merger;
use smartsock_telemetry::names::{COUNTER_NAMES, EVENT_NAMES, SPAN_NAMES};
use smartsock_telemetry::trace::Trace;

/// Render what `repro all` prints: every report in merge order.
fn rendered_reports(results: &[CellResult]) -> String {
    let mut s = String::new();
    for r in results {
        let (report, _) = r.outcome.as_ref().expect("catalog experiments must not panic");
        s.push_str(&format!("{report}\n"));
    }
    s
}

/// Merge every cell's exported traces the way `repro --trace-out` does.
fn merged_trace(results: &[CellResult]) -> String {
    let mut buf: Vec<u8> = Vec::new();
    let mut merger = Merger::new(&mut buf);
    for r in results {
        let (_, profile) = r.outcome.as_ref().expect("catalog experiments must not panic");
        for (k, trace) in profile.traces.iter().enumerate() {
            merger.push_shard(&format!("{}#{}/{k}", r.id, r.seed), trace).unwrap();
        }
    }
    merger.finish().unwrap();
    String::from_utf8(buf).unwrap()
}

/// Every span, event and counter name in `trace` that the registries in
/// `smartsock_telemetry::names` lack; a counter's `/label` is not part of
/// its name. The registries are kebab-case (their own unit test), so an
/// empty set also means every emitted name is.
fn unregistered_names(trace: &Trace) -> BTreeSet<&str> {
    let spans =
        trace.starts.values().map(|(name, ..)| name).chain(trace.spans.iter().map(|s| &s.name));
    let spans = spans.map(String::as_str).filter(|n| !SPAN_NAMES.contains(n));
    let events = trace.events.iter().map(|e| e.name.as_str()).filter(|n| !EVENT_NAMES.contains(n));
    let counters = trace
        .counters
        .keys()
        .map(|n| n.split_once('/').map_or(n.as_str(), |(base, _)| base))
        .filter(|n| !COUNTER_NAMES.contains(n));
    spans.chain(events).chain(counters).collect()
}

#[test]
fn full_catalog_is_byte_identical_across_jobs_1_and_8() {
    let ids = catalog();
    let serial = run_cells(cells_for(&ids, &[DEFAULT_SEED]), 1);
    let parallel = run_cells(cells_for(&ids, &[DEFAULT_SEED]), 8);

    assert_eq!(
        rendered_reports(&serial),
        rendered_reports(&parallel),
        "rendered report bytes must not depend on --jobs"
    );
    let t1 = merged_trace(&serial);
    let t8 = merged_trace(&parallel);
    assert!(!t1.is_empty(), "the catalog must export telemetry traces");
    assert_eq!(t1, t8, "merged telemetry JSONL bytes must not depend on --jobs");
    let parsed = Trace::parse(&t1);
    let unregistered = unregistered_names(&parsed);
    assert!(unregistered.is_empty(), "names missing from names.rs: {unregistered:?}");
}

#[test]
fn multi_seed_grid_is_byte_identical_across_jobs() {
    // A smaller grid, but two seeds: exercises the (experiment, seed)
    // merge key rather than just the experiment axis.
    let ids: Vec<_> =
        catalog().into_iter().filter(|(id, _)| matches!(*id, "fig3.3" | "table5.2")).collect();
    let seeds = [DEFAULT_SEED, DEFAULT_SEED + 1];
    let serial = run_cells(cells_for(&ids, &seeds), 1);
    let parallel = run_cells(cells_for(&ids, &seeds), 8);
    assert_eq!(rendered_reports(&serial), rendered_reports(&parallel));
    assert_eq!(merged_trace(&serial), merged_trace(&parallel));
    let keys: Vec<(&str, u64)> = serial.iter().map(|r| (r.id, r.seed)).collect();
    assert_eq!(
        keys,
        vec![
            ("fig3.3", DEFAULT_SEED),
            ("fig3.3", DEFAULT_SEED + 1),
            ("table5.2", DEFAULT_SEED),
            ("table5.2", DEFAULT_SEED + 1),
        ],
        "results must merge in stable (experiment, seed) order"
    );
}
