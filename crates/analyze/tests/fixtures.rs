//! End-to-end fixture runs: each rule fires on its fixture with the exact
//! expected count, and suppressions behave as documented.
//!
//! The fixtures live under `testdata/`, outside the directories the engine
//! walks, so they never pollute a real `check` run. Flagged identifiers are
//! confined to the fixture files — this test only names rules by their
//! string IDs, because the analyzer scans its own `tests/` directory too.

use smartsock_analyze::{analyze_files, scan_source, FileInput, NameRegistry};

/// The real name registries, loaded the same way `check` loads them.
fn registry() -> NameRegistry {
    NameRegistry::from_source(include_str!("../../telemetry/src/names.rs"))
}

/// Run one fixture and return `(lines per rule-id, suppressed count)`.
fn run(krate: &str, src: &str) -> (Vec<(String, u32)>, usize) {
    let (findings, suppressed) = scan_source("testdata/fixture.rs", krate, false, src, &registry());
    let mut hits: Vec<(String, u32)> =
        findings.iter().map(|f| (f.rule.to_owned(), f.line)).collect();
    hits.sort();
    (hits, suppressed)
}

#[test]
fn det001_flags_wall_clock_reads() {
    let (hits, suppressed) = run("net", include_str!("../testdata/det001.rs"));
    let ids: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    // One finding per type mention (use-line + call site per type): a
    // `::now()` call is not a second finding on top of its type's.
    assert_eq!(ids, ["SS-DET-001"; 4], "{hits:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn det002_flags_hashed_containers_but_not_btrees() {
    let (hits, suppressed) = run("net", include_str!("../testdata/det002.rs"));
    let ids: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(ids, ["SS-DET-002"; 3], "two map sites + one set site: {hits:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn det003_flags_os_entropy_but_not_seeded_rngs() {
    let (hits, suppressed) = run("net", include_str!("../testdata/det003.rs"));
    assert_eq!(
        hits,
        [("SS-DET-003".to_owned(), 3), ("SS-DET-003".to_owned(), 4)],
        "one per entropy source"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn panic001_flags_daemon_panics_but_not_documented_or_test_code() {
    let (hits, suppressed) = run("core", include_str!("../testdata/panic001.rs"));
    assert_eq!(
        hits,
        [
            ("SS-PANIC-001".to_owned(), 4), // .unwrap()
            ("SS-PANIC-001".to_owned(), 5), // bare .expect("present")
            ("SS-PANIC-001".to_owned(), 6), // xs[0]
            ("SS-PANIC-001".to_owned(), 7), // m[&1]
        ],
        "good(): invariant-expect, [..] and #[cfg(test)] are exempt"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn panic001_does_not_apply_outside_daemon_crates() {
    let (hits, _) = run("lang", include_str!("../testdata/panic001.rs"));
    assert!(hits.is_empty(), "lang is not a daemon crate: {hits:?}");
}

#[test]
fn cast001_flags_narrowing_casts_in_codec_code_only() {
    let (hits, suppressed) = run("proto", include_str!("../testdata/cast001.rs"));
    assert_eq!(
        hits,
        [("SS-CAST-001".to_owned(), 4), ("SS-CAST-001".to_owned(), 5)],
        "widening/usize/f64 casts and test code are exempt"
    );
    assert_eq!(suppressed, 0);

    let (hits, _) = run("monitor", include_str!("../testdata/cast001.rs"));
    assert!(hits.is_empty(), "monitor is not a codec crate: {hits:?}");
}

#[test]
fn obs001_flags_non_kebab_and_computed_names_only() {
    let (hits, suppressed) = run("net", include_str!("../testdata/obs001.rs"));
    assert_eq!(
        hits,
        [
            ("SS-OBS-001".to_owned(), 4), // snake_case
            ("SS-OBS-001".to_owned(), 5), // dots + uppercase
            ("SS-OBS-001".to_owned(), 6), // computed name
            ("SS-OBS-001".to_owned(), 7), // trailing dash
            ("SS-OBS-001".to_owned(), 8), // formatted name
        ],
        "good() is all-clear: {hits:?}"
    );
    assert_eq!(suppressed, 0);

    let (hits, _) = run("telemetry", include_str!("../testdata/obs001.rs"));
    assert!(hits.is_empty(), "the telemetry crate itself is exempt: {hits:?}");
}

#[test]
fn obs002_flags_unregistered_span_names_only() {
    let (hits, suppressed) = run("net", include_str!("../testdata/obs002.rs"));
    assert_eq!(
        hits,
        [
            ("SS-OBS-001".to_owned(), 12), // Not_Kebab is OBS-001's, not a double
            ("SS-OBS-002".to_owned(), 5),  // made-up-span via span_child
            ("SS-OBS-002".to_owned(), 6),  // rogue-span via span_start
        ],
        "registered names, counters and test code are all-clear: {hits:?}"
    );
    assert_eq!(suppressed, 1, "the justified allow covers prototype-span");

    // In the exempt telemetry crate the span rules never fire — which makes
    // the allow itself stale, and staleness is SS-ALLOW-001's finding.
    let (hits, _) = run("telemetry", include_str!("../testdata/obs002.rs"));
    let ids: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(ids, ["SS-ALLOW-001"], "exempt crate → allow suppresses nothing: {hits:?}");
}

#[test]
fn obs003_flags_unregistered_event_and_counter_names_only() {
    let (hits, suppressed) = run("net", include_str!("../testdata/obs003.rs"));
    assert_eq!(
        hits,
        [
            ("SS-OBS-001".to_owned(), 16), // Not_Kebab is OBS-001's, not a double
            ("SS-OBS-003".to_owned(), 7),  // made-up-event via event
            ("SS-OBS-003".to_owned(), 8),  // made-up-counter via counter_add
            ("SS-OBS-003".to_owned(), 9),  // rogue-counter via counter_incr
        ],
        "registered names, gauges, labeled bases and test code are all-clear: {hits:?}"
    );
    assert_eq!(suppressed, 1, "the justified allow covers prototype-counter");

    // In the exempt telemetry crate the registry rules never fire — which
    // makes the allow itself stale, SS-ALLOW-001's finding.
    let (hits, _) = run("telemetry", include_str!("../testdata/obs003.rs"));
    let ids: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(ids, ["SS-ALLOW-001"], "exempt crate → allow suppresses nothing: {hits:?}");
}

#[test]
fn justified_allows_suppress_and_bare_allows_are_findings() {
    let (hits, suppressed) = run("core", include_str!("../testdata/suppress.rs"));
    assert_eq!(suppressed, 2, "own-line and same-line justified allows both count");
    assert_eq!(
        hits,
        [
            ("SS-ALLOW-001".to_owned(), 11), // the bare allow itself
            ("SS-PANIC-001".to_owned(), 12), // which therefore does NOT suppress
        ]
    );
}

#[test]
fn proto002_clean_fixture_equates_loops_and_skips_delegating_wrappers() {
    let (hits, suppressed) = run("proto", include_str!("../testdata/proto002_clean.rs"));
    assert!(hits.is_empty(), "{hits:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn proto002_flags_field_order_asymmetry_at_the_decode_fn() {
    let (hits, suppressed) = run("proto", include_str!("../testdata/proto002_bad.rs"));
    assert_eq!(hits, [("SS-PROTO-002".to_owned(), 10)], "{hits:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn proto003_clean_fixture_accepts_le_neutral_and_test_code() {
    let (hits, suppressed) = run("proto", include_str!("../testdata/proto003_clean.rs"));
    assert!(hits.is_empty(), "{hits:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn proto003_flags_big_and_native_endian_calls_in_codec_crates_only() {
    let (hits, suppressed) = run("proto", include_str!("../testdata/proto003_bad.rs"));
    assert_eq!(
        hits,
        [
            ("SS-PROTO-003".to_owned(), 4),  // bare put_u32 is big-endian
            ("SS-PROTO-003".to_owned(), 5),  // explicit put_u64_be
            ("SS-PROTO-003".to_owned(), 6),  // to_be_bytes
            ("SS-PROTO-003".to_owned(), 10), // from_ne_bytes
        ],
        "{hits:?}"
    );
    assert_eq!(suppressed, 0);

    let (hits, _) = run("monitor", include_str!("../testdata/proto003_bad.rs"));
    assert!(hits.is_empty(), "monitor is not a codec crate: {hits:?}");
}

#[test]
fn det004_clean_fixture_accepts_scheduler_time_and_test_sleeps() {
    let (hits, suppressed) = run("net", include_str!("../testdata/det004_clean.rs"));
    assert!(hits.is_empty(), "{hits:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn det004_flags_thread_sleep_in_sim_code() {
    let (hits, suppressed) = run("net", include_str!("../testdata/det004_bad.rs"));
    assert_eq!(hits, [("SS-DET-001".to_owned(), 4), ("SS-DET-001".to_owned(), 9)], "{hits:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn stale_justified_allow_is_flagged_and_audited() {
    let src = include_str!("../testdata/allow_stale.rs");
    let (hits, suppressed) = run("net", src);
    assert_eq!(hits, [("SS-ALLOW-001".to_owned(), 3)], "{hits:?}");
    assert_eq!(suppressed, 0);

    // The allows audit reports the same suppression as justified but UNUSED.
    let files = [FileInput { rel: "testdata/fixture.rs", krate: "net", is_test: false, src }];
    let a = analyze_files(&files, &registry());
    assert_eq!(a.allows.len(), 1);
    assert!(a.allows[0].justified && a.allows[0].suppressed == 0, "{:?}", a.allows);
    let (text, clean) = a.allows_report();
    assert!(text.contains("UNUSED") && !clean, "{text}");
}

#[test]
fn human_and_json_renderings_agree_on_the_finding_count() {
    let files = [
        FileInput {
            rel: "testdata/a.rs",
            krate: "net",
            is_test: false,
            src: include_str!("../testdata/det002.rs"),
        },
        FileInput {
            rel: "testdata/b.rs",
            krate: "proto",
            is_test: false,
            src: include_str!("../testdata/proto003_bad.rs"),
        },
    ];
    let a = analyze_files(&files, &registry());
    let total = a.report.total();
    assert!(total > 0);
    let json = a.report.to_json();
    assert!(json.contains(&format!("\"total\": {total}")), "{json}");
    assert_eq!(json.matches("\"rule\":").count(), total, "one JSON object per finding");
    let human = a.report.to_human();
    assert_eq!(human.lines().count(), total + 1, "one line per finding plus the summary");
    assert!(human.contains(&format!("analyze: {total} finding(s)")), "{human}");
}

#[test]
fn lexer_edge_fixture_keeps_literals_and_comments_opaque() {
    let (hits, suppressed) = run("net", include_str!("../testdata/lexer_edge.rs"));
    // Only the real HashMap at the bottom fires; every spelled-out trigger
    // inside raw strings, byte strings, chars and nested comments is inert.
    assert_eq!(hits, [("SS-DET-002".to_owned(), 21), ("SS-DET-002".to_owned(), 22)], "{hits:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn test_files_keep_determinism_rules_but_drop_panic_rules() {
    let src = include_str!("../testdata/panic001.rs");
    let (hits, _) = scan_source("testdata/fixture.rs", "core", true, src, &registry());
    assert!(hits.is_empty(), "is_test drops SS-PANIC-001: {hits:?}");

    let det = include_str!("../testdata/det002.rs");
    let (hits, _) = scan_source("testdata/fixture.rs", "core", true, det, &registry());
    assert_eq!(hits.len(), 3, "determinism rules still apply in tests: {hits:?}");
}
