//! # smartsock-profile
//!
//! Deterministic profiling over the smartsock testbed, in two layers:
//!
//! - [`fold`] turns exported telemetry span trees (simulated time) into
//!   per-name self-time/total-time/call-count profiles, folded-stack
//!   ("flamegraph collapsed") text, and a hot-path top-N report. Same
//!   seed, same bytes.
//! - [`baseline`] wraps `smartsock_bench::profile_run` captures into the
//!   canonical `BENCH_profile.json` schema — a pure function of the seed,
//!   no wall clock in it — and diffs two such files against a threshold,
//!   classifying each experiment as improved/regressed/neutral on its
//!   event count and span self-times.
//!
//! The `profile` binary exposes both: `report` / `flame` over a trace
//! JSONL file, `bench` to regenerate `BENCH_profile.json`, and `diff` to
//! gate a new profile against the committed baseline.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod baseline;
pub mod fold;
pub mod sha;

pub use baseline::{
    diff, parse_profiles, render_diff, render_profiles, DiffReport, ExperimentDiff,
    ExperimentProfile, Thresholds, Verdict,
};
pub use fold::{fold, fold_traces, render_flame, render_report, Folded, SpanStat};
