//! # smartsock-profile
//!
//! The determinism pin of the reproduction: [`baseline`] fingerprints
//! each experiment's exported telemetry (a `smartsock_bench::profile_run`
//! capture) as a SHA-256, `trace_sha`, and reads and writes the committed
//! `BENCH_profile.json` that holds one `{experiment_id, seed, trace_sha}`
//! entry per pinned experiment. Same seed, same bytes, same sha; a
//! changed sha is a changed simulated behaviour.
//!
//! The `profile` binary has one subcommand, `bench`, which regenerates
//! the document.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod baseline;
pub mod sha;

pub use baseline::{parse_profiles, render_profiles, ExperimentProfile};
