//! `smartsock-analyze` — workspace-local static analysis.
//!
//! PR 1's seeded chaos mode promises byte-identical replays per seed. That
//! promise rests on invariants no compiler checks: no wall-clock reads, no
//! iteration over hash-ordered containers on the event path, no OS entropy,
//! no panics in daemon code, no silently-truncating casts in the wire codecs.
//! This crate is the mechanical check for those invariants: a small hand
//! rolled Rust lexer (no external dependencies) feeding a **two-phase
//! analysis**. Phase 1 extracts a workspace model from the lexed sources
//! (codec op sequences and endianness call sites — see [`model`]). Phase 2
//! runs per-file token rules plus cross-file rules over that model. Run as
//! `cargo run -p smartsock-analyze -- check` and wired into CI; `model`
//! dumps the extracted model, `allows` audits every suppression.
//!
//! Rules (stable IDs; see `rules::RULES`):
//!
//! | ID | enforced where | invariant |
//! |----|----------------|-----------|
//! | SS-DET-001 | everywhere (`thread::sleep`: non-test) | no `std::time::{Instant,SystemTime}`, no `std::thread::sleep` |
//! | SS-DET-002 | everywhere | no `HashMap`/`HashSet` |
//! | SS-DET-003 | everywhere | no `thread_rng`/OS entropy |
//! | SS-PANIC-001 | probe, monitor, wizard, wire, core (non-test) | no `unwrap()`, undocumented `expect()`, or indexing panics |
//! | SS-CAST-001 | proto, wire (non-test) | no narrowing `as` casts |
//! | SS-PROTO-002 | proto, wire (non-test) | `encode*`/`decode*` pairs read and write the same collapsed field-width sequence |
//! | SS-PROTO-003 | proto, wire (non-test) | no big- or native-endian byte calls; the wire layout is pinned little-endian |
//! | SS-OBS-001 | everywhere except telemetry | telemetry names are kebab-case `&'static str` literals |
//! | SS-OBS-002 | everywhere except telemetry (non-test) | `span_start`/`span_child` names appear in `SPAN_NAMES` (crates/telemetry/src/names.rs) |
//! | SS-OBS-003 | everywhere except telemetry (non-test) | `event` names appear in `EVENT_NAMES`, `counter_add`/`counter_incr`/`counter_add_labeled` names in `COUNTER_NAMES` (crates/telemetry/src/names.rs) |
//! | SS-ALLOW-001 | everywhere | every suppression carries a justification and still suppresses something |
//!
//! Suppress a finding with `// analyze: allow(RULE-ID): justification`,
//! either at the end of the offending line or alone on the line above it.
//! An `allow` without a justification is itself a finding, and so is one
//! whose rule no longer fires (stale suppressions rot the audit trail).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod engine;
pub mod lexer;
pub mod model;
pub mod rules;

pub use engine::{
    analyze_files, run_analysis, run_check, scan_source, span_registry_from_source, AllowRecord,
    Analysis, FileInput, NameRegistry, Report,
};
pub use model::WorkspaceModel;
pub use rules::{Finding, RuleInfo, RULES};
