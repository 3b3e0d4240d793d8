//! The `sim-catalog` workload: every experiment of
//! `smartsock_bench::catalog()` run serially — one pass is what
//! `repro all --jobs 1` computes — repeated for the run length.
//!
//! The experiments always run at the catalogue's pinned seed,
//! `DEFAULT_SEED`: it is the one seed every committed golden, shape bound
//! and `trace_sha` is for (the shape registry holds over a seed range as a
//! distribution, not at each seed — `table3.3` violates it at 3 of 10
//! arbitrary seeds), and the simulated work differs by up to 40 % between
//! seeds, which would read as noise. `--seed` instead decides the order in
//! which a pass runs the experiments.

use std::time::{Duration, Instant};

use smartsock_bench::{catalog, profile_run, run, shapes, DEFAULT_SEED};
use smartsock_profile::{parse_profiles, ExperimentProfile};
use smartsock_sim::rng::splitmix64;

use crate::spans::{Recorder, SpanId};

/// The committed deterministic-cost baseline, read at build time.
const BENCH_PROFILE: &str = include_str!("../../BENCH_profile.json");

/// Experiments whose trace fingerprint is pinned against the baseline.
const PINNED: [&str; 5] = ["fig3.3", "table5.2", "fleet.11", "fleet.100", "fleet.1k"];

/// `trace_sha` of the pinned experiments at the baseline's seed must
/// equal the committed `BENCH_profile.json`. Returns the mismatches.
pub fn check_trace_shas() -> Vec<String> {
    let baseline = match parse_profiles(BENCH_PROFILE) {
        Ok(b) => b,
        Err(e) => return vec![format!("BENCH_profile.json does not parse: {e}")],
    };
    let mut problems = Vec::new();
    for id in PINNED {
        let Some(want) = baseline.iter().find(|p| p.experiment_id == id && p.seed == DEFAULT_SEED)
        else {
            problems.push(format!("{id}: no baseline entry at seed {DEFAULT_SEED}"));
            continue;
        };
        let Some((_, profile)) = profile_run(id, DEFAULT_SEED) else {
            problems.push(format!("{id}: not in the catalogue"));
            continue;
        };
        let got = ExperimentProfile::from_run(&profile);
        if got.trace_sha != want.trace_sha {
            problems.push(format!(
                "{id}: trace_sha {} differs from the committed {}",
                got.trace_sha, want.trace_sha
            ));
        }
    }
    problems
}

/// The order a pass runs the catalogue in: a Fisher–Yates shuffle of the
/// catalogue indices, pure in `seed`.
pub fn order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..catalog().len()).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// One rendered pass, by catalogue index: what every later pass must
/// reproduce exactly.
pub struct Reference {
    rendered: Vec<String>,
}

#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Wall time spent inside `run(id, seed)` calls, summed.
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// Run every experiment once, in `order`. Only the `run` calls are timed;
/// rendering and checking happen between them. With `reference` absent
/// the pass becomes the reference (and is checked against the shape
/// registry only).
pub fn pass(
    order: &[usize],
    reference: &mut Option<Reference>,
    rec: &mut Recorder,
    parent: SpanId,
) -> PassOutcome {
    let mut out = PassOutcome::default();
    let ids = catalog();
    let mut rendered = vec![String::new(); ids.len()];
    for &index in order {
        let Some(&(id, _)) = ids.get(index) else { continue };
        let span = rec.open(id, parent, 0);
        let t0 = Instant::now();
        let report = run(id, DEFAULT_SEED);
        out.wall += t0.elapsed();
        rec.close(span);
        out.attempted += 1;
        let Some(report) = report else {
            fail(&mut out, format!("{id}: run returned None"));
            continue;
        };
        let text = format!("{report}{:?}", report.figures);
        if let Some(violations) = shapes::check(id, &report) {
            if !violations.is_empty() {
                fail(&mut out, format!("{id}: shape violations {violations:?}"));
            }
        }
        if let Some(first) = reference.as_ref().and_then(|r| r.rendered.get(index)) {
            if *first != text {
                fail(&mut out, format!("{id}: report differs from the first pass"));
            }
        }
        if let Some(slot) = rendered.get_mut(index) {
            *slot = text;
        }
    }
    if reference.is_none() {
        *reference = Some(Reference { rendered });
    }
    out
}

fn fail(out: &mut PassOutcome, why: String) {
    out.failed += 1;
    if out.first_failure.is_none() {
        out.first_failure = Some(why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_order_is_a_permutation_that_follows_the_seed() {
        let a = order(1);
        assert_eq!(a, order(1));
        assert_ne!(a, order(2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..catalog().len()).collect::<Vec<_>>());
    }
}
