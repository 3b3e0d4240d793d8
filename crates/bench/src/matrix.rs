//! Seed-sweep robustness matrix: every experiment × every seed in a
//! range, shape-checked and summarized as distributions.
//!
//! A single seed can get lucky: a knee ratio that clears 2.0 by luck of
//! the jitter draw proves little. The matrix re-runs each experiment's
//! registered shape assertions ([`crate::shapes`]) across a seed range and
//! reports min/median/max for every key figure, so the paper-shape claims
//! are validated as distributions. Cells run on the parallel executor;
//! the rendered report is a pure function of the (experiment, seed) grid,
//! so its bytes are identical whatever `--jobs` was.

use std::fmt::Write as _;

use crate::executor::{cells_for, run_cells};
use crate::report::colf;
use crate::{shapes, Experiment};

/// One matrix run: the rendered report plus the violation count that
/// decides the process exit code (nightly CI fails on any violation).
#[derive(Clone, Debug)]
pub struct MatrixOutcome {
    pub text: String,
    /// Total shape violations plus panicked cells.
    pub violations: usize,
}

/// Median of an unsorted sample (even-length samples average the two
/// middles). Deterministic: same values in, same f64 out.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Run the (experiments × seeds) grid on `jobs` workers and render the
/// distribution report.
pub fn run_matrix(ids: &[(&'static str, Experiment)], seeds: &[u64], jobs: usize) -> MatrixOutcome {
    let results = run_cells(cells_for(ids, seeds), jobs);
    render_matrix(ids, seeds, &results)
}

/// Render the distribution report from already-run cells (experiment-major,
/// seed-minor order, as produced by [`cells_for`]).
pub fn render_matrix(
    ids: &[(&'static str, Experiment)],
    seeds: &[u64],
    results: &[crate::CellResult],
) -> MatrixOutcome {
    let mut text = String::new();
    let (lo, hi) = (seeds.iter().min().copied(), seeds.iter().max().copied());
    let _ = writeln!(
        text,
        "== seed matrix — {} experiment(s) × {} seed(s) ({}..{}) ==",
        ids.len(),
        seeds.len(),
        lo.unwrap_or(0),
        hi.unwrap_or(0),
    );
    let mut violation_lines: Vec<String> = Vec::new();

    // Results arrive experiment-major, seed-minor: chunk per experiment.
    for group in results.chunks(seeds.len().max(1)) {
        let id = group[0].id;
        let ok: Vec<_> = group.iter().filter_map(|r| r.outcome.as_ref().ok()).collect();
        let mut checked = 0usize;
        let mut passed = 0usize;
        for r in group {
            match &r.outcome {
                Ok((report, _)) => {
                    if let Some(violations) = shapes::check(id, report) {
                        checked += 1;
                        if violations.is_empty() {
                            passed += 1;
                        } else {
                            for v in violations {
                                violation_lines.push(format!("{id} @ {}: {v}", r.seed));
                            }
                        }
                    }
                }
                Err(panic) => {
                    violation_lines.push(format!("{id} @ {}: PANIC: {panic}", r.seed));
                }
            }
        }
        let status = if checked == 0 {
            "no shape checks".to_owned()
        } else {
            format!("{passed}/{checked} seeds pass shapes")
        };
        let _ = writeln!(text, "{id} ({status})");

        // Every seed of an experiment emits the same figure keys; take
        // them from the first successful cell and aggregate across seeds.
        if let Some((first, _)) = ok.first() {
            for key in first.figures.keys() {
                let mut values: Vec<f64> =
                    ok.iter().filter_map(|(report, _)| report.figures.get(key)).copied().collect();
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let med = median(&mut values);
                let _ = writeln!(
                    text,
                    "  {key:<28} min {} median {} max {}",
                    colf(min, 4, 14),
                    colf(med, 4, 14),
                    colf(max, 4, 14),
                );
            }
        }
    }

    if violation_lines.is_empty() {
        let _ = writeln!(text, "shape violations: none");
    } else {
        let _ = writeln!(text, "shape violations ({}):", violation_lines.len());
        for line in &violation_lines {
            let _ = writeln!(text, "  {line}");
        }
    }
    MatrixOutcome { text, violations: violation_lines.len() }
}

/// Parse a `--seeds A..B` inclusive range (`A <= B`, at most 10_000 seeds
/// so a typo cannot melt CI).
pub fn parse_seed_range(s: &str) -> Result<Vec<u64>, String> {
    let (a, b) = s.split_once("..").ok_or_else(|| format!("not a seed range (A..B): {s:?}"))?;
    let a: u64 = a.trim().parse().map_err(|_| format!("bad range start: {a:?}"))?;
    let b: u64 = b.trim().parse().map_err(|_| format!("bad range end: {b:?}"))?;
    if a > b {
        return Err(format!("empty seed range: {a} > {b}"));
    }
    // Compared before the + 1, which overflows on 0..u64::MAX.
    if b - a >= 10_000 {
        return Err(format!("{} seeds is past the 10000-seed sanity cap", u128::from(b - a) + 1));
    }
    Ok((a..=b).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    fn seeded(seed: u64) -> Report {
        let mut r = Report::new("echo", "echo");
        r.figure("value", seed as f64);
        r
    }

    #[test]
    fn seed_ranges_parse_inclusive_and_reject_junk() {
        assert_eq!(parse_seed_range("3..5").unwrap(), vec![3, 4, 5]);
        assert_eq!(parse_seed_range("7..7").unwrap(), vec![7]);
        assert!(parse_seed_range("5..3").is_err());
        assert!(parse_seed_range("abc").is_err());
        assert!(parse_seed_range("1..999999999").is_err());
        assert!(parse_seed_range("0..18446744073709551615").is_err());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn matrix_report_aggregates_across_seeds_and_is_jobs_invariant() {
        let ids: [(&'static str, Experiment); 1] = [("echo", seeded)];
        let a = run_matrix(&ids, &[1, 2, 3, 4], 1);
        let b = run_matrix(&ids, &[1, 2, 3, 4], 8);
        assert_eq!(a.text, b.text, "matrix bytes must not depend on --jobs");
        assert_eq!(a.violations, 0);
        assert!(a.text.contains("min"), "{}", a.text);
        assert!(a.text.contains("echo (no shape checks)"), "{}", a.text);
        assert!(a.text.contains("shape violations: none"));
    }

    #[test]
    fn real_experiment_shapes_hold_across_a_small_sweep() {
        use crate::experiments::worked_example;
        let ids: [(&'static str, Experiment); 1] = [("fig1.4", worked_example::fig1_4)];
        let out = run_matrix(&ids, &[crate::DEFAULT_SEED, crate::DEFAULT_SEED + 1], 2);
        assert_eq!(out.violations, 0, "{}", out.text);
        assert!(out.text.contains("2/2 seeds pass shapes"), "{}", out.text);
    }
}
