//! The paper's claims, written once.
//!
//! Every claim an experiment makes about the thesis — a knee ratio above
//! the visibility threshold, bandwidth estimators tracking the configured
//! truth, the smart socket beating random selection, and so on — is one
//! row of `CLAIMS`: the experiment id(s), the thesis table or figure, a
//! term over the report's figures, the bound that term meets at
//! [`DEFAULT_SEED`](crate::DEFAULT_SEED), and what a seed sweep holds it
//! to. This module's tests check every row's `DEFAULT_SEED` bound on each
//! `cargo test`; [`check`] applies the sweep bounds, for `repro --seeds
//! A..B` and the nightly CI job.
//!
//! A sweep bound is wider only where a quantity legitimately spreads
//! across seeds (jitter-driven RTTs, sampled bandwidth estimates, shaped
//! goodput); counts and paper-match flags stay exact. A claim that holds
//! at the default seed but not at every seed — the WAN knee shadowed by
//! jitter — is not swept at all.
//!
//! A violation is a human-readable sentence, not a panic: the matrix
//! renderer aggregates them per (experiment, seed) cell. A missing figure
//! is itself a violation, recorded once, and reads as NaN so the rows that
//! use it fail too rather than pass silently.

use crate::report::Report;
use Bound::{Ge, Gt, Is, Le, Lt};
use Sweep::{Same, Unswept, Wide};
use Term::{Diff, Dist, ErrGap, Fig, Ratio, RelErr};

/// What a row measures, from one report's figures.
#[derive(Clone, Copy, Debug)]
enum Term {
    /// The figure itself.
    Fig(&'static str),
    /// `|a - paper|`: the distance from the thesis's value.
    Dist(&'static str, f64),
    /// `a / b`.
    Ratio(&'static str, &'static str),
    /// `a - b`: an ordering of two figures, or their equality.
    Diff(&'static str, &'static str),
    /// `|a - truth| / truth`.
    RelErr(&'static str, &'static str),
    /// `|a - truth| - |b - truth|`: how much less accurate `a` is than `b`.
    ErrGap(&'static str, &'static str, &'static str),
}

/// A comparison and the value it is made against.
#[derive(Clone, Copy, Debug)]
enum Bound {
    Is(f64),
    Lt(f64),
    Le(f64),
    Gt(f64),
    Ge(f64),
}

/// What the seed sweep holds a row to.
#[derive(Clone, Copy, Debug)]
enum Sweep {
    /// The `DEFAULT_SEED` bound: the quantity does not spread across seeds.
    Same,
    /// A wider bound.
    Wide(Bound),
    /// Nothing: the claim holds at `DEFAULT_SEED` only.
    Unswept,
}

/// One claim: experiment ids (space-separated), thesis anchor, term,
/// `DEFAULT_SEED` bound, sweep bound. "—" marks a claim beyond the thesis.
struct Claim(&'static str, &'static str, Term, Bound, Sweep);

impl Claim {
    fn covers(&self, id: &str) -> bool {
        self.0.split(' ').any(|i| i == id)
    }
}

const MIB: f64 = 1024.0 * 1024.0;

#[rustfmt::skip]
const CLAIMS: &[Claim] = &[
    Claim("fig3.3 fig3.4 fig3.5", "Figs 3.3–3.5", Fig("slope_below_ms_per_kb"), Gt(0.0), Same),
    Claim("fig3.3 fig3.4 fig3.5", "Figs 3.3–3.5", Fig("slope_ratio"), Gt(2.0), Same),
    Claim("table3.2", "Table 3.2", Dist("path0_rtt_ms", 126.0), Lt(40.0), Wide(Lt(45.0))),
    Claim("table3.2", "Table 3.2", Dist("path1_rtt_ms", 238.0), Lt(70.0), Wide(Lt(75.0))),
    Claim("table3.2", "Table 3.2", Fig("path5_rtt_ms"), Lt(0.2), Wide(Lt(0.3))),
    Claim("fig3.6", "Fig 3.6", Fig("path1_knee"), Is(0.0), Unswept),
    Claim("fig3.6", "Fig 3.6", Fig("path2_knee"), Is(1.0), Same),
    Claim("fig3.6", "Fig 3.6", Fig("path4_knee"), Is(1.0), Same),
    Claim("fig3.6", "Fig 3.6", Fig("path5_knee"), Is(0.0), Same),
    Claim("table3.3 fig3.7", "Table 3.3", Fig("group0_avg_mbps"), Lt(26.0), Same),
    Claim("table3.3 fig3.7", "Table 3.3", Fig("group1_avg_mbps"), Lt(26.0), Same),
    Claim("table3.3 fig3.7", "Table 3.3", Fig("group2_avg_mbps"), Lt(26.0), Same),
    Claim("table3.3 fig3.7", "Table 3.3", RelErr("group3_avg_mbps", "truth_mbps"), Lt(0.3), Wide(Lt(0.35))),
    Claim("table3.3 fig3.7", "Table 3.3", RelErr("group4_avg_mbps", "truth_mbps"), Lt(0.3), Wide(Lt(0.35))),
    Claim("table3.3 fig3.7", "Table 3.3", RelErr("group5_avg_mbps", "truth_mbps"), Lt(0.3), Wide(Lt(0.35))),
    Claim("table3.3 fig3.7", "Table 3.3", RelErr("group6_avg_mbps", "truth_mbps"), Lt(0.3), Wide(Lt(0.35))),
    Claim("table3.3 fig3.7", "Table 3.3", ErrGap("group6_avg_mbps", "group3_avg_mbps", "truth_mbps"), Le(2.0), Same),
    Claim("table3.3 fig3.7", "Table 3.3", ErrGap("group6_avg_mbps", "group4_avg_mbps", "truth_mbps"), Le(2.0), Same),
    Claim("table3.3 fig3.7", "Table 3.3", ErrGap("group6_avg_mbps", "group5_avg_mbps", "truth_mbps"), Le(2.0), Same),
    Claim("table3.3 fig3.7", "Table 3.3", Diff("group4_avg_mbps", "group6_avg_mbps"), Lt(0.0), Same),
    Claim("table3.4", "Table 3.4", Fig("m1to2_bw"), Gt(1.0), Same),
    Claim("table3.4", "Table 3.4", Fig("m1to3_bw"), Gt(1.0), Same),
    Claim("table3.4", "Table 3.4", Fig("m2to1_bw"), Gt(1.0), Same),
    Claim("table3.4", "Table 3.4", Fig("m2to3_bw"), Gt(1.0), Same),
    Claim("table3.4", "Table 3.4", Fig("m3to1_bw"), Gt(1.0), Same),
    Claim("table3.4", "Table 3.4", Fig("m3to2_bw"), Gt(1.0), Same),
    Claim("table3.4", "Table 3.4", Ratio("m1to3_bw", "m1to2_bw"), Lt(0.7), Same),
    Claim("table3.4", "Table 3.4", Ratio("m1to3_delay", "m1to2_delay"), Gt(2.0), Same),
    Claim("table4.1", "Table 4.1", Fig("before_free"), Gt(100.0 * MIB), Same),
    Claim("table4.1", "Table 4.1", Fig("after_free"), Lt(16.0 * MIB), Same),
    Claim("table4.1", "Table 4.1", Fig("after_used"), Gt(230.0 * MIB), Same),
    Claim("table4.1", "Table 4.1", Diff("after_cached", "before_cached"), Gt(0.0), Same),
    Claim("table5.2", "Table 5.2", Fig("live_servers"), Is(11.0), Same),
    Claim("table5.2", "Table 5.2", Fig("probe_kbps_each"), Gt(0.03), Same),
    Claim("table5.2", "Table 5.2", Fig("probe_kbps_each"), Lt(1.0), Same),
    // The system monitor carries the 11 probes' traffic within 20 %.
    Claim("table5.2", "Table 5.2", Ratio("sysmon_kbps", "probe_kbps_each"), Gt(11.0 / 1.2), Same),
    Claim("table5.2", "Table 5.2", Ratio("sysmon_kbps", "probe_kbps_each"), Lt(11.0 / 0.8), Same),
    Claim("table5.2", "Table 5.2", Fig("transmitter_kbps"), Gt(0.6), Same),
    Claim("table5.2", "Table 5.2", Fig("transmitter_kbps"), Lt(3.0), Same),
    Claim("table5.2", "Table 5.2", Fig("netmon_kbps"), Gt(0.5), Same),
    Claim("table5.2", "Table 5.2", Fig("netmon_kbps"), Lt(8.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_dalmatian", "time_sagit"), Lt(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_dalmatian", "time_dione"), Is(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_sagit", "time_mimas"), Lt(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_sagit", "time_telesto"), Lt(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_sagit", "time_helene"), Lt(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_sagit", "time_phoebe"), Lt(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_sagit", "time_calypso"), Lt(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_sagit", "time_titan-x"), Lt(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Diff("time_sagit", "time_pandora-x"), Lt(0.0), Same),
    Claim("fig5.2", "Fig 5.2", Fig("time_dalmatian"), Gt(100.0), Same),
    Claim("fig5.2", "Fig 5.2", Fig("time_dalmatian"), Lt(160.0), Same),
    Claim("table5.3", "Table 5.3", Fig("smart_count"), Is(2.0), Same),
    Claim("table5.3", "Table 5.3", Fig("improvement_pct"), Gt(20.0), Same),
    Claim("table5.3", "Table 5.3", Fig("improvement_pct"), Lt(55.0), Same),
    Claim("table5.3", "Table 5.3", Diff("smart_secs", "random_secs"), Lt(0.0), Same),
    Claim("table5.3", "Table 5.3", Dist("smart_secs", 63.0), Lt(20.0), Same),
    Claim("table5.3", "Table 5.3", Dist("random_secs", 100.0), Lt(25.0), Same),
    Claim("table5.4", "Table 5.4", Fig("smart_count"), Is(4.0), Same),
    Claim("table5.4", "Table 5.4", Fig("improvement_pct"), Gt(8.0), Same),
    Claim("table5.4", "Table 5.4", Fig("improvement_pct"), Lt(40.0), Same),
    Claim("table5.4", "Table 5.4", Diff("smart_secs", "random_secs"), Lt(0.0), Same),
    Claim("table5.5", "Table 5.5", Fig("smart_count"), Is(6.0), Same),
    Claim("table5.5", "Table 5.5", Fig("improvement_pct"), Gt(0.0), Same),
    // Below Table 5.3's lower bound at the default seed: the gain shrinks.
    Claim("table5.5", "Table 5.5", Fig("improvement_pct"), Lt(20.0), Wide(Lt(25.0))),
    Claim("table5.5", "Table 5.5", Diff("smart_secs", "random_secs"), Lt(0.0), Same),
    Claim("table5.6", "Table 5.6", Fig("smart_count"), Is(4.0), Same),
    Claim("table5.6", "Table 5.6", Fig("improvement_pct"), Gt(15.0), Same),
    Claim("table5.6", "Table 5.6", Fig("improvement_pct"), Lt(60.0), Same),
    Claim("table5.6", "Table 5.6", Diff("smart_secs", "random_secs"), Lt(0.0), Same),
    Claim("fig5.3", "Fig 5.3", Fig("worst_ratio"), Gt(0.88), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run0_measured_kbps", "run0_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run1_measured_kbps", "run1_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run2_measured_kbps", "run2_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run3_measured_kbps", "run3_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run4_measured_kbps", "run4_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run5_measured_kbps", "run5_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run6_measured_kbps", "run6_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run7_measured_kbps", "run7_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run8_measured_kbps", "run8_set_kbps"), Le(1.02), Same),
    Claim("fig5.3", "Fig 5.3", Ratio("run9_measured_kbps", "run9_set_kbps"), Le(1.02), Same),
    Claim("table5.7 table5.8 table5.9", "Tables 5.7–5.9", Fig("smart_all_fast"), Is(1.0), Same),
    Claim("table5.7 table5.8 table5.9", "Tables 5.7–5.9", Fig("random0_kbps"), Ge(0.0), Same),
    Claim("table5.7", "Table 5.7", Fig("smart_count"), Is(1.0), Same),
    Claim("table5.7", "Table 5.7", Dist("smart_kbps", 860.0), Lt(160.0), Wide(Lt(170.0))),
    Claim("table5.7", "Table 5.7", Diff("random0_kbps", "smart_kbps"), Lt(0.0), Same),
    Claim("table5.7", "Table 5.7", Fig("random0_kbps"), Lt(220.0), Same),
    Claim("table5.7", "Table 5.7", Ratio("smart_kbps", "random0_kbps"), Gt(3.0), Same),
    Claim("table5.8", "Table 5.8", Fig("smart_count"), Is(2.0), Same),
    Claim("table5.8", "Table 5.8", Dist("smart_kbps", 994.0), Lt(200.0), Wide(Lt(210.0))),
    Claim("table5.8", "Table 5.8", Diff("random0_kbps", "random1_kbps"), Lt(0.0), Same),
    Claim("table5.8", "Table 5.8", Diff("random1_kbps", "smart_kbps"), Lt(0.0), Same),
    Claim("table5.9", "Table 5.9", Fig("smart_count"), Is(3.0), Same),
    Claim("table5.9", "Table 5.9", Dist("smart_kbps", 796.0), Lt(170.0), Wide(Lt(180.0))),
    Claim("table5.9", "Table 5.9", Diff("random0_kbps", "random1_kbps"), Lt(0.0), Same),
    Claim("table5.9", "Table 5.9", Diff("random1_kbps", "random2_kbps"), Lt(0.0), Same),
    Claim("table5.9", "Table 5.9", Diff("random2_kbps", "smart_kbps"), Lt(0.0), Same),
    Claim("fig1.4", "Fig 1.4", Fig("selected_count"), Is(3.0), Same),
    Claim("fig1.4", "Fig 1.4", Fig("matches_paper"), Is(1.0), Same),
    Claim("ablation.fetch", "Tables 5.7–5.9", Ratio("par_2_2", "seq_2_2"), Gt(1.6), Same),
    Claim("ablation.staleness", "—", Fig("avoided_i1_d3"), Is(1.0), Same),
    Claim("ablation.staleness", "—", Fig("avoided_i10_d1"), Is(0.0), Same),
    Claim("ablation.staleness", "—", Fig("avoided_i1_d12"), Is(1.0), Same),
    Claim("ablation.staleness", "—", Fig("avoided_i2_d12"), Is(1.0), Same),
    Claim("ablation.probesize", "Table 3.3", Fig("case0_err_pct"), Gt(40.0), Same),
    Claim("ablation.probesize", "Table 3.3", Fig("case2_err_pct"), Lt(20.0), Same),
    Claim("ablation.estimators", "§2.1", RelErr("oneway_30_0", "truth_30_0"), Lt(0.3), Wide(Lt(0.35))),
    Claim("ablation.estimators", "§2.1", RelErr("pipechar_30_0", "truth_30_0"), Lt(0.3), Wide(Lt(0.35))),
    Claim("ablation.estimators", "§2.1", RelErr("slops_30_0", "truth_30_0"), Lt(0.3), Wide(Lt(0.35))),
    Claim("ablation.estimators", "§2.1", RelErr("iperf_30_0", "truth_30_0"), Lt(0.3), Wide(Lt(0.35))),
    Claim("ablation.estimators", "§2.1", RelErr("oneway_100_30", "truth_100_30"), Lt(0.35), Wide(Lt(0.4))),
    Claim("ablation.estimators", "§2.1", RelErr("slops_100_30", "truth_100_30"), Lt(0.35), Wide(Lt(0.4))),
    Claim("ablation.scaling", "Table 5.5", Diff("time_2", "time_1"), Lt(0.0), Same),
    Claim("ablation.scaling", "Table 5.5", Diff("time_8", "time_4"), Lt(0.0), Same),
    Claim("ablation.scaling", "Table 5.5", Fig("efficiency_1"), Ge(0.99), Same),
    Claim("ablation.scaling", "Table 5.5", Diff("efficiency_8", "efficiency_2"), Lt(0.0), Same),
    Claim("ablation.schedule", "§6", Ratio("dynamic_homogeneous", "static_homogeneous"), Lt(1.25), Same),
    Claim("ablation.schedule", "§6", Ratio("dynamic_heterogeneous", "static_heterogeneous"), Lt(0.95), Same),
    Claim("hostile.straggler", "—", Ratio("p99_unhedged_ms", "p99_hedged_ms"), Ge(1.5), Same),
    Claim("hostile.straggler", "—", Fig("p99_hedged_ms"), Lt(1500.0), Same),
    Claim("hostile.straggler", "—", Fig("hedges_fired_hedged"), Is(5.0), Same),
    Claim("hostile.straggler", "—", Fig("hedges_won_hedged"), Ge(1.0), Same),
    Claim("hostile.straggler", "—", Fig("hedges_fired_unhedged"), Is(0.0), Same),
    Claim("hostile.straggler", "—", Fig("p50_hedged_ms"), Lt(100.0), Same),
    Claim("hostile.straggler", "—", Fig("p50_unhedged_ms"), Lt(100.0), Same),
    Claim("hostile.flashcrowd", "—", Fig("resolved"), Is(40.0), Same),
    // No request resolves later than its deadline plus one RTT of slack.
    Claim("hostile.flashcrowd", "—", Diff("max_latency_ms", "deadline_ms"), Le(50.0), Same),
    Claim("hostile.flashcrowd", "—", Fig("deadline_failures"), Ge(10.0), Same),
    Claim("hostile.flashcrowd", "—", Fig("served"), Ge(10.0), Same),
    Claim("hostile.flashcrowd", "—", Fig("post_heal_ok"), Is(1.0), Same),
    Claim("hostile.flapping", "—", Fig("quarantined_assignments"), Is(0.0), Same),
    Claim("hostile.flapping", "—", Fig("quarantines"), Ge(2.0), Same),
    Claim("hostile.flapping", "—", Fig("clean_quarantines"), Is(0.0), Same),
    Claim("hostile.flapping", "—", Fig("ok_clean"), Is(24.0), Same),
    Claim("hostile.flapping", "—", Fig("goodput_ratio"), Ge(0.6), Same),
    Claim("hostile.flapping", "—", Fig("mimas_selectable_end"), Is(1.0), Same),
    Claim("hostile.flapping", "—", Fig("telesto_selectable_end"), Is(1.0), Same),
    Claim("hostile.staleness", "—", Fig("discount_stale_picks"), Is(0.0), Same),
    Claim("hostile.staleness", "—", Fig("legacy_stale_picks"), Is(3.0), Same),
    Claim("fleet.11", "Table 5.1", Fig("hosts"), Is(11.0), Same),
    Claim("fleet.11", "Table 5.1", Fig("subnets"), Is(6.0), Same),
    Claim("fleet.100", "—", Fig("hosts"), Is(100.0), Same),
    Claim("fleet.1k", "—", Fig("hosts"), Is(1_000.0), Same),
    Claim("fleet.10k", "—", Fig("hosts"), Is(10_000.0), Same),
    // Every report stays inside the staleness window: one live row per host.
    Claim("fleet.11 fleet.100 fleet.1k fleet.10k", "—", Diff("live_servers", "hosts"), Is(0.0), Same),
    Claim("fleet.11 fleet.100 fleet.1k fleet.10k", "—", Fig("stale_evictions"), Is(0.0), Same),
    Claim("fleet.11 fleet.100 fleet.1k fleet.10k", "—", Fig("replies"), Is(3.0), Same),
    // The pruned shard walk answered byte-identically to the flat scan.
    Claim("fleet.11 fleet.100 fleet.1k fleet.10k", "—", Fig("prune_mismatch"), Is(0.0), Same),
    Claim("fleet.11 fleet.100 fleet.1k fleet.10k", "—", Diff("shards_pruned", "shards_total"), Lt(0.0), Same),
    Claim("fleet.11 fleet.100 fleet.1k fleet.10k", "—", Diff("rows_evaluated", "hosts"), Le(0.0), Same),
    // Generated fleets' busy subnets provably fail `host_cpu_free > 0.9`.
    Claim("fleet.100 fleet.1k fleet.10k", "—", Fig("reply_servers"), Is(8.0), Same),
    Claim("fleet.100 fleet.1k fleet.10k", "—", Fig("shards_pruned"), Ge(1.0), Same),
    Claim("fleet.100 fleet.1k fleet.10k", "—", Diff("rows_evaluated", "live_servers"), Lt(0.0), Same),
];

impl Term {
    fn value(self, fig: &mut impl FnMut(&'static str) -> f64) -> f64 {
        match self {
            Fig(a) => fig(a),
            Dist(a, paper) => (fig(a) - paper).abs(),
            Ratio(a, b) => fig(a) / fig(b),
            Diff(a, b) => fig(a) - fig(b),
            RelErr(a, truth) => {
                let truth = fig(truth);
                (fig(a) - truth).abs() / truth
            }
            ErrGap(a, b, truth) => {
                let truth = fig(truth);
                (fig(a) - truth).abs() - (fig(b) - truth).abs()
            }
        }
    }
}

impl Bound {
    /// False for NaN, so a missing figure fails every row that reads it.
    fn holds(self, v: f64) -> bool {
        match self {
            Is(b) => v == b,
            Lt(b) => v < b,
            Le(b) => v <= b,
            Gt(b) => v > b,
            Ge(b) => v >= b,
        }
    }
}

/// Check `report` against the rows of experiment `id`, each at the bound
/// `bound` picks for it (`None` skips the row). `None` when `id` has no
/// rows.
fn violations(
    id: &str,
    report: &Report,
    bound: impl Fn(&Claim) -> Option<Bound>,
) -> Option<Vec<String>> {
    let mut rows = CLAIMS.iter().filter(|c| c.covers(id)).peekable();
    rows.peek()?;
    let mut out = Vec::new();
    for claim in rows {
        let Some(bound) = bound(claim) else { continue };
        let mut fig = |key: &'static str| {
            report.figures.get(key).copied().unwrap_or_else(|| {
                let missing = format!("missing figure {key:?}");
                if !out.contains(&missing) {
                    out.push(missing);
                }
                f64::NAN
            })
        };
        let v = claim.2.value(&mut fig);
        if !bound.holds(v) {
            out.push(format!("{:?} = {v:.3}, expected {bound:?} ({})", claim.2, claim.1));
        }
    }
    Some(out)
}

/// Check experiment `id`'s report against its rows' seed-sweep bounds.
/// `None` when the experiment has no rows (it still contributes figure
/// distributions to the matrix, just no gate).
pub fn check(id: &str, report: &Report) -> Option<Vec<String>> {
    violations(id, report, |c| match c.4 {
        Same => Some(c.3),
        Wide(bound) => Some(bound),
        Unswept => None,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::{catalog, DEFAULT_SEED};

    /// Each catalog experiment's report at `DEFAULT_SEED`, run once for
    /// all the tests here.
    fn default_reports() -> &'static [(&'static str, Report)] {
        static REPORTS: OnceLock<Vec<(&'static str, Report)>> = OnceLock::new();
        REPORTS.get_or_init(|| catalog().into_iter().map(|(id, f)| (id, f(DEFAULT_SEED))).collect())
    }

    /// The experiment modules' tests: `ids`' rows at their sweep bounds at
    /// the seed after `DEFAULT_SEED`, so `cargo test` sweeps two seeds.
    pub(crate) fn hold_at_the_next_seed(ids: &[&str]) {
        let seed = DEFAULT_SEED + 1;
        for &id in ids {
            let report = crate::run(id, seed).expect("a catalog id");
            let violations = check(id, &report).expect("an id with rows");
            assert!(violations.is_empty(), "{id} @ {seed}: {violations:?}");
        }
    }

    fn keys(term: Term) -> Vec<&'static str> {
        match term {
            Fig(a) | Dist(a, _) => vec![a],
            Ratio(a, b) | Diff(a, b) | RelErr(a, b) => vec![a, b],
            ErrGap(a, b, t) => vec![a, b, t],
        }
    }

    #[test]
    fn every_catalog_experiment_passes_its_shapes_at_the_default_seed() {
        let mut failed = Vec::new();
        for (id, report) in default_reports() {
            let violations = violations(id, report, |c| Some(c.3)).unwrap_or_default();
            failed.extend(violations.into_iter().map(|v| format!("{id} @ {DEFAULT_SEED}: {v}")));
        }
        assert!(failed.is_empty(), "{failed:#?}");
    }

    #[test]
    fn the_table_has_no_orphan_rows() {
        let reports = default_reports();
        for (id, _) in reports {
            assert!(CLAIMS.iter().any(|c| c.covers(id)), "{id} has no row");
        }
        for claim in CLAIMS {
            for id in claim.0.split(' ') {
                let (_, report) = reports
                    .iter()
                    .find(|(i, _)| *i == id)
                    .unwrap_or_else(|| panic!("row id {id:?} is not in catalog()"));
                for key in keys(claim.2) {
                    assert!(report.figures.contains_key(key), "{id} emits no figure {key:?}");
                }
            }
            if let Wide(wide) = claim.4 {
                let wider = match (claim.3, wide) {
                    (Lt(t), Lt(w)) | (Le(t), Le(w)) => w >= t,
                    (Gt(t), Gt(w)) | (Ge(t), Ge(w)) => w <= t,
                    _ => false,
                };
                assert!(wider, "{:?}: sweep {wide:?} is narrower than {:?}", claim.2, claim.3);
            }
        }
    }

    #[test]
    fn missing_figures_surface_as_violations_not_panics() {
        let empty = Report::new("fig3.3", "empty");
        let violations = check("fig3.3", &empty).expect("fig3.3 has registered shapes");
        assert!(violations.iter().any(|v| v.contains("missing figure")));
        assert!(
            violations.iter().any(|v| v.contains("Fig(\"slope_ratio\") = NaN")),
            "NaN comparisons read as violations: {violations:?}"
        );
    }

    #[test]
    fn unknown_experiments_have_no_registered_shapes() {
        assert!(check("table9.9", &Report::new("table9.9", "x")).is_none());
    }
}
