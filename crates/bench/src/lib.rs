//! # smartsock-bench
//!
//! The reproduction harness: one module per table/figure of the thesis's
//! measurement (§3.3) and evaluation (§5) chapters, each regenerating the
//! corresponding rows/series on the simulated testbed.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p smartsock-bench --bin repro -- all
//! cargo run --release -p smartsock-bench --bin repro -- table5.3
//! cargo run --release -p smartsock-bench --bin repro -- --list
//! ```
//!
//! Every experiment is a pure function of a `u64` seed; the printed
//! "paper" columns quote the thesis so the shapes can be compared line by
//! line (EXPERIMENTS.md records one full run).
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod executor;
pub mod experiments;
pub mod matrix;
pub mod profiled;
pub mod report;
pub mod shapes;

pub use executor::{run_cells, Cell, CellResult};
pub use profiled::{profile_call, profile_run, RunProfile};
pub use report::Report;

/// Default experiment seed (any value works; EXPERIMENTS.md uses this one).
pub const DEFAULT_SEED: u64 = 20050614; // ICPP 2005 conference date

/// An experiment entry point: seed in, rendered report out.
pub type Experiment = fn(u64) -> Report;

/// All experiment ids, in paper order.
pub fn catalog() -> Vec<(&'static str, Experiment)> {
    use experiments::*;
    vec![
        ("fig3.3", rtt_sweep::fig3_3 as Experiment),
        ("fig3.4", rtt_sweep::fig3_4),
        ("fig3.5", rtt_sweep::fig3_5),
        ("table3.2", rtt_sweep::table3_2),
        ("fig3.6", rtt_sweep::fig3_6),
        ("table3.3", bandwidth::table3_3),
        ("fig3.7", bandwidth::fig3_7),
        ("table3.4", netmon_matrix::table3_4),
        ("table4.1", superpi_mem::table4_1),
        ("table5.2", resources::table5_2),
        ("fig5.2", matmul_bench::fig5_2),
        ("table5.3", matmul_exp::table5_3),
        ("table5.4", matmul_exp::table5_4),
        ("table5.5", matmul_exp::table5_5),
        ("table5.6", matmul_exp::table5_6),
        ("fig5.3", massd_calib::fig5_3),
        ("table5.7", massd_exp::table5_7),
        ("table5.8", massd_exp::table5_8),
        ("table5.9", massd_exp::table5_9),
        ("fig1.4", worked_example::fig1_4),
        ("ablation.fetch", ablations::fetch_mode),
        ("ablation.staleness", ablations::staleness),
        ("ablation.probesize", ablations::probe_size_rules),
        ("ablation.estimators", ablations::estimators),
        ("ablation.scaling", ablations::scaling),
        ("ablation.schedule", ablations::schedule),
        ("hostile.straggler", hostile::straggler),
        ("hostile.flashcrowd", hostile::flashcrowd),
        ("hostile.flapping", hostile::flapping),
        ("hostile.staleness", hostile::staleness),
        ("fleet.11", fleet::fleet_11),
        ("fleet.100", fleet::fleet_100),
        ("fleet.1k", fleet::fleet_1k),
        ("fleet.10k", fleet::fleet_10k),
    ]
}

/// Resolve a command line's experiment selection against the catalog:
/// `all` is the whole catalog; `family.*` is every `family.` id, in
/// catalog order; anything else is one exact id. Each experiment appears
/// once, where it was first named.
pub fn select(wanted: &[&str]) -> Result<Vec<(&'static str, Experiment)>, String> {
    let catalog = catalog();
    if wanted.contains(&"all") {
        return Ok(catalog);
    }
    let mut selected: Vec<(&'static str, Experiment)> = Vec::new();
    for want in wanted {
        let matched: Vec<_> = match want.strip_suffix(".*") {
            Some(prefix) => {
                let dotted = format!("{prefix}.");
                let family: Vec<_> =
                    catalog.iter().filter(|(id, _)| id.starts_with(&dotted)).copied().collect();
                if family.is_empty() {
                    return Err(format!("no experiments match {want:?}"));
                }
                family
            }
            None => vec![catalog
                .iter()
                .find(|(id, _)| id == want)
                .copied()
                .ok_or_else(|| format!("unknown experiment {want:?}"))?],
        };
        for (id, f) in matched {
            if !selected.iter().any(|(seen, _)| *seen == id) {
                selected.push((id, f));
            }
        }
    }
    Ok(selected)
}

/// Run one experiment by id.
pub fn run(id: &str, seed: u64) -> Option<Report> {
    catalog().into_iter().find(|(eid, _)| *eid == id).map(|(_, f)| f(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique() {
        let mut ids: Vec<&str> = catalog().into_iter().map(|(id, _)| id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    fn selected(wanted: &[&str]) -> Result<Vec<&'static str>, String> {
        select(wanted).map(|s| s.into_iter().map(|(id, _)| id).collect())
    }

    #[test]
    fn select_collapses_duplicate_ids_to_their_first_occurrence() {
        assert_eq!(selected(&["fig3.3", "table5.2", "fig3.3"]), Ok(vec!["fig3.3", "table5.2"]));
        assert_eq!(
            selected(&["fleet.100", "fleet.*"]),
            Ok(vec!["fleet.100", "fleet.11", "fleet.1k", "fleet.10k"])
        );
        assert_eq!(selected(&["fig1.4", "all", "fig1.4"]).map(|s| s.len()), Ok(catalog().len()));
    }

    #[test]
    fn select_expands_a_family_in_catalog_order() {
        assert_eq!(
            selected(&["fleet.*"]),
            Ok(vec!["fleet.11", "fleet.100", "fleet.1k", "fleet.10k"])
        );
    }

    #[test]
    fn select_rejects_unknown_ids_and_empty_families() {
        assert_eq!(
            selected(&["fig3.3", "table9.9"]),
            Err("unknown experiment \"table9.9\"".into())
        );
        assert_eq!(selected(&["nope.*"]), Err("no experiments match \"nope.*\"".into()));
    }

    #[test]
    fn unknown_ids_return_none() {
        assert!(run("table9.9", 1).is_none());
    }
}
