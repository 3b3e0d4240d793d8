//! The committed `BENCH_profile.json` is what this tree computes: each
//! entry's experiment, rerun at the entry's seed, renders to the same
//! document byte for byte. A change that moves a simulated trace byte of
//! a pinned experiment fails here until the document is regenerated
//! (DESIGN.md §9).

use smartsock_bench::profile_run;
use smartsock_profile::{parse_profiles, render_profiles, ExperimentProfile};

const COMMITTED: &str = include_str!("../../../BENCH_profile.json");

#[test]
fn the_committed_profile_is_what_this_tree_computes() {
    let pinned = parse_profiles(COMMITTED).expect("BENCH_profile.json parses");
    assert!(!pinned.is_empty(), "BENCH_profile.json pins no experiment");
    let computed: Vec<ExperimentProfile> = pinned
        .iter()
        .map(|p| {
            let (_, run) = profile_run(&p.experiment_id, p.seed)
                .unwrap_or_else(|| panic!("{} is not in the catalog", p.experiment_id));
            ExperimentProfile::from_run(&run)
        })
        .collect();
    assert_eq!(render_profiles(&computed), COMMITTED, "regenerate BENCH_profile.json");
}
