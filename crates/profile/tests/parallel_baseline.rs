//! Property: the `BENCH_profile.json` baseline document is a pure
//! function of the (experiment, seed) grid — capturing the shards on 8
//! workers must yield the same bytes as capturing them serially, exactly
//! what `profile bench --jobs N` writes.

use smartsock_bench::executor::cells_for;
use smartsock_bench::{catalog, run_cells, CellResult, DEFAULT_SEED};
use smartsock_profile::baseline;

fn baseline_doc(results: &[CellResult]) -> String {
    let profiles: Vec<baseline::ExperimentProfile> = results
        .iter()
        .map(|r| {
            let (_, run) = r.outcome.as_ref().expect("catalog experiments must not panic");
            baseline::ExperimentProfile::from_run(run)
        })
        .collect();
    baseline::render_profiles(&profiles)
}

#[test]
fn baseline_document_is_byte_identical_across_jobs_1_and_8() {
    // Two pinned experiments plus one multi-scheduler experiment.
    let ids: Vec<_> = catalog()
        .into_iter()
        .filter(|(id, _)| matches!(*id, "fig3.3" | "table5.2" | "table5.3"))
        .collect();
    let seeds = [DEFAULT_SEED, DEFAULT_SEED + 1];
    let d1 = baseline_doc(&run_cells(cells_for(&ids, &seeds), 1));
    let d8 = baseline_doc(&run_cells(cells_for(&ids, &seeds), 8));
    assert_eq!(d1, d8, "baseline bytes must not depend on --jobs");
    let docs = baseline::parse_profiles(&d1).expect("own render must parse");
    assert_eq!(docs.len(), ids.len() * seeds.len());
    // (id, seed)-stable ordering: grouped by id, seeds ascending within.
    let keys: Vec<(String, u64)> = docs.iter().map(|p| (p.experiment_id.clone(), p.seed)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "document order is the stable (experiment, seed) key order");
}
