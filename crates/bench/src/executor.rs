//! Parallel executor for (experiment, seed) cells.
//!
//! The catalog's experiments are pure `fn(u64) -> Report` functions, each
//! building its own schedulers internally — per-seed-deterministic `Sim`
//! instances with no shared state, so the (experiment, seed) grid is
//! embarrassingly parallel. This module shards that grid across N worker
//! threads and merges the results back in the **input order** of the
//! cells (the stable (experiment, seed) key order), so downstream
//! rendering is byte-identical whatever `--jobs` was.
//!
//! Design notes:
//!
//! * **Scoped std threads, zero deps.** `std::thread::scope` lets workers
//!   borrow the cell list and the cursor without `Arc` or channels.
//! * **One cursor.** A free worker takes the next unclaimed cell from a
//!   shared atomic index. Experiment costs vary by two orders of magnitude
//!   (`fig5.2` vs `table3.2`), so static sharding would leave workers idle
//!   behind one hot shard; self-scheduling does not, and a few dozen cells
//!   need nothing cleverer.
//! * **Cell isolation.** Each cell runs under [`crate::profiled::profile_call`],
//!   whose collector is a thread-local: concurrent cells cannot observe
//!   each other's schedulers or telemetry. Only `Send` data (the report,
//!   the cost snapshot, the exported trace strings) crosses back.
//! * **Panic isolation.** A panicking cell is caught (`catch_unwind`) and
//!   reported as that cell's error without poisoning its worker or the
//!   other cells. `AssertUnwindSafe` is sound here because the only state
//!   a torn cell could leave behind is the thread-local collector, and
//!   `profile_call` reinstalls it at the top of every run.
//! * **Determinism.** Nothing in the simulation can observe wall-clock
//!   concurrency: virtual time lives inside each cell's own schedulers.
//!   Thread interleaving only changes *which worker* fills a result slot,
//!   never its contents or the merged order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::profiled::{profile_call, RunProfile};
use crate::report::Report;
use crate::Experiment;

/// One schedulable unit: an experiment entry point at one seed.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub id: &'static str,
    pub run: Experiment,
    pub seed: u64,
}

/// The outcome of one cell, in the cell's input position.
#[derive(Debug)]
pub struct CellResult {
    pub id: &'static str,
    pub seed: u64,
    /// The report and captured profile, or the panic message if the cell
    /// blew up.
    pub outcome: Result<(Report, RunProfile), String>,
}

/// Build the (experiment, seed) grid in stable key order: experiments in
/// the given (catalog) order, seeds ascending within each experiment.
pub fn cells_for(ids: &[(&'static str, Experiment)], seeds: &[u64]) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(ids.len() * seeds.len());
    for &(id, run) in ids {
        for &seed in seeds {
            cells.push(Cell { id, run, seed });
        }
    }
    cells
}

/// Run every cell on up to `jobs` workers; results come back in cell
/// input order regardless of worker count or scheduling interleavings.
pub fn run_cells(cells: Vec<Cell>, jobs: usize) -> Vec<CellResult> {
    let n = cells.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.max(1).min(n);
    if workers == 1 {
        return cells.into_iter().map(run_one).collect();
    }

    // Relaxed: the cursor publishes no data, it only hands each index out
    // once; results travel back through `join`.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<CellResult>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&cell) = cells.get(i) else { break done };
                done.push((i, run_one(cell)));
            }
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for h in handles {
            for (i, r) in h.join().expect("a worker panicked outside catch_unwind") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("invariant: the cursor handed out every index exactly once"))
        .collect()
}

/// Run one cell under the profiler with panic isolation.
fn run_one(cell: Cell) -> CellResult {
    let Cell { id, run, seed } = cell;
    let outcome = catch_unwind(AssertUnwindSafe(|| profile_call(id, run, seed)))
        .map_err(|payload| panic_message(payload.as_ref()));
    CellResult { id, seed, outcome }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_echo(seed: u64) -> Report {
        let mut r = Report::new("echo", "echoes its seed");
        r.figure("seed", seed as f64);
        r
    }

    fn boom_on_even(seed: u64) -> Report {
        assert!(seed % 2 != 0, "boom at seed {seed}");
        seed_echo(seed)
    }

    #[test]
    fn empty_catalog_yields_no_results_at_any_width() {
        for jobs in [1, 4] {
            assert!(run_cells(Vec::new(), jobs).is_empty());
        }
    }

    #[test]
    fn one_cell_runs_even_with_many_workers() {
        let cells = vec![Cell { id: "echo", run: seed_echo, seed: 7 }];
        let out = run_cells(cells, 8);
        assert_eq!(out.len(), 1);
        let (report, profile) = out[0].outcome.as_ref().expect("cell succeeded");
        assert_eq!(report.get("seed"), 7.0);
        assert_eq!(profile.experiment_id, "echo");
        assert_eq!(profile.seed, 7);
    }

    #[test]
    fn more_workers_than_cells_preserves_input_order() {
        let cells: Vec<Cell> =
            (0..3).map(|s| Cell { id: "echo", run: seed_echo, seed: s }).collect();
        let out = run_cells(cells, 16);
        let seeds: Vec<u64> = out.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![0, 1, 2], "merge order is the input order");
    }

    #[test]
    fn results_merge_in_input_order_whatever_the_worker_count() {
        let cells: Vec<Cell> =
            (0..17).map(|s| Cell { id: "echo", run: seed_echo, seed: s }).collect();
        for jobs in [1, 2, 3, 8] {
            let out = run_cells(cells.clone(), jobs);
            for (i, r) in out.iter().enumerate() {
                assert_eq!(r.seed, i as u64);
                let (report, _) = r.outcome.as_ref().expect("cell succeeded");
                assert_eq!(report.get("seed"), i as f64);
            }
        }
    }

    #[test]
    fn panicking_cells_are_isolated_from_their_neighbours() {
        let cells: Vec<Cell> =
            (1..=6).map(|s| Cell { id: "boom", run: boom_on_even, seed: s }).collect();
        let out = run_cells(cells, 3);
        assert_eq!(out.len(), 6);
        for r in &out {
            if r.seed % 2 == 0 {
                let err = r.outcome.as_ref().expect_err("even seeds panic");
                assert!(err.contains("boom at seed"), "panic message surfaced: {err}");
            } else {
                let (report, _) = r.outcome.as_ref().expect("odd seeds succeed");
                assert_eq!(report.get("seed"), r.seed as f64);
            }
        }
    }

    #[test]
    fn cells_for_walks_experiment_major_seed_minor() {
        let ids: [(&'static str, Experiment); 2] = [("a", seed_echo), ("b", seed_echo)];
        let cells = cells_for(&ids, &[10, 11]);
        let keys: Vec<(&str, u64)> = cells.iter().map(|c| (c.id, c.seed)).collect();
        assert_eq!(keys, vec![("a", 10), ("a", 11), ("b", 10), ("b", 11)]);
    }
}
