//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --list                    list experiment ids
//! repro all                       run everything (paper order)
//! repro table5.3 fig3.6           run specific experiments
//! repro fleet.*                   run an experiment family by prefix
//! repro --seed 42 all             override the seed
//! repro --jobs 8 all              shard cells across 8 workers
//! repro --seeds 100..120 all      seed-sweep matrix with shape checks
//! repro --trace-out t.jsonl all   export the merged telemetry trace
//! ```
//!
//! Output is byte-identical whatever `--jobs` is: cells run in parallel
//! but merge in stable (experiment, seed) order, and all harness
//! accounting (worker count, wall-clock) goes to stderr only.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use smartsock_bench::executor::{cells_for, run_cells};
use smartsock_bench::{catalog, matrix, select, DEFAULT_SEED};

const USAGE: &str = "usage: repro [--seed N | --seeds A..B] [--jobs N] [--trace-out PATH] \
                     (--list | all | <experiment-id>...)";

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Pull `--flag VALUE` out of `args`, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    if pos >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    Some(args.remove(pos))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = match take_value(&mut args, "--seed") {
        Some(v) => v.parse().unwrap_or_else(|_| fail("bad --seed value")),
        None => DEFAULT_SEED,
    };
    let jobs: usize = match take_value(&mut args, "--jobs") {
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => fail("bad --jobs value (want an integer >= 1)"),
        },
        None => 1,
    };
    let sweep: Option<Vec<u64>> = take_value(&mut args, "--seeds")
        .map(|v| matrix::parse_seed_range(&v).unwrap_or_else(|e| fail(&e)));
    let trace_out = take_value(&mut args, "--trace-out");

    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        eprintln!("experiments:");
        for (id, _) in catalog() {
            eprintln!("  {id}");
        }
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _) in catalog() {
            println!("{id}");
        }
        return;
    }

    let wanted: Vec<&str> = args.iter().map(String::as_str).collect();
    let ids = select(&wanted).unwrap_or_else(|e| fail(&format!("{e} (try --list)")));

    // Wall-clock here measures the harness (printed to stderr only, so
    // stdout stays byte-identical across --jobs); nothing inside any
    // simulation can observe it.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "harness wall report on stderr, never read by sim code"
    )]
    let t0 = std::time::Instant::now();

    let seeds: Vec<u64> = sweep.clone().unwrap_or_else(|| vec![seed]);
    let results = run_cells(cells_for(&ids, &seeds), jobs);
    let exit = if sweep.is_some() {
        let outcome = matrix::render_matrix(&ids, &seeds, &results);
        print!("{}", outcome.text);
        i32::from(outcome.violations > 0)
    } else {
        let mut failures = Vec::new();
        for r in &results {
            match &r.outcome {
                Ok((report, _)) => println!("{report}"),
                Err(panic) => failures.push(format!("{} @ {}: PANIC: {panic}", r.id, r.seed)),
            }
        }
        for f in &failures {
            eprintln!("repro: {f}");
        }
        i32::from(!failures.is_empty())
    };
    // Every (experiment, seed) cell contributes its scheduler traces as
    // shards, in stable cell order, in both modes.
    cell_trace_export(trace_out.as_deref(), &results);

    let wall = t0.elapsed();
    let cells = ids.len() * seeds.len();
    eprintln!(
        "repro: {cells} cell(s), jobs={jobs}, harness wall {:.1} ms",
        wall.as_secs_f64() * 1e3,
    );
    std::process::exit(exit);
}

/// Write the per-cell telemetry traces as one file: one shard per
/// scheduler, labeled `experiment#seed/k`, in stable cell order, each
/// export verbatim under its header (`trace::Trace` joins them on read).
/// Streams shard by shard through a [`Merger`](smartsock_telemetry::merge::Merger)
/// over a buffered file, so the whole document never has to exist in
/// memory alongside every shard — a seed sweep's trace can be much larger
/// than any single cell's.
fn cell_trace_export(path: Option<&str>, results: &[smartsock_bench::CellResult]) {
    let Some(path) = path else { return };
    let write_err = |e: std::io::Error| -> ! { fail(&format!("cannot write {path}: {e}")) };
    let file = std::fs::File::create(path).unwrap_or_else(|e| write_err(e));
    let mut merger = smartsock_telemetry::merge::Merger::new(std::io::BufWriter::new(file));
    for r in results {
        if let Ok((_, profile)) = &r.outcome {
            for (k, trace) in profile.traces.iter().enumerate() {
                merger
                    .push_shard(&format!("{}#{}/{k}", r.id, r.seed), trace)
                    .unwrap_or_else(|e| write_err(e));
            }
        }
    }
    merger.finish().unwrap_or_else(|e| write_err(e));
}
