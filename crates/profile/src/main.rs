//! `profile` — regenerate the `BENCH_profile.json` determinism pin.
//!
//! ```text
//! profile bench [--jobs N] [--out PATH] (all | experiment-id | family.* ...)
//! ```
//!
//! Runs the selected experiments at `DEFAULT_SEED` under the collector
//! (sharded across `--jobs` workers) and writes one
//! `{experiment_id, seed, trace_sha}` entry per experiment, to `--out` or
//! stdout. The bytes do not depend on `--jobs`.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::io::Write as _;
use std::process::ExitCode;

use smartsock_profile::baseline;

const USAGE: &str = "usage:\n  profile bench [--jobs N] [--out PATH] \
                     (all | experiment-id | family.* ...)\n";

fn cmd_bench(args: &[&str]) -> Result<String, String> {
    let mut out_path: Option<String> = None;
    let mut jobs: usize = 1;
    let mut ids: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match *a {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("bad --jobs value (want an integer >= 1): {v}")),
                };
            }
            "--out" => out_path = Some(it.next().ok_or("--out needs a path")?.to_string()),
            id => ids.push(id),
        }
    }
    if ids.is_empty() {
        return Err(USAGE.to_owned());
    }
    let selected = smartsock_bench::select(&ids)?;
    let cells = smartsock_bench::executor::cells_for(&selected, &[smartsock_bench::DEFAULT_SEED]);
    let mut profiles = Vec::new();
    for r in &smartsock_bench::run_cells(cells, jobs) {
        let (_, run) = r
            .outcome
            .as_ref()
            .map_err(|panic| format!("{} @ seed {}: PANIC: {panic}", r.id, r.seed))?;
        profiles.push(baseline::ExperimentProfile::from_run(run));
    }
    let doc = baseline::render_profiles(&profiles);
    match out_path {
        Some(p) => {
            std::fs::write(&p, &doc).map_err(|e| format!("cannot write {p}: {e}"))?;
            Ok(format!("wrote {} experiment profile(s) to {p}\n", profiles.len()))
        }
        None => Ok(doc),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match argv.split_first() {
        Some((&"bench", rest)) => cmd_bench(rest),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(text) => {
            let mut out = std::io::stdout().lock();
            let _ = out.write_all(text.as_bytes());
            let _ = out.flush();
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("profile: {msg}");
            ExitCode::FAILURE
        }
    }
}
