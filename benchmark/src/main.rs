//! `ssbench` — the repository's benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! ssbench                                   all four workloads, then traces, sampler, attribution
//! ssbench --quick                           the same in ~15 s, every code path and check
//! ssbench --repeat 2                        the whole benchmark twice, plus the noise report
//! ssbench --workload W --seed N --seconds S --trace 0|1     one run, as the driver makes it
//! ssbench --print-contract                  what BENCHMARK.json must contain
//! ```
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod inputs;
mod layers;
mod live;
mod procstat;
mod run;
mod simcat;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::process::ExitCode;
use std::time::Duration;

use layers::{Row, SamplerCfg};
use run::{Effort, EndToEnd, TraceInputs, Ungated, Workload, END_TO_END, WORKLOADS};

const RUN_SECONDS: u64 = 20;

/// Every per-layer metric, in the order the contract lists them.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        layers::ROWS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    names.extend(run::RUN_METRICS.iter().map(|&(n, u)| (n.to_owned(), u)));
    names.extend(run::TRACED_SPANS.iter().map(|s| (format!("trace.self_us_per_op.{s}"), "us")));
    names
}

/// The text of `BENCHMARK.json`, from the same tables the runs use.
fn contract() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let gated: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let names = per_layer_names();
    for (i, (name, unit)) in names.iter().enumerate() {
        let comma = if i + 1 < names.len() { "," } else { "" };
        // Costs and tracing overhead are better lower; more pruned and
        // more served are better.
        let higher = ["wizard.shards_pruned_share", "live11.ops_per_s", "run.ops_per_s"]
            .contains(&name.as_str());
        let better = if higher { "higher" } else { "lower" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    repeat: u32,
    print_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: smartsock_bench::DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        print_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: u64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
            }
            "--print-contract" => args.print_contract = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ =
            write!(s, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value));
    }
    s.push_str("}}");
    s
}

fn print_rows(rows: &[Row]) {
    println!("== layer sampler (wall clock, per call) ==");
    println!(
        "  {:<36} {:>12} {:<6} {:>12} {:>12} {:>10} {:>5}",
        "row", "median", "unit", "p10", "p90", "MAD", "n"
    );
    for r in rows {
        match r.spread {
            Some(s) => println!(
                "  {:<36} {:>12.4} {:<6} {:>12.4} {:>12.4} {:>10.4} {:>5}",
                r.name, s.median, r.unit, s.p10, s.p90, s.mad, s.n
            ),
            None => println!("  {:<36} {:>12.4} {:<6} (exact count)", r.name, r.value, r.unit),
        }
    }
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {known:?}")
    })
}

fn layer_metrics(rows: &[Row], traced: &run::Traced) -> Vec<(String, f64, &'static str)> {
    let from_rows: BTreeMap<&str, f64> = rows.iter().map(|r| (r.name, r.value)).collect();
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = from_rows
                .get(name.as_str())
                .copied()
                .or_else(|| traced.metrics.get(&name).map(|&(v, _)| v))
                .unwrap_or(0.0);
            (name, value, unit)
        })
        .collect()
}

/// One run as the driver makes it. Returns whether every check passed.
fn driver_run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> io::Result<bool> {
    let effort = Effort::full(Duration::from_secs(seconds));
    if !trace {
        let e2e = run::run_untraced(w, seed, &effort)?;
        e2e.print(&format!("{} (seed {seed}, untraced, {seconds} s)", w.name));
        let metrics: Vec<(String, f64, &str)> =
            e2e.metrics().map(|(m, s)| (m.name.to_owned(), s.median, m.unit)).collect();
        println!("{}", result_line(e2e.attempted, e2e.failed, &metrics));
        return Ok(e2e.failed == 0);
    }
    // A traced run spends its time in six parts: the layer sampler (0.3),
    // the ungated testbed (0.1) and catalogue (three passes) workloads, a
    // LiveWizard reference (0.2), the untraced replay (0.2) and the traced
    // replay (0.3).
    let rows = layers::measure_all(SamplerCfg::within(effort.measure.mul_f64(0.3)), seed)?;
    print_rows(&rows);
    let given = TraceInputs { seed, effort: &effort, ungated: None, reference: None, rows: &rows };
    let traced = run::run_traced(w, &given)?;
    let metrics = layer_metrics(&rows, &traced);
    println!("{}", result_line(traced.reference.attempted, traced.reference.failed, &metrics));
    Ok(traced.reference.failed == 0)
}

/// The whole benchmark once: four untraced runs, the sampler, four
/// traced runs. Returns the end-to-end results and whether all passed.
fn full_run(seed: u64, effort: &Effort, cfg: SamplerCfg) -> io::Result<(Vec<EndToEnd>, bool)> {
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let e2e = run::run_untraced(w, seed, effort)?;
        e2e.print(&format!("{} (seed {seed}, untraced)", w.name));
        results.push(e2e);
    }
    let rows = layers::measure_all(cfg, seed)?;
    print_rows(&rows);
    let mut ok = results.iter().all(|r| r.failed == 0);
    let result_of = |name: &str| {
        let found = WORKLOADS.iter().zip(&results).find(|(w, _)| w.name == name);
        found.map(|(_, r)| r.clone()).expect("invariant: WORKLOADS lists both ungated workloads")
    };
    let ungated = Ungated {
        live11: result_of(run::TESTBED11.name),
        simcat: result_of(run::SIM_CATALOG.name),
    };
    for (w, e2e) in WORKLOADS.iter().zip(&results) {
        let given = TraceInputs {
            seed,
            effort,
            ungated: Some(&ungated),
            reference: Some(e2e),
            rows: &rows,
        };
        let traced = run::run_traced(w, &given)?;
        ok &= traced.reference.failed == 0;
        for (name, value, unit) in layer_metrics(&rows, &traced) {
            if !layers::ROWS.iter().any(|&(n, _)| n == name) {
                println!("  {name:<44} {value:>14.4} {unit}");
            }
        }
    }
    Ok((results, ok))
}

/// Per end-to-end metric and workload: both medians, their relative
/// difference and the bound. Returns whether every pair agrees.
fn noise_report(sets: &[Vec<EndToEnd>]) -> bool {
    let (Some(first), Some(second)) = (sets.first(), sets.get(1)) else { return true };
    println!("== noise report: two sets of runs of the same code ==");
    println!(
        "  {:<26} {:<10} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for ((w, a), b) in WORKLOADS.iter().zip(first).zip(second) {
        for ((m, sa), (_, sb)) in a.metrics().zip(b.metrics()) {
            let diff = stats::rel_diff(sa.median, sb.median);
            let worse = if m.better == "higher" { -diff } else { diff };
            let ok = worse <= m.bound;
            agree &= ok || !w.gated;
            println!(
                "  {:<26} {:<10} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                diff * 100.0,
                m.bound * 100.0,
                match (ok, w.gated) {
                    (true, true) => "within",
                    (true, false) => "within (ungated)",
                    (false, true) => "OUTSIDE",
                    (false, false) => "outside (ungated)",
                }
            );
        }
        println!(
            "  {:<26} failed     {:>14} {:>14}",
            w.name,
            format!("{}/{}", a.failed, a.attempted),
            format!("{}/{}", b.failed, b.attempted)
        );
    }
    agree
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.print_contract {
        print!("{}", contract());
        return Ok(true);
    }
    let io_err = |e: io::Error| e.to_string();
    if let Some(name) = &args.workload {
        let w = find_workload(name)?;
        return driver_run(w, args.seed, args.seconds.unwrap_or(RUN_SECONDS), args.trace)
            .map_err(io_err);
    }
    let (effort, cfg) = if args.quick {
        (Effort::quick(), SamplerCfg::QUICK)
    } else {
        (Effort::full(Duration::from_secs(args.seconds.unwrap_or(RUN_SECONDS))), SamplerCfg::FULL)
    };
    println!(
        "ssbench: seed {}, {} vCPUs, all times wall clock (monotonic), traffic over the loopback interface",
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut sets = Vec::new();
    let mut ok = true;
    for _ in 0..args.repeat.max(1) {
        let (results, passed) = full_run(args.seed, &effort, cfg).map_err(io_err)?;
        ok &= passed;
        sets.push(results);
    }
    if !noise_report(&sets) {
        println!("NOISE: at least one metric moved by more than its bound between the two sets");
        ok = false;
    }
    let (attempted, failed) =
        sets.iter().flatten().fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    println!("{}", if ok { "ALL CHECKS PASSED" } else { "CHECKS FAILED" });
    // The last line, for scripts: the first set's end-to-end medians.
    let metrics: Vec<(String, f64, &str)> = WORKLOADS
        .iter()
        .zip(sets.first().into_iter().flatten())
        .flat_map(|(w, r)| {
            r.metrics().map(|(m, s)| (format!("{}/{}", w.name, m.name), s.median, m.unit))
        })
        .collect();
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("ssbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_printed_contract() {
        // `assert!`, not `assert_eq!`: a mismatch should not print two
        // copies of a 10 KB document.
        assert!(
            include_str!("../../BENCHMARK.json") == contract(),
            "BENCHMARK.json is stale: regenerate it with `ssbench --print-contract`"
        );
    }

    #[test]
    fn the_contract_stays_inside_its_limits() {
        let names = per_layer_names();
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        let mut all: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &all {
            assert!(name.len() <= 64, "{name} is longer than 64");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside [A-Za-z0-9_.-]"
            );
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why is {} characters", w.name, w.why.len());
        }
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(contract().len() <= 64 * 1024);
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line =
            result_line(10, 0, &[("a".to_owned(), 1.5, "us"), ("b".to_owned(), f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
