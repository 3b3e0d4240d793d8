//! The four workloads end to end: the untraced runs that produce the
//! end-to-end metrics, and the traced runs that produce the per-layer
//! ones (replay with spans, tracing overhead, attribution).

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use smartsock_live::LiveWizard;

use crate::inputs::{Fleet, LiveInputs};
use crate::layers::Row;
use crate::live::{LiveWorkload, LoadGen, Mix, Plan, ReplayDaemon, RunOutcome, Target, MAX_LATE};
use crate::procstat;
use crate::simcat;
use crate::spans::{self, NameTotals, Recorder, Span, SpanId};
use crate::stats::{self, Summary};

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Live(LiveWorkload),
    SimCatalog,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Whether the workload is one of the contract's: run by the driver,
    /// its end-to-end metrics bounded.
    pub gated: bool,
    /// The recorded reason the workload exists (at most 200 characters).
    pub why: &'static str,
}

/// The paper's own scale. Not gated: on the 2-vCPU KVM guest this was
/// built on, its request loop is half kernel UDP work bouncing between the
/// two vCPUs, and ten identical 20 s runs spread (quartile distance over
/// median) 11 %, 13 %, 16 % and 26 % under four load-generator designs —
/// past any bound the contract allows. Its figures are therefore reported
/// as the per-layer metrics `live11.*` of every traced run.
pub const TESTBED11: Workload = Workload {
    name: "live-testbed11-request",
    kind: Kind::Live(LiveWorkload { fleet: Fleet::Testbed11, mix: Mix::Request }),
    gated: false,
    why: "The paper's own scale (11 rows): DB work is ~0, so per-request fixed cost (syscalls, socket create/close, codec, compile, telemetry) is all there is; a SysDb/select optimisation must not move it.",
};

/// The simulator catalogue. Not gated either: a pass is allocation-heavy,
/// single-threaded work, and the host's own speed for that kind of work
/// moves in steps of 20-50 % that last minutes (no steal time; a neighbour
/// on the shared core and cache), so four sets of ten identical 20 s runs
/// spread 15 %, 16 %, 19 % and 38 % on `op_p50_us`. Its pass time is
/// reported as the per-layer metric `simcat.pass_ms` of every traced run,
/// beside the `sim.run_ms.*` rows of the experiments that dominate it.
pub const SIM_CATALOG: Workload = Workload {
    name: "sim-catalog",
    kind: Kind::SimCatalog,
    gated: false,
    why: "The other backend and the researcher's workload (what `repro all --jobs 1` computes): scheduler, net, hostsim, sim daemons and telemetry export; live-only changes must not move it.",
};

pub const WORKLOADS: [Workload; 4] = [
    TESTBED11,
    Workload {
        name: "live-fleet1k-request",
        kind: Kind::Live(LiveWorkload { fleet: Fleet::Fleet1k, mix: Mix::Request }),
        gated: true,
        why: "Reads beside a realistic write rate (1000 rows, 500 reports/s): a request costs the per-datagram sweep plus prune-then-descend select over ~500 rows; monitor, wizard::engine and lang::eval work.",
    },
    Workload {
        name: "live-fleet1k-ingest",
        kind: Kind::Live(LiveWorkload { fleet: Fleet::Fleet1k, mix: Mix::Ingest }),
        gated: true,
        why: "The same SysDb used the other way, writes dominating: an index that speeds select but slows upsert/expire shows here, and O(1)-ingest work must show here.",
    },
    SIM_CATALOG,
];

/// Length of one trial. The issue sized trials at 2 s x 10; on a shared
/// 2-vCPU VM interference comes in bursts, and a median over many short
/// trials (each either clean or disturbed) repeats better between runs
/// than one over few long ones (each a blend) — 40 x 0.5 s held run-to-run
/// medians within ~3 % where 10 x 2 s wandered ~9 %.
const TRIAL: Duration = Duration::from_millis(500);

/// How much of everything a run does.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Length of the measured part, all trials together.
    pub measure: Duration,
    pub trials: usize,
    pub warmup: Duration,
    /// Set-up is repeated at least this often, and until `setup_for`
    /// has passed or `SETUP_REPS_MAX` is reached; the median is reported.
    pub setup_reps_min: usize,
    pub setup_for: Duration,
}

/// Keeps a sub-millisecond set-up (11 rows) from being repeated thousands
/// of times.
const SETUP_REPS_MAX: usize = 200;

impl Effort {
    /// 2 s warm-up, then equal trials of `TRIAL` each.
    pub fn full(measure: Duration) -> Effort {
        Effort {
            measure,
            trials: (measure.as_millis() / TRIAL.as_millis()).max(1) as usize,
            warmup: Duration::from_secs(2),
            setup_reps_min: 5,
            // ~40 set-ups of the 1000-row fleet: a 1 s phase (13 set-ups)
            // fell whole into one interference burst often enough to move
            // a run's median by 30 %.
            setup_for: Duration::from_secs(3),
        }
    }

    /// `--quick`: one trial, one set-up.
    pub fn quick() -> Effort {
        Effort {
            measure: Duration::from_secs(1),
            trials: 1,
            warmup: Duration::from_millis(250),
            setup_reps_min: 1,
            setup_for: Duration::ZERO,
        }
    }

    /// A phase of a traced run: `share` of the measured time, one set-up.
    fn phase(&self, share: f64) -> Effort {
        Effort {
            measure: self.measure.mul_f64(share),
            trials: ((self.trials as f64 * share) as usize).max(1),
            warmup: self.warmup.min(Duration::from_millis(500)),
            setup_reps_min: 1,
            setup_for: Duration::ZERO,
        }
    }

    fn plan(&self) -> Plan {
        let trials = self.trials.max(1);
        let trial = self.measure / u32::try_from(trials).unwrap_or(1);
        Plan { warmup: self.warmup, trial, trials }
    }
}

/// What one untraced run of a workload measured.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Process start to first timed trial: one set-up plus the fixed
    /// warm-up, as the issue defines it.
    pub setup_s: Summary,
    /// The set-up alone (median), without the warm-up's constant.
    pub setup_work_s: f64,
    pub ops_per_s: Summary,
    pub op_p50_us: Summary,
    pub op_p90_us: Summary,
    pub op_p99_us: Summary,
    /// Operations the figures are over.
    pub samples: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub late_ms_max: f64,
    pub cpu_us_per_op: f64,
    pub rss_mb_end: f64,
}

/// One end-to-end metric of the contract.
pub struct Bounded {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The share of the parent's median by which the metric may worsen.
    pub bound: f64,
    value: fn(&EndToEnd) -> Summary,
}

/// Every bound is the contract's maximum. The host this was built on
/// cannot support less: `sim-catalog` — single-threaded, deterministic,
/// the same work in every run — spreads 15 % (quartile distance over
/// median, ten 20 s runs) on CPU-speed drift alone; see README, *Noise*.
///
/// Latency, not throughput, is the gated figure: in a saturated closed
/// loop the median latency is the window divided by the throughput (4
/// requests, 64 reports), so it moves with everything throughput moves
/// with, and a median over operations ignores a stall that a count per
/// trial cannot (spreads over the same sets: `ops_per_s` up to 32 %,
/// `op_p50_us` never above 16 %).
pub const END_TO_END: [Bounded; 2] = [
    Bounded { name: "op_p50_us", unit: "us", better: "lower", bound: 0.25, value: |e| e.op_p50_us },
    Bounded { name: "setup_s", unit: "s", better: "lower", bound: 0.25, value: |e| e.setup_s },
];

impl EndToEnd {
    /// The end-to-end metrics, in the contract's order.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static Bounded, Summary)> + '_ {
        END_TO_END.iter().map(|m| (m, (m.value)(self)))
    }

    pub fn print(&self, title: &str) {
        println!("== {title} ==");
        let line = |name: &str, unit: &str, s: Summary, over: &str| {
            println!(
                "  {name:<12} {:>14.6} {unit:<4} median of {} {over} [min {:.6}, max {:.6}]",
                s.median, s.n, s.min, s.max
            );
        };
        for (m, s) in self.metrics() {
            line(m.name, m.unit, s, if m.name == "setup_s" { "set-ups" } else { "trials" });
        }
        line("ops_per_s", "1/s", self.ops_per_s, "trials (informational)");
        line("op_p90_us", "us", self.op_p90_us, "trials (informational)");
        line("op_p99_us", "us", self.op_p99_us, "trials (informational)");
        println!(
            "  set-up alone {:.6} s; operations: {} measured, {} attempted, {} failed; reporter late \
             by at most {:.3} ms; {:.2} us CPU per operation; {:.1} MB resident at the end",
            self.setup_work_s,
            self.samples,
            self.attempted,
            self.failed,
            self.late_ms_max,
            self.cpu_us_per_op,
            self.rss_mb_end
        );
        if let Some(why) = &self.first_failure {
            println!("  FIRST FAILURE: {why}");
        }
    }
}

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Reduce a loop's trials to the reported figures.
fn reduce(outcome: RunOutcome, setups: &[f64], warmup: Duration) -> io::Result<EndToEnd> {
    if outcome.late_max > MAX_LATE {
        return Err(invalid(format!(
            "INVALID RUN: the paced reporter ran {:.0} ms late (limit {} ms); rows changed \
             freshness tier, so the expected replies no longer hold",
            outcome.late_max.as_secs_f64() * 1e3,
            MAX_LATE.as_millis()
        )));
    }
    let mut samples = 0;
    let (mut ops, mut p50, mut p90, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for trial in outcome.trial_latencies_us {
        let Some(f) = stats::trial_figures(trial, outcome.trial_secs) else { continue };
        samples += f.samples;
        ops.push(f.ops_per_s);
        p50.push(f.p50_us);
        p90.push(f.p90_us);
        p99.push(f.p99_us);
    }
    let none = || invalid("no trial completed a single operation".to_owned());
    let with_warmup: Vec<f64> = setups.iter().map(|s| s + warmup.as_secs_f64()).collect();
    Ok(EndToEnd {
        setup_s: stats::summarize(&with_warmup).ok_or_else(none)?,
        setup_work_s: stats::median(setups).ok_or_else(none)?,
        ops_per_s: stats::summarize(&ops).ok_or_else(none)?,
        op_p50_us: stats::summarize(&p50).ok_or_else(none)?,
        op_p90_us: stats::summarize(&p90).ok_or_else(none)?,
        op_p99_us: stats::summarize(&p99).ok_or_else(none)?,
        samples,
        attempted: outcome.attempted,
        failed: outcome.failed,
        first_failure: outcome.first_failure,
        late_ms_max: outcome.late_max.as_secs_f64() * 1e3,
        cpu_us_per_op: outcome.cpu_s.unwrap_or(0.0) * 1e6 / samples.max(1) as f64,
        rss_mb_end: procstat::rss_mb().unwrap_or(0.0),
    })
}

/// One set-up of a live workload: generate the inputs, start the daemon,
/// fill its status DB. Returns how long that took.
fn set_up_live<T: Target>(
    w: LiveWorkload,
    seed: u64,
    spawn: impl FnOnce() -> io::Result<T>,
) -> io::Result<(LiveInputs, T, f64)> {
    let t0 = Instant::now();
    let inputs = LiveInputs::generate(w.fleet, seed);
    let daemon = spawn()?;
    LoadGen::new(&daemon, &inputs, seed, Recorder::new(t0, 0, false))?.fill()?;
    Ok((inputs, daemon, t0.elapsed().as_secs_f64()))
}

/// Repeat a set-up as `effort` asks; keep the product of the last one.
fn repeat_setup<P>(
    effort: &Effort,
    mut once: impl FnMut() -> io::Result<(P, f64)>,
) -> io::Result<(P, Vec<f64>)> {
    let started = Instant::now();
    let mut setups = Vec::new();
    loop {
        let (product, secs) = once()?;
        setups.push(secs);
        let enough = setups.len() >= effort.setup_reps_min
            && (started.elapsed() >= effort.setup_for || setups.len() >= SETUP_REPS_MAX);
        if enough {
            return Ok((product, setups));
        }
        drop(product);
    }
}

fn run_live(w: LiveWorkload, seed: u64, effort: &Effort) -> io::Result<EndToEnd> {
    let ((inputs, wizard), setups) = repeat_setup(effort, || {
        let (inputs, wizard, secs) = set_up_live(w, seed, LiveWizard::spawn)?;
        Ok(((inputs, wizard), secs))
    })?;
    let outcome = LoadGen::new(&wizard, &inputs, seed, Recorder::new(Instant::now(), 0, false))?
        .run(w.mix, &effort.plan())?;
    // Read before the daemon (and its ever-growing default AccumSink) goes.
    let rss_mb_end = procstat::rss_mb().unwrap_or(0.0);
    wizard.shutdown()?;
    Ok(EndToEnd { rss_mb_end, ..reduce(outcome, &setups, effort.warmup)? })
}

/// `sim-catalog`: set-up is the trace-fingerprint check plus one pass;
/// an operation is one full serial pass of the catalogue.
fn run_sim(seed: u64, effort: &Effort, rec: &mut Recorder) -> io::Result<EndToEnd> {
    let order = simcat::order(seed);
    let mut reference = None;
    let (mut attempted, mut failed, mut first_failure) = (0u64, 0u64, None);
    let mut note = |out: simcat::PassOutcome| {
        attempted += out.attempted;
        failed += out.failed;
        if first_failure.is_none() {
            first_failure = out.first_failure;
        }
        out.wall
    };
    let ((), setups) = repeat_setup(effort, || {
        let t0 = Instant::now();
        let problems = simcat::check_trace_shas();
        note(simcat::PassOutcome {
            attempted: 5,
            failed: problems.len() as u64,
            first_failure: problems.into_iter().next(),
            ..Default::default()
        });
        note(simcat::pass(&order, &mut reference, &mut Recorder::new(t0, 0, false), SpanId::NONE));
        Ok(((), t0.elapsed().as_secs_f64()))
    })?;

    let cpu0 = procstat::cpu_seconds();
    let started = Instant::now();
    let mut pass_us = Vec::new();
    // At least three passes, however short the run.
    while started.elapsed() < effort.measure || pass_us.len() < 3 {
        let span = rec.open("sim.pass", SpanId::NONE, 0);
        let wall = note(simcat::pass(&order, &mut reference, rec, span));
        rec.close(span);
        pass_us.push(wall.as_secs_f64() * 1e6);
    }
    let cpu_s = procstat::cpu_seconds_since(cpu0).unwrap_or(0.0);
    let sorted = stats::sorted(pass_us.clone());
    let pct = |q| {
        let v = stats::percentile_sorted(&sorted, q).unwrap_or(0.0);
        Summary { median: v, min: sorted[0], max: sorted[sorted.len() - 1], n: sorted.len() }
    };
    let per_s: Vec<f64> = pass_us.iter().map(|us| 1e6 / us).collect();
    let none = || invalid("no pass completed".to_owned());
    Ok(EndToEnd {
        setup_s: stats::summarize(&setups).ok_or_else(none)?,
        setup_work_s: stats::median(&setups).ok_or_else(none)?,
        ops_per_s: stats::summarize(&per_s).ok_or_else(none)?,
        op_p50_us: stats::summarize(&pass_us).ok_or_else(none)?,
        op_p90_us: pct(0.90),
        op_p99_us: pct(0.99),
        samples: pass_us.len(),
        attempted,
        failed,
        first_failure,
        late_ms_max: 0.0,
        cpu_us_per_op: cpu_s * 1e6 / pass_us.len() as f64,
        rss_mb_end: procstat::rss_mb().unwrap_or(0.0),
    })
}

/// The untraced run: what `--trace 0` measures.
pub fn run_untraced(w: &Workload, seed: u64, effort: &Effort) -> io::Result<EndToEnd> {
    match w.kind {
        Kind::Live(live) => run_live(live, seed, effort),
        Kind::SimCatalog => run_sim(seed, effort, &mut Recorder::new(Instant::now(), 0, false)),
    }
}

// ----------------------------------------------------------------------
// Traced runs
// ----------------------------------------------------------------------

/// Span names whose self time per operation is reported as a per-layer
/// metric (`trace.self_us_per_op.<name>`), in path order.
pub const TRACED_SPANS: [&str; 14] = [
    "request",
    "live.bind",
    "live.request",
    "loadgen.spin",
    "live.await_reply",
    "live.recv_from",
    "daemon.datagram",
    "wizard.sweep",
    "telemetry.span_start",
    "wizard.handle",
    "live.udp_send",
    "telemetry.record",
    "sim.pass",
    "sim.experiments",
];

/// The per-layer metrics that come from the run itself rather than from
/// the sampler.
pub const RUN_METRICS: [(&str, &str); 14] = [
    ("live11.ops_per_s", "1/s"),
    ("live11.op_p50_us", "us"),
    ("live11.op_p90_us", "us"),
    ("simcat.pass_ms", "ms"),
    ("run.setup_work_s", "s"),
    ("run.ops_per_s", "1/s"),
    ("run.op_p90_us", "us"),
    ("run.op_p99_us", "us"),
    ("run.cpu_us_per_op", "us"),
    ("run.rss_mb_end", "MB"),
    ("loadgen.report_late_ms_max", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.replay_gap_share", "share"),
    ("attrib.unexplained_share", "share"),
];

pub struct Traced {
    pub reference: EndToEnd,
    /// Every run-derived per-layer metric, by name.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

fn replay(
    w: LiveWorkload,
    seed: u64,
    effort: &Effort,
    anchor: Instant,
    traced: bool,
) -> io::Result<(EndToEnd, Vec<Span>)> {
    let (inputs, daemon, secs) =
        set_up_live(w, seed, || ReplayDaemon::spawn(Recorder::new(anchor, 2, traced)))?;
    let mut generator = LoadGen::new(&daemon, &inputs, seed, Recorder::new(anchor, 1, traced))?;
    let outcome = generator.run(w.mix, &effort.plan())?;
    let mut all = generator.into_spans();
    all.extend(daemon.shutdown()?);
    spans::link_by_seq(&mut all, "request", "daemon.datagram");
    Ok((reduce(outcome, &[secs], effort.warmup)?, all))
}

fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{workload}.jsonl"))
}

/// Spans written to the trace file; the tables are over all of them.
const TRACE_FILE_CAP: usize = 100_000;

fn write_trace(workload: &str, all: &[Span]) -> io::Result<PathBuf> {
    let path = trace_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    spans::write_jsonl(&mut out, all, TRACE_FILE_CAP)?;
    out.flush()?;
    Ok(path)
}

/// The layer a span belongs to: the crate name before the first dot.
fn layer_of(span: &str) -> &str {
    match span.split_once('.') {
        Some((layer, _)) if ["live", "wizard", "telemetry", "sim"].contains(&layer) => layer,
        _ => "benchmark",
    }
}

fn print_self_times(fold: &BTreeMap<&'static str, NameTotals>, ops: u64, shown: &[&str]) {
    println!("  self time per span, per operation ({ops} operations traced):");
    println!("    {:<24} {:>10} {:>14} {:>14}", "span", "calls/op", "self us/op", "total us/op");
    let per_op = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for name in shown {
        let Some(t) = fold.get(name) else { continue };
        println!(
            "    {name:<24} {:>10.2} {:>14.3} {:>14.3}",
            t.calls as f64 / ops.max(1) as f64,
            per_op(t.self_ns),
            per_op(t.total_ns)
        );
        *by_layer.entry(layer_of(name)).or_default() += per_op(t.self_ns);
    }
    println!("  self time per layer, per operation:");
    for (layer, us) in by_layer {
        println!("    {layer:<24} {us:>14.3} us");
    }
}

/// Where a traced request's time went along its own timeline, from the
/// marks the two threads left: issued (A) → sent (B) → picked up by the
/// daemon (C) → reply sent (D) → reply decoded by the client (E).
fn print_phases(all: &[Span]) {
    #[derive(Default, Clone, Copy)]
    struct Marks {
        a: Option<u64>,
        b: Option<u64>,
        c: Option<u64>,
        d: Option<u64>,
        e: Option<u64>,
    }
    let mut by_seq: BTreeMap<u32, Marks> = BTreeMap::new();
    for s in all.iter().filter(|s| s.seq != 0) {
        let m = by_seq.entry(s.seq).or_default();
        match s.name {
            "request" => (m.a, m.e) = (Some(s.start_ns), Some(s.end_ns)),
            "live.request" => m.b = Some(s.end_ns),
            "daemon.datagram" => (m.c, m.d) = (Some(s.start_ns), Some(s.end_ns)),
            _ => {}
        }
    }
    let mut phases: [Vec<f64>; 5] = Default::default();
    for m in by_seq.values() {
        let (Some(a), Some(b), Some(c), Some(d), Some(e)) = (m.a, m.b, m.c, m.d, m.e) else {
            continue;
        };
        let us = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e3;
        for (phase, v) in phases.iter_mut().zip([us(a, b), us(b, c), us(c, d), us(d, e), us(a, e)])
        {
            phase.push(v);
        }
    }
    println!("  one request's timeline ({} requests seen on both threads):", phases[0].len());
    println!("    {:<44} {:>12} {:>12}", "phase", "median us", "mean us");
    let names = [
        "client: bind + encode + send",
        "queued in the daemon's socket",
        "daemon: sweep + match + reply (service)",
        "reply waiting for the client to collect it",
        "total (request -> reply)",
    ];
    for (name, values) in names.iter().zip(&phases) {
        let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        println!("    {name:<44} {:>12.3} {mean:>12.3}", stats::median(values).unwrap_or(0.0));
    }
}

struct AttribLine {
    row: &'static str,
    count: f64,
}

/// Sum layer cost × call count against the end-to-end figure and print
/// the table; returns the unexplained share.
fn attribute(title: &str, e2e_us: f64, lines: &[AttribLine], rows: &[Row]) -> f64 {
    println!("  attribution against {title} = {e2e_us:.3} us:");
    println!(
        "    {:<34} {:>12} {:>10} {:>12} {:>8}",
        "layer row", "cost us", "x count", "= us", "share"
    );
    let mut explained = 0.0;
    for line in lines {
        let Some(row) = rows.iter().find(|r| r.name == line.row) else { continue };
        let cost_us = match row.unit {
            "ns" => row.value / 1e3,
            "ms" => row.value * 1e3,
            _ => row.value,
        };
        let us = cost_us * line.count;
        explained += us;
        println!(
            "    {:<34} {cost_us:>12.4} {:>10.2} {us:>12.3} {:>7.1}%",
            line.row,
            line.count,
            100.0 * us / e2e_us
        );
    }
    let unexplained = 1.0 - explained / e2e_us;
    println!(
        "    {:<34} {:>12} {:>10} {:>12.3} {:>7.1}%",
        "attrib.unexplained_share",
        "",
        "",
        e2e_us - explained,
        100.0 * unexplained
    );
    unexplained
}

fn value_of(rows: &[Row], name: &str) -> f64 {
    rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.value)
}

fn attribute_live(w: LiveWorkload, reference: &EndToEnd, rows: &[Row]) -> f64 {
    let testbed = w.fleet == Fleet::Testbed11;
    let pick = |a: &'static str, b: &'static str| if testbed { a } else { b };
    let expire = pick("monitor.expire_us_11", "monitor.expire_us_1k");
    let handle = pick("wizard.handle_request_us_11", "wizard.handle_request_us_1k");
    match w.mix {
        Mix::Request => {
            // Reports share the daemon with the requests: each request
            // waits, on average, behind this many report datagrams.
            let hosts = if testbed { 11.0 } else { 1000.0 };
            let reports_per_request = hosts / 2.0 / reference.ops_per_s.median;
            let lines = [
                AttribLine { row: "live.udp_rtt_us", count: 1.0 },
                AttribLine { row: "live.client_bind_us", count: 1.0 },
                AttribLine { row: "proto.request_encode_ns", count: 1.0 },
                AttribLine { row: expire, count: 1.0 + reports_per_request },
                AttribLine { row: "telemetry.span_ns_tee", count: 1.0 },
                AttribLine { row: handle, count: 1.0 },
                AttribLine {
                    row: "telemetry.counter_incr_ns",
                    count: 3.0 + 2.0 * reports_per_request,
                },
                AttribLine { row: "wizard.handle_report_us_1k", count: reports_per_request },
                AttribLine { row: "proto.reply_decode_ns", count: 1.0 },
            ];
            let unexplained =
                attribute("op_p50_us (request -> reply)", reference.op_p50_us.median, &lines, rows);
            println!(
                "    (the remainder is queueing: with four requests in flight each one waits for \
                 the others' turns in the daemon — see the timeline above)"
            );
            // ROADMAP 1(c): what `handle` spends beyond its known parts.
            let evaluated =
                if testbed { 11.0 } else { value_of(rows, "wizard.rows_evaluated_per_request") };
            let inside = [
                AttribLine { row: "proto.request_decode_ns", count: 1.0 },
                AttribLine { row: "lang.compile_us", count: 1.0 },
                AttribLine { row: "lang.may_qualify_ns", count: if testbed { 6.0 } else { 20.0 } },
                AttribLine { row: "lang.eval_ns", count: evaluated },
                AttribLine { row: "proto.reply_encode_ns", count: 1.0 },
            ];
            attribute(handle, value_of(rows, handle), &inside, rows);
            println!(
                "    (lang.compile_us compiles the paper's eight statements: exact at 11 rows, \
                 an upper bound for the fleet's two)"
            );
            unexplained
        }
        Mix::Ingest => {
            let lines = [
                AttribLine { row: "wizard.handle_report_us_1k", count: 1.0 },
                AttribLine { row: expire, count: 1.0 },
                AttribLine { row: "telemetry.counter_incr_ns", count: 2.0 },
            ];
            attribute(
                "1e6 / ops_per_s (daemon time per report)",
                1e6 / reference.ops_per_s.median,
                &lines,
                rows,
            )
        }
    }
}

fn traced_live(
    name: &str,
    w: LiveWorkload,
    given: &TraceInputs<'_>,
    ungated: &Ungated,
) -> io::Result<Traced> {
    let TraceInputs { seed, effort, reference, rows, .. } = *given;
    // The replay must agree with `LiveWizard` within the latency bound.
    let bound = END_TO_END[0].bound;
    let reference = match reference {
        Some(r) => r.clone(),
        None => run_live(w, seed, &effort.phase(0.2))?,
    };
    let anchor = Instant::now();
    let (untraced, _) = replay(w, seed, &effort.phase(0.2), anchor, false)?;
    let (traced, all) = replay(w, seed, &effort.phase(0.3), anchor, true)?;
    let path = write_trace(name, &all)?;

    println!("== {name} (seed {seed}, traced replay) ==");
    reference.print(&format!("{name}: LiveWizard reference"));
    let overhead = -stats::rel_diff(untraced.ops_per_s.median, traced.ops_per_s.median);
    let gap = stats::rel_diff(reference.ops_per_s.median, untraced.ops_per_s.median);
    println!(
        "  replay daemon: {:.1} ops/s untraced, {:.1} ops/s traced, LiveWizard {:.1} ops/s",
        untraced.ops_per_s.median, traced.ops_per_s.median, reference.ops_per_s.median
    );
    println!("  trace.overhead_share     {overhead:>10.4} (traced vs untraced replay throughput)");
    println!("  trace.replay_gap_share   {gap:>10.4} (untraced replay vs LiveWizard throughput)");
    if gap.abs() > bound {
        println!(
            "  TRACE UNREPRESENTATIVE: the replay loop differs from LiveWizard by more than the \
             op_p50_us bound ({:.0} %); read the span table as the replay's, not the daemon's",
            bound * 100.0
        );
    }
    println!("  {} spans recorded, head written to {}", all.len(), path.display());

    let fold = spans::fold_by_name(&all);
    let op_span = if w.mix == Mix::Request { "request" } else { "daemon.datagram" };
    let ops = fold.get(op_span).map_or(0, |t| t.calls);
    print_self_times(&fold, ops, &TRACED_SPANS);
    if w.mix == Mix::Request {
        print_phases(&all);
    }
    let unexplained = attribute_live(w, &reference, rows);

    let failed = reference.failed + untraced.failed + traced.failed;
    let attempted = reference.attempted + untraced.attempted + traced.attempted;
    let first_failure =
        reference.first_failure.clone().or(untraced.first_failure).or(traced.first_failure);
    let mut metrics = run_metrics(ungated, &reference, overhead, gap, unexplained);
    self_time_metrics(&mut metrics, &fold, ops);
    Ok(Traced { reference: EndToEnd { attempted, failed, first_failure, ..reference }, metrics })
}

fn traced_sim(name: &str, given: &TraceInputs<'_>, ungated: &Ungated) -> io::Result<Traced> {
    let TraceInputs { seed, effort, reference, rows, .. } = *given;
    let reference = match reference {
        Some(r) => r.clone(),
        None => run_sim(seed, &effort.phase(0.35), &mut Recorder::new(Instant::now(), 0, false))?,
    };
    let mut rec = Recorder::new(Instant::now(), 1, true);
    let traced = run_sim(seed, &effort.phase(0.35), &mut rec)?;
    let all = rec.into_spans();
    let path = write_trace(name, &all)?;

    println!("== {name} (seed {seed}, traced passes) ==");
    reference.print(&format!("{name}: untraced reference"));
    let overhead = stats::rel_diff(reference.op_p50_us.median, traced.op_p50_us.median);
    println!(
        "  pass: {:.3} ms untraced, {:.3} ms traced",
        reference.op_p50_us.median / 1e3,
        traced.op_p50_us.median / 1e3
    );
    println!("  trace.overhead_share     {overhead:>10.4} (traced vs untraced pass time)");
    println!(
        "  trace.replay_gap_share   {:>10.4} (no replay: the traced passes call the same `run`)",
        0.0
    );
    println!("  {} spans recorded, head written to {}", all.len(), path.display());

    let mut fold = spans::fold_by_name(&all);
    let passes = fold.get("sim.pass").map_or(0, |t| t.calls);
    // Where a pass goes, by experiment.
    let mut by_cost: Vec<(&str, NameTotals)> =
        fold.iter().filter(|(n, _)| **n != "sim.pass").map(|(n, t)| (*n, *t)).collect();
    by_cost.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let pass_ns: u64 = by_cost.iter().map(|(_, t)| t.self_ns).sum();
    println!("  self time per experiment, per pass ({passes} passes traced):");
    for (id, t) in &by_cost {
        println!(
            "    {id:<24} {:>12.3} ms {:>6.1}%",
            t.self_ns as f64 / 1e6 / passes.max(1) as f64,
            100.0 * t.self_ns as f64 / pass_ns.max(1) as f64
        );
    }
    let experiments = NameTotals { calls: passes, self_ns: pass_ns, total_ns: pass_ns };
    fold.insert("sim.experiments", experiments);
    print_self_times(&fold, passes, &["sim.pass", "sim.experiments"]);

    let lines: Vec<AttribLine> = rows
        .iter()
        .filter(|r| r.name.starts_with("sim.run_ms."))
        .map(|r| AttribLine { row: r.name, count: 1.0 })
        .collect();
    let unexplained =
        attribute("op_p50_us (one catalogue pass)", reference.op_p50_us.median, &lines, rows);
    println!(
        "    (the remainder is the other {} experiments)",
        by_cost.len().saturating_sub(lines.len())
    );

    let mut metrics = run_metrics(ungated, &reference, overhead, 0.0, unexplained);
    self_time_metrics(&mut metrics, &fold, passes);
    Ok(Traced {
        reference: EndToEnd {
            attempted: reference.attempted + traced.attempted,
            failed: reference.failed + traced.failed,
            first_failure: reference.first_failure.clone().or(traced.first_failure),
            ..reference
        },
        metrics,
    })
}

fn run_metrics(
    ungated: &Ungated,
    reference: &EndToEnd,
    overhead: f64,
    gap: f64,
    unexplained: f64,
) -> BTreeMap<String, (f64, &'static str)> {
    let values = [
        ungated.live11.ops_per_s.median,
        ungated.live11.op_p50_us.median,
        ungated.live11.op_p90_us.median,
        ungated.simcat.op_p50_us.median / 1e3,
        reference.setup_work_s,
        reference.ops_per_s.median,
        reference.op_p90_us.median,
        reference.op_p99_us.median,
        reference.cpu_us_per_op,
        reference.rss_mb_end,
        reference.late_ms_max,
        overhead,
        gap,
        unexplained,
    ];
    RUN_METRICS.iter().zip(values).map(|(&(name, unit), v)| (name.to_owned(), (v, unit))).collect()
}

/// A span name the workload never opens reads 0: the workload bypasses
/// that layer.
fn self_time_metrics(
    metrics: &mut BTreeMap<String, (f64, &'static str)>,
    fold: &BTreeMap<&'static str, NameTotals>,
    ops: u64,
) {
    for name in TRACED_SPANS {
        let self_ns = fold.get(name).map_or(0, |t| t.self_ns);
        metrics.insert(
            format!("trace.self_us_per_op.{name}"),
            (self_ns as f64 / 1e3 / ops.max(1) as f64, "us"),
        );
    }
}

/// The untraced results of the two workloads that are measured but not
/// gated; every traced run reports them as per-layer metrics.
#[derive(Clone)]
pub struct Ungated {
    pub live11: EndToEnd,
    pub simcat: EndToEnd,
}

/// What a traced run is given.
#[derive(Clone, Copy)]
pub struct TraceInputs<'a> {
    pub seed: u64,
    pub effort: &'a Effort,
    /// The ungated workloads' untraced results and the traced workload's
    /// own, when the caller already has them; otherwise a short untraced
    /// phase is run for each.
    pub ungated: Option<&'a Ungated>,
    pub reference: Option<&'a EndToEnd>,
    /// The sampler's rows, for the attribution tables.
    pub rows: &'a [Row],
}

/// The traced run: what `--trace 1` measures.
pub fn run_traced(w: &Workload, given: &TraceInputs<'_>) -> io::Result<Traced> {
    let ungated = match given.ungated {
        Some(u) => u.clone(),
        None => {
            let short = |w: &Workload, share: f64| -> io::Result<EndToEnd> {
                let r = run_untraced(w, given.seed, &given.effort.phase(share))?;
                r.print(&format!("{} (seed {}, ungated, short phase)", w.name, given.seed));
                Ok(r)
            };
            Ungated { live11: short(&TESTBED11, 0.1)?, simcat: short(&SIM_CATALOG, 0.05)? }
        }
    };
    let mut traced = match w.kind {
        Kind::Live(live) => traced_live(w.name, live, given, &ungated)?,
        Kind::SimCatalog => traced_sim(w.name, given, &ungated)?,
    };
    // A wrong reply at 11 rows, or a catalogue report that changed, is as
    // wrong in a short phase as in a gated run.
    for r in [ungated.live11, ungated.simcat] {
        traced.reference.attempted += r.attempted;
        traced.reference.failed += r.failed;
        if traced.reference.first_failure.is_none() {
            traced.reference.first_failure = r.first_failure;
        }
    }
    Ok(traced)
}
