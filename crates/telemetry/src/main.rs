//! `telemetry` — query a smartsock JSONL trace.
//!
//! ```text
//! telemetry summary <trace.jsonl>              per-span-name count/total/p50/p95/p99 + events
//! telemetry timeline <host> <trace.jsonl>      ordered record log for one host
//! telemetry slowest <n> <trace.jsonl>          worst spans with ancestry
//! telemetry rollup [--json] <trace.jsonl>      per-host/per-subnet aggregates
//! ```
//!
//! A trace may hold many exports, each under the shard header
//! `repro --trace-out` writes; every view reads such a file as one trace
//! (`trace::Trace` joins the shards).
//!
//! `rollup --json` renders the same rows as one JSON document (stable
//! field order, sorted rows) for scripts; `ci/telemetry_smoke.sh` reads
//! it. A trace still being written (`smartsockd wizard --trace`) is
//! followed with `tail -F`.
//!
//! Every command tolerates a closed downstream pipe (`| head` exits the
//! reader first): writes stop and the process exits clean.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::fmt::Write as _;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use smartsock_telemetry::json;
use smartsock_telemetry::trace::Trace;
use smartsock_telemetry::Rollup;

const USAGE: &str = "usage:\n  telemetry summary <trace.jsonl>\n  telemetry timeline <host> <trace.jsonl>\n  telemetry slowest <n> <trace.jsonl>\n  telemetry rollup [--json] <trace.jsonl>\n";

enum CmdError {
    /// User-facing failure: print to stderr, exit non-zero.
    Msg(String),
    /// Downstream pipe closed (e.g. `telemetry slowest 100 t.jsonl | head`):
    /// stop writing, exit clean.
    Pipe,
}

impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::BrokenPipe {
            CmdError::Pipe
        } else {
            CmdError::Msg(format!("telemetry: write failed: {e}"))
        }
    }
}

/// The self-healing request-layer counters surfaced by `summary` even
/// when zero: a healthy run should *show* zero deadline busts and zero
/// quarantined assignments, not omit the row.
const RELIABILITY_COUNTERS: &[&str] = &[
    "client-deadline-exceeded",
    "client-hedges-fired",
    "client-hedges-won",
    "client-hedge-timeouts",
    "client-timeouts",
    "client-unreachable",
    "client-outcome-reports",
    "wizard-outcome-reports",
    "wizard-quarantined-assignments",
    "health-quarantines",
    "health-probations",
];

fn load(path: &str) -> Result<Trace, CmdError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CmdError::Msg(format!("telemetry: cannot read {path}: {e}")))?;
    let trace = Trace::parse(&src);
    if trace.skipped > 0 {
        eprintln!("telemetry: warning: skipped {} malformed line(s)", trace.skipped);
    }
    Ok(trace)
}

fn cmd_summary(out: &mut impl Write, path: &str) -> Result<(), CmdError> {
    let tr = load(path)?;
    let spans = tr.span_summary();
    writeln!(out, "spans:")?;
    writeln!(
        out,
        "  {:<32} {:>8} {:>14} {:>12} {:>12} {:>12}",
        "name", "count", "total-ns", "p50-ns", "p95-ns", "p99-ns"
    )?;
    for (name, count, total, p50, p95, p99) in &spans {
        writeln!(out, "  {name:<32} {count:>8} {total:>14} {p50:>12} {p95:>12} {p99:>12}")?;
    }
    let events = tr.event_summary();
    writeln!(out, "events:")?;
    for (name, count) in &events {
        writeln!(out, "  {name:<32} {count:>8}")?;
    }
    writeln!(out, "reliability:")?;
    for name in RELIABILITY_COUNTERS {
        let value = tr.counters.get(*name).copied().unwrap_or(0);
        writeln!(out, "  {name:<32} {value:>8}")?;
    }
    let (kind, dropped) = sink_meta(&tr);
    if dropped > 0 {
        writeln!(
            out,
            "sink: {}, dropped {dropped} record(s) -- trace is INCOMPLETE",
            kind.unwrap_or("unknown")
        )?;
    } else {
        writeln!(out, "sink: complete (no dropped records)")?;
    }
    let span_total: u64 = spans.iter().map(|s| s.1).sum();
    let event_total: u64 = events.iter().map(|e| e.1).sum();
    writeln!(
        out,
        "total: {span_total} spans across {} names, {event_total} events, {} counters",
        spans.len(),
        tr.counters.len()
    )?;
    Ok(())
}

/// The sink metadata of a trace: the writing sink's kind (from the
/// `{"t":"sink",...}` trailer, when present) and the dropped-record
/// total. The trailer is authoritative; the `telemetry-dropped` counter
/// is the fallback for traces whose trailer was itself lost.
fn sink_meta(tr: &Trace) -> (Option<&str>, u64) {
    let counted = tr.counters.get("telemetry-dropped").copied().unwrap_or(0);
    (tr.sink_kind.as_deref(), tr.sink_dropped.max(counted))
}

fn cmd_timeline(out: &mut impl Write, host: &str, path: &str) -> Result<(), CmdError> {
    let tr = load(path)?;
    let rows = tr.timeline(host);
    for (ns, line) in &rows {
        writeln!(out, "{ns:>16} {line}")?;
    }
    writeln!(out, "total: {} records for host {host}", rows.len())?;
    Ok(())
}

fn cmd_slowest(out: &mut impl Write, n: &str, path: &str) -> Result<(), CmdError> {
    let n: usize = n.parse().map_err(|_| CmdError::Msg(format!("telemetry: not a count: {n}")))?;
    let tr = load(path)?;
    for (span, ancestry) in tr.slowest(n) {
        writeln!(
            out,
            "{:>14} ns  [{} .. {}] host={} {ancestry}",
            span.dur_ns, span.start_ns, span.end_ns, span.host
        )?;
    }
    Ok(())
}

/// `rollup [--json] <trace.jsonl>`: fold the trace's records into
/// per-host / per-subnet aggregates.
fn cmd_rollup(out: &mut impl Write, path: &str, as_json: bool) -> Result<(), CmdError> {
    let tr = load(path)?;
    let mut rollup = Rollup::default();
    for s in &tr.spans {
        rollup.fold_span(&s.host, &s.name, s.dur_ns);
    }
    for e in &tr.events {
        rollup.fold_event(&e.host, &e.name);
    }
    if as_json {
        writeln!(out, "{}", rollup_json(&rollup))?;
        return Ok(());
    }
    writeln!(
        out,
        "{:<28} {:<32} {:>8} {:>12} {:>12} {:>12}",
        "scope", "name", "count", "p50-ns", "p95-ns", "p99-ns"
    )?;
    for (scope, name, count) in rollup.counts() {
        match rollup.hist_summary(scope, name) {
            Some(h) => writeln!(
                out,
                "{scope:<28} {name:<32} {count:>8} {:>12} {:>12} {:>12}",
                h.p50, h.p95, h.p99
            )?,
            None => writeln!(
                out,
                "{scope:<28} {name:<32} {count:>8} {:>12} {:>12} {:>12}",
                "-", "-", "-"
            )?,
        }
    }
    writeln!(out, "total: {} records folded", rollup.records())?;
    Ok(())
}

/// `rollup --json`: sorted rows plus the fold total.
fn rollup_json(rollup: &Rollup) -> String {
    let mut s = String::from("{\"rows\":[");
    for (i, (scope, name, count)) in rollup.counts().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"scope\":\"{}\",\"name\":\"{}\",\"count\":{count}",
            json::escape(scope),
            json::escape(name),
        );
        if let Some(h) = rollup.hist_summary(scope, name) {
            let _ = write!(s, ",\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}", h.p50, h.p95, h.p99);
        }
        s.push('}');
    }
    let _ = write!(s, "],\"records\":{}}}", rollup.records());
    s
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let as_json = match args.iter().position(|a| a == "--json") {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["rollup", path] => cmd_rollup(&mut out, path, as_json),
        _ if as_json => Err(CmdError::Msg(USAGE.to_owned())),
        ["summary", path] => cmd_summary(&mut out, path),
        ["timeline", host, path] => cmd_timeline(&mut out, host, path),
        ["slowest", n, path] => cmd_slowest(&mut out, n, path),
        _ => Err(CmdError::Msg(USAGE.to_owned())),
    };
    let result = result.and_then(|()| out.flush().map_err(CmdError::from));
    match result {
        Ok(()) | Err(CmdError::Pipe) => ExitCode::SUCCESS,
        Err(CmdError::Msg(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_telemetry::Telemetry;

    #[test]
    fn summary_surfaces_the_reliability_counters() {
        let mut t = Telemetry::new();
        t.counter_add("client-hedges-fired", 5);
        t.counter_add("client-hedges-won", 4);
        t.counter_add("health-quarantines", 2);
        let path = std::env::temp_dir().join("smartsock-telemetry-reliability-test.jsonl");
        std::fs::write(&path, t.export_jsonl()).unwrap();
        let mut out = Vec::new();
        cmd_summary(&mut out, path.to_str().unwrap()).unwrap_or_else(|_| panic!("summary fails"));
        let _ = std::fs::remove_file(&path);
        let text = String::from_utf8(out).unwrap();
        let reliability = text.split("reliability:").nth(1).expect("has a reliability section");
        assert!(reliability.contains("client-hedges-fired"));
        assert!(reliability.lines().any(|l| l.contains("client-hedges-won") && l.ends_with("4")));
        // Counters the trace never touched still render, at zero.
        assert!(
            reliability
                .lines()
                .any(|l| l.contains("wizard-quarantined-assignments") && l.ends_with("0")),
            "zero counters must be shown, not omitted: {reliability}"
        );
    }

    #[test]
    fn rollup_folds_hosts_and_subnets_from_a_trace_file() {
        let mut t = Telemetry::new();
        t.set_now(100);
        let a = t.span_start("client-request", "10.0.1.5");
        t.set_now(600);
        t.span_end(a);
        t.event("fault-injected", "10.0.1.9", &[("kind", "host-crash")]);
        let path = std::env::temp_dir().join("smartsock-telemetry-rollup-test.jsonl");
        std::fs::write(&path, t.export_jsonl()).unwrap();

        let mut out = Vec::new();
        cmd_rollup(&mut out, path.to_str().unwrap(), false)
            .unwrap_or_else(|_| panic!("rollup fails"));
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("host/10.0.1.5"), "per-host scope missing: {text}");
        assert!(text.contains("subnet/10.0.1.0/24"), "subnet scope missing: {text}");
        // One finished span + one event; span-starts fold into their ends.
        assert!(text.contains("total: 2 records folded"), "fold total wrong: {text}");

        let mut jout = Vec::new();
        cmd_rollup(&mut jout, path.to_str().unwrap(), true)
            .unwrap_or_else(|_| panic!("rollup --json fails"));
        let _ = std::fs::remove_file(&path);
        let doc = String::from_utf8(jout).unwrap();
        let v = json::parse(doc.trim()).expect("rollup --json must emit valid JSON");
        assert_eq!(v.get("records").unwrap().as_u64(), Some(2));
        let rows = match v.get("rows") {
            Some(json::Value::Arr(xs)) => xs,
            other => panic!("rows: {other:?}"),
        };
        // Two scopes for the span + two for the event, one row each.
        assert_eq!(rows.len(), 4);
        let span_row = rows
            .iter()
            .find(|r| {
                r.get("scope").unwrap().as_str() == Some("host/10.0.1.5")
                    && r.get("name").unwrap().as_str() == Some("client-request")
            })
            .expect("span row present");
        assert_eq!(span_row.get("count").unwrap().as_u64(), Some(1));
        assert!(span_row.get("p50_ns").unwrap().as_u64().is_some(), "span rows carry quantiles");
    }
}
