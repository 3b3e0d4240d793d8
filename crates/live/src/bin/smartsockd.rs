//! `smartsockd` — the Smart socket control plane over real UDP sockets.
//!
//! The operational surface of the live backend (`smartsock-live`):
//!
//! ```text
//! smartsockd wizard --bind 127.0.0.1:1120 [--trace PATH]
//!     Run the combined monitor+wizard daemon until stdin closes; with
//!     --trace, stream the telemetry JSONL trace to PATH as it happens
//!     (follow it with `tail -F`; readable by the `telemetry` query
//!     binary) and end it with the summary lines on shutdown. PATH is
//!     created before the daemon starts, so a bad path fails at once.
//!
//! smartsockd stats --wizard 127.0.0.1:1120 [--timeout-ms N] [--retries N] [--json]
//!     Query a running daemon for its live telemetry snapshot without
//!     stopping it: the counter, gauge and histogram summary lines its
//!     trace will end with, as they stand. Printed as a table, or with
//!     --json verbatim, one JSON object per line.
//!
//! smartsockd probe --wizard 127.0.0.1:1120 --host helene --ip 192.168.3.10 \
//!                  [--proc-root /proc] [--iface eth0] \
//!                  [--watch SECS] [--count N] \
//!                  [--cpu-free 0.95] [--mem-free-mb 200] [--load1 0.1] [--services compute,file]
//!     Send status reports. With --proc-root the probe samples the real
//!     procfs through the shared differentiation engine; without it the
//!     report is synthesized from the flags, which must describe a
//!     possible host: --cpu-free in [0, 1], --load1 finite and not
//!     negative, --mem-free-mb at most the synthesized 256 MB total.
//!     --watch repeats every SECS (until --count reports, or forever);
//!     --count must be at least 1.
//!
//! smartsockd request --wizard 127.0.0.1:1120 --servers 2 [--req REQ | --file PATH] \
//!                    [--timeout-ms N] [--retries N] [--json]
//!     Issue a user request; prints the selected endpoints one per line,
//!     or a single JSON object with --json. Here and in `stats`, --retries
//!     counts retransmissions after the first send (default 2).
//! ```
//!
//! A flag the subcommand does not know, a token that is not a flag or its
//! value, and `--count 0` exit 2 with the usage text.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::net::SocketAddr;
use std::ops::RangeInclusive;
use std::path::Path;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use smartsock_live::{live_request, query_stats, send_live_report, Clock, LiveProbe, LiveWizard};
use smartsock_probe::ProbeIdentity;
use smartsock_proto::{Ip, RequestOption, ServerStatusReport, ServiceMask, UserRequest};
use smartsock_telemetry::json::{self, Value};
use smartsock_wizard::SelectPolicy;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    // Each subcommand's flags, space-separated.
    let (run, known): (Command, &str) = match cmd.as_str() {
        "wizard" => (cmd_wizard, "bind trace"),
        "probe" => (
            cmd_probe,
            "wizard host ip proc-root iface watch count cpu-free mem-free-mb load1 bogomips \
             services",
        ),
        "request" => (cmd_request, "wizard servers req file timeout-ms retries json"),
        "stats" => (cmd_stats, "wizard timeout-ms retries json"),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("unknown command {other:?}");
            return usage();
        }
    };
    match Flags::parse(rest, known).and_then(|flags| run(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            usage()
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: smartsockd <wizard|probe|request|stats> [flags]\n\
         \n  wizard  --bind ADDR [--trace PATH]\
         \n  probe   --wizard ADDR --host NAME --ip A.B.C.D [--proc-root PATH] [--iface IF]\
         \n          [--watch SECS] [--count N]\
         \n          [--cpu-free F] [--mem-free-mb N] [--load1 F] [--services a,b]\
         \n  request --wizard ADDR --servers N [--req TEXT | --file PATH]\
         \n          [--timeout-ms N] [--retries N] [--json]\
         \n  stats   --wizard ADDR [--timeout-ms N] [--retries N] [--json]"
    );
    ExitCode::from(2)
}

/// A subcommand, run over its parsed flags.
type Command = fn(&Flags) -> Result<(), Failure>;

/// Why a subcommand stopped: a command line it cannot read (exit 2, with
/// the usage text) or a failure while running it (exit 1).
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Run(e)
    }
}

/// Tiny `--key value` flag parser (`--json`-style booleans take no value,
/// listed in `UNARY`).
struct Flags(Vec<(String, String)>);

const UNARY: &[&str] = &["json"];

impl Flags {
    /// Read `args` as flags named in `known`, refusing anything else.
    fn parse(args: &[String], known: &str) -> Result<Flags, Failure> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let Some(name) = k.strip_prefix("--") else {
                return Err(Failure::Usage(format!("unexpected argument {k:?}")));
            };
            if !known.split_whitespace().any(|k| k == name) {
                return Err(Failure::Usage(format!("unknown flag --{name}")));
            }
            let v = if UNARY.contains(&name) {
                String::new()
            } else {
                it.next()
                    .cloned()
                    .ok_or_else(|| Failure::Usage(format!("--{name} needs a value")))?
            };
            out.push((name.to_owned(), v));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v:?}")),
        }
    }

    /// A float flag whose value must lie in `range` (so NaN never does).
    fn get_in(&self, name: &str, default: f64, range: RangeInclusive<f64>) -> Result<f64, String> {
        let v = self.get_parsed(name, default)?;
        if range.contains(&v) {
            Ok(v)
        } else {
            Err(format!("--{name} {v} is outside {range:?}"))
        }
    }
}

fn cmd_wizard(flags: &Flags) -> Result<(), Failure> {
    let bind = flags.get("bind").unwrap_or("127.0.0.1:1120");
    let (policy, clock) = (SelectPolicy::default(), Clock::wall());
    // `spawn_streaming` creates the file before the daemon starts, so a
    // bad path fails here rather than after the whole run.
    let trace = flags.get("trace");
    let wiz = match trace {
        Some(path) => LiveWizard::spawn_streaming(bind, policy, clock, Path::new(path)),
        None => LiveWizard::spawn_with(bind, policy, clock),
    }
    .map_err(|e| e.to_string())?;
    println!("smartsockd wizard listening on {}", wiz.addr());
    println!("press ENTER (or close stdin) to stop");
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    let stats = wiz.shutdown().map_err(|e| e.to_string())?;
    if let Some(path) = trace {
        println!("trace written to {path}");
    }
    if stats.dropped > 0 {
        eprintln!("warning: streaming sink dropped {} record(s)", stats.dropped);
    }
    println!("ingested {} reports", stats.reports);
    println!("served {} requests", stats.served);
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), Failure> {
    let wizard: SocketAddr =
        flags.require("wizard")?.parse().map_err(|_| "bad --wizard address".to_owned())?;
    let timeout = Duration::from_millis(flags.get_parsed("timeout-ms", 1000u64)?);
    let retries: u32 = flags.get_parsed("retries", 2u32)?;
    let seq = std::process::id() ^ 0x57a7_0000;
    let reply = query_stats(wizard, seq, timeout, retries).map_err(|e| e.to_string())?;
    if reply.truncated {
        eprintln!("warning: lines past one datagram were cut");
    }
    if flags.has("json") {
        print!("{}", reply.lines);
        return Ok(());
    }
    println!("snapshot at {} ns", reply.now_ns);
    println!("{:<8} {:<40} {:>12}", "kind", "name", "value");
    for line in reply.lines.lines() {
        let Some(v) = json::parse(line) else { continue };
        let field = |key: &str| match v.get(key) {
            Some(Value::Num(n)) => n.clone(),
            Some(Value::Str(s)) => s.clone(),
            _ => "-".to_owned(),
        };
        let kind = field("t");
        match kind.as_str() {
            "hist" => println!(
                "{kind:<8} {:<40} {:>12} p50 {} p95 {} p99 {} ns",
                field("name"),
                field("count"),
                field("p50"),
                field("p95"),
                field("p99")
            ),
            "sink" => println!("{kind:<8} {:<40} {:>12} dropped", field("kind"), field("dropped")),
            _ => println!("{kind:<8} {:<40} {:>12}", field("name"), field("value")),
        }
    }
    Ok(())
}

/// The memory total a synthesized report claims, in MB.
const SYNTHETIC_MEM_MB: u64 = 256;

fn parse_services(flags: &Flags) -> Result<ServiceMask, String> {
    let mut mask = ServiceMask::default();
    if let Some(services) = flags.get("services") {
        for class in services.split(',').filter(|c| !c.is_empty()) {
            mask |= ServiceMask::by_name(class)
                .ok_or_else(|| format!("unknown service class {class:?}"))?;
        }
    }
    Ok(mask)
}

fn cmd_probe(flags: &Flags) -> Result<(), Failure> {
    let wizard: SocketAddr =
        flags.require("wizard")?.parse().map_err(|_| "bad --wizard address".to_owned())?;
    let host = flags.require("host")?;
    let ip: Ip = flags.require("ip")?.parse().map_err(|e| format!("{e}"))?;
    let watch_secs: u64 = flags.get_parsed("watch", 0u64)?;
    let count: u64 = flags.get_parsed("count", if watch_secs > 0 { u64::MAX } else { 1 })?;
    if count == 0 {
        return Err(Failure::Usage("--count must be at least 1".to_owned()));
    }
    let interval = Duration::from_secs(watch_secs.max(1));
    // The pacing channel: nothing ever sends, so `recv_timeout` is an
    // interruptible sleep that needs no wall-clock reads here.
    let (_pace_tx, pace_rx) = mpsc::channel::<()>();

    if let Some(root) = flags.get("proc-root") {
        // Real sampling through the shared differentiation engine.
        let id = ProbeIdentity {
            host: host.into(),
            ip,
            bogomips: flags.get_parsed("bogomips", 3394.76f64)?,
            iface: flags.get("iface").unwrap_or("eth0").to_owned(),
            services: parse_services(flags)?,
        };
        let mut probe = LiveProbe::new(wizard, id, Clock::wall())
            .map_err(|e| e.to_string())?
            .with_proc_root(root);
        if watch_secs == 0 {
            let bytes = probe.report_once().map_err(|e| e.to_string())?;
            println!("sent {bytes} byte report for {host} ({ip})");
        } else {
            let sent = probe.watch(interval, count, &pace_rx).map_err(|e| e.to_string())?;
            println!("sent {sent} reports for {host} ({ip})");
        }
        return Ok(());
    }

    // Synthetic mode: the report is whatever the flags claim, provided a
    // host could claim it.
    let mut report = ServerStatusReport::empty(host, ip);
    report.cpu_idle = flags.get_in("cpu-free", 0.95, 0.0..=1.0)?;
    report.cpu_user = 1.0 - report.cpu_idle;
    report.load1 = flags.get_in("load1", 0.1, 0.0..=f64::MAX)?;
    report.load5 = report.load1;
    report.load15 = report.load1;
    report.mem_total = SYNTHETIC_MEM_MB << 20;
    let mem_free_mb: u64 = flags.get_parsed("mem-free-mb", 180)?;
    if mem_free_mb > SYNTHETIC_MEM_MB {
        return Err(format!(
            "--mem-free-mb {mem_free_mb} exceeds the synthesized {SYNTHETIC_MEM_MB} MB total"
        )
        .into());
    }
    report.mem_free = mem_free_mb << 20;
    report.mem_used = report.mem_total - report.mem_free;
    report.bogomips = flags.get_in("bogomips", 3394.76, 0.0..=f64::MAX)?;
    report.services = parse_services(flags)?;
    let clock = Clock::wall();
    let mut sent = 0u64;
    loop {
        report.timestamp_ns = clock.now_ns();
        send_live_report(wizard, &report).map_err(|e| e.to_string())?;
        sent += 1;
        if watch_secs == 0 || sent >= count {
            break;
        }
        match pace_rx.recv_timeout(interval) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    if sent == 1 {
        println!("sent {} byte report for {host} ({ip})", report.encode_ascii().len());
    } else {
        println!("sent {sent} reports for {host} ({ip})");
    }
    Ok(())
}

fn cmd_request(flags: &Flags) -> Result<(), Failure> {
    let wizard: SocketAddr =
        flags.require("wizard")?.parse().map_err(|_| "bad --wizard address".to_owned())?;
    let servers: u16 = flags.get_parsed("servers", 1u16)?;
    let detail = match (flags.get("req"), flags.get("file")) {
        (Some(req), _) => req.to_owned(),
        (None, Some(path)) => std::fs::read_to_string(path).map_err(|e| e.to_string())?,
        (None, None) => String::new(),
    };
    let timeout = Duration::from_millis(flags.get_parsed("timeout-ms", 1000u64)?);
    let retries: u32 = flags.get_parsed("retries", 2u32)?;
    let req = UserRequest {
        seq: std::process::id() ^ 0x5eed_0000,
        server_num: servers,
        option: RequestOption::DEFAULT,
        detail,
    };
    let reply = live_request(wizard, &req, timeout, retries).map_err(|e| e.to_string())?;
    if flags.has("json") {
        let eps: Vec<String> = reply.servers.iter().map(|ep| format!("\"{ep}\"")).collect();
        println!("{{\"seq\":{},\"servers\":[{}]}}", reply.seq, eps.join(","));
        return Ok(());
    }
    if reply.servers.is_empty() {
        eprintln!("no server satisfies the requirement");
        return Err("empty reply".to_owned().into());
    }
    for ep in reply.servers {
        println!("{ep}");
    }
    Ok(())
}
