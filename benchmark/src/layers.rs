//! The in-tree layer sampler: one row per public call on the request and
//! simulator paths, timed from outside. Each row is warmed up, then
//! sampled in batches sized to at least a millisecond, and reported as
//! median / p10 / p90 / MAD / n — the role the print-only Criterion bench
//! (`crates/bench/benches/harness.rs`) cannot fill.
//!
//! All times are wall clock, monotonic (`std::time::Instant`).

use std::hint::black_box;
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartsock::client::RequestSpec;
use smartsock::Testbed;
use smartsock_bench::{profile_run, run, DEFAULT_SEED};
use smartsock_hostsim::host::HostSample;
use smartsock_hostsim::procfs;
use smartsock_hostsim::TopologySpec;
use smartsock_lang::{compile, may_qualify, Evaluator, RangeProvider};
use smartsock_live::{LiveSock, LiveWizard};
use smartsock_monitor::estimator::{reduce_round, ProbePairSpec};
use smartsock_monitor::VarRanges;
use smartsock_net::{HostParams, LinkParams, NetworkBuilder, Payload};
use smartsock_probe::{ProbeIdentity, ProcSample, ReportEngine};
use smartsock_proto::consts::ports;
use smartsock_proto::{
    Endpoint, Frame, HostName, Ip, RequestOption, ServerStatusReport, ServiceMask, Transport,
    TransportError, UserRequest, WizardReply,
};
use smartsock_sim::{Scheduler, SimDuration, SimTime};
use smartsock_telemetry::{AccumSink, RollupSink, Sink, StreamSink, TeeSink, Telemetry};
use smartsock_wizard::engine::{select, select_with_stats};
use smartsock_wizard::{SelectPolicy, ServerVars, WizardEngine};

use crate::inputs::{fleet_reports, fleet_requirement, Dbs, PAPER_REQUIREMENT};
use crate::stats::{self, Spread};

/// How long and how often each row is sampled.
#[derive(Clone, Copy, Debug)]
pub struct SamplerCfg {
    pub warmup: Duration,
    /// Sampling goes on until this much time *and* `min_samples`.
    pub budget: Duration,
    pub min_samples: usize,
    pub max_samples: usize,
}

impl SamplerCfg {
    /// The issue's parameters: 200 ms warm-up, at least 30 samples.
    pub const FULL: SamplerCfg = SamplerCfg {
        warmup: Duration::from_millis(200),
        budget: Duration::from_millis(100),
        min_samples: 30,
        max_samples: 200,
    };
    /// `--quick`: three samples per row.
    pub const QUICK: SamplerCfg = SamplerCfg {
        warmup: Duration::from_millis(2),
        budget: Duration::ZERO,
        min_samples: 3,
        max_samples: 3,
    };

    /// Fit the whole table into `total`: a quarter of
    /// each row's share warms up, the rest samples. Rows whose single
    /// call outlasts their share still get `min_samples` calls.
    pub fn within(total: Duration) -> SamplerCfg {
        let share = total / ROWS.len() as u32;
        SamplerCfg { warmup: share / 4, budget: share * 3 / 4, min_samples: 5, max_samples: 200 }
    }
}

/// One measured row. `value` is in `unit`; the spread columns are in the
/// same unit.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `None` for exact counts, which have no distribution.
    pub spread: Option<Spread>,
}

const MIN_BATCH: Duration = Duration::from_millis(1);

/// Sample `run_batch`, which performs `n` calls and returns the time the
/// calls themselves took (so a row can prepare inputs outside the timed
/// part). Returns per-call nanoseconds.
fn sample(cfg: &SamplerCfg, mut run_batch: impl FnMut(u64) -> Duration) -> Spread {
    // Size the batch: double until one batch takes at least a millisecond.
    let mut batch = 1u64;
    loop {
        let took = run_batch(batch);
        if took >= MIN_BATCH || batch >= 1 << 24 {
            break;
        }
        batch = if took.is_zero() {
            batch * 16
        } else {
            let want = MIN_BATCH.as_secs_f64() / took.as_secs_f64() * batch as f64 * 1.2;
            (want.ceil() as u64).clamp(batch + 1, batch * 16)
        };
    }
    let warm = Instant::now();
    while warm.elapsed() < cfg.warmup {
        run_batch(batch);
    }
    let mut per_call_ns = Vec::with_capacity(cfg.min_samples);
    let started = Instant::now();
    while per_call_ns.len() < cfg.max_samples
        && (per_call_ns.len() < cfg.min_samples || started.elapsed() < cfg.budget)
    {
        let took = run_batch(batch);
        per_call_ns.push(took.as_secs_f64() * 1e9 / batch as f64);
    }
    stats::spread(&per_call_ns).expect("invariant: min_samples >= 1, so the sample is non-empty")
}

fn timed(n: u64, mut call: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..n {
        call();
    }
    t0.elapsed()
}

/// Nanoseconds per unit of a metric name's suffix.
fn scale_of(unit: &str) -> f64 {
    match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        other => unreachable!("sampler rows are ns, us or ms, not {other}"),
    }
}

struct Table {
    cfg: SamplerCfg,
    rows: Vec<Row>,
}

impl Table {
    fn time(
        &mut self,
        name: &'static str,
        unit: &'static str,
        run_batch: impl FnMut(u64) -> Duration,
    ) {
        let s = sample(&self.cfg, run_batch);
        self.push_spread(name, unit, s);
    }

    fn push_spread(&mut self, name: &'static str, unit: &'static str, ns: Spread) {
        let spread = ns.divided_by(scale_of(unit));
        self.rows.push(Row { name, unit, value: spread.median, spread: Some(spread) });
    }

    fn count(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.rows.push(Row { name, unit, value, spread: None });
    }
}

// ----------------------------------------------------------------------
// Fixtures
// ----------------------------------------------------------------------

fn sample_report(i: u8) -> ServerStatusReport {
    let mut r = ServerStatusReport::empty(format!("host{i}").as_str(), Ip::new(192, 168, 1, i));
    r.load1 = 0.1 * f64::from(i % 5);
    r.cpu_idle = 0.95;
    r.mem_total = 256 << 20;
    r.mem_used = 120 << 20;
    r.mem_free = 136 << 20;
    r.bogomips = 3394.76;
    r
}

/// Databases for the `select` rows, every row stamped t = 0.
fn filled(reports: &[ServerStatusReport]) -> Dbs {
    let mut dbs = Dbs::default();
    for r in reports {
        dbs.sysdb.upsert(r.clone(), SimTime::ZERO);
    }
    dbs
}

fn request(detail: &str, server_num: u16) -> UserRequest {
    UserRequest { seq: 1, server_num, option: RequestOption::DEFAULT, detail: detail.to_owned() }
}

/// A transport that goes nowhere: `handle` rows measure the engine, not
/// the kernel.
struct NullTransport {
    now: u64,
}

impl Transport for NullTransport {
    fn now_ns(&self) -> u64 {
        self.now
    }
    fn send(&mut self, _: Endpoint, _: Endpoint, payload: &[u8]) -> Result<(), TransportError> {
        black_box(payload);
        Ok(())
    }
}

struct ShardRanges<'a>(&'a VarRanges);

impl RangeProvider for ShardRanges<'_> {
    fn range(&self, name: &str) -> Option<(f64, f64)> {
        self.0.range_of(name)
    }
}

// ----------------------------------------------------------------------
// The rows
// ----------------------------------------------------------------------

/// Measure every layer row. `seed` picks the generated fleets and the
/// simulated experiments' seed.
pub fn measure_all(cfg: SamplerCfg, seed: u64) -> io::Result<Vec<Row>> {
    let mut t = Table { cfg, rows: Vec::new() };
    lang_rows(&mut t, seed);
    proto_rows(&mut t);
    monitor_rows(&mut t, seed);
    wizard_rows(&mut t, seed);
    live_rows(&mut t)?;
    telemetry_rows(&mut t);
    sim_rows(&mut t);
    net_rows(&mut t);
    hostsim_rows(&mut t, seed);
    probe_rows(&mut t);
    core_rows(&mut t);
    experiment_rows(&mut t);
    let produced: Vec<(&str, &str)> = t.rows.iter().map(|r| (r.name, r.unit)).collect();
    assert_eq!(produced, ROWS, "the sampler's rows and the ROWS contract have drifted apart");
    Ok(t.rows)
}

/// Every row `measure_all` produces, in order, with its unit — the
/// sampler's share of `per_layer` in `BENCHMARK.json`.
pub const ROWS: [(&str, &str); 49] = [
    ("lang.compile_us", "us"),
    ("lang.eval_ns", "ns"),
    ("lang.may_qualify_ns", "ns"),
    ("proto.report_encode_ns", "ns"),
    ("proto.report_parse_ns", "ns"),
    ("proto.request_encode_ns", "ns"),
    ("proto.request_decode_ns", "ns"),
    ("proto.reply_encode_ns", "ns"),
    ("proto.reply_decode_ns", "ns"),
    ("proto.frame_encode_60_us", "us"),
    ("proto.frame_decode_60_us", "us"),
    ("monitor.upsert_ns_11", "ns"),
    ("monitor.expire_us_11", "us"),
    ("monitor.upsert_ns_1k", "ns"),
    ("monitor.expire_us_1k", "us"),
    ("monitor.expire_us_10k", "us"),
    ("monitor.reduce_round_ns", "ns"),
    ("wizard.select_us_11", "us"),
    ("wizard.select_us_1k", "us"),
    ("wizard.rows_evaluated_per_request", "count"),
    ("wizard.shards_pruned_share", "share"),
    ("wizard.select_us_10k", "us"),
    ("wizard.handle_request_us_11", "us"),
    ("wizard.handle_request_us_1k", "us"),
    ("wizard.handle_report_us_1k", "us"),
    ("live.udp_rtt_us", "us"),
    ("live.client_bind_us", "us"),
    ("telemetry.span_ns_accum", "ns"),
    ("telemetry.span_ns_stream", "ns"),
    ("telemetry.span_ns_rollup", "ns"),
    ("telemetry.span_ns_tee", "ns"),
    ("telemetry.counter_incr_ns", "ns"),
    ("telemetry.event_ns_accum", "ns"),
    ("telemetry.export_us_per_1k", "us"),
    ("sim.schedule_run_ns", "ns"),
    ("sim.cancel_ns", "ns"),
    ("net.udp_deliver_us", "us"),
    ("net.flow_1mb_us", "us"),
    ("hostsim.procfs_roundtrip_us", "us"),
    ("hostsim.fleet_expand_ms_10k", "ms"),
    ("probe.report_us", "us"),
    ("core.selection_round_us", "us"),
    ("sim.run_ms.table5.2", "ms"),
    ("sim.ns_per_event.table5.2", "ns"),
    ("sim.run_ms.table5.9", "ms"),
    ("sim.ns_per_event.table5.9", "ns"),
    ("sim.run_ms.ablation.scaling", "ms"),
    ("sim.run_ms.fleet.1k", "ms"),
    ("sim.run_ms.fleet.10k", "ms"),
];

fn lang_rows(t: &mut Table, seed: u64) {
    t.time("lang.compile_us", "us", |n| {
        timed(n, || {
            black_box(compile(black_box(PAPER_REQUIREMENT)).expect("paper requirement compiles"));
        })
    });
    // What `select` does per row at 1k: the fleet requirement against one
    // status row through the wizard's variable view.
    let req = compile(&fleet_requirement(0.9)).expect("fleet requirement compiles");
    let reports = fleet_reports("fleet1k", seed);
    let row = reports.first().expect("fleet1k has hosts");
    let vars =
        ServerVars { report: row, security_level: None, net_record: None, same_group: false };
    t.time("lang.eval_ns", "ns", |n| {
        timed(n, || {
            black_box(Evaluator::evaluate(black_box(&req), black_box(&vars)));
        })
    });
    let dbs = filled(&reports);
    let (_, shard) = dbs.sysdb.iter_shards().next().expect("fleet1k has shards");
    let ranges = ShardRanges(&shard.summary().ranges);
    t.time("lang.may_qualify_ns", "ns", |n| {
        timed(n, || {
            black_box(may_qualify(black_box(&req), black_box(&ranges)));
        })
    });
}

fn proto_rows(t: &mut Table) {
    let report = sample_report(3);
    t.time("proto.report_encode_ns", "ns", |n| {
        timed(n, || {
            black_box(black_box(&report).encode_ascii());
        })
    });
    let line = report.encode_ascii();
    t.time("proto.report_parse_ns", "ns", |n| {
        timed(n, || {
            black_box(ServerStatusReport::parse_ascii(black_box(&line)).expect("parses back"));
        })
    });

    let req = request(PAPER_REQUIREMENT, 8);
    t.time("proto.request_encode_ns", "ns", |n| {
        timed(n, || {
            black_box(black_box(&req).encode());
        })
    });
    let wire = req.encode();
    t.time("proto.request_decode_ns", "ns", |n| {
        timed(n, || {
            black_box(UserRequest::decode(black_box(&wire)).expect("decodes back"));
        })
    });
    let reply = WizardReply {
        seq: 1,
        servers: (1..=8).map(|i| Endpoint::new(Ip::new(10, 1, 0, i), ports::SERVICE)).collect(),
    };
    t.time("proto.reply_encode_ns", "ns", |n| {
        timed(n, || {
            black_box(black_box(&reply).encode());
        })
    });
    let wire = reply.encode();
    t.time("proto.reply_decode_ns", "ns", |n| {
        timed(n, || {
            black_box(WizardReply::decode(black_box(&wire)).expect("decodes back"));
        })
    });

    let records: Vec<ServerStatusReport> = (0..60).map(sample_report).collect();
    t.time("proto.frame_encode_60_us", "us", |n| {
        timed(n, || {
            black_box(Frame::system(black_box(&records)));
        })
    });
    let frame = Frame::system(&records);
    t.time("proto.frame_decode_60_us", "us", |n| {
        timed(n, || {
            black_box(black_box(&frame).decode_system().expect("decodes back"));
        })
    });
}

fn monitor_rows(t: &mut Table, seed: u64) {
    let sizes: [(&str, Option<&'static str>, &'static str); 3] = [
        ("testbed11", Some("monitor.upsert_ns_11"), "monitor.expire_us_11"),
        ("fleet1k", Some("monitor.upsert_ns_1k"), "monitor.expire_us_1k"),
        ("fleet10k", None, "monitor.expire_us_10k"),
    ];
    for (topology, upsert, expire) in sizes {
        let reports = fleet_reports(topology, seed);
        let mut db = filled(&reports).sysdb;
        if let Some(name) = upsert {
            // Overwrite of an existing row; the clones `upsert` consumes
            // are made before the clock starts.
            let mut next = 0usize;
            t.time(name, "ns", |n| {
                let batch: Vec<ServerStatusReport> = (0..n)
                    .map(|_| {
                        next = (next + 1) % reports.len();
                        reports[next].clone()
                    })
                    .collect();
                let t0 = Instant::now();
                for r in batch {
                    db.upsert(r, SimTime::from_secs(1));
                }
                t0.elapsed()
            });
        }
        // The per-datagram sweep: walks every row, evicts nothing.
        t.time(expire, "us", |n| {
            timed(n, || {
                black_box(db.expire(SimTime::from_secs(2), SimDuration::from_secs(6)));
            })
        });
        assert_eq!(db.len(), reports.len(), "the expire row must evict nothing");
    }

    let spec = ProbePairSpec::OPTIMAL_1500;
    let pairs: Vec<(SimDuration, SimDuration)> = (0..16)
        .map(|i| (SimDuration::from_micros(900 + i * 3), SimDuration::from_micros(1010 + i * 5)))
        .collect();
    t.time("monitor.reduce_round_ns", "ns", |n| {
        timed(n, || {
            black_box(reduce_round(black_box(spec), black_box(&pairs)).expect("usable pairs"));
        })
    });
}

fn wizard_rows(t: &mut Table, seed: u64) {
    let policy = SelectPolicy::default();
    let client = Ip::LOOPBACK;
    // The fleet requirement at its loosest threshold.
    let fleet_requirement = fleet_requirement(0.9);
    let cases: [(&str, &'static str, &str, u16); 3] = [
        ("testbed11", "wizard.select_us_11", PAPER_REQUIREMENT, 4),
        ("fleet1k", "wizard.select_us_1k", &fleet_requirement, 8),
        ("fleet10k", "wizard.select_us_10k", &fleet_requirement, 8),
    ];
    for (topology, name, detail, server_num) in cases {
        let dbs = filled(&fleet_reports(topology, seed));
        let req = request(detail, server_num);
        t.time(name, "us", |n| {
            timed(n, || {
                black_box(select(&dbs.view(), &policy, SimTime::ZERO, black_box(&req), client));
            })
        });
        if topology == "fleet1k" {
            // The useful-work ratio behind `wizard.select_us_1k`: exact
            // counts, identical on every run of the same seed.
            let (_, s) = select_with_stats(&dbs.view(), &policy, SimTime::ZERO, &req, client);
            t.count("wizard.rows_evaluated_per_request", "count", s.rows_evaluated as f64);
            t.count(
                "wizard.shards_pruned_share",
                "share",
                s.shards_pruned as f64 / s.shards_total.max(1) as f64,
            );
        }
    }

    let from = Endpoint::new(client, 40001);
    let cases: [(&str, &'static str, &str, u16); 2] = [
        ("testbed11", "wizard.handle_request_us_11", PAPER_REQUIREMENT, 4),
        ("fleet1k", "wizard.handle_request_us_1k", &fleet_requirement, 8),
    ];
    for (topology, name, detail, server_num) in cases {
        let datagrams: Vec<String> =
            fleet_reports(topology, seed).iter().map(ServerStatusReport::encode_ascii).collect();
        let mut engine = WizardEngine::new(Ip::new(10, 0, 0, 1), policy.clone());
        let mut null = NullTransport { now: 0 };
        for d in &datagrams {
            engine.handle(&mut null, from, d.as_bytes()).expect("null transport never fails");
        }
        let wire = request(detail, server_num).encode();
        t.time(name, "us", |n| {
            timed(n, || {
                black_box(engine.handle(&mut null, from, black_box(&wire)))
                    .expect("null transport never fails");
            })
        });
        if topology == "fleet1k" {
            let mut next = 0usize;
            t.time("wizard.handle_report_us_1k", "us", |n| {
                timed(n, || {
                    next = (next + 1) % datagrams.len();
                    black_box(engine.handle(&mut null, from, datagrams[next].as_bytes()))
                        .expect("null transport never fails");
                })
            });
        }
    }
}

/// Messages kept in flight by the bare echo, as in the request workloads.
const ECHO_IN_FLIGHT: usize = 4;
/// Latencies reduced to one sample.
const ECHO_BATCH: usize = 200;

/// The floor under `op_p50_us`: a bare two-thread loopback echo with the
/// request and reply sizes and the request workloads' discipline (four in
/// flight, the client spinning on an echoed-count until its reply is
/// queued), no protocol at all.
fn udp_rtt(cfg: &SamplerCfg) -> io::Result<Spread> {
    let request_len = request(PAPER_REQUIREMENT, 4).encode().len();
    let reply_len =
        WizardReply { seq: 1, servers: vec![Endpoint::new(Ip::LOOPBACK, ports::SERVICE); 4] }
            .encode()
            .len();
    let server = UdpSocket::bind("127.0.0.1:0")?;
    let addr = server.local_addr()?;
    let echoed = Arc::new(AtomicU64::new(0));
    let echoed_by_server = Arc::clone(&echoed);
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let mut buf = [0u8; 4096];
        let reply = vec![0u8; reply_len];
        loop {
            let (n, from) = server.recv_from(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            server.send_to(&reply, from)?;
            echoed_by_server.fetch_add(1, Ordering::SeqCst);
        }
    });
    let client = UdpSocket::bind("127.0.0.1:0")?;
    client.set_read_timeout(Some(Duration::from_secs(1)))?;
    let payload = vec![1u8; request_len];
    let mut buf = [0u8; 4096];
    let mut sent_at = std::collections::VecDeque::with_capacity(ECHO_IN_FLIGHT);
    let mut collected = 0u64;
    let mut batch_median_ns = || -> io::Result<f64> {
        let mut lat = Vec::with_capacity(ECHO_BATCH);
        while lat.len() < ECHO_BATCH {
            while sent_at.len() < ECHO_IN_FLIGHT {
                sent_at.push_back(Instant::now());
                client.send_to(&payload, addr)?;
            }
            let waiting = Instant::now();
            while echoed.load(Ordering::SeqCst) <= collected
                && waiting.elapsed() < Duration::from_secs(1)
            {
                std::hint::spin_loop();
            }
            client.recv_from(&mut buf)?;
            collected += 1;
            if let Some(at) = sent_at.pop_front() {
                lat.push(at.elapsed().as_secs_f64() * 1e9);
            }
        }
        Ok(stats::median(&lat).unwrap_or(0.0))
    };
    let warm = Instant::now();
    while warm.elapsed() < cfg.warmup {
        batch_median_ns()?;
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < cfg.max_samples
        && (samples.len() < cfg.min_samples || started.elapsed() < cfg.budget)
    {
        samples.push(batch_median_ns()?);
    }
    // Drain what is still in flight, then stop the echo thread.
    for _ in 0..sent_at.len() {
        client.recv_from(&mut buf)?;
    }
    client.send_to(&[], addr)?;
    echo.join().map_err(|_| io::Error::other("echo thread panicked"))??;
    Ok(stats::spread(&samples).expect("invariant: min_samples >= 1"))
}

fn live_rows(t: &mut Table) -> io::Result<()> {
    let s = udp_rtt(&t.cfg)?;
    t.push_spread("live.udp_rtt_us", "us", s);

    let wizard = LiveWizard::spawn()?;
    let addr = wizard.addr();
    let mut err = None;
    t.time("live.client_bind_us", "us", |n| {
        timed(n, || match LiveSock::bind(addr) {
            Ok(sock) => drop(black_box(sock)),
            Err(e) => err = Some(e),
        })
    });
    wizard.shutdown()?;
    err.map_or(Ok(()), Err)
}

fn telemetry_rows(t: &mut Table) {
    fn span_row(t: &mut Table, name: &'static str, sink: Box<dyn Sink>) {
        let mut tel = Telemetry::with_sink(sink);
        t.time(name, "ns", |n| {
            // Retaining sinks are emptied between batches so the row
            // measures a record, not a growing vector's reallocation.
            tel.clear();
            timed(n, || {
                let s = tel.span_start("wizard-match", black_box("127.0.0.1"));
                tel.span_end(s);
            })
        });
    }
    span_row(t, "telemetry.span_ns_accum", Box::new(AccumSink::new()));
    span_row(t, "telemetry.span_ns_stream", Box::new(StreamSink::new(Box::new(io::sink()), 4096)));
    span_row(t, "telemetry.span_ns_rollup", Box::new(RollupSink::new()));
    // The live daemon's default.
    span_row(
        t,
        "telemetry.span_ns_tee",
        Box::new(TeeSink::new(Box::new(AccumSink::new()), Box::new(RollupSink::new()))),
    );

    let mut tel = Telemetry::new();
    t.time("telemetry.counter_incr_ns", "ns", |n| {
        timed(n, || tel.counter_incr(black_box("sysmon-reports")))
    });
    t.time("telemetry.event_ns_accum", "ns", |n| {
        tel.clear();
        timed(n, || {
            tel.event(
                "status-db-expired",
                black_box("127.0.0.1"),
                &[("db", "wizard-sysdb"), ("server", "10.1.0.1")],
            );
        })
    });
    tel.clear();
    for _ in 0..500 {
        let s = tel.span_start("wizard-match", "127.0.0.1");
        tel.span_end(s);
    }
    assert_eq!(tel.records().len(), 1000);
    t.time("telemetry.export_us_per_1k", "us", |n| {
        timed(n, || {
            black_box(tel.export_jsonl());
        })
    });
}

fn sim_rows(t: &mut Table) {
    t.time("sim.schedule_run_ns", "ns", |n| {
        let mut s = Scheduler::new();
        let t0 = Instant::now();
        for i in 0..n {
            s.schedule_in(SimDuration::from_nanos(i % 1000), |_| {});
        }
        s.run();
        t0.elapsed()
    });
    t.time("sim.cancel_ns", "ns", |n| {
        let mut s = Scheduler::new();
        let ids: Vec<_> =
            (0..n).map(|i| s.schedule_in(SimDuration::from_nanos(i % 1000), |_| {})).collect();
        let t0 = Instant::now();
        for id in ids {
            s.cancel(id);
        }
        let took = t0.elapsed();
        s.run();
        took
    });
}

fn net_rows(t: &mut Table) {
    // The harness's `udp_probe_round_trip`: 2900 B (two fragments) host →
    // router → host, answered by ICMP port-unreachable.
    let mut nb = NetworkBuilder::new(5);
    let a = nb.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
    let r = nb.router("r", Ip::new(10, 0, 0, 254));
    let c = nb.host("c", Ip::new(10, 0, 1, 1), HostParams::testbed());
    nb.duplex(a, r, LinkParams::lan_100mbps());
    nb.duplex(r, c, LinkParams::lan_100mbps());
    let net = nb.build();
    let mut s = Scheduler::new();
    t.time("net.udp_deliver_us", "us", |n| {
        timed(n, || {
            let got = std::rc::Rc::new(std::cell::Cell::new(false));
            let g = std::rc::Rc::clone(&got);
            net.send_udp(
                &mut s,
                Endpoint::new(Ip::new(10, 0, 0, 1), 50000),
                Endpoint::new(Ip::new(10, 0, 1, 1), 33434),
                Payload::zeroes(2900),
                Some(Box::new(move |_s, _e| g.set(true))),
            );
            s.run();
            assert!(got.get(), "the probe datagram must be answered");
        })
    });

    let mut nb = NetworkBuilder::new(6);
    let a = nb.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
    let b = nb.host("b", Ip::new(10, 0, 0, 2), HostParams::testbed());
    nb.duplex(a, b, LinkParams::lan_100mbps());
    let net = nb.build();
    let mut s = Scheduler::new();
    t.time("net.flow_1mb_us", "us", |n| {
        timed(n, || {
            let done = std::rc::Rc::new(std::cell::Cell::new(false));
            let d = std::rc::Rc::clone(&done);
            net.start_flow(&mut s, a, b, 1 << 20, move |_s, _stats| d.set(true));
            s.run();
            assert!(done.get(), "the flow must complete");
        })
    });
}

fn hostsim_rows(t: &mut Table, seed: u64) {
    let sample = HostSample {
        load1: 0.42,
        load5: 0.36,
        load15: 0.30,
        busy_user: 1234.5,
        busy_system: 321.0,
        mem_total: 256 << 20,
        mem_free: 136 << 20,
        mem_buffers: 8 << 20,
        mem_cached: 40 << 20,
        disk_rreq: 1000,
        disk_rblocks: 8000,
        disk_wreq: 500,
        disk_wblocks: 4000,
        net_rbytes: 123_456_789,
        net_rpackets: 98_765,
        net_tbytes: 987_654_321,
        net_tpackets: 87_654,
    };
    t.time("hostsim.procfs_roundtrip_us", "us", |n| {
        timed(n, || {
            let s = black_box(&sample);
            let loadavg = procfs::render_loadavg(s, 1, 60);
            let stat = procfs::render_stat(s, 86_400.0);
            let meminfo = procfs::render_meminfo(s);
            let net_dev = procfs::render_net_dev(s, "eth0");
            black_box(procfs::parse_loadavg(&loadavg).expect("loadavg parses back"));
            black_box(procfs::parse_stat_cpu(&stat).expect("stat parses back"));
            black_box(procfs::parse_meminfo(&meminfo).expect("meminfo parses back"));
            black_box(procfs::parse_net_dev(&net_dev, "eth0").expect("net/dev parses back"));
        })
    });
    let spec = TopologySpec::fleet(10_000);
    t.time("hostsim.fleet_expand_ms_10k", "ms", |n| {
        timed(n, || {
            black_box(spec.expand(black_box(seed)));
        })
    });
}

fn probe_rows(t: &mut Table) {
    let id = ProbeIdentity {
        host: HostName::new("helene"),
        ip: Ip::new(192, 168, 3, 10),
        bogomips: 3394.76,
        iface: "eth0".to_owned(),
        services: ServiceMask::NONE,
    };
    let mut engine = ReportEngine::new();
    let mut sample = ProcSample::default();
    let mut tick = 0u64;
    t.time("probe.report_us", "us", |n| {
        timed(n, || {
            tick += 1;
            sample.jiffies.user += 150;
            sample.jiffies.idle += 50;
            sample.net.rbytes += 10_000;
            sample.net.tbytes += 20_000;
            black_box(engine.report(SimTime::from_secs(2 * tick), &id, black_box(&sample)));
        })
    });
}

fn core_rows(t: &mut Table) {
    // The harness's `selection_round_on_testbed`: one complete
    // client → wizard → connect round on the deployed 11-machine testbed,
    // all simulated daemons ticking along.
    let mut s = Scheduler::new();
    let tb = Testbed::builder(1).start(&mut s);
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    s.run_until(SimTime::from_secs(10));
    let client = tb.client("sagit");
    t.time("core.selection_round_us", "us", |n| {
        timed(n, || {
            let done = std::rc::Rc::new(std::cell::Cell::new(false));
            let d = std::rc::Rc::clone(&done);
            client.request(&mut s, RequestSpec::new("host_cpu_free > 0.5\n", 4), move |_s, r| {
                assert!(r.is_ok(), "the selection round must succeed");
                d.set(true);
            });
            let until = s.now() + SimDuration::from_millis(500);
            s.run_until(until);
            assert!(done.get(), "the selection round must finish within 500 simulated ms");
        })
    });
}

/// Where `op_p50_us` of `sim-catalog` goes: the experiments that dominate
/// a pass, and wall nanoseconds per dispatched simulator event. At the
/// catalogue's pinned seed, like the workload itself.
fn experiment_rows(t: &mut Table) {
    let seed = DEFAULT_SEED;
    let cases: [(&str, &'static str, Option<&'static str>); 5] = [
        ("table5.2", "sim.run_ms.table5.2", Some("sim.ns_per_event.table5.2")),
        ("table5.9", "sim.run_ms.table5.9", Some("sim.ns_per_event.table5.9")),
        ("ablation.scaling", "sim.run_ms.ablation.scaling", None),
        ("fleet.1k", "sim.run_ms.fleet.1k", None),
        ("fleet.10k", "sim.run_ms.fleet.10k", None),
    ];
    for (id, name, per_event) in cases {
        let s = sample(&t.cfg, |n| {
            timed(n, || {
                black_box(run(id, seed).expect("the experiment is in the catalogue"));
            })
        });
        t.push_spread(name, "ms", s);
        if let Some(per_event) = per_event {
            let (_, profile) = profile_run(id, seed).expect("the experiment is in the catalogue");
            t.push_spread(per_event, "ns", s.divided_by(profile.sim_events.max(1) as f64));
        }
    }
}
