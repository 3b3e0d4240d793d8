//! The hostile-workload catalog: adversarial scenarios for the
//! self-healing request layer (deadlines, hedged requests, quarantine,
//! staleness-aware selection).
//!
//! Unlike the paper-reproduction experiments, these runs exist to *attack*
//! the system and then machine-check the recovery invariants in
//! `shapes.rs`:
//!
//! * `hostile.straggler` — transient path stalls on the wizard machine;
//!   hedged requests must cut the p99 while unhedged ones eat the full
//!   retry timeout.
//! * `hostile.flashcrowd` — a request burst straight into a link cut; the
//!   per-request deadline must bound every resolution time.
//! * `hostile.flapping` — two flapping access links; the quarantine state
//!   machine must absorb the flappers (zero assignments while
//!   quarantined) without collapsing goodput, then re-admit them.
//! * `hostile.staleness` — a frozen status row that still advertises a
//!   free CPU; the freshness discount must steer selection to the host
//!   with a live report.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::{ClientError, RequestSpec};
use smartsock::faults::{Daemon, FaultKind, FaultPlan};
use smartsock::Testbed;
use smartsock_hostsim::Workload;
use smartsock_proto::consts::ports;
use smartsock_proto::{Endpoint, Ip, OutcomeKind};
use smartsock_sim::{SimDuration, SimTime};

use crate::experiments::rig;
use crate::report::{colf, Report};

/// Bind a trivial echo-less service on every machine so returned smart
/// sockets have something to connect to.
fn bind_services(tb: &Testbed) {
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
}

/// Percentile over a latency sample (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.saturating_sub(1).min(sorted.len() - 1)]
}

/// Transient +4 s latency stalls on the wizard machine's access link —
/// the classic straggling-backend shape. Five 0.6 s stall windows each
/// catch exactly one request of a 0.5 s-spaced train; with an 800 ms
/// hedge the re-issued copy lands after the stall clears, without it the
/// caught request waits out the full 2 s attempt timeout.
pub fn straggler(seed: u64) -> Report {
    let mut r = Report::new(
        "hostile.straggler",
        "tail latency under transient path stalls: hedged vs unhedged requests",
    );
    r.row(format!(
        "{:<10} | {:>8} | {:>8} | {:>13} | {:>11}",
        "mode", "p50 ms", "p99 ms", "hedges fired", "hedges won"
    ));
    for hedged in [true, false] {
        let mut s = rig::sim();
        let tb = Testbed::builder(seed).start(&mut s);
        bind_services(&tb);
        let inj = tb.fault_injector();
        let mut plan = FaultPlan::new();
        for k in 0..5u64 {
            plan = plan.straggler(
                "dalmatian",
                "sw1",
                SimTime::from_secs_f64(22.1 + 5.0 * k as f64),
                SimTime::from_secs_f64(22.7 + 5.0 * k as f64),
                SimDuration::from_secs(4),
            );
        }
        inj.schedule(&mut s, &plan);
        s.run_until(SimTime::from_secs(20));
        let client = tb.client("sagit");
        let done: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..61u64 {
            let at = SimTime::from_secs_f64(20.25 + 0.5 * i as f64);
            let client = client.clone();
            let done = Rc::clone(&done);
            s.schedule_at(at, move |s| {
                let mut spec = RequestSpec::new("host_cpu_bogomips > 4000\n", 1);
                if hedged {
                    spec = spec.with_hedge(SimDuration::from_millis(800));
                }
                let issued = s.now();
                let done = Rc::clone(&done);
                client.request(s, spec, move |s, res| {
                    assert!(res.is_ok(), "straggler requests must eventually resolve: {res:?}");
                    done.borrow_mut().push(s.now().since(issued).as_millis_f64());
                });
            });
        }
        let watch = Rc::clone(&done);
        s.run_while(SimTime::from_secs(90), move || watch.borrow().len() < 61);
        let mut lat = done.borrow().clone();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
        let fired = s.telemetry.counter("client-hedges-fired") as f64;
        let won = s.telemetry.counter("client-hedges-won") as f64;
        let mode = if hedged { "hedged" } else { "unhedged" };
        r.row(format!(
            "{mode:<10} | {:>8} | {:>8} | {:>13} | {:>11}",
            colf(p50, 1, 8).trim_start(),
            colf(p99, 1, 8).trim_start(),
            fired as u64,
            won as u64
        ));
        r.figure(&format!("p50_{mode}_ms"), p50);
        r.figure(&format!("p99_{mode}_ms"), p99);
        r.figure(&format!("hedges_fired_{mode}"), fired);
        r.figure(&format!("hedges_won_{mode}"), won);
    }
    r.row("hedging turns a stalled-attempt wait into one hedge delay; the median is untouched");
    r
}

/// A 40-request burst that runs head-first into a wizard link cut. The
/// 2.5 s request deadline must bound every resolution — unreachable
/// retries included — and service must resume once the link heals.
pub fn flashcrowd(seed: u64) -> Report {
    let mut r = Report::new(
        "hostile.flashcrowd",
        "request burst into a wizard link cut: deadlines bound every resolution",
    );
    let mut s = rig::sim();
    let tb = Testbed::builder(seed).start(&mut s);
    bind_services(&tb);
    let inj = tb.fault_injector();
    let plan = FaultPlan::new()
        .at(
            SimTime::from_secs_f64(15.2),
            FaultKind::LinkDown { a: "dalmatian".into(), b: "sw1".into() },
        )
        .at_secs(19, FaultKind::LinkUp { a: "dalmatian".into(), b: "sw1".into() });
    inj.schedule(&mut s, &plan);
    s.run_until(SimTime::from_secs(14));
    let client = tb.client("sagit");
    struct Res {
        latency_ms: f64,
        ok: bool,
        deadline: bool,
    }
    let done: Rc<RefCell<Vec<Res>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..40u64 {
        let at = SimTime::from_secs_f64(15.005 + 0.01 * i as f64);
        let client = client.clone();
        let done = Rc::clone(&done);
        s.schedule_at(at, move |s| {
            let mut spec = RequestSpec::new("host_cpu_bogomips > 1000\n", 1)
                .with_deadline(SimDuration::from_secs_f64(2.5));
            spec.timeout = SimDuration::from_secs(1);
            let issued = s.now();
            let done = Rc::clone(&done);
            client.request(s, spec, move |s, res| {
                done.borrow_mut().push(Res {
                    latency_ms: s.now().since(issued).as_millis_f64(),
                    ok: res.is_ok(),
                    deadline: matches!(res, Err(ClientError::DeadlineExceeded)),
                });
            });
        });
    }
    let watch = Rc::clone(&done);
    s.run_while(SimTime::from_secs(24), move || watch.borrow().len() < 40);
    s.run_until(SimTime::from_secs(25));
    let healed: Rc<RefCell<Option<bool>>> = Rc::new(RefCell::new(None));
    {
        let healed = Rc::clone(&healed);
        client.request(
            &mut s,
            RequestSpec::new("host_cpu_bogomips > 1000\n", 1),
            move |_s, res| {
                *healed.borrow_mut() = Some(res.is_ok());
            },
        );
    }
    let watch = Rc::clone(&healed);
    s.run_while(SimTime::from_secs(35), move || watch.borrow().is_none());

    let done = done.borrow();
    let resolved = done.len() as f64;
    let ok = done.iter().filter(|d| d.ok).count() as f64;
    let deadline_failures = done.iter().filter(|d| d.deadline).count() as f64;
    let max_latency = done.iter().map(|d| d.latency_ms).fold(0.0f64, f64::max);
    let post_heal_ok = if healed.borrow().unwrap_or(false) { 1.0 } else { 0.0 };
    r.row("burst of 40 requests at 10 ms spacing; link cut 0.2 s into the burst");
    r.row(format!(
        "resolved {resolved}/40: {ok} served, {deadline_failures} deadline-bounded failures"
    ));
    r.row(format!(
        "slowest resolution {} ms against a 2500 ms deadline; post-heal request {}",
        colf(max_latency, 1, 0).trim_start(),
        if post_heal_ok == 1.0 { "served" } else { "FAILED" }
    ));
    r.figure("burst_n", 40.0);
    r.figure("resolved", resolved);
    r.figure("served", ok);
    r.figure("deadline_failures", deadline_failures);
    r.figure("max_latency_ms", max_latency);
    r.figure("deadline_ms", 2500.0);
    r.figure("deadline_exceeded_counter", s.telemetry.counter("client-deadline-exceeded") as f64);
    r.figure("post_heal_ok", post_heal_ok);
    r
}

/// The flapping pool: `mimas` and `telesto` (the two in-range machines
/// behind the flapping links) plus steady `helene`. The deny list trims
/// the remaining in-range machines so the flappers keep being offered
/// until quarantine — not merely demoted below a deep healthy pool.
const FLAPPING_REQ: &str = "user_denied_host1 = phoebe\n\
                            user_denied_host2 = calypso\n\
                            user_denied_host3 = titan-x\n\
                            host_cpu_bogomips > 3000\n\
                            host_cpu_bogomips < 3500\n";

struct FlappingRun {
    ok: f64,
    quarantines: f64,
    quarantined_assignments: f64,
    outcome_reports: f64,
    mimas_selectable: bool,
    telesto_selectable: bool,
}

fn flapping_run(seed: u64, faulty: bool) -> FlappingRun {
    let mut s = rig::sim();
    let tb = Testbed::builder(seed).start(&mut s);
    bind_services(&tb);
    if faulty {
        let inj = tb.fault_injector();
        let mut plan = FaultPlan::new();
        for (host, sw) in [("mimas", "sw1"), ("telesto", "sw2")] {
            plan = plan.flapping_link(
                host,
                sw,
                SimTime::from_secs(10),
                SimTime::from_secs(22),
                SimDuration::from_secs(3),
                SimDuration::from_secs_f64(1.5),
            );
        }
        inj.schedule(&mut s, &plan);
    }
    s.run_until(SimTime::from_secs(10));
    let client = tb.client("sagit");
    let done: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..24u64 {
        let at = SimTime::from_secs_f64(10.25 + 0.5 * i as f64);
        let client = client.clone();
        let done = Rc::clone(&done);
        s.schedule_at(at, move |s| {
            let spec = RequestSpec::new(FLAPPING_REQ, 2);
            let reporter = client.clone();
            let done = Rc::clone(&done);
            client.request(s, spec, move |s, res| {
                let ok = match res {
                    Ok(socks) => {
                        // The application-level liveness check: connect_all
                        // only verifies the service port exists, so dead
                        // paths surface here — and feed the health table.
                        let mut all_live = !socks.is_empty();
                        for sock in &socks {
                            let live = sock.is_connected();
                            let outcome =
                                if live { OutcomeKind::Completed } else { OutcomeKind::Timeout };
                            reporter.report_outcome(s, sock.remote.ip, outcome);
                            all_live &= live;
                        }
                        all_live
                    }
                    Err(_) => false,
                };
                done.borrow_mut().push(ok);
            });
        });
    }
    let watch = Rc::clone(&done);
    s.run_while(SimTime::from_secs(40), move || watch.borrow().len() < 24);
    // Let the quarantine backoffs expire so re-admission is observable.
    s.run_until(SimTime::from_secs(45));
    let now = s.now();
    let engine = tb.wizard.engine();
    let health = engine.health();
    let ok = done.borrow().iter().filter(|&&ok| ok).count() as f64;
    FlappingRun {
        ok,
        quarantines: s.telemetry.counter("health-quarantines") as f64,
        quarantined_assignments: s.telemetry.counter("wizard-quarantined-assignments") as f64,
        outcome_reports: s.telemetry.counter("client-outcome-reports") as f64,
        mimas_selectable: health.selectable(tb.ip("mimas"), now),
        telesto_selectable: health.selectable(tb.ip("telesto"), now),
    }
}

/// Two access links flap through four 1.5 s outages while a request train
/// asks for the machines behind them. Quarantine must take the flappers
/// out of rotation after their failure reports (never assigning a
/// quarantined host), keep goodput on the healthy spare, and re-admit the
/// flappers once their quarantine lapses.
pub fn flapping(seed: u64) -> Report {
    let mut r = Report::new(
        "hostile.flapping",
        "flapping access links: quarantine absorbs the flappers, goodput survives",
    );
    let clean = flapping_run(seed, false);
    let hostile = flapping_run(seed, true);
    let goodput = if clean.ok > 0.0 { hostile.ok / clean.ok } else { 0.0 };
    r.row(format!("{:<34} | {:>9} | {:>9}", "metric", "clean", "flapping"));
    r.row(format!("{:<34} | {:>9} | {:>9}", "requests fully served (of 24)", clean.ok, hostile.ok));
    r.row(format!(
        "{:<34} | {:>9} | {:>9}",
        "quarantine transitions", clean.quarantines, hostile.quarantines
    ));
    r.row(format!(
        "{:<34} | {:>9} | {:>9}",
        "assignments while quarantined",
        clean.quarantined_assignments,
        hostile.quarantined_assignments
    ));
    r.row(format!(
        "flappers selectable again at t=45 s: mimas {}, telesto {}",
        hostile.mimas_selectable, hostile.telesto_selectable
    ));
    r.figure("requests", 24.0);
    r.figure("ok_clean", clean.ok);
    r.figure("ok_flapping", hostile.ok);
    r.figure("goodput_ratio", goodput);
    r.figure("quarantines", hostile.quarantines);
    r.figure("quarantined_assignments", hostile.quarantined_assignments);
    r.figure("outcome_reports", hostile.outcome_reports);
    r.figure("mimas_selectable_end", if hostile.mimas_selectable { 1.0 } else { 0.0 });
    r.figure("telesto_selectable_end", if hostile.telesto_selectable { 1.0 } else { 0.0 });
    r.figure("clean_quarantines", clean.quarantines);
    r
}

fn staleness_run(seed: u64, discount: bool) -> (usize, Vec<Ip>) {
    let mut s = rig::sim();
    let mut b = Testbed::builder(seed);
    if !discount {
        b = b.no_age_discount();
    }
    let tb = b.start(&mut s);
    bind_services(&tb);
    let inj = tb.fault_injector();
    let plan = FaultPlan::new().at(
        SimTime::from_secs_f64(20.1),
        FaultKind::DaemonKill { daemon: Daemon::Probe("helene".into()) },
    );
    inj.schedule(&mut s, &plan);
    s.run_until(SimTime::from_secs(5));
    // Load every machine except the two candidates, so only helene and
    // phoebe can satisfy `host_cpu_free > 0.5`.
    for name in tb.hosts.keys() {
        if name != "helene" && name != "phoebe" {
            tb.host(name).spawn_workload(&mut s, &Workload::super_pi(25)).expect("spawns");
        }
    }
    // After helene's probe dies its row freezes at "free"; then the
    // machine actually goes busy — the row is now a lie.
    let helene = tb.host("helene").clone();
    s.schedule_at(SimTime::from_secs_f64(20.5), move |s| {
        helene.spawn_workload(s, &Workload::super_pi(25)).expect("spawns");
    });
    let picks: Rc<RefCell<Vec<Ip>>> = Rc::new(RefCell::new(Vec::new()));
    for at in [24.5, 25.0, 25.5] {
        let client = tb.client("sagit");
        let picks = Rc::clone(&picks);
        s.schedule_at(SimTime::from_secs_f64(at), move |s| {
            let picks = Rc::clone(&picks);
            client.request(s, RequestSpec::new("host_cpu_free > 0.5\n", 1), move |_s, res| {
                let socks = res.expect("a candidate with a free CPU exists");
                picks.borrow_mut().push(socks[0].remote.ip);
            });
        });
    }
    let watch = Rc::clone(&picks);
    s.run_while(SimTime::from_secs(30), move || watch.borrow().len() < 3);
    let picks = picks.borrow().clone();
    let stale = picks.iter().filter(|&&ip| ip == tb.ip("helene")).count();
    (stale, picks)
}

/// A dead probe leaves a frozen "CPU free" row for a machine that has
/// since gone busy. With the freshness discount the wizard prefers the
/// identically-scored host with a *live* report; without it, address
/// order sends every request to the stale (and secretly busy) machine.
pub fn staleness(seed: u64) -> Report {
    let mut r = Report::new(
        "hostile.staleness",
        "frozen status row vs live one: the freshness discount steers selection",
    );
    let (discount_stale, discount_picks) = staleness_run(seed, true);
    let (legacy_stale, legacy_picks) = staleness_run(seed, false);
    r.row("helene's probe dies at t=20.1 s; helene then goes busy; its row still says free");
    r.row(format!(
        "{:<22} | {:>22} | {:>12}",
        "selection mode", "picks (3 requests)", "stale picks"
    ));
    let fmt_picks =
        |picks: &[Ip]| picks.iter().map(|ip| ip.to_string()).collect::<Vec<_>>().join(", ");
    r.row(format!(
        "{:<22} | {:>22} | {:>12}",
        "freshness discount",
        fmt_picks(&discount_picks),
        discount_stale
    ));
    r.row(format!(
        "{:<22} | {:>22} | {:>12}",
        "no discount (legacy)",
        fmt_picks(&legacy_picks),
        legacy_stale
    ));
    r.figure("discount_stale_picks", discount_stale as f64);
    r.figure("legacy_stale_picks", legacy_stale as f64);
    r.figure("requests", 3.0);
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn hedging_cuts_the_straggler_tail() {
        hold(&["hostile.straggler"]);
    }

    #[test]
    fn deadlines_bound_the_flash_crowd() {
        hold(&["hostile.flashcrowd"]);
    }

    #[test]
    fn quarantine_absorbs_flapping_links_without_collapsing_goodput() {
        hold(&["hostile.flapping"]);
    }

    #[test]
    fn freshness_discount_avoids_the_frozen_row() {
        hold(&["hostile.staleness"]);
    }
}
