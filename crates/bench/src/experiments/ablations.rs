//! Ablation studies for the design choices DESIGN.md calls out — beyond
//! the paper's own tables.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::RequestSpec;
use smartsock::Testbed;
use smartsock_apps::massd::{FileServer, Massd, MassdParams};
use smartsock_hostsim::Workload;
use smartsock_sim::{SimDuration, SimTime};

use crate::experiments::rig;
use crate::report::{colf, Report};

/// Sequential vs parallel block fetching in massd — quantifies the
/// concurrency inference discussed in EXPERIMENTS.md: the paper's numbers
/// match the sequential discipline; parallel fetching would have been
/// nearly additive.
pub fn fetch_mode(seed: u64) -> Report {
    let mut r = Report::new(
        "ablation.fetch",
        "massd fetch discipline: sequential (paper) vs parallel (ablation)",
    );
    r.row(format!("{:<24} | {:>16} | {:>16}", "server set", "sequential KB/s", "parallel KB/s"));
    for (label, caps) in [
        ("2 servers @ 5 Mbps", vec![5.0, 5.0]),
        ("2 @ 5.01 + 7.67 Mbps", vec![5.01, 7.67]),
        ("3 servers @ 6 Mbps", vec![6.0, 6.0, 6.0]),
    ] {
        let mut results = Vec::new();
        for parallel in [false, true] {
            let mut s = rig::sim();
            let tb = Testbed::builder(seed).start(&mut s);
            let servers = ["mimas", "telesto", "lhost"];
            let mut eps = Vec::new();
            for (name, cap) in servers.iter().zip(&caps) {
                FileServer::install(&tb.net, tb.host(name), tb.service_endpoint(name));
                tb.set_rshaper(name, Some(*cap));
                eps.push(tb.service_endpoint(name));
            }
            eps.truncate(caps.len());
            s.run_until(SimTime::from_secs(2));
            let params = if parallel {
                MassdParams::paper(20_000, 100).parallel()
            } else {
                MassdParams::paper(20_000, 100)
            };
            let got = Rc::new(RefCell::new(None));
            let g = Rc::clone(&got);
            Massd::run(&mut s, &tb.net, tb.ip("sagit"), &eps, params, move |_s, st| {
                *g.borrow_mut() = Some(st.throughput_kbps());
            });
            let watch = Rc::clone(&got);
            s.run_while(SimTime::from_secs(1_000_000), move || watch.borrow().is_none());
            results.push(got.borrow().expect("completes"));
        }
        r.row(format!(
            "{label:<24} | {:>16} | {:>16}",
            colf(results[0], 0, 16).trim_start(),
            colf(results[1], 0, 16).trim_start()
        ));
        let key = label.split(' ').next().unwrap_or("x");
        r.figure(&format!("seq_{key}_{}", caps.len()), results[0]);
        r.figure(&format!("par_{key}_{}", caps.len()), results[1]);
    }
    r
}

/// Selection quality versus probe interval: a load spike lands on the
/// fastest machine; how quickly the wizard stops offering it depends on
/// how fresh the reports are.
pub fn staleness(seed: u64) -> Report {
    let mut r = Report::new(
        "ablation.staleness",
        "probe interval vs reaction to a load spike on the best server",
    );
    r.row(format!(
        "{:<18} | {:>22} | {:>10}",
        "probe interval", "request at spike + (s)", "avoided?"
    ));
    for interval_s in [1u64, 2, 5, 10] {
        for delay_s in [1u64, 3, 12] {
            let mut s = rig::sim();
            let tb = Testbed::builder(seed)
                .probe_interval(SimDuration::from_secs(interval_s))
                .start(&mut s);
            for host in tb.hosts.values() {
                tb.net.bind_stream(
                    smartsock_proto::Endpoint::new(
                        host.ip(),
                        smartsock_proto::consts::ports::SERVICE,
                    ),
                    |_s, _m| {},
                );
            }
            s.run_until(SimTime::from_secs(30));
            // Spike: SuperPI lands on dalmatian (a bogomips>4000 machine).
            tb.host("dalmatian").spawn_workload(&mut s, &Workload::super_pi(25)).unwrap();
            s.run_until(SimTime::from_secs(30 + delay_s));
            let client = tb.client("sagit");
            let got = Rc::new(RefCell::new(None));
            let g = Rc::clone(&got);
            client.request(
                &mut s,
                RequestSpec::new("host_cpu_free > 0.9\nhost_cpu_bogomips > 4000\n", 2),
                move |_s, res| *g.borrow_mut() = Some(res),
            );
            let watch = Rc::clone(&got);
            let deadline = s.now() + SimDuration::from_secs(40);
            s.run_while(deadline, move || watch.borrow().is_none());
            let res = got.borrow_mut().take().expect("reply");
            let picked_busy = match &res {
                Ok(socks) => socks.iter().any(|k| k.remote.ip == tb.ip("dalmatian")),
                Err(_) => false,
            };
            let avoided = !picked_busy;
            r.row(format!(
                "{:<18} | {:>22} | {:>10}",
                format!("{interval_s} s"),
                delay_s,
                if avoided { "yes" } else { "no (stale)" }
            ));
            r.figure(&format!("avoided_i{interval_s}_d{delay_s}"), if avoided { 1.0 } else { 0.0 });
        }
    }
    r.row("short probe intervals react within one report; long intervals serve stale candidates");
    r
}

/// The paper's three probe-size rules, validated head-to-head at equal ΔS.
pub fn probe_size_rules(seed: u64) -> Report {
    let (net, from, to) = rig::campus_pair(seed, 1500);
    let truth = net.path_available_bw(from, to).unwrap() / 1e6;
    let mut s = rig::sim();
    let mut r = Report::new("ablation.probesize", "probe-size rules at equal delta-S = 1300 bytes");
    r.row(format!("{:<28} | {:>9} | {:>10}", "pair (property)", "est Mbps", "err vs 95"));
    let cases: [(&str, u64, u64); 3] = [
        ("300~1600 (S1 below MTU)", 300, 1600),
        ("2960~4260 (frags 3 vs 3)", 2960, 4260),
        ("1600~2900 (frags 2 vs 2)", 1600, 2900),
    ];
    for (i, (label, s1, s2)) in cases.iter().enumerate() {
        let (_, _, avg) = rig::bw_stats_mbps(&net, &mut s, from, to, *s1, *s2, 24).unwrap();
        let err = (avg - truth).abs() / truth * 100.0;
        r.row(format!(
            "{label:<28} | {:>9} | {:>9}%",
            colf(avg, 1, 9).trim_start(),
            colf(err, 1, 9).trim_start()
        ));
        r.figure(&format!("case{i}_err_pct"), err);
        r.figure(&format!("case{i}_avg"), avg);
    }
    r.row("rule 1 violated ⇒ gross underestimate; equal-fragment pairs are the most accurate");
    r
}

/// Estimator comparison — the Table 3.3 reference rows, live: the thesis's
/// one-way UDP stream method against reimplementations of its two
/// comparators, pipechar (packet pair) and pathload (SLoPS), across path
/// conditions.
pub fn estimators(seed: u64) -> Report {
    use smartsock::monitor::{iperf, pathload, pipechar};
    let mut r = Report::new(
        "ablation.estimators",
        "one-way UDP stream vs pipechar (packet pair) vs pathload (SLoPS) vs iperf (flooding)",
    );
    r.row(format!(
        "{:<26} | {:>7} | {:>9} | {:>9} | {:>9} | {:>9}",
        "path", "truth", "one-way", "pipechar", "slops", "iperf"
    ));
    let build = |rate_mbps: f64, cross: f64| {
        let mut b = smartsock::net::NetworkBuilder::new(seed ^ (rate_mbps as u64));
        let a = b.host(
            "a",
            smartsock::proto::Ip::new(10, 0, 0, 1),
            smartsock::net::HostParams::testbed(),
        );
        let router = b.router("r", smartsock::proto::Ip::new(10, 0, 0, 254));
        let c = b.host(
            "c",
            smartsock::proto::Ip::new(10, 0, 1, 1),
            smartsock::net::HostParams::testbed(),
        );
        b.duplex(a, router, smartsock::net::LinkParams::lan_100mbps());
        b.duplex(
            router,
            c,
            smartsock::net::LinkParams::lan_100mbps()
                .with_rate(rate_mbps * 1e6)
                .with_cross_load(cross),
        );
        (b.build(), a, c)
    };
    for (label, rate_mbps, cross) in [
        ("quiet 100 Mbps", 100.0f64, 0.05),
        ("quiet 30 Mbps", 30.0, 0.0),
        ("loaded 100 Mbps (30%)", 100.0, 0.30),
        ("shaped 8 Mbps", 8.0, 0.0),
    ] {
        let (net, a, c) = build(rate_mbps, cross);
        let truth = net.path_available_bw(a, c).unwrap() / 1e6;
        let mut s = rig::sim();

        // One-way UDP stream (the paper's method), 10 pairs.
        let one_way = {
            let mut samples = Vec::new();
            for _ in 0..10 {
                if let Some(bw) = rig::bw_sample_mbps(&net, &mut s, a, c, 1600, 2900) {
                    samples.push(bw);
                }
            }
            samples.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
            samples[samples.len() / 2]
        };

        // pipechar.
        let pc = Rc::new(RefCell::new(None));
        let g = Rc::clone(&pc);
        pipechar::estimate(&mut s, &net, a, c, move |_s, e| *g.borrow_mut() = Some(e));
        s.run();
        let pc = pc.borrow_mut().take().flatten().unwrap_or(f64::NAN);

        // SLoPS.
        let sl = Rc::new(RefCell::new(None));
        let g = Rc::clone(&sl);
        pathload::estimate(&mut s, &net, a, c, move |_s, e| *g.borrow_mut() = Some(e));
        s.run();
        let sl = sl.borrow_mut().take().unwrap_or(f64::NAN);

        // iperf: the flood cannot be stopped mid-flow, so it gets a fresh
        // copy of the path (intrusiveness demonstrated in the iperf tests).
        let (net2, a2, c2) = build(rate_mbps, cross);
        let mut s2 = rig::sim();
        let ipf = Rc::new(RefCell::new(None));
        let g = Rc::clone(&ipf);
        iperf::estimate(&mut s2, &net2, a2, c2, move |_s, e| *g.borrow_mut() = Some(e));
        s2.run_until(SimTime::from_secs(4));
        let ipf = ipf.borrow_mut().take().flatten().unwrap_or(f64::NAN);

        r.row(format!(
            "{label:<26} | {:>7} | {:>9} | {:>9} | {:>9} | {:>9}",
            colf(truth, 1, 7).trim_start(),
            colf(one_way, 1, 9).trim_start(),
            colf(pc, 1, 9).trim_start(),
            colf(sl, 1, 9).trim_start(),
            colf(ipf, 1, 9).trim_start()
        ));
        let key = rate_mbps as u64;
        r.figure(&format!("truth_{key}_{}", (cross * 100.0) as u64), truth);
        r.figure(&format!("oneway_{key}_{}", (cross * 100.0) as u64), one_way);
        r.figure(&format!("pipechar_{key}_{}", (cross * 100.0) as u64), pc);
        r.figure(&format!("slops_{key}_{}", (cross * 100.0) as u64), sl);
        r.figure(&format!("iperf_{key}_{}", (cross * 100.0) as u64), ipf);
    }
    r.row("pipechar reads raw capacity under load (paper: 'highly sensitive to delay variations'); slops and one-way track availability; iperf is accurate but floods the path");
    r
}

/// Static round-robin vs on-demand tile dispatch over a heterogeneous
/// worker set — the §6 "task division module" direction quantified.
pub fn schedule(seed: u64) -> Report {
    use smartsock_apps::matmul::{MatmulMaster, MatmulParams, MatmulWorker, Schedule};
    use smartsock_proto::Endpoint;

    let mut r = Report::new(
        "ablation.schedule",
        "matmul dispatch: static round-robin (paper) vs on-demand queue",
    );
    r.row(format!("{:<34} | {:>11} | {:>11}", "worker set", "static (s)", "dynamic (s)"));
    for (label, set) in [
        ("homogeneous (4x P4-1.7)", ["helene", "phoebe", "calypso", "titan-x"]),
        ("heterogeneous (2x P4-2.4 + 2x P3)", ["dalmatian", "dione", "sagit", "lhost"]),
        ("skewed (1x P4-2.4 + 3x P4-1.6..7)", ["dione", "telesto", "mimas", "phoebe"]),
    ] {
        let mut times = Vec::new();
        for sched in [Schedule::RoundRobinStatic, Schedule::OnDemand] {
            let mut s = rig::sim();
            let tb = Testbed::builder(seed).start(&mut s);
            let eps: Vec<Endpoint> = set
                .iter()
                .map(|n| {
                    MatmulWorker::install(&tb.net, tb.host(n), tb.service_endpoint(n));
                    tb.service_endpoint(n)
                })
                .collect();
            s.run_until(SimTime::from_secs(5));
            let got = Rc::new(RefCell::new(None));
            let g = Rc::clone(&got);
            MatmulMaster::run_with(
                &mut s,
                &tb.net,
                tb.ip("pandora-x"),
                &eps,
                MatmulParams::new(1500, 200),
                sched,
                move |_s, st| *g.borrow_mut() = Some(st.elapsed_secs()),
            );
            let watch = Rc::clone(&got);
            s.run_while(SimTime::from_secs(100_000), move || watch.borrow().is_none());
            times.push(got.borrow().expect("completes"));
        }
        r.row(format!(
            "{label:<34} | {:>11} | {:>11}",
            colf(times[0], 2, 11).trim_start(),
            colf(times[1], 2, 11).trim_start()
        ));
        let key = label.split(' ').next().unwrap_or("x");
        r.figure(&format!("static_{key}"), times[0]);
        r.figure(&format!("dynamic_{key}"), times[1]);
    }
    r.row("on-demand dispatch absorbs heterogeneity; static splits pay for the slowest worker");
    r
}

/// Matmul scaling: execution time vs worker count. Quantifies the §5.3.1
/// observation behind Table 5.5's shrinking gain — "the increased
/// communication overhead with 6 servers during computation".
pub fn scaling(seed: u64) -> Report {
    use smartsock_apps::matmul::{MatmulMaster, MatmulParams, MatmulWorker};
    use smartsock_proto::Endpoint;

    let mut r = Report::new(
        "ablation.scaling",
        "distributed matmul time vs worker count (identical P4-1.7 workers)",
    );
    r.row(format!(
        "{:<8} | {:>10} | {:>9} | {:>11}",
        "workers", "time (s)", "speedup", "efficiency"
    ));
    let params = MatmulParams::new(1500, 200);
    let mut t1 = None;
    for k in [1usize, 2, 4, 6, 8] {
        let mut s = rig::sim();
        let tb = Testbed::builder(seed).start(&mut s);
        // Use only the P4-1.7 class machines plus clones? The testbed has
        // five P4-1.7s; for k > 5 include the 1.6/1.8 ones (close enough
        // for the trend).
        let pool =
            ["helene", "phoebe", "calypso", "titan-x", "mimas", "pandora-x", "telesto", "lhost"];
        let workers: Vec<Endpoint> = pool[..k]
            .iter()
            .map(|n| {
                MatmulWorker::install(&tb.net, tb.host(n), tb.service_endpoint(n));
                tb.service_endpoint(n)
            })
            .collect();
        s.run_until(SimTime::from_secs(5));
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        MatmulMaster::run(&mut s, &tb.net, tb.ip("sagit"), &workers, params, move |_s, st| {
            *g.borrow_mut() = Some(st.elapsed_secs());
        });
        let watch = Rc::clone(&got);
        s.run_while(SimTime::from_secs(100_000), move || watch.borrow().is_none());
        let t = got.borrow().expect("completes");
        let base = *t1.get_or_insert(t);
        let speedup = base / t;
        let efficiency = speedup / k as f64;
        r.row(format!(
            "{k:<8} | {:>10} | {:>9} | {:>10}%",
            colf(t, 2, 10).trim_start(),
            colf(speedup, 2, 9).trim_start(),
            colf(efficiency * 100.0, 1, 10).trim_start()
        ));
        r.figure(&format!("time_{k}"), t);
        r.figure(&format!("efficiency_{k}"), efficiency);
    }
    r.row("efficiency decays with group size: transfers and stragglers eat the gain (the Table 5.5 effect)");
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn parallel_fetch_is_roughly_additive_and_sequential_is_not() {
        hold(&["ablation.fetch"]);
    }

    #[test]
    fn fresh_probes_avoid_the_spiked_server_and_stale_ones_do_not() {
        hold(&["ablation.staleness"]);
    }

    #[test]
    fn all_three_estimators_agree_on_quiet_paths() {
        hold(&["ablation.estimators"]);
    }

    #[test]
    fn dynamic_dispatch_wins_on_heterogeneous_sets() {
        hold(&["ablation.schedule"]);
    }

    #[test]
    fn scaling_speedup_is_monotone_but_efficiency_decays() {
        hold(&["ablation.scaling"]);
    }

    #[test]
    fn rule_violations_rank_by_error() {
        hold(&["ablation.probesize"]);
    }
}
