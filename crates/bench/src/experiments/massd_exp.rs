//! Tables 5.7–5.9 (and Figs 5.4–5.6): massd with two shaped server groups.
//!
//! Six file servers: group-1 = {mimas, telesto, lhost}, group-2 =
//! {dione, titan-x, pandora-x}; each group's machines are shaped to its
//! bandwidth. The client (`sagit`) either picks randomly (the paper's
//! listed draws) or asks the wizard for `monitor_network_bw > X` — the
//! network monitors having measured the shaped paths with the one-way UDP
//! stream method.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::Testbed;
use smartsock_apps::massd::{FileServer, Massd, MassdParams};
use smartsock_proto::Endpoint;
use smartsock_sim::{Scheduler, SimTime};

use crate::experiments::rig;
use crate::report::{colf, Report};

const GROUP1: [&str; 3] = ["mimas", "telesto", "lhost"];
const GROUP2: [&str; 3] = ["dione", "titan-x", "pandora-x"];

struct Arm {
    label: &'static str,
    servers: &'static [&'static str],
    paper_kbps: f64,
}

struct Exp {
    id: &'static str,
    title: &'static str,
    group1_mbps: f64,
    group2_mbps: f64,
    n_servers: usize,
    requirement: &'static str,
    random_arms: &'static [Arm],
    paper_smart_kbps: f64,
    paper_smart_servers: &'static [&'static str],
}

/// Bring up the two-group deployment with shaping applied and the network
/// monitors warmed up.
fn deployment(seed: u64, g1_mbps: f64, g2_mbps: f64) -> (rig::Sim, Testbed) {
    let mut s = rig::sim();
    let tb = Testbed::builder(seed)
        .group("sagit", &["sagit"])
        .group("mimas", &GROUP1)
        .group("dione", &GROUP2)
        .start(&mut s);
    for name in GROUP1.iter().chain(GROUP2.iter()) {
        FileServer::install(&tb.net, tb.host(name), tb.service_endpoint(name));
        let mbps = if GROUP1.contains(name) { g1_mbps } else { g2_mbps };
        tb.set_rshaper(name, Some(mbps));
    }
    // Let the monitors take several probing rounds over the shaped paths
    // and the transmitter ship the records to the wizard machine.
    s.run_until(SimTime::from_secs(40));
    (s, tb)
}

fn run_download(s: &mut Scheduler, tb: &Testbed, servers: &[Endpoint]) -> f64 {
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    Massd::run(
        s,
        &tb.net,
        tb.ip("sagit"),
        servers,
        MassdParams::paper(50_000, 100),
        move |_s, stats| *g.borrow_mut() = Some(stats.throughput_kbps()),
    );
    let watch = Rc::clone(&got);
    s.run_while(SimTime::from_secs(1_000_000), move || watch.borrow().is_none());
    let t = got.borrow().expect("download completes");
    t
}

fn run_exp(exp: &Exp, seed: u64) -> Report {
    let mut r = Report::new(exp.id, exp.title.to_owned());
    r.row(format!(
        "group-1 {} Mbps ({}), group-2 {} Mbps ({}); 50000 KB by 100 KB; req: {}",
        exp.group1_mbps,
        GROUP1.join("/"),
        exp.group2_mbps,
        GROUP2.join("/"),
        exp.requirement.trim()
    ));
    r.row(format!("{:<28} | {:>14} | {:>12}", "arm (servers)", "measured KB/s", "paper KB/s"));
    for (i, arm) in exp.random_arms.iter().enumerate() {
        let (mut s, tb) = deployment(seed, exp.group1_mbps, exp.group2_mbps);
        let eps: Vec<Endpoint> = arm.servers.iter().map(|n| tb.service_endpoint(n)).collect();
        let kbps = run_download(&mut s, &tb, &eps);
        r.row(format!(
            "{:<28} | {:>14} | {:>12}",
            format!("{} ({})", arm.label, arm.servers.join(", ")),
            colf(kbps, 0, 14).trim_start(),
            colf(arm.paper_kbps, 0, 12).trim_start()
        ));
        r.figure(&format!("random{i}_kbps"), kbps);
    }

    // A failed selection is a report: no server and no throughput.
    let (mut s, tb) = deployment(seed, exp.group1_mbps, exp.group2_mbps);
    let picked = rig::smart_pick(&mut s, &tb, exp.requirement, 60);
    let eps: Vec<Endpoint> = picked.iter().flatten().take(exp.n_servers).copied().collect();
    let names = rig::names_of(&tb, &eps);
    let kbps = if eps.is_empty() { f64::NAN } else { run_download(&mut s, &tb, &eps) };
    r.row(format!(
        "{:<28} | {:>14} | {:>12}",
        match &picked {
            Ok(_) => format!("smart ({})", names.join(", ")),
            Err(e) => format!("smart (failed: {e})"),
        },
        colf(kbps, 0, 14).trim_start(),
        colf(exp.paper_smart_kbps, 0, 12).trim_start()
    ));
    r.row(format!("paper smart servers: {}", exp.paper_smart_servers.join(", ")));
    r.figure("smart_kbps", kbps);
    r.figure("smart_count", eps.len() as f64);
    let fast_group: &[&str] = if exp.group1_mbps > exp.group2_mbps { &GROUP1 } else { &GROUP2 };
    let fast = |n: &String| fast_group.iter().any(|f| f.eq_ignore_ascii_case(n));
    let all_fast = !names.is_empty() && names.iter().all(fast);
    r.figure("smart_all_fast", if all_fast { 1.0 } else { 0.0 });
    r
}

/// Table 5.7 / Fig 5.4: one server.
pub fn table5_7(seed: u64) -> Report {
    run_exp(
        &Exp {
            id: "table5.7",
            title: "massd 1 vs 1 (groups at 6.72 / 1.33 Mbps)",
            group1_mbps: 6.72,
            group2_mbps: 1.33,
            n_servers: 1,
            requirement: "monitor_network_bw > 6\n",
            random_arms: &[Arm { label: "random", servers: &["pandora-x"], paper_kbps: 170.0 }],
            paper_smart_kbps: 860.0,
            paper_smart_servers: &["lhost"],
        },
        seed,
    )
}

/// Table 5.8 / Fig 5.5: two servers.
pub fn table5_8(seed: u64) -> Report {
    run_exp(
        &Exp {
            id: "table5.8",
            title: "massd 2 vs 2 (groups at 5.01 / 7.67 Mbps)",
            group1_mbps: 5.01,
            group2_mbps: 7.67,
            n_servers: 2,
            requirement: "monitor_network_bw > 7\n",
            random_arms: &[
                Arm { label: "random1", servers: &["mimas", "telesto"], paper_kbps: 660.0 },
                Arm { label: "random2", servers: &["telesto", "titan-x"], paper_kbps: 795.0 },
            ],
            paper_smart_kbps: 994.0,
            paper_smart_servers: &["titan-x", "pandora-x"],
        },
        seed,
    )
}

/// Table 5.9 / Fig 5.6: three servers.
pub fn table5_9(seed: u64) -> Report {
    run_exp(
        &Exp {
            id: "table5.9",
            title: "massd 3 vs 3 (groups at 5.99 / 2.92 Mbps)",
            group1_mbps: 5.99,
            group2_mbps: 2.92,
            n_servers: 3,
            requirement: "monitor_network_bw > 5\n",
            random_arms: &[
                Arm {
                    label: "random1",
                    servers: &["dione", "titan-x", "pandora-x"],
                    paper_kbps: 387.0,
                },
                Arm {
                    label: "random2",
                    servers: &["mimas", "titan-x", "dione"],
                    paper_kbps: 520.0,
                },
                Arm {
                    label: "random3",
                    servers: &["telesto", "mimas", "dione"],
                    paper_kbps: 634.0,
                },
            ],
            paper_smart_kbps: 796.0,
            paper_smart_servers: &["lhost", "telesto", "mimas"],
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn table_5_7_smart_finds_the_fast_group() {
        hold(&["table5.7"]);
    }

    #[test]
    fn table_5_8_ordering_matches_fig_5_5() {
        hold(&["table5.8"]);
    }

    #[test]
    fn table_5_9_ordering_matches_fig_5_6() {
        hold(&["table5.9"]);
    }

    /// At this seed every server the wizard offers refuses the connect:
    /// the smart arm reports no server and no throughput, and the claims
    /// reject that.
    #[test]
    fn a_failed_smart_selection_is_a_report_the_claims_reject() {
        let report = super::table5_9(36);
        assert_eq!(report.figures["smart_count"], 0.0);
        assert!(report.figures["smart_kbps"].is_nan());
        let violations = crate::shapes::check("table5.9", &report).expect("table5.9 has claims");
        assert!(violations.iter().any(|v| v.contains("smart_count")), "{violations:?}");
    }
}
