//! Fig 1.4: the introduction's worked example.
//!
//! Twelve servers in four networks A–D with delays 100/5/10/15 ms; the
//! user asks for 3 servers with ≥100 MB free memory, CPU usage < 10%,
//! delay < 20 ms, and blacklists `hacker.some.net`. Expected result:
//! B2, C1 and D1 (all of A is too far; C2 is blacklisted; the rest fail
//! the resource requirements).

use smartsock_proto::{Ip, NetPathRecord, RequestOption, ServerStatusReport, UserRequest};
use smartsock_sim::SimTime;
use smartsock_wizard::{select, SelectPolicy, WizardEngine};

use crate::report::Report;

/// Pure matching — no network, no randomness, so the seed is unused.
pub fn fig1_4(_seed: u64) -> Report {
    let mut wizard = WizardEngine::new(
        Ip::new(10, 0, 0, 1),
        SelectPolicy { stale_max_age: None, ..Default::default() },
    );

    let client_ip = Ip::new(10, 0, 0, 2);
    let client_mon = Ip::new(10, 0, 0, 100);
    wizard.map_group(client_ip, client_mon);

    // Four networks with the figure's delays.
    let nets: [(&str, u8, f64); 4] =
        [("A", 1, 100.0), ("B", 2, 5.0), ("C", 3, 10.0), ("D", 4, 15.0)];
    let mb = |m: u64| m << 20;
    let mut expected = Vec::new();
    let mut listed = Vec::new();
    for (label, subnet, delay) in nets {
        let mon_ip = Ip::new(10, 0, subnet, 100);
        wizard.dbs_mut().net.upsert(NetPathRecord {
            from_monitor: client_mon,
            to_monitor: mon_ip,
            delay_ms: delay,
            bw_mbps: 90.0,
            timestamp_ns: 0,
        });
        for i in 1..=3u8 {
            let name = format!("{}{}", label.to_lowercase(), i);
            let ip = Ip::new(10, 0, subnet, i);
            wizard.map_group(ip, mon_ip);
            let mut rep = ServerStatusReport::empty(name.as_str(), ip);
            // Qualification pattern per Fig 1.4: server 1 of each network
            // has the resources; server 2 of B fails memory except B2 —
            // keep it simple and faithful: B2, C1, C2, D1 have resources,
            // C2 is the blacklisted "hacker.some.net" machine.
            let qualified = matches!((label, i), ("B", 2) | ("C", 1) | ("C", 2) | ("D", 1));
            rep.mem_free = if qualified { mb(200) } else { mb(40) };
            rep.cpu_idle = if qualified { 0.97 } else { 0.75 };
            wizard.dbs_mut().sys.upsert(rep, SimTime::ZERO);
            if matches!((label, i), ("B", 2) | ("C", 1) | ("D", 1)) {
                expected.push(ip);
            }
            listed.push((name, label, delay, qualified));
        }
    }
    // The blacklisted host: C2 is "hacker.some.net" — deny by address.
    let requirement = "\
host_memory_free >= 100*1024*1024
host_cpu_free > 0.9
monitor_network_delay < 20
user_denied_host1 = 10.0.3.2
";
    let req = UserRequest {
        seq: 1,
        server_num: 3,
        option: RequestOption::DEFAULT,
        detail: requirement.to_owned(),
    };
    let got = select(&wizard.view(), wizard.policy(), SimTime::ZERO, &req, client_ip);

    let mut r = Report::new("fig1.4", "Worked example: 3 servers from networks A–D");
    r.row("requirement: mem_free >= 100MB, cpu_free > 0.9, delay < 20ms, deny hacker (C2)");
    for (name, label, delay, qualified) in listed {
        r.row(format!(
            "  {name} (net {label}, {delay} ms): {}",
            if name == "c2" {
                "resources ok but BLACKLISTED"
            } else if label == "A" {
                "eliminated (delay 100 ms)"
            } else if qualified {
                "QUALIFIED"
            } else {
                "fails resource requirement"
            }
        ));
    }
    r.row(format!(
        "selected: {}",
        got.iter().map(|e| e.ip.to_string()).collect::<Vec<_>>().join(", ")
    ));
    r.row("paper: B2, C1 and D1 are chosen; C2 is skipped as blacklisted");
    r.figure("selected_count", got.len() as f64);
    let matches_expected =
        got.len() == 3 && expected.iter().all(|ip| got.iter().any(|e| e.ip == *ip));
    r.figure("matches_paper", if matches_expected { 1.0 } else { 0.0 });
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn the_introduction_example_selects_b2_c1_d1() {
        hold(&["fig1.4"]);
    }
}
