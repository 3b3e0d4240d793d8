//! Table 3.4: the network monitors' (delay, bandwidth) record matrix.
//!
//! Three server groups, each with a network monitor; after the sequential
//! probing loops run for a while, every monitor holds a record per
//! neighbour — the exact table of §3.3.3.

use smartsock_monitor::NetworkMonitor;
use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
use smartsock_proto::Ip;
use smartsock_sim::{SimDuration, SimTime};

use crate::experiments::rig;
use crate::report::{colf, Report};

pub fn table3_4(seed: u64) -> Report {
    // Three groups joined by a core router; group 3 sits behind a slower
    // 30 Mbps uplink so the matrix shows distinct numbers.
    let mut b = NetworkBuilder::new(seed);
    let core = b.router("core", Ip::new(10, 0, 0, 254));
    let mons: Vec<Ip> = (1..=3u8).map(|g| Ip::new(10, 0, g, 1)).collect();
    for (g, &ip) in mons.iter().enumerate() {
        let node = b.host(&format!("netmon-{}", g + 1), ip, HostParams::testbed());
        let params = if g == 2 {
            LinkParams::lan_100mbps().with_rate(30e6).with_prop_delay(SimDuration::from_millis(2))
        } else {
            LinkParams::lan_100mbps().with_cross_load(0.05)
        };
        b.duplex(node, core, params);
    }
    let net = b.build();

    let mut s = rig::sim();
    let mut monitors = Vec::new();
    for &ip in &mons {
        let pairs = NetworkMonitor::DEFAULT_PAIRS_PER_ROUND;
        let m = NetworkMonitor::new(ip, net.clone(), Default::default(), pairs);
        for &peer in &mons {
            m.add_peer(peer);
        }
        m.start(&mut s);
        monitors.push(m);
    }
    s.run_until(SimTime::from_secs(30));

    let mut r = Report::new("table3.4", "Sample network monitor records (delay ms, bw Mbps)");
    r.row(format!("{:<10} | {:<28} | {:<28}", "monitor", "peer records", ""));
    for (g, m) in monitors.iter().enumerate() {
        let mut cells = Vec::new();
        for (pg, &peer) in mons.iter().enumerate() {
            if peer == mons[g] {
                continue;
            }
            let cell = match m.dbs().borrow().net.get(mons[g], peer) {
                Some(rec) => {
                    r.figure(&format!("m{}to{}_bw", g + 1, pg + 1), rec.bw_mbps);
                    r.figure(&format!("m{}to{}_delay", g + 1, pg + 1), rec.delay_ms);
                    format!(
                        "mon{}({} ms, {} Mbps)",
                        pg + 1,
                        colf(rec.delay_ms, 2, 0).trim(),
                        colf(rec.bw_mbps, 1, 0).trim()
                    )
                }
                None => format!("mon{}(pending)", pg + 1),
            };
            cells.push(cell);
        }
        r.row(format!(
            "netmon-{:<3} | {:<28} | {:<28}",
            g + 1,
            cells.first().cloned().unwrap_or_default(),
            cells.get(1).cloned().unwrap_or_default()
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn slow_group_paths_read_slower_and_longer() {
        hold(&["table3.4"]);
    }
}
