//! Shared measurement rigs: the campus pair of Figs 3.3–3.5/Table 3.3 and
//! the six network paths of Table 3.2/Fig 3.6.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::{ClientError, RequestSpec};
use smartsock::Testbed;
use smartsock_net::{HostParams, LinkParams, Network, NetworkBuilder, NodeId, Payload};
use smartsock_proto::consts::ports;
use smartsock_proto::{Endpoint, Ip};
use smartsock_sim::{Scheduler, SimDuration};

pub use crate::profiled::{sim, Sim};

/// The `sagit → suna` campus path of §3.3.2: two 100 Mbps hops with light
/// cross traffic (≈95 Mbps available, matching the paper's pathload
/// reference of 96.1–101.3 Mbps).
pub fn campus_pair(seed: u64, mtu: u32) -> (Network, NodeId, NodeId) {
    let mut b = NetworkBuilder::new(seed);
    let sagit = b.host("sagit", Ip::new(137, 132, 81, 2), HostParams::testbed().with_mtu(mtu));
    let gw = b.router("gw-a-15", Ip::new(137, 132, 81, 6));
    let suna = b.host("suna", Ip::new(137, 132, 82, 2), HostParams::testbed());
    b.duplex(sagit, gw, LinkParams::lan_100mbps().with_cross_load(0.05));
    b.duplex(gw, suna, LinkParams::lan_100mbps().with_cross_load(0.05));
    (b.build(), sagit, suna)
}

/// The six network paths of Table 3.2, as one topology. Returns the
/// network and the (from, to, label, paper-RTT-ms) tuples in paper order.
pub fn six_paths(seed: u64) -> (Network, Vec<(NodeId, NodeId, &'static str, f64)>) {
    let mut b = NetworkBuilder::new(seed);
    let sagit = b.host("sagit", Ip::new(137, 132, 81, 2), HostParams::testbed());
    let campus = b.router("campus", Ip::new(137, 132, 81, 6));
    b.duplex(sagit, campus, LinkParams::lan_100mbps().with_cross_load(0.05));

    // (c) local network segment: sagit → ubin, 0.262 ms by ping.
    let ubin = b.host("ubin", Ip::new(137, 132, 81, 3), HostParams::testbed());
    b.duplex(ubin, campus, LinkParams::lan_100mbps().with_prop_delay(SimDuration::from_micros(40)));

    // (a) NUS → APAN Japan: 126 ms.
    let wan_jp = b.router("singaren-jp", Ip::new(202, 3, 135, 1));
    b.duplex(campus, wan_jp, LinkParams::wan(125.0));
    let tokxp = b.host("tokxp", Ip::new(203, 178, 1, 10), HostParams::testbed());
    b.duplex(tokxp, wan_jp, LinkParams::lan_100mbps());

    // (b) NUS → CMU USA: 238 ms.
    let wan_us = b.router("abilene", Ip::new(198, 32, 8, 1));
    b.duplex(campus, wan_us, LinkParams::wan(237.0));
    let cmui = b.host("cmui", Ip::new(128, 2, 220, 137), HostParams::testbed());
    b.duplex(cmui, wan_us, LinkParams::lan_100mbps());

    // (d) APAN Japan → ftp server in Japan: 0.552 ms.
    let jpfreebsd = b.host("jpfreebsd", Ip::new(203, 178, 2, 20), HostParams::testbed());
    b.duplex(
        jpfreebsd,
        wan_jp,
        LinkParams::lan_100mbps().with_prop_delay(SimDuration::from_micros(150)),
    );

    // (e) same switch: helene → atlas, 0.196 ms.
    let lab = b.router("lab-switch", Ip::new(192, 168, 3, 254));
    let helene = b.host("helene", Ip::new(192, 168, 3, 10), HostParams::testbed());
    let atlas = b.host("atlas", Ip::new(192, 168, 3, 11), HostParams::testbed());
    b.duplex(helene, lab, LinkParams::lan_100mbps().with_prop_delay(SimDuration::from_micros(15)));
    b.duplex(atlas, lab, LinkParams::lan_100mbps().with_prop_delay(SimDuration::from_micros(15)));

    let net = b.build();
    let paths = vec![
        (sagit, tokxp, "a: sagit -> tokxp", 126.0),
        (sagit, cmui, "b: sagit -> cmui", 238.0),
        (sagit, ubin, "c: sagit -> ubin", 0.262),
        (tokxp, jpfreebsd, "d: tokxp -> jpfreebsd", 0.552),
        (helene, atlas, "e: helene -> atlas", 0.196),
        (sagit, sagit, "f: sagit -> localhost", 0.041),
    ];
    (net, paths)
}

/// Synchronously measure the RTT of one closed-port UDP probe, in ms.
/// Returns `None` when the echo never arrives.
pub fn probe_rtt_ms(
    net: &Network,
    s: &mut Scheduler,
    from: NodeId,
    to: NodeId,
    size: u64,
) -> Option<f64> {
    let out = Rc::new(RefCell::new(None));
    let got = Rc::clone(&out);
    let from_ep = Endpoint::new(net.ip_of(from), 50000);
    let to_ep = Endpoint::new(net.ip_of(to), ports::UDP_PROBE_CLOSED);
    net.send_udp(
        s,
        from_ep,
        to_ep,
        Payload::zeroes(size),
        Some(Box::new(move |_s, echo| {
            *got.borrow_mut() = Some(echo.rtt().as_millis_f64());
        })),
    );
    s.run();
    let rtt = out.borrow_mut().take();
    rtt
}

/// Average probe RTT over `n` repetitions, in ms.
pub fn avg_rtt_ms(
    net: &Network,
    s: &mut Scheduler,
    from: NodeId,
    to: NodeId,
    size: u64,
    n: u32,
) -> f64 {
    let mut sum = 0.0;
    let mut count = 0u32;
    for _ in 0..n {
        if let Some(r) = probe_rtt_ms(net, s, from, to, size) {
            sum += r;
            count += 1;
        }
    }
    sum / f64::from(count.max(1))
}

/// One (S1, S2) bandwidth sample in Mbps using Eq (3.5), or `None` if the
/// jitter inverted the pair.
pub fn bw_sample_mbps(
    net: &Network,
    s: &mut Scheduler,
    from: NodeId,
    to: NodeId,
    s1: u64,
    s2: u64,
) -> Option<f64> {
    let t1 = probe_rtt_ms(net, s, from, to, s1)?;
    let t2 = probe_rtt_ms(net, s, from, to, s2)?;
    if t2 <= t1 {
        return None;
    }
    Some((s2 - s1) as f64 * 8.0 / ((t2 - t1) / 1e3) / 1e6)
}

/// Repeat `bw_sample_mbps` and summarize as (min, max, avg) over the valid
/// samples — the three columns of Table 3.3.
pub fn bw_stats_mbps(
    net: &Network,
    s: &mut Scheduler,
    from: NodeId,
    to: NodeId,
    s1: u64,
    s2: u64,
    reps: u32,
) -> Option<(f64, f64, f64)> {
    let samples: Vec<f64> =
        (0..reps).filter_map(|_| bw_sample_mbps(net, s, from, to, s1, s2)).collect();
    if samples.is_empty() {
        return None;
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let avg = samples.iter().sum::<f64>() / samples.len() as f64;
    Some((min, max, avg))
}

/// A smart arm's selection (§3.6.2) from `sagit`: request `servers`
/// under `requirement`, wait for the verdict and close the connections.
/// `Ok` holds the servers that accepted the connect, best match first.
pub fn smart_pick(
    s: &mut Scheduler,
    tb: &Testbed,
    requirement: &str,
    servers: u16,
) -> Result<Vec<Endpoint>, ClientError> {
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    let spec = RequestSpec::new(requirement, servers);
    tb.client("sagit").request(s, spec, move |_s, r| *g.borrow_mut() = Some(r));
    let watch = Rc::clone(&got);
    s.run_while(s.now() + SimDuration::from_secs(5), move || watch.borrow().is_none());
    let socks = got.borrow_mut().take().expect("wizard replied")?;
    for sock in &socks {
        sock.close();
    }
    Ok(socks.iter().map(|sock| sock.remote).collect())
}

/// The testbed's name for each endpoint's host (its address if unnamed).
pub fn names_of(tb: &Testbed, eps: &[Endpoint]) -> Vec<String> {
    let name =
        |e: &Endpoint| tb.net.node_by_ip(e.ip).map(|n| tb.net.name_of(n).as_str().to_owned());
    eps.iter().map(|e| name(e).unwrap_or_else(|| e.ip.to_string())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_pair_has_95_mbps_available() {
        let (net, a, c) = campus_pair(1, 1500);
        let bw = net.path_available_bw(a, c).unwrap() / 1e6;
        assert!((bw - 95.0).abs() < 1.0, "available {bw} Mbps");
    }

    #[test]
    fn six_paths_ping_rtts_land_near_table_3_2() {
        let (net, paths) = six_paths(2);
        let mut s = sim();
        for (from, to, label, paper_ms) in paths {
            let measured = avg_rtt_ms(&net, &mut s, from, to, 56, 8);
            // WAN paths within 20%, local paths within a factor of ~3
            // (sub-ms figures are dominated by fixed overhead choices).
            if paper_ms > 10.0 {
                assert!(
                    (measured - paper_ms).abs() / paper_ms < 0.35,
                    "{label}: measured {measured:.1} vs paper {paper_ms}"
                );
            } else {
                assert!(
                    measured < paper_ms * 4.0 + 0.3,
                    "{label}: measured {measured:.3} vs paper {paper_ms}"
                );
            }
        }
    }

    #[test]
    fn bw_stats_recover_the_campus_path() {
        let (net, a, c) = campus_pair(3, 1500);
        let mut s = sim();
        let (min, max, avg) = bw_stats_mbps(&net, &mut s, a, c, 1600, 2900, 20).unwrap();
        assert!(min <= avg && avg <= max);
        assert!((avg - 95.0).abs() < 20.0, "avg {avg}");
    }
}
