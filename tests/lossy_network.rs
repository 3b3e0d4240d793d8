//! Resilience under packet loss: every UDP-based component must keep
//! working when the network drops datagrams (probes are fire-and-forget,
//! the netmon guard tolerates missing echoes, the client retries).

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_monitor::{NetworkMonitor, SystemMonitor};
use smartsock_net::{HostParams, LinkParams, Network, NetworkBuilder, Payload};
use smartsock_probe::{ProbeConfig, ServerProbe};
use smartsock_proto::consts::{ports, timing};
use smartsock_proto::{Endpoint, Ip};
use smartsock_sim::{Scheduler, SimDuration, SimTime};

fn lossy_pair(seed: u64, loss: f64) -> (Network, usize, usize) {
    let mut b = NetworkBuilder::new(seed);
    let a = b.host("alpha", Ip::new(10, 0, 0, 1), HostParams::testbed());
    let r = b.router("sw", Ip::new(10, 0, 0, 254));
    let c = b.host("beta", Ip::new(10, 0, 1, 1), HostParams::testbed());
    b.duplex(a, r, LinkParams::lan_100mbps().with_loss(loss));
    b.duplex(r, c, LinkParams::lan_100mbps().with_loss(loss));
    (b.build(), a, c)
}

#[test]
fn lossless_links_drop_nothing() {
    let (net, a, c) = lossy_pair(1, 0.0);
    let mut s = Scheduler::new();
    let hits = Rc::new(RefCell::new(0u32));
    let h = Rc::clone(&hits);
    let dst = Endpoint::new(net.ip_of(c), 1200);
    net.bind_udp(dst, move |_s, _d| *h.borrow_mut() += 1);
    for _ in 0..200 {
        net.send_udp(&mut s, Endpoint::new(net.ip_of(a), 40000), dst, Payload::zeroes(100), None);
    }
    s.run();
    assert_eq!(*hits.borrow(), 200);
    assert_eq!(s.telemetry.counter("net-udp-lost"), 0);
}

#[test]
fn loss_rate_is_roughly_the_configured_probability() {
    // 5% per fragment × 2 hops ⇒ ≈ 9.75% datagram loss for 1-fragment
    // datagrams.
    let (net, a, c) = lossy_pair(3, 0.05);
    let mut s = Scheduler::new();
    let hits = Rc::new(RefCell::new(0u32));
    let h = Rc::clone(&hits);
    let dst = Endpoint::new(net.ip_of(c), 1200);
    net.bind_udp(dst, move |_s, _d| *h.borrow_mut() += 1);
    let n = 2000u32;
    for _ in 0..n {
        net.send_udp(&mut s, Endpoint::new(net.ip_of(a), 40000), dst, Payload::zeroes(100), None);
    }
    s.run();
    let delivered = *hits.borrow();
    let rate = 1.0 - f64::from(delivered) / f64::from(n);
    assert!((rate - 0.0975).abs() < 0.03, "observed loss {rate:.3}");
    assert_eq!(u64::from(n - delivered), s.telemetry.counter("net-udp-lost"));
}

#[test]
fn fragmented_datagrams_are_more_exposed_to_loss() {
    let run = |payload: u64| {
        let (net, a, c) = lossy_pair(5, 0.02);
        let mut s = Scheduler::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = Rc::clone(&hits);
        let dst = Endpoint::new(net.ip_of(c), 1200);
        net.bind_udp(dst, move |_s, _d| *h.borrow_mut() += 1);
        for _ in 0..1500 {
            net.send_udp(
                &mut s,
                Endpoint::new(net.ip_of(a), 40000),
                dst,
                Payload::zeroes(payload),
                None,
            );
        }
        s.run();
        let hits = *hits.borrow();
        hits
    };
    let small = run(100); // 1 fragment
    let large = run(6000); // 5 fragments
    assert!(
        f64::from(large) < f64::from(small) * 0.95,
        "large datagrams must suffer more loss: {large} vs {small}"
    );
}

#[test]
fn system_monitor_keeps_fresh_state_despite_report_loss() {
    let (net, a, c) = lossy_pair(7, 0.05);
    let mut s = Scheduler::new();
    let mon_ip = net.ip_of(c);
    let interval = SimDuration::from_secs(timing::PROBE_INTERVAL_SECS);
    let mon = SystemMonitor::new(mon_ip, Default::default(), interval);
    mon.start(&mut s, &net);
    let host = smartsock_hostsim::Host::new(smartsock_hostsim::HostConfig::new(
        "alpha",
        net.ip_of(a),
        smartsock_hostsim::CpuModel::P4_1700,
        256,
    ));
    ServerProbe::new(host, net.clone(), ProbeConfig::new(mon_ip)).start(&mut s);
    s.run_until(SimTime::from_secs(120));
    // ~60 reports at 90% delivery and a 3-interval expiry window: the
    // record stays live essentially always (back-to-back double loss is
    // rare), so the server is present at the end.
    assert_eq!(mon.live_servers(), 1);
    assert!(s.telemetry.counter("sysmon-reports") > 40);
}

#[test]
fn network_monitor_rounds_survive_echo_loss() {
    let (net, a, c) = lossy_pair(9, 0.05);
    let mut s = Scheduler::new();
    let pairs = NetworkMonitor::DEFAULT_PAIRS_PER_ROUND;
    let mon = NetworkMonitor::new(net.ip_of(a), net.clone(), Default::default(), pairs);
    mon.add_peer(net.ip_of(c));
    mon.start(&mut s);
    s.run_until(SimTime::from_secs(120));
    // Rounds with lost echoes finalize via the guard; enough survive to
    // keep a record in the database.
    assert!(mon.rounds_completed() >= 10, "completed {}", mon.rounds_completed());
    let rec = mon.dbs().borrow().net.get(net.ip_of(a), net.ip_of(c)).copied();
    let rec = rec.expect("record survives loss");
    assert!(rec.bw_mbps > 50.0, "estimate {:.1} Mbps", rec.bw_mbps);
}

#[test]
fn client_retries_recover_lost_requests() {
    use smartsock::client::{RequestSpec, SmartClient};
    use smartsock_proto::ServerStatusReport;
    use smartsock_wizard::{SelectPolicy, Wizard, WizardConfig};

    // 20% fragment loss per hop: each request/reply pair survives with
    // p ≈ 0.41, so with 8 retries a response is near-certain.
    let (net, a, c) = lossy_pair(11, 0.2);
    let mut s = Scheduler::new();
    let wiz = Wizard::new(
        net.ip_of(c),
        net.clone(),
        WizardConfig {
            policy: SelectPolicy { stale_max_age: None, ..Default::default() },
            ..Default::default()
        },
    );
    let srv = ServerStatusReport::empty("srv", net.ip_of(a));
    wiz.engine_mut().dbs_mut().sys.upsert(srv, SimTime::ZERO);
    wiz.start(&mut s);
    net.bind_stream(Endpoint::new(net.ip_of(a), ports::SERVICE), |_s, _m| {});

    let client = SmartClient::new(net.clone(), net.ip_of(a), net.ip_of(c), 77);
    let mut spec = RequestSpec::new("", 1);
    spec.retries = 8;
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    client.request(&mut s, spec, move |_s, r| *g.borrow_mut() = Some(r));
    s.run();
    let res = got.borrow_mut().take().expect("callback fired");
    assert!(res.is_ok(), "retries should eventually win: {res:?}");
    assert!(s.telemetry.counter("client-retries") >= 1, "at least one retry happened");
}
