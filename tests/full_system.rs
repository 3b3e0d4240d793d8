//! Cross-crate integration tests: the full probe → monitor → transmitter →
//! receiver → wizard → client pipeline on the paper testbed.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::{ClientError, RequestSpec};
use smartsock::Testbed;
use smartsock_hostsim::Workload;
use smartsock_proto::consts::ports;
use smartsock_proto::Endpoint;
use smartsock_sim::{Scheduler, SimDuration, SimTime};

fn with_services(seed: u64) -> (Scheduler, Testbed) {
    let (mut s, tb) = Testbed::paper(seed);
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    s.run_until(SimTime::from_secs(10));
    (s, tb)
}

fn request_names(
    s: &mut Scheduler,
    tb: &Testbed,
    requirement: &str,
    n: u16,
) -> Result<Vec<String>, ClientError> {
    let client = tb.client("sagit");
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    client.request(s, RequestSpec::new(requirement, n), move |_s, r| {
        *g.borrow_mut() = Some(r);
    });
    s.run_until(s.now() + SimDuration::from_secs(8));
    let res = got.borrow_mut().take().expect("client callback fired");
    res.map(|socks| {
        socks
            .iter()
            .map(|k| {
                tb.net
                    .node_by_ip(k.remote.ip)
                    .map(|node| tb.net.name_of(node).as_str().to_owned())
                    .unwrap_or_default()
            })
            .collect()
    })
}

#[test]
fn bogomips_requirement_finds_the_two_p4_2400_machines() {
    let (mut s, tb) = with_services(101);
    let names = request_names(&mut s, &tb, "host_cpu_bogomips > 4000\n", 5).unwrap();
    let mut names = names;
    names.sort();
    assert_eq!(names, vec!["dalmatian", "dione"]);
}

#[test]
fn load_requirement_excludes_hosts_running_superpi() {
    let (mut s, tb) = Testbed::paper(103);
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    tb.host("helene").spawn_workload(&mut s, &Workload::super_pi(25)).unwrap();
    tb.host("phoebe").spawn_workload(&mut s, &Workload::super_pi(25)).unwrap();
    s.run_until(SimTime::from_secs(120));

    let names =
        request_names(&mut s, &tb, "host_cpu_free > 0.9\nhost_system_load1 < 0.5\n", 60).unwrap();
    assert!(!names.contains(&"helene".to_owned()), "busy helene excluded: {names:?}");
    assert!(!names.contains(&"phoebe".to_owned()), "busy phoebe excluded: {names:?}");
    assert_eq!(names.len(), 9, "the other nine machines qualify: {names:?}");
}

#[test]
fn failed_server_disappears_then_rejoins_after_recovery() {
    let (mut s, tb) = with_services(107);
    let all = request_names(&mut s, &tb, "", 60).unwrap();
    assert_eq!(all.len(), 11);

    tb.host("mimas").fail();
    // Past 3 missed intervals (probe interval 2 s) plus propagation.
    s.run_until(s.now() + SimDuration::from_secs(20));
    let names = request_names(&mut s, &tb, "", 60).unwrap();
    assert_eq!(names.len(), 10);
    assert!(!names.contains(&"mimas".to_owned()), "failed mimas expired: {names:?}");

    tb.host("mimas").recover();
    s.run_until(s.now() + SimDuration::from_secs(10));
    let names = request_names(&mut s, &tb, "", 60).unwrap();
    assert_eq!(names.len(), 11, "recovered mimas rejoined: {names:?}");
}

#[test]
fn preferred_and_denied_lists_travel_through_the_whole_stack() {
    let (mut s, tb) = with_services(109);
    let names = request_names(
        &mut s,
        &tb,
        "host_cpu_free > 0.5\nuser_preferred_host1 = pandora-x\nuser_denied_host1 = dalmatian\n",
        3,
    )
    .unwrap();
    assert_eq!(names[0], "pandora-x", "preferred host leads: {names:?}");
    assert!(!names.contains(&"dalmatian".to_owned()), "denied host absent: {names:?}");
}

#[test]
fn distributed_mode_serves_requests_after_pulling() {
    let mut s = Scheduler::new();
    let tb = Testbed::builder(113).distributed().start(&mut s);
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    s.run_until(SimTime::from_secs(8));
    assert!(tb.wizard.engine().dbs().sys.is_empty(), "no data shipped before the first pull");
    let names = request_names(&mut s, &tb, "host_cpu_free > 0.5\n", 4).unwrap();
    assert_eq!(names.len(), 4);
    assert!(s.telemetry.counter("transmitter-pulls") >= 1);
}

#[test]
fn impossible_requirements_and_strict_shortfall_fail_cleanly() {
    let (mut s, tb) = with_services(127);
    let err = request_names(&mut s, &tb, "host_cpu_bogomips > 100000\n", 2).unwrap_err();
    assert_eq!(err, ClientError::NoServers);

    // Exact mode: 11 machines cannot satisfy a 20-server demand.
    let client = tb.client("sagit");
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    client.request(&mut s, RequestSpec::new("", 20).exact(), move |_s, r| {
        *g.borrow_mut() = Some(r);
    });
    s.run_until(s.now() + SimDuration::from_secs(8));
    let res = got.borrow_mut().take().unwrap();
    assert_eq!(res.unwrap_err(), ClientError::Shortfall { requested: 20, returned: 11 });
}

#[test]
fn security_levels_from_the_dummy_log_gate_selection() {
    let mut s = Scheduler::new();
    let specs = smartsock_hostsim::machine_specs();
    let log: String = specs
        .iter()
        .map(|m| {
            let level = if m.name == "dione" || m.name == "helene" { 5 } else { 1 };
            format!("{} {} {}\n", m.name, m.ip, level)
        })
        .collect();
    let tb = Testbed::builder(131).security_log(&log).start(&mut s);
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    s.run_until(SimTime::from_secs(10));
    let mut names = request_names(&mut s, &tb, "host_security_level >= 3\n", 60).unwrap();
    names.sort();
    assert_eq!(names, vec!["dione", "helene"]);
}

#[test]
fn rank_directive_returns_the_largest_memory_machines() {
    let (mut s, tb) = with_services(137);
    let names =
        request_names(&mut s, &tb, "#!rank host_memory_free desc\nhost_cpu_free > 0.5\n", 2)
            .unwrap();
    // The 512 MB machines have the most free memory.
    let mut names = names;
    names.sort();
    assert_eq!(names, vec!["dalmatian", "dione"]);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed: u64| -> (Vec<String>, u64) {
        let (mut s, tb) = with_services(seed);
        let names = request_names(&mut s, &tb, "host_cpu_free > 0.9\n", 5).unwrap();
        (names, s.events_processed())
    };
    let (a1, e1) = run(4242);
    let (a2, e2) = run(4242);
    assert_eq!(a1, a2);
    assert_eq!(e1, e2, "same seed, same event count");
    let (_b1, e3) = run(4243);
    // Different seeds may differ in event interleavings (jitter draws).
    let _ = e3;
}

#[test]
fn service_class_variables_select_only_matching_daemons() {
    // §6 extension: probes report advertised services; requirements can
    // then say "a FILE server" instead of relying on connect failures.
    let (mut s, tb) = Testbed::paper(139);
    use smartsock_apps::massd::FileServer;
    use smartsock_apps::matmul::MatmulWorker;
    for name in ["mimas", "telesto"] {
        FileServer::install(&tb.net, tb.host(name), tb.service_endpoint(name));
    }
    for name in ["dione", "helene"] {
        MatmulWorker::install(
            &tb.net,
            tb.host(name),
            Endpoint::new(tb.host(name).ip(), ports::SERVICE),
        );
    }
    // Reports carrying the masks need one probe round.
    s.run_until(s.now() + SimDuration::from_secs(6));

    let mut files = request_names(&mut s, &tb, "host_service_file == 1\n", 60).unwrap();
    files.sort();
    assert_eq!(files, vec!["mimas", "telesto"]);

    let mut compute = request_names(&mut s, &tb, "host_service_compute == 1\n", 60).unwrap();
    compute.sort();
    assert_eq!(compute, vec!["dione", "helene"]);

    let err = request_names(&mut s, &tb, "host_service_database == 1\n", 1).unwrap_err();
    assert_eq!(err, ClientError::NoServers);
}

#[test]
fn multi_monitor_layout_mirrors_fig_3_8() {
    // Faithful large-deployment layout: one full monitor stack per group,
    // probes reporting group-locally, one receiver merging everything.
    let mut s = Scheduler::new();
    let tb = Testbed::builder(149)
        .multi_monitor()
        .group("sagit", &["sagit"])
        .group("mimas", &["mimas", "telesto", "lhost"])
        .group("dione", &["dione", "titan-x", "pandora-x"])
        .start(&mut s);
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    assert_eq!(tb.sysmons.len(), 4, "default stack + three groups");
    assert_eq!(tb.transmitters.len(), 4);
    s.run_until(SimTime::from_secs(12));

    // Group-local reporting: mimas's stack sees exactly its three members.
    let mimas_mon =
        tb.sysmons.iter().find(|m| m.endpoint().ip == tb.ip("mimas")).expect("mimas runs a stack");
    assert_eq!(mimas_mon.live_servers(), 3);
    // The default stack holds only the ungrouped machines (11 - 7 = 4).
    assert_eq!(tb.sysmon.live_servers(), 4);
    // The receiver merged every group: the wizard sees all 11.
    assert_eq!(tb.wizard.engine().dbs().sys.len(), 11);

    // Selection across groups still works end to end.
    let names = request_names(&mut s, &tb, "host_cpu_bogomips > 4000\n", 5).unwrap();
    let mut names = names;
    names.sort();
    assert_eq!(names, vec!["dalmatian", "dione"]);
}

#[test]
fn multi_monitor_distributed_pulls_every_group() {
    let mut s = Scheduler::new();
    let tb = Testbed::builder(151)
        .multi_monitor()
        .distributed()
        .group("mimas", &["mimas", "telesto", "lhost"])
        .start(&mut s);
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    s.run_until(SimTime::from_secs(8));
    assert!(tb.wizard.engine().dbs().sys.is_empty(), "nothing shipped before a pull");
    let names = request_names(&mut s, &tb, "", 60).unwrap();
    assert_eq!(names.len(), 11, "one request pulls all groups: {names:?}");
    assert_eq!(s.telemetry.counter("transmitter-pulls"), 2, "both transmitters pulled");
}
