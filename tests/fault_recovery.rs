//! End-to-end failover recovery under deterministic fault injection: the
//! scripted scenarios the `smartsock-faults` crate exists for. Every
//! scenario ends with the client holding connections to live,
//! requirement-satisfying servers, and every run is reproducible from its
//! seed.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::RequestSpec;
use smartsock::{SockGroup, Testbed};
use smartsock_faults::{Daemon, FaultKind, FaultPlan};
use smartsock_net::Payload;
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

fn form_group(s: &mut Scheduler, tb: &Testbed, requirement: &str, n: u16) -> SockGroup {
    let client = tb.client("sagit");
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    SockGroup::request(&client, s, RequestSpec::new(requirement, n), move |_s, r| {
        *g.borrow_mut() = Some(r.expect("group forms"));
    });
    s.run_until(s.now() + SimDuration::from_secs(5));
    let group = got.borrow_mut().take().expect("request completed");
    group
}

fn member_names(tb: &Testbed, group: &SockGroup) -> Vec<String> {
    let mut names: Vec<String> = group
        .sockets()
        .iter()
        .map(|k| {
            let node = tb.net.node_by_ip(k.remote.ip).expect("member resolves");
            tb.net.name_of(node).as_str().to_owned()
        })
        .collect();
    names.sort();
    names
}

/// The far end of `host`'s uplink (its access switch or gateway).
fn access_switch(tb: &Testbed, host: &str) -> String {
    let node = tb.node(host);
    let other = if host.eq_ignore_ascii_case("sagit") { "dalmatian" } else { "sagit" };
    let links = tb.net.path_links(node, tb.node(other)).expect("host is attached");
    let peer = tb.net.link_endpoints(links[0]).1;
    tb.net.name_of(peer).as_str().to_owned()
}

const SPREAD: &str = "host_cpu_free > 0.9\nuser_denied_host1 = sagit\n";

/// A group member that is safe to kill without also taking down the
/// monitor/wizard machine (dalmatian hosts both — crashing it is its own
/// scenario below).
fn expendable_member(tb: &Testbed, group: &SockGroup) -> String {
    member_names(tb, group)
        .into_iter()
        .find(|n| n != "dalmatian")
        .expect("group has a non-monitor member")
}

/// Scenario 1: a group member's access link flaps. While the link is down
/// the member is unreachable; the auto-repair loop swaps in a live
/// replacement, and after the heal the group is still fully healthy.
#[test]
fn link_flap_is_survived_by_auto_repair() {
    let (mut s, tb) = with_services(211);
    let group = form_group(&mut s, &tb, SPREAD, 3);
    assert_eq!(group.len(), 3);
    let victim = expendable_member(&tb, &group);
    let switch = access_switch(&tb, &victim);

    let _guard = group.auto_repair(&mut s, SimDuration::from_secs(2));
    let inj = tb.fault_injector();
    let t0 = s.now();
    let plan = FaultPlan::new()
        .at(
            t0 + SimDuration::from_secs(2),
            FaultKind::LinkDown { a: victim.clone(), b: switch.clone() },
        )
        .at(t0 + SimDuration::from_secs(40), FaultKind::LinkUp { a: victim, b: switch });
    inj.schedule(&mut s, &plan);

    s.run_until(t0 + SimDuration::from_secs(60));
    assert_eq!(group.len(), 3, "group back to full strength: {:?}", member_names(&tb, &group));
    assert!(group.all_healthy(), "all members reachable after the heal");
    assert_eq!(s.telemetry.event_count_where("fault-injected", "kind", "link-down"), 1);
    assert_eq!(s.telemetry.event_count_where("fault-recovered", "kind", "link-up"), 1);
    assert!(s.telemetry.counter("net-link-down-drops") > 0, "down link dropped traffic");
    assert!(s.telemetry.event_count("group-repaired") >= 1, "repair replaced the dead member");
}

/// Scenario 2: a group member's machine crashes outright (sockets wiped,
/// procfs counters reset) and later reboots. The group repairs onto a
/// survivor; after the reboot the probe re-registers with the monitor and
/// the machine serves again.
#[test]
fn host_crash_and_reboot_recover_end_to_end() {
    let (mut s, tb) = with_services(223);
    let group = form_group(&mut s, &tb, SPREAD, 3);
    let victim = expendable_member(&tb, &group);

    let _guard = group.auto_repair(&mut s, SimDuration::from_secs(2));
    let inj = tb.fault_injector();
    // A rebooted machine restarts its service daemon too.
    let net = tb.net.clone();
    let service = tb.service_endpoint(&victim);
    inj.on_reboot(&victim, move |_s| {
        net.bind_stream(service, |_s, _m| {});
    });
    let t0 = s.now();
    let plan = FaultPlan::new()
        .at(t0 + SimDuration::from_secs(2), FaultKind::HostCrash { host: victim.clone() })
        .at(t0 + SimDuration::from_secs(30), FaultKind::HostReboot { host: victim.clone() });
    inj.schedule(&mut s, &plan);

    s.run_until(t0 + SimDuration::from_secs(25));
    assert!(group.all_healthy(), "repaired before the reboot");
    assert!(
        !member_names(&tb, &group).contains(&victim),
        "crashed {victim} was replaced: {:?}",
        member_names(&tb, &group)
    );

    s.run_until(t0 + SimDuration::from_secs(60));
    assert_eq!(group.len(), 3);
    assert!(group.all_healthy());
    assert_eq!(tb.sysmon.live_servers(), 11, "rebooted {victim} reports again");
    assert_eq!(s.telemetry.event_count_where("fault-injected", "kind", "host-crash"), 1);
    assert_eq!(s.telemetry.event_count_where("fault-recovered", "kind", "host-reboot"), 1);
    assert_eq!(s.telemetry.counter("net-node-crashes"), 1);
    assert_eq!(s.telemetry.counter("net-node-revivals"), 1);
    assert!(s.telemetry.event_count("group-repaired") >= 1, "repair replaced the crashed member");
    assert!(s.telemetry.counter("probe-restarts") >= 1, "probe came back after reboot");
}

/// Scenario 3: a partition isolates segment 2 (telesto, lhost) from the
/// monitor/client side. Both members go unreachable, their reports expire,
/// the group repairs onto the majority side; the heal reconnects the
/// segment and its probes resume reporting.
#[test]
fn partition_isolating_a_server_group_heals_cleanly() {
    let (mut s, tb) = with_services(227);
    let group = form_group(
        &mut s,
        &tb,
        "host_cpu_free > 0.9\nuser_preferred_host1 = telesto\nuser_preferred_host2 = lhost\nuser_denied_host1 = sagit\n",
        3,
    );
    let before = member_names(&tb, &group);
    assert!(before.contains(&"telesto".to_owned()), "preferred member present: {before:?}");
    assert!(before.contains(&"lhost".to_owned()), "preferred member present: {before:?}");

    let _guard = group.auto_repair(&mut s, SimDuration::from_secs(2));
    let inj = tb.fault_injector();
    let t0 = s.now();
    let plan = FaultPlan::new()
        .at(
            t0 + SimDuration::from_secs(2),
            FaultKind::Partition {
                name: "seg2".to_owned(),
                side_a: vec!["telesto".to_owned(), "lhost".to_owned()],
                side_b: vec!["sagit".to_owned(), "dalmatian".to_owned()],
            },
        )
        .at(t0 + SimDuration::from_secs(30), FaultKind::Heal { name: "seg2".to_owned() });
    inj.schedule(&mut s, &plan);

    s.run_until(t0 + SimDuration::from_secs(25));
    let during = member_names(&tb, &group);
    assert!(group.all_healthy(), "repaired onto the majority side: {during:?}");
    assert!(!during.contains(&"telesto".to_owned()), "isolated member replaced: {during:?}");
    assert!(!during.contains(&"lhost".to_owned()), "isolated member replaced: {during:?}");
    assert_eq!(tb.sysmon.live_servers(), 9, "isolated segment expired from the monitor");

    s.run_until(t0 + SimDuration::from_secs(50));
    assert!(group.all_healthy());
    assert_eq!(group.len(), 3);
    assert_eq!(tb.sysmon.live_servers(), 11, "healed segment reports again");
    assert_eq!(s.telemetry.event_count_where("fault-injected", "kind", "partition"), 1);
    assert_eq!(s.telemetry.event_count_where("fault-recovered", "kind", "heal"), 1);
    assert!(
        s.telemetry.event_count_where("status-db-expired", "db", "sysdb") >= 2,
        "both isolated servers expired from the status database"
    );
}

/// Scenario 4: the wizard daemon dies just before a request. The client's
/// exponential backoff rides out the outage; once the wizard restarts, the
/// retry succeeds and the client holds live connections.
#[test]
fn wizard_daemon_restart_is_ridden_out_by_client_backoff() {
    let (mut s, tb) = with_services(229);
    let inj = tb.fault_injector();
    inj.apply(&mut s, &FaultKind::DaemonKill { daemon: Daemon::Wizard });

    let t0 = s.now();
    let plan = FaultPlan::new()
        .at(t0 + SimDuration::from_secs(3), FaultKind::DaemonRestart { daemon: Daemon::Wizard });
    inj.schedule(&mut s, &plan);

    let client = tb.client("sagit");
    let mut spec = RequestSpec::new(SPREAD, 3);
    spec.retries = 3;
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    client.request(&mut s, spec, move |_s, r| *g.borrow_mut() = Some(r));
    s.run_until(t0 + SimDuration::from_secs(30));

    let socks = got.borrow_mut().take().expect("callback fired").expect("request succeeded");
    assert_eq!(socks.len(), 3);
    assert!(socks.iter().all(|k| k.is_connected()), "all connections live");
    assert!(s.telemetry.event_count("client-retry") >= 1, "first attempt hit the dead wizard");
    assert!(s.telemetry.event_count("client-backoff") >= 1, "backoff applied");
    assert_eq!(s.telemetry.event_count_where("fault-injected", "kind", "daemon-kill"), 1);
    assert_eq!(s.telemetry.event_count_where("fault-recovered", "kind", "daemon-restart"), 1);
    assert_eq!(s.telemetry.counter("wizard-restarts"), 1);
    for k in socks {
        k.close();
    }
}

/// Scenario 5: the monitor/wizard machine itself crashes mid-experiment.
/// Established connections keep working through the outage (the data path
/// does not involve the monitor), and after the reboot the full stack —
/// probe, system monitor, wizard — comes back and serves fresh requests.
#[test]
fn monitor_machine_crash_mid_experiment_recovers_the_stack() {
    let (mut s, tb) = with_services(233);
    let group = form_group(
        &mut s,
        &tb,
        "host_cpu_free > 0.9\nuser_denied_host1 = sagit\nuser_denied_host2 = dalmatian\n",
        3,
    );
    assert!(!member_names(&tb, &group).contains(&"dalmatian".to_owned()));

    let inj = tb.fault_injector();
    let net = tb.net.clone();
    let service = tb.service_endpoint("dalmatian");
    inj.on_reboot("dalmatian", move |_s| {
        net.bind_stream(service, |_s, _m| {});
    });
    let t0 = s.now();
    let plan = FaultPlan::new()
        .at(t0 + SimDuration::from_secs(2), FaultKind::HostCrash { host: "dalmatian".to_owned() })
        .at(
            t0 + SimDuration::from_secs(20),
            FaultKind::HostReboot { host: "dalmatian".to_owned() },
        );
    inj.schedule(&mut s, &plan);

    // Mid-outage: the group's data path is monitor-free and stays healthy.
    s.run_until(t0 + SimDuration::from_secs(15));
    assert!(group.all_healthy(), "existing connections survive the monitor outage");

    // Post-reboot: probes repopulate the restarted monitor, the restarted
    // wizard answers a brand-new request.
    s.run_until(t0 + SimDuration::from_secs(45));
    assert!(tb.sysmon.live_servers() >= 10, "monitor repopulated after restart");
    let fresh = form_group(&mut s, &tb, SPREAD, 3);
    assert_eq!(fresh.len(), 3);
    assert!(fresh.all_healthy());
    assert_eq!(s.telemetry.event_count_where("fault-injected", "kind", "host-crash"), 1);
    assert_eq!(s.telemetry.event_count_where("fault-recovered", "kind", "host-reboot"), 1);
    assert_eq!(s.telemetry.counter("sysmon-restarts"), 1);
    assert_eq!(s.telemetry.counter("wizard-restarts"), 1);
    assert!(s.telemetry.counter("net-host-down-drops") > 0, "reports dropped during the crash");
}

/// One full chaos run: random faults sampled from the seed for 40 sim
/// seconds while a plain stream conversation (30 one-byte messages from
/// sagit to helene) runs across the testbed. Returns the delivered bytes,
/// the exported telemetry trace and the event count.
fn chaos_run(seed: u64) -> (Vec<u8>, String, u64) {
    let (mut s, tb) = with_services(seed);
    let inj = tb.fault_injector();

    let client_ep = Endpoint::new(tb.ip("sagit"), 48000);
    let server_ep = Endpoint::new(tb.ip("helene"), 48100);
    let delivered: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let bind = {
        let net = tb.net.clone();
        let delivered = Rc::clone(&delivered);
        move || {
            let sink = Rc::clone(&delivered);
            net.bind_stream(server_ep, move |_s, m| sink.borrow_mut().push(m.payload.data[0]));
        }
    };
    bind();
    inj.on_reboot("helene", move |_s| bind());

    for i in 0..30u8 {
        let net = tb.net.clone();
        s.schedule_at(
            SimTime::from_secs(10) + SimDuration::from_millis(500 * u64::from(i)),
            move |s| net.send_stream(s, client_ep, server_ep, Payload::data(vec![i])),
        );
    }
    inj.chaos(&mut s, SimTime::from_secs(40));
    s.run_until(SimTime::from_secs(80));

    let trace = s.telemetry.export_jsonl();
    let bytes = delivered.borrow().clone();
    (bytes, trace, s.events_processed())
}

/// ChaosRng mode: the same seed reproduces the run byte-for-byte —
/// delivered bytes, trace and event count; a different seed produces
/// different fault timings; no message is delivered twice, and nothing
/// panics or blows the event cap.
#[test]
fn chaos_runs_are_seed_deterministic_and_never_duplicate_delivery() {
    let distinct = |bytes: &[u8]| {
        let mut seen = bytes.to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.len() == bytes.len()
    };

    let (bytes_a, trace_a, events_a) = chaos_run(777);
    let (bytes_b, trace_b, events_b) = chaos_run(777);
    assert_eq!(trace_a, trace_b, "same seed, byte-identical telemetry trace");
    assert_eq!(events_a, events_b, "same seed, same event count");
    assert_eq!(bytes_a, bytes_b, "same seed, same delivered bytes");
    assert!(distinct(&bytes_a), "a message delivered twice: {bytes_a:?}");
    assert!(
        trace_a.lines().any(|l| l.contains("\"fault-injected\"")),
        "chaos actually injected faults"
    );

    let (bytes_c, trace_c, _events_c) = chaos_run(778);
    assert!(distinct(&bytes_c), "a message delivered twice: {bytes_c:?}");
    assert_ne!(trace_a, trace_c, "different seed, different fault timings");
}

/// Like [`chaos_run`] but the wizard's template registry is first flooded
/// with 64 extra templates (inserted in deliberately scrambled order) and
/// the client forms its group through a templated request. This is the
/// map-heavy path that regressed determinism when the registry hashed its
/// keys: iteration order — and hence reply order and every downstream
/// event — varied between identically-seeded runs.
fn chaos_run_templated(seed: u64) -> (Vec<String>, String, u64) {
    let (mut s, tb) = with_services(seed);
    // 37 is odd, so i*37 mod 64 walks all 64 residues: worst-case insertion
    // order for a hashed map, a no-op for the ordered registry.
    for i in 0..64u8 {
        let id = 100 + i.wrapping_mul(37) % 64;
        tb.wizard.add_template(id, format!("host_system_load1 < {}\n", 50 + u32::from(id)));
    }

    let client = tb.client("sagit");
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    let spec = RequestSpec::new(SPREAD, 3).with_template(100);
    SockGroup::request(&client, &mut s, spec, move |_s, r| {
        *g.borrow_mut() = Some(r.expect("templated group forms"));
    });
    s.run_until(s.now() + SimDuration::from_secs(5));
    let group = got.borrow_mut().take().expect("request completed");

    let inj = tb.fault_injector();
    inj.chaos(&mut s, SimTime::from_secs(40));
    s.run_until(SimTime::from_secs(60));

    (member_names(&tb, &group), s.telemetry.export_jsonl(), s.events_processed())
}

/// Regression: template-registry pressure must not break seed determinism.
#[test]
fn template_heavy_wizard_stays_seed_deterministic_under_chaos() {
    let (members_a, trace_a, events_a) = chaos_run_templated(881);
    let (members_b, trace_b, events_b) = chaos_run_templated(881);
    assert_eq!(members_a, members_b, "same seed, same group membership");
    assert_eq!(trace_a, trace_b, "same seed, byte-identical telemetry trace");
    assert_eq!(events_a, events_b, "same seed, same event count");
    assert_eq!(members_a.len(), 3, "templated request filled the group: {members_a:?}");
    assert!(
        trace_a.lines().any(|l| l.contains("\"fault-injected\"")),
        "chaos actually injected faults"
    );
}
