//! The fault-injection subsystem end to end: a scripted `FaultPlan`
//! crashes one group member and cuts another's access link while the
//! client's auto-repair loop keeps the socket group at full strength;
//! then a seeded chaos burst shows the run is reproducible.
//!
//! ```text
//! cargo run --example fault_drill [seed] [--trace <path>]
//! ```
//!
//! Run it twice with the same seed: the output (including the exported
//! telemetry trace) is byte-identical. Change the seed and the fault
//! timings change with it. The trace lands in `target/fault_drill.jsonl`
//! by default; query it with
//! `cargo run -p smartsock-telemetry -- summary target/fault_drill.jsonl`.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::RequestSpec;
use smartsock::faults::{FaultKind, FaultPlan};
use smartsock::group::SockGroup;
use smartsock::proto::consts::ports;
use smartsock::proto::Endpoint;
use smartsock::sim::{SimDuration, SimTime};
use smartsock::Testbed;

fn main() {
    let mut seed = 909u64;
    let mut trace_path = "target/fault_drill.jsonl".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = args.next().expect("--trace needs a path");
        } else if let Ok(n) = arg.parse() {
            seed = n;
        }
    }
    let (mut s, tb) = Testbed::paper(seed);
    println!("== fault drill, seed {seed} ==\n");

    // Plain services everywhere; give the monitors 10 s to settle.
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    s.run_until(SimTime::from_secs(10));

    // A 3-server group with automatic repair. The request blacklists the
    // monitor/wizard machine and the client's own machine so the drill
    // never cuts the control plane out from under itself.
    let client = tb.client("sagit");
    let slot = Rc::new(RefCell::new(None));
    let g = Rc::clone(&slot);
    SockGroup::request(
        &client,
        &mut s,
        RequestSpec::new(
            "host_cpu_free > 0.9\nuser_denied_host1 = dalmatian\nuser_denied_host2 = sagit\n",
            3,
        ),
        move |_s, r| *g.borrow_mut() = Some(r.expect("group forms")),
    );
    s.run_until(s.now() + SimDuration::from_secs(3));
    let group = slot.borrow_mut().take().unwrap();
    let _guard = group.auto_repair(&mut s, SimDuration::from_secs(2));
    let names = |group: &SockGroup| -> Vec<String> {
        let mut v: Vec<String> = group
            .sockets()
            .iter()
            .filter_map(|k| tb.net.node_by_ip(k.remote.ip))
            .map(|n| tb.net.name_of(n).as_str().to_owned())
            .collect();
        v.sort();
        v
    };
    println!("group formed: {:?}", names(&group));

    // Scripted faults against the first two members: one machine dies and
    // reboots, another loses its access link for a while.
    let inj = tb.fault_injector();
    let members = names(&group);
    let (crash, flap) = (members[0].clone(), members[1].clone());
    let t0 = s.now();
    let ep = tb.service_endpoint(&crash);
    let net = tb.net.clone();
    inj.on_reboot(&crash, move |_s| net.bind_stream(ep, |_s, _m| {}));
    let switch = {
        let node = tb.node(&flap);
        let first = tb.net.path_links(node, tb.node("sagit")).unwrap()[0];
        tb.net.name_of(tb.net.link_endpoints(first).1).as_str().to_owned()
    };
    println!("plan: crash {crash} (reboot +25 s), cut {flap}<->{switch} (heal +20 s)\n");
    let plan = FaultPlan::new()
        .window(
            t0 + SimDuration::from_secs(2),
            t0 + SimDuration::from_secs(27),
            FaultKind::Host { host: crash.clone() },
        )
        .window(
            t0 + SimDuration::from_secs(4),
            t0 + SimDuration::from_secs(24),
            FaultKind::Link { a: flap.clone(), b: switch.clone() },
        );
    inj.schedule(&mut s, &plan);

    s.run_until(t0 + SimDuration::from_secs(15));
    println!("t+15s: members {:?} (healthy: {})", names(&group), group.all_healthy());
    s.run_until(t0 + SimDuration::from_secs(40));
    println!("t+40s: members {:?} (healthy: {})", names(&group), group.all_healthy());
    assert!(group.at_full_strength(), "auto-repair restored the group");

    // A chaos burst on top: seeded, so reruns are byte-identical.
    println!("\nchaos burst (10 s of sampled faults)...");
    let chaos_until = s.now() + SimDuration::from_secs(10);
    inj.chaos(&mut s, chaos_until);
    s.run_until(s.now() + SimDuration::from_secs(25));
    println!("after chaos: members {:?} (healthy: {})\n", names(&group), group.all_healthy());

    // Recovery is asserted from the emitted telemetry events — the same
    // records an operator would query from the trace — not from counter
    // peeks.
    let injected = s.telemetry.event_count("fault-injected");
    let recovered = s.telemetry.event_count("fault-recovered");
    assert!(injected >= 4, "scripted plan + chaos injected faults (got {injected})");
    assert!(recovered >= 2, "scripted heal/reboot recoveries recorded (got {recovered})");
    assert!(
        s.telemetry.event_count("group-repaired") >= 1,
        "auto-repair replaced at least one dead member"
    );
    assert!(
        s.telemetry.histogram("client-request").is_some(),
        "client request spans landed in the latency histogram"
    );

    println!("fault & recovery events:");
    for name in ["fault-injected", "fault-recovered", "group-repaired"] {
        for ev in s.telemetry.events_named(name) {
            let detail = ev.attr("kind").or(ev.attr("replaced")).unwrap_or("-");
            let target = ev.attr("target").unwrap_or(ev.host.as_str());
            println!("  {:>8.3}s  {name:<16} {detail:<14} {target}", ev.at_ns as f64 / 1e9);
        }
    }

    if let Some(dir) = std::path::Path::new(&trace_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&trace_path, s.telemetry.export_jsonl()).expect("write trace");
    println!("\ntrace written to {trace_path}; query it with:");
    println!("  cargo run -p smartsock-telemetry -- summary {trace_path}");
}
