//! Fault tolerance end to end: a server crashes mid-session; the group
//! detects it, the wizard stops offering it (3 missed probe intervals),
//! and the group repairs itself with a fresh qualified server — the
//! redirect half of the §6 future-work scenario, built from `SockGroup`.
//!
//! ```text
//! cargo run --example failover
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::RequestSpec;
use smartsock::group::SockGroup;
use smartsock::proto::consts::ports;
use smartsock::proto::Endpoint;
use smartsock::sim::{SimDuration, SimTime};
use smartsock::Testbed;

fn main() {
    let (mut s, tb) = Testbed::paper(404);

    // A service on every machine.
    for host in tb.hosts.values() {
        tb.net.bind_stream(Endpoint::new(host.ip(), ports::SERVICE), |_s, _m| {});
    }
    s.run_until(SimTime::from_secs(10));

    // Form a 3-server group.
    let client = tb.client("sagit");
    let group_slot = Rc::new(RefCell::new(None));
    let g = Rc::clone(&group_slot);
    SockGroup::request(
        &client,
        &mut s,
        RequestSpec::new("host_cpu_free > 0.9\n", 3),
        move |_s, r| {
            *g.borrow_mut() = Some(r.expect("group forms"));
        },
    );
    s.run_until(s.now() + SimDuration::from_secs(3));
    let group = group_slot.borrow_mut().take().unwrap();
    let names = |eps: &[Endpoint]| -> Vec<String> {
        eps.iter()
            .filter_map(|e| tb.net.node_by_ip(e.ip).map(|n| tb.net.name_of(n).as_str().to_owned()))
            .collect()
    };
    let members: Vec<Endpoint> = group.sockets().iter().map(|k| k.remote).collect();
    println!("group formed: {:?}", names(&members));

    // The server crashes: daemon gone, probe silent.
    let victim = members[0];
    let victim_name = names(&[victim]).remove(0);
    println!("\n!! {victim_name} crashes\n");
    tb.net.unbind_stream(victim);
    tb.host(&victim_name).fail();
    s.run_until(s.now() + SimDuration::from_secs(20)); // expiry window
    println!("group health: failed members = {:?}", names(&group.failed_members()));

    // Repair: the wizard offers a replacement (the dead server expired).
    let outcome = Rc::new(RefCell::new(None));
    let o = Rc::clone(&outcome);
    group.repair(&mut s, move |_s, r| *o.borrow_mut() = Some(r));
    s.run_until(s.now() + SimDuration::from_secs(3));
    let outcome = outcome.borrow().unwrap();
    let repaired: Vec<Endpoint> = group.sockets().iter().map(|k| k.remote).collect();
    println!(
        "repair: replaced {} (missing {}), group now {:?}",
        outcome.replaced,
        outcome.still_missing,
        names(&repaired)
    );
    assert_eq!(outcome.replaced, 1);
    assert!(!repaired.contains(&victim));
}
