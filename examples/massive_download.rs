//! Massive download with bandwidth-aware server selection — a condensed
//! rerun of the paper's Table 5.7/5.8 scenario with rshaper-style shaping.
//!
//! ```text
//! cargo run --release --example massive_download
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::client::RequestSpec;
use smartsock::sim::{Scheduler, SimDuration, SimTime};
use smartsock::Testbed;
use smartsock_apps::massd::{FileServer, Massd, MassdParams};

const GROUP1: [&str; 3] = ["mimas", "telesto", "lhost"];
const GROUP2: [&str; 3] = ["dione", "titan-x", "pandora-x"];

fn main() {
    let seed = 99;
    let mut s = Scheduler::new();
    // Two server groups, each with its own network monitor (§3.3.3); the
    // client's group runs a third.
    let tb = Testbed::builder(seed)
        .group("sagit", &["sagit"])
        .group("mimas", &GROUP1)
        .group("dione", &GROUP2)
        .start(&mut s);

    // Fast group at 6.72 Mbps, slow group at 1.33 Mbps (Table 5.7's draw).
    for name in GROUP1 {
        FileServer::install(&tb.net, tb.host(name), tb.service_endpoint(name));
        tb.set_rshaper(name, Some(6.72));
    }
    for name in GROUP2 {
        FileServer::install(&tb.net, tb.host(name), tb.service_endpoint(name));
        tb.set_rshaper(name, Some(1.33));
    }

    // Let the monitors measure the shaped paths with the one-way UDP
    // stream method and ship the records to the wizard.
    s.run_until(SimTime::from_secs(40));
    println!("network monitor records at the wizard:");
    for rec in tb.wizard.engine().dbs().net.snapshot() {
        println!(
            "  {} -> {}: delay {:.2} ms, bandwidth {:.2} Mbps",
            rec.from_monitor, rec.to_monitor, rec.delay_ms, rec.bw_mbps
        );
    }

    // Ask for servers on paths faster than 6 Mbps and download 50 MB.
    let client = tb.client("sagit");
    let picked = Rc::new(RefCell::new(None));
    let p = Rc::clone(&picked);
    client.request(&mut s, RequestSpec::new("monitor_network_bw > 6\n", 60), move |_s, r| {
        *p.borrow_mut() = Some(r.expect("fast group exists"));
    });
    {
        let watch = Rc::clone(&picked);
        s.run_while(s.now() + SimDuration::from_secs(5), move || watch.borrow().is_none());
    }
    let socks = picked.borrow_mut().take().expect("wizard replied");
    let servers: Vec<_> = socks.iter().take(2).map(|k| k.remote).collect();
    for sock in socks {
        sock.close();
    }
    println!("\nsmart pick (bw > 6 Mbps): {servers:?}");

    let done = Rc::new(RefCell::new(None));
    let d = Rc::clone(&done);
    Massd::run(
        &mut s,
        &tb.net,
        tb.ip("sagit"),
        &servers,
        MassdParams::paper(50_000, 100),
        move |_s, stats| *d.borrow_mut() = Some(stats),
    );
    let watch = Rc::clone(&done);
    s.run_while(SimTime::from_secs(1_000_000), move || watch.borrow().is_none());
    let stats = done.borrow().expect("download completed");
    println!(
        "downloaded {} KB in {:.1} virtual seconds -> {:.0} KB/s (paper's fast pick: ~860 KB/s)",
        stats.bytes / 1024,
        stats.elapsed_secs(),
        stats.throughput_kbps()
    );
}
