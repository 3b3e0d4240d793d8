//! The idle daemon costs no CPU: once a burst of reports is taken and the
//! short polling run after it is over, the daemon thread sleeps in
//! `recv_from` until the next datagram. A test binary of its own, so the
//! process holds exactly one daemon thread to find under `/proc`.

#![expect(
    clippy::disallowed_methods,
    reason = "the test waits in wall time for a real daemon thread to go idle"
)]

use std::fs;
use std::path::Path;
use std::time::Duration;

use smartsock_live::LiveWizard;
use smartsock_proto::{Ip, ServerStatusReport};

/// The daemon thread's name as `comm` holds it: its first 15 bytes.
const COMM: &str = "smartsock-wizar";

/// `utime + stime` of the daemon thread, in clock ticks.
fn daemon_cpu_ticks() -> Option<u64> {
    for task in fs::read_dir("/proc/self/task").ok()? {
        let dir = task.ok()?.path();
        if fs::read_to_string(dir.join("comm")).ok()?.trim_end() != COMM {
            continue;
        }
        let stat = fs::read_to_string(dir.join("stat")).ok()?;
        // After `pid (comm) ` comes field 3; utime is field 14, stime 15.
        let fields: Vec<&str> = stat.rsplit_once(") ")?.1.split_whitespace().collect();
        let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
        return Some(field(14)? + field(15)?);
    }
    None
}

#[test]
fn the_idle_daemon_costs_no_cpu() {
    if !Path::new("/proc/self/task").is_dir() {
        eprintln!("no /proc: skipped");
        return;
    }
    let wiz = LiveWizard::spawn().unwrap();
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    for i in 0..32u8 {
        let mut r = ServerStatusReport::empty("idle", Ip::new(192, 168, 9, i));
        r.cpu_idle = 0.5;
        sock.send_to(r.encode_ascii().as_bytes(), wiz.addr()).unwrap();
    }
    for _ in 0..400 {
        if wiz.reports_ingested() == 32 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(wiz.reports_ingested(), 32);
    std::thread::sleep(Duration::from_millis(50));
    let before = daemon_cpu_ticks().expect("the daemon thread is under /proc/self/task");
    std::thread::sleep(Duration::from_millis(300));
    let after = daemon_cpu_ticks().expect("the daemon thread is under /proc/self/task");
    // A clock tick is 10 ms (USER_HZ = 100), so under 3 ms is no tick at
    // all; a daemon that kept polling would gain about 30.
    let used_ms = (after - before) * 10;
    assert!(used_ms < 3, "the idle daemon used {used_ms} ms of CPU in 300 ms");
    assert_eq!(wiz.shutdown().unwrap().reports, 32);
}
