//! Table 5.2: system resources used with 11 probes running.
//!
//! The paper measured CPU%, resident memory and network bandwidth of each
//! component on the monitor machine (`dalmatian`). In the simulation the
//! faithful observable is the **network bandwidth** of each component
//! (message sizes × rates are modelled exactly); the memory column is the
//! computed footprint of each component's live data structures; CPU has no
//! simulated equivalent, so the paper's figures are quoted for reference.

use smartsock::client::RequestSpec;
use smartsock::Testbed;
use smartsock_proto::consts::sizes::BINARY_STATUS_RECORD_BYTES;
use smartsock_sim::SimTime;

use crate::report::{colf, Report};

pub fn table5_2(seed: u64) -> Report {
    // A second monitor group (sagit's) gives the monitor-machine network
    // monitor a peer to probe, as in the paper's deployment.
    let mut s = crate::experiments::rig::sim();
    let tb = Testbed::builder(seed)
        .group("sagit", &["sagit"])
        // §5.2's deployment sends ONE 1600/2900 pair every two seconds
        // ("one probe is done after every two seconds", 2.8 KBps).
        .netmon_pairs_per_round(1)
        .start(&mut s);
    // Give the wizard some request traffic like the sample run.
    let client = tb.client("sagit");
    for i in 0..5u64 {
        let at = SimTime::from_secs(20 + i * 5);
        let c = client.clone();
        s.schedule_at(at, move |s| {
            c.request(s, RequestSpec::new("host_cpu_free > 0.1\n", 11), |_s, _r| {});
        });
    }
    let horizon = 60.0;
    s.run_until(SimTime::from_secs_f64(horizon));

    let kbps = |bytes: u64| bytes as f64 / horizon / 1024.0;
    let probe_bytes = s.telemetry.counter_total("probe-report-bytes");
    let sysmon_bytes = s.telemetry.counter("sysmon-bytes");
    let netmon_bytes = s.telemetry.counter("netmon-bytes");
    let tx_bytes = s.telemetry.counter("transmitter-bytes");
    let rx_bytes = s.telemetry.counter("receiver-bytes");
    let wiz_msgs = s.telemetry.counter("wizard-requests") + s.telemetry.counter("wizard-replies");
    let wiz_bytes = wiz_msgs * 150; // ~150 B requests/replies in the sample run

    // Memory: live data-structure footprints.
    let sys_records = tb.dbs.borrow().sys.len() as u64;
    let mem_monitor = sys_records * BINARY_STATUS_RECORD_BYTES as u64;
    let wiz = tb.wizard.engine();
    let mem_receiver = wiz.dbs().sys.len() as u64 * BINARY_STATUS_RECORD_BYTES as u64
        + wiz.dbs().net.len() as u64 * 32;
    let mem_wizard = mem_receiver; // wizard reads the receiver's copies

    let mut r = Report::new("table5.2", "System resource used with 11 probes running");
    r.row(format!(
        "{:<17} | {:>9} | {:>12} | {:>14} | {:>16}",
        "program", "paper CPU", "paper mem", "measured KBps", "paper KBps"
    ));
    let rows: [(&str, &str, &str, f64, &str); 7] = [
        ("System Probe", "<0.1%", "8 KB", kbps(probe_bytes) / 11.0, "0.5~0.6 (UDP)"),
        ("System Monitor", "0.7%", "8 KB", kbps(sysmon_bytes), "5.7 (UDP)"),
        ("Network Monitor", "<0.1%", "8 KB", kbps(netmon_bytes), "5.6 (UDP)"),
        ("Security Monitor", "<0.1%", "8 KB", 0.0, "(not used)"),
        ("Transmitter", "<0.1%", "8 KB", kbps(tx_bytes), "1.2 (TCP)"),
        ("Receiver", "<0.1%", "92 KB", kbps(rx_bytes), "1.2 (TCP)"),
        ("Wizard", "0.1%", "96 KB", kbps(wiz_bytes), "<1 (UDP)"),
    ];
    for (name, cpu, mem, measured, paper) in rows {
        r.row(format!(
            "{name:<17} | {cpu:>9} | {mem:>12} | {:>14} | {paper:>16}",
            colf(measured, 2, 14).trim_start()
        ));
    }
    r.row(format!(
        "live records: {sys_records} system; monitor DB ≈ {mem_monitor} B, receiver copies ≈ {mem_receiver} B, wizard view ≈ {mem_wizard} B"
    ));
    r.figure("probe_kbps_each", kbps(probe_bytes) / 11.0);
    r.figure("sysmon_kbps", kbps(sysmon_bytes));
    r.figure("netmon_kbps", kbps(netmon_bytes));
    r.figure("transmitter_kbps", kbps(tx_bytes));
    r.figure("receiver_kbps", kbps(rx_bytes));
    r.figure("live_servers", sys_records as f64);
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn eleven_probes_report_and_rates_match_the_papers_scale() {
        hold(&["table5.2"]);
    }
}
