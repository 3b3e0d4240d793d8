//! Table 4.1: memory usage before and after SuperPI.

use smartsock_hostsim::{CpuModel, Host, HostConfig, Workload};
use smartsock_proto::Ip;
use smartsock_sim::SimTime;

use crate::experiments::rig;
use crate::report::Report;

pub fn table4_1(seed: u64) -> Report {
    let _ = seed; // deterministic: no randomness in the memory model
                  // The Table 4.1 machine has 262_213_632 B ≈ 250 MB of RAM.
    let host =
        Host::new(HostConfig::new("dalmatian", Ip::new(192, 168, 1, 10), CpuModel::P4_2400, 250));
    let mut s = rig::sim();
    let before = host.sample(s.now());
    host.spawn_workload(&mut s, &Workload::super_pi(25)).expect("superpi fits");
    s.run_until(SimTime::from_secs(60));
    let after = host.sample(s.now());

    let mut r = Report::new("table4.1", "Memory usage before and after SuperPI (bytes)");
    r.row(format!(
        "{:<5} | {:>11} | {:>11} | {:>11} | {:>7} | {:>10} | {:>11}",
        "", "total", "used", "free", "shared", "buffers", "cached"
    ));
    for (label, sm) in [("Mem1", &before), ("Mem2", &after)] {
        r.row(format!(
            "{label:<5} | {:>11} | {:>11} | {:>11} | {:>7} | {:>10} | {:>11}",
            sm.mem_total,
            sm.mem_total - sm.mem_free,
            sm.mem_free,
            0,
            sm.mem_buffers,
            sm.mem_cached
        ));
    }
    r.row("paper Mem1: 262213632 121085952 141127680 0 18284544  82911232");
    r.row("paper Mem2: 262213632 258310144   3903488 0   745472 231075840");
    r.figure("before_free", before.mem_free as f64);
    r.figure("after_free", after.mem_free as f64);
    r.figure("before_cached", before.mem_cached as f64);
    r.figure("after_cached", after.mem_cached as f64);
    r.figure("after_used", (after.mem_total - after.mem_free) as f64);
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn superpi_collapses_free_memory_like_the_paper() {
        hold(&["table4.1"]);
    }
}
