//! Figures 3.3–3.6 and Table 3.2: RTT versus probe size, the MTU knee.

use crate::experiments::rig;
use crate::report::{colf, Report};
use smartsock_sim::Scheduler;

/// Sweep RTT over payload sizes on the campus pair with the given MTU and
/// report the series plus below/above-knee slopes.
fn rtt_figure(id: &'static str, seed: u64, mtu: u32) -> Report {
    let (net, from, to) = rig::campus_pair(seed, mtu);
    let mut s = rig::sim();
    let mut r =
        Report::new(id, format!("RTT from sagit to suna over UDP payload size, MTU={mtu} bytes"));
    r.row(format!("{:>8} | {:>10}", "size(B)", "rtt(ms)"));
    let step = 250u64;
    let mut series = Vec::new();
    let mut size = 10u64;
    while size <= 6000 {
        let rtt = rig::avg_rtt_ms(&net, &mut s, from, to, size, 6);
        series.push((size, rtt));
        r.row(format!("{:>8} | {:>10}", size, colf(rtt, 4, 10).trim_start()));
        size += step;
    }
    // Secant slopes in ms/KB below and above the knee.
    let at = |target: u64| -> f64 {
        series
            .iter()
            .min_by_key(|(sz, _)| sz.abs_diff(target))
            .map(|&(_, rtt)| rtt)
            .expect("series non-empty")
    };
    let m = u64::from(mtu);
    let slope_below = (at(3 * m / 4) - at(m / 4)) / (m as f64 / 2.0) * 1000.0;
    let slope_above = (at(3 * m) - at(2 * m)) / (m as f64) * 1000.0;
    r.row(format!(
        "slope below knee: {:.4} ms/KB, above knee: {:.4} ms/KB (ratio {:.1})",
        slope_below,
        slope_above,
        slope_below / slope_above
    ));
    r.row(format!("paper: threshold at the MTU ({mtu} B); ascent rate much higher below it"));
    r.figure("slope_below_ms_per_kb", slope_below);
    r.figure("slope_above_ms_per_kb", slope_above);
    r.figure("slope_ratio", slope_below / slope_above);
    r
}

/// Fig 3.3: MTU 1500.
pub fn fig3_3(seed: u64) -> Report {
    rtt_figure("fig3.3", seed, 1500)
}

/// Fig 3.4: MTU 1000.
pub fn fig3_4(seed: u64) -> Report {
    rtt_figure("fig3.4", seed, 1000)
}

/// Fig 3.5: MTU 500.
pub fn fig3_5(seed: u64) -> Report {
    rtt_figure("fig3.5", seed, 500)
}

/// Table 3.2: ping RTTs of the six sample paths.
pub fn table3_2(seed: u64) -> Report {
    let (net, paths) = rig::six_paths(seed);
    let mut s = rig::sim();
    let mut r = Report::new("table3.2", "Network paths for RTT measurements (ping RTTs)");
    r.row(format!("{:<24} | {:>12} | {:>12}", "path", "paper(ms)", "measured(ms)"));
    for (i, (from, to, label, paper_ms)) in paths.iter().enumerate() {
        let measured = rig::avg_rtt_ms(&net, &mut s, *from, *to, 56, 10);
        r.row(format!(
            "{label:<24} | {:>12} | {:>12}",
            colf(*paper_ms, 3, 12).trim_start(),
            colf(measured, 3, 12).trim_start()
        ));
        r.figure(&format!("path{i}_rtt_ms"), measured);
    }
    r
}

/// Fig 3.6: the knee across the six paths — visible on low-RTT physical
/// paths, shadowed on WANs (observation 4), absent on loopback
/// (observation 1).
pub fn fig3_6(seed: u64) -> Report {
    let (net, paths) = rig::six_paths(seed);
    let mut s = rig::sim();
    let mut r = Report::new("fig3.6", "RTT-vs-size slope ratio across 6 sample paths");
    r.row(format!(
        "{:<24} | {:>11} | {:>11} | {:>7} | {}",
        "path", "below ms/KB", "above ms/KB", "ratio", "knee?"
    ));
    for (i, (from, to, label, _paper)) in paths.iter().enumerate() {
        let reps = 10;
        let at = |s: &mut Scheduler, size: u64| rig::avg_rtt_ms(&net, s, *from, *to, size, reps);
        let lo1 = at(&mut s, 400);
        let lo2 = at(&mut s, 1100);
        let hi1 = at(&mut s, 3000);
        let hi2 = at(&mut s, 4500);
        let below = (lo2 - lo1) / 0.7; // per KB
        let above = (hi2 - hi1) / 1.5;
        let ratio = if above.abs() > 1e-9 { below / above } else { f64::NAN };
        let knee = ratio.is_finite() && ratio > 1.8 && below > 0.0;
        r.row(format!(
            "{label:<24} | {:>11} | {:>11} | {:>7} | {}",
            colf(below, 4, 11).trim_start(),
            colf(above, 4, 11).trim_start(),
            colf(ratio, 2, 7).trim_start(),
            if knee { "visible" } else { "shadowed/absent" }
        ));
        r.figure(&format!("path{i}_ratio"), ratio);
        r.figure(&format!("path{i}_knee"), if knee { 1.0 } else { 0.0 });
    }
    r.row("paper: knee visible on physical low-RTT paths; shadowed when base RTT ~10ms+ or variance high; absent on loopback");
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn knee_slope_ratio_exceeds_two_for_all_mtus() {
        hold(&["fig3.3", "fig3.4", "fig3.5"]);
    }

    #[test]
    fn local_paths_show_knee_and_loopback_does_not() {
        hold(&["fig3.6"]);
    }

    #[test]
    fn table3_2_wan_rtts_are_in_band() {
        hold(&["table3.2"]);
    }
}
