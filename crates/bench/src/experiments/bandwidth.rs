//! Table 3.3 / Fig 3.7: bandwidth measurements using various probe sizes.
//!
//! Seven (S1, S2) groups on the ~95 Mbps campus path. The paper's shape:
//! sub-MTU groups collapse to ~18–20 Mbps (the `Speed_init` contamination
//! of Formula 3.7); super-MTU groups land in the 80s; the 1600~2900 pair —
//! equal fragment counts — is the most accurate.

use crate::experiments::rig;
use crate::report::{colf, Report};

/// The seven probe-size groups of Table 3.3, in paper order, with the
/// paper's measured Avg Bw column for comparison.
pub const GROUPS: [(u64, u64, f64); 7] = [
    (100, 500, 20.01),
    (500, 1000, 18.39),
    (100, 1000, 18.33),
    (2000, 4000, 88.12),
    (4000, 6000, 81.70), // paper prints min/max only; avg ≈ (78.28+85.18)/2
    (2000, 6000, 83.54),
    (1600, 2900, 92.86),
];

fn run(id: &'static str, seed: u64, as_chart: bool) -> Report {
    let (net, from, to) = rig::campus_pair(seed, 1500);
    let truth = net.path_available_bw(from, to).unwrap() / 1e6;
    let mut s = rig::sim();
    let title = if as_chart {
        "Bandwidth measurements using various packet size (bar-chart series)"
    } else {
        "Bandwidth measurements using various packet size"
    };
    let mut r = Report::new(id, title);
    r.row(format!(
        "{:<16} | {:>8} | {:>8} | {:>8} | {:>10}",
        "packet size(B)", "min Mbps", "max Mbps", "avg Mbps", "paper avg"
    ));
    for (i, &(s1, s2, paper_avg)) in GROUPS.iter().enumerate() {
        let (min, max, avg) =
            rig::bw_stats_mbps(&net, &mut s, from, to, s1, s2, 24).expect("samples");
        r.row(format!(
            "{:<16} | {:>8} | {:>8} | {:>8} | {:>10}",
            format!("{s1}~{s2}"),
            colf(min, 2, 8).trim_start(),
            colf(max, 2, 8).trim_start(),
            colf(avg, 2, 8).trim_start(),
            colf(paper_avg, 2, 10).trim_start(),
        ));
        r.figure(&format!("group{i}_avg_mbps"), avg);
    }
    r.row(format!(
        "{:<16} | {:>8} | {:>8} | {:>8} | {:>10}",
        "ground truth",
        "-",
        "-",
        colf(truth, 2, 8).trim_start(),
        "95.3/96-101" // pipechar / pathload reference rows of Table 3.3
    ));
    r.figure("truth_mbps", truth);
    r
}

/// Table 3.3.
pub fn table3_3(seed: u64) -> Report {
    run("table3.3", seed, false)
}

/// Fig 3.7 — the same measurements rendered as the bar-chart series.
pub fn fig3_7(seed: u64) -> Report {
    run("fig3.7", seed, true)
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn super_mtu_groups_track_truth_and_optimal_pair_wins() {
        hold(&["table3.3", "fig3.7"]);
    }
}
