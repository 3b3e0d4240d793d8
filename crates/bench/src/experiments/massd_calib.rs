//! Fig 5.3: the rshaper/massd calibration — massd's achievable throughput
//! precisely tracks the bandwidth rshaper sets.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::Testbed;
use smartsock_apps::massd::{FileServer, Massd, MassdParams};
use smartsock_sim::{rng as simrng, SimTime};

use crate::report::{colf, Report};

pub fn fig5_3(seed: u64) -> Report {
    let mut rng = simrng::derive(seed, "fig5.3-rshaper");
    let mut r = Report::new("fig5.3", "Benchmark for rshaper and massd (10 sample runs)");
    r.row(format!(
        "{:<5} | {:>14} | {:>16} | {:>8}",
        "run", "rshaper(KB/s)", "massd(KB/s)", "ratio"
    ));
    let mut worst_ratio: f64 = 1.0;
    for run in 0..10 {
        // Paper: (data, blk, bw) with bw random; we draw 1–10 Mbps and set
        // data so each run transfers ~8 s worth (the paper's bw = data/100
        // convention gives similar durations).
        let bw_mbps = rng.range(1.0..10.0);
        let bw_kbps = bw_mbps * 1e6 / 8.0 / 1024.0;
        let data_kb = (bw_kbps * 8.0) as u64;

        let mut s = crate::experiments::rig::sim();
        let tb = Testbed::builder(seed ^ run).start(&mut s);
        let server = "lhost";
        FileServer::install(&tb.net, tb.host(server), tb.service_endpoint(server));
        tb.set_rshaper(server, Some(bw_mbps));
        s.run_until(SimTime::from_secs(2));

        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        Massd::run(
            &mut s,
            &tb.net,
            tb.ip("sagit"),
            &[tb.service_endpoint(server)],
            MassdParams::paper(data_kb, 100),
            move |_s, stats| *g.borrow_mut() = Some(stats.throughput_kbps()),
        );
        let watch = Rc::clone(&got);
        s.run_while(SimTime::from_secs(100_000), move || watch.borrow().is_none());
        let measured = got.borrow().expect("download completes");
        let ratio = measured / bw_kbps;
        worst_ratio = worst_ratio.min(ratio);
        r.row(format!(
            "{run:<5} | {:>14} | {:>16} | {:>8}",
            colf(bw_kbps, 1, 14).trim_start(),
            colf(measured, 1, 16).trim_start(),
            colf(ratio, 3, 8).trim_start()
        ));
        r.figure(&format!("run{run}_set_kbps"), bw_kbps);
        r.figure(&format!("run{run}_measured_kbps"), measured);
    }
    r.figure("worst_ratio", worst_ratio);
    r.row(
        "paper: \"the bandwidth values set by rshaper were very close to the actual throughput\"",
    );
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn massd_goodput_tracks_the_shaper_within_ten_percent() {
        hold(&["fig5.3"]);
    }
}
