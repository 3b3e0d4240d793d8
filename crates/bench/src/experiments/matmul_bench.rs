//! Fig 5.2: the per-machine matrix-multiplication benchmark
//! (1500 × 1500, block 200 × 200, local mode).
//!
//! The paper's headline observation: for this program/compiler pair the
//! P3 866 MHz and P4 2.4 GHz machines outperform the P4 1.6–1.8 GHz ones,
//! even though BogoMIPS ranks them the other way.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_apps::matmul::{run_local, MatmulParams};
use smartsock_hostsim::{machine_specs, Host};

use crate::experiments::rig;
use crate::report::{colf, Report};

pub fn fig5_2(seed: u64) -> Report {
    let _ = seed; // the local benchmark is deterministic
    let params = MatmulParams::new(1500, 200);
    let mut r = Report::new("fig5.2", "Matrix benchmarking results (1500x1500, blk=200, local)");
    r.row(format!("{:<10} | {:<10} | {:>9} | {:>10}", "machine", "cpu", "bogomips", "time (s)"));
    let mut rows = Vec::new();
    for spec in machine_specs() {
        let host = Host::new(spec.host_config());
        let mut s = rig::sim();
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        run_local(&mut s, &host, params, move |_s, t| *g.borrow_mut() = Some(t));
        s.run();
        let t = got.borrow().expect("benchmark completes");
        rows.push((spec.name, spec.cpu.name, spec.cpu.bogomips, t));
    }
    rows.sort_by(|a, b| a.3.partial_cmp(&b.3).expect("finite times"));
    for (name, cpu, bogomips, t) in &rows {
        r.row(format!(
            "{name:<10} | {cpu:<10} | {:>9} | {:>10}",
            colf(*bogomips, 2, 9).trim_start(),
            colf(*t, 2, 10).trim_start()
        ));
        r.figure(&format!("time_{name}"), *t);
    }
    r.row("paper: P3-866 and P4-2.4 machines beat the P4 1.6~1.8 GHz ones on this program");
    r
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn fig_5_2_ordering_holds() {
        hold(&["fig5.2"]);
    }
}
