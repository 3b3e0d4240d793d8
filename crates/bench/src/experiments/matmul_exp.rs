//! Tables 5.3–5.6: distributed matrix multiplication, random selection
//! versus the Smart socket library.
//!
//! Each arm runs on a fresh deployment of the full system (fair isolation:
//! both arms see identical machines, links and daemons). The *Random* arm
//! uses the server set the paper's random draw produced (quoted verbatim
//! from each table); the *Smart* arm issues the paper's requirement through
//! the real client→wizard path and computes on whatever comes back.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock::Testbed;
use smartsock_apps::matmul::{MatmulMaster, MatmulParams, MatmulWorker};
use smartsock_hostsim::Workload;
use smartsock_proto::Endpoint;
use smartsock_sim::{Scheduler, SimTime};

use crate::experiments::rig;
use crate::report::{colf, Report};

/// Paper row for one experiment.
struct Exp {
    id: &'static str,
    title: &'static str,
    params: MatmulParams,
    n_servers: u16,
    requirement: &'static str,
    random_set: &'static [&'static str],
    /// Hosts running SuperPI during the experiment (Table 5.6).
    busy: &'static [&'static str],
    paper_random_secs: f64,
    paper_smart_secs: f64,
    /// Restrict the candidate pool by denying these hosts (Table 5.6 used
    /// only the seven P4 1.6–1.8 machines).
    extra_denials: &'static [&'static str],
}

fn deployment(seed: u64, busy: &[&str], warmup_secs: u64) -> (rig::Sim, Testbed) {
    let mut s = rig::sim();
    let tb = Testbed::builder(seed).start(&mut s);
    for (name, host) in &tb.hosts {
        MatmulWorker::install(
            &tb.net,
            host,
            Endpoint::new(host.ip(), smartsock_proto::consts::ports::SERVICE),
        );
        let _ = name;
    }
    for b in busy {
        tb.host(b)
            .spawn_workload(&mut s, &Workload::super_pi(25))
            .expect("SuperPI fits on the testbed machines");
    }
    s.run_until(SimTime::from_secs(warmup_secs));
    (s, tb)
}

/// Run the computation on a fixed server set; returns elapsed seconds.
fn run_on(s: &mut Scheduler, tb: &Testbed, servers: &[Endpoint], params: MatmulParams) -> f64 {
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    MatmulMaster::run(s, &tb.net, tb.ip("sagit"), servers, params, move |_s, stats| {
        *g.borrow_mut() = Some(stats.elapsed_secs());
    });
    let watch = Rc::clone(&got);
    s.run_while(SimTime::from_secs(100_000), move || watch.borrow().is_none());
    let t = got.borrow().expect("matmul completes");
    t
}

fn run_exp(exp: &Exp, seed: u64) -> Report {
    let warmup = if exp.busy.is_empty() { 12 } else { 90 };

    // Random arm (fresh deployment).
    let (mut s, tb) = deployment(seed, exp.busy, warmup);
    let random_eps: Vec<Endpoint> = exp.random_set.iter().map(|n| tb.service_endpoint(n)).collect();
    let t_random = run_on(&mut s, &tb, &random_eps, exp.params);

    // Smart arm (fresh deployment, same seed).
    let (mut s, tb) = deployment(seed, exp.busy, warmup);
    let mut requirement = exp.requirement.to_owned();
    for (i, denial) in exp.extra_denials.iter().enumerate() {
        requirement.push_str(&format!("user_denied_host{} = {}\n", i + 1, denial));
    }
    // A failed selection is a report: no server and no time.
    let (smart_servers, smart_count, t_smart) =
        match rig::smart_pick(&mut s, &tb, &requirement, exp.n_servers) {
            Ok(eps) => {
                let names = rig::names_of(&tb, &eps).join(", ");
                (names, eps.len(), run_on(&mut s, &tb, &eps, exp.params))
            }
            Err(e) => (format!("failed: {e}"), 0, f64::NAN),
        };

    let improvement = (t_random - t_smart) / t_random * 100.0;
    let paper_improvement =
        (exp.paper_random_secs - exp.paper_smart_secs) / exp.paper_random_secs * 100.0;

    let mut r = Report::new(exp.id, exp.title.to_owned());
    r.row(format!(
        "matrix 1500x1500 blk={}, {} servers; requirement: {}",
        exp.params.blk,
        exp.n_servers,
        exp.requirement.trim().replace('\n', " && ")
    ));
    r.row(format!("random servers : {}", exp.random_set.join(", ")));
    r.row(format!("smart servers  : {smart_servers}"));
    r.row(format!("{:<22} | {:>10} | {:>10}", "", "random(s)", "smart(s)"));
    r.row(format!(
        "{:<22} | {:>10} | {:>10}",
        "measured",
        colf(t_random, 2, 10).trim_start(),
        colf(t_smart, 2, 10).trim_start()
    ));
    r.row(format!(
        "{:<22} | {:>10} | {:>10}",
        "paper",
        colf(exp.paper_random_secs, 2, 10).trim_start(),
        colf(exp.paper_smart_secs, 2, 10).trim_start()
    ));
    r.row(format!("improvement: measured {improvement:.1}% vs paper {paper_improvement:.1}%"));
    r.figure("random_secs", t_random);
    r.figure("smart_secs", t_smart);
    r.figure("improvement_pct", improvement);
    r.figure("smart_count", smart_count as f64);
    r
}

/// Table 5.3: 2 vs 2 under zero workload.
pub fn table5_3(seed: u64) -> Report {
    run_exp(
        &Exp {
            id: "table5.3",
            title: "2 vs 2 under zero workload",
            params: MatmulParams::new(1500, 600),
            n_servers: 2,
            requirement: "(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && (host_memory_free > 5*1024*1024)\n",
            random_set: &["lhost", "phoebe"],
            busy: &[],
            paper_random_secs: 100.16,
            paper_smart_secs: 63.00,
            extra_denials: &[],
        },
        seed,
    )
}

/// Table 5.4: 4 vs 4 under zero workload.
pub fn table5_4(seed: u64) -> Report {
    run_exp(
        &Exp {
            id: "table5.4",
            title: "4 vs 4 under zero workload",
            params: MatmulParams::new(1500, 200),
            n_servers: 4,
            requirement: "((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)) && (host_cpu_free > 0.9) && (host_memory_free > 5*1024*1024)\n",
            random_set: &["phoebe", "pandora-x", "calypso", "telesto"],
            busy: &[],
            paper_random_secs: 62.61,
            paper_smart_secs: 49.95,
            extra_denials: &[],
        },
        seed,
    )
}

/// Table 5.5: 6 vs 6 under zero workload (blacklist option).
pub fn table5_5(seed: u64) -> Report {
    run_exp(
        &Exp {
            id: "table5.5",
            title: "6 vs 6 under zero workload (blacklisting the 5 slowest)",
            params: MatmulParams::new(1500, 200),
            n_servers: 6,
            requirement: "(host_cpu_free > 0.9) && (host_memory_free > 5*1024*1024)\nuser_denied_host1 = telesto\nuser_denied_host2 = mimas\nuser_denied_host3 = phoebe\nuser_denied_host4 = calypso\nuser_denied_host5 = titan-x\n",
            random_set: &["phoebe", "pandora-x", "calypso", "telesto", "helene", "lhost"],
            busy: &[],
            paper_random_secs: 46.90,
            paper_smart_secs: 43.02,
            extra_denials: &[],
        },
        seed,
    )
}

/// Table 5.6: 4 vs 4 with SuperPI on three of the seven P4 1.6–1.8 hosts.
pub fn table5_6(seed: u64) -> Report {
    run_exp(
        &Exp {
            id: "table5.6",
            title: "4 vs 4 with workload (SuperPI on helene, telesto, mimas)",
            params: MatmulParams::new(1500, 200),
            n_servers: 4,
            requirement: "(host_cpu_free > 0.9) && (host_memory_free > 5*1024*1024) && (host_system_load1 < 0.5)\n",
            random_set: &["mimas", "helene", "calypso", "telesto"],
            busy: &["helene", "telesto", "mimas"],
            paper_random_secs: 90.93,
            paper_smart_secs: 66.72,
            // The paper's pool is the seven P4 1.6–1.8 machines; exclude
            // the others through the blacklist (sagit is the client, and
            // dalmatian/dione/lhost are not in the pool).
            extra_denials: &["sagit", "dalmatian", "dione", "lhost"],
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn table_5_3_smart_wins_by_a_large_factor() {
        hold(&["table5.3"]);
    }

    #[test]
    fn table_5_4_smart_wins_moderately() {
        hold(&["table5.4"]);
    }

    #[test]
    fn table_5_5_gain_shrinks_with_larger_groups() {
        hold(&["table5.5"]);
    }

    #[test]
    fn table_5_6_smart_avoids_the_busy_servers() {
        hold(&["table5.6"]);
    }
}
