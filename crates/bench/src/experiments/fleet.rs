//! `fleet.*` — matching at fleet scale (beyond the thesis).
//!
//! The thesis evaluates eleven machines; these experiments expand the
//! generated topologies of `smartsock-hostsim` to 100/1k/10k hosts and
//! measure what the wizard's sharded, prune-then-descend status database
//! buys: rows evaluated per request, shard prune ratio, and simulator
//! throughput (events per simulated second — a deterministic figure,
//! unlike wall-clock).
//!
//! Every run also cross-checks the tentpole invariant in situ: the final
//! request is answered twice, once through the pruned shard walk and once
//! through the flat reference scan, and the `prune_mismatch` figure must
//! stay 0. Match cost is held by the claims table's `rows_evaluated` and
//! `shards_pruned` rows (`shapes.rs`), and the exact traces of fleet.11,
//! fleet.100 and fleet.1k by their `trace_sha` in `BENCH_profile.json`.
//!
//! Status reports are upserted straight into the wizard engine's `sysdb` (no
//! 10k simulated probe daemons — ingest cost is the `ablation.scaling`
//! family's concern); each upsert emits a `fleet-report-ingested` event
//! whose host field is the server's *IP string*, so `telemetry rollup`
//! aggregates the run per `subnet/<a>.<b>.<c>.0/24` scope.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_hostsim::TopologySpec;
use smartsock_net::{HostParams, LinkParams, NetworkBuilder, Payload};
use smartsock_proto::{Endpoint, Ip, NetPathRecord, RequestOption, UserRequest, WizardReply};
use smartsock_sim::{SimDuration, SimTime};
use smartsock_wizard::{select_flat, select_with_stats, Wizard, WizardConfig};

use super::rig;
use crate::report::{colf, Report};

/// The qualification requirement every request carries: compute-class
/// hosts pass (`cpu_free` bands sit above 0.9), busy/legacy classes fail
/// it wholesale — so their subnets' rollup ranges prove the shards
/// unqualifiable and the prune pass skips them.
const REQUIREMENT: &str = "host_cpu_free > 0.9\nhost_memory_free > 5*1024*1024\n";

/// The wizard/client harness machines live outside every generated
/// subnet (10.250.0.0/24; generated prefixes start at 10.1.0.0).
const WIZARD_IP: Ip = Ip::new(10, 250, 0, 1);
const CLIENT_IP: Ip = Ip::new(10, 250, 0, 2);
const CLIENT_MON: Ip = Ip::new(10, 250, 0, 254);

/// Report ingest cadence and request schedule: three rounds at 1/6/11 s
/// inside a 13 s horizon keep every row inside the 6 s staleness window.
const INGEST_AT_SECS: [u64; 3] = [1, 6, 11];
const REQUEST_AT_SECS: [u64; 3] = [2, 7, 12];
const HORIZON_SECS: u64 = 13;
const SERVERS_PER_REQUEST: u16 = 8;

pub fn fleet_11(seed: u64) -> Report {
    fleet_run("fleet.11", "testbed11", seed)
}

pub fn fleet_100(seed: u64) -> Report {
    fleet_run("fleet.100", "fleet100", seed)
}

pub fn fleet_1k(seed: u64) -> Report {
    fleet_run("fleet.1k", "fleet1k", seed)
}

pub fn fleet_10k(seed: u64) -> Report {
    fleet_run("fleet.10k", "fleet10k", seed)
}

fn fleet_run(id: &'static str, spec_name: &str, seed: u64) -> Report {
    let spec = TopologySpec::named(spec_name).expect("known fleet spec");
    let fleet = Rc::new(spec.expand(seed));

    let mut r = Report::new(
        id,
        format!("wizard matching over the {} topology ({} hosts)", fleet.name, fleet.len()),
    );

    let mut s = rig::sim();
    let mut b = NetworkBuilder::new(seed);
    let w = b.host("fleet-wizard", WIZARD_IP, HostParams::testbed());
    let c = b.host("fleet-client", CLIENT_IP, HostParams::testbed());
    b.duplex(w, c, LinkParams::lan_100mbps());
    let net = b.build();

    let wiz = Wizard::new(WIZARD_IP, net.clone(), WizardConfig::default());
    // Group map: every fleet host belongs to its subnet's monitor, the
    // client to the harness-side monitor; `monitor_*` variables then
    // resolve through `netdb` exactly as in the testbed experiments.
    for h in &fleet.hosts {
        wiz.map_group(h.ip, fleet.subnets[h.subnet].monitor);
    }
    wiz.map_group(CLIENT_IP, CLIENT_MON);
    for sn in &fleet.subnets {
        wiz.engine_mut().dbs_mut().net.upsert(NetPathRecord {
            from_monitor: CLIENT_MON,
            to_monitor: sn.monitor,
            delay_ms: sn.link.delay_ms(),
            bw_mbps: sn.link.bw_mbps(),
            timestamp_ns: 0,
        });
    }
    wiz.start(&mut s);

    // Ingest rounds: one scheduled event per subnet per round (the
    // per-segment sysmon batches its segment's reports), so simulator
    // event throughput scales with the fleet rather than the round count.
    // Each report lands in the sysdb and emits one `fleet-report-ingested`
    // event whose host field is the server's IP string (rollups then
    // carry per-subnet scopes).
    let by_subnet: Rc<Vec<Vec<usize>>> = {
        let mut by = vec![Vec::new(); fleet.subnets.len()];
        for (i, h) in fleet.hosts.iter().enumerate() {
            by[h.subnet].push(i);
        }
        Rc::new(by)
    };
    for at in INGEST_AT_SECS {
        for sn in 0..fleet.subnets.len() {
            let fleet = Rc::clone(&fleet);
            let by_subnet = Rc::clone(&by_subnet);
            let wiz = wiz.clone();
            s.schedule_in(SimDuration::from_secs(at), move |s| {
                let now = s.now();
                let label = fleet.subnets[sn].label.as_str();
                let mut engine = wiz.engine_mut();
                for &hi in &by_subnet[sn] {
                    let h = &fleet.hosts[hi];
                    engine.dbs_mut().sys.upsert(h.status_report(), now);
                    s.telemetry.event(
                        "fleet-report-ingested",
                        &h.ip.to_string(),
                        &[("subnet", label)],
                    );
                }
            });
        }
    }

    // Request rounds: the client asks over UDP after every ingest round.
    let reply_servers = Rc::new(RefCell::new(Vec::<usize>::new()));
    let client_ep = Endpoint::new(CLIENT_IP, 50001);
    {
        let replies = Rc::clone(&reply_servers);
        net.bind_udp(client_ep, move |_s, d| {
            if let Ok(reply) = WizardReply::decode(&d.payload.data) {
                replies.borrow_mut().push(reply.servers.len());
            }
        });
    }
    let wizard_ep = wiz.endpoint();
    for (i, at) in REQUEST_AT_SECS.iter().enumerate() {
        let net = net.clone();
        s.schedule_in(SimDuration::from_secs(*at), move |s| {
            let req = UserRequest {
                seq: 100 + i as u32,
                server_num: SERVERS_PER_REQUEST,
                option: RequestOption::DEFAULT,
                detail: REQUIREMENT.to_owned(),
            };
            net.send_udp(s, client_ep, wizard_ep, Payload::data(req.encode()), None);
        });
    }

    s.run_until(SimTime::from_secs(HORIZON_SECS));

    // In-situ equivalence check: the same request through the pruned
    // walk and the flat reference scan, on the final database state.
    let final_req = UserRequest {
        seq: 999,
        server_num: SERVERS_PER_REQUEST,
        option: RequestOption::DEFAULT,
        detail: REQUIREMENT.to_owned(),
    };
    let engine = wiz.engine();
    let (view, policy, now) = (engine.view(), engine.policy(), s.now());
    let flat = select_flat(&view, policy, now, &final_req, CLIENT_IP);
    let (pruned_reply, stats) = select_with_stats(&view, policy, now, &final_req, CLIENT_IP);
    assert_eq!(pruned_reply, flat, "{id}: shard pruning changed the reply");

    let live = engine.live_servers();
    let replies = reply_servers.borrow();
    let prune_ratio = if stats.shards_total == 0 {
        0.0
    } else {
        stats.shards_pruned as f64 / stats.shards_total as f64
    };
    let events_per_sim_sec = s.events_processed() as f64 / HORIZON_SECS as f64;

    r.row(format!("{:<22} | {:>10}", "hosts", fleet.len()));
    r.row(format!("{:<22} | {:>10}", "subnets", fleet.subnets.len()));
    r.row(format!("{:<22} | {:>10}", "live server records", live));
    r.row(format!(
        "{:<22} | {:>10}",
        "shards pruned",
        format!("{}/{}", stats.shards_pruned, stats.shards_total)
    ));
    r.row(format!("{:<22} | {:>10}", "rows evaluated", stats.rows_evaluated));
    r.row(format!("{:<22} | {:>10}", "replies", replies.len()));
    r.row(format!(
        "{:<22} | {:>10}",
        "sim events/sim-sec",
        colf(events_per_sim_sec, 0, 10).trim_start()
    ));

    r.figure("hosts", fleet.len() as f64);
    r.figure("subnets", fleet.subnets.len() as f64);
    r.figure("live_servers", live as f64);
    r.figure("shards_total", stats.shards_total as f64);
    r.figure("shards_pruned", stats.shards_pruned as f64);
    r.figure("prune_ratio", prune_ratio);
    r.figure("rows_evaluated", stats.rows_evaluated as f64);
    r.figure("replies", replies.len() as f64);
    r.figure("reply_servers", pruned_reply.len() as f64);
    r.figure("prune_mismatch", 0.0); // asserted above; 0 by construction
    r.figure("events_per_sim_sec", events_per_sim_sec);
    r.figure("stale_evictions", s.telemetry.counter("wizard-stale-evictions") as f64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::tests::hold_at_the_next_seed as hold;

    #[test]
    fn fleet_100_prunes_busy_subnets_and_answers_requests() {
        hold(&["fleet.100"]);
    }

    #[test]
    fn fleet_11_runs_the_testbed_spec() {
        hold(&["fleet.11"]);
    }

    #[test]
    fn fleet_runs_are_deterministic_per_seed() {
        let a = fleet_100(7);
        let b = fleet_100(7);
        assert_eq!(a.figures, b.figures);
        assert_eq!(a.body, b.body);
    }
}
