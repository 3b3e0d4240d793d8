//! Seeded inputs of the live workloads: the fleet's report datagrams, a
//! small pool of requests, and the reply each request must get.
//!
//! The program under test only ever receives the generated datagrams;
//! the expected replies are worked out here, on a mirror `SysDb` fed the
//! same bytes, with the reference scan `select_flat`.

use std::collections::BTreeMap;

use smartsock_hostsim::TopologySpec;
use smartsock_monitor::health::HealthTable;
use smartsock_monitor::{ingest_ascii, NetDb, SecDb, SysDb};
use smartsock_proto::{Endpoint, Ip, RequestOption, ServerStatusReport, UserRequest};
use smartsock_sim::rng::splitmix64;
use smartsock_sim::SimTime;
use smartsock_wizard::engine::{select_flat, SelectPolicy, SelectView};

/// The paper's eight-statement requirement (§3.6.2; the `REQUIREMENT` of
/// `crates/bench/benches/harness.rs`). The memory threshold is rewritten
/// per request so that some but not all testbed machines qualify.
pub const PAPER_REQUIREMENT: &str = "\
host_system_load1 < 1
host_memory_used <= 250*1024*1024
host_cpu_free >= 0.9
host_network_tbytesps < 1024*1024
limit = log10(100) * 0.5
host_system_load5 < limit
user_denied_host1 = 137.132.90.182
user_preferred_host1 = sagit.ddns.comp.nus.edu.sg
";

/// How many distinct requests a workload cycles through.
const REQUEST_POOL: u64 = 4;

/// One request of the pool and the server list a correct wizard returns.
#[derive(Clone, Debug)]
pub struct RequestCase {
    pub detail: String,
    pub server_num: u16,
    pub expected: Vec<Endpoint>,
}

impl RequestCase {
    pub fn request(&self, seq: u32) -> UserRequest {
        UserRequest {
            seq,
            server_num: self.server_num,
            option: RequestOption::DEFAULT,
            detail: self.detail.clone(),
        }
    }
}

/// Which fleet and which request family a live workload uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fleet {
    /// The eleven machines of Table 5.1 with the paper's requirement.
    Testbed11,
    /// 1000 generated hosts in 20 /24 shards, half of them prunable.
    Fleet1k,
}

impl Fleet {
    pub fn topology(self) -> &'static str {
        match self {
            Fleet::Testbed11 => "testbed11",
            Fleet::Fleet1k => "fleet1k",
        }
    }

    fn server_num(self) -> u16 {
        match self {
            Fleet::Testbed11 => 4,
            Fleet::Fleet1k => 8,
        }
    }

    /// Requirement text number `k` of the pool. The thresholds move with
    /// the seed so replies differ between seeds, but stay inside bands
    /// that keep the *work* the same: on the testbed 3, 4 or 9 of 11
    /// machines qualify; on the fleet the cpu threshold stays between the
    /// legacy band (<= 0.80) and the top of the compute band (0.99), so
    /// exactly the busy half of the shards is pruned at every seed.
    fn requirement(self, seed: u64, k: u64) -> String {
        let r = splitmix64(seed ^ splitmix64(0x5e1ec7 + k));
        match self {
            Fleet::Testbed11 => {
                // mem_used is 10 % of RAM: 12.8 / 19.2 / 25.6 / 51.2 MB.
                let mb = [15u64, 20, 30][(r % 3) as usize];
                // The paper denies an address outside the testbed; deny a
                // testbed machine instead so the blacklist does work.
                let denied = [
                    Ip::new(192, 168, 2, 11),
                    Ip::new(192, 168, 2, 10),
                    Ip::new(192, 168, 1, 11),
                    Ip::new(137, 132, 90, 182),
                ][((r >> 8) % 4) as usize];
                PAPER_REQUIREMENT
                    .replace("250*1024*1024", &format!("{mb}*1024*1024"))
                    .replace("137.132.90.182", &denied.to_string())
            }
            Fleet::Fleet1k => {
                fleet_requirement(0.90 + 0.06 * ((r >> 11) as f64 / (1u64 << 53) as f64))
            }
        }
    }
}

/// The fleet workloads' two-statement requirement (Tables 5.3-5.6's
/// shape) with the given cpu threshold.
pub fn fleet_requirement(cpu_free_above: f64) -> String {
    format!("host_cpu_free > {cpu_free_above:.4}\nhost_memory_free > 5*1024*1024\n")
}

/// The baseline status report of every host of a named topology, in
/// fleet order. Pure in `(topology, seed)`.
pub fn fleet_reports(topology: &str, seed: u64) -> Vec<ServerStatusReport> {
    TopologySpec::named(topology)
        .unwrap_or_else(|| panic!("invariant: {topology:?} is a spec TopologySpec::named knows"))
        .expand(seed)
        .hosts
        .iter()
        .map(|h| h.status_report())
        .collect()
}

/// Everything one live run sends, and what it must get back.
pub struct LiveInputs {
    /// One encoded §3.2.1 status report per host, in fleet order.
    pub datagrams: Vec<Vec<u8>>,
    pub requests: Vec<RequestCase>,
}

/// The databases a `SelectView` borrows, owned in one place: a status
/// DB beside empty network/security/health tables, as in a live daemon
/// that has only ever heard from probes.
#[derive(Default)]
pub struct Dbs {
    pub sysdb: SysDb,
    netdb: NetDb,
    secdb: SecDb,
    health: HealthTable,
    group_map: BTreeMap<Ip, Ip>,
    templates: BTreeMap<u8, String>,
}

impl Dbs {
    pub fn view(&self) -> SelectView<'_> {
        SelectView {
            sysdb: &self.sysdb,
            netdb: &self.netdb,
            secdb: &self.secdb,
            health: &self.health,
            group_map: &self.group_map,
            templates: &self.templates,
        }
    }
}

impl LiveInputs {
    /// Pure in `(fleet, seed)`.
    pub fn generate(fleet: Fleet, seed: u64) -> LiveInputs {
        let datagrams: Vec<Vec<u8>> = fleet_reports(fleet.topology(), seed)
            .iter()
            .map(|r| r.encode_ascii().into_bytes())
            .collect();

        // The mirror ingests the same bytes through the same public path
        // the daemon uses, all stamped "now": every row fresh, the state
        // the paced reporter maintains in the daemon.
        let mut mirror = Dbs::default();
        for d in &datagrams {
            ingest_ascii(&mut mirror.sysdb, d, SimTime::ZERO)
                .expect("invariant: a report we encoded parses back");
        }
        let view = mirror.view();
        let policy = SelectPolicy::default();
        let requests = (0..REQUEST_POOL)
            .map(|k| {
                let mut case = RequestCase {
                    detail: fleet.requirement(seed, k),
                    server_num: fleet.server_num(),
                    expected: Vec::new(),
                };
                case.expected =
                    select_flat(&view, &policy, SimTime::ZERO, &case.request(0), Ip::LOOPBACK);
                assert!(
                    !case.expected.is_empty(),
                    "workload design: every request must have at least one qualifying server \
                     (an empty reply is a rejection), got none for {:?}",
                    case.detail
                );
                case
            })
            .collect();
        LiveInputs { datagrams, requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        let a = LiveInputs::generate(Fleet::Fleet1k, 7);
        let b = LiveInputs::generate(Fleet::Fleet1k, 7);
        let c = LiveInputs::generate(Fleet::Fleet1k, 8);
        assert_eq!(a.datagrams, b.datagrams);
        assert_ne!(a.datagrams, c.datagrams);
        assert_eq!(a.datagrams.len(), 1000);
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!((&x.detail, &x.expected), (&y.detail, &y.expected));
        }
    }

    #[test]
    fn testbed_requests_select_some_but_not_all_machines() {
        for seed in 0..20 {
            let inputs = LiveInputs::generate(Fleet::Testbed11, seed);
            assert_eq!(inputs.datagrams.len(), 11);
            for case in &inputs.requests {
                assert!((1..=4).contains(&case.expected.len()), "{case:?}");
            }
        }
    }

    #[test]
    fn fleet_requests_fill_the_reply_at_every_seed() {
        for seed in 0..20 {
            for case in &LiveInputs::generate(Fleet::Fleet1k, seed).requests {
                assert_eq!(case.expected.len(), 8, "{case:?}");
            }
        }
    }
}
