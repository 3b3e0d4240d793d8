//! Distributed square-matrix multiplication (paper §5.3.1, Appendix C).
//!
//! The program multiplies two `n × n` matrices by tiling the output into
//! `blk × blk` blocks (edge tiles are smaller). In distributed mode the
//! master:
//!
//! 1. assigns output blocks round-robin to the worker set (Fig C.2);
//! 2. preloads each worker with the union of the input row/column blocks
//!    its tiles need (one bulk transfer per worker);
//! 3. dispatches the worker's tiles one at a time; the worker multiplies
//!    (`r·c·n` multiply-adds on its simulated CPU) and returns the `r·c`
//!    result entries;
//! 4. finishes when every tile of every worker has returned — the
//!    wall-clock (virtual) time is the experiment's metric.
//!
//! Local mode runs the whole `n³` on one host (the Fig 5.2 benchmark).

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_hostsim::Host;
use smartsock_net::{Network, Payload};
use smartsock_proto::Endpoint;
use smartsock_sim::{Scheduler, SimTime};

use crate::msg::AppMsg;

/// Problem parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatmulParams {
    /// Matrix dimension (the paper uses 1500).
    pub n: u32,
    /// Output tile edge (the paper uses 200 or 600).
    pub blk: u32,
}

/// One output tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Row-block index and height.
    pub bi: u32,
    pub r: u32,
    /// Column-block index and width.
    pub bj: u32,
    pub c: u32,
}

impl Tile {
    /// Multiply-adds to compute this tile.
    pub fn madds(&self, n: u32) -> f64 {
        f64::from(self.r) * f64::from(self.c) * f64::from(n)
    }

    /// Result bytes returned to the master (f64 entries).
    pub fn out_bytes(&self) -> u64 {
        u64::from(self.r) * u64::from(self.c) * 8
    }
}

impl MatmulParams {
    pub fn new(n: u32, blk: u32) -> MatmulParams {
        assert!(n > 0 && blk > 0 && blk <= n, "bad matmul params n={n} blk={blk}");
        MatmulParams { n, blk }
    }

    /// Edge lengths of the block grid (last block may be short).
    fn block_lens(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut left = self.n;
        while left > 0 {
            let take = left.min(self.blk);
            out.push(take);
            left -= take;
        }
        out
    }

    /// All output tiles, row-major.
    pub fn tiles(&self) -> Vec<Tile> {
        let lens = self.block_lens();
        let mut out = Vec::with_capacity(lens.len() * lens.len());
        for (bi, &r) in lens.iter().enumerate() {
            for (bj, &c) in lens.iter().enumerate() {
                out.push(Tile { bi: bi as u32, r, bj: bj as u32, c });
            }
        }
        out
    }

    /// Total multiply-adds of the whole problem (`n³`).
    pub fn total_madds(&self) -> f64 {
        let n = f64::from(self.n);
        n * n * n
    }

    /// How many bytes of input a worker holding `tiles` must receive: the union of
    /// the A row-blocks and B column-blocks its tiles touch.
    pub fn input_bytes(&self, tiles: &[Tile]) -> u64 {
        let mut rows: Vec<(u32, u32)> = tiles.iter().map(|t| (t.bi, t.r)).collect();
        let mut cols: Vec<(u32, u32)> = tiles.iter().map(|t| (t.bj, t.c)).collect();
        rows.sort_unstable();
        rows.dedup();
        cols.sort_unstable();
        cols.dedup();
        let row_elems: u64 = rows.iter().map(|&(_, r)| u64::from(r) * u64::from(self.n)).sum();
        let col_elems: u64 = cols.iter().map(|&(_, c)| u64::from(c) * u64::from(self.n)).sum();
        (row_elems + col_elems) * 8
    }

    /// Round-robin tile assignment over `k` workers.
    pub fn assign(&self, k: usize) -> Vec<Vec<Tile>> {
        assert!(k > 0);
        let mut out = vec![Vec::new(); k];
        for (i, t) in self.tiles().into_iter().enumerate() {
            out[i % k].push(t);
        }
        out
    }
}

/// The worker daemon: serves matmul tasks on the host's service port.
pub struct MatmulWorker;

impl MatmulWorker {
    /// Bind the worker on `host`'s service endpoint and advertise the
    /// COMPUTE service class (§6 extension).
    pub fn install(net: &Network, host: &Host, service: Endpoint) {
        host.register_service(smartsock_proto::ServiceMask::COMPUTE);
        let net2 = net.clone();
        let host2 = host.clone();
        net.bind_stream(service, move |s, m| {
            if host2.is_failed() {
                return;
            }
            host2.note_rx(m.payload.len(), 1 + m.payload.len() / 1448);
            match AppMsg::decode(&m.payload.data) {
                Some(AppMsg::MatInput { tag }) => {
                    // Input preload: acknowledge so the master can start
                    // dispatching tiles.
                    let ack = AppMsg::MatInputAck { tag }.encode();
                    host2.note_tx(ack.len() as u64, 1);
                    net2.send_stream(s, m.to, m.from, Payload::data(ack));
                }
                Some(AppMsg::MatTask { tag, r, c, n }) => {
                    let tile = Tile { bi: 0, r, bj: 0, c };
                    let madds = tile.madds(n);
                    let out_bytes = tile.out_bytes();
                    // Working set: the tile's row/col strips + the result.
                    let mem = (u64::from(r) + u64::from(c)) * u64::from(n) * 8 + out_bytes;
                    let net3 = net2.clone();
                    let host3 = host2.clone();
                    let reply_to = m.from;
                    let reply_from = m.to;
                    let spawned = host2.spawn_compute(s, madds, mem, move |s| {
                        let hdr = AppMsg::MatResult { tag }.encode();
                        host3.note_tx(hdr.len() as u64 + out_bytes, 1 + out_bytes / 1448);
                        net3.send_stream(
                            s,
                            reply_from,
                            reply_to,
                            Payload::data_with_padding(hdr, out_bytes),
                        );
                    });
                    if spawned.is_err() {
                        s.telemetry.counter_incr("matmul-worker-oom");
                    }
                }
                _ => s.telemetry.counter_incr("matmul-worker-bad-msgs"),
            }
        });
    }
}

/// Tile dispatch policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// The paper's scheme (Fig C.2): tiles assigned round-robin up front;
    /// each worker is preloaded with exactly the inputs its tiles touch.
    RoundRobinStatic,
    /// §6 "task division" direction: a shared tile queue; whichever worker
    /// finishes next gets the next tile. Workers are preloaded with the
    /// full inputs (they may compute any tile). Robust to heterogeneity at
    /// the cost of a bigger preload.
    OnDemand,
}

/// Outcome of a distributed run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatmulStats {
    pub started_at: SimTime,
    pub finished_at: SimTime,
    pub tiles: usize,
}

impl MatmulStats {
    pub fn elapsed_secs(&self) -> f64 {
        self.finished_at.since(self.started_at).as_secs_f64()
    }
}

struct PerServer {
    remote: Endpoint,
    tiles: Vec<Tile>,
    next_tile: usize,
}

type OnDone = Box<dyn FnOnce(&mut Scheduler, MatmulStats)>;

struct MasterState {
    params: MatmulParams,
    servers: Vec<PerServer>,
    /// Shared queue for [`Schedule::OnDemand`] (empty in static mode).
    shared_queue: std::collections::VecDeque<Tile>,
    schedule: Schedule,
    outstanding: usize,
    started_at: SimTime,
    total_tiles: usize,
    on_done: Option<OnDone>,
}

/// The master side of the distributed computation.
#[derive(Clone)]
pub struct MatmulMaster {
    net: Network,
    local: Endpoint,
    st: Rc<RefCell<MasterState>>,
}

thread_local! {
    /// Distinct master reply port per run in one process.
    static NEXT_MASTER_PORT: std::cell::Cell<u16> = const { std::cell::Cell::new(48000) };
}

impl MatmulMaster {
    /// Start a distributed multiplication over the given worker service
    /// endpoints. `on_done` fires with the timing stats.
    pub fn run(
        s: &mut Scheduler,
        net: &Network,
        client_ip: smartsock_proto::Ip,
        workers: &[Endpoint],
        params: MatmulParams,
        on_done: impl FnOnce(&mut Scheduler, MatmulStats) + 'static,
    ) {
        Self::run_with(s, net, client_ip, workers, params, Schedule::RoundRobinStatic, on_done)
    }

    /// As [`MatmulMaster::run`], with an explicit dispatch policy.
    pub fn run_with(
        s: &mut Scheduler,
        net: &Network,
        client_ip: smartsock_proto::Ip,
        workers: &[Endpoint],
        params: MatmulParams,
        schedule: Schedule,
        on_done: impl FnOnce(&mut Scheduler, MatmulStats) + 'static,
    ) {
        assert!(!workers.is_empty(), "matmul needs at least one worker");
        let port = NEXT_MASTER_PORT.with(|p| {
            let v = p.get();
            p.set(v.wrapping_add(1).max(48000));
            v
        });
        let local = Endpoint::new(client_ip, port);
        let total_tiles = params.tiles().len();
        let (servers, shared_queue) = match schedule {
            Schedule::RoundRobinStatic => {
                let assignment = params.assign(workers.len());
                let servers = workers
                    .iter()
                    .zip(assignment)
                    .map(|(&remote, tiles)| PerServer { remote, tiles, next_tile: 0 })
                    .collect();
                (servers, std::collections::VecDeque::new())
            }
            Schedule::OnDemand => {
                let servers = workers
                    .iter()
                    .map(|&remote| PerServer { remote, tiles: Vec::new(), next_tile: 0 })
                    .collect();
                (servers, params.tiles().into())
            }
        };
        let master = MatmulMaster {
            net: net.clone(),
            local,
            st: Rc::new(RefCell::new(MasterState {
                params,
                servers,
                shared_queue,
                schedule,
                outstanding: 0,
                started_at: s.now(),
                total_tiles,
                on_done: Some(Box::new(on_done)),
            })),
        };
        master.bind(s);
        master.preload_inputs(s);
    }

    fn bind(&self, s: &mut Scheduler) {
        let _ = s;
        let master = self.clone();
        self.net.bind_stream(self.local, move |s, m| match AppMsg::decode(&m.payload.data) {
            Some(AppMsg::MatInputAck { tag }) => master.dispatch_next(s, tag as usize),
            Some(AppMsg::MatResult { tag }) => {
                s.telemetry.counter_incr("matmul-tiles-done");
                master.tile_done(s, tag as usize);
            }
            _ => s.telemetry.counter_incr("matmul-master-bad-msgs"),
        });
    }

    /// Phase 1: ship each worker its input footprint (per-assignment in
    /// static mode; the full matrices in on-demand mode).
    fn preload_inputs(&self, s: &mut Scheduler) {
        let plan: Vec<(Endpoint, u64)> = {
            let st = self.st.borrow();
            let full = 2 * u64::from(st.params.n) * u64::from(st.params.n) * 8;
            st.servers
                .iter()
                .map(|srv| {
                    let bytes = match st.schedule {
                        Schedule::RoundRobinStatic => st.params.input_bytes(&srv.tiles),
                        Schedule::OnDemand => full,
                    };
                    (srv.remote, bytes)
                })
                .collect()
        };
        for (idx, (remote, bytes)) in plan.into_iter().enumerate() {
            let hdr = AppMsg::MatInput { tag: idx as u32 }.encode();
            self.net.send_stream(s, self.local, remote, Payload::data_with_padding(hdr, bytes));
        }
    }

    /// Phase 2: one tile in flight per worker; tag = server index.
    fn dispatch_next(&self, s: &mut Scheduler, server_idx: usize) {
        let msg = {
            let mut st = self.st.borrow_mut();
            let n = st.params.n;
            let next = match st.schedule {
                Schedule::RoundRobinStatic => {
                    let Some(srv) = st.servers.get_mut(server_idx) else { return };
                    let t = srv.tiles.get(srv.next_tile).copied();
                    if t.is_some() {
                        srv.next_tile += 1;
                    }
                    t
                }
                Schedule::OnDemand => st.shared_queue.pop_front(),
            };
            match next {
                None => None,
                Some(tile) => {
                    let m = AppMsg::MatTask { tag: server_idx as u32, r: tile.r, c: tile.c, n };
                    st.outstanding += 1;
                    Some((m, st.servers[server_idx].remote))
                }
            }
        };
        if let Some((m, remote)) = msg {
            self.net.send_stream(s, self.local, remote, Payload::data(m.encode()));
        } else {
            self.maybe_finish(s);
        }
    }

    fn tile_done(&self, s: &mut Scheduler, server_idx: usize) {
        self.st.borrow_mut().outstanding -= 1;
        self.dispatch_next(s, server_idx);
    }

    fn maybe_finish(&self, s: &mut Scheduler) {
        let done = {
            let st = self.st.borrow();
            st.outstanding == 0
                && st.shared_queue.is_empty()
                && st.servers.iter().all(|srv| srv.next_tile >= srv.tiles.len())
        };
        if !done {
            return;
        }
        let Some(cb) = self.st.borrow_mut().on_done.take() else { return };
        let stats = {
            let st = self.st.borrow();
            MatmulStats { started_at: st.started_at, finished_at: s.now(), tiles: st.total_tiles }
        };
        self.net.unbind_stream(self.local);
        cb(s, stats);
    }
}

/// Local (single-machine) mode: the Fig 5.2 benchmark.
pub fn run_local(
    s: &mut Scheduler,
    host: &Host,
    params: MatmulParams,
    on_done: impl FnOnce(&mut Scheduler, f64) + 'static,
) {
    let start = s.now();
    let mem = u64::from(params.n) * u64::from(params.n) * 8 * 3;
    host.spawn_compute(s, params.total_madds(), mem.min(100 << 20), move |s| {
        on_done(s, s.now().since(start).as_secs_f64());
    })
    .expect("local benchmark fits in memory");
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_hostsim::{CpuModel, HostConfig};
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::Ip;

    #[test]
    fn tiling_covers_the_matrix_exactly() {
        let p = MatmulParams::new(1500, 600);
        let tiles = p.tiles();
        assert_eq!(tiles.len(), 9); // 3×3 grid (600,600,300)
        let total: f64 = tiles.iter().map(|t| t.madds(p.n)).sum();
        assert_eq!(total, p.total_madds());

        let p = MatmulParams::new(1500, 200);
        assert_eq!(p.tiles().len(), 64); // 8×8 grid (7×200 + 100)
        let total: f64 = p.tiles().iter().map(|t| t.madds(p.n)).sum();
        assert_eq!(total, p.total_madds());
    }

    #[test]
    fn assignment_is_balanced_round_robin() {
        let p = MatmulParams::new(1500, 200);
        let a = p.assign(4);
        assert_eq!(a.iter().map(|v| v.len()).collect::<Vec<_>>(), vec![16, 16, 16, 16]);
        let a = p.assign(6);
        let sizes: Vec<usize> = a.iter().map(|v| v.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        assert!(sizes.iter().all(|&n| n == 10 || n == 11));
    }

    #[test]
    fn input_bytes_dedup_row_and_column_strips() {
        let p = MatmulParams::new(1000, 500);
        // One worker holding the whole 2×2 grid needs A and B once each:
        // 2 × 1000×1000 × 8 bytes.
        let all = p.tiles();
        assert_eq!(p.input_bytes(&all), 2 * 1000 * 1000 * 8);
        // A single tile needs one row strip + one col strip.
        assert_eq!(p.input_bytes(&all[..1]), 2 * 500 * 1000 * 8);
    }

    fn two_worker_rig() -> (Scheduler, Network, Vec<Host>, Vec<Endpoint>) {
        let mut b = NetworkBuilder::new(3);
        let master = b.host("master", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let r = b.router("sw", Ip::new(10, 0, 0, 254));
        b.duplex(master, r, LinkParams::lan_100mbps());
        let mut hosts = Vec::new();
        let mut eps = Vec::new();
        for (i, cpu) in [(2u8, CpuModel::P4_2400), (3, CpuModel::P4_1700)] {
            let ip = Ip::new(10, 0, 0, i);
            let node = b.host(&format!("w{i}"), ip, HostParams::testbed());
            b.duplex(node, r, LinkParams::lan_100mbps());
            hosts.push(Host::new(HostConfig::new(&format!("w{i}"), ip, cpu, 512)));
            eps.push(Endpoint::new(ip, 1200));
        }
        let net = b.build();
        for (h, ep) in hosts.iter().zip(&eps) {
            MatmulWorker::install(&net, h, *ep);
        }
        (Scheduler::new(), net, hosts, eps)
    }

    #[test]
    fn distributed_run_completes_and_times_sensibly() {
        let (mut s, net, _hosts, eps) = two_worker_rig();
        let params = MatmulParams::new(600, 300);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        MatmulMaster::run(&mut s, &net, Ip::new(10, 0, 0, 1), &eps, params, move |_s, stats| {
            *g.borrow_mut() = Some(stats);
        });
        s.run();
        let stats = got.borrow().unwrap();
        assert_eq!(stats.tiles, 4);
        // 600³ = 2.16e8 madds split 2/2 over 27e6 and 16.5e6 madd/s CPUs:
        // the slow worker needs ≈ 1.08e8/16.5e6 ≈ 6.5 s plus transfers.
        let t = stats.elapsed_secs();
        assert!(t > 6.0 && t < 12.0, "elapsed {t}");
    }

    #[test]
    fn faster_pair_beats_slower_pair() {
        // The core claim of Tables 5.3–5.6 at module level.
        let run = |cpus: [CpuModel; 2]| -> f64 {
            let mut b = NetworkBuilder::new(9);
            let master = b.host("master", Ip::new(10, 0, 0, 1), HostParams::testbed());
            let r = b.router("sw", Ip::new(10, 0, 0, 254));
            b.duplex(master, r, LinkParams::lan_100mbps());
            let mut hosts = Vec::new();
            let mut eps = Vec::new();
            for (i, cpu) in cpus.iter().enumerate() {
                let ip = Ip::new(10, 0, 0, 2 + i as u8);
                let node = b.host(&format!("w{i}"), ip, HostParams::testbed());
                b.duplex(node, r, LinkParams::lan_100mbps());
                hosts.push(Host::new(HostConfig::new(&format!("w{i}"), ip, *cpu, 512)));
                eps.push(Endpoint::new(ip, 1200));
            }
            let net = b.build();
            for (h, ep) in hosts.iter().zip(&eps) {
                MatmulWorker::install(&net, h, *ep);
            }
            let mut s = Scheduler::new();
            let got = Rc::new(RefCell::new(None));
            let g = Rc::clone(&got);
            MatmulMaster::run(
                &mut s,
                &net,
                Ip::new(10, 0, 0, 1),
                &eps,
                MatmulParams::new(750, 250),
                move |_s, stats| *g.borrow_mut() = Some(stats.elapsed_secs()),
            );
            s.run();
            let t = got.borrow().unwrap();
            t
        };
        let fast = run([CpuModel::P4_2400, CpuModel::P4_2400]);
        let slow = run([CpuModel::P4_1700, CpuModel::P4_1600]);
        assert!(slow / fast > 1.3, "fast pair {fast:.1}s should clearly beat slow pair {slow:.1}s");
    }

    #[test]
    fn local_benchmark_ranks_machines_like_fig_5_2() {
        let mut times = Vec::new();
        for cpu in [CpuModel::P3_866, CpuModel::P4_2400, CpuModel::P4_1700] {
            let host = Host::new(HostConfig::new("bench", Ip::new(10, 9, 9, 9), cpu, 512));
            let mut s = Scheduler::new();
            let got = Rc::new(RefCell::new(None));
            let g = Rc::clone(&got);
            run_local(&mut s, &host, MatmulParams::new(1500, 200), move |_s, t| {
                *g.borrow_mut() = Some(t)
            });
            s.run();
            let t = got.borrow().unwrap();
            times.push(t);
        }
        let (p3, p4_24, p4_17) = (times[0], times[1], times[2]);
        assert!(p4_24 < p3, "P4-2.4 fastest");
        assert!(p3 < p4_17, "P3-866 beats P4-1.7 on this program (Fig 5.2)");
    }

    #[test]
    fn on_demand_scheduling_balances_heterogeneous_workers() {
        let run = |schedule: Schedule| -> f64 {
            let mut b = NetworkBuilder::new(15);
            let master = b.host("master", Ip::new(10, 0, 0, 1), HostParams::testbed());
            let r = b.router("sw", Ip::new(10, 0, 0, 254));
            b.duplex(master, r, LinkParams::lan_100mbps());
            let cpus = [CpuModel::P4_2400, CpuModel::P4_2400, CpuModel::P4_1600, CpuModel::P4_1600];
            let mut hosts = Vec::new();
            let mut eps = Vec::new();
            for (i, cpu) in cpus.iter().enumerate() {
                let ip = Ip::new(10, 0, 0, 2 + i as u8);
                let node = b.host(&format!("w{i}"), ip, HostParams::testbed());
                b.duplex(node, r, LinkParams::lan_100mbps());
                hosts.push(Host::new(HostConfig::new(&format!("w{i}"), ip, *cpu, 512)));
                eps.push(Endpoint::new(ip, 1200));
            }
            let net = b.build();
            for (h, ep) in hosts.iter().zip(&eps) {
                MatmulWorker::install(&net, h, *ep);
            }
            let mut s = Scheduler::new();
            let got = Rc::new(RefCell::new(None));
            let g = Rc::clone(&got);
            MatmulMaster::run_with(
                &mut s,
                &net,
                Ip::new(10, 0, 0, 1),
                &eps,
                MatmulParams::new(1200, 150),
                schedule,
                move |_s, stats| *g.borrow_mut() = Some(stats.elapsed_secs()),
            );
            s.run();
            let t = got.borrow().unwrap();
            t
        };
        let static_t = run(Schedule::RoundRobinStatic);
        let dynamic_t = run(Schedule::OnDemand);
        // Static pays for the slowest worker's equal share; on-demand lets
        // the fast CPUs take more tiles.
        assert!(
            dynamic_t < static_t * 0.92,
            "on-demand {dynamic_t:.1}s should beat static {static_t:.1}s"
        );
    }

    #[test]
    fn failed_worker_stalls_are_visible_as_oom_or_silence() {
        let (mut s, net, hosts, eps) = two_worker_rig();
        hosts[1].fail();
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        MatmulMaster::run(
            &mut s,
            &net,
            Ip::new(10, 0, 0, 1),
            &eps,
            MatmulParams::new(400, 200),
            move |_s, stats| *g.borrow_mut() = Some(stats),
        );
        s.run_until(smartsock_sim::SimTime::from_secs(120));
        // The run cannot complete: half the tiles sit on the dead worker.
        assert!(got.borrow().is_none(), "master must still be waiting");
    }
}
