//! `massd`, the massive-download program (paper §5.3.2).
//!
//! The client fetches `total` bytes in `blk`-sized blocks from a set of
//! file servers. Two fetch disciplines:
//!
//! * [`FetchMode::Sequential`] — one outstanding block globally, servers
//!   taken round-robin. This is what the paper's measured numbers imply
//!   (see the crate-level note): aggregate throughput equals the
//!   *harmonic mean* of the member bandwidths.
//! * [`FetchMode::Parallel`] — one outstanding block per server; aggregate
//!   throughput approaches the *sum* of member bandwidths (the ablation).

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_hostsim::Host;
use smartsock_net::{Network, Payload};
use smartsock_proto::Endpoint;
use smartsock_sim::{Scheduler, SimTime};

use crate::msg::AppMsg;

/// The file-server daemon.
pub struct FileServer;

impl FileServer {
    /// Bind the server on `host`'s service endpoint and advertise the
    /// FILE service class (§6 extension).
    pub fn install(net: &Network, host: &Host, service: Endpoint) {
        host.register_service(smartsock_proto::ServiceMask::FILE);
        let net2 = net.clone();
        let host2 = host.clone();
        net.bind_stream(service, move |s, m| {
            if host2.is_failed() {
                return;
            }
            match AppMsg::decode(&m.payload.data) {
                Some(AppMsg::BlockRequest { tag, bytes }) => {
                    // Disk read: one request per block, 512-byte sectors.
                    host2.note_disk(1, u64::from(bytes) / 512, 0, 0);
                    host2.note_rx(m.payload.len(), 1);
                    let hdr = AppMsg::BlockData { tag }.encode();
                    host2.note_tx(hdr.len() as u64 + u64::from(bytes), 1 + u64::from(bytes) / 1448);
                    net2.send_stream(
                        s,
                        m.to,
                        m.from,
                        Payload::data_with_padding(hdr, u64::from(bytes)),
                    );
                }
                _ => s.telemetry.counter_incr("massd-server-bad-msgs"),
            }
        });
    }
}

/// Fetch discipline (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchMode {
    Sequential,
    Parallel,
}

/// Download parameters. The paper's experiments use
/// `total_kb = 50_000`, `blk_kb = 100`.
#[derive(Clone, Copy, Debug)]
pub struct MassdParams {
    pub total_kb: u64,
    pub blk_kb: u64,
    pub mode: FetchMode,
}

impl MassdParams {
    pub fn paper(total_kb: u64, blk_kb: u64) -> MassdParams {
        MassdParams { total_kb, blk_kb, mode: FetchMode::Sequential }
    }

    pub fn parallel(mut self) -> MassdParams {
        self.mode = FetchMode::Parallel;
        self
    }

    pub fn blocks(&self) -> u64 {
        self.total_kb.div_ceil(self.blk_kb)
    }
}

/// Download outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MassdStats {
    pub started_at: SimTime,
    pub finished_at: SimTime,
    pub bytes: u64,
    pub blocks: u64,
}

impl MassdStats {
    pub fn elapsed_secs(&self) -> f64 {
        self.finished_at.since(self.started_at).as_secs_f64()
    }

    /// The paper's metric: KB/s.
    pub fn throughput_kbps(&self) -> f64 {
        self.bytes as f64 / 1024.0 / self.elapsed_secs()
    }
}

type OnDone = Box<dyn FnOnce(&mut Scheduler, MassdStats)>;

struct MassdState {
    servers: Vec<Endpoint>,
    params: MassdParams,
    next_block: u64,
    done_blocks: u64,
    started_at: SimTime,
    on_done: Option<OnDone>,
}

/// The massd client.
#[derive(Clone)]
pub struct Massd {
    net: Network,
    local: Endpoint,
    st: Rc<RefCell<MassdState>>,
}

thread_local! {
    static NEXT_MASSD_PORT: std::cell::Cell<u16> = const { std::cell::Cell::new(49000) };
}

impl Massd {
    /// Start a download from the given file-server endpoints.
    pub fn run(
        s: &mut Scheduler,
        net: &Network,
        client_ip: smartsock_proto::Ip,
        servers: &[Endpoint],
        params: MassdParams,
        on_done: impl FnOnce(&mut Scheduler, MassdStats) + 'static,
    ) {
        assert!(!servers.is_empty(), "massd needs at least one server");
        let port = NEXT_MASSD_PORT.with(|p| {
            let v = p.get();
            p.set(v.wrapping_add(1).max(49000));
            v
        });
        let client = Massd {
            net: net.clone(),
            local: Endpoint::new(client_ip, port),
            st: Rc::new(RefCell::new(MassdState {
                servers: servers.to_vec(),
                params,
                next_block: 0,
                done_blocks: 0,
                started_at: s.now(),
                on_done: Some(Box::new(on_done)),
            })),
        };
        client.bind();
        match params.mode {
            FetchMode::Sequential => client.request_next(s),
            FetchMode::Parallel => {
                for _ in 0..servers.len() {
                    client.request_next(s);
                }
            }
        }
    }

    fn bind(&self) {
        let client = self.clone();
        self.net.bind_stream(self.local, move |s, m| match AppMsg::decode(&m.payload.data) {
            Some(AppMsg::BlockData { .. }) => {
                s.telemetry.counter_incr("massd-blocks-received");
                client.block_done(s);
            }
            _ => s.telemetry.counter_incr("massd-client-bad-msgs"),
        });
    }

    /// Issue the next block request (round-robin across servers).
    fn request_next(&self, s: &mut Scheduler) {
        let req = {
            let mut st = self.st.borrow_mut();
            if st.next_block >= st.params.blocks() {
                None
            } else {
                let tag = st.next_block;
                st.next_block += 1;
                let server = st.servers[(tag as usize) % st.servers.len()];
                // The final block may be short.
                let blk_bytes = {
                    let sent_kb = tag * st.params.blk_kb;
                    let left_kb = st.params.total_kb.saturating_sub(sent_kb);
                    left_kb.min(st.params.blk_kb) * 1024
                };
                Some((server, tag, blk_bytes))
            }
        };
        let Some((server, tag, bytes)) = req else { return };
        let hdr = AppMsg::BlockRequest { tag: tag as u32, bytes: bytes as u32 }.encode();
        self.net.send_stream(s, self.local, server, Payload::data(hdr));
    }

    fn block_done(&self, s: &mut Scheduler) {
        let finished = {
            let mut st = self.st.borrow_mut();
            st.done_blocks += 1;
            st.done_blocks >= st.params.blocks()
        };
        if finished {
            let Some(cb) = self.st.borrow_mut().on_done.take() else { return };
            let stats = {
                let st = self.st.borrow();
                MassdStats {
                    started_at: st.started_at,
                    finished_at: s.now(),
                    bytes: st.params.total_kb * 1024,
                    blocks: st.params.blocks(),
                }
            };
            self.net.unbind_stream(self.local);
            cb(s, stats);
        } else {
            self.request_next(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_hostsim::{CpuModel, HostConfig};
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::Ip;

    /// Client + n shaped servers behind one switch.
    fn rig(caps_mbps: &[f64]) -> (Scheduler, Network, Vec<Endpoint>) {
        let mut b = NetworkBuilder::new(21);
        let client = b.host("client", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let r = b.router("sw", Ip::new(10, 0, 0, 254));
        b.duplex(client, r, LinkParams::lan_100mbps());
        let mut eps = Vec::new();
        let mut nodes = Vec::new();
        for (i, _) in caps_mbps.iter().enumerate() {
            let ip = Ip::new(10, 0, 1, 1 + i as u8);
            let node = b.host(&format!("fs{i}"), ip, HostParams::testbed());
            b.duplex(node, r, LinkParams::lan_100mbps());
            nodes.push(node);
            eps.push(Endpoint::new(ip, 1200));
        }
        let net = b.build();
        for (i, (&node, &cap)) in nodes.iter().zip(caps_mbps).enumerate() {
            net.set_access_rate(node, Some(cap * 1e6));
            let host = Host::new(HostConfig::new(
                &format!("fs{i}"),
                net.ip_of(node),
                CpuModel::P4_1700,
                256,
            ));
            FileServer::install(&net, &host, eps[i]);
        }
        (Scheduler::new(), net, eps)
    }

    fn run_massd(
        s: &mut Scheduler,
        net: &Network,
        eps: &[Endpoint],
        params: MassdParams,
    ) -> MassdStats {
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        Massd::run(s, net, Ip::new(10, 0, 0, 1), eps, params, move |_s, stats| {
            *g.borrow_mut() = Some(stats)
        });
        s.run();
        let stats = got.borrow().unwrap();
        stats
    }

    #[test]
    fn single_shaped_server_throughput_tracks_the_cap() {
        // Fig 5.3's calibration shape: massd goodput ≈ rshaper setting.
        let (mut s, net, eps) = rig(&[6.72]);
        let stats = run_massd(&mut s, &net, &eps, MassdParams::paper(10_000, 100));
        let kbps = stats.throughput_kbps();
        // 6.72 Mbps = 840 KB/s wire; ~800+ KB/s goodput after per-block
        // request latency.
        assert!(kbps > 700.0 && kbps < 860.0, "throughput {kbps:.0} KB/s");
    }

    #[test]
    fn sequential_mode_gives_harmonic_mean_like_the_paper() {
        // Two servers at 5.01 and 7.67 Mbps (Table 5.8's groups):
        // sequential round-robin ⇒ ≈ 2/(1/5.01 + 1/7.67) Mbps ≈ 758 KB/s.
        let (mut s, net, eps) = rig(&[5.01, 7.67]);
        let stats = run_massd(&mut s, &net, &eps, MassdParams::paper(10_000, 100));
        let kbps = stats.throughput_kbps();
        assert!(kbps > 640.0 && kbps < 800.0, "throughput {kbps:.0} KB/s");
    }

    #[test]
    fn parallel_mode_is_roughly_additive() {
        let (mut s, net, eps) = rig(&[5.0, 5.0]);
        let stats = run_massd(&mut s, &net, &eps, MassdParams::paper(10_000, 100).parallel());
        let kbps = stats.throughput_kbps();
        // 10 Mbps aggregate = 1250 KB/s wire.
        assert!(kbps > 1000.0, "parallel throughput {kbps:.0} KB/s");
    }

    #[test]
    fn two_fast_beat_one_fast_one_slow_beat_two_slow() {
        // The ordering of Fig 5.5.
        let t = |caps: &[f64]| {
            let (mut s, net, eps) = rig(caps);
            run_massd(&mut s, &net, &eps, MassdParams::paper(5_000, 100)).throughput_kbps()
        };
        let two_slow = t(&[5.01, 5.01]);
        let mixed = t(&[5.01, 7.67]);
        let two_fast = t(&[7.67, 7.67]);
        assert!(two_slow < mixed && mixed < two_fast, "{two_slow} {mixed} {two_fast}");
    }

    #[test]
    fn block_accounting_handles_short_final_blocks() {
        let p = MassdParams::paper(250, 100);
        assert_eq!(p.blocks(), 3);
        let (mut s, net, eps) = rig(&[50.0]);
        let stats = run_massd(&mut s, &net, &eps, p);
        assert_eq!(stats.blocks, 3);
        assert_eq!(stats.bytes, 250 * 1024);
    }

    #[test]
    fn server_disk_counters_reflect_the_download() {
        let (mut s, net, eps) = rig(&[50.0]);
        // Install a fresh server we keep a handle to.
        let host = Host::new(HostConfig::new(
            "fsx",
            net.ip_of(net.node_by_name("fs0").unwrap()),
            CpuModel::P4_1700,
            256,
        ));
        FileServer::install(&net, &host, eps[0]);
        run_massd(&mut s, &net, &eps, MassdParams::paper(1_000, 100));
        let sample = host.sample(s.now());
        assert_eq!(sample.disk_rreq, 10, "one read request per block");
        assert!(sample.net_tbytes > 1_000_000, "served ~1 MB: {}", sample.net_tbytes);
    }
}
