//! # smartsock-wizard
//!
//! The *wizard* — the user-request handler of the Smart TCP socket library
//! (paper §3.6.1).
//!
//! The wizard daemon listens on UDP port 1120 (UDP "due to the low
//! overhead", and because a TCP server would accumulate `TIME_WAIT`
//! connections under load). For every request it:
//!
//! 1. refreshes its view of the status databases — immediately available
//!    in centralized mode, pulled from the transmitters in distributed
//!    mode (§3.6.1 step 2; the simulated [`Wizard`] driver's job, whose
//!    receiver port merges every snapshot into the engine's own tables);
//! 2. compiles the request detail with `smartsock-lang` (lexical +
//!    syntactical analysis, §3.6.1 step 3);
//! 3. evaluates every live server record against the requirement, skipping
//!    blacklisted hosts and expired records;
//! 4. orders candidates — preferred hosts first, then an optional rank
//!    directive (§6 extension), then address order — and replies with at
//!    most 60 servers (Table 3.6).
//!
//! ## Rank directive (future-work extension)
//!
//! §6 notes the wizard "examines the server reports one by one, which
//! makes it very difficult for users to write a requirement like '3
//! servers with largest memory'". We implement the suggested fix: a
//! `#!rank <server_var> [asc|desc]` directive line (a comment to the
//! requirement language, so the grammar is untouched) makes the wizard
//! sort qualified candidates by that variable before truncating.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod client;
pub mod engine;
pub mod templates;
pub mod vars;

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::rc::Rc;

use smartsock_net::{Network, Payload, UdpDatagram};
use smartsock_proto::consts::ports;
use smartsock_proto::{Endpoint, Ip};
use smartsock_sim::{Scheduler, SimDuration};

pub use client::{ClientEngine, ClientError, RequestSpec};
pub use engine::{
    select, select_flat, select_with_stats, Ingest, Input, SelectPolicy, SelectStats, SelectView,
    Stepped, WizardEngine,
};
pub use vars::ServerVars;

/// Wizard operating mode, mirroring the transmitters' (§3.5.1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum WizardMode {
    /// Status arrives continuously; requests are answered immediately.
    #[default]
    Centralized,
    /// Each request first triggers a pull from the listed transmitter
    /// machines, then matches after a 200 ms settle delay.
    Distributed { transmitters: Vec<Ip> },
}

/// How long a distributed-mode request waits between its pull and its
/// match, for the transmitters' snapshots to arrive.
const SETTLE: SimDuration = SimDuration::from_millis(200);

/// Wizard configuration.
#[derive(Clone, Debug, Default)]
pub struct WizardConfig {
    pub mode: WizardMode,
    /// Staleness window and freshness discount; the sweep runs at half the
    /// window (and not at all when `stale_max_age` is `None`).
    pub policy: SelectPolicy,
}

/// The simulated wizard machine: a [`WizardEngine`] bound to port 1120 of
/// a simulated [`Network`], and to the receiver port 1121, whose snapshots
/// land in the engine's own tables. It owns only what the simulator adds —
/// the bindings, the sweep timer with its restart epoch, and distributed
/// mode's pull-then-settle delay; every datagram and sweep tick is one
/// [`WizardEngine::step`] into the scheduler's telemetry, whose frame, if
/// any, it sends, and every snapshot one write into the engine's tables.
/// A stats poll is answered as the live daemon answers it, with the
/// summary lines of that telemetry, shared with every simulated daemon.
#[derive(Clone)]
pub struct Wizard {
    net: Network,
    engine: Rc<RefCell<WizardEngine>>,
    mode: WizardMode,
    /// Restart generation for the stale sweep (same epoch scheme as the
    /// probe daemon): a stopped wizard's pending sweep dies quietly.
    epoch: Rc<Cell<u64>>,
}

impl Wizard {
    pub fn new(ip: Ip, net: Network, cfg: WizardConfig) -> Wizard {
        Wizard {
            net,
            engine: Rc::new(RefCell::new(WizardEngine::new(ip, cfg.policy))),
            mode: cfg.mode,
            epoch: Rc::new(Cell::new(0)),
        }
    }

    /// The engine behind the ports, for harnesses and experiments (health
    /// scores, the status tables, the lent [`SelectView`]).
    pub fn engine(&self) -> Ref<'_, WizardEngine> {
        self.engine.borrow()
    }

    /// The engine, mutably — for harnesses that fill its tables directly.
    pub fn engine_mut(&self) -> RefMut<'_, WizardEngine> {
        self.engine.borrow_mut()
    }

    /// Register which network monitor serves a host's group.
    pub fn map_group(&self, host: Ip, monitor: Ip) {
        self.engine.borrow_mut().map_group(host, monitor);
    }

    /// Register a requirement template usable via the request option field.
    pub fn add_template(&self, id: u8, text: impl Into<String>) {
        self.engine.borrow_mut().add_template(id, text);
    }

    /// The service endpoint (port 1120 of Table 4.2).
    pub fn endpoint(&self) -> Endpoint {
        self.engine.borrow().endpoint()
    }

    /// Bind the two sockets and start the stale sweep (skipped when
    /// `stale_max_age` is disabled).
    pub fn start(&self, s: &mut Scheduler) {
        let wiz = self.clone();
        self.net.bind_udp(self.endpoint(), move |s, dgram| wiz.on_request_port(s, dgram));
        let wiz = self.clone();
        let receiver = Endpoint::new(self.endpoint().ip, ports::RECEIVER);
        self.net.bind_stream(receiver, move |s, msg| {
            let mut engine = wiz.engine.borrow_mut();
            smartsock_wire::receive(engine.dbs_mut(), s.now(), &msg.payload.data, &mut s.telemetry);
        });
        if let Some(age) = self.engine.borrow().policy().stale_max_age {
            let interval = SimDuration::from_nanos((age.as_nanos() / 2).max(1));
            let wiz = self.clone();
            let epoch = self.epoch.get();
            s.schedule_in(interval, move |s| wiz.sweep_tick(s, epoch, interval));
        }
    }

    /// Kill the daemon: unbind the request socket and halt the sweep.
    /// In-flight requests get no answer — clients rely on their own
    /// retry/backoff loop. The receiver port stays bound, so the tables
    /// keep taking snapshots until the machine itself goes down.
    pub fn stop(&self) {
        self.epoch.set(self.epoch.get() + 1);
        self.net.unbind_udp(self.endpoint());
    }

    /// Restart a stopped wizard (or a rebooted machine's): rebind and
    /// resume sweeping.
    pub fn restart(&self, s: &mut Scheduler) {
        self.epoch.set(self.epoch.get() + 1);
        s.telemetry.counter_incr("wizard-restarts");
        self.start(s);
    }

    fn sweep_tick(&self, s: &mut Scheduler, epoch: u64, interval: SimDuration) {
        if self.epoch.get() != epoch {
            return;
        }
        self.engine.borrow_mut().step(s.now(), Input::Tick, &mut s.telemetry);
        let wiz = self.clone();
        s.schedule_in(interval, move |s| wiz.sweep_tick(s, epoch, interval));
    }

    /// §3.6.1 step 2: centralized status is already here; in distributed
    /// mode a request first pulls from the transmitters and is served
    /// after the settle delay. Only a decodable request is worth a pull —
    /// garbage must not fan out to every transmitter.
    fn on_request_port(&self, s: &mut Scheduler, dgram: UdpDatagram) {
        match &self.mode {
            WizardMode::Distributed { transmitters } if engine::is_request(&dgram.payload.data) => {
                smartsock_wire::request_update(&self.net, s, self.endpoint().ip, transmitters);
                let wiz = self.clone();
                s.schedule_in(SETTLE, move |s| wiz.serve(s, &dgram));
            }
            _ => self.serve(s, &dgram),
        }
    }

    fn serve(&self, s: &mut Scheduler, dgram: &UdpDatagram) {
        let mut engine = self.engine.borrow_mut();
        let input = Input::Datagram { from: dgram.from, bytes: &dgram.payload.data };
        // The simulated network never fails a send: loss is silence.
        if let Stepped::Reply(to, frame) | Stepped::Stats(to, frame) =
            engine.step(s.now(), input, &mut s.telemetry)
        {
            self.net.send_udp(s, engine.endpoint(), to, Payload::data(frame), None);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Only what the simulated driver adds is tested here; matching,
    //! ordering and ingest are tested once, on the engine.
    use super::*;
    use smartsock_monitor::{StateKind, StatusDbs};
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::{
        OutcomeKind, OutcomeReport, RequestOption, ServerStatusReport, StatsReply, StatsRequest,
        UserRequest, WizardReply,
    };
    use smartsock_sim::SimTime;
    use smartsock_wire::{Mode, Transmitter};

    const WIZ_IP: Ip = Ip::new(10, 0, 0, 1);
    const CLIENT: Endpoint = Endpoint::new(Ip::new(10, 0, 0, 2), 50001);

    /// A started wizard on a two-host LAN and the replies the client
    /// endpoint has received so far.
    struct Rig {
        s: Scheduler,
        net: Network,
        wiz: Wizard,
        replies: Rc<RefCell<Vec<(SimTime, WizardReply)>>>,
    }

    fn rig(cfg: WizardConfig) -> Rig {
        let mut b = NetworkBuilder::new(3);
        let w = b.host("wiz", WIZ_IP, HostParams::testbed());
        let c = b.host("client", CLIENT.ip, HostParams::testbed());
        b.duplex(w, c, LinkParams::lan_100mbps());
        let net = b.build();
        let wiz = Wizard::new(WIZ_IP, net.clone(), cfg);
        let mut s = Scheduler::new();
        wiz.start(&mut s);
        let replies = Rc::new(RefCell::new(Vec::new()));
        let got = Rc::clone(&replies);
        net.bind_udp(CLIENT, move |s, d| {
            got.borrow_mut().push((s.now(), WizardReply::decode(&d.payload.data).unwrap()));
        });
        Rig { s, net, wiz, replies }
    }

    fn no_sweep() -> WizardConfig {
        WizardConfig {
            policy: SelectPolicy { stale_max_age: None, ..Default::default() },
            ..Default::default()
        }
    }

    fn report(name: &str, ip: Ip) -> ServerStatusReport {
        let mut r = ServerStatusReport::empty(name, ip);
        r.cpu_idle = 0.95;
        r.mem_free = 200 << 20;
        r
    }

    fn request_bytes(detail: &str) -> Vec<u8> {
        let req = UserRequest {
            seq: 7,
            server_num: 1,
            option: RequestOption::DEFAULT,
            detail: detail.to_owned(),
        };
        req.encode().to_vec()
    }

    impl Rig {
        fn send(&mut self, to: Endpoint, bytes: Vec<u8>) {
            self.net.send_udp(&mut self.s, CLIENT, to, Payload::data(bytes), None);
        }

        fn upsert(&self, r: ServerStatusReport) {
            self.wiz.engine_mut().dbs_mut().sys.upsert(r, SimTime::ZERO);
        }

        fn wizard_rows(&self) -> usize {
            self.wiz.engine().dbs().sys.len()
        }

        /// A transmitter on the client's machine whose `sysdb` holds one
        /// row, `SHIPPED`, ready to push to the wizard's receiver port.
        fn transmitter(&self) -> Transmitter {
            let dbs: Rc<RefCell<StatusDbs>> = Rc::default();
            dbs.borrow_mut().sys.upsert(report("shipped", SHIPPED), SimTime::ZERO);
            Transmitter::new(CLIENT.ip, self.net.clone(), Mode::Centralized, WIZ_IP, dbs)
        }
    }

    const SHIPPED: Ip = Ip::new(10, 0, 3, 3);

    #[test]
    fn end_to_end_over_udp() {
        let mut r = rig(no_sweep());
        r.upsert(report("srv", Ip::new(10, 0, 0, 9)));
        r.send(r.wiz.endpoint(), request_bytes("host_cpu_free > 0.5\n"));
        r.s.run();
        let replies = r.replies.borrow();
        assert_eq!(replies.len(), 1, "wizard replied");
        assert_eq!(replies[0].1.seq, 7);
        assert_eq!(replies[0].1.servers.len(), 1);
        assert_eq!(r.s.telemetry.counter("wizard-requests"), 1);
        assert_eq!(r.s.telemetry.counter("wizard-replies"), 1);
        assert_eq!(r.s.telemetry.span_durations_ns("wizard-match").len(), 1);
    }

    #[test]
    fn undecodable_datagrams_count_as_bad_requests_and_open_no_match_span() {
        let mut r = rig(no_sweep());
        r.send(r.wiz.endpoint(), b"xy".to_vec());
        r.s.run();
        assert!(r.replies.borrow().is_empty());
        assert_eq!(r.s.telemetry.counter("wizard-bad-requests"), 1);
        assert_eq!(r.s.telemetry.counter("wizard-requests"), 0);
        assert!(r.s.telemetry.span_durations_ns("wizard-match").is_empty());
        assert!(r.s.telemetry.records().is_empty(), "a bad request leaves no span record");
    }

    #[test]
    fn outcome_reports_feed_the_health_table_over_udp() {
        let mut r = rig(no_sweep());
        let srv = Ip::new(10, 0, 0, 9);
        for _ in 0..2 {
            let rep = OutcomeReport { server: srv, outcome: OutcomeKind::ConnectFailed };
            r.send(r.wiz.endpoint(), rep.encode().to_vec());
        }
        r.send(r.wiz.endpoint(), b"?".to_vec());
        r.s.run();
        assert_eq!(r.s.telemetry.counter("wizard-outcome-reports"), 2);
        assert_eq!(r.s.telemetry.counter("wizard-bad-requests"), 1);
        assert_eq!(r.s.telemetry.counter("health-quarantines"), 1);
        assert_eq!(r.wiz.engine().health().effective_state(srv, r.s.now()), StateKind::Quarantined);
    }

    #[test]
    fn a_stats_poll_is_counted_and_answered() {
        let mut r = rig(no_sweep());
        r.upsert(report("srv", Ip::new(10, 0, 0, 9)));
        let poller = Endpoint::new(CLIENT.ip, 50002);
        let frames = Rc::new(RefCell::new(Vec::new()));
        let got = Rc::clone(&frames);
        r.net.bind_udp(poller, move |_, d| got.borrow_mut().push(d.payload.data.to_vec()));
        // Eight bytes that would decode as a request, were they not a poll;
        // then four that are no poll at all, which get no answer.
        for poll in [StatsRequest { seq: 7 }.encode().to_vec(), b"SSQ1".to_vec()] {
            r.net.send_udp(&mut r.s, poller, r.wiz.endpoint(), Payload::data(poll), None);
        }
        r.s.run();
        let frames = frames.borrow();
        assert_eq!(frames.len(), 1, "only the valid poll is answered");
        let answer = StatsReply::decode(&frames[0]).unwrap();
        assert_eq!(answer.seq, 7);
        let counted = r#"{"t":"counter","name":"wizard-stats-requests","value":1}"#;
        assert!(answer.lines.lines().any(|l| l == counted), "{}", answer.lines);
        assert_eq!(r.s.telemetry.counter("wizard-stats-requests"), 2);
        assert_eq!(r.s.telemetry.counter("wizard-requests"), 0);
        assert_eq!(r.s.telemetry.counter("wizard-bad-requests"), 0);
    }

    #[test]
    fn sweep_reports_per_shard_evictions_summing_to_the_global_counter() {
        // Regression pin for the sharded sweep: `wizard-stale-evictions`
        // keeps its pre-sharding meaning (total addresses evicted), the
        // per-shard `status-db-shard-swept` events account for every one
        // of them, and each expired address still gets its
        // `status-db-expired` event.
        let mut r = rig(WizardConfig::default());
        // Five records across three /24 subnets, all recorded at t = 0 so
        // the 6 s window expires every one of them on the first sweep.
        for (subnet, last) in [(1u8, 1u8), (1, 2), (2, 1), (2, 2), (3, 1)] {
            r.upsert(report(&format!("s{subnet}{last}"), Ip::new(10, 0, subnet, last)));
        }
        r.s.run_until(SimTime::from_secs(10));

        let tel = &r.s.telemetry;
        assert_eq!(tel.counter("wizard-stale-evictions"), 5);
        assert_eq!(r.wizard_rows(), 0);
        let per_shard: u64 = tel
            .events_named("status-db-shard-swept")
            .map(|e| e.attr("evicted").unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(per_shard, 5, "per-shard counts must sum to the global eviction count");
        assert_eq!(tel.event_count("status-db-shard-swept"), 3, "one event per /24");
        assert_eq!(tel.event_count("status-db-expired"), 5);
    }

    #[test]
    fn a_stopped_wizard_neither_answers_nor_sweeps_until_restarted() {
        let mut r = rig(WizardConfig::default());
        r.wiz.stop();
        r.upsert(report("old", Ip::new(10, 0, 1, 1)));
        r.send(r.wiz.endpoint(), request_bytes(""));
        r.s.run_until(SimTime::from_secs(10));
        assert!(r.replies.borrow().is_empty(), "no socket, no answer");
        assert_eq!(r.wizard_rows(), 1, "the pending sweep died with the old epoch");

        r.wiz.restart(&mut r.s);
        r.send(r.wiz.endpoint(), request_bytes(""));
        r.s.run_until(SimTime::from_secs(14));
        assert_eq!(r.replies.borrow().len(), 1, "rebound and serving");
        assert_eq!(r.s.telemetry.counter("wizard-restarts"), 1);
        assert_eq!(r.s.telemetry.counter("wizard-stale-evictions"), 1, "sweeping again");
    }

    #[test]
    fn distributed_mode_answers_after_the_settle_delay_and_never_pulls_for_garbage() {
        let mut r = rig(WizardConfig {
            mode: WizardMode::Distributed { transmitters: vec![CLIENT.ip] },
            ..no_sweep()
        });
        r.send(r.wiz.endpoint(), b"xy".to_vec());
        r.send(r.wiz.endpoint(), request_bytes(""));
        r.s.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        assert_eq!(r.s.telemetry.counter("wizard-bad-requests"), 1, "garbage is judged on arrival");
        assert_eq!(r.s.telemetry.counter("wizard-requests"), 0, "the request is still settling");
        assert_eq!(r.s.telemetry.counter("receiver-pull-requests"), 1, "one pull, for the request");
        r.s.run();
        let replies = r.replies.borrow();
        assert_eq!(replies.len(), 1);
        assert!(replies[0].0 >= SimTime::ZERO + SETTLE, "replied at {:?}", replies[0].0);
    }

    // ---- the receiver port: snapshots land in the engine's tables ----

    /// A request that arrives in the same instant as a snapshot, after it,
    /// is matched against it: the receiver writes the tables the request
    /// reads, with nothing in between to go stale. The client sits on the
    /// wizard's own machine, so the request's transit is the loopback
    /// constant and can be aimed at the instant the snapshot lands.
    #[test]
    fn a_request_sees_a_snapshot_delivered_before_it_in_the_same_instant() {
        const LOCAL: Endpoint = Endpoint::new(WIZ_IP, 50001);
        let request = request_bytes("host_cpu_free > 0.5\n");
        // The instant the snapshot lands, and the loopback transit of the
        // request (to a port of the test's own), each on a fresh rig.
        let mut r = rig(no_sweep());
        r.transmitter().push_snapshot(&mut r.s);
        while r.wizard_rows() == 0 && r.s.step() {}
        let landed = r.s.now();
        let mut r = rig(no_sweep());
        let probe = Endpoint::new(WIZ_IP, 50002);
        let arrived = Rc::new(Cell::new(SimTime::ZERO));
        let at = Rc::clone(&arrived);
        r.net.bind_udp(probe, move |s, _| at.set(s.now()));
        r.net.send_udp(&mut r.s, LOCAL, probe, Payload::data(request.clone()), None);
        r.s.run();
        let transit = arrived.get().since(SimTime::ZERO);

        let mut r = rig(no_sweep());
        let replies = Rc::new(RefCell::new(Vec::new()));
        let got = Rc::clone(&replies);
        r.net.bind_udp(LOCAL, move |_, d| {
            got.borrow_mut().push(WizardReply::decode(&d.payload.data).unwrap());
        });
        r.transmitter().push_snapshot(&mut r.s);
        let (net, to) = (r.net.clone(), r.wiz.endpoint());
        r.s.schedule_at(SimTime(landed.0 - transit.as_nanos()), move |s| {
            net.send_udp(s, LOCAL, to, Payload::data(request), None);
        });
        let (mut snapshot_at, mut request_at) = (None, None);
        while r.s.step() {
            if snapshot_at.is_none() && r.wizard_rows() == 1 {
                snapshot_at = Some(r.s.now());
            }
            if request_at.is_none() && r.s.telemetry.counter("wizard-requests") == 1 {
                request_at = Some(r.s.now());
                assert!(snapshot_at.is_some(), "the snapshot was handled first");
            }
        }
        assert_eq!(snapshot_at, Some(landed));
        assert_eq!(request_at, Some(landed), "one instant");
        let servers: Vec<Ip> = replies.borrow()[0].servers.iter().map(|ep| ep.ip).collect();
        assert_eq!(servers, [SHIPPED]);
    }

    #[test]
    fn a_stopped_wizard_keeps_taking_snapshots() {
        let mut r = rig(no_sweep());
        r.wiz.stop();
        r.transmitter().push_snapshot(&mut r.s);
        r.s.run();
        assert_eq!(r.s.telemetry.counter("receiver-frames"), 3, "the receiver port stayed bound");
        r.wiz.restart(&mut r.s);
        assert!(r.wiz.engine().dbs().sys.get(SHIPPED).is_some());
    }

    /// The host crash and reboot `smartsock_faults::FaultInjector` performs
    /// on the wizard's machine: the crash wipes every binding, and the
    /// restart that follows the reboot binds the receiver port again.
    #[test]
    fn snapshots_land_again_after_the_wizard_machine_reboots() {
        let mut r = rig(no_sweep());
        let node = r.net.node_by_ip(WIZ_IP).unwrap();
        r.wiz.stop();
        r.net.crash_node(&mut r.s, node);
        r.net.revive_node(&mut r.s, node);
        r.transmitter().push_snapshot(&mut r.s);
        r.s.run();
        assert_eq!(r.wizard_rows(), 0, "nothing listens on a rebooted machine");

        r.wiz.restart(&mut r.s);
        r.transmitter().push_snapshot(&mut r.s);
        r.s.run();
        assert!(r.wiz.engine().dbs().sys.get(SHIPPED).is_some());
    }
}
