//! # smartsock-wire
//!
//! Transmitter and receiver (paper §3.5): the components that move the
//! three status databases from each monitor machine to the wizard machine.
//!
//! The transmitter snapshots `sysdb`/`netdb`/`secdb` and ships them as
//! binary `[type, size, data]` frames over TCP (§3.5.1 — binary because a
//! monitor may track many servers and ASCII conversion would waste cycles;
//! the record layout is pinned little-endian, see `smartsock-proto`). The
//! receiver is a function, [`receive`], not a daemon: it reassembles the
//! frames of one snapshot into whichever [`StatusDbs`] its caller owns, so
//! the wizard reads them "as if they were generated locally" (§3.5.2). The
//! simulated wizard binds it to its receiver port and writes straight into
//! its engine's tables.
//!
//! Two operating modes (§3.5.1):
//!
//! * **Centralized** — the transmitter pushes every `interval`; the wizard
//!   always has fresh data and replies instantly. Right for small, dense
//!   deployments.
//! * **Distributed** — the transmitter listens passively on port 1110 and
//!   sends a snapshot only when the wizard machine asks for one
//!   ([`request_update`]), avoiding steady background traffic across a
//!   sparse wide-area system.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_monitor::StatusDbs;
use smartsock_net::{Network, Payload};
use smartsock_proto::consts::{ports, timing};
use smartsock_proto::{Endpoint, Frame, Ip, RecordType};
use smartsock_sim::{Scheduler, SimDuration, SimTime, Telemetry};

/// Transmitter/receiver operating mode (§3.5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Push snapshots on a timer.
    Centralized,
    /// Wait for pull requests from the wizard machine.
    Distributed,
}

/// The pull-request body sent by a receiver in distributed mode.
pub const PULL_REQUEST: &[u8] = b"SSPULL1";

/// The transmitter daemon on a monitor machine.
#[derive(Clone)]
pub struct Transmitter {
    ip: Ip,
    net: Network,
    mode: Mode,
    receiver: Endpoint,
    interval: SimDuration,
    /// The monitor machine's databases, snapshotted whole on every push.
    dbs: Rc<RefCell<StatusDbs>>,
}

impl Transmitter {
    pub fn new(
        ip: Ip,
        net: Network,
        mode: Mode,
        receiver_ip: Ip,
        dbs: Rc<RefCell<StatusDbs>>,
    ) -> Transmitter {
        Transmitter {
            ip,
            net,
            mode,
            receiver: Endpoint::new(receiver_ip, ports::RECEIVER),
            interval: SimDuration::from_secs(timing::TRANSMIT_INTERVAL_SECS),
            dbs,
        }
    }

    pub fn with_interval(mut self, interval: SimDuration) -> Transmitter {
        self.interval = interval;
        self
    }

    /// The passive-mode listening endpoint (port 1110 of Table 4.2).
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::new(self.ip, ports::TRANSMITTER)
    }

    pub fn start(&self, s: &mut Scheduler) {
        match self.mode {
            Mode::Centralized => {
                let tx = self.clone();
                s.schedule_in(self.interval, move |s| tx.tick(s));
            }
            Mode::Distributed => {
                let tx = self.clone();
                self.net.bind_stream(self.endpoint(), move |s, msg| {
                    if &msg.payload.data[..] == PULL_REQUEST {
                        s.telemetry.counter_incr("transmitter-pulls");
                        tx.push_snapshot(s);
                    } else {
                        s.telemetry.counter_incr("transmitter-bad-requests");
                    }
                });
            }
        }
    }

    /// Re-install the passive pull listener after the hosting node's
    /// socket table was wiped (host crash). Centralized mode keeps its
    /// scheduler timer loop across a crash — pushes simply fail while the
    /// node is down — so there is nothing to re-bind.
    pub fn rebind(&self, s: &mut Scheduler) {
        if self.mode == Mode::Distributed {
            self.start(s);
        }
    }

    fn tick(&self, s: &mut Scheduler) {
        self.push_snapshot(s);
        let tx = self.clone();
        s.schedule_in(self.interval, move |s| tx.tick(s));
    }

    /// Snapshot all three databases and ship them as one framed message.
    /// System rows travel as `SystemAged` frames so the receiver can
    /// reconstruct each record's original report time — without the age a
    /// monitor-side stale row would look freshly minted to the wizard.
    pub fn push_snapshot(&self, s: &mut Scheduler) {
        let (sys, net_frame, sec) = {
            let dbs = self.dbs.borrow();
            (
                Frame::system_aged(&dbs.sys.aged_snapshot(s.now())),
                Frame::network(&dbs.net.snapshot()),
                Frame::security(&dbs.sec.snapshot()),
            )
        };
        let mut wire = Vec::with_capacity(sys.wire_len() + net_frame.wire_len() + sec.wire_len());
        sys.encode(&mut wire);
        net_frame.encode(&mut wire);
        sec.encode(&mut wire);
        s.telemetry.counter_incr("transmitter-snapshots");
        s.telemetry.counter_add("transmitter-bytes", wire.len() as u64);
        let from = Endpoint::new(self.ip, ports::TRANSMITTER);
        self.net.send_stream(s, from, self.receiver, Payload::data(wire));
    }
}

/// The receiver (§3.5.2): merge one snapshot message, arrived at `now`,
/// into `dbs`. Snapshots *merge* per record type — several monitor
/// machines may feed one receiver, and each snapshot carries the full
/// state of its sender's databases. A message arrives whole, so bytes left
/// that do not make a frame are a bad frame too.
pub fn receive(dbs: &mut StatusDbs, now: SimTime, mut payload: &[u8], tel: &mut Telemetry) {
    loop {
        match Frame::decode(&mut payload) {
            Ok(Some(frame)) => apply(dbs, now, frame, tel),
            Ok(None) if payload.is_empty() => break,
            Ok(None) | Err(_) => {
                tel.counter_incr("receiver-bad-frames");
                break;
            }
        }
    }
}

fn apply(dbs: &mut StatusDbs, now: SimTime, frame: Frame, tel: &mut Telemetry) {
    tel.counter_incr("receiver-frames");
    tel.counter_add("receiver-bytes", frame.wire_len() as u64);
    let decoded = match frame.rtype {
        RecordType::System => frame.decode_system().map(|reports| {
            for r in reports {
                dbs.sys.upsert(r, now);
            }
        }),
        RecordType::SystemAged => frame.decode_system_aged().map(|reports| {
            for (r, age_ns) in reports {
                // Rebuild the original report time in this machine's
                // timeline (clamped at the origin).
                dbs.sys.upsert(r, SimTime(now.0.saturating_sub(age_ns)));
            }
        }),
        RecordType::Network => frame.decode_network().map(|recs| {
            for r in recs {
                dbs.net.upsert(r);
            }
        }),
        RecordType::Security => frame.decode_security().map(|recs| {
            for r in recs {
                dbs.sec.upsert(r);
            }
        }),
    };
    if decoded.is_err() {
        tel.counter_incr("receiver-bad-frames");
    }
}

/// Distributed mode: ask every listed transmitter for a fresh snapshot,
/// from the receiver port of the machine `from` (§3.5.2: "a wizard
/// triggers all transmitters participating in the computing task to send
/// updated reports").
pub fn request_update(net: &Network, s: &mut Scheduler, from: Ip, transmitters: &[Ip]) {
    for &tx in transmitters {
        let to = Endpoint::new(tx, ports::TRANSMITTER);
        s.telemetry.counter_incr("receiver-pull-requests");
        net.send_stream(s, Endpoint::new(from, ports::RECEIVER), to, Payload::data(PULL_REQUEST));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::{NetPathRecord, SecurityRecord, ServerStatusReport};

    struct Rig {
        s: Scheduler,
        net: Network,
        mon_dbs: Rc<RefCell<StatusDbs>>,
        /// What the receiver port on the wizard machine has merged.
        wiz_dbs: Rc<RefCell<StatusDbs>>,
        mon_ip: Ip,
        wiz_ip: Ip,
    }

    /// Two machines across a router, with [`receive`] bound to the wizard
    /// machine's receiver port.
    fn rig() -> Rig {
        let mut b = NetworkBuilder::new(55);
        let mon = b.host("monmachine", Ip::new(192, 168, 1, 1), HostParams::testbed());
        let wiz = b.host("wizmachine", Ip::new(192, 168, 2, 1), HostParams::testbed());
        let r = b.router("core", Ip::new(192, 168, 0, 254));
        b.duplex(mon, r, LinkParams::lan_100mbps());
        b.duplex(r, wiz, LinkParams::lan_100mbps());
        let r = Rig {
            s: Scheduler::new(),
            net: b.build(),
            mon_dbs: Rc::default(),
            wiz_dbs: Rc::default(),
            mon_ip: Ip::new(192, 168, 1, 1),
            wiz_ip: Ip::new(192, 168, 2, 1),
        };
        let dbs = Rc::clone(&r.wiz_dbs);
        r.net.bind_stream(Endpoint::new(r.wiz_ip, ports::RECEIVER), move |s, msg| {
            receive(&mut dbs.borrow_mut(), s.now(), &msg.payload.data, &mut s.telemetry);
        });
        r
    }

    fn transmitter(r: &Rig, mode: Mode) -> Transmitter {
        Transmitter::new(r.mon_ip, r.net.clone(), mode, r.wiz_ip, Rc::clone(&r.mon_dbs))
    }

    fn seed_monitor_dbs(r: &Rig) {
        let mut report = ServerStatusReport::empty("helene", Ip::new(192, 168, 3, 10));
        report.load1 = 0.5;
        report.mem_free = 100 << 20;
        let mut dbs = r.mon_dbs.borrow_mut();
        dbs.sys.upsert(report, SimTime::ZERO);
        dbs.net.upsert(NetPathRecord {
            from_monitor: r.mon_ip,
            to_monitor: Ip::new(192, 168, 5, 1),
            delay_ms: 1.2,
            bw_mbps: 88.0,
            timestamp_ns: 0,
        });
        dbs.sec.upsert(SecurityRecord {
            host: "helene".into(),
            ip: Ip::new(192, 168, 3, 10),
            level: 3,
        });
    }

    #[test]
    fn centralized_mode_pushes_snapshots_periodically() {
        let mut r = rig();
        seed_monitor_dbs(&r);
        transmitter(&r, Mode::Centralized).start(&mut r.s);

        r.s.run_until(SimTime::from_secs(5));
        assert!(r.s.telemetry.counter("transmitter-snapshots") >= 2);
        let wiz = r.wiz_dbs.borrow();
        let rows = wiz.sys.snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].host.as_str(), "helene");
        assert_eq!(rows[0].mem_free, 100 << 20);
        assert_eq!(wiz.net.get(r.mon_ip, Ip::new(192, 168, 5, 1)).unwrap().bw_mbps, 88.0);
        assert_eq!(wiz.sec.level_of(Ip::new(192, 168, 3, 10)), Some(3));
    }

    #[test]
    fn distributed_mode_sends_only_on_pull() {
        let mut r = rig();
        seed_monitor_dbs(&r);
        transmitter(&r, Mode::Distributed).start(&mut r.s);

        r.s.run_until(SimTime::from_secs(10));
        assert_eq!(r.s.telemetry.counter("transmitter-snapshots"), 0, "no unsolicited pushes");
        assert!(r.wiz_dbs.borrow().sys.is_empty());

        request_update(&r.net, &mut r.s, r.wiz_ip, &[r.mon_ip]);
        r.s.run_until(SimTime::from_secs(12));
        assert_eq!(r.s.telemetry.counter("transmitter-pulls"), 1);
        assert_eq!(r.s.telemetry.counter("transmitter-snapshots"), 1);
        assert_eq!(r.wiz_dbs.borrow().sys.len(), 1);
    }

    #[test]
    fn updates_overwrite_older_records() {
        let mut r = rig();
        seed_monitor_dbs(&r);
        transmitter(&r, Mode::Centralized).start(&mut r.s);
        r.s.run_until(SimTime::from_secs(3));
        assert_eq!(r.wiz_dbs.borrow().sys.snapshot()[0].load1, 0.5);

        // The monitor learns a new load value; the next push propagates it.
        let mut newer = ServerStatusReport::empty("helene", Ip::new(192, 168, 3, 10));
        newer.load1 = 2.5;
        r.mon_dbs.borrow_mut().sys.upsert(newer, r.s.now());
        r.s.run_until(SimTime::from_secs(6));
        assert_eq!(r.wiz_dbs.borrow().sys.snapshot()[0].load1, 2.5);
    }

    #[test]
    fn row_staleness_survives_the_transmitter_receiver_hop() {
        let mut r = rig();
        // One row recorded at t=0; the transmitter pushes at t=2,4,...
        // Without age transport the wizard copy would read recorded_at as
        // the arrival time; with it, the copy tracks the true report time.
        seed_monitor_dbs(&r);
        transmitter(&r, Mode::Centralized).start(&mut r.s);
        r.s.run_until(SimTime::from_secs(9));
        let wiz = r.wiz_dbs.borrow();
        let row = wiz.sys.get(Ip::new(192, 168, 3, 10)).expect("row arrived");
        // Recorded at t=0 on the monitor; the copy's timestamp lands
        // within transit delay of the origin, nowhere near the ~8 s of
        // pushes that have happened since.
        assert!(
            row.recorded_at < SimTime::from_secs_f64(0.1),
            "staleness lost in transit: recorded_at = {:?}",
            row.recorded_at
        );
    }

    #[test]
    fn garbage_requests_and_frames_are_counted() {
        let mut r = rig();
        transmitter(&r, Mode::Distributed).start(&mut r.s);
        // Garbage pull request.
        let from = Endpoint::new(r.wiz_ip, 45000);
        r.net.send_stream(
            &mut r.s,
            from,
            Endpoint::new(r.mon_ip, ports::TRANSMITTER),
            Payload::data(&b"HAX"[..]),
        );
        // Garbage frame stream to the receiver.
        r.net.send_stream(
            &mut r.s,
            from,
            Endpoint::new(r.wiz_ip, ports::RECEIVER),
            Payload::data(vec![9u8, 9, 9, 9, 4, 0, 0, 0, 1, 2, 3, 4]),
        );
        r.s.run_until(SimTime::from_secs(2));
        assert_eq!(r.s.telemetry.counter("transmitter-bad-requests"), 1);
        assert_eq!(r.s.telemetry.counter("receiver-bad-frames"), 1);
    }

    #[test]
    fn a_cut_trailing_frame_is_a_bad_frame() {
        let r = rig();
        seed_monitor_dbs(&r);
        let mut bytes = Vec::new();
        Frame::security(&r.mon_dbs.borrow().sec.snapshot()).encode(&mut bytes);
        let mut s = Scheduler::new();
        let mut dbs = StatusDbs::default();
        receive(&mut dbs, SimTime::ZERO, &bytes[..bytes.len() - 1], &mut s.telemetry);
        assert_eq!(s.telemetry.counter("receiver-frames"), 0);
        assert_eq!(s.telemetry.counter("receiver-bad-frames"), 1);
        assert_eq!(dbs.sec.level_of(Ip::new(192, 168, 3, 10)), None);
    }

    #[test]
    fn snapshot_bytes_scale_with_record_count() {
        // 11 probes + 1 net record + 2 security records at 2 s intervals is
        // the Table 5.2 configuration (~1.2 KBps measured). Our frames:
        // 11×204 + 32 + 2×32 + headers ≈ 2.4 KB per push ⇒ ~1.2 KBps.
        let r = rig();
        for i in 0..11u8 {
            r.mon_dbs.borrow_mut().sys.upsert(
                ServerStatusReport::empty(format!("srv{i}").as_str(), Ip::new(192, 168, 4, i)),
                SimTime::ZERO,
            );
        }
        seed_monitor_dbs(&r); // +1 more sys record, 1 net, 1 sec
        let dbs = r.mon_dbs.borrow();
        let sys = Frame::system(&dbs.sys.snapshot());
        let netf = Frame::network(&dbs.net.snapshot());
        let secf = Frame::security(&dbs.sec.snapshot());
        let total = sys.wire_len() + netf.wire_len() + secf.wire_len();
        // 12 system records now; per 2 s push that is ~1.25 KBps.
        assert!(total > 2000 && total < 3500, "snapshot is {total} bytes");
    }
}
