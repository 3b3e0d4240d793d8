//! Property-based tests of the simulation substrates: scheduler ordering,
//! host accounting and network conservation laws.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_hostsim::{CpuModel, Host, HostConfig};
use smartsock_net::{HostParams, LinkParams, NetworkBuilder, Payload};
use smartsock_proto::{Endpoint, Ip};
use smartsock_sim::rng::cases;
use smartsock_sim::{Scheduler, SimDuration, SimTime};

/// Events always execute in nondecreasing time order, whatever order
/// they were scheduled in.
#[test]
fn scheduler_executes_in_time_order() {
    cases("scheduler_executes_in_time_order", |rng| {
        let times: Vec<u64> = (0..1 + rng.below(59)).map(|_| rng.below(1_000_000)).collect();
        let mut s = Scheduler::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for &t in &times {
            let log = Rc::clone(&log);
            s.schedule_at(SimTime(t), move |s| log.borrow_mut().push(s.now().0));
        }
        s.run();
        let executed = log.borrow();
        assert_eq!(executed.len(), times.len());
        assert!(executed.windows(2).all(|w| w[0] <= w[1]), "out of order: {executed:?}");
        let mut expected = times.clone();
        expected.sort_unstable();
        assert_eq!(&*executed, &expected);
    });
}

/// Cancelling an arbitrary subset removes exactly those events.
#[test]
fn scheduler_cancellation_is_exact() {
    cases("scheduler_cancellation_is_exact", |rng| {
        let times: Vec<u64> = (0..1 + rng.below(39)).map(|_| 1 + rng.below(999)).collect();
        let cancel_mask: Vec<bool> = (0..40).map(|_| rng.below(2) == 1).collect();
        let mut s = Scheduler::new();
        let hits = Rc::new(RefCell::new(0usize));
        let mut cancelled = 0;
        for (i, &t) in times.iter().enumerate() {
            let h = Rc::clone(&hits);
            let id = s.schedule_at(SimTime(t), move |_| *h.borrow_mut() += 1);
            if *cancel_mask.get(i).unwrap_or(&false) {
                s.cancel(id);
                cancelled += 1;
            }
        }
        s.run();
        assert_eq!(*hits.borrow(), times.len() - cancelled);
    });
}

/// A compute task's completion time equals work/rate when alone, and
/// total CPU time is conserved under any interleaving of two tasks.
#[test]
fn cpu_time_is_conserved() {
    cases("cpu_time_is_conserved", |rng| {
        let (work1, work2) = (rng.range(1e6..1e8), rng.range(1e6..1e8));
        let stagger_ms = rng.below(2000);
        let host = Host::new(HostConfig::new("h", Ip::new(10, 0, 0, 1), CpuModel::P4_1700, 512));
        let rate = CpuModel::P4_1700.compute_rate;
        let mut s = Scheduler::new();
        let done: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let d = Rc::clone(&done);
            host.spawn_compute(&mut s, work1, 1 << 20, move |s| {
                d.borrow_mut().push(s.now().as_secs_f64())
            })
            .unwrap();
        }
        {
            let host2 = host.clone();
            let d = Rc::clone(&done);
            s.schedule_in(SimDuration::from_millis(stagger_ms), move |s| {
                host2
                    .spawn_compute(s, work2, 1 << 20, move |s| {
                        d.borrow_mut().push(s.now().as_secs_f64())
                    })
                    .unwrap();
            });
        }
        s.run();
        let finish = done.borrow();
        assert_eq!(finish.len(), 2);
        // Conservation: the CPU is busy from 0 until the last completion
        // with no idle gaps (work backlog permitting), so
        // total work == rate × busy time.
        let stagger = stagger_ms as f64 / 1e3;
        let solo1_end = work1 / rate;
        let busy = if stagger >= solo1_end {
            // No overlap: two separate busy intervals.
            solo1_end + work2 / rate
        } else {
            finish.iter().cloned().fold(0.0, f64::max)
        };
        // Either way the CPU executes work1 + work2 at `rate`; in the
        // overlapping case it is one contiguous busy period starting at 0.
        let expected_busy = (work1 + work2) / rate;
        assert!(
            (busy - expected_busy).abs() < 1e-6 * expected_busy.max(1.0) + 1e-6,
            "busy {busy} vs expected {expected_busy}"
        );
    });
}

/// Datagram delivery count equals send count on a lossless network,
/// and payload sizes survive transit.
#[test]
fn lossless_delivery_conserves_datagrams() {
    cases("lossless_delivery_conserves_datagrams", |rng| {
        let sizes: Vec<u64> = (0..1 + rng.below(29)).map(|_| 1 + rng.below(9_999)).collect();
        let mut b = NetworkBuilder::new(9);
        let a = b.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let r = b.router("r", Ip::new(10, 0, 0, 254));
        let c = b.host("c", Ip::new(10, 0, 1, 1), HostParams::testbed());
        b.duplex(a, r, LinkParams::lan_100mbps());
        b.duplex(r, c, LinkParams::lan_100mbps());
        let net = b.build();
        let mut s = Scheduler::new();
        let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&got);
        let dst = Endpoint::new(Ip::new(10, 0, 1, 1), 1200);
        net.bind_udp(dst, move |_s, d| sink.borrow_mut().push(d.payload.len()));
        for &size in &sizes {
            net.send_udp(
                &mut s,
                Endpoint::new(Ip::new(10, 0, 0, 1), 40000),
                dst,
                Payload::zeroes(size),
                None,
            );
        }
        s.run();
        let mut received = got.borrow().clone();
        let mut sent = sizes.clone();
        received.sort_unstable();
        sent.sort_unstable();
        assert_eq!(received, sent);
    });
}

/// Flow completion time equals bytes/bottleneck for a single flow,
/// for any byte count and bottleneck rate.
#[test]
fn single_flow_timing_is_exact() {
    cases("single_flow_timing_is_exact", |rng| {
        let bytes = 1_000 + rng.below(49_999_000);
        let rate_mbps = 1 + rng.below(999) as u32;
        let mut b = NetworkBuilder::new(11);
        let a = b.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let c = b.host("c", Ip::new(10, 0, 0, 2), HostParams::testbed());
        b.duplex(a, c, LinkParams::lan_100mbps().with_rate(f64::from(rate_mbps) * 1e6));
        let net = b.build();
        let mut s = Scheduler::new();
        let done = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        net.start_flow(&mut s, a, c, bytes, move |s, _| {
            *d.borrow_mut() = Some(s.now().as_secs_f64())
        });
        s.run();
        let t = done.borrow().expect("flow completes");
        let expected = bytes as f64 * 8.0 / (f64::from(rate_mbps) * 1e6);
        assert!((t - expected).abs() < expected * 1e-6 + 1e-6, "t={t} expected={expected}");
    });
}

/// The loadavg EMA never exceeds the maximum queue length seen and
/// never goes negative.
#[test]
fn loadavg_is_bounded_by_queue_extremes() {
    use smartsock_hostsim::load::LoadAvg;
    cases("loadavg_is_bounded_by_queue_extremes", |rng| {
        let queue_lens: Vec<usize> =
            (0..1 + rng.below(29)).map(|_| rng.below(8) as usize).collect();
        let mut l = LoadAvg::default();
        let max_q = *queue_lens.iter().max().expect("non-empty") as f64;
        let mut t = 0u64;
        for &q in &queue_lens {
            l.set_queue_len(SimTime::from_secs(t), q);
            t += 30;
        }
        let (l1, l5, l15) = l.sample(SimTime::from_secs(t));
        for v in [l1, l5, l15] {
            assert!(v >= -1e-12 && v <= max_q + 1e-9, "load {v} outside [0, {max_q}]");
        }
    });
}
