//! A pathload-style SLoPS estimator — the second reference tool of the
//! thesis (§2.1, §3.3.1, Table 3.3).
//!
//! "Pathload uses a non-intrusive method called SLoPS (Self-Loading
//! Periodic Streams). The basic idea ... is to send streams of UDP packets
//! at different data rate and monitor the network delay for each stream.
//! If the sending rate is higher than the available bandwidth on the
//! network path, the delay will be increased as the queue will be built up
//! at the bottle link."
//!
//! Unlike the one-way UDP stream and packet-pair tools, SLoPS is a
//! **two-end** method: a receiver must run on the far host to timestamp
//! arrivals. [`estimate`] binds a temporary receiver, then runs a binary
//! search over stream rates: for each candidate rate it sends a periodic
//! stream and asks whether one-way delays *trend upward* across the
//! stream; the search converges on the largest non-self-loading rate.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_net::packet::udp_wire_size;
use smartsock_net::{Network, NodeId, Payload};
use smartsock_proto::Endpoint;
use smartsock_sim::{Scheduler, SimDuration, SimTime};

/// Packets per stream.
const STREAM_LEN: usize = 50;
/// Probe payload bytes (single-fragment keeps timing clean).
const PROBE_BYTES: u32 = 1200;
/// Binary-search iterations; the bracket halves each round.
const ITERATIONS: u32 = 8;
/// Initial search bracket in Mbps.
const MIN_MBPS: f64 = 0.5;
const MAX_MBPS: f64 = 120.0;
/// Allowance before a delay trend counts as self-loading.
const TREND_THRESHOLD: SimDuration = SimDuration::from_micros(200);
/// Idle gap between streams (decongestion, as pathload does).
const STREAM_GAP: SimDuration = SimDuration::from_millis(50);

/// Receiver port for SLoPS streams (distinct from the closed probe port —
/// SLoPS *wants* the datagrams delivered).
const SLOPS_PORT: u16 = 33500;

struct Search {
    lo: f64,
    hi: f64,
    iterations_left: u32,
}

/// Estimate the available bandwidth from `src` to `dst` in Mbps.
///
/// Temporarily binds the receiver port on `dst`; unbinds when done.
pub fn estimate(
    s: &mut Scheduler,
    net: &Network,
    src: NodeId,
    dst: NodeId,
    on_done: impl FnOnce(&mut Scheduler, f64) + 'static,
) {
    let search =
        Rc::new(RefCell::new(Search { lo: MIN_MBPS, hi: MAX_MBPS, iterations_left: ITERATIONS }));
    next_stream(s, net.clone(), src, dst, search, Box::new(on_done));
}

type Done = Box<dyn FnOnce(&mut Scheduler, f64)>;

fn next_stream(
    s: &mut Scheduler,
    net: Network,
    src: NodeId,
    dst: NodeId,
    search: Rc<RefCell<Search>>,
    on_done: Done,
) {
    let (rate_mbps, finished) = {
        let st = search.borrow();
        ((st.lo * st.hi).sqrt(), st.iterations_left == 0)
    };
    if finished {
        let st = search.borrow();
        let result = (st.lo + st.hi) / 2.0;
        drop(st);
        on_done(s, result);
        return;
    }

    let from = Endpoint::new(net.ip_of(src), 50001);
    let to = Endpoint::new(net.ip_of(dst), SLOPS_PORT);
    let wire_bits = udp_wire_size(u64::from(PROBE_BYTES)) as f64 * 8.0;
    let gap = SimDuration::from_secs_f64(wire_bits / (rate_mbps * 1e6));

    // Receiver: collect one-way delays (arrival − scheduled send time).
    let delays: Rc<RefCell<Vec<SimDuration>>> =
        Rc::new(RefCell::new(Vec::with_capacity(STREAM_LEN)));
    let send_times: Rc<RefCell<Vec<SimTime>>> =
        Rc::new(RefCell::new(vec![SimTime::ZERO; STREAM_LEN]));
    {
        let delays = Rc::clone(&delays);
        let send_times = Rc::clone(&send_times);
        net.bind_udp(to, move |s, dgram| {
            // Packet index rides in the first 4 payload bytes.
            let Some(header) = dgram.payload.data.get(..4) else { return };
            #[expect(clippy::expect_used, reason = "invariant: `get(..4)` returned a 4-byte slice")]
            let idx = u32::from_le_bytes(header.try_into().expect("invariant: slice is 4 bytes"))
                as usize;
            if let Some(&sent) = send_times.borrow().get(idx) {
                delays.borrow_mut().push(s.now().since(sent));
            }
        });
    }

    // Sender: one periodic stream.
    for i in 0..STREAM_LEN {
        let at = s.now() + SimDuration::from_nanos(gap.as_nanos() * i as u64);
        if let Some(slot) = send_times.borrow_mut().get_mut(i) {
            *slot = at;
        }
        let net2 = net.clone();
        s.schedule_at(at, move |s| {
            let header = (i as u32).to_le_bytes().to_vec();
            let pad = u64::from(PROBE_BYTES).saturating_sub(4);
            net2.send_udp(s, from, to, Payload::data_with_padding(header, pad), None);
        });
    }

    // Verdict once the stream has drained.
    let stream_span = SimDuration::from_nanos(gap.as_nanos() * STREAM_LEN as u64);
    let settle = s.now() + stream_span + SimDuration::from_millis(200);
    s.schedule_at(settle, move |s| {
        net.unbind_udp(to);
        let ds = delays.borrow();
        // Self-loading test: average delay of the last third vs the first
        // third of received packets.
        let loading = if ds.len() < 6 {
            true // heavy loss / nothing arrived: treat as overloaded
        } else {
            let third = ds.len() / 3;
            let (head_third, _) = ds.split_at(third);
            let (_, tail_third) = ds.split_at(ds.len() - third);
            let head: f64 = head_third.iter().map(|d| d.as_secs_f64()).sum::<f64>() / third as f64;
            let tail: f64 = tail_third.iter().map(|d| d.as_secs_f64()).sum::<f64>() / third as f64;
            tail - head > TREND_THRESHOLD.as_secs_f64()
        };
        drop(ds);
        {
            let mut st = search.borrow_mut();
            if loading {
                st.hi = rate_mbps;
            } else {
                st.lo = rate_mbps;
            }
            st.iterations_left -= 1;
        }
        s.telemetry.counter_incr("slops-streams");
        let net2 = net.clone();
        let resume = s.now() + STREAM_GAP;
        s.schedule_at(resume, move |s| {
            next_stream(s, net2, src, dst, search, on_done);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::Ip;

    fn path(seed: u64, rate_mbps: f64, cross: f64) -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(seed);
        let a = b.host("a", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let r = b.router("r", Ip::new(10, 0, 0, 254));
        let c = b.host("c", Ip::new(10, 0, 1, 1), HostParams::testbed());
        b.duplex(a, r, LinkParams::lan_100mbps());
        b.duplex(r, c, LinkParams::lan_100mbps().with_rate(rate_mbps * 1e6).with_cross_load(cross));
        (b.build(), a, c)
    }

    fn run(net: &Network, a: NodeId, c: NodeId) -> f64 {
        let mut s = Scheduler::new();
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        estimate(&mut s, net, a, c, move |_s, e| *g.borrow_mut() = Some(e));
        s.run();
        let e = got.borrow().expect("slops converges");
        e
    }

    #[test]
    fn slops_converges_near_available_bandwidth() {
        for (rate, cross) in [(20.0f64, 0.0), (50.0, 0.2), (100.0, 0.05)] {
            let (net, a, c) = path(13, rate, cross);
            let truth = net.path_available_bw(a, c).unwrap() / 1e6;
            let est = run(&net, a, c);
            assert!(
                (est - truth).abs() / truth < 0.35,
                "truth {truth:.1} Mbps, slops estimated {est:.1}"
            );
        }
    }

    #[test]
    fn slops_is_slower_but_two_ended() {
        // Documented property: SLoPS needs a bound receiver; the closed
        // probe port stays untouched so ICMP probing can run concurrently.
        let (net, a, c) = path(17, 30.0, 0.0);
        let mut s = Scheduler::new();
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        estimate(&mut s, &net, a, c, move |_s, e| *g.borrow_mut() = Some(e));
        s.run();
        assert!(got.borrow().is_some());
        assert!(s.telemetry.counter("slops-streams") >= 8, "one stream per iteration");
        // The receiver port is released afterwards.
        let ep = Endpoint::new(net.ip_of(c), SLOPS_PORT);
        let echoed = Rc::new(RefCell::new(false));
        let e2 = Rc::clone(&echoed);
        net.send_udp(
            &mut s,
            Endpoint::new(net.ip_of(a), 50002),
            ep,
            Payload::zeroes(100),
            Some(Box::new(move |_s, _e| *e2.borrow_mut() = true)),
        );
        s.run();
        assert!(*echoed.borrow(), "port unbound ⇒ ICMP echo returns");
    }
}
