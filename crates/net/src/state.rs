//! The [`Network`] handle: topology, sockets, datagram transit and flows.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use smartsock_proto::{Endpoint, HostName, Ip};
use smartsock_sim::rng::{self as simrng, SimRng};
use smartsock_sim::{Scheduler, SimDuration, SimTime, Telemetry};

use crate::flow::{Flow, FlowStats, FlowTable, OnComplete, LOOPBACK_RATE_BPS};
use crate::packet::{
    fragment_sizes, udp_wire_size, IcmpEcho, Payload, StreamMessage, UdpDatagram,
    ICMP_UNREACHABLE_WIRE,
};
use crate::types::{HostParams, LinkId, LinkParams, NodeId};

pub(crate) struct Node {
    pub name: HostName,
    pub ip: Ip,
    pub params: HostParams,
    pub is_router: bool,
    /// Runtime fault state: a down node neither sends, receives nor
    /// forwards. Starts up; toggled by the fault-injection layer.
    pub up: bool,
}

pub(crate) struct Link {
    pub from: NodeId,
    pub to: NodeId,
    pub params: LinkParams,
    /// Line rate before any `rshaper` cap, for restoring.
    pub base_rate_bps: f64,
    /// Loss probability before any injected loss spike, for restoring.
    pub base_loss_prob: f64,
    /// Propagation delay before any injected latency spike, for restoring.
    pub base_prop_delay: SimDuration,
    /// Serialization queue: the instant the link next becomes idle.
    pub busy_until: SimTime,
    /// Runtime fault state: a down link drops every fragment and caps
    /// fluid flows at zero (they stall, not abort — TCP keeps retrying).
    pub up: bool,
}

/// Why a datagram never arrived (fault accounting in `send_udp`).
pub(crate) enum Blocked {
    /// No route between the nodes.
    Unroutable,
    /// A per-fragment loss roll failed along the path.
    Loss,
    /// A link on the path is administratively down.
    LinkDown,
    /// Source or destination host is down.
    HostDown,
}

type UdpHandler = Rc<RefCell<dyn FnMut(&mut Scheduler, UdpDatagram)>>;
type StreamHandler = Rc<RefCell<dyn FnMut(&mut Scheduler, StreamMessage)>>;
type IcmpHandler = Box<dyn FnOnce(&mut Scheduler, IcmpEcho)>;

pub(crate) struct State {
    pub nodes: Vec<Node>,
    pub links: Vec<Link>,
    /// `next_hop[src][dst]` — first link on the (hop-count) shortest path.
    pub next_hop: Vec<Vec<Option<LinkId>>>,
    pub by_ip: BTreeMap<Ip, NodeId>,
    pub by_name: BTreeMap<String, NodeId>,
    pub udp_handlers: BTreeMap<Endpoint, UdpHandler>,
    pub stream_handlers: BTreeMap<Endpoint, StreamHandler>,
    pub flows: FlowTable,
    pub rng: SimRng,
    /// Base round-trip time of the loopback device (Fig 3.6(f) measured
    /// 0.041 ms on the thesis testbed).
    pub loopback_rtt: SimDuration,
}

/// Handle to a simulated network. Clones share the same state.
#[derive(Clone)]
pub struct Network {
    pub(crate) st: Rc<RefCell<State>>,
}

impl Network {
    pub(crate) fn from_state(st: State) -> Network {
        Network { st: Rc::new(RefCell::new(st)) }
    }

    // ------------------------------------------------------------------
    // Topology queries
    // ------------------------------------------------------------------

    pub fn node_by_ip(&self, ip: Ip) -> Option<NodeId> {
        self.st.borrow().by_ip.get(&ip).copied()
    }

    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.st.borrow().by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Resolve a host designator — bare name, domain name or dotted IP —
    /// to a node. Domain names resolve by their first label if the full
    /// name is unknown (`sagit.ddns.comp.nus.edu.sg` → `sagit`).
    pub fn resolve(&self, designator: &str) -> Option<NodeId> {
        if let Ok(ip) = designator.parse::<Ip>() {
            return self.node_by_ip(ip);
        }
        if let Some(n) = self.node_by_name(designator) {
            return Some(n);
        }
        let short = designator.split('.').next().unwrap_or(designator);
        self.node_by_name(short)
    }

    pub fn ip_of(&self, node: NodeId) -> Ip {
        self.st.borrow().nodes[node].ip
    }

    pub fn name_of(&self, node: NodeId) -> HostName {
        self.st.borrow().nodes[node].name.clone()
    }

    /// All host (non-router) nodes.
    pub fn hosts(&self) -> Vec<NodeId> {
        let st = self.st.borrow();
        (0..st.nodes.len()).filter(|&n| !st.nodes[n].is_router).collect()
    }

    /// The directed links of the path `src → dst`, or `None` when
    /// unreachable. Empty for `src == dst`.
    pub fn path_links(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let st = self.st.borrow();
        path_links_inner(&st, src, dst)
    }

    /// Ground-truth available bandwidth of the path in bits/second: the
    /// minimum effective (post-cross-traffic) rate over its links. This is
    /// what `pathload` reported for the thesis (Table 3.3's ~96 Mbps).
    pub fn path_available_bw(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let st = self.st.borrow();
        let links = path_links_inner(&st, src, dst)?;
        if links.is_empty() {
            return Some(LOOPBACK_RATE_BPS);
        }
        Some(
            links
                .iter()
                .map(|&l| st.links[l].params.effective_rate())
                .fold(f64::INFINITY, f64::min),
        )
    }

    /// Analytic base RTT (propagation + fixed overheads, no serialization):
    /// the floor a `ping` would observe on an idle path.
    pub fn base_rtt(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        let st = self.st.borrow();
        if src == dst {
            return Some(st.loopback_rtt);
        }
        let fwd = path_links_inner(&st, src, dst)?;
        let rev = path_links_inner(&st, dst, src)?;
        let mut total = st.nodes[src].params.sys_overhead
            + st.nodes[dst].params.sys_overhead
            + st.nodes[src].params.sys_overhead;
        for &l in fwd.iter().chain(rev.iter()) {
            total += st.links[l].params.prop_delay + st.links[l].params.per_fragment_overhead;
        }
        Some(total)
    }

    // ------------------------------------------------------------------
    // rshaper substitute
    // ------------------------------------------------------------------

    /// Cap (or restore) the rate of `node`'s access links in both
    /// directions — the simulation's `rshaper` (§5.3.2). `None` restores
    /// the base line rate.
    pub fn set_access_rate(&self, node: NodeId, cap_bps: Option<f64>) {
        let mut st = self.st.borrow_mut();
        for l in st.links.iter_mut() {
            if l.from == node || l.to == node {
                l.params.rate_bps = match cap_bps {
                    Some(c) => c.min(l.base_rate_bps),
                    None => l.base_rate_bps,
                };
            }
        }
    }

    // ------------------------------------------------------------------
    // UDP
    // ------------------------------------------------------------------

    /// Register a datagram handler on `ep`. Replaces any previous binding.
    pub fn bind_udp(
        &self,
        ep: Endpoint,
        handler: impl FnMut(&mut Scheduler, UdpDatagram) + 'static,
    ) {
        self.st.borrow_mut().udp_handlers.insert(ep, Rc::new(RefCell::new(handler)));
    }

    pub fn unbind_udp(&self, ep: Endpoint) {
        self.st.borrow_mut().udp_handlers.remove(&ep);
    }

    /// Send a UDP datagram. If the destination port is unbound when the
    /// datagram arrives, the destination kernel answers with ICMP
    /// port-unreachable, delivered to `on_icmp` — the probing mechanism of
    /// §3.3.2. Datagrams to unknown addresses are silently dropped.
    pub fn send_udp(
        &self,
        s: &mut Scheduler,
        from: Endpoint,
        to: Endpoint,
        payload: Payload,
        on_icmp: Option<IcmpHandler>,
    ) {
        let sent_at = s.now();
        let (src, dst) = {
            let st = self.st.borrow();
            let src = st.by_ip.get(&from.ip).copied();
            let dst = if to.ip.is_loopback() { src } else { st.by_ip.get(&to.ip).copied() };
            (src, dst)
        };
        let (Some(src), Some(dst)) = (src, dst) else {
            s.telemetry.counter_incr("net-udp-dropped-unroutable");
            return;
        };
        s.telemetry.counter_incr("net-udp-datagrams");
        s.telemetry.counter_add("net-udp-bytes", udp_wire_size(payload.len()));

        let arrival = {
            let now = s.now();
            let mut st = self.st.borrow_mut();
            transit_time(&mut st, &mut s.telemetry, now, src, dst, payload.len(), true)
        };
        let arrival = match arrival {
            Ok(at) => at,
            Err(Blocked::LinkDown) => {
                s.telemetry.counter_incr("net-link-down-drops");
                return;
            }
            Err(Blocked::HostDown) => {
                s.telemetry.counter_incr("net-host-down-drops");
                return;
            }
            Err(Blocked::Unroutable | Blocked::Loss) => {
                // Either no route or a loss roll along the path.
                s.telemetry.counter_incr("net-udp-lost");
                return;
            }
        };

        let net = self.clone();
        let datagram = UdpDatagram { from, to, payload, sent_at };
        s.schedule_at(arrival, move |s| {
            net.deliver_udp(s, datagram, src, dst, on_icmp);
        });
    }

    fn deliver_udp(
        &self,
        s: &mut Scheduler,
        datagram: UdpDatagram,
        src: NodeId,
        dst: NodeId,
        on_icmp: Option<IcmpHandler>,
    ) {
        // The destination may have gone down while the datagram was in
        // flight: it vanishes without even an ICMP answer.
        if !self.st.borrow().nodes[dst].up {
            s.telemetry.counter_incr("net-host-down-drops");
            return;
        }
        let handler = self.st.borrow().udp_handlers.get(&datagram.to).cloned();
        match handler {
            Some(h) => {
                h.borrow_mut()(s, datagram);
            }
            None => {
                // Port closed: the kernel sends ICMP port-unreachable back
                // (generated only after full reassembly, hence from the
                // last fragment's arrival time — this is what makes the
                // probe RTT proportional to datagram size).
                let Some(cb) = on_icmp else { return };
                let back = {
                    let now = s.now();
                    let mut st = self.st.borrow_mut();
                    // ICMP replies are small single-fragment datagrams and
                    // skip the init stage (kernel-generated, no new
                    // socket-to-NIC handoff modelled).
                    transit_time(
                        &mut st,
                        &mut s.telemetry,
                        now,
                        dst,
                        src,
                        ICMP_UNREACHABLE_WIRE,
                        false,
                    )
                };
                let Ok(back) = back else { return };
                s.telemetry.counter_incr("net-icmp-echoes");
                let echo = IcmpEcho {
                    sent_at: datagram.sent_at,
                    received_at: back,
                    probe_payload: datagram.payload.len(),
                };
                s.schedule_at(back, move |s| cb(s, echo));
            }
        }
    }

    // ------------------------------------------------------------------
    // TCP-style streams
    // ------------------------------------------------------------------

    /// Register a stream-message handler on `ep`.
    pub fn bind_stream(
        &self,
        ep: Endpoint,
        handler: impl FnMut(&mut Scheduler, StreamMessage) + 'static,
    ) {
        self.st.borrow_mut().stream_handlers.insert(ep, Rc::new(RefCell::new(handler)));
    }

    pub fn unbind_stream(&self, ep: Endpoint) {
        self.st.borrow_mut().stream_handlers.remove(&ep);
    }

    /// Whether a stream handler is currently bound at `ep` — the client
    /// library uses this as its "connect succeeded" check (§3.6.2 step 4).
    pub fn stream_bound(&self, ep: Endpoint) -> bool {
        self.st.borrow().stream_handlers.contains_key(&ep)
    }

    /// Send a message over a TCP-style connection: connection latency of
    /// 1.5 RTT (SYN, SYN-ACK, first data) plus a max–min fair bulk
    /// transfer of the payload. Delivered to the handler bound at `to`;
    /// silently dropped if none is bound on arrival (connection refused).
    pub fn send_stream(&self, s: &mut Scheduler, from: Endpoint, to: Endpoint, payload: Payload) {
        let (src, dst) = {
            let st = self.st.borrow();
            let src = st.by_ip.get(&from.ip).copied();
            let dst = if to.ip.is_loopback() { src } else { st.by_ip.get(&to.ip).copied() };
            (src, dst)
        };
        let (Some(src), Some(dst)) = (src, dst) else {
            s.telemetry.counter_incr("net-stream-dropped-unroutable");
            return;
        };
        let Some(rtt) = self.base_rtt(src, dst) else {
            s.telemetry.counter_incr("net-stream-dropped-unroutable");
            return;
        };
        // TCP needs a working duplex path at connect time: a down host or
        // a cut anywhere on either direction means the handshake times out
        // and the message is never sent (the caller's retransmission layer
        // is responsible for retrying).
        {
            let st = self.st.borrow();
            if !path_up(&st, src, dst) || !path_up(&st, dst, src) {
                s.telemetry.counter_incr("net-stream-blocked");
                return;
            }
        }
        s.telemetry.counter_incr("net-stream-messages");
        // ~3% header/ack overhead on the wire.
        let wire_bytes = payload.len() + payload.len() / 32 + 64;
        s.telemetry.counter_add("net-stream-bytes", wire_bytes);

        let start_at = s.now() + SimDuration::from_nanos(rtt.as_nanos() * 3 / 2);
        let net = self.clone();
        let msg = StreamMessage { from, to, payload };
        s.schedule_at(start_at, move |s| {
            let net2 = net.clone();
            net.start_flow(s, src, dst, wire_bytes, move |s, _stats| {
                let handler = net2.st.borrow().stream_handlers.get(&msg.to).cloned();
                if let Some(h) = handler {
                    h.borrow_mut()(s, msg);
                } else {
                    s.telemetry.counter_incr("net-stream-refused");
                }
            });
        });
    }

    // ------------------------------------------------------------------
    // Fluid flows
    // ------------------------------------------------------------------

    /// Start a bulk transfer of `bytes` from `src` to `dst`; `on_complete`
    /// fires when the last byte arrives, with throughput statistics.
    pub fn start_flow(
        &self,
        s: &mut Scheduler,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        on_complete: impl FnOnce(&mut Scheduler, FlowStats) + 'static,
    ) {
        let now = s.now();
        let (links, src_host) = {
            let st = self.st.borrow();
            match path_links_inner(&st, src, dst) {
                Some(links) => (links, st.nodes[src].name.clone()),
                None => {
                    drop(st);
                    s.telemetry.counter_incr("net-flow-dropped-unroutable");
                    return;
                }
            }
        };
        // One span per transfer, start to last byte; stalls under faults
        // show up as inflated durations in the profile.
        let span = s.telemetry.span_start("net-flow-transfer", src_host.as_str());
        let flow = Flow {
            links,
            remaining_bits: bytes as f64 * 8.0,
            total_bytes: bytes,
            rate_bps: 0.0,
            last_update: now,
            started_at: now,
            completion_event: None,
            on_complete: Some(Box::new(on_complete) as OnComplete),
            span: Some(span),
        };
        self.st.borrow_mut().flows.insert(flow);
        s.telemetry.counter_incr("net-flows-started");
        s.telemetry.gauge_set("net-active-flows", "net", self.active_flows() as i64);
        self.recompute_flows(s);
    }

    /// Number of in-flight flows (diagnostics).
    pub fn active_flows(&self) -> usize {
        self.st.borrow().flows.flows.len()
    }

    fn recompute_flows(&self, s: &mut Scheduler) {
        let now = s.now();
        // Phase 1 (state borrowed): bring flows up to date, refit rates,
        // and collect each flow's stale event + fresh completion time.
        let schedule: Vec<(u64, Option<smartsock_sim::EventId>, SimTime)> = {
            let mut st = self.st.borrow_mut();
            st.flows.advance_to(now);
            // A down link (or a link touching a down node) carries nothing:
            // flows crossing it get rate 0 and stall until the next
            // recompute after a heal — TCP's stubborn retransmission.
            let caps: Vec<f64> = st
                .links
                .iter()
                .map(|l| {
                    if l.up && st.nodes[l.from].up && st.nodes[l.to].up {
                        l.params.effective_rate()
                    } else {
                        0.0
                    }
                })
                .collect();
            st.flows.waterfill(|l| caps[l]);
            st.flows
                .flows
                .iter_mut()
                .map(|(&id, f)| {
                    let stale = f.completion_event.take();
                    let at = if f.rate_bps > 0.0 {
                        now + SimDuration::from_secs_f64(f.remaining_bits / f.rate_bps)
                    } else {
                        SimTime::FAR_FUTURE
                    };
                    (id, stale, at)
                })
                .collect()
        };

        // Phase 2 (scheduler borrowed): cancel stale events, arm new ones.
        for (id, stale, at) in schedule {
            if let Some(ev) = stale {
                s.cancel(ev);
            }
            if at >= SimTime::FAR_FUTURE {
                continue;
            }
            let net = self.clone();
            let ev = s.schedule_at(at, move |s| net.flow_completed(s, id));
            if let Some(f) = self.st.borrow_mut().flows.flows.get_mut(&id) {
                f.completion_event = Some(ev);
            }
        }
    }

    fn flow_completed(&self, s: &mut Scheduler, id: u64) {
        let done = {
            let mut st = self.st.borrow_mut();
            let now = s.now();
            st.flows.advance_to(now);
            match st.flows.flows.remove(&id) {
                // Defensive: a cancelled-but-fired event for a flow that
                // was already finished is ignored.
                None => None,
                Some(f) => Some((
                    FlowStats { bytes: f.total_bytes, started_at: f.started_at, finished_at: now },
                    f.on_complete,
                    f.span,
                )),
            }
        };
        let Some((stats, cb, span)) = done else { return };
        if let Some(span) = span {
            s.telemetry.span_end(span);
        }
        s.telemetry.counter_incr("net-flows-completed");
        s.telemetry.gauge_set("net-active-flows", "net", self.active_flows() as i64);
        self.recompute_flows(s);
        if let Some(cb) = cb {
            cb(s, stats);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection: runtime up/down state and parameter spikes
    // ------------------------------------------------------------------

    /// Whether `node` is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.st.borrow().nodes[node].up
    }

    /// Crash a node: mark it down *and* unbind every UDP and stream
    /// handler at its address — a rebooted kernel has no sockets. Flows
    /// crossing it stall until revival.
    pub fn crash_node(&self, s: &mut Scheduler, node: NodeId) {
        {
            let mut st = self.st.borrow_mut();
            st.nodes[node].up = false;
            let ip = st.nodes[node].ip;
            st.udp_handlers.retain(|ep, _| ep.ip != ip);
            st.stream_handlers.retain(|ep, _| ep.ip != ip);
        }
        s.telemetry.counter_incr("net-node-crashes");
        self.recompute_flows(s);
    }

    /// Bring a crashed node back up. Its daemons must re-bind their own
    /// sockets (the fault layer restarts them explicitly).
    pub fn revive_node(&self, s: &mut Scheduler, node: NodeId) {
        self.st.borrow_mut().nodes[node].up = true;
        s.telemetry.counter_incr("net-node-revivals");
        self.recompute_flows(s);
    }

    /// The directed link ids between `a` and `b` (both directions).
    pub fn links_between(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        let st = self.st.borrow();
        (0..st.links.len())
            .filter(|&l| {
                (st.links[l].from == a && st.links[l].to == b)
                    || (st.links[l].from == b && st.links[l].to == a)
            })
            .collect()
    }

    /// The `(from, to)` node endpoints of a directed link.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let st = self.st.borrow();
        (st.links[link].from, st.links[link].to)
    }

    /// Whether a link is currently up.
    pub fn link_up(&self, link: LinkId) -> bool {
        self.st.borrow().links[link].up
    }

    /// Set a specific set of directed links up or down (partitions cut
    /// many links at once and must restore exactly the same set).
    pub fn set_links_up(&self, s: &mut Scheduler, links: &[LinkId], up: bool) {
        {
            let mut st = self.st.borrow_mut();
            for &l in links {
                st.links[l].up = up;
            }
        }
        self.recompute_flows(s);
    }

    /// Set the duplex link between two adjacent nodes up or down.
    pub fn set_link_up_between(&self, s: &mut Scheduler, a: NodeId, b: NodeId, up: bool) {
        let links = self.links_between(a, b);
        assert!(!links.is_empty(), "no link between nodes {a} and {b}");
        self.set_links_up(s, &links, up);
    }

    /// Inject (or with `None` clear) a transient loss-probability spike on
    /// the duplex link between two adjacent nodes.
    pub fn set_link_loss_between(&self, a: NodeId, b: NodeId, loss: Option<f64>) {
        let links = self.links_between(a, b);
        assert!(!links.is_empty(), "no link between nodes {a} and {b}");
        let mut st = self.st.borrow_mut();
        for l in links {
            st.links[l].params.loss_prob = match loss {
                Some(p) => p.clamp(0.0, 1.0),
                None => st.links[l].base_loss_prob,
            };
        }
    }

    /// Whether a directed link's loss probability is off its base one.
    pub fn link_loss_spiked(&self, link: LinkId) -> bool {
        let st = self.st.borrow();
        st.links[link].params.loss_prob != st.links[link].base_loss_prob
    }

    /// Inject (or with `None` clear) a transient latency spike: extra
    /// propagation delay on the duplex link between two adjacent nodes.
    pub fn set_link_extra_delay_between(&self, a: NodeId, b: NodeId, extra: Option<SimDuration>) {
        let links = self.links_between(a, b);
        assert!(!links.is_empty(), "no link between nodes {a} and {b}");
        let mut st = self.st.borrow_mut();
        for l in links {
            st.links[l].params.prop_delay = match extra {
                Some(e) => st.links[l].base_prop_delay + e,
                None => st.links[l].base_prop_delay,
            };
        }
    }

    /// Whether traffic can currently flow both ways between two addresses:
    /// both hosts up, routes exist, and every link and relay on both
    /// directions is up. The client library's liveness check under faults.
    pub fn reachable(&self, src: Ip, dst: Ip) -> bool {
        let st = self.st.borrow();
        let Some(&a) = st.by_ip.get(&src) else { return false };
        let b = if dst.is_loopback() {
            a
        } else {
            match st.by_ip.get(&dst) {
                Some(&b) => b,
                None => return false,
            }
        };
        path_up(&st, a, b) && path_up(&st, b, a)
    }
}

/// Shortest-path links from `src` to `dst` using the precomputed next-hop
/// table. Empty vec when `src == dst`.
fn path_links_inner(st: &State, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
    let mut out = Vec::new();
    let mut cur = src;
    let mut hops = 0;
    while cur != dst {
        let l = st.next_hop[cur][dst]?;
        out.push(l);
        cur = st.links[l].to;
        hops += 1;
        assert!(hops <= st.nodes.len(), "routing loop from {src} to {dst}");
    }
    Some(out)
}

/// Compute the arrival time of the *last fragment* of a datagram of
/// `payload` UDP-payload bytes sent from `src` to `dst` at `now`, updating
/// link serialization queues along the way. Returns `None` if unreachable.
///
/// `with_init_stage` applies the `Speed_init` handoff of Formula 3.6
/// (disabled for kernel-generated ICMP replies).
fn transit_time(
    st: &mut State,
    tel: &mut Telemetry,
    now: SimTime,
    src: NodeId,
    dst: NodeId,
    payload: u64,
    with_init_stage: bool,
) -> Result<SimTime, Blocked> {
    if !st.nodes[src].up || !st.nodes[dst].up {
        return Err(Blocked::HostDown);
    }
    if src == dst {
        // Loopback: no NIC, no fragmentation effects (observation 1 of
        // §3.3.2) — just a tiny constant plus memcpy-speed serialization.
        let copy = SimDuration::transmission(udp_wire_size(payload), LOOPBACK_RATE_BPS);
        return Ok(now + SimDuration::from_nanos(st.loopback_rtt.as_nanos() / 2) + copy);
    }
    let links = path_links_inner(st, src, dst).ok_or(Blocked::Unroutable)?;
    debug_assert!(!links.is_empty());
    // A cut anywhere drops the datagram: either the link itself is down
    // or the relaying node behind it is.
    for &lid in &links {
        if !st.links[lid].up {
            return Err(Blocked::LinkDown);
        }
        let hop = st.links[lid].to;
        if !st.nodes[hop].up {
            return Err(if hop == dst { Blocked::HostDown } else { Blocked::LinkDown });
        }
    }
    // Per-fragment loss along the path: losing any fragment loses the
    // datagram (IP reassembly fails). Rolled up front so serialization
    // bookkeeping stays simple; the capacity a dropped datagram would
    // have consumed is negligible at the loss rates modelled.
    let frag_count = fragment_sizes(payload, st.nodes[src].params.mtu).len();
    for &lid in &links {
        let p = st.links[lid].params.loss_prob;
        if p > 0.0 {
            for _ in 0..frag_count {
                if st.rng.unit() < p {
                    return Err(Blocked::Loss);
                }
            }
        }
    }

    let src_params = st.nodes[src].params;
    let mut t = now + src_params.sys_overhead;

    let wire = udp_wire_size(payload);
    let mtu = src_params.mtu;
    let frags = fragment_sizes(payload, mtu);
    tel.counter_add("net-fragments", frags.len() as u64);
    if frags.len() > 1 {
        tel.counter_incr("net-datagrams-fragmented");
    }

    if with_init_stage {
        if let Some(speed) = src_params.speed_init_bps {
            // The kernel hands the first frame to the NIC at Speed_init
            // (Formula 3.6). Modelled as per-datagram *latency*, not a
            // serializing stage: the thesis's own pipechar reference reads
            // ~95 Mbps on this path, which would be impossible if
            // back-to-back datagrams queued at 25 Mbps — so the handoff
            // must overlap with transmission of the previous datagram.
            let first_frame = wire.min(u64::from(mtu));
            t += SimDuration::transmission(first_frame, speed);
        }
    }

    // Per-fragment pipeline over the path: store-and-forward per fragment.
    let mut ready: Vec<SimTime> = vec![t; frags.len()];
    for &lid in &links {
        let (eff_rate, prop, frag_oh, jitter_mean) = {
            let l = &st.links[lid];
            // Probes see what bulk flows leave behind: static cross
            // traffic *and* live fluid-flow allocations reduce the rate.
            let alloc = flow_alloc(&st.flows, lid);
            let eff = (l.params.effective_rate() - alloc).max(l.params.rate_bps * 0.01);
            (eff, l.params.prop_delay, l.params.per_fragment_overhead, l.params.jitter_mean)
        };
        let mut prev_arrival = SimTime::ZERO;
        for (i, &fs) in frags.iter().enumerate() {
            let depart = ready[i].max(st.links[lid].busy_until);
            let done = depart + SimDuration::transmission(fs, eff_rate);
            st.links[lid].busy_until = done;
            let jitter = sample_exp(&mut st.rng, jitter_mean);
            let mut arrival = done + prop + frag_oh + jitter;
            // FIFO: a fragment cannot overtake its predecessor.
            arrival = arrival.max(prev_arrival);
            prev_arrival = arrival;
            ready[i] = arrival;
        }
    }
    // Serialization backlog left behind on each traversed link: how far
    // into the future the link is already committed. This is the per-link
    // queue-depth signal the ROADMAP's hot-path work reads.
    for &lid in &links {
        let backlog_ns = st.links[lid].busy_until.0.saturating_sub(now.0);
        tel.gauge_set("net-link-backlog-ns", &format!("l{lid}"), backlog_ns as i64);
    }
    let last = ready.into_iter().max().unwrap_or(t);
    Ok(last + st.nodes[dst].params.sys_overhead)
}

/// Whether every element along `src → dst` — both hosts, every link and
/// every relaying node — is currently up.
fn path_up(st: &State, src: NodeId, dst: NodeId) -> bool {
    if !st.nodes[src].up || !st.nodes[dst].up {
        return false;
    }
    if src == dst {
        return true;
    }
    let Some(links) = path_links_inner(st, src, dst) else {
        return false;
    };
    links.iter().all(|&l| st.links[l].up && st.nodes[st.links[l].to].up)
}

/// Bits/second currently allocated to fluid flows crossing `lid`.
fn flow_alloc(flows: &FlowTable, lid: LinkId) -> f64 {
    flows.flows.values().filter(|f| f.links.contains(&lid)).map(|f| f.rate_bps).sum()
}

/// Exponentially distributed jitter with the given mean.
fn sample_exp(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    if mean == SimDuration::ZERO {
        return SimDuration::ZERO;
    }
    let u = rng.range(1e-12..1.0);
    SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

/// Derive the network RNG from an experiment seed.
pub(crate) fn derive_rng(seed: u64) -> SimRng {
    simrng::derive(seed, "smartsock-net")
}
