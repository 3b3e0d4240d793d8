//! The client library (paper §3.6.2).
//!
//! Protocol walkthrough, matching the thesis step by step:
//!
//! 1. the library takes the user's requirement (from text; the thesis
//!    reads a requirement file) and attaches a random sequence number, the
//!    requested server count and the option field (Table 3.5);
//! 2. sends it to the wizard as one UDP datagram;
//! 3. waits for the reply, matching the sequence number, checking the
//!    returned count against the request, and applying the shortfall
//!    policy from the option field;
//! 4. connects to the service port of each candidate and hands the caller
//!    the group of connected sockets.
//!
//! UDP is unreliable, so the client retries with a timeout — the thesis
//! leaves recovery unspecified; we document timeouts as library policy.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::Rng;

use smartsock_net::{Network, Payload, StreamMessage};
use smartsock_proto::consts::ports;
use smartsock_proto::{
    Endpoint, Ip, OutcomeKind, OutcomeReport, ReplyStatus, RequestOption, UserRequest, WizardReply,
};
use smartsock_sim::{rng as simrng, EventId, Scheduler, SimDuration, SimTime, SpanId};

/// Why a request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The wizard was reachable but never replied within the retry budget
    /// — a transient condition worth backing off on.
    Timeout { retries: u32 },
    /// The path to the wizard was down when the request gave up — a
    /// permanent (from the client's vantage point) condition: backing off
    /// would only have delayed the verdict, so the client does not.
    Unreachable { retries: u32 },
    /// The request's total time budget ran out before any attempt
    /// resolved.
    DeadlineExceeded,
    /// Wizard replied with fewer servers than requested and the option
    /// demanded the exact count.
    Shortfall { requested: u16, returned: u16 },
    /// Wizard found no qualifying server at all.
    NoServers,
    /// Every offered server refused the service connection.
    AllConnectionsFailed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout { retries } => {
                write!(f, "wizard did not reply after {retries} retries")
            }
            ClientError::Unreachable { retries } => {
                write!(f, "wizard unreachable after {retries} retries")
            }
            ClientError::DeadlineExceeded => f.write_str("request deadline exceeded"),
            ClientError::Shortfall { requested, returned } => {
                write!(f, "only {returned} of {requested} servers available")
            }
            ClientError::NoServers => f.write_str("no server satisfies the requirement"),
            ClientError::AllConnectionsFailed => f.write_str("no offered server accepted"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One request's parameters.
#[derive(Clone, Debug)]
pub struct RequestSpec {
    /// The requirement text in the meta language.
    pub requirement: String,
    /// How many servers to ask for.
    pub servers: u16,
    pub option: RequestOption,
    /// Per-attempt reply timeout.
    pub timeout: SimDuration,
    /// Additional attempts after the first.
    pub retries: u32,
    /// Hard time budget for the whole request, retries included. Every
    /// retry's timeout is clamped to the *remaining* budget (it never
    /// sees a fresh one); when the budget runs out the request fails with
    /// [`ClientError::DeadlineExceeded`]. `None` (the default) keeps the
    /// legacy unbounded behaviour.
    pub deadline: Option<SimDuration>,
    /// Hedge delay: if the request has not resolved this long after it
    /// was issued, speculatively re-issue it to the wizard under a fresh
    /// sequence number and take whichever reply lands first, cancelling
    /// the loser. One hedge per request. `None` (the default) disables
    /// hedging.
    pub hedge_delay: Option<SimDuration>,
}

impl RequestSpec {
    pub fn new(requirement: impl Into<String>, servers: u16) -> RequestSpec {
        RequestSpec {
            requirement: requirement.into(),
            servers,
            option: RequestOption::DEFAULT,
            timeout: SimDuration::from_secs(2),
            retries: 2,
            deadline: None,
            hedge_delay: None,
        }
    }

    /// Fail unless the full server count is found.
    pub fn exact(mut self) -> RequestSpec {
        self.option = RequestOption::EXACT;
        self
    }

    pub fn with_template(mut self, id: u8) -> RequestSpec {
        self.option.template = Some(id);
        self
    }

    /// Bound the whole request (retries included) by a time budget.
    pub fn with_deadline(mut self, deadline: SimDuration) -> RequestSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Arm one speculative re-issue after `delay` (tail-latency hedging).
    pub fn with_hedge(mut self, delay: SimDuration) -> RequestSpec {
        self.hedge_delay = Some(delay);
        self
    }
}

/// A connected smart socket: one endpoint of the returned group.
#[derive(Clone)]
pub struct SmartSock {
    net: Network,
    pub local: Endpoint,
    pub remote: Endpoint,
}

impl SmartSock {
    /// Send a message to the server over this socket.
    pub fn send(&self, s: &mut Scheduler, payload: Payload) {
        self.net.send_stream(s, self.local, self.remote, payload);
    }

    /// Bind a handler for messages the server sends back to this socket.
    pub fn on_message(&self, handler: impl FnMut(&mut Scheduler, StreamMessage) + 'static) {
        self.net.bind_stream(self.local, handler);
    }

    /// Whether the remote service still accepts connections — the check
    /// `SockGroup` uses to spot dead members (§6 fault tolerance). A
    /// member counts as dead when its service port is gone *or* the path
    /// to it is cut (host down, link down, partition).
    pub fn is_connected(&self) -> bool {
        self.net.stream_bound(self.remote) && self.net.reachable(self.local.ip, self.remote.ip)
    }

    /// Release the local port binding.
    pub fn close(&self) {
        self.net.unbind_stream(self.local);
    }
}

impl std::fmt::Debug for SmartSock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SmartSock({} -> {})", self.local, self.remote)
    }
}

struct Pending {
    spec: RequestSpec,
    attempts_left: u32,
    /// Which attempt the armed timeout belongs to. A timeout event carries
    /// the attempt it was scheduled for; if the stamps disagree the event
    /// is stale (cancelled-but-fired, or racing a retransmit) and must
    /// never consume the callback.
    attempt: u32,
    timeout_event: EventId,
    /// End-to-end "client-request" span: opened when the user calls
    /// `request`, survives retries, closed when the request resolves.
    span: SpanId,
    /// Absolute deadline and its armed event (primary entries only). The
    /// event is scheduled *before* the first attempt's timeout, so at an
    /// exactly-coinciding firing time the deadline wins the scheduler's
    /// FIFO tie-break and the request fails with `DeadlineExceeded`.
    deadline_at: Option<SimTime>,
    deadline_event: Option<EventId>,
    /// Armed hedge timer (primary, before the hedge fires).
    hedge_timer: Option<EventId>,
    /// Outstanding hedge's sequence number (primary, after it fires).
    hedge_seq: Option<u32>,
    /// Back-pointer to the primary request (hedge entries only).
    hedge_of: Option<u32>,
}

/// Request-scoped bookkeeping that must survive retransmits (a retry
/// replaces the `Pending` entry, but the deadline and hedge belong to the
/// request, not the attempt).
#[derive(Clone, Copy, Default)]
struct Carry {
    deadline_at: Option<SimTime>,
    deadline_event: Option<EventId>,
    hedge_timer: Option<EventId>,
    hedge_seq: Option<u32>,
}

impl Carry {
    fn of(p: &Pending) -> Carry {
        Carry {
            deadline_at: p.deadline_at,
            deadline_event: p.deadline_event,
            hedge_timer: p.hedge_timer,
            hedge_seq: p.hedge_seq,
        }
    }
}

struct ClientState {
    pending: BTreeMap<u32, Pending>,
    next_port: u16,
    rng: rand::rngs::StdRng,
}

/// The Smart socket client library instance for one client machine.
#[derive(Clone)]
pub struct SmartClient {
    net: Network,
    ip: Ip,
    wizard: Endpoint,
    reply_ep: Endpoint,
    /// Feed the wizard's health table with connect outcomes (opt-in).
    report_outcomes: bool,
    st: Rc<RefCell<ClientState>>,
}

type ResultCb = Box<dyn FnOnce(&mut Scheduler, Result<Vec<SmartSock>, ClientError>)>;

impl SmartClient {
    /// Create a client on `ip` talking to the wizard at `wizard_ip`.
    /// `seed` drives the request sequence numbers.
    pub fn new(net: Network, ip: Ip, wizard_ip: Ip, seed: u64) -> SmartClient {
        let reply_ep = Endpoint::new(ip, 47000);
        SmartClient {
            net,
            ip,
            wizard: Endpoint::new(wizard_ip, ports::WIZARD),
            reply_ep,
            report_outcomes: false,
            st: Rc::new(RefCell::new(ClientState {
                pending: BTreeMap::new(),
                next_port: 47100,
                rng: simrng::derive_indexed(seed, "smart-client", u64::from(ip.0)),
            })),
        }
    }

    /// The client machine's address.
    pub fn ip(&self) -> Ip {
        self.ip
    }

    /// Report connect successes/failures to the wizard's health port
    /// automatically. Off by default so existing traces stay byte-stable.
    pub fn with_outcome_reports(mut self) -> SmartClient {
        self.report_outcomes = true;
        self
    }

    /// Tell the wizard how an assigned server worked out (one UDP
    /// datagram, fire-and-forget). Applications call this when a server
    /// finishes its work or stops responding mid-job; the client library
    /// calls it for connect-time outcomes when
    /// [`with_outcome_reports`](Self::with_outcome_reports) is on.
    pub fn report_outcome(&self, s: &mut Scheduler, server: Ip, outcome: OutcomeKind) {
        s.telemetry.counter_incr("client-outcome-reports");
        let rep = OutcomeReport { server, outcome };
        self.net.send_udp(
            s,
            self.reply_ep,
            Endpoint::new(self.wizard.ip, ports::WIZARD_HEALTH),
            Payload::data(rep.encode().freeze()),
            None,
        );
    }

    /// Request a group of servers; `on_result` receives the connected
    /// sockets or the failure. Must be called after the wizard is up.
    pub fn request(
        &self,
        s: &mut Scheduler,
        spec: RequestSpec,
        on_result: impl FnOnce(&mut Scheduler, Result<Vec<SmartSock>, ClientError>) + 'static,
    ) {
        self.ensure_reply_socket();
        let seq: u32 = self.st.borrow_mut().rng.gen();
        let span = s.telemetry.span_start("client-request", &self.ip.to_string());
        // Arm the request-scoped timers before the first attempt so that,
        // on an exact tie, the deadline outranks an attempt timeout in the
        // scheduler's FIFO order.
        let deadline_at = spec.deadline.map(|d| s.now() + d);
        let deadline_event = spec.deadline.map(|d| {
            let client = self.clone();
            s.schedule_in(d, move |s| client.on_deadline(s, seq))
        });
        let hedge_timer = spec.hedge_delay.map(|d| {
            let client = self.clone();
            s.schedule_in(d, move |s| client.on_hedge_fire(s, seq))
        });
        let carry = Carry { deadline_at, deadline_event, hedge_timer, hedge_seq: None };
        self.send_attempt(s, seq, spec, 0, span, carry, Box::new(on_result));
    }

    fn ensure_reply_socket(&self) {
        // Bind (idempotently) the shared reply port; replies dispatch on
        // the sequence number (§3.6.2 step 3).
        let client = self.clone();
        self.net.bind_udp(self.reply_ep, move |s, dgram| {
            let Ok(reply) = WizardReply::decode(&dgram.payload.data) else {
                s.telemetry.counter_incr("client-bad-replies");
                return;
            };
            client.on_reply(s, reply);
        });
    }

    /// One wizard attempt. `attempt` 0 waits the base timeout; retries
    /// wait exponentially longer (doubling, capped at 8× base) with a
    /// deterministic jitter drawn from the client RNG — the classic
    /// backoff that keeps a herd of retrying clients from re-synchronizing
    /// on a recovering wizard. Backoff is skipped entirely while the path
    /// to the wizard is down: the loss is not congestion, so stretching
    /// the wait only delays the verdict. A deadline clamps every attempt's
    /// timeout to the remaining budget.
    #[allow(clippy::too_many_arguments)]
    fn send_attempt(
        &self,
        s: &mut Scheduler,
        seq: u32,
        spec: RequestSpec,
        attempt: u32,
        span: SpanId,
        carry: Carry,
        cb: ResultCb,
    ) {
        let attempts_left = spec.retries.saturating_sub(attempt);
        let req = UserRequest {
            seq,
            server_num: spec.servers,
            option: spec.option,
            detail: spec.requirement.clone(),
        };
        s.telemetry.counter_incr("client-requests");
        self.net.send_udp(
            s,
            self.reply_ep,
            self.wizard,
            Payload::data(req.encode().freeze()),
            None,
        );
        let reachable = self.net.reachable(self.ip, self.wizard.ip);
        let timeout = if attempt == 0 || !reachable {
            spec.timeout
        } else {
            let factor = (1u64 << attempt.min(3)) as f64;
            let jitter: f64 = self.st.borrow_mut().rng.gen_range(0.0..0.25);
            let t =
                SimDuration::from_secs_f64(spec.timeout.as_secs_f64() * factor * (1.0 + jitter));
            let extra_ms = t.as_nanos().saturating_sub(spec.timeout.as_nanos()) / 1_000_000;
            s.telemetry.counter_add("client-backoff-ms-total", extra_ms);
            s.telemetry.event(
                "client-backoff",
                &self.ip.to_string(),
                &[("attempt", &attempt.to_string()), ("extra-ms", &extra_ms.to_string())],
            );
            t
        };
        // Propagated time budget: a retry only ever sees what is left.
        let timeout = match carry.deadline_at {
            Some(at) => timeout.min(at.since(s.now())),
            None => timeout,
        };
        let client = self.clone();
        let timeout_event = s.schedule_in(timeout, move |s| client.on_timeout(s, seq, attempt));
        self.st.borrow_mut().pending.insert(
            seq,
            Pending {
                spec,
                attempts_left,
                attempt,
                timeout_event,
                span,
                deadline_at: carry.deadline_at,
                deadline_event: carry.deadline_event,
                hedge_timer: carry.hedge_timer,
                hedge_seq: carry.hedge_seq,
                hedge_of: None,
            },
        );
        // Store the callback alongside (separate map keeps Pending Send-free
        // of the closure's type).
        CALLBACKS.with(|c| c.borrow_mut().insert((self.ip.0, seq), cb));
    }

    /// Remove a primary request and everything attached to it: its armed
    /// timeout, deadline and hedge timer, plus any outstanding hedge
    /// entry (whose span is closed here). Every resolution path funnels
    /// through this so no timer or span can leak.
    fn take_request(&self, s: &mut Scheduler, seq: u32) -> Option<Pending> {
        let (primary, hedge) = {
            let mut st = self.st.borrow_mut();
            let primary = st.pending.remove(&seq)?;
            let hedge = primary.hedge_seq.and_then(|hs| st.pending.remove(&hs));
            (primary, hedge)
        };
        s.cancel(primary.timeout_event);
        if let Some(ev) = primary.deadline_event {
            s.cancel(ev);
        }
        if let Some(ev) = primary.hedge_timer {
            s.cancel(ev);
        }
        if let Some(h) = hedge {
            s.cancel(h.timeout_event);
            s.telemetry.span_end(h.span);
        }
        Some(primary)
    }

    fn on_reply(&self, s: &mut Scheduler, reply: WizardReply) {
        // The sequence number may belong to a primary request or to its
        // hedge: either way the *primary* entry owns the callback and the
        // end-to-end span, and the losing twin is torn down.
        let (primary_seq, hedge_won) = {
            let st = self.st.borrow();
            match st.pending.get(&reply.seq) {
                None => {
                    drop(st);
                    s.telemetry.counter_incr("client-unmatched-replies");
                    return;
                }
                Some(p) => match p.hedge_of {
                    Some(ps) => (ps, true),
                    None => (reply.seq, false),
                },
            }
        };
        let Some(pending) = self.take_request(s, primary_seq) else {
            // A hedge whose primary vanished (cannot normally happen: the
            // primary's teardown removes the hedge entry too).
            s.telemetry.counter_incr("client-unmatched-replies");
            return;
        };
        if hedge_won {
            s.telemetry.counter_incr("client-hedges-won");
            s.telemetry.event("client-hedge-won", &self.ip.to_string(), &[]);
        }
        let Some(cb) = CALLBACKS.with(|c| c.borrow_mut().remove(&(self.ip.0, primary_seq))) else {
            return;
        };
        let status = reply.status(pending.spec.servers);
        let result = match status {
            ReplyStatus::Empty => Err(ClientError::NoServers),
            ReplyStatus::Short { requested, returned } if !pending.spec.option.accept_fewer => {
                Err(ClientError::Shortfall { requested, returned })
            }
            _ => Ok(self.connect_all(s, &reply.servers)),
        };
        let result = match result {
            Ok(socks) if socks.is_empty() => Err(ClientError::AllConnectionsFailed),
            other => other,
        };
        s.telemetry.counter_incr("client-responses");
        s.telemetry.span_end(pending.span);
        cb(s, result);
    }

    /// §3.6.2 step 4: connect to each candidate's service port. A server
    /// that stopped listening between selection and connect is skipped —
    /// the recovery behaviour Fig 1.1 motivates. With outcome reporting
    /// on, both verdicts flow back to the wizard's health table.
    fn connect_all(&self, s: &mut Scheduler, servers: &[Endpoint]) -> Vec<SmartSock> {
        let mut out = Vec::with_capacity(servers.len());
        for &remote in servers {
            if !self.net.stream_bound(remote) {
                if self.report_outcomes {
                    self.report_outcome(s, remote.ip, OutcomeKind::ConnectFailed);
                }
                continue;
            }
            let port = {
                let mut st = self.st.borrow_mut();
                let p = st.next_port;
                st.next_port = st.next_port.wrapping_add(1).max(47100);
                p
            };
            if self.report_outcomes {
                self.report_outcome(s, remote.ip, OutcomeKind::Completed);
            }
            out.push(SmartSock {
                net: self.net.clone(),
                local: Endpoint::new(self.ip, port),
                remote,
            });
        }
        out
    }

    fn on_timeout(&self, s: &mut Scheduler, seq: u32, attempt: u32) {
        {
            // Stale-event guard: only the timeout armed for the *current*
            // attempt of a *still-pending* request may act. A reply removed
            // the entry (and cancelled us); a retransmit bumped the stamp.
            let st = self.st.borrow();
            match st.pending.get(&seq) {
                None => return, // already answered
                Some(p) if p.attempt != attempt => {
                    drop(st);
                    s.telemetry.counter_incr("client-stale-timeouts");
                    return;
                }
                Some(_) => {}
            }
        }
        let attempts_left =
            self.st.borrow().pending.get(&seq).map(|p| p.attempts_left).unwrap_or(0);
        if attempts_left == 0 {
            let pending = self.take_request(s, seq).expect("invariant: presence checked above");
            let Some(cb) = CALLBACKS.with(|c| c.borrow_mut().remove(&(self.ip.0, seq))) else {
                return;
            };
            // Distinguish the transient failure (wizard silent) from the
            // permanent one (no path to the wizard at all).
            let err = if self.net.reachable(self.ip, self.wizard.ip) {
                s.telemetry.counter_incr("client-timeouts");
                ClientError::Timeout { retries: pending.spec.retries }
            } else {
                s.telemetry.counter_incr("client-unreachable");
                ClientError::Unreachable { retries: pending.spec.retries }
            };
            s.telemetry.span_end(pending.span);
            cb(s, Err(err));
            return;
        }
        let pending =
            self.st.borrow_mut().pending.remove(&seq).expect("invariant: presence checked above");
        let Some(cb) = CALLBACKS.with(|c| c.borrow_mut().remove(&(self.ip.0, seq))) else {
            return;
        };
        s.telemetry.counter_incr("client-retries");
        s.telemetry.event(
            "client-retry",
            &self.ip.to_string(),
            &[("attempt", &(attempt + 1).to_string())],
        );
        let carry = Carry::of(&pending);
        self.send_attempt(s, seq, pending.spec, attempt + 1, pending.span, carry, cb);
    }

    /// The request's total time budget ran out: tear everything down and
    /// fail. Scheduled before the first attempt's timeout, so it wins
    /// exact ties.
    fn on_deadline(&self, s: &mut Scheduler, seq: u32) {
        let Some(pending) = self.take_request(s, seq) else {
            return; // resolved in the same instant, just earlier
        };
        let Some(cb) = CALLBACKS.with(|c| c.borrow_mut().remove(&(self.ip.0, seq))) else {
            return;
        };
        s.telemetry.counter_incr("client-deadline-exceeded");
        s.telemetry.event("client-deadline-exceeded", &self.ip.to_string(), &[]);
        s.telemetry.span_end(pending.span);
        cb(s, Err(ClientError::DeadlineExceeded));
    }

    /// The hedge timer fired with the primary still unresolved: re-issue
    /// the request under a fresh sequence number. The first usable reply
    /// (either seq) wins; `take_request` cancels the loser.
    fn on_hedge_fire(&self, s: &mut Scheduler, primary_seq: u32) {
        let (spec, parent_span, deadline_at) = {
            let st = self.st.borrow();
            match st.pending.get(&primary_seq) {
                None => return, // already resolved — hedge not needed
                Some(p) => (p.spec.clone(), p.span, p.deadline_at),
            }
        };
        let hedge_seq: u32 = self.st.borrow_mut().rng.gen();
        s.telemetry.counter_incr("client-hedges-fired");
        s.telemetry.event("client-hedge-fired", &self.ip.to_string(), &[]);
        let hspan = s.telemetry.span_child("client-hedge", &self.ip.to_string(), parent_span);
        let req = UserRequest {
            seq: hedge_seq,
            server_num: spec.servers,
            option: spec.option,
            detail: spec.requirement.clone(),
        };
        self.net.send_udp(
            s,
            self.reply_ep,
            self.wizard,
            Payload::data(req.encode().freeze()),
            None,
        );
        // One shot, no retries of its own; expiry is quiet (the primary's
        // retry loop is still running). Clamped to the remaining budget.
        let mut timeout = spec.timeout;
        if let Some(at) = deadline_at {
            timeout = timeout.min(at.since(s.now()));
        }
        let client = self.clone();
        let timeout_event = s.schedule_in(timeout, move |s| client.on_hedge_timeout(s, hedge_seq));
        let mut st = self.st.borrow_mut();
        st.pending.insert(
            hedge_seq,
            Pending {
                spec,
                attempts_left: 0,
                attempt: 0,
                timeout_event,
                span: hspan,
                deadline_at: None,
                deadline_event: None,
                hedge_timer: None,
                hedge_seq: None,
                hedge_of: Some(primary_seq),
            },
        );
        if let Some(p) = st.pending.get_mut(&primary_seq) {
            p.hedge_timer = None;
            p.hedge_seq = Some(hedge_seq);
        }
    }

    /// A hedge that never got an answer: remove it quietly (no retries —
    /// the primary's own retry loop is still in charge).
    fn on_hedge_timeout(&self, s: &mut Scheduler, hedge_seq: u32) {
        let hedge = {
            let mut st = self.st.borrow_mut();
            let Some(h) = st.pending.remove(&hedge_seq) else {
                return; // the race was decided — winner tore us down
            };
            if let Some(primary) = h.hedge_of.and_then(|ps| st.pending.get_mut(&ps)) {
                primary.hedge_seq = None;
            }
            h
        };
        s.telemetry.counter_incr("client-hedge-timeouts");
        s.telemetry.span_end(hedge.span);
    }
}

thread_local! {
    /// Result callbacks keyed by (client ip, seq). Thread-local because the
    /// simulation is single-threaded; keeping boxed `FnOnce`s out of
    /// `ClientState` lets `SmartClient` stay `Clone` + borrow-friendly.
    static CALLBACKS: RefCell<BTreeMap<(u32, u32), ResultCb>> = RefCell::new(BTreeMap::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_monitor::db::shared_dbs;
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::ServerStatusReport;
    use smartsock_sim::SimTime;
    use smartsock_wizard::{SelectPolicy, Wizard, WizardConfig};

    struct Rig {
        s: Scheduler,
        net: Network,
        client: SmartClient,
        sysdb: smartsock_monitor::SharedSysDb,
        wizard: Option<Wizard>,
    }

    fn rig(with_wizard: bool) -> Rig {
        let mut b = NetworkBuilder::new(5);
        let w = b.host("wiz", Ip::new(10, 0, 0, 1), HostParams::testbed());
        let c = b.host("client", Ip::new(10, 0, 0, 2), HostParams::testbed());
        let srv1 = b.host("srv1", Ip::new(10, 0, 0, 3), HostParams::testbed());
        let srv2 = b.host("srv2", Ip::new(10, 0, 0, 4), HostParams::testbed());
        let r = b.router("sw", Ip::new(10, 0, 0, 254));
        for n in [w, c, srv1, srv2] {
            b.duplex(n, r, LinkParams::lan_100mbps());
        }
        let net = b.build();
        let (sysdb, netdb, secdb) = shared_dbs();
        let mut s = Scheduler::new();
        let wizard = with_wizard.then(|| {
            let wiz = Wizard::new(
                Ip::new(10, 0, 0, 1),
                net.clone(),
                sysdb.clone(),
                netdb,
                secdb,
                WizardConfig {
                    policy: SelectPolicy { stale_max_age: None, ..Default::default() },
                    ..Default::default()
                },
            );
            wiz.start(&mut s);
            wiz
        });
        // Service daemons on both servers.
        for ip in [Ip::new(10, 0, 0, 3), Ip::new(10, 0, 0, 4)] {
            net.bind_stream(Endpoint::new(ip, ports::SERVICE), |_s, _m| {});
        }
        let client = SmartClient::new(net.clone(), Ip::new(10, 0, 0, 2), Ip::new(10, 0, 0, 1), 42);
        Rig { s, net, client, sysdb, wizard }
    }

    fn seed_servers(rig: &Rig) {
        for (name, ip) in [("srv1", Ip::new(10, 0, 0, 3)), ("srv2", Ip::new(10, 0, 0, 4))] {
            let mut r = ServerStatusReport::empty(name, ip);
            r.cpu_idle = 0.99;
            rig.sysdb.write().upsert(r, SimTime::ZERO);
        }
    }

    #[test]
    fn request_returns_connected_sockets() {
        let mut rig = rig(true);
        seed_servers(&rig);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let mut s = std::mem::take(&mut rig.s);
        rig.client.request(&mut s, RequestSpec::new("host_cpu_free > 0.9\n", 2), move |_s, r| {
            *g.borrow_mut() = Some(r)
        });
        s.run();
        let socks = got.borrow_mut().take().unwrap().expect("request succeeds");
        assert_eq!(socks.len(), 2);
        assert_eq!(socks[0].remote.port, ports::SERVICE);
        assert_ne!(socks[0].local.port, socks[1].local.port);
    }

    #[test]
    fn no_wizard_times_out_after_retries() {
        let mut rig = rig(false);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let mut s = std::mem::take(&mut rig.s);
        rig.client.request(&mut s, RequestSpec::new("", 1), move |_s, r| *g.borrow_mut() = Some(r));
        s.run();
        assert_eq!(
            got.borrow_mut().take().unwrap().unwrap_err(),
            ClientError::Timeout { retries: 2 }
        );
        assert_eq!(s.telemetry.counter("client-retries"), 2);
    }

    #[test]
    fn shortfall_policy_is_respected() {
        let mut rig = rig(true);
        seed_servers(&rig);
        let mut s = std::mem::take(&mut rig.s);

        // accept_fewer (default): 5 requested, 2 delivered.
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        rig.client.request(&mut s, RequestSpec::new("", 5), move |_s, r| *g.borrow_mut() = Some(r));
        s.run();
        assert_eq!(got.borrow_mut().take().unwrap().unwrap().len(), 2);

        // exact: the same request fails.
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        rig.client.request(&mut s, RequestSpec::new("", 5).exact(), move |_s, r| {
            *g.borrow_mut() = Some(r)
        });
        s.run();
        assert_eq!(
            got.borrow_mut().take().unwrap().unwrap_err(),
            ClientError::Shortfall { requested: 5, returned: 2 }
        );
    }

    #[test]
    fn impossible_requirement_reports_no_servers() {
        let mut rig = rig(true);
        seed_servers(&rig);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let mut s = std::mem::take(&mut rig.s);
        rig.client.request(&mut s, RequestSpec::new("host_cpu_free > 2\n", 1), move |_s, r| {
            *g.borrow_mut() = Some(r)
        });
        s.run();
        assert_eq!(got.borrow_mut().take().unwrap().unwrap_err(), ClientError::NoServers);
    }

    #[test]
    fn dead_service_ports_are_skipped_at_connect_time() {
        let mut rig = rig(true);
        seed_servers(&rig);
        // srv2's daemon dies after selection data is in the db.
        rig.net.unbind_stream(Endpoint::new(Ip::new(10, 0, 0, 4), ports::SERVICE));
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let mut s = std::mem::take(&mut rig.s);
        rig.client.request(&mut s, RequestSpec::new("", 2), move |_s, r| *g.borrow_mut() = Some(r));
        s.run();
        let socks = got.borrow_mut().take().unwrap().unwrap();
        assert_eq!(socks.len(), 1);
        assert_eq!(socks[0].remote.ip, Ip::new(10, 0, 0, 3));
    }

    #[test]
    fn concurrent_requests_are_matched_by_sequence_number() {
        let mut rig = rig(true);
        seed_servers(&rig);
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut s = std::mem::take(&mut rig.s);
        for n in [1u16, 2] {
            let r = Rc::clone(&results);
            rig.client.request(&mut s, RequestSpec::new("", n), move |_s, res| {
                r.borrow_mut().push(res.unwrap().len());
            });
        }
        s.run();
        let mut got = results.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn unreachable_wizard_is_reported_distinctly_without_backoff() {
        let mut rig = rig(false);
        let mut s = std::mem::take(&mut rig.s);
        let wiz = rig.net.node_by_ip(Ip::new(10, 0, 0, 1)).unwrap();
        let sw = rig.net.node_by_ip(Ip::new(10, 0, 0, 254)).unwrap();
        rig.net.set_link_up_between(&mut s, wiz, sw, false);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        rig.client.request(&mut s, RequestSpec::new("", 1), move |_s, r| *g.borrow_mut() = Some(r));
        s.run();
        assert_eq!(
            got.borrow_mut().take().unwrap().unwrap_err(),
            ClientError::Unreachable { retries: 2 }
        );
        // No backoff on a permanent error: three base-timeout attempts
        // resolve at exactly 3 × 2 s, with no backoff stretch at all.
        assert_eq!(s.telemetry.counter("client-retries"), 2);
        assert_eq!(s.telemetry.counter("client-backoff-ms-total"), 0);
        assert_eq!(s.telemetry.counter("client-unreachable"), 1);
        assert_eq!(s.now(), SimTime::from_secs(6));
    }

    #[test]
    fn silent_wizard_still_times_out_with_backoff() {
        // Path up, daemon dead: the transient variant keeps its backoff.
        let mut rig = rig(false);
        let mut s = std::mem::take(&mut rig.s);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        rig.client.request(&mut s, RequestSpec::new("", 1), move |_s, r| *g.borrow_mut() = Some(r));
        s.run();
        assert_eq!(
            got.borrow_mut().take().unwrap().unwrap_err(),
            ClientError::Timeout { retries: 2 }
        );
        assert!(s.telemetry.counter("client-backoff-ms-total") > 0);
        assert!(s.now() > SimTime::from_secs(6), "backoff stretched the ladder");
    }

    #[test]
    fn deadline_bounds_the_whole_retry_ladder() {
        let mut rig = rig(false);
        let mut s = std::mem::take(&mut rig.s);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        rig.client.request(
            &mut s,
            RequestSpec::new("", 1).with_deadline(SimDuration::from_secs(3)),
            move |_s, r| *g.borrow_mut() = Some(r),
        );
        s.run();
        assert_eq!(got.borrow_mut().take().unwrap().unwrap_err(), ClientError::DeadlineExceeded);
        assert_eq!(s.telemetry.counter("client-deadline-exceeded"), 1);
        // The first retry fired at t=2 but saw only the remaining 1 s of
        // budget (not a fresh 2 s + backoff): everything ends at t=3.
        assert_eq!(s.telemetry.counter("client-retries"), 1);
        assert_eq!(s.now(), SimTime::from_secs(3));
    }

    #[test]
    fn hedge_wins_when_the_first_attempt_is_stuck_behind_a_slow_link() {
        let mut rig = rig(true);
        seed_servers(&rig);
        let mut s = std::mem::take(&mut rig.s);
        let wiz = rig.net.node_by_ip(Ip::new(10, 0, 0, 1)).unwrap();
        let sw = rig.net.node_by_ip(Ip::new(10, 0, 0, 254)).unwrap();
        // 5 s of extra delay on the wizard's access link traps the primary
        // datagram; the spike clears before the hedge fires at t=1.
        rig.net.set_link_extra_delay_between(wiz, sw, Some(SimDuration::from_secs(5)));
        let clear = rig.net.clone();
        s.schedule_in(SimDuration::from_millis(500), move |_s| {
            clear.set_link_extra_delay_between(wiz, sw, None);
        });
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        rig.client.request(
            &mut s,
            RequestSpec::new("", 2).with_hedge(SimDuration::from_secs(1)),
            move |_s, r| *g.borrow_mut() = Some(r),
        );
        s.run();
        let socks = got.borrow_mut().take().unwrap().expect("hedge rescued the request");
        assert_eq!(socks.len(), 2);
        assert_eq!(s.telemetry.counter("client-hedges-fired"), 1);
        assert_eq!(s.telemetry.counter("client-hedges-won"), 1);
        assert_eq!(s.telemetry.counter("client-responses"), 1);
        // The trapped primary reply eventually lands and is discarded.
        assert_eq!(s.telemetry.counter("client-unmatched-replies"), 1);
    }

    #[test]
    fn hedge_is_cancelled_when_the_primary_wins() {
        let mut rig = rig(true);
        seed_servers(&rig);
        let mut s = std::mem::take(&mut rig.s);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        rig.client.request(
            &mut s,
            RequestSpec::new("", 1).with_hedge(SimDuration::ZERO),
            move |_s, r| *g.borrow_mut() = Some(r),
        );
        s.run();
        assert!(got.borrow_mut().take().unwrap().is_ok());
        assert_eq!(s.telemetry.counter("client-hedges-fired"), 1);
        assert_eq!(s.telemetry.counter("client-hedges-won"), 0);
        assert_eq!(s.telemetry.counter("client-responses"), 1);
    }

    #[test]
    fn connect_outcomes_feed_the_wizard_health_table() {
        let mut rig = rig(true);
        seed_servers(&rig);
        // srv2's service daemon is gone: connect will fail there.
        rig.net.unbind_stream(Endpoint::new(Ip::new(10, 0, 0, 4), ports::SERVICE));
        let client = rig.client.clone().with_outcome_reports();
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let mut s = std::mem::take(&mut rig.s);
        client.request(&mut s, RequestSpec::new("", 2), move |_s, r| *g.borrow_mut() = Some(r));
        s.run();
        assert_eq!(got.borrow_mut().take().unwrap().unwrap().len(), 1);
        assert_eq!(s.telemetry.counter("client-outcome-reports"), 2);
        assert_eq!(s.telemetry.counter("wizard-outcome-reports"), 2);
        let wizard = rig.wizard.as_ref().unwrap();
        let engine = wizard.engine();
        let health = engine.health();
        assert_eq!(health.score(Ip::new(10, 0, 0, 3), s.now()), 1.0);
        assert!(health.score(Ip::new(10, 0, 0, 4), s.now()) < 1.0);
    }

    #[test]
    fn sockets_can_exchange_messages_with_the_server() {
        let mut rig = rig(true);
        seed_servers(&rig);
        // An echo service on srv1.
        let net2 = rig.net.clone();
        rig.net.bind_stream(Endpoint::new(Ip::new(10, 0, 0, 3), ports::SERVICE), move |s, m| {
            net2.send_stream(s, m.to, m.from, Payload::data(&b"pong"[..]));
        });
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let mut s = std::mem::take(&mut rig.s);
        let echoed = Rc::new(RefCell::new(false));
        let e = Rc::clone(&echoed);
        rig.client.request(
            &mut s,
            RequestSpec::new("user_preferred_host1 = srv1\n", 1),
            move |s, r| {
                let socks = r.unwrap();
                let sock = socks[0].clone();
                sock.on_message(move |_s, m| {
                    assert_eq!(&m.payload.data[..], b"pong");
                    *e.borrow_mut() = true;
                });
                sock.send(s, Payload::data(&b"ping"[..]));
                *g.borrow_mut() = Some(socks.len());
            },
        );
        s.run();
        assert_eq!(*got.borrow(), Some(1));
        assert!(*echoed.borrow(), "echo round trip completed");
    }
}
