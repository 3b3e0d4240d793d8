//! The client engine: the one implementation of the paper's client
//! library (§3.6.2), the other end of the exchange [`crate::engine`]
//! answers.
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
//! 4. connects to the service port of each candidate.
//!
//! UDP is unreliable, so the client retries with a timeout — the thesis
//! leaves recovery unspecified; timeouts, backoff, the deadline and the
//! hedge (DESIGN.md §11) are library policy, all of it decided here.
//! [`ClientEngine`] is sans-IO in the [`crate::WizardEngine`] mould: one
//! call, [`ClientEngine::step`], takes the time and an [`Input`], writes
//! its own telemetry and returns the frame to send the wizard beside the
//! timers and resolutions it asks for ([`Stepped`]). The drivers —
//! `SmartClient` on the simulator's scheduler, `LiveSock` on a real
//! socket — own the socket, the clock, the timers, the randomness and
//! the service connections (DESIGN.md §13).

use std::cell::OnceCell;
use std::collections::BTreeMap;

use smartsock_proto::{
    Endpoint, Ip, OutcomeKind, OutcomeReport, ReplyStatus, RequestOption, UserRequest, WizardReply,
};
use smartsock_sim::rng::SimRng;
use smartsock_sim::{SimDuration, SimTime, SpanId, Telemetry};

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

/// One request's parameters, on either backend.
#[derive(Clone, Debug)]
pub struct RequestSpec {
    /// The requirement text in the meta language.
    pub requirement: String,
    /// How many servers to ask for.
    pub servers: u16,
    pub option: RequestOption,
    /// Per-attempt reply timeout.
    pub timeout: SimDuration,
    /// Retransmissions after the first send.
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

/// The randomness the engine consumes, drawn from the driver's source
/// at the moment of use (a seeded driver's draw order is the use order).
pub trait Entropy {
    /// A uniform `u32`.
    fn draw(&mut self) -> u32;
    /// Backoff jitter, uniform in `[0, 0.25)`.
    fn jitter(&mut self) -> f64;

    /// A fresh request sequence number: a draw, drawn again while its
    /// request would start with a magic of the wizard's port (`SSR1`, `SSQ1`).
    fn seq(&mut self) -> u32 {
        let mut seq = self.draw();
        while crate::engine::spells_a_magic(seq) {
            seq = self.draw();
        }
        seq
    }
}

/// Both drivers draw from a `SimRng`: the simulator's seeded per client
/// machine, a live socket's seeded by its port.
impl Entropy for SimRng {
    fn draw(&mut self) -> u32 {
        self.u32()
    }
    fn jitter(&mut self) -> f64 {
        self.range(0.0..0.25)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimerKind {
    /// The whole request's time budget.
    Deadline,
    /// The hedge delay.
    Hedge,
    /// The reply timeout of the numbered attempt.
    Attempt(u32),
    /// The reply timeout of the hedge's single attempt.
    HedgeAttempt,
}

/// One of a request's timers, by the request's (primary) sequence number.
pub type Timer = (u32, TimerKind);

/// What the engine asks of its driver.
#[derive(Debug, PartialEq)]
pub enum Output {
    /// Step [`Input::Fired`] with this timer at the given time (ns).
    /// Arming an armed timer moves it.
    Arm(Timer, u64),
    /// The request with this sequence number is over — the servers to
    /// connect to (step 4), or why there are none — and every timer still
    /// armed for it is void.
    Resolved(u32, Result<Vec<Endpoint>, ClientError>),
}

/// One engine call's [`Output`]s, in the order the driver must act on
/// them (`into_iter().flatten()`) — never more than a request's three
/// timers, so the list lives inline.
pub type Outputs = [Option<Output>; 3];

fn push(out: &mut Outputs, output: Output) {
    if let Some(slot) = out.iter_mut().find(|slot| slot.is_none()) {
        *slot = Some(output);
    }
}

fn arm(out: &mut Outputs, seq: u32, kind: TimerKind, at: u64) {
    push(out, Output::Arm((seq, kind), at));
}

struct Request {
    /// Re-encoded for every send, so a retry carries the identical
    /// datagram and a hedge differs in the sequence number alone.
    req: UserRequest,
    timeout: SimDuration,
    retries: u32,
    /// Which attempt is awaiting its reply. A fired attempt timer names
    /// the attempt it was armed for; if the two disagree the timer is
    /// stale and must not act.
    attempt: u32,
    deadline_at: Option<u64>,
    /// The sequence number of the outstanding hedge, if any.
    hedge: Option<u32>,
}

/// One input to [`ClientEngine::step`]: all a client ever reacts to.
#[derive(Clone, Copy, Debug)]
pub enum Input<'a> {
    /// Steps 1–2: issue this request under this sequence number.
    Start(&'a RequestSpec, u32),
    /// A datagram on the reply socket.
    Datagram { from: Endpoint, bytes: &'a [u8] },
    /// A timer the driver was asked to arm has come due. `path_up` is the
    /// driver's view of the path to the wizard.
    Fired { timer: Timer, path_up: bool },
    /// Step 4's verdict on one assigned server, or an application's later
    /// one, for the wizard's health table.
    Outcome(Ip, OutcomeKind),
}

/// What [`ClientEngine::step`] asks of its driver: send `frame` to the
/// wizard, then act on `outputs`.
#[derive(Debug, Default)]
pub struct Stepped {
    /// A request, its retransmission or hedge, or an outcome report. A send
    /// that fails is a lost datagram to the engine.
    pub frame: Option<Vec<u8>>,
    pub outputs: Outputs,
}

/// What the engine did with an input: what [`ClientEngine::step`] writes
/// down as telemetry.
enum Took {
    Nothing,
    Started(u32),
    /// `backoff_ms`: how far backoff stretched the new attempt's wait.
    Retried {
        attempt: u32,
        backoff_ms: Option<u64>,
    },
    /// How the request ended: answered (by its hedge?), or given up on.
    Over(u32, Result<bool, ClientError>),
    HedgeFired(u32),
    HedgeTimedOut(u32),
    StaleTimeout,
    BadReply,
    Unmatched,
    OutcomeReported,
}

/// The client library's state and behaviour, minus sockets, timers and
/// randomness: any number of requests in flight from one local endpoint
/// to one wizard.
pub struct ClientEngine {
    local: Ip,
    /// `local` rendered at the first traced step, once: the host label of
    /// every record. Not at `new`: a `LiveSock` builds an engine per
    /// `bind`, and its untraced requests must not pay for a label.
    host: OnceCell<String>,
    /// Where requests and outcome reports go (DESIGN.md §11).
    wizard: Endpoint,
    requests: BTreeMap<u32, Request>,
    /// Per traced request, its end-to-end "client-request" span (opened
    /// at `start`, surviving retries, closed with the request) and the
    /// "client-hedge" child span of an outstanding hedge.
    spans: BTreeMap<u32, (SpanId, Option<SpanId>)>,
}

impl ClientEngine {
    pub fn new(local: Endpoint, wizard: Endpoint) -> ClientEngine {
        let (requests, spans) = Default::default();
        ClientEngine { local: local.ip, host: OnceCell::new(), wizard, requests, spans }
    }

    /// Take one input and, when `tel` is given, write the telemetry owed
    /// for it — the one place the request path's `client-*` counter, span
    /// and event names are emitted, for either backend — and hand back
    /// the frame to send and what to do next. Records are stamped with
    /// `tel`'s own clock, which its owner keeps at `now`; without `tel`
    /// nothing is written and no span is kept.
    pub fn step(
        &mut self,
        now: SimTime,
        input: Input<'_>,
        rnd: &mut dyn Entropy,
        tel: Option<&mut Telemetry>,
    ) -> Stepped {
        let mut stepped = Stepped::default();
        let took = match input {
            Input::Start(spec, seq) => self.start(now.0, spec, seq, &mut stepped),
            Input::Datagram { from, bytes } => self.datagram(from, bytes, &mut stepped.outputs),
            Input::Fired { timer, path_up } => self.fired(now.0, timer, path_up, rnd, &mut stepped),
            Input::Outcome(server, outcome) => {
                stepped.frame = Some(OutcomeReport { server, outcome }.encode());
                Took::OutcomeReported
            }
        };
        let Some(tel) = tel else { return stepped };
        let host = self.host.get_or_init(|| self.local.to_string()).as_str();
        match took {
            Took::Nothing => {}
            Took::Started(seq) => {
                self.spans.insert(seq, (tel.span_start("client-request", host), None));
                tel.counter_incr("client-requests");
            }
            Took::Retried { attempt, backoff_ms } => {
                let attempt = attempt.to_string();
                tel.counter_incr("client-retries");
                tel.event("client-retry", host, &[("attempt", &attempt)]);
                tel.counter_incr("client-requests");
                if let Some(ms) = backoff_ms {
                    tel.counter_add("client-backoff-ms-total", ms);
                    let attrs = [("attempt", attempt.as_str()), ("extra-ms", &ms.to_string())];
                    tel.event("client-backoff", host, &attrs);
                }
            }
            Took::Over(seq, how) => {
                let spans = self.spans.remove(&seq);
                if let Some((_, Some(hedge))) = spans {
                    tel.span_end(hedge);
                }
                match how {
                    Ok(hedge_won) => {
                        if hedge_won {
                            tel.counter_incr("client-hedges-won");
                            tel.event("client-hedge-won", host, &[]);
                        }
                        tel.counter_incr("client-responses");
                    }
                    Err(ClientError::Unreachable { .. }) => tel.counter_incr("client-unreachable"),
                    Err(ClientError::DeadlineExceeded) => {
                        tel.counter_incr("client-deadline-exceeded");
                        tel.event("client-deadline-exceeded", host, &[]);
                    }
                    Err(ClientError::Timeout { .. }) => tel.counter_incr("client-timeouts"),
                    Err(_) => {}
                }
                if let Some((request, _)) = spans {
                    tel.span_end(request);
                }
            }
            Took::HedgeFired(seq) => {
                tel.counter_incr("client-hedges-fired");
                tel.event("client-hedge-fired", host, &[]);
                if let Some((request, hedge)) = self.spans.get_mut(&seq) {
                    *hedge = Some(tel.span_child("client-hedge", host, *request));
                }
            }
            Took::HedgeTimedOut(seq) => {
                tel.counter_incr("client-hedge-timeouts");
                if let Some(hedge) = self.spans.get_mut(&seq).and_then(|(_, hedge)| hedge.take()) {
                    tel.span_end(hedge);
                }
            }
            Took::StaleTimeout => tel.counter_incr("client-stale-timeouts"),
            Took::BadReply => tel.counter_incr("client-bad-replies"),
            Took::Unmatched => tel.counter_incr("client-unmatched-replies"),
            Took::OutcomeReported => tel.counter_incr("client-outcome-reports"),
        }
        stepped
    }

    /// Steps 1–2: tag the requirement with `seq`, hand out its frame, and
    /// arm the request's timers — deadline and hedge first, so that on an
    /// exact tie the deadline outranks an attempt timeout in a FIFO driver.
    ///
    /// A `seq` still in flight is not sent again: its current attempt's
    /// wait restarts under `spec`'s timeout and retries (the live
    /// typestate sends at `request` and learns both at `await_reply`).
    fn start(&mut self, now: u64, spec: &RequestSpec, seq: u32, out: &mut Stepped) -> Took {
        if let Some(r) = self.requests.get_mut(&seq) {
            (r.timeout, r.retries) = (spec.timeout, spec.retries);
            let at = now.saturating_add(clamp(r.timeout, r.deadline_at, now));
            arm(&mut out.outputs, seq, TimerKind::Attempt(r.attempt), at);
            return Took::Nothing;
        }
        let deadline_at = spec.deadline.map(|d| now.saturating_add(d.as_nanos()));
        if let Some(at) = deadline_at {
            arm(&mut out.outputs, seq, TimerKind::Deadline, at);
        }
        if let Some(delay) = spec.hedge_delay {
            arm(&mut out.outputs, seq, TimerKind::Hedge, now.saturating_add(delay.as_nanos()));
        }
        let (server_num, option, detail) = (spec.servers, spec.option, spec.requirement.clone());
        let req = UserRequest { seq, server_num, option, detail };
        out.frame = Some(req.encode());
        let at = now.saturating_add(clamp(spec.timeout, deadline_at, now));
        arm(&mut out.outputs, seq, TimerKind::Attempt(0), at);
        let (timeout, retries) = (spec.timeout, spec.retries);
        let request = Request { req, timeout, retries, attempt: 0, deadline_at, hedge: None };
        self.requests.insert(seq, request);
        Took::Started(seq)
    }

    /// Step 3: one datagram from the reply socket. Only the wizard the
    /// request went to may answer it; a matching reply resolves the
    /// request per the shortfall option, whichever of the primary and the
    /// hedge it answers, and tears the other down.
    fn datagram(&mut self, from: Endpoint, payload: &[u8], out: &mut Outputs) -> Took {
        if from != self.wizard {
            return Took::Unmatched;
        }
        let Ok(reply) = WizardReply::decode(payload) else {
            return Took::BadReply;
        };
        // The reply answers a request or, failing that, a request's hedge.
        let primary = self.requests.contains_key(&reply.seq).then_some(reply.seq);
        let hedged = || self.requests.iter().find(|(_, r)| r.hedge == Some(reply.seq));
        let Some(seq) = primary.or_else(|| hedged().map(|(&seq, _)| seq)) else {
            return Took::Unmatched;
        };
        #[expect(
            clippy::expect_used,
            reason = "invariant: `seq` was found in `requests` just above"
        )]
        let r = self.requests.remove(&seq).expect("invariant: found just above");
        let hedge_won = seq != reply.seq;
        let result = match reply.status(r.req.server_num) {
            ReplyStatus::Empty => Err(ClientError::NoServers),
            ReplyStatus::Short { requested, returned } if !r.req.option.accept_fewer => {
                Err(ClientError::Shortfall { requested, returned })
            }
            _ => Ok(reply.servers),
        };
        push(out, Output::Resolved(seq, result));
        Took::Over(seq, Ok(hedge_won))
    }

    /// A timer the driver was asked to arm has come due.
    fn fired(
        &mut self,
        now: u64,
        (seq, kind): Timer,
        path_up: bool,
        rnd: &mut dyn Entropy,
        out: &mut Stepped,
    ) -> Took {
        let Some(r) = self.requests.get_mut(&seq) else {
            return Took::Nothing; // resolved in the same instant, just earlier
        };
        match kind {
            TimerKind::Deadline => {
                self.requests.remove(&seq);
                push(&mut out.outputs, Output::Resolved(seq, Err(ClientError::DeadlineExceeded)));
                Took::Over(seq, Err(ClientError::DeadlineExceeded))
            }
            // Re-issue the request under a fresh sequence number — one
            // shot, no retries of its own, clamped to the remaining
            // budget. The first usable reply (either number) wins.
            TimerKind::Hedge => {
                let hedge_seq = rnd.seq();
                r.req.seq = hedge_seq;
                out.frame = Some(r.req.encode());
                r.req.seq = seq;
                let at = now.saturating_add(clamp(r.timeout, r.deadline_at, now));
                arm(&mut out.outputs, seq, TimerKind::HedgeAttempt, at);
                r.hedge = Some(hedge_seq);
                Took::HedgeFired(seq)
            }
            // A hedge that never got an answer goes quietly: the primary's
            // own retry ladder is still in charge.
            TimerKind::HedgeAttempt => match r.hedge.take() {
                Some(_) => Took::HedgeTimedOut(seq),
                None => Took::Nothing,
            },
            TimerKind::Attempt(n) if n != r.attempt => Took::StaleTimeout,
            // The ladder is spent. Distinguish the transient failure
            // (wizard silent) from the permanent one (no path to it).
            TimerKind::Attempt(_) if r.attempt >= r.retries => {
                let retries = r.retries;
                self.requests.remove(&seq);
                let err = if path_up {
                    ClientError::Timeout { retries }
                } else {
                    ClientError::Unreachable { retries }
                };
                push(&mut out.outputs, Output::Resolved(seq, Err(err.clone())));
                Took::Over(seq, Err(err))
            }
            // The next rung. Retries wait exponentially longer (doubling,
            // capped at 8× base) with jitter — the classic backoff that
            // keeps a herd of retrying clients from re-synchronizing on a
            // recovering wizard — except while the path to the wizard is
            // down: that loss is not congestion, so stretching the wait
            // only delays the verdict.
            TimerKind::Attempt(_) => {
                r.attempt += 1;
                out.frame = Some(r.req.encode());
                let mut timeout = r.timeout;
                let mut backoff_ms = None;
                if path_up {
                    let factor = (1u64 << r.attempt.min(3)) as f64;
                    let stretched = r.timeout.as_secs_f64() * factor * (1.0 + rnd.jitter());
                    timeout = SimDuration::from_secs_f64(stretched);
                    let extra = timeout.as_nanos().saturating_sub(r.timeout.as_nanos());
                    backoff_ms = Some(extra / 1_000_000);
                }
                let at = now.saturating_add(clamp(timeout, r.deadline_at, now));
                arm(&mut out.outputs, seq, TimerKind::Attempt(r.attempt), at);
                Took::Retried { attempt: r.attempt, backoff_ms }
            }
        }
    }
}

/// An attempt's wait: `timeout`, cut to what is left of the deadline.
fn clamp(timeout: SimDuration, deadline_at: Option<u64>, now: u64) -> u64 {
    let timeout = timeout.as_nanos();
    deadline_at.map_or(timeout, |at| timeout.min(at.saturating_sub(now)))
}

#[cfg(test)]
mod tests {
    //! The engine alone: scripted randomness, no scheduler and no socket.
    //! Each test is a table of inputs and the exact outputs they must
    //! produce.
    use super::TimerKind::{Attempt, Deadline, Hedge as HedgeDelay, HedgeAttempt};
    use super::*;

    const LOCAL: Endpoint = Endpoint::new(Ip::new(10, 0, 0, 2), 47000);
    const WIZARD: Endpoint = Endpoint::new(Ip::new(10, 0, 0, 1), 1120);
    const STRANGER: Endpoint = Endpoint::new(Ip::new(10, 0, 0, 66), 1120);
    /// The sequence number every test's request goes out under.
    const SEQ: u32 = 7;
    /// The first sequence number the scripted randomness hands a hedge.
    const HEDGE_SEQ: u32 = 100;
    const MS: u64 = 1_000_000;
    const S: u64 = 1_000 * MS;

    struct Dice {
        next_seq: u32,
        jitter: f64,
    }

    impl Entropy for Dice {
        fn draw(&mut self) -> u32 {
            self.next_seq += 1;
            self.next_seq - 1
        }
        fn jitter(&mut self) -> f64 {
            self.jitter
        }
    }

    struct Rig {
        engine: ClientEngine,
        now: u64,
        /// The frames the engine handed out for the wizard, in order.
        sent: Vec<Vec<u8>>,
        dice: Dice,
        tel: Telemetry,
    }

    fn rig(jitter: f64) -> Rig {
        Rig {
            engine: ClientEngine::new(LOCAL, WIZARD),
            now: 0,
            sent: Vec::new(),
            dice: Dice { next_seq: HEDGE_SEQ, jitter },
            tel: Telemetry::new(),
        }
    }

    impl Rig {
        fn step(&mut self, input: Input<'_>) -> Vec<Output> {
            self.tel.set_now(self.now);
            let Stepped { frame, outputs } =
                self.engine.step(SimTime(self.now), input, &mut self.dice, Some(&mut self.tel));
            self.sent.extend(frame.map(|frame| frame.to_vec()));
            outputs.into_iter().flatten().collect()
        }

        fn start(&mut self, spec: &RequestSpec) -> Vec<Output> {
            self.step(Input::Start(spec, SEQ))
        }

        fn fire(&mut self, at: u64, kind: TimerKind, path_up: bool) -> Vec<Output> {
            self.now = at;
            self.step(Input::Fired { timer: (SEQ, kind), path_up })
        }

        fn datagram(&mut self, from: Endpoint, bytes: &[u8]) -> Vec<Output> {
            self.step(Input::Datagram { from, bytes })
        }

        /// A reply carrying `n` servers under `seq`, from `from`.
        fn reply(&mut self, from: Endpoint, seq: u32, n: u8) -> Vec<Output> {
            self.datagram(from, &WizardReply { seq, servers: servers(n) }.encode())
        }

        fn counter(&self, name: &str) -> u64 {
            self.tel.counter(name)
        }
    }

    fn servers(n: u8) -> Vec<Endpoint> {
        (1..=n).map(|i| Endpoint::new(Ip::new(10, 0, 1, i), 1200)).collect()
    }

    fn spec(servers: u16) -> RequestSpec {
        RequestSpec::new("host_cpu_free > 0.5\n", servers)
    }

    fn arm(kind: TimerKind, at: u64) -> Output {
        Output::Arm((SEQ, kind), at)
    }

    fn resolved(result: Result<Vec<Endpoint>, ClientError>) -> Output {
        Output::Resolved(SEQ, result)
    }

    #[test]
    fn happy_path_reaches_connected() {
        let mut r = rig(0.0);
        assert_eq!(r.start(&spec(2)), [arm(Attempt(0), 2 * S)]);
        let frame = UserRequest {
            seq: SEQ,
            server_num: 2,
            option: RequestOption::DEFAULT,
            detail: "host_cpu_free > 0.5\n".to_owned(),
        };
        assert_eq!(r.sent, [frame.encode().to_vec()]);
        assert_eq!(r.reply(WIZARD, SEQ, 2), [resolved(Ok(servers(2)))]);
        assert_eq!(r.reply(WIZARD, SEQ, 2), [], "a resolved request answers nothing");
        assert_eq!(r.counter("client-requests"), 1);
        assert_eq!(r.counter("client-responses"), 1);
        assert_eq!(r.tel.span_durations_ns("client-request"), [0]);
    }

    #[test]
    fn seq_mismatch_hands_the_flow_back_for_retry() {
        let mut r = rig(0.0);
        r.start(&spec(1));
        assert_eq!(r.reply(WIZARD, SEQ + 1, 1), []);
        assert_eq!(r.counter("client-unmatched-replies"), 1);
        // The request is still there for the reply that does match.
        assert_eq!(r.reply(WIZARD, SEQ, 1), [resolved(Ok(servers(1)))]);
    }

    #[test]
    fn undecodable_datagrams_do_not_consume_the_request() {
        let mut r = rig(0.0);
        r.start(&spec(1));
        assert_eq!(r.datagram(WIZARD, b"garbage"), []);
        assert_eq!(r.counter("client-bad-replies"), 1);
        assert_eq!(r.reply(WIZARD, SEQ, 1), [resolved(Ok(servers(1)))]);
    }

    #[test]
    fn a_reply_from_anyone_but_the_wizard_is_not_a_reply() {
        let mut r = rig(0.0);
        r.start(&spec(1));
        assert_eq!(r.reply(STRANGER, SEQ, 1), [], "right sequence number, wrong sender");
        let receiver = Endpoint::new(WIZARD.ip, 1121);
        assert_eq!(r.reply(receiver, SEQ, 1), [], "right host, wrong port");
        assert_eq!(r.counter("client-unmatched-replies"), 2);
        assert_eq!(r.reply(WIZARD, SEQ, 1), [resolved(Ok(servers(1)))]);
    }

    #[test]
    fn empty_replies_never_connect() {
        let mut r = rig(0.0);
        r.start(&spec(2));
        let no_servers = resolved(Err(ClientError::NoServers));
        assert_eq!(r.reply(WIZARD, SEQ, 0), [no_servers]);
        assert_eq!(r.counter("client-responses"), 1, "an empty reply is still the wizard's answer");
    }

    #[test]
    fn shortfall_respects_the_accept_fewer_option() {
        // (servers asked, exact?, servers offered) → the resolution.
        let short = ClientError::Shortfall { requested: 3, returned: 2 };
        for (asked, exact, offered, expect) in [
            (3, true, 2, Err(short)),
            (3, false, 2, Ok(servers(2))),
            (3, true, 3, Ok(servers(3))),
            (2, true, 3, Ok(servers(3))),
        ] {
            let mut r = rig(0.0);
            r.start(&if exact { spec(asked).exact() } else { spec(asked) });
            let got = r.reply(WIZARD, SEQ, offered);
            assert_eq!(got, [resolved(expect)], "{asked} {exact} {offered}");
        }
    }

    #[test]
    fn the_ladder_retransmits_under_capped_jittered_backoff_then_times_out() {
        let mut r = rig(0.1);
        let ladder = RequestSpec { retries: 5, ..spec(1) };
        assert_eq!(r.start(&ladder), [arm(Attempt(0), 2 * S)]);
        // Base 2 s doubling to the 8× cap, each stretched by the 10 % jitter.
        let mut now = 2 * S;
        for (attempt, wait) in [(1, 4400 * MS), (2, 8800 * MS), (3, 17600 * MS), (4, 17600 * MS)] {
            assert_eq!(
                r.fire(now, Attempt(attempt - 1), true),
                [arm(Attempt(attempt), now + wait)]
            );
            now += wait;
        }
        // Path down: the next retry waits the bare base timeout.
        assert_eq!(r.fire(now, Attempt(4), false), [arm(Attempt(5), now + 2 * S)]);
        let timed_out = resolved(Err(ClientError::Timeout { retries: 5 }));
        assert_eq!(r.fire(now + 2 * S, Attempt(5), true), [timed_out]);

        assert_eq!(r.sent.len(), 6);
        assert!(r.sent.iter().all(|frame| *frame == r.sent[0]), "one frame, six times");
        assert_eq!(r.counter("client-requests"), 6);
        assert_eq!(r.counter("client-retries"), 5);
        assert_eq!(r.counter("client-backoff-ms-total"), 2400 + 6800 + 2 * 15600);
        assert_eq!(r.tel.event_count("client-backoff"), 4);
        assert_eq!(r.counter("client-timeouts"), 1);
        assert_eq!(r.tel.span_durations_ns("client-request"), [now + 2 * S]);
    }

    #[test]
    fn an_unreachable_wizard_is_given_up_on_at_exactly_three_base_timeouts() {
        let mut r = rig(0.1);
        r.start(&spec(1));
        assert_eq!(r.fire(2 * S, Attempt(0), false), [arm(Attempt(1), 4 * S)]);
        assert_eq!(r.fire(4 * S, Attempt(1), false), [arm(Attempt(2), 6 * S)]);
        let unreachable = resolved(Err(ClientError::Unreachable { retries: 2 }));
        assert_eq!(r.fire(6 * S, Attempt(2), false), [unreachable]);
        assert_eq!(r.counter("client-unreachable"), 1);
        assert_eq!(r.counter("client-timeouts"), 0);
        assert_eq!(r.tel.event_count("client-backoff"), 0);
    }

    #[test]
    fn the_deadline_clamps_every_wait_and_ends_the_request() {
        let mut r = rig(0.1);
        let bounded = spec(1).with_deadline(SimDuration::from_secs(3));
        assert_eq!(r.start(&bounded), [arm(Deadline, 3 * S), arm(Attempt(0), 2 * S)]);
        // The retry at t = 2 sees the 1 s that is left, not 2 s + backoff.
        assert_eq!(r.fire(2 * S, Attempt(0), true), [arm(Attempt(1), 3 * S)]);
        let exceeded = resolved(Err(ClientError::DeadlineExceeded));
        assert_eq!(r.fire(3 * S, Deadline, true), [exceeded]);
        // The attempt timer of the same instant finds nothing left to do.
        assert_eq!(r.fire(3 * S, Attempt(1), true), []);
        assert_eq!(r.counter("client-retries"), 1);
        assert_eq!(r.counter("client-deadline-exceeded"), 1);
        assert_eq!(r.counter("client-timeouts") + r.counter("client-stale-timeouts"), 0);
    }

    #[test]
    fn a_timer_armed_for_an_earlier_attempt_is_stale() {
        let mut r = rig(0.0);
        r.start(&spec(1));
        assert_eq!(r.fire(2 * S, Attempt(0), true), [arm(Attempt(1), 6 * S)]);
        assert_eq!(r.fire(2 * S, Attempt(0), true), [], "attempt 1 is waiting now");
        assert_eq!(r.counter("client-stale-timeouts"), 1);
        assert_eq!(r.sent.len(), 2, "a stale timer sends nothing");
    }

    #[test]
    fn the_hedge_wins_under_a_fresh_sequence_number() {
        let mut r = rig(0.0);
        let hedged = spec(2).with_hedge(SimDuration::from_secs(1));
        assert_eq!(r.start(&hedged), [arm(HedgeDelay, S), arm(Attempt(0), 2 * S)]);
        assert_eq!(r.fire(S, HedgeDelay, true), [arm(HedgeAttempt, 3 * S)]);
        let (primary, hedge) = (&r.sent[0], &r.sent[1]);
        assert_eq!(UserRequest::decode(hedge).unwrap().seq, HEDGE_SEQ);
        assert_eq!(primary[4..], hedge[4..], "the hedge differs in the sequence number alone");

        let won = resolved(Ok(servers(2)));
        assert_eq!(r.reply(WIZARD, HEDGE_SEQ, 2), [won]);
        // The primary's reply eventually lands and is discarded.
        assert_eq!(r.reply(WIZARD, SEQ, 2), []);
        assert_eq!(r.counter("client-hedges-fired"), 1);
        assert_eq!(r.counter("client-hedges-won"), 1);
        assert_eq!(r.counter("client-responses"), 1);
        assert_eq!(r.counter("client-unmatched-replies"), 1);
        assert_eq!(r.counter("client-requests"), 1, "a hedge is not a request of its own");
        assert_eq!(r.tel.span_durations_ns("client-hedge"), [0]);
        assert_eq!(r.tel.span_durations_ns("client-request"), [S]);
    }

    #[test]
    fn the_hedge_is_torn_down_when_the_primary_wins_or_it_times_out() {
        // Primary answers before the hedge delay: the delay timer goes.
        let mut r = rig(0.0);
        let hedged = spec(1).with_hedge(SimDuration::from_secs(1));
        r.start(&hedged);
        let won = || resolved(Ok(servers(1)));
        assert_eq!(r.reply(WIZARD, SEQ, 1), [won()]);
        assert_eq!(r.counter("client-hedges-fired"), 0);

        // Primary answers after the hedge went out: its attempt timer goes.
        let mut r = rig(0.0);
        r.start(&hedged);
        r.fire(S, HedgeDelay, true);
        assert_eq!(r.reply(WIZARD, SEQ, 1), [won()]);
        assert_eq!(r.counter("client-hedges-won"), 0);
        assert_eq!(r.reply(WIZARD, HEDGE_SEQ, 1), [], "the loser's reply matches nothing");

        // The hedge's one attempt expires quietly; the ladder carries on.
        let mut r = rig(0.0);
        r.start(&RequestSpec { timeout: SimDuration::from_secs(4), ..hedged });
        r.fire(S, HedgeDelay, true);
        assert_eq!(r.fire(5 * S, HedgeAttempt, true), []);
        assert_eq!(r.counter("client-hedge-timeouts"), 1);
        assert_eq!(r.reply(WIZARD, HEDGE_SEQ, 1), [], "a spent hedge no longer answers");
        assert_eq!(r.reply(WIZARD, SEQ, 1), [won()]);
    }

    #[test]
    fn outcome_reports_go_to_the_wizard_port_one_frame_each() {
        let mut r = rig(0.0);
        let report = OutcomeReport { server: Ip::new(10, 0, 1, 2), outcome: OutcomeKind::Timeout };
        for _ in 0..2 {
            assert_eq!(r.step(Input::Outcome(report.server, report.outcome)), []);
        }
        assert_eq!(r.sent, [report.encode().to_vec(), report.encode().to_vec()]);
        assert_eq!(r.counter("client-outcome-reports"), 2);
    }

    #[test]
    fn starting_a_request_in_flight_retimes_it_without_resending() {
        let mut r = rig(0.0);
        r.start(&spec(1).with_deadline(SimDuration::from_secs(3)));
        r.now = S;
        let hurried = RequestSpec { timeout: SimDuration::from_millis(60), retries: 0, ..spec(1) };
        assert_eq!(r.start(&hurried), [arm(Attempt(0), S + 60 * MS)]);
        assert_eq!(r.sent.len(), 1);
        assert_eq!(r.counter("client-requests"), 1);
        let timed_out = resolved(Err(ClientError::Timeout { retries: 0 }));
        let gone = [timed_out];
        assert_eq!(r.fire(S + 60 * MS, Attempt(0), true), gone);
        // Resolved, so the same call now issues it afresh.
        assert_eq!(r.start(&hurried), [arm(Attempt(0), S + 120 * MS)]);
        assert_eq!(r.sent.len(), 2);
    }

    #[test]
    fn an_unbounded_timeout_arms_its_timers_at_the_end_of_time() {
        // Regression: `now + wait` overflowed — a panic in debug, and in
        // release a wait that wrapped into the past and gave up at once.
        let end = u64::MAX;
        let forever = RequestSpec { timeout: SimDuration::from_nanos(end), ..spec(1) };
        let hedged = forever.with_hedge(SimDuration::from_secs(1));
        let mut r = rig(0.1);
        r.now = S;
        // Each site that arms `now + wait`: start, re-time, hedge, retry.
        assert_eq!(r.start(&hedged), [arm(HedgeDelay, 2 * S), arm(Attempt(0), end)]);
        assert_eq!(r.start(&hedged), [arm(Attempt(0), end)]);
        assert_eq!(r.fire(2 * S, HedgeDelay, true), [arm(HedgeAttempt, end)]);
        assert_eq!(r.fire(3 * S, Attempt(0), true), [arm(Attempt(1), end)]);
    }
}
