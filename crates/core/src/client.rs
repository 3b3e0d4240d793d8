//! The simulated client: [`SmartClient`] drives the one client engine
//! (`smartsock_wizard::client`, paper §3.6.2 — the protocol walkthrough
//! lives there) on the simulator's scheduler.
//!
//! The engine decides everything about a request — the reply check, the
//! retry ladder, the deadline, the hedge, outcome reports, the frames and
//! the telemetry. What is left here is what only the simulator has: the
//! reply port's binding, sending each frame through the packet network,
//! scheduler events behind the engine's timers, the seeded RNG, the
//! simulated service connections (step 4) and the caller's callbacks.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::Rng;

use smartsock_net::{Network, Payload, StreamMessage};
use smartsock_proto::consts::ports;
use smartsock_proto::{Endpoint, Ip, OutcomeKind};
use smartsock_sim::{rng as simrng, EventId, Scheduler, SimTime};
use smartsock_wizard::client::{ClientEngine, Entropy, Input, Output, Stepped, Timer};

pub use smartsock_wizard::client::{ClientError, RequestSpec};

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

struct ClientState {
    engine: ClientEngine,
    /// Result callbacks of the requests in flight, by sequence number.
    callbacks: BTreeMap<u32, ResultCb>,
    /// The scheduler events behind the engine's armed timers.
    timers: BTreeMap<Timer, EventId>,
    next_port: u16,
    rng: rand::rngs::StdRng,
}

/// The engine's randomness, drawn from the client's seeded stream.
struct Draw<'a>(&'a mut rand::rngs::StdRng);

impl Entropy for Draw<'_> {
    fn draw(&mut self) -> u32 {
        self.0.gen()
    }
    fn jitter(&mut self) -> f64 {
        self.0.gen_range(0.0..0.25)
    }
}

/// The Smart socket client library instance for one client machine.
#[derive(Clone)]
pub struct SmartClient {
    net: Network,
    ip: Ip,
    wizard_ip: Ip,
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
        let engine = ClientEngine::new(reply_ep, Endpoint::new(wizard_ip, ports::WIZARD));
        SmartClient {
            net,
            ip,
            wizard_ip,
            reply_ep,
            report_outcomes: false,
            st: Rc::new(RefCell::new(ClientState {
                engine,
                callbacks: BTreeMap::new(),
                timers: BTreeMap::new(),
                next_port: 47100,
                rng: simrng::derive_indexed(seed, "smart-client", u64::from(ip.0)),
            })),
        }
    }

    /// The client machine's address.
    pub fn ip(&self) -> Ip {
        self.ip
    }

    /// Report connect successes/failures to the wizard's health table
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
        self.drive(s, Input::Outcome(server, outcome));
    }

    /// Request a group of servers; `on_result` receives the connected
    /// sockets or the failure. Must be called after the wizard is up.
    pub fn request(
        &self,
        s: &mut Scheduler,
        spec: RequestSpec,
        on_result: impl FnOnce(&mut Scheduler, Result<Vec<SmartSock>, ClientError>) + 'static,
    ) {
        // Bind (idempotently) the shared reply port; the engine dispatches
        // replies on the sequence number (§3.6.2 step 3).
        let client = self.clone();
        self.net.bind_udp(self.reply_ep, move |s, dgram| {
            client.drive(s, Input::Datagram { from: dgram.from, bytes: &dgram.payload.data });
        });
        let seq: u32 = {
            let mut st = self.st.borrow_mut();
            let seq = Draw(&mut st.rng).seq();
            st.callbacks.insert(seq, Box::new(on_result));
            seq
        };
        self.drive(s, Input::Start(&spec, seq));
    }

    /// One engine step into the scheduler's telemetry, then what it asks
    /// for: its frame goes to the wizard (the simulated network never fails
    /// a send: loss is silence), timers become scheduler events (in the
    /// engine's order, which FIFO tie-breaks rely on), a resolution becomes
    /// connects and the caller's callback.
    fn drive(&self, s: &mut Scheduler, input: Input<'_>) {
        let Stepped { frame, outputs } = {
            let st = &mut *self.st.borrow_mut();
            st.engine.step(s.now(), input, &mut Draw(&mut st.rng), Some(&mut s.telemetry))
        };
        if let Some(frame) = frame {
            let wizard = Endpoint::new(self.wizard_ip, ports::WIZARD);
            self.net.send_udp(s, self.reply_ep, wizard, Payload::data(frame), None);
        }
        for output in outputs.into_iter().flatten() {
            match output {
                Output::Arm(timer, at) => {
                    let client = self.clone();
                    let event = s.schedule_at(SimTime(at), move |s| client.on_timer(s, timer));
                    self.st.borrow_mut().timers.insert(timer, event);
                }
                Output::Resolved(seq, result) => {
                    let cb = {
                        let mut st = self.st.borrow_mut();
                        st.timers.retain(|timer, event| {
                            if timer.0 == seq {
                                s.cancel(*event);
                            }
                            timer.0 != seq
                        });
                        st.callbacks.remove(&seq)
                    };
                    if let Some(cb) = cb {
                        let result = result.and_then(|servers| self.connect_all(s, &servers));
                        cb(s, result);
                    }
                }
            }
        }
    }

    fn on_timer(&self, s: &mut Scheduler, timer: Timer) {
        self.st.borrow_mut().timers.remove(&timer);
        let path_up = self.net.reachable(self.ip, self.wizard_ip);
        self.drive(s, Input::Fired { timer, path_up });
    }

    /// §3.6.2 step 4: connect to each candidate's service port. A server
    /// that stopped listening between selection and connect is skipped —
    /// the recovery behaviour Fig 1.1 motivates. With outcome reporting
    /// on, both verdicts flow back to the wizard's health table.
    fn connect_all(
        &self,
        s: &mut Scheduler,
        servers: &[Endpoint],
    ) -> Result<Vec<SmartSock>, ClientError> {
        let mut out = Vec::with_capacity(servers.len());
        for &remote in servers {
            let up = self.net.stream_bound(remote);
            if up {
                let mut st = self.st.borrow_mut();
                let local = Endpoint::new(self.ip, st.next_port);
                st.next_port = st.next_port.wrapping_add(1).max(47100);
                out.push(SmartSock { net: self.net.clone(), local, remote });
            }
            if self.report_outcomes {
                let outcome = if up { OutcomeKind::Completed } else { OutcomeKind::ConnectFailed };
                self.report_outcome(s, remote.ip, outcome);
            }
        }
        if out.is_empty() {
            return Err(ClientError::AllConnectionsFailed);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_net::{HostParams, LinkParams, NetworkBuilder};
    use smartsock_proto::{ServerStatusReport, UserRequest, WizardReply};
    use smartsock_sim::{SimDuration, SimTime};
    use smartsock_wizard::{SelectPolicy, Wizard, WizardConfig};

    struct Rig {
        s: Scheduler,
        net: Network,
        client: SmartClient,
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
        let mut s = Scheduler::new();
        let wizard = with_wizard.then(|| {
            let wiz = Wizard::new(
                Ip::new(10, 0, 0, 1),
                net.clone(),
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
        Rig { s, net, client, wizard }
    }

    fn seed_servers(rig: &Rig) {
        let mut wizard = rig.wizard.as_ref().expect("a rig with a wizard").engine_mut();
        for (name, ip) in [("srv1", Ip::new(10, 0, 0, 3)), ("srv2", Ip::new(10, 0, 0, 4))] {
            let mut r = ServerStatusReport::empty(name, ip);
            r.cpu_idle = 0.99;
            wizard.dbs_mut().sys.upsert(r, SimTime::ZERO);
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
    fn a_reply_from_a_third_party_does_not_resolve_the_request() {
        // Regression: the reply handler used to ignore the sender, so any
        // host that echoed the sequence number resolved the request.
        let mut rig = rig(false);
        let mut s = std::mem::take(&mut rig.s);
        // A wizard that hears the request and says nothing, while srv1
        // answers it — right frame, right sequence number, wrong sender.
        let net = rig.net.clone();
        rig.net.bind_udp(Endpoint::new(Ip::new(10, 0, 0, 1), ports::WIZARD), move |s, d| {
            let seq = UserRequest::decode(&d.payload.data).unwrap().seq;
            let stranger = Ip::new(10, 0, 0, 3);
            let reply = WizardReply { seq, servers: vec![Endpoint::new(stranger, ports::SERVICE)] };
            let from = Endpoint::new(stranger, ports::WIZARD);
            net.send_udp(s, from, d.from, Payload::data(reply.encode()), None);
        });
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let spec = RequestSpec { retries: 0, ..RequestSpec::new("", 1) };
        rig.client.request(&mut s, spec, move |_s, r| *g.borrow_mut() = Some(r));
        s.run();
        assert_eq!(
            got.borrow_mut().take().unwrap().unwrap_err(),
            ClientError::Timeout { retries: 0 }
        );
        assert_eq!(s.telemetry.counter("client-unmatched-replies"), 1);
        assert_eq!(s.telemetry.counter("client-responses"), 0);
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
