//! The live client: the §3.6.2 request loop over a real UDP socket,
//! shaped by the compile-time protocol state machine.
//!
//! [`LiveSock`] drives the one client engine
//! (`smartsock_wizard::client`, which the simulated `SmartClient` drives
//! too) from a blocking socket. Every decision — which reply ends the
//! wait and how, when to retransmit, back off, hedge or give up, which
//! frame to send — is the engine's; left here are the socket that sends
//! each frame, the clock (one read per engine step; each wait lasts until
//! the earliest timer, and no datagram or read timeout kept from an
//! earlier wait extends it), the randomness (a `SimRng` seeded by the
//! socket's port, kept across its reuses) and the phase types, which make
//! sequence violations compile errors (a socket owed nothing outlives its
//! `LiveSock`, kept for [`LiveSock::bind`]):
//!
//! ```compile_fail
//! let sock = smartsock_live::LiveSock::bind("127.0.0.1:1120".parse().unwrap()).unwrap();
//! // Cannot await a reply before a request is in flight: `await_reply`
//! // is not defined on `LiveSock<Registered>`.
//! let _ = sock.await_reply(std::time::Duration::from_millis(100), 0);
//! ```
//!
//! ```compile_fail
//! let sock = smartsock_live::LiveSock::bind("127.0.0.1:1120".parse().unwrap()).unwrap();
//! let waiting = sock.request_spec(smartsock_wizard::RequestSpec::new("", 1)).unwrap();
//! // Cannot read servers before a reply arrived: `servers` is not
//! // defined on `LiveSock<Requested>`.
//! let _ = waiting.servers();
//! ```
//!
//! ```compile_fail
//! let sock = smartsock_live::LiveSock::bind("127.0.0.1:1120".parse().unwrap()).unwrap();
//! let a = sock.request_spec(smartsock_wizard::RequestSpec::new("", 1));
//! // Transitions consume the socket: requesting twice is use-after-move.
//! let b = sock.request_spec(smartsock_wizard::RequestSpec::new("", 1));
//! ```

use std::cell::RefCell;
use std::io::{self, ErrorKind::Interrupted, ErrorKind::TimedOut, ErrorKind::WouldBlock};
use std::marker::PhantomData;
use std::net::{SocketAddr, UdpSocket};
use std::rc::Rc;
use std::time::Duration;

use smartsock_proto::typestate::{Connected, Registered, Requested};
use smartsock_proto::{
    Endpoint, Ip, OutcomeKind, ServerStatusReport, StatsReply, StatsRequest, UserRequest,
    WizardReply,
};
use smartsock_sim::rng::SimRng;
use smartsock_sim::{SimDuration, SimTime};
use smartsock_telemetry::Telemetry;
use smartsock_wizard::client::{
    ClientEngine, ClientError, Entropy, Input, Output, RequestSpec, Stepped, Timer, TimerKind,
};

use crate::clock::Clock;
use crate::transport::endpoint_of;

/// Why a request did not reach the connected phase.
#[derive(Debug)]
pub enum RequestError {
    /// Socket-level failure.
    Io(io::Error),
    /// The request ran its course without a usable server list.
    Failed(ClientError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "socket error: {e}"),
            RequestError::Failed(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RequestError {}

/// A socket owed nothing: its endpoint, its generator and the read timeout
/// it holds, in milliseconds.
type Spare = (Rc<UdpSocket>, Endpoint, SimRng, u64);

/// How many spares a thread keeps.
const MAX_SPARES: usize = 8;
thread_local! {
    static SPARE: RefCell<Vec<Spare>> = const { RefCell::new(Vec::new()) };
}

/// What every phase carries: the socket and what drives the engine on it.
struct Core {
    /// Shared only so that `drop` can hand it to the spares.
    sock: Rc<UdpSocket>,
    local: Endpoint,
    /// Where the engine's frames go.
    wizard: SocketAddr,
    clock: Clock,
    engine: ClientEngine,
    /// The engine's randomness: seeded by the port at its first bind and
    /// continued across reuses (no OS entropy: a hedge's `seq` need only
    /// differ from its request's, jitter only between clients).
    rnd: SimRng,
    /// The socket's read timeout in milliseconds, 0 while it has none.
    timeout_ms: u64,
    /// When each armed engine timer is due — a request has at most three
    /// at once: deadline, hedge (delay, then attempt), attempt.
    timers: [Option<(Timer, u64)>; 3],
    /// Set for good once a timer fired: a reply may then be late.
    fired: bool,
    tel: Option<Telemetry>,
}

impl Drop for Core {
    /// Owed nothing (no timer armed, none ever fired), the socket becomes a
    /// spare, its generator with it so that no `seq` repeats on its port.
    fn drop(&mut self) {
        let owed = self.fired || self.timers != [None; 3];
        let spare = (Rc::clone(&self.sock), self.local, self.rnd.clone(), self.timeout_ms);
        let _ = SPARE.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            if !owed && spares.len() < MAX_SPARES {
                spares.push(spare);
            }
        });
    }
}

fn slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Deadline => 0,
        TimerKind::Hedge | TimerKind::HedgeAttempt => 1,
        TimerKind::Attempt(_) => 2,
    }
}

impl Core {
    /// One engine step at one clock read, into the telemetry if wanted:
    /// send its frame to the wizard, keep the timer table, and say whether
    /// it resolved the request. A send the OS refused is the caller's
    /// error, and the step's timers stay in the table all the same.
    fn drive(
        &mut self,
        input: Input<'_>,
    ) -> io::Result<Option<Result<Vec<Endpoint>, ClientError>>> {
        let now = self.clock.now_ns();
        if let Some(tel) = &mut self.tel {
            tel.set_now(now);
        }
        let Stepped { frame, outputs } =
            self.engine.step(SimTime(now), input, &mut self.rnd, self.tel.as_mut());
        let sent = frame.map_or(Ok(0), |frame| self.sock.send_to(&frame, self.wizard));
        let mut resolved = None;
        for output in outputs.into_iter().flatten() {
            match output {
                Output::Arm(timer, at) => self.timers[slot(timer.1)] = Some((timer, at)),
                Output::Resolved(_, result) => {
                    self.timers = [None; 3];
                    resolved = Some(result);
                }
            }
        }
        sent.map(|_| resolved)
    }
}

/// Block in `recv_from` until a datagram arrives or `clock` reaches
/// `until_ns`, whichever is first. The socket's read timeout is the time
/// left rounded down to whole milliseconds, at least 1 (the kernel keeps
/// it in jiffies anyway); `timeout_ms` is what the socket holds, and the
/// `setsockopt` is skipped when it already holds that, so back-to-back
/// waits of one length pay none. A timeout that wakes early loops on the
/// time left: neither a datagram that does not end the wait nor a timeout
/// kept from an earlier one can extend it. Linux fails a timed
/// `recv_from` with `EINTR` when the process is stopped and continued
/// (Ctrl-Z, then `fg`); the wait then resumes the same way.
fn recv_until(
    sock: &UdpSocket,
    timeout_ms: &mut u64,
    clock: &Clock,
    until_ns: u64,
    buf: &mut [u8],
) -> io::Result<Option<(usize, SocketAddr)>> {
    loop {
        let left = until_ns.saturating_sub(clock.now_ns());
        if left == 0 {
            return Ok(None);
        }
        let ms = (left / 1_000_000).max(1);
        if ms != *timeout_ms {
            sock.set_read_timeout(Some(Duration::from_millis(ms)))?;
            *timeout_ms = ms;
        }
        match sock.recv_from(buf) {
            Ok(got) => return Ok(Some(got)),
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
    }
}

/// A client socket whose protocol phase is a type parameter; see the
/// module docs. Construct with [`LiveSock::bind`].
pub struct LiveSock<S> {
    core: Core,
    /// The request as issued: a wait that failed can be tried again.
    spec: RequestSpec,
    seq: u32,
    servers: Vec<Endpoint>,
    phase: PhantomData<S>,
}

impl<S> LiveSock<S> {
    fn into_phase<P>(self, servers: Vec<Endpoint>) -> LiveSock<P> {
        LiveSock { core: self.core, spec: self.spec, seq: self.seq, servers, phase: PhantomData }
    }

    /// Where this socket's `client-*` telemetry goes — the names the
    /// simulated client emits, written by the same engine — once set.
    pub fn telemetry(&mut self) -> &mut Option<Telemetry> {
        &mut self.core.tel
    }
}

impl LiveSock<Registered> {
    /// An ephemeral loopback port, registered toward `wizard`: a spare
    /// of this thread's if it has one, else a newly bound one.
    ///
    /// A socket dropped owed nothing — each request it sent resolved by a
    /// reply, no timer (retransmission, hedge, deadline) ever fired — is a
    /// spare; one dropped awaiting (as an I/O error leaves it) closes.
    pub fn bind(wizard: SocketAddr) -> io::Result<LiveSock<Registered>> {
        let unsupported = || io::Error::other("live client requires IPv4 addresses");
        let wizard_ep = endpoint_of(wizard).ok_or_else(unsupported)?;
        let spare = SPARE.try_with(|s| s.borrow_mut().pop()).ok().flatten();
        let (sock, local, rnd, timeout_ms) = match spare {
            Some(spare) => spare,
            None => {
                let sock = UdpSocket::bind("127.0.0.1:0")?;
                let local = endpoint_of(sock.local_addr()?).ok_or_else(unsupported)?;
                (Rc::new(sock), local, SimRng::seed_from_u64(u64::from(local.port)), 0)
            }
        };
        let engine = ClientEngine::new(local, wizard_ep);
        let (clock, timers, fired, tel) = (Clock::wall(), [None; 3], false, None);
        let core = Core { sock, local, wizard, clock, engine, rnd, timeout_ms, timers, fired, tel };
        let spec = RequestSpec::new("", 0);
        Ok(LiveSock { core, spec, seq: 0, servers: Vec::new(), phase: PhantomData })
    }

    /// Send `req` once under its own sequence number, entering the
    /// awaiting phase; [`LiveSock::await_reply`] supplies the timeout and
    /// the retry budget.
    pub fn request(self, req: UserRequest) -> io::Result<LiveSock<Requested>> {
        let spec = RequestSpec::new(req.detail, req.server_num);
        self.issue(RequestSpec { option: req.option, ..spec }, req.seq)
    }

    /// Issue a request from the parameters both backends share — deadline
    /// and hedge included — under a sequence number drawn here.
    pub fn request_spec(mut self, spec: RequestSpec) -> io::Result<LiveSock<Requested>> {
        let seq = self.core.rnd.seq();
        self.issue(spec, seq)
    }

    fn issue(mut self, spec: RequestSpec, seq: u32) -> io::Result<LiveSock<Requested>> {
        self.core.drive(Input::Start(&spec, seq))?;
        Ok(LiveSock { spec, seq, ..self.into_phase(Vec::new()) })
    }
}

impl LiveSock<Requested> {
    /// [`LiveSock::wait`] under this per-attempt `timeout` and this many
    /// `retries` (retransmissions after the first send).
    #[expect(
        clippy::result_large_err,
        reason = "the Err arm intentionally returns the socket itself"
    )]
    pub fn await_reply(
        mut self,
        timeout: Duration,
        retries: u32,
    ) -> Result<LiveSock<Connected>, (LiveSock<Requested>, RequestError)> {
        let timeout = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        (self.spec.timeout, self.spec.retries) = (SimDuration::from_nanos(timeout), retries);
        self.wait()
    }

    /// Wait for the request to resolve — §3.6.2 step 3, retransmissions,
    /// deadline and hedge as the engine runs them; the current attempt's
    /// wait starts now. On failure the socket comes back in the awaiting
    /// phase; waiting on it again issues the same request (same sequence
    /// number) afresh.
    #[expect(
        clippy::result_large_err,
        reason = "the Err arm intentionally returns the socket itself"
    )]
    pub fn wait(mut self) -> Result<LiveSock<Connected>, (LiveSock<Requested>, RequestError)> {
        let mut buf = [0u8; 4096];
        // In flight: not sent again, only timed from here. Else: afresh.
        let mut step = self.core.drive(Input::Start(&self.spec, self.seq));
        loop {
            match step {
                Err(e) => return Err((self, RequestError::Io(e))),
                Ok(Some(Err(e))) => return Err((self, RequestError::Failed(e))),
                Ok(Some(Ok(servers))) => return Ok(self.into_phase(servers)),
                Ok(None) => {}
            }
            let armed = self.core.timers.iter().flatten().copied();
            let (timer, at) = armed
                .min_by_key(|&(_, at)| at)
                .expect("invariant: an unresolved request has its attempt timer armed");
            let core = &mut self.core;
            step = match recv_until(&core.sock, &mut core.timeout_ms, &core.clock, at, &mut buf) {
                Err(e) => Err(e),
                Ok(Some((n, from))) => match (endpoint_of(from), buf.get(..n)) {
                    (Some(from), Some(bytes)) => self.core.drive(Input::Datagram { from, bytes }),
                    _ => Ok(None),
                },
                Ok(None) => {
                    self.core.timers[slot(timer.1)] = None;
                    self.core.fired = true;
                    self.core.drive(Input::Fired { timer, path_up: true })
                }
            };
        }
    }
}

impl LiveSock<Connected> {
    /// The selected service endpoints, best match first.
    pub fn servers(&self) -> &[Endpoint] {
        &self.servers
    }

    /// Tell the wizard how `server` worked out (DESIGN.md §11): one
    /// datagram, fire-and-forget.
    pub fn report_outcome(&mut self, server: Ip, outcome: OutcomeKind) -> io::Result<()> {
        self.core.drive(Input::Outcome(server, outcome)).map(drop)
    }

    /// Surrender the socket for the raw reply.
    pub fn into_reply(self) -> WizardReply {
        WizardReply { seq: self.seq, servers: self.servers }
    }
}

/// Send one probe report to a live wizard over real UDP.
pub fn send_live_report(wizard: SocketAddr, report: &ServerStatusReport) -> io::Result<()> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.send_to(report.encode_ascii().as_bytes(), wizard)?;
    Ok(())
}

/// One-shot convenience over [`LiveSock`]: request, await, return the
/// reply. An *empty* reply is returned as a reply (the CLI reports it to
/// the operator); every other failure becomes an error.
pub fn live_request(
    wizard: SocketAddr,
    req: &UserRequest,
    timeout: Duration,
    retries: u32,
) -> io::Result<WizardReply> {
    match LiveSock::bind(wizard)?.request(req.clone())?.await_reply(timeout, retries) {
        Ok(connected) => Ok(connected.into_reply()),
        Err((_, RequestError::Failed(ClientError::NoServers))) => {
            Ok(WizardReply { seq: req.seq, servers: Vec::new() })
        }
        Err((_, RequestError::Io(e))) => Err(e),
        Err((_, e)) => Err(io::Error::other(e.to_string())),
    }
}

/// Ask a running daemon for its current telemetry snapshot (the `SSQ1` /
/// `SSA1` exchange behind `smartsockd stats`). One datagram each way per
/// attempt, `retries` retransmissions after the first; stray datagrams and
/// replies to other queries are skipped by the echoed `seq` without
/// extending the attempt.
pub fn query_stats(
    daemon: SocketAddr,
    seq: u32,
    timeout: Duration,
    retries: u32,
) -> io::Result<StatsReply> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    let (clock, mut timeout_ms) = (Clock::wall(), 0);
    let timeout = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
    let wire = StatsRequest { seq }.encode();
    let mut buf = [0u8; 65536];
    for _ in 0..=retries {
        sock.send_to(&wire, daemon)?;
        let until = clock.now_ns().saturating_add(timeout);
        while let Some((n, from)) = recv_until(&sock, &mut timeout_ms, &clock, until, &mut buf)? {
            let reply = buf.get(..n).filter(|_| from == daemon).map(StatsReply::decode);
            // Anything but the daemon's answer to this query is noise.
            if let Some(Ok(reply)) = reply {
                if reply.seq == seq {
                    return Ok(reply);
                }
            }
        }
    }
    Err(io::Error::new(TimedOut, "daemon did not answer the stats query"))
}
