//! The wizard's telemetry allocates nothing once warm: a
//! `WizardEngine::step` into a ring-sink trace like the live daemon's
//! allocates exactly what `handle`/`sweep`, the same core without the
//! telemetry, do — a sweep tick with nothing due, a report that overwrites
//! a row and a matched request — and those figures are pinned, on an engine
//! holding one row and on one holding a thousand. So is what a
//! warm client request round trip through `ClientEngine::step` allocates,
//! untraced and traced. A binary of its own, because it installs a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smartsock_proto::{
    Endpoint, Ip, RequestOption, ServerStatusReport, Transport, TransportError, UserRequest,
    WizardReply,
};
use smartsock_sim::SimTime;
use smartsock_telemetry::{AccumSink, Telemetry};
use smartsock_wizard::client::{self, ClientEngine, Entropy, RequestSpec};
use smartsock_wizard::{Input, SelectPolicy, Stepped, WizardEngine};

/// Counts the calling thread's allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Replies go nowhere; the clock stands still, so the row never goes stale.
struct Null;

impl Transport for Null {
    fn now_ns(&self) -> u64 {
        1_000
    }

    fn send(&mut self, _: Endpoint, _: Endpoint, _: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }
}

/// A row every request below matches.
fn idle(host: &str, ip: Ip) -> ServerStatusReport {
    let mut row = ServerStatusReport::empty(host, ip);
    row.cpu_idle = 0.97;
    row
}

/// What 100 warm `step`s of each input allocate — a sweep tick with nothing
/// due, a report that overwrites `rows[0]` and a request for `server_num`
/// servers that matches — on an engine holding `rows`, after asserting that
/// `handle`/`sweep` allocate the same on a twin.
fn step_allocations(rows: &[ServerStatusReport], server_num: u16) -> [u64; 3] {
    let new = || WizardEngine::new(Ip::new(127, 0, 0, 1), SelectPolicy::default());
    let (mut engine, mut twin) = (new(), new());
    let mut tel = Telemetry::with_sink(Box::new(AccumSink::ring(64)));
    let client = Endpoint::new(Ip::new(127, 0, 0, 2), 4000);
    let now = SimTime(Null.now_ns());
    for row in rows {
        let bytes = row.encode_ascii();
        engine.step(now, Input::Datagram { from: client, bytes: bytes.as_bytes() }, &mut tel);
        assert!(twin.handle(&mut Null, client, bytes.as_bytes()).is_ok());
    }
    assert_eq!(engine.live_servers(), rows.len());
    let report = rows[0].encode_ascii();
    let detail = "host_cpu_free > 0.9\n".to_owned();
    let request = UserRequest { seq: 7, server_num, option: RequestOption::DEFAULT, detail };
    let request = request.encode();

    // One input to both engines: what `step` and what its wrapper allocated.
    let mut both = |payload: Option<&[u8]>| {
        let mut stepped = Stepped::Quiet;
        let input = payload.map_or(Input::Tick, |bytes| Input::Datagram { from: client, bytes });
        let by_step = allocations(|| stepped = engine.step(now, input, &mut tel));
        let by_wrapper = allocations(|| match payload {
            Some(bytes) => assert!(twin.handle(&mut Null, client, bytes).is_ok()),
            None => assert!(twin.sweep(now).is_empty()),
        });
        (by_step, by_wrapper, stepped)
    };
    let inputs = [None, Some(report.as_bytes()), Some(&request[..])];
    // Warm-up: every name and host seen, the ring past its first eviction.
    for _ in 0..100 {
        for payload in inputs {
            both(payload);
        }
    }
    let (mut stepping, mut wrapping) = ([0; 3], [0; 3]);
    for _ in 0..100 {
        for (i, payload) in inputs.into_iter().enumerate() {
            let (by_step, by_wrapper, stepped) = both(payload);
            assert_eq!(matches!(stepped, Stepped::Reply(..)), i == 2, "{stepped:?}");
            if let Stepped::Reply(_, frame) = &stepped {
                let servers = WizardReply::decode(frame).expect("a reply").servers;
                assert_eq!(servers.len(), usize::from(server_num).min(rows.len()));
            }
            stepping[i] += by_step;
            wrapping[i] += by_wrapper;
        }
    }
    assert_eq!(stepping, wrapping, "the telemetry allocated (tick, overwrite, match)");
    assert!(tel.dropped() > 0, "the ring never evicted");
    assert_eq!(tel.counter("wizard-requests"), 200);
    stepping
}

#[test]
fn recording_a_match_or_an_overwrite_allocates_nothing() {
    // Per step, pinned so a rise fails: nothing for a tick with nothing
    // due, 2 for an overwrite and 4 for a match.
    let one = [idle("idle1", Ip::new(192, 168, 9, 1))];
    assert_eq!(step_allocations(&one, 1), [0, 200, 400], "one row, 1 server");
    // At fleet scale, 1 000 rows in 20 /24s, the tick and the overwrite
    // cost the same and a match for 8 servers one more (its longer list).
    let fleet: Vec<_> = (0..20u8)
        .flat_map(|net| {
            (1..=50u8).map(move |h| idle(&format!("n{net}h{h}"), Ip::new(10, 1, net, h)))
        })
        .collect();
    assert_eq!(step_allocations(&fleet, 8), [0, 200, 500], "1 000 rows, 8 servers");
}

/// A round trip draws nothing; a draw would be a change to look at.
struct NoDice;

impl Entropy for NoDice {
    fn draw(&mut self) -> u32 {
        unreachable!("a request answered at once draws nothing")
    }

    fn jitter(&mut self) -> f64 {
        unreachable!("a request answered at once draws nothing")
    }
}

#[test]
fn a_warm_client_round_trip_allocates_its_frame_and_its_reply() {
    let wizard = Endpoint::new(Ip::new(127, 0, 0, 1), 1120);
    let spec = RequestSpec::new("host_cpu_free > 0.9\n", 1);
    let servers = vec![Endpoint::new(Ip::new(192, 168, 9, 1), 1200)];
    let reply = WizardReply { seq: 7, servers }.encode();
    let now = SimTime(Null.now_ns());
    // Per 100 round trips (`Start`, then the matching reply), untraced as
    // `LiveSock` runs by default and into a ring-sink trace.
    let per_100 = |traced: bool| {
        let mut engine = ClientEngine::new(Endpoint::new(Ip::new(127, 0, 0, 2), 4000), wizard);
        let mut tel = Telemetry::with_sink(Box::new(AccumSink::ring(64)));
        let mut round = || {
            allocations(|| {
                for input in [
                    client::Input::Start(&spec, 7),
                    client::Input::Datagram { from: wizard, bytes: &reply },
                ] {
                    drop(engine.step(now, input, &mut NoDice, traced.then_some(&mut tel)));
                }
            })
        };
        // Warm-up: the maps' nodes kept, every name and host seen.
        for _ in 0..100 {
            round();
        }
        let n: u64 = (0..100).map(|_| round()).sum();
        assert_eq!(tel.counter("client-responses"), if traced { 200 } else { 0 });
        n
    };
    // Per round trip, pinned so a rise fails: the requirement's copy and
    // its frame at `Start`, the reply's server list at the `Datagram`.
    assert_eq!(per_100(false), 300, "untraced");
    // The telemetry adds nothing once warm: the host label is rendered
    // once, at the first traced step (rendered per record, it cost 2 a
    // record).
    assert_eq!(per_100(true), 300, "traced");
}
