//! The wizard's telemetry allocates nothing once warm: a
//! `WizardEngine::step` into a ring-sink trace like the live daemon's
//! allocates exactly what `handle`/`sweep`, the same core without the
//! telemetry, do — a sweep tick with nothing due, a report that overwrites
//! a row and a matched request — and those figures are pinned. A binary of
//! its own, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smartsock_proto::{
    Endpoint, Ip, RequestOption, ServerStatusReport, Transport, TransportError, UserRequest,
};
use smartsock_sim::SimTime;
use smartsock_telemetry::{AccumSink, Telemetry};
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

#[test]
fn recording_a_match_or_an_overwrite_allocates_nothing() {
    let new = || WizardEngine::new(Ip::new(127, 0, 0, 1), SelectPolicy::default());
    let (mut engine, mut twin) = (new(), new());
    let mut tel = Telemetry::with_sink(Box::new(AccumSink::ring(64)));
    let client = Endpoint::new(Ip::new(127, 0, 0, 2), 4000);
    let mut row = ServerStatusReport::empty("idle1", Ip::new(192, 168, 9, 1));
    row.cpu_idle = 0.97;
    let report = row.encode_ascii();
    let detail = "host_cpu_free > 0.9\n".to_owned();
    let request = UserRequest { seq: 7, server_num: 1, option: RequestOption::DEFAULT, detail };
    let request = request.encode();
    let now = SimTime(Null.now_ns());

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
            stepping[i] += by_step;
            wrapping[i] += by_wrapper;
        }
    }
    assert_eq!(stepping, wrapping, "the telemetry allocated (tick, overwrite, match)");
    // Per step, pinned so a rise fails: nothing for a tick with nothing
    // due, 2 for an overwrite and 4 for a match.
    assert_eq!(stepping, [0, 200, 400], "allocations in 100 steps of each");
    assert!(tel.dropped() > 0, "the ring never evicted");
    assert_eq!(tel.counter("wizard-requests"), 200);
}
