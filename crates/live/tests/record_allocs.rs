//! The wizard's per-datagram telemetry allocates nothing once warm:
//! `WizardEngine::record` for a matched request and for a report that
//! overwrites a row, into a ring-sink trace like the live daemon's. A
//! binary of its own, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smartsock_proto::{
    Endpoint, Ip, RequestOption, ServerStatusReport, Transport, TransportError, UserRequest,
};
use smartsock_telemetry::{AccumSink, Telemetry};
use smartsock_wizard::{SelectPolicy, WizardEngine};

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

/// Replies go nowhere; the clock stands still.
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
    let mut engine = WizardEngine::new(Ip::new(127, 0, 0, 1), SelectPolicy::default());
    let mut tel = Telemetry::with_sink(Box::new(AccumSink::ring(64)));
    let client = Endpoint::new(Ip::new(127, 0, 0, 2), 4000);
    let mut row = ServerStatusReport::empty("idle1", Ip::new(192, 168, 9, 1));
    row.cpu_idle = 0.97;
    let report = row.encode_ascii();
    let detail = "host_cpu_free > 0.9\n".to_owned();
    let request = UserRequest { seq: 7, server_num: 1, option: RequestOption::DEFAULT, detail };
    let request = request.encode();

    let mut step = |payload: &[u8]| {
        engine.handle(&mut Null, client, payload).unwrap();
        allocations(|| engine.record(&mut tel))
    };
    // Warm-up: every name and host seen, the ring past its first eviction.
    for _ in 0..100 {
        step(report.as_bytes());
        step(&request);
    }
    let (mut matched, mut overwrite) = (0, 0);
    for _ in 0..100 {
        overwrite += step(report.as_bytes());
        matched += step(&request);
    }
    assert_eq!((matched, overwrite), (0, 0), "allocations in 100 records of each");
    assert!(tel.dropped() > 0, "the ring never evicted");
    assert_eq!(tel.counter("wizard-requests"), 200);
}
