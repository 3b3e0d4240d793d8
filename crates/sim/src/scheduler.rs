//! The event scheduler: a deterministic, cancellable priority queue of
//! timed callbacks.
//!
//! All of the paper's daemons — server probes reporting every few seconds
//! (§3.2), the network monitor's sequential probing schedule (§3.3.3), the
//! transmitter's periodic pushes (§3.5), the wizard's request handling
//! (§3.6) — are expressed as events on this queue. Handlers receive
//! `&mut Scheduler` and may schedule further events, so the entire system is
//! a single-threaded cooperative simulation with a total event order.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use smartsock_telemetry::Telemetry;

use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event; used for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

type EventFn = Box<dyn FnOnce(&mut Scheduler)>;

struct Entry {
    at: SimTime,
    seq: u64,
    run: EventFn,
}

/// Heap key: earliest time first, then FIFO by insertion sequence.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key(SimTime, u64);

impl Entry {
    fn key(&self) -> Key {
        Key(self.at, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Deterministic discrete-event scheduler.
///
/// # Example
///
/// ```
/// use smartsock_sim::{Scheduler, SimDuration};
///
/// let mut sim = Scheduler::new();
/// sim.schedule_in(SimDuration::from_secs(5), |s| {
///     assert_eq!(s.now().as_secs_f64(), 5.0);
/// });
/// sim.run();
/// assert_eq!(sim.now().as_secs_f64(), 5.0);
/// ```
pub struct Scheduler {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Entry>>,
    cancelled: BTreeSet<u64>,
    /// The deterministic observability sink: counters, gauges, histograms,
    /// spans and events, all keyed to virtual time. The scheduler keeps its
    /// clock in sync before dispatching each event.
    pub telemetry: Telemetry,
    /// Hard ceiling on processed events, guarding against runaway loops in
    /// experiment scripts. `None` disables the guard.
    pub event_limit: Option<u64>,
    processed: u64,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            telemetry: Telemetry::new(),
            event_limit: Some(200_000_000),
            processed: 0,
        }
    }

    /// Advance the virtual clock to `at` and mirror it into the telemetry
    /// sink, so records carry the dispatch timestamp.
    fn advance_clock(&mut self, at: SimTime) {
        self.now = at;
        self.telemetry.set_now(at.0);
    }

    /// Run one event callback with dispatch accounting.
    fn dispatch(&mut self, run: EventFn) {
        self.telemetry.counter_incr("sim-events-dispatched");
        run(self);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending (including cancelled tombstones).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `f` to run at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now": the event runs at the
    /// current time, after already-queued events for this instant (FIFO).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Scheduler) + 'static,
    ) -> EventId {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, run: Box::new(f) }));
        EventId(seq)
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut Scheduler) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + after, f)
    }

    /// Cancel a previously scheduled event. Cancelling an event that already
    /// ran (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    /// Run events until the queue is empty.
    pub fn run(&mut self) {
        self.run_until(SimTime::FAR_FUTURE);
    }

    /// Run events with timestamps `<= deadline`; afterwards `now()` equals
    /// `deadline` if the queue drained past it, or the last event time.
    ///
    /// Panics if `event_limit` is exceeded — a runaway periodic task is a
    /// bug in the experiment script, and failing loudly beats hanging.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(entry)) = self.heap.peek_mut_pop_if(deadline) {
            self.advance_clock(entry.at);
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.processed += 1;
            if let Some(limit) = self.event_limit {
                assert!(
                    self.processed <= limit,
                    "scheduler event limit exceeded ({limit}); runaway periodic task?"
                );
            }
            self.dispatch(entry.run);
        }
        if deadline != SimTime::FAR_FUTURE {
            self.advance_clock(self.now.max(deadline));
        }
    }

    /// Run events while `keep_going()` returns true, up to `deadline`.
    ///
    /// The predicate is checked before every event; use this to drive a
    /// simulation "until the answer arrives" without grinding through the
    /// unbounded periodic-daemon events that follow it.
    pub fn run_while(&mut self, deadline: SimTime, mut keep_going: impl FnMut() -> bool) {
        while keep_going() {
            match self.next_event_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Run a single event if one is pending; returns whether one ran
    /// (cancelled tombstones are skipped transparently).
    pub fn step(&mut self) -> bool {
        loop {
            match self.heap.pop() {
                None => return false,
                Some(Reverse(entry)) => {
                    self.advance_clock(entry.at);
                    if self.cancelled.remove(&entry.seq) {
                        continue;
                    }
                    self.processed += 1;
                    self.dispatch(entry.run);
                    return true;
                }
            }
        }
    }
}

/// Extension trait hack: `BinaryHeap` has no "pop if key <= deadline", so we
/// wrap peek+pop behind one call used by `run_until`.
trait PopIf {
    fn peek_mut_pop_if(&mut self, deadline: SimTime) -> Option<Reverse<Entry>>;
}

impl PopIf for BinaryHeap<Reverse<Entry>> {
    fn peek_mut_pop_if(&mut self, deadline: SimTime) -> Option<Reverse<Entry>> {
        if self.peek().is_some_and(|Reverse(e)| e.at <= deadline) {
            self.pop()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Scheduler::new();
        for &t in &[5u64, 1, 3, 2, 4] {
            let order = Rc::clone(&order);
            sim.schedule_at(SimTime::from_secs(t), move |_| order.borrow_mut().push(t));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn same_time_events_run_fifo() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Scheduler::new();
        for i in 0..10u32 {
            let order = Rc::clone(&order);
            sim.schedule_at(SimTime::from_secs(1), move |_| order.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let hits = Rc::new(RefCell::new(0u32));
        let mut sim = Scheduler::new();
        fn tick(sim: &mut Scheduler, hits: Rc<RefCell<u32>>, left: u32) {
            *hits.borrow_mut() += 1;
            if left > 0 {
                sim.schedule_in(SimDuration::from_secs(1), move |s| tick(s, hits, left - 1));
            }
        }
        let h = Rc::clone(&hits);
        sim.schedule_in(SimDuration::ZERO, move |s| tick(s, h, 9));
        sim.run();
        assert_eq!(*hits.borrow(), 10);
        assert_eq!(sim.now(), SimTime::from_secs(9));
    }

    #[test]
    fn cancelled_events_do_not_run() {
        let hits = Rc::new(RefCell::new(0u32));
        let mut sim = Scheduler::new();
        let h = Rc::clone(&hits);
        let id = sim.schedule_in(SimDuration::from_secs(1), move |_| *h.borrow_mut() += 1);
        sim.cancel(id);
        sim.run();
        assert_eq!(*hits.borrow(), 0);
        // Cancelling again (already consumed tombstone) is harmless.
        sim.cancel(id);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let hits = Rc::new(RefCell::new(0u32));
        let mut sim = Scheduler::new();
        for t in 1..=10u64 {
            let h = Rc::clone(&hits);
            sim.schedule_at(SimTime::from_secs(t), move |_| *h.borrow_mut() += 1);
        }
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(*hits.borrow(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run();
        assert_eq!(*hits.borrow(), 10);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Scheduler::new();
        let hit = Rc::new(RefCell::new(None));
        let h = Rc::clone(&hit);
        sim.schedule_at(SimTime::from_secs(5), move |s| {
            let h2 = Rc::clone(&h);
            s.schedule_at(SimTime::from_secs(1), move |s| {
                *h2.borrow_mut() = Some(s.now());
            });
        });
        sim.run();
        assert_eq!(*hit.borrow(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn step_executes_exactly_one_event() {
        let mut sim = Scheduler::new();
        let hits = Rc::new(RefCell::new(0u32));
        for _ in 0..3 {
            let h = Rc::clone(&hits);
            sim.schedule_in(SimDuration::from_secs(1), move |_| *h.borrow_mut() += 1);
        }
        assert!(sim.step());
        assert_eq!(*hits.borrow(), 1);
        assert!(sim.step());
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn run_while_stops_when_the_predicate_flips() {
        let mut sim = Scheduler::new();
        let hits = Rc::new(RefCell::new(0u32));
        for t in 1..=10u64 {
            let h = Rc::clone(&hits);
            sim.schedule_at(SimTime::from_secs(t), move |_| *h.borrow_mut() += 1);
        }
        let watch = Rc::clone(&hits);
        sim.run_while(SimTime::FAR_FUTURE, move || *watch.borrow() < 4);
        assert_eq!(*hits.borrow(), 4, "stops as soon as the predicate fails");
        // Respects the deadline too.
        let watch = Rc::clone(&hits);
        sim.run_while(SimTime::from_secs(7), move || *watch.borrow() < 100);
        assert_eq!(*hits.borrow(), 7);
        // And the empty queue.
        sim.run_while(SimTime::FAR_FUTURE, || true);
        assert_eq!(*hits.borrow(), 10);
    }

    #[test]
    fn telemetry_clock_tracks_dispatch_time() {
        let mut sim = Scheduler::new();
        sim.schedule_at(SimTime::from_secs(3), |s| {
            assert_eq!(s.telemetry.now_ns(), SimTime::from_secs(3).0);
            s.telemetry.event("tick-event", "sim", &[]);
        });
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.telemetry.now_ns(), SimTime::from_secs(10).0);
        assert_eq!(sim.telemetry.event_count("tick-event"), 1);
        assert_eq!(sim.telemetry.counter("sim-events-dispatched"), 1);
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_trips_on_runaway_loops() {
        let mut sim = Scheduler::new();
        sim.event_limit = Some(100);
        fn forever(s: &mut Scheduler) {
            s.schedule_in(SimDuration::from_nanos(1), forever);
        }
        sim.schedule_in(SimDuration::ZERO, forever);
        sim.run();
    }
}
