//! The event scheduler: a deterministic, cancellable queue of timed
//! callbacks.
//!
//! All of the paper's daemons — server probes reporting every few seconds
//! (§3.2), the network monitor's sequential probing schedule (§3.3.3), the
//! transmitter's periodic pushes (§3.5), the wizard's request handling
//! (§3.6) — are expressed as events on this queue. Handlers receive
//! `&mut Scheduler` and may schedule further events, so the entire system is
//! a single-threaded cooperative simulation with a total event order.
//!
//! The queue is one ordered map keyed by [`EventId`]: time, then insertion
//! sequence. Scheduling inserts, cancelling removes, and running pops the
//! first entry, so the queue holds exactly the events still to run.

use std::collections::BTreeMap;

use smartsock_telemetry::Telemetry;

use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, used for cancellation, and its place
/// in the queue: earliest time first, then FIFO by insertion sequence.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(SimTime, u64);

type EventFn = Box<dyn FnOnce(&mut Scheduler)>;

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
    queue: BTreeMap<EventId, EventFn>,
    /// The deterministic observability sink: counters, gauges, histograms,
    /// spans and events, all keyed to virtual time. The scheduler keeps its
    /// clock in sync before dispatching each event.
    pub telemetry: Telemetry,
    processed: u64,
}

/// Hard ceiling on processed events, guarding against runaway loops in
/// experiment scripts: a runaway periodic task is a bug in the script, and
/// failing loudly beats hanging.
const EVENT_LIMIT: u64 = 200_000_000;

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
            queue: BTreeMap::new(),
            telemetry: Telemetry::new(),
            processed: 0,
        }
    }

    /// Advance the virtual clock to `at` and mirror it into the telemetry
    /// sink, so records carry the dispatch timestamp.
    fn advance_clock(&mut self, at: SimTime) {
        self.now = at;
        self.telemetry.set_now(at.0);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still to run: scheduled, and neither run nor
    /// cancelled.
    pub fn pending(&self) -> usize {
        self.queue.len()
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
        let id = EventId(at.max(self.now), self.seq);
        self.seq += 1;
        self.queue.insert(id, Box::new(f));
        id
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
        self.queue.remove(&id);
    }

    /// Run events until the queue is empty; afterwards `now()` is the time
    /// of the last event that ran.
    pub fn run(&mut self) {
        self.run_until(SimTime::FAR_FUTURE);
    }

    /// Run events with timestamps `<= deadline`; afterwards `now()` equals
    /// `deadline` if the queue drained past it, or the last event time.
    ///
    /// Panics past `EVENT_LIMIT` (2×10⁸) events.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_by(deadline) {}
        if deadline != SimTime::FAR_FUTURE {
            self.advance_clock(self.now.max(deadline));
        }
    }

    /// Run events while `keep_going()` returns true, up to `deadline`.
    ///
    /// The predicate is checked before every event; use this to drive a
    /// simulation "until the answer arrives" without grinding through the
    /// unbounded periodic-daemon events that follow it.
    ///
    /// Panics past `EVENT_LIMIT` (2×10⁸) events.
    pub fn run_while(&mut self, deadline: SimTime, mut keep_going: impl FnMut() -> bool) {
        while keep_going() && self.step_by(deadline) {}
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.first_key_value().map(|(id, _)| id.0)
    }

    /// Run a single event if one is pending; returns whether one ran.
    ///
    /// Panics past `EVENT_LIMIT` (2×10⁸) events.
    pub fn step(&mut self) -> bool {
        self.step_by(SimTime(u64::MAX))
    }

    /// Pop the first event if it is due by `deadline` and run it; returns
    /// whether one ran. Every path that runs an event comes through here,
    /// so here is where the event limit is guarded.
    fn step_by(&mut self, deadline: SimTime) -> bool {
        let Some(head) = self.queue.first_entry().filter(|e| e.key().0 <= deadline) else {
            return false;
        };
        let (EventId(at, _), run) = head.remove_entry();
        self.advance_clock(at);
        self.processed += 1;
        assert!(
            self.processed <= EVENT_LIMIT,
            "scheduler event limit exceeded ({EVENT_LIMIT}); runaway periodic task?"
        );
        self.telemetry.counter_incr("sim-events-dispatched");
        run(self);
        true
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
        // Cancelling again (already removed) is harmless.
        sim.cancel(id);
    }

    #[test]
    fn pending_drops_when_an_event_is_cancelled() {
        let mut sim = Scheduler::new();
        let first = sim.schedule_in(SimDuration::from_secs(1), |_| {});
        sim.schedule_in(SimDuration::from_secs(2), |_| {});
        assert_eq!(sim.pending(), 2);
        sim.cancel(first);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn run_while_stops_at_its_deadline_behind_a_cancelled_head() {
        let mut sim = Scheduler::new();
        let head = sim.schedule_at(SimTime::from_secs(5), |_| {});
        let ran = Rc::new(RefCell::new(false));
        let r = Rc::clone(&ran);
        sim.schedule_at(SimTime::from_secs(10), move |_| *r.borrow_mut() = true);
        sim.cancel(head);
        sim.run_while(SimTime::from_secs(7), || true);
        assert!(!*ran.borrow(), "the 10 s event is past the 7 s deadline");
        assert_eq!((sim.pending(), sim.events_processed()), (1, 0));
    }

    #[test]
    fn run_leaves_the_clock_at_the_last_event_that_ran() {
        let mut sim = Scheduler::new();
        sim.schedule_at(SimTime::from_secs(5), |_| {});
        let last = sim.schedule_at(SimTime::from_secs(10), |_| {});
        sim.cancel(last);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(5));
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
        runaway().run();
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_trips_on_runaway_loops_under_run_while() {
        runaway().run_while(SimTime::FAR_FUTURE, || true);
    }

    /// Random `schedule_at` (past times included, some events scheduling a
    /// follow-up when they run), `cancel` (of ids already run or cancelled
    /// too), `step`, `run_until` and `run_while` calls against [`Model`]:
    /// exactly the model's due, uncancelled events run, in (time, seq)
    /// order, and `now()`, `pending()` and `next_event_time()` agree with it
    /// after every call.
    #[test]
    fn the_queue_is_the_naive_model() {
        crate::rng::cases("the_queue_is_the_naive_model", |rng| {
            let mut sim = Scheduler::new();
            let mut model = Model::default();
            let log = Rc::new(RefCell::new(Vec::new()));
            let ids = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..=rng.below(60) {
                let deadline = match rng.below(8) {
                    0 => SimTime::FAR_FUTURE,
                    _ => SimTime(sim.now().0 + rng.below(8)),
                };
                let ran = match rng.below(7) {
                    0..=2 => {
                        let at = SimTime((sim.now().0 + rng.below(12)).saturating_sub(3));
                        let child = (rng.below(2) == 0).then(|| rng.below(4));
                        let id = sim.schedule_at(at, event(child, &log, &ids));
                        ids.borrow_mut().push(id);
                        model.schedule(at, child);
                        None
                    }
                    3 if model.scheduled > 0 => {
                        let label = rng.below(model.scheduled as u64) as usize;
                        sim.cancel(ids.borrow()[label]);
                        model.queue.retain(|e| e.1 != label);
                        None
                    }
                    3 | 4 => Some((sim.step(), model.step_by(SimTime(u64::MAX)))),
                    5 => {
                        sim.run_until(deadline);
                        model.run_until(deadline);
                        None
                    }
                    _ => {
                        let budget = rng.below(4);
                        let mut left = budget;
                        sim.run_while(deadline, || {
                            let go = left > 0;
                            left = left.saturating_sub(1);
                            go
                        });
                        for _ in 0..budget {
                            if !model.step_by(deadline) {
                                break;
                            }
                        }
                        None
                    }
                };
                if let Some((got, want)) = ran {
                    assert_eq!(got, want, "step's return");
                }
                assert_eq!(*log.borrow(), model.ran, "the events run, in order");
                assert_eq!(sim.now(), model.now);
                assert_eq!(sim.pending(), model.queue.len());
                assert_eq!(sim.next_event_time(), model.head().map(|e| e.0));
            }
        });
    }

    /// An event that logs its label (its index among all scheduled ids)
    /// and, given a delay, schedules a follow-up that much later.
    fn event(
        child: Option<u64>,
        log: &Rc<RefCell<Vec<usize>>>,
        ids: &Rc<RefCell<Vec<EventId>>>,
    ) -> impl FnOnce(&mut Scheduler) + 'static {
        let label = ids.borrow().len();
        let (log, ids) = (Rc::clone(log), Rc::clone(ids));
        move |s| {
            log.borrow_mut().push(label);
            if let Some(delay) = child {
                let id = s.schedule_in(SimDuration::from_nanos(delay), event(None, &log, &ids));
                ids.borrow_mut().push(id);
            }
        }
    }

    /// The naive queue: an unordered `Vec` of (time, label, follow-up
    /// delay), scanned for its earliest entry. Labels count the events
    /// scheduled, so a label is also the event's insertion sequence.
    #[derive(Default)]
    struct Model {
        now: SimTime,
        queue: Vec<(SimTime, usize, Option<u64>)>,
        scheduled: usize,
        /// The labels of the events run, in order.
        ran: Vec<usize>,
    }

    impl Model {
        fn schedule(&mut self, at: SimTime, child: Option<u64>) {
            self.queue.push((at.max(self.now), self.scheduled, child));
            self.scheduled += 1;
        }

        fn head(&self) -> Option<&(SimTime, usize, Option<u64>)> {
            self.queue.iter().min_by_key(|e| (e.0, e.1))
        }

        fn step_by(&mut self, deadline: SimTime) -> bool {
            let Some(&head) = self.head().filter(|e| e.0 <= deadline) else {
                return false;
            };
            self.queue.retain(|e| e.1 != head.1);
            let (at, label, child) = head;
            self.now = at;
            self.ran.push(label);
            if let Some(delay) = child {
                self.schedule(at + SimDuration::from_nanos(delay), None);
            }
            true
        }

        fn run_until(&mut self, deadline: SimTime) {
            while self.step_by(deadline) {}
            if deadline != SimTime::FAR_FUTURE {
                self.now = self.now.max(deadline);
            }
        }
    }

    /// A self-rescheduling task on a scheduler 100 events short of the
    /// limit.
    fn runaway() -> Scheduler {
        fn forever(s: &mut Scheduler) {
            s.schedule_in(SimDuration::from_nanos(1), forever);
        }
        let mut sim = Scheduler::new();
        sim.processed = EVENT_LIMIT - 100;
        sim.schedule_in(SimDuration::ZERO, forever);
        sim
    }
}
