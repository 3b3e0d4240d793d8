//! Trace collector around repro experiments.
//!
//! `smartsock-profile` fingerprints what each experiment's simulation
//! exported — its telemetry traces, a pure function of the seed — and
//! `benchmark/` divides wall time by the dispatched-event count
//! (`sim.ns_per_event.*`).
//!
//! The experiments are pure `fn(u64) -> Report` functions that build their
//! own `Scheduler`s internally, so the collector cannot be passed down.
//! Instead [`profile_run`] installs a thread-local accumulator, and every
//! scheduler the experiment builds through [`sim`] reports into it when
//! dropped. Experiments construct schedulers via `rig::sim()` — the
//! returned [`Sim`] handle derefs to `Scheduler`, so experiment code is
//! untouched beyond the constructor — and unprofiled callers (tests, the
//! `benchmark/` package) pay nothing but an empty thread-local check.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

use smartsock_sim::Scheduler;

use crate::report::Report;

/// What one experiment's schedulers left behind: a pure function of the
/// seed.
#[derive(Clone, Debug, Default)]
pub struct RunProfile {
    pub experiment_id: String,
    pub seed: u64,
    /// Events dispatched, summed over every scheduler the experiment built.
    pub sim_events: u64,
    /// Exported JSONL trace of each scheduler, in creation order.
    pub traces: Vec<String>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<RunProfile>> = const { RefCell::new(None) };
}

/// A scheduler that reports its event count and trace to the active
/// [`profile_run`] collector (if any) when dropped.
pub struct Sim {
    inner: Scheduler,
}

/// Construct a scheduler for an experiment. Re-exported as `rig::sim()`;
/// this is the only way experiment code should build one.
pub fn sim() -> Sim {
    Sim { inner: Scheduler::new() }
}

impl Deref for Sim {
    type Target = Scheduler;
    fn deref(&self) -> &Scheduler {
        &self.inner
    }
}

impl DerefMut for Sim {
    fn deref_mut(&mut self) -> &mut Scheduler {
        &mut self.inner
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            let Some(p) = c.as_mut() else { return };
            // A count and the exported trace `String` are what the parallel
            // executor moves across worker threads; nothing of the
            // scheduler itself (queue, closures) escapes the thread that
            // built it.
            p.sim_events += self.inner.events_processed();
            p.traces.push(self.inner.telemetry.export_jsonl());
        });
    }
}

/// Run one experiment by id with the collector installed, returning its
/// report plus the captured profile. `None` for unknown ids.
pub fn profile_run(id: &str, seed: u64) -> Option<(Report, RunProfile)> {
    let (_, f) = crate::catalog().into_iter().find(|(eid, _)| *eid == id)?;
    Some(profile_call(id, f, seed))
}

/// Run one experiment entry point under the collector. The direct-call
/// variant of [`profile_run`] used by the parallel executor, which already
/// holds the `(id, fn)` pair and must not pay a catalog scan per cell.
///
/// The collector is a thread-local, so concurrent calls on different
/// worker threads each capture exactly their own cell's schedulers.
/// Installing it overwrites any stale collector a panicking previous cell
/// on this thread may have left behind.
pub fn profile_call(id: &str, f: crate::Experiment, seed: u64) -> (Report, RunProfile) {
    COLLECTOR.with(|c| {
        *c.borrow_mut() =
            Some(RunProfile { experiment_id: id.to_owned(), seed, ..RunProfile::default() });
    });
    let report = f(seed);
    let p = COLLECTOR
        .with(|c| c.borrow_mut().take())
        .expect("invariant: collector installed at the top of profile_call");
    (report, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprofiled_sim_reports_nowhere() {
        let mut s = sim();
        s.schedule_in(smartsock_sim::SimDuration::from_secs(1), |_| {});
        s.run();
        drop(s);
        COLLECTOR.with(|c| assert!(c.borrow().is_none()));
    }

    #[test]
    fn profile_run_captures_deterministic_cost_figures() {
        let (_, a) = profile_run("fig3.3", 7).expect("fig3.3 is in the catalog");
        let (_, b) = profile_run("fig3.3", 7).expect("fig3.3 is in the catalog");
        assert_eq!(a.experiment_id, "fig3.3");
        assert!(a.sim_events > 0);
        assert!(!a.traces.is_empty());
        // Same seed, same simulation: identical everywhere.
        assert_eq!(a.sim_events, b.sim_events);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn unknown_experiment_yields_none_and_clears_nothing() {
        assert!(profile_run("table9.9", 1).is_none());
        COLLECTOR.with(|c| assert!(c.borrow().is_none()));
    }
}
