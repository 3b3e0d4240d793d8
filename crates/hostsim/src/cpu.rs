//! CPU models and the fair-share compute scheduler.

use std::collections::BTreeMap;

use smartsock_sim::{EventId, Scheduler, SimTime};

/// A machine's processor, as the kernel and the matrix benchmark see it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuModel {
    /// Marketing name, e.g. `"P4 2.4GHz"`.
    pub name: &'static str,
    /// Kernel-reported BogoMIPS (Table 5.1) — exposed to the requirement
    /// language as `host_cpu_bogomips`.
    pub bogomips: f64,
    /// Sustained throughput on the thesis's matrix-multiplication inner
    /// loop, in multiply-add operations per second. Calibrated so that the
    /// distributed-matmul experiments land near the paper's Tables 5.3–5.6
    /// (and preserving Fig 5.2's ordering: P3-866 ≈ 20 M, P4-2.4 ≈ 27 M,
    /// P4-1.6…1.8 ≈ 16–17 M madds/s).
    pub compute_rate: f64,
}

impl CpuModel {
    pub const P3_866: CpuModel =
        CpuModel { name: "P3 866MHz", bogomips: 1730.15, compute_rate: 20.0e6 };
    pub const P4_2400: CpuModel =
        CpuModel { name: "P4 2.4GHz", bogomips: 4771.02, compute_rate: 27.0e6 };
    pub const P4_1600: CpuModel =
        CpuModel { name: "P4 1.6GHz", bogomips: 3185.04, compute_rate: 16.0e6 };
    pub const P4_1700: CpuModel =
        CpuModel { name: "P4 1.7GHz", bogomips: 3394.76, compute_rate: 16.5e6 };
    pub const P4_1800: CpuModel =
        CpuModel { name: "P4 1.8GHz", bogomips: 3591.37, compute_rate: 17.0e6 };
}

pub(crate) type OnDone = Box<dyn FnOnce(&mut Scheduler)>;

/// One schedulable compute task.
pub(crate) struct CpuTask {
    /// Remaining work in madd units; `f64::INFINITY` for perpetual hogs.
    pub remaining: f64,
    pub last_update: SimTime,
    pub rate: f64,
    pub completion_event: Option<EventId>,
    pub on_done: Option<OnDone>,
}

/// Fair-share CPU: runnable tasks split `compute_rate` equally.
///
/// Mirrors the fluid-flow pattern of `smartsock-net`: on every task
/// arrival/departure, per-task rates are refit and completion events are
/// rescheduled.
#[derive(Default)]
pub(crate) struct CpuTable {
    pub tasks: BTreeMap<u64, CpuTask>,
    next_id: u64,
}

impl CpuTable {
    pub fn insert(&mut self, task: CpuTask) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.tasks.insert(id, task);
        id
    }

    /// Bring every task's remaining work up to date at `now`.
    pub fn advance_to(&mut self, now: SimTime) {
        for t in self.tasks.values_mut() {
            let dt = now.since(t.last_update).as_secs_f64();
            if t.remaining.is_finite() {
                t.remaining = (t.remaining - t.rate * dt).max(0.0);
            }
            t.last_update = now;
        }
    }

    /// Refit rates: an equal share of `compute_rate` each.
    pub fn refit(&mut self, compute_rate: f64) {
        let share = compute_rate / self.tasks.len() as f64;
        for t in self.tasks.values_mut() {
            t.rate = share;
        }
    }

    /// Current run-queue length (for load averages).
    pub fn runnable(&self) -> usize {
        self.tasks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(remaining: f64) -> CpuTask {
        CpuTask {
            remaining,
            last_update: SimTime::ZERO,
            rate: 0.0,
            completion_event: None,
            on_done: None,
        }
    }

    #[test]
    fn single_task_gets_the_whole_cpu() {
        let mut c = CpuTable::default();
        let id = c.insert(task(1e6));
        c.refit(20e6);
        assert_eq!(c.tasks[&id].rate, 20e6);
    }

    #[test]
    fn two_tasks_split_evenly() {
        let mut c = CpuTable::default();
        let a = c.insert(task(1e6));
        let b = c.insert(task(1e6));
        c.refit(20e6);
        assert_eq!(c.tasks[&a].rate, 10e6);
        assert_eq!(c.tasks[&b].rate, 10e6);
    }

    #[test]
    fn advance_handles_infinite_hogs() {
        let mut c = CpuTable::default();
        let a = c.insert(task(f64::INFINITY));
        c.refit(20e6);
        c.advance_to(SimTime::from_secs(100));
        assert!(c.tasks[&a].remaining.is_infinite());
    }

    #[test]
    #[expect(clippy::assertions_on_constants, reason = "the constants ARE the claim")]
    fn calibration_ordering_matches_fig_5_2() {
        // The paper's benchmark: P3-866 and P4-2.4 beat the P4 1.6–1.8 GHz
        // machines on this program.
        assert!(CpuModel::P4_2400.compute_rate > CpuModel::P3_866.compute_rate);
        assert!(CpuModel::P3_866.compute_rate > CpuModel::P4_1800.compute_rate);
        assert!(CpuModel::P4_1800.compute_rate > CpuModel::P4_1700.compute_rate);
        assert!(CpuModel::P4_1700.compute_rate > CpuModel::P4_1600.compute_rate);
        // ... even though BogoMIPS ranks the other way around:
        assert!(CpuModel::P4_1600.bogomips > CpuModel::P3_866.bogomips);
    }
}
