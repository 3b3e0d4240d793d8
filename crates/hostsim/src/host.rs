//! The simulated server host: CPU scheduler, counters, failure injection.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_proto::{HostName, Ip, ServiceMask};
use smartsock_sim::{Scheduler, SimDuration, SimTime};

use crate::cpu::{CpuModel, CpuTable, CpuTask, OnDone};
use crate::load::LoadAvg;
use crate::mem::Memory;
use crate::workload::{IoRates, Workload};

/// The share of busy CPU time `/proc/stat` books as system time.
const KERNEL_SHARE: f64 = 0.01;

/// Static configuration of one host (a row of Table 5.1).
#[derive(Clone, Debug)]
pub struct HostConfig {
    pub name: HostName,
    pub ip: Ip,
    pub cpu: CpuModel,
    pub ram_bytes: u64,
    pub iface: String,
}

impl HostConfig {
    pub fn new(name: &str, ip: Ip, cpu: CpuModel, ram_mb: u64) -> HostConfig {
        HostConfig {
            name: HostName::new(name),
            ip,
            cpu,
            ram_bytes: ram_mb << 20,
            iface: "eth0".to_owned(),
        }
    }
}

pub(crate) struct HostState {
    pub cfg: HostConfig,
    pub cpu: CpuTable,
    pub load: LoadAvg,
    pub mem: Memory,
    /// Cumulative CPU busy seconds (user-attributed), like /proc/stat.
    pub busy_user: f64,
    pub busy_system: f64,
    pub busy_since: SimTime,
    /// Aggregate background IO rates from workloads.
    pub io: IoRates,
    pub io_since: SimTime,
    /// Cumulative disk counters (the `disk_io` line of /proc/stat).
    pub disk_rreq: f64,
    pub disk_rblocks: f64,
    pub disk_wreq: f64,
    pub disk_wblocks: f64,
    /// Cumulative NIC counters (/proc/net/dev), fed by the deployment.
    pub net_rbytes: u64,
    pub net_rpackets: u64,
    pub net_tbytes: u64,
    pub net_tpackets: u64,
    /// Failure injection: a failed host's probe stops reporting (§3.2.2)
    /// and its services stop answering.
    pub failed: bool,
    /// Memory owned by each live task, released on completion/kill.
    pub task_mem: std::collections::BTreeMap<u64, u64>,
    /// Services this host advertises (§6 extension); reported by the probe.
    pub services: ServiceMask,
}

/// Why a task could not be spawned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnError {
    /// The anonymous allocation failed even after cache reclaim.
    OutOfMemory,
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::OutOfMemory => f.write_str("allocation failed (out of memory)"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// Cheaply clonable handle to one simulated host.
#[derive(Clone)]
pub struct Host {
    inner: Rc<RefCell<HostState>>,
}

/// A snapshot of everything the server probe reads (Table 3.1).
#[derive(Clone, Debug, PartialEq)]
pub struct HostSample {
    pub load1: f64,
    pub load5: f64,
    pub load15: f64,
    /// Cumulative busy seconds — the probe differentiates consecutive
    /// samples to get usage fractions, exactly like reading /proc/stat.
    pub busy_user: f64,
    pub busy_system: f64,
    pub mem_total: u64,
    pub mem_free: u64,
    pub mem_buffers: u64,
    pub mem_cached: u64,
    pub disk_rreq: u64,
    pub disk_rblocks: u64,
    pub disk_wreq: u64,
    pub disk_wblocks: u64,
    pub net_rbytes: u64,
    pub net_rpackets: u64,
    pub net_tbytes: u64,
    pub net_tpackets: u64,
}

impl Host {
    pub fn new(cfg: HostConfig) -> Host {
        let mem = Memory::fresh(cfg.ram_bytes);
        Host {
            inner: Rc::new(RefCell::new(HostState {
                cfg,
                cpu: CpuTable::default(),
                load: LoadAvg::default(),
                mem,
                busy_user: 0.0,
                busy_system: 0.0,
                busy_since: SimTime::ZERO,
                io: IoRates::default(),
                io_since: SimTime::ZERO,
                disk_rreq: 0.0,
                disk_rblocks: 0.0,
                disk_wreq: 0.0,
                disk_wblocks: 0.0,
                net_rbytes: 0,
                net_rpackets: 0,
                net_tbytes: 0,
                net_tpackets: 0,
                failed: false,
                task_mem: Default::default(),
                services: ServiceMask::NONE,
            })),
        }
    }

    pub fn name(&self) -> HostName {
        self.inner.borrow().cfg.name.clone()
    }

    pub fn ip(&self) -> Ip {
        self.inner.borrow().cfg.ip
    }

    pub fn cpu_model(&self) -> CpuModel {
        self.inner.borrow().cfg.cpu
    }

    pub fn is_failed(&self) -> bool {
        self.inner.borrow().failed
    }

    /// Crash the host: services stop, the probe goes silent.
    pub fn fail(&self) {
        self.inner.borrow_mut().failed = true;
    }

    /// Bring a crashed host back.
    pub fn recover(&self) {
        self.inner.borrow_mut().failed = false;
    }

    /// Hard-crash the host: mark it failed and kill every running task —
    /// their `on_done` callbacks never fire and their memory is released.
    /// A crashed host keeps its cumulative counters frozen until
    /// [`Host::reboot`] zeroes them.
    pub fn crash(&self, s: &mut Scheduler) {
        self.fail();
        let ids: Vec<u64> = self.inner.borrow().cpu.tasks.keys().copied().collect();
        for id in ids {
            self.kill_task(s, id);
        }
    }

    /// Reboot a crashed host: clear the failure flag and reset everything
    /// a fresh kernel would reset — cumulative /proc/stat busy time, disk
    /// and NIC counters, the page cache, and the load averages. Services
    /// stay advertised (they are configuration, re-announced by the
    /// restarted daemons).
    pub fn reboot(&self, s: &mut Scheduler) {
        let now = s.now();
        let mut st = self.inner.borrow_mut();
        st.failed = false;
        st.busy_user = 0.0;
        st.busy_system = 0.0;
        st.busy_since = now;
        st.io = IoRates::default();
        st.io_since = now;
        st.disk_rreq = 0.0;
        st.disk_rblocks = 0.0;
        st.disk_wreq = 0.0;
        st.disk_wblocks = 0.0;
        st.net_rbytes = 0;
        st.net_rpackets = 0;
        st.net_tbytes = 0;
        st.net_tpackets = 0;
        st.mem = Memory::fresh(st.cfg.ram_bytes);
        st.load = LoadAvg::default();
    }

    /// Advertise a service class (§6 extension). Daemons call this when
    /// they install themselves; the probe reports the accumulated mask.
    pub fn register_service(&self, mask: ServiceMask) {
        self.inner.borrow_mut().services |= mask;
    }

    /// The currently advertised services.
    pub fn services(&self) -> ServiceMask {
        self.inner.borrow().services
    }

    // ------------------------------------------------------------------
    // Compute tasks
    // ------------------------------------------------------------------

    /// Start a finite compute task of `work` madd units using `mem_bytes`
    /// of anonymous memory. Fails with [`SpawnError::OutOfMemory`] when the
    /// allocation cannot be satisfied. `on_done` fires when the work
    /// completes; memory is released then.
    pub fn spawn_compute(
        &self,
        s: &mut Scheduler,
        work: f64,
        mem_bytes: u64,
        on_done: impl FnOnce(&mut Scheduler) + 'static,
    ) -> Result<u64, SpawnError> {
        self.spawn_inner(s, work, mem_bytes, IoRates::default(), Some(Box::new(on_done)))
    }

    /// Start a workload (possibly perpetual: SuperPI, IO hogs).
    pub fn spawn_workload(&self, s: &mut Scheduler, w: &Workload) -> Result<u64, SpawnError> {
        // A one-shot cache fill models the workload's initial file churn
        // (Table 4.1's cached growth).
        if w.initial_cache_bytes > 0 {
            self.inner.borrow_mut().mem.grow_cache(w.initial_cache_bytes);
        }
        self.spawn_inner(s, w.cpu_work, w.mem_bytes, w.io, None)
    }

    fn spawn_inner(
        &self,
        s: &mut Scheduler,
        work: f64,
        mem_bytes: u64,
        io: IoRates,
        on_done: Option<OnDone>,
    ) -> Result<u64, SpawnError> {
        let now = s.now();
        let id = {
            let mut st = self.inner.borrow_mut();
            if !st.mem.alloc(mem_bytes) {
                return Err(SpawnError::OutOfMemory);
            }
            st.sync_io(now);
            st.sync_busy_only(now); // fold elapsed busy time at the OLD queue length
            st.io = st.io + io;
            let id = st.cpu.insert(CpuTask {
                remaining: work,
                last_update: now,
                rate: 0.0,
                completion_event: None,
                on_done,
            });
            st.task_mem.insert(id, mem_bytes);
            st.sync_load_and_busy(now);
            id
        };
        self.recompute(s);
        Ok(id)
    }

    /// Terminate a task (releases its memory; its `on_done` never fires).
    pub fn kill_task(&self, s: &mut Scheduler, id: u64) {
        let removed = {
            let now = s.now();
            let mut st = self.inner.borrow_mut();
            st.cpu.advance_to(now);
            st.sync_busy_only(now); // fold busy time before the queue shrinks
            let t = st.cpu.tasks.remove(&id);
            if t.is_some() {
                if let Some(bytes) = st.task_mem.remove(&id) {
                    st.mem.release(bytes);
                }
                st.sync_load_and_busy(now);
            }
            t
        };
        if let Some(t) = removed {
            if let Some(ev) = t.completion_event {
                s.cancel(ev);
            }
            self.recompute(s);
        }
    }

    /// Number of runnable tasks.
    pub fn runnable(&self) -> usize {
        self.inner.borrow().cpu.runnable()
    }

    fn recompute(&self, s: &mut Scheduler) {
        let now = s.now();
        let plan: Vec<(u64, Option<smartsock_sim::EventId>, SimTime)> = {
            let mut st = self.inner.borrow_mut();
            st.cpu.advance_to(now);
            let rate = st.cfg.cpu.compute_rate;
            st.cpu.refit(rate);
            st.cpu
                .tasks
                .iter_mut()
                .map(|(&id, t)| {
                    let stale = t.completion_event.take();
                    let at = if t.remaining.is_finite() && t.rate > 0.0 {
                        now + SimDuration::from_secs_f64(t.remaining / t.rate)
                    } else {
                        SimTime::FAR_FUTURE
                    };
                    (id, stale, at)
                })
                .collect()
        };
        for (id, stale, at) in plan {
            if let Some(ev) = stale {
                s.cancel(ev);
            }
            if at >= SimTime::FAR_FUTURE {
                continue;
            }
            let host = self.clone();
            let ev = s.schedule_at(at, move |s| host.task_completed(s, id));
            if let Some(t) = self.inner.borrow_mut().cpu.tasks.get_mut(&id) {
                t.completion_event = Some(ev);
            }
        }
    }

    fn task_completed(&self, s: &mut Scheduler, id: u64) {
        let done = {
            let now = s.now();
            let mut st = self.inner.borrow_mut();
            st.cpu.advance_to(now);
            st.sync_busy_only(now); // fold busy time before the queue shrinks
            match st.cpu.tasks.remove(&id) {
                None => None,
                Some(t) => {
                    if let Some(bytes) = st.task_mem.remove(&id) {
                        st.mem.release(bytes);
                    }
                    st.sync_load_and_busy(now);
                    Some(t.on_done)
                }
            }
        };
        let Some(cb) = done else { return };
        self.recompute(s);
        if let Some(cb) = cb {
            cb(s);
        }
    }

    // ------------------------------------------------------------------
    // Counters and sampling
    // ------------------------------------------------------------------

    /// Record transmitted traffic on the NIC counters.
    pub fn note_tx(&self, bytes: u64, packets: u64) {
        let mut st = self.inner.borrow_mut();
        st.net_tbytes += bytes;
        st.net_tpackets += packets;
    }

    /// Record received traffic on the NIC counters.
    pub fn note_rx(&self, bytes: u64, packets: u64) {
        let mut st = self.inner.borrow_mut();
        st.net_rbytes += bytes;
        st.net_rpackets += packets;
    }

    /// Record direct disk activity (e.g. a file server's reads).
    pub fn note_disk(&self, rreq: u64, rblocks: u64, wreq: u64, wblocks: u64) {
        let mut st = self.inner.borrow_mut();
        st.disk_rreq += rreq as f64;
        st.disk_rblocks += rblocks as f64;
        st.disk_wreq += wreq as f64;
        st.disk_wblocks += wblocks as f64;
    }

    /// Everything the probe reads, as of `now`.
    pub fn sample(&self, now: SimTime) -> HostSample {
        let mut st = self.inner.borrow_mut();
        st.sync_io(now);
        st.sync_busy_only(now);
        let (load1, load5, load15) = st.load.sample(now);
        HostSample {
            load1,
            load5,
            load15,
            busy_user: st.busy_user,
            busy_system: st.busy_system,
            mem_total: st.mem.total,
            mem_free: st.mem.free,
            mem_buffers: st.mem.buffers,
            mem_cached: st.mem.cached,
            disk_rreq: st.disk_rreq as u64,
            disk_rblocks: st.disk_rblocks as u64,
            disk_wreq: st.disk_wreq as u64,
            disk_wblocks: st.disk_wblocks as u64,
            net_rbytes: st.net_rbytes,
            net_rpackets: st.net_rpackets,
            net_tbytes: st.net_tbytes,
            net_tpackets: st.net_tpackets,
        }
    }

    /// Free memory as the requirement language sees it (`host_memory_free`).
    pub fn mem_free(&self) -> u64 {
        self.inner.borrow().mem.free
    }
}

impl HostState {
    /// Fold elapsed IO rates into the cumulative disk counters and cache.
    fn sync_io(&mut self, now: SimTime) {
        let dt = now.since(self.io_since).as_secs_f64();
        if dt > 0.0 {
            self.disk_rreq += self.io.rreq_ps * dt;
            self.disk_rblocks += self.io.rblocks_ps * dt;
            self.disk_wreq += self.io.wreq_ps * dt;
            self.disk_wblocks += self.io.wblocks_ps * dt;
            self.mem.grow_cache((self.io.cache_growth_ps * dt) as u64);
        }
        self.io_since = now;
    }

    /// Fold CPU busy time then record the new queue length.
    fn sync_load_and_busy(&mut self, now: SimTime) {
        self.sync_busy_only(now);
        self.load.set_queue_len(now, self.cpu.runnable());
    }

    fn sync_busy_only(&mut self, now: SimTime) {
        let dt = now.since(self.busy_since).as_secs_f64();
        if dt > 0.0 && self.cpu.runnable() > 0 {
            // The CPU is saturated whenever at least one task runs; every
            // task is user work, and the kernel takes a constant share.
            self.busy_user += dt * (1.0 - KERNEL_SHARE);
            self.busy_system += dt * KERNEL_SHARE;
        }
        self.busy_since = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn host() -> Host {
        Host::new(HostConfig::new("helene", Ip::new(192, 168, 3, 1), CpuModel::P4_1700, 256))
    }

    #[test]
    fn compute_task_finishes_at_work_over_rate() {
        let h = host();
        let mut s = Scheduler::new();
        let done_at = Rc::new(Cell::new(0.0f64));
        let d = Rc::clone(&done_at);
        // 16.5e6 madds at 16.5e6 madds/s = 1 second.
        h.spawn_compute(&mut s, 16.5e6, 1 << 20, move |s| d.set(s.now().as_secs_f64())).unwrap();
        s.run();
        assert!((done_at.get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_tasks_share_the_cpu_and_finish_late() {
        let h = host();
        let mut s = Scheduler::new();
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..2 {
            let d = Rc::clone(&done);
            h.spawn_compute(&mut s, 16.5e6, 1 << 20, move |_| d.set(d.get() + 1)).unwrap();
        }
        s.run();
        assert_eq!(done.get(), 2);
        // Two equal tasks sharing: both finish at 2 s.
        assert!((s.now().as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn perpetual_workload_slows_compute_tasks() {
        let h = host();
        let mut s = Scheduler::new();
        h.spawn_workload(&mut s, &Workload::super_pi(25)).unwrap();
        let done_at = Rc::new(Cell::new(0.0f64));
        let d = Rc::clone(&done_at);
        h.spawn_compute(&mut s, 16.5e6, 1 << 20, move |s| d.set(s.now().as_secs_f64())).unwrap();
        s.run_until(SimTime::from_secs(100));
        // Sharing with the hog: 2 s instead of 1 s.
        assert!((done_at.get() - 2.0).abs() < 1e-6, "done at {}", done_at.get());
    }

    #[test]
    fn load_average_rises_under_superpi() {
        let h = host();
        let mut s = Scheduler::new();
        h.spawn_workload(&mut s, &Workload::super_pi(25)).unwrap();
        s.run_until(SimTime::from_secs(600));
        let sample = h.sample(s.now());
        assert!(sample.load1 > 0.95, "load1 = {}", sample.load1);
        assert!(sample.load15 > 0.45, "load15 = {}", sample.load15);
    }

    #[test]
    fn busy_counters_differentiate_to_usage_fractions() {
        let h = host();
        let mut s = Scheduler::new();
        let s0 = h.sample(s.now());
        h.spawn_compute(&mut s, 16.5e6 * 5.0, 1 << 20, |_| {}).unwrap();
        s.run(); // 5 seconds of compute
        s.schedule_in(SimDuration::from_secs(5), |_| {}); // 5 idle seconds
        s.run();
        let s1 = h.sample(s.now());
        let window = 10.0;
        let busy = (s1.busy_user + s1.busy_system) - (s0.busy_user + s0.busy_system);
        let usage = busy / window;
        assert!((usage - 0.5).abs() < 0.01, "usage = {usage}");
    }

    #[test]
    fn memory_is_released_when_tasks_finish_or_die() {
        let h = host();
        let mut s = Scheduler::new();
        let free0 = h.mem_free();
        let id = h.spawn_workload(&mut s, &Workload::cpu_hog("hog", 50 << 20)).unwrap();
        assert!(h.mem_free() < free0);
        h.kill_task(&mut s, id);
        assert_eq!(h.mem_free(), free0);
        assert_eq!(h.runnable(), 0);
    }

    #[test]
    fn oom_spawn_fails_cleanly() {
        let h = host();
        let mut s = Scheduler::new();
        assert!(h.spawn_compute(&mut s, 1.0, 10 << 30, |_| {}).is_err());
        assert_eq!(h.runnable(), 0);
    }

    #[test]
    fn failure_injection_flags() {
        let h = host();
        assert!(!h.is_failed());
        h.fail();
        assert!(h.is_failed());
        h.recover();
        assert!(!h.is_failed());
    }

    #[test]
    fn nic_and_disk_counters_accumulate() {
        let h = host();
        h.note_tx(1000, 2);
        h.note_tx(500, 1);
        h.note_rx(99, 1);
        h.note_disk(1, 8, 2, 16);
        let sample = h.sample(SimTime::ZERO);
        assert_eq!(sample.net_tbytes, 1500);
        assert_eq!(sample.net_tpackets, 3);
        assert_eq!(sample.net_rbytes, 99);
        assert_eq!(sample.disk_wblocks, 16);
    }

    use std::rc::Rc;
}
