//! The three status databases (`sysdb`, `netdb`, `secdb` of Fig 3.10).
//!
//! In the thesis these are System-V shared-memory segments guarded by
//! semaphores (Table 4.3), because separate daemon *processes* share them:
//! the monitors write and the transmitter reads them, or, on the wizard
//! machine, the receiver writes and the wizard reads. Here one machine's
//! three tables are one [`StatusDbs`] value with one owner — the wizard
//! engine on the wizard machine, the co-hosted daemons of a simulated
//! monitor machine together — so nothing needs a lock: a reader sees every
//! write that happened before it.
//!
//! ## Sharding (DESIGN.md §15)
//!
//! At fleet scale (10k+ servers) the server status database is keyed in
//! two levels: an outer `BTreeMap` from IPv4 /24 subnet prefix to
//! [`Shard`], and per-shard row maps keyed by full address. Because the
//! /24 prefix is the high 24 bits of the address, iterating shards in
//! prefix order and rows in address order visits records in exactly the
//! global address order the flat map had — every legacy accessor
//! (`iter`, `snapshot`, `expire`, …) is behaviorally unchanged.
//!
//! Each shard additionally maintains a conservative [`ShardSummary`]:
//! the newest `recorded_at` and per-variable min/max ranges
//! over the report-derived server variables. Summaries are **widened** on
//! upsert (cheap, always a superset of the true ranges) and made **exact**
//! again by `tighten`, which the wizard calls before it reads them. The
//! match loop consults summaries to skip whole subnets that cannot satisfy
//! a requirement; conservatism makes that pruning behaviorally invisible.
//!
//! ## What a sweep does and what a request does
//!
//! Writers and the one reader each pay for their own work. A *new* row
//! widens an exact summary exactly; only an *overwrite* can leave a
//! departed value behind as an extreme, so that marks a shard dirty — and
//! nothing more: a report costs its upsert, whatever the report before it
//! was. The sweep (`expire`) only *evicts*. Nothing can be evicted before
//! a shard's oldest row (a lower bound is kept) passes `max_age`, and the
//! bounds sit in one ordered set, so a sweep pops only the due shards off
//! its head and leaves the rest alone, dirty or not; a due shard is walked
//! once, which drops its stale rows and, being the same pass, leaves its
//! summary and its bound exact. The request (`tighten`, called by the
//! wizard just before it lends out the view) walks the shards still dirty,
//! so pruning always reads exact summaries (up to the sign of a zero, which
//! no reader of a range can see) — however many reports arrived since the
//! last request, each dirty shard is walked once. The live daemon sweeps on
//! every datagram: with nothing due, that is one comparison with the head
//! of the set, whatever the shard count.

use std::collections::{BTreeMap, BTreeSet};

use smartsock_proto::{Ip, NetPathRecord, SecurityRecord, ServerStatusReport};
use smartsock_sim::{SimDuration, SimTime};

/// A status report plus the time the monitor recorded it (§3.2.2: "each
/// server status record ... is tagged with the time stamp").
#[derive(Clone, Debug, PartialEq)]
pub struct TimedReport {
    pub report: ServerStatusReport,
    pub recorded_at: SimTime,
}

/// A /24 subnet prefix — the shard key.
pub type SubnetKey = [u8; 3];

/// The shard an address belongs to.
pub fn subnet_of(ip: Ip) -> SubnetKey {
    let [a, b, c, _] = ip.octets();
    [a, b, c]
}

/// A server variable's name and how to read it off a status report.
pub type ReportVar = (&'static str, fn(&ServerStatusReport) -> f64);

/// The report-derived server variables: Appendix B.1 minus
/// `host_security_level` (which comes from `secdb`). The one place these
/// names are bound — shard summaries keep a range per entry and the
/// wizard's `ServerVars` resolves them through [`report_var`] — so interval
/// pruning and row evaluation cannot see different numbers.
pub const REPORT_VARS: [ReportVar; 21] = [
    ("host_system_load1", |r| r.load1),
    ("host_system_load5", |r| r.load5),
    ("host_system_load15", |r| r.load15),
    ("host_cpu_user", |r| r.cpu_user),
    ("host_cpu_nice", |r| r.cpu_nice),
    ("host_cpu_system", |r| r.cpu_system),
    ("host_cpu_idle", |r| r.cpu_idle),
    ("host_cpu_free", |r| r.cpu_free()),
    ("host_cpu_bogomips", |r| r.bogomips),
    ("host_memory_total", |r| r.mem_total as f64),
    ("host_memory_used", |r| r.mem_used as f64),
    ("host_memory_free", |r| r.mem_free as f64),
    ("host_memory_buffers", |r| r.mem_buffers as f64),
    ("host_memory_cached", |r| r.mem_cached as f64),
    ("host_disk_allreq", |r| r.disk_allreq as f64),
    ("host_disk_rreq", |r| r.disk_rreq as f64),
    ("host_disk_rblocks", |r| r.disk_rblocks as f64),
    ("host_disk_wreq", |r| r.disk_wreq as f64),
    ("host_disk_wblocks", |r| r.disk_wblocks as f64),
    ("host_network_rbytesps", |r| r.net_rbytes_ps),
    ("host_network_tbytesps", |r| r.net_tbytes_ps),
];

/// The value of the [`REPORT_VARS`] entry at `index` — which, the table
/// being in Appendix B.1 order, is the language's own index for that
/// server variable; `None` past the table.
#[inline]
pub fn report_var(r: &ServerStatusReport, index: usize) -> Option<f64> {
    REPORT_VARS.get(index).map(|(_, get)| get(r))
}

/// Per-variable min/max over a shard's rows, indexed parallel to
/// [`REPORT_VARS`]. Empty ranges are `[+inf, -inf]`.
#[derive(Clone, Debug, PartialEq)]
pub struct VarRanges {
    lo: [f64; REPORT_VARS.len()],
    hi: [f64; REPORT_VARS.len()],
}

impl Default for VarRanges {
    fn default() -> Self {
        VarRanges {
            lo: [f64::INFINITY; REPORT_VARS.len()],
            hi: [f64::NEG_INFINITY; REPORT_VARS.len()],
        }
    }
}

impl VarRanges {
    /// Widen every range to cover `report`'s values.
    fn widen(&mut self, report: &ServerStatusReport) {
        // `map`, not a loop over the table: the extractors inline (3x).
        let values = REPORT_VARS.map(|(_, get)| get(report));
        for ((lo, hi), v) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(values) {
            if v < *lo {
                *lo = v;
            }
            if v > *hi {
                *hi = v;
            }
        }
    }

    /// `[lo, hi]` for a named variable, or `None` when the name is not a
    /// report variable or the shard is empty.
    pub fn range_of(&self, name: &str) -> Option<(f64, f64)> {
        let i = REPORT_VARS.iter().position(|(n, _)| *n == name)?;
        let (lo, hi) = (*self.lo.get(i)?, *self.hi.get(i)?);
        if lo > hi {
            return None;
        }
        Some((lo, hi))
    }
}

/// The conservative rollup the wizard's prune pass reads: always a
/// superset of the true per-row state (see module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardSummary {
    /// At least as new as the newest row's `recorded_at` — exact after
    /// every `tighten`, never older than the truth in between.
    pub newest_recorded_at: SimTime,
    /// Superset ranges over [`REPORT_VARS`].
    pub ranges: VarRanges,
}

/// One /24 subnet's slice of the server status database.
#[derive(Clone, Debug, Default)]
pub struct Shard {
    rows: BTreeMap<Ip, TimedReport>,
    summary: ShardSummary,
    /// No row is older than this (exact after a sweep walks the shard), so
    /// a sweep before `oldest + max_age` cannot evict here. Kept in
    /// [`SysDb`]'s deadline set too.
    oldest_recorded_at: SimTime,
    /// A row was overwritten since the summary was last recomputed, so a
    /// range may still cover the value that left — until `tighten`.
    dirty: bool,
}

impl Shard {
    /// Rows in address order.
    pub fn rows(&self) -> impl Iterator<Item = (&Ip, &TimedReport)> {
        self.rows.iter()
    }

    pub fn summary(&self) -> &ShardSummary {
        &self.summary
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One pass over the rows: drop the `stale` ones (returned in address
    /// order) and rebuild the summary exactly from the rest, whose oldest
    /// `recorded_at` is returned too.
    fn sweep(&mut self, stale: impl Fn(&TimedReport) -> bool) -> (Vec<Ip>, SimTime) {
        let mut evicted = Vec::new();
        let (mut summary, mut oldest) = (ShardSummary::default(), SimTime(u64::MAX));
        self.rows.retain(|&ip, t| {
            if stale(t) {
                evicted.push(ip);
                return false;
            }
            summary.newest_recorded_at = summary.newest_recorded_at.max(t.recorded_at);
            oldest = oldest.min(t.recorded_at);
            summary.ranges.widen(&t.report);
            true
        });
        (self.summary, self.dirty) = (summary, false);
        (evicted, oldest)
    }
}

/// The server status database, sharded by /24 subnet (address order is
/// preserved across shard boundaries — see module docs).
#[derive(Clone, Debug, Default)]
pub struct SysDb {
    shards: BTreeMap<SubnetKey, Shard>,
    /// Every shard's `oldest_recorded_at`, earliest first, so a sweep
    /// visits only the shards that may hold a stale row.
    deadlines: BTreeSet<(SimTime, SubnetKey)>,
    total: usize,
}

impl SysDb {
    /// Insert or update one server's record (§3.2.2: update if the address
    /// exists, insert otherwise). The shard summary is widened, not
    /// recomputed: an overwrite can leave stale extremes behind (and marks
    /// the shard dirty) until the next [`SysDb::tighten`] — a reader that
    /// skipped it would only prune *less*.
    pub fn upsert(&mut self, report: ServerStatusReport, now: SimTime) {
        let (ip, key) = (report.ip, subnet_of(report.ip));
        let shard = self.shards.entry(key).or_default();
        shard.summary.ranges.widen(&report);
        if now > shard.summary.newest_recorded_at {
            shard.summary.newest_recorded_at = now;
        }
        if shard.rows.is_empty() || now < shard.oldest_recorded_at {
            self.deadlines.remove(&(shard.oldest_recorded_at, key));
            self.deadlines.insert((now, key));
            shard.oldest_recorded_at = now;
        }
        if shard.rows.insert(ip, TimedReport { report, recorded_at: now }).is_none() {
            self.total += 1;
        } else {
            shard.dirty = true;
        }
    }

    /// Drop records older than `max_age` (the stale sweep; with the 3×
    /// interval policy of §4.1, `max_age = 3 * probe_interval`). Returns
    /// the evicted server addresses, in address order, so callers can log
    /// and account for exactly *which* servers went dark.
    ///
    /// Boundary semantics: the comparison is `age <= max_age`, so a record
    /// aged *exactly* `max_age` is **kept** — eviction requires strictly
    /// more than `max_age` of silence. With the §4.1 policy this means a
    /// probe whose report lands on the very tick of its third missed
    /// interval still counts as alive; the sweep one interval later evicts
    /// it. Pinned by `expiry_keeps_a_record_aged_exactly_max_age`.
    ///
    /// Eviction only: summaries stay supersets, exact again after
    /// [`SysDb::tighten`] (module docs).
    pub fn expire(&mut self, now: SimTime, max_age: SimDuration) -> Vec<Ip> {
        self.expire_by_shard(now, max_age).into_iter().flat_map(|(_, ips)| ips).collect()
    }

    /// Shard-resolved stale sweep: the same evictions as [`SysDb::expire`]
    /// grouped by subnet, in shard (= address) order; shards that evicted
    /// nothing are omitted. The per-shard counts always sum to the flat
    /// sweep's count — `wizard-stale-evictions` keeps its meaning — which
    /// is pinned by `per_shard_evictions_sum_to_the_flat_count`.
    ///
    /// Emptied shards are dropped. Only due shards — the oldest row may
    /// be past `max_age` — are walked, popped off the head of the deadline
    /// set; an overwrite makes no sweep walk anything (module docs).
    pub fn expire_by_shard(
        &mut self,
        now: SimTime,
        max_age: SimDuration,
    ) -> Vec<(SubnetKey, Vec<Ip>)> {
        let mut due = Vec::new();
        while self.deadlines.first().is_some_and(|&(oldest, _)| now.since(oldest) > max_age) {
            due.extend(self.deadlines.pop_first().map(|(_, key)| key));
        }
        due.sort_unstable();
        let mut by_shard = Vec::new();
        for key in due {
            let Some(shard) = self.shards.get_mut(&key) else { continue };
            let (evicted, oldest) = shard.sweep(|t| now.since(t.recorded_at) > max_age);
            if shard.rows.is_empty() {
                self.shards.remove(&key);
            } else {
                shard.oldest_recorded_at = oldest;
                self.deadlines.insert((oldest, key));
            }
            if !evicted.is_empty() {
                self.total -= evicted.len();
                by_shard.push((key, evicted));
            }
        }
        by_shard
    }

    /// Make every summary exact: re-walk the shards a report overwrote
    /// since their last walk. What a reader of summaries calls first; rows,
    /// counts and the sweep's bounds are untouched.
    pub fn tighten(&mut self) {
        for shard in self.shards.values_mut().filter(|s| s.dirty) {
            shard.sweep(|_| false);
        }
    }

    pub fn get(&self, ip: Ip) -> Option<&TimedReport> {
        self.shards.get(&subnet_of(ip))?.rows.get(&ip)
    }

    /// Shards in subnet order, for the wizard's prune-then-descend match
    /// loop.
    pub fn iter_shards(&self) -> impl Iterator<Item = (&SubnetKey, &Shard)> {
        self.shards.iter()
    }

    /// Number of non-empty shards (subnets with live records).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live records in deterministic (address) order — the order the
    /// wizard scans candidates in.
    pub fn snapshot(&self) -> Vec<ServerStatusReport> {
        self.iter().map(|(_, t)| t.report.clone()).collect()
    }

    /// Live records plus each one's age (in nanoseconds) at `now`, in
    /// address order — the transmitter's snapshot shape. Shipping the age
    /// instead of the raw timestamp keeps the wire format clock-free: the
    /// receiver reconstructs `recorded_at = arrival - age` in its own
    /// timeline, so the wizard's staleness discount sees true row ages.
    pub fn aged_snapshot(&self, now: SimTime) -> Vec<(ServerStatusReport, u64)> {
        self.iter().map(|(_, t)| (t.report.clone(), now.since(t.recorded_at).as_nanos())).collect()
    }

    /// All records in global address order (shard prefixes are the high
    /// address bits, so chaining shards preserves the flat-map order).
    pub fn iter(&self) -> impl Iterator<Item = (&Ip, &TimedReport)> {
        self.shards.values().flat_map(|s| s.rows.iter())
    }

    pub fn len(&self) -> usize {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// The network metrics database: one record per (from, to) monitor pair.
#[derive(Clone, Debug, Default)]
pub struct NetDb {
    records: BTreeMap<(Ip, Ip), NetPathRecord>,
}

impl NetDb {
    pub fn upsert(&mut self, rec: NetPathRecord) {
        self.records.insert((rec.from_monitor, rec.to_monitor), rec);
    }

    pub fn get(&self, from: Ip, to: Ip) -> Option<&NetPathRecord> {
        self.records.get(&(from, to))
    }

    pub fn snapshot(&self) -> Vec<NetPathRecord> {
        self.records.values().copied().collect()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The security database: clearance level per host.
#[derive(Clone, Debug, Default)]
pub struct SecDb {
    records: BTreeMap<Ip, SecurityRecord>,
}

impl SecDb {
    pub fn upsert(&mut self, rec: SecurityRecord) {
        self.records.insert(rec.ip, rec);
    }

    #[inline]
    pub fn level_of(&self, ip: Ip) -> Option<i32> {
        self.records.get(&ip).map(|r| r.level)
    }

    pub fn snapshot(&self) -> Vec<SecurityRecord> {
        self.records.values().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One machine's three databases — the "shared memory segments" of
/// Table 4.3, owned in one place.
#[derive(Clone, Debug, Default)]
pub struct StatusDbs {
    pub sys: SysDb,
    pub net: NetDb,
    pub sec: SecDb,
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_proto::HostName;
    use smartsock_sim::rng::cases;

    fn report(ip: Ip, load: f64) -> ServerStatusReport {
        let mut r = ServerStatusReport::empty(HostName::new("h"), ip);
        r.load1 = load;
        r
    }

    #[test]
    fn upsert_updates_existing_addresses() {
        let mut db = SysDb::default();
        let ip = Ip::new(10, 0, 0, 1);
        db.upsert(report(ip, 0.1), SimTime::from_secs(1));
        db.upsert(report(ip, 0.9), SimTime::from_secs(2));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(ip).unwrap().report.load1, 0.9);
        assert_eq!(db.get(ip).unwrap().recorded_at, SimTime::from_secs(2));
    }

    #[test]
    fn expiry_drops_only_stale_records() {
        let mut db = SysDb::default();
        db.upsert(report(Ip::new(10, 0, 0, 1), 0.0), SimTime::from_secs(0));
        db.upsert(report(Ip::new(10, 0, 0, 2), 0.0), SimTime::from_secs(9));
        let dropped = db.expire(SimTime::from_secs(10), SimDuration::from_secs(6));
        assert_eq!(dropped, vec![Ip::new(10, 0, 0, 1)]);
        assert!(db.get(Ip::new(10, 0, 0, 1)).is_none());
        assert!(db.get(Ip::new(10, 0, 0, 2)).is_some());
    }

    #[test]
    fn expiry_keeps_a_record_aged_exactly_max_age() {
        let mut db = SysDb::default();
        let ip = Ip::new(10, 0, 0, 3);
        db.upsert(report(ip, 0.0), SimTime::from_secs(4));
        // Aged exactly max_age: kept (eviction is strictly-older-than).
        let dropped = db.expire(SimTime::from_secs(10), SimDuration::from_secs(6));
        assert!(dropped.is_empty());
        assert!(db.get(ip).is_some());
        // One nanosecond past the boundary: evicted.
        let just_past = SimTime::from_secs(10) + SimDuration::from_nanos(1);
        let dropped = db.expire(just_past, SimDuration::from_secs(6));
        assert_eq!(dropped, vec![ip]);
        assert!(db.get(ip).is_none());
    }

    /// Eviction accounting: `expire` returns exactly the addresses it
    /// removed — `len(before) == len(after) + evicted.len()` — the evicted
    /// list is address-ordered, and every survivor is at most `max_age` old.
    #[test]
    fn expire_accounts_for_every_eviction() {
        cases("expire_accounts_for_every_eviction", |rng| {
            let ages: Vec<u64> = (0..rng.below(20)).map(|_| rng.below(30)).collect();
            let max_age = 1 + rng.below(24);
            let now = SimTime::from_secs(40);
            let mut db = SysDb::default();
            for (i, &age) in ages.iter().enumerate() {
                let ip = Ip::new(10, 0, (i / 256) as u8, (i % 256) as u8);
                db.upsert(report(ip, 0.0), SimTime::from_secs(40 - age));
            }
            let before = db.len();
            let max_age = SimDuration::from_secs(max_age);
            let evicted = db.expire(now, max_age);
            assert_eq!(before, db.len() + evicted.len());
            let mut sorted = evicted.clone();
            sorted.sort();
            assert_eq!(&evicted, &sorted);
            for (_, r) in db.iter() {
                assert!(now.since(r.recorded_at) <= max_age);
            }
            for ip in evicted {
                assert!(db.get(ip).is_none());
            }
        });
    }

    /// The `SysDb` contract, call after call, against [`FlatModel`] — one
    /// flat map of rows whose exact summaries are rebuilt from nothing
    /// whenever asked. Over any sequence of upserts (new and known
    /// addresses, equal, later and earlier timestamps), sweeps and
    /// `tighten`s: the sharded sweep is an exact regrouping of the flat one
    /// (the same evictions, grouped under the shard each /24 prefix names,
    /// so `wizard-stale-evictions` keeps its meaning), sizes and rows
    /// agree, every summary *covers* the exact one at all times, and after
    /// every `tighten` it *is* the exact one (up to the sign of a zero,
    /// which `==` on floats already ignores).
    #[test]
    fn per_shard_evictions_sum_to_the_flat_count() {
        cases("per_shard_evictions_sum_to_the_flat_count", |rng| {
            let mut db = SysDb::default();
            let mut model = FlatModel::default();
            let mut now = SimTime::from_secs(3);
            for _ in 0..rng.below(60) {
                let kind = rng.below(11);
                let (subnet, host) = (rng.below(5) as u8, rng.below(6) as u8);
                let (load, dt, age) = (rng.below(8), rng.below(4), rng.below(9));
                let row = |subnet: u8, host: u8| {
                    let mut r = report(Ip::new(10, 0, subnet, host + 1), load as f64);
                    r.cpu_idle = 1.0 / (f64::from(host) + 1.0);
                    r
                };
                match kind {
                    0..=5 => {
                        // Mostly the present; `age` reaches back the way the
                        // receiver's rebuilt timestamps do.
                        let at = if kind == 5 { SimTime(now.0 - age * 300_000_000) } else { now };
                        db.upsert(row(subnet, host), at);
                        model.upsert(row(subnet, host), at);
                    }
                    6..=8 => {
                        now += SimDuration::from_secs(dt);
                        let max_age = SimDuration::from_secs(age);
                        let by_shard = db.expire_by_shard(now, max_age);
                        let flat_evicted = model.expire(now, max_age);
                        let flattened: Vec<Ip> =
                            by_shard.iter().flat_map(|(_, ips)| ips.iter().copied()).collect();
                        assert_eq!(&flattened, &flat_evicted);
                        for (key, ips) in &by_shard {
                            assert!(!ips.is_empty());
                            for ip in ips {
                                assert_eq!(subnet_of(*ip), *key);
                            }
                        }
                    }
                    _ => db.tighten(),
                }
                let exact = model.summaries();
                assert_eq!(db.len(), model.rows.len());
                assert_eq!(db.shard_count(), exact.len());
                assert!(db.iter().eq(model.rows.iter()));
                for ((key, shard), (exact_key, exact)) in db.iter_shards().zip(&exact) {
                    assert_eq!(key, exact_key);
                    let got = shard.summary();
                    if matches!(kind, 9..=10) {
                        assert_eq!(got, exact);
                    }
                    assert_eq!(
                        shard.len(),
                        model.rows.keys().filter(|&&ip| subnet_of(ip) == *key).count()
                    );
                    assert!(got.newest_recorded_at >= exact.newest_recorded_at);
                    let (got, exact) = (&got.ranges, &exact.ranges);
                    assert!(got.lo.iter().zip(&exact.lo).all(|(g, e)| g <= e));
                    assert!(got.hi.iter().zip(&exact.hi).all(|(g, e)| g >= e));
                }
            }
        });
    }

    /// Reference for the property test above: the status database as one
    /// flat map of rows. Its sweep visits every row; its summaries are
    /// rebuilt from nothing on every call — the walk-everything body
    /// `SysDb` used to have.
    #[derive(Default)]
    struct FlatModel {
        rows: BTreeMap<Ip, TimedReport>,
    }

    impl FlatModel {
        fn upsert(&mut self, report: ServerStatusReport, now: SimTime) {
            self.rows.insert(report.ip, TimedReport { report, recorded_at: now });
        }

        fn expire(&mut self, now: SimTime, max_age: SimDuration) -> Vec<Ip> {
            let mut evicted = Vec::new();
            self.rows.retain(|&ip, t| {
                let keep = now.since(t.recorded_at) <= max_age;
                if !keep {
                    evicted.push(ip);
                }
                keep
            });
            evicted
        }

        fn summaries(&self) -> BTreeMap<SubnetKey, ShardSummary> {
            let mut exact: BTreeMap<SubnetKey, ShardSummary> = BTreeMap::new();
            for (&ip, t) in &self.rows {
                let s = exact.entry(subnet_of(ip)).or_default();
                s.newest_recorded_at = s.newest_recorded_at.max(t.recorded_at);
                s.ranges.widen(&t.report);
            }
            exact
        }
    }

    /// Over any upserts (back-dated ones included), sweeps and `tighten`s,
    /// the set holds exactly each shard's bound, and each bound is at most
    /// its shard's oldest row: nothing stale is left for a sweep to pop.
    #[test]
    fn the_deadline_set_holds_each_shards_bound() {
        cases("the_deadline_set_holds_each_shards_bound", |rng| {
            let mut db = SysDb::default();
            let mut now = SimTime::from_secs(3);
            for _ in 0..rng.below(60) {
                let ip = Ip::new(10, 0, rng.below(5) as u8, rng.below(6) as u8);
                match rng.below(4) {
                    0 => db.upsert(report(ip, 0.0), SimTime(now.0 - rng.below(9) * 300_000_000)),
                    1 => db.upsert(report(ip, 1.0), now),
                    2 => {
                        now += SimDuration::from_secs(rng.below(4));
                        db.expire(now, SimDuration::from_secs(rng.below(9)));
                    }
                    _ => db.tighten(),
                }
                let bounds = db.shards.iter().map(|(&key, s)| (s.oldest_recorded_at, key));
                assert!(db.deadlines.iter().copied().eq(bounds.collect::<BTreeSet<_>>()));
                for shard in db.shards.values() {
                    assert!(shard.rows().all(|(_, t)| shard.oldest_recorded_at <= t.recorded_at));
                }
            }
        });
    }

    #[test]
    fn a_sweep_with_nothing_dirty_and_nothing_due_walks_no_shard() {
        let secs = SimTime::from_secs;
        let max_age = SimDuration::from_secs(6);
        let load1 =
            |db: &SysDb| db.shards[&[10, 0, 0]].summary.ranges.range_of("host_system_load1");
        let dirty = |db: &SysDb| db.shards.values().map(|s| s.dirty).collect::<Vec<_>>();
        let oldest =
            |db: &SysDb| db.shards.values().map(|s| s.oldest_recorded_at).collect::<Vec<_>>();
        let deadlines = |db: &SysDb| db.deadlines.iter().copied().collect::<Vec<_>>();
        let mut db = SysDb::default();
        for subnet in 0..3 {
            db.upsert(report(Ip::new(10, 0, subnet, 1), 1.0), secs(2 + u64::from(subnet)));
            db.upsert(report(Ip::new(10, 0, subnet, 2), 2.0), secs(5));
        }
        // New rows leave a shard clean; only the overwrite marks one, and
        // its bound stays that of the row it overwrote (a lower bound).
        db.upsert(report(Ip::new(10, 0, 0, 1), 3.0), secs(6));
        assert_eq!(dirty(&db), [true, false, false]);
        assert_eq!(
            deadlines(&db),
            [(secs(2), [10, 0, 0]), (secs(3), [10, 0, 1]), (secs(4), [10, 0, 2])]
        );

        // Plant a zero bound on every shard, behind the set's back: any
        // walk would put the exact value back.
        for shard in db.shards.values_mut() {
            shard.oldest_recorded_at = SimTime::ZERO;
        }
        // Nothing is due (the head's row is aged exactly `max_age`), so the
        // overwrite alone makes no sweep walk a shard: the marks, the dirty
        // bit and the widened range all stay.
        assert!(db.expire(secs(8), max_age).is_empty());
        assert_eq!(dirty(&db), [true, false, false]);
        assert_eq!(oldest(&db), [SimTime::ZERO; 3]);
        assert_eq!(load1(&db), Some((1.0, 3.0)));

        // Past the head's deadline only the head shard is walked, though
        // its rows (at 5 s and 6 s) all stay: its bound, summary and dirty
        // bit turn exact, and the other shards keep their marks.
        let later = secs(8) + SimDuration::from_millis(500);
        assert!(db.expire(later, max_age).is_empty());
        assert_eq!(dirty(&db), [false, false, false]);
        assert_eq!(load1(&db), Some((2.0, 3.0)));
        assert_eq!(oldest(&db), [secs(5), SimTime::ZERO, SimTime::ZERO]);
        assert_eq!(
            deadlines(&db),
            [(secs(3), [10, 0, 1]), (secs(4), [10, 0, 2]), (secs(5), [10, 0, 0])]
        );

        // `tighten` walks the dirty shard, and only it, and writes no bound.
        db.upsert(report(Ip::new(10, 0, 1, 2), 0.5), secs(7));
        db.tighten();
        assert_eq!(dirty(&db), [false, false, false]);
        assert_eq!(oldest(&db), [secs(5), SimTime::ZERO, SimTime::ZERO]);

        // At the next deadline the next shard evicts its stale row alone.
        let evicted = db.expire(secs(9) + SimDuration::from_millis(500), max_age);
        assert_eq!(evicted, [Ip::new(10, 0, 1, 1)]);
        assert_eq!(oldest(&db), [secs(5), secs(7), SimTime::ZERO]);
        assert_eq!(db.len(), 5);
    }

    /// With 1 000 /24 shards and nothing due, a sweep walks none of them:
    /// a zero bound and a dirty bit planted on every shard, which any walk
    /// would clear, all stay.
    #[test]
    fn a_sweep_over_a_thousand_shards_with_nothing_due_walks_none() {
        let mut db = SysDb::default();
        for shard in 0..1_000u32 {
            db.upsert(report(Ip(0x0a00_0001 + (shard << 8)), 1.0), SimTime::from_secs(2));
        }
        assert_eq!(db.shard_count(), 1_000);
        for shard in db.shards.values_mut() {
            (shard.oldest_recorded_at, shard.dirty) = (SimTime::ZERO, true);
        }
        for at in 2..=8 {
            assert!(db.expire(SimTime::from_secs(at), SimDuration::from_secs(6)).is_empty());
        }
        assert!(db.shards.values().all(|s| s.oldest_recorded_at == SimTime::ZERO && s.dirty));
        assert_eq!(db.deadlines.len(), 1_000);
    }

    #[test]
    fn snapshot_is_address_ordered() {
        let mut db = SysDb::default();
        db.upsert(report(Ip::new(10, 0, 0, 9), 0.0), SimTime::ZERO);
        db.upsert(report(Ip::new(10, 0, 0, 1), 0.0), SimTime::ZERO);
        let snap = db.snapshot();
        assert!(snap[0].ip < snap[1].ip);
    }

    #[test]
    fn iteration_order_spans_shards_in_address_order() {
        let mut db = SysDb::default();
        let ips = [
            Ip::new(192, 168, 5, 1),
            Ip::new(10, 0, 0, 7),
            Ip::new(10, 0, 1, 2),
            Ip::new(10, 0, 0, 200),
            Ip::new(137, 132, 81, 10),
        ];
        for ip in ips {
            db.upsert(report(ip, 0.0), SimTime::ZERO);
        }
        let seen: Vec<Ip> = db.iter().map(|(ip, _)| *ip).collect();
        let mut want = ips.to_vec();
        want.sort();
        assert_eq!(seen, want);
        assert_eq!(db.shard_count(), 4);
        assert_eq!(db.len(), 5);
    }

    #[test]
    fn shard_summaries_cover_rows_and_tighten_on_expire() {
        let load1 = |db: &SysDb| {
            let (_, shard) = db.iter_shards().next().unwrap();
            assert_eq!(shard.len(), 2);
            shard.summary().ranges.range_of("host_system_load1")
        };
        let mut db = SysDb::default();
        let a = Ip::new(10, 0, 0, 1);
        let b = Ip::new(10, 0, 0, 2);
        db.upsert(report(a, 5.0), SimTime::from_secs(1));
        db.upsert(report(b, 1.0), SimTime::from_secs(2));
        let (_, shard) = db.iter_shards().next().unwrap();
        assert_eq!(shard.summary().newest_recorded_at, SimTime::from_secs(2));
        assert_eq!(load1(&db), Some((1.0, 5.0)));

        // Overwrite the hot row with a calmer report: widen-only leaves
        // the old maximum in place (conservative superset), and a sweep
        // that has nothing to evict leaves it there too…
        db.upsert(report(a, 2.0), SimTime::from_secs(3));
        assert_eq!(load1(&db), Some((1.0, 5.0)));
        db.expire(SimTime::from_secs(3), SimDuration::from_secs(60));
        assert_eq!(load1(&db), Some((1.0, 5.0)));

        // …until `tighten` recomputes the exact range, rows untouched.
        db.tighten();
        assert_eq!(load1(&db), Some((1.0, 2.0)));
        assert_eq!(db.get(a).unwrap().recorded_at, SimTime::from_secs(3));

        // A sweep that does walk the shard (due by b's first report at
        // t = 2, though nothing turns out stale) is the same pass: the
        // summary it leaves is exact without a `tighten`.
        db.upsert(report(b, 1.5), SimTime::from_secs(4));
        assert_eq!(load1(&db), Some((1.0, 2.0)));
        assert!(db.expire(SimTime::from_secs(64), SimDuration::from_secs(61)).is_empty());
        assert_eq!(load1(&db), Some((1.5, 2.0)));
    }

    #[test]
    fn emptied_shards_are_dropped() {
        let mut db = SysDb::default();
        db.upsert(report(Ip::new(10, 0, 0, 1), 0.0), SimTime::ZERO);
        db.upsert(report(Ip::new(10, 0, 1, 1), 0.0), SimTime::from_secs(9));
        assert_eq!(db.shard_count(), 2);
        let by_shard = db.expire_by_shard(SimTime::from_secs(10), SimDuration::from_secs(6));
        assert_eq!(by_shard, vec![([10, 0, 0], vec![Ip::new(10, 0, 0, 1)])]);
        assert_eq!(db.shard_count(), 1);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn report_vars_resolve_for_every_listed_name() {
        let r = report(Ip::new(10, 0, 0, 1), 0.5);
        for (i, (name, get)) in REPORT_VARS.into_iter().enumerate() {
            assert_eq!(report_var(&r, i), Some(get(&r)), "unresolved report var {name}");
        }
        // `host_security_level` and `monitor_network_bw`, by the
        // language's index: not the report's to answer.
        assert_eq!(report_var(&r, 21), None);
        assert_eq!(report_var(&r, 26), None);
    }

    #[test]
    fn netdb_keys_are_directional() {
        let mut db = NetDb::default();
        let a = Ip::new(192, 168, 1, 1);
        let b = Ip::new(192, 168, 2, 1);
        db.upsert(NetPathRecord {
            from_monitor: a,
            to_monitor: b,
            delay_ms: 1.0,
            bw_mbps: 90.0,
            timestamp_ns: 0,
        });
        db.upsert(NetPathRecord {
            from_monitor: b,
            to_monitor: a,
            delay_ms: 2.0,
            bw_mbps: 50.0,
            timestamp_ns: 0,
        });
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(a, b).unwrap().bw_mbps, 90.0);
        assert_eq!(db.get(b, a).unwrap().bw_mbps, 50.0);
        assert!(db.get(a, a).is_none());
    }

    #[test]
    fn secdb_levels() {
        let mut db = SecDb::default();
        let ip = Ip::new(192, 168, 3, 1);
        db.upsert(SecurityRecord { host: "helene".into(), ip, level: 4 });
        assert_eq!(db.level_of(ip), Some(4));
        assert_eq!(db.level_of(Ip::new(1, 1, 1, 1)), None);
    }
}
