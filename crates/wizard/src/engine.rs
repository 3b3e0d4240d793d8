//! The wizard engine: the one implementation of the paper's wizard.
//!
//! Everything the wizard *does* lives here, independent of transport, in
//! one sans-IO step function, [`WizardEngine::step`]: its whole input is a
//! datagram on its one port or a sweep tick, and its whole output is the
//! telemetry it writes and the one frame to send, if any. A datagram is a
//! stats poll, an outcome report (→ health transitions), a status report
//! or a request (decode → match → reply); a tick is the sweep (a health
//! poll and per-shard expiry). The engine holds the state all of it acts
//! on (health table, group map, templates, [`SelectPolicy`]) and owns the
//! wizard machine's three status databases: reports reach `sysdb` through
//! its own demux, and receiver snapshots through
//! [`WizardEngine::dbs_mut`] — so a request sees every write delivered
//! before it, by construction.
//!
//! The backends are thin drivers over it (DESIGN.md §13): the simulated
//! daemon ([`crate::Wizard`]) adds port bindings (the receiver port among
//! them), the sweep timer and distributed mode's pull-then-settle delay;
//! the live daemon (`smartsock-live`) adds a socket, a clock and a
//! heartbeat. Each sends the frames `step` returns, so replies and
//! telemetry agree between them by construction — the interop conformance
//! suite pins it.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use smartsock_lang::{
    compile, holds, may_qualify, BinOp, Evaluator, HostLists, RangeProvider, ServerVar, VarProvider,
};
use smartsock_monitor::db::{ReportVar, SubnetKey, TimedReport, VarRanges, REPORT_VARS};
use smartsock_monitor::health::{HealthTable, StateKind, Transition};
use smartsock_monitor::ingest::{ingest_ascii, IngestError};
use smartsock_monitor::{NetDb, SecDb, StatusDbs, SysDb};
use smartsock_proto::consts::{ports, timing};
use smartsock_proto::{
    addr::NetAddr, Endpoint, Ip, OutcomeReport, ServerStatusReport, StatsReply, StatsRequest,
    Transport, TransportError, UserRequest, WizardReply, MAX_SERVERS_PER_REPLY,
};
use smartsock_sim::{SimDuration, SimTime, Telemetry};

use crate::vars::ServerVars;

/// How the wizard treats the age of a status row.
#[derive(Clone, Debug)]
pub struct SelectPolicy {
    /// Records older than this are skipped even before the sweep evicts
    /// them. `None` disables staleness handling entirely.
    pub stale_max_age: Option<SimDuration>,
    /// Discount rows by age (freshness tiers) during ordering.
    pub age_discount: bool,
}

impl Default for SelectPolicy {
    fn default() -> Self {
        // A server is failed after this many missed reports (§4.1): 3 × 2 s.
        let window = u64::from(timing::FAILURE_INTERVALS) * timing::PROBE_INTERVAL_SECS;
        SelectPolicy { stale_max_age: Some(SimDuration::from_secs(window)), age_discount: true }
    }
}

/// Borrowed views of everything [`select`] consults, lent by
/// [`WizardEngine::view`].
pub struct SelectView<'a> {
    pub sysdb: &'a SysDb,
    pub netdb: &'a NetDb,
    pub secdb: &'a SecDb,
    pub health: &'a HealthTable,
    /// host ip → its group's network-monitor ip (for `monitor_*` vars).
    pub group_map: &'a BTreeMap<Ip, Ip>,
    /// Wizard-side requirement templates, by option-field id.
    pub templates: &'a BTreeMap<u8, String>,
}

/// How much of the status database one [`select_with_stats`] call
/// actually touched. [`WizardEngine::step`] feeds these into telemetry
/// (`wizard-shards-pruned`, `wizard-rows-evaluated`), and the fleet
/// experiments report the prune ratio as a figure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Shards in the status database when the request arrived.
    pub shards_total: usize,
    /// Shards skipped wholesale: their summary proved no row could
    /// qualify, or the reply had settled before the walk reached them.
    pub shards_pruned: usize,
    /// Rows visited, screened out or not: those of the shards descended
    /// into, up to the one after which the reply settled.
    pub rows_evaluated: usize,
}

/// How many compiled requests a [`WizardEngine`] keeps (DESIGN.md §13).
const COMPILED_CAP: usize = 64;

/// The per-request compiled state shared by every row evaluation.
struct CompiledRequest {
    requirement: smartsock_lang::Requirement,
    /// The host lists, resolved once per request (every designator parses).
    preferred: Vec<NetAddr>,
    denied: Vec<NetAddr>,
    /// The `#!rank` directive, its variable resolved once per request.
    rank: Option<(ServerVar, bool)>,
    /// The tests on report variables (every row defines them), as `ServerVars` reads them.
    screen: Vec<(ReportVar, BinOp, f64)>,
    /// The screen is the whole requirement, so the program need not run.
    screen_decides: bool,
}

impl CompiledRequest {
    /// `None` when the requirement does not compile (an empty reply); no screen unless `screened`.
    fn new(
        templates: &BTreeMap<u8, String>,
        template: Option<u8>,
        detail: &str,
        screened: bool,
    ) -> Option<CompiledRequest> {
        // Prepend a template when the option asks for one.
        let detail = match template.and_then(|id| templates.get(&id)) {
            Some(t) => format!("{t}\n{detail}"),
            None => detail.to_owned(),
        };
        let requirement = compile(&detail).ok()?;
        let HostLists { preferred, denied } = HostLists::from_requirement(&requirement);
        let resolve = |hosts: Vec<String>| hosts.iter().filter_map(|h| h.parse().ok()).collect();
        let (preferred, denied) = (resolve(preferred), resolve(denied));
        let rank = parse_rank_directive(&detail);
        let tests = if screened { requirement.tests() } else { &[] };
        let screen: Vec<_> = tests
            .iter()
            .filter_map(|&(var, op, c)| REPORT_VARS.get(var.index()).map(|&row| (row, op, c)))
            .collect();
        let screen_decides = screened && requirement.tests_only() && screen.len() == tests.len();
        Some(CompiledRequest { requirement, preferred, denied, rank, screen, screen_decides })
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Candidate {
    ip: Ip,
    preferred_rank: Option<usize>,
    /// Health score × freshness tier, quantized to ‰ so float noise
    /// cannot perturb the sort (higher is better).
    score_bucket: i64,
    /// The `#!rank` variable's value, negated when larger is better, so
    /// that smaller always sorts first; 0 without a directive.
    rank_key: f64,
}

/// Why [`consider_row`] turned a row away, in the order it asks: a screened
/// test fails (never for an unscreened request), the row is older than the
/// staleness window, its server is quarantined, a denied-host designator
/// names it, or the requirement's program does not qualify it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rejected {
    Screened,
    Stale,
    Quarantined,
    Denied,
    Unqualified,
}

/// The one per-row decision (§3.6.1 step 3): a candidate, or why the row is
/// out. Shared by the sharded walk and the flat reference scan, which differ
/// only in *which* rows they visit and whether their request is screened.
#[inline]
fn consider_row(
    view: &SelectView<'_>,
    policy: &SelectPolicy,
    now: SimTime,
    creq: &CompiledRequest,
    client_mon: Option<Ip>,
    ip: Ip,
    timed: &TimedReport,
) -> Result<Candidate, Rejected> {
    let report = &timed.report;
    if !creq.screen.iter().all(|&((_, f), op, c)| holds(op, f(report), c)) {
        return Err(Rejected::Screened);
    }
    if policy.stale_max_age.is_some_and(|max_age| now.since(timed.recorded_at) > max_age) {
        return Err(Rejected::Stale);
    }
    // Quarantined servers are never offered; probation servers
    // stay eligible (their low score orders them last) so the
    // system re-learns whether they recovered.
    if !view.health.selectable(ip, now) {
        return Err(Rejected::Quarantined);
    }
    if creq.denied.iter().any(|d| designates(d, report)) {
        return Err(Rejected::Denied);
    }
    let server_mon = view.group_map.get(&ip).copied();
    let net_rec = match (client_mon, server_mon) {
        (Some(a), Some(b)) if a != b => view.netdb.get(a, b).copied(),
        _ => None,
    };
    let same_group = client_mon.is_some() && client_mon == server_mon;
    let sv = ServerVars {
        report,
        security_level: view.secdb.level_of(ip),
        net_record: net_rec,
        same_group,
    };
    if !creq.screen_decides && !Evaluator::evaluate(&creq.requirement, &sv).qualified {
        return Err(Rejected::Unqualified);
    }
    let preferred_rank = creq.preferred.iter().position(|p| designates(p, report));
    let rank_key = creq.rank.map_or(0.0, |(var, descending)| {
        let value = sv.lookup(var).unwrap_or(0.0);
        if descending {
            -value
        } else {
            value
        }
    });
    // Staleness-aware discount: a row half-way to expiry is worth
    // less than one recorded this tick. Tiers (rather than a
    // continuous factor) keep steady-state testbeds — where every
    // row is at most one probe interval old — in the same bucket,
    // so the legacy ordering is unchanged unless rows actually go
    // stale.
    let freshness_tier = match policy.stale_max_age {
        Some(max) if policy.age_discount => {
            let age = now.since(timed.recorded_at).as_nanos();
            let max = max.as_nanos();
            if age.saturating_mul(2) <= max {
                1.0
            } else if age.saturating_mul(4) <= max.saturating_mul(3) {
                0.5
            } else {
                0.25
            }
        }
        _ => 1.0,
    };
    let score_bucket = (view.health.score(ip, now) * freshness_tier * 1000.0).round() as i64;
    Ok(Candidate { ip, preferred_rank, score_bucket, rank_key })
}

/// Ordering: preferred first (by preference index), then healthier
/// and fresher servers (score bucket, descending), then the rank
/// directive, then address order — the tie-break that makes the order
/// total, so "the best k" is one list however it is computed.
fn best_first(a: &Candidate, b: &Candidate) -> Ordering {
    let preferred = |c: &Candidate| c.preferred_rank.unwrap_or(usize::MAX);
    preferred(a)
        .cmp(&preferred(b))
        .then_with(|| b.score_bucket.cmp(&a.score_bucket))
        .then_with(|| a.rank_key.partial_cmp(&b.rank_key).unwrap_or(Ordering::Equal))
        .then_with(|| a.ip.cmp(&b.ip))
}

/// Offer `c` to `kept`, the best `cap` candidates so far, best first. What
/// is kept is exactly the head of the full sort, without holding — or
/// sorting — the tail no reply can carry.
fn offer(kept: &mut Vec<Candidate>, cap: usize, c: Candidate) {
    if kept.len() >= cap {
        // Full: dropped on arrival unless it beats the last place.
        match kept.last() {
            Some(last) if best_first(&c, last).is_lt() => kept.pop(),
            _ => return,
        };
    }
    let at = kept.partition_point(|k| best_first(k, &c).is_lt());
    kept.insert(at, c);
}

/// How many servers a reply to a request for `server_num` may carry.
fn reply_cap(server_num: u16) -> usize {
    usize::from(server_num).min(MAX_SERVERS_PER_REPLY)
}

fn endpoints(chosen: Vec<Candidate>) -> Vec<Endpoint> {
    chosen.into_iter().map(|c| Endpoint::new(c.ip, ports::SERVICE)).collect()
}

/// Adapts a shard's [`VarRanges`] rollup to the interval analyser. Names
/// the rollup does not track (security/monitor/service variables) come
/// back `None`, which `may_qualify` treats as unknown — never a prune.
struct ShardRanges<'a>(&'a VarRanges);

impl RangeProvider for ShardRanges<'_> {
    fn range(&self, name: &str) -> Option<(f64, f64)> {
        self.0.range_of(name)
    }
}

/// §3.6.1 steps 3–4: compile the requirement, evaluate the live records,
/// order candidates, truncate to the reply cap. This is *the* matching
/// core — both backends call it, so its ordering rules are documented in
/// DESIGN.md §13 and pinned by the interop suite.
///
/// Since the fleet scale-out the scan is *prune-then-descend*: each /24
/// shard's summary is checked first, and a shard is skipped wholesale
/// when every row in it is provably stale or provably unqualifiable
/// (interval analysis, `smartsock_lang::may_qualify`). A row that
/// qualifies is kept only while it is among the best
/// `min(server_num, 60)` seen so far — the reply is bounded, so the
/// selection is too — and the walk stops once no row left can enter them.
/// None of it, the tests' screen of each row included, is behaviourally
/// visible: `select` returns exactly what [`select_flat`] — every row,
/// every qualifier sorted, then cut — would, property-tested below.
pub fn select(
    view: &SelectView<'_>,
    policy: &SelectPolicy,
    now: SimTime,
    req: &UserRequest,
    client_ip: Ip,
) -> Vec<Endpoint> {
    select_with_stats(view, policy, now, req, client_ip).0
}

/// [`select`], plus counters describing how much work pruning saved. Every
/// row visited counts in `rows_evaluated`; `consider_row` screens it first
/// (one `holds` per screened test) and skips the program when the
/// tests are the whole requirement. Rows arrive in address order, so a row
/// not yet visited is at best a candidate with preferred index 0 (if any),
/// bucket 1000 (health score and freshness tier are at most 1), rank key −∞
/// (under `#!rank`) and a larger address. Once the kept list is full and its
/// last place sorts ahead of that, the reply is settled — exactly, by
/// `best_first` — and the walk stops; shards not reached count as pruned.
pub fn select_with_stats(
    view: &SelectView<'_>,
    policy: &SelectPolicy,
    now: SimTime,
    req: &UserRequest,
    client_ip: Ip,
) -> (Vec<Endpoint>, SelectStats) {
    let creq = CompiledRequest::new(view.templates, req.option.template, &req.detail, true);
    select_compiled(view, policy, now, creq.as_ref(), req.server_num, client_ip)
}

/// [`select_with_stats`] past the compile, which [`WizardEngine::step`]
/// does once per distinct requirement.
fn select_compiled(
    view: &SelectView<'_>,
    policy: &SelectPolicy,
    now: SimTime,
    creq: Option<&CompiledRequest>,
    server_num: u16,
    client_ip: Ip,
) -> (Vec<Endpoint>, SelectStats) {
    let mut stats = SelectStats { shards_total: view.sysdb.shard_count(), ..Default::default() };
    let Some(creq) = creq else {
        return (Vec::new(), stats);
    };
    let cap = reply_cap(server_num);
    if cap == 0 {
        // Settled before the walk: no row can enter an empty reply.
        return (Vec::new(), SelectStats { shards_pruned: stats.shards_total, ..stats });
    }
    let client_mon = view.group_map.get(&client_ip).copied();
    let preferred_rank = (!creq.preferred.is_empty()).then_some(0);
    let rank_key = if creq.rank.is_some() { f64::NEG_INFINITY } else { 0.0 };
    let bound = |ip| Candidate { ip, preferred_rank, score_bucket: 1000, rank_key };
    let mut best = Vec::new();
    let mut descended = 0;
    'shards: for (_subnet, shard) in view.sysdb.iter_shards() {
        let summary = shard.summary();
        // Staleness prune: `newest_recorded_at` is never older than the
        // newest row, so when even it exceeds the window every row does.
        let all_stale = match policy.stale_max_age {
            Some(max) => now.since(summary.newest_recorded_at) > max,
            None => false,
        };
        if all_stale || !may_qualify(&creq.requirement, &ShardRanges(&summary.ranges)) {
            continue;
        }
        descended += 1;
        for (&ip, timed) in shard.rows() {
            stats.rows_evaluated += 1;
            match consider_row(view, policy, now, creq, client_mon, ip, timed) {
                Ok(c) => offer(&mut best, cap, c),
                Err(Rejected::Screened) => continue, // the kept list is as it was
                Err(_) => {}
            }
            // Settled: no row still to come (a larger address) can beat the last place.
            if best.len() == cap && best.last().is_some_and(|l| best_first(l, &bound(ip)).is_le()) {
                break 'shards;
            }
        }
    }
    stats.shards_pruned = stats.shards_total - descended;
    (endpoints(best), stats)
}

/// Reference implementation: the pre-sharding flat scan over every row,
/// every qualifier collected and sorted. Kept (and exercised by property
/// tests) to pin that neither shard pruning, the bounded selection nor the
/// settled stop ever changes a reply.
pub fn select_flat(
    view: &SelectView<'_>,
    policy: &SelectPolicy,
    now: SimTime,
    req: &UserRequest,
    client_ip: Ip,
) -> Vec<Endpoint> {
    let Some(creq) = CompiledRequest::new(view.templates, req.option.template, &req.detail, false)
    else {
        return Vec::new();
    };
    let client_mon = view.group_map.get(&client_ip).copied();
    let mut qualified: Vec<Candidate> = view
        .sysdb
        .iter()
        .filter_map(|(&ip, t)| consider_row(view, policy, now, &creq, client_mon, ip, t).ok())
        .collect();
    qualified.sort_by(best_first);
    qualified.truncate(reply_cap(req.server_num));
    endpoints(qualified)
}

/// Does a user host designator (IP, domain or bare name) refer to this
/// server's report?
fn designates(designator: &NetAddr, report: &ServerStatusReport) -> bool {
    match designator {
        NetAddr::Ip(ip) => *ip == report.ip,
        NetAddr::Name(name) => report.host.matches(name),
    }
}

/// Parse the `#!rank <var> [asc|desc]` directive, if present: the
/// variable, resolved, and whether larger is better. Ranking by a name
/// that is not a server variable would give every candidate the same
/// value, so it is no directive.
pub(crate) fn parse_rank_directive(detail: &str) -> Option<(ServerVar, bool)> {
    for line in detail.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("#!rank") {
            let mut it = rest.split_ascii_whitespace();
            let var = ServerVar::from_name(it.next()?)?;
            let descending = match it.next() {
                Some("asc") => false,
                Some("desc") | None => true,
                Some(_) => return None,
            };
            return Some((var, descending));
        }
    }
    None
}

/// What [`WizardEngine::handle`] made of one datagram.
#[derive(Debug, Clone, PartialEq)]
pub enum Ingest {
    /// A probe status report, upserted for this server address.
    Report(Ip),
    /// A datagram with the report magic that failed to parse.
    BadReport(IngestError),
    /// A user request, answered with this reply (already sent).
    Replied { reply: WizardReply, to: Endpoint },
    /// Neither a report nor a decodable request: a poll, say, or an outcome.
    BadRequest,
}

/// One input to [`WizardEngine::step`]: all a wizard ever reacts to.
#[derive(Clone, Copy, Debug)]
pub enum Input<'a> {
    /// A datagram on the wizard's port (1120 of Table 4.2).
    Datagram { from: Endpoint, bytes: &'a [u8] },
    /// The stale sweep is due.
    Tick,
}

/// What [`WizardEngine::step`] made of its input: what a backend counts of
/// it, and the one frame to send, if any.
#[derive(Debug, PartialEq)]
pub enum Stepped {
    /// Nothing to send or count: a tick, an outcome report, a refused datagram.
    Quiet,
    /// A status report, ingested.
    Report,
    /// A request, matched: send this [`WizardReply`] frame, counted in
    /// `wizard-replies`; a failed send is the backend's to count, in
    /// `wizard-reply-send-errors`.
    Reply(Endpoint, Vec<u8>),
    /// A stats poll: send this [`StatsReply`] frame, the summary lines the
    /// telemetry ends with, this poll counted in them.
    Stats(Endpoint, Vec<u8>),
}

/// The magics that tell a stats poll and a status report from a request.
const MAGICS: [&str; 2] = [StatsRequest::ASCII_MAGIC, ServerStatusReport::ASCII_MAGIC];

/// Whether a request under `seq` starts with a magic, and so would never be
/// answered: its first four bytes are the little-endian `seq`.
pub(crate) fn spells_a_magic(seq: u32) -> bool {
    MAGICS.iter().any(|magic| magic.as_bytes() == seq.to_le_bytes())
}

/// Whether [`WizardEngine::step`] answers these bytes as a user request:
/// they start with no magic and decode as one.
pub(crate) fn is_request(payload: &[u8]) -> bool {
    !MAGICS.iter().any(|magic| payload.starts_with(magic.as_bytes()))
        && UserRequest::decode(payload).is_ok()
}

/// What the engine's one core, [`WizardEngine::take`], did with an input:
/// what `step` writes down as telemetry and the wrappers pass on.
enum Took {
    Poll(Endpoint, Option<StatsRequest>),
    Outcome(Vec<Transition>),
    Report { ip: Ip, bytes: usize },
    BadReport(IngestError),
    Matched { reply: WizardReply, to: Endpoint, stats: SelectStats, quarantined: usize },
    BadRequest,
    Swept { transitions: Vec<Transition>, by_shard: Vec<(SubnetKey, Vec<Ip>)> },
}

/// The wizard daemon's state and behaviour, minus sockets and timers: the
/// demux the paper's co-hosted daemons perform (§4.3), the shared
/// [`select`] core, outcome-fed health scores and the stale sweep. `Send`,
/// so a live daemon thread can own it.
pub struct WizardEngine {
    ip: Ip,
    /// `ip` rendered once: the host label of every record.
    host: String,
    dbs: StatusDbs,
    /// Server health scores fed by client outcome reports (DESIGN.md §11).
    health: HealthTable,
    /// host ip → its group's network-monitor ip (for `monitor_*` vars).
    group_map: BTreeMap<Ip, Ip>,
    templates: BTreeMap<u8, String>,
    /// Compiled requests by what compiles them, `None` where nothing does.
    compiled: BTreeMap<(Option<u8>, String), Option<CompiledRequest>>,
    policy: SelectPolicy,
}

impl WizardEngine {
    /// An engine over empty status databases.
    pub fn new(ip: Ip, policy: SelectPolicy) -> WizardEngine {
        WizardEngine {
            ip,
            host: ip.to_string(),
            dbs: StatusDbs::default(),
            health: HealthTable::default(),
            group_map: BTreeMap::new(),
            templates: crate::templates::defaults(),
            compiled: BTreeMap::new(),
            policy,
        }
    }

    /// The request endpoint (port 1120 of Table 4.2), used as the reply
    /// source address.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::new(self.ip, ports::WIZARD)
    }

    /// Register a requirement template usable via the request option field.
    pub fn add_template(&mut self, id: u8, text: impl Into<String>) {
        self.templates.insert(id, text.into());
        self.compiled.clear(); // a template is part of what it compiles to
    }

    /// Register which network monitor serves a host's group.
    pub fn map_group(&mut self, host: Ip, monitor: Ip) {
        self.group_map.insert(host, monitor);
    }

    /// Number of live server records.
    pub fn live_servers(&self) -> usize {
        self.dbs.sys.len()
    }

    pub fn policy(&self) -> &SelectPolicy {
        &self.policy
    }

    /// The health-score table, for harnesses and experiments.
    pub fn health(&self) -> &HealthTable {
        &self.health
    }

    /// The status databases, for harnesses that read them.
    pub fn dbs(&self) -> &StatusDbs {
        &self.dbs
    }

    /// The status databases, for the receiver and for harnesses that fill
    /// them directly.
    pub fn dbs_mut(&mut self) -> &mut StatusDbs {
        &mut self.dbs
    }

    /// The [`SelectView`] every match runs against (beside [`Self::policy`]).
    pub fn view(&self) -> SelectView<'_> {
        SelectView {
            sysdb: &self.dbs.sys,
            netdb: &self.dbs.net,
            secdb: &self.dbs.sec,
            health: &self.health,
            group_map: &self.group_map,
            templates: &self.templates,
        }
    }

    /// Take one input and write the telemetry owed for it — the one place
    /// the wizard's counter, span and event names are emitted, for either
    /// backend — and hand back the frame to send, if any. Records are
    /// stamped with `tel`'s own clock, which its owner keeps at `now`.
    pub fn step(&mut self, now: SimTime, input: Input<'_>, tel: &mut Telemetry) -> Stepped {
        let took = self.take(now, input);
        let host = self.host.as_str();
        match took {
            Took::Poll(from, poll) => {
                tel.counter_incr("wizard-stats-requests");
                if let Some(StatsRequest { seq }) = poll {
                    let lines = tel.summary_tail();
                    let reply = StatsReply { seq, now_ns: now.0, truncated: false, lines };
                    return Stepped::Stats(from, reply.encode());
                }
            }
            Took::Outcome(transitions) => {
                tel.counter_incr("wizard-outcome-reports");
                record_transitions(tel, host, &transitions);
            }
            Took::Report { bytes, .. } => {
                tel.counter_incr("sysmon-reports");
                tel.counter_add("sysmon-bytes", bytes as u64);
                return Stepped::Report;
            }
            Took::BadReport(_) => tel.counter_incr("sysmon-bad-reports"),
            Took::Matched { reply, to, stats, quarantined } => {
                tel.counter_incr("wizard-requests");
                let span = tel.span_start("wizard-match", host);
                let scanned = stats.shards_total - stats.shards_pruned;
                tel.counter_add("wizard-shards-scanned", scanned as u64);
                tel.counter_add("wizard-shards-pruned", stats.shards_pruned as u64);
                tel.counter_add("wizard-rows-evaluated", stats.rows_evaluated as u64);
                if quarantined > 0 {
                    tel.counter_add("wizard-quarantined-assignments", quarantined as u64);
                }
                tel.counter_incr("wizard-replies");
                tel.counter_add("wizard-reply-servers", reply.servers.len() as u64);
                tel.span_end(span);
                return Stepped::Reply(to, reply.encode());
            }
            Took::BadRequest => tel.counter_incr("wizard-bad-requests"),
            Took::Swept { transitions, by_shard } => {
                record_transitions(tel, host, &transitions);
                // The global eviction counter keeps its pre-sharding
                // meaning: total addresses that went dark this sweep,
                // however they distribute over shards.
                let total: u64 = by_shard.iter().map(|(_, evicted)| evicted.len() as u64).sum();
                if total > 0 {
                    tel.counter_add("wizard-stale-evictions", total);
                }
                for ([a, b, c], evicted) in &by_shard {
                    tel.event(
                        "status-db-shard-swept",
                        host,
                        &[
                            ("subnet", &format!("{a}.{b}.{c}.0/24")),
                            ("evicted", &evicted.len().to_string()),
                        ],
                    );
                    for ip in evicted {
                        tel.event(
                            "status-db-expired",
                            host,
                            &[("db", "wizard-sysdb"), ("server", &ip.to_string())],
                        );
                    }
                }
            }
        }
        Stepped::Quiet
    }

    /// [`Self::step`] on a datagram, without its telemetry, replying
    /// through `t`. Only `benchmark/` calls it; ROADMAP's real-daemon
    /// benchmark item removes it.
    pub fn handle<T: Transport>(
        &mut self,
        t: &mut T,
        from: Endpoint,
        payload: &[u8],
    ) -> Result<Ingest, TransportError> {
        Ok(match self.take(SimTime(t.now_ns()), Input::Datagram { from, bytes: payload }) {
            Took::Report { ip, .. } => Ingest::Report(ip),
            Took::BadReport(e) => Ingest::BadReport(e),
            Took::Matched { reply, to, .. } => {
                t.send(self.endpoint(), to, &reply.encode())?;
                Ingest::Replied { reply, to }
            }
            _ => Ingest::BadRequest,
        })
    }

    /// [`Self::step`] on a tick, without its telemetry: exactly which
    /// addresses went dark. Only `benchmark/` calls it; ROADMAP's
    /// real-daemon benchmark item removes it.
    pub fn sweep(&mut self, now: SimTime) -> Vec<Ip> {
        let Took::Swept { by_shard, .. } = self.take(now, Input::Tick) else { return Vec::new() };
        by_shard.into_iter().flat_map(|(_, evicted)| evicted).collect()
    }

    /// The one core behind [`Self::step`] and the wrappers.
    ///
    /// A datagram is told apart by magic and length before any decode:
    /// anything starting with `SSQ1` is a stats poll, exactly 7 bytes that
    /// decode as an [`OutcomeReport`] feed the health table, `SSR1…` is a
    /// probe status report, and the rest is decoded as a user request —
    /// the single-socket monitor+wizard loop.
    ///
    /// A tick is the stale sweep: time-based health transitions
    /// (quarantine → probation → healthy, shown even when no outcome report
    /// arrives for the host), then eviction of rows past the staleness
    /// window. Each table pops only what is due off its deadline set: one
    /// comparison each with nothing due, cheap enough per datagram (live).
    fn take(&mut self, now: SimTime, input: Input<'_>) -> Took {
        let Input::Datagram { from, bytes: payload } = input else {
            let transitions = self.health.poll(now);
            let expire = |age| self.dbs.sys.expire_by_shard(now, age);
            let by_shard = self.policy.stale_max_age.map_or_else(Vec::new, expire);
            return Took::Swept { transitions, by_shard };
        };
        if payload.starts_with(StatsRequest::ASCII_MAGIC.as_bytes()) {
            return Took::Poll(from, StatsRequest::decode(payload).ok());
        }
        if payload.len() == OutcomeReport::LEN {
            if let Ok(rep) = OutcomeReport::decode(payload) {
                return Took::Outcome(self.health.record(rep.server, rep.outcome, now));
            }
        }
        if payload.starts_with(ServerStatusReport::ASCII_MAGIC.as_bytes()) {
            return match ingest_ascii(&mut self.dbs.sys, payload, now) {
                Ok(ip) => Took::Report { ip, bytes: payload.len() },
                Err(e) => Took::BadReport(e),
            };
        }
        let Ok(UserRequest { seq, server_num, option, detail }) = UserRequest::decode(payload)
        else {
            return Took::BadRequest;
        };
        // Reports only widen shard summaries; the one reader makes them exact.
        self.dbs.sys.tighten();
        // A client resends its requirement with every request: compile each one once.
        let mut compiled = std::mem::take(&mut self.compiled); // lent while view() borrows self
        let key = (option.template, detail);
        if compiled.len() >= COMPILED_CAP && !compiled.contains_key(&key) {
            compiled.clear();
        }
        let creq = compiled.entry(key).or_insert_with_key(|(id, detail)| {
            CompiledRequest::new(&self.templates, *id, detail, true)
        });
        let (servers, stats) =
            select_compiled(&self.view(), &self.policy, now, creq.as_ref(), server_num, from.ip);
        self.compiled = compiled;
        // Invariant accounting: select() must never hand out a quarantined
        // server. The count exists so the hostile.* shapes can assert it
        // stays at zero rather than trusting the exclusion by inspection.
        let quarantined = servers
            .iter()
            .filter(|ep| self.health.effective_state(ep.ip, now) == StateKind::Quarantined)
            .count();
        Took::Matched { reply: WizardReply { seq, servers }, to: from, stats, quarantined }
    }
}

/// Emit telemetry for a batch of quarantine state-machine transitions.
fn record_transitions(tel: &mut Telemetry, host: &str, transitions: &[Transition]) {
    for t in transitions {
        tel.event(
            "health-transition",
            host,
            &[("server", &t.ip.to_string()), ("from", t.from.label()), ("to", t.to.label())],
        );
        match t.to {
            StateKind::Quarantined => tel.counter_incr("health-quarantines"),
            StateKind::Probation => tel.counter_incr("health-probations"),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientEngine, Entropy, Input as ClientInput, Output, RequestSpec};
    use smartsock_proto::{
        NetPathRecord, OutcomeKind, RequestOption, SecurityRecord, MAX_SERVERS_PER_REPLY,
    };
    use smartsock_sim::rng::{cases, SimRng};

    struct NullTransport {
        now: u64,
        sent: Vec<(Endpoint, Vec<u8>)>,
    }

    impl Transport for NullTransport {
        fn now_ns(&self) -> u64 {
            self.now
        }
        fn send(
            &mut self,
            _from: Endpoint,
            to: Endpoint,
            payload: &[u8],
        ) -> Result<(), TransportError> {
            self.sent.push((to, payload.to_vec()));
            Ok(())
        }
    }

    fn report(name: &str, last: u8, cpu_idle: f64) -> ServerStatusReport {
        let mut r = ServerStatusReport::empty(name, Ip::new(10, 0, 1, last));
        r.cpu_idle = cpu_idle;
        r.mem_free = 200 << 20;
        r
    }

    fn engine() -> WizardEngine {
        WizardEngine::new(Ip::new(10, 0, 0, 1), SelectPolicy::default())
    }

    const CLIENT: Endpoint = Endpoint::new(CLIENT_IP, 40001);

    /// A datagram from [`CLIENT`].
    fn from_client(bytes: &[u8]) -> Input<'_> {
        Input::Datagram { from: CLIENT, bytes }
    }

    /// The reply `step` handed back, decoded; it must go to [`CLIENT`].
    fn reply(got: Stepped) -> WizardReply {
        let Stepped::Reply(to, frame) = got else { panic!("expected a reply, got {got:?}") };
        assert_eq!(to, CLIENT);
        WizardReply::decode(&frame).unwrap()
    }

    #[test]
    fn demux_ingests_reports_and_answers_requests() {
        let mut e = engine();
        let mut tel = Telemetry::new();
        for (name, last, idle) in [("idle1", 1, 0.97), ("busy", 2, 0.10), ("idle2", 3, 0.95)] {
            let wire = report(name, last, idle).encode_ascii();
            assert_eq!(
                e.step(SimTime::ZERO, from_client(wire.as_bytes()), &mut tel),
                Stepped::Report
            );
        }
        assert_eq!(e.live_servers(), 3);

        let req = UserRequest {
            seq: 0xabcd,
            server_num: 5,
            option: RequestOption::DEFAULT,
            detail: "host_cpu_free > 0.9\n".to_owned(),
        };
        let got = reply(e.step(SimTime::ZERO, from_client(&req.encode()), &mut tel));
        assert_eq!(got.seq, 0xabcd);
        assert_eq!(ips(&got.servers), vec![Ip::new(10, 0, 1, 1), Ip::new(10, 0, 1, 3)]);
    }

    #[test]
    fn bad_datagrams_are_classified_not_dropped_silently() {
        let mut e = engine();
        let mut tel = Telemetry::new();
        for bytes in [&b"SSR1 this is not a report"[..], b"xy"] {
            assert_eq!(e.step(SimTime::ZERO, from_client(bytes), &mut tel), Stepped::Quiet);
        }
        assert_eq!(tel.counter("sysmon-bad-reports"), 1);
        assert_eq!(tel.counter("wizard-bad-requests"), 1);
    }

    #[test]
    fn stale_records_expire_via_sweep_and_are_skipped_by_select() {
        let mut e = engine();
        let mut tel = Telemetry::new();
        let old = report("old", 1, 0.95).encode_ascii();
        e.step(SimTime::ZERO, from_client(old.as_bytes()), &mut tel);
        let now = SimTime::from_secs(8);
        e.step(now, from_client(report("new", 2, 0.95).encode_ascii().as_bytes()), &mut tel);

        // At t = 8 s the t=0 record is 8 s old (> 6 s window): selection
        // skips it even before any sweep runs.
        let got = reply(e.step(now, from_client(&user_request("", 5).encode()), &mut tel));
        assert_eq!(ips(&got.servers), vec![Ip::new(10, 0, 1, 2)]);
        // And the tick evicts it for good.
        assert_eq!(e.step(now, Input::Tick, &mut tel), Stepped::Quiet);
        assert_eq!(e.live_servers(), 1);
        assert_eq!(tel.event_count_where("status-db-expired", "server", "10.0.1.1"), 1);
    }

    /// `step` writes what each input owes, once: a tick with nothing due
    /// writes nothing.
    #[test]
    fn record_emits_each_call_once() {
        let mut e = engine();
        let mut tel = Telemetry::new();
        let wire = report("idle", 1, 0.95).encode_ascii();
        e.step(SimTime::ZERO, from_client(wire.as_bytes()), &mut tel);
        assert_eq!(tel.counter("sysmon-reports"), 1);
        assert_eq!(tel.counter("sysmon-bytes"), wire.len() as u64);

        let req = user_request("host_cpu_free > 0.9\n", 5).encode();
        e.step(SimTime::ZERO, from_client(&req), &mut tel);
        e.step(SimTime::ZERO, from_client(b"xy"), &mut tel);
        assert_eq!(tel.counter("wizard-requests"), 1);
        assert_eq!(tel.counter("wizard-replies"), 1);
        assert_eq!(tel.counter("wizard-reply-servers"), 1);
        assert_eq!(tel.counter("wizard-rows-evaluated"), 1);
        assert_eq!(tel.counter("wizard-shards-scanned"), 1);
        assert_eq!(tel.counter("wizard-bad-requests"), 1);
        assert_eq!(tel.span_durations_ns("wizard-match").len(), 1, "garbage opens no span");

        for _ in 0..2 {
            e.step(SimTime::from_secs(60), Input::Tick, &mut tel);
        }
        assert_eq!(
            tel.counter("wizard-stale-evictions"),
            1,
            "a tick with nothing due writes nothing"
        );
        assert_eq!(tel.event_count("status-db-shard-swept"), 1);
        assert_eq!(tel.event_count("status-db-expired"), 1);
    }

    /// `step` tells a poll (answered) and an outcome report from the
    /// reports and requests `handle` also takes.
    #[test]
    fn datagram_tells_polls_and_outcome_reports_from_what_handle_takes() {
        let mut e = engine();
        let mut tel = Telemetry::new();
        let now = SimTime::from_secs(3);
        let mut take =
            |e: &mut WizardEngine, bytes: &[u8]| e.step(now, from_client(bytes), &mut tel);
        let Stepped::Stats(to, frame) = take(&mut e, &StatsRequest { seq: 9 }.encode()) else {
            panic!("a poll is answered")
        };
        let poll = StatsReply::decode(&frame).unwrap();
        assert_eq!((to, poll.seq, poll.now_ns), (CLIENT, 9, now.0));
        let counted = r#"{"t":"counter","name":"wizard-stats-requests","value":1}"#;
        assert!(poll.lines.lines().any(|l| l == counted), "the poll is in its own lines");
        assert_eq!(take(&mut e, b"SSQ1 no poll"), Stepped::Quiet);
        let rep = OutcomeReport { server: Ip::new(10, 0, 1, 1), outcome: OutcomeKind::Timeout };
        assert_eq!(take(&mut e, &rep.encode()), Stepped::Quiet);
        let mut bad = rep.encode();
        bad[4] = 9; // no such outcome kind: a 7-byte datagram that is no report
        assert_eq!(take(&mut e, &bad), Stepped::Quiet);
        let wire = report("idle", 1, 0.95).encode_ascii();
        assert_eq!(take(&mut e, wire.as_bytes()), Stepped::Report);
        reply(take(&mut e, &user_request("", 1).encode()));
        assert_eq!(tel.counter("wizard-stats-requests"), 2);
        assert_eq!(tel.counter("wizard-outcome-reports"), 1);
        assert_eq!(tel.counter("wizard-bad-requests"), 1);
        assert_eq!(tel.counter("wizard-requests"), 1);
        assert_eq!(tel.counter("sysmon-reports"), 1);
    }

    /// `handle` and `sweep`, which only the benchmark calls, are `step`
    /// without its telemetry: one sequence of reports (new and
    /// overwriting), requests, outcome reports, a poll, garbage and ticks,
    /// fed to one engine through `step` and to its twin through the
    /// wrappers, leaves the same reply bytes, evictions and rows after every
    /// input. (A poll is answered by `step` alone: it is no request.)
    #[test]
    fn handle_and_sweep_are_step_without_its_telemetry() {
        let (mut stepped, mut wrapped) = (engine(), engine());
        let mut tel = Telemetry::new();
        let up = |name, last, idle| Some(report(name, last, idle).encode_ascii().into_bytes());
        let ask = |detail: &str, n| Some(user_request(detail, n).encode().to_vec());
        let timeout = OutcomeReport { server: Ip::new(10, 0, 1, 2), outcome: OutcomeKind::Timeout };
        // A row in a second /24, so that a tick evicts from two shards.
        let mut far = report("d", 1, 0.95);
        far.ip = Ip::new(10, 0, 2, 1);
        let inputs = [
            (0, up("a", 1, 0.95)),
            (0, up("b", 2, 0.95)),
            (0, up("c", 3, 0.50)),
            (0, Some(far.encode_ascii().into_bytes())),
            (1, ask("host_cpu_free > 0.9\n", 5)),
            (2, up("a", 1, 0.10)),
            (2, ask("host_cpu_free > 0.9\n", 5)),
            (3, Some(timeout.encode().to_vec())),
            (3, Some(timeout.encode().to_vec())),
            (4, Some(b"xy".to_vec())),
            (4, Some(b"SSR1 not a report".to_vec())),
            (4, Some(StatsRequest { seq: 3 }.encode().to_vec())),
            (5, ask("", 60)),
            (5, ask("+++ ~~~", 5)),
            (7, None),
            (7, ask("", 60)),
            (12, up("b", 2, 0.95)),
            (20, None),
            (20, ask("", 60)),
        ];
        for (secs, bytes) in inputs {
            let now = SimTime::from_secs(secs);
            let mut t = NullTransport { now: now.0, sent: Vec::new() };
            match bytes {
                Some(bytes) => {
                    let sent = match stepped.step(now, from_client(&bytes), &mut tel) {
                        Stepped::Reply(to, frame) => vec![(to, frame.to_vec())],
                        _ => Vec::new(),
                    };
                    wrapped.handle(&mut t, CLIENT, &bytes).unwrap();
                    assert_eq!(t.sent, sent, "replies at {secs} s");
                }
                None => {
                    let before = tel.counter("wizard-stale-evictions");
                    stepped.step(now, Input::Tick, &mut tel);
                    let evicted = tel.counter("wizard-stale-evictions") - before;
                    assert_eq!(wrapped.sweep(now).len() as u64, evicted, "evictions at {secs} s");
                }
            }
            assert_eq!(stepped.live_servers(), wrapped.live_servers(), "rows at {secs} s");
        }
        assert_eq!(tel.counter("health-quarantines"), 1);
        assert_eq!(tel.counter("wizard-stale-evictions"), 5);
    }

    /// A request whose `seq` spells `SSR1` would be taken for a status
    /// report, one that spells `SSQ1` for a stats poll, and neither
    /// answered: the client library draws neither.
    #[test]
    fn a_drawn_seq_that_spells_a_magic_is_drawn_again() {
        struct Scripted(Vec<u32>);
        impl Entropy for Scripted {
            fn draw(&mut self) -> u32 {
                self.0.remove(0)
            }
            fn jitter(&mut self) -> f64 {
                0.0
            }
        }
        let client = Endpoint::new(CLIENT_IP, 47000);
        let spec = RequestSpec::new("", 1);
        for magic in [*b"SSR1", *b"SSQ1"] {
            let mut e = engine();
            e.dbs.sys.upsert(report("srv", 1, 0.95), SimTime::ZERO);
            let mut c = ClientEngine::new(client, e.endpoint());
            let mut dice = Scripted(vec![u32::from_le_bytes(magic), 7]);
            let seq = dice.seq();
            let start = ClientInput::Start(&spec, seq);
            let request = c.step(SimTime::ZERO, start, &mut dice, None).frame.unwrap();
            let input = Input::Datagram { from: client, bytes: &request };
            let Stepped::Reply(_, reply) = e.step(SimTime::ZERO, input, &mut Telemetry::new())
            else {
                panic!("the request is answered")
            };
            let input = ClientInput::Datagram { from: e.endpoint(), bytes: &reply };
            let [Some(Output::Resolved(7, Ok(servers))), ..] =
                c.step(SimTime::ZERO, input, &mut dice, None).outputs
            else {
                panic!("the reply resolves the request")
            };
            assert_eq!(ips(&servers), [Ip::new(10, 0, 1, 1)]);
        }
    }

    // ---- selection behaviour, through the engine ---------------------

    const CLIENT_IP: Ip = Ip::new(10, 0, 0, 2);

    fn upsert(e: &mut WizardEngine, r: ServerStatusReport, at: SimTime) {
        e.dbs.sys.upsert(r, at);
    }

    fn ips(servers: &[Endpoint]) -> Vec<Ip> {
        servers.iter().map(|ep| ep.ip).collect()
    }

    impl WizardEngine {
        fn select(&self, now: SimTime, req: &UserRequest, client_ip: Ip) -> Vec<Endpoint> {
            select(&self.view(), &self.policy, now, req, client_ip)
        }
    }

    #[test]
    fn denied_hosts_are_excluded_even_when_qualified() {
        let mut e = engine();
        upsert(&mut e, report("titan-x", 1, 0.95), SimTime::ZERO);
        upsert(&mut e, report("dione", 2, 0.95), SimTime::ZERO);
        // The last designator is resolved once, lower-cased, and still
        // names the row by its short name.
        let designators = [("titan-x", 2), ("10.0.1.2", 1), ("TITAN-X.COMP.NUS.EDU.SG", 2)];
        for (designator, survivor) in designators {
            let req = user_request(
                &format!("host_cpu_free > 0.5\nuser_denied_host1 = {designator}\n"),
                5,
            );
            let got = e.select(SimTime::ZERO, &req, CLIENT_IP);
            assert_eq!(ips(&got), vec![Ip::new(10, 0, 1, survivor)], "denied {designator}");
            assert_eq!(got[0].port, ports::SERVICE);
        }
    }

    #[test]
    fn preferred_hosts_come_first() {
        let mut e = engine();
        for (name, last) in [("alpha", 1u8), ("beta", 2), ("gamma", 3)] {
            upsert(&mut e, report(name, last, 0.95), SimTime::ZERO);
        }
        let req = user_request("host_cpu_free > 0.5\nuser_preferred_host1 = gamma\n", 3);
        let got = e.select(SimTime::ZERO, &req, CLIENT_IP);
        assert_eq!(got[0].ip, Ip::new(10, 0, 1, 3), "preferred host leads");
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn empty_requirement_returns_everything_up_to_the_cap() {
        let mut e = engine();
        for i in 0..70u8 {
            upsert(&mut e, report(&format!("s{i}"), i, 0.95), SimTime::ZERO);
        }
        let got = e.select(SimTime::ZERO, &user_request("", 100), CLIENT_IP);
        assert_eq!(got.len(), MAX_SERVERS_PER_REPLY);
        assert_eq!(e.select(SimTime::ZERO, &user_request("", 3), CLIENT_IP).len(), 3);
    }

    #[test]
    fn quarantined_servers_are_excluded_until_probation() {
        let never_stale = SelectPolicy { stale_max_age: None, ..Default::default() };
        let mut e = WizardEngine::new(Ip::new(10, 0, 0, 1), never_stale);
        let good = Ip::new(10, 0, 1, 1);
        let flaky = Ip::new(10, 0, 1, 2);
        upsert(&mut e, report("good", 1, 0.95), SimTime::ZERO);
        upsert(&mut e, report("flaky", 2, 0.95), SimTime::ZERO);
        for at in [1, 2] {
            let rep = OutcomeReport { server: flaky, outcome: OutcomeKind::Timeout }.encode();
            e.step(SimTime::from_secs(at), from_client(&rep), &mut Telemetry::new());
        }
        // While quarantined: never offered, even though its record is live.
        let got = e.select(SimTime::from_secs(3), &user_request("", 5), CLIENT_IP);
        assert_eq!(ips(&got), vec![good]);
        // Quarantine (8 s from t=2) expires into probation: selectable
        // again, but its low score orders it after the clean server.
        let got = e.select(SimTime::from_secs(11), &user_request("", 5), CLIENT_IP);
        assert_eq!(ips(&got), vec![good, flaky]);
    }

    #[test]
    fn fresher_rows_outrank_staler_rows_unless_discount_disabled() {
        let stale = Ip::new(10, 0, 1, 1);
        let fresh = Ip::new(10, 0, 1, 2);
        // With the 6 s staleness window, a 4 s old row lands in a lower
        // freshness tier than a just-recorded one, overriding address
        // order; with the discount off both rows are "live" and address
        // order rules.
        for (age_discount, expected) in [(true, vec![fresh, stale]), (false, vec![stale, fresh])] {
            let policy = SelectPolicy { age_discount, ..Default::default() };
            let mut e = WizardEngine::new(Ip::new(10, 0, 0, 1), policy);
            upsert(&mut e, report("stale", 1, 0.95), SimTime::from_secs(6));
            upsert(&mut e, report("fresh", 2, 0.95), SimTime::from_secs(10));
            let got = e.select(SimTime::from_secs(10), &user_request("", 5), CLIENT_IP);
            assert_eq!(ips(&got), expected, "age_discount = {age_discount}");
        }
    }

    #[test]
    fn security_levels_flow_from_secdb() {
        let mut e = engine();
        for (name, last, level) in [("secure", 1u8, 5), ("sketchy", 2, 1)] {
            upsert(&mut e, report(name, last, 0.95), SimTime::ZERO);
            e.dbs.sec.upsert(SecurityRecord {
                host: name.into(),
                ip: Ip::new(10, 0, 1, last),
                level,
            });
        }
        let req = user_request("host_security_level >= 3\n", 5);
        assert_eq!(ips(&e.select(SimTime::ZERO, &req, CLIENT_IP)), vec![Ip::new(10, 0, 1, 1)]);
    }

    #[test]
    fn monitor_bandwidth_requirements_use_the_group_map() {
        let mut e = engine();
        let fast = Ip::new(10, 0, 1, 1);
        let slow = Ip::new(10, 0, 2, 1);
        let mon_client = Ip::new(10, 0, 0, 100);
        e.map_group(CLIENT_IP, mon_client);
        for (name, ip, bw_mbps) in [("fast", fast, 6.72), ("slow", slow, 1.33)] {
            upsert(&mut e, ServerStatusReport::empty(name, ip), SimTime::ZERO);
            let [a, b, c, _] = ip.octets();
            let to_monitor = Ip::new(a, b, c, 100);
            e.map_group(ip, to_monitor);
            e.dbs.net.upsert(NetPathRecord {
                from_monitor: mon_client,
                to_monitor,
                delay_ms: 0.5,
                bw_mbps,
                timestamp_ns: 0,
            });
        }
        // Table 5.7's requirement.
        let req = user_request("monitor_network_bw > 6\n", 5);
        assert_eq!(ips(&e.select(SimTime::ZERO, &req, CLIENT_IP)), vec![fast]);
    }

    #[test]
    fn rank_directive_orders_by_server_variable() {
        let mut e = engine();
        for (name, last, mem_mb) in [("small", 1u8, 64u64), ("big", 2, 400), ("mid", 3, 128)] {
            let mut r = report(name, last, 0.95);
            r.mem_free = mem_mb << 20;
            upsert(&mut e, r, SimTime::ZERO);
        }
        // "3 servers with largest memory" — the §6 wish, via the rank
        // directive extension.
        let req = user_request("#!rank host_memory_free desc\nhost_cpu_free > 0.5\n", 2);
        let got = e.select(SimTime::ZERO, &req, CLIENT_IP);
        assert_eq!(ips(&got), vec![Ip::new(10, 0, 1, 2), Ip::new(10, 0, 1, 3)], "largest first");
    }

    #[test]
    fn templates_prepend_requirements() {
        let mut e = engine();
        upsert(&mut e, report("weak", 1, 0.2), SimTime::ZERO);
        upsert(&mut e, report("strong", 2, 0.95), SimTime::ZERO);
        e.add_template(9, "host_cpu_free > 0.9");
        let req = UserRequest {
            option: RequestOption { accept_fewer: true, template: Some(9) },
            ..user_request("", 5)
        };
        assert_eq!(ips(&e.select(SimTime::ZERO, &req, CLIENT_IP)), vec![Ip::new(10, 0, 1, 2)]);
    }

    #[test]
    fn uncompilable_requirements_yield_empty_replies() {
        let mut e = engine();
        upsert(&mut e, report("x", 1, 0.95), SimTime::ZERO);
        assert!(e.select(SimTime::ZERO, &user_request("+++ ~~~", 5), CLIENT_IP).is_empty());
    }

    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<WizardEngine>();
    }

    // ---- shard-pruning equivalence ----------------------------------

    /// One request through both scans of the engine's view: the flat
    /// reference reply, the pruned reply, and the pruned walk's stats.
    fn both_scans(
        e: &WizardEngine,
        now: SimTime,
        req: &UserRequest,
    ) -> (Vec<Endpoint>, Vec<Endpoint>, SelectStats) {
        let (view, policy, client) = (e.view(), e.policy(), Ip::new(10, 0, 0, 254));
        let (pruned, stats) = select_with_stats(&view, policy, now, req, client);
        (select_flat(&view, policy, now, req, client), pruned, stats)
    }

    fn user_request(detail: &str, n: u16) -> UserRequest {
        UserRequest {
            seq: 1,
            server_num: n,
            option: RequestOption::DEFAULT,
            detail: detail.to_owned(),
        }
    }

    /// The requirement shapes the equivalence property samples from:
    /// empty, conjunctive, disjunctive, temp-var, untracked-variable,
    /// rank-directive, error-raising, tautological — and every edge of the
    /// screen: a test before and after an error, a screened test beside an
    /// unscreened one, `==`/`!=`, a lone `ServerBin` that is no test, and
    /// tests beside host lists (`{denied}`/`{preferred}` name fleet rows).
    const REQUIREMENTS: &[&str] = &[
        "",
        "host_cpu_free > 0.9\n",
        "host_cpu_free > 0.9\nhost_system_load1 < 1\n",
        "(host_cpu_bogomips > 4000) || (host_cpu_free > 0.95)\n",
        "host_memory_free > 100*1024*1024\n",
        "x = host_cpu_free * 2\nx > 1.8\n",
        "host_security_level >= 3\n",
        "#!rank host_memory_free desc\nhost_cpu_free > 0.5\n",
        "100 > 0\n",
        "x = 1 / 0\n",
        "host_cpu_free >= 0.5\nx = 1 / 0\n",
        "x = 1 / 0\nhost_cpu_free > 0.5\n",
        "host_cpu_free > 0.5\nhost_security_level >= 3\n",
        "host_cpu_free == 0.5\n",
        "host_cpu_free != 0.5\n",
        "host_cpu_free * 2\n",
        "host_cpu_free > 0.5\nuser_denied_host1 = {denied}\nuser_preferred_host1 = {preferred}\n",
    ];

    /// A row's idle share: uniform, or on a tenth, so that the `==`, `!=`
    /// and `>=` shapes meet their constant and `host_cpu_free * 2` meets 0.
    fn cpu_idle(rng: &mut SimRng) -> f64 {
        if rng.below(2) == 0 {
            rng.unit()
        } else {
            rng.below(11) as f64 / 10.0
        }
    }

    /// When a row was recorded, in seconds, for a request at t = 12 s:
    /// anywhere up to stale, or — as often — in the freshest tier, so that
    /// full score buckets, the ones the walk may stop on, are common.
    fn recorded_at(rng: &mut SimRng) -> u64 {
        if rng.below(2) == 0 {
            rng.below(12)
        } else {
            9 + rng.below(4)
        }
    }

    /// Outcome histories, one per generator draw below 4 (the other half
    /// report nothing): a completed assignment, one timeout (suspect), two
    /// old failures (on probation at t = 12 s) and two recent ones
    /// (quarantined) — so the last kept place sometimes has a score bucket
    /// below 1000.
    const OUTCOMES: &[&[(u64, OutcomeKind)]] = &[
        &[(11, OutcomeKind::Completed)],
        &[(11, OutcomeKind::Timeout)],
        &[(1, OutcomeKind::Timeout), (2, OutcomeKind::ConnectFailed)],
        &[(10, OutcomeKind::Timeout), (11, OutcomeKind::Timeout)],
    ];

    /// One generated host: subnet, last octet, when it was recorded, idle
    /// share, load, and (memory in MiB, security level, outcome history).
    type Host = (u8, u8, u64, f64, f64, (u64, u8, usize));

    /// One to 59 generated hosts.
    fn hosts(rng: &mut SimRng) -> Vec<Host> {
        let host = |rng: &mut SimRng| {
            let (subnet, last) = (rng.below(6) as u8, 1 + rng.below(249) as u8);
            let (at, idle, load) = (recorded_at(rng), cpu_idle(rng), rng.range(0.0..4.0));
            let rest = (1 + rng.below(511), rng.below(8) as u8, rng.below(8) as usize);
            (subnet, last, at, idle, load, rest)
        };
        (0..1 + rng.below(59)).map(|_| host(rng)).collect()
    }

    /// An engine holding `hosts`, and requirement shape `req_idx` with the
    /// first host denied and the one the walk reaches last preferred.
    fn fleet(hosts: &[Host], req_idx: usize) -> (WizardEngine, String) {
        let mut e = engine();
        for &(subnet, last, age, idle, load, (mem_mb, level, history)) in hosts {
            let ip = Ip::new(10, 0, subnet, last);
            let name = format!("h{subnet}-{last}");
            let mut r = ServerStatusReport::empty(name.as_str(), ip);
            r.cpu_idle = idle;
            r.load1 = load;
            r.mem_free = mem_mb << 20;
            r.bogomips = if subnet % 2 == 0 { 4771.02 } else { 1730.15 };
            upsert(&mut e, r, SimTime::from_secs(age));
            if level < 6 {
                let host = name.as_str().into();
                e.dbs.sec.upsert(SecurityRecord { host, ip, level: level.into() });
            }
            for &(at, outcome) in OUTCOMES.get(history).copied().unwrap_or_default() {
                e.health.record(ip, outcome, SimTime::from_secs(at));
            }
        }
        let first = hosts[0];
        let last = hosts.iter().max_by_key(|h| (h.0, h.1)).unwrap();
        let detail = REQUIREMENTS[req_idx]
            .replace("{denied}", &format!("10.0.{}.{}", first.0, first.1))
            .replace("{preferred}", &format!("H{}-{}", last.0, last.1));
        (e, detail)
    }

    /// Prune-then-descend, stopped once the reply settles, returns exactly
    /// what the flat per-row scan returns, for random fleets and every
    /// requirement shape, at every staleness and health mix.
    #[test]
    fn pruned_selection_is_identical_to_the_flat_scan() {
        cases("pruned_selection_is_identical_to_the_flat_scan", |rng| {
            let hosts = hosts(rng);
            let req_idx = rng.below(REQUIREMENTS.len() as u64) as usize;
            // Half the draws small, so the kept list often fills early.
            let server_num = if rng.below(2) == 0 { rng.below(20) } else { 1 + rng.below(4) };
            let (e, detail) = fleet(&hosts, req_idx);
            let req = user_request(&detail, server_num as u16);

            let (flat, pruned, stats) = both_scans(&e, SimTime::from_secs(12), &req);
            assert_eq!(&pruned, &flat);
            assert!(stats.rows_evaluated <= e.live_servers());
            assert!(stats.shards_pruned <= stats.shards_total);
            assert_eq!(stats.shards_total, e.dbs.sys.shard_count());
        });
    }

    /// `consider_row` names the first reason a row is out, in one order: for
    /// random fleets at t = 12 s and every requirement shape, the flat
    /// oracle's verdict on each row is read here without it — stale, else
    /// quarantined, else denied, else unqualified by the interpreter, else a
    /// candidate — and the walk's is `Screened` when a test on a report
    /// variable fails, else the oracle's, the same candidate included.
    #[test]
    fn a_row_is_out_for_the_first_reason_that_holds() {
        cases("a_row_is_out_for_the_first_reason_that_holds", |rng| {
            let (hosts, now) = (hosts(rng), SimTime::from_secs(12));
            for req_idx in 0..REQUIREMENTS.len() {
                let (e, detail) = fleet(&hosts, req_idx);
                let (view, policy) = (e.view(), e.policy());
                let window = policy.stale_max_age.unwrap();
                let requirement = compile(&detail).unwrap();
                // The tests on report variables: the ones the walk screens.
                let mut screen = requirement.tests().to_vec();
                screen.retain(|(var, _, _)| REPORT_VARS.get(var.index()).is_some());
                let [oracle, walk] = [false, true]
                    .map(|screened| CompiledRequest::new(view.templates, None, &detail, screened));
                let (oracle, walk) = (oracle.unwrap(), walk.unwrap());
                for (&ip, timed) in e.dbs.sys.iter() {
                    let report = &timed.report;
                    let security_level = e.dbs.sec.level_of(ip);
                    let sv =
                        ServerVars { report, security_level, net_record: None, same_group: false };
                    let expected = if now.since(timed.recorded_at) > window {
                        Some(Rejected::Stale)
                    } else if !e.health.selectable(ip, now) {
                        Some(Rejected::Quarantined)
                    } else if detail.contains(&format!("user_denied_host1 = {ip}\n")) {
                        Some(Rejected::Denied)
                    } else if !Evaluator::evaluate(&requirement, &sv).qualified {
                        Some(Rejected::Unqualified)
                    } else {
                        None
                    };
                    let verdict = |creq| consider_row(&view, policy, now, creq, None, ip, timed);
                    let flat = verdict(&oracle);
                    assert_eq!(flat.as_ref().err().copied(), expected, "{detail:?} at {ip}");
                    let fails = |&(var, op, c): &(ServerVar, BinOp, f64)| {
                        !holds(op, sv.lookup(var).unwrap(), c)
                    };
                    let walked =
                        if screen.iter().any(fails) { Err(Rejected::Screened) } else { flat };
                    assert_eq!(verdict(&walk), walked, "{detail:?} at {ip}");
                }
            }
        });
    }

    /// The compiled form the engine keeps is invisible: a request, and the
    /// same wire bytes again a second later, are each answered as the flat
    /// scan answers them at that time.
    #[test]
    fn a_repeated_request_is_answered_as_the_flat_scan_answers() {
        cases("a_repeated_request_is_answered_as_the_flat_scan_answers", |rng| {
            let hosts = hosts(rng);
            let req_idx = rng.below(REQUIREMENTS.len() as u64) as usize;
            let server_num = rng.below(20) as u16;
            let (mut e, detail) = fleet(&hosts, req_idx);
            let req = user_request(&detail, server_num);
            let wire = req.encode();
            for now in [12, 13].map(SimTime::from_secs) {
                let flat = select_flat(&e.view(), e.policy(), now, &req, CLIENT_IP);
                assert_eq!(reply_to(&mut e, now, &wire), flat);
            }
        });
    }

    /// The bounded selection is the head of the full sort: whatever arrives
    /// in whatever order, `offer` ends up keeping exactly what sorting every
    /// candidate and cutting would — ties in every key but the address
    /// included.
    #[test]
    fn streaming_selection_is_the_head_of_the_full_sort() {
        cases("streaming_selection_is_the_head_of_the_full_sort", |rng| {
            // Few distinct values per key (rank keys of both signs, as `asc`
            // and `desc` produce), so most candidates differ from some other
            // in nothing but the address; arrival order is the shuffle the
            // draw `at` induces.
            let mut arrivals: Vec<(u64, Candidate)> = (0..rng.below(200))
                .map(|i| {
                    let (preferred, score) = (rng.below(4) as usize, rng.below(3) as i64);
                    let (rank, at) = (rng.below(5) as i32 - 2, rng.next_u64());
                    let c = Candidate {
                        ip: Ip::new(10, 0, (i / 250) as u8, (i % 250) as u8),
                        preferred_rank: preferred.checked_sub(1),
                        score_bucket: 250 * score,
                        rank_key: f64::from(rank),
                    };
                    (at, c)
                })
                .collect();
            arrivals.sort_by_key(|(at, _)| *at);
            let cap = reply_cap([0, 1, 8, 60, 61, 1000][rng.below(6) as usize]);

            let mut best = Vec::new();
            for (_, c) in &arrivals {
                offer(&mut best, cap, c.clone());
                assert!(best.len() <= cap);
            }
            let mut all: Vec<Candidate> = arrivals.into_iter().map(|(_, c)| c).collect();
            all.sort_by(best_first);
            all.truncate(cap);
            assert_eq!(best, all);
        });
    }

    #[test]
    fn a_nan_report_is_refused_so_pruning_stays_equal_to_the_flat_scan() {
        // Regression: `"NaN".parse::<f64>()` is `Ok` and the shard range
        // summary skips NaN, so a NaN row used to sit outside its own
        // shard's `[lo, hi]` — the flat scan offered it (`NaN != 0.5`)
        // while the pruned walk ruled the whole /24 out on `[0.5, 0.5]`.
        let mut e = engine();
        let mut tel = Telemetry::new();
        let half = report("half", 1, 0.5).encode_ascii();
        assert_eq!(e.step(SimTime::ZERO, from_client(half.as_bytes()), &mut tel), Stepped::Report);
        let nan = report("nan", 2, 0.5).encode_ascii().replacen(" 0.500 ", " NaN ", 1);
        assert_eq!(e.step(SimTime::ZERO, from_client(nan.as_bytes()), &mut tel), Stepped::Quiet);
        assert_eq!(tel.counter("sysmon-bad-reports"), 1);
        assert_eq!(e.live_servers(), 1);

        let (flat, pruned, _) =
            both_scans(&e, SimTime::ZERO, &user_request("host_cpu_idle != 0.5\n", 5));
        assert_eq!(pruned, flat);
        assert!(flat.is_empty());
    }

    #[test]
    fn impossible_requirements_prune_every_shard() {
        let mut e = engine();
        for subnet in 0..4u8 {
            for last in 1..=20u8 {
                let mut r = ServerStatusReport::empty(
                    format!("b{subnet}-{last}").as_str(),
                    Ip::new(10, 1, subnet, last),
                );
                r.cpu_idle = 0.2; // cpu_free 0.2 everywhere
                r.mem_free = 64 << 20;
                upsert(&mut e, r, SimTime::ZERO);
            }
        }
        let (flat, got, stats) =
            both_scans(&e, SimTime::ZERO, &user_request("host_cpu_free > 0.9\n", 10));
        assert!(got.is_empty());
        assert_eq!(stats.shards_total, 4);
        assert_eq!(stats.shards_pruned, 4, "summary ranges rule out every shard");
        assert_eq!(stats.rows_evaluated, 0);
        assert_eq!(flat, got, "the flat scan agrees on the (empty) reply");
    }

    #[test]
    fn all_stale_shards_are_pruned_without_row_visits() {
        let mut e = engine(); // 6 s window
        for last in 1..=10u8 {
            let mut r =
                ServerStatusReport::empty(format!("old{last}").as_str(), Ip::new(10, 2, 0, last));
            r.cpu_idle = 0.95;
            upsert(&mut e, r, SimTime::ZERO); // all stale at t = 12 s
        }
        let mut fresh = ServerStatusReport::empty("fresh", Ip::new(10, 2, 1, 1));
        fresh.cpu_idle = 0.95;
        fresh.mem_free = 200 << 20;
        upsert(&mut e, fresh, SimTime::from_secs(11));

        let (flat, got, stats) = both_scans(&e, SimTime::from_secs(12), &user_request("", 60));
        assert_eq!(ips(&got), vec![Ip::new(10, 2, 1, 1)]);
        assert_eq!(stats.shards_pruned, 1, "the all-stale /24 is skipped wholesale");
        assert_eq!(stats.rows_evaluated, 1);
        assert_eq!(flat, got);
    }

    #[test]
    fn rows_the_screen_turns_away_still_count_as_evaluated() {
        let mut e = engine();
        let mut put = |subnet: u8, last: u8, idle: f64| {
            let mut r = ServerStatusReport::empty("h", Ip::new(10, 5, subnet, last));
            r.cpu_idle = idle;
            upsert(&mut e, r, SimTime::ZERO);
        };
        for last in 1..=8 {
            put(0, last, 0.2); // a busy /24: pruned on its summary
        }
        for (last, idle) in [(1, 0.95), (2, 0.5), (3, 0.97), (4, 0.1), (5, 0.91)] {
            put(1, last, idle); // both sides of the threshold
        }
        let (flat, got, stats) =
            both_scans(&e, SimTime::ZERO, &user_request("host_cpu_free > 0.9\n", 60));
        // Every row of the /24 the prune left, not only the ones that passed.
        assert_eq!(stats, SelectStats { shards_total: 2, shards_pruned: 1, rows_evaluated: 5 });
        let passing = [1, 3, 5].map(|last| Ip::new(10, 5, 1, last));
        assert_eq!(ips(&got), passing);
        assert_eq!(got, flat);
    }

    /// Five idle rows in each of `10.6.<subnet>.0/24`, recorded at t = 0.
    fn idle_subnets(e: &mut WizardEngine, subnets: std::ops::Range<u8>) {
        for subnet in subnets {
            for last in 1..=5 {
                let mut r = ServerStatusReport::empty("h", Ip::new(10, 6, subnet, last));
                r.cpu_idle = 0.95;
                upsert(e, r, SimTime::ZERO);
            }
        }
    }

    #[test]
    fn a_full_reply_of_top_scored_rows_stops_the_scan() {
        let mut e = engine();
        idle_subnets(&mut e, 0..3);
        // The first two rows fill the reply with full score buckets; every
        // later row could only tie them and lose on its address.
        let (flat, got, stats) =
            both_scans(&e, SimTime::ZERO, &user_request("host_cpu_free > 0.9\n", 2));
        assert_eq!(stats, SelectStats { shards_total: 3, shards_pruned: 2, rows_evaluated: 2 });
        assert_eq!(ips(&got), [1, 2].map(|last| Ip::new(10, 6, 0, last)));
        assert_eq!(got, flat);
    }

    #[test]
    fn a_probation_row_in_last_place_keeps_the_scan_going() {
        let never_stale = SelectPolicy { stale_max_age: None, ..Default::default() };
        let mut e = WizardEngine::new(Ip::new(10, 0, 0, 1), never_stale);
        idle_subnets(&mut e, 0..3);
        // 10.6.0.2 .. .5 are quarantined at t = 2 until t = 10, then on
        // probation: selectable, with a score bucket below 1000.
        for last in 2..=5 {
            for at in [1, 2] {
                e.health.record(
                    Ip::new(10, 6, 0, last),
                    OutcomeKind::Timeout,
                    SimTime::from_secs(at),
                );
            }
        }
        let now = SimTime::from_secs(11);
        assert_eq!(e.health.effective_state(Ip::new(10, 6, 0, 2), now), StateKind::Probation);
        // The first /24 fills the reply, but its last place is on probation,
        // so the walk goes on until a healthy row takes that place.
        let (flat, got, stats) = both_scans(&e, now, &user_request("host_cpu_free > 0.9\n", 2));
        assert_eq!(stats, SelectStats { shards_total: 3, shards_pruned: 1, rows_evaluated: 6 });
        assert_eq!(ips(&got), [Ip::new(10, 6, 0, 1), Ip::new(10, 6, 1, 1)]);
        assert_eq!(got, flat);
    }

    #[test]
    fn a_request_after_overwrites_prunes_without_a_sweep() {
        let mut e = engine();
        let mut tel = Telemetry::new();
        let probe = Endpoint::new(Ip::new(10, 0, 0, 3), 40000);
        let send = |e: &mut WizardEngine, subnet: u8, last: u8, idle: f64| {
            let mut r = ServerStatusReport::empty("h", Ip::new(10, 4, subnet, last));
            r.cpu_idle = idle;
            let wire = r.encode_ascii();
            let input = Input::Datagram { from: probe, bytes: wire.as_bytes() };
            assert_eq!(e.step(SimTime::ZERO, input, &mut Telemetry::new()), Stepped::Report);
        };
        // Two idle /24s; then every row of the first reports itself busy.
        for (subnet, rows) in [(0, 30), (1, 20)] {
            for last in 1..=rows {
                send(&mut e, subnet, last, 0.95);
            }
        }
        for last in 1..=30 {
            send(&mut e, 0, last, 0.10);
        }
        // No sweep since: the overwritten shard's summary still covers the
        // 0.95s that left, and would be descended into for nothing.
        let widened = e.dbs.sys.iter_shards().next().unwrap().1.summary().ranges.clone();
        assert_eq!(widened.range_of("host_cpu_free"), Some((0.10, 0.95)));

        let req = user_request("host_cpu_free > 0.9\n", 60);
        let got = reply(e.step(SimTime::ZERO, from_client(&req.encode()), &mut tel));
        let scanned = ["wizard-shards-scanned", "wizard-shards-pruned", "wizard-rows-evaluated"];
        assert_eq!(scanned.map(|name| tel.counter(name)), [1, 1, 20]);
        let flat = select_flat(&e.view(), e.policy(), SimTime::ZERO, &req, CLIENT_IP);
        assert_eq!(got.servers, flat);
        assert_eq!(got.servers.len(), 20);
    }

    #[test]
    fn a_request_for_no_servers_visits_no_row() {
        let mut e = engine();
        idle_subnets(&mut e, 0..3);
        let (flat, got, stats) =
            both_scans(&e, SimTime::ZERO, &user_request("host_cpu_free > 0.9\n", 0));
        assert_eq!(stats, SelectStats { shards_total: 3, shards_pruned: 3, rows_evaluated: 0 });
        assert!(got.is_empty());
        assert_eq!(got, flat);
    }

    // ---- the compiled requests the engine keeps ----------------------

    /// The servers of the engine's reply to `wire`, sent by the client at `now`.
    fn reply_to(e: &mut WizardEngine, now: SimTime, wire: &[u8]) -> Vec<Endpoint> {
        reply(e.step(now, from_client(wire), &mut Telemetry::new())).servers
    }

    /// `weak` (10.0.1.1, cpu free 0.2) and `strong` (10.0.1.2, 0.95).
    fn weak_and_strong() -> (WizardEngine, Ip, Ip) {
        let mut e = engine();
        upsert(&mut e, report("weak", 1, 0.2), SimTime::ZERO);
        upsert(&mut e, report("strong", 2, 0.95), SimTime::ZERO);
        (e, Ip::new(10, 0, 1, 1), Ip::new(10, 0, 1, 2))
    }

    fn with_template(id: Option<u8>, detail: &str) -> Vec<u8> {
        let option = RequestOption { accept_fewer: true, template: id };
        UserRequest { option, ..user_request(detail, 5) }.encode().to_vec()
    }

    #[test]
    fn a_redefined_template_changes_the_reply_to_the_same_bytes() {
        let (mut e, weak, strong) = weak_and_strong();
        let wire = with_template(Some(9), "host_memory_free > 0\n");
        e.add_template(9, "host_cpu_free > 0.9");
        assert_eq!(ips(&reply_to(&mut e, SimTime::ZERO, &wire)), [strong]);
        e.add_template(9, "host_cpu_free < 0.5");
        assert_eq!(ips(&reply_to(&mut e, SimTime::ZERO, &wire)), [weak]);
    }

    #[test]
    fn one_requirement_under_two_templates_gets_two_replies() {
        let (mut e, weak, strong) = weak_and_strong();
        e.add_template(8, "host_cpu_free < 0.5");
        e.add_template(9, "host_cpu_free > 0.9");
        for (id, want) in
            [(Some(8), vec![weak]), (Some(9), vec![strong]), (None, vec![weak, strong])]
        {
            let wire = with_template(id, "host_memory_free > 0\n");
            assert_eq!(ips(&reply_to(&mut e, SimTime::ZERO, &wire)), want, "template {id:?}");
        }
    }

    #[test]
    fn distinct_requirements_beyond_the_cap_stay_bounded_and_exact() {
        let mut e = engine();
        for last in 1..=20u8 {
            upsert(
                &mut e,
                report(&format!("h{last}"), last, f64::from(last) / 20.0),
                SimTime::ZERO,
            );
        }
        let request =
            |k: u32| user_request(&format!("host_cpu_free > {}\n", f64::from(k) / 1e4), 5);
        // Each new text, then one seen before: a hit, or a miss after a clear.
        for k in (0..10_000).flat_map(|k| [k, k / 2]) {
            let flat = select_flat(&e.view(), e.policy(), SimTime::ZERO, &request(k), CLIENT_IP);
            assert_eq!(reply_to(&mut e, SimTime::ZERO, &request(k).encode()), flat, "text {k}");
            assert!(e.compiled.len() <= COMPILED_CAP);
        }
    }

    #[test]
    fn an_uncompilable_requirement_is_answered_alike_from_the_table() {
        let (mut e, _, _) = weak_and_strong();
        let wire = user_request("+++ ~~~", 5).encode();
        let traces: Vec<String> = (0..2)
            .map(|_| {
                let mut tel = Telemetry::new();
                assert!(reply(e.step(SimTime::ZERO, from_client(&wire), &mut tel))
                    .servers
                    .is_empty());
                tel.export_jsonl()
            })
            .collect();
        assert_eq!(e.compiled.len(), 1, "the failure is kept too");
        assert!(traces[0].contains("wizard-requests"));
        assert_eq!(traces[0], traces[1], "a hit records what the miss did");
    }

    #[test]
    fn untracked_variables_never_prune() {
        let mut e = engine();
        let mut r = ServerStatusReport::empty("sec", Ip::new(10, 3, 0, 1));
        r.cpu_idle = 0.5;
        upsert(&mut e, r, SimTime::ZERO);
        e.dbs.sec.upsert(SecurityRecord { host: "sec".into(), ip: Ip::new(10, 3, 0, 1), level: 5 });
        // Security levels are not in the shard rollup; the shard must be
        // descended into and the row must qualify via secdb.
        let (_, got, stats) =
            both_scans(&e, SimTime::ZERO, &user_request("host_security_level >= 3\n", 5));
        assert_eq!(got.len(), 1);
        assert_eq!(stats.shards_pruned, 0);
        assert_eq!(stats.rows_evaluated, 1);
    }
}
