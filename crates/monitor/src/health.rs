//! Server health scores and the quarantine state machine (DESIGN.md §11).
//!
//! The status databases say what a server *claims* about itself; this
//! table says how assignments to it actually *went*. Client outcome
//! reports ([`smartsock_proto::OutcomeReport`]) feed a per-server score in
//! `[0, 1]` with exponential decay on simulation time, and the score
//! drives a four-state machine:
//!
//! ```text
//!              failure (score < suspect)            score/streak low
//!   Healthy ───────────────────────────▶ Suspect ───────────────────▶ Quarantined
//!      ▲                                   │  ▲                            │
//!      │ score recovers                    │  │ failure while              │ quarantine
//!      │                                   │  │ on probation               │ expires
//!      │         K successes, or the       ▼  │ (duration doubles)         ▼
//!      └────── probation window ends ── Probation ◀──────────────────────┘
//! ```
//!
//! Quarantined servers are excluded from the wizard's `select` outright;
//! probation servers are selectable again (ordered last by their low
//! score) so the system re-learns whether they recovered. An entry with
//! no quarantine behind it is forgotten 864 s after its last outcome, when
//! its score reads 1.0 again (a suspect server turns healthy); one whose
//! doubled quarantine is pending stays. Everything is a pure function of
//! the reported outcomes and simulation time — no RNG, no wall clock — so
//! runs stay byte-reproducible.

use std::collections::{BTreeMap, BTreeSet};

use smartsock_proto::{Ip, OutcomeKind};
use smartsock_sim::{SimDuration, SimTime};

// The tunables: one failure suspects a server and two consecutive
// failures quarantine it, with quarantine doubling on re-offence up to a
// cap.

/// Half-life of the score's relaxation toward 1.0 (forgiveness) and of the
/// history weight in updates.
const HALF_LIFE: SimDuration = SimDuration::from_secs(16);
/// Gain of one observation: `score += GAIN * (sample - score)`. It lies in
/// `[0, 1]`, which keeps every score in `[0, 1]`: the wizard's selection
/// stops its row walk early on the strength of that bound.
const GAIN: f64 = 0.5;
/// Below this (after a failure) a healthy server becomes suspect.
const SUSPECT_THRESHOLD: f64 = 0.6;
/// Below this a server is quarantined outright.
const QUARANTINE_THRESHOLD: f64 = 0.3;
/// This many consecutive failures quarantine regardless of score.
const FAILURE_STREAK: u32 = 3;
/// First quarantine duration; doubles on each re-offence.
const QUARANTINE_BASE: SimDuration = SimDuration::from_secs(8);
/// Cap on the doubled quarantine duration.
const QUARANTINE_MAX: SimDuration = SimDuration::from_secs(64);
/// How long a server stays on probation with no verdict before it is
/// considered healthy again.
const PROBATION_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Successes on probation that clear it early.
const PROBATION_SUCCESSES: u32 = 2;
/// How long after its last outcome an entry with no quarantine history is
/// forgotten, streak and all: 54 half-lives, the age at which `relax` reads
/// exactly 1.0 for any score.
const FORGIVEN_AFTER: SimDuration = SimDuration::from_secs(54 * 16);

/// The four observable states (time parameters resolved away).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateKind {
    Healthy,
    Suspect,
    Quarantined,
    Probation,
}

impl StateKind {
    /// Stable kebab-case label for telemetry attrs.
    pub fn label(self) -> &'static str {
        match self {
            StateKind::Healthy => "healthy",
            StateKind::Suspect => "suspect",
            StateKind::Quarantined => "quarantined",
            StateKind::Probation => "probation",
        }
    }
}

/// Internal state with its clocks.
#[derive(Clone, Copy, Debug, PartialEq)]
enum State {
    Healthy,
    Suspect,
    Quarantined { until: SimTime },
    Probation { until: SimTime, successes: u32 },
}

impl State {
    fn kind(self) -> StateKind {
        match self {
            State::Healthy => StateKind::Healthy,
            State::Suspect => StateKind::Suspect,
            State::Quarantined { .. } => StateKind::Quarantined,
            State::Probation { .. } => StateKind::Probation,
        }
    }
}

/// One observed state-machine transition, for telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transition {
    pub ip: Ip,
    pub from: StateKind,
    pub to: StateKind,
}

#[derive(Clone, Debug)]
struct HostHealth {
    score: f64,
    updated_at: SimTime,
    state: State,
    streak: u32,
    /// Next quarantine duration (doubles on re-offence).
    next_quarantine: SimDuration,
}

impl HostHealth {
    /// When time forgives this entry, if it ever does: only one with no
    /// quarantine running or behind it (a doubled one stays pending).
    fn forgiven_at(&self) -> Option<SimTime> {
        let clean = matches!(self.state, State::Healthy | State::Suspect)
            && self.next_quarantine == QUARANTINE_BASE;
        clean.then(|| self.updated_at + FORGIVEN_AFTER)
    }

    /// When the clock alone next changes this entry (its quarantine or
    /// probation ends, or time forgives it), if it ever does.
    fn deadline(&self) -> Option<SimTime> {
        match self.state {
            State::Quarantined { until } | State::Probation { until, .. } => Some(until),
            State::Healthy | State::Suspect => self.forgiven_at(),
        }
    }

    /// The state at `now`, time-based transitions resolved: forgiveness
    /// ends healthy, quarantine expiry opens a probation window, and an
    /// uneventful probation window ends healthy.
    fn state_at(&self, now: SimTime) -> State {
        match self.state {
            _ if self.forgiven_at().is_some_and(|at| now >= at) => State::Healthy,
            State::Quarantined { until } if now >= until + PROBATION_WINDOW => State::Healthy,
            State::Quarantined { until } if now >= until => {
                State::Probation { until: until + PROBATION_WINDOW, successes: 0 }
            }
            State::Probation { until, .. } if now >= until => State::Healthy,
            other => other,
        }
    }

    /// Materialize what time did to this entry by `now`, pushing the
    /// transition onto `out` if its state moved. `false` when time forgave
    /// it: the caller drops it, or feeds it as the fresh entry it now reads
    /// as (its score relaxes to exactly 1.0, and its streak is forgotten).
    fn settle(&mut self, ip: Ip, now: SimTime, out: &mut Vec<Transition>) -> bool {
        let forgiven = self.forgiven_at().is_some_and(|at| now >= at);
        let (from, to) = (self.state.kind(), self.state_at(now));
        if from != to.kind() {
            out.push(Transition { ip, from, to: to.kind() });
        }
        self.state = to;
        if forgiven {
            self.streak = 0;
        }
        !forgiven
    }
}

/// The health-score table: an entry per server whose outcomes left it
/// unlike a fresh one, until time forgives them. Unknown servers read as
/// healthy with score 1.0.
#[derive(Clone, Debug, Default)]
pub struct HealthTable {
    hosts: BTreeMap<Ip, HostHealth>,
    /// Every entry's [`HostHealth::deadline`], earliest first, so a `poll`
    /// visits only the entries due.
    deadlines: BTreeSet<(SimTime, Ip)>,
}

impl HealthTable {
    /// Number of servers whose history still shows.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The decayed score at `now`: relaxes toward 1.0 with the configured
    /// half-life, so old sins are forgiven even without fresh evidence.
    #[inline]
    pub fn score(&self, ip: Ip, now: SimTime) -> f64 {
        match self.hosts.get(&ip) {
            Some(h) => relax(h.score, h.updated_at, now),
            None => 1.0,
        }
    }

    /// The state the machine would be in at `now`, resolving time-based
    /// transitions (quarantine expiry → probation, probation window end →
    /// healthy, forgiveness → healthy) *without* mutating. Selection uses
    /// this so a read path never changes state behind the telemetry's back.
    #[inline]
    pub fn effective_state(&self, ip: Ip, now: SimTime) -> StateKind {
        match self.hosts.get(&ip) {
            None => StateKind::Healthy,
            Some(h) => h.state_at(now).kind(),
        }
    }

    /// Whether selection may offer this server at `now`.
    #[inline]
    pub fn selectable(&self, ip: Ip, now: SimTime) -> bool {
        self.effective_state(ip, now) != StateKind::Quarantined
    }

    /// Materialize every pending time-based transition up to `now` and
    /// drop the entries time has forgiven (a suspect one moves to healthy).
    /// Returns the transitions in address order; the caller (the wizard's
    /// sweep) turns them into telemetry events. Only the entries whose
    /// deadline has come are visited, since the live daemon polls on every
    /// datagram.
    pub fn poll(&mut self, now: SimTime) -> Vec<Transition> {
        let mut due = Vec::new();
        while self.deadlines.first().is_some_and(|&(at, _)| at <= now) {
            due.extend(self.deadlines.pop_first().map(|(_, ip)| ip));
        }
        due.sort_unstable();
        let mut out = Vec::new();
        for ip in due {
            let Some(h) = self.hosts.get_mut(&ip) else { continue };
            if h.settle(ip, now, &mut out) {
                self.deadlines.extend(h.deadline().map(|at| (at, ip)));
            } else {
                self.hosts.remove(&ip);
            }
        }
        out
    }

    /// Feed one outcome. Returns the transitions it caused (a pending
    /// time-based one first, then the observation's own, if any). A
    /// forgiven entry is resolved first too: the outcome starts a fresh one.
    pub fn record(&mut self, ip: Ip, outcome: OutcomeKind, now: SimTime) -> Vec<Transition> {
        let h = self.hosts.entry(ip).or_insert_with(|| HostHealth {
            score: 1.0,
            updated_at: now,
            state: State::Healthy,
            streak: 0,
            next_quarantine: QUARANTINE_BASE,
        });
        if let Some(at) = h.deadline() {
            self.deadlines.remove(&(at, ip));
        }
        let mut transitions = Vec::new();
        h.settle(ip, now, &mut transitions);

        // Score update: relax history toward 1.0, then pull toward the
        // sample with the observation gain.
        let sample = if outcome.is_failure() { 0.0 } else { 1.0 };
        let relaxed = relax(h.score, h.updated_at, now);
        h.score = relaxed + GAIN * (sample - relaxed);
        h.updated_at = now;

        let before = h.state;
        if outcome.is_failure() {
            h.streak = h.streak.saturating_add(1);
            let quarantine = |h: &mut HostHealth| {
                let until = now + h.next_quarantine;
                h.next_quarantine =
                    SimDuration::from_nanos(h.next_quarantine.as_nanos().saturating_mul(2))
                        .min(QUARANTINE_MAX);
                State::Quarantined { until }
            };
            h.state = match h.state {
                // A failure on probation re-quarantines immediately, for
                // twice as long as before.
                State::Probation { .. } => quarantine(h),
                State::Quarantined { until } => State::Quarantined { until },
                _ if h.score < QUARANTINE_THRESHOLD || h.streak >= FAILURE_STREAK => quarantine(h),
                _ if h.score < SUSPECT_THRESHOLD => State::Suspect,
                other => other,
            };
        } else {
            h.streak = 0;
            h.state = match h.state {
                State::Probation { until, successes } => {
                    let successes = successes + 1;
                    if successes >= PROBATION_SUCCESSES {
                        h.next_quarantine = QUARANTINE_BASE;
                        State::Healthy
                    } else {
                        State::Probation { until, successes }
                    }
                }
                State::Suspect if h.score >= SUSPECT_THRESHOLD => State::Healthy,
                other => other,
            };
        }
        if h.state.kind() != before.kind() {
            transitions.push(Transition { ip, from: before.kind(), to: h.state.kind() });
        }
        // A fresh entry reads as none (a score of 1.0 relaxes to 1.0).
        let entry = (h.score, h.state, h.streak, h.next_quarantine);
        if entry == (1.0, State::Healthy, 0, QUARANTINE_BASE) {
            self.hosts.remove(&ip);
        } else {
            self.deadlines.extend(h.deadline().map(|at| (at, ip)));
        }
        transitions
    }
}

/// Relaxation toward 1.0: `1 - (1 - score) * 0.5^(Δt / HALF_LIFE)`.
fn relax(score: f64, updated_at: SimTime, now: SimTime) -> f64 {
    let dt = now.since(updated_at).as_secs_f64();
    if dt <= 0.0 {
        return score;
    }
    1.0 - (1.0 - score) * 0.5f64.powf(dt / HALF_LIFE.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_sim::rng::cases;

    fn ip() -> Ip {
        Ip::new(192, 168, 4, 11)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn unknown_servers_read_healthy_with_full_score() {
        let table = HealthTable::default();
        assert_eq!(table.score(ip(), t(5)), 1.0);
        assert_eq!(table.effective_state(ip(), t(5)), StateKind::Healthy);
        assert!(table.selectable(ip(), t(5)));
    }

    #[test]
    fn one_failure_suspects_two_quarantine() {
        let mut table = HealthTable::default();
        let tr = table.record(ip(), OutcomeKind::Timeout, t(1));
        assert_eq!(tr.len(), 1);
        assert_eq!((tr[0].from, tr[0].to), (StateKind::Healthy, StateKind::Suspect));
        let tr = table.record(ip(), OutcomeKind::ConnectFailed, t(2));
        assert_eq!((tr[0].from, tr[0].to), (StateKind::Suspect, StateKind::Quarantined));
        assert!(!table.selectable(ip(), t(3)));
    }

    #[test]
    fn successes_keep_a_server_healthy_and_scores_decay_up() {
        let mut table = HealthTable::default();
        for k in 0..5 {
            assert!(table.record(ip(), OutcomeKind::Completed, t(k)).is_empty());
        }
        assert_eq!(table.effective_state(ip(), t(5)), StateKind::Healthy);
        // One failure halves the score; it then relaxes back toward 1.0.
        table.record(ip(), OutcomeKind::Timeout, t(6));
        let just_after = table.score(ip(), t(6));
        let much_later = table.score(ip(), t(6 + 64));
        assert!(just_after < 0.6, "post-failure score {just_after}");
        assert!(much_later > 0.9, "decayed score {much_later}");
    }

    #[test]
    fn quarantine_expires_into_probation_then_healthy() {
        let mut table = HealthTable::default();
        table.record(ip(), OutcomeKind::Timeout, t(1));
        table.record(ip(), OutcomeKind::Timeout, t(2));
        assert_eq!(table.effective_state(ip(), t(3)), StateKind::Quarantined);
        // QUARANTINE_BASE = 8 s: released at t=10 into a 10 s window.
        assert_eq!(table.effective_state(ip(), t(11)), StateKind::Probation);
        assert!(table.selectable(ip(), t(11)), "probation servers are selectable");
        // The window ends with no verdict: healthy again.
        assert_eq!(table.effective_state(ip(), t(25)), StateKind::Healthy);
        // poll() materializes the same answer and reports the transition.
        let tr = table.poll(t(25));
        assert_eq!(tr.len(), 1);
        assert_eq!((tr[0].from, tr[0].to), (StateKind::Quarantined, StateKind::Healthy));
    }

    #[test]
    fn probation_failure_requarantines_for_twice_as_long() {
        let mut table = HealthTable::default();
        table.record(ip(), OutcomeKind::Timeout, t(1));
        table.record(ip(), OutcomeKind::Timeout, t(2)); // quarantined until t=10
        let tr = table.record(ip(), OutcomeKind::ConnectFailed, t(11)); // on probation
        assert!(tr
            .iter()
            .any(|x| x.from == StateKind::Probation && x.to == StateKind::Quarantined));
        // Doubled: 16 s from t=11.
        assert_eq!(table.effective_state(ip(), t(26)), StateKind::Quarantined);
        assert_eq!(table.effective_state(ip(), t(27)), StateKind::Probation);
    }

    #[test]
    fn probation_successes_clear_early_and_reset_the_doubling() {
        let mut table = HealthTable::default();
        table.record(ip(), OutcomeKind::Timeout, t(1));
        table.record(ip(), OutcomeKind::Timeout, t(2)); // until t=10
        table.record(ip(), OutcomeKind::Completed, t(11));
        let tr = table.record(ip(), OutcomeKind::Completed, t(12));
        assert!(tr.iter().any(|x| x.to == StateKind::Healthy));
        assert_eq!(table.effective_state(ip(), t(12)), StateKind::Healthy);
    }

    /// The reference: `poll` without the deadline set — every host, every
    /// call, forgiven ones dropped.
    fn poll_walking_everything(table: &mut HealthTable, now: SimTime) -> Vec<Transition> {
        let mut out = Vec::new();
        table.hosts.retain(|&ip, h| h.settle(ip, now, &mut out));
        out
    }

    /// Returning before the walk is invisible: over any interleaving of
    /// outcomes, polls and clock steps (sub-second to longer than the
    /// capped quarantine), a table polled through its deadline set and one
    /// that walks every host on every poll report the same transitions in the
    /// same order and hold the same entry — clocks included, or none — for
    /// each of the six addresses after every step. Every score stays in
    /// `[0, 1]` throughout: the bound the selection's early stop relies on.
    #[test]
    fn a_poll_bounded_by_next_due_is_the_walk_over_every_host() {
        cases("a_poll_bounded_by_next_due_is_the_walk_over_every_host", |rng| {
            let (mut bounded, mut walked) = (HealthTable::default(), HealthTable::default());
            let mut now = t(1);
            for _ in 0..rng.below(120) {
                let (kind, host) = (rng.below(5), rng.below(6) as u8);
                let (outcome, dt) = (rng.below(3) as usize, rng.below(8));
                // Mostly whole seconds, so deadlines are hit exactly too.
                now += match dt {
                    0 => SimDuration::ZERO,
                    1 => SimDuration::from_millis(300),
                    7 => SimDuration::from_secs(70),
                    _ => SimDuration::from_secs(dt),
                };
                if kind < 2 {
                    assert_eq!(bounded.poll(now), poll_walking_everything(&mut walked, now));
                } else {
                    let ip = Ip::new(10, 0, 0, host);
                    let outcome =
                        [OutcomeKind::Timeout, OutcomeKind::Completed, OutcomeKind::ConnectFailed]
                            [outcome];
                    assert_eq!(bounded.record(ip, outcome, now), walked.record(ip, outcome, now));
                }
                for ip in (0..6).map(|host| Ip::new(10, 0, 0, host)) {
                    let entry = |table: &HealthTable| table.hosts.get(&ip).map(|h| h.state);
                    assert_eq!(entry(&bounded), entry(&walked), "{ip} at {now:?}");
                    assert_eq!(bounded.effective_state(ip, now), walked.effective_state(ip, now));
                    let score = bounded.score(ip, now);
                    assert!((0.0..=1.0).contains(&score), "{score} at {now:?}");
                }
            }
        });
    }

    /// Over any interleaving of outcomes, polls and clock steps long enough
    /// for forgiveness, the set holds exactly one deadline per entry that
    /// has one: nothing stale is left for a poll to pop.
    #[test]
    fn the_deadline_set_holds_each_entrys_one_deadline() {
        cases("the_deadline_set_holds_each_entrys_one_deadline", |rng| {
            let mut table = HealthTable::default();
            let mut now = t(1);
            for _ in 0..rng.below(120) {
                now +=
                    [0, 300, 5_000, 500_000].map(SimDuration::from_millis)[rng.below(4) as usize];
                let outcome = [OutcomeKind::Timeout, OutcomeKind::Completed][rng.below(2) as usize];
                match rng.below(3) {
                    0 => drop(table.poll(now)),
                    _ => drop(table.record(Ip::new(10, 0, 0, rng.below(6) as u8), outcome, now)),
                }
                let want = table.hosts.iter().filter_map(|(&ip, h)| Some((h.deadline()?, ip)));
                assert!(table.deadlines.iter().copied().eq(want.collect::<BTreeSet<_>>()));
            }
        });
    }

    #[test]
    fn a_poll_with_nothing_due_visits_no_host() {
        let (a, b) = (ip(), Ip::new(10, 0, 0, 2));
        let deadlines = |table: &HealthTable| table.deadlines.iter().copied().collect::<Vec<_>>();
        let mut table = HealthTable::default();
        table.record(Ip::new(10, 0, 0, 1), OutcomeKind::Completed, t(1));
        assert_eq!(table.len(), 0, "a completed assignment to a new server keeps no entry");
        assert!(table.deadlines.is_empty());
        // A suspect is due when time forgives it; a quarantine when it ends.
        table.record(b, OutcomeKind::Timeout, t(1));
        table.record(a, OutcomeKind::Timeout, t(1));
        table.record(a, OutcomeKind::Timeout, t(2)); // quarantined until t=10
        assert_eq!(deadlines(&table), [(t(10), a), (t(865), b)]);

        // Plant on the suspect a state any visit would resolve (its
        // quarantine ran out at t=3), behind its deadline's back: the polls
        // at the other host's deadlines visit that host alone, so it stays.
        let planted = State::Quarantined { until: t(3) };
        table.hosts.get_mut(&b).unwrap().state = planted;
        assert!(table.poll(t(9)).is_empty());
        let released = Transition { ip: a, from: StateKind::Quarantined, to: StateKind::Probation };
        assert_eq!(table.poll(t(10)), [released]);
        assert_eq!(deadlines(&table), [(t(20), a), (t(865), b)]);
        assert_eq!(table.poll(t(20)).len(), 1);
        assert_eq!(table.hosts[&b].state, planted);
        // Healthy with its doubled quarantine pending: nothing timed is
        // left for it, and the suspect is visited at its own deadline.
        assert_eq!(deadlines(&table), [(t(865), b)]);
        let resolved = Transition { ip: b, from: StateKind::Quarantined, to: StateKind::Healthy };
        assert_eq!(table.poll(t(865)), [resolved]);
    }

    /// A flood of single failures spread over time: 10 000 `Timeout`s 1 ms
    /// apart, polled every 1 ms from the first forgiveness. Each poll
    /// forgives exactly one host, and a sentinel due after them all keeps a
    /// planted state (its forgiveness moved to the first poll, so any visit
    /// would drop it) until its own deadline.
    #[test]
    fn a_flood_spread_over_time_is_forgiven_one_entry_a_poll() {
        let ms = |k: u64| t(1) + SimDuration::from_millis(k);
        let host = |i: u64| Ip(0x0a00_0000 + i as u32);
        let forgiven = |ip| [Transition { ip, from: StateKind::Suspect, to: StateKind::Healthy }];
        let sentinel = Ip::new(192, 168, 0, 1);
        let mut table = HealthTable::default();
        for i in 0..10_000 {
            table.record(host(i), OutcomeKind::Timeout, ms(i));
        }
        table.record(sentinel, OutcomeKind::Timeout, ms(10_000));
        table.hosts.get_mut(&sentinel).unwrap().updated_at = t(1);
        for i in 0..10_000 {
            assert_eq!(table.poll(ms(i) + FORGIVEN_AFTER), forgiven(host(i)));
            assert_eq!(table.len(), 10_000 - i as usize);
        }
        assert_eq!(table.hosts[&sentinel].updated_at, t(1));
        assert_eq!(table.poll(ms(10_000) + FORGIVEN_AFTER), forgiven(sentinel));
        assert!(table.is_empty() && table.deadlines.is_empty());
    }

    #[test]
    fn completed_assignments_to_unknown_servers_keep_no_entry() {
        let mut table = HealthTable::default();
        for i in 0..10_000u32 {
            table.record(Ip(0x0a00_0000 + i), OutcomeKind::Completed, t(u64::from(i)));
        }
        assert_eq!(table.len(), 0);
    }

    /// 864 s after its last outcome a score of 0 relaxes to exactly 1.0, so
    /// an entry forgotten then reads as it did.
    #[test]
    fn forgiveness_comes_when_the_score_reads_exactly_one() {
        assert_eq!(FORGIVEN_AFTER, HALF_LIFE.saturating_mul(54));
        assert_eq!(relax(0.0, t(1), t(1) + FORGIVEN_AFTER), 1.0);
        assert!(relax(0.0, t(2), t(1) + FORGIVEN_AFTER) < 1.0);
    }

    /// 10 000 single timeouts, and as many timeouts each followed by a
    /// success (healthy, score ≈ 0.76), are all kept 863 s after the last
    /// outcome and all forgotten at 864 s; only the suspect ones report a
    /// transition.
    #[test]
    fn single_failure_floods_are_forgotten_at_864_s() {
        let hosts = || (0..10_000u32).map(|i| Ip(0x0a00_0000 + i));
        let mut suspects = HealthTable::default();
        let mut recovered = HealthTable::default();
        for ip in hosts() {
            suspects.record(ip, OutcomeKind::Timeout, t(1));
            recovered.record(ip, OutcomeKind::Timeout, t(1));
            recovered.record(ip, OutcomeKind::Completed, t(2));
        }
        let first = Ip(0x0a00_0000);
        assert_eq!(recovered.effective_state(first, t(2)), StateKind::Healthy);
        for (table, last, was) in
            [(&mut suspects, 1, StateKind::Suspect), (&mut recovered, 2, StateKind::Healthy)]
        {
            assert!(table.poll(t(last + 863)).is_empty());
            assert_eq!(table.len(), 10_000);
            assert_eq!(table.effective_state(first, t(last + 863)), was);
            assert_eq!(table.effective_state(first, t(last + 864)), StateKind::Healthy);
            let forgiven = table.poll(t(last + 864));
            assert_eq!(table.len(), 0);
            assert!(table.deadlines.is_empty());
            let cleared = hosts().map(|ip| Transition { ip, from: was, to: StateKind::Healthy });
            assert_eq!(forgiven, cleared.filter(|x| x.from != x.to).collect::<Vec<_>>());
        }
    }

    /// An outcome about a forgiven host resolves the forgiveness first, as
    /// any pending time-based transition, and starts a fresh entry: its
    /// streak is gone with it.
    #[test]
    fn a_forgiven_host_starts_a_fresh_entry() {
        let suspect = |to| Transition { ip: ip(), from: StateKind::Suspect, to };
        let healthy = Transition { ip: ip(), from: StateKind::Healthy, to: StateKind::Suspect };
        let mut table = HealthTable::default();
        table.record(ip(), OutcomeKind::Timeout, t(1));
        assert_eq!(table.poll(t(865)), [suspect(StateKind::Healthy)]);
        assert_eq!(table.record(ip(), OutcomeKind::Timeout, t(900)), [healthy]);

        // Without a poll between: forgiven, then suspected afresh, so the
        // failure 100 s later is its second in a row, not its third, and
        // does not quarantine it.
        let forgiven = t(900) + FORGIVEN_AFTER;
        assert_eq!(
            table.record(ip(), OutcomeKind::Timeout, forgiven),
            [suspect(StateKind::Healthy), healthy]
        );
        let later = forgiven + SimDuration::from_secs(100);
        assert!(table.record(ip(), OutcomeKind::Timeout, later).is_empty());
        assert_eq!(table.effective_state(ip(), later), StateKind::Suspect);
    }

    #[test]
    fn a_host_cleared_by_time_keeps_its_doubled_quarantine() {
        let mut table = HealthTable::default();
        table.record(ip(), OutcomeKind::Timeout, t(1));
        // Quarantined until t=10, then on probation until t=20, which ends
        // by time. Long after, the score is back at exactly 1.0, yet the
        // next quarantine stays doubled.
        table.record(ip(), OutcomeKind::Timeout, t(2));
        let cleared = Transition { ip: ip(), from: StateKind::Quarantined, to: StateKind::Healthy };
        assert_eq!(table.record(ip(), OutcomeKind::Completed, t(2000)), [cleared]);
        assert_eq!(table.score(ip(), t(2000)), 1.0);
        assert_eq!(table.len(), 1);
        table.record(ip(), OutcomeKind::Timeout, t(2001));
        table.record(ip(), OutcomeKind::Timeout, t(2002)); // 16 s: until t=2018
        assert_eq!(table.effective_state(ip(), t(2017)), StateKind::Quarantined);
        assert_eq!(table.effective_state(ip(), t(2018)), StateKind::Probation);
    }
}
