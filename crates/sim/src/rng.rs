//! Deterministic randomness: the one generator, [`SimRng`], and the
//! derivation of its streams.
//!
//! Every experiment in the harness takes one `u64` seed. Components that
//! need randomness (the random server selector baseline, `rshaper`'s random
//! bandwidth draws, cross-traffic arrival jitter, the client library's
//! request sequence numbers) derive *independent* child streams from that
//! seed so that adding randomness to one component never perturbs another —
//! a property the paper's physical testbed obviously lacked, and the main
//! reason the reproduction can report exact numbers.
//!
//! `SimRng` has no entropy constructor on purpose: every stream starts from
//! a number the caller holds (a run's seed, or a live socket's port).
//!
//! Property tests draw from it through [`cases`]: case `i` of `name` runs on
//! `derive_indexed(CASES_BASE, name, i)`, [`DEFAULT_CASES`] of them unless
//! `SMARTSOCK_CASES` sets the count. A failing case prints its name, index
//! and seed as it unwinds; a count above that index replays it.

use std::ops::Range;

/// SplitMix64's increment, the golden-ratio gamma.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seeded SplitMix64 stream, and the draws the workspace makes from it.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    pub fn seed_from_u64(state: u64) -> SimRng {
        SimRng { state }
    }

    /// The next word: `splitmix64` of the state, which then steps by the gamma.
    pub fn next_u64(&mut self) -> u64 {
        let x = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        x
    }

    /// A uniform `u32`: the word's high half.
    pub fn u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)`: the word's top 53 bits as the mantissa.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `range`, which must not be empty.
    pub fn range(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.unit() * (range.end - range.start)
    }

    /// Uniform in `0..n` (by modulo); panics when `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates, from the back.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// FNV-1a of a stream's label.
fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derive a child stream from `(seed, label)`.
///
/// Uses the SplitMix64 finalizer over the FNV-1a hash of the label, which is
/// cheap, stable across platforms, and scrambles related labels far apart.
pub fn derive(seed: u64, label: &str) -> SimRng {
    SimRng::seed_from_u64(splitmix64(seed ^ label_hash(label)))
}

/// Derive a child stream from `(seed, label, index)` for per-instance
/// streams (e.g. one stream per simulated host).
pub fn derive_indexed(seed: u64, label: &str, index: u64) -> SimRng {
    SimRng::seed_from_u64(splitmix64(splitmix64(seed ^ label_hash(label)).wrapping_add(index)))
}

/// Cases a property runs when `SMARTSOCK_CASES` is unset.
pub const DEFAULT_CASES: u64 = 64;
/// The seed every property case derives from.
pub const CASES_BASE: u64 = 0xca5e_5eed;

/// Run `body` once per case of the property `name`, on the case's stream.
pub fn cases(name: &str, body: impl FnMut(&mut SimRng)) {
    run_cases(name, case_count(std::env::var("SMARTSOCK_CASES").ok()), body);
}

/// The count `SMARTSOCK_CASES` holds; a value that is no count panics.
fn case_count(var: Option<String>) -> u64 {
    var.map_or(DEFAULT_CASES, |v| v.parse().unwrap_or_else(|_| panic!("cases: {v:?} is no count")))
}

fn run_cases(name: &str, count: u64, mut body: impl FnMut(&mut SimRng)) {
    for index in 0..count {
        let _case = Case(name, index);
        body(&mut derive_indexed(CASES_BASE, name, index));
    }
}

/// The case running, named on stderr if it unwinds.
struct Case<'a>(&'a str, u64);

impl Drop for Case<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", replay_line(self.0, self.1));
        }
    }
}

fn replay_line(name: &str, index: u64) -> String {
    let seed = derive_indexed(CASES_BASE, name, index).state;
    format!(
        "{name}: case {index} failed (base {CASES_BASE:#x}, seed {seed:#x}); \
         SMARTSOCK_CASES={} replays it",
        index + 1
    )
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = derive(42, "shaper");
        let mut b = derive(42, "shaper");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_decorrelate() {
        let mut a = derive(42, "shaper");
        let mut b = derive(42, "client");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_indices_decorrelate() {
        let mut a = derive_indexed(42, "host", 0);
        let mut b = derive_indexed(42, "host", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn splitmix_avalanches_adjacent_inputs() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!((a ^ b).count_ones() > 16, "poor diffusion: {a:x} vs {b:x}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut r = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.unit()));
            assert!((0.0..1.0).contains(&r.range(0.0..1.0)));
        }
    }

    #[test]
    fn integer_ranges_cover_bounds() {
        let mut r = SimRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SimRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice untouched");
    }

    #[test]
    fn the_same_name_gives_the_same_cases() {
        let firsts = |name| {
            let mut words = Vec::new();
            run_cases(name, 8, |rng| words.push(rng.next_u64()));
            words
        };
        assert_eq!(firsts("a"), firsts("a"));
        let derived: Vec<u64> =
            (0..8).map(|i| derive_indexed(CASES_BASE, "a", i).next_u64()).collect();
        assert_eq!(firsts("a"), derived);
        assert_ne!(firsts("a"), firsts("b"), "two names, one stream");
    }

    #[test]
    fn the_case_count_is_the_variable_when_set() {
        assert_eq!(case_count(None), DEFAULT_CASES);
        assert_eq!(case_count(Some("5".to_owned())), 5);
        let mut ran = 0;
        run_cases("count", case_count(Some("5".to_owned())), |_| ran += 1);
        assert_eq!(ran, 5);
        let bad = std::panic::catch_unwind(|| case_count(Some("many".to_owned())));
        assert!(bad.is_err(), "a count that is no number must not fall back");
    }

    #[test]
    fn a_failing_case_is_named_and_replays() {
        // Fail on the first case whose first word is a multiple of 4.
        let fails = |word: u64| word % 4 == 0;
        let mut seen = Vec::new();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cases("replay", DEFAULT_CASES, |rng| {
                seen.push(rng.next_u64());
                assert!(!fails(seen[seen.len() - 1]), "planted failure");
            })
        }));
        assert!(run.is_err(), "no case of 64 failed");
        let index = seen.len() as u64 - 1;
        let line = replay_line("replay", index);
        assert!(line.starts_with(&format!("replay: case {index} failed")), "{line}");
        assert!(line.ends_with(&format!("SMARTSOCK_CASES={} replays it", index + 1)), "{line}");
        // The replay: the same count reaches the same case with the same draw.
        let mut replayed = None;
        run_cases("replay", index + 1, |rng| replayed = Some(rng.next_u64()));
        assert_eq!(replayed, seen.last().copied());
        assert!(fails(replayed.unwrap_or_default()));
    }

    /// The stream every `trace_sha` is drawn from, as the `rand` stand-in
    /// this generator replaced produced it: an edit to the stepper or to
    /// `derive` fails here before it moves a trace.
    #[test]
    fn the_stream_is_pinned() {
        let mut r = SimRng::seed_from_u64(20050614);
        let words: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x762d_77e2_8666_c0de,
                0x93bf_bca1_e95e_d390,
                0xe557_8177_e82e_3b17,
                0x7cdc_be2b_a31b_2d1f,
                0x1a6e_7763_51fa_3986,
                0xcf9a_2fa8_5e8c_dc9c,
                0x4375_6240_45f8_f8b7,
                0x296e_9d60_da2d_5f30,
            ]
        );
        assert_eq!(derive(20050614, "smart-client").next_u64(), 0x08bc_8629_714f_10f4);
        // Each draw's formula, from the same stream.
        assert_eq!(derive(20050614, "smart-client").u32(), 146_572_841);
        let mut r = derive(20050614, "smart-client");
        assert_eq!(
            (r.unit(), r.range(1.0..10.0), r.below(7)),
            (0.03412664901526008, 5.012647162446685, 5)
        );
    }
}
