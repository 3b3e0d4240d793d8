//! The baseline server selection the paper compares against.
//!
//! "In the conventional socket library, users have to randomly select
//! servers, without the help from third-party utilities" (§5.3.2) — the
//! *Random* columns of Tables 5.3–5.9, which [`RandomSelector`] draws.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use smartsock_proto::Endpoint;
use smartsock_sim::rng as simrng;

/// Uniform random selection without replacement from a static pool.
pub struct RandomSelector {
    pool: Vec<Endpoint>,
    rng: StdRng,
}

impl RandomSelector {
    pub fn new(pool: Vec<Endpoint>, seed: u64) -> RandomSelector {
        RandomSelector { pool, rng: simrng::derive(seed, "baseline-random") }
    }

    /// Pick `n` distinct servers (all of them if `n` exceeds the pool).
    pub fn select(&mut self, n: usize) -> Vec<Endpoint> {
        let mut pool = self.pool.clone();
        pool.shuffle(&mut self.rng);
        pool.truncate(n);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_proto::Ip;

    fn pool(n: u8) -> Vec<Endpoint> {
        (0..n).map(|i| Endpoint::new(Ip::new(10, 0, 0, i + 1), 1200)).collect()
    }

    #[test]
    fn random_picks_are_distinct_and_seeded() {
        let mut a = RandomSelector::new(pool(8), 1);
        let mut b = RandomSelector::new(pool(8), 1);
        let xa = a.select(4);
        let xb = b.select(4);
        assert_eq!(xa, xb, "same seed, same picks");
        let mut sorted = xa.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "no duplicates");
        // Over-asking returns the whole pool.
        assert_eq!(a.select(100).len(), 8);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut a = RandomSelector::new(pool(8), 1);
        let mut b = RandomSelector::new(pool(8), 2);
        assert_ne!(a.select(8), b.select(8));
    }
}
