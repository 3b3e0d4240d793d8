//! Time for the live backend.
//!
//! The engines take time as plain `u64` nanoseconds through the
//! [`Transport`](smartsock_proto::Transport) seam, so *where* time comes
//! from is a backend policy. [`Clock::wall`] anchors at daemon start and
//! reads the OS monotonic clock; [`Clock::manual`] is a test clock the
//! interop suite advances by hand, so staleness scenarios run identically
//! to their simulated twins instead of depending on real sleeps.
//!
//! The entire crate reads wall time through this module's single read
//! point — clippy's `disallowed_methods`/`disallowed_types` (`clippy.toml`)
//! keep any other site from sneaking in a second one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the live backend's one wall-clock read point; every other site takes time through Clock::now_ns"
)]
mod wall {
    use std::time::Instant;

    #[derive(Clone, Debug)]
    pub struct Anchor(Instant);

    impl Anchor {
        pub fn start() -> Anchor {
            Anchor(Instant::now())
        }

        pub fn elapsed_ns(&self) -> u64 {
            u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }
}

/// A nanosecond clock handed to every live daemon and client.
#[derive(Clone, Debug)]
pub enum Clock {
    /// Monotonic wall time since the clock was created.
    Wall(wall::Anchor),
    /// Test-controlled time; see [`ManualHandle`].
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A monotonic clock anchored now. Clones share the anchor, so one
    /// deployment's daemons agree on what `t = 0` means.
    pub fn wall() -> Clock {
        Clock::Wall(wall::Anchor::start())
    }

    /// A clock that only moves when the returned handle says so.
    pub fn manual() -> (Clock, ManualHandle) {
        let cell = Arc::new(AtomicU64::new(0));
        (Clock::Manual(Arc::clone(&cell)), ManualHandle(cell))
    }

    /// Nanoseconds since the clock's epoch.
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall(anchor) => anchor.elapsed_ns(),
            Clock::Manual(cell) => cell.load(Ordering::SeqCst),
        }
    }
}

/// The writer side of a manual clock — keep it in the test, clone the
/// [`Clock`] into the daemons.
#[derive(Clone, Debug)]
pub struct ManualHandle(Arc<AtomicU64>);

impl ManualHandle {
    pub fn set_ns(&self, ns: u64) {
        self.0.store(ns, Ordering::SeqCst);
    }

    pub fn advance_secs(&self, secs: u64) {
        self.0.fetch_add(secs.saturating_mul(1_000_000_000), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_by_hand() {
        let (clock, hand) = Clock::manual();
        assert_eq!(clock.now_ns(), 0);
        hand.advance_secs(3);
        assert_eq!(clock.now_ns(), 3_000_000_000);
        hand.set_ns(7);
        assert_eq!(clock.now_ns(), 7);
    }

    #[test]
    fn wall_clock_is_monotone_and_shared_between_clones() {
        let clock = Clock::wall();
        let twin = clock.clone();
        let a = clock.now_ns();
        let b = twin.now_ns();
        assert!(b >= a);
    }
}
