//! Virtual time for the discrete-event simulation.
//!
//! All timestamps are integer nanoseconds since simulation start. Integer
//! arithmetic keeps the event order total and reproducible; helpers convert
//! to/from floating-point seconds at the edges (the paper reports seconds,
//! milliseconds, Mbps and KB/s, so the harness converts once per printed
//! figure rather than carrying floats through the engine).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The simulation origin (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A timestamp far beyond any experiment horizon; used as "never".
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX / 4);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimTime cannot be negative: {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// This instant expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This instant expressed as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Elapsed duration since `earlier`. Saturates at zero rather than
    /// panicking, because measurement code frequently races a probe reply
    /// against its own send timestamp.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimDuration cannot be negative: {s}");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Construct from fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration to serialize `bytes` onto a link running at `bits_per_sec`.
    ///
    /// This is the transmission-delay term `d_trans = S / R` of the paper's
    /// Equation (3.3). Returns `FAR_FUTURE`-scale duration for a zero rate so
    /// that a dead link never delivers.
    pub fn transmission(bytes: u64, bits_per_sec: f64) -> Self {
        if bits_per_sec <= 0.0 {
            return SimDuration(SimTime::FAR_FUTURE.0);
        }
        Self::from_secs_f64((bytes as f64 * 8.0) / bits_per_sec)
    }

    /// Scale by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < NANOS_PER_MILLI {
            write!(f, "{}ns", self.0)
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_through_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn since_saturates_instead_of_panicking() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.since(a), SimDuration::from_secs(1));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn transmission_delay_matches_s_over_r() {
        // 1500 bytes on 100 Mbps = 120 microseconds.
        let d = SimDuration::transmission(1500, 100e6);
        assert_eq!(d.as_nanos(), 120_000);
    }

    #[test]
    fn transmission_on_dead_link_never_completes() {
        let d = SimDuration::transmission(1, 0.0);
        assert!(SimTime::ZERO + d >= SimTime::FAR_FUTURE);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let big = SimDuration(u64::MAX - 1);
        assert_eq!((big + big).0, u64::MAX);
        assert_eq!(SimDuration::ZERO - SimDuration::from_secs(1), SimDuration::ZERO);
    }

    #[test]
    fn millis_helpers_agree() {
        assert_eq!(SimDuration::from_millis(20), SimDuration::from_millis_f64(20.0));
        assert!((SimDuration::from_millis(20).as_millis_f64() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(10)), "10ns");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000000s");
    }
}
