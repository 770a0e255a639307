//! Virtual time. The simulator clock is a monotonically increasing count of
//! nanoseconds since simulation start; nothing in the workspace ever reads
//! the wall clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time as fractional milliseconds (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, saturating to [`SimTime::MAX`] ("never") instead of
    /// overflowing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds; negative values clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * 1e9).round() as u64)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scale by a non-negative factor (used by the CPU contention model).
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "durations cannot be scaled negatively");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Integer division into `n` equal slices (rounding down, min 1 ns so
    /// progress is always made).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, n: u64) -> SimDuration {
        SimDuration((self.0 / n.max(1)).max(1))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_nanos(500);
        let d = SimDuration::from_nanos(250);
        assert_eq!((t + d).as_nanos(), 750);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), SimDuration::ZERO);
        assert_eq!(t.saturating_add(d), t + d);
        assert_eq!(SimTime::MAX.saturating_add(d), SimTime::MAX);
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(2.0).as_nanos(), 20_000_000);
        assert_eq!(d.div(4).as_nanos(), 2_500_000);
        assert_eq!(SimDuration::from_nanos(3).div(10).as_nanos(), 1);
    }
}
