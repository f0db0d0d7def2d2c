//! Virtual time for the discrete-event simulation.
//!
//! All simulated clocks in ROS2 use [`SimTime`], a nanosecond-resolution
//! instant, and [`SimDuration`], a nanosecond-resolution span. Integer
//! arithmetic keeps every timing computation exactly reproducible across
//! platforms — the simulation never touches floating point on the hot path
//! except where explicitly noted (rate conversions use `u128` integer math).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }
    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }
    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }
    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }
    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }
    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }
    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }
    /// Creates a span from a float second count, rounding to nanoseconds.
    ///
    /// Reserved for model-calibration constants; runtime paths use integers.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * 1e9).round().max(0.0) as u64)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// The span in microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }
    /// The span in seconds, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time needed to move `bytes` bytes at `bytes_per_sec`, rounded up
    /// to the next nanosecond. Exact integer arithmetic: `u64` whenever
    /// `bytes * 1e9` fits (every transfer under ~18.4 GB), `u128` beyond.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> SimDuration {
        if bytes_per_sec == 0 {
            return SimDuration::MAX;
        }
        match bytes.checked_mul(1_000_000_000) {
            Some(num) => SimDuration(num.div_ceil(bytes_per_sec)),
            None => {
                let num = bytes as u128 * 1_000_000_000u128;
                let den = bytes_per_sec as u128;
                SimDuration(num.div_ceil(den).min(u64::MAX as u128) as u64)
            }
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Scales the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scales the span by a float factor (model calibration only).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds when `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 15_000);
        assert_eq!((t - SimTime::from_micros(10)).as_micros(), 5);
        assert_eq!(
            SimDuration::from_micros(4) * 3,
            SimDuration::from_micros(12)
        );
    }

    #[test]
    fn bytes_rate_math_is_exact() {
        // 1 GiB at 1 GiB/s is exactly one second.
        let d = SimDuration::for_bytes(1 << 30, 1 << 30);
        assert_eq!(d, SimDuration::from_secs(1));
        // Rounds up: 1 byte at 3 B/s = ceil(1e9/3) ns.
        let d = SimDuration::for_bytes(1, 3);
        assert_eq!(d.as_nanos(), 333_333_334);
        // Zero rate is "never".
        assert_eq!(SimDuration::for_bytes(1, 0), SimDuration::MAX);
    }

    /// The `u64` path agrees with the all-`u128` formula on both sides of
    /// the point where `bytes * 1e9` stops fitting.
    #[test]
    fn bytes_rate_math_agrees_with_the_wide_formula() {
        let wide = |bytes: u64, rate: u64| {
            (bytes as u128 * 1_000_000_000)
                .div_ceil(rate as u128)
                .min(u64::MAX as u128) as u64
        };
        let edge = u64::MAX / 1_000_000_000;
        for bytes in [0, 1, edge - 1, edge, edge + 1, u64::MAX] {
            for rate in [1, 3, 1 << 30, u64::MAX] {
                assert_eq!(
                    SimDuration::for_bytes(bytes, rate).as_nanos(),
                    wide(bytes, rate),
                    "{bytes} B at {rate} B/s"
                );
            }
        }
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(4));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(42)), "42ns");
        assert_eq!(format!("{}", SimDuration::from_micros(42)), "42.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(42)), "42.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(42)), "42.000s");
    }
}
