//! Minute-granularity simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

const MINUTES_PER_HOUR: u64 = 60;
const MINUTES_PER_DAY: u64 = 24 * MINUTES_PER_HOUR;
const MINUTES_PER_YEAR: u64 = 365 * MINUTES_PER_DAY;

/// An instant in simulated time, measured in whole minutes since the
/// simulation epoch (the moment the simulated system was switched on).
///
/// The paper's simulator operates "on a minute granularity" (§4.3); a `u64`
/// minute counter covers ~3.5 × 10¹³ years, so overflow is not a practical
/// concern and arithmetic here panics on overflow rather than saturating.
///
/// # Examples
///
/// ```
/// use sim_core::{SimDuration, SimTime};
///
/// let t = SimTime::from_days(30);
/// assert_eq!(t.as_minutes(), 30 * 24 * 60);
/// assert_eq!(t + SimDuration::from_hours(1), SimTime::from_minutes(30 * 24 * 60 + 60));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulated time, measured in whole minutes.
///
/// # Examples
///
/// ```
/// use sim_core::SimDuration;
///
/// let d = SimDuration::from_days(2) + SimDuration::from_hours(3);
/// assert_eq!(d.as_hours(), 51);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch: minute zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time `minutes` minutes after the epoch.
    pub const fn from_minutes(minutes: u64) -> Self {
        SimTime(minutes)
    }

    /// Creates a time `hours` hours after the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * MINUTES_PER_HOUR)
    }

    /// Creates a time `days` days after the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * MINUTES_PER_DAY)
    }

    /// Minutes elapsed since the epoch.
    pub const fn as_minutes(self) -> u64 {
        self.0
    }

    /// Whole hours elapsed since the epoch (truncating).
    pub const fn as_hours(self) -> u64 {
        self.0 / MINUTES_PER_HOUR
    }

    /// Whole days elapsed since the epoch (truncating).
    pub const fn as_days(self) -> u64 {
        self.0 / MINUTES_PER_DAY
    }

    /// The day-of-year (0-based, `0..365`) this instant falls on, treating
    /// every simulated year as exactly 365 days. The paper's academic
    /// calendar (Table 1) is expressed in day-of-year terms.
    pub const fn day_of_year(self) -> u64 {
        (self.0 % MINUTES_PER_YEAR) / MINUTES_PER_DAY
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// One simulated minute.
    pub const MINUTE: SimDuration = SimDuration(1);

    /// One simulated hour.
    pub const HOUR: SimDuration = SimDuration(MINUTES_PER_HOUR);

    /// One simulated day.
    pub const DAY: SimDuration = SimDuration(MINUTES_PER_DAY);

    /// One simulated (365-day) year.
    pub const YEAR: SimDuration = SimDuration(MINUTES_PER_YEAR);

    /// Creates a duration of `minutes` minutes.
    pub const fn from_minutes(minutes: u64) -> Self {
        SimDuration(minutes)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * MINUTES_PER_HOUR)
    }

    /// Creates a duration of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * MINUTES_PER_DAY)
    }

    /// Length in minutes.
    pub const fn as_minutes(self) -> u64 {
        self.0
    }

    /// Length in whole hours (truncating).
    pub const fn as_hours(self) -> u64 {
        self.0 / MINUTES_PER_HOUR
    }

    /// Length in whole days (truncating).
    pub const fn as_days(self) -> u64 {
        self.0 / MINUTES_PER_DAY
    }

    /// Length in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MINUTES_PER_DAY as f64
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies this duration by an integer factor.
    pub const fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }

    /// The ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        assert!(!other.is_zero(), "division by zero-length duration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that can happen.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics on underflow; use [`SimDuration::saturating_sub`] otherwise.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.as_days();
        let rem = self.0 % MINUTES_PER_DAY;
        write!(f, "d{days}+{:02}:{:02}", rem / 60, rem % 60)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            return write!(f, "0m");
        }
        let days = self.as_days();
        let hours = (self.0 % MINUTES_PER_DAY) / MINUTES_PER_HOUR;
        let minutes = self.0 % MINUTES_PER_HOUR;
        let mut wrote = false;
        if days > 0 {
            write!(f, "{days}d")?;
            wrote = true;
        }
        if hours > 0 {
            write!(f, "{hours}h")?;
            wrote = true;
        }
        if minutes > 0 || !wrote {
            write!(f, "{minutes}m")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_hours(2), SimTime::from_minutes(120));
        assert_eq!(SimTime::from_days(1), SimTime::from_hours(24));
        assert_eq!(SimDuration::from_days(365), SimDuration::YEAR);
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let start = SimTime::from_days(10);
        let later = start + SimDuration::from_hours(36);
        assert_eq!(later - start, SimDuration::from_hours(36));
        assert_eq!(later - SimDuration::from_hours(36), start);
    }

    #[test]
    fn saturating_since_clamps_future_reference() {
        let early = SimTime::from_days(1);
        let late = SimTime::from_days(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::DAY);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::from_days(1) - SimTime::from_days(2);
    }

    #[test]
    fn day_of_year_wraps_at_365_days() {
        let t = SimTime::from_days(365 + 40);
        assert_eq!(t.day_of_year(), 40);
        assert_eq!(t.as_minutes() / MINUTES_PER_YEAR, 1);
        assert_eq!(SimTime::from_days(364).day_of_year(), 364);
        assert_eq!(SimTime::from_days(365).day_of_year(), 0);
    }

    #[test]
    fn truncating_accessors() {
        let d = SimDuration::from_minutes(MINUTES_PER_DAY + 61);
        assert_eq!(d.as_days(), 1);
        assert_eq!(d.as_hours(), 25);
        assert_eq!(d.as_minutes(), MINUTES_PER_DAY + 61);
    }

    #[test]
    fn ratio_and_mul() {
        assert_eq!(SimDuration::DAY.ratio(SimDuration::HOUR), 24.0);
        assert_eq!(SimDuration::HOUR.mul(24), SimDuration::DAY);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn ratio_by_zero_panics() {
        let _ = SimDuration::DAY.ratio(SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::ZERO.to_string(), "0m");
        assert_eq!(SimDuration::from_minutes(5).to_string(), "5m");
        assert_eq!(
            (SimDuration::from_days(2) + SimDuration::from_hours(3)).to_string(),
            "2d3h"
        );
        assert_eq!(SimTime::from_minutes(90).to_string(), "d0+01:30");
    }

    #[test]
    fn ordering_is_chronological() {
        let mut times = vec![SimTime::from_days(3), SimTime::ZERO, SimTime::from_hours(5)];
        times.sort();
        assert_eq!(
            times,
            vec![SimTime::ZERO, SimTime::from_hours(5), SimTime::from_days(3)]
        );
    }
}
