//! §5.1's single-application-class arrival process.
//!
//! "Objects constantly arrive into the system at a rate that is randomly
//! distributed up to 0.5 GB an hour for the first three months. Over the
//! following three month intervals, this rate increases to 0.7 GB/hr,
//! 1.0 GB/hr and 1.3 GB/hr, respectively."
//!
//! Each *active* simulated hour the generator draws a volume uniformly in
//! `[0, cap]` for the quarter's cap and emits it as one object at a
//! uniformly random minute within the hour. For runs longer than the
//! schedule (the paper simulates five and ten years), the final cap holds.
//!
//! The paper does not specify the arrival duty cycle, but it does report
//! that "in a traditional storage system, this space [80 GB] will be fully
//! used up in about 40 to 50 days" (§5.1). Continuous 24 h arrivals at a
//! mean of 0.25 GB/hr would fill 80 GB in ~13 days, so arrivals must be
//! concentrated in part of the day ("these rates may depend on the time of
//! the day", §5.1). We default to an 8-hour active window, which lands the
//! fill at ~40 days; the window is configurable.

use rand::rngs::StdRng;
use rand::Rng;

use serde::{Deserialize, Serialize};
use sim_core::{rng, ByteSize, SimDuration, SimTime};

/// A timestamped raw volume arrival (no annotation yet — §5.1 attaches a
/// different curve per policy under test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VolumeArrival {
    /// Arrival instant (minute granularity).
    pub at: SimTime,
    /// Object size.
    pub size: ByteSize,
}

/// A piecewise-constant hourly-volume cap schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSchedule {
    /// `(phase length, cap per hour)` segments; the last cap holds forever.
    segments: Vec<(SimDuration, ByteSize)>,
}

impl RateSchedule {
    /// Builds a schedule from `(phase length, hourly cap)` segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    pub fn new(segments: Vec<(SimDuration, ByteSize)>) -> Self {
        assert!(!segments.is_empty(), "schedule needs at least one segment");
        RateSchedule { segments }
    }

    /// The paper's §5.1 schedule: quarterly caps of 0.5, 0.7, 1.0 and
    /// 1.3 GB/hr (91-day quarters), with 1.3 GB/hr holding afterwards.
    pub fn paper_single_class() -> Self {
        let quarter = SimDuration::from_days(91);
        RateSchedule::new(vec![
            (quarter, ByteSize::from_mib(512)),  // 0.5 GB/hr
            (quarter, ByteSize::from_mib(717)),  // 0.7 GB/hr
            (quarter, ByteSize::from_gib(1)),    // 1.0 GB/hr
            (quarter, ByteSize::from_mib(1331)), // 1.3 GB/hr
        ])
    }

    /// The hourly cap in force at `at`.
    pub fn cap_at(&self, at: SimTime) -> ByteSize {
        let mut elapsed = SimDuration::ZERO;
        for &(len, cap) in &self.segments {
            elapsed += len;
            if at.saturating_since(SimTime::ZERO) < elapsed {
                return cap;
            }
        }
        self.segments.last().expect("non-empty").1
    }
}

/// The §5.1 arrival generator: an infinite iterator of [`VolumeArrival`]s.
///
/// # Examples
///
/// ```
/// use workload::ramp::RampedArrivals;
/// use sim_core::SimTime;
///
/// let mut arrivals = RampedArrivals::paper(42);
/// let first = arrivals.next().expect("infinite stream");
/// assert!(first.at < SimTime::from_days(1));
/// ```
#[derive(Debug)]
pub struct RampedArrivals {
    schedule: RateSchedule,
    rng: StdRng,
    next_hour: SimTime,
    active_hours: (u64, u64),
}

impl RampedArrivals {
    /// Creates a generator over the given schedule with a derived seed and
    /// the default 8-hour daily active window.
    pub fn new(schedule: RateSchedule, seed: u64) -> Self {
        RampedArrivals {
            schedule,
            rng: rng::stream(seed, "ramp-arrivals"),
            next_hour: SimTime::ZERO,
            active_hours: (8, 16),
        }
    }

    /// Creates a generator with the paper's §5.1 schedule.
    pub fn paper(seed: u64) -> Self {
        RampedArrivals::new(RateSchedule::paper_single_class(), seed)
    }

    /// Sets the daily active window `[start, end)` in hours-of-day
    /// (builder style). `(0, 24)` means arrivals around the clock.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end <= 24`.
    #[must_use]
    pub fn with_active_hours(mut self, start: u64, end: u64) -> Self {
        assert!(start < end && end <= 24, "invalid active window");
        self.active_hours = (start, end);
        self
    }

    /// The schedule driving this generator.
    pub fn schedule(&self) -> &RateSchedule {
        &self.schedule
    }

    /// Expected cumulative volume by `at` — the analytic counterpart of
    /// Figure 2's storage-requirement curve.
    pub fn expected_volume_by(&self, at: SimTime) -> ByteSize {
        let mut total = 0u64;
        let mut hour_start = SimTime::ZERO;
        while hour_start < at {
            let hour_of_day = hour_start.as_hours() % 24;
            if hour_of_day >= self.active_hours.0 && hour_of_day < self.active_hours.1 {
                total += self.schedule.cap_at(hour_start).as_bytes() / 2;
            }
            hour_start += SimDuration::HOUR;
        }
        ByteSize::from_bytes(total)
    }
}

impl Iterator for RampedArrivals {
    type Item = VolumeArrival;

    fn next(&mut self) -> Option<VolumeArrival> {
        loop {
            let hour = self.next_hour;
            self.next_hour += SimDuration::HOUR;
            let hour_of_day = hour.as_hours() % 24;
            if hour_of_day < self.active_hours.0 || hour_of_day >= self.active_hours.1 {
                continue;
            }
            let cap = self.schedule.cap_at(hour).as_bytes();
            let size = self.rng.gen_range(0..=cap);
            // Skip degenerate zero-volume hours rather than emit an
            // unstorable zero-sized object.
            if size == 0 {
                continue;
            }
            let minute = self.rng.gen_range(0..60);
            return Some(VolumeArrival {
                at: hour + SimDuration::from_minutes(minute),
                size: ByteSize::from_bytes(size),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_ramps_quarterly() {
        let s = RateSchedule::paper_single_class();
        assert_eq!(s.cap_at(SimTime::ZERO), ByteSize::from_mib(512));
        assert_eq!(s.cap_at(SimTime::from_days(90)), ByteSize::from_mib(512));
        assert_eq!(s.cap_at(SimTime::from_days(91)), ByteSize::from_mib(717));
        assert_eq!(s.cap_at(SimTime::from_days(200)), ByteSize::from_gib(1));
        assert_eq!(s.cap_at(SimTime::from_days(300)), ByteSize::from_mib(1331));
        // Holds beyond the schedule.
        assert_eq!(s.cap_at(SimTime::from_days(5000)), ByteSize::from_mib(1331));
    }

    #[test]
    fn arrivals_are_in_window_sized_under_cap_and_ordered() {
        let mut gen = RampedArrivals::paper(7);
        let mut prev = SimTime::ZERO;
        for arrival in (&mut gen).take(500) {
            assert!(arrival.at >= prev, "arrivals must be time-ordered");
            prev = arrival.at;
            assert!(!arrival.size.is_zero());
            let hour_of_day = arrival.at.as_hours() % 24;
            assert!((8..16).contains(&hour_of_day));
            let cap = RateSchedule::paper_single_class().cap_at(arrival.at);
            assert!(arrival.size <= cap);
        }
    }

    #[test]
    fn custom_window_covers_whole_day() {
        let gen = RampedArrivals::paper(7).with_active_hours(0, 24);
        let hours: Vec<u64> = gen.take(100).map(|a| a.at.as_hours() % 24).collect();
        assert!(hours.iter().any(|&h| !(8..16).contains(&h)));
    }

    #[test]
    #[should_panic(expected = "invalid active window")]
    fn bad_window_panics() {
        let _ = RampedArrivals::paper(1).with_active_hours(10, 8);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a: Vec<_> = RampedArrivals::paper(9).take(100).collect();
        let b: Vec<_> = RampedArrivals::paper(9).take(100).collect();
        let c: Vec<_> = RampedArrivals::paper(10).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn daily_volume_tracks_half_cap_over_window() {
        // First quarter: cap 512 MiB/hr over 8 active hours → ≈2 GiB/day.
        let total: u64 = RampedArrivals::paper(3)
            .take_while(|a| a.at < SimTime::from_days(30))
            .map(|a| a.size.as_bytes())
            .sum();
        let daily_gib = total as f64 / 30.0 / (1024.0 * 1024.0 * 1024.0);
        assert!(
            (1.6..2.4).contains(&daily_gib),
            "daily volume {daily_gib} GiB out of expected band"
        );
    }

    #[test]
    fn expected_volume_by_is_monotone_and_plausible() {
        let gen = RampedArrivals::paper(0);
        let q1 = gen.expected_volume_by(SimTime::from_days(91));
        let year = gen.expected_volume_by(SimTime::from_days(364));
        assert!(year > q1);
        // Year one: (0.5+0.7+1.0+1.3)/2 caps × 8 h × 91 d ≈ 1.24 TiB.
        let gib = year.as_gib_f64();
        assert!((1100.0..1500.0).contains(&gib), "year volume {gib} GiB");
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_schedule_panics() {
        let _ = RateSchedule::new(vec![]);
    }

    #[test]
    fn traditional_storage_fills_in_40_to_50_days() {
        // §5.1: "In a traditional storage system, this space will be fully
        // used up in about 40 to 50 days" (80 GB disk).
        let mut cumulative = ByteSize::ZERO;
        let mut fill_day = None;
        for arrival in RampedArrivals::paper(1).take(24 * 120) {
            cumulative += arrival.size;
            if cumulative >= ByteSize::from_gib(80) {
                fill_day = Some(arrival.at.as_days());
                break;
            }
        }
        let day = fill_day.expect("80 GB must fill within the sample");
        assert!((35..55).contains(&day), "80 GiB filled on day {day}");
    }
}
