//! §5.3's university-wide capture stream.
//!
//! The university offers 2,321 courses; capturing all of them consumes
//! roughly 58 TB per semester (≈250 TB/year including student streams),
//! far more than a 2,000-node deployment of 80 GB units (160 TB) can hold.
//! The generator is lazy — a year of full-scale capture is over a million
//! objects, so arrivals are produced day by day.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sim_core::{rng, SimDuration, SimTime};

use crate::calendar::{AcademicCalendar, Creator, Term};
use crate::lecture::LectureConfig;
use crate::{Arrival, CLASS_STUDENT, CLASS_UNIVERSITY};

/// Configuration for the university-wide stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniversityConfig {
    /// RNG seed.
    pub seed: u64,
    /// Courses running in spring and fall semesters each (paper: 2,321).
    pub courses_per_semester: usize,
    /// Courses running in the summer term (a small fraction).
    pub courses_summer: usize,
    /// University camera bitrate in kbit/s.
    pub university_kbps: u64,
    /// Student stream bitrate in kbit/s.
    pub student_kbps: u64,
    /// Lecture length range in minutes, inclusive.
    pub lecture_minutes: (u64, u64),
    /// Maximum student interpretations per lecture.
    pub max_student_streams: u64,
}

impl Default for UniversityConfig {
    fn default() -> Self {
        UniversityConfig {
            seed: 0,
            courses_per_semester: 2321,
            courses_summer: 232,
            university_kbps: 1000,
            student_kbps: 384,
            lecture_minutes: (50, 75),
            max_student_streams: 3,
        }
    }
}

impl UniversityConfig {
    /// Scales the course counts down by `factor` (for laptop-scale runs
    /// that keep the demand-to-capacity ratio of the full deployment).
    #[must_use]
    pub fn scaled_down(mut self, factor: usize) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        self.courses_per_semester = (self.courses_per_semester / factor).max(1);
        self.courses_summer = (self.courses_summer / factor).max(1);
        self
    }
}

#[derive(Debug, Clone)]
struct Course {
    /// Weekday pattern offset: lectures on term-week days `{p, p+2, p+4}`.
    pattern: u64,
    /// Lecture hour of day (8..18).
    hour: u64,
    /// Minute within the hour.
    minute: u64,
}

/// Lazy iterator over a university-wide annotated arrival stream.
///
/// # Examples
///
/// ```
/// use workload::university::{UniversityCapture, UniversityConfig};
///
/// let cfg = UniversityConfig::default().scaled_down(100);
/// let arrivals: Vec<_> = UniversityCapture::new(cfg, 1).take(50).collect();
/// assert_eq!(arrivals.len(), 50);
/// assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[derive(Debug)]
pub struct UniversityCapture {
    config: UniversityConfig,
    calendar: AcademicCalendar,
    courses: Vec<Course>,
    rng: StdRng,
    day: u64,
    end_day: u64,
    buffer: VecDeque<Arrival>,
}

impl UniversityCapture {
    /// Creates a stream covering `years` simulated years.
    pub fn new(config: UniversityConfig, years: u64) -> Self {
        let mut course_rng = rng::stream(config.seed, "university-courses");
        let max_courses = config.courses_per_semester.max(config.courses_summer);
        let courses = (0..max_courses)
            .map(|_| Course {
                pattern: course_rng.gen_range(0..2),
                hour: course_rng.gen_range(8..18),
                minute: course_rng.gen_range(0..60),
            })
            .collect();
        UniversityCapture {
            rng: rng::stream(config.seed, "university-arrivals"),
            config,
            calendar: AcademicCalendar::paper(),
            courses,
            day: 0,
            end_day: years * 365,
            buffer: VecDeque::new(),
        }
    }

    fn active_courses(&self, term: Term) -> usize {
        match term {
            Term::Spring | Term::Fall => self.config.courses_per_semester,
            Term::Summer => self.config.courses_summer,
        }
    }

    fn fill_day(&mut self) {
        let at_day = SimTime::from_days(self.day);
        let Some(term) = self.calendar.term_on(at_day) else {
            return;
        };
        let doy = at_day.day_of_year();
        let week_day = doy.saturating_sub(term.begin_day()) % 7;
        let mut day_arrivals: Vec<Arrival> = Vec::new();

        let active = self.active_courses(term);
        for course in self.courses.iter().take(active) {
            // Three lectures a week on alternating days, phase per course.
            let lecture_today = (0..3).any(|k| week_day == course.pattern + 2 * k);
            if !lecture_today {
                continue;
            }
            let start = at_day
                + SimDuration::from_hours(course.hour)
                + SimDuration::from_minutes(course.minute);
            let minutes = self
                .rng
                .gen_range(self.config.lecture_minutes.0..=self.config.lecture_minutes.1);
            let curve = self
                .calendar
                .lifetime_for(start, Creator::University)
                .expect("term in session");
            day_arrivals.push(Arrival {
                at: start,
                size: LectureConfig::stream_size(self.config.university_kbps, minutes),
                class: CLASS_UNIVERSITY,
                curve,
            });

            let students = self.rng.gen_range(0..=self.config.max_student_streams);
            for _ in 0..students {
                let upload = start + SimDuration::from_minutes(self.rng.gen_range(60..360));
                if let Some(curve) = self.calendar.lifetime_for(upload, Creator::Student) {
                    day_arrivals.push(Arrival {
                        at: upload,
                        size: LectureConfig::stream_size(self.config.student_kbps, minutes),
                        class: CLASS_STUDENT,
                        curve,
                    });
                }
            }
        }

        day_arrivals.sort_by_key(|a| a.at);
        self.buffer.extend(day_arrivals);
    }
}

impl Iterator for UniversityCapture {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        while self.buffer.is_empty() {
            if self.day >= self.end_day {
                return None;
            }
            self.fill_day();
            self.day += 1;
        }
        self.buffer.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_stream_is_ordered_and_in_term() {
        let cfg = UniversityConfig::default().scaled_down(200);
        let arrivals: Vec<_> = UniversityCapture::new(cfg, 1).collect();
        assert!(!arrivals.is_empty());
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        let cal = AcademicCalendar::paper();
        assert!(arrivals.iter().all(|a| cal.term_on(a.at).is_some()));
    }

    #[test]
    fn full_scale_demand_is_hundreds_of_terabytes_per_year() {
        // Estimate annual volume from a 1/100-scale run (same per-course
        // statistics): paper quotes ≈58 TB/semester university content and
        // ≈300 TB/yr total demand.
        let cfg = UniversityConfig::default().scaled_down(100);
        let scale = 2321.0 / cfg.courses_per_semester as f64;
        let total: u64 = UniversityCapture::new(cfg, 1)
            .map(|a| a.size.as_bytes())
            .sum();
        let full_tb = total as f64 * scale / 1e12;
        assert!(
            (150.0..400.0).contains(&full_tb),
            "extrapolated annual demand {full_tb} TB"
        );
    }

    #[test]
    fn summer_runs_fewer_courses() {
        let cfg = UniversityConfig::default().scaled_down(100);
        let arrivals: Vec<_> = UniversityCapture::new(cfg, 1).collect();
        let cal = AcademicCalendar::paper();
        let spring = arrivals
            .iter()
            .filter(|a| cal.term_on(a.at) == Some(Term::Spring))
            .count();
        let summer = arrivals
            .iter()
            .filter(|a| cal.term_on(a.at) == Some(Term::Summer))
            .count();
        assert!(spring > summer * 2, "spring {spring} vs summer {summer}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = UniversityConfig::default().scaled_down(300);
        let a: Vec<_> = UniversityCapture::new(cfg.clone(), 1).take(200).collect();
        let b: Vec<_> = UniversityCapture::new(cfg, 1).take(200).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_panics() {
        let _ = UniversityConfig::default().scaled_down(0);
    }
}
