//! The §5.2 single-instructor lecture-capture experiment driver.

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, SimDuration, SimTime};
use temporal_importance::protocol::{Response, StoreApi};
use temporal_importance::{
    Error, EvictionPolicy, EvictionReason, EvictionRecord, ImportanceCurve, ObjectClass,
    ObjectIdGen, StorageUnit, StoreError, UnitStats,
};
use workload::lecture::{generate, LectureConfig};
use workload::{CLASS_STUDENT, CLASS_UNIVERSITY};

use analysis::TimeSeries;

/// Configuration of a §5.2 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LectureRunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Simulated years (paper: five and ten).
    pub years: u64,
    /// Local storage capacity (paper: 80 GB and 120 GB).
    pub capacity: ByteSize,
    /// Use Palimpsest FIFO instead of the two-step temporal policy
    /// (the §5.2.2 comparison run).
    pub palimpsest: bool,
    /// Density sampling interval.
    pub sample_every: SimDuration,
}

impl LectureRunConfig {
    /// The paper's §5.2 configuration for a capacity in GiB.
    pub fn paper(seed: u64, capacity_gib: u64) -> Self {
        LectureRunConfig {
            seed,
            years: 5,
            capacity: ByteSize::from_gib(capacity_gib),
            palimpsest: false,
            sample_every: SimDuration::DAY,
        }
    }
}

/// Results of a §5.2 run.
#[derive(Debug, Clone)]
pub struct LectureRunResult {
    /// The configuration that produced this result.
    pub config: LectureRunConfig,
    /// All evictions, in time order. Only stores evict in this run, so
    /// these are the records their outcomes returned.
    pub evictions: Vec<EvictionRecord>,
    /// The creator class of every store refused as full, in time order.
    pub rejections: Vec<ObjectClass>,
    /// Daily importance-density samples (Figure 12).
    pub density: TimeSeries,
    /// The raw arrival stream `(time, size)` (Figure 11's estimator input).
    pub arrivals: Vec<(SimTime, ByteSize)>,
    /// Final unit counters.
    pub stats: UnitStats,
}

impl LectureRunResult {
    /// Figure 9's series for one creator class: `(eviction time, lifetime
    /// achieved in days)` for preempted objects.
    pub fn lifetime_series(&self, class: ObjectClass) -> TimeSeries {
        self.evictions
            .iter()
            .filter(|e| e.class == class && e.reason == EvictionReason::Preempted)
            .map(|e| (e.evicted_at, e.lifetime_achieved().as_days_f64()))
            .collect()
    }

    /// Figure 10's series: `(eviction time, importance at reclamation)`
    /// for preempted objects of a class.
    pub fn reclamation_importance_series(&self, class: ObjectClass) -> TimeSeries {
        self.evictions
            .iter()
            .filter(|e| e.class == class && e.reason == EvictionReason::Preempted)
            .map(|e| (e.evicted_at, e.importance_at_eviction.value()))
            .collect()
    }

    /// Mean achieved lifetime in days for a class, counting rejected
    /// arrivals as zero-lifetime (the paper's reading of Fig. 9: student
    /// objects at 80 GB are "mostly rejected... lifetimes close to zero").
    pub fn mean_lifetime_with_rejections(&self, class: ObjectClass) -> Option<f64> {
        let achieved: Vec<f64> = self
            .evictions
            .iter()
            .filter(|e| e.class == class && e.reason == EvictionReason::Preempted)
            .map(|e| e.lifetime_achieved().as_days_f64())
            .chain(
                self.rejections
                    .iter()
                    .filter(|&&rejected| rejected == class)
                    .map(|_| 0.0),
            )
            .collect();
        if achieved.is_empty() {
            None
        } else {
            Some(achieved.iter().sum::<f64>() / achieved.len() as f64)
        }
    }

    /// Rejected-store count for a class.
    pub fn rejections_for(&self, class: ObjectClass) -> usize {
        self.rejections
            .iter()
            .filter(|&&rejected| rejected == class)
            .count()
    }
}

/// Runs the §5.2 experiment.
pub fn run(config: LectureRunConfig) -> LectureRunResult {
    sim_core::Obs::global().counter("experiment.lecture.runs", 1);
    let _span = sim_core::Obs::global().span("span.experiment.lecture");
    let workload_cfg = LectureConfig {
        seed: config.seed,
        ..LectureConfig::default()
    };
    let arrivals = generate(&workload_cfg, config.years);

    let policy = if config.palimpsest {
        EvictionPolicy::Fifo
    } else {
        EvictionPolicy::Preemptive
    };
    let mut unit = StorageUnit::builder(config.capacity).policy(policy).build();
    let mut ids = ObjectIdGen::new();

    let mut density = TimeSeries::new();
    let mut arrivals_log = Vec::with_capacity(arrivals.len());
    let mut next_sample = SimTime::ZERO;
    let mut evictions = Vec::new();
    let mut rejections = Vec::new();

    for arrival in arrivals {
        while next_sample <= arrival.at {
            let info = unit
                .density_info(next_sample)
                .expect("a unit answers a density read");
            density.push(next_sample, info.density);
            next_sample += config.sample_every;
        }
        arrivals_log.push((arrival.at, arrival.size));
        let at = arrival.at;
        // Under Palimpsest every object is ephemeral (importance-blind
        // FIFO); under the paper's policy the calendar curve applies.
        let curve = if config.palimpsest {
            ImportanceCurve::Ephemeral
        } else {
            arrival.curve.clone()
        };
        let spec = temporal_importance::ObjectSpec::new(ids.next_id(), arrival.size, curve)
            .with_class(arrival.class);
        match unit.call(at, spec.into()) {
            Response::Put(Ok(outcome)) => evictions.extend(outcome.evicted),
            Response::Put(Err(Error::Store(StoreError::Full { .. }))) => {
                rejections.push(arrival.class)
            }
            other => panic!("unexpected answer to a store in workload: {other:?}"),
        }
    }

    LectureRunResult {
        config,
        evictions,
        rejections,
        density,
        arrivals: arrivals_log,
        stats: *unit.stats(),
    }
}

/// For Figure 10's Palimpsest comparison: the importance each evicted
/// object *would have had* under the two-step annotation ("we project the
/// importance from our two step function to show the system behavior").
pub fn palimpsest_projected_importance(result: &LectureRunResult) -> TimeSeries {
    // Under FIFO the stored curve is Ephemeral, so re-derive the two-step
    // importance from the academic calendar at eviction time.
    let calendar = workload::calendar::AcademicCalendar::paper();
    result
        .evictions
        .iter()
        .filter(|e| e.reason == EvictionReason::Preempted)
        .filter_map(|e| {
            let creator = if e.class == CLASS_UNIVERSITY {
                workload::calendar::Creator::University
            } else if e.class == CLASS_STUDENT {
                workload::calendar::Creator::Student
            } else {
                return None;
            };
            let curve = calendar.lifetime_for(e.arrival, creator)?;
            let age = e.evicted_at.saturating_since(e.arrival);
            Some((e.evicted_at, curve.importance_at(age).value()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(capacity_gib: u64, palimpsest: bool) -> LectureRunResult {
        run(LectureRunConfig {
            seed: 5,
            years: 3,
            capacity: ByteSize::from_gib(capacity_gib),
            palimpsest,
            sample_every: SimDuration::from_days(2),
        })
    }

    #[test]
    fn university_objects_outlive_student_objects_under_pressure() {
        let result = quick(80, false);
        let uni = result
            .mean_lifetime_with_rejections(CLASS_UNIVERSITY)
            .unwrap();
        let student = result.mean_lifetime_with_rejections(CLASS_STUDENT).unwrap();
        assert!(
            uni > 2.0 * student,
            "university {uni:.0} d vs student {student:.0} d"
        );
    }

    #[test]
    fn university_lifetimes_in_papers_band_at_80_gib() {
        // Fig. 9: "the university generated objects achieve lifetimes of
        // 200 to 400 days" at 80 GB.
        let result = quick(80, false);
        let lifetimes = result.lifetime_series(CLASS_UNIVERSITY);
        let summary = lifetimes.summary().expect("university evictions exist");
        // The paper reports 200–400 days; our workload constants (student
        // bitrate, lectures/week) are reconstructions, so allow a wider
        // band around that range — the shape claims (university ≫ student,
        // pressure shortens lifetimes) are asserted separately.
        assert!(
            (150.0..650.0).contains(&summary.mean),
            "mean university lifetime {:.0} days",
            summary.mean
        );
    }

    #[test]
    fn students_gain_persistence_with_more_storage() {
        let small = quick(80, false);
        let large = quick(120, false);
        let s_small = small.mean_lifetime_with_rejections(CLASS_STUDENT).unwrap();
        let s_large = large.mean_lifetime_with_rejections(CLASS_STUDENT).unwrap();
        assert!(
            s_large > s_small,
            "student lifetime didn't improve: {s_small:.1} → {s_large:.1}"
        );
    }

    #[test]
    fn palimpsest_does_not_differentiate_classes() {
        let result = quick(80, true);
        let uni = result.lifetime_series(CLASS_UNIVERSITY).summary().unwrap();
        let student = result.lifetime_series(CLASS_STUDENT).summary().unwrap();
        // FIFO gives both classes roughly the same lifetime (§5.2.2).
        let ratio = uni.mean / student.mean;
        assert!(
            (0.6..1.6).contains(&ratio),
            "FIFO differentiated classes: {:.0} vs {:.0}",
            uni.mean,
            student.mean
        );
        assert_eq!(result.stats.rejections_full, 0);
    }

    #[test]
    fn palimpsest_evicts_objects_that_still_matter() {
        // §5.2.2: "Palimpsest reclaims objects which have higher
        // importance values" — its projected importance at reclamation
        // reaches above 0.5.
        let result = quick(80, true);
        let projected = palimpsest_projected_importance(&result);
        let max = projected.values().iter().copied().fold(0.0, f64::max);
        assert!(max > 0.5, "max projected importance {max}");
    }

    #[test]
    fn temporal_policy_evicts_only_low_importance_under_pressure() {
        let result = quick(80, false);
        let imps = result.reclamation_importance_series(CLASS_UNIVERSITY);
        let max = imps.values().iter().copied().fold(0.0, f64::max);
        // Fig. 10 at 80 GB: university objects are evicted once they fall
        // below ~50% importance.
        assert!(max <= 0.7, "evicted a high-importance object ({max})");
    }

    #[test]
    fn density_tracks_calendar_pressure() {
        let result = quick(80, false);
        let summary = result.density.summary().unwrap();
        assert!(summary.max <= 1.0 && summary.min >= 0.0);
        assert!(summary.max > 0.5, "never under pressure");
    }
}
