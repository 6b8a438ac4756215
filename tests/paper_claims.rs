//! Integration tests pinning the paper's qualitative claims, each tagged
//! with the section it reproduces. These run the real experiment drivers
//! at reduced horizons.

use temporal_reclaim::analysis::{TimeConstantEstimator, WeightedCdf};
use temporal_reclaim::experiments::lecture::{self, LectureRunConfig};
use temporal_reclaim::experiments::single_class::{self, PolicyChoice, SingleClassConfig};
use temporal_reclaim::workload::ramp::RampedArrivals;
use temporal_reclaim::workload::{CLASS_STUDENT, CLASS_UNIVERSITY};
use temporal_reclaim::{ByteSize, SimDuration, SimTime};

const SEED: u64 = 20070625;

fn single_class(
    policy: PolicyChoice,
    capacity_gib: u64,
    days: u64,
) -> single_class::SingleClassResult {
    let mut cfg = SingleClassConfig::paper(SEED, capacity_gib, policy);
    cfg.days = days;
    single_class::run(cfg)
}

/// §5.1: "In a traditional storage system, this space will be fully used
/// up in about 40 to 50 days."
#[test]
fn traditional_storage_fills_in_about_forty_days() {
    let result = single_class(PolicyChoice::NoImportance, 80, 120);
    // The first eviction or rejection marks the disk filling.
    let first_pressure = result
        .evictions
        .first()
        .map(|e| e.evicted_at)
        .into_iter()
        .chain(result.rejections.first().copied())
        .min()
        .expect("pressure must appear within 120 days");
    let day = first_pressure.as_days();
    assert!((30..60).contains(&day), "disk filled on day {day}");
}

/// §5.1.1: "When there is plenty of storage, all these policies perform in
/// a similar fashion" — before the disk fills, nobody rejects or evicts.
#[test]
fn policies_agree_without_pressure() {
    for policy in PolicyChoice::ALL {
        let result = single_class(policy, 80, 25);
        assert_eq!(result.stats.rejections_full, 0, "{policy} rejected early");
        assert_eq!(
            result.stats.evictions_preempted, 0,
            "{policy} evicted early"
        );
    }
}

/// §5.1.1: "The policy without temporal importance gives all stored
/// objects their requested lifetime of 30 days. On the other hand, this
/// policy rejects many more objects than a policy that implements the
/// temporal importance function."
#[test]
fn figure_3_and_4_ordering() {
    let fixed = single_class(PolicyChoice::NoImportance, 80, 400);
    let temporal = single_class(PolicyChoice::TemporalImportance, 80, 400);
    let fifo = single_class(PolicyChoice::Palimpsest, 80, 400);

    // Fig. 4 ordering: no-importance rejects most, temporal much less,
    // palimpsest never.
    assert!(fixed.stats.rejections_full > temporal.stats.rejections_full);
    assert_eq!(fifo.stats.rejections_full, 0);

    // Fig. 3 ordering: no-importance achieves the longest lifetimes
    // (every accepted object gets its full 30 days), temporal gives up
    // some of the wane, palimpsest sits at the bottom under pressure.
    let mean = |r: &single_class::SingleClassResult| r.lifetime_series().summary().unwrap().mean;
    let fixed_mean = mean(&fixed);
    let temporal_mean = mean(&temporal);
    let fifo_mean = mean(&fifo);
    assert!(
        fixed_mean >= temporal_mean,
        "no-importance {fixed_mean:.1} < temporal {temporal_mean:.1}"
    );
    assert!(
        temporal_mean >= fifo_mean,
        "temporal {temporal_mean:.1} < palimpsest {fifo_mean:.1}"
    );
    // Temporal guarantees the 15-day plateau.
    let temporal_min = temporal
        .lifetime_series()
        .values()
        .iter()
        .copied()
        .fold(f64::MAX, f64::min);
    assert!(temporal_min >= 15.0, "plateau violated: {temporal_min:.1}");
}

/// §4.2 "Scalability": adding storage must monotonically help every
/// policy without changing annotations.
#[test]
fn more_storage_never_hurts() {
    for policy in [PolicyChoice::NoImportance, PolicyChoice::TemporalImportance] {
        let small = single_class(policy, 80, 400);
        let large = single_class(policy, 120, 400);
        assert!(
            large.stats.rejections_full <= small.stats.rejections_full,
            "{policy}: rejections rose with capacity"
        );
    }
}

/// §5.1.2: the hour-window time constant "varied considerably", and the
/// variance depends on the arrival rate (heteroscedasticity) — while the
/// month window is far more stable.
#[test]
fn figure_5_time_constant_instability() {
    let horizon = SimTime::from_days(400);
    let arrivals: Vec<(SimTime, ByteSize)> = RampedArrivals::paper(SEED)
        .take_while(|arrival| arrival.at < horizon)
        .map(|arrival| (arrival.at, arrival.size))
        .collect();
    let capacity = ByteSize::from_gib(80);
    let hour =
        TimeConstantEstimator::new(capacity, SimDuration::HOUR).estimate(arrivals.iter().copied());
    let month = TimeConstantEstimator::new(capacity, SimDuration::from_days(30))
        .estimate(arrivals.iter().copied());
    let cv_hour = hour.coefficient_of_variation().unwrap();
    let cv_month = month.coefficient_of_variation().unwrap();
    assert!(
        cv_hour > 2.0 * cv_month,
        "hour cv {cv_hour:.3} not ≫ month cv {cv_month:.3}"
    );
    // Day-window heteroscedasticity: dispersion depends on the rate.
    let day =
        TimeConstantEstimator::new(capacity, SimDuration::DAY).estimate(arrivals.iter().copied());
    let ratio = day.heteroscedasticity_ratio(4).unwrap();
    assert!(ratio > 2.0, "day-window variance ratio {ratio:.2}");
}

/// §5.1.2 / Figure 7: at the snapshot the paper takes (density ≈ 0.8369),
/// a majority of bytes sit at importance one and objects below the
/// admission threshold cannot be stored.
#[test]
fn figure_7_snapshot_structure() {
    let mut cfg = SingleClassConfig::paper(SEED, 80, PolicyChoice::TemporalImportance);
    cfg.days = 400;
    cfg.snapshot_density = Some(0.8369);
    let result = single_class::run(cfg);
    let snap = result.snapshot.expect("density band must be crossed");

    // Build the CDF exactly as the figure does.
    let pairs: Vec<(f64, f64)> = snap
        .histogram
        .iter()
        .map(|&(imp, bytes)| (imp.value(), bytes.as_bytes() as f64))
        .collect();
    let cdf = WeightedCdf::from_pairs(pairs).unwrap();

    // Paper: "57% of the bytes have storage importance one".
    let at_full = snap.fraction_at_full();
    assert!(
        (0.3..0.95).contains(&at_full),
        "fraction at importance one: {at_full:.2}"
    );
    // Paper: "Objects with importance less than 0.25 cannot be stored" —
    // the minimum stored importance is strictly positive.
    assert!(
        cdf.min_value() > 0.05,
        "min importance {:.3}",
        cdf.min_value()
    );
    // Density ≈ the number the snapshot was taken at.
    assert!((snap.density - 0.8369).abs() < 0.01);
    // And the density is consistent with the CDF's mean importance
    // weighted by used/capacity.
    let mean_importance: f64 = snap
        .histogram
        .iter()
        .map(|&(imp, bytes)| imp.value() * bytes.as_bytes() as f64)
        .sum::<f64>()
        / snap.used.as_bytes() as f64;
    let reconstructed =
        mean_importance * snap.used.as_bytes() as f64 / snap.capacity.as_bytes() as f64;
    assert!((reconstructed - snap.density).abs() < 1e-9);
}

/// §5.2.2: with the two-step calendar lifetimes, university objects beat
/// student objects under pressure; Palimpsest "did not offer any
/// differentiation for the different users".
#[test]
fn figure_9_class_differentiation() {
    let mut cfg = LectureRunConfig::paper(SEED, 80);
    cfg.years = 3;
    let temporal = lecture::run(cfg.clone());
    cfg.palimpsest = true;
    let fifo = lecture::run(cfg);

    let t_uni = temporal
        .mean_lifetime_with_rejections(CLASS_UNIVERSITY)
        .unwrap();
    let t_student = temporal
        .mean_lifetime_with_rejections(CLASS_STUDENT)
        .unwrap();
    assert!(
        t_uni > 2.0 * t_student,
        "uni {t_uni:.0} vs student {t_student:.0}"
    );

    let f_uni = fifo
        .lifetime_series(CLASS_UNIVERSITY)
        .summary()
        .unwrap()
        .mean;
    let f_student = fifo.lifetime_series(CLASS_STUDENT).summary().unwrap().mean;
    let spread = (f_uni - f_student).abs() / f_uni.max(f_student);
    assert!(
        spread < 0.5,
        "palimpsest differentiated: {f_uni:.0} vs {f_student:.0}"
    );
}

/// §5.2.2 / Figure 10: under tremendous pressure (80 GB) university
/// objects are evicted once they wane below ~0.5; easing pressure
/// (120 GB) lets objects live down to lower importance before eviction.
#[test]
fn figure_10_reclamation_importance_shifts_with_pressure() {
    let run_at = |gib: u64| {
        let mut cfg = LectureRunConfig::paper(SEED, gib);
        cfg.years = 4;
        lecture::run(cfg)
    };
    let small = run_at(80);
    let large = run_at(120);
    let mean_imp = |r: &lecture::LectureRunResult| {
        r.reclamation_importance_series(CLASS_UNIVERSITY)
            .summary()
            .unwrap()
            .mean
    };
    let small_mean = mean_imp(&small);
    let large_mean = mean_imp(&large);
    assert!(
        large_mean <= small_mean,
        "120 GiB evicts at higher importance ({large_mean:.2}) than 80 GiB ({small_mean:.2})"
    );
    // Temporal policy never evicts live full-importance objects.
    let max = small
        .reclamation_importance_series(CLASS_UNIVERSITY)
        .values()
        .iter()
        .copied()
        .fold(0.0, f64::max);
    assert!(max < 1.0, "a full-importance object was preempted");
}

/// §5.2.3 / Figure 12: "As the storage pressure eases, more objects are
/// retained and the average importance density becomes lower."
#[test]
fn figure_12_density_falls_with_more_storage() {
    let run_at = |gib: u64| {
        let mut cfg = LectureRunConfig::paper(SEED, gib);
        cfg.years = 3;
        lecture::run(cfg)
    };
    let d80 = run_at(80).density.summary().unwrap().mean;
    let d120 = run_at(120).density.summary().unwrap().mean;
    assert!(
        d120 < d80,
        "density did not fall with more storage: {d80:.3} → {d120:.3}"
    );
}
