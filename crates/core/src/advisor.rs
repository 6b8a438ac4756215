//! The annotation advisor: turning storage feedback into annotation
//! choices.
//!
//! §5.1.2 argues that the storage importance density is the signal content
//! creators need: "the content creator is forced to make a decision up
//! front... The difference between the storage density and the object
//! importance gives some indication of the object longevity." This module
//! operationalizes that guidance: given a [`DensitySnapshot`], it computes
//! the admission threshold an object of a given size faces, predicts how
//! long an annotation is likely to survive, and suggests the plateau
//! importance needed to reach a target persistence.

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, SimDuration};

use crate::{DensitySnapshot, Importance, ImportanceCurve};

/// The advisor's admission forecast for one annotation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Forecast {
    /// The storage currently admits this (importance, size) combination.
    Admitted {
        /// Expected survivable age: the age at which the curve decays to
        /// the admission threshold and becomes preemptible by the
        /// marginal admitted object (`None` = the curve never drops below
        /// the threshold before expiry — full requested lifetime).
        expected_survival: Option<SimDuration>,
    },
    /// The storage is full for this (importance, size): the object would
    /// be rejected right now.
    Rejected {
        /// The importance level the object would need to exceed.
        threshold: Importance,
    },
}

impl Forecast {
    /// True if the annotation is currently admissible.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Forecast::Admitted { .. })
    }
}

/// Advice derived from a storage unit's importance state.
///
/// All advice is computed purely from the [`DensitySnapshot`]'s
/// byte-importance histogram — the same data Figure 7 plots — so an
/// application can obtain it from a remote unit without shipping object
/// metadata.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimDuration, SimTime};
/// use temporal_importance::protocol::StoreApi;
/// use temporal_importance::{Advisor, Importance, ImportanceCurve, ObjectId, StorageUnit};
///
/// let mut unit = StorageUnit::new(ByteSize::from_mib(100));
/// let curve = ImportanceCurve::Fixed {
///     importance: Importance::new(0.6)?,
///     expiry: SimDuration::from_days(365),
/// };
/// unit.put(ObjectId::new(0), ByteSize::from_mib(100), curve, SimTime::ZERO)?;
///
/// let advisor = Advisor::from_snapshot(unit.density_snapshot(SimTime::ZERO));
/// // The disk is full of 0.6-importance data: a 10 MiB object must beat 0.6.
/// let threshold = advisor.admission_threshold_for(ByteSize::from_mib(10));
/// assert_eq!(threshold, Importance::new(0.6)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Advisor {
    snapshot: DensitySnapshot,
}

impl Advisor {
    /// Builds an advisor from a point-in-time snapshot.
    pub fn from_snapshot(snapshot: DensitySnapshot) -> Self {
        Advisor { snapshot }
    }

    /// The admission threshold an object of `size` faces right now: the
    /// importance its annotation must *exceed* to be stored. Zero means
    /// free space (or freely-replaceable bytes) suffices.
    ///
    /// Computed by walking the byte-importance histogram from the least
    /// important bytes up, exactly how the preemption engine would
    /// consume victims: the threshold is the importance of the last byte
    /// that must be displaced.
    ///
    /// §5.1.2 reads this off Figure 7: "Objects with importance less than
    /// 0.25 cannot be stored."
    ///
    /// For a full-importance object it is the engine's own plan, read
    /// from [`Request::Advise`](crate::protocol::Request::Advise):
    /// zero where the plan `Fits`, the plan's `highest` where it is
    /// `Preempting`, and [`Importance::FULL`] where the unit is `Full` or
    /// the object is larger than the unit (`tests/fairness_properties.rs`
    /// pins this over every curve shape). The one place they part: a
    /// zero-byte object gets zero here, and the engine refuses it as
    /// empty.
    pub fn admission_threshold_for(&self, size: ByteSize) -> Importance {
        let free = self
            .snapshot
            .capacity
            .saturating_sub(self.snapshot.used)
            .as_bytes();
        let needed = size.as_bytes();
        if free >= needed {
            return Importance::ZERO;
        }
        let mut reclaimed = free;
        for &(importance, bytes) in &self.snapshot.histogram {
            reclaimed += bytes.as_bytes();
            if reclaimed >= needed {
                return importance;
            }
        }
        // Larger than the whole unit: nothing can admit it.
        Importance::FULL
    }

    /// Forecasts how an annotation on an object of `size` will fare if
    /// submitted now, assuming the storage pressure stays roughly
    /// constant — the paper's "average storage importance density... is a
    /// reasonable predictor of this state of the storage".
    pub fn forecast(&self, curve: &ImportanceCurve, size: ByteSize) -> Forecast {
        let threshold = self.admission_threshold_for(size);
        let initial = curve.initial_importance();
        if initial <= threshold && !threshold.is_zero() {
            return Forecast::Rejected { threshold };
        }
        Forecast::Admitted {
            expected_survival: survival_age(curve, threshold),
        }
    }

    /// The smallest plateau importance a creator should request so that a
    /// two-step annotation with the given `persist`/`wane` on an object
    /// of `size` survives at least `target` under current pressure — or
    /// `None` if even full importance cannot reach it.
    pub fn min_plateau_for(
        &self,
        size: ByteSize,
        persist: SimDuration,
        wane: SimDuration,
        target: SimDuration,
    ) -> Option<Importance> {
        let threshold = self.admission_threshold_for(size);
        // Scan plateau candidates from low to high at 1% granularity.
        for step in 0..=100u32 {
            let plateau = Importance::new_clamped(f64::from(step) / 100.0);
            if plateau <= threshold && !threshold.is_zero() {
                continue;
            }
            if plateau.is_zero() && !target.is_zero() {
                continue;
            }
            let curve = ImportanceCurve::two_step(plateau, persist, wane);
            match self.forecast(&curve, size) {
                Forecast::Admitted {
                    expected_survival: Some(age),
                } if age >= target => return Some(plateau),
                Forecast::Admitted {
                    expected_survival: None,
                } => return Some(plateau),
                _ => {}
            }
        }
        None
    }
}

/// The age at which `curve` decays to `threshold` (when the object
/// becomes preemptible by the marginal admitted object). `None` if it
/// never does before expiry.
fn survival_age(curve: &ImportanceCurve, threshold: Importance) -> Option<SimDuration> {
    let expiry = curve.expiry()?;
    if threshold.is_zero() {
        return Some(expiry);
    }
    if curve.initial_importance() <= threshold {
        return Some(SimDuration::ZERO);
    }
    // Binary search the monotone curve for the crossing age.
    let mut lo = 0u64; // importance > threshold here
    let mut hi = expiry.as_minutes(); // importance == 0 <= threshold here
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if curve.importance_at(SimDuration::from_minutes(mid)) > threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(SimDuration::from_minutes(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectId, ObjectSpec, StorageUnit};
    use sim_core::SimTime;

    fn imp(v: f64) -> Importance {
        Importance::new(v).unwrap()
    }

    fn mib(n: u64) -> ByteSize {
        ByteSize::from_mib(n)
    }

    fn unit_with(objects: &[(u64, f64)]) -> StorageUnit {
        let mut unit = StorageUnit::new(mib(100));
        for (i, &(size_mib, importance)) in objects.iter().enumerate() {
            unit.store(
                ObjectSpec::new(
                    ObjectId::new(i as u64),
                    mib(size_mib),
                    ImportanceCurve::Fixed {
                        importance: imp(importance),
                        expiry: SimDuration::from_days(3650),
                    },
                ),
                SimTime::ZERO,
            )
            .unwrap();
        }
        unit
    }

    fn advisor_for(objects: &[(u64, f64)]) -> Advisor {
        Advisor::from_snapshot(unit_with(objects).density_snapshot(SimTime::ZERO))
    }

    #[test]
    fn empty_storage_admits_everything() {
        let advisor = advisor_for(&[]);
        assert_eq!(advisor.admission_threshold_for(mib(100)), Importance::ZERO);
        assert!(advisor
            .forecast(&ImportanceCurve::Ephemeral, mib(1))
            .is_admitted());
    }

    #[test]
    fn threshold_is_size_aware() {
        // 40 MiB free, then bytes at 0.2 (30 MiB) and 0.7 (30 MiB).
        let advisor = advisor_for(&[(30, 0.2), (30, 0.7)]);
        // Fits in free space.
        assert_eq!(advisor.admission_threshold_for(mib(40)), Importance::ZERO);
        // Needs to displace some 0.2 bytes.
        assert_eq!(advisor.admission_threshold_for(mib(50)), imp(0.2));
        // Needs to reach into the 0.7 bytes.
        assert_eq!(advisor.admission_threshold_for(mib(80)), imp(0.7));
        // Larger than the unit: unstorable.
        assert_eq!(advisor.admission_threshold_for(mib(200)), Importance::FULL);
    }

    #[test]
    fn threshold_agrees_with_the_engine() {
        let mut unit = unit_with(&[(60, 0.3), (40, 0.8)]);
        let advisor = Advisor::from_snapshot(unit.density_snapshot(SimTime::ZERO));
        for size_mib in [10u64, 50, 70, 99] {
            let threshold = advisor.admission_threshold_for(mib(size_mib));
            // Just above the threshold: engine admits.
            let above = Importance::new_clamped(threshold.value() + 0.01);
            assert!(
                unit.peek_admission(mib(size_mib), above, SimTime::ZERO)
                    .is_admitted(),
                "size {size_mib} MiB at {above} should be admitted"
            );
            // At or below a positive threshold: engine rejects.
            if !threshold.is_zero() {
                assert!(
                    !unit
                        .peek_admission(mib(size_mib), threshold, SimTime::ZERO)
                        .is_admitted(),
                    "size {size_mib} MiB at {threshold} should be rejected"
                );
            }
        }
    }

    #[test]
    fn below_threshold_annotations_are_rejected() {
        let advisor = advisor_for(&[(100, 0.5)]);
        let low = ImportanceCurve::Fixed {
            importance: imp(0.3),
            expiry: SimDuration::from_days(10),
        };
        match advisor.forecast(&low, mib(10)) {
            Forecast::Rejected { threshold } => assert_eq!(threshold, imp(0.5)),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn survival_is_the_threshold_crossing_age() {
        let advisor = advisor_for(&[(100, 0.5)]);
        // Full for 10 days, wanes over 10: crosses 0.5 at day 15.
        let curve = ImportanceCurve::two_step(
            Importance::FULL,
            SimDuration::from_days(10),
            SimDuration::from_days(10),
        );
        match advisor.forecast(&curve, mib(10)) {
            Forecast::Admitted {
                expected_survival: Some(age),
            } => {
                let days = age.as_days_f64();
                assert!((14.9..15.1).contains(&days), "crossing at {days} days");
            }
            other => panic!("expected admitted-with-survival, got {other:?}"),
        }
    }

    #[test]
    fn zero_pressure_means_full_lifetime() {
        let advisor = advisor_for(&[]);
        let curve = ImportanceCurve::two_step(
            Importance::FULL,
            SimDuration::from_days(10),
            SimDuration::from_days(10),
        );
        match advisor.forecast(&curve, mib(10)) {
            Forecast::Admitted {
                expected_survival: Some(age),
            } => assert_eq!(age, SimDuration::from_days(20)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn persistent_curves_never_cross() {
        let advisor = advisor_for(&[(100, 0.5)]);
        match advisor.forecast(&ImportanceCurve::Persistent, mib(10)) {
            Forecast::Admitted { expected_survival } => {
                assert_eq!(expected_survival, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn min_plateau_scales_with_pressure() {
        let persist = SimDuration::from_days(10);
        let wane = SimDuration::from_days(10);
        // Against a 0.6 threshold, a plateau-p curve survives
        // 10 + 10·(1 − 0.6/p) days, so a 13-day target needs p ≥ ~0.857.
        let target = SimDuration::from_days(13);

        // No pressure: even a tiny plateau survives.
        let advisor = advisor_for(&[]);
        let plateau = advisor
            .min_plateau_for(mib(10), persist, wane, target)
            .unwrap();
        assert!(plateau <= imp(0.02));

        // Heavy pressure at 0.6.
        let advisor = advisor_for(&[(100, 0.6)]);
        let plateau = advisor
            .min_plateau_for(mib(10), persist, wane, target)
            .unwrap();
        assert!(plateau >= imp(0.85), "plateau {plateau}");
        // Verify the advice: the implied curve really survives 13 days.
        let curve = ImportanceCurve::two_step(plateau, persist, wane);
        assert!(curve.importance_at(SimDuration::from_days(13) - SimDuration::MINUTE) > imp(0.6));
    }

    #[test]
    fn impossible_targets_return_none() {
        let advisor = advisor_for(&[(100, 0.99)]);
        // Wane hits zero at day 20 but the threshold is 0.99: nothing
        // with this shape stays above 0.99 for 19+ days.
        let plateau = advisor.min_plateau_for(
            mib(10),
            SimDuration::from_days(10),
            SimDuration::from_days(10),
            SimDuration::from_days(19),
        );
        assert_eq!(plateau, None);
    }
}
