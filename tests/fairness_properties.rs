//! Property tests for the fairness layer and the annotation advisor.

use proptest::prelude::*;
use temporal_reclaim::core::protocol::StoreApi;
use temporal_reclaim::core::{
    Admission, Advisor, FairStore, FairStoreError, Importance, ImportanceCurve, ObjectId,
    ObjectSpec, PrincipalId, StorageUnit,
};
use temporal_reclaim::{ByteSize, SimDuration, SimTime};

proptest! {
    /// Conservation: the sum of per-principal charges always equals the
    /// weighted bytes of resident objects, through stores, preemptions,
    /// sweeps and removals.
    #[test]
    fn charges_are_conserved(
        ops in proptest::collection::vec(
            (0u32..4, 1u64..120, 0.0f64..=1.0, 0u64..60, 0u8..4),
            1..80,
        ),
    ) {
        let mut store = FairStore::new(
            StorageUnit::new(ByteSize::from_mib(500)),
            ByteSize::from_mib(200),
        );
        for (i, (user, mib, importance, day, op)) in ops.into_iter().enumerate() {
            let now = SimTime::from_days(day);
            match op {
                0..=1 => {
                    let spec = ObjectSpec::new(
                        ObjectId::new(i as u64),
                        ByteSize::from_mib(mib),
                        ImportanceCurve::Fixed {
                            importance: Importance::new_clamped(importance),
                            expiry: SimDuration::from_days(30),
                        },
                    );
                    let _ = store.store(PrincipalId::new(user), spec, now);
                }
                2 => {
                    // Remove an arbitrary (maybe absent) object.
                    let _ = store.remove(ObjectId::new((i / 2) as u64), now);
                }
                _ => {
                    let _ = store.sweep_expired(now);
                }
            }
            // Recompute ground truth from the unit's residents.
            let expected: u64 = store
                .unit()
                .iter()
                .map(|o| {
                    (o.size().as_bytes() as f64
                        * o.curve().initial_importance().value())
                    .ceil() as u64
                })
                .sum();
            prop_assert_eq!(store.total_charged(), expected);
        }
    }

    /// No principal's charge ever exceeds the budget.
    #[test]
    fn budgets_are_never_exceeded(
        ops in proptest::collection::vec((0u32..3, 1u64..150, 0.0f64..=1.0), 1..60),
    ) {
        let budget = ByteSize::from_mib(100);
        let mut store = FairStore::new(
            StorageUnit::new(ByteSize::from_mib(1000)),
            budget,
        );
        for (i, (user, mib, importance)) in ops.into_iter().enumerate() {
            let principal = PrincipalId::new(user);
            let spec = ObjectSpec::new(
                ObjectId::new(i as u64),
                ByteSize::from_mib(mib),
                ImportanceCurve::Fixed {
                    importance: Importance::new_clamped(importance),
                    expiry: SimDuration::from_days(30),
                },
            );
            match store.store(principal, spec, SimTime::ZERO) {
                Ok(_) | Err(FairStoreError::QuotaExceeded { .. }) => {}
                Err(FairStoreError::Store(_)) => {}
                Err(_) => {}
            }
            prop_assert!(store.usage(principal).charged <= budget.as_bytes());
        }
    }

    /// Advisor consistency: for any mix of resident objects and probe
    /// size, the advisor's size-aware threshold agrees with the engine —
    /// just above it admits, at-or-below (when positive) rejects.
    #[test]
    fn advisor_threshold_matches_engine(
        fill in proptest::collection::vec((1u64..80, 0.01f64..=1.0), 0..30),
        probe_mib in 1u64..200,
    ) {
        let mut unit = StorageUnit::new(ByteSize::from_mib(200));
        for (i, (mib, importance)) in fill.into_iter().enumerate() {
            let curve = ImportanceCurve::Fixed {
                importance: Importance::new_clamped(importance),
                expiry: SimDuration::from_days(3650),
            };
            let _ = unit.put(ObjectId::new(i as u64), ByteSize::from_mib(mib), curve, SimTime::ZERO);
        }
        let advisor = Advisor::from_snapshot(unit.density_snapshot(SimTime::ZERO));
        let size = ByteSize::from_mib(probe_mib);
        let threshold = advisor.admission_threshold_for(size);
        let mut admits = |incoming| {
            unit.advise(ObjectId::new(0), size, incoming, SimTime::ZERO)
                .expect("a probe answers")
                .is_admitted()
        };

        if threshold < Importance::FULL {
            let above = Importance::new_clamped(threshold.value() + 0.005);
            // Strictly above the least-displaceable importance: admitted.
            if above > threshold {
                prop_assert!(
                    admits(above),
                    "threshold {threshold} but {above} rejected for {probe_mib} MiB"
                );
            }
        }
        if !threshold.is_zero() {
            prop_assert!(
                !admits(threshold),
                "threshold {threshold} itself admitted for {probe_mib} MiB"
            );
        }
    }
    /// The advisor reads off the plan (ROADMAP 9b): for a full-importance
    /// object the size-aware threshold is the engine's own answer — zero
    /// when the object fits, the highest importance it would preempt, and
    /// `FULL` (or the blocking importance) when the unit is full for it.
    /// Units hold every curve shape, arrive over weeks and are probed up
    /// to forty days later, so expired and decaying bytes are in play.
    #[test]
    fn advisor_threshold_is_the_plans_highest_preempted(
        fill in proptest::collection::vec(
            (1u64..60, 0u8..5, 0.01f64..=1.0, 1u64..40, 0u64..48),
            0..30,
        ),
        probe_mib in 1u64..240,
        later in 0u64..40,
    ) {
        let capacity = ByteSize::from_mib(200);
        let mut unit = StorageUnit::new(capacity);
        let mut now = SimTime::ZERO;
        for (i, (mib, shape, level, days, gap)) in fill.into_iter().enumerate() {
            now += SimDuration::from_hours(gap);
            let level = Importance::new_clamped(level);
            let span = SimDuration::from_days(days);
            let curve = match shape {
                0 => ImportanceCurve::Fixed {
                    importance: level,
                    expiry: span,
                },
                1 => ImportanceCurve::two_step(level, span, span),
                2 => ImportanceCurve::exp_decay(level, span, span, SimDuration::from_days(3))
                    .expect("positive half-life"),
                3 => ImportanceCurve::Persistent,
                _ => ImportanceCurve::Ephemeral,
            };
            let _ = unit.put(ObjectId::new(i as u64), ByteSize::from_mib(mib), curve, now);
        }
        let now = now + SimDuration::from_days(later);
        let size = ByteSize::from_mib(probe_mib);
        let advisor = Advisor::from_snapshot(unit.density_snapshot(now));
        let threshold = advisor.admission_threshold_for(size);
        let probe = unit.advise(ObjectId::new(0), size, Importance::FULL, now);
        match probe.expect("a probe answers") {
            Admission::Fits { .. } => prop_assert_eq!(threshold, Importance::ZERO),
            Admission::Preempting { highest, .. } => prop_assert_eq!(threshold, highest),
            // Only full-importance bytes can block a full-importance
            // object, so the blocking importance is `FULL` as well.
            Admission::Full { blocking } => prop_assert_eq!(
                (threshold, blocking),
                (Importance::FULL, Some(Importance::FULL))
            ),
            Admission::TooLarge => {
                prop_assert!(size > capacity);
                prop_assert_eq!(threshold, Importance::FULL);
            }
            other => prop_assert!(false, "unexpected admission {other:?}"),
        }
    }
}
