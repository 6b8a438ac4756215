//! Property-based tests on the core invariants of the temporal-importance
//! engine, driven through the public API of the umbrella crate.

use proptest::prelude::*;
use temporal_reclaim::core::protocol::StoreApi;
use temporal_reclaim::core::{
    Error, EvictionPolicy, EvictionReason, Importance, ImportanceCurve, ObjectId, PiecewiseCurve,
    StorageUnit, StoreError,
};
use temporal_reclaim::{ByteSize, SimDuration, SimTime};

fn importance_strategy() -> impl Strategy<Value = Importance> {
    (0.0f64..=1.0).prop_map(Importance::new_clamped)
}

fn duration_strategy() -> impl Strategy<Value = SimDuration> {
    (0u64..5_000).prop_map(SimDuration::from_days)
}

fn curve_strategy() -> impl Strategy<Value = ImportanceCurve> {
    prop_oneof![
        Just(ImportanceCurve::Persistent),
        Just(ImportanceCurve::Ephemeral),
        (importance_strategy(), duration_strategy())
            .prop_map(|(importance, expiry)| ImportanceCurve::Fixed { importance, expiry }),
        (
            importance_strategy(),
            duration_strategy(),
            duration_strategy()
        )
            .prop_map(|(importance, persist, wane)| ImportanceCurve::TwoStep {
                importance,
                persist,
                wane,
            }),
        (
            importance_strategy(),
            duration_strategy(),
            duration_strategy(),
            1u64..500
        )
            .prop_map(|(importance, persist, wane, half_life)| {
                ImportanceCurve::exp_decay(
                    importance,
                    persist,
                    wane,
                    SimDuration::from_days(half_life),
                )
                .expect("positive half-life")
            }),
    ]
}

proptest! {
    /// Every curve is monotonically non-increasing and valued in [0, 1].
    #[test]
    fn curves_are_monotone_and_bounded(
        curve in curve_strategy(),
        ages in proptest::collection::vec(0u64..10_000, 2..40),
    ) {
        let mut sorted = ages.clone();
        sorted.sort_unstable();
        let mut prev = Importance::FULL;
        let mut first = true;
        for age_days in sorted {
            let imp = curve.importance_at(SimDuration::from_days(age_days));
            prop_assert!((0.0..=1.0).contains(&imp.value()));
            if !first {
                prop_assert!(imp <= prev, "importance increased with age");
            }
            prev = imp;
            first = false;
        }
    }

    /// After `expiry()`, the importance is exactly zero.
    #[test]
    fn expiry_means_zero(curve in curve_strategy(), extra in 0u64..1_000) {
        if let Some(expiry) = curve.expiry() {
            let after = expiry + SimDuration::from_days(extra);
            prop_assert_eq!(curve.importance_at(after), Importance::ZERO);
            prop_assert!(curve.is_expired(after));
        }
    }

    /// Piecewise curves built from sorted non-increasing points validate,
    /// interpolate within bounds, and respect monotonicity.
    #[test]
    fn piecewise_curves_validate_and_interpolate(
        raw in proptest::collection::vec((0u64..3_000, 0.0f64..=1.0), 1..10),
        probe in 0u64..4_000,
    ) {
        // Sort ages ascending & dedup, sort importances descending, zip.
        let mut ages: Vec<u64> = raw.iter().map(|(a, _)| *a).collect();
        ages.sort_unstable();
        ages.dedup();
        let mut imps: Vec<f64> = raw.iter().take(ages.len()).map(|(_, i)| *i).collect();
        imps.sort_by(|a, b| b.total_cmp(a));
        let mut points: Vec<(SimDuration, Importance)> = ages
            .into_iter()
            .zip(imps)
            .map(|(a, i)| (SimDuration::from_days(a), Importance::new_clamped(i)))
            .collect();
        // Force the origin.
        if points[0].0 != SimDuration::ZERO {
            let first_imp = points[0].1;
            points.insert(0, (SimDuration::ZERO, first_imp));
        }
        let curve = PiecewiseCurve::new(points).expect("constructed valid");
        let v = curve.importance_at(SimDuration::from_days(probe));
        prop_assert!((0.0..=1.0).contains(&v.value()));
    }

    /// Engine invariant: used + free == capacity, and used equals the sum
    /// of resident object sizes, across arbitrary churn. The unit keeps no
    /// log of its own, so the records each call returns must account for
    /// every counted eviction and refusal: after every step, summing what
    /// `store`, `sweep_expired` and `remove` returned reproduces the
    /// counters exactly.
    ///
    /// Action 0 sweeps, 1 removes an earlier id (resident or not), 2
    /// stores under half the step's index, which may still be resident
    /// (a duplicate refusal), and 3–9 store under a fresh id.
    #[test]
    fn accounting_is_exact_under_churn(
        ops in proptest::collection::vec(
            (1u64..200, 0.0f64..=1.0, 0u64..120, 0u64..400, 0u8..10),
            1..80,
        ),
    ) {
        let capacity = ByteSize::from_mib(1_000);
        let mut unit = StorageUnit::new(capacity);
        let (mut preempted, mut expired, mut removed, mut bytes_evicted) = (0u64, 0u64, 0u64, 0u64);
        let (mut accepted, mut full, mut duplicates) = (0u64, 0u64, 0u64);
        for (i, (mib, importance, expiry, at_day, action)) in ops.into_iter().enumerate() {
            let i = i as u64;
            let now = SimTime::from_days(at_day);
            let returned = match action {
                0 => unit.sweep(now).unwrap(),
                1 => {
                    let id = ObjectId::new(at_day % (i + 1));
                    unit.remove_object(id, now).unwrap().into_iter().collect()
                }
                _ => {
                    let id = ObjectId::new(if action == 2 { i / 2 } else { i });
                    let curve = ImportanceCurve::Fixed {
                        importance: Importance::new_clamped(importance),
                        expiry: SimDuration::from_days(expiry),
                    };
                    match unit.put(id, ByteSize::from_mib(mib), curve, now) {
                        Ok(outcome) => {
                            accepted += 1;
                            outcome.evicted
                        }
                        Err(Error::Store(StoreError::Full { .. })) => {
                            full += 1;
                            Vec::new()
                        }
                        Err(e) => {
                            prop_assert!(
                                matches!(e, Error::Store(StoreError::DuplicateId(_))),
                                "unexpected error {e}"
                            );
                            duplicates += 1;
                            Vec::new()
                        }
                    }
                }
            };
            for record in &returned {
                match record.reason {
                    EvictionReason::Preempted => preempted += 1,
                    EvictionReason::Expired => expired += 1,
                    EvictionReason::Removed => removed += 1,
                    other => prop_assert!(false, "unexpected reason {other:?}"),
                }
                bytes_evicted += record.size.as_bytes();
            }

            let stats = *unit.stats();
            prop_assert_eq!(stats.evictions_preempted, preempted);
            prop_assert_eq!(stats.evictions_expired, expired);
            prop_assert_eq!(stats.removals, removed);
            prop_assert_eq!(stats.bytes_evicted, bytes_evicted);
            prop_assert_eq!(stats.rejections_full, full);
            prop_assert_eq!(stats.stores_accepted, accepted);
            prop_assert_eq!(stats.stores_attempted, accepted + stats.rejections() + duplicates);

            prop_assert_eq!(unit.used() + unit.free(), capacity);
            let resident: ByteSize = unit.iter().map(|o| o.size()).sum();
            prop_assert_eq!(resident, unit.used());
            let d = unit.density_info(now).unwrap().density;
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }

    /// The strict preemption rule: no eviction ever removes an object
    /// whose current importance is >= the incoming object's importance
    /// (unless the victim had expired).
    #[test]
    fn preemption_is_strict(
        ops in proptest::collection::vec((1u64..300, 0.0f64..=1.0), 1..60),
    ) {
        let mut unit = StorageUnit::new(ByteSize::from_mib(1_000));
        let now = SimTime::from_days(1);
        for (i, (mib, importance)) in ops.into_iter().enumerate() {
            let incoming = Importance::new_clamped(importance);
            let curve = ImportanceCurve::Fixed {
                importance: incoming,
                expiry: SimDuration::from_days(10_000),
            };
            match unit.put(ObjectId::new(i as u64), ByteSize::from_mib(mib), curve, now) {
                Ok(outcome) => {
                    for victim in &outcome.evicted {
                        prop_assert!(
                            victim.importance_at_eviction < incoming,
                            "victim at {} >= incoming {}",
                            victim.importance_at_eviction,
                            incoming
                        );
                    }
                }
                Err(Error::Store(StoreError::Full { .. })) => {}
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    /// FIFO (Palimpsest) never reports Full for objects that fit in the
    /// unit at all, and always evicts in arrival order.
    #[test]
    fn fifo_never_full_and_evicts_oldest(
        ops in proptest::collection::vec(1u64..500, 1..60),
    ) {
        let mut unit = StorageUnit::builder(ByteSize::from_mib(1_000))
            .policy(EvictionPolicy::Fifo)
            .build();
        let mut day = 0u64;
        for (i, mib) in ops.into_iter().enumerate() {
            day += 1;
            let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_days(30));
            let outcome = unit
                .put(ObjectId::new(i as u64), ByteSize::from_mib(mib), curve, SimTime::from_days(day))
                .expect("fifo admits everything that fits");
            // Victims are the oldest residents: their arrivals must all
            // precede every remaining resident's arrival.
            if let (Some(last_victim), Some(oldest_resident)) = (
                outcome.evicted.last(),
                unit.iter().map(|o| o.arrival()).min(),
            ) {
                prop_assert!(last_victim.arrival <= oldest_resident);
            }
        }
        prop_assert_eq!(unit.stats().rejections_full, 0);
    }

    /// An advise never lies: if it admits, the subsequent store
    /// succeeds with the same highest-preempted importance; if it reports
    /// Full, the store fails.
    #[test]
    fn peek_matches_store(
        fill in proptest::collection::vec((1u64..100, 0.0f64..=1.0), 1..40),
        probe_mib in 1u64..200,
        probe_importance in 0.0f64..=1.0,
    ) {
        let mut unit = StorageUnit::new(ByteSize::from_mib(500));
        let now = SimTime::from_days(1);
        for (i, (mib, importance)) in fill.into_iter().enumerate() {
            let curve = ImportanceCurve::Fixed {
                importance: Importance::new_clamped(importance),
                expiry: SimDuration::from_days(10_000),
            };
            let _ = unit.put(ObjectId::new(i as u64), ByteSize::from_mib(mib), curve, now);
        }
        let (id, size) = (ObjectId::new(999_999), ByteSize::from_mib(probe_mib));
        let incoming = Importance::new_clamped(probe_importance);
        let peek = unit.advise(id, size, incoming, now).unwrap();
        let curve = ImportanceCurve::Fixed {
            importance: incoming,
            expiry: SimDuration::from_days(10_000),
        };
        let stored = unit.put(id, size, curve, now);
        match (peek.placement_score(), stored) {
            (Some(score), Ok(outcome)) => {
                prop_assert_eq!(outcome.placement_score(), score);
            }
            (None, Err(_)) => {}
            (peeked, actual) => prop_assert!(
                false,
                "peek said {peeked:?} but store said {actual:?}"
            ),
        }
    }
}
