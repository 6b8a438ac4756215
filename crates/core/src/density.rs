//! The storage importance density metric and byte-importance distributions.

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, SimTime};

use crate::{Importance, StorageUnit};

/// A point-in-time summary of a unit's importance state.
///
/// Figures 6, 7 and 12 of the paper are drawn from this data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensitySnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// The average storage importance density in `[0, 1]`.
    pub density: f64,
    /// Bytes currently stored.
    pub used: ByteSize,
    /// The unit's capacity.
    pub capacity: ByteSize,
    /// Stored bytes grouped by current importance, ascending by importance.
    pub histogram: Vec<(Importance, ByteSize)>,
}

impl DensitySnapshot {
    /// The cumulative distribution of stored-byte importance: for each
    /// distinct importance value `v` (ascending), the fraction of *stored*
    /// bytes with importance `<= v`. This is exactly Figure 7's y-axis.
    ///
    /// Returns an empty vector if nothing is stored.
    pub fn byte_cdf(&self) -> Vec<(Importance, f64)> {
        let total = self.used.as_bytes();
        if total == 0 {
            return Vec::new();
        }
        let mut acc = 0u64;
        self.histogram
            .iter()
            .map(|&(imp, bytes)| {
                acc += bytes.as_bytes();
                (imp, acc as f64 / total as f64)
            })
            .collect()
    }

    /// Fraction of stored bytes at exactly full importance (the paper
    /// reads "57% of the bytes have storage importance one" off Fig. 7).
    pub fn fraction_at_full(&self) -> f64 {
        let total = self.used.as_bytes();
        if total == 0 {
            return 0.0;
        }
        self.histogram
            .iter()
            .filter(|(imp, _)| imp.is_full())
            .map(|(_, b)| b.as_bytes())
            .sum::<u64>() as f64
            / total as f64
    }

    /// The lowest importance present among stored bytes, if any — the
    /// paper's "objects with importance less than X cannot be stored"
    /// admission threshold reads directly off this.
    pub fn min_stored_importance(&self) -> Option<Importance> {
        self.histogram.first().map(|&(imp, _)| imp)
    }
}

impl StorageUnit {
    /// The instantaneous average storage importance density (§5.1.2):
    /// every stored byte scaled by its current importance, normalized by
    /// capacity. Expired objects and unallocated space contribute zero.
    ///
    /// The result is in `[0, 1]`: `1.0` means the disk is full of
    /// non-preemptible data (full for all incoming objects); lower values
    /// mean progressively less important objects could still be displaced.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim_core::{ByteSize, SimTime};
    /// use temporal_importance::StorageUnit;
    ///
    /// let unit = StorageUnit::new(ByteSize::from_gib(80));
    /// assert_eq!(unit.importance_density(SimTime::ZERO), 0.0);
    /// ```
    pub fn importance_density(&self, now: SimTime) -> f64 {
        if self.capacity().is_zero() {
            return 0.0;
        }
        // O(1) when the incremental accumulators are current for `now`
        // (see [`advance`](StorageUnit::advance)); clamped because the
        // extrapolated sum can undershoot zero by a rounding error where
        // the exact sum is non-negative.
        if let Some(weighted) = self.weighted_importance_fast(now) {
            self.obs().counter("engine.density_fast_path", 1);
            return (weighted / self.capacity().as_bytes() as f64).clamp(0.0, 1.0);
        }
        self.obs().counter("engine.density_full_scan", 1);
        let weighted: f64 = self
            .iter()
            .map(|o| o.size().as_bytes() as f64 * o.current_importance(now).value())
            .sum();
        weighted / self.capacity().as_bytes() as f64
    }

    /// Stored bytes grouped by current importance, ascending.
    ///
    /// Bytes of objects sharing an importance value are merged. Expired
    /// objects appear in the zero bucket.
    pub fn byte_importance_histogram(&self, now: SimTime) -> Vec<(Importance, ByteSize)> {
        let mut pairs: Vec<(Importance, ByteSize)> = self
            .iter()
            .map(|o| (o.current_importance(now), o.size()))
            .collect();
        pairs.sort_by_key(|&(imp, _)| imp);
        let mut merged: Vec<(Importance, ByteSize)> = Vec::new();
        for (imp, bytes) in pairs {
            match merged.last_mut() {
                Some((last, acc)) if *last == imp => *acc += bytes,
                _ => merged.push((imp, bytes)),
            }
        }
        merged
    }

    /// Takes a full [`DensitySnapshot`] at `now`.
    pub fn density_snapshot(&self, now: SimTime) -> DensitySnapshot {
        DensitySnapshot {
            at: now,
            density: self.importance_density(now),
            used: self.used(),
            capacity: self.capacity(),
            histogram: self.byte_importance_histogram(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ImportanceCurve, ObjectId, ObjectSpec};
    use sim_core::SimDuration;

    fn imp(v: f64) -> Importance {
        Importance::new(v).unwrap()
    }

    fn store_fixed(unit: &mut StorageUnit, id: u64, mib: u64, importance: f64, expiry_days: u64) {
        unit.store(
            ObjectSpec::new(
                ObjectId::new(id),
                ByteSize::from_mib(mib),
                ImportanceCurve::Fixed {
                    importance: imp(importance),
                    expiry: SimDuration::from_days(expiry_days),
                },
            ),
            SimTime::ZERO,
        )
        .unwrap();
    }

    #[test]
    fn empty_unit_has_zero_density() {
        let unit = StorageUnit::new(ByteSize::from_gib(1));
        assert_eq!(unit.importance_density(SimTime::ZERO), 0.0);
        let snap = unit.density_snapshot(SimTime::ZERO);
        assert!(snap.byte_cdf().is_empty());
        assert_eq!(snap.fraction_at_full(), 0.0);
        assert_eq!(snap.min_stored_importance(), None);
    }

    #[test]
    fn density_weights_bytes_by_importance() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(100));
        store_fixed(&mut unit, 1, 50, 1.0, 365); // contributes 0.5
        store_fixed(&mut unit, 2, 25, 0.4, 365); // contributes 0.1
        let d = unit.importance_density(SimTime::ZERO);
        assert!((d - 0.6).abs() < 1e-12, "density {d}");
    }

    #[test]
    fn expired_bytes_contribute_zero() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(100));
        store_fixed(&mut unit, 1, 100, 1.0, 10);
        assert_eq!(unit.importance_density(SimTime::ZERO), 1.0);
        assert_eq!(unit.importance_density(SimTime::from_days(20)), 0.0);
        // The expired object still occupies space.
        assert_eq!(unit.used(), ByteSize::from_mib(100));
    }

    #[test]
    fn density_is_always_in_unit_interval() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(64));
        for i in 0..32 {
            store_fixed(&mut unit, i, 2, (i % 11) as f64 / 10.0, 30);
        }
        for d in 0..60 {
            let v = unit.importance_density(SimTime::from_days(d));
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn histogram_merges_equal_importance_and_sorts() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(100));
        store_fixed(&mut unit, 1, 10, 1.0, 365);
        store_fixed(&mut unit, 2, 20, 0.5, 365);
        store_fixed(&mut unit, 3, 30, 1.0, 365);
        let hist = unit.byte_importance_histogram(SimTime::ZERO);
        assert_eq!(
            hist,
            vec![
                (imp(0.5), ByteSize::from_mib(20)),
                (Importance::FULL, ByteSize::from_mib(40)),
            ]
        );
    }

    #[test]
    fn cdf_reaches_one_and_reports_full_fraction() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(100));
        store_fixed(&mut unit, 1, 57, 1.0, 365);
        store_fixed(&mut unit, 2, 30, 0.5, 365);
        store_fixed(&mut unit, 3, 13, 0.25, 365);
        let snap = unit.density_snapshot(SimTime::ZERO);
        let cdf = snap.byte_cdf();
        assert_eq!(cdf.len(), 3);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!((snap.fraction_at_full() - 0.57).abs() < 1e-12);
        assert_eq!(snap.min_stored_importance(), Some(imp(0.25)));
        // CDF is non-decreasing.
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn zero_capacity_unit_reports_zero_density() {
        let unit = StorageUnit::new(ByteSize::ZERO);
        assert_eq!(unit.importance_density(SimTime::ZERO), 0.0);
    }
}
