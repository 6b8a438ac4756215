//! Outcome records: evictions, rejections, admission previews, unit stats.

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, SimDuration, SimTime};

use crate::{Importance, ObjectClass, ObjectId};

/// Why an object left the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EvictionReason {
    /// Preempted by an incoming object of higher current importance (or by
    /// FIFO pressure under [`EvictionPolicy::Fifo`]).
    ///
    /// [`EvictionPolicy::Fifo`]: crate::EvictionPolicy::Fifo
    Preempted,
    /// Reclaimed by an explicit expired-object sweep.
    Expired,
    /// Removed by an explicit [`StorageUnit::remove`] call.
    ///
    /// [`StorageUnit::remove`]: crate::StorageUnit::remove
    Removed,
}

/// A record of one object leaving the store.
///
/// The paper's Figures 3, 9 and 10 are built from exactly this data: the
/// *lifetime achieved* ("measured when objects are evicted", §5.1.1) and
/// the *importance at reclamation* (§5.2.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvictionRecord {
    /// The evicted object.
    pub id: ObjectId,
    /// Its class tag.
    pub class: ObjectClass,
    /// Its size.
    pub size: ByteSize,
    /// When it entered the store.
    pub arrival: SimTime,
    /// When it left.
    pub evicted_at: SimTime,
    /// Its current importance at the moment of eviction.
    pub importance_at_eviction: Importance,
    /// The expiry its annotation requested (`None` = never expires).
    pub requested_expiry: Option<SimDuration>,
    /// Why it left.
    pub reason: EvictionReason,
}

impl EvictionRecord {
    /// The lifetime the object actually achieved: eviction time minus
    /// arrival time.
    pub fn lifetime_achieved(&self) -> SimDuration {
        self.evicted_at.saturating_since(self.arrival)
    }
}

/// A record of a store request the unit turned down.
///
/// Figure 4 ("requests turned down because of full storage") counts these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectionRecord {
    /// The rejected object.
    pub id: ObjectId,
    /// Its class tag.
    pub class: ObjectClass,
    /// Its size.
    pub size: ByteSize,
    /// When the request was made.
    pub at: SimTime,
    /// The importance the object would have entered with.
    pub incoming_importance: Importance,
    /// Lowest current importance among the objects that blocked it, if the
    /// unit held any non-preemptible objects.
    pub blocking: Option<Importance>,
}

/// The result of a successful store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreOutcome {
    /// The stored object's id.
    pub id: ObjectId,
    /// Objects preempted to make room, in eviction order.
    pub evicted: Vec<EvictionRecord>,
    /// The highest current importance among preempted objects — the §5.3
    /// placement score. `None` when the object fit without preempting
    /// anything (equivalent to a score of zero for placement purposes).
    pub highest_preempted: Option<Importance>,
}

impl StoreOutcome {
    /// The §5.3 placement score: the highest preempted importance, where
    /// fitting into free space scores zero.
    pub fn placement_score(&self) -> Importance {
        self.highest_preempted.unwrap_or(Importance::ZERO)
    }
}

/// A non-mutating admission preview, used by distributed placement to score
/// candidate units before committing (§5.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Admission {
    /// Fits into free space (plus possibly expired/zero-importance bytes);
    /// the highest preempted importance would be zero.
    Fits {
        /// Highest importance among the (zero or more) objects that would
        /// be preempted; zero when no preemption is needed. Kept separate
        /// from [`Admission::Preempting`] because the paper treats a
        /// highest-preempted importance of exactly zero as "can be directly
        /// stored in this unit".
        victims: usize,
    },
    /// Admission requires preempting live objects of positive importance.
    Preempting {
        /// The §5.3 score: highest current importance among the victims.
        highest: Importance,
        /// Number of objects that would be evicted.
        victims: usize,
        /// Bytes those victims free.
        freed: ByteSize,
    },
    /// The unit is full for this object: preempting everything eligible
    /// still leaves too little room.
    Full {
        /// Lowest current importance among non-preemptible objects, if any.
        blocking: Option<Importance>,
    },
    /// The object exceeds the unit's total capacity.
    TooLarge,
}

impl Admission {
    /// True if the object would be admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Fits { .. } | Admission::Preempting { .. })
    }

    /// The §5.3 placement score, or `None` when the object would be
    /// rejected. Lower is better; zero means direct storage.
    pub fn placement_score(&self) -> Option<Importance> {
        match self {
            Admission::Fits { .. } => Some(Importance::ZERO),
            Admission::Preempting { highest, .. } => Some(*highest),
            Admission::Full { .. } | Admission::TooLarge => None,
        }
    }
}

/// Lifetime counters for one [`StorageUnit`](crate::StorageUnit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub struct UnitStats {
    /// Store requests attempted.
    pub stores_attempted: u64,
    /// Store requests accepted.
    pub stores_accepted: u64,
    /// Store requests rejected because the unit was full for the object.
    pub rejections_full: u64,
    /// Store requests rejected because the object exceeded capacity.
    pub rejections_too_large: u64,
    /// Objects evicted by preemption.
    pub evictions_preempted: u64,
    /// Objects reclaimed by expired-object sweeps.
    pub evictions_expired: u64,
    /// Objects explicitly removed.
    pub removals: u64,
    /// Total bytes accepted over the unit's lifetime.
    pub bytes_accepted: u64,
    /// Total bytes evicted over the unit's lifetime.
    pub bytes_evicted: u64,
}

impl UnitStats {
    /// Total rejected store requests.
    pub fn rejections(&self) -> u64 {
        self.rejections_full + self.rejections_too_large
    }

    /// Fraction of attempted stores that were accepted, or 1.0 when no
    /// store was ever attempted.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.stores_attempted == 0 {
            1.0
        } else {
            self.stores_accepted as f64 / self.stores_attempted as f64
        }
    }
}

/// Field-wise sum: shard aggregation and journal recovery both add
/// per-unit counters. The pattern names every field, so a new counter
/// does not compile until it is summed here.
impl std::ops::AddAssign<&UnitStats> for UnitStats {
    fn add_assign(&mut self, other: &UnitStats) {
        let UnitStats {
            stores_attempted,
            stores_accepted,
            rejections_full,
            rejections_too_large,
            evictions_preempted,
            evictions_expired,
            removals,
            bytes_accepted,
            bytes_evicted,
        } = self;
        *stores_attempted += other.stores_attempted;
        *stores_accepted += other.stores_accepted;
        *rejections_full += other.rejections_full;
        *rejections_too_large += other.rejections_too_large;
        *evictions_preempted += other.evictions_preempted;
        *evictions_expired += other.evictions_expired;
        *removals += other.removals;
        *bytes_accepted += other.bytes_accepted;
        *bytes_evicted += other.bytes_evicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_achieved_is_eviction_minus_arrival() {
        let rec = EvictionRecord {
            id: ObjectId::new(1),
            class: ObjectClass::GENERIC,
            size: ByteSize::from_mib(1),
            arrival: SimTime::from_days(10),
            evicted_at: SimTime::from_days(42),
            importance_at_eviction: Importance::ZERO,
            requested_expiry: Some(SimDuration::from_days(30)),
            reason: EvictionReason::Preempted,
        };
        assert_eq!(rec.lifetime_achieved(), SimDuration::from_days(32));
    }

    #[test]
    fn admission_scores() {
        assert_eq!(
            Admission::Fits { victims: 0 }.placement_score(),
            Some(Importance::ZERO)
        );
        let p = Admission::Preempting {
            highest: Importance::new(0.4).unwrap(),
            victims: 2,
            freed: ByteSize::from_mib(10),
        };
        assert_eq!(p.placement_score(), Some(Importance::new(0.4).unwrap()));
        assert!(p.is_admitted());
        assert_eq!(Admission::Full { blocking: None }.placement_score(), None);
        assert!(!Admission::TooLarge.is_admitted());
    }

    #[test]
    fn stats_ratios() {
        let mut s = UnitStats::default();
        assert_eq!(s.acceptance_ratio(), 1.0);
        s.stores_attempted = 10;
        s.stores_accepted = 7;
        s.rejections_full = 2;
        s.rejections_too_large = 1;
        assert_eq!(s.rejections(), 3);
        assert!((s.acceptance_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn store_outcome_score_defaults_to_zero() {
        let o = StoreOutcome {
            id: ObjectId::new(1),
            evicted: vec![],
            highest_preempted: None,
        };
        assert_eq!(o.placement_score(), Importance::ZERO);
    }
}
