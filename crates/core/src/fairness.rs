//! Multi-user fairness: restricting importance functions per principal.
//!
//! §1 warns that "on a multi-user system, the system should restrict the
//! importance functions for fairness, lest every user request infinite
//! lifetime, essentially reverting to the traditional *persistent until
//! deleted* model". This module provides that restriction: a
//! [`FairStore`] wraps a [`StorageUnit`] and charges every stored byte to
//! its owner at the byte's *initial importance weight*, enforcing a per-
//! principal budget of importance-weighted bytes.
//!
//! Charging importance-weighted bytes (rather than raw bytes) creates the
//! right incentive: a user who annotates honestly at 0.5 importance can
//! store twice as many bytes as one who insists on 1.0, and ephemeral
//! data is free. Expired or evicted objects refund their charge.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, SimTime};

use crate::protocol::{Response, StoreApi};
use crate::{EvictionRecord, ObjectId, ObjectSpec, StorageUnit, StoreError, StoreOutcome};

/// A storage principal (user / application) identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct PrincipalId(u32);

impl PrincipalId {
    /// Creates a principal id.
    pub const fn new(raw: u32) -> Self {
        PrincipalId(raw)
    }
}

impl fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user#{}", self.0)
    }
}

/// A store refused by the fairness layer (before reaching the engine).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FairStoreError {
    /// The principal's importance-weighted budget cannot absorb this
    /// object.
    QuotaExceeded {
        /// The principal that ran out of budget.
        principal: PrincipalId,
        /// Importance-weighted bytes the object would charge.
        charge: u64,
        /// Importance-weighted bytes still available.
        remaining: u64,
    },
    /// The underlying engine refused the store.
    Store(StoreError),
}

impl fmt::Display for FairStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FairStoreError::QuotaExceeded {
                principal,
                charge,
                remaining,
            } => write!(
                f,
                "{principal} exceeds fairness budget: needs {charge} weighted bytes, {remaining} remain"
            ),
            FairStoreError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl Error for FairStoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FairStoreError::Store(e) => Some(e),
            FairStoreError::QuotaExceeded { .. } => None,
        }
    }
}

/// Per-principal accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrincipalUsage {
    /// Importance-weighted bytes currently charged.
    pub charged: u64,
    /// Stores accepted.
    pub accepted: u64,
    /// Stores refused by the quota (engine rejections are counted by the
    /// underlying unit's stats).
    pub quota_refusals: u64,
}

/// A fairness-enforcing wrapper around a [`StorageUnit`], which it
/// changes only through [`StoreApi`].
///
/// Every principal gets the same budget of importance-weighted bytes
/// (`budget = capacity / expected principals`, by default). The charge of
/// an object is `size × initial importance`, so honest low-importance
/// annotations stretch a budget further — the incentive §1 asks for.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimDuration, SimTime};
/// use temporal_importance::{
///     FairStore, Importance, ImportanceCurve, ObjectId, ObjectSpec, PrincipalId,
///     StorageUnit,
/// };
///
/// let unit = StorageUnit::new(ByteSize::from_mib(100));
/// let mut store = FairStore::new(unit, ByteSize::from_mib(50));
///
/// let alice = PrincipalId::new(1);
/// let spec = ObjectSpec::new(
///     ObjectId::new(0),
///     ByteSize::from_mib(40),
///     ImportanceCurve::fixed_lifetime(SimDuration::from_days(30)),
/// );
/// store.store(alice, spec, SimTime::ZERO)?;
/// // A second full-importance 40 MiB object would exceed Alice's 50 MiB
/// // weighted budget.
/// let spec = ObjectSpec::new(
///     ObjectId::new(1),
///     ByteSize::from_mib(40),
///     ImportanceCurve::fixed_lifetime(SimDuration::from_days(30)),
/// );
/// assert!(store.store(alice, spec, SimTime::ZERO).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FairStore {
    unit: StorageUnit,
    budget: u64,
    usage: BTreeMap<PrincipalId, PrincipalUsage>,
    owners: BTreeMap<ObjectId, (PrincipalId, u64)>,
}

impl FairStore {
    /// Wraps `unit`, giving every principal the same budget of
    /// importance-weighted bytes.
    pub fn new(unit: StorageUnit, budget: ByteSize) -> Self {
        FairStore {
            unit,
            budget: budget.as_bytes(),
            usage: BTreeMap::new(),
            owners: BTreeMap::new(),
        }
    }

    /// The wrapped unit (read-only; mutation must flow through the
    /// fairness layer to keep accounting correct).
    pub fn unit(&self) -> &StorageUnit {
        &self.unit
    }

    /// A principal's current accounting.
    pub fn usage(&self, principal: PrincipalId) -> PrincipalUsage {
        self.usage.get(&principal).copied().unwrap_or_default()
    }

    /// The importance-weighted charge of a spec: `size × initial
    /// importance`, rounded up so nothing is free except true zero
    /// importance.
    pub fn charge_of(spec: &ObjectSpec) -> u64 {
        let weighted = spec.size().as_bytes() as f64 * spec.curve().initial_importance().value();
        weighted.ceil() as u64
    }

    /// Stores an object on behalf of `principal`, charging their budget.
    ///
    /// Objects evicted by the store's preemption refund their owners
    /// immediately.
    ///
    /// # Errors
    ///
    /// * [`FairStoreError::QuotaExceeded`] — the principal's budget cannot
    ///   absorb the charge; the engine is never consulted.
    /// * [`FairStoreError::Store`] — the engine refused the store.
    pub fn store(
        &mut self,
        principal: PrincipalId,
        spec: ObjectSpec,
        now: SimTime,
    ) -> Result<StoreOutcome, FairStoreError> {
        let charge = Self::charge_of(&spec);
        let usage = self.usage.entry(principal).or_default();
        let remaining = self.budget.saturating_sub(usage.charged);
        if charge > remaining {
            usage.quota_refusals += 1;
            return Err(FairStoreError::QuotaExceeded {
                principal,
                charge,
                remaining,
            });
        }

        let id = spec.id();
        let outcome = match self.unit.call(now, spec.into()) {
            Response::Put(Ok(outcome)) => outcome,
            Response::Put(Err(crate::Error::Store(e))) => return Err(FairStoreError::Store(e)),
            other => panic!("unexpected answer to a put: {other:?}"),
        };
        self.usage.entry(principal).or_default().charged += charge;
        self.usage.entry(principal).or_default().accepted += 1;
        self.owners.insert(id, (principal, charge));
        for victim in &outcome.evicted {
            self.refund(victim.id);
        }
        Ok(outcome)
    }

    /// Removes an object, refunding its owner's budget.
    pub fn remove(&mut self, id: ObjectId, now: SimTime) -> Option<EvictionRecord> {
        let record = self
            .unit
            .remove_object(id, now)
            .expect("a unit answers a remove")?;
        self.refund(id);
        Some(record)
    }

    /// Sweeps expired objects and refunds their owners.
    pub fn sweep_expired(&mut self, now: SimTime) -> Vec<EvictionRecord> {
        let records = self.unit.sweep(now).expect("a unit answers a sweep");
        for record in &records {
            self.refund(record.id);
        }
        records
    }

    /// Total weighted bytes charged across all principals — always equal
    /// to the sum of live owners' charges.
    pub fn total_charged(&self) -> u64 {
        self.usage.values().map(|u| u.charged).sum()
    }

    fn refund(&mut self, id: ObjectId) {
        if let Some((principal, charge)) = self.owners.remove(&id) {
            if let Some(usage) = self.usage.get_mut(&principal) {
                usage.charged = usage.charged.saturating_sub(charge);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Importance, ImportanceCurve};
    use sim_core::SimDuration;

    fn spec(id: u64, mib: u64, importance: f64) -> ObjectSpec {
        ObjectSpec::new(
            ObjectId::new(id),
            ByteSize::from_mib(mib),
            ImportanceCurve::Fixed {
                importance: Importance::new(importance).unwrap(),
                expiry: SimDuration::from_days(30),
            },
        )
    }

    fn store_100mib_budget_50() -> FairStore {
        FairStore::new(
            StorageUnit::new(ByteSize::from_mib(100)),
            ByteSize::from_mib(50),
        )
    }

    #[test]
    fn charges_weighted_bytes() {
        assert_eq!(
            FairStore::charge_of(&spec(0, 40, 1.0)),
            ByteSize::from_mib(40).as_bytes()
        );
        assert_eq!(
            FairStore::charge_of(&spec(0, 40, 0.5)),
            ByteSize::from_mib(20).as_bytes()
        );
        let ephemeral = ObjectSpec::new(
            ObjectId::new(0),
            ByteSize::from_mib(40),
            ImportanceCurve::Ephemeral,
        );
        assert_eq!(FairStore::charge_of(&ephemeral), 0);
    }

    #[test]
    fn quota_blocks_greedy_full_importance_users() {
        let mut store = store_100mib_budget_50();
        let alice = PrincipalId::new(1);
        store.store(alice, spec(0, 40, 1.0), SimTime::ZERO).unwrap();
        let err = store
            .store(alice, spec(1, 40, 1.0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FairStoreError::QuotaExceeded { .. }));
        assert_eq!(store.usage(alice).quota_refusals, 1);
        assert_eq!(store.usage(alice).accepted, 1);
    }

    #[test]
    fn honest_annotations_stretch_the_budget() {
        let mut store = store_100mib_budget_50();
        let bob = PrincipalId::new(2);
        // At 0.5 importance, 40 MiB charges only 20 MiB of budget: two fit.
        store.store(bob, spec(0, 40, 0.5), SimTime::ZERO).unwrap();
        store.store(bob, spec(1, 40, 0.5), SimTime::ZERO).unwrap();
        assert_eq!(store.usage(bob).accepted, 2);
        assert_eq!(store.usage(bob).charged, ByteSize::from_mib(40).as_bytes());
    }

    #[test]
    fn budgets_are_per_principal() {
        let mut store = store_100mib_budget_50();
        store
            .store(PrincipalId::new(1), spec(0, 50, 1.0), SimTime::ZERO)
            .unwrap();
        // A different user has an untouched budget.
        store
            .store(PrincipalId::new(2), spec(1, 50, 1.0), SimTime::ZERO)
            .unwrap();
        assert_eq!(store.total_charged(), ByteSize::from_mib(100).as_bytes());
    }

    #[test]
    fn eviction_refunds_the_victims_owner() {
        let mut store = store_100mib_budget_50();
        let alice = PrincipalId::new(1);
        let bob = PrincipalId::new(2);
        // Alice fills the disk at low importance (charge 50 × 0.4 = 20 MiB
        // twice — fits her budget).
        store.store(alice, spec(0, 50, 0.4), SimTime::ZERO).unwrap();
        store.store(alice, spec(1, 50, 0.4), SimTime::ZERO).unwrap();
        let charged_before = store.usage(alice).charged;
        // Bob preempts one of Alice's objects; she gets refunded.
        let outcome = store.store(bob, spec(2, 50, 0.9), SimTime::ZERO).unwrap();
        assert_eq!(outcome.evicted.len(), 1);
        assert!(store.usage(alice).charged < charged_before);
        // Conservation: total charged equals live owners' charges.
        assert_eq!(
            store.total_charged(),
            ByteSize::from_mib(50).as_bytes() * 4 / 10
                + (ByteSize::from_mib(50).as_bytes() as f64 * 0.9).ceil() as u64
        );
    }

    #[test]
    fn explicit_remove_and_sweep_refund() {
        let mut store = store_100mib_budget_50();
        let alice = PrincipalId::new(1);
        store.store(alice, spec(0, 30, 1.0), SimTime::ZERO).unwrap();
        store
            .remove(ObjectId::new(0), SimTime::from_days(1))
            .unwrap();
        assert_eq!(store.usage(alice).charged, 0);

        store
            .store(alice, spec(1, 30, 1.0), SimTime::from_days(1))
            .unwrap();
        let swept = store.sweep_expired(SimTime::from_days(60));
        assert_eq!(swept.len(), 1);
        assert_eq!(store.usage(alice).charged, 0);
        assert_eq!(store.total_charged(), 0);
    }

    #[test]
    fn engine_errors_pass_through() {
        let mut store = store_100mib_budget_50();
        let err = store
            .store(
                PrincipalId::new(1),
                spec(0, 500, 0.1), // bigger than the unit
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            FairStoreError::Store(StoreError::TooLarge { .. })
        ));
        // The quota was not charged for the failed store.
        assert_eq!(store.usage(PrincipalId::new(1)).charged, 0);
    }
}
