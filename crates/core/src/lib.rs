//! Temporal-importance annotations and preemptive storage reclamation.
//!
//! This crate is the core library of a reproduction of *"Automated Storage
//! Reclamation Using Temporal Importance Annotations"* (Chandra, Gehani,
//! Yu — ICDCS 2007). The paper's idea: content creators annotate each
//! stored object with a **temporal importance function** `L(t)` —
//! monotonically non-increasing, valued in `[0, 1]` — and the storage
//! system evicts less important objects automatically when space runs out,
//! instead of relying on applications to delete data.
//!
//! # The abstraction
//!
//! * [`Importance`] — the scalar comparison metric. Higher current
//!   importance may preempt strictly lower current importance; importance
//!   `1` is never preemptible, importance `0` is freely replaceable.
//! * [`ImportanceCurve`] — the lifetime annotation `L(age)`, including the
//!   paper's headline **two-step** function (a plateau followed by a linear
//!   wane, Fig. 1) plus persistent, fixed-expiry, ephemeral (cache-like),
//!   exponential-wane and general piecewise variants.
//! * [`StorageUnit`] — a capacity-bounded store implementing the
//!   preemptive reclamation engine, the Palimpsest-style FIFO baseline
//!   ([`EvictionPolicy::Fifo`]), admission previews for distributed
//!   placement, expired-object sweeps, and rejuvenation.
//! * [`protocol::StoreApi`] — the one way to change a store: every verb
//!   (put, advise, remove, annotate, sweep, density, …) is a
//!   [`protocol::Request`] answered by `call`, the same for a bare unit,
//!   a journaled one and a sharded service.
//! * [`Request::Density`](protocol::Request::Density) — the paper's
//!   **storage importance density** metric: every stored byte scaled by
//!   its current importance, normalized by capacity. It quantifies *which
//!   importance levels the storage is full for* and is the feedback
//!   signal content creators use to pick annotations.
//!
//! # Quickstart
//!
//! ```
//! use sim_core::{ByteSize, SimDuration, SimTime};
//! use temporal_importance::protocol::StoreApi;
//! use temporal_importance::{Importance, ImportanceCurve, ObjectId, StorageUnit};
//!
//! let mut unit = StorageUnit::new(ByteSize::from_gib(1));
//!
//! // "Definitely important for 15 days, maybe for another 15" (§5.1).
//! let curve = ImportanceCurve::two_step(
//!     Importance::FULL,
//!     SimDuration::from_days(15),
//!     SimDuration::from_days(15),
//! );
//!
//! let outcome = unit.put(ObjectId::new(0), ByteSize::from_mib(700), curve, SimTime::ZERO)?;
//! assert!(outcome.evicted.is_empty());
//!
//! // Twenty days in, the object has waned to 1/3 importance and the
//! // density metric reflects it.
//! let density = unit.density_info(SimTime::from_days(20))?.density;
//! assert!(density > 0.0 && density < 1.0);
//! # Ok::<(), temporal_importance::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod advisor;
mod curve;
mod density;
mod engine;
mod error;
mod fairness;
mod importance;
mod object;
mod policy;
mod records;
mod unit;

pub mod arena;
pub mod dense;
pub mod protocol;

pub use advisor::{Advisor, Forecast};
pub use curve::{ImportanceCurve, PiecewiseCurve};
pub use density::DensitySnapshot;
pub use error::{CurveError, Error, ImportanceError, RejuvenateError, RestoreError, StoreError};
pub use fairness::{FairStore, FairStoreError, PrincipalId, PrincipalUsage};
pub use importance::Importance;
pub use object::{ObjectClass, ObjectId, ObjectIdGen, ObjectSpec, StoredObject};
pub use policy::EvictionPolicy;
pub use records::{Admission, EvictionReason, EvictionRecord, StoreOutcome, UnitStats};
pub use unit::{StorageUnit, StorageUnitBuilder};

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_and_sync() {
        assert_send_sync::<Importance>();
        assert_send_sync::<ImportanceCurve>();
        assert_send_sync::<StorageUnit>();
        assert_send_sync::<ObjectSpec>();
        assert_send_sync::<StoredObject>();
        assert_send_sync::<StoreError>();
        assert_send_sync::<EvictionRecord>();
        assert_send_sync::<DensitySnapshot>();
    }
}
