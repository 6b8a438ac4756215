//! Umbrella crate for the temporal-importance storage reclamation
//! reproduction (Chandra, Gehani, Yu — ICDCS 2007).
//!
//! Re-exports the workspace's public API so examples and downstream users
//! need a single dependency:
//!
//! * [`core`](temporal_importance) — importance curves, the preemptive
//!   reclamation engine, the storage importance density metric.
//! * [`workload`] — the paper's workload generators.
//! * [`besteffs`] — the simulated distributed store with §5.3 placement.
//! * [`analysis`] — CDFs, time series, the Palimpsest time-constant
//!   estimator.
//! * [`experiments`] — drivers regenerating every paper table and figure.
//! * [`obs`] — the zero-cost observability layer (metrics, event traces,
//!   per-phase reports); compiled out entirely by the `obs-off` feature.
//! * [`serve`](tempimpd) — `tempimpd`, the sharded concurrent serving
//!   layer speaking the [`StoreApi`](temporal_importance::protocol)
//!   request/response protocol.
//! * [`durable`] — the append-only segment-log backend
//!   where reclamation is compaction; crash recovery replays the log.
//! * [`sim`](sim_core) — simulated time, byte sizes, event queues.
//!
//! Most programs only need the [`tempimp`] prelude:
//!
//! ```
//! use temporal_reclaim::tempimp::*;
//!
//! let mut unit = StorageUnit::builder(ByteSize::from_gib(1)).build();
//! let curve = ImportanceCurve::two_step(
//!     Importance::FULL,
//!     SimDuration::from_days(15),
//!     SimDuration::from_days(15),
//! );
//! let spec = ObjectSpec::new(ObjectId::new(0), ByteSize::from_mib(700), curve);
//! unit.store(spec, SimTime::ZERO)?;
//! # Ok::<(), Error>(())
//! ```
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use analysis;
pub use besteffs;
pub use experiments;
pub use obs;
pub use sim_core as sim;
pub use tempimp_durable as durable;
pub use tempimpd as serve;
pub use temporal_importance as core;
pub use tifs;
pub use workload;

pub use sim_core::{ByteSize, SimDuration, SimTime};
pub use temporal_importance::{
    EvictionPolicy, Importance, ImportanceCurve, ObjectId, ObjectIdGen, ObjectSpec, StorageUnit,
};

pub mod tempimp {
    //! The curated prelude: one `use` for the types almost every program
    //! needs, spanning the engine, the distributed store, and the
    //! observability layer.
    //!
    //! ```
    //! use temporal_reclaim::tempimp::*;
    //! ```

    pub use besteffs::{Besteffs, ClusterBuilder, Directory, PlacementConfig};
    pub use obs::{MetricsRegistry, Obs, Report, Snapshot, TraceSink};
    pub use sim_core::{rng, ByteSize, SimDuration, SimTime};
    pub use tempimp_durable::{DurableConfig, DurableUnit};
    pub use tempimpd::{ServeClient, Tempimpd};
    pub use temporal_importance::protocol::{
        DensityInfo, HealthSnapshot, ObjectInfo, Request, Response, ShardHealth, ShardRouter,
        StoreApi, StoreStats, VerbKind, VerbLatency,
    };
    pub use temporal_importance::{
        Admission, Error, EvictionPolicy, Importance, ImportanceCurve, ObjectId, ObjectIdGen,
        ObjectSpec, StorageUnit, StorageUnitBuilder,
    };
}
