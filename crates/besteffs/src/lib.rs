//! A simulated *Besteffs* distributed object store (§4.1, §5.3).
//!
//! Besteffs is the paper's storage substrate: "an object level, fully
//! distributed storage. Objects are read-only and write once with versioned
//! updates... The system is fully distributed with no centralized
//! components... designed to scale to tens of thousands of storage units.
//! Objects are not replicated."
//!
//! This crate simulates that system faithfully at the level the paper
//! evaluates it:
//!
//! * [`overlay`] — a connected random-regular p2p overlay whose random
//!   walks supply placement candidates ("random walks on our p2p overlay
//!   help us choose a good set of storage units").
//! * [`cluster`] — the §5.3 placement algorithm: probe `x` walk-sampled
//!   units per try, store immediately on a unit whose highest preempted
//!   importance is zero, otherwise take up to `m` tries and pick the unit
//!   with the lowest highest-preempted importance (unweighted by size).
//! * [`directory`] — write-once named objects with versioned updates.
//! * [`churn`] — deterministic fault injection: seeded availability
//!   schedules (always-on, diurnal desktop uptime, Weibull sessions,
//!   trace replay) drive node failure and rejoin through the sim-core
//!   event loop. Objects on a failed node are simply lost (no
//!   replication), as the paper specifies; a rejoined node returns empty
//!   under a fresh incarnation.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod churn;
pub mod cluster;
pub mod directory;
pub mod overlay;

pub use churn::{AvailabilitySchedule, ChurnDriver, ChurnEvent, ChurnEventKind, ChurnSchedule};
pub use cluster::{
    Besteffs, ClusterBuilder, ClusterStats, FailureEpoch, PlacementConfig, PlacementError,
    PlacementOutcome,
};
pub use directory::{Directory, ObjectName, Version, VersionEntry};
pub use overlay::{NodeId, Overlay};
