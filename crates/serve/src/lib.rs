//! `tempimpd` — a sharded, concurrently-writable serving layer over the
//! temporal-importance reclamation engine.
//!
//! The core engine ([`temporal_importance::StorageUnit`]) is
//! single-threaded by design: its indexes advance along one monotonic
//! clock. This crate scales it out the way a log-structured store shards
//! an LSM tree: objects hash to one of N **shards**
//! ([`ShardRouter`]), each shard is an independent `StorageUnit` owned
//! exclusively by a worker thread, and requests travel to the owner over
//! a bounded MPSC ingest queue as the typed
//! [`Request`]/[`Response`] messages of the
//! [`StoreApi`](temporal_importance::protocol::StoreApi) protocol. The
//! engines share nothing and take no locks: concurrency comes from
//! ownership transfer, and each shard remains exactly as deterministic as
//! the engine it wraps. The one piece of shared mutable state is on the
//! way back — each client connection's reply mailbox, a slab of slots
//! behind one mutex that workers fill once per drained batch.
//!
//! Three properties the design guarantees:
//!
//! * **Batch-amortized time.** A worker drains its queue in batches and
//!   processes the whole batch at the batch's latest timestamp, so
//!   breakpoint advancement and expiry sweeps are paid per batch, not
//!   per request ([`ShardEngine`]).
//! * **Replayable shards.** Each shard's final state is a pure function
//!   of its effective request log; a log recorded live and replayed
//!   single-threaded through [`replay`] yields a byte-identical unit —
//!   the differential determinism tests hold the service to this.
//! * **Typed backpressure.** A full ingest queue surfaces as
//!   [`Error::QueueFull`](temporal_importance::Error::QueueFull) on the
//!   non-blocking path, a dead worker as
//!   [`Error::Disconnected`](temporal_importance::Error::Disconnected);
//!   blocking clients simply wait.
//!
//! # Quickstart
//!
//! ```
//! use sim_core::{ByteSize, SimDuration, SimTime};
//! use tempimpd::Tempimpd;
//! use temporal_importance::protocol::StoreApi;
//! use temporal_importance::{ImportanceCurve, ObjectId};
//!
//! let service = Tempimpd::builder()
//!     .shards(4)
//!     .shard_capacity(ByteSize::from_mib(512))
//!     .spawn();
//!
//! let mut client = service.client();
//! let curve = ImportanceCurve::two_step(
//!     temporal_importance::Importance::FULL,
//!     SimDuration::from_days(15),
//!     SimDuration::from_days(15),
//! );
//! client
//!     .put(ObjectId::new(7), ByteSize::from_mib(64), curve, SimTime::ZERO)?;
//! assert!(client
//!     .get_info(ObjectId::new(7), SimTime::ZERO)?
//!     .is_some());
//!
//! drop(client); // workers exit once every client is gone
//! let reports = service.shutdown().expect_clean();
//! assert_eq!(reports.iter().map(|r| r.unit.len()).sum::<usize>(), 1);
//! # Ok::<(), temporal_importance::Error>(())
//! ```
//!
//! [`Request`]: temporal_importance::protocol::Request
//! [`Response`]: temporal_importance::protocol::Response

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod engine;
mod mailbox;
mod service;
mod trace;

pub use engine::{replay, ShardEngine};
pub use service::{
    Pending, ServeClient, ShardFailure, ShardReport, ShutdownReport, Tempimpd, TempimpdBuilder,
};

// Durable-shard vocabulary a serve consumer configures or reads, so
// wiring a persistent service doesn't force a direct dependency on the
// storage-backend crate.
pub use tempimp_durable::{DiskInfo, DurableConfig};

// The routing function lives in the protocol module so `besteffs` can use
// the identical mapping; re-exported here because it is part of this
// crate's vocabulary, as are the health-verb answer types every serve
// consumer reads.
pub use temporal_importance::protocol::{
    HealthSnapshot, ShardHealth, ShardRouter, VerbKind, VerbLatency,
};
