//! Deterministic observability for the temporal-importance workspace.
//!
//! The paper's central idea is a *feedback signal* — creators watch storage
//! importance density to predict how long their annotations will survive
//! (§5.2). This crate gives the reproduction the same kind of live signal
//! about itself: counters and histograms over the engine's hot paths, a
//! structured event trace keyed by simulated time, and per-phase report
//! summaries for the `repro` binary — all without perturbing a single
//! simulated outcome.
//!
//! Three pieces:
//!
//! * [`MetricsRegistry`] — a thread-safe registry of named counters,
//!   high-watermark gauges, and log₂-bucketed magnitude histograms. It
//!   implements [`Observer`], so it plugs straight into any component
//!   built with an observer hook.
//! * [`TraceSink`] — captures [`Observer::event`]s as JSONL keyed by
//!   [`SimTime`] minutes. Values are integers only, so a trace is
//!   byte-identical across runs and across build profiles.
//! * [`Snapshot`] / [`Report`] — a point-in-time copy of the registry,
//!   subtractable for per-phase deltas and renderable as an aligned,
//!   deterministic text block.
//!
//! The emission side lives in [`sim_core::observe`]; compile it out with
//! sim-core's `obs-off` feature and instrumented code carries zero
//! overhead (the sinks here still build, and never receive anything).
//!
//! # Examples
//!
//! ```
//! use obs::MetricsRegistry;
//! use sim_core::Obs;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let obs = Obs::attached(registry.clone());
//! obs.counter("engine.stores", 3);
//! obs.record("engine.sweep_reclaimed", 2);
//!
//! let snapshot = registry.snapshot();
//! if sim_core::observe::ENABLED {
//!     assert_eq!(snapshot.counters["engine.stores"], 3);
//! }
//! ```
//!
//! [`SimTime`]: sim_core::SimTime

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod registry;
mod report;
mod trace;
pub mod tracefile;

pub use registry::{Histogram, MetricsRegistry};
pub use report::{HistogramSummary, Report, Snapshot, SpanSummary};
pub use trace::{Fanout, TraceSink};

// Re-exported so downstream users get the whole observability surface from
// one crate: the hooks (sim-core) plus the sinks (here).
pub use sim_core::observe::{set_global_observer, Obs, Observer, Span};
