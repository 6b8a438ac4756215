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
//! the `obs-off` cargo feature (forwarded through every instrumented
//! crate) and instrumented code carries zero overhead.
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
//! # #[cfg(not(feature = "obs-off"))]
//! assert_eq!(snapshot.counters["engine.stores"], 3);
//! ```
//!
//! [`SimTime`]: sim_core::SimTime

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod registry;
mod report;
mod series;
mod trace;
pub mod tracefile;

pub use registry::{Histogram, MetricsRegistry};
pub use report::{HistogramSummary, Report, Snapshot, SpanSummary};
pub use series::SeriesRecorder;
pub use trace::{Fanout, TraceSink};

use std::sync::Arc;

// Re-exported so downstream users get the whole observability surface from
// one crate: the hooks (sim-core) plus the sinks (here).
pub use sim_core::observe::{set_global_observer, Obs, Observer, Span};

/// Creates a [`MetricsRegistry`], installs it as the process-wide global
/// observer, and hands it back for snapshotting.
///
/// Returns `None` when the global slot is already taken (first install
/// wins, like `log::set_logger`) or when the `obs-off` feature compiled
/// observation out — callers can treat `None` as "no reports this run".
pub fn install_global_registry() -> Option<Arc<MetricsRegistry>> {
    let registry = Arc::new(MetricsRegistry::new());
    set_global_observer(registry.clone()).then_some(registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_returns_at_most_one_registry() {
        // The global slot is per-process, so this test exercises both the
        // first-install and already-taken paths in whatever order the
        // harness runs things.
        let first = install_global_registry();
        let second = install_global_registry();
        if cfg!(feature = "obs-off") {
            assert!(first.is_none());
        } else {
            assert!(first.is_some() || second.is_none());
        }
        assert!(second.is_none(), "second install must not win");
    }
}
