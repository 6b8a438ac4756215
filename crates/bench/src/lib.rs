//! What the `bench-harness` binaries share: the churn fixtures of
//! `bench_engine` / `bench_durable`, the reference store [`model`] that
//! `bench_engine` and the lockstep differential compare the engine with,
//! the one seeded request [`stream`],
//! the `BENCH_*.json` schema and regression [`gate`], the [`golden`]
//! trace workload, the [`servetop`] renderer, and what `repro` runs
//! ([`repro`]).
//!
//! A performance claim is made with `bench_stack` against the root
//! `BENCHMARK.json`. `bench_engine`, `bench_serve` and `bench_durable`
//! with `bench_gate` are CI envelopes over the committed `BENCH_*.json`
//! baselines: they catch a regression, they do not prove a gain.
//! `bench_serve` and `tempimp-obs serve-top` drive `bench_stack`'s own
//! request stream, so the tree has one request generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod model;

use sim_core::{ByteSize, SimDuration, SimTime};
use temporal_importance::protocol::{Response, StoreApi};
use temporal_importance::{
    EvictionPolicy, Importance, ImportanceCurve, ObjectId, ObjectSpec, StorageUnit,
};

use model::ModelUnit;

/// Builds a unit pre-filled with `count` objects of `mib` MiB whose fixed
/// importance cycles through ten levels — a representative mixed-pressure
/// state for eviction/density benchmarks.
pub fn mixed_unit(capacity: ByteSize, count: u64, mib: u64) -> StorageUnit {
    let mut unit = StorageUnit::new(capacity);
    for spec in mixed_specs(count, mib) {
        let stored = unit.call(SimTime::ZERO, spec.into());
        assert!(matches!(stored, Response::Put(Ok(_))), "fixture fits");
    }
    unit
}

/// The same fixture on the [`ModelUnit`] — the reference the indexed
/// engine is benchmarked against.
pub fn mixed_model(capacity: ByteSize, count: u64, mib: u64) -> ModelUnit {
    let mut model = ModelUnit::new(capacity, EvictionPolicy::Preemptive);
    for spec in mixed_specs(count, mib) {
        let curve = spec.curve().clone();
        model
            .put(spec.id(), spec.size(), curve, SimTime::ZERO)
            .expect("fixture fits");
    }
    model
}

fn mixed_specs(count: u64, mib: u64) -> impl Iterator<Item = ObjectSpec> {
    (0..count).map(move |i| {
        let importance = Importance::new_clamped(0.05 + (i % 10) as f64 * 0.1);
        ObjectSpec::new(
            ObjectId::new(i),
            ByteSize::from_mib(mib),
            ImportanceCurve::Fixed {
                importance,
                expiry: SimDuration::from_days(3650),
            },
        )
    })
}

/// A full-importance two-step spec used as the "incoming" object in
/// benchmarks.
pub fn incoming_spec(id: u64, mib: u64) -> ObjectSpec {
    ObjectSpec::new(
        ObjectId::new(id),
        ByteSize::from_mib(mib),
        ImportanceCurve::two_step(
            Importance::FULL,
            SimDuration::from_days(15),
            SimDuration::from_days(15),
        ),
    )
}

pub mod gate;
pub mod repro;
pub mod servetop;

/// `bench_stack`'s seeded request stream and reply tally, re-exported from
/// the benchmark's own source file (which `BENCHMARK.json` freezes) so that
/// `bench_serve` and `serve-top` draw the requests `bench_stack` does.
#[allow(missing_docs, clippy::should_implement_trait)]
#[path = "bin/bench_stack/stream.rs"]
pub mod stream;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_unit_fixture_is_full_enough_to_force_eviction() {
        let unit = mixed_unit(ByteSize::from_mib(1000), 100, 10);
        assert_eq!(unit.len(), 100);
        assert_eq!(unit.used(), unit.capacity());
    }

    #[test]
    fn incoming_spec_has_full_initial_importance() {
        let spec = incoming_spec(1, 10);
        assert_eq!(spec.curve().initial_importance(), Importance::FULL);
    }
}
