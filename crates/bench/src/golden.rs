//! The golden observability workload.
//!
//! One seeded engine run whose [`TraceSink`] output is pinned byte-for-byte
//! by `tests/golden_trace.rs` (against `tests/golden/engine_trace.jsonl`)
//! and regenerable on demand by `tempimp-obs golden`. Keeping the
//! generator here — in one place — guarantees the integration test, the
//! CLI, and CI all replay the *same* workload, so a divergence between any
//! two of them is a real determinism break, never a fixture drift.
//!
//! The workload fills a 2000 MiB unit with 1000 resident objects (mixed
//! two-step / fixed / fixed-lifetime curves), then attaches the sink and
//! traces a 256-store churn burst spread over 32 simulated days. The sink
//! attaches only after the fill so the golden file stays small while still
//! covering stores, rejections, preemptions, expiries, and breakpoint
//! advancement.
//!
//! [`TraceSink`]: obs::TraceSink

use std::sync::Arc;

use rand::Rng;
use sim_core::{rng, ByteSize, Obs, SimDuration, SimTime};
use temporal_importance::{Importance, ImportanceCurve, ObjectId, ObjectSpec, StorageUnit};

/// Workload seed. Changing it re-rolls every golden artifact.
pub const SEED: u64 = 4242;
/// Objects stored before the sink attaches.
pub const RESIDENTS: u64 = 1_000;
/// Traced churn stores.
pub const CHURN_STORES: u64 = 256;

/// A 1–4 MiB object whose curve family cycles with `id % 3` — public so
/// the durable-backend differential tests can drive the *same* workload
/// the golden trace pins through a journaled unit.
pub fn mixed_spec(rng: &mut impl Rng, id: u64) -> ObjectSpec {
    let mib = rng.gen_range(1..=4);
    let curve = match id % 3 {
        0 => ImportanceCurve::two_step(
            Importance::new(rng.gen_range(0.2..=1.0)).unwrap(),
            SimDuration::from_days(rng.gen_range(5..40)),
            SimDuration::from_days(rng.gen_range(5..40)),
        ),
        1 => ImportanceCurve::Fixed {
            importance: Importance::new(rng.gen_range(0.1..0.9)).unwrap(),
            expiry: SimDuration::from_days(rng.gen_range(10..90)),
        },
        _ => ImportanceCurve::fixed_lifetime(SimDuration::from_days(rng.gen_range(20..60))),
    };
    ObjectSpec::new(ObjectId::new(id), ByteSize::from_mib(mib), curve)
}

/// Fills a unit to steady state, then traces a burst of churn stores and
/// returns the sink's JSONL. Byte-identical on every call, every
/// platform, every build profile — that is the contract the golden test
/// pins.
pub fn trace_run() -> String {
    let mut rand = rng::seeded(SEED);
    let mut unit = StorageUnit::builder(ByteSize::from_mib(2_000))
        .recording(false)
        .build();
    for id in 0..RESIDENTS {
        let _ = unit.store(mixed_spec(&mut rand, id), SimTime::ZERO);
    }

    let sink = Arc::new(obs::TraceSink::new());
    unit.set_observer(Obs::attached(sink.clone()));
    for k in 0..CHURN_STORES {
        let now = SimTime::from_days(30 + k / 8);
        unit.advance(now);
        let _ = unit.store(mixed_spec(&mut rand, RESIDENTS + k), now);
    }
    sink.to_jsonl()
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn the_golden_workload_is_deterministic() {
        let first = trace_run();
        assert!(!first.is_empty());
        assert_eq!(first, trace_run());
    }
}
