//! The §5.1 single-application-class experiment driver.
//!
//! One storage unit, the ramped arrival stream, and one of three policies:
//!
//! * **No importance** — `L(t) = 1`, hard 30-day expiry (rejects rather
//!   than preempt live data).
//! * **Temporal importance** — the two-step curve: full importance for 15
//!   days, linear wane for another 15.
//! * **Palimpsest** — FIFO, importance-blind, never full.

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, SimDuration, SimTime};
use temporal_importance::protocol::StoreApi;
use temporal_importance::{
    EvictionPolicy, EvictionReason, EvictionRecord, Importance, ImportanceCurve, ObjectIdGen,
    ObjectSpec, StorageUnit, UnitStats,
};
use workload::ramp::RampedArrivals;

use analysis::TimeSeries;
use temporal_importance::DensitySnapshot;

/// The three §5.1 policies under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyChoice {
    /// `L(t) = 1`, `t_expire = 30 days`: every accepted object gets its
    /// full lifetime, but the unit rejects aggressively under pressure.
    NoImportance,
    /// Two-step temporal importance: full for 15 days, waning for 15 more.
    TemporalImportance,
    /// Palimpsest-style FIFO: always admits, evicts oldest first.
    Palimpsest,
}

impl PolicyChoice {
    /// All §5.1 policies, in the paper's presentation order.
    pub const ALL: [PolicyChoice; 3] = [
        PolicyChoice::NoImportance,
        PolicyChoice::TemporalImportance,
        PolicyChoice::Palimpsest,
    ];

    /// The curve this policy annotates arrivals with.
    pub fn curve(self) -> ImportanceCurve {
        match self {
            PolicyChoice::NoImportance => {
                ImportanceCurve::fixed_lifetime(SimDuration::from_days(30))
            }
            PolicyChoice::TemporalImportance => ImportanceCurve::two_step(
                Importance::FULL,
                SimDuration::from_days(15),
                SimDuration::from_days(15),
            ),
            PolicyChoice::Palimpsest => ImportanceCurve::Ephemeral,
        }
    }

    /// The engine policy backing it.
    pub fn eviction_policy(self) -> EvictionPolicy {
        match self {
            PolicyChoice::Palimpsest => EvictionPolicy::Fifo,
            _ => EvictionPolicy::Preemptive,
        }
    }

    /// Stable integer code for trace events (`policy` field), in the
    /// paper's presentation order: 0 = no-importance, 1 =
    /// temporal-importance, 2 = palimpsest.
    pub fn code(self) -> u64 {
        match self {
            PolicyChoice::NoImportance => 0,
            PolicyChoice::TemporalImportance => 1,
            PolicyChoice::Palimpsest => 2,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyChoice::NoImportance => "no-importance",
            PolicyChoice::TemporalImportance => "temporal-importance",
            PolicyChoice::Palimpsest => "palimpsest",
        }
    }
}

impl std::fmt::Display for PolicyChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration for a §5.1 run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SingleClassConfig {
    /// Workload seed.
    pub seed: u64,
    /// Simulation horizon in days (the paper runs five to ten years; the
    /// figures plot the first ~1–2).
    pub days: u64,
    /// Unit capacity (paper: 80 GB and 120 GB).
    pub capacity: ByteSize,
    /// Policy under test.
    pub policy: PolicyChoice,
    /// Density sampling interval.
    pub sample_every: SimDuration,
    /// If set, capture the first density snapshot within ±0.01 of this
    /// value once the unit has seen its first eviction (Figure 7's 0.8369
    /// snapshot).
    pub snapshot_density: Option<f64>,
}

impl SingleClassConfig {
    /// The paper's configuration for a given capacity and policy, over a
    /// two-year horizon.
    pub fn paper(seed: u64, capacity_gib: u64, policy: PolicyChoice) -> Self {
        SingleClassConfig {
            seed,
            days: 730,
            capacity: ByteSize::from_gib(capacity_gib),
            policy,
            sample_every: SimDuration::DAY,
            snapshot_density: None,
        }
    }
}

/// Everything a §5.1 run produces.
#[derive(Debug, Clone)]
pub struct SingleClassResult {
    /// The configuration that produced this result.
    pub config: SingleClassConfig,
    /// Every eviction, in time order. Only stores evict in this run, so
    /// these are the records their outcomes returned.
    pub evictions: Vec<EvictionRecord>,
    /// The instant of every store refused as full, in time order.
    pub rejections: Vec<SimTime>,
    /// Daily storage importance density samples.
    pub density: TimeSeries,
    /// Final unit counters.
    pub stats: UnitStats,
    /// The snapshot captured near `snapshot_density`, if requested & found.
    pub snapshot: Option<DensitySnapshot>,
}

impl SingleClassResult {
    /// Lifetimes achieved as `(eviction time, achieved days)` — Figure 3's
    /// series. Only preemption evictions count ("the lifetimes are
    /// measured when the objects are evicted").
    pub fn lifetime_series(&self) -> TimeSeries {
        self.evictions
            .iter()
            .filter(|e| e.reason == EvictionReason::Preempted)
            .map(|e| (e.evicted_at, e.lifetime_achieved().as_days_f64()))
            .collect()
    }

    /// Rejections as unit impulses `(time, 1.0)` — Figure 4's series
    /// after weekly bucket summing.
    pub fn rejection_series(&self) -> TimeSeries {
        self.rejections.iter().map(|&at| (at, 1.0)).collect()
    }
}

/// Runs the §5.1 experiment on an in-memory unit.
pub fn run(config: SingleClassConfig) -> SingleClassResult {
    let mut unit = StorageUnit::builder(config.capacity)
        .policy(config.policy.eviction_policy())
        .build();
    run_on(&mut unit, config, Some(StorageUnit::density_snapshot))
}

/// Runs the §5.1 experiment on `store`, an empty store of
/// `config.capacity` under `config.policy`'s eviction policy.
///
/// `take_snapshot` takes Figure 7's snapshot when
/// `config.snapshot_density` asks for one; without it none is taken.
pub fn run_on<S: StoreApi>(
    store: &mut S,
    config: SingleClassConfig,
    take_snapshot: Option<fn(&mut S, SimTime) -> DensitySnapshot>,
) -> SingleClassResult {
    let obs = sim_core::Obs::global();
    obs.counter("experiment.single_class.runs", 1);
    let mut span = obs.span("span.experiment.single_class");
    let gib = config.capacity.as_bytes() >> 30;
    let horizon = SimTime::from_days(config.days);
    let mut ids = ObjectIdGen::new();
    let curve = config.policy.curve();

    let mut density = TimeSeries::new();
    let mut next_sample = SimTime::ZERO;
    let mut snapshot: Option<DensitySnapshot> = None;
    let mut saw_eviction = false;
    let mut evictions = Vec::new();
    let mut rejections = Vec::new();

    for arrival in RampedArrivals::paper(config.seed) {
        if arrival.at >= horizon {
            break;
        }
        // Sample state up to the arrival instant.
        while next_sample <= arrival.at {
            let info = store
                .density_info(next_sample)
                .expect("the store answers a density read");
            let (d, used) = (info.density, info.used.ratio(info.capacity));
            density.push(next_sample, d);
            span.sim_to(next_sample);
            obs.event(
                next_sample,
                "density.sample",
                &[
                    ("gib", gib),
                    ("policy", config.policy.code()),
                    ("density_ppm", (d * 1e6).round() as u64),
                    ("used_ppm", (used * 1e6).round() as u64),
                ],
            );
            next_sample += config.sample_every;
        }

        let spec = ObjectSpec::new(ids.next_id(), arrival.size, curve.clone());
        match crate::offer(store, spec, arrival.at) {
            Some(outcome) => {
                if !outcome.evicted.is_empty() {
                    saw_eviction = true;
                }
                evictions.extend(outcome.evicted);
            }
            None => {
                saw_eviction = true; // pressure has begun
                rejections.push(arrival.at);
            }
        }

        // Figure 7's snapshot: first time the density lands in the band
        // after storage pressure begins.
        if let (Some(target), Some(take)) = (config.snapshot_density, take_snapshot) {
            if snapshot.is_none() && saw_eviction {
                let d = store
                    .density_info(arrival.at)
                    .expect("the store answers a density read");
                if (d.density - target).abs() < 0.01 {
                    snapshot = Some(take(store, arrival.at));
                }
            }
        }
    }

    SingleClassResult {
        config,
        evictions,
        rejections,
        density,
        // Read at the clock the last call left, which moves nothing.
        stats: store
            .store_stats(SimTime::ZERO)
            .expect("the store answers a stats read")
            .unit,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy: PolicyChoice, capacity_gib: u64) -> SingleClassResult {
        let mut cfg = SingleClassConfig::paper(1, capacity_gib, policy);
        cfg.days = 365;
        run(cfg)
    }

    #[test]
    fn no_importance_objects_get_full_lifetime() {
        let result = quick(PolicyChoice::NoImportance, 80);
        assert!(!result.evictions.is_empty());
        for e in result
            .evictions
            .iter()
            .filter(|e| e.reason == EvictionReason::Preempted)
        {
            // Preempted objects must already be expired: the policy never
            // reclaims live data.
            assert!(
                e.lifetime_achieved() >= SimDuration::from_days(30),
                "live object preempted after {}",
                e.lifetime_achieved()
            );
        }
        assert!(
            result.stats.rejections_full > 0,
            "should reject under pressure"
        );
    }

    #[test]
    fn temporal_importance_trades_lifetime_for_admissions() {
        let temporal = quick(PolicyChoice::TemporalImportance, 80);
        let fixed = quick(PolicyChoice::NoImportance, 80);
        // The headline of Figure 4: temporal importance rejects far fewer
        // requests than the no-importance policy.
        assert!(
            temporal.stats.rejections_full < fixed.stats.rejections_full / 2,
            "temporal {} vs fixed {}",
            temporal.stats.rejections_full,
            fixed.stats.rejections_full
        );
        // And the cost (Figure 3): some objects lose part of their waning
        // 15 days — lifetimes below 30 days appear.
        let lifetimes = temporal.lifetime_series();
        let min = lifetimes.values().iter().copied().fold(f64::MAX, f64::min);
        assert!(min < 30.0, "no lifetime was shortened (min {min})");
        // But never below the guaranteed 15-day plateau.
        assert!(min >= 15.0, "plateau violated (min {min})");
    }

    #[test]
    fn palimpsest_never_rejects() {
        let result = quick(PolicyChoice::Palimpsest, 80);
        assert_eq!(result.stats.rejections_full, 0);
        assert!(result.stats.evictions_preempted > 0);
    }

    #[test]
    fn density_stays_in_unit_interval_and_tracks_pressure() {
        let result = quick(PolicyChoice::TemporalImportance, 80);
        let values = result.density.values();
        assert!(values.iter().all(|v| (0.0..=1.0).contains(v)));
        // Density early (empty disk) is lower than at its peak.
        let early = values[5];
        let peak = values.iter().copied().fold(0.0, f64::max);
        assert!(peak > early, "density never rose");
        assert!(peak > 0.5, "no storage pressure observed (peak {peak})");
    }

    #[test]
    fn more_storage_means_fewer_rejections() {
        let small = quick(PolicyChoice::TemporalImportance, 80);
        let large = quick(PolicyChoice::TemporalImportance, 120);
        assert!(
            large.stats.rejections_full <= small.stats.rejections_full,
            "120 GiB rejected more ({}) than 80 GiB ({})",
            large.stats.rejections_full,
            small.stats.rejections_full
        );
    }

    #[test]
    fn snapshot_capture_near_target_density() {
        let mut cfg = SingleClassConfig::paper(1, 80, PolicyChoice::TemporalImportance);
        cfg.days = 365;
        cfg.snapshot_density = Some(0.8369);
        let result = run(cfg);
        let snap = result.snapshot.expect("snapshot should be captured");
        assert!((snap.density - 0.8369).abs() < 0.01);
        // Figure 7's qualitative claims hold near that density: a solid
        // majority of bytes at importance one, and a positive admission
        // threshold.
        assert!(snap.fraction_at_full() > 0.3);
        assert!(snap.min_stored_importance().unwrap() > Importance::ZERO);
    }

    #[test]
    fn series_helpers_are_consistent() {
        let result = quick(PolicyChoice::TemporalImportance, 80);
        assert_eq!(result.rejection_series().len(), result.rejections.len());
    }
}
