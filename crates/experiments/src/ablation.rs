//! Ablation studies for design choices the paper leaves open.
//!
//! * **Decay shape** (§3: the waning component "could be linear,
//!   exponential or some other function") — reruns the §5.1 experiment
//!   with linear, exponential and step wane of identical persist/expiry,
//!   comparing admissions and lifetimes.
//! * **Placement parameters** (§5.3's `x` candidates / `m` tries) — how
//!   sampling width changes the importance of what gets preempted.

use rand::Rng;
use serde::{Deserialize, Serialize};
use sim_core::{rng, ByteSize, SimDuration, SimTime};
use temporal_importance::protocol::{Response, StoreApi};
use temporal_importance::{
    Error, EvictionReason, Importance, ImportanceCurve, ObjectId, ObjectIdGen, ObjectSpec,
    StorageUnit, StoreError,
};

use besteffs::{Besteffs, PlacementConfig};
use workload::ramp::RampedArrivals;

/// The wane shapes compared by the decay ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecayShape {
    /// The paper's linear wane.
    Linear,
    /// Exponential wane (half-life = a quarter of the wane window).
    Exponential,
    /// A hard step: full importance until expiry, then zero.
    Step,
}

impl DecayShape {
    /// All shapes in presentation order.
    pub const ALL: [DecayShape; 3] = [
        DecayShape::Linear,
        DecayShape::Exponential,
        DecayShape::Step,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DecayShape::Linear => "linear",
            DecayShape::Exponential => "exponential",
            DecayShape::Step => "step",
        }
    }

    /// A curve with 15-day plateau and 15-day wane window in this shape.
    pub fn curve(self) -> ImportanceCurve {
        let persist = SimDuration::from_days(15);
        let wane = SimDuration::from_days(15);
        match self {
            DecayShape::Linear => ImportanceCurve::two_step(Importance::FULL, persist, wane),
            DecayShape::Exponential => ImportanceCurve::exp_decay(
                Importance::FULL,
                persist,
                wane,
                SimDuration::from_days(4),
            )
            .expect("positive half-life"),
            DecayShape::Step => {
                ImportanceCurve::two_step(Importance::FULL, persist + wane, SimDuration::ZERO)
            }
        }
    }
}

/// One decay-shape ablation row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecayAblationRow {
    /// The shape measured.
    pub shape: DecayShape,
    /// Store requests rejected.
    pub rejections: u64,
    /// Objects preempted.
    pub evictions: u64,
    /// Mean lifetime achieved by preempted objects (days).
    pub mean_lifetime_days: f64,
}

/// Runs the decay-shape ablation on the §5.1 workload.
///
/// An instructive subtlety: with a *homogeneous* workload (every object
/// carrying the same curve), any strictly monotone wane of identical
/// persist/expiry produces byte-identical reclamation behaviour — the
/// engine only consumes the importance *ordering*, and age determines
/// that ordering for every monotone shape. The shape matters once objects
/// compete with other importance levels, so this ablation interleaves a
/// fixed 0.5-importance competitor class: a shape that wanes below 0.5
/// sooner loses its objects sooner. The rows report the shaped class
/// only.
pub fn decay_ablation(seed: u64, capacity: ByteSize, days: u64) -> Vec<DecayAblationRow> {
    sim_core::Obs::global().counter("experiment.ablation_decay.runs", 1);
    let _span = sim_core::Obs::global().span("span.experiment.ablation_decay");
    const SHAPED: temporal_importance::ObjectClass = temporal_importance::ObjectClass::new(20);
    const COMPETITOR: temporal_importance::ObjectClass = temporal_importance::ObjectClass::new(21);

    DecayShape::ALL
        .into_iter()
        .map(|shape| {
            let curve = shape.curve();
            let competitor_curve = ImportanceCurve::Fixed {
                importance: Importance::new_clamped(0.5),
                expiry: SimDuration::from_days(30),
            };
            let mut unit = StorageUnit::new(capacity);
            let mut ids = ObjectIdGen::new();
            let mut shaped_rejected = 0u64;
            let mut evictions = Vec::new();
            for (index, arrival) in RampedArrivals::paper(seed).enumerate() {
                if arrival.at >= SimTime::from_days(days) {
                    break;
                }
                let shaped = index % 2 == 0;
                let (class, curve) = if shaped {
                    (SHAPED, curve.clone())
                } else {
                    (COMPETITOR, competitor_curve.clone())
                };
                let spec = ObjectSpec::new(ids.next_id(), arrival.size, curve).with_class(class);
                match unit.call(arrival.at, spec.into()) {
                    Response::Put(Ok(outcome)) => evictions.extend(outcome.evicted),
                    Response::Put(Err(Error::Store(StoreError::Full { .. }))) => {
                        if shaped {
                            shaped_rejected += 1;
                        }
                    }
                    other => panic!("unexpected answer to a store: {other:?}"),
                }
            }
            let preempted: Vec<f64> = evictions
                .iter()
                .filter(|e| e.class == SHAPED && e.reason == EvictionReason::Preempted)
                .map(|e| e.lifetime_achieved().as_days_f64())
                .collect();
            let mean = if preempted.is_empty() {
                0.0
            } else {
                preempted.iter().sum::<f64>() / preempted.len() as f64
            };
            DecayAblationRow {
                shape,
                rejections: shaped_rejected,
                evictions: preempted.len() as u64,
                mean_lifetime_days: mean,
            }
        })
        .collect()
}

/// One placement-parameter ablation row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementAblationRow {
    /// Candidates sampled per try (`x`).
    pub candidates: usize,
    /// Maximum tries (`m`).
    pub tries: usize,
    /// Mean importance of the highest preempted victim across placements
    /// that had to preempt (lower is better).
    pub mean_victim_importance: f64,
    /// Placements that failed outright.
    pub rejected: u64,
}

/// Runs the placement ablation: a cluster pre-filled with mixed-importance
/// data receives a batch of high-importance objects under varying `(x, m)`.
pub fn placement_ablation(
    seed: u64,
    nodes: usize,
    sweep: &[(usize, usize)],
) -> Vec<PlacementAblationRow> {
    sim_core::Obs::global().counter("experiment.ablation_placement.runs", 1);
    let _span = sim_core::Obs::global().span("span.experiment.ablation_placement");
    sweep
        .iter()
        .map(|&(candidates, tries)| {
            let mut rand = rng::stream(seed, "placement-ablation");
            let config = PlacementConfig {
                candidates_per_try: candidates,
                max_tries: tries,
                walk_steps: 10,
            };
            let mut cluster = Besteffs::builder(nodes, ByteSize::from_mib(100))
                .placement(config)
                .build(&mut rand);
            // Pre-fill every node with ten 10-MiB objects of uniformly
            // random importance, so placements must preempt.
            let mut raw_id = 0u64;
            for i in 0..nodes {
                for _ in 0..10 {
                    raw_id += 1;
                    let importance = Importance::new_clamped(rand.gen_range(0.05..0.95));
                    let spec = ObjectSpec::new(
                        ObjectId::new(raw_id),
                        ByteSize::from_mib(10),
                        ImportanceCurve::Fixed {
                            importance,
                            expiry: SimDuration::from_days(3650),
                        },
                    );
                    let node = cluster.node_mut(besteffs::NodeId::new(i));
                    let stored = node.call(SimTime::ZERO, spec.into());
                    assert!(matches!(stored, Response::Put(Ok(_))), "pre-fill fits");
                }
            }

            // Place a batch of full-importance objects.
            let mut victim_importances = Vec::new();
            let mut rejected = 0u64;
            for _ in 0..nodes {
                raw_id += 1;
                let spec = ObjectSpec::new(
                    ObjectId::new(raw_id),
                    ByteSize::from_mib(10),
                    ImportanceCurve::fixed_lifetime(SimDuration::from_days(30)),
                );
                match cluster.place(spec, SimTime::from_minutes(1), &mut rand) {
                    Ok(placed) => {
                        if let Some(h) = placed.outcome.highest_preempted {
                            victim_importances.push(h.value());
                        }
                    }
                    Err(_) => rejected += 1,
                }
            }
            let mean = if victim_importances.is_empty() {
                0.0
            } else {
                victim_importances.iter().sum::<f64>() / victim_importances.len() as f64
            };
            PlacementAblationRow {
                candidates,
                tries,
                mean_victim_importance: mean,
                rejected,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_shapes_order_admissions() {
        let rows = decay_ablation(3, ByteSize::from_gib(40), 365);
        let by_shape = |s: DecayShape| rows.iter().find(|r| r.shape == s).unwrap();
        let linear = by_shape(DecayShape::Linear);
        let step = by_shape(DecayShape::Step);
        // A step curve keeps objects non-preemptible for the full 30 days,
        // so it must reject at least as much as the linear wane.
        assert!(
            step.rejections >= linear.rejections,
            "step {} vs linear {}",
            step.rejections,
            linear.rejections
        );
        // Against the 0.5-importance competitor class, exponential wane
        // crosses 0.5 sooner (persist + 1 half-life = day 19) than linear
        // (persist + wane/2 = day 22.5), so exp objects live less long.
        let exp = by_shape(DecayShape::Exponential);
        assert!(
            linear.mean_lifetime_days > exp.mean_lifetime_days,
            "linear {} vs exp {}",
            linear.mean_lifetime_days,
            exp.mean_lifetime_days
        );
    }

    #[test]
    fn wider_sampling_preempts_less_important_victims() {
        let rows = placement_ablation(7, 30, &[(1, 1), (16, 3)]);
        assert_eq!(rows.len(), 2);
        let narrow = rows[0];
        let wide = rows[1];
        assert!(
            wide.mean_victim_importance <= narrow.mean_victim_importance,
            "wide {} vs narrow {}",
            wide.mean_victim_importance,
            narrow.mean_victim_importance
        );
    }

    #[test]
    fn shape_labels() {
        assert_eq!(DecayShape::Linear.label(), "linear");
        assert_eq!(DecayShape::ALL.len(), 3);
    }
}
