//! The §6 sensor scenario, driven by the discrete-event [`Simulation`].
//!
//! Raw captures arrive at full importance; a processing pipeline emits
//! summaries and *demotes* the raw data; an unreliable uplink acknowledges
//! summaries and demotes them in turn. The experiment verifies the §6
//! claim: trigger-based importance keeps unprocessed data safe under
//! storage pressure while letting acknowledged data drain away — and a
//! communications outage automatically grows the retention buffer without
//! any policy change.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sim_core::{rng, ByteSize, SimDuration, SimTime, Simulation};
use temporal_importance::protocol::{AnnotateMode, Response, StoreApi};
use temporal_importance::{
    Error, EvictionReason, ObjectId, ObjectIdGen, ObjectSpec, StorageUnit, StoreError,
};
use workload::sensor::{SensorConfig, CLASS_PROCESSED, CLASS_RAW};

use analysis::TimeSeries;

/// Configuration of a sensor-node run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorRunConfig {
    /// The node's annotation policy and traffic shape.
    pub sensor: SensorConfig,
    /// Node storage capacity.
    pub capacity: ByteSize,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// An uplink outage `(start, length)` during which every ack is lost.
    pub outage: Option<(SimTime, SimDuration)>,
}

impl Default for SensorRunConfig {
    fn default() -> Self {
        SensorRunConfig {
            sensor: SensorConfig::default(),
            capacity: ByteSize::from_gib(2),
            horizon: SimDuration::from_days(14),
            outage: None,
        }
    }
}

/// What happened over a sensor-node run.
#[derive(Debug, Clone, Default)]
pub struct SensorRunResult {
    /// Raw captures stored.
    pub captures: u64,
    /// Raw captures lost (evicted or rejected) *before* processing — the
    /// failure §6's annotation policy is designed to prevent.
    pub raw_lost_unprocessed: u64,
    /// Summaries produced.
    pub summaries: u64,
    /// Summaries acknowledged by the uplink.
    pub acked: u64,
    /// Summaries lost before acknowledgment.
    pub summaries_lost_unacked: u64,
    /// Daily storage importance density.
    pub density: TimeSeries,
    /// Daily count of unacknowledged summaries resident (the §6
    /// "retention for communication failure" buffer).
    pub pending_summaries: TimeSeries,
}

#[derive(Debug)]
enum Event {
    Capture { sensor: usize },
    Processed { raw: ObjectId },
    AckAttempt { summary: ObjectId },
    Sample,
}

/// Runs the sensor-node simulation.
pub fn run(config: SensorRunConfig) -> SensorRunResult {
    sim_core::Obs::global().counter("experiment.sensor.runs", 1);
    let _span = sim_core::Obs::global().span("span.experiment.sensor");
    let mut rand: StdRng = rng::stream(config.sensor.seed, "sensor-run");
    let mut unit = StorageUnit::new(config.capacity);
    let mut ids = ObjectIdGen::new();
    let mut result = SensorRunResult::default();
    let horizon = SimTime::ZERO + config.horizon;

    // Track lifecycle state outside the unit: which raw objects are
    // unprocessed, which summaries are unacked.
    let mut unprocessed: std::collections::BTreeSet<ObjectId> = Default::default();
    let mut unacked: std::collections::BTreeSet<ObjectId> = Default::default();

    let mut sim: Simulation<Event> = Simulation::new();
    for sensor in 0..config.sensor.sensors {
        sim.schedule(
            SimTime::from_minutes(sensor as u64),
            Event::Capture { sensor },
        );
    }
    sim.schedule(SimTime::ZERO, Event::Sample);

    let in_outage = |at: SimTime| match config.outage {
        Some((start, len)) => at >= start && at < start + len,
        None => false,
    };

    sim.run(|sim, now, event| {
        if now > horizon {
            return;
        }
        match event {
            Event::Capture { sensor } => {
                let spec = ObjectSpec::new(
                    ids.next_id(),
                    config.sensor.raw_size,
                    config.sensor.raw_curve(),
                )
                .with_class(CLASS_RAW);
                let raw = spec.id();
                match unit.call(now, spec.into()) {
                    Response::Put(Ok(outcome)) => {
                        result.captures += 1;
                        unprocessed.insert(raw);
                        // Anything preempted that was still in-flight is
                        // a lifecycle loss.
                        for victim in &outcome.evicted {
                            if unprocessed.remove(&victim.id) {
                                result.raw_lost_unprocessed += 1;
                            }
                            if unacked.remove(&victim.id) {
                                result.summaries_lost_unacked += 1;
                            }
                        }
                        let delay = uniform_delay(&mut rand, config.sensor.process_delay);
                        sim.schedule(now + delay, Event::Processed { raw });
                    }
                    Response::Put(Err(Error::Store(StoreError::Full { .. }))) => {
                        result.raw_lost_unprocessed += 1;
                    }
                    other => panic!("unexpected answer to a store: {other:?}"),
                }
                sim.schedule(now + config.sensor.capture_every, Event::Capture { sensor });
            }
            Event::Processed { raw } => {
                // The raw object may already have been lost.
                if !unprocessed.remove(&raw) || !unit.contains(raw) {
                    return;
                }
                // Store the summary at high importance, then demote the
                // raw capture to the retention-buffer curve (the trigger).
                let spec = ObjectSpec::new(
                    ids.next_id(),
                    config.sensor.summary_size,
                    config.sensor.summary_curve(),
                )
                .with_class(CLASS_PROCESSED);
                let summary = spec.id();
                match unit.call(now, spec.into()) {
                    Response::Put(Ok(outcome)) => {
                        result.summaries += 1;
                        unacked.insert(summary);
                        for victim in &outcome.evicted {
                            if unprocessed.remove(&victim.id) {
                                result.raw_lost_unprocessed += 1;
                            }
                            if unacked.remove(&victim.id) {
                                result.summaries_lost_unacked += 1;
                            }
                        }
                        // The summary store can itself have reclaimed the
                        // raw object if it had expired; demote only if it
                        // is still resident.
                        if unit.contains(raw) {
                            let retired = config.sensor.raw_retired_curve();
                            unit.annotate(raw, retired, AnnotateMode::Replace, now)
                                .expect("raw object verified resident");
                        }
                        let delay = uniform_delay(&mut rand, config.sensor.ack_delay);
                        sim.schedule(now + delay, Event::AckAttempt { summary });
                    }
                    Response::Put(Err(Error::Store(StoreError::Full { .. }))) => {
                        // Summary could not be stored: keep the raw data
                        // hot and retry processing later.
                        unprocessed.insert(raw);
                        sim.schedule(now + config.sensor.ack_retry, Event::Processed { raw });
                    }
                    other => panic!("unexpected answer to a store: {other:?}"),
                }
            }
            Event::AckAttempt { summary } => {
                if !unacked.contains(&summary) || !unit.contains(summary) {
                    unacked.remove(&summary);
                    return;
                }
                let lost = in_outage(now) || rand.gen::<f64>() < config.sensor.ack_loss;
                if lost {
                    sim.schedule(now + config.sensor.ack_retry, Event::AckAttempt { summary });
                } else {
                    unacked.remove(&summary);
                    result.acked += 1;
                    let acked = config.sensor.summary_acked_curve();
                    unit.annotate(summary, acked, AnnotateMode::Replace, now)
                        .expect("summary verified resident");
                }
            }
            Event::Sample => {
                let info = unit
                    .density_info(now)
                    .expect("a unit answers a density read");
                result.density.push(now, info.density);
                result.pending_summaries.push(now, unacked.len() as f64);
                if now + SimDuration::DAY <= horizon {
                    sim.schedule(now + SimDuration::DAY, Event::Sample);
                }
            }
        }
        // Account for expiry-sweep losses too (keeps `used` meaningful).
        for record in unit.sweep(now).expect("a unit answers a sweep") {
            debug_assert_eq!(record.reason, EvictionReason::Expired);
            if unprocessed.remove(&record.id) {
                result.raw_lost_unprocessed += 1;
            }
            if unacked.remove(&record.id) {
                result.summaries_lost_unacked += 1;
            }
        }
    });

    result
}

fn uniform_delay<R: Rng>(rand: &mut R, range: (SimDuration, SimDuration)) -> SimDuration {
    let (lo, hi) = (range.0.as_minutes(), range.1.as_minutes());
    SimDuration::from_minutes(rand.gen_range(lo..=hi.max(lo)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_unprocessed_data_is_ever_lost_under_pressure() {
        // Capacity deliberately tight: 4 sensors × 64 MiB/hr = 6 GiB/day
        // against 2 GiB of storage. The annotation policy must still keep
        // every capture alive through processing.
        let result = run(SensorRunConfig::default());
        assert!(result.captures > 1000, "captures {}", result.captures);
        assert_eq!(result.raw_lost_unprocessed, 0, "unprocessed data was lost");
        assert_eq!(result.summaries_lost_unacked, 0);
        assert!(result.acked > 0);
    }

    #[test]
    fn acked_summaries_drain_while_pending_ones_survive() {
        let result = run(SensorRunConfig::default());
        // Most summaries get acknowledged, and the pending buffer stays
        // small relative to throughput.
        assert!(result.acked as f64 > 0.9 * result.summaries as f64);
        let mean_pending = result.pending_summaries.summary().unwrap().mean;
        assert!(mean_pending < 20.0, "pending buffer {mean_pending}");
    }

    #[test]
    fn outage_grows_the_retention_buffer_without_losing_data() {
        let outage_start = SimTime::from_days(5);
        let outage_len = SimDuration::from_days(3);
        let config = SensorRunConfig {
            outage: Some((outage_start, outage_len)),
            ..SensorRunConfig::default()
        };
        let result = run(config);
        assert_eq!(result.raw_lost_unprocessed, 0);
        assert_eq!(result.summaries_lost_unacked, 0);

        // Pending summaries during the outage dwarf the steady state.
        let during = result
            .pending_summaries
            .value_at(outage_start + SimDuration::from_days(2))
            .unwrap();
        let before = result
            .pending_summaries
            .value_at(outage_start - SimDuration::DAY)
            .unwrap();
        assert!(
            during > before * 3.0 + 5.0,
            "outage buffer {during} vs steady {before}"
        );

        // And it drains after the uplink recovers.
        let after = result
            .pending_summaries
            .value_at(outage_start + outage_len + SimDuration::from_days(3))
            .unwrap();
        assert!(after < during / 2.0, "buffer never drained: {after}");
    }

    #[test]
    fn density_reflects_the_demotion_cycle() {
        let result = run(SensorRunConfig::default());
        let summary = result.density.summary().unwrap();
        // Demotions keep the density well below saturation even though
        // the disk is byte-full almost continuously.
        assert!(summary.mean < 0.9, "density mean {:.3}", summary.mean);
        assert!(summary.max <= 1.0);
    }

    #[test]
    fn deterministic() {
        let a = run(SensorRunConfig::default());
        let b = run(SensorRunConfig::default());
        assert_eq!(a.captures, b.captures);
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.summaries, b.summaries);
    }
}
