//! Simultaneous different applications vying for one storage unit — the
//! follow-up study §1 defers ("we leave the study of simultaneous and
//! different applications vying for storage to follow up work").
//!
//! Three applications share a desktop disk:
//!
//! * **archive** — a lecture-style archive with long two-step lifetimes
//!   (high plateau, long wane),
//! * **backup** — §5.1-style rolling backups (full importance, 30-day
//!   expiry, fixed curve),
//! * **cache** — ephemeral web-cache data (importance zero).
//!
//! The questions mirror §4.2: does each application get behaviour
//! consistent with its annotations, does the cache class soak up exactly
//! the slack left by the important classes, and does the storage
//! importance density still predict each class's fate?

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, SimDuration, SimTime};
use temporal_importance::{
    EvictionReason, Importance, ImportanceCurve, ObjectClass, ObjectIdGen, ObjectSpec, StorageUnit,
    StoreError,
};

use analysis::TimeSeries;
use rand::Rng;

/// Class tag for the archive application.
pub const CLASS_ARCHIVE: ObjectClass = ObjectClass::new(10);

/// Class tag for the backup application.
pub const CLASS_BACKUP: ObjectClass = ObjectClass::new(11);

/// Class tag for the cache application.
pub const CLASS_CACHE: ObjectClass = ObjectClass::new(12);

/// Per-application traffic and annotation shape.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Class tag.
    pub class: ObjectClass,
    /// Human label.
    pub name: &'static str,
    /// Objects per day.
    pub daily_objects: u64,
    /// Object size range in MiB (uniform).
    pub size_mib: (u64, u64),
    /// The annotation every object of this app carries.
    pub curve: ImportanceCurve,
}

/// The default three-application mix.
pub fn default_profiles() -> Vec<AppProfile> {
    vec![
        AppProfile {
            class: CLASS_ARCHIVE,
            name: "archive",
            daily_objects: 1,
            size_mib: (300, 500),
            curve: ImportanceCurve::two_step(
                Importance::FULL,
                SimDuration::from_days(90),
                SimDuration::from_days(365),
            ),
        },
        AppProfile {
            class: CLASS_BACKUP,
            name: "backup",
            daily_objects: 4,
            size_mib: (100, 300),
            curve: ImportanceCurve::fixed_lifetime(SimDuration::from_days(30)),
        },
        AppProfile {
            class: CLASS_CACHE,
            name: "cache",
            daily_objects: 40,
            size_mib: (5, 60),
            curve: ImportanceCurve::Ephemeral,
        },
    ]
}

/// Configuration of a mixed-application run.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedRunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Simulated days.
    pub days: u64,
    /// Shared unit capacity.
    pub capacity: ByteSize,
    /// The applications sharing the unit.
    pub profiles: Vec<AppProfile>,
}

impl Default for MixedRunConfig {
    fn default() -> Self {
        MixedRunConfig {
            seed: 0,
            days: 365,
            capacity: ByteSize::from_gib(120),
            profiles: default_profiles(),
        }
    }
}

/// Per-application outcome of a mixed run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AppOutcome {
    /// App label.
    pub name: String,
    /// Objects offered.
    pub offered: u64,
    /// Objects accepted.
    pub accepted: u64,
    /// Objects rejected (unit full for their importance).
    pub rejected: u64,
    /// Preemption evictions suffered.
    pub evicted: u64,
    /// Mean achieved lifetime of evicted objects, in days.
    pub mean_lifetime_days: f64,
    /// Mean importance at eviction.
    pub mean_eviction_importance: f64,
    /// Resident bytes at the end of the run.
    pub final_resident: ByteSize,
}

impl AppOutcome {
    /// Fraction of offered objects accepted.
    pub fn acceptance(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.accepted as f64 / self.offered as f64
        }
    }
}

/// Result of a mixed-application run.
#[derive(Debug, Clone)]
pub struct MixedRunResult {
    /// Per-application outcomes in profile order.
    pub apps: Vec<AppOutcome>,
    /// Daily storage importance density.
    pub density: TimeSeries,
    /// Daily resident-byte fraction per class, in profile order.
    pub residency: Vec<TimeSeries>,
}

impl MixedRunResult {
    /// Looks up an application outcome by name.
    pub fn app(&self, name: &str) -> Option<&AppOutcome> {
        self.apps.iter().find(|a| a.name == name)
    }
}

/// Runs the mixed-application experiment.
pub fn run(config: MixedRunConfig) -> MixedRunResult {
    sim_core::Obs::global().counter("experiment.mixed.runs", 1);
    let _span = sim_core::Obs::global().span("span.experiment.mixed");
    let mut rand = sim_core::rng::stream(config.seed, "mixed-apps");
    let mut unit = StorageUnit::new(config.capacity);
    let mut ids = ObjectIdGen::new();

    let mut density = TimeSeries::new();
    let mut residency: Vec<TimeSeries> =
        config.profiles.iter().map(|_| TimeSeries::new()).collect();
    let mut offered = vec![0u64; config.profiles.len()];
    let mut accepted = vec![0u64; config.profiles.len()];
    let mut rejected = vec![0u64; config.profiles.len()];

    for day in 0..config.days {
        let midnight = SimTime::from_days(day);
        // Sample state at each midnight.
        unit.advance(midnight);
        density.push(midnight, unit.importance_density(midnight));
        for (i, profile) in config.profiles.iter().enumerate() {
            let bytes: ByteSize = unit
                .iter()
                .filter(|o| o.class() == profile.class)
                .map(|o| o.size())
                .sum();
            residency[i].push(midnight, bytes.ratio(config.capacity));
        }

        // Interleave the day's arrivals across apps at random minutes.
        let mut day_arrivals: Vec<(SimTime, usize)> = Vec::new();
        for (i, profile) in config.profiles.iter().enumerate() {
            for _ in 0..profile.daily_objects {
                let minute = rand.gen_range(0..24 * 60);
                day_arrivals.push((midnight + SimDuration::from_minutes(minute), i));
            }
        }
        day_arrivals.sort();

        for (at, i) in day_arrivals {
            let profile = &config.profiles[i];
            offered[i] += 1;
            let size = ByteSize::from_mib(rand.gen_range(profile.size_mib.0..=profile.size_mib.1));
            let spec = ObjectSpec::new(ids.next_id(), size, profile.curve.clone())
                .with_class(profile.class);
            match unit.store(spec, at) {
                Ok(_) => accepted[i] += 1,
                Err(StoreError::Full { .. }) => rejected[i] += 1,
                Err(e) => panic!("unexpected store error: {e}"),
            }
        }
    }

    let evictions = unit.take_evictions();
    let apps = config
        .profiles
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            let evicted: Vec<_> = evictions
                .iter()
                .filter(|e| e.class == profile.class && e.reason == EvictionReason::Preempted)
                .collect();
            let mean_lifetime_days =
                mean(evicted.iter().map(|e| e.lifetime_achieved().as_days_f64()));
            let mean_eviction_importance =
                mean(evicted.iter().map(|e| e.importance_at_eviction.value()));
            AppOutcome {
                name: profile.name.to_string(),
                offered: offered[i],
                accepted: accepted[i],
                rejected: rejected[i],
                evicted: evicted.len() as u64,
                mean_lifetime_days,
                mean_eviction_importance,
                final_resident: unit
                    .iter()
                    .filter(|o| o.class() == profile.class)
                    .map(|o| o.size())
                    .sum(),
            }
        })
        .collect();

    MixedRunResult {
        apps,
        density,
        residency,
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let collected: Vec<f64> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> MixedRunResult {
        run(MixedRunConfig {
            seed: 9,
            days: 300,
            ..MixedRunConfig::default()
        })
    }

    #[test]
    fn important_classes_are_served_before_the_cache() {
        let result = quick();
        let archive = result.app("archive").unwrap();
        let backup = result.app("backup").unwrap();
        let cache = result.app("cache").unwrap();
        // Archive and backup keep near-full acceptance; the cache absorbs
        // the rejections (its ephemeral objects can't preempt anything).
        assert!(
            archive.acceptance() > 0.95,
            "archive {:.2}",
            archive.acceptance()
        );
        assert!(
            backup.acceptance() > 0.95,
            "backup {:.2}",
            backup.acceptance()
        );
        assert!(
            cache.acceptance() < archive.acceptance(),
            "cache {:.2} not below archive {:.2}",
            cache.acceptance(),
            archive.acceptance()
        );
    }

    #[test]
    fn backup_objects_get_their_thirty_days() {
        let result = quick();
        let backup = result.app("backup").unwrap();
        // Fixed-curve backups are only evictable after expiry, so any
        // eviction shows at least the requested 30 days.
        if backup.evicted > 0 {
            assert!(
                backup.mean_lifetime_days >= 30.0,
                "backup lifetime {:.1}",
                backup.mean_lifetime_days
            );
        }
    }

    #[test]
    fn cache_occupies_only_the_slack() {
        let result = quick();
        // Once the disk is under pressure, the ephemeral class's resident
        // share shrinks as the important classes grow.
        let cache_share = &result.residency[2];
        let early = cache_share.value_at(SimTime::from_days(20)).unwrap();
        let late = cache_share.value_at(SimTime::from_days(290)).unwrap();
        assert!(
            late <= early + 0.05,
            "cache share grew under pressure: {early:.3} → {late:.3}"
        );
        // Density approaches saturation as the durable classes fill in.
        let peak = result.density.values().iter().copied().fold(0.0, f64::max);
        assert!(peak > 0.5, "density peak {peak:.3}");
    }

    #[test]
    fn archive_evictions_happen_at_low_importance_only() {
        let result = quick();
        let archive = result.app("archive").unwrap();
        if archive.evicted > 0 {
            assert!(
                archive.mean_eviction_importance < 0.7,
                "archive evicted while still important: {:.2}",
                archive.mean_eviction_importance
            );
        }
    }

    #[test]
    fn deterministic() {
        let a = quick();
        let b = quick();
        assert_eq!(a.apps, b.apps);
    }
}
