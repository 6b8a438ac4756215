//! Crash-recovery contracts of the durable segment-log backend.
//!
//! Two crash shapes that matter most for a log-structured store:
//!
//! * **Killed mid-compaction.** The compaction commit protocol appends
//!   survivor rewrites, then tombstones, then the `Compacted` commit
//!   record, syncs, and only then deletes the victim file. A crash that
//!   tears the commit record must leave a log that recovers to *exactly*
//!   the state a completed compaction (or no compaction at all) would
//!   produce — the victim file is still there, the torn commit is
//!   truncated away, and latest-record-wins replay makes the duplicate
//!   survivor records harmless.
//! * **Torn tail under the golden workload.** The same seeded workload
//!   whose engine trace is pinned byte-for-byte by
//!   `tests/golden/engine_trace.jsonl` is driven through a [`DurableUnit`]
//!   instead: the trace must still match the committed golden file
//!   (journaling is invisible to the engine), and after corrupting the
//!   log's tail, reopening must reproduce the pre-corruption engine
//!   state exactly.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sim_core::{ByteSize, SimDuration, SimTime};
use tempimp_durable::{DurableConfig, DurableUnit};
use temporal_importance::{EvictionPolicy, ImportanceCurve, ObjectId, ObjectSpec};

/// A fresh scratch directory under the workspace `target/` (tests must
/// not touch anything outside the repository).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/target/durable-recovery-scratch"
    ))
    .join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch");
    }
    dir
}

/// Everything the engine can observe about a unit's state, as one
/// comparable string (the vendored serde is typed, so the serialization
/// covers residents, stats, and occupancy).
fn fingerprint(unit: &DurableUnit) -> String {
    serde_json::to_string(unit.unit()).expect("unit state serializes")
}

/// The highest-numbered segment file in a log directory — where the most
/// recently appended records live.
fn last_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read log dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("seg-") && name.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments.pop().expect("log has at least one segment")
}

/// Copies every segment file of `from` into `to` (overwriting), leaving
/// files that exist only in `to` untouched.
fn overlay(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            let name = path.file_name().expect("segment file name");
            std::fs::copy(&path, to.join(name)).expect("copy segment");
        }
    }
}

const CAPACITY: ByteSize = ByteSize::from_mib(4_000);

fn tiny_open(dir: &Path) -> DurableUnit {
    // 2 KiB segments: the workload below spreads across dozens of sealed
    // segments, so compaction has real victims to choose from. Automatic
    // compaction is off — the test controls exactly when it runs.
    let config = DurableConfig::default()
        .segment_bytes(2048)
        .auto_compact(false);
    DurableUnit::open(dir, CAPACITY, EvictionPolicy::Preemptive, config).expect("open segment log")
}

/// A mixed mutation history with plenty of dead weight: stores with
/// cycling lifetimes, explicit removes, and an expiry sweep.
fn churn(unit: &mut DurableUnit) {
    for id in 0..120u64 {
        unit.store(
            ObjectSpec::new(
                ObjectId::new(id),
                ByteSize::from_kib(64 + id % 7),
                ImportanceCurve::fixed_lifetime(SimDuration::from_days(2 + (id % 5) * 3)),
            ),
            SimTime::from_minutes(id),
        )
        .expect("store fits");
    }
    for id in (0..120u64).step_by(3) {
        unit.remove(ObjectId::new(id), SimTime::from_hours(3))
            .expect("journal remove");
    }
    unit.sweep_expired(SimTime::from_days(3))
        .expect("journal sweep");
}

#[test]
fn a_crash_mid_compaction_recovers_to_the_clean_state() {
    let live = scratch("mid-compaction-live");
    let crashed = scratch("mid-compaction-crash");

    // Build the history and snapshot the log as it looks the instant
    // before compaction starts.
    let mut unit = tiny_open(&live);
    churn(&mut unit);
    drop(unit.close().expect("clean close"));
    std::fs::create_dir_all(&crashed).expect("create crash dir");
    overlay(&live, &crashed);

    // Run one real compaction to completion and capture the state every
    // recovery must reproduce.
    let mut unit = tiny_open(&live);
    let now = SimTime::from_days(3);
    let report = unit
        .compact()
        .expect("compaction runs")
        .expect("the churn left a compactable victim");
    assert!(report.reclaimed_bytes > 0, "compaction reclaimed disk");
    let expected = fingerprint(&unit);
    let expected_stats = *unit.unit().stats();
    let expected_used = unit.unit().used();
    let expected_residents = unit.unit().len();
    let expected_density = unit.unit().importance_density(now);
    let expected_clock = unit.clock();
    let expected_sweep = unit.last_sweep();
    drop(unit.close().expect("clean close"));

    // Reconstruct the mid-compaction crash: the live dir's files after
    // compaction (survivor rewrites, tombstones, commit record appended;
    // victim file deleted) overlaid on the snapshot, which still has the
    // victim file — then tear the final commit record, as a kill between
    // the survivor writes and the commit sync would.
    overlay(&live, &crashed);
    let tail = last_segment(&crashed);
    let len = std::fs::metadata(&tail).expect("stat tail").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&tail)
        .expect("reopen tail segment");
    file.set_len(len - 3).expect("tear the commit record");
    drop(file);

    // Recovery: the torn commit is truncated away, the victim file (never
    // exonerated by a commit record) replays normally, and the duplicate
    // survivor records are absorbed by latest-record-wins.
    let recovered = tiny_open(&crashed);
    assert_eq!(fingerprint(&recovered), expected, "engine state identical");
    assert_eq!(*recovered.unit().stats(), expected_stats);
    assert_eq!(recovered.unit().used(), expected_used);
    assert_eq!(recovered.unit().len(), expected_residents);
    assert_eq!(recovered.unit().importance_density(now), expected_density);
    assert_eq!(recovered.clock(), expected_clock);
    assert_eq!(recovered.last_sweep(), expected_sweep);
    drop(recovered);

    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&crashed).ok();
}

#[test]
fn a_crash_after_commit_but_before_victim_deletion_recovers_cleanly() {
    let live = scratch("post-commit-live");
    let crashed = scratch("post-commit-crash");

    let mut unit = tiny_open(&live);
    churn(&mut unit);
    drop(unit.close().expect("clean close"));
    std::fs::create_dir_all(&crashed).expect("create crash dir");
    overlay(&live, &crashed);

    let mut unit = tiny_open(&live);
    unit.compact()
        .expect("compaction runs")
        .expect("the churn left a compactable victim");
    let expected = fingerprint(&unit);
    drop(unit.close().expect("clean close"));

    // This time the commit record is fully on disk; only the victim-file
    // deletion never happened. Recovery must notice the commit and drop
    // the stale victim file itself.
    overlay(&live, &crashed);
    let recovered = tiny_open(&crashed);
    assert_eq!(fingerprint(&recovered), expected, "engine state identical");
    drop(recovered);

    // The stale victim file is gone from disk after recovery.
    let live_files: Vec<_> = std::fs::read_dir(&live)
        .expect("read live dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    for entry in std::fs::read_dir(&crashed).expect("read crash dir") {
        let name = entry.expect("entry").file_name();
        assert!(
            live_files.contains(&name),
            "recovery deleted the exonerated victim file, {name:?} remains"
        );
    }

    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&crashed).ok();
}

#[cfg(not(feature = "obs-off"))]
mod golden {
    use super::*;
    use std::sync::Arc;

    use bench_harness::golden::{mixed_spec, CHURN_STORES, RESIDENTS, SEED};
    use sim_core::{rng, Obs};

    /// The golden observability workload of `tests/golden_trace.rs`,
    /// driven through a journaled unit instead of a bare [`StorageUnit`]:
    /// the traced engine behavior must be byte-identical (the journal is
    /// a pure listener), and the log it leaves behind must survive a torn
    /// tail with the engine state intact.
    ///
    /// [`StorageUnit`]: temporal_importance::StorageUnit
    #[test]
    fn the_golden_workload_traces_identically_through_the_journal_and_recovers() {
        let dir = scratch("golden");
        let mut rand = rng::seeded(SEED);
        let mut unit = DurableUnit::open(
            &dir,
            ByteSize::from_mib(2_000),
            EvictionPolicy::Preemptive,
            DurableConfig::default(),
        )
        .expect("open segment log");
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
        let trace = sink.to_jsonl();
        let golden = include_str!("golden/engine_trace.jsonl");
        assert!(
            trace == golden,
            "the journaled engine diverged from tests/golden/engine_trace.jsonl"
        );

        // Crash with a torn tail; recovery reproduces the exact state the
        // golden workload left behind.
        let expected = fingerprint(&unit);
        drop(unit.close().expect("clean close"));
        let tail = last_segment(&dir);
        let mut bytes = std::fs::read(&tail).expect("read tail segment");
        bytes.extend_from_slice(&[0xA5; 21]);
        std::fs::write(&tail, &bytes).expect("tear the tail");

        let recovered = DurableUnit::open(
            &dir,
            ByteSize::from_mib(2_000),
            EvictionPolicy::Preemptive,
            DurableConfig::default(),
        )
        .expect("recover");
        assert_eq!(recovered.recovered_torn_bytes(), 21);
        assert_eq!(fingerprint(&recovered), expected, "engine state identical");
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}
