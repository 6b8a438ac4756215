//! Crash-recovery contracts of the durable segment-log backend.
//!
//! * **One crash model.** A seeded workload runs through a
//!   [`DurableUnit`] on 1 KiB segments with auto-compaction off: stores
//!   over four curve families (one piecewise), refusals, removes,
//!   rejuvenations, reannotations, sweeps, and on every third step one
//!   `compact()` round as a step of its own. The segment files are
//!   snapshotted before and after every step. Between two snapshots the
//!   log only appends frames, creates the next segment on a roll, and
//!   unlinks a compaction's victim after its commit, so every crash state
//!   in between is rebuilt from the two snapshots: every frame boundary
//!   (walked from the 4-byte length headers alone), a cut inside every
//!   frame, garbage after every third boundary, the empty segment a roll
//!   has just created, everything a compaction appended with its victim
//!   still on disk, and the state after the step. Each state is reopened
//!   in a scratch directory and must match the live unit — engine state,
//!   `clock()`, `last_sweep()`, `recovered_torn_bytes()` and the files
//!   recovery leaves behind — as it was before the step while the step's
//!   first frame is incomplete, and after the step from then on. Every
//!   seventh state must also take one more store and reopen to the
//!   result. The model's limit: a segment sealed and folded inside one
//!   auto-compacting call never shows in a snapshot, and a failed write is
//!   not a crash; both need an I/O seam under the log.
//! * **Two compaction windows, pinned by name.** A torn commit record
//!   with the victim still on disk, and a whole commit whose victim was
//!   never unlinked, each rebuilt from one real compaction of a fixed
//!   churn history. Both are states the model also reaches.
//! * **Torn tail under the golden workload.** The same seeded workload
//!   whose engine trace is pinned byte-for-byte by
//!   `tests/golden/engine_trace.jsonl` is driven through a [`DurableUnit`]
//!   instead: the trace must still match the committed golden file
//!   (journaling is invisible to the engine), and after corrupting the
//!   log's tail, reopening must reproduce the pre-corruption engine
//!   state exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::Rng;
use sim_core::{rng, ByteSize, SimDuration, SimTime};
use tempimp_durable::{DurableConfig, DurableError, DurableUnit};
use temporal_importance::protocol::{AnnotateMode, StoreApi};
use temporal_importance::{
    EvictionPolicy, Importance, ImportanceCurve, ObjectId, ObjectSpec, PiecewiseCurve, StorageUnit,
};

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
    engine(unit.unit())
}

fn engine(unit: &StorageUnit) -> String {
    serde_json::to_string(unit).expect("unit state serializes")
}

const SEED: u64 = 4;
const STEPS: usize = 360;
/// About ten residents of 1–12 MiB: preemption and `Full` refusals.
const CAPACITY: ByteSize = ByteSize::from_mib(48);
/// Ids come from a small range so removes and annotations find their
/// objects and re-stores collide.
const IDS: u64 = 24;
/// The extra store of a continue check, outside the workload's ids.
const CONTINUED: ObjectId = ObjectId::new(IDS);
const MINUTES_PER_DAY: u64 = 24 * 60;

fn open(dir: &Path) -> Result<DurableUnit, DurableError> {
    let config = DurableConfig::default()
        .segment_bytes(1024)
        .auto_compact(false);
    DurableUnit::open(dir, CAPACITY, EvictionPolicy::Preemptive, config)
}

/// Segment file name → contents: one snapshot of a log directory.
type Files = BTreeMap<String, Vec<u8>>;

fn snapshot(dir: &Path) -> Files {
    std::fs::read_dir(dir)
        .expect("read log dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("read segment");
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), bytes)
        })
        .collect()
}

fn lengths(files: &Files) -> Vec<(&str, usize)> {
    files
        .iter()
        .map(|(name, bytes)| (name.as_str(), bytes.len()))
        .collect()
}

/// The live unit at one edge of a step: what a crash state reopens to.
struct Edge {
    engine: StorageUnit,
    fingerprint: String,
    clocks: (SimTime, SimTime),
}

impl Edge {
    fn of(unit: &DurableUnit) -> Edge {
        Edge {
            engine: unit.unit().clone(),
            fingerprint: fingerprint(unit),
            clocks: (unit.clock(), unit.last_sweep()),
        }
    }
}

/// One frame a step appended: its file and its byte range there.
struct Frame<'a> {
    file: &'a str,
    start: usize,
    end: usize,
}

/// The frames appended between two snapshots in append order, walked
/// from their length headers alone, and the file the step deleted. Also
/// checks the claim the crash model rests on: files only grow at their
/// end, a new file is the next segment, and at most one file goes.
fn appended<'a>(before: &'a Files, after: &'a Files) -> (Vec<Frame<'a>>, Option<&'a str>) {
    let mut gone = before.keys().filter(|name| !after.contains_key(*name));
    let victim = gone.next().map(String::as_str);
    assert!(gone.next().is_none(), "a step deletes at most one segment");
    let newest = before.keys().next_back();
    let mut frames = Vec::new();
    for (name, bytes) in after {
        let mut offset = match before.get(name) {
            Some(old) => {
                assert!(bytes.starts_with(old), "{name} was rewritten");
                old.len()
            }
            None => {
                assert!(Some(name) > newest, "{name} is not the next segment");
                0
            }
        };
        while offset < bytes.len() {
            let header = bytes[offset..offset + 4].try_into().expect("4 bytes");
            let end = offset + 8 + u32::from_le_bytes(header) as usize;
            frames.push(Frame {
                file: name,
                start: offset,
                end,
            });
            offset = end;
        }
        assert_eq!(offset, bytes.len(), "{name} ends inside a frame");
    }
    (frames, victim)
}

/// An annotation from one of four curve families, one piecewise, with
/// breakpoints inside the workload's horizon.
fn curve(rng: &mut StdRng) -> ImportanceCurve {
    let span = |rng: &mut StdRng| SimDuration::from_minutes(rng.gen_range(60..4 * MINUTES_PER_DAY));
    let level = Importance::new_clamped(rng.gen_range(0.1..=1.0));
    match rng.gen_range(0..4) {
        0 => ImportanceCurve::Fixed {
            importance: level,
            expiry: span(rng),
        },
        1 => ImportanceCurve::two_step(level, span(rng), span(rng)),
        2 => ImportanceCurve::exp_decay(level, span(rng), span(rng), span(rng))
            .expect("positive half-life"),
        _ => {
            let knee = span(rng);
            let points = vec![
                (SimDuration::ZERO, level),
                (knee, Importance::new_clamped(level.value() / 2.0)),
                (knee + span(rng), Importance::ZERO),
            ];
            PiecewiseCurve::new(points)
                .expect("descending points")
                .into()
        }
    }
}

/// How far the workload and the crash states reached.
#[derive(Debug, Default)]
struct Counts {
    steps: u64,
    compaction_rounds: u64,
    tombstones: u64,
    annotations: u64,
    states: u64,
    cuts: u64,
    garbage_tails: u64,
    empty_new_segments: u64,
    mid_compaction_boundaries: u64,
    post_commit_pre_unlink: u64,
    continue_checks: u64,
}

/// One non-compaction step of the seeded mix.
fn mutate(unit: &mut DurableUnit, rng: &mut StdRng, now: SimTime, counts: &mut Counts) {
    let id = ObjectId::new(rng.gen_range(0..IDS));
    let choice = rng.gen_range(0..10);
    match choice {
        0..=4 => {
            let bytes = ByteSize::from_mib(rng.gen_range(1..=12));
            unit.call(now, ObjectSpec::new(id, bytes, curve(rng)).into());
        }
        5 => {
            unit.remove_object(id, now).expect("journal a remove");
        }
        6..=8 => {
            let mode = if choice == 6 {
                AnnotateMode::Raise
            } else {
                AnnotateMode::Replace
            };
            counts.annotations += u64::from(unit.annotate(id, curve(rng), mode, now).is_ok());
        }
        _ => {
            unit.sweep(now).expect("journal a sweep");
        }
    }
}

/// Writes crash states to one scratch directory and reopens them.
struct Reopener {
    dir: PathBuf,
    counts: Counts,
}

impl Reopener {
    /// Reopens `files`, whose last file ends in `torn` bytes past its
    /// last complete frame, and checks it against `expected`; recovery
    /// must also truncate the torn bytes and delete `victim`.
    fn check(
        &mut self,
        files: &Files,
        torn: usize,
        victim: Option<&str>,
        expected: &Edge,
        now: SimTime,
        at: &str,
    ) {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).expect("clear the crash dir");
        }
        std::fs::create_dir_all(&self.dir).expect("create the crash dir");
        for (name, bytes) in files {
            std::fs::write(self.dir.join(name), bytes).expect("write a segment");
        }
        let mut recovered = open(&self.dir).unwrap_or_else(|e| panic!("{at}: reopen: {e}"));
        assert!(
            fingerprint(&recovered) == expected.fingerprint,
            "{at}: engine state differs from the live unit's"
        );
        let clocks = (recovered.clock(), recovered.last_sweep());
        assert_eq!(clocks, expected.clocks, "{at}: clocks");
        assert_eq!(recovered.recovered_torn_bytes(), torn as u64, "{at}: torn");
        let mut left = files.clone();
        if let Some(mut last) = left.last_entry() {
            let clean = last.get().len() - torn;
            last.get_mut().truncate(clean);
        }
        if let Some(victim) = victim {
            left.remove(victim);
        }
        let on_disk = snapshot(&self.dir);
        assert_eq!(lengths(&on_disk), lengths(&left), "{at}: files left");
        assert!(on_disk == left, "{at}: recovery rewrote a segment");
        self.counts.states += 1;
        if self.counts.states % 7 != 0 {
            return;
        }

        // The recovered log must take one more store and reopen to it.
        let (bytes, curve) = (
            ByteSize::from_mib(1),
            ImportanceCurve::fixed_lifetime(SimDuration::DAY),
        );
        let mut model = expected.engine.clone();
        let want = model.put(CONTINUED, bytes, curve.clone(), now);
        let got = recovered.put(CONTINUED, bytes, curve, now);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}: continued");
        let live = fingerprint(&recovered);
        assert!(live == engine(&model), "{at}: continued engine state");
        let clocks = (recovered.clock(), recovered.last_sweep());
        drop(recovered.close().expect("close the continued log"));
        let reopened = open(&self.dir).unwrap_or_else(|e| panic!("{at}: reopen: {e}"));
        assert!(fingerprint(&reopened) == live, "{at}: continued, reopened");
        assert_eq!((reopened.clock(), reopened.last_sweep()), clocks);
        self.counts.continue_checks += 1;
    }
}

#[test]
fn every_crash_state_of_a_seeded_workload_recovers_the_live_unit() {
    let live = scratch("crash-model-live");
    let mut unit = open(&live).expect("open a fresh log");
    let mut rng = rng::seeded(SEED);
    let mut reopener = Reopener {
        dir: scratch("crash-model-state"),
        counts: Counts::default(),
    };
    let mut boundaries = 0u64;
    let mut now = SimTime::ZERO;
    let (mut before, mut before_files) = (Edge::of(&unit), snapshot(&live));
    for step in 0..STEPS {
        now += SimDuration::from_minutes(rng.gen_range(0..3 * 60));
        let compaction = step % 3 == 2;
        let counts = &mut reopener.counts;
        counts.steps += 1;
        if compaction {
            if let Some(report) = unit.compact().expect("compaction") {
                counts.compaction_rounds += 1;
                counts.tombstones += report.tombstones as u64;
            }
        } else {
            mutate(&mut unit, &mut rng, now, counts);
        }
        let (after, after_files) = (Edge::of(&unit), snapshot(&live));
        if compaction {
            assert!(before.fingerprint == after.fingerprint, "step {step}");
            assert_eq!(before.clocks, after.clocks, "step {step}");
        }

        // `files` holds the first `k` frames the step appended.
        let (frames, victim) = appended(&before_files, &after_files);
        let mut files = before_files.clone();
        for (k, frame) in frames.iter().enumerate() {
            let expected = if k == 0 { &before } else { &after };
            let bytes = &after_files[frame.file][frame.start..frame.end];
            if !files.contains_key(frame.file) {
                let mut rolled = files.clone();
                rolled.insert(frame.file.to_owned(), Vec::new());
                let at = format!("step {step}, new segment before frame {k}");
                reopener.check(&rolled, 0, None, expected, now, &at);
                reopener.counts.empty_new_segments += 1;
            }
            let cut = rng.gen_range(1..bytes.len());
            let mut torn = files.clone();
            torn.entry(frame.file.to_owned())
                .or_default()
                .extend_from_slice(&bytes[..cut]);
            let at = format!("step {step}, frame {k} cut at byte {cut}");
            reopener.check(&torn, cut, None, expected, now, &at);
            reopener.counts.cuts += 1;

            files
                .entry(frame.file.to_owned())
                .or_default()
                .extend_from_slice(bytes);
            let committed = k + 1 == frames.len();
            let deleted = victim.filter(|_| committed);
            let at = format!("step {step}, boundary after frame {k}");
            reopener.check(&files, 0, deleted, &after, now, &at);
            if victim.is_some() && committed {
                reopener.counts.post_commit_pre_unlink += 1;
            } else if compaction {
                reopener.counts.mid_compaction_boundaries += 1;
            }
            boundaries += 1;
            if boundaries % 3 == 0 {
                let garbage: Vec<u8> = (0..rng.gen_range(1..=24)).map(|_| rng.gen()).collect();
                let mut tailed = files.clone();
                let mut last = tailed.last_entry().expect("a segment");
                last.get_mut().extend_from_slice(&garbage);
                let at = format!("step {step}, garbage after frame {k}");
                reopener.check(&tailed, garbage.len(), deleted, &after, now, &at);
                reopener.counts.garbage_tails += 1;
            }
        }
        if victim.is_some() || frames.is_empty() {
            let at = format!("step {step}, after");
            reopener.check(&after_files, 0, None, &after, now, &at);
        }
        (before, before_files) = (after, after_files);
    }

    let counts = &reopener.counts;
    let stats = *unit.unit().stats();
    eprintln!("crash model: {counts:?}\nworkload: {stats:?}");
    assert!(
        stats.rejections_full > 0
            && stats.removals > 0
            && counts.annotations > 0
            && stats.evictions_expired > 0
            && counts.tombstones > 0,
        "the workload missed a mutation kind: {stats:?}, {counts:?}"
    );
    assert!(counts.compaction_rounds >= 20, "{counts:?}");
    assert!(counts.states >= 1_000, "{counts:?}");
    assert!(
        counts.cuts > 0
            && counts.garbage_tails > 0
            && counts.empty_new_segments > 0
            && counts.mid_compaction_boundaries > 0
            && counts.post_commit_pre_unlink > 0
            && counts.continue_checks > 0,
        "a crash shape never came up: {counts:?}"
    );
    drop(unit);
    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&reopener.dir).ok();
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

const CHURN_CAPACITY: ByteSize = ByteSize::from_mib(4_000);

fn tiny_open(dir: &Path) -> DurableUnit {
    // 2 KiB segments: the workload below spreads across dozens of sealed
    // segments, so compaction has real victims to choose from. Automatic
    // compaction is off — the test controls exactly when it runs.
    let config = DurableConfig::default()
        .segment_bytes(2048)
        .auto_compact(false);
    DurableUnit::open(dir, CHURN_CAPACITY, EvictionPolicy::Preemptive, config)
        .expect("open segment log")
}

/// A mixed mutation history with plenty of dead weight: stores with
/// cycling lifetimes, explicit removes, and an expiry sweep.
fn churn(unit: &mut DurableUnit) {
    for id in 0..120u64 {
        unit.put(
            ObjectId::new(id),
            ByteSize::from_kib(64 + id % 7),
            ImportanceCurve::fixed_lifetime(SimDuration::from_days(2 + (id % 5) * 3)),
            SimTime::from_minutes(id),
        )
        .expect("store fits");
    }
    for id in (0..120u64).step_by(3) {
        unit.remove_object(ObjectId::new(id), SimTime::from_hours(3))
            .expect("journal remove");
    }
    unit.sweep(SimTime::from_days(3)).expect("journal sweep");
}

/// The crash model's torn-commit state, pinned on its own: the commit
/// record of a real compaction is torn with the victim still on disk.
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
    let expected_density = unit.density_info(now).expect("density").density;
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
    let mut recovered = tiny_open(&crashed);
    assert_eq!(fingerprint(&recovered), expected, "engine state identical");
    assert_eq!(*recovered.unit().stats(), expected_stats);
    assert_eq!(recovered.unit().used(), expected_used);
    assert_eq!(recovered.unit().len(), expected_residents);
    let density = recovered.density_info(now).expect("density").density;
    assert_eq!(density, expected_density);
    assert_eq!(recovered.clock(), expected_clock);
    assert_eq!(recovered.last_sweep(), expected_sweep);
    drop(recovered);

    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&crashed).ok();
}

/// The crash model's post-commit, pre-unlink state, pinned on its own:
/// recovery must delete the victim a commit record exonerates.
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

mod golden {
    use super::*;
    use std::sync::Arc;

    use bench_harness::golden::{mixed_spec, CHURN_STORES, RESIDENTS, SEED};
    use sim_core::observe::ENABLED;
    use sim_core::{rng, Obs};

    /// The golden observability workload of `tests/golden_trace.rs`,
    /// driven through a journaled unit instead of a bare [`StorageUnit`]:
    /// the traced engine behavior must be byte-identical (the journal is
    /// a pure listener), and the log it leaves behind must survive a torn
    /// tail with the engine state intact. Under `obs-off` the trace is
    /// empty and only the torn-tail half checks anything.
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
            unit.call(SimTime::ZERO, mixed_spec(&mut rand, id).into());
        }

        let sink = Arc::new(obs::TraceSink::new());
        unit.set_observer(Obs::attached(sink.clone()));
        for k in 0..CHURN_STORES {
            let now = SimTime::from_days(30 + k / 8);
            unit.advance(now);
            unit.call(now, mixed_spec(&mut rand, RESIDENTS + k).into());
        }
        let trace = sink.to_jsonl();
        let golden = if ENABLED {
            include_str!("golden/engine_trace.jsonl")
        } else {
            ""
        };
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
