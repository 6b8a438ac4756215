//! Durable log-structured backend for the temporal-importance engine —
//! where storage reclamation *is* segment compaction.
//!
//! The in-memory engine (`temporal-importance`) decides what lives and
//! what dies; this crate makes those decisions survive process death.
//! A [`DurableUnit`] wraps a
//! [`StorageUnit`](temporal_importance::StorageUnit) with a
//! segment log: an append-only directory of fixed-size
//! segment files holding CRC-framed JSON records, one per engine
//! mutation. Replaying the log reconstructs the engine byte-for-byte —
//! residents, lifetime statistics, clock high-water marks — which is
//! what makes crash recovery a *replay*, not a heuristic. Byte-for-byte
//! covers the state, not every float derived from it: the reopened
//! engine rebuilds its density index, whose compensated sum then adds in
//! another order, so a density read after a reopen may differ from the
//! live one in the last place (0.07372154888626839 against
//! 0.0737215488862684).
//!
//! Reclamation of disk space follows the paper's reclamation of
//! logical space: importance annotations decide which *objects* die —
//! the engine preempts, expires and supersedes them — and every death
//! leaves dead bytes in some sealed segment. The compactor needs no
//! second opinion on importance: once dead bytes make up the configured
//! share of the sealed log it folds the sealed segment with the most of
//! them, rewriting its few survivors forward, which keeps write
//! amplification within one over that share at any segment size.
//!
//! The protocol surface is unchanged: [`DurableUnit`] implements the
//! same [`StoreApi`](temporal_importance::protocol::StoreApi) as the
//! in-memory unit and the sharded server, so every layer above it —
//! including `tempimpd` via its `durable(dir)` builder option — is
//! oblivious to the journal underneath.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod error;
mod frame;
mod record;
mod segment;
mod unit;

pub use error::DurableError;
pub use segment::{CompactionReport, DiskInfo};
pub use unit::{DurableConfig, DurableUnit};

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use std::io::ErrorKind;

    use sim_core::{ByteSize, SimDuration, SimTime};
    use temporal_importance::protocol::{AnnotateMode, Request, Response, StoreApi};
    use temporal_importance::{
        Error, EvictionPolicy, Importance, ImportanceCurve, ObjectClass, ObjectId, ObjectSpec,
        StorageUnit,
    };

    use crate::{DurableConfig, DurableError, DurableUnit};

    /// A fresh scratch directory under the workspace `target/` (tests
    /// must not touch anything outside the repository).
    pub(crate) fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/durable-test-scratch"
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

    fn spec(id: u64, kib: u64, lifetime_minutes: u64) -> ObjectSpec {
        ObjectSpec::new(
            ObjectId::new(id),
            ByteSize::from_kib(kib),
            ImportanceCurve::fixed_lifetime(SimDuration::from_minutes(lifetime_minutes)),
        )
        .with_class(ObjectClass::new((id % 5) as u16))
    }

    /// Serialized engine state is the equality oracle: it covers the
    /// resident arena (sorted by id), occupancy, policy, and lifetime
    /// statistics in one comparison.
    fn fingerprint(unit: &StorageUnit) -> String {
        serde_json::to_string(unit).expect("engine state serializes")
    }

    fn tiny_config() -> DurableConfig {
        // Small segments so a short workload spans many files.
        DurableConfig::default()
            .segment_bytes(2048)
            .auto_compact(false)
    }

    /// Compaction folds segments away without changing recovered state,
    /// and reports reclaimed bytes.
    #[test]
    fn compaction_reclaims_disk_and_preserves_state() {
        let dir = scratch("compaction");
        let capacity = ByteSize::from_kib(64);
        let mut durable =
            DurableUnit::open(&dir, capacity, EvictionPolicy::Preemptive, tiny_config())
                .expect("open fresh");
        for step in 0..400u64 {
            let now = SimTime::from_minutes(step * 5);
            // Re-storing a small id range makes most records dead.
            durable.call(now, spec(step % 12, 2, 45).into());
            if step % 9 == 8 {
                durable.sweep(now).expect("sweep journals");
            }
        }
        let before = durable.disk_info();
        assert!(before.segments > 3, "expected several segments: {before:?}");

        let mut reclaimed = 0u64;
        while let Some(report) = durable.compact().expect("compaction") {
            reclaimed += report.reclaimed_bytes;
        }
        let after = durable.disk_info();
        assert!(reclaimed > 0, "compaction reclaimed nothing");
        assert_eq!(after.reclaimed_bytes, before.reclaimed_bytes + reclaimed);
        assert!(
            after.file_bytes < before.file_bytes,
            "disk should shrink: {before:?} -> {after:?}"
        );
        assert!(after.compactions > before.compactions);
        assert!(durable.disk_info().write_amplification() >= 1.0);

        let expected = fingerprint(&durable.close().expect("clean close"));
        let reopened = DurableUnit::open(&dir, capacity, EvictionPolicy::Preemptive, tiny_config())
            .expect("reopen after compaction");
        assert_eq!(fingerprint(reopened.unit()), expected);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A reopened unit resumes at the journaled clock: a put dated behind
    /// it arrives at that clock, as it would have on the unit that wrote
    /// the log.
    #[test]
    fn a_reopened_unit_resumes_at_the_journaled_clock() {
        let dir = scratch("resume");
        let capacity = ByteSize::from_kib(64);
        let day = SimTime::from_days(3);
        let open = || DurableUnit::open(&dir, capacity, EvictionPolicy::Preemptive, tiny_config());
        let mut durable = open().expect("open fresh");
        durable.call(day, spec(1, 2, 10_000).into());
        durable.close().expect("clean close");

        let mut reopened = open().expect("reopen");
        assert_eq!(reopened.clock(), day);
        let stored = reopened.call(SimTime::ZERO, spec(2, 2, 10_000).into());
        assert!(matches!(stored, Response::Put(Ok(_))), "{stored:?}");
        let info = reopened
            .get_info(ObjectId::new(2), SimTime::ZERO)
            .expect("a read answers")
            .expect("stored");
        assert_eq!(info.arrival, day);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// One step of a workload that leaves stale full-state copies
    /// behind kills (re-stored ids, rejuvenations, removals, sweeps) —
    /// the shape that makes compaction write tombstones — and compacts
    /// by hand now and then. Returns the tombstones written.
    fn churn_step(durable: &mut DurableUnit, step: u64) -> usize {
        let now = SimTime::from_minutes(step * 3);
        let id = ObjectId::new(step % 40);
        match step % 7 {
            0 | 1 | 2 | 4 => {
                let spec = spec(step % 40, 1 + step % 7, 30 + (step % 11) * 15);
                durable.call(now, spec.into());
            }
            3 => {
                durable.sweep(now).expect("sweep journals");
            }
            5 => {
                durable.remove_object(id, now).expect("remove journals");
            }
            _ => {
                let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_minutes(240));
                let _ = durable.annotate(id, curve, AnnotateMode::Raise, now);
            }
        }
        let mut tombstones = 0;
        if step % 40 == 39 {
            for _ in 0..2 {
                if let Some(report) = durable.compact().expect("compaction") {
                    tombstones += report.tombstones;
                }
            }
        }
        tombstones
    }

    /// The segment files of `dir`, oldest first.
    fn segment_files(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("log dir")
            .map(|entry| entry.expect("entry").path())
            .filter(|path| path.extension().is_some_and(|x| x == "log"))
            .collect();
        files.sort();
        files
    }

    /// Name and bytes of every segment file of `dir`, oldest first.
    fn segment_contents(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        segment_files(dir)
            .into_iter()
            .map(|path| {
                let name = path.file_name().expect("segment file name").to_owned();
                (name, std::fs::read(path).expect("segment bytes"))
            })
            .collect()
    }

    /// The per-segment ledger is built by the one `apply` path, so a
    /// ledger rebuilt by replay must drive the same compactions — the
    /// same survivors and tombstones, byte for byte — as the one built
    /// by the live appends of a process that never restarted.
    #[test]
    fn a_replayed_ledger_compacts_in_lockstep_with_a_live_one() {
        let live_dir = scratch("lockstep-live");
        let copy_dir = scratch("lockstep-copy");
        let capacity = ByteSize::from_kib(64);
        let mut live = DurableUnit::open(
            &live_dir,
            capacity,
            EvictionPolicy::Preemptive,
            tiny_config(),
        )
        .expect("open fresh");
        let mut tombstones = 0;
        for step in 0..600 {
            tombstones += churn_step(&mut live, step);
        }
        assert!(
            live.disk_info().compactions >= 4 && tombstones > 0,
            "the first phase should compact and tombstone: {:?}, {tombstones} tombstones",
            live.disk_info()
        );

        std::fs::create_dir_all(&copy_dir).expect("copy dir");
        for (name, bytes) in segment_contents(&live_dir) {
            std::fs::write(copy_dir.join(name), bytes).expect("copy segment");
        }
        let mut replayed = DurableUnit::open(
            &copy_dir,
            capacity,
            EvictionPolicy::Preemptive,
            tiny_config(),
        )
        .expect("reopen the copy");
        assert_eq!(fingerprint(replayed.unit()), fingerprint(live.unit()));

        let before = live.disk_info().compactions;
        let mut tombstones = (0, 0);
        for step in 600..1200 {
            tombstones.0 += churn_step(&mut live, step);
            tombstones.1 += churn_step(&mut replayed, step);
        }
        assert!(
            live.disk_info().compactions >= before + 4 && tombstones.0 > 0,
            "the second phase should compact and tombstone: {:?}, {tombstones:?} tombstones",
            live.disk_info()
        );
        assert_eq!(tombstones.0, tombstones.1);
        assert_eq!(segment_contents(&live_dir), segment_contents(&copy_dir));
        std::fs::remove_dir_all(&live_dir).expect("cleanup");
        std::fs::remove_dir_all(&copy_dir).expect("cleanup");
    }

    /// A unit with several compactable sealed segments, every one of
    /// them damaged by `damage` behind the open log's back; compaction
    /// must refuse with a `Corrupt` naming `expected` and delete
    /// nothing.
    fn compaction_refuses(tag: &str, damage: impl Fn(&mut Vec<u8>), expected: &str) {
        let dir = scratch(tag);
        let mut durable = DurableUnit::open(
            &dir,
            ByteSize::from_kib(64),
            EvictionPolicy::Preemptive,
            tiny_config(),
        )
        .expect("open fresh");
        for step in 0..400u64 {
            durable.call(
                SimTime::from_minutes(step * 5),
                spec(step % 12, 2, 45).into(),
            );
        }
        let files = segment_files(&dir);
        assert!(files.len() > 3, "expected several segments: {files:?}");
        let (_active, sealed) = files.split_last().expect("segments exist");
        for path in sealed {
            let mut bytes = std::fs::read(path).expect("segment bytes");
            damage(&mut bytes);
            std::fs::write(path, bytes).expect("inject damage");
        }

        let error = durable
            .compact()
            .expect_err("a damaged victim must not be folded");
        let DurableError::Corrupt { segment, detail } = &error else {
            panic!("expected Corrupt, got {error:?}");
        };
        assert!(detail.contains(expected), "unexpected detail: {detail}");
        assert!(sealed.contains(segment), "{segment:?} is not a sealed file");
        assert_eq!(segment_files(&dir), files, "no file may be deleted");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A sealed segment that still frames cleanly but lost its last
    /// record no longer holds what the ledger says was appended.
    #[test]
    fn compaction_refuses_a_victim_that_lost_a_record() {
        compaction_refuses(
            "lost-record",
            |bytes| {
                let mut offset = 0;
                let mut last = 0;
                while offset < bytes.len() {
                    last = offset;
                    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
                    offset += 8 + len as usize;
                }
                bytes.truncate(last);
            },
            "records under compaction",
        );
    }

    /// A flipped byte fails the victim's end-to-end checksum scan.
    #[test]
    fn compaction_refuses_a_victim_with_a_flipped_byte() {
        compaction_refuses(
            "flipped-byte",
            |bytes| {
                let middle = bytes.len() / 2;
                bytes[middle] ^= 0x40;
            },
            "torn under compaction",
        );
    }

    /// An annotation supersedes the object's previous full-state record
    /// — dead bytes — so a workload of nothing but annotations has to
    /// trigger compaction itself; no store will come to do it.
    #[test]
    fn annotations_alone_keep_the_log_bounded() {
        let dir = scratch("annotate-only");
        let config = DurableConfig::default().segment_bytes(2048);
        let mut durable = DurableUnit::open(
            &dir,
            ByteSize::from_kib(64),
            EvictionPolicy::Preemptive,
            config,
        )
        .expect("open fresh");
        let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_days(365));
        durable
            .put(
                ObjectId::new(1),
                ByteSize::from_kib(2),
                curve.clone(),
                SimTime::ZERO,
            )
            .expect("fits");
        for step in 1..=3000 {
            let at = SimTime::from_minutes(step);
            durable
                .annotate(ObjectId::new(1), curve.clone(), AnnotateMode::Raise, at)
                .expect("the object is resident");
        }
        let disk = durable.disk_info();
        assert!(
            disk.compactions > 0 && disk.segments <= 4,
            "3000 annotations of one object should fold as they go: {disk:?}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A `Reject` record is dead from birth, so a saturated unit — full
    /// for everything that arrives, the paper's end state — that does
    /// nothing but refuse has to trigger compaction itself too.
    #[test]
    fn rejections_alone_keep_the_log_bounded() {
        let dir = scratch("reject-only");
        let config = DurableConfig::default().segment_bytes(2048);
        let mut durable = DurableUnit::open(
            &dir,
            ByteSize::from_kib(64),
            EvictionPolicy::Preemptive,
            config,
        )
        .expect("open fresh");
        let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_days(365));
        let mut put = |id: u64, at: SimTime| {
            let bytes = ByteSize::from_kib(2);
            durable.put(ObjectId::new(id), bytes, curve.clone(), at)
        };
        for id in 0..32 {
            put(id, SimTime::ZERO).expect("fits");
        }
        for step in 1..=3000 {
            put(100 + step, SimTime::from_minutes(step))
                .expect_err("every resident is at full importance");
        }
        assert_eq!(durable.stats().rejections_full, 3000);
        let disk = durable.disk_info();
        assert!(
            disk.compactions > 0 && disk.segments <= 9,
            "3000 refusals should fold as they go: {disk:?}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A journal write that fails leaves the engine ahead of the log, so
    /// the unit refuses everything after it. The failure is a real one:
    /// with the log directory gone, appends still reach the open active
    /// segment, but the next roll cannot create its successor.
    #[test]
    fn a_failed_journal_write_poisons_the_unit() {
        let dir = scratch("poison");
        let mut durable = DurableUnit::open(
            &dir,
            ByteSize::from_mib(64),
            EvictionPolicy::Preemptive,
            tiny_config(),
        )
        .expect("open fresh");
        let mut stored = 0;
        let mut store = |durable: &mut DurableUnit| {
            stored += 1;
            match durable.call(SimTime::ZERO, spec(stored, 1, 45).into()) {
                Response::Put(result) => result,
                other => panic!("Put answered {other:?}"),
            }
        };
        while durable.disk_info().segments < 2 {
            store(&mut durable).expect("fits");
        }
        std::fs::remove_dir_all(&dir).expect("pull the log directory away");
        let failure = (0..1_000)
            .find_map(|_| store(&mut durable).err())
            .expect("a roll within 1,000 stores fails");
        let cause = |error: &Error| match error {
            Error::External(error) => match error.downcast_ref::<DurableError>() {
                Some(DurableError::Poisoned(cause)) => match cause.as_ref() {
                    DurableError::Io { source, .. } => Some(source.kind()),
                    _ => None,
                },
                _ => None,
            },
            _ => None,
        };
        assert_eq!(cause(&failure), Some(ErrorKind::NotFound), "{failure}");

        // A day on, every object has expired: a sweep that reached the
        // engine would change it.
        let (now, id) = (SimTime::from_days(1), ObjectId::new(1));
        let (engine, stats) = (fingerprint(durable.unit()), *durable.stats());
        let curve = ImportanceCurve::fixed_lifetime(SimDuration::DAY);
        let refused = [
            durable.call(now, spec(0, 1, 45).into()),
            durable.call(now, Request::Get { id }),
            durable.call(now, Request::Stats),
            durable.call(now, Request::Sweep),
            durable.call(now, Request::Remove { id }),
            durable.call(
                now,
                Request::Annotate {
                    id,
                    curve,
                    mode: AnnotateMode::Replace,
                },
            ),
        ];
        for response in refused {
            let error = match response {
                Response::Put(Err(error))
                | Response::Get(Err(error))
                | Response::Stats(Err(error))
                | Response::Sweep(Err(error))
                | Response::Remove(Err(error))
                | Response::Annotate(Err(error)) => error,
                other => panic!("a poisoned unit answered {other:?}"),
            };
            assert_eq!(cause(&error), Some(ErrorKind::NotFound), "{error}");
        }
        assert_eq!(*durable.stats(), stats);
        assert!(
            fingerprint(durable.unit()) == engine,
            "a refused call reached the engine"
        );
        assert!(matches!(durable.close(), Err(DurableError::Poisoned(_))));
    }

    /// Runs a seeded preemption-heavy churn — about 2,000 residents of
    /// 1–3 MiB under two-step curves of ten importance levels and
    /// 1–30-day plateaus, 40,000 stores ten minutes apart — on
    /// `segment_bytes` segments with auto-compaction at `trigger`,
    /// checks the reopened log against the live unit, and returns the
    /// write amplification.
    fn churn_write_amplification(segment_bytes: u64, trigger: f64) -> f64 {
        let dir = scratch("wa-bound");
        let capacity = ByteSize::from_mib(4_000);
        let config = DurableConfig::default()
            .segment_bytes(segment_bytes)
            .compact_trigger(trigger);
        let mut durable = DurableUnit::open(&dir, capacity, EvictionPolicy::Preemptive, config)
            .expect("open fresh");
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        for step in 0..40_000u64 {
            let level = Importance::new_clamped(0.05 + 0.1 * draw(10) as f64);
            let plateau = SimDuration::from_days(1 + draw(30));
            let spec = ObjectSpec::new(
                ObjectId::new(step),
                ByteSize::from_kib(1024 + draw(2048)),
                ImportanceCurve::two_step(level, plateau, plateau),
            );
            durable.call(SimTime::from_minutes(step * 10), spec.into());
        }
        let disk = durable.disk_info();
        assert!(
            disk.compactions > 0,
            "the churn must compact at {segment_bytes}-byte segments: {disk:?}"
        );
        let expected = fingerprint(&durable.close().expect("clean close"));
        let reopened =
            DurableUnit::open(&dir, capacity, EvictionPolicy::Preemptive, config).expect("reopen");
        assert_eq!(fingerprint(reopened.unit()), expected);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        disk.write_amplification()
    }

    /// The most-dead sealed segment is at least as dead as the sealed
    /// average that fired the trigger, so a compaction rewrites at most
    /// `1 - trigger` of what it folds: write amplification stays within
    /// `1 / trigger` (plus the commit records) whatever the segment
    /// size — there is no geometry at which the log thrashes.
    #[test]
    fn write_amplification_is_bounded_by_the_trigger_at_every_geometry() {
        let trigger = 0.5;
        for kib in [16, 64, 128, 256] {
            let amplification = churn_write_amplification(kib * 1024, trigger);
            assert!(
                amplification <= 1.02 / trigger,
                "{kib} KiB segments: write amplification {amplification:.3} exceeds 1/{trigger}"
            );
        }
    }
}
