//! The append-only segment store.
//!
//! A [`SegmentLog`] is a directory of fixed-size-ish segment files named
//! `seg-{seq:08}.log`, each a run of CRC-framed JSON records (see
//! [`frame`](crate::frame) and [`record`](crate::record)). Exactly one
//! segment — the highest sequence number — is *active* and accepts
//! appends; the rest are *sealed* and immutable. Reclamation of disk
//! space is **compaction**: a sealed victim's live objects are rewritten
//! into the active segment as `Survivor` records, its kills are
//! re-asserted as `Dead` tombstones where stale state elsewhere could
//! resurrect them, a `Compacted` commit record folds its statistics and
//! clock high-water marks into the log, and the file is deleted.
//!
//! # In-memory bookkeeping
//!
//! * `index`: id → location of that id's newest full-state record, as
//!   the segment's sequence number and the record's framed length (two
//!   `u32`s, 16 bytes an entry). The key set is exactly the
//!   live-resident set; replay is latest-wins.
//! * per-segment metadata: file bytes and live bytes (their difference,
//!   the dead bytes, is all that picks a compaction victim), the
//!   statistics contribution of its records, and clock high-water
//!   marks (folded forward by `Compacted` when the segment dies).
//! * the per-segment **ledger**: the record count, the id of every
//!   full-state record and every id a record kills (8 bytes each while
//!   the segment lives, trimmed to fit when the segment seals).
//!   Compaction learns what its victim held from the ledger instead of
//!   parsing the file again; it still streams the file through the
//!   frame walker and checks every CRC, and refuses to fold a victim
//!   whose frames are torn or are not as many as were appended.
//!
//! Compaction needs nothing else. Its survivors are the ids of the
//! victim's `asserted` ledger whose index entry points at the victim.
//! Its tombstones follow one rule: dropping a killing record needs a
//! tombstone **iff** the killed id is dead and some (possibly stale)
//! full-state record of it survives in another segment — otherwise
//! replay's last word on the id would be a resurrection. The other
//! segments' `asserted` ledgers list every such record, so one pass
//! over them, striking each id it meets from a set of the victim's dead
//! kills, leaves exactly the kills that need none.
//!
//! All of it is maintained by one function, `SegmentLog::apply`, which
//! live appends and recovery replay share — a rebuilt log therefore
//! compacts exactly as the log that never restarted would.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use sim_core::fx::FxHashMap;
use sim_core::{Obs, SimTime};
use temporal_importance::{ObjectId, StoredObject, UnitStats};

use crate::frame;
use crate::record::LogRecord;
use crate::DurableError;

/// Location of a record: owning segment and framed length. Offsets are
/// not needed — replay order within a segment is file order, and a
/// record is rewritten (never patched) when its object changes. Both
/// fit a `u32`: `roll` refuses a sequence number past `u32::MAX`, and
/// `append` a record whose frame would not fit its header.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seq: u32,
    len: u32,
}

/// Per-segment bookkeeping.
#[derive(Debug, Default)]
struct SegmentMeta {
    /// Framed bytes written to the file.
    bytes: u64,
    /// Records (frames) written to the file. Compaction checks its
    /// end-to-end frame walk of the file against this.
    records: u64,
    /// Ledger: the id of every full-state record in the file, one entry
    /// per record, in file order.
    asserted: Vec<ObjectId>,
    /// Ledger: every id some record in the file kills, in file order.
    killed: Vec<ObjectId>,
    /// Framed bytes of records that are still some live id's newest
    /// full-state record.
    live_bytes: u64,
    /// Statistics contribution of this segment's records (including
    /// contributions folded forward from segments it saw compacted).
    stats: UnitStats,
    /// Engine-clock high-water mark across this segment's records.
    max_at: SimTime,
    /// Sweep-clock high-water mark across this segment's records.
    max_sweep: SimTime,
}

impl SegmentMeta {
    /// The `Compacted` record that folds this segment, numbered `seq`,
    /// into the log.
    fn commit_record(&self, seq: u32) -> LogRecord {
        LogRecord::Compacted {
            seq: u64::from(seq),
            bytes: self.bytes,
            stats: self.stats,
            at: self.max_at,
            sweep: self.max_sweep,
        }
    }

    /// Trims the ledgers to fit: a sealed segment's ledgers never grow
    /// again.
    fn seal(&mut self) {
        self.asserted.shrink_to_fit();
        self.killed.shrink_to_fit();
    }
}

/// Everything recovery reconstructs from the segment files.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// The live residents, newest state, unordered.
    pub objects: Vec<StoredObject>,
    /// Lifetime statistics, identical to what the in-memory engine
    /// would report after the same request sequence.
    pub stats: UnitStats,
    /// Bytes of torn tail truncated from the final segment, if any.
    pub torn_bytes: u64,
}

/// Outcome of one compaction, for observability and tests.
#[derive(Debug, Clone, Copy)]
pub struct CompactionReport {
    /// Sequence number of the segment that was folded and deleted.
    pub victim: u64,
    /// File bytes reclaimed (the victim's size on disk).
    pub reclaimed_bytes: u64,
    /// Live objects rewritten into the active segment.
    pub survivors: usize,
    /// Framed bytes those survivors occupy at their new location.
    pub survivor_bytes: u64,
    /// Dead ids re-asserted by a tombstone record.
    pub tombstones: usize,
}

/// Disk-occupancy snapshot of the segment log. The engine's notion of
/// occupancy (`used`, importance density) tracks *logical* object bytes;
/// this tracks the *physical* log, where superseded and dead records
/// linger until compaction folds them away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DiskInfo {
    /// Segment files on disk, including the active one.
    pub segments: usize,
    /// Total framed bytes across all segment files.
    pub file_bytes: u64,
    /// Framed bytes of current full-state records of live objects.
    pub live_bytes: u64,
    /// Framed bytes appended over this process's lifetime (stores,
    /// sweeps, annotations, survivor rewrites, tombstones, commit
    /// records). Resets on open, like the other lifetime counters here.
    pub appended_bytes: u64,
    /// The subset of `appended_bytes` written by compaction (survivor
    /// rewrites, tombstones, commit records) — the amplification.
    pub rewrite_bytes: u64,
    /// File bytes reclaimed by compaction over this process's lifetime.
    pub reclaimed_bytes: u64,
    /// Compactions committed over this process's lifetime.
    pub compactions: u64,
}

impl DiskInfo {
    /// Framed bytes occupied by superseded or dead records — what
    /// compaction can reclaim.
    pub fn dead_bytes(&self) -> u64 {
        self.file_bytes.saturating_sub(self.live_bytes)
    }

    /// Bytes written per byte of first-write record — the classic
    /// log-structured write-amplification figure, where everything
    /// above `1.0` is compaction rewriting survivors forward. `1.0`
    /// when nothing was appended.
    pub fn write_amplification(&self) -> f64 {
        let first_writes = self.appended_bytes.saturating_sub(self.rewrite_bytes);
        if first_writes == 0 {
            1.0
        } else {
            self.appended_bytes as f64 / first_writes as f64
        }
    }
}

/// The append-only segment store. See the module docs for the design.
#[derive(Debug)]
pub(crate) struct SegmentLog {
    dir: PathBuf,
    segment_bytes: u64,
    obs: Obs,
    active_seq: u32,
    active: BufWriter<File>,
    segments: BTreeMap<u32, SegmentMeta>,
    index: FxHashMap<ObjectId, Loc>,
    appended_bytes: u64,
    rewrite_bytes: u64,
    reclaimed_bytes: u64,
    compactions: u64,
    /// Reused frame/serialize scratch buffer.
    buf: Vec<u8>,
}

impl SegmentLog {
    /// Opens (or creates) the log at `dir`, replaying every surviving
    /// segment into fresh bookkeeping and returning the recovered
    /// engine state alongside the log.
    ///
    /// Recovery is two passes. Pass one scans every `seg-*.log` file,
    /// truncates a torn tail on the **final** segment (an unacknowledged
    /// crash artifact), rejects tears anywhere else as corruption, and
    /// collects the set of segments some surviving `Compacted` record
    /// has folded — their files are stale leftovers of a crash between
    /// commit and delete, and are removed. Pass two replays the
    /// remaining records in sequence order through the same
    /// [`apply`](SegmentLog::apply) path live appends use, so recovered
    /// bookkeeping is in lockstep with a process that never crashed.
    pub fn open(
        dir: &Path,
        segment_bytes: u64,
        obs: Obs,
    ) -> Result<(SegmentLog, Recovered), DurableError> {
        fs::create_dir_all(dir).map_err(|e| DurableError::io(dir, e))?;

        // Enumerate segment files by sequence number.
        let mut files: Vec<(u32, PathBuf)> = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| DurableError::io(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| DurableError::io(dir, e))?;
            let path = entry.path();
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            let seq = u32::try_from(seq).map_err(|_| DurableError::Corrupt {
                segment: path.clone(),
                detail: format!("sequence number {seq} is past {}", u32::MAX),
            })?;
            files.push((seq, path));
        }
        files.sort_unstable_by_key(|(seq, _)| *seq);

        // Pass one: walk every file's frames, handle torn tails, parse
        // records, and collect the compacted (dropped) segment set.
        type ParsedSegment = (u32, PathBuf, Vec<(LogRecord, u32)>, bool);
        let last_seq = files.last().map(|(seq, _)| *seq);
        let mut parsed: Vec<ParsedSegment> = Vec::new();
        let mut dropped: Vec<u64> = Vec::new();
        let mut torn_bytes = 0u64;
        for (seq, path) in files {
            let mut frames = walk(&path)?;
            let mut records = Vec::new();
            while let Some((payload, len)) = frames
                .next_frame()
                .map_err(|e| DurableError::io(&path, e))?
            {
                let record = parse_record(payload, &path)?;
                if let LogRecord::Compacted { seq: victim, .. } = record {
                    dropped.push(victim);
                }
                records.push((record, len));
            }
            let torn = frames.torn();
            if torn && Some(seq) == last_seq {
                // Crash artifact: the writer died mid-append. The
                // record was never acknowledged; truncate it away.
                let clean_len = frames.clean_len();
                torn_bytes += frames.len() - clean_len;
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| DurableError::io(&path, e))?;
                file.set_len(clean_len)
                    .map_err(|e| DurableError::io(&path, e))?;
                file.sync_all().map_err(|e| DurableError::io(&path, e))?;
            }
            parsed.push((seq, path, records, torn));
        }
        // A tear in a sealed segment is real damage — unless some later
        // `Compacted` record folded that segment, in which case its file
        // is garbage awaiting deletion anyway. The check runs only now,
        // after every file is parsed, because the exonerating commit
        // record lives in a *later* segment than the torn one.
        for (seq, path, _, torn) in &parsed {
            if *torn && Some(*seq) != last_seq && !dropped.contains(&u64::from(*seq)) {
                return Err(DurableError::Corrupt {
                    segment: path.clone(),
                    detail: "sealed segment torn".to_owned(),
                });
            }
        }

        // Delete folded segments' stale files.
        for (seq, path, _, _) in &parsed {
            if dropped.contains(&u64::from(*seq)) {
                fs::remove_file(path).map_err(|e| DurableError::io(path, e))?;
            }
        }
        parsed.retain(|(seq, _, _, _)| !dropped.contains(&u64::from(*seq)));

        // The active segment is the highest survivor; `Compacted`
        // records always land in a segment newer than their victim, so
        // the highest sequence number is never dropped.
        let active_seq = parsed.last().map_or(0, |(seq, _, _, _)| *seq);
        let active_path = segment_path(dir, active_seq);
        let active = BufWriter::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&active_path)
                .map_err(|e| DurableError::io(&active_path, e))?,
        );

        let mut log = SegmentLog {
            dir: dir.to_path_buf(),
            segment_bytes,
            obs,
            active_seq,
            active,
            segments: BTreeMap::new(),
            index: FxHashMap::default(),
            appended_bytes: 0,
            rewrite_bytes: 0,
            reclaimed_bytes: 0,
            compactions: 0,
            buf: Vec::new(),
        };
        log.segments.insert(active_seq, SegmentMeta::default());

        // Pass two: replay in sequence order through the shared apply
        // path, tracking each id's newest asserted state as we go.
        let mut states: FxHashMap<ObjectId, StoredObject> = FxHashMap::default();
        for (seq, _path, records, _) in parsed {
            log.segments.entry(seq).or_default();
            for (record, len) in records {
                if let Some(object) = record.asserted() {
                    states.insert(object.id(), object.clone());
                }
                log.apply(&record, Loc { seq, len });
            }
        }
        for (&seq, meta) in &mut log.segments {
            if seq != active_seq {
                meta.seal();
            }
        }

        let mut objects = Vec::with_capacity(log.index.len());
        for id in log.index.keys() {
            let object = states.get(id).ok_or_else(|| DurableError::Corrupt {
                segment: active_path.clone(),
                detail: format!("live {id} has no surviving full-state record"),
            })?;
            objects.push(object.clone());
        }

        let mut stats = UnitStats::default();
        for meta in log.segments.values() {
            stats += &meta.stats;
        }

        if torn_bytes > 0 {
            log.obs.counter("durable.torn_tail_bytes", torn_bytes);
        }
        log.obs.gauge("durable.segments", log.segments.len() as u64);

        Ok((
            log,
            Recovered {
                objects,
                stats,
                torn_bytes,
            },
        ))
    }

    /// Serializes and appends one record to the active segment, rolling
    /// to a fresh segment first when the active one is at or past the
    /// size target. Data reaches the OS on [`flush`](SegmentLog::flush);
    /// callers batch appends per engine operation.
    pub fn append(&mut self, record: &LogRecord) -> Result<(), DurableError> {
        let at_target = self
            .segments
            .get(&self.active_seq)
            .is_some_and(|meta| meta.bytes >= self.segment_bytes);
        if at_target {
            self.roll()?;
        }
        self.buf.clear();
        self.buf.extend_from_slice(&[0; frame::HEADER]);
        if let Err(e) = record.write_json(&mut self.buf) {
            return Err(DurableError::Corrupt {
                segment: self.active_path(),
                detail: format!("record failed to serialize: {e}"),
            });
        }
        let Some(len) = frame::seal(&mut self.buf) else {
            return Err(DurableError::Corrupt {
                segment: self.active_path(),
                detail: format!(
                    "a record of {} bytes does not fit a frame",
                    self.buf.len() - frame::HEADER
                ),
            });
        };
        if let Err(e) = self.active.write_all(&self.buf) {
            return Err(DurableError::io(&self.active_path(), e));
        }
        self.appended_bytes += u64::from(len);
        self.obs.counter("durable.appended_bytes", u64::from(len));
        self.apply(
            record,
            Loc {
                seq: self.active_seq,
                len,
            },
        );
        Ok(())
    }

    /// Flushes buffered appends to the OS. Called after every engine
    /// mutation: a process crash then loses nothing, and even an OS
    /// crash loses only a suffix, which torn-tail recovery truncates to
    /// the newest consistent prefix.
    pub fn flush(&mut self) -> Result<(), DurableError> {
        self.active
            .flush()
            .map_err(|e| DurableError::io(&self.active_path(), e))
    }

    /// Flushes and forces the active segment to stable storage. Called
    /// at the points prefix-consistency alone cannot cover: sealing a
    /// segment, committing a compaction (the victim's file is deleted
    /// right after, so the `Compacted` record must not be lost), and
    /// closing the log.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.flush()?;
        self.active
            .get_ref()
            .sync_all()
            .map_err(|e| DurableError::io(&self.active_path(), e))
    }

    /// Seals the active segment and opens the next one.
    fn roll(&mut self) -> Result<(), DurableError> {
        let next = self
            .active_seq
            .checked_add(1)
            .ok_or_else(|| DurableError::Corrupt {
                segment: self.active_path(),
                detail: format!("no segment sequence number follows {}", u32::MAX),
            })?;
        self.sync()?;
        if let Some(sealed) = self.segments.get_mut(&self.active_seq) {
            sealed.seal();
        }
        let path = segment_path(&self.dir, next);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| DurableError::io(&path, e))?;
        self.active = BufWriter::new(file);
        self.active_seq = next;
        self.segments.insert(next, SegmentMeta::default());
        self.obs.counter("durable.segment_rolls", 1);
        self.obs
            .gauge("durable.segments", self.segments.len() as u64);
        Ok(())
    }

    /// Folds one record into the bookkeeping. Shared verbatim between
    /// live appends and recovery replay, which is the property that
    /// keeps recovered state in lockstep with never-crashed state.
    fn apply(&mut self, record: &LogRecord, loc: Loc) {
        {
            let meta = self
                .segments
                .get_mut(&loc.seq)
                .expect("apply targets a tracked segment");
            meta.bytes += u64::from(loc.len);
            meta.records += 1;
            if let Some(object) = record.asserted() {
                meta.asserted.push(object.id());
            }
            record.killed(&mut meta.killed);
            meta.stats += &record.stats_delta();
            if let Some(at) = record.at() {
                meta.max_at = meta.max_at.max(at);
            }
            if let Some(sweep) = record.sweep_at() {
                meta.max_sweep = meta.max_sweep.max(sweep);
            }
        }
        match record {
            LogRecord::Store {
                object, evicted, ..
            } => {
                for victim in evicted {
                    self.kill(victim.id);
                }
                self.assert_state(object.id(), loc);
            }
            LogRecord::Annotate { object, .. } | LogRecord::Survivor { object } => {
                self.assert_state(object.id(), loc);
            }
            LogRecord::Remove { id, .. } => self.kill(*id),
            LogRecord::Sweep { expired, .. } => {
                for victim in expired {
                    self.kill(victim.id);
                }
            }
            LogRecord::Dead { ids } => {
                for id in ids {
                    self.kill(*id);
                }
            }
            LogRecord::Compacted { bytes, .. } => {
                self.reclaimed_bytes += bytes;
            }
            LogRecord::Reject { .. } => {}
        }
    }

    /// A new full-state record for `id` landed at `loc`: it supersedes
    /// any previous newest record and revives the id if it was dead.
    fn assert_state(&mut self, id: ObjectId, loc: Loc) {
        if let Some(old) = self.index.insert(id, loc) {
            if let Some(meta) = self.segments.get_mut(&old.seq) {
                meta.live_bytes = meta.live_bytes.saturating_sub(u64::from(old.len));
            }
        }
        if let Some(meta) = self.segments.get_mut(&loc.seq) {
            meta.live_bytes += u64::from(loc.len);
        }
    }

    /// `id` left the resident set: its newest full-state record becomes
    /// dead weight in whatever segment holds it.
    fn kill(&mut self, id: ObjectId) {
        if let Some(old) = self.index.remove(&id) {
            if let Some(meta) = self.segments.get_mut(&old.seq) {
                meta.live_bytes = meta.live_bytes.saturating_sub(u64::from(old.len));
            }
        }
    }

    /// The sealed segment to compact next, if compaction is due: the one
    /// with the most dead bytes (ties to the lower sequence number),
    /// once dead bytes make up at least `trigger` of all sealed bytes.
    /// The annotations decide which *objects* die; which *segment* to
    /// fold follows from the byte counts they leave behind. The
    /// most-dead segment is at least as dead as the sealed average that
    /// reached `trigger`, so a compaction rewrites at most `1 - trigger`
    /// of a segment's worth and write amplification stays within
    /// `1 / trigger` at any segment size.
    pub fn victim(&self, trigger: f64) -> Option<u32> {
        let mut total = 0u64;
        let mut dead_total = 0u64;
        let mut most: Option<(u32, u64)> = None;
        for (&seq, meta) in &self.segments {
            if seq == self.active_seq {
                continue;
            }
            let dead = meta.bytes.saturating_sub(meta.live_bytes);
            total += meta.bytes;
            dead_total += dead;
            if most.is_none_or(|(_, most_dead)| dead > most_dead) {
                most = Some((seq, dead));
            }
        }
        let (seq, dead) = most?;
        if (dead_total as f64) < trigger * total as f64 {
            return None;
        }
        // Compacting appends the survivors back (byte-neutral) plus one
        // `Compacted` commit record, so the net gain is the dead bytes
        // minus that overhead. A victim whose dead weight is only its
        // own bookkeeping would be rewritten into an identical segment
        // forever; require strict progress instead, accepting a bounded
        // sliver of unreclaimable overhead per segment.
        let commit = serde_json::to_string(&self.segments[&seq].commit_record(seq))
            .ok()
            .and_then(|payload| frame::framed_len(payload.len()))
            .map_or(0, u64::from);
        (dead > commit).then_some(seq)
    }

    /// Compacts sealed segment `victim`: rewrites its live objects into
    /// the active segment, re-asserts kills that stale state elsewhere
    /// could undo, commits with a `Compacted` record, and deletes the
    /// file. `fetch` supplies the current full state of a live id (the
    /// engine's resident copy).
    ///
    /// Every crash window is safe: before the commit record survives,
    /// replay sees at worst duplicate survivor records (latest-wins) and
    /// the victim still on disk; after it, recovery deletes the stale
    /// file itself.
    pub fn compact(
        &mut self,
        victim: u32,
        mut fetch: impl FnMut(ObjectId) -> StoredObject,
    ) -> Result<CompactionReport, DurableError> {
        assert_ne!(victim, self.active_seq, "cannot compact the active segment");
        let meta = self
            .segments
            .get(&victim)
            .expect("compaction victim is a tracked segment");
        let commit = meta.commit_record(victim);
        let reclaimed_bytes = meta.bytes;
        let path = segment_path(&self.dir, victim);

        // Which records the victim holds is the ledger's knowledge; the
        // file is still walked and checksummed end to end before anything
        // is dropped on its account. Sealed segments must frame cleanly,
        // into exactly the records that were appended.
        let mut frames = walk(&path)?;
        let mut records = 0u64;
        while frames
            .next_frame()
            .map_err(|e| DurableError::io(&path, e))?
            .is_some()
        {
            records += 1;
        }
        if frames.torn() {
            return Err(DurableError::Corrupt {
                segment: path,
                detail: format!(
                    "sealed segment torn under compaction: {} of {} bytes frame cleanly",
                    frames.clean_len(),
                    frames.len()
                ),
            });
        }
        if records != meta.records {
            return Err(DurableError::Corrupt {
                segment: path,
                detail: format!(
                    "sealed segment holds {records} records under compaction, {} were appended",
                    meta.records
                ),
            });
        }

        // Live ids whose newest record lives in the victim — these get
        // rewritten. Sorted for deterministic log contents.
        let mut survivors: Vec<ObjectId> = meta
            .asserted
            .iter()
            .copied()
            .filter(|id| self.index.get(id).is_some_and(|loc| loc.seq == victim))
            .collect();
        survivors.sort_unstable();
        survivors.dedup();

        // A kill dropped with the victim needs a tombstone iff the id
        // is dead now and a stale full-state record of it survives in
        // another segment — otherwise replay's last word on the id
        // would be that stale record, resurrecting it. The other
        // segments' ledgers list every full-state record left.
        let mut killed: Vec<ObjectId> = meta
            .killed
            .iter()
            .copied()
            .filter(|id| !self.index.contains_key(id))
            .collect();
        killed.sort_unstable();
        killed.dedup();
        let mut unheld: FxHashMap<ObjectId, ()> = killed.iter().map(|&id| (id, ())).collect();
        for (_, other) in self.segments.iter().filter(|(&seq, _)| seq != victim) {
            if unheld.is_empty() {
                break;
            }
            for id in &other.asserted {
                unheld.remove(id);
            }
        }
        killed.retain(|id| !unheld.contains_key(id));

        // Rewrite survivors, then tombstones, then commit.
        let mut survivor_bytes = 0u64;
        let before = self.appended_bytes;
        for &id in &survivors {
            let object = fetch(id);
            debug_assert_eq!(object.id(), id);
            self.append(&LogRecord::Survivor { object })?;
        }
        survivor_bytes += self.appended_bytes - before;
        let tombstones = killed.len();
        if !killed.is_empty() {
            self.append(&LogRecord::Dead { ids: killed })?;
        }
        self.append(&commit)?;
        self.sync()?;

        self.rewrite_bytes += self.appended_bytes - before;

        // The commit record is durable; the victim's file is now pure
        // garbage.
        fs::remove_file(&path).map_err(|e| DurableError::io(&path, e))?;
        self.segments.remove(&victim);
        self.compactions += 1;
        self.obs.counter("durable.compactions", 1);
        self.obs.counter("durable.reclaimed_bytes", reclaimed_bytes);
        self.obs
            .gauge("durable.segments", self.segments.len() as u64);

        Ok(CompactionReport {
            victim: u64::from(victim),
            reclaimed_bytes,
            survivors: survivors.len(),
            survivor_bytes,
            tombstones,
        })
    }

    /// The engine-clock and sweep-clock high-water marks across the
    /// log. A folded segment's marks live on in its `Compacted` record.
    pub fn clocks(&self) -> (SimTime, SimTime) {
        self.segments
            .values()
            .fold((SimTime::ZERO, SimTime::ZERO), |(at, sweep), meta| {
                (at.max(meta.max_at), sweep.max(meta.max_sweep))
            })
    }

    /// Current disk occupancy.
    pub fn disk_info(&self) -> DiskInfo {
        let mut file_bytes = 0u64;
        let mut live_bytes = 0u64;
        for meta in self.segments.values() {
            file_bytes += meta.bytes;
            live_bytes += meta.live_bytes;
        }
        DiskInfo {
            segments: self.segments.len(),
            file_bytes,
            live_bytes,
            appended_bytes: self.appended_bytes,
            rewrite_bytes: self.rewrite_bytes,
            reclaimed_bytes: self.reclaimed_bytes,
            compactions: self.compactions,
        }
    }

    fn active_path(&self) -> PathBuf {
        segment_path(&self.dir, self.active_seq)
    }
}

/// `dir/seg-{seq:08}.log`.
fn segment_path(dir: &Path, seq: u32) -> PathBuf {
    dir.join(format!("seg-{seq:08}.log"))
}

/// A frame walker over the whole file at `path`.
fn walk(path: &Path) -> Result<frame::Frames<File>, DurableError> {
    let file = File::open(path).map_err(|e| DurableError::io(path, e))?;
    let len = file
        .metadata()
        .map_err(|e| DurableError::io(path, e))?
        .len();
    Ok(frame::Frames::new(file, len))
}

/// Decodes one checksummed payload; a parse failure at this point means
/// real damage (the CRC already vouched for the bytes).
pub(crate) fn parse_record(payload: &[u8], segment: &Path) -> Result<LogRecord, DurableError> {
    let text = std::str::from_utf8(payload).map_err(|e| DurableError::Corrupt {
        segment: segment.to_path_buf(),
        detail: format!("checksummed record is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| DurableError::Corrupt {
        segment: segment.to_path_buf(),
        detail: format!("checksummed record failed to parse: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use sim_core::{ByteSize, SimDuration};
    use temporal_importance::{ImportanceCurve, ObjectSpec};

    use super::*;

    /// Three sealed segments on which the rule this one replaced — fold
    /// the segment holding the least important live object — and "most
    /// dead bytes" disagree. Segment 0 is mostly live and holds id 7,
    /// which has expired unswept by the time compaction runs: the
    /// engine reclaims it next, so the old rule ranked its segment first
    /// and copied six live neighbours forward to reclaim three records.
    /// Segment 1 is mostly dead; segment 2 has nothing to reclaim.
    #[test]
    fn the_victim_is_the_most_dead_segment_not_the_least_important_one() {
        let dir = crate::tests::scratch("victim");
        let (mut log, _) = SegmentLog::open(&dir, u64::MAX, Obs::none()).expect("open fresh");
        let object = |id: u64| {
            let lifetime = if id == 7 {
                SimDuration::from_minutes(1)
            } else {
                SimDuration::from_days(365)
            };
            StoredObject::from_spec(
                ObjectSpec::new(
                    ObjectId::new(id),
                    ByteSize::from_kib(1),
                    ImportanceCurve::fixed_lifetime(lifetime),
                ),
                SimTime::ZERO,
            )
        };
        for seq in 0..3 {
            for id in seq * 10..seq * 10 + 10 {
                log.append(&LogRecord::Store {
                    at: SimTime::ZERO,
                    object: object(id),
                    evicted: Vec::new(),
                })
                .expect("append");
            }
            log.roll().expect("seal");
        }
        for id in (0..3).chain(10..19) {
            log.append(&LogRecord::Remove {
                at: SimTime::from_minutes(5),
                id: ObjectId::new(id),
                size: ByteSize::from_kib(1),
            })
            .expect("append");
        }

        // Twelve of thirty sealed records are dead.
        assert_eq!(log.victim(0.0), Some(1));
        assert_eq!(log.victim(0.4), Some(1));
        assert_eq!(log.victim(0.5), None);

        // With segment 1 folded, segment 0 is the deadest left, and its
        // three dead records are more than a commit record.
        log.compact(1, |id| object(id.raw())).expect("compaction");
        assert_eq!(log.victim(0.0), Some(0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The last sequence number a `Loc` can hold opens, and rolling past
    /// it is refused; a file numbered past it is refused at open. No
    /// segment is written to get there: the log starts at the name.
    #[test]
    fn a_sequence_number_past_u32_is_refused() {
        let dir = crate::tests::scratch("seq-limit");
        fs::create_dir_all(&dir).expect("dir");
        File::create(segment_path(&dir, u32::MAX)).expect("last numbered segment");
        let (mut log, _) = SegmentLog::open(&dir, u64::MAX, Obs::none()).expect("opens");
        assert_eq!(log.active_seq, u32::MAX);
        let error = log.roll().expect_err("no sequence number follows");
        assert!(
            matches!(&error, DurableError::Corrupt { detail, .. } if detail.contains("no segment sequence number follows")),
            "{error:?}"
        );
        assert_eq!(log.active_seq, u32::MAX);
        drop(log);

        File::create(dir.join(format!("seg-{}.log", u64::from(u32::MAX) + 1))).expect("past it");
        let error = SegmentLog::open(&dir, u64::MAX, Obs::none()).expect_err("refused");
        assert!(
            matches!(&error, DurableError::Corrupt { detail, .. } if detail.contains("is past")),
            "{error:?}"
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Open and compaction walk a segment with the one frame walker, so
    /// at every cut of a frame they agree where its clean prefix ends:
    /// open truncates a last segment to it, and compaction refuses a
    /// sealed victim cut there, naming the same length — as torn
    /// inside a frame, as short of a record on a frame boundary — and
    /// folds it only whole.
    #[test]
    fn open_and_compaction_agree_on_the_clean_length_at_every_cut() {
        let dir = crate::tests::scratch("cuts");
        let (mut log, _) = SegmentLog::open(&dir, u64::MAX, Obs::none()).expect("open fresh");
        let object = |id: u64| {
            StoredObject::from_spec(
                ObjectSpec::new(
                    ObjectId::new(id),
                    ByteSize::from_kib(1),
                    ImportanceCurve::fixed_lifetime(SimDuration::from_days(1)),
                ),
                SimTime::ZERO,
            )
        };
        let mut ends = vec![0u64];
        for id in 0..3 {
            log.append(&LogRecord::Store {
                at: SimTime::ZERO,
                object: object(id),
                evicted: Vec::new(),
            })
            .expect("append");
            ends.push(log.segments[&0].bytes);
        }
        log.roll().expect("seal");
        let victim = segment_path(&dir, 0);
        let whole = fs::read(&victim).expect("victim bytes");
        assert_eq!(whole.len() as u64, ends[3]);

        let lone = crate::tests::scratch("cuts-open");
        for cut in ends[2]..=ends[3] {
            let clean = *ends
                .iter()
                .rev()
                .find(|&&end| end <= cut)
                .expect("0 <= cut");
            let bytes = &whole[..cut as usize];

            fs::create_dir_all(&lone).expect("dir");
            fs::write(segment_path(&lone, 0), bytes).expect("lone segment");
            let (_, recovered) = SegmentLog::open(&lone, u64::MAX, Obs::none()).expect("opens");
            assert_eq!(recovered.torn_bytes, cut - clean, "cut {cut}");
            let kept = fs::metadata(segment_path(&lone, 0)).expect("kept").len();
            assert_eq!(kept, clean, "cut {cut}");
            fs::remove_dir_all(&lone).expect("cleanup");

            fs::write(&victim, bytes).expect("cut the victim");
            let folded = log.compact(0, |id| object(id.raw()));
            if cut == ends[3] {
                assert_eq!(folded.expect("a whole victim folds").survivors, 3);
                continue;
            }
            let Err(DurableError::Corrupt { detail, .. }) = folded else {
                panic!("cut {cut}: a cut victim folded: {folded:?}");
            };
            if cut == clean {
                assert!(detail.contains("holds 2 records"), "cut {cut}: {detail}");
            } else {
                let expected = format!("{clean} of {cut} bytes frame cleanly");
                assert!(detail.contains(&expected), "cut {cut}: {detail}");
            }
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
