//! [`DurableUnit`]: a [`StorageUnit`] whose every mutation is journaled
//! to a [`SegmentLog`](crate::segment::SegmentLog).
//!
//! The in-memory engine stays the single source of truth for admission,
//! preemption, and expiry — the durable layer never second-guesses it.
//! Each mutation runs against the engine first, then its outcome (the
//! admitted object, the victims it preempted, the sweep's harvest, the
//! rejection) is appended to the log, so replaying the log reproduces
//! the engine's state and statistics *exactly*, not approximately.
//!
//! The unit's clocks are the log's: [`clock`](DurableUnit::clock) and
//! [`last_sweep`](DurableUnit::last_sweep) read the high-water marks of
//! the records on disk, so a live unit and its reopened log report the
//! same values. A call that journals nothing — a read, a remove of an id
//! that is not stored, a refused annotation — does not advance them; the
//! next journaled mutation does.

use std::path::Path;

use sim_core::{ByteSize, Obs, SimTime};
use temporal_importance::protocol::{Request, Response, StoreApi};
use temporal_importance::{
    Error, EvictionPolicy, EvictionRecord, ImportanceCurve, ObjectId, ObjectSpec, StorageUnit,
    StoreError, StoreOutcome, UnitStats,
};

use crate::record::{LogRecord, RejectKind, Victim};
use crate::segment::{CompactionReport, DiskInfo, SegmentLog};
use crate::DurableError;

/// Tuning for a [`DurableUnit`]'s log.
///
/// # Durability contract
///
/// Not tunable here, and the same for every configuration: when a
/// mutation (`store`, `remove`, an annotation, a sweep) returns, its
/// record has been handed to the operating system by a `flush` — one
/// `write` per mutation — so it survives the death of the process. It
/// is forced to the disk (`fsync`) only when its segment seals on a
/// roll, when a compaction commits, and when the unit is closed; an
/// operating-system crash or power loss can therefore lose the
/// unsynced suffix of the active segment, which recovery truncates to
/// the newest consistent prefix. A serving layer that acknowledges a
/// `Put` after the call returns acknowledges "reached the OS", not
/// "reached the disk".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurableConfig {
    segment_bytes: u64,
    compact_trigger: f64,
    auto_compact: bool,
}

impl Default for DurableConfig {
    /// 8 MiB segments, compaction once half the sealed bytes are dead,
    /// triggered automatically after mutations.
    fn default() -> Self {
        DurableConfig {
            segment_bytes: 8 * 1024 * 1024,
            compact_trigger: 0.5,
            auto_compact: true,
        }
    }
}

impl DurableConfig {
    /// Sets the segment-size target. The active segment seals once it
    /// reaches this many bytes (the record in flight may overshoot).
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// Sets the sealed dead-byte fraction at which auto-compaction
    /// kicks in (clamped to `[0, 1]`).
    pub fn compact_trigger(mut self, ratio: f64) -> Self {
        self.compact_trigger = ratio.clamp(0.0, 1.0);
        self
    }

    /// Enables or disables automatic compaction after mutations.
    /// Disabled, the log only compacts on explicit
    /// [`DurableUnit::compact`] calls — what a crash test wants.
    pub fn auto_compact(mut self, on: bool) -> Self {
        self.auto_compact = on;
        self
    }
}

/// A storage unit whose state survives process death.
///
/// The engine stays the source of truth and the log records its
/// outcomes; see the [crate docs](crate) for the log-structured design.
#[derive(Debug)]
pub struct DurableUnit {
    unit: StorageUnit,
    log: SegmentLog,
    config: DurableConfig,
    recovered_torn_bytes: u64,
}

impl DurableUnit {
    /// Opens (or creates) a durable unit rooted at `dir`, replaying any
    /// existing segments into a fresh engine.
    ///
    /// # Errors
    ///
    /// [`DurableError`] on filesystem trouble, segment corruption, or a
    /// recovered resident set the engine configuration cannot hold.
    pub fn open(
        dir: impl AsRef<Path>,
        capacity: ByteSize,
        policy: EvictionPolicy,
        config: DurableConfig,
    ) -> Result<DurableUnit, DurableError> {
        Self::with_observer(dir, capacity, policy, config, Obs::global())
    }

    /// [`open`](DurableUnit::open) with an explicit observability sink
    /// for both the engine and the log.
    pub fn with_observer(
        dir: impl AsRef<Path>,
        capacity: ByteSize,
        policy: EvictionPolicy,
        config: DurableConfig,
        obs: Obs,
    ) -> Result<DurableUnit, DurableError> {
        let (log, recovered) = SegmentLog::open(dir.as_ref(), config.segment_bytes, obs.clone())?;
        let unit = StorageUnit::builder(capacity)
            .policy(policy)
            .recording(false)
            .observer(obs)
            .restore(recovered.stats, recovered.objects)?;
        Ok(DurableUnit {
            unit,
            log,
            config,
            recovered_torn_bytes: recovered.torn_bytes,
        })
    }

    /// Stores an object: engine admission first, then the journal. The
    /// appended record carries the admitted object's full state and the
    /// victims it preempted; rejections are journaled too, because they
    /// count in [`UnitStats`].
    ///
    /// # Errors
    ///
    /// [`Error::Store`] when the engine refuses the object, or an
    /// external-wrapped [`DurableError`] when journaling fails.
    pub fn store(&mut self, spec: ObjectSpec, now: SimTime) -> Result<StoreOutcome, Error> {
        match self.unit.store(spec, now) {
            Ok(outcome) => {
                let object = self
                    .unit
                    .get(outcome.id)
                    .expect("accepted object is resident")
                    .clone();
                let evicted = outcome.evicted.iter().map(Victim::from).collect();
                self.journal(&LogRecord::Store {
                    at: now,
                    object,
                    evicted,
                })?;
                Ok(outcome)
            }
            Err(e) => {
                let kind = match &e {
                    StoreError::Full { .. } => RejectKind::Full,
                    StoreError::TooLarge { .. } => RejectKind::TooLarge,
                    StoreError::DuplicateId(_) => RejectKind::Duplicate,
                    StoreError::EmptyObject(_) => RejectKind::Empty,
                    _ => RejectKind::Other,
                };
                self.journal(&LogRecord::Reject { at: now, kind })?;
                Err(Error::from(e))
            }
        }
    }

    /// Sweeps expired objects, journaling the harvest. An empty sweep
    /// still writes a record so the sweep cadence clock survives a
    /// crash.
    ///
    /// # Errors
    ///
    /// An external-wrapped [`DurableError`] when journaling fails.
    pub fn sweep_expired(&mut self, now: SimTime) -> Result<Vec<EvictionRecord>, DurableError> {
        let records = self.unit.sweep_expired(now);
        self.journal(&LogRecord::Sweep {
            at: now,
            expired: records.iter().map(Victim::from).collect(),
        })?;
        Ok(records)
    }

    /// Removes an object explicitly; `Ok(None)` means it was not
    /// resident (and nothing was journaled).
    ///
    /// # Errors
    ///
    /// [`DurableError`] when journaling fails.
    pub fn remove(
        &mut self,
        id: ObjectId,
        now: SimTime,
    ) -> Result<Option<EvictionRecord>, DurableError> {
        let record = self.unit.remove(id, now);
        if let Some(rec) = &record {
            self.journal(&LogRecord::Remove {
                at: now,
                id,
                size: rec.size,
            })?;
        }
        Ok(record)
    }

    /// Rejuvenates an object (importance may only rise), journaling its
    /// complete post-annotation state.
    ///
    /// # Errors
    ///
    /// [`Error::Rejuvenate`] from the engine, or an external-wrapped
    /// [`DurableError`] when journaling fails.
    pub fn rejuvenate(
        &mut self,
        id: ObjectId,
        curve: ImportanceCurve,
        now: SimTime,
    ) -> Result<(), Error> {
        self.unit.rejuvenate(id, curve, now)?;
        self.journal_annotation(id, now)
    }

    /// Reannotates an object (importance may also fall), journaling its
    /// complete post-annotation state.
    ///
    /// # Errors
    ///
    /// [`Error::Rejuvenate`] from the engine, or an external-wrapped
    /// [`DurableError`] when journaling fails.
    pub fn reannotate(
        &mut self,
        id: ObjectId,
        curve: ImportanceCurve,
        now: SimTime,
    ) -> Result<(), Error> {
        self.unit.reannotate(id, curve, now)?;
        self.journal_annotation(id, now)
    }

    fn journal_annotation(&mut self, id: ObjectId, now: SimTime) -> Result<(), Error> {
        let object = self
            .unit
            .get(id)
            .expect("annotated object is resident")
            .clone();
        self.journal(&LogRecord::Annotate { at: now, object })?;
        Ok(())
    }

    /// The one way a mutation reaches the log: append the record, hand it
    /// to the operating system, then let compaction look at the dead bytes
    /// it may have left — every record kind can leave some (a `Reject` is
    /// dead from birth), so none may skip the last step.
    fn journal(&mut self, record: &LogRecord) -> Result<(), DurableError> {
        self.log.append(record)?;
        self.log.flush()?;
        self.maybe_compact()
    }

    /// Compacts the sealed segment holding the most dead bytes, if
    /// folding it reclaims more than the commit record costs. Returns
    /// what was reclaimed.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when rewriting or committing fails.
    pub fn compact(&mut self) -> Result<Option<CompactionReport>, DurableError> {
        self.compact_once(0.0)
    }

    /// One compaction, if the sealed dead-byte share has reached
    /// `trigger`.
    fn compact_once(&mut self, trigger: f64) -> Result<Option<CompactionReport>, DurableError> {
        let Some(victim) = self.log.victim(trigger) else {
            return Ok(None);
        };
        let unit = &self.unit;
        let report = self.log.compact(victim, |id| {
            unit.get(id).expect("live id is resident").clone()
        })?;
        Ok(Some(report))
    }

    /// Runs compactions until the sealed dead-byte share drops below
    /// the configured trigger, one round per segment at most (no-op
    /// when auto-compaction is off).
    fn maybe_compact(&mut self) -> Result<(), DurableError> {
        if !self.config.auto_compact {
            return Ok(());
        }
        let mut rounds = 0;
        while self.compact_once(self.config.compact_trigger)?.is_some() {
            rounds += 1;
            if rounds >= self.log.disk_info().segments {
                break;
            }
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// [`DurableError`] on I/O failure.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.log.sync()
    }

    /// Syncs the log and surrenders the in-memory engine.
    ///
    /// # Errors
    ///
    /// [`DurableError`] on I/O failure (the engine is lost in that
    /// case — the log on disk remains the recovery source).
    pub fn close(mut self) -> Result<StorageUnit, DurableError> {
        self.log.sync()?;
        Ok(self.unit)
    }

    /// The wrapped in-memory engine (read-only; mutations must go
    /// through the durable methods so they reach the journal).
    pub fn unit(&self) -> &StorageUnit {
        &self.unit
    }

    /// The engine's lifetime statistics.
    pub fn stats(&self) -> &UnitStats {
        self.unit.stats()
    }

    /// Current disk occupancy of the segment log.
    pub fn disk_info(&self) -> DiskInfo {
        self.log.disk_info()
    }

    /// Engine-clock high-water mark across persisted mutations.
    pub fn clock(&self) -> SimTime {
        self.log.clocks().0
    }

    /// Sweep-clock high-water mark across persisted sweeps.
    pub fn last_sweep(&self) -> SimTime {
        self.log.clocks().1
    }

    /// Bytes of torn tail this open truncated from the final segment —
    /// nonzero exactly when the previous process died mid-append.
    pub fn recovered_torn_bytes(&self) -> u64 {
        self.recovered_torn_bytes
    }

    /// Re-points the *engine's* observability sink (the log keeps the
    /// sink it was opened with).
    pub fn set_observer(&mut self, obs: Obs) {
        self.unit.set_observer(obs);
    }

    /// Advances the engine clock in memory. Not journaled, so
    /// [`clock`](DurableUnit::clock) does not move (see the module docs).
    pub fn advance(&mut self, now: SimTime) {
        self.unit.advance(now);
    }
}

impl StoreApi for DurableUnit {
    /// Dispatches exactly like the wrapped [`StorageUnit`]: `Put` goes
    /// through [`store`](DurableUnit::store) (and thus the journal),
    /// every read verb delegates straight to the engine.
    fn call(&mut self, now: SimTime, request: Request) -> Response {
        match request {
            Request::Put {
                id,
                bytes,
                curve,
                class,
            } => {
                let spec = ObjectSpec::new(id, bytes, curve).with_class(class);
                Response::Put(self.store(spec, now))
            }
            read => self.unit.call(now, read),
        }
    }
}
