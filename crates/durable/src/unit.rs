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
//!
//! A journal write that fails poisons the unit: the engine may already
//! hold a mutation the log never saw, so from then on every call is
//! refused with [`DurableError::Poisoned`] and nothing reaches the
//! engine. Reopening the log recovers the last state it did see.

use std::path::Path;
use std::sync::Arc;

use sim_core::{ByteSize, Obs, SimTime};
use temporal_importance::protocol::{Request, Response, StoreApi, VerbKind};
use temporal_importance::{
    Error, EvictionPolicy, ObjectId, StorageUnit, StoreError, StoredObject, UnitStats,
};

use crate::record::{LogRecord, RejectKind, Victim};
use crate::segment::{CompactionReport, DiskInfo, SegmentLog};
use crate::DurableError;

/// Tuning for a [`DurableUnit`]'s log.
///
/// # Durability contract
///
/// Not tunable here, and the same for every configuration: when a
/// mutation — a `Put`, `Remove`, `Annotate` or `Sweep` through
/// [`call`](StoreApi::call) — returns, its record has been handed to the
/// operating system by a `flush` — one `write` per mutation — so it
/// survives the death of the process. It is forced to the disk (`fsync`)
/// only when its segment seals on a roll, when a compaction commits, and
/// when the unit is closed; an operating-system crash or power loss can
/// therefore lose the unsynced suffix of the active segment, which
/// recovery truncates to the newest consistent prefix. A serving layer
/// that acknowledges a `Put` after the call returns acknowledges
/// "reached the OS", not "reached the disk".
///
/// A mutation whose record cannot be written answers
/// [`DurableError::Poisoned`] and poisons the unit: every later call
/// answers the same error without touching the engine, and
/// [`close`](DurableUnit::close) returns it instead of the engine.
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
    /// The first journal failure: once set, every call is refused.
    poisoned: Option<Arc<DurableError>>,
}

impl DurableUnit {
    /// Opens (or creates) a durable unit rooted at `dir`, replaying any
    /// existing segments into a fresh engine that resumes at the
    /// journaled [`clock`](DurableUnit::clock).
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
        let mut unit = StorageUnit::builder(capacity)
            .policy(policy)
            .observer(obs)
            .restore(recovered.stats, recovered.objects)?;
        // The engine resumes at the journaled clock, so a call dated behind
        // it acts where the closed unit would have acted.
        unit.advance(log.clocks().0);
        Ok(DurableUnit {
            unit,
            log,
            config,
            recovered_torn_bytes: recovered.torn_bytes,
            poisoned: None,
        })
    }

    /// The one way a mutation reaches the log: append the record, hand it
    /// to the operating system, then let compaction look at the dead bytes
    /// it may have left — every record kind can leave some (a `Reject` is
    /// dead from birth), so none may skip the last step. A failure
    /// poisons the unit: the engine already holds the mutation.
    fn journal(&mut self, record: &LogRecord) -> Result<(), DurableError> {
        let written = self
            .log
            .append(record)
            .and_then(|()| self.log.flush())
            .and_then(|()| self.maybe_compact());
        written.map_err(|error| {
            let cause = Arc::new(error);
            self.poisoned = Some(cause.clone());
            DurableError::Poisoned(cause)
        })
    }

    /// The error a poisoned unit answers instead of serving.
    fn refusal(&self) -> Option<DurableError> {
        self.poisoned.clone().map(DurableError::Poisoned)
    }

    /// Compacts the sealed segment holding the most dead bytes, if
    /// folding it reclaims more than the commit record costs. Returns
    /// what was reclaimed.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when rewriting or committing fails, or
    /// [`DurableError::Poisoned`] once a journal write has failed (the
    /// log no longer describes the engine).
    pub fn compact(&mut self) -> Result<Option<CompactionReport>, DurableError> {
        if let Some(refusal) = self.refusal() {
            return Err(refusal);
        }
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
    /// [`DurableError`] on I/O failure, or [`DurableError::Poisoned`]
    /// once a journal write has failed (the engine is lost in either
    /// case — the log on disk remains the recovery source).
    pub fn close(mut self) -> Result<StorageUnit, DurableError> {
        if let Some(refusal) = self.refusal() {
            return Err(refusal);
        }
        self.log.sync()?;
        Ok(self.unit)
    }

    /// A copy of the resident `id`, as a record carries it.
    fn resident(&self, id: ObjectId) -> StoredObject {
        self.unit.get(id).expect("the object is resident").clone()
    }

    /// The wrapped in-memory engine (read-only; mutations go through
    /// [`call`](StoreApi::call), which journals them).
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
    /// Hands the request to the wrapped [`StorageUnit`] and journals what
    /// its answer changed: an admitted `Put` as the object with its
    /// victims, a refused one as its refusal (refusals count in
    /// [`UnitStats`]), a `Remove` that removed something as a `Remove`
    /// record, an accepted `Annotate` as the object's complete
    /// post-annotation state, and a `Sweep` as its harvest — even an empty
    /// one, so the sweep clock survives a crash. Reads and failed
    /// mutations journal nothing. The match names every answer, so a new
    /// verb has to choose its side here.
    ///
    /// A journal write that fails poisons the unit and answers
    /// [`DurableError::Poisoned`] in the verb's shape; a poisoned unit
    /// answers every verb so and leaves the engine alone.
    fn call(&mut self, now: SimTime, request: Request) -> Response {
        let verb = VerbKind::of(&request);
        if let Some(refusal) = self.refusal() {
            return verb.failed(refusal.into());
        }
        let key = request.key();
        let response = self.unit.call(now, request);
        let record = match &response {
            Response::Put(Ok(outcome)) => Some(LogRecord::Store {
                at: now,
                object: self.resident(outcome.id),
                evicted: outcome.evicted.iter().map(Victim::from).collect(),
            }),
            Response::Put(Err(error)) => Some(LogRecord::Reject {
                at: now,
                kind: reject_kind(error),
            }),
            Response::Remove(Ok(Some(removed))) => Some(LogRecord::Remove {
                at: now,
                id: removed.id,
                size: removed.size,
            }),
            Response::Annotate(Ok(())) => Some(LogRecord::Annotate {
                at: now,
                object: self.resident(key.expect("an annotation names its object")),
            }),
            Response::Sweep(Ok(swept)) => Some(LogRecord::Sweep {
                at: now,
                expired: swept.iter().map(Victim::from).collect(),
            }),
            Response::Remove(_)
            | Response::Annotate(_)
            | Response::Sweep(_)
            | Response::Get(_)
            | Response::Advise(_)
            | Response::Density(_)
            | Response::Stats(_)
            | Response::Health(_) => None,
        };
        match record.map(|record| self.journal(&record)) {
            Some(Err(error)) => verb.failed(error.into()),
            _ => response,
        }
    }
}

/// The [`RejectKind`] a refused `Put` is journaled as.
fn reject_kind(error: &Error) -> RejectKind {
    match error {
        Error::Store(StoreError::Full { .. }) => RejectKind::Full,
        Error::Store(StoreError::TooLarge { .. }) => RejectKind::TooLarge,
        Error::Store(StoreError::DuplicateId(_)) => RejectKind::Duplicate,
        Error::Store(StoreError::EmptyObject(_)) => RejectKind::Empty,
        _ => RejectKind::Other,
    }
}
