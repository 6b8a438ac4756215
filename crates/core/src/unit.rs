//! A single storage unit with the temporal-importance reclamation engine.

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, Obs, SimTime};

use crate::arena::ObjectArena;
use crate::engine::{EngineIndex, EvictionKey};
use crate::error::{RejuvenateError, RestoreError, StoreError};
use crate::records::{
    Admission, EvictionReason, EvictionRecord, RejectionRecord, StoreOutcome, UnitStats,
};
use crate::{EvictionPolicy, Importance, ImportanceCurve, ObjectId, ObjectSpec, StoredObject};

/// A storage unit of fixed capacity holding temporally-annotated objects.
///
/// This is the paper's core mechanism (§3): objects carry an importance
/// curve, and an incoming object may preempt stored objects of strictly
/// lower *current* importance. The unit appears **full** to an object when
/// even preempting every strictly-less-important object would not make
/// room — so fullness is relative to importance, which is what the
/// [storage importance density](StorageUnit::importance_density) metric
/// quantifies.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimDuration, SimTime};
/// use temporal_importance::{
///     Importance, ImportanceCurve, ObjectId, ObjectSpec, StorageUnit,
/// };
///
/// let mut unit = StorageUnit::new(ByteSize::from_mib(100));
/// let curve = ImportanceCurve::two_step(
///     Importance::FULL,
///     SimDuration::from_days(15),
///     SimDuration::from_days(15),
/// );
/// let spec = ObjectSpec::new(ObjectId::new(0), ByteSize::from_mib(60), curve);
/// let outcome = unit.store(spec, SimTime::ZERO)?;
/// assert!(outcome.evicted.is_empty());
/// assert_eq!(unit.used(), ByteSize::from_mib(60));
/// # Ok::<(), temporal_importance::StoreError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StorageUnit {
    capacity: ByteSize,
    used: ByteSize,
    policy: EvictionPolicy,
    objects: ObjectArena,
    stats: UnitStats,
    evictions: Vec<EvictionRecord>,
    rejections: Vec<RejectionRecord>,
    recording: bool,
    /// Incremental candidate/density indexes; derived state, rebuilt on
    /// demand after deserialization.
    #[serde(skip)]
    index: EngineIndex,
    /// Reusable planning/sweep buffers so steady-state churn allocates
    /// nothing per operation.
    #[serde(skip)]
    scratch: PlanScratch,
    /// Last `engine.breakpoint_queue` depth reported; the gauge is a level,
    /// so repeats are elided (observationally identical, far fewer sink
    /// touches under churn).
    #[serde(skip)]
    last_queue_depth: Option<u64>,
    /// When set, the unit bypasses the indexes and answers every query by
    /// scanning all objects — the reference oracle for differential tests.
    #[serde(skip)]
    naive: bool,
    /// Instrumentation handle. Never touches functional state: outcomes
    /// are byte-identical with or without an observer attached.
    /// Deserialized units come back silent (re-attach explicitly).
    #[serde(skip)]
    obs: Obs,
}

/// Builds a [`StorageUnit`], the single construction path for every
/// configuration: policy, the naive scan oracle, record keeping, and the
/// observability hook.
///
/// # Examples
///
/// ```
/// use sim_core::ByteSize;
/// use temporal_importance::{EvictionPolicy, StorageUnit};
///
/// let unit = StorageUnit::builder(ByteSize::from_gib(1))
///     .policy(EvictionPolicy::Fifo)
///     .recording(false)
///     .build();
/// assert_eq!(unit.policy(), EvictionPolicy::Fifo);
/// ```
#[derive(Debug, Clone)]
#[must_use = "call .build() to create the unit"]
pub struct StorageUnitBuilder {
    capacity: ByteSize,
    policy: EvictionPolicy,
    naive: bool,
    recording: bool,
    obs: Option<Obs>,
}

impl StorageUnitBuilder {
    /// Sets the eviction policy (default: [`EvictionPolicy::Preemptive`],
    /// the paper's mechanism).
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// When true, the unit answers every query with full scans instead of
    /// the incremental indexes — the executable specification of the
    /// reclamation semantics, driven in lockstep with an indexed unit by
    /// the differential tests. Every operation is `O(n)` or worse; not for
    /// production use.
    pub fn naive_oracle(mut self, naive: bool) -> Self {
        self.naive = naive;
        self
    }

    /// Enables or disables per-event eviction/rejection records (default:
    /// on). Large multi-node simulations that only need aggregate
    /// [`stats`](StorageUnit::stats) turn this off.
    pub fn recording(mut self, recording: bool) -> Self {
        self.recording = recording;
        self
    }

    /// Attaches an explicit observer. Without this, the unit observes into
    /// [`Obs::global`] — silent unless a global observer is installed.
    pub fn observer(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Builds the unit, empty.
    pub fn build(self) -> StorageUnit {
        StorageUnit {
            capacity: self.capacity,
            used: ByteSize::ZERO,
            policy: self.policy,
            objects: ObjectArena::new(),
            stats: UnitStats::default(),
            evictions: Vec::new(),
            rejections: Vec::new(),
            recording: self.recording,
            index: EngineIndex::for_policy(self.policy),
            scratch: PlanScratch::default(),
            last_queue_depth: None,
            naive: self.naive,
            obs: self.obs.unwrap_or_else(Obs::global),
        }
    }

    /// Builds the unit from externally persisted state: the lifetime
    /// counters plus every live object, exactly as a durable backend
    /// recovers them from its log.
    ///
    /// The restored unit is indistinguishable from one that arrived at the
    /// same `(stats, objects)` through live operations with per-event
    /// recording off: occupancy is recomputed from the objects, and the
    /// incremental indexes rebuild lazily on the next
    /// [`advance`](StorageUnit::advance) (exactly as after
    /// deserialization). Per-event eviction/rejection records are not
    /// restored — aggregate history lives in `stats`.
    ///
    /// # Errors
    ///
    /// [`RestoreError::DuplicateId`] when two objects share an id and
    /// [`RestoreError::OverCapacity`] when the objects outgrow the
    /// capacity — both mean the persisted state, not this unit, is
    /// corrupt.
    pub fn restore(
        self,
        stats: UnitStats,
        objects: impl IntoIterator<Item = StoredObject>,
    ) -> Result<StorageUnit, RestoreError> {
        let mut unit = self.build();
        for object in objects {
            if unit.objects.contains(object.id()) {
                return Err(RestoreError::DuplicateId(object.id()));
            }
            let used = unit.used + object.size();
            if used > unit.capacity {
                return Err(RestoreError::OverCapacity {
                    used,
                    capacity: unit.capacity,
                });
            }
            unit.used = used;
            unit.objects.insert(object);
        }
        unit.stats = stats;
        Ok(unit)
    }
}

/// Reusable buffers for planning and sweeping. Victim lists and the k-way
/// merge heap live here across operations, so a steady churn of stores
/// reuses their capacity instead of allocating per call.
///
/// Merge entries are `(key, expired, stream, resume, slot)`. With a dozen
/// or so candidate streams and most plans consuming one or two victims, a
/// flat array scanned for its minimum beats a binary heap: seeding is
/// plain appends and each extraction is a short, branch-predictable pass
/// over one cache line per stream.
#[derive(Debug, Clone, Default)]
struct PlanScratch {
    victims: Vec<ObjectId>,
    heads: Vec<(EvictionKey, bool, usize, usize, u32)>,
    sweep_ids: Vec<ObjectId>,
}

/// A preemption plan computed by [`StorageUnit::plan`]; the victim ids live
/// in the [`PlanScratch`] the plan was computed into.
#[derive(Debug)]
struct Plan {
    freed: ByteSize,
    highest: Option<Importance>,
}

#[derive(Debug)]
enum PlanResult {
    Admit(Plan),
    Full {
        blocking: Option<Importance>,
        /// Victim bytes that *could* be freed for this importance level
        /// (excluding already-free space), folded into the plan so a full
        /// store needs no second scan.
        reclaimable: ByteSize,
    },
}

/// The exact [`EvictionKey`] of `object` at `now`, computed from the
/// object itself. Indexed plans derive the same keys from the engine's
/// dense columns instead of dereferencing objects; this direct form is the
/// oracle the key-parity test checks them against.
#[cfg(test)]
fn eviction_key(object: &StoredObject, now: SimTime) -> EvictionKey {
    let (never_expires, remaining) = match object.remaining_lifetime(now) {
        Some(left) => (false, left.as_minutes()),
        None => (true, 0),
    };
    EvictionKey {
        importance: object.current_importance(now),
        never_expires,
        remaining,
        arrival: object.arrival(),
        id: object.id(),
    }
}

impl StorageUnit {
    /// Creates an empty unit with the paper's preemptive policy —
    /// shorthand for [`builder`](StorageUnit::builder) with defaults.
    pub fn new(capacity: ByteSize) -> Self {
        StorageUnit::builder(capacity).build()
    }

    /// Starts building a unit of the given capacity. See
    /// [`StorageUnitBuilder`] for the knobs.
    pub fn builder(capacity: ByteSize) -> StorageUnitBuilder {
        StorageUnitBuilder {
            capacity,
            policy: EvictionPolicy::Preemptive,
            naive: false,
            recording: true,
            obs: None,
        }
    }

    /// Redirects this unit's instrumentation to `obs` (e.g. to attach a
    /// trace sink to an already-populated unit).
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
        // A newly attached observer has seen no levels yet; report the
        // queue depth afresh on the next advance.
        self.last_queue_depth = None;
    }

    /// Processes every curve breakpoint at or before `now`, bringing the
    /// incremental indexes up to date.
    ///
    /// Mutating operations do this automatically; read-only queries
    /// ([`peek_admission`](StorageUnit::peek_admission),
    /// [`importance_density`](StorageUnit::importance_density)) cannot, so
    /// they fall back to a full scan whenever breakpoints are pending.
    /// Long-running simulations that sample densities or probe admissions
    /// between mutations should call `advance` first to stay on the
    /// indexed fast path. Time travels forward only: calls with a `now`
    /// earlier than the latest one seen are no-ops.
    pub fn advance(&mut self, now: SimTime) {
        if self.naive {
            return;
        }
        if self.index.len() != self.objects.len() {
            self.index
                .rebuild(&self.objects, now, self.policy == EvictionPolicy::Fifo);
        } else {
            self.index.advance(&self.objects, now, &self.obs);
        }
        let depth = self.index.events_len() as u64;
        if self.last_queue_depth != Some(depth) {
            self.obs.gauge("engine.breakpoint_queue", depth);
            self.last_queue_depth = Some(depth);
        }
    }

    /// True when the index answers queries at `now` exactly: it covers all
    /// objects, time has not moved past unprocessed breakpoints, and the
    /// unit is not in naive-oracle mode.
    fn index_fresh(&self, now: SimTime) -> bool {
        !self.naive
            && self.index.len() == self.objects.len()
            && now >= self.index.clock()
            && self.index.events_processed_through(now)
    }

    /// The unit's total capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Bytes currently unallocated.
    pub fn free(&self) -> ByteSize {
        self.capacity - self.used
    }

    /// The unit's eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the unit holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &UnitStats {
        &self.stats
    }

    /// Looks up a stored object.
    pub fn get(&self, id: ObjectId) -> Option<&StoredObject> {
        self.objects.get(id)
    }

    /// True if an object with this id is stored.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains(id)
    }

    /// Iterates over stored objects in id order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredObject> {
        self.objects.iter()
    }

    /// Drains the accumulated eviction records.
    pub fn take_evictions(&mut self) -> Vec<EvictionRecord> {
        std::mem::take(&mut self.evictions)
    }

    /// Drains the accumulated rejection records.
    pub fn take_rejections(&mut self) -> Vec<RejectionRecord> {
        std::mem::take(&mut self.rejections)
    }

    /// Attempts to store `spec` at simulated time `now`, preempting less
    /// important objects if necessary.
    ///
    /// # Errors
    ///
    /// * [`StoreError::EmptyObject`] — zero-sized object.
    /// * [`StoreError::TooLarge`] — larger than total capacity.
    /// * [`StoreError::DuplicateId`] — id already present.
    /// * [`StoreError::Full`] — the unit is full *for this object's
    ///   importance level*: preempting every strictly-less-important object
    ///   still leaves too little room. Under [`EvictionPolicy::Fifo`] this
    ///   is never returned for objects that fit in the unit at all.
    pub fn store(&mut self, spec: ObjectSpec, now: SimTime) -> Result<StoreOutcome, StoreError> {
        self.stats.stores_attempted += 1;
        self.obs.counter("engine.stores", 1);
        if spec.size().is_zero() {
            return Err(StoreError::EmptyObject(spec.id()));
        }
        if spec.size() > self.capacity {
            self.stats.rejections_too_large += 1;
            return Err(StoreError::TooLarge {
                size: spec.size(),
                capacity: self.capacity,
            });
        }
        if self.objects.contains(spec.id()) {
            return Err(StoreError::DuplicateId(spec.id()));
        }
        self.advance(now);

        let incoming = spec.curve().initial_importance();
        let mut scratch = std::mem::take(&mut self.scratch);
        let plan = match self.plan(spec.size(), incoming, now, &mut scratch) {
            PlanResult::Admit(plan) => plan,
            PlanResult::Full {
                blocking,
                reclaimable,
            } => {
                self.scratch = scratch;
                self.stats.rejections_full += 1;
                self.obs.event(
                    now,
                    "engine.reject",
                    &[
                        ("id", spec.id().raw()),
                        ("size", spec.size().as_bytes()),
                        ("reclaimable", (self.free() + reclaimable).as_bytes()),
                    ],
                );
                if self.recording {
                    self.rejections.push(RejectionRecord {
                        id: spec.id(),
                        class: spec.class(),
                        size: spec.size(),
                        at: now,
                        incoming_importance: incoming,
                        blocking,
                    });
                }
                return Err(StoreError::Full {
                    required: spec.size(),
                    reclaimable: self.free() + reclaimable,
                    blocking,
                });
            }
        };

        self.obs.event(
            now,
            "engine.store",
            &[
                ("id", spec.id().raw()),
                ("size", spec.size().as_bytes()),
                ("victims", scratch.victims.len() as u64),
                ("freed", plan.freed.as_bytes()),
            ],
        );
        let mut evicted = Vec::with_capacity(scratch.victims.len());
        for victim in scratch.victims.drain(..) {
            let record = self.evict(victim, now, EvictionReason::Preempted);
            evicted.push(record);
        }
        self.scratch = scratch;
        debug_assert!(self.free() >= spec.size());

        let id = spec.id();
        self.used += spec.size();
        self.stats.stores_accepted += 1;
        self.stats.bytes_accepted += spec.size().as_bytes();
        let idx = self.objects.insert(StoredObject::from_spec(spec, now));
        if !self.naive {
            self.index.insert(idx.slot(), self.objects.at(idx.slot()));
        }

        Ok(StoreOutcome {
            id,
            evicted,
            highest_preempted: plan.highest,
        })
    }

    /// Previews the admission decision for an object of the given size and
    /// incoming importance, without mutating the unit.
    ///
    /// This is the probe the §5.3 distributed placement algorithm sends to
    /// candidate units: it reports the *highest importance object that will
    /// be preempted* as the placement score.
    pub fn peek_admission(&self, size: ByteSize, incoming: Importance, now: SimTime) -> Admission {
        self.obs.counter("engine.peeks", 1);
        if size.is_zero() || size > self.capacity {
            return Admission::TooLarge;
        }
        let mut scratch = PlanScratch::default();
        match self.plan(size, incoming, now, &mut scratch) {
            PlanResult::Admit(plan) => match plan.highest {
                Some(h) if !h.is_zero() => Admission::Preempting {
                    highest: h,
                    victims: scratch.victims.len(),
                    freed: plan.freed,
                },
                _ => Admission::Fits {
                    victims: scratch.victims.len(),
                },
            },
            PlanResult::Full { blocking, .. } => Admission::Full { blocking },
        }
    }

    /// Explicitly removes an object (e.g. user deletion), returning its
    /// eviction record.
    pub fn remove(&mut self, id: ObjectId, now: SimTime) -> Option<EvictionRecord> {
        if !self.objects.contains(id) {
            return None;
        }
        self.advance(now);
        self.stats.removals += 1;
        Some(self.evict(id, now, EvictionReason::Removed))
    }

    /// Reclaims every expired object, returning their records.
    ///
    /// The engine does not require this — expired bytes are preemptible by
    /// any incoming object — but an explicit sweep keeps
    /// [`used`](StorageUnit::used) meaningful for dashboards and mirrors
    /// the delete-optimized grouping of Douglis et al. that §2 discusses.
    pub fn sweep_expired(&mut self, now: SimTime) -> Vec<EvictionRecord> {
        let _span = self.obs.span("span.engine.sweep");
        self.advance(now);
        let mut scratch = std::mem::take(&mut self.scratch);
        if self.index_fresh(now) {
            self.index.expired_ids(now, &mut scratch.sweep_ids);
        } else {
            scratch.sweep_ids.clear();
            scratch.sweep_ids.extend(
                self.objects
                    .iter()
                    .filter(|o| o.is_expired(now))
                    .map(|o| o.id()),
            );
        }
        self.obs
            .record("engine.sweep_reclaimed", scratch.sweep_ids.len() as u64);
        let records = scratch
            .sweep_ids
            .drain(..)
            .map(|id| self.evict(id, now, EvictionReason::Expired))
            .collect();
        self.scratch = scratch;
        records
    }

    /// Replaces a stored object's annotation with a fresh curve — the
    /// "active intervention by the user" §3 requires for raising
    /// importance. The new curve's age restarts at `now`.
    ///
    /// # Errors
    ///
    /// * [`RejuvenateError::NotFound`] — no such object.
    /// * [`RejuvenateError::WouldLowerImportance`] — the replacement curve
    ///   starts below the object's current importance.
    pub fn rejuvenate(
        &mut self,
        id: ObjectId,
        curve: ImportanceCurve,
        now: SimTime,
    ) -> Result<(), RejuvenateError> {
        self.advance(now);
        let (slot, object) = self
            .objects
            .get_mut(id)
            .ok_or(RejuvenateError::NotFound(id))?;
        let current = object.current_importance(now);
        let proposed = curve.initial_importance();
        if proposed < current {
            return Err(RejuvenateError::WouldLowerImportance { current, proposed });
        }
        object.rejuvenate(curve, now);
        if !self.naive {
            self.index.reannotate(slot, self.objects.at(slot));
        }
        Ok(())
    }

    /// Lowers a stored object's annotation without the raise-only check —
    /// the §6 "trigger" scenario (e.g. a backup completed, so the local
    /// copy's importance can drop). The new curve's age restarts at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`RejuvenateError::NotFound`] if no such object is stored.
    pub fn reannotate(
        &mut self,
        id: ObjectId,
        curve: ImportanceCurve,
        now: SimTime,
    ) -> Result<(), RejuvenateError> {
        self.advance(now);
        let (slot, object) = self
            .objects
            .get_mut(id)
            .ok_or(RejuvenateError::NotFound(id))?;
        object.rejuvenate(curve, now);
        if !self.naive {
            self.index.reannotate(slot, self.objects.at(slot));
        }
        Ok(())
    }

    fn evict(&mut self, id: ObjectId, now: SimTime, reason: EvictionReason) -> EvictionRecord {
        let (slot, object) = self
            .objects
            .remove_entry(id)
            .expect("evict called with resident id");
        if !self.naive {
            self.index.remove(slot, id);
        }
        self.used -= object.size();
        match reason {
            EvictionReason::Preempted => self.stats.evictions_preempted += 1,
            EvictionReason::Expired => self.stats.evictions_expired += 1,
            // `remove` counts `stats.removals` itself, before calling here.
            EvictionReason::Removed => {}
        }
        self.stats.bytes_evicted += object.size().as_bytes();
        let record = EvictionRecord {
            id: object.id(),
            class: object.class(),
            size: object.size(),
            arrival: object.arrival(),
            evicted_at: now,
            importance_at_eviction: object.current_importance(now),
            requested_expiry: object.curve().expiry(),
            reason,
        };
        self.obs.event(
            now,
            "engine.evict",
            &[
                ("id", record.id.raw()),
                ("size", record.size.as_bytes()),
                // 0 = preempted, 1 = expired, 2 = removed.
                ("reason", reason as u64),
                // Importance is a unit-interval float; ppm keeps the trace
                // integer-only without losing plot-resolution precision.
                (
                    "importance_ppm",
                    (record.importance_at_eviction.value() * 1e6).round() as u64,
                ),
            ],
        );
        if self.recording {
            self.evictions.push(record.clone());
        }
        record
    }

    /// Computes the set of victims needed to fit `size` bytes for an
    /// object entering with importance `incoming`. Victim ids accumulate
    /// into `scratch.victims` (cleared first).
    fn plan(
        &self,
        size: ByteSize,
        incoming: Importance,
        now: SimTime,
        scratch: &mut PlanScratch,
    ) -> PlanResult {
        scratch.victims.clear();
        if self.free() >= size {
            return PlanResult::Admit(Plan {
                freed: ByteSize::ZERO,
                highest: None,
            });
        }
        if self.index_fresh(now) {
            match self.policy {
                EvictionPolicy::Preemptive => self.plan_indexed(size, incoming, now, scratch),
                EvictionPolicy::Fifo => self.plan_indexed_fifo(size, incoming, now, scratch),
            }
        } else {
            self.plan_naive(size, incoming, now, scratch)
        }
    }

    /// Preemption planning over the incremental indexes: a k-way merge of
    /// the expired set, the settled set and the shape-group cursors, each
    /// already in eviction order, stopping as soon as enough bytes are
    /// freed. Visits `O(victims + streams)` objects instead of all of
    /// them.
    fn plan_indexed(
        &self,
        size: ByteSize,
        incoming: Importance,
        now: SimTime,
        scratch: &mut PlanScratch,
    ) -> PlanResult {
        scratch.heads.clear();
        for sid in 0..self.index.stream_count() {
            if let Some((key, expired, slot, resume)) = self.index.stream_head(sid, now) {
                scratch.heads.push((key, expired, sid, resume, slot));
            }
        }

        // While a step curve sits on its expiry minute, an expired (hence
        // preemptible) object with *positive* importance can follow a
        // non-preemptible head in key order, so the merge must keep
        // scanning past blockers for that one minute.
        let scan_past_blockers = self.index.finalize_pending(now);

        let free = self.free();
        let mut freed = ByteSize::ZERO;
        let mut highest: Option<Importance> = None;
        let mut blocking: Option<Importance> = None;
        while free + freed < size {
            let Some(best) = scratch
                .heads
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.cmp(&b.0))
                .map(|(i, _)| i)
            else {
                // Every candidate consumed and still not enough room.
                return PlanResult::Full {
                    blocking,
                    reclaimable: freed,
                };
            };
            let (key, expired, sid, resume, slot) = scratch.heads[best];
            match self.index.stream_next_head(sid, resume, now) {
                Some((next_key, next_expired, next_slot, next_resume)) => {
                    scratch.heads[best] = (next_key, next_expired, sid, next_resume, next_slot);
                }
                None => {
                    scratch.heads.swap_remove(best);
                }
            }
            if key.importance < incoming || expired {
                scratch.victims.push(key.id);
                freed += self.objects.at(slot).size();
                highest = Some(match highest {
                    Some(h) => h.max(key.importance),
                    None => key.importance,
                });
            } else {
                // First blocker carries the minimum non-preemptible
                // importance; everything still enqueued sorts after it.
                if blocking.is_none() {
                    blocking = Some(key.importance);
                }
                if !scan_past_blockers {
                    return PlanResult::Full {
                        blocking,
                        reclaimable: freed,
                    };
                }
            }
        }
        PlanResult::Admit(Plan { freed, highest })
    }

    /// FIFO planning over the always-maintained `(arrival, id)` index.
    fn plan_indexed_fifo(
        &self,
        size: ByteSize,
        incoming: Importance,
        now: SimTime,
        scratch: &mut PlanScratch,
    ) -> PlanResult {
        let free = self.free();
        let mut freed = ByteSize::ZERO;
        let mut highest: Option<Importance> = None;
        for slot in self.index.fifo_order() {
            if free + freed >= size {
                break;
            }
            let object = self.objects.at(slot);
            scratch.victims.push(object.id());
            freed += object.size();
            let imp = object.current_importance(now);
            highest = Some(match highest {
                Some(h) => h.max(imp),
                None => imp,
            });
        }
        if free + freed >= size {
            PlanResult::Admit(Plan { freed, highest })
        } else {
            // Unreachable through the public API (anything at most the
            // capacity always fits under FIFO), but kept equivalent to the
            // scan engine for completeness.
            let blocking = self
                .objects
                .iter()
                .filter(|o| !(o.current_importance(now) < incoming || o.is_expired(now)))
                .map(|o| o.current_importance(now))
                .min();
            PlanResult::Full {
                blocking,
                reclaimable: freed,
            }
        }
    }

    /// The full-scan reference implementation of planning.
    fn plan_naive(
        &self,
        size: ByteSize,
        incoming: Importance,
        now: SimTime,
        scratch: &mut PlanScratch,
    ) -> PlanResult {
        // Candidate victims in eviction order.
        let mut candidates: Vec<(&StoredObject, Importance)> = self
            .objects
            .iter()
            .filter_map(|o| {
                let imp = o.current_importance(now);
                let preemptible = match self.policy {
                    // Strict rule (§3): strictly lower importance only.
                    // Expired objects carry importance zero, so they are
                    // preemptible by anything positive; a zero-importance
                    // incoming object may still replace *expired* data
                    // ("objects of importance zero may be freely replaced
                    // by any other object").
                    EvictionPolicy::Preemptive => imp < incoming || o.is_expired(now),
                    // Palimpsest: everything is fair game.
                    EvictionPolicy::Fifo => true,
                };
                preemptible.then_some((o, imp))
            })
            .collect();

        match self.policy {
            EvictionPolicy::Preemptive => {
                // §5.3: "increasing current temporal importance value
                // followed by the amount of the remaining lifetimes";
                // arrival then id break remaining ties deterministically.
                candidates.sort_by(|(a, ia), (b, ib)| {
                    ia.cmp(ib)
                        .then_with(|| {
                            let ra = a.remaining_lifetime(now).map(|d| d.as_minutes());
                            let rb = b.remaining_lifetime(now).map(|d| d.as_minutes());
                            // None (never expires) sorts last.
                            match (ra, rb) {
                                (Some(x), Some(y)) => x.cmp(&y),
                                (Some(_), None) => std::cmp::Ordering::Less,
                                (None, Some(_)) => std::cmp::Ordering::Greater,
                                (None, None) => std::cmp::Ordering::Equal,
                            }
                        })
                        .then_with(|| a.arrival().cmp(&b.arrival()))
                        .then_with(|| a.id().cmp(&b.id()))
                });
            }
            EvictionPolicy::Fifo => {
                candidates.sort_by(|(a, _), (b, _)| {
                    a.arrival()
                        .cmp(&b.arrival())
                        .then_with(|| a.id().cmp(&b.id()))
                });
            }
        }

        let mut freed = ByteSize::ZERO;
        let mut highest: Option<Importance> = None;
        for (object, imp) in &candidates {
            if self.free() + freed >= size {
                break;
            }
            scratch.victims.push(object.id());
            freed += object.size();
            highest = Some(match highest {
                Some(h) => h.max(*imp),
                None => *imp,
            });
        }

        if self.free() + freed >= size {
            PlanResult::Admit(Plan { freed, highest })
        } else {
            // Not enough even after preempting everything eligible: the
            // unit is full for this importance level. Report the lowest
            // importance among the objects that block admission, and the
            // total candidate bytes as the reclaimable estimate.
            let blocking = self
                .objects
                .iter()
                .filter(|o| !(o.current_importance(now) < incoming || o.is_expired(now)))
                .map(|o| o.current_importance(now))
                .min();
            let reclaimable = candidates.iter().map(|(o, _)| o.size()).sum();
            PlanResult::Full {
                blocking,
                reclaimable,
            }
        }
    }

    /// The unit's instrumentation handle, shared with the sibling modules
    /// (density sampling) that extend `StorageUnit`.
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Fast-path weighted importance sum when the index is current for
    /// `now`; `None` sends the caller to the full scan.
    pub(crate) fn weighted_importance_fast(&self, now: SimTime) -> Option<f64> {
        if self.index_fresh(now) {
            Some(self.index.weighted_importance(now))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn mib(n: u64) -> ByteSize {
        ByteSize::from_mib(n)
    }

    fn days(n: u64) -> SimDuration {
        SimDuration::from_days(n)
    }

    fn imp(v: f64) -> Importance {
        Importance::new(v).unwrap()
    }

    fn fixed_spec(id: u64, size: ByteSize, importance: f64, expiry_days: u64) -> ObjectSpec {
        ObjectSpec::new(
            ObjectId::new(id),
            size,
            ImportanceCurve::Fixed {
                importance: imp(importance),
                expiry: days(expiry_days),
            },
        )
    }

    /// Every stream-head key the index derives from its dense columns must
    /// equal the key computed directly from the stored object — across
    /// expired, settled and shape-group homes, including rejuvenated
    /// annotations (`annotated_at != arrival`).
    #[test]
    fn index_derived_keys_match_the_object_oracle() {
        let now = SimTime::ZERO + days(20);
        let mut unit = StorageUnit::new(mib(1000));
        let two_step = |id: u64| {
            ObjectSpec::new(
                ObjectId::new(id),
                mib(1),
                ImportanceCurve::two_step(imp(0.8), days(15), days(15)),
            )
        };
        unit.store(fixed_spec(1, mib(1), 0.9, 10), SimTime::ZERO)
            .unwrap(); // expired by day 20
        unit.store(fixed_spec(2, mib(1), 0.9, 3650), SimTime::ZERO)
            .unwrap(); // mid-plateau group member
        unit.store(two_step(3), SimTime::ZERO).unwrap(); // mid-wane
        unit.store(two_step(4), SimTime::ZERO + days(2)).unwrap();
        unit.store(
            ObjectSpec::new(ObjectId::new(5), mib(1), ImportanceCurve::Persistent),
            SimTime::ZERO,
        )
        .unwrap(); // settled
        unit.store(
            ObjectSpec::new(ObjectId::new(6), mib(1), ImportanceCurve::Ephemeral),
            SimTime::ZERO,
        )
        .unwrap(); // expired immediately
        unit.rejuvenate(
            ObjectId::new(4),
            ImportanceCurve::two_step(imp(0.8), days(15), days(15)),
            SimTime::ZERO + days(10),
        )
        .unwrap(); // annotated_at != arrival
        unit.advance(now);

        let mut seen = 0;
        for sid in 0..unit.index.stream_count() {
            let mut cursor = unit.index.stream_head(sid, now);
            while let Some((key, expired, slot, resume)) = cursor {
                let object = unit.objects.at(slot);
                assert_eq!(key, eviction_key(object, now), "stream {sid}");
                assert_eq!(expired, object.is_expired(now), "stream {sid}");
                seen += 1;
                cursor = unit.index.stream_next_head(sid, resume, now);
            }
        }
        assert_eq!(seen, unit.len(), "every resident visited exactly once");
    }

    #[test]
    fn stores_into_free_space_without_eviction() {
        let mut unit = StorageUnit::new(mib(100));
        let out = unit
            .store(fixed_spec(1, mib(40), 1.0, 30), SimTime::ZERO)
            .unwrap();
        assert!(out.evicted.is_empty());
        assert_eq!(out.highest_preempted, None);
        assert_eq!(unit.used(), mib(40));
        assert_eq!(unit.free(), mib(60));
        assert_eq!(unit.len(), 1);
        assert!(unit.contains(ObjectId::new(1)));
    }

    #[test]
    fn rejects_zero_sized_and_oversized_and_duplicate() {
        let mut unit = StorageUnit::new(mib(100));
        assert!(matches!(
            unit.store(fixed_spec(1, ByteSize::ZERO, 1.0, 1), SimTime::ZERO),
            Err(StoreError::EmptyObject(_))
        ));
        assert!(matches!(
            unit.store(fixed_spec(1, mib(200), 1.0, 1), SimTime::ZERO),
            Err(StoreError::TooLarge { .. })
        ));
        unit.store(fixed_spec(1, mib(10), 1.0, 1), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            unit.store(fixed_spec(1, mib(10), 1.0, 1), SimTime::ZERO),
            Err(StoreError::DuplicateId(_))
        ));
        assert_eq!(unit.stats().rejections_too_large, 1);
    }

    #[test]
    fn preempts_strictly_lower_importance_only() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(60), 0.5, 365), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(2, mib(40), 0.9, 365), SimTime::ZERO)
            .unwrap();

        // Equal importance (0.5) cannot preempt the 0.5 object.
        let err = unit
            .store(fixed_spec(3, mib(50), 0.5, 365), SimTime::ZERO)
            .unwrap_err();
        match err {
            StoreError::Full { blocking, .. } => {
                assert_eq!(blocking, Some(imp(0.5)));
            }
            other => panic!("expected Full, got {other:?}"),
        }

        // Higher importance (0.7) preempts the 0.5 object but not the 0.9.
        let out = unit
            .store(fixed_spec(4, mib(50), 0.7, 365), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].id, ObjectId::new(1));
        assert_eq!(out.highest_preempted, Some(imp(0.5)));
        assert!(unit.contains(ObjectId::new(2)));
        assert!(unit.contains(ObjectId::new(4)));
    }

    #[test]
    fn full_importance_objects_are_never_preempted() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(100), 1.0, 365), SimTime::ZERO)
            .unwrap();
        let err = unit
            .store(fixed_spec(2, mib(1), 1.0, 365), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, StoreError::Full { .. }));
        assert_eq!(unit.stats().rejections_full, 1);
    }

    #[test]
    fn expired_objects_are_preemptible_by_anything() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(100), 1.0, 10), SimTime::ZERO)
            .unwrap();
        // After expiry, even an ephemeral (importance-0) object can displace it.
        let later = SimTime::from_days(11);
        let spec = ObjectSpec::new(ObjectId::new(2), mib(50), ImportanceCurve::Ephemeral);
        let out = unit.store(spec, later).unwrap();
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].importance_at_eviction, Importance::ZERO);
        assert_eq!(out.highest_preempted, Some(Importance::ZERO));
        // The outcome still scores zero for placement.
        assert_eq!(out.placement_score(), Importance::ZERO);
    }

    #[test]
    fn victims_are_taken_in_increasing_importance_order() {
        let mut unit = StorageUnit::new(mib(90));
        unit.store(fixed_spec(1, mib(30), 0.2, 365), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(2, mib(30), 0.6, 365), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(3, mib(30), 0.4, 365), SimTime::ZERO)
            .unwrap();

        // Needs 60 MiB: should take 0.2 then 0.4, leaving 0.6 resident.
        let out = unit
            .store(fixed_spec(4, mib(60), 0.9, 365), SimTime::ZERO)
            .unwrap();
        let evicted: Vec<u64> = out.evicted.iter().map(|r| r.id.raw()).collect();
        assert_eq!(evicted, vec![1, 3]);
        assert_eq!(out.highest_preempted, Some(imp(0.4)));
        assert!(unit.contains(ObjectId::new(2)));
    }

    #[test]
    fn equal_importance_ties_break_by_remaining_lifetime() {
        let mut unit = StorageUnit::new(mib(60));
        // Same importance, different expiries.
        unit.store(fixed_spec(1, mib(30), 0.5, 100), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(2, mib(30), 0.5, 10), SimTime::ZERO)
            .unwrap();
        let out = unit
            .store(fixed_spec(3, mib(30), 0.8, 365), SimTime::ZERO)
            .unwrap();
        // Object 2 expires sooner, so it goes first.
        assert_eq!(out.evicted[0].id, ObjectId::new(2));
        assert!(unit.contains(ObjectId::new(1)));
    }

    #[test]
    fn never_expiring_objects_sort_after_expiring_peers() {
        let mut unit = StorageUnit::new(mib(60));
        let persistent_low = ObjectSpec::new(
            ObjectId::new(1),
            mib(30),
            ImportanceCurve::Fixed {
                importance: imp(0.5),
                expiry: days(100_000),
            },
        );
        unit.store(persistent_low, SimTime::ZERO).unwrap();
        // A piecewise curve with positive tail never expires.
        let tail = crate::PiecewiseCurve::new(vec![(SimDuration::ZERO, imp(0.5))]).unwrap();
        unit.store(
            ObjectSpec::new(ObjectId::new(2), mib(30), tail.into()),
            SimTime::ZERO,
        )
        .unwrap();
        let out = unit
            .store(fixed_spec(3, mib(30), 0.9, 365), SimTime::ZERO)
            .unwrap();
        // Finite expiry (id 1) evicts before the never-expiring id 2.
        assert_eq!(out.evicted[0].id, ObjectId::new(1));
    }

    #[test]
    fn fifo_policy_never_rejects_and_evicts_oldest() {
        let mut unit = StorageUnit::builder(mib(100))
            .policy(EvictionPolicy::Fifo)
            .build();
        for (i, t) in [(1u64, 0u64), (2, 5), (3, 10)] {
            unit.store(fixed_spec(i, mib(30), 1.0, 365), SimTime::from_days(t))
                .unwrap();
        }
        // Even a zero-importance object displaces the oldest full-importance
        // one: 10 MiB free + 30 MiB from the oldest victim covers 40 MiB.
        let spec = ObjectSpec::new(ObjectId::new(4), mib(40), ImportanceCurve::Ephemeral);
        let out = unit.store(spec, SimTime::from_days(20)).unwrap();
        let evicted: Vec<u64> = out.evicted.iter().map(|r| r.id.raw()).collect();
        assert_eq!(evicted, vec![1]);
        assert_eq!(unit.stats().rejections_full, 0);

        // A second large arrival keeps consuming in FIFO order.
        let spec = ObjectSpec::new(ObjectId::new(5), mib(60), ImportanceCurve::Ephemeral);
        let out = unit.store(spec, SimTime::from_days(21)).unwrap();
        let evicted: Vec<u64> = out.evicted.iter().map(|r| r.id.raw()).collect();
        assert_eq!(evicted, vec![2, 3]);
    }

    #[test]
    fn eviction_records_capture_lifetime_achieved() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(100), 0.5, 30), SimTime::ZERO)
            .unwrap();
        let at = SimTime::from_days(12);
        let out = unit.store(fixed_spec(2, mib(50), 0.9, 30), at).unwrap();
        let rec = &out.evicted[0];
        assert_eq!(rec.lifetime_achieved(), days(12));
        assert_eq!(rec.importance_at_eviction, imp(0.5));
        assert_eq!(rec.requested_expiry, Some(days(30)));
        assert_eq!(rec.reason, EvictionReason::Preempted);
        // The unit also logged it.
        let log = unit.take_evictions();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0], *rec);
        assert!(unit.take_evictions().is_empty());
    }

    #[test]
    fn rejection_records_capture_blocking_importance() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(80), 0.6, 365), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(2, mib(20), 0.3, 365), SimTime::ZERO)
            .unwrap();
        let _ = unit.store(fixed_spec(3, mib(50), 0.4, 365), SimTime::ZERO);
        let rejections = unit.take_rejections();
        assert_eq!(rejections.len(), 1);
        assert_eq!(rejections[0].incoming_importance, imp(0.4));
        assert_eq!(rejections[0].blocking, Some(imp(0.6)));
    }

    #[test]
    fn peek_admission_matches_store_and_does_not_mutate() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(60), 0.3, 365), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(2, mib(40), 0.8, 365), SimTime::ZERO)
            .unwrap();

        let before = unit.used();
        let peek = unit.peek_admission(mib(50), imp(0.5), SimTime::ZERO);
        assert_eq!(unit.used(), before);
        match peek {
            Admission::Preempting {
                highest,
                victims,
                freed,
            } => {
                assert_eq!(highest, imp(0.3));
                assert_eq!(victims, 1);
                assert_eq!(freed, mib(60));
            }
            other => panic!("expected Preempting, got {other:?}"),
        }

        let full = unit.peek_admission(mib(50), imp(0.2), SimTime::ZERO);
        assert!(matches!(full, Admission::Full { .. }));
        assert!(matches!(
            unit.peek_admission(mib(500), imp(1.0), SimTime::ZERO),
            Admission::TooLarge
        ));
        // With zero free space, a 0.1-importance object cannot displace the
        // resident 0.3 object — the unit is full even for 1 MiB.
        assert!(matches!(
            unit.peek_admission(mib(1), imp(0.1), SimTime::ZERO),
            Admission::Full { .. }
        ));
        // An empty unit admits into free space.
        let empty = StorageUnit::new(mib(100));
        assert!(matches!(
            empty.peek_admission(mib(1), imp(0.1), SimTime::ZERO),
            Admission::Fits { victims: 0 }
        ));

        // Store agrees with peek.
        let out = unit
            .store(fixed_spec(3, mib(50), 0.5, 365), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.highest_preempted, Some(imp(0.3)));
    }

    #[test]
    fn sweep_expired_reclaims_only_expired() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(30), 1.0, 10), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(2, mib(30), 1.0, 100), SimTime::ZERO)
            .unwrap();
        let swept = unit.sweep_expired(SimTime::from_days(50));
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].id, ObjectId::new(1));
        assert_eq!(swept[0].reason, EvictionReason::Expired);
        assert_eq!(unit.len(), 1);
        assert_eq!(unit.used(), mib(30));
        assert_eq!(unit.stats().evictions_expired, 1);
    }

    #[test]
    fn remove_returns_record() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(30), 1.0, 10), SimTime::ZERO)
            .unwrap();
        let rec = unit
            .remove(ObjectId::new(1), SimTime::from_days(3))
            .unwrap();
        assert_eq!(rec.reason, EvictionReason::Removed);
        assert_eq!(rec.lifetime_achieved(), days(3));
        assert!(unit
            .remove(ObjectId::new(1), SimTime::from_days(3))
            .is_none());
        assert_eq!(unit.stats().removals, 1);
        assert!(unit.is_empty());
    }

    #[test]
    fn rejuvenate_raises_importance_and_rejects_lowering() {
        let mut unit = StorageUnit::new(mib(100));
        let spec = ObjectSpec::new(
            ObjectId::new(1),
            mib(10),
            ImportanceCurve::two_step(Importance::FULL, days(10), days(10)),
        );
        unit.store(spec, SimTime::ZERO).unwrap();
        let mid_wane = SimTime::from_days(15); // importance 0.5

        // Lowering is refused...
        let err = unit
            .rejuvenate(ObjectId::new(1), ImportanceCurve::Ephemeral, mid_wane)
            .unwrap_err();
        assert!(matches!(err, RejuvenateError::WouldLowerImportance { .. }));

        // ...raising succeeds and restarts the curve.
        unit.rejuvenate(
            ObjectId::new(1),
            ImportanceCurve::fixed_lifetime(days(30)),
            mid_wane,
        )
        .unwrap();
        let obj = unit.get(ObjectId::new(1)).unwrap();
        assert_eq!(obj.current_importance(mid_wane), Importance::FULL);
        assert!(!obj.is_expired(SimTime::from_days(40)));
        assert!(obj.is_expired(SimTime::from_days(45)));

        // Unknown id.
        assert!(matches!(
            unit.rejuvenate(ObjectId::new(9), ImportanceCurve::Persistent, mid_wane),
            Err(RejuvenateError::NotFound(_))
        ));
    }

    #[test]
    fn reannotate_allows_demotion() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(10), 1.0, 365), SimTime::ZERO)
            .unwrap();
        unit.reannotate(ObjectId::new(1), ImportanceCurve::Ephemeral, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            unit.get(ObjectId::new(1))
                .unwrap()
                .current_importance(SimTime::ZERO),
            Importance::ZERO
        );
    }

    #[test]
    fn recording_can_be_disabled() {
        let mut unit = StorageUnit::builder(mib(10)).recording(false).build();
        unit.store(fixed_spec(1, mib(10), 0.5, 10), SimTime::ZERO)
            .unwrap();
        let _ = unit.store(fixed_spec(2, mib(10), 0.9, 10), SimTime::ZERO);
        let _ = unit.store(fixed_spec(3, mib(10), 0.1, 10), SimTime::ZERO);
        assert!(unit.take_evictions().is_empty());
        assert!(unit.take_rejections().is_empty());
        // Stats still counted.
        assert_eq!(unit.stats().evictions_preempted, 1);
        assert_eq!(unit.stats().rejections_full, 1);
    }

    #[test]
    fn used_plus_free_equals_capacity_through_churn() {
        let mut unit = StorageUnit::new(mib(100));
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            let _ = unit.store(
                fixed_spec(i, mib(1 + i % 37), (i % 10) as f64 / 10.0, 20),
                t,
            );
            t += days(1);
            assert_eq!(unit.used() + unit.free(), unit.capacity());
            let resident: ByteSize = unit.iter().map(|o| o.size()).sum();
            assert_eq!(resident, unit.used());
        }
    }

    /// One signal the engine sent, as the [`Observer`] seam delivered it.
    #[derive(Debug, PartialEq)]
    enum Signal {
        Counter(&'static str, u64),
        Gauge(&'static str),
        Sample(&'static str, u64),
        Event(&'static str, Vec<(&'static str, u64)>),
        Span(&'static str),
    }

    impl Signal {
        fn field(&self, kind: &str, field: &str) -> Option<u64> {
            match self {
                Signal::Event(k, fields) if *k == kind => {
                    fields.iter().find(|(name, _)| *name == field).map(|f| f.1)
                }
                _ => None,
            }
        }
    }

    #[derive(Debug, Default)]
    struct Ledger(std::sync::Mutex<Vec<Signal>>);

    impl Ledger {
        fn push(&self, signal: Signal) {
            self.0.lock().unwrap().push(signal);
        }
    }

    impl sim_core::Observer for Ledger {
        fn counter(&self, name: &'static str, delta: u64) {
            self.push(Signal::Counter(name, delta));
        }
        fn gauge(&self, name: &'static str, _value: u64) {
            self.push(Signal::Gauge(name));
        }
        fn record(&self, name: &'static str, value: u64) {
            self.push(Signal::Sample(name, value));
        }
        fn event(&self, _at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
            self.push(Signal::Event(kind, fields.to_vec()));
        }
        fn span(&self, name: &'static str, _wall_nanos: u64, _sim_minutes: u64) {
            self.push(Signal::Span(name));
        }
    }

    /// The emission rule of `sim_core::observe` — one fact, one signal —
    /// held two ways over a seeded churn that admits, preempts, refuses
    /// (full, oversized, duplicate), sweeps and removes: each store sends
    /// exactly its budget, and every fact a deleted repeat used to carry
    /// is still readable from the signals that remain, equal to
    /// [`UnitStats`].
    #[test]
    fn a_decision_crosses_the_observer_seam_as_one_signal() {
        use rand::Rng;

        let ledger = std::sync::Arc::new(Ledger::default());
        let obs = Obs::attached(ledger.clone());
        if !obs.is_enabled() {
            return; // obs-off: nothing crosses the seam at all.
        }
        let mut unit = StorageUnit::builder(mib(64)).observer(obs).build();
        let mut rng = sim_core::rng::seeded(20);
        let mut all = Vec::new();
        let mut sweeps = 0;
        let mut widest_plan = 0;
        for step in 0..4000u64 {
            let now = SimTime::from_minutes(step * 300);
            let mut store_outcome = None;
            match rng.gen_range(0..20u32) {
                0 => {
                    unit.sweep_expired(now);
                    sweeps += 1;
                }
                1 => {
                    unit.remove(ObjectId::new(step - rng.gen_range(1..=30).min(step)), now);
                }
                kind => {
                    let (id, size) = match kind {
                        2 => (step, mib(65)),
                        3 => (unit.iter().next().map_or(step, |o| o.id().raw()), mib(1)),
                        _ => (step, mib(rng.gen_range(1..=6))),
                    };
                    let level = imp(f64::from(rng.gen_range(1..=10u32)) / 10.0);
                    let plateau = days(rng.gen_range(1..=6));
                    let curve = ImportanceCurve::two_step(level, plateau, plateau);
                    let spec = ObjectSpec::new(ObjectId::new(id), size, curve);
                    store_outcome = Some(unit.store(spec, now));
                }
            }
            let mut sent = std::mem::take(&mut *ledger.0.lock().unwrap());
            if let Some(outcome) = store_outcome {
                // What `advance` sends is clock-keeping, not the decision.
                let decision: Vec<&Signal> = sent
                    .iter()
                    .filter(|signal| {
                        !matches!(
                            signal,
                            Signal::Gauge("engine.breakpoint_queue")
                                | Signal::Event("engine.breakpoint", _)
                        )
                    })
                    .collect();
                assert_eq!(*decision[0], Signal::Counter("engine.stores", 1));
                match outcome {
                    Ok(outcome) => {
                        let victims = outcome.evicted.len();
                        widest_plan = widest_plan.max(victims);
                        assert_eq!(decision.len(), 2 + victims, "step {step}: {decision:?}");
                        assert_eq!(
                            decision[1].field("engine.store", "victims"),
                            Some(victims as u64)
                        );
                        for evict in &decision[2..] {
                            assert_eq!(evict.field("engine.evict", "reason"), Some(0));
                        }
                    }
                    Err(StoreError::Full { .. }) => {
                        assert_eq!(decision.len(), 2, "step {step}: {decision:?}");
                        assert!(decision[1].field("engine.reject", "id").is_some());
                    }
                    // Refused before planning: only the attempt is a fact.
                    Err(_) => assert_eq!(decision.len(), 1, "step {step}: {decision:?}"),
                }
            }
            all.append(&mut sent);
        }

        let stats = *unit.stats();
        let events = |kind: &str, field: &str| -> Vec<u64> {
            all.iter().filter_map(|s| s.field(kind, field)).collect()
        };
        let reasons = events("engine.evict", "reason");
        let evicted = |reason: u64| reasons.iter().filter(|&&r| r == reason).count() as u64;
        let plans = events("engine.store", "victims");
        assert_eq!(plans.len() as u64, stats.stores_accepted);
        assert_eq!(plans.iter().sum::<u64>(), stats.evictions_preempted);
        assert_eq!(
            events("engine.reject", "id").len() as u64,
            stats.rejections_full
        );
        assert_eq!(evicted(0), stats.evictions_preempted);
        assert_eq!(evicted(1), stats.evictions_expired);
        assert_eq!(evicted(2), stats.removals);
        let (mut attempts, mut harvests) = (0, Vec::new());
        for signal in &all {
            match signal {
                Signal::Counter("engine.stores", delta) => attempts += delta,
                Signal::Sample("engine.sweep_reclaimed", reclaimed) => harvests.push(*reclaimed),
                _ => {}
            }
        }
        assert_eq!(attempts, stats.stores_attempted);
        assert_eq!(harvests.len(), sweeps);
        assert_eq!(harvests.iter().sum::<u64>(), stats.evictions_expired);

        // The churn reached every arm the budget names.
        assert!(widest_plan >= 2, "no multi-victim plan");
        assert!(stats.rejections_full > 0 && stats.rejections_too_large > 0);
        assert!(stats.stores_attempted > stats.stores_accepted + stats.rejections());
        assert!(stats.evictions_expired > 0 && stats.removals > 0);
    }
}
