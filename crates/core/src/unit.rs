//! A single storage unit with the temporal-importance reclamation engine.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, Obs, SimTime};

use crate::arena::ObjectArena;
#[cfg(test)]
use crate::engine::EvictionKey;
use crate::engine::{EngineIndex, Head};
use crate::error::{RejuvenateError, RestoreError, StoreError};
use crate::protocol::AnnotateMode;
use crate::records::{Admission, EvictionReason, EvictionRecord, StoreOutcome, UnitStats};
use crate::{EvictionPolicy, Importance, ImportanceCurve, ObjectId, ObjectSpec, StoredObject};

/// A storage unit of fixed capacity holding temporally-annotated objects.
///
/// This is the paper's core mechanism (§3): objects carry an importance
/// curve, and an incoming object may preempt stored objects of strictly
/// lower *current* importance. The unit appears **full** to an object when
/// even preempting every strictly-less-important object would not make
/// room — so fullness is relative to importance, which is what the
/// storage importance density metric
/// ([`Request::Density`](crate::protocol::Request::Density)) quantifies.
///
/// A unit is changed only through
/// [`StoreApi`](crate::protocol::StoreApi): storing, advising, removing,
/// annotating, sweeping and reading the density are
/// [`Request`](crate::protocol::Request)s answered by `call`. Its
/// inherent methods move the clock ([`advance`](StorageUnit::advance))
/// and read state.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimDuration, SimTime};
/// use temporal_importance::protocol::StoreApi;
/// use temporal_importance::{Importance, ImportanceCurve, ObjectId, StorageUnit};
///
/// let mut unit = StorageUnit::new(ByteSize::from_mib(100));
/// let curve = ImportanceCurve::two_step(
///     Importance::FULL,
///     SimDuration::from_days(15),
///     SimDuration::from_days(15),
/// );
/// let outcome = unit.put(ObjectId::new(0), ByteSize::from_mib(60), curve, SimTime::ZERO)?;
/// assert!(outcome.evicted.is_empty());
/// assert_eq!(unit.used(), ByteSize::from_mib(60));
/// # Ok::<(), temporal_importance::Error>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StorageUnit {
    capacity: ByteSize,
    used: ByteSize,
    policy: EvictionPolicy,
    objects: ObjectArena,
    stats: UnitStats,
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
    /// Instrumentation handle. Never touches functional state: outcomes
    /// are byte-identical with or without an observer attached.
    /// Deserialized units come back silent (re-attach explicitly).
    #[serde(skip)]
    obs: Obs,
}

/// Builds a [`StorageUnit`], the single construction path for every
/// configuration: policy and the observability hook.
///
/// # Examples
///
/// ```
/// use sim_core::ByteSize;
/// use temporal_importance::{EvictionPolicy, StorageUnit};
///
/// let unit = StorageUnit::builder(ByteSize::from_gib(1))
///     .policy(EvictionPolicy::Fifo)
///     .build();
/// assert_eq!(unit.policy(), EvictionPolicy::Fifo);
/// ```
#[derive(Debug, Clone)]
#[must_use = "call .build() to create the unit"]
pub struct StorageUnitBuilder {
    capacity: ByteSize,
    policy: EvictionPolicy,
    obs: Option<Obs>,
}

impl StorageUnitBuilder {
    /// Sets the eviction policy (default: [`EvictionPolicy::Preemptive`],
    /// the paper's mechanism).
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Inert: the unit keeps no per-event log to switch on or off; every
    /// eviction and refusal is returned by the call that caused it. Kept
    /// only because `bench_stack`'s engine workload still calls it, and
    /// deleted together with that call.
    #[doc(hidden)]
    pub fn recording(self, _recording: bool) -> Self {
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
            index: EngineIndex::for_policy(self.policy),
            scratch: PlanScratch::default(),
            last_queue_depth: None,
            obs: self.obs.unwrap_or_else(Obs::global),
        }
    }

    /// Builds the unit from externally persisted state: the lifetime
    /// counters plus every live object, exactly as a durable backend
    /// recovers them from its log.
    ///
    /// The restored unit is indistinguishable from one that arrived at the
    /// same `(stats, objects)` through live operations: occupancy is
    /// recomputed from the objects, and the incremental indexes rebuild
    /// lazily on the next [`advance`](StorageUnit::advance) (exactly as
    /// after deserialization). Its lifetime history is `stats` alone.
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

/// Reusable buffers for planning and sweeping. Victim lists and the merge
/// heads live here across operations, so a steady churn of stores reuses
/// their capacity instead of allocating per call.
///
/// With a handful of live heads (the expired set, the settled set, one
/// per curve family) and most plans consuming one or two victims, a flat
/// array scanned for its minimum beats a binary heap: seeding is plain
/// appends and each extraction is a short, branch-predictable pass.
#[derive(Debug, Clone, Default)]
struct PlanScratch {
    victims: Vec<ObjectId>,
    heads: Vec<Head>,
    sweep_ids: Vec<ObjectId>,
    /// Heads evaluated by the plans computed into this scratch, and how
    /// many of them a family activated mid-merge.
    #[cfg(test)]
    evaluated: usize,
    #[cfg(test)]
    activations: usize,
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

/// The admission preview a plan computed into `scratch` amounts to.
fn admission(result: PlanResult, scratch: &PlanScratch) -> Admission {
    match result {
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
    /// Every verb does this first and then acts at the unit's clock,
    /// `max(now, clock)`: time travels forward only, so a call with a
    /// `now` earlier than the latest one seen acts at that latest instant.
    /// Calling `advance` directly is never needed for correctness; it
    /// only moves the clock (and the breakpoint work) ahead of the next
    /// verb.
    pub fn advance(&mut self, now: SimTime) {
        if self.index.len() != self.objects.len() {
            self.index
                .rebuild(&mut self.objects, now, self.policy == EvictionPolicy::Fifo);
        } else {
            self.index.advance(&self.objects, now, &self.obs);
        }
        let depth = self.index.events_len() as u64;
        if self.last_queue_depth != Some(depth) {
            self.obs.gauge("engine.breakpoint_queue", depth);
            self.last_queue_depth = Some(depth);
        }
    }

    /// Advances to `now` and returns the instant a verb acts at: `now`, or
    /// the clock when `now` is behind it.
    pub(crate) fn act_at(&mut self, now: SimTime) -> SimTime {
        self.advance(now);
        self.index.clock()
    }

    /// True when the index answers queries at `now` exactly: it covers all
    /// objects and time has not moved past unprocessed breakpoints. Holds
    /// at every instant [`act_at`](StorageUnit::act_at) returns.
    fn index_fresh(&self, now: SimTime) -> bool {
        self.index.len() == self.objects.len()
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
    pub(crate) fn store(
        &mut self,
        spec: ObjectSpec,
        now: SimTime,
    ) -> Result<StoreOutcome, StoreError> {
        let now = self.act_at(now);
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
        let (group, curve) = self.index.intern(spec.curve());
        let slot = self
            .objects
            .insert(StoredObject::sharing(spec, curve, now))
            .slot();
        self.index.insert(slot, self.objects.at(slot), group);

        Ok(StoreOutcome {
            id,
            evicted,
            highest_preempted: plan.highest,
        })
    }

    /// Previews the admission decision for an object of the given size and
    /// incoming importance, changing no resident: like every verb it only
    /// advances the clock to `now` first.
    ///
    /// This is the probe the §5.3 distributed placement algorithm sends to
    /// candidate units: it reports the *highest importance object that will
    /// be preempted* as the placement score.
    pub(crate) fn peek_admission(
        &mut self,
        size: ByteSize,
        incoming: Importance,
        now: SimTime,
    ) -> Admission {
        let now = self.act_at(now);
        self.obs.counter("engine.peeks", 1);
        if size.is_zero() || size > self.capacity {
            return Admission::TooLarge;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.plan(size, incoming, now, &mut scratch);
        let answer = admission(result, &scratch);
        self.scratch = scratch;
        answer
    }

    /// Explicitly removes an object (e.g. user deletion), returning its
    /// eviction record.
    pub(crate) fn remove(&mut self, id: ObjectId, now: SimTime) -> Option<EvictionRecord> {
        let now = self.act_at(now);
        if !self.objects.contains(id) {
            return None;
        }
        self.stats.removals += 1;
        Some(self.evict(id, now, EvictionReason::Removed))
    }

    /// Reclaims every expired object, returning their records.
    ///
    /// The engine does not require this — expired bytes are preemptible by
    /// any incoming object — but an explicit sweep keeps
    /// [`used`](StorageUnit::used) meaningful for dashboards and mirrors
    /// the delete-optimized grouping of Douglis et al. that §2 discusses.
    pub(crate) fn sweep_expired(&mut self, now: SimTime) -> Vec<EvictionRecord> {
        let _span = self.obs.span("span.engine.sweep");
        let now = self.act_at(now);
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(self.index_fresh(now));
        self.index.expired_ids(now, &mut scratch.sweep_ids);
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

    /// Gives a stored object a new annotation whose age restarts at `now`.
    /// Under [`AnnotateMode::Raise`] this is the "active intervention by
    /// the user" §3 requires for raising importance, so the new curve may
    /// not start below the object's current importance; under
    /// [`AnnotateMode::Replace`] it may, as in the §6 "trigger" scenario
    /// (a backup completed, so the local copy's importance can drop).
    ///
    /// # Errors
    ///
    /// * [`RejuvenateError::NotFound`] — no such object.
    /// * [`RejuvenateError::WouldLowerImportance`] — under `Raise`, the
    ///   new curve starts below the object's current importance.
    pub(crate) fn annotate(
        &mut self,
        id: ObjectId,
        curve: ImportanceCurve,
        mode: AnnotateMode,
        now: SimTime,
    ) -> Result<(), RejuvenateError> {
        let now = self.act_at(now);
        let slot = self
            .objects
            .lookup(id)
            .ok_or(RejuvenateError::NotFound(id))?
            .slot();
        if mode == AnnotateMode::Raise {
            let current = self.objects.at(slot).current_importance(now);
            let proposed = curve.initial_importance();
            if proposed < current {
                return Err(RejuvenateError::WouldLowerImportance { current, proposed });
            }
        }
        // The index takes the object out, the object changes, and the
        // index puts it back and lets go of the old shape's group if no
        // resident holds that shape any more.
        let object = self.objects.at_mut(slot);
        if !self.index.take_out(slot, object) {
            object.rejuvenate(Arc::new(curve), now);
            return Ok(());
        }
        let (group, shared) = self.index.intern(&curve);
        let old = object.rejuvenate(shared, now);
        self.index.register(slot, object, group);
        self.index.release(&old);
        Ok(())
    }

    fn evict(&mut self, id: ObjectId, now: SimTime, reason: EvictionReason) -> EvictionRecord {
        let (slot, object) = self
            .objects
            .remove_entry(id)
            .expect("evict called with resident id");
        self.index.remove(slot, &object);
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
        record
    }

    /// Computes the set of victims needed to fit `size` bytes for an
    /// object entering with importance `incoming`, over an index that is
    /// fresh at `now`. Victim ids accumulate into `scratch.victims`
    /// (cleared first).
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
        debug_assert!(self.index_fresh(now));
        match self.policy {
            EvictionPolicy::Preemptive => self.plan_indexed(size, incoming, now, scratch),
            EvictionPolicy::Fifo => self.plan_indexed_fifo(size, now, scratch),
        }
    }

    /// Preemption planning over the incremental indexes: a lazy tournament
    /// over the expired set, the settled set and each curve family's
    /// groups, all already in eviction order, stopping as soon as enough
    /// bytes are freed. A family enters with its first group; popping the
    /// original head of its most recently activated group activates the
    /// next. Evaluates `O(families + victims)` heads, not one per shape.
    fn plan_indexed(
        &self,
        size: ByteSize,
        incoming: Importance,
        now: SimTime,
        scratch: &mut PlanScratch,
    ) -> PlanResult {
        self.index.seed_heads(now, &mut scratch.heads);
        #[cfg(test)]
        {
            scratch.evaluated += scratch.heads.len();
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
                .min_by(|(_, a), (_, b)| a.key.cmp(&b.key))
                .map(|(i, _)| i)
            else {
                // Every candidate consumed and still not enough room.
                return PlanResult::Full {
                    blocking,
                    reclaimable: freed,
                };
            };
            let head = scratch.heads[best];
            let (next, activated) = self.index.successors(&head, now);
            #[cfg(test)]
            {
                scratch.evaluated += usize::from(next.is_some()) + usize::from(activated.is_some());
                scratch.activations += usize::from(activated.is_some());
            }
            match next {
                Some(next) => scratch.heads[best] = next,
                None => {
                    scratch.heads.swap_remove(best);
                }
            }
            scratch.heads.extend(activated);
            let Head {
                key, expired, slot, ..
            } = head;
            if key.importance < incoming || expired {
                scratch.victims.push(key.id);
                freed += self.objects.at(slot).size();
                highest = Some(match highest {
                    Some(h) => h.max(key.importance),
                    None => key.importance,
                });
            } else {
                // First blocker carries the minimum non-preemptible
                // importance; everything still in the merge, or waiting
                // to enter it, sorts after it.
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
    /// Every resident is a candidate, so any `size` up to the capacity
    /// fits.
    fn plan_indexed_fifo(
        &self,
        size: ByteSize,
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
        debug_assert!(free + freed >= size, "FIFO frees up to the capacity");
        PlanResult::Admit(Plan { freed, highest })
    }

    /// The unit's instrumentation handle, shared with the sibling modules
    /// (density sampling) that extend `StorageUnit`.
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The weighted importance sum `Σ size·L(now)` of the residents, read
    /// from the index's accumulators at the instant `now` acts at.
    pub(crate) fn weighted_importance(&mut self, now: SimTime) -> f64 {
        let now = self.act_at(now);
        debug_assert!(self.index_fresh(now));
        self.index.weighted_importance(now)
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

    /// Where `object`'s plateau ends: the instant its family orders it by.
    fn plateau_end(object: &StoredObject) -> SimTime {
        let plateau = match *object.curve() {
            ImportanceCurve::TwoStep { persist, .. }
            | ImportanceCurve::ExpDecay { persist, .. } => persist,
            ImportanceCurve::Fixed { expiry, .. } => expiry,
            _ => SimDuration::ZERO,
        };
        object.annotated_at() + plateau
    }

    /// Every stream-head key the index derives from its dense columns must
    /// equal the key computed directly from the stored object — across
    /// expired, settled and shape-group homes, including rejuvenated
    /// annotations (`annotated_at != arrival`), a zero-wane curve on its
    /// finalize minute and a never-expiring curve's flat first segment.
    /// Every stream's keys strictly increase. Each curve family's groups,
    /// walked in the order of its list, have strictly increasing head keys,
    /// and all its members, ordered by `(plateau end, arrival, id)`, have
    /// strictly increasing keys: at plateau ends, mid-wane and expiry
    /// instants alike.
    #[test]
    fn index_derived_keys_match_the_object_oracle() {
        let mut unit = StorageUnit::new(mib(1000));
        let store = |unit: &mut StorageUnit, id: u64, curve: ImportanceCurve, day: u64| {
            let spec = ObjectSpec::new(ObjectId::new(id), mib(1), curve);
            unit.store(spec, SimTime::from_days(day)).unwrap();
        };
        let fixed = |expiry| ImportanceCurve::Fixed {
            importance: imp(0.9),
            expiry: days(expiry),
        };
        let two_step = |plateau| ImportanceCurve::two_step(imp(0.8), days(plateau), days(15));
        let step = |plateau| ImportanceCurve::two_step(imp(0.5), days(plateau), SimDuration::ZERO);
        let exp = |plateau| ImportanceCurve::exp_decay(imp(0.7), days(plateau), days(20), days(5));
        let flat = || -> ImportanceCurve {
            let points = vec![
                (days(0), imp(0.6)),
                (days(10), imp(0.6)),
                (days(20), imp(0.3)),
            ];
            crate::PiecewiseCurve::new(points).unwrap().into()
        };
        store(&mut unit, 1, fixed(10), 0); // expired by day 10
        store(&mut unit, 2, fixed(3650), 0);
        store(&mut unit, 7, fixed(25), 0);
        store(&mut unit, 3, two_step(15), 0);
        store(&mut unit, 9, two_step(20), 0);
        store(&mut unit, 11, step(18), 0); // finalize minute at day 18
        store(&mut unit, 13, step(30), 0);
        store(&mut unit, 14, exp(4).unwrap(), 0);
        store(&mut unit, 5, ImportanceCurve::Persistent, 0); // settled
        store(&mut unit, 6, ImportanceCurve::Ephemeral, 0); // expired at once
        store(&mut unit, 17, flat(), 0);
        store(&mut unit, 8, two_step(5), 1);
        store(&mut unit, 18, flat(), 1);
        store(&mut unit, 15, exp(8).unwrap(), 1);
        store(&mut unit, 4, two_step(15), 2);
        store(&mut unit, 12, step(16), 2); // same plateau end as 11
        store(&mut unit, 10, two_step(12), 3);
        store(&mut unit, 16, exp(1).unwrap(), 5);
        let rejuvenated = SimTime::from_days(10);
        unit.annotate(
            ObjectId::new(4),
            two_step(15),
            AnnotateMode::Raise,
            rejuvenated,
        )
        .unwrap();
        unit.annotate(
            ObjectId::new(10),
            two_step(2),
            AnnotateMode::Raise,
            rejuvenated,
        )
        .unwrap();
        unit.annotate(ObjectId::new(17), flat(), AnnotateMode::Raise, rejuvenated)
            .unwrap(); // annotated after 18, arrived before it

        let minute = SimDuration::MINUTE;
        let instants = [
            rejuvenated,
            SimTime::from_days(12),          // id 10's plateau ends
            SimTime::from_days(16),          // mid-wane
            SimTime::from_days(18),          // ids 11 and 12 finalize
            SimTime::from_days(18) + minute, // ... into the expired set
            SimTime::from_days(20),          // id 9's plateau ends
            SimTime::from_days(21),          // id 8 expires
            SimTime::from_days(25),          // id 7 expires
            SimTime::from_days(26),          // id 16 expires
            SimTime::from_days(31),
        ];
        let (mut finalized, mut widest) = (false, 0);
        for now in instants {
            unit.advance(now);
            let streams = unit.index.all_streams(now);
            let mut seen = 0;
            for (stream, heads) in streams.iter().enumerate() {
                let keys: Vec<EvictionKey> = heads.iter().map(|head| head.key).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "stream {stream}");
                for head in heads {
                    let object = unit.objects.at(head.slot);
                    assert_eq!(head.key, eviction_key(object, now), "stream {stream}");
                    assert_eq!(head.expired, object.is_expired(now), "stream {stream}");
                    finalized |= head.expired && !head.key.importance.is_zero();
                    seen += 1;
                }
            }
            assert_eq!(seen, unit.len(), "every resident visited exactly once");

            for groups in unit.index.family_groups() {
                let group = |g: u32| &streams[2 + g as usize];
                let heads: Vec<EvictionKey> = groups.iter().map(|&g| group(g)[0].key).collect();
                assert!(heads.windows(2).all(|w| w[0] < w[1]), "{heads:?} at {now}");
                let mut members: Vec<&StoredObject> = groups
                    .iter()
                    .flat_map(|&g| group(g))
                    .map(|head| unit.objects.at(head.slot))
                    .collect();
                members.sort_by_key(|o| (plateau_end(o), o.arrival(), o.id()));
                let keys: Vec<EvictionKey> = members.iter().map(|o| eviction_key(o, now)).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?} at {now}");
                widest = widest.max(groups.len());
            }
        }
        assert!(
            finalized,
            "no zero-wane curve was seen on its finalize minute"
        );
        assert!(widest >= 3, "no family held three groups");
    }

    /// A plan over one family of 500 shapes evaluates the family's head,
    /// one head per victim and one per activated group — not one head per
    /// shape, as a merge over every group would — and takes the seven
    /// residents whose plateaus ended first, earliest first: residents
    /// wane at one rate, so the earliest plateau end is the lowest
    /// importance. `tests/planner_oracle.rs` plans the same unit against
    /// the list-scan model.
    #[test]
    fn a_plan_evaluates_heads_per_family_not_per_shape() {
        const OBJECTS: u64 = 500;
        let now = SimTime::from_days(12);
        let mut unit = StorageUnit::new(mib(OBJECTS));
        for i in 0..OBJECTS {
            // Distinct plateaus, scrambled against arrival order.
            let plateau = days(1) + SimDuration::from_hours((i * 263) % OBJECTS);
            let curve = ImportanceCurve::two_step(imp(0.6), plateau, days(30));
            let spec = ObjectSpec::new(ObjectId::new(i), mib(1), curve);
            unit.store(spec, SimTime::from_minutes(7 * i)).unwrap();
        }
        unit.advance(now);
        let mut scratch = PlanScratch::default();
        let admitted = |result| matches!(result, PlanResult::Admit(_));
        assert!(admitted(unit.plan(mib(7), imp(0.7), now, &mut scratch)));
        assert_eq!(unit.index.family_groups().len(), 1);
        // Plateau ends 24.0, 44.0, 44.8, 45.5, 46.3, 47.1 and 47.9 hours.
        let earliest_ends = [0, 154, 135, 116, 97, 78, 59].map(ObjectId::new);
        assert_eq!(scratch.victims, earliest_ends);
        let (victims, activations) = (scratch.victims.len(), scratch.activations);
        assert_eq!(victims, 7);
        assert!(activations > 0, "the merge never activated a group");
        assert!(
            scratch.evaluated <= 2 + 1 + victims + activations,
            "{} heads evaluated for {victims} victims and {activations} activations",
            scratch.evaluated
        );
    }

    /// The breakpoint window opens at the clock, not at the earliest
    /// pending breakpoint, and its sorted run reaches only to the clock's
    /// bucket. One 30-day breakpoint, then 5,000 stores ten minutes apart
    /// with lifetimes from one hour to five days: after every store the
    /// open window holds only breakpoints of the window the clock is in,
    /// never the later ones a window opened at the 30-day breakpoint would
    /// take in, and only those of the clock's bucket are sorted.
    #[test]
    fn the_breakpoint_window_holds_only_the_clocks_window() {
        use crate::engine::{BUCKET_MINUTES, WINDOW_MINUTES};

        const LIFETIME_HOURS: [u64; 5] = [1, 3, 8, 24, 120];
        let mut unit = StorageUnit::new(mib(10_000));
        unit.store(fixed_spec(0, mib(1), 0.9, 30), SimTime::ZERO)
            .unwrap();
        let mut widest = 0;
        for i in 1..=5_000 {
            let now = SimTime::from_minutes(10 * i);
            let hours = LIFETIME_HOURS[i as usize % LIFETIME_HOURS.len()];
            let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_hours(hours));
            unit.store(ObjectSpec::new(ObjectId::new(i), mib(1), curve), now)
                .unwrap();
            let (run, later) = unit.index.window_fires();
            let window = now.as_minutes() / WINDOW_MINUTES;
            assert!(
                run.iter()
                    .chain(&later)
                    .all(|fire| fire.as_minutes() / WINDOW_MINUTES == window),
                "at {now}: {run:?} {later:?}"
            );
            let bucket = now.as_minutes() / BUCKET_MINUTES;
            assert!(
                run.iter()
                    .all(|fire| fire.as_minutes() / BUCKET_MINUTES <= bucket),
                "at {now}: {run:?}"
            );
            widest = widest.max(run.len() + later.len());
        }
        let thirty = unit.get(ObjectId::new(0)).unwrap();
        assert!(
            thirty.is_expired(unit.index.clock()),
            "the 30-day breakpoint never fired"
        );
        assert!(widest > 0, "no window ever opened");
        // A store every ten minutes schedules at most this many per window
        // for each lifetime.
        let per_window = WINDOW_MINUTES / 10 + 1;
        assert!(
            widest as u64 <= LIFETIME_HOURS.len() as u64 * per_window,
            "{widest} entries"
        );
    }

    /// The index is fresh at the clock after every verb: a seeded churn
    /// of the benchmark's curve palette with removes, sweeps,
    /// reannotations, probes and week-long clock jumps, and no `advance`
    /// of its own, leaves `index_fresh(now)` true after each step, and
    /// most probes plan. `tests/planner_oracle.rs` runs the same churn
    /// against the list-scan model.
    #[test]
    fn every_verb_leaves_the_index_fresh() {
        use rand::Rng;

        let mut unit = StorageUnit::new(mib(192));
        let mut rng = sim_core::rng::seeded(37);
        let (mut now, mut planned) = (SimTime::ZERO, 0);
        for step in 0..3_000u64 {
            now += match rng.gen_range(0..60u32) {
                0 => days(7),
                _ => SimDuration::from_minutes(rng.gen_range(0..400)),
            };
            let curve = match rng.gen_range(0..10u32) {
                0..=3 => ImportanceCurve::two_step(Importance::FULL, days(15), days(15)),
                4..=5 => ImportanceCurve::Fixed {
                    importance: imp(0.2 * f64::from(rng.gen_range(2..=4u32))),
                    expiry: days(10 * rng.gen_range(1..=3)),
                },
                6 => ImportanceCurve::two_step(imp(0.6), days(5), days(25)),
                7..=8 => ImportanceCurve::fixed_lifetime(days(5 * rng.gen_range(1..=3))),
                _ => ImportanceCurve::Ephemeral,
            };
            let old = ObjectId::new(step.saturating_sub(rng.gen_range(1..=40)));
            match step % 25 {
                0 => drop(unit.sweep_expired(now)),
                1 => drop(unit.remove(old, now)),
                2 => drop(unit.annotate(old, curve, AnnotateMode::Replace, now)),
                _ => {
                    let spec = ObjectSpec::new(ObjectId::new(step), mib(1 + step % 4), curve);
                    drop(unit.store(spec, now));
                }
            }
            assert!(unit.index_fresh(now), "step {step}");
            let (size, incoming) = (
                mib(rng.gen_range(1..=8)),
                imp(0.1 * f64::from(rng.gen_range(1..=10u32))),
            );
            planned += usize::from(unit.free() < size);
            unit.peek_admission(size, incoming, now);
            assert!(unit.index_fresh(now), "step {step}");
        }
        assert!(planned > 1_000, "only {planned} probes planned");
    }

    /// A zero-wane step curve expires on its plateau's last minute while
    /// it still carries the plateau's importance. Reached there by time
    /// passing, not by a store on that minute, it is swept on that minute,
    /// and an admission probe that meets a blocker first still finds it
    /// behind: ids 2 (0.3) and 1 (0.5, expired) make room for 0.35, past
    /// the 0.4 blocker. `tests/planner_oracle.rs` asks the list-scan model
    /// the same.
    #[test]
    fn a_step_curve_reached_on_its_expiry_minute_is_expired() {
        let expiry_minute = SimTime::from_days(10);
        let fill = || {
            let mut unit = StorageUnit::new(mib(30));
            let step = ImportanceCurve::two_step(imp(0.5), days(10), SimDuration::ZERO);
            let spec = ObjectSpec::new(ObjectId::new(1), mib(10), step);
            unit.store(spec, SimTime::ZERO).unwrap();
            unit.store(fixed_spec(2, mib(10), 0.3, 30), SimTime::ZERO)
                .unwrap();
            unit.store(fixed_spec(3, mib(10), 0.4, 30), SimTime::ZERO)
                .unwrap();
            unit.advance(SimTime::from_days(9));
            unit.advance(expiry_minute);
            unit
        };
        let mut unit = fill();
        let expected = Admission::Preempting {
            highest: imp(0.5),
            victims: 2,
            freed: mib(20),
        };
        let probe = unit.peek_admission(mib(20), imp(0.35), expiry_minute);
        assert_eq!(probe, expected);
        let expired: Vec<u64> = unit
            .iter()
            .filter(|object| object.is_expired(expiry_minute))
            .map(|object| object.id().raw())
            .collect();
        assert_eq!(expired, vec![1], "full scan");
        let swept: Vec<u64> = fill()
            .sweep_expired(expiry_minute)
            .iter()
            .map(|record| record.id.raw())
            .collect();
        assert_eq!(swept, vec![1]);
    }

    /// A read at an instant whose breakpoints no verb has processed
    /// advances the unit first, and answers as a clone advanced to that
    /// instant beforehand does: `peek_admission` over the index, ties
    /// included, and `importance_density` from the accumulators.
    #[test]
    fn a_read_at_a_pending_instant_answers_as_an_advanced_clone() {
        let mut unit = StorageUnit::new(mib(100));
        let waning = ImportanceCurve::two_step(imp(0.8), days(5), days(10));
        unit.store(fixed_spec(1, mib(30), 0.3, 10), SimTime::ZERO)
            .unwrap();
        unit.store(
            ObjectSpec::new(ObjectId::new(2), mib(30), waning),
            SimTime::ZERO,
        )
        .unwrap();
        unit.store(fixed_spec(3, mib(40), 0.6, 30), SimTime::ZERO)
            .unwrap();
        // Equal importance and remaining lifetime go by arrival, not id:
        // id 5 arrived on day 0 and id 4 on day 1, both expire on day 31,
        // and only taking id 5 after the expired id 6 frees 20 MiB.
        let mut ties = StorageUnit::new(mib(40));
        ties.store(fixed_spec(5, mib(10), 0.4, 31), SimTime::ZERO)
            .unwrap();
        ties.store(fixed_spec(6, mib(10), 0.9, 5), SimTime::ZERO)
            .unwrap();
        ties.store(fixed_spec(4, mib(20), 0.4, 30), SimTime::from_days(1))
            .unwrap();
        // Ids 1 and 6 have expired and id 2 has waned since day 5: all are
        // breakpoints due at `now` that no verb has processed.
        let now = SimTime::from_days(12);
        let pending = |unit: &StorageUnit| {
            let pending = unit.clone();
            assert!(!pending.index_fresh(now));
            pending
        };
        let advanced = |unit: &StorageUnit| {
            let mut advanced = unit.clone();
            advanced.advance(now);
            assert!(advanced.index_fresh(now));
            advanced
        };
        let waned = unit.get(ObjectId::new(2)).unwrap().current_importance(now);
        assert!((waned.value() - 0.24).abs() <= 1e-12, "{waned}");

        let probes = [
            (&unit, mib(20), imp(0.5), Admission::Fits { victims: 1 }),
            (
                &unit,
                mib(50),
                imp(0.5),
                Admission::Preempting {
                    highest: waned,
                    victims: 2,
                    freed: mib(60),
                },
            ),
            (
                &unit,
                mib(90),
                imp(0.5),
                Admission::Full {
                    blocking: Some(imp(0.6)),
                },
            ),
            (
                &unit,
                mib(20),
                Importance::ZERO,
                Admission::Fits { victims: 1 },
            ),
            (
                &ties,
                mib(20),
                imp(0.5),
                Admission::Preempting {
                    highest: imp(0.4),
                    victims: 2,
                    freed: mib(20),
                },
            ),
        ];
        for (unit, size, incoming, expected) in probes {
            let mut read = pending(unit);
            let probe = read.peek_admission(size, incoming, now);
            assert!(read.index_fresh(now), "{size} at {incoming}");
            let indexed = advanced(unit).peek_admission(size, incoming, now);
            assert_eq!(probe, indexed, "{size} at {incoming}");
            assert_eq!(probe, expected, "{size} at {incoming}");
        }

        let density = pending(&unit).importance_density(now);
        assert!((density - advanced(&unit).importance_density(now)).abs() <= 1e-9);
        assert!((density - 0.312).abs() <= 1e-9, "density {density}");
    }

    /// A verb behind the clock acts at the clock: after a store on day
    /// 10, a probe, a density read, a store, a sweep and a removal all
    /// dated day 5 answer as on day 10, and the object stored "on day 5"
    /// arrives on day 10.
    #[test]
    fn a_verb_behind_the_clock_acts_at_the_clock() {
        let (day5, day10) = (SimTime::from_days(5), SimTime::from_days(10));
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(50), 0.8, 7), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(2, mib(30), 0.2, 30), day10).unwrap();
        // Id 1 expired on day 7, so on day 10 it makes room even for 0.1;
        // on day 5 it would block at 0.8.
        assert_eq!(
            unit.peek_admission(mib(60), imp(0.1), day5),
            Admission::Fits { victims: 1 }
        );
        // 30 MiB at 0.2 of 100 MiB; on day 5 id 1 would add 0.4.
        let density = unit.importance_density(day5);
        assert!((density - 0.06).abs() <= 1e-12, "{density}");
        let outcome = unit.store(fixed_spec(3, mib(20), 0.5, 30), day5).unwrap();
        assert!(outcome.evicted.is_empty());
        assert_eq!(unit.get(ObjectId::new(3)).unwrap().arrival(), day10);
        let swept = unit.sweep_expired(day5);
        assert_eq!(swept.len(), 1);
        assert_eq!(
            (swept[0].id, swept[0].evicted_at),
            (ObjectId::new(1), day10)
        );
        let removed = unit.remove(ObjectId::new(3), day5).unwrap();
        assert_eq!(removed.evicted_at, day10);
        assert!(unit.index_fresh(day10));
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
    }

    #[test]
    fn rejection_records_capture_blocking_importance() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(80), 0.6, 365), SimTime::ZERO)
            .unwrap();
        unit.store(fixed_spec(2, mib(20), 0.3, 365), SimTime::ZERO)
            .unwrap();
        let err = unit
            .store(fixed_spec(3, mib(50), 0.4, 365), SimTime::ZERO)
            .unwrap_err();
        match err {
            StoreError::Full {
                required, blocking, ..
            } => {
                assert_eq!(required, mib(50));
                assert_eq!(blocking, Some(imp(0.6)));
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(unit.stats().rejections_full, 1);
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
        let mut empty = StorageUnit::new(mib(100));
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
            .annotate(
                ObjectId::new(1),
                ImportanceCurve::Ephemeral,
                AnnotateMode::Raise,
                mid_wane,
            )
            .unwrap_err();
        assert!(matches!(err, RejuvenateError::WouldLowerImportance { .. }));

        // ...raising succeeds and restarts the curve.
        unit.annotate(
            ObjectId::new(1),
            ImportanceCurve::fixed_lifetime(days(30)),
            AnnotateMode::Raise,
            mid_wane,
        )
        .unwrap();
        let obj = unit.get(ObjectId::new(1)).unwrap();
        assert_eq!(obj.current_importance(mid_wane), Importance::FULL);
        assert!(!obj.is_expired(SimTime::from_days(40)));
        assert!(obj.is_expired(SimTime::from_days(45)));

        // Unknown id.
        assert!(matches!(
            unit.annotate(
                ObjectId::new(9),
                ImportanceCurve::Persistent,
                AnnotateMode::Raise,
                mid_wane
            ),
            Err(RejuvenateError::NotFound(_))
        ));
    }

    #[test]
    fn reannotate_allows_demotion() {
        let mut unit = StorageUnit::new(mib(100));
        unit.store(fixed_spec(1, mib(10), 1.0, 365), SimTime::ZERO)
            .unwrap();
        unit.annotate(
            ObjectId::new(1),
            ImportanceCurve::Ephemeral,
            AnnotateMode::Replace,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(
            unit.get(ObjectId::new(1))
                .unwrap()
                .current_importance(SimTime::ZERO),
            Importance::ZERO
        );
    }

    /// Residents of one shape share one curve allocation: after a store,
    /// a rejuvenation and a reannotation, and once the index rebuilds
    /// after a serde round trip or a restore, whose residents arrive
    /// holding a curve each.
    #[test]
    fn residents_of_one_shape_share_one_curve() {
        let shares = |unit: &StorageUnit, a: u64, b: u64| {
            let curve = |id| unit.get(ObjectId::new(id)).unwrap().curve();
            std::ptr::eq(curve(a), curve(b))
        };
        // Each resident holding an allocation of its own, as a durable
        // log or a snapshot hands them over.
        let unshared = |unit: &StorageUnit| -> Vec<StoredObject> {
            unit.iter()
                .map(|o| StoredObject::deserialize(&o.to_content()).unwrap())
                .collect()
        };
        let step = |level, plateau| ImportanceCurve::two_step(imp(level), days(plateau), days(10));
        let mut unit = StorageUnit::new(mib(100));
        for id in 0..6 {
            let spec = ObjectSpec::new(ObjectId::new(id), mib(1), step(0.5, 10));
            unit.store(spec, SimTime::from_minutes(id)).unwrap();
        }
        assert!(shares(&unit, 0, 5));
        let later = SimTime::from_days(1);
        for id in [0, 1] {
            unit.annotate(ObjectId::new(id), step(0.9, 20), AnnotateMode::Raise, later)
                .unwrap();
        }
        for id in [2, 3] {
            unit.annotate(
                ObjectId::new(id),
                step(0.1, 3),
                AnnotateMode::Replace,
                later,
            )
            .unwrap();
        }
        let pairs = [(0, 1), (2, 3), (4, 5)];
        assert!(pairs.iter().all(|&(a, b)| shares(&unit, a, b)));
        assert!(!shares(&unit, 1, 2) && !shares(&unit, 3, 4));

        let json = serde_json::to_string(&unit).unwrap();
        let mut back: StorageUnit = serde_json::from_str(&json).unwrap();
        assert!(
            !shares(&back, 0, 1),
            "a deserialized resident holds its own curve"
        );
        back.advance(later);
        assert!(pairs.iter().all(|&(a, b)| shares(&back, a, b)));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        let mut restored = StorageUnit::builder(mib(100))
            .restore(*unit.stats(), unshared(&unit))
            .unwrap();
        assert!(
            !shares(&restored, 0, 1),
            "a restored resident holds its own curve"
        );
        restored.advance(later);
        assert!(pairs.iter().all(|&(a, b)| shares(&restored, a, b)));
        assert_eq!(serde_json::to_string(&restored).unwrap(), json);
    }

    /// A shape's group lives as long as some resident holds the shape:
    /// the last one's removal, expiry sweep or new annotation frees it,
    /// and a new shape takes the freed place. Shapes whose residents live
    /// outside groups (persistent, ephemeral) add no curve family.
    #[test]
    fn a_shape_group_lives_as_long_as_its_residents() {
        let mut unit = StorageUnit::new(mib(100));
        let t0 = SimTime::ZERO;
        let store = |unit: &mut StorageUnit, id, curve| {
            let spec = ObjectSpec::new(ObjectId::new(id), mib(1), curve);
            unit.store(spec, t0).unwrap();
        };
        store(&mut unit, 0, ImportanceCurve::Persistent);
        store(&mut unit, 1, ImportanceCurve::Persistent);
        store(&mut unit, 2, ImportanceCurve::Ephemeral);
        assert_eq!(unit.index.group_count(), (2, 2));
        assert!(unit.index.family_groups().is_empty());
        let lifetime = |d| ImportanceCurve::fixed_lifetime(days(d));
        for id in 10..16 {
            store(&mut unit, id, lifetime(id));
        }
        store(&mut unit, 20, lifetime(10));
        assert_eq!(unit.index.group_count(), (8, 8));
        assert_eq!(unit.index.family_groups().len(), 1);

        unit.remove(ObjectId::new(10), t0).unwrap();
        assert_eq!(unit.index.group_count(), (8, 8), "20 holds the shape");
        unit.remove(ObjectId::new(20), t0).unwrap();
        unit.remove(ObjectId::new(0), t0).unwrap();
        unit.remove(ObjectId::new(2), t0).unwrap();
        assert_eq!(unit.index.group_count(), (6, 8));
        unit.annotate(ObjectId::new(11), lifetime(12), AnnotateMode::Replace, t0)
            .unwrap();
        assert_eq!(unit.index.group_count(), (5, 8));
        let swept = unit.sweep_expired(SimTime::from_days(13) + SimDuration::MINUTE);
        assert_eq!(swept.len(), 3);
        assert_eq!(unit.index.group_count(), (3, 8), "1, 14 and 15 are left");
        for id in 30..35 {
            store(&mut unit, id, lifetime(id));
        }
        assert_eq!(unit.index.group_count(), (8, 8), "new shapes reuse places");
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
