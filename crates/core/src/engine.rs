//! Incrementally maintained indexes over a [`StorageUnit`]'s objects.
//!
//! The naive engine re-evaluates every stored object's curve on every
//! plan/sweep/density query. This module exploits the fact that importance
//! curves are *monotone, piecewise-analytic* functions of age: each object
//! changes analytic form only at a handful of breakpoints, so the engine
//! can keep objects classified by their current form and update that
//! classification with one queue event per breakpoint.
//!
//! The index maintains, keyed off an internal clock that only moves
//! forward:
//!
//! * an **event queue** of curve breakpoints (`events`), so advancing time
//!   touches only the objects whose analytic form actually changes;
//! * an **expired set** ordered by `(arrival, id)` — exactly the naive
//!   engine's eviction order among zero-importance objects;
//! * **shape groups**: same-curve objects ordered by `(annotated_at,
//!   arrival, id)`, the storage behind the curve families below. Members
//!   of one shape arrive in annotation order, so inserts append;
//! * **curve families**: one list per family of its non-empty groups,
//!   keyed by each group's head (see *Planning* below);
//! * a **settled set** of never-expiring objects on a constant segment,
//!   ordered by `(importance bits, arrival, id)` — frozen until the
//!   segment's breakpoint, forever on the final one;
//! * **density accumulators**: the weighted importance sum decomposed into
//!   a linear part (value at a reference time plus aggregate slope) and
//!   per-half-life exponential parts, giving O(1) density reads.
//!
//! All of this is laid out over the unit's [`ObjectArena`] slots: the
//! ordered structures are [`SortedList`]s mapping eviction keys to dense
//! `u32` slots (struct-of-arrays, no per-entry allocation), and per-object
//! classification state lives in slot-indexed [`TotalMap`] columns instead
//! of an id-keyed hash map. Entry keys still end in `ObjectId` — ids are
//! the §5.3 tiebreaker — but every lookup from a candidate back to its
//! object is a vector index, not a hash probe. The iteration order of each
//! list equals the `BTreeSet` ordering it replaced, which the golden trace
//! pins.
//!
//! # Planning
//!
//! A **curve family** is a set of curves that differ only in their plateau
//! length: `TwoStep` and `ExpDecay` curves sharing importance, wane and
//! half-life, with any `persist`; `Fixed` curves sharing importance, with
//! any `expiry`. Every other curve is a family of one shape. Call a
//! member's *plateau end* `E = annotated_at + plateau`. Within a family, a
//! member's importance and remaining lifetime at `now` are functions of
//! `now − E` alone: the importance is non-increasing in it (one fixed float
//! formula of a monotone argument), and the remaining lifetime falls
//! strictly until expiry. So at every `now`, a family's members in `(E,
//! arrival, id)` order are in §5.3 eviction order: members with distinct
//! `E` differ in remaining lifetime, and members with equal `E` tie up to
//! arrival and id. That covers every object a fresh index keeps in a group:
//! not yet expired, or on a zero-wane curve's one finalize minute, where
//! all such members share `E = now`. A family of one shape is the case of
//! a fixed plateau, which is why a group's `(annotated_at, arrival, id)`
//! order needs no updates as time passes. A never-expiring curve has no
//! remaining lifetime to break ties, so its constant segments sit in the
//! settled set; on its sloped segments the importance falls strictly with
//! age (barring float ties on a slope a few ulps from flat).
//!
//! Preemption planning is a lazy tournament. Its flat merge starts with
//! the heads of the expired set, the settled set and each family's first
//! group (the one whose head has the least `(E, arrival, id)`). Every other
//! group of that family sorts after that head, so it may wait. Popping the
//! original head of a family's most recently activated group activates the
//! family's next group. A plan therefore evaluates at most `2 + families +
//! victims + activations` heads (one more if it stops at a blocker), where
//! a merge over every group would pay one head per shape: the §5.3
//! university run mints a new `persist` on every capture day. Each family's
//! list is rewritten only when a group's head changes, so a store still
//! appends to its group.
//!
//! [`StorageUnit`]: crate::StorageUnit

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use sim_core::fx::FxHashMap;
use sim_core::{Obs, SimDuration, SimTime};

use crate::arena::ObjectArena;
use crate::curve::SegmentForm;
use crate::dense::{SortedList, TotalMap};
use crate::{EvictionPolicy, Importance, ImportanceCurve, ObjectId, StoredObject};

/// The §5.3 eviction order as a total order: ascending current importance,
/// then remaining lifetime with never-expiring objects last, then arrival,
/// then id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EvictionKey {
    pub(crate) importance: Importance,
    pub(crate) never_expires: bool,
    pub(crate) remaining: u64,
    pub(crate) arrival: SimTime,
    pub(crate) id: ObjectId,
}

/// Hashable identity of a curve *family*: curves that differ at most in
/// their plateau length (floats compared by bit pattern, which is exact for
/// the validated `[0, 1]` importance range). A family together with a
/// plateau length — see [`FamilyKey::of`] — names one exact shape: two
/// objects with the same pair have pointwise-identical curves.
///
/// Within a family, a member's eviction key at `now` depends only on
/// `now - (annotated_at + plateau)`; the module docs' *Planning* section
/// has the argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FamilyKey {
    Persistent,
    Fixed { imp: u64 },
    Ephemeral,
    TwoStep { imp: u64, wane: u64 },
    ExpDecay { imp: u64, wane: u64, half_life: u64 },
    Piecewise(Vec<(u64, u64)>),
}

impl FamilyKey {
    /// The curve's family and its plateau length within it: `persist` for
    /// the step curves, `expiry` for `Fixed`, zero for the families that
    /// hold one shape.
    fn of(curve: &ImportanceCurve) -> (FamilyKey, SimDuration) {
        match curve {
            ImportanceCurve::Persistent => (FamilyKey::Persistent, SimDuration::ZERO),
            ImportanceCurve::Fixed { importance, expiry } => (
                FamilyKey::Fixed {
                    imp: importance.value().to_bits(),
                },
                *expiry,
            ),
            ImportanceCurve::Ephemeral => (FamilyKey::Ephemeral, SimDuration::ZERO),
            ImportanceCurve::TwoStep {
                importance,
                persist,
                wane,
            } => (
                FamilyKey::TwoStep {
                    imp: importance.value().to_bits(),
                    wane: wane.as_minutes(),
                },
                *persist,
            ),
            ImportanceCurve::ExpDecay {
                importance,
                persist,
                wane,
                half_life,
            } => (
                FamilyKey::ExpDecay {
                    imp: importance.value().to_bits(),
                    wane: wane.as_minutes(),
                    half_life: half_life.as_minutes(),
                },
                *persist,
            ),
            ImportanceCurve::Piecewise(curve) => (
                FamilyKey::Piecewise(
                    curve
                        .points()
                        .iter()
                        .map(|&(age, imp)| (age.as_minutes(), imp.value().to_bits()))
                        .collect(),
                ),
                SimDuration::ZERO,
            ),
        }
    }
}

/// A group's sort key: `(annotated_at, arrival, id)`. Its family's list
/// keys the group by its head's key with the plateau added to the first
/// field.
type MemberKey = (SimTime, SimTime, ObjectId);

/// Same-shape objects, in `(annotated_at, arrival, id)` order.
#[derive(Debug, Clone)]
struct ShapeGroup {
    members: SortedList<MemberKey>,
    /// A representative curve, pointwise identical to every member's
    /// (the [`FamilyKey::of`] contract), so stream heads compute exact
    /// eviction keys without touching any `StoredObject`.
    curve: ImportanceCurve,
    family: u32,
    plateau: SimDuration,
}

impl ShapeGroup {
    /// `key` as its family orders it: by the plateau-end instant.
    fn family_key(&self, (ann, arrival, id): MemberKey) -> MemberKey {
        (ann + self.plateau, arrival, id)
    }
}

/// A candidate stream of a preemption plan's merge.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Expired,
    Settled,
    Group(u32),
}

/// One stream's current head in a preemption plan's merge: the exact
/// [`EvictionKey`] and expiry status of the candidate, its slot, and the
/// cursor that continues the stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    pub(crate) key: EvictionKey,
    pub(crate) expired: bool,
    pub(crate) slot: u32,
    stream: Stream,
    resume: usize,
    /// Set only on the original head of its family's most recently
    /// activated group: the family, and the cursor of the family's next
    /// group. Popping this head activates that group.
    activates: Option<(u32, usize)>,
}

/// Which ordered candidate structure an object currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// Not indexed — the [`TotalMap`] default for unoccupied slots.
    Absent,
    /// Shape group `groups[i]`, keyed by `(annotated_at, arrival, id)`.
    Group(u32),
    /// Never-expiring curve on a constant segment, keyed by the value's
    /// bits.
    Settled(u64),
    /// Expired with importance zero, keyed by `(arrival, id)`.
    Expired,
}

/// The object's registration in the density accumulators.
#[derive(Debug, Clone, PartialEq)]
enum Registered {
    /// Identically-zero contribution; nothing registered.
    None,
    /// A constant or linear form, folded into the linear accumulator.
    Linear(SegmentForm),
    /// An exponential form, folded into the per-half-life accumulator.
    Exp {
        start: SimDuration,
        peak: f64,
        half_life: SimDuration,
    },
}

/// Breakpoint event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// The object's curve moves to its next analytic segment.
    Segment,
    /// An expired object still carries positive importance for exactly the
    /// expiry minute (a zero-wane step curve at `age == expiry`); this
    /// event retires it into the expired set one minute later. While such
    /// an event is pending, expired candidates can hide *behind*
    /// non-preemptible group members, so planning must not early-stop.
    Finalize,
}

/// A pending breakpoint in the lazy event heap: `(fire time, id, slot)`.
/// Min-ordered by `(fire, id)`; the slot rides along so a popped entry can
/// be validated against the per-slot columns without a lookup.
type EventEntry = Reverse<(SimTime, ObjectId, u32)>;

/// Neumaier-compensated running sum: keeps the density accumulators
/// accurate through millions of incremental add/remove/integrate steps.
#[derive(Debug, Clone, Copy, Default)]
struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    fn total(&self) -> f64 {
        self.sum + self.compensation
    }

    fn scale(&mut self, k: f64) {
        self.sum *= k;
        self.compensation *= k;
    }

    fn reset(&mut self) {
        *self = CompensatedSum::default();
    }
}

/// Aggregate of exponential-form contributions sharing one half-life:
/// their weighted sum decays by the same factor, so one rebase covers all.
#[derive(Debug, Clone)]
struct ExpAggregate {
    at: SimTime,
    value: CompensatedSum,
    count: usize,
}

/// The weighted-importance sum `Σ size·L(age)`, maintained incrementally.
#[derive(Debug, Clone, Default)]
struct DensityAccum {
    /// Reference time the linear part is valued at.
    at: SimTime,
    /// `Σ size·value` over constant/linear registrations, valued at `at`.
    linear_value: CompensatedSum,
    /// `Σ size·slope` (per minute) over linear registrations.
    linear_slope: CompensatedSum,
    linear_count: usize,
    /// Exponential registrations bucketed by half-life minutes.
    exp: BTreeMap<u64, ExpAggregate>,
}

impl DensityAccum {
    /// Moves the linear reference point forward to `t`.
    fn integrate_to(&mut self, t: SimTime) {
        if t > self.at {
            if self.linear_count > 0 {
                let minutes = (t - self.at).as_minutes() as f64;
                self.linear_value.add(self.linear_slope.total() * minutes);
            }
            self.at = t;
        }
    }

    fn signed_update(&mut self, reg: &Registered, size_f: f64, ann: SimTime, sign: f64) {
        match reg {
            Registered::None => {}
            Registered::Linear(form) => {
                let age = self.at.saturating_since(ann);
                self.linear_value.add(sign * size_f * form.value_at(age));
                if let SegmentForm::Linear { a0, v0, a1, v1 } = *form {
                    let per_minute = (v1 - v0) / (a1 - a0).as_minutes() as f64;
                    self.linear_slope.add(sign * size_f * per_minute);
                }
                if sign > 0.0 {
                    self.linear_count += 1;
                } else {
                    self.linear_count -= 1;
                    if self.linear_count == 0 {
                        // Exact-zero reset: an emptied accumulator reports
                        // 0.0 with no floating-point residue.
                        self.linear_value.reset();
                        self.linear_slope.reset();
                    }
                }
            }
            Registered::Exp {
                start,
                peak,
                half_life,
            } => {
                let at = self.at;
                let agg = self
                    .exp
                    .entry(half_life.as_minutes())
                    .or_insert_with(|| ExpAggregate {
                        at,
                        value: CompensatedSum::default(),
                        count: 0,
                    });
                if at > agg.at {
                    let halves = at.saturating_since(agg.at).ratio(*half_life);
                    agg.value.scale(0.5_f64.powf(halves));
                    agg.at = at;
                }
                let into_decay = at.saturating_since(ann).saturating_sub(*start);
                let halves = into_decay.ratio(*half_life);
                agg.value.add(sign * size_f * peak * 0.5_f64.powf(halves));
                if sign > 0.0 {
                    agg.count += 1;
                } else {
                    agg.count -= 1;
                    if agg.count == 0 {
                        self.exp.remove(&half_life.as_minutes());
                    }
                }
            }
        }
    }

    /// The weighted sum extrapolated to `now` (`now >= self.at`).
    fn value_at(&self, now: SimTime) -> f64 {
        let minutes = now.saturating_since(self.at).as_minutes() as f64;
        let mut total = self.linear_value.total() + self.linear_slope.total() * minutes;
        for (&half_life, agg) in &self.exp {
            let halves = now.saturating_since(agg.at).as_minutes() as f64 / half_life as f64;
            total += agg.value.total() * 0.5_f64.powf(halves);
        }
        total
    }
}

/// The incremental index over a unit's objects. Rebuilt from scratch after
/// deserialization (every field is `#[serde(skip)]` on the unit).
///
/// Ordered structures are [`SortedList`]s whose payloads are arena slots;
/// per-object classification state lives in slot-indexed [`TotalMap`]
/// columns (struct-of-arrays) so registering/unregistering an object never
/// hashes its id.
#[derive(Debug, Clone)]
pub(crate) struct EngineIndex {
    /// The time the index is classified at; only moves forward.
    clock: SimTime,
    /// Number of indexed objects.
    len: usize,
    /// Per-slot ids of indexed objects (meaningful only while the slot's
    /// `event` column is populated — it gates heap-entry validation).
    ids: TotalMap<ObjectId>,
    /// Per-slot annotation instants of indexed objects.
    ann: TotalMap<SimTime>,
    /// Per-slot arrival instants of indexed objects.
    arrival: TotalMap<SimTime>,
    /// Per-slot object sizes as floats (density weights).
    size_f: TotalMap<f64>,
    /// Per-slot candidate-structure membership.
    home: TotalMap<Home>,
    /// Per-slot density registrations.
    reg: TotalMap<Registered>,
    /// Per-slot pending breakpoint instant and kind — the authoritative
    /// record a heap entry must match to be live.
    event: TotalMap<Option<(SimTime, EventKind)>>,
    /// Pending breakpoints as a min-heap with *lazy deletion*: cancelling
    /// an event just clears the slot's `event` column, and stale heap
    /// entries are discarded when they surface. Breakpoint re-registration
    /// fire times are not monotone, so a sorted vector would pay an O(n)
    /// memmove per event; the heap pays O(log n) with no ordering
    /// assumption and still pops in exactly the `(fire, id)` order the
    /// id-keyed map used to iterate in.
    events: BinaryHeap<EventEntry>,
    /// Live (non-cancelled) event count — the breakpoint-queue gauge.
    events_live: usize,
    /// Cancelled entries still buried in `events`; when they outnumber the
    /// live ones the heap is rebuilt (amortized O(1) per cancel).
    events_stale: usize,
    /// The rare [`EventKind::Finalize`] breakpoints, keyed `(fire, id)` —
    /// kept sorted so `finalize_pending`/`expired_ids` can range-scan one
    /// minute without touching the heap.
    finalizes: SortedList<(SimTime, ObjectId)>,
    /// Expired zero-importance objects in `(arrival, id)` eviction order.
    expired: SortedList<(SimTime, ObjectId)>,
    /// All objects in `(arrival, id)` order — the FIFO eviction order.
    /// Maintained only when `track_fifo` is set.
    fifo: SortedList<(SimTime, ObjectId)>,
    /// Whether the FIFO list is kept up. Only the [`EvictionPolicy::Fifo`]
    /// planner reads it, so preemptive units skip its per-operation
    /// binary-search maintenance entirely.
    ///
    /// [`EvictionPolicy::Fifo`]: crate::EvictionPolicy::Fifo
    track_fifo: bool,
    /// Never-expiring objects on a constant segment by `(value bits,
    /// arrival, id)`.
    settled: SortedList<(u64, SimTime, ObjectId)>,
    /// Same-shape cohorts. Inserts append: members of one shape arrive
    /// in annotation order.
    groups: Vec<ShapeGroup>,
    group_ids: FxHashMap<(FamilyKey, SimDuration), u32>,
    /// Per family, its non-empty groups keyed by their head's
    /// `(annotated_at + plateau, arrival, id)`, payload the group index.
    /// Rewritten only when a group's head changes.
    families: Vec<SortedList<MemberKey>>,
    family_ids: FxHashMap<FamilyKey, u32>,
    density: DensityAccum,
}

impl Default for EngineIndex {
    fn default() -> Self {
        EngineIndex {
            clock: SimTime::ZERO,
            len: 0,
            ids: TotalMap::new(ObjectId::new(0)),
            ann: TotalMap::new(SimTime::ZERO),
            arrival: TotalMap::new(SimTime::ZERO),
            size_f: TotalMap::new(0.0),
            home: TotalMap::new(Home::Absent),
            reg: TotalMap::new(Registered::None),
            event: TotalMap::new(None),
            events: BinaryHeap::new(),
            events_live: 0,
            events_stale: 0,
            finalizes: SortedList::new(),
            expired: SortedList::new(),
            fifo: SortedList::new(),
            track_fifo: true,
            settled: SortedList::new(),
            groups: Vec::new(),
            group_ids: FxHashMap::default(),
            families: Vec::new(),
            family_ids: FxHashMap::default(),
            density: DensityAccum::default(),
        }
    }
}

impl EngineIndex {
    /// An empty index maintaining exactly the structures `policy` reads —
    /// preemptive units skip FIFO-list upkeep.
    pub(crate) fn for_policy(policy: EvictionPolicy) -> Self {
        EngineIndex {
            track_fifo: policy == EvictionPolicy::Fifo,
            ..EngineIndex::default()
        }
    }

    pub(crate) fn clock(&self) -> SimTime {
        self.clock
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of pending curve breakpoints — the depth of the index's
    /// event queue, reported as an observability gauge.
    pub(crate) fn events_len(&self) -> usize {
        self.events_live
    }

    /// True if the heap entry `(t, id, slot)` is the slot's current pending
    /// event (lazy deletion: cancelled entries fail this check).
    fn event_entry_live(&self, t: SimTime, id: ObjectId, slot: u32) -> bool {
        matches!(self.event.get(slot), Some((fire, _)) if *fire == t) && *self.ids.get(slot) == id
    }

    /// True when every breakpoint at or before `now` has been processed.
    /// O(1) via the heap minimum. Conservative: a cancelled entry that has
    /// not yet surfaced can only make this report `false` (sending a
    /// read-only caller to the full scan), never `true`; `advance` pops
    /// stale minima, so mutating call sites always see the exact answer.
    pub(crate) fn events_processed_through(&self, now: SimTime) -> bool {
        match self.events.peek() {
            None => true,
            Some(&Reverse((t, _, _))) => t > now,
        }
    }

    /// True when a [`EventKind::Finalize`] is pending for the minute after
    /// `now`, i.e. some expired object still carries positive importance.
    pub(crate) fn finalize_pending(&self, now: SimTime) -> bool {
        let at = now + SimDuration::MINUTE;
        self.finalizes
            .iter_from((at, ObjectId::new(0)))
            .take_while(|&((t, _), _)| t == at)
            .next()
            .is_some()
    }

    /// Collects into `out` the id of every expired object (importance zero
    /// *or* positive at the expiry-minute boundary), in ascending id order
    /// — the order the naive full-scan sweep evicts in. Callers pass a
    /// reusable buffer so idle sweeps allocate nothing.
    pub(crate) fn expired_ids(&self, now: SimTime, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend(self.expired.iter().map(|((_, id), _)| id));
        let at = now + SimDuration::MINUTE;
        out.extend(
            self.finalizes
                .iter_from((at, ObjectId::new(0)))
                .take_while(|&((t, _), _)| t == at)
                .map(|((_, id), _)| id),
        );
        out.sort_unstable();
    }

    /// Rebuilds the whole index at `now` (post-deserialization path).
    /// Objects are inserted in ascending id order — the same order the
    /// id-keyed map this arena replaced iterated in — so group numbering
    /// and accumulator arithmetic match a freshly grown index.
    pub(crate) fn rebuild(&mut self, objects: &ObjectArena, now: SimTime, track_fifo: bool) {
        *self = EngineIndex {
            clock: self.clock.max(now),
            track_fifo,
            ..EngineIndex::default()
        };
        self.density.at = self.clock;
        for (slot, object) in objects.entries_by_id() {
            self.insert(slot, object);
        }
    }

    /// Processes every breakpoint due at or before `now` and advances the
    /// clock. `objects` must contain exactly the indexed objects. Each
    /// processed breakpoint is reported to `obs` as an `engine.breakpoint`
    /// event keyed by the breakpoint's own instant, so traces expose an
    /// object's full importance-curve lifecycle.
    pub(crate) fn advance(&mut self, objects: &ObjectArena, now: SimTime, obs: &Obs) {
        while let Some(&Reverse((t, id, slot))) = self.events.peek() {
            if !self.event_entry_live(t, id, slot) {
                // Cancelled under lazy deletion; discard on surfacing.
                self.events.pop();
                self.events_stale -= 1;
                continue;
            }
            if t > now {
                break;
            }
            self.density.integrate_to(t);
            self.clock = t;
            self.events.pop();
            self.events_live -= 1;
            let (_, kind) = self
                .event
                .take(slot)
                .expect("live event has a column entry");
            if kind == EventKind::Finalize {
                self.finalizes.remove(&(t, id));
            }
            self.unregister(slot, id);
            self.register(slot, objects.at(slot));
            obs.event(
                t,
                "engine.breakpoint",
                &[
                    ("id", id.raw()),
                    ("finalize", (kind == EventKind::Finalize) as u64),
                ],
            );
        }
        if now > self.clock {
            self.density.integrate_to(now);
            self.clock = now;
        }
    }

    /// Indexes a newly stored object (classified at the current clock).
    pub(crate) fn insert(&mut self, slot: u32, object: &StoredObject) {
        if self.track_fifo {
            self.fifo
                .insert((object.arrival(), object.id()), u64::from(slot));
        }
        self.register(slot, object);
    }

    /// Drops an object from the index entirely (eviction/removal). A no-op
    /// if the slot was never indexed (pre-rebuild state).
    pub(crate) fn remove(&mut self, slot: u32, id: ObjectId) {
        if *self.home.get(slot) == Home::Absent {
            return;
        }
        let arrival = *self.arrival.get(slot);
        self.unregister(slot, id);
        if self.track_fifo {
            self.fifo.remove(&(arrival, id));
        }
    }

    /// Re-indexes an object after its annotation changed in place.
    pub(crate) fn reannotate(&mut self, slot: u32, object: &StoredObject) {
        if *self.home.get(slot) != Home::Absent {
            self.unregister(slot, object.id());
            self.register(slot, object);
        }
    }

    /// Classifies `object` at the current clock and adds it to its home
    /// structure, the density accumulators and (if needed) the event queue.
    fn register(&mut self, slot: u32, object: &StoredObject) {
        let id = object.id();
        let ann = object.annotated_at();
        let arrival = object.arrival();
        let size_f = object.size().as_bytes() as f64;
        let age = self.clock.saturating_since(ann);
        let expired = object.is_expired(self.clock);
        let value = object.current_importance(self.clock).value();

        let (home, reg, event) = if expired && value == 0.0 {
            (Home::Expired, Registered::None, None)
        } else {
            let segment = object.curve().segment_at(age);
            let reg = registration(&segment.form);
            if expired {
                // Positive importance at the expiry minute: a zero-wane
                // step curve observed at exactly `age == expiry`. It keeps
                // its group position for this minute and finalizes into
                // the expired set at the next one.
                let fire = ann + segment.next.expect("step boundary has a next breakpoint");
                let group = self.group_of(object.curve());
                self.group_insert(group, (ann, arrival, id), slot);
                self.events.push(Reverse((fire, id, slot)));
                self.events_live += 1;
                self.finalizes.insert((fire, id), u64::from(slot));
                (Home::Group(group), reg, Some((fire, EventKind::Finalize)))
            } else if object.curve().expiry().is_none()
                && matches!(segment.form, SegmentForm::Constant(_))
            {
                // A constant segment of a never-expiring curve: the key is
                // `(value, never, arrival, id)` until the segment ends, so
                // order by the value itself. Group order, by annotation
                // instant, would misplace same-value members whose
                // annotation and arrival orders differ.
                let bits = value.to_bits();
                self.settled.insert((bits, arrival, id), u64::from(slot));
                let event = segment.next.map(|next| self.schedule(ann + next, id, slot));
                (Home::Settled(bits), reg, event)
            } else {
                let group = self.group_of(object.curve());
                self.group_insert(group, (ann, arrival, id), slot);
                let event = segment.next.map(|next| self.schedule(ann + next, id, slot));
                (Home::Group(group), reg, event)
            }
        };
        if home == Home::Expired {
            self.expired.insert((arrival, id), u64::from(slot));
        }
        self.density.signed_update(&reg, size_f, ann, 1.0);
        self.ids.set(slot, id);
        self.ann.set(slot, ann);
        self.arrival.set(slot, arrival);
        self.size_f.set(slot, size_f);
        self.home.set(slot, home);
        self.reg.set(slot, reg);
        self.event.set(slot, event);
        self.len += 1;
    }

    /// Queues the slot's next segment breakpoint.
    fn schedule(&mut self, fire: SimTime, id: ObjectId, slot: u32) -> (SimTime, EventKind) {
        self.events.push(Reverse((fire, id, slot)));
        self.events_live += 1;
        (fire, EventKind::Segment)
    }

    /// Removes an object from its home structure, the density accumulators
    /// and the event queue, using the state captured at registration.
    fn unregister(&mut self, slot: u32, id: ObjectId) {
        let ann = *self.ann.get(slot);
        let arrival = *self.arrival.get(slot);
        match *self.home.get(slot) {
            Home::Absent => panic!("unregister unindexed slot"),
            Home::Group(group) => self.group_remove(group, (ann, arrival, id)),
            Home::Settled(bits) => {
                self.settled.remove(&(bits, arrival, id));
            }
            Home::Expired => {
                self.expired.remove(&(arrival, id));
            }
        }
        self.home.set(slot, Home::Absent);
        if let Some((fire, kind)) = self.event.take(slot) {
            // Lazy deletion: the heap entry stays buried until it surfaces
            // (or the heap is compacted); clearing the column kills it.
            self.events_live -= 1;
            self.events_stale += 1;
            if kind == EventKind::Finalize {
                self.finalizes.remove(&(fire, id));
            }
            self.maybe_compact_events();
        }
        let reg = self.reg.take(slot);
        self.density
            .signed_update(&reg, *self.size_f.get(slot), ann, -1.0);
        self.len -= 1;
    }

    /// Rebuilds the event heap without its cancelled entries once they
    /// outnumber the live ones — O(live) with the stale majority dropped,
    /// so amortized O(1) per cancellation.
    fn maybe_compact_events(&mut self) {
        if self.events_stale > self.events_live && self.events.len() >= 64 {
            let mut entries = std::mem::take(&mut self.events).into_vec();
            let (event, ids) = (&self.event, &self.ids);
            entries.retain(|&Reverse((t, id, slot))| {
                matches!(event.get(slot), Some((fire, _)) if *fire == t) && *ids.get(slot) == id
            });
            self.events = BinaryHeap::from(entries);
            self.events_stale = 0;
        }
    }

    /// The group of `curve`'s exact shape, created (and its family with
    /// it) on first use.
    fn group_of(&mut self, curve: &ImportanceCurve) -> u32 {
        let shape = FamilyKey::of(curve);
        if let Some(&group) = self.group_ids.get(&shape) {
            return group;
        }
        let families = &mut self.families;
        let family = *self.family_ids.entry(shape.0.clone()).or_insert_with(|| {
            families.push(SortedList::new());
            (families.len() - 1) as u32
        });
        let group = self.groups.len() as u32;
        self.groups.push(ShapeGroup {
            members: SortedList::new(),
            curve: curve.clone(),
            family,
            plateau: shape.1,
        });
        self.group_ids.insert(shape, group);
        group
    }

    /// Adds `key` to group `g`, re-keying the group in its family's list
    /// if `key` becomes the group's head.
    fn group_insert(&mut self, g: u32, key: MemberKey, slot: u32) {
        let group = &mut self.groups[g as usize];
        let old = group.members.first().map(|(head, _)| head);
        group.members.insert(key, u64::from(slot));
        if old.is_none_or(|old| key < old) {
            let family = &mut self.families[group.family as usize];
            if let Some(old) = old {
                family.remove(&group.family_key(old));
            }
            family.insert(group.family_key(key), u64::from(g));
        }
    }

    /// Drops `key` from group `g`, re-keying the group in its family's
    /// list (or leaving it) if `key` was the group's head.
    fn group_remove(&mut self, g: u32, key: MemberKey) {
        let group = &mut self.groups[g as usize];
        let was_head = group.members.first().map(|(head, _)| head) == Some(key);
        group.members.remove(&key);
        if was_head {
            let family = &mut self.families[group.family as usize];
            family.remove(&group.family_key(key));
            if let Some((head, _)) = group.members.first() {
                family.insert(group.family_key(head), u64::from(g));
            }
        }
    }

    /// The weighted importance sum `Σ size·L(now)` (`now >= clock`).
    pub(crate) fn weighted_importance(&self, now: SimTime) -> f64 {
        self.density.value_at(now)
    }

    /// Seeds a preemption plan's merge at `now`, replacing `heads`: the
    /// heads of the expired set, the settled set and each family's first
    /// group. A family's other groups wait, because all their members sort
    /// after that group's head.
    pub(crate) fn seed_heads(&self, now: SimTime, heads: &mut Vec<Head>) {
        heads.clear();
        for stream in [Stream::Expired, Stream::Settled] {
            heads.extend(self.head(stream, self.stream_start(stream), now));
        }
        for (family, list) in self.families.iter().enumerate() {
            heads.extend(self.activate(family as u32, list.start(), now));
        }
    }

    /// What takes `popped`'s place in a plan's merge: the next entry of its
    /// stream and, if `popped` was the original head of its family's most
    /// recently activated group, the head of the family's next group.
    /// Cursors stay valid while the index is not mutated.
    pub(crate) fn successors(&self, popped: &Head, now: SimTime) -> (Option<Head>, Option<Head>) {
        let next = self.head(popped.stream, popped.resume, now);
        let activated = popped
            .activates
            .and_then(|(family, pos)| self.activate(family, pos, now));
        (next, activated)
    }

    /// The head of the first group at or after cursor `pos` in `family`'s
    /// list, carrying the cursor of the group after it.
    fn activate(&self, family: u32, pos: usize, now: SimTime) -> Option<Head> {
        let (group, next) = self.families[family as usize].next_live(pos)?;
        let stream = Stream::Group(group as u32);
        let head = self.head(stream, self.stream_start(stream), now)?;
        Some(Head {
            activates: Some((family, next)),
            ..head
        })
    }

    fn stream_start(&self, stream: Stream) -> usize {
        match stream {
            Stream::Expired => self.expired.start(),
            Stream::Settled => self.settled.start(),
            Stream::Group(g) => self.groups[g as usize].members.start(),
        }
    }

    /// The first entry of `stream` at or after cursor `pos`. Its exact
    /// [`EvictionKey`] (and expiry status) comes from the stream's own sort
    /// key plus the group's representative curve: candidate objects are
    /// never dereferenced, so a plan touches object memory only for its
    /// actual victims' sizes.
    fn head(&self, stream: Stream, pos: usize, now: SimTime) -> Option<Head> {
        let (key, expired, payload, resume) = match stream {
            Stream::Expired => {
                // Importance already waned to zero (and stays there —
                // curves are non-increasing), expiry is in the past.
                let ((arrival, id), payload, resume) = self.expired.next_live_kv(pos)?;
                let key = EvictionKey {
                    importance: Importance::ZERO,
                    never_expires: false,
                    remaining: 0,
                    arrival,
                    id,
                };
                (key, true, payload, resume)
            }
            Stream::Settled => {
                // Positive importance, frozen until the constant segment
                // ends, of a curve that never reaches zero.
                let ((bits, arrival, id), payload, resume) = self.settled.next_live_kv(pos)?;
                let key = EvictionKey {
                    importance: Importance::new_clamped(f64::from_bits(bits)),
                    never_expires: true,
                    remaining: 0,
                    arrival,
                    id,
                };
                (key, false, payload, resume)
            }
            Stream::Group(g) => {
                let group = &self.groups[g as usize];
                let ((ann, arrival, id), payload, resume) = group.members.next_live_kv(pos)?;
                let age = now.saturating_since(ann);
                let (never_expires, remaining, expired) = match group.curve.expiry() {
                    Some(e) => (false, e.saturating_sub(age).as_minutes(), age >= e),
                    None => (true, 0, false),
                };
                let key = EvictionKey {
                    importance: group.curve.importance_at(age),
                    never_expires,
                    remaining,
                    arrival,
                    id,
                };
                (key, expired, payload, resume)
            }
        };
        Some(Head {
            key,
            expired,
            slot: payload as u32,
            stream,
            resume,
            activates: None,
        })
    }

    /// The FIFO eviction order, `(arrival, id)` ascending, yielding slots.
    pub(crate) fn fifo_order(&self) -> impl Iterator<Item = u32> + '_ {
        self.fifo.iter().map(|(_, payload)| payload as u32)
    }
}

/// How a segment form contributes to the density accumulators.
fn registration(form: &SegmentForm) -> Registered {
    match form {
        SegmentForm::Constant(c) if *c == 0.0 => Registered::None,
        SegmentForm::Constant(_) | SegmentForm::Linear { .. } => Registered::Linear(form.clone()),
        SegmentForm::Exp {
            start,
            peak,
            half_life,
        } => Registered::Exp {
            start: *start,
            peak: *peak,
            half_life: *half_life,
        },
    }
}

#[cfg(test)]
impl EngineIndex {
    /// Every entry of every stream at `now`: the expired set, the settled
    /// set, then each group.
    pub(crate) fn all_streams(&self, now: SimTime) -> Vec<Vec<Head>> {
        let groups = (0..self.groups.len() as u32).map(Stream::Group);
        [Stream::Expired, Stream::Settled]
            .into_iter()
            .chain(groups)
            .map(|stream| {
                let mut entries = Vec::new();
                let mut cursor = self.head(stream, self.stream_start(stream), now);
                while let Some(head) = cursor {
                    entries.push(head);
                    cursor = self.head(stream, head.resume, now);
                }
                entries
            })
            .collect()
    }

    /// Each family's groups, in the order of its list.
    pub(crate) fn family_groups(&self) -> Vec<Vec<u32>> {
        self.families
            .iter()
            .map(|list| list.iter().map(|(_, group)| group as u32).collect())
            .collect()
    }
}
