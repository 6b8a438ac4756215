//! Incrementally maintained indexes over a [`StorageUnit`]'s objects.
//!
//! A full scan re-evaluates every stored object's curve on every
//! plan/sweep/density query. This module exploits the fact that importance
//! curves are *monotone, piecewise-analytic* functions of age: each object
//! changes analytic form only at a handful of breakpoints, so the engine
//! can keep objects classified by their current form and update that
//! classification with one queue event per breakpoint.
//!
//! The index maintains, keyed off an internal clock that only moves
//! forward:
//!
//! * a **breakpoint queue** (see *Breakpoints* below), so advancing time
//!   touches only the objects whose analytic form actually changes;
//! * an **expired set** ordered by `(arrival, id)` — exactly the §5.3
//!   eviction order among zero-importance objects;
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
//! classification state lives in three slot-indexed [`TotalMap`] columns
//! instead of an id-keyed hash map: `home` (which structure holds the
//! object), `reg` (its density registration) and the breakpoint queue's
//! `pending`. What the object itself says — annotation instant, arrival,
//! size — is read from the object, never copied into a column: an eviction
//! passes in the object it just took out of the arena, and an annotation
//! change takes the object out of the index before changing it and files
//! it again after. Entry keys still end in `ObjectId` — ids are the §5.3
//! tiebreaker — but every lookup from a candidate back to its object is a
//! vector index, not a hash probe. The iteration order of each list equals
//! the `BTreeSet` ordering it replaced, which the golden trace pins.
//!
//! Each shape group holds an [`Arc`] of its curve that every resident of
//! the shape shares: [`EngineIndex::intern`] answers a store with the
//! group and that allocation from one hash lookup, and a rebuild gives each
//! object its group's allocation, so a restored unit shares its curves
//! again. The group also keeps the curve inline, where
//! a plan reads it for every head it evaluates. Every stored shape has a
//! group while some resident holds it, whether or not its residents live
//! in the group: the last holder's eviction or new annotation frees the
//! group, and the next new shape takes its place. A group joins its
//! curve family when it first gets a member, so a shape whose residents
//! all sit in the settled or expired set adds no family for a plan to
//! visit. Sharing pays when residents repeat shapes; a resident of a
//! shape of its own pays a pointer and its own allocation instead.
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
//! # Breakpoints
//!
//! Breakpoints pop in `(fire, id, slot)` order, which the golden trace's
//! `engine.breakpoint` events and the density sums both depend on. Only
//! the near future is kept in that order, as in a calendar queue (Brown,
//! CACM 1988) or a timing wheel (Varghese & Lauck, SOSP 1987). The open
//! window of [`WINDOW_MINUTES`] is split into 32 buckets: a sorted
//! run holds the breakpoints up to the bucket the clock is in, each later
//! bucket of the window is an unsorted vector that is sorted once, when the
//! clock reaches it, and a breakpoint after the window lives only in its
//! slot's column, covered by a lower bound. When the window runs dry and
//! that bound is due, one pass over the column opens the window holding the
//! instant the clock advances to. So scheduling a breakpoint is a push or a
//! column write whatever the curve's lifetime; only one due within the
//! clock's own bucket, under [`BUCKET_MINUTES`] ahead, is a sorted insert,
//! into a run of one bucket's breakpoints. The window is anchored at the
//! clock, never at the earliest pending breakpoint, which would file every
//! nearer breakpoint scheduled later into the run.
//!
//! A breakpoint that leaves its object in the same home under the same key
//! — a two-step curve leaving its plateau, say — changes only the object's
//! density registration and next breakpoint; its ordered lists stay as
//! they are. Any other breakpoint re-files the object.
//!
//! [`StorageUnit`]: crate::StorageUnit

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

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
    /// The shape's curve (every member's has equal fields: the
    /// [`FamilyKey::of`] contract), so stream heads compute exact
    /// eviction keys without touching any `StoredObject`. Held inline: a
    /// plan reads it for every head it evaluates.
    curve: ImportanceCurve,
    /// The same curve, the one allocation every resident of the shape
    /// holds.
    shared: Arc<ImportanceCurve>,
    /// The curve's family, looked up when the group first gets a member:
    /// a shape whose residents all live in the settled or expired set
    /// adds no family for a plan to visit.
    family: Option<u32>,
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

/// Minutes in one window of the breakpoint queue: 2¹¹, about 1.4 days. A
/// power of two, so the window holding an instant is its minute with the
/// low bits masked.
pub(crate) const WINDOW_MINUTES: u64 = 1 << 11;

/// Minutes in one bucket of the open window: 2⁶, so a window is 32 buckets.
pub(crate) const BUCKET_MINUTES: u64 = 1 << 6;

/// Buckets in one window; bit `b` of [`Breakpoints::occupied`] stands for
/// bucket `b`.
const BUCKETS: usize = (WINDOW_MINUTES / BUCKET_MINUTES) as usize;

/// A slot's pending breakpoint: when it fires, for which object, and what
/// it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    fire: SimTime,
    id: ObjectId,
    kind: EventKind,
}

/// Where an object belongs at the clock: its home, its density
/// registration and its next breakpoint.
type Class = (Home, Registered, Option<Pending>);

/// An entry of the open window, `(fire, id, slot)`: the order breakpoints
/// pop in. The slot rides along so a surfacing entry is checked against
/// its slot's column without a lookup.
type EventEntry = (SimTime, ObjectId, u32);

/// The pending curve breakpoints, popped in `(fire, id, slot)` order; the
/// module docs' *Breakpoints* section has the design.
#[derive(Debug, Clone)]
struct Breakpoints {
    /// Per-slot pending breakpoint — the authority. A window entry is live
    /// only while it matches its slot's column; a breakpoint after the
    /// window lives here alone.
    pending: TotalMap<Option<Pending>>,
    /// The open window's breakpoints up to the end of bucket `current`,
    /// sorted ascending, so the next to pop is at the front. Cancelling one
    /// only clears its column; the entry is dropped when it surfaces.
    run: VecDeque<EventEntry>,
    /// The open window's breakpoints after bucket `current`, unsorted:
    /// `later[b]` holds bucket `b`'s. Empty until first used.
    later: Vec<Vec<EventEntry>>,
    /// Bit `b` is set while `later[b]` is not empty.
    occupied: u32,
    /// The bucket `run` reaches to: the one holding the clock, or an
    /// earlier one of the open window.
    current: usize,
    /// The first minute of the open window.
    base: SimTime,
    /// A lower bound on every pending breakpoint after the window; `None`
    /// when none was scheduled there since the window opened.
    far_min: Option<SimTime>,
    /// Pending breakpoints, cancelled ones not counted.
    live: usize,
}

impl Default for Breakpoints {
    fn default() -> Self {
        Breakpoints {
            pending: TotalMap::new(None),
            run: VecDeque::new(),
            later: Vec::new(),
            occupied: 0,
            current: 0,
            base: SimTime::ZERO,
            far_min: None,
            live: 0,
        }
    }
}

impl Breakpoints {
    /// The last minute of the open window.
    fn horizon(&self) -> SimTime {
        self.base + SimDuration::from_minutes(WINDOW_MINUTES - 1)
    }

    /// The open window's bucket holding `fire` (at or before the horizon);
    /// bucket 0 for an instant before the window.
    fn bucket_of(&self, fire: SimTime) -> usize {
        (fire.saturating_since(self.base).as_minutes() / BUCKET_MINUTES) as usize
    }

    /// The first minute of bucket `b` of the open window.
    fn bucket_start(&self, b: usize) -> SimTime {
        self.base + SimDuration::from_minutes(b as u64 * BUCKET_MINUTES)
    }

    /// Queues `pending` for `slot`, which has none.
    fn schedule(&mut self, slot: u32, pending: Pending) {
        debug_assert!(self.pending.get(slot).is_none(), "slot already pending");
        let Pending { fire, id, .. } = pending;
        let entry = (fire, id, slot);
        if fire > self.horizon() {
            self.far_min = Some(self.far_min.map_or(fire, |min| min.min(fire)));
        } else if self.bucket_of(fire) > self.current {
            self.push_later(entry);
        } else if self.run.back().is_none_or(|&last| last < entry) {
            self.run.push_back(entry);
        } else {
            let at = self.run.partition_point(|&e| e < entry);
            self.run.insert(at, entry);
        }
        self.pending.set(slot, Some(pending));
        self.live += 1;
    }

    /// Adds `entry`, which fires in a bucket after `current`, to its bucket.
    fn push_later(&mut self, entry: EventEntry) {
        if self.later.is_empty() {
            self.later.resize_with(BUCKETS, Vec::new);
        }
        let b = self.bucket_of(entry.0);
        self.later[b].push(entry);
        self.occupied |= 1 << b;
    }

    /// Takes `slot`'s pending breakpoint, if any.
    fn cancel(&mut self, slot: u32) -> Option<Pending> {
        let pending = self.pending.take(slot)?;
        self.live -= 1;
        Some(pending)
    }

    fn is_live(&self, (fire, id, slot): EventEntry) -> bool {
        matches!(self.pending.get(slot), Some(p) if p.fire == fire && p.id == id)
    }

    /// Takes the next breakpoint due at or before `now`. When the run is
    /// dry it takes in the next bucket once that bucket has begun, and when
    /// the whole window is dry and a later breakpoint may be due it opens
    /// the window holding `now`. Cancelled entries that surface are
    /// dropped, so once this returns `None` the run's front is live.
    fn pop_due(&mut self, now: SimTime) -> Option<(u32, Pending)> {
        loop {
            if let Some(&entry) = self.run.front() {
                let live = self.is_live(entry);
                if live && entry.0 > now {
                    return None;
                }
                self.run.pop_front();
                if live {
                    return self.cancel(entry.2).map(|pending| (entry.2, pending));
                }
            } else if self.occupied != 0 {
                let b = self.occupied.trailing_zeros() as usize;
                if self.bucket_start(b) > now {
                    return None;
                }
                self.take_bucket(b);
            } else if self.far_min.is_some_and(|min| min <= now) {
                self.open(now);
            } else {
                return None;
            }
        }
    }

    /// Moves bucket `b`, the first occupied one, into the dry run, sorted.
    fn take_bucket(&mut self, b: usize) {
        let mut bucket = std::mem::take(&mut self.later[b]);
        bucket.sort_unstable();
        self.run.extend(bucket.drain(..));
        self.later[b] = bucket;
        self.occupied &= !(1 << b);
        self.current = b;
    }

    /// Opens the window holding `at`: one pass over the column files its
    /// breakpoints — those up to `at`'s bucket into the run, sorted once,
    /// the rest into their buckets — and recomputes `far_min` exactly.
    fn open(&mut self, at: SimTime) {
        debug_assert!(
            self.run.is_empty() && self.occupied == 0,
            "the open window has not run dry"
        );
        self.base = SimTime::from_minutes(at.as_minutes() & !(WINDOW_MINUTES - 1));
        self.current = self.bucket_of(at);
        self.far_min = None;
        let horizon = self.horizon();
        for slot in 0..self.pending.materialized() as u32 {
            if let Some(Pending { fire, id, .. }) = *self.pending.get(slot) {
                if fire > horizon {
                    self.far_min = Some(self.far_min.map_or(fire, |min| min.min(fire)));
                } else if self.bucket_of(fire) > self.current {
                    self.push_later((fire, id, slot));
                } else {
                    self.run.push_back((fire, id, slot));
                }
            }
        }
        self.run.make_contiguous().sort_unstable();
    }

    /// True when no pending breakpoint fires at or before `now`. O(1) when
    /// the run's front and the bounds on the later buckets and the far
    /// future decide it — after [`pop_due`](Breakpoints::pop_due) has
    /// returned `None`, they do for every instant before the next bucket
    /// and `far_min`. Otherwise, say after a cancellation, one pass over
    /// the column answers exactly.
    fn processed_through(&self, now: SimTime) -> bool {
        let window = match self.run.front() {
            Some(&entry) if entry.0 <= now && self.is_live(entry) => return false,
            Some(&(fire, _, _)) => Some(fire),
            None if self.occupied != 0 => {
                Some(self.bucket_start(self.occupied.trailing_zeros() as usize))
            }
            None => None,
        };
        let bound = match (window, self.far_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        bound.is_none_or(|bound| bound > now)
            || (0..self.pending.materialized() as u32)
                .all(|slot| self.pending.get(slot).is_none_or(|p| p.fire > now))
    }
}

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
/// a restore (the unit's serialized form leaves it out).
///
/// Ordered structures are [`SortedList`]s whose payloads are arena slots;
/// per-object classification state lives in slot-indexed [`TotalMap`]
/// columns (struct-of-arrays) so registering/unregistering an object never
/// hashes its id. The columns hold only what the index derives; the
/// object's own fields are read from the object, which every mutation
/// passes in before it changes or leaves.
#[derive(Debug, Clone)]
pub(crate) struct EngineIndex {
    /// The time the index is classified at; only moves forward.
    clock: SimTime,
    /// Number of indexed objects.
    len: usize,
    /// Per-slot candidate-structure membership.
    home: TotalMap<Home>,
    /// Per-slot density registrations.
    reg: TotalMap<Registered>,
    /// Pending curve breakpoints, one per slot at most.
    breakpoints: Breakpoints,
    /// The rare [`EventKind::Finalize`] breakpoints, keyed `(fire, id)` —
    /// kept sorted so `finalize_pending`/`expired_ids` can range-scan one
    /// minute without touching the queue.
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
    /// Same-shape cohorts, one for every shape some resident holds,
    /// members or not; `None` marks a freed group, whose index
    /// `free_groups` keeps for the next new shape. Inserts append:
    /// members of one shape arrive in annotation order.
    groups: Vec<Option<ShapeGroup>>,
    free_groups: Vec<u32>,
    group_ids: FxHashMap<(FamilyKey, SimDuration), u32>,
    /// Per family, its non-empty groups keyed by their head's
    /// `(annotated_at + plateau, arrival, id)`, payload the group index.
    /// Rewritten only when a group's head changes.
    families: Vec<SortedList<MemberKey>>,
    family_ids: FxHashMap<FamilyKey, u32>,
    density: DensityAccum,
}

impl EngineIndex {
    /// An empty index maintaining exactly the structures `policy` reads —
    /// preemptive units skip FIFO-list upkeep.
    pub(crate) fn for_policy(policy: EvictionPolicy) -> Self {
        EngineIndex {
            clock: SimTime::ZERO,
            len: 0,
            home: TotalMap::new(Home::Absent),
            reg: TotalMap::new(Registered::None),
            breakpoints: Breakpoints::default(),
            finalizes: SortedList::new(),
            expired: SortedList::new(),
            fifo: SortedList::new(),
            track_fifo: policy == EvictionPolicy::Fifo,
            settled: SortedList::new(),
            groups: Vec::new(),
            free_groups: Vec::new(),
            group_ids: FxHashMap::default(),
            families: Vec::new(),
            family_ids: FxHashMap::default(),
            density: DensityAccum::default(),
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
        self.breakpoints.live
    }

    /// True when every breakpoint at or before `now` has been processed.
    /// Exact. O(1) after `advance(now)` for every instant before the next
    /// pending breakpoint's bucket; a read past it, or one after a
    /// cancellation, may take one pass over the breakpoint column.
    pub(crate) fn events_processed_through(&self, now: SimTime) -> bool {
        self.breakpoints.processed_through(now)
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
    /// — the order a sweep evicts in. Callers pass a reusable buffer so
    /// idle sweeps allocate nothing.
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

    /// Rebuilds the whole index at `now` (the path after a restore).
    /// Objects are inserted in ascending id order — the same order the
    /// id-keyed map this arena replaced iterated in — so accumulator
    /// arithmetic matches a freshly grown index. Each object comes to
    /// hold its shape group's curve, so a restored unit shares its curves
    /// again.
    pub(crate) fn rebuild(
        &mut self,
        objects: &mut ObjectArena,
        now: SimTime,
        policy: EvictionPolicy,
    ) {
        *self = EngineIndex {
            clock: self.clock.max(now),
            ..EngineIndex::for_policy(policy)
        };
        self.density.at = self.clock;
        for slot in objects.slots_by_id() {
            let object = objects.at_mut(slot);
            let (group, curve) = self.intern(object.curve());
            object.share_curve(&curve);
            self.insert(slot, object, group);
        }
    }

    /// Processes every breakpoint due at or before `now` and advances the
    /// clock. `objects` must contain exactly the indexed objects. Each
    /// processed breakpoint is reported to `obs` as an `engine.breakpoint`
    /// event keyed by the breakpoint's own instant, so traces expose an
    /// object's full importance-curve lifecycle.
    pub(crate) fn advance(&mut self, objects: &ObjectArena, now: SimTime, obs: &Obs) {
        while let Some((slot, Pending { fire: t, id, kind })) = self.breakpoints.pop_due(now) {
            self.density.integrate_to(t);
            self.clock = t;
            if kind == EventKind::Finalize {
                self.finalizes.remove(&(t, id));
            }
            self.transition(slot, objects.at(slot));
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

    /// The shape group of `curve`, created on first use, and the curve
    /// allocation its residents share: one hash lookup, whose group a
    /// store then passes to [`insert`](EngineIndex::insert). Every stored
    /// shape gets a group, whether or not its residents live in it; the
    /// group is freed when its last resident lets go of the curve (see
    /// [`release`](EngineIndex::release)).
    pub(crate) fn intern(&mut self, curve: &ImportanceCurve) -> (u32, Arc<ImportanceCurve>) {
        let group = self.group_of(curve);
        (group, Arc::clone(&self.group(group).shared))
    }

    /// Frees the shape group of `curve` if the resident letting go of this
    /// allocation is the last to hold it, so a group lives only as long
    /// as its shape has residents. The resident holds the curve when this
    /// is called: a freed group's allocation goes with the resident.
    /// Shapes are looked up only for a last holder. A unit and its clone
    /// hold each other's allocations, so neither frees the group of a
    /// shape both held at the clone.
    pub(crate) fn release(&mut self, curve: &Arc<ImportanceCurve>) {
        // The group's hold and the resident's, and no other.
        if Arc::strong_count(curve) != 2 {
            return;
        }
        let shape = FamilyKey::of(curve);
        let Some(&g) = self.group_ids.get(&shape) else {
            return;
        };
        let group = self.group(g);
        if Arc::ptr_eq(&group.shared, curve) && group.members.is_empty() {
            self.group_ids.remove(&shape);
            self.groups[g as usize] = None;
            self.free_groups.push(g);
        }
    }

    /// Indexes a newly stored object (classified at the current clock);
    /// `group` is its curve's, from [`intern`](EngineIndex::intern).
    pub(crate) fn insert(&mut self, slot: u32, object: &StoredObject, group: u32) {
        if self.track_fifo {
            self.fifo
                .insert((object.arrival(), object.id()), u64::from(slot));
        }
        self.register(slot, object, group);
    }

    /// Drops `object`, just taken out of `slot`, from the index entirely
    /// (eviction/removal), and its shape's group with it if no other
    /// resident holds the shape. A no-op if the slot was never indexed
    /// (pre-rebuild state).
    pub(crate) fn remove(&mut self, slot: u32, object: &StoredObject) {
        if self.take_out(slot, object) {
            if self.track_fifo {
                self.fifo.remove(&(object.arrival(), object.id()));
            }
            self.release(object.shared_curve());
        }
    }

    /// Takes `object` out of the index before its annotation changes,
    /// keeping its FIFO position; false if the slot was never indexed
    /// (pre-rebuild state). [`register`](EngineIndex::register) re-files
    /// it once it has changed.
    pub(crate) fn take_out(&mut self, slot: u32, object: &StoredObject) -> bool {
        let indexed = *self.home.get(slot) != Home::Absent;
        if indexed {
            self.unregister(slot, object);
        }
        indexed
    }

    /// Classifies `object`, whose curve's group is `group`, at the current
    /// clock and adds it to its home structure, the density accumulators
    /// and (if needed) the breakpoint queue.
    pub(crate) fn register(&mut self, slot: u32, object: &StoredObject, group: u32) {
        let class = self.classify(object, Some(group));
        self.file(slot, object, class);
    }

    /// Where `object` belongs at the current clock: its home, its density
    /// registration and its next breakpoint. `group` is its curve's group
    /// when the caller knows it; otherwise a home in a group looks it up.
    /// Changes nothing else.
    fn classify(&mut self, object: &StoredObject, group: Option<u32>) -> Class {
        let id = object.id();
        let ann = object.annotated_at();
        let age = self.clock.saturating_since(ann);
        let expired = object.is_expired(self.clock);
        let value = object.current_importance(self.clock).value();
        if expired && value == 0.0 {
            return (Home::Expired, Registered::None, None);
        }
        let segment = object.curve().segment_at(age);
        let reg = registration(&segment.form);
        let at = |next: SimDuration, kind| Pending {
            fire: ann + next,
            id,
            kind,
        };
        if expired {
            // Positive importance at the expiry minute: a zero-wane step
            // curve observed at exactly `age == expiry`. It keeps its group
            // position for this minute and finalizes into the expired set
            // at the next one.
            let next = segment.next.expect("step boundary has a next breakpoint");
            let group = group.unwrap_or_else(|| self.group_of(object.curve()));
            (Home::Group(group), reg, Some(at(next, EventKind::Finalize)))
        } else if object.curve().expiry().is_none()
            && matches!(segment.form, SegmentForm::Constant(_))
        {
            // A constant segment of a never-expiring curve: the key is
            // `(value, never, arrival, id)` until the segment ends, so
            // order by the value itself. Group order, by annotation
            // instant, would misplace same-value members whose annotation
            // and arrival orders differ.
            let event = segment.next.map(|next| at(next, EventKind::Segment));
            (Home::Settled(value.to_bits()), reg, event)
        } else {
            let group = group.unwrap_or_else(|| self.group_of(object.curve()));
            let event = segment.next.map(|next| at(next, EventKind::Segment));
            (Home::Group(group), reg, event)
        }
    }

    /// Adds a classified object to its home, the breakpoint queue and the
    /// density accumulators.
    fn file(&mut self, slot: u32, object: &StoredObject, class: Class) {
        let (home, reg, event) = class;
        let id = object.id();
        let ann = object.annotated_at();
        let arrival = object.arrival();
        let size_f = object.size().as_bytes() as f64;
        match home {
            Home::Absent => unreachable!("classify never answers Absent"),
            Home::Group(group) => self.group_insert(group, (ann, arrival, id), slot),
            Home::Settled(bits) => self.settled.insert((bits, arrival, id), u64::from(slot)),
            Home::Expired => self.expired.insert((arrival, id), u64::from(slot)),
        }
        if let Some(pending) = event {
            self.schedule(slot, pending);
        }
        self.density.signed_update(&reg, size_f, ann, 1.0);
        self.home.set(slot, home);
        self.reg.set(slot, reg);
        self.len += 1;
    }

    /// Re-classifies `object` once its breakpoint has been taken from the
    /// queue. When it stays in the same home, its key — `(annotated_at,
    /// arrival, id)`, or the settled value with arrival and id — is
    /// unchanged, so only the density registration (old one out, then new
    /// one in, as a re-file orders them) and the next breakpoint change.
    /// A member of a group keeps its group: its curve has not changed.
    fn transition(&mut self, slot: u32, object: &StoredObject) {
        let home = *self.home.get(slot);
        let group = match home {
            Home::Group(group) => Some(group),
            _ => None,
        };
        let class = self.classify(object, group);
        if class.0 != home {
            self.unregister(slot, object);
            self.file(slot, object, class);
            return;
        }
        let (_, reg, event) = class;
        let (ann, size_f) = (object.annotated_at(), object.size().as_bytes() as f64);
        let old = self.reg.take(slot);
        self.density.signed_update(&old, size_f, ann, -1.0);
        self.density.signed_update(&reg, size_f, ann, 1.0);
        self.reg.set(slot, reg);
        if let Some(pending) = event {
            self.schedule(slot, pending);
        }
    }

    /// Queues `slot`'s next breakpoint.
    fn schedule(&mut self, slot: u32, pending: Pending) {
        if pending.kind == EventKind::Finalize {
            self.finalizes
                .insert((pending.fire, pending.id), u64::from(slot));
        }
        self.breakpoints.schedule(slot, pending);
    }

    /// Removes `object` from its home structure, the density accumulators
    /// and the breakpoint queue. Its keys and weight are read from the
    /// object, so this runs before the object changes.
    fn unregister(&mut self, slot: u32, object: &StoredObject) {
        let (id, ann, arrival) = (object.id(), object.annotated_at(), object.arrival());
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
        if let Some(Pending { fire, kind, .. }) = self.breakpoints.cancel(slot) {
            if kind == EventKind::Finalize {
                self.finalizes.remove(&(fire, id));
            }
        }
        let reg = self.reg.take(slot);
        let size_f = object.size().as_bytes() as f64;
        self.density.signed_update(&reg, size_f, ann, -1.0);
        self.len -= 1;
    }

    /// The group of `curve`'s exact shape, created on first use in a
    /// freed group's place if there is one.
    fn group_of(&mut self, curve: &ImportanceCurve) -> u32 {
        let shape = FamilyKey::of(curve);
        if let Some(&group) = self.group_ids.get(&shape) {
            return group;
        }
        let group = Some(ShapeGroup {
            members: SortedList::new(),
            curve: curve.clone(),
            shared: Arc::new(curve.clone()),
            family: None,
            plateau: shape.1,
        });
        let g = match self.free_groups.pop() {
            Some(g) => {
                self.groups[g as usize] = group;
                g
            }
            None => {
                self.groups.push(group);
                (self.groups.len() - 1) as u32
            }
        };
        self.group_ids.insert(shape, g);
        g
    }

    /// Group `g`, which must not have been freed.
    fn group(&self, g: u32) -> &ShapeGroup {
        self.groups[g as usize]
            .as_ref()
            .expect("a live shape group")
    }

    /// Adds `key` to group `g`, re-keying the group in its family's list
    /// if `key` becomes the group's head. A group's first member looks up
    /// its family, created on first use.
    fn group_insert(&mut self, g: u32, key: MemberKey, slot: u32) {
        let group = self.groups[g as usize]
            .as_mut()
            .expect("a live shape group");
        let old = group.members.first().map(|(head, _)| head);
        group.members.insert(key, u64::from(slot));
        if old.is_none_or(|old| key < old) {
            let families = &mut self.families;
            let family = *group.family.get_or_insert_with(|| {
                let family = FamilyKey::of(&group.curve).0;
                *self.family_ids.entry(family).or_insert_with(|| {
                    families.push(SortedList::new());
                    (families.len() - 1) as u32
                })
            });
            let family = &mut families[family as usize];
            if let Some(old) = old {
                family.remove(&group.family_key(old));
            }
            family.insert(group.family_key(key), u64::from(g));
        }
    }

    /// Drops `key` from group `g`, re-keying the group in its family's
    /// list (or leaving it) if `key` was the group's head.
    fn group_remove(&mut self, g: u32, key: MemberKey) {
        let group = self.groups[g as usize]
            .as_mut()
            .expect("a live shape group");
        let was_head = group.members.first().map(|(head, _)| head) == Some(key);
        group.members.remove(&key);
        if was_head {
            let family = group.family.expect("a group with members has a family");
            let family = &mut self.families[family as usize];
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
            Stream::Group(g) => self.group(g).members.start(),
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
                let group = self.group(g);
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
    /// set, then each group (none for a freed one).
    pub(crate) fn all_streams(&self, now: SimTime) -> Vec<Vec<Head>> {
        let groups = (0..self.groups.len() as u32).map(Stream::Group);
        [Stream::Expired, Stream::Settled]
            .into_iter()
            .chain(groups)
            .map(|stream| {
                if matches!(stream, Stream::Group(g) if self.groups[g as usize].is_none()) {
                    return Vec::new();
                }
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

    /// The fire instants of the open window's entries, cancelled ones
    /// included: the sorted run's, then the later buckets'.
    pub(crate) fn window_fires(&self) -> (Vec<SimTime>, Vec<SimTime>) {
        let queue = &self.breakpoints;
        let run = queue.run.iter().map(|&(fire, _, _)| fire).collect();
        let later = queue.later.iter().flatten().map(|&(fire, _, _)| fire);
        (run, later.collect())
    }

    /// The number of live shape groups, and of group places, freed ones
    /// included.
    pub(crate) fn group_count(&self) -> (usize, usize) {
        let live = self.groups.iter().filter(|group| group.is_some()).count();
        (live, self.groups.len())
    }

    /// Each family's groups, in the order of its list.
    pub(crate) fn family_groups(&self) -> Vec<Vec<u32>> {
        self.families
            .iter()
            .map(|list| list.iter().map(|(_, group)| group as u32).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use rand::Rng;
    use sim_core::ByteSize;

    use super::*;
    use crate::ObjectSpec;

    /// Cases for the queue-parity property: `DIFF_CASES` when set (the
    /// nightly deep fuzz runs 4096), else 128.
    fn cases() -> u64 {
        std::env::var("DIFF_CASES")
            .ok()
            .and_then(|cases| cases.parse().ok())
            .unwrap_or(128)
    }

    /// The breakpoint queue pops what a `BinaryHeap<Reverse<(fire, id,
    /// slot)>>` with lazy deletion pops, in the same order, over random
    /// schedule, cancel, read and advance steps: `advance(now)` is every
    /// pop due at `now`, and `processed_through(at)` answers exactly
    /// whether a breakpoint is due at `at`, whatever was cancelled. The
    /// steps cover clock jumps of one to five weeks (many windows at once,
    /// as `sim_university`'s weekly advance), breakpoints scheduled inside
    /// the open window, in a later bucket or in the clock's own one, and a
    /// cancelled slot re-scheduled at the same fire minute, by the same id
    /// or a new one, while its cancelled entry is still in the window.
    #[test]
    fn breakpoints_pop_like_a_lazy_binary_heap() {
        const SLOTS: u32 = 48;
        let (mut jumps, mut later, mut into_run, mut recycled) = (0, 0, 0, 0);
        for case in 0..cases() {
            let mut rng = sim_core::rng::stream(case, "breakpoint-queue-parity");
            let mut queue = Breakpoints::default();
            let mut heap = BinaryHeap::new();
            // The reference's authority: per slot, the live `(fire, id)`.
            let mut live: Vec<Option<(SimTime, ObjectId)>> = vec![None; SLOTS as usize];
            // Per slot, the last cancelled `(fire, id)`.
            let mut cancelled: Vec<Option<(SimTime, ObjectId)>> = vec![None; SLOTS as usize];
            let due = |live: &[Option<(SimTime, ObjectId)>], at: SimTime| {
                live.iter().flatten().any(|&(fire, _)| fire <= at)
            };
            let mut clock = SimTime::ZERO;
            let mut ids = 0;
            for _ in 0..300 {
                match rng.gen_range(0u32..12) {
                    0..=4 => {
                        let slot = rng.gen_range(0..SLOTS);
                        if live[slot as usize].is_some() {
                            continue;
                        }
                        let (fire, id) = match cancelled[slot as usize] {
                            Some((fire, id)) if fire > clock && rng.gen_bool(0.5) => {
                                if fire <= queue.horizon() {
                                    recycled += 1;
                                }
                                let id = if rng.gen_bool(0.5) {
                                    id
                                } else {
                                    ids += 1;
                                    ObjectId::new(ids)
                                };
                                (fire, id)
                            }
                            _ => {
                                // Whole quarter hours from the clock's
                                // quarter hour, so that fire minutes tie.
                                let minutes = match rng.gen_range(0u32..4) {
                                    0 => 15 * rng.gen_range(1..=8),
                                    1 => 60 * rng.gen_range(1..=24),
                                    2 => 60 * rng.gen_range(1..=24 * 30),
                                    _ => 24 * 60 * rng.gen_range(5..=30),
                                };
                                let quarter = clock.as_minutes() / 15 * 15;
                                ids += 1;
                                (SimTime::from_minutes(quarter + minutes), ObjectId::new(ids))
                            }
                        };
                        if fire <= queue.horizon() {
                            if queue.bucket_of(fire) > queue.current {
                                later += 1;
                            } else {
                                into_run += 1;
                            }
                        }
                        let kind = if rng.gen_bool(0.1) {
                            EventKind::Finalize
                        } else {
                            EventKind::Segment
                        };
                        queue.schedule(slot, Pending { fire, id, kind });
                        heap.push(Reverse((fire, id, slot)));
                        live[slot as usize] = Some((fire, id));
                    }
                    5..=6 => {
                        let slot = rng.gen_range(0..SLOTS);
                        let taken = queue.cancel(slot).map(|p| (p.fire, p.id));
                        assert_eq!(taken, live[slot as usize].take());
                        cancelled[slot as usize] = taken.or(cancelled[slot as usize]);
                    }
                    7 => {
                        let minutes = rng.gen_range(0..=3 * WINDOW_MINUTES);
                        let at = clock + SimDuration::from_minutes(minutes);
                        let exact = !due(&live, at);
                        assert_eq!(queue.processed_through(at), exact, "case {case}");
                    }
                    _ => {
                        let minutes = if rng.gen_bool(0.1) {
                            rng.gen_range(7 * 24 * 60..=35 * 24 * 60)
                        } else {
                            rng.gen_range(0..=600)
                        };
                        let now = clock + SimDuration::from_minutes(minutes);
                        let exact = !due(&live, now);
                        assert_eq!(queue.processed_through(now), exact, "case {case}");
                        let mut popped = Vec::new();
                        while let Some((slot, pending)) = queue.pop_due(now) {
                            popped.push((pending.fire, pending.id, slot));
                        }
                        let mut expected = Vec::new();
                        while let Some(&Reverse((fire, id, slot))) = heap.peek() {
                            if fire > now {
                                break;
                            }
                            heap.pop();
                            if live[slot as usize] == Some((fire, id)) {
                                live[slot as usize] = None;
                                expected.push((fire, id, slot));
                            }
                        }
                        assert_eq!(popped, expected, "case {case}");
                        if minutes > 4 * WINDOW_MINUTES && !popped.is_empty() {
                            jumps += 1;
                        }
                        clock = now;
                        assert!(queue.processed_through(now), "case {case}");
                        // The run reaches no further than the clock's bucket.
                        let clock_bucket = clock.as_minutes() / BUCKET_MINUTES;
                        assert!(
                            queue
                                .run
                                .iter()
                                .all(|e| e.0.as_minutes() / BUCKET_MINUTES <= clock_bucket),
                            "case {case}"
                        );
                    }
                }
                assert_eq!(queue.live, live.iter().flatten().count(), "case {case}");
                assert!(
                    queue
                        .run
                        .iter()
                        .zip(queue.run.iter().skip(1))
                        .all(|(a, b)| a <= b),
                    "case {case}: the run is out of order"
                );
                for (b, bucket) in queue.later.iter().enumerate() {
                    assert_eq!(queue.occupied >> b & 1 == 1, !bucket.is_empty());
                    assert!(bucket.is_empty() || b > queue.current, "case {case}");
                    assert!(bucket
                        .iter()
                        .all(|e| queue.bucket_of(e.0) == b && e.0 <= queue.horizon()));
                }
            }
        }
        assert!(
            jumps > 0 && later > 0 && into_run > 0 && recycled > 0,
            "{jumps} {later} {into_run} {recycled}"
        );
    }

    /// An in-place transition subtracts the object's old density
    /// registration, then adds the new one, as a re-file does. A two-step
    /// curve leaving its plateau while it is the only linear registration
    /// empties the linear accumulator between the two updates, which
    /// resets it exactly; added first, the new registration would keep the
    /// residue a removed linear neighbour left behind. The index's
    /// weighted sum matches a subtract-then-add replay bit for bit, and the
    /// swapped replay differs.
    #[test]
    fn a_plateau_exit_subtracts_then_adds_its_density() {
        let minute = SimDuration::MINUTE;
        let obs = Obs::none();
        let mut objects = ObjectArena::new();
        let mut index = EngineIndex::for_policy(EvictionPolicy::Fifo);
        let mut slots = Vec::new();
        for (id, size, level, persist, wane) in
            [(1, 1_000_003, 0.5, 3, 10), (2, 3_000_017, 0.7, 1, 7)]
        {
            let curve = ImportanceCurve::two_step(
                Importance::new_clamped(level),
                SimDuration::from_days(persist),
                SimDuration::from_days(wane),
            );
            let spec = ObjectSpec::new(ObjectId::new(id), ByteSize::from_bytes(size), curve);
            let slot = objects
                .insert(StoredObject::from_spec(spec, SimTime::ZERO))
                .slot();
            let (group, _) = index.intern(objects.at(slot).curve());
            index.insert(slot, objects.at(slot), group);
            slots.push(slot);
        }
        // The neighbour wanes for a day and a bit, then leaves.
        let gone = SimTime::from_days(2) + SimDuration::from_minutes(777);
        index.advance(&objects, gone, &obs);
        let neighbour = objects.remove(ObjectId::new(2)).unwrap();
        index.remove(slots[1], &neighbour);
        let exit = SimTime::from_days(3);
        index.advance(&objects, exit - minute, &obs);
        let before = index.density.clone();
        let old = index.reg.get(slots[0]).clone();
        index.advance(&objects, exit, &obs);
        let new = index.reg.get(slots[0]).clone();
        assert!(
            matches!(old, Registered::Linear(SegmentForm::Constant(_))),
            "{old:?}"
        );
        assert!(
            matches!(new, Registered::Linear(SegmentForm::Linear { .. })),
            "{new:?}"
        );
        let replay = |first: &Registered, first_sign, second: &Registered, second_sign| {
            let mut density = before.clone();
            density.integrate_to(exit);
            density.signed_update(first, 1_000_003.0, SimTime::ZERO, first_sign);
            density.signed_update(second, 1_000_003.0, SimTime::ZERO, second_sign);
            density
        };
        let ordered = replay(&old, -1.0, &new, 1.0);
        let swapped = replay(&new, 1.0, &old, -1.0);
        let mut differs = false;
        for at in [exit, exit + SimDuration::from_minutes(4_321)] {
            let got = index.weighted_importance(at).to_bits();
            assert_eq!(got, ordered.value_at(at).to_bits(), "at {at}");
            differs |= got != swapped.value_at(at).to_bits();
        }
        assert!(differs, "the two orders agree here; the test pins nothing");
    }
}
