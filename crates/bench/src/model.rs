//! [`ModelUnit`]: the reclamation rule as a list scan, the reference the
//! indexed [`StorageUnit`](temporal_importance::StorageUnit) is checked and
//! benchmarked against.
//!
//! The rule is the paper's (§3, §5.3). An incoming object may preempt only
//! residents of strictly lower current importance, or expired ones, so an
//! object of importance zero replaces only expired data. Victims go in
//! increasing current importance, then remaining lifetime (never-expiring
//! last), then arrival, then id. Under [`EvictionPolicy::Fifo`] every
//! resident is a candidate, oldest first.
//!
//! Time moves forward only. The model's clock is the latest instant any
//! call or [`advance`](ModelUnit::advance) has brought it to, and a call
//! acts at `max(now, clock)`: one behind the clock acts at the clock.
//!
//! The model keeps its residents in a `Vec` in id order and answers every
//! verb by scanning it: importance is the curve read at the annotation's
//! age, victims are the candidates sorted into that order, occupancy and
//! density are sums. It keeps its own [`UnitStats`]. From the engine crate
//! it takes only the annotation, record, error and protocol types, so a
//! fault in the engine's accounting has nothing here to agree with. Every
//! put is `O(n log n)`: a reference, never a store to run.

use sim_core::{ByteSize, SimDuration, SimTime};
use temporal_importance::protocol::{
    AnnotateMode, DensityInfo, HealthSnapshot, ObjectInfo, Request, Response, ShardHealth,
    StoreApi, StoreStats,
};
use temporal_importance::{
    Admission, Error, EvictionPolicy, EvictionReason, EvictionRecord, Importance, ImportanceCurve,
    ObjectClass, ObjectId, RejuvenateError, StoreError, StoreOutcome, UnitStats,
};

/// One object a [`ModelUnit`] holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Resident {
    /// The object id.
    pub id: ObjectId,
    /// Its size.
    pub size: ByteSize,
    /// Its class tag.
    pub class: ObjectClass,
    /// When it was stored.
    pub arrival: SimTime,
    /// When its annotation was applied: its arrival, or its last accepted
    /// annotation.
    pub annotated_at: SimTime,
    /// Its annotation.
    pub curve: ImportanceCurve,
}

impl Resident {
    fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.annotated_at)
    }

    fn importance(&self, now: SimTime) -> Importance {
        self.curve.importance_at(self.age(now))
    }

    fn expired(&self, now: SimTime) -> bool {
        self.curve.is_expired(self.age(now))
    }

    /// Time left until expiry; `None` never expires.
    fn remaining(&self, now: SimTime) -> Option<SimDuration> {
        self.curve
            .expiry()
            .map(|expiry| expiry.saturating_sub(self.age(now)))
    }
}

/// The victims a plan takes, in eviction order.
#[derive(Debug, Default)]
struct Victims {
    ids: Vec<ObjectId>,
    freed: ByteSize,
    highest: Option<Importance>,
}

/// Why a plan cannot admit: what blocks it and what it could free.
#[derive(Debug)]
struct Blocked {
    blocking: Option<Importance>,
    reclaimable: ByteSize,
}

/// A storage unit that answers every [`StoreApi`] verb by scanning a list
/// of its residents (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use bench_harness::model::ModelUnit;
/// use sim_core::{ByteSize, SimDuration, SimTime};
/// use temporal_importance::protocol::StoreApi;
/// use temporal_importance::{EvictionPolicy, ImportanceCurve, ObjectId};
///
/// let mut model = ModelUnit::new(ByteSize::from_mib(100), EvictionPolicy::Preemptive);
/// let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_days(30));
/// model.put(ObjectId::new(1), ByteSize::from_mib(60), curve, SimTime::ZERO)?;
/// assert_eq!(model.used(), ByteSize::from_mib(60));
/// # Ok::<(), temporal_importance::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelUnit {
    capacity: ByteSize,
    policy: EvictionPolicy,
    /// In ascending id order.
    residents: Vec<Resident>,
    stats: UnitStats,
    /// The instant calls act at, or after.
    clock: SimTime,
}

impl ModelUnit {
    /// An empty unit of `capacity` under `policy`.
    pub fn new(capacity: ByteSize, policy: EvictionPolicy) -> Self {
        ModelUnit {
            capacity,
            policy,
            residents: Vec::new(),
            stats: UnitStats::default(),
            clock: SimTime::ZERO,
        }
    }

    /// Moves the clock to `now` if `now` is ahead of it.
    pub fn advance(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
    }

    /// The unit's capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// The unit's policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The residents, in id order.
    pub fn residents(&self) -> &[Resident] {
        &self.residents
    }

    /// Bytes held: the residents' sizes summed.
    pub fn used(&self) -> ByteSize {
        self.residents.iter().map(|r| r.size).sum()
    }

    /// How many objects the unit holds.
    pub fn len(&self) -> usize {
        self.residents.len()
    }

    /// True when the unit holds nothing.
    pub fn is_empty(&self) -> bool {
        self.residents.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &UnitStats {
        &self.stats
    }

    /// Where `id` sits in the list, or where it would go.
    fn find(&self, id: ObjectId) -> Result<usize, usize> {
        self.residents.binary_search_by_key(&id, |r| r.id)
    }

    /// The victims that make room for `size` bytes entering at
    /// `incoming`, or what blocks them.
    fn plan(&self, size: ByteSize, incoming: Importance, now: SimTime) -> Result<Victims, Blocked> {
        let free = self.capacity - self.used();
        if free >= size {
            return Ok(Victims::default());
        }
        let fifo = self.policy == EvictionPolicy::Fifo;
        let preemptible = |r: &Resident| fifo || r.importance(now) < incoming || r.expired(now);
        let mut candidates: Vec<&Resident> =
            self.residents.iter().filter(|r| preemptible(r)).collect();
        if fifo {
            candidates.sort_by_key(|r| (r.arrival, r.id));
        } else {
            candidates.sort_by_cached_key(|r| {
                let remaining = r.remaining(now);
                // `false < true`: never-expiring residents go last.
                (
                    r.importance(now),
                    remaining.is_none(),
                    remaining,
                    r.arrival,
                    r.id,
                )
            });
        }
        let mut victims = Victims::default();
        for r in &candidates {
            if free + victims.freed >= size {
                break;
            }
            victims.ids.push(r.id);
            victims.freed += r.size;
            victims.highest = victims.highest.max(Some(r.importance(now)));
        }
        if free + victims.freed >= size {
            return Ok(victims);
        }
        Err(Blocked {
            blocking: self
                .residents
                .iter()
                .filter(|r| !preemptible(r))
                .map(|r| r.importance(now))
                .min(),
            reclaimable: free + candidates.iter().map(|r| r.size).sum(),
        })
    }

    /// Takes `id` out and answers its record. The caller counts the
    /// reason in [`UnitStats`].
    fn evict(&mut self, id: ObjectId, now: SimTime, reason: EvictionReason) -> EvictionRecord {
        let at = self.find(id).expect("only residents are evicted");
        let r = self.residents.remove(at);
        self.stats.bytes_evicted += r.size.as_bytes();
        EvictionRecord {
            id: r.id,
            class: r.class,
            size: r.size,
            arrival: r.arrival,
            evicted_at: now,
            importance_at_eviction: r.importance(now),
            requested_expiry: r.curve.expiry(),
            reason,
        }
    }

    fn store(
        &mut self,
        id: ObjectId,
        size: ByteSize,
        curve: ImportanceCurve,
        class: ObjectClass,
        now: SimTime,
    ) -> Result<StoreOutcome, StoreError> {
        self.stats.stores_attempted += 1;
        if size.is_zero() {
            return Err(StoreError::EmptyObject(id));
        }
        if size > self.capacity {
            self.stats.rejections_too_large += 1;
            return Err(StoreError::TooLarge {
                size,
                capacity: self.capacity,
            });
        }
        if self.find(id).is_ok() {
            return Err(StoreError::DuplicateId(id));
        }
        let victims = match self.plan(size, curve.initial_importance(), now) {
            Ok(victims) => victims,
            Err(Blocked {
                blocking,
                reclaimable,
            }) => {
                self.stats.rejections_full += 1;
                return Err(StoreError::Full {
                    required: size,
                    reclaimable,
                    blocking,
                });
            }
        };
        let mut evicted = Vec::new();
        for &victim in &victims.ids {
            self.stats.evictions_preempted += 1;
            evicted.push(self.evict(victim, now, EvictionReason::Preempted));
        }
        self.stats.stores_accepted += 1;
        self.stats.bytes_accepted += size.as_bytes();
        let at = self.find(id).expect_err("checked absent above");
        self.residents.insert(
            at,
            Resident {
                id,
                size,
                class,
                arrival: now,
                annotated_at: now,
                curve,
            },
        );
        Ok(StoreOutcome {
            id,
            evicted,
            highest_preempted: victims.highest,
        })
    }

    fn peek(&self, size: ByteSize, incoming: Importance, now: SimTime) -> Admission {
        if size.is_zero() || size > self.capacity {
            return Admission::TooLarge;
        }
        match self.plan(size, incoming, now) {
            Ok(Victims {
                ids,
                freed,
                highest: Some(highest),
            }) if !highest.is_zero() => Admission::Preempting {
                highest,
                victims: ids.len(),
                freed,
            },
            Ok(victims) => Admission::Fits {
                victims: victims.ids.len(),
            },
            Err(blocked) => Admission::Full {
                blocking: blocked.blocking,
            },
        }
    }

    fn reannotate(
        &mut self,
        id: ObjectId,
        curve: ImportanceCurve,
        mode: AnnotateMode,
        now: SimTime,
    ) -> Result<(), RejuvenateError> {
        let at = self.find(id).map_err(|_| RejuvenateError::NotFound(id))?;
        let r = &mut self.residents[at];
        let (current, proposed) = (r.importance(now), curve.initial_importance());
        if mode == AnnotateMode::Raise && proposed < current {
            return Err(RejuvenateError::WouldLowerImportance { current, proposed });
        }
        r.curve = curve;
        r.annotated_at = now;
        Ok(())
    }

    /// Every stored byte weighted by its current importance, over the
    /// capacity.
    fn density(&self, now: SimTime) -> f64 {
        if self.capacity.is_zero() {
            return 0.0;
        }
        let weighted: f64 = self
            .residents
            .iter()
            .map(|r| r.size.as_bytes() as f64 * r.importance(now).value())
            .sum();
        weighted / self.capacity.as_bytes() as f64
    }
}

impl StoreApi for ModelUnit {
    fn call(&mut self, now: SimTime, request: Request) -> Response {
        self.advance(now);
        let now = self.clock;
        match request {
            Request::Put {
                id,
                bytes,
                curve,
                class,
            } => Response::Put(
                self.store(id, bytes, curve, class, now)
                    .map_err(Error::from),
            ),
            Request::Get { id } => {
                let info = self.find(id).ok().map(|at| {
                    let r = &self.residents[at];
                    ObjectInfo {
                        id,
                        size: r.size,
                        arrival: r.arrival,
                        importance: r.importance(now),
                        expired: r.expired(now),
                    }
                });
                Response::Get(Ok(info))
            }
            Request::Advise {
                id: _,
                bytes,
                incoming,
            } => Response::Advise(Ok(self.peek(bytes, incoming, now))),
            Request::Density => Response::Density(Ok(DensityInfo {
                density: self.density(now),
                capacity: self.capacity,
                used: self.used(),
            })),
            Request::Stats => Response::Stats(Ok(StoreStats {
                unit: self.stats,
                used: self.used(),
                capacity: self.capacity,
                objects: self.len() as u64,
            })),
            Request::Health => Response::Health(Ok(HealthSnapshot {
                shards: vec![ShardHealth {
                    shard: 0,
                    clock: now,
                    residents: self.len() as u64,
                    used: self.used(),
                    capacity: self.capacity,
                    queue_depth: 0,
                    requests: 0,
                    batches: 0,
                    rejected: 0,
                    latencies: Vec::new(),
                }],
            })),
            Request::Remove { id } => {
                let record = self.find(id).ok().map(|_| {
                    self.stats.removals += 1;
                    self.evict(id, now, EvictionReason::Removed)
                });
                Response::Remove(Ok(record))
            }
            Request::Annotate { id, curve, mode } => {
                Response::Annotate(self.reannotate(id, curve, mode, now).map_err(Error::from))
            }
            Request::Sweep => {
                let expired: Vec<ObjectId> = self
                    .residents
                    .iter()
                    .filter(|r| r.expired(now))
                    .map(|r| r.id)
                    .collect();
                let mut records = Vec::new();
                for id in expired {
                    self.stats.evictions_expired += 1;
                    records.push(self.evict(id, now, EvictionReason::Expired));
                }
                Response::Sweep(Ok(records))
            }
        }
    }
}

/// One hand-worked case per rule the module docs state.
#[cfg(test)]
mod tests {
    use super::*;
    use temporal_importance::PiecewiseCurve;

    fn mib(n: u64) -> ByteSize {
        ByteSize::from_mib(n)
    }

    fn imp(v: f64) -> Importance {
        Importance::new(v).unwrap()
    }

    fn day(n: u64) -> SimTime {
        SimTime::from_days(n)
    }

    fn fixed(importance: f64, days: u64) -> ImportanceCurve {
        ImportanceCurve::Fixed {
            importance: imp(importance),
            expiry: SimDuration::from_days(days),
        }
    }

    fn put(
        model: &mut ModelUnit,
        id: u64,
        size: u64,
        curve: ImportanceCurve,
        at: SimTime,
    ) -> Result<StoreOutcome, Error> {
        model.put(ObjectId::new(id), mib(size), curve, at)
    }

    fn evicted(outcome: &StoreOutcome) -> Vec<u64> {
        outcome.evicted.iter().map(|r| r.id.raw()).collect()
    }

    fn full(result: Result<StoreOutcome, Error>) -> (ByteSize, ByteSize, Option<Importance>) {
        match result {
            Err(Error::Store(StoreError::Full {
                required,
                reclaimable,
                blocking,
            })) => (required, reclaimable, blocking),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn only_strictly_lower_importance_is_preemptible() {
        let mut model = ModelUnit::new(mib(100), EvictionPolicy::Preemptive);
        put(&mut model, 1, 60, fixed(0.5, 365), day(0)).unwrap();
        put(&mut model, 2, 40, fixed(0.9, 365), day(0)).unwrap();
        let equal = put(&mut model, 3, 50, fixed(0.5, 365), day(0));
        assert_eq!(full(equal), (mib(50), ByteSize::ZERO, Some(imp(0.5))));
        let outcome = put(&mut model, 4, 50, fixed(0.7, 365), day(0)).unwrap();
        assert_eq!(evicted(&outcome), vec![1]);
        assert_eq!(outcome.highest_preempted, Some(imp(0.5)));
        assert_eq!(outcome.evicted[0].reason, EvictionReason::Preempted);
    }

    #[test]
    fn zero_importance_replaces_only_expired_data() {
        let mut model = ModelUnit::new(mib(100), EvictionPolicy::Preemptive);
        put(&mut model, 1, 50, fixed(0.1, 30), day(0)).unwrap();
        put(&mut model, 2, 50, fixed(1.0, 10), day(0)).unwrap();
        let live = put(&mut model, 3, 50, ImportanceCurve::Ephemeral, day(5));
        assert_eq!(full(live), (mib(50), ByteSize::ZERO, Some(imp(0.1))));
        let outcome = put(&mut model, 3, 50, ImportanceCurve::Ephemeral, day(11)).unwrap();
        assert_eq!(evicted(&outcome), vec![2]);
        assert_eq!(outcome.evicted[0].importance_at_eviction, Importance::ZERO);
        assert_eq!(outcome.highest_preempted, Some(Importance::ZERO));
    }

    /// Six residents of 20 MiB, five of them at importance 0.5 on day 2,
    /// leave in the order the §5.3 key gives: the lower importance, then
    /// the shortest remaining lifetime, then the earlier arrival, then the
    /// lower id, and the never-expiring one last.
    #[test]
    fn victims_leave_in_the_tie_order() {
        let mut model = ModelUnit::new(mib(120), EvictionPolicy::Preemptive);
        let never = PiecewiseCurve::new(vec![(SimDuration::ZERO, imp(0.5))]).unwrap();
        put(&mut model, 1, 20, fixed(0.5, 31), day(0)).unwrap(); // expires day 31
        put(&mut model, 2, 20, fixed(0.5, 20), day(0)).unwrap(); // expires day 20
        put(&mut model, 3, 20, never.into(), day(0)).unwrap();
        put(&mut model, 6, 20, fixed(0.4, 365), day(0)).unwrap();
        put(&mut model, 5, 20, fixed(0.5, 30), day(1)).unwrap(); // expires day 31
        put(&mut model, 4, 20, fixed(0.5, 30), day(1)).unwrap(); // expires day 31
        let outcome = put(&mut model, 9, 120, fixed(0.9, 365), day(2)).unwrap();
        assert_eq!(evicted(&outcome), vec![6, 2, 1, 4, 5, 3]);
        assert_eq!(outcome.highest_preempted, Some(imp(0.5)));
    }

    #[test]
    fn fifo_ignores_importance() {
        let mut model = ModelUnit::new(mib(100), EvictionPolicy::Fifo);
        put(&mut model, 1, 40, ImportanceCurve::Persistent, day(0)).unwrap();
        put(&mut model, 2, 40, fixed(0.2, 365), day(1)).unwrap();
        put(&mut model, 3, 20, ImportanceCurve::Persistent, day(2)).unwrap();
        let outcome = put(&mut model, 4, 30, ImportanceCurve::Ephemeral, day(3)).unwrap();
        assert_eq!(evicted(&outcome), vec![1]);
        assert_eq!(outcome.highest_preempted, Some(Importance::FULL));
        let advice = model.advise(ObjectId::new(5), mib(50), Importance::ZERO, day(3));
        let freed = mib(40);
        let expected = Admission::Preempting {
            highest: imp(0.2),
            victims: 1,
            freed,
        };
        assert_eq!(advice.unwrap(), expected);
    }

    /// `Full` names the least important resident that blocks and counts
    /// free space plus every candidate's bytes; the other refusals count
    /// as the engine's do.
    #[test]
    fn refusals_carry_what_blocks_them() {
        let mut model = ModelUnit::new(mib(100), EvictionPolicy::Preemptive);
        put(&mut model, 1, 30, fixed(0.2, 365), day(0)).unwrap();
        put(&mut model, 2, 30, fixed(0.6, 365), day(0)).unwrap();
        put(&mut model, 3, 30, fixed(0.8, 365), day(0)).unwrap();
        let refused = put(&mut model, 4, 80, fixed(0.7, 365), day(0));
        assert_eq!(full(refused), (mib(80), mib(70), Some(imp(0.8))));
        let advice = model.advise(ObjectId::new(4), mib(80), imp(0.7), day(0));
        let blocking = Some(imp(0.8));
        assert_eq!(advice.unwrap(), Admission::Full { blocking });
        assert!(matches!(
            put(&mut model, 5, 101, fixed(1.0, 1), day(0)),
            Err(Error::Store(StoreError::TooLarge { .. }))
        ));
        assert!(matches!(
            put(&mut model, 6, 0, fixed(1.0, 1), day(0)),
            Err(Error::Store(StoreError::EmptyObject(_)))
        ));
        assert!(matches!(
            put(&mut model, 1, 1, fixed(1.0, 1), day(0)),
            Err(Error::Store(StoreError::DuplicateId(_)))
        ));
        let stats = *model.stats();
        assert_eq!(stats.stores_attempted, 7);
        assert_eq!(stats.stores_accepted, 3);
        assert_eq!((stats.rejections_full, stats.rejections_too_large), (1, 1));
        assert_eq!(stats.bytes_accepted, mib(90).as_bytes());
        assert_eq!(model.used(), mib(90));
    }

    /// On day 15 the two-step curve has waned to exactly 0.5: a `Raise`
    /// to 0.4 is refused, one to 0.5 is accepted and restarts the curve's
    /// age; a `Replace` may lower it.
    #[test]
    fn raise_refuses_only_a_strictly_lower_start() {
        let mut model = ModelUnit::new(mib(100), EvictionPolicy::Preemptive);
        let waning = ImportanceCurve::two_step(
            Importance::FULL,
            SimDuration::from_days(10),
            SimDuration::from_days(10),
        );
        put(&mut model, 1, 10, waning, day(0)).unwrap();
        let (id, now) = (ObjectId::new(1), day(15));
        let lower = model.annotate(id, fixed(0.4, 30), AnnotateMode::Raise, now);
        assert!(matches!(
            lower,
            Err(Error::Rejuvenate(RejuvenateError::WouldLowerImportance { current, proposed }))
                if current == imp(0.5) && proposed == imp(0.4)
        ));
        model
            .annotate(id, fixed(0.5, 30), AnnotateMode::Raise, now)
            .unwrap();
        let resident = &model.residents()[0];
        assert_eq!((resident.arrival, resident.annotated_at), (day(0), now));
        assert_eq!(resident.curve, fixed(0.5, 30));
        model
            .annotate(id, ImportanceCurve::Ephemeral, AnnotateMode::Replace, now)
            .unwrap();
        let info = model.get_info(id, now).unwrap().unwrap();
        assert_eq!((info.importance, info.expired), (Importance::ZERO, true));
        let absent = model.annotate(ObjectId::new(2), fixed(1.0, 1), AnnotateMode::Replace, now);
        assert!(matches!(
            absent,
            Err(Error::Rejuvenate(RejuvenateError::NotFound(_)))
        ));
    }

    /// After a call on day 10, calls dated day 5 act on day 10: the
    /// resident that expired on day 7 is swept and a put "on day 5"
    /// arrives on day 10.
    #[test]
    fn a_call_behind_the_clock_acts_at_the_clock() {
        let mut model = ModelUnit::new(mib(100), EvictionPolicy::Preemptive);
        put(&mut model, 1, 50, fixed(0.8, 7), day(0)).unwrap();
        model.store_stats(day(10)).unwrap();
        put(&mut model, 2, 10, fixed(0.5, 30), day(5)).unwrap();
        assert_eq!(model.residents()[1].arrival, day(10));
        let records = model.sweep(day(5)).unwrap();
        assert_eq!((records.len(), records[0].id), (1, ObjectId::new(1)));
        assert_eq!(records[0].evicted_at, day(10));
        let info = model.get_info(ObjectId::new(2), day(0)).unwrap().unwrap();
        assert_eq!(info.importance, imp(0.5));
        let density = model.density_info(day(5)).unwrap().density;
        assert!((density - 0.05).abs() <= 1e-12, "{density}");
    }

    #[test]
    fn a_sweep_reclaims_the_expired_in_id_order() {
        let mut model = ModelUnit::new(mib(100), EvictionPolicy::Preemptive);
        for (id, days) in [(7, 1), (3, 1), (4, 10), (5, 1)] {
            put(&mut model, id, 10, fixed(0.5, days), day(0)).unwrap();
        }
        let records = model.sweep(day(2)).unwrap();
        let ids: Vec<u64> = records.iter().map(|r| r.id.raw()).collect();
        assert_eq!(ids, vec![3, 5, 7]);
        assert!(records.iter().all(|r| r.reason == EvictionReason::Expired));
        let stats = *model.stats();
        assert_eq!(stats.evictions_expired, 3);
        assert_eq!(stats.bytes_evicted, mib(30).as_bytes());
        assert_eq!(model.used(), mib(10));
        let density = model.density_info(day(2)).unwrap().density;
        assert!((density - 0.05).abs() <= 1e-12, "{density}");
    }
}
