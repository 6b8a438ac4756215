//! The unified `StoreApi` request/response protocol.
//!
//! Every front-end to the reclamation engine — a single in-process
//! [`StorageUnit`], the journaled `DurableUnit` in `tempimp-durable`, and
//! the sharded `tempimpd` service (its per-shard `ShardEngine` and its
//! `ServeClient`) — speaks the same six-verb protocol: **put**, **get**,
//! **advise**, **density**, **stats**, **health**. The verbs are
//! reified as the [`Request`] and [`Response`] enums so they can cross
//! thread boundaries (the `tempimpd` ingest queues carry exactly these
//! values), be recorded to a replayable request log, and be dispatched
//! through one generic entry point.
//!
//! The [`StoreApi`] trait has a single required method,
//! [`call`](StoreApi::call), which takes a request envelope and returns
//! the matching response; the verb methods ([`put`](StoreApi::put),
//! [`get_info`](StoreApi::get_info), …) are provided on top of it. Load
//! generators and differential tests are written against `StoreApi`, so
//! the same driver exercises a bare unit and a sharded service without
//! change.
//!
//! # Examples
//!
//! ```
//! use sim_core::{ByteSize, SimDuration, SimTime};
//! use temporal_importance::protocol::StoreApi;
//! use temporal_importance::{ImportanceCurve, ObjectId, StorageUnit};
//!
//! let mut unit = StorageUnit::new(ByteSize::from_gib(1));
//! let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_days(30));
//! let outcome = unit.put(ObjectId::new(1), ByteSize::from_mib(100), curve, SimTime::ZERO)?;
//! assert!(outcome.evicted.is_empty());
//!
//! let info = unit.get_info(ObjectId::new(1), SimTime::ZERO)?.expect("stored");
//! assert_eq!(info.size, ByteSize::from_mib(100));
//! let stats = unit.store_stats(SimTime::ZERO)?;
//! assert_eq!(stats.objects, 1);
//! # Ok::<(), temporal_importance::Error>(())
//! ```

use serde::{Deserialize, Serialize};
use sim_core::fx::FxHasher;
use sim_core::{ByteSize, SimTime};
use std::hash::Hasher;

use crate::{
    Admission, Error, Importance, ImportanceCurve, ObjectClass, ObjectId, ObjectSpec, StorageUnit,
    StoreOutcome, UnitStats,
};

/// One protocol request. `Put`, `Get` and `Advise` are keyed by an
/// [`ObjectId`] and route to a single shard in sharded implementations;
/// `Density`, `Stats` and `Health` are whole-store queries that fan out
/// and aggregate.
///
/// Requests are serializable so a serving layer can keep a replayable
/// request log — the differential determinism tests record the per-shard
/// logs of a concurrent run and replay them single-threaded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Store `bytes` under `id` with the given lifetime annotation.
    Put {
        /// The object id (also the routing key).
        id: ObjectId,
        /// The object's size.
        bytes: ByteSize,
        /// The temporal-importance annotation.
        curve: ImportanceCurve,
        /// The application-class tag.
        class: ObjectClass,
    },
    /// Look up an object's metadata.
    Get {
        /// The object id to look up.
        id: ObjectId,
    },
    /// Preview the admission decision for an object of this size and
    /// incoming importance, without mutating anything — the §5.3
    /// placement probe as a protocol verb. The id is the routing key: a
    /// sharded store answers for the shard the object *would* land on.
    Advise {
        /// The id the object would be stored under.
        id: ObjectId,
        /// The object's size.
        bytes: ByteSize,
        /// The importance it would enter with.
        incoming: Importance,
    },
    /// The storage importance density metric (§5.2), aggregated across
    /// shards weighted by capacity.
    Density,
    /// Lifetime counters and occupancy, aggregated across shards.
    Stats,
    /// Per-shard serving health: clock, occupancy, ingest queue depth,
    /// backpressure counters and queue-wait/service-time latency
    /// quantiles per verb. Sharded stores answer one [`ShardHealth`]
    /// entry per shard, in shard order; plain stores answer a single
    /// entry with the serving-layer fields at their inert zero values.
    Health,
}

impl Request {
    /// The routing key of a keyed verb (`Put`, `Get`, `Advise`), or
    /// `None` for a whole-store query that fans out to every shard.
    pub fn key(&self) -> Option<ObjectId> {
        match self {
            Request::Put { id, .. } | Request::Get { id } | Request::Advise { id, .. } => Some(*id),
            Request::Density | Request::Stats | Request::Health => None,
        }
    }
}

/// Which protocol verb a [`Request`] is, detached from its payload.
///
/// Serving layers use this for everything that needs a verb after the
/// request value has been moved into a queue: building the matching
/// failure [`Response`], keying per-verb latency histograms, and tagging
/// trace events with a stable integer [`code`](VerbKind::code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VerbKind {
    /// [`Request::Put`].
    Put,
    /// [`Request::Get`].
    Get,
    /// [`Request::Advise`].
    Advise,
    /// [`Request::Density`].
    Density,
    /// [`Request::Stats`].
    Stats,
    /// [`Request::Health`].
    Health,
}

impl VerbKind {
    /// Every verb, in [`code`](VerbKind::code) order.
    pub const ALL: [VerbKind; 6] = [
        VerbKind::Put,
        VerbKind::Get,
        VerbKind::Advise,
        VerbKind::Density,
        VerbKind::Stats,
        VerbKind::Health,
    ];

    /// The verb of `request`.
    pub fn of(request: &Request) -> VerbKind {
        match request {
            Request::Put { .. } => VerbKind::Put,
            Request::Get { .. } => VerbKind::Get,
            Request::Advise { .. } => VerbKind::Advise,
            Request::Density => VerbKind::Density,
            Request::Stats => VerbKind::Stats,
            Request::Health => VerbKind::Health,
        }
    }

    /// The verb's lowercase wire name.
    pub const fn name(self) -> &'static str {
        match self {
            VerbKind::Put => "put",
            VerbKind::Get => "get",
            VerbKind::Advise => "advise",
            VerbKind::Density => "density",
            VerbKind::Stats => "stats",
            VerbKind::Health => "health",
        }
    }

    /// A stable integer for trace-event fields (events carry only `u64`s
    /// so traces stay byte-reproducible). Matches the position in
    /// [`VerbKind::ALL`].
    pub const fn code(self) -> u64 {
        self as u64
    }

    /// Builds the failure response matching this verb, so a transport
    /// error surfaces through the same shape a success would.
    pub fn failed(self, error: Error) -> Response {
        match self {
            VerbKind::Put => Response::Put(Err(error)),
            VerbKind::Get => Response::Get(Err(error)),
            VerbKind::Advise => Response::Advise(Err(error)),
            VerbKind::Density => Response::Density(Err(error)),
            VerbKind::Stats => Response::Stats(Err(error)),
            VerbKind::Health => Response::Health(Err(error)),
        }
    }
}

/// The metadata view of one stored object answered by [`Request::Get`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectInfo {
    /// The object's id.
    pub id: ObjectId,
    /// Its stored size.
    pub size: ByteSize,
    /// When it entered the store.
    pub arrival: SimTime,
    /// Its current importance at the request's effective time.
    pub importance: Importance,
    /// True if the annotation has expired at the request's effective time.
    pub expired: bool,
}

/// Aggregate occupancy and lifetime counters answered by
/// [`Request::Stats`]. For sharded stores every field is summed across
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreStats {
    /// Summed per-unit lifetime counters.
    pub unit: UnitStats,
    /// Bytes currently resident.
    pub used: ByteSize,
    /// Total capacity.
    pub capacity: ByteSize,
    /// Objects currently resident.
    pub objects: u64,
}

impl StoreStats {
    /// Folds another shard's stats into this aggregate.
    pub fn absorb(&mut self, other: &StoreStats) {
        self.unit += &other.unit;
        self.used += other.used;
        self.capacity += other.capacity;
        self.objects += other.objects;
    }
}

/// The storage importance density answered by [`Request::Density`],
/// carried with the occupancy it was computed over so sharded stores can
/// aggregate exactly (capacity-weighted mean).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DensityInfo {
    /// The density value in `[0, 1]`.
    pub density: f64,
    /// The capacity it is normalized by.
    pub capacity: ByteSize,
    /// Bytes resident when it was sampled.
    pub used: ByteSize,
}

/// The serving-health aggregate answered by [`Request::Health`]: one
/// [`ShardHealth`] per shard, in shard order. A plain [`StorageUnit`]
/// answers a single entry whose serving-layer fields (queue depth,
/// request counters, latencies) sit at their inert zero values — the
/// same shape an `obs-off` build of a serving layer reports.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Per-shard health, in shard order.
    pub shards: Vec<ShardHealth>,
}

impl HealthSnapshot {
    /// Appends another store's shards (used by fan-out aggregation;
    /// entries keep their per-shard indices).
    pub fn absorb(&mut self, other: HealthSnapshot) {
        self.shards.extend(other.shards);
    }

    /// Ingest-queue depth summed across shards.
    pub fn total_queue_depth(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Requests served, summed across shards.
    pub fn total_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }
}

/// One shard's health: engine occupancy plus the serving-layer telemetry
/// of its worker (queue depth, throughput counters, latency quantiles).
///
/// The engine-side fields (`clock`, `residents`, `used`, `capacity`) are
/// always live; the serving-layer fields are zero/empty when answered by
/// a non-serving store or by a serving layer compiled with `obs-off`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// The shard index.
    pub shard: u32,
    /// The shard's effective clock at the time of the answer.
    pub clock: SimTime,
    /// Objects resident on the shard.
    pub residents: u64,
    /// Bytes resident.
    pub used: ByteSize,
    /// The shard's capacity.
    pub capacity: ByteSize,
    /// Requests waiting in the shard's ingest queue when the health
    /// request was applied (zero for non-queued stores).
    pub queue_depth: u64,
    /// Requests the shard worker has completed.
    pub requests: u64,
    /// Batches the shard worker has drained.
    pub batches: u64,
    /// Requests rejected with a full-queue backpressure error.
    pub rejected: u64,
    /// Queue-wait/service-time quantiles per verb, for verbs with at
    /// least one sample. Empty when tracing is off (`obs-off`).
    pub latencies: Vec<VerbLatency>,
}

/// Bucket-resolution latency quantiles for one verb on one shard,
/// derived from the request-scoped stage timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerbLatency {
    /// The verb.
    pub verb: VerbKind,
    /// Samples behind the quantiles.
    pub samples: u64,
    /// Median nanoseconds between client enqueue and batch apply.
    pub queue_wait_p50_ns: u64,
    /// 99th-percentile queue-wait nanoseconds.
    pub queue_wait_p99_ns: u64,
    /// Median nanoseconds between batch apply and reply.
    pub service_p50_ns: u64,
    /// 99th-percentile service nanoseconds.
    pub service_p99_ns: u64,
}

/// One protocol response. Every variant carries a `Result` because a
/// serving layer can fail any request for reasons the engine never sees —
/// a dead shard, a full ingest queue, a disconnected worker — and those
/// failures surface as the service variants of [`Error`].
#[derive(Debug)]
pub enum Response {
    /// Answer to [`Request::Put`].
    Put(Result<StoreOutcome, Error>),
    /// Answer to [`Request::Get`].
    Get(Result<Option<ObjectInfo>, Error>),
    /// Answer to [`Request::Advise`].
    Advise(Result<Admission, Error>),
    /// Answer to [`Request::Density`].
    Density(Result<DensityInfo, Error>),
    /// Answer to [`Request::Stats`].
    Stats(Result<StoreStats, Error>),
    /// Answer to [`Request::Health`].
    Health(Result<HealthSnapshot, Error>),
}

/// The unified store interface: one [`call`](StoreApi::call) entry point
/// dispatching [`Request`]s, with typed verb methods provided on top.
///
/// Implementations must answer each request variant with the matching
/// response variant; the verb methods panic on a mismatch, which is a
/// protocol bug in the implementation, never a runtime condition.
pub trait StoreApi {
    /// Dispatches one request at simulated instant `now`.
    ///
    /// Serving layers may coalesce `now` forward (never backward) to a
    /// batch drain time; callers must treat `now` as a lower bound on the
    /// effective time of the operation.
    fn call(&mut self, now: SimTime, request: Request) -> Response;

    /// Stores `bytes` under `id` with the given annotation.
    ///
    /// # Errors
    ///
    /// [`Error::Store`] when the engine refuses the object, or a service
    /// variant when the serving layer cannot reach the shard.
    fn put(
        &mut self,
        id: ObjectId,
        bytes: ByteSize,
        curve: ImportanceCurve,
        now: SimTime,
    ) -> Result<StoreOutcome, Error> {
        let request = Request::Put {
            id,
            bytes,
            curve,
            class: ObjectClass::GENERIC,
        };
        match self.call(now, request) {
            Response::Put(result) => result,
            other => panic!("protocol violation: Put answered with {other:?}"),
        }
    }

    /// Looks up an object's metadata; `Ok(None)` means not stored.
    ///
    /// # Errors
    ///
    /// A service variant of [`Error`] when the shard is unreachable.
    fn get_info(&mut self, id: ObjectId, now: SimTime) -> Result<Option<ObjectInfo>, Error> {
        match self.call(now, Request::Get { id }) {
            Response::Get(result) => result,
            other => panic!("protocol violation: Get answered with {other:?}"),
        }
    }

    /// Previews the admission decision for an object of this size and
    /// incoming importance, routed as `id` would be.
    ///
    /// # Errors
    ///
    /// A service variant of [`Error`] when the shard is unreachable.
    fn advise(
        &mut self,
        id: ObjectId,
        bytes: ByteSize,
        incoming: Importance,
        now: SimTime,
    ) -> Result<Admission, Error> {
        match self.call(
            now,
            Request::Advise {
                id,
                bytes,
                incoming,
            },
        ) {
            Response::Advise(result) => result,
            other => panic!("protocol violation: Advise answered with {other:?}"),
        }
    }

    /// The storage importance density, aggregated across shards.
    ///
    /// # Errors
    ///
    /// A service variant of [`Error`] when any shard is unreachable.
    fn density_info(&mut self, now: SimTime) -> Result<DensityInfo, Error> {
        match self.call(now, Request::Density) {
            Response::Density(result) => result,
            other => panic!("protocol violation: Density answered with {other:?}"),
        }
    }

    /// Aggregate lifetime counters and occupancy.
    ///
    /// # Errors
    ///
    /// A service variant of [`Error`] when any shard is unreachable.
    fn store_stats(&mut self, now: SimTime) -> Result<StoreStats, Error> {
        match self.call(now, Request::Stats) {
            Response::Stats(result) => result,
            other => panic!("protocol violation: Stats answered with {other:?}"),
        }
    }

    /// Per-shard serving health: clock, occupancy, queue depth and
    /// latency quantiles per verb (see [`HealthSnapshot`]).
    ///
    /// # Errors
    ///
    /// A service variant of [`Error`] when any shard is unreachable.
    fn health(&mut self, now: SimTime) -> Result<HealthSnapshot, Error> {
        match self.call(now, Request::Health) {
            Response::Health(result) => result,
            other => panic!("protocol violation: Health answered with {other:?}"),
        }
    }
}

/// Deterministic, total object-to-shard routing shared by every sharded
/// [`StoreApi`] implementor.
///
/// The raw id is mixed before reduction so that sequentially allocated
/// ids (the common case — [`crate::ObjectIdGen`] counts up) spread across
/// shards instead of striping, and the mapping is a pure function of
/// `(id, shards)`: two routers with the same shard count agree on every
/// id, across processes and across runs. That stability is a
/// compatibility contract — a recorded request log only finds its objects
/// on replay if every id maps to the shard it mapped to when the log was
/// written — so the function ([`FxHasher`] over the raw id, reduced with
/// `% shards`) must not change without something persisted recording
/// which function a fleet was built under.
///
/// # Examples
///
/// ```
/// use temporal_importance::protocol::ShardRouter;
/// use temporal_importance::ObjectId;
///
/// let router = ShardRouter::new(8);
/// let shard = router.route(ObjectId::new(42));
/// assert!(shard < 8);
/// assert_eq!(shard, ShardRouter::new(8).route(ObjectId::new(42)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "a store needs at least one shard");
        ShardRouter { shards }
    }

    /// The shard count.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard `id` lives on: always in `0..shards()`.
    pub fn route(&self, id: ObjectId) -> u32 {
        let mut hasher = FxHasher::default();
        hasher.write_u64(id.raw());
        (hasher.finish() % u64::from(self.shards)) as u32
    }
}

/// Folds the per-shard answers to a whole-store query (`Density`, `Stats`
/// or `Health`) into one response — the fold `tempimpd`'s client applies
/// to a fan-out's replies.
///
/// Answers are folded in the order given, which callers keep at shard
/// order: `Health` lists its shards in that order, and `Density` is a
/// capacity-weighted mean whose float summation is only reproducible for a
/// fixed order. The first shard error becomes the aggregate's answer.
///
/// # Panics
///
/// Panics if `verb` is a keyed verb, or if a response is not `verb`'s
/// variant — protocol bugs in the caller, never runtime conditions.
pub fn aggregate(verb: VerbKind, responses: impl IntoIterator<Item = Response>) -> Response {
    match verb {
        VerbKind::Stats => {
            let mut total = StoreStats::default();
            for response in responses {
                match response {
                    Response::Stats(Ok(stats)) => total.absorb(&stats),
                    Response::Stats(Err(error)) => return Response::Stats(Err(error)),
                    other => panic!("protocol violation: Stats answered with {other:?}"),
                }
            }
            Response::Stats(Ok(total))
        }
        VerbKind::Density => {
            let mut weighted = 0.0f64;
            let mut capacity = ByteSize::ZERO;
            let mut used = ByteSize::ZERO;
            for response in responses {
                match response {
                    Response::Density(Ok(info)) => {
                        weighted += info.density * info.capacity.as_bytes() as f64;
                        capacity += info.capacity;
                        used += info.used;
                    }
                    Response::Density(Err(error)) => return Response::Density(Err(error)),
                    other => panic!("protocol violation: Density answered with {other:?}"),
                }
            }
            let density = if capacity.is_zero() {
                0.0
            } else {
                weighted / capacity.as_bytes() as f64
            };
            Response::Density(Ok(DensityInfo {
                density,
                capacity,
                used,
            }))
        }
        VerbKind::Health => {
            let mut total = HealthSnapshot::default();
            for response in responses {
                match response {
                    Response::Health(Ok(snapshot)) => total.absorb(snapshot),
                    Response::Health(Err(error)) => return Response::Health(Err(error)),
                    other => panic!("protocol violation: Health answered with {other:?}"),
                }
            }
            Response::Health(Ok(total))
        }
        VerbKind::Put | VerbKind::Get | VerbKind::Advise => {
            unreachable!("only whole-store verbs aggregate")
        }
    }
}

impl StoreApi for StorageUnit {
    fn call(&mut self, now: SimTime, request: Request) -> Response {
        match request {
            Request::Put {
                id,
                bytes,
                curve,
                class,
            } => {
                let spec = ObjectSpec::new(id, bytes, curve).with_class(class);
                Response::Put(self.store(spec, now).map_err(Error::from))
            }
            Request::Get { id } => {
                self.advance(now);
                let info = self.get(id).map(|object| ObjectInfo {
                    id: object.id(),
                    size: object.size(),
                    arrival: object.arrival(),
                    importance: object.current_importance(now),
                    expired: object.is_expired(now),
                });
                Response::Get(Ok(info))
            }
            Request::Advise {
                id: _,
                bytes,
                incoming,
            } => {
                // A single unit is its own shard; the routing key is moot.
                self.advance(now);
                Response::Advise(Ok(self.peek_admission(bytes, incoming, now)))
            }
            Request::Density => {
                self.advance(now);
                Response::Density(Ok(DensityInfo {
                    density: self.importance_density(now),
                    capacity: self.capacity(),
                    used: self.used(),
                }))
            }
            Request::Stats => Response::Stats(Ok(StoreStats {
                unit: *self.stats(),
                used: self.used(),
                capacity: self.capacity(),
                objects: self.len() as u64,
            })),
            Request::Health => {
                self.advance(now);
                // A bare unit is its own single shard; the serving-layer
                // fields report their inert zeroes. Serving layers call
                // through to this arm (so clock/occupancy side effects
                // replay identically) and then fill in worker telemetry.
                Response::Health(Ok(HealthSnapshot {
                    shards: vec![ShardHealth {
                        shard: 0,
                        clock: now,
                        residents: self.len() as u64,
                        used: self.used(),
                        capacity: self.capacity(),
                        queue_depth: 0,
                        requests: 0,
                        batches: 0,
                        rejected: 0,
                        latencies: Vec::new(),
                    }],
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn curve(days: u64) -> ImportanceCurve {
        ImportanceCurve::fixed_lifetime(SimDuration::from_days(days))
    }

    #[test]
    fn unit_speaks_the_protocol_end_to_end() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(100));
        let outcome = unit
            .put(
                ObjectId::new(1),
                ByteSize::from_mib(60),
                curve(30),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(outcome.evicted.is_empty());

        let info = unit
            .get_info(ObjectId::new(1), SimTime::ZERO)
            .unwrap()
            .expect("stored");
        assert_eq!(info.size, ByteSize::from_mib(60));
        assert_eq!(info.importance, Importance::FULL);
        assert!(!info.expired);
        assert!(unit
            .get_info(ObjectId::new(2), SimTime::ZERO)
            .unwrap()
            .is_none());

        let advice = unit
            .advise(
                ObjectId::new(2),
                ByteSize::from_mib(30),
                Importance::FULL,
                SimTime::ZERO,
            )
            .unwrap();
        assert!(advice.is_admitted());

        let density = unit.density_info(SimTime::ZERO).unwrap();
        assert!(density.density > 0.0);
        assert_eq!(density.used, ByteSize::from_mib(60));

        let stats = unit.store_stats(SimTime::ZERO).unwrap();
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.unit.stores_accepted, 1);
        assert_eq!(stats.capacity, ByteSize::from_mib(100));
    }

    #[test]
    fn engine_refusals_surface_as_store_errors() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(10));
        unit.put(
            ObjectId::new(1),
            ByteSize::from_mib(10),
            curve(30),
            SimTime::ZERO,
        )
        .unwrap();
        let err = unit
            .put(
                ObjectId::new(2),
                ByteSize::from_mib(10),
                curve(30),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Store(crate::StoreError::Full { .. })));
    }

    #[test]
    fn health_answers_a_single_inert_shard() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(100));
        unit.put(
            ObjectId::new(1),
            ByteSize::from_mib(40),
            curve(30),
            SimTime::ZERO,
        )
        .unwrap();
        let snapshot = unit.health(SimTime::from_days(1)).unwrap();
        assert_eq!(snapshot.shards.len(), 1);
        let shard = &snapshot.shards[0];
        assert_eq!(shard.shard, 0);
        assert_eq!(shard.clock, SimTime::from_days(1));
        assert_eq!(shard.residents, 1);
        assert_eq!(shard.used, ByteSize::from_mib(40));
        assert_eq!(shard.capacity, ByteSize::from_mib(100));
        // Serving-layer fields are inert on a bare unit.
        assert_eq!(shard.queue_depth, 0);
        assert_eq!(shard.requests, 0);
        assert_eq!(shard.rejected, 0);
        assert!(shard.latencies.is_empty());
        assert_eq!(snapshot.total_queue_depth(), 0);
        assert_eq!(snapshot.total_requests(), 0);
    }

    #[test]
    fn verb_kinds_cover_every_request_and_response() {
        let requests = [
            Request::Put {
                id: ObjectId::new(1),
                bytes: ByteSize::from_mib(1),
                curve: curve(30),
                class: ObjectClass::GENERIC,
            },
            Request::Get {
                id: ObjectId::new(1),
            },
            Request::Advise {
                id: ObjectId::new(1),
                bytes: ByteSize::from_mib(1),
                incoming: Importance::FULL,
            },
            Request::Density,
            Request::Stats,
            Request::Health,
        ];
        for (request, &verb) in requests.iter().zip(VerbKind::ALL.iter()) {
            assert_eq!(VerbKind::of(request), verb);
            assert_eq!(VerbKind::ALL[verb.code() as usize], verb);
            // Exactly the keyed verbs route by id; the rest fan out.
            let keyed = matches!(verb, VerbKind::Put | VerbKind::Get | VerbKind::Advise);
            assert_eq!(request.key(), keyed.then_some(ObjectId::new(1)), "{verb:?}");
            // Each verb fails as its own response variant.
            let failed = format!("{:?}", verb.failed(Error::Disconnected));
            assert!(
                failed.starts_with(&format!("{verb:?}(Err(Disconnected")),
                "{failed}"
            );
        }
    }

    #[test]
    fn health_snapshots_absorb_by_concatenation() {
        let shard = |index: u32| ShardHealth {
            shard: index,
            clock: SimTime::ZERO,
            residents: 1,
            used: ByteSize::from_mib(1),
            capacity: ByteSize::from_mib(2),
            queue_depth: u64::from(index),
            requests: 10,
            batches: 2,
            rejected: 0,
            latencies: Vec::new(),
        };
        let mut total = HealthSnapshot {
            shards: vec![shard(0)],
        };
        total.absorb(HealthSnapshot {
            shards: vec![shard(1), shard(2)],
        });
        assert_eq!(total.shards.len(), 3);
        assert_eq!(total.total_queue_depth(), 3);
        assert_eq!(total.total_requests(), 30);
        assert_eq!(
            total.shards.iter().map(|s| s.shard).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    proptest::proptest! {
        /// Routing is total and stable: for any shard count and any id the
        /// route is in range, and fresh routers agree on it — what lets a
        /// recorded log find its objects when it is replayed.
        #[test]
        fn router_is_total_and_deterministic(shards in 1u32..=64, raw in 0u64..=u64::MAX) {
            let id = ObjectId::new(raw);
            let shard = ShardRouter::new(shards).route(id);
            proptest::prop_assert!(shard < shards);
            proptest::prop_assert_eq!(shard, ShardRouter::new(shards).route(id));
            // Sequential ids spread rather than stripe: 64 of them populate
            // all eight shards.
            let router = ShardRouter::new(8);
            let mut seen = [0u64; 8];
            for raw in 0..64u64 {
                seen[router.route(ObjectId::new(raw)) as usize] += 1;
            }
            proptest::prop_assert!(
                seen.iter().all(|&n| n > 0),
                "64 ids left a shard empty: {seen:?}"
            );
        }
    }

    #[test]
    fn router_serializes_as_its_shard_count_alone() {
        let router: ShardRouter = serde_json::from_str("{\"shards\":6}").unwrap();
        assert_eq!(router, ShardRouter::new(6));
        assert_eq!(serde_json::to_string(&router).unwrap(), "{\"shards\":6}");
    }

    #[test]
    fn stats_absorb_sums_every_field() {
        let mut unit = StorageUnit::new(ByteSize::from_mib(50));
        unit.put(
            ObjectId::new(1),
            ByteSize::from_mib(10),
            curve(30),
            SimTime::ZERO,
        )
        .unwrap();
        let one = unit.store_stats(SimTime::ZERO).unwrap();
        let mut total = StoreStats::default();
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.objects, 2);
        assert_eq!(total.unit.stores_accepted, 2);
        assert_eq!(total.used, ByteSize::from_mib(20));
        assert_eq!(total.capacity, ByteSize::from_mib(100));
    }

    #[test]
    fn aggregate_folds_each_whole_store_verb_in_the_given_order() {
        // Shard `k`'s answer; every Stats field scales with `k`, so shards
        // 1..=3 sum to exactly `stats(6)`.
        let stats = |k: u64| StoreStats {
            unit: UnitStats {
                stores_attempted: k,
                stores_accepted: 2 * k,
                rejections_full: 3 * k,
                rejections_too_large: 4 * k,
                evictions_preempted: 5 * k,
                evictions_expired: 6 * k,
                removals: 7 * k,
                bytes_accepted: 8 * k,
                bytes_evicted: 9 * k,
            },
            used: ByteSize::from_mib(10 * k),
            capacity: ByteSize::from_mib(11 * k),
            objects: 12 * k,
        };
        let density = |k: u64| DensityInfo {
            density: k as f64 / 10.0,
            capacity: ByteSize::from_mib(2 * k + 1),
            used: ByteSize::from_mib(k),
        };
        // Shard indices deliberately out of order: the fold concatenates,
        // it does not sort.
        let health = |k: u64| HealthSnapshot {
            shards: [9 - k, k]
                .into_iter()
                .map(|shard| ShardHealth {
                    shard: shard as u32,
                    clock: SimTime::ZERO,
                    residents: k,
                    used: ByteSize::ZERO,
                    capacity: ByteSize::ZERO,
                    queue_depth: 0,
                    requests: 0,
                    batches: 0,
                    rejected: 0,
                    latencies: Vec::new(),
                })
                .collect(),
        };
        let answer = |verb: VerbKind, k: u64| match verb {
            VerbKind::Stats => Response::Stats(Ok(stats(k))),
            VerbKind::Density => Response::Density(Ok(density(k))),
            VerbKind::Health => Response::Health(Ok(health(k))),
            keyed => unreachable!("{keyed:?} does not aggregate"),
        };

        for verb in [VerbKind::Density, VerbKind::Stats, VerbKind::Health] {
            match aggregate(verb, (1..=3).map(|k| answer(verb, k))) {
                Response::Stats(Ok(total)) => assert_eq!(total, stats(6)),
                Response::Density(Ok(info)) => {
                    let mut weighted = 0.0f64;
                    for k in 1..=3 {
                        let part = density(k);
                        weighted += part.density * part.capacity.as_bytes() as f64;
                    }
                    let expected = weighted / ByteSize::from_mib(15).as_bytes() as f64;
                    assert_eq!(info.density.to_bits(), expected.to_bits());
                    assert_eq!(info.capacity, ByteSize::from_mib(15));
                    assert_eq!(info.used, ByteSize::from_mib(6));
                }
                Response::Health(Ok(total)) => assert_eq!(
                    total.shards.iter().map(|s| s.shard).collect::<Vec<_>>(),
                    vec![8, 1, 7, 2, 6, 3]
                ),
                other => panic!("{verb:?} folded to {other:?}"),
            }

            // A partial fleet: the first error is the answer, whatever
            // answered before or after it.
            let partial = [
                answer(verb, 1),
                verb.failed(Error::QueueFull { shard: 1 }),
                answer(verb, 3),
                verb.failed(Error::Disconnected),
            ];
            assert_eq!(
                format!("{:?}", aggregate(verb, partial)),
                format!("{:?}", verb.failed(Error::QueueFull { shard: 1 })),
            );
        }
    }
}
