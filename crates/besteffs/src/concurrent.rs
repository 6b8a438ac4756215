//! A thread-safe front-end for concurrent placement.
//!
//! Besteffs is "fully distributed with no centralized components" (§4.1):
//! in the real system every capture station runs the placement algorithm
//! concurrently. [`SharedCluster`] models that concurrency inside one
//! process: per-node locks guard the storage units, the overlay is
//! immutable and shared, and placements from many threads interleave
//! exactly as independent stations' probes would — including the race
//! where a probed unit fills up before the store lands, which the §5.3
//! algorithm handles by retrying the next candidate.

use rand::Rng;
use sim_core::{ByteSize, Obs, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use temporal_importance::protocol::{
    aggregate, Request, Response, ShardRouter, StoreApi, VerbKind,
};
use temporal_importance::{Importance, ObjectSpec, StorageUnit};

use crate::cluster::{PlacementConfig, PlacementError};
use crate::overlay::{NodeId, Overlay};

/// Aggregate counters, updated lock-free.
#[derive(Debug, Default)]
pub struct SharedStats {
    placed: AtomicU64,
    rejected: AtomicU64,
    races_lost: AtomicU64,
    failed_nodes: AtomicU64,
    rejoined_nodes: AtomicU64,
    objects_lost: AtomicU64,
}

impl SharedStats {
    /// Objects successfully placed.
    pub fn placed(&self) -> u64 {
        self.placed.load(Ordering::Relaxed)
    }

    /// Placement requests rejected.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Times a probed candidate filled up (by a concurrent placement)
    /// between the probe and the store, forcing a fallback.
    pub fn races_lost(&self) -> u64 {
        self.races_lost.load(Ordering::Relaxed)
    }

    /// Nodes failed via [`SharedCluster::fail_node`].
    pub fn failed_nodes(&self) -> u64 {
        self.failed_nodes.load(Ordering::Relaxed)
    }

    /// Failed nodes brought back via [`SharedCluster::rejoin_node`].
    pub fn rejoined_nodes(&self) -> u64 {
        self.rejoined_nodes.load(Ordering::Relaxed)
    }

    /// Objects lost to node failures (no replication).
    pub fn objects_lost(&self) -> u64 {
        self.objects_lost.load(Ordering::Relaxed)
    }
}

/// A cluster whose nodes are individually locked (one `std::sync::Mutex`
/// per storage unit), supporting concurrent `place` calls from many
/// threads. Built with
/// [`ClusterBuilder::build_shared`](crate::ClusterBuilder::build_shared).
///
/// The node locks do not poison: a thread that panics while holding one
/// (a [`with_node`](SharedCluster::with_node) closure, say) leaves that
/// node usable by every other thread, as a station that crashed mid-call
/// would.
///
/// Beyond the §5.3 random-walk [`place`](SharedCluster::place) path, the
/// cluster speaks the [`StoreApi`] protocol: each node doubles as a shard
/// under the workspace-wide [`ShardRouter`] hash mapping, so the same
/// generic drivers exercise a `SharedCluster` and a `tempimpd` service.
/// Protocol requests to a failed node answer with
/// [`Error::ShardUnavailable`](temporal_importance::Error::ShardUnavailable).
///
/// # Examples
///
/// ```
/// use besteffs::Besteffs;
/// use sim_core::{rng, ByteSize, SimDuration, SimTime};
/// use temporal_importance::{Importance, ImportanceCurve, ObjectId, ObjectSpec};
///
/// let mut rand = rng::seeded(5);
/// let cluster = Besteffs::builder(20, ByteSize::from_mib(100)).build_shared(&mut rand);
/// let spec = ObjectSpec::new(
///     ObjectId::new(1),
///     ByteSize::from_mib(10),
///     ImportanceCurve::fixed_lifetime(SimDuration::from_days(30)),
/// );
/// let node = cluster.place(spec, SimTime::ZERO, &mut rand)?;
/// assert!(node.index() < 20);
/// # Ok::<(), besteffs::PlacementError>(())
/// ```
#[derive(Debug)]
pub struct SharedCluster {
    units: Vec<Mutex<StorageUnit>>,
    /// Membership mask: placements from other threads observe a failure
    /// or rejoin at the next walk they take, without any global lock.
    alive: Vec<AtomicBool>,
    overlay: Overlay,
    config: PlacementConfig,
    stats: SharedStats,
    /// Object-to-node mapping for the [`StoreApi`] protocol verbs.
    router: ShardRouter,
    /// Forwarded to replacement units when failed nodes are emptied.
    obs: Obs,
}

impl SharedCluster {
    /// The construction path behind
    /// [`ClusterBuilder::build_shared`](crate::ClusterBuilder::build_shared).
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 3` (the overlay needs a ring).
    pub(crate) fn from_parts<R: Rng>(
        nodes: usize,
        capacity: ByteSize,
        config: PlacementConfig,
        obs: Obs,
        rng: &mut R,
    ) -> Self {
        let degree = 6.min(nodes - 1).max(2);
        let overlay = Overlay::random(nodes, degree, rng);
        let units = (0..nodes)
            .map(|_| {
                // Concurrent clusters keep aggregate stats only; per-event
                // record vectors under multi-threaded churn would grow
                // without bound.
                let unit = StorageUnit::builder(capacity)
                    .recording(false)
                    .observer(obs.clone())
                    .build();
                Mutex::new(unit)
            })
            .collect();
        SharedCluster {
            alive: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            units,
            overlay,
            config,
            stats: SharedStats::default(),
            router: ShardRouter::new(nodes as u32),
            obs,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Locks one node's unit, ignoring poison. A `with_node` closure that
    /// panics does so between calls on the unit, each of which leaves it
    /// consistent, so the next holder gets a usable unit; refusing the
    /// lock instead would take the node away from every other thread for
    /// good.
    fn lock(&self, node: NodeId) -> MutexGuard<'_, StorageUnit> {
        self.units[node.index()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Total bytes stored across all nodes (momentary snapshot — other
    /// threads may be placing concurrently).
    pub fn used(&self) -> ByteSize {
        (0..self.units.len())
            .map(|i| self.lock(NodeId::new(i)).used())
            .sum()
    }

    /// Runs a closure against one node's unit, under its lock.
    pub fn with_node<T>(&self, node: NodeId, f: impl FnOnce(&mut StorageUnit) -> T) -> T {
        f(&mut self.lock(node))
    }

    /// True if `node` is currently in the membership set.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()].load(Ordering::Acquire)
    }

    /// Number of live nodes (momentary snapshot).
    pub fn live_nodes(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::Acquire))
            .count()
    }

    /// Fails a node from any thread: it leaves the membership set (walks
    /// stop visiting it) and its objects are dropped under the node lock.
    /// Returns the number of objects lost; failing a dead node is a no-op.
    ///
    /// A placement that already probed this node can still try to store on
    /// it — the store lands on the emptied unit exactly as it would on a
    /// real node that crashed and rebooted between probe and store, and
    /// the directory layer's incarnation check keeps such windows from
    /// resurrecting pre-failure entries.
    pub fn fail_node(&self, node: NodeId) -> u64 {
        let i = node.index();
        if !self.alive[i].swap(false, Ordering::AcqRel) {
            return 0;
        }
        let lost = {
            let mut unit = self.lock(node);
            let lost = unit.len() as u64;
            *unit = StorageUnit::builder(unit.capacity())
                .recording(false)
                .observer(self.obs.clone())
                .build();
            lost
        };
        self.stats.failed_nodes.fetch_add(1, Ordering::Relaxed);
        self.stats.objects_lost.fetch_add(lost, Ordering::Relaxed);
        lost
    }

    /// Rejoins a failed node (empty), re-admitting it to the membership
    /// set. Returns false (a no-op) if the node is already alive.
    pub fn rejoin_node(&self, node: NodeId) -> bool {
        let i = node.index();
        if self.alive[i].swap(true, Ordering::AcqRel) {
            return false;
        }
        self.stats.rejoined_nodes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Places an object with the §5.3 algorithm, taking `&self` so many
    /// threads can place simultaneously. Each candidate is probed and (if
    /// chosen) stored under that node's lock only — concurrent placements
    /// on disjoint candidates never contend.
    ///
    /// Probing and storing are two separate critical sections per
    /// candidate; a concurrent placement can consume the room in between.
    /// When the final store fails the candidate is treated as full
    /// (`races_lost` counts these) and the next-best candidate is used.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::ClusterFull`] if every probed candidate
    /// is (or has become) full for this object, and
    /// [`PlacementError::NoLiveNodes`] if no live start node can be found.
    pub fn place<R: Rng>(
        &self,
        spec: ObjectSpec,
        now: SimTime,
        rng: &mut R,
    ) -> Result<NodeId, PlacementError> {
        let incoming = spec.curve().initial_importance();
        // Bounded rejection sampling for a live start: one draw when the
        // fleet is healthy, graceful failure when it is gone.
        let start = (0..self.units.len() * 8 + 8)
            .map(|_| NodeId::new(rng.gen_range(0..self.units.len())))
            .find(|&n| self.is_alive(n))
            .ok_or(PlacementError::NoLiveNodes)?;

        // Collect scored candidates across up to `m` tries.
        let mut candidates: Vec<(Importance, NodeId)> = Vec::new();
        let mut probed = 0usize;
        'tries: for _ in 0..self.config.max_tries {
            let sampled = self.overlay.sample_walks(
                start,
                self.config.candidates_per_try,
                self.config.walk_steps,
                rng,
                |n| self.is_alive(n),
            );
            for node in sampled {
                probed += 1;
                let admission = {
                    let mut unit = self.lock(node);
                    // Drain due curve-breakpoint events under the lock so
                    // the probe answers from the eviction-order index
                    // instead of the stale-index full-scan fallback.
                    unit.advance(now);
                    unit.peek_admission(spec.size(), incoming, now)
                };
                if let Some(score) = admission.placement_score() {
                    candidates.push((score, node));
                    if score.is_zero() {
                        break 'tries;
                    }
                }
            }
        }
        candidates.sort();

        // Try candidates best-first; a lost race falls through to the next.
        for &(_, node) in &candidates {
            match self.lock(node).store(spec.clone(), now) {
                Ok(_) => {
                    self.stats.placed.fetch_add(1, Ordering::Relaxed);
                    return Ok(node);
                }
                Err(temporal_importance::StoreError::Full { .. }) => {
                    // A concurrent placement consumed the room this probe
                    // saw; fall through to the next candidate.
                    self.stats.races_lost.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("unexpected store error: {e}"),
            }
        }

        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        Err(PlacementError::ClusterFull { probed, incoming })
    }

    /// The node a protocol-keyed request routes to, or
    /// `Error::ShardUnavailable` if it has failed.
    fn live_shard(
        &self,
        id: temporal_importance::ObjectId,
    ) -> Result<NodeId, temporal_importance::Error> {
        let shard = self.router.route(id);
        let node = NodeId::new(shard as usize);
        if self.is_alive(node) {
            Ok(node)
        } else {
            Err(temporal_importance::Error::ShardUnavailable { shard })
        }
    }
}

/// The protocol view of the cluster: every node is a shard under the
/// workspace-wide hash routing. Keyed verbs go to the owning node under
/// its lock; `Density`, `Stats` and `Health` ask every *live* node in node
/// order (a failed node contributes neither capacity nor bytes) and fold
/// the answers with the shared [`aggregate`]. What a verb does to a unit
/// is [`StorageUnit`]'s own `StoreApi` implementation; a lock-per-node
/// cluster has no ingest queues, so `Health`'s serving-layer fields keep
/// the unit's inert zeroes.
impl StoreApi for SharedCluster {
    fn call(&mut self, now: SimTime, request: Request) -> Response {
        let key = match &request {
            Request::Put { id, .. } | Request::Get { id } | Request::Advise { id, .. } => *id,
            Request::Density | Request::Stats | Request::Health => {
                let live = (0..self.units.len())
                    .map(NodeId::new)
                    .filter(|&node| self.is_alive(node));
                let answers = live.map(|node| {
                    let mut answer = self.with_node(node, |unit| unit.call(now, request.clone()));
                    if let Response::Health(Ok(snapshot)) = &mut answer {
                        for health in &mut snapshot.shards {
                            health.shard = node.index() as u32;
                        }
                    }
                    answer
                });
                return aggregate(VerbKind::of(&request), answers);
            }
        };
        match self.live_shard(key) {
            Ok(node) => self.with_node(node, |unit| unit.call(now, request)),
            Err(error) => Response::failed(&request, error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{rng, SimDuration};
    use temporal_importance::{ImportanceCurve, ObjectId};

    fn spec(id: u64, mib: u64, importance: f64) -> ObjectSpec {
        ObjectSpec::new(
            ObjectId::new(id),
            ByteSize::from_mib(mib),
            ImportanceCurve::Fixed {
                importance: Importance::new_clamped(importance),
                expiry: SimDuration::from_days(365),
            },
        )
    }

    #[test]
    fn single_threaded_placement_works() {
        let mut rand = rng::seeded(1);
        let cluster = crate::Besteffs::builder(10, ByteSize::from_mib(100)).build_shared(&mut rand);
        for i in 0..10 {
            cluster
                .place(spec(i, 20, 1.0), SimTime::ZERO, &mut rand)
                .unwrap();
        }
        assert_eq!(cluster.stats().placed(), 10);
        assert_eq!(cluster.used(), ByteSize::from_mib(200));
        assert_eq!(cluster.len(), 10);
        assert!(!cluster.is_empty());
    }

    #[test]
    fn concurrent_placements_account_exactly() {
        let mut rand = rng::seeded(2);
        let cluster = crate::Besteffs::builder(50, ByteSize::from_mib(100)).build_shared(&mut rand);
        let threads = 8;
        let per_thread = 50u64;

        std::thread::scope(|scope| {
            for t in 0..threads {
                let cluster = &cluster;
                scope.spawn(move || {
                    let mut rand = rng::stream(99, &format!("placer-{t}"));
                    for i in 0..per_thread {
                        let id = t as u64 * 10_000 + i;
                        let _ = cluster.place(spec(id, 10, 0.8), SimTime::ZERO, &mut rand);
                    }
                });
            }
        });

        let placed = cluster.stats().placed();
        let rejected = cluster.stats().rejected();
        assert_eq!(placed + rejected, threads as u64 * per_thread);
        // Accounting is exact despite concurrency: bytes placed equals
        // bytes resident (nothing of higher importance evicted anything,
        // all objects share 0.8 importance, so placed == resident).
        assert_eq!(
            cluster.used(),
            ByteSize::from_mib(placed * 10),
            "resident bytes disagree with placed count"
        );
        // The cluster holds 50 x 100 MiB; 400 x 10 MiB = 4000 MiB fits
        // only partially (5000 MiB capacity, but sampling is imperfect).
        assert!(placed >= 350, "placed only {placed}");
    }

    #[test]
    fn full_cluster_rejects_equal_importance_under_concurrency() {
        let mut rand = rng::seeded(3);
        let cluster = crate::Besteffs::builder(10, ByteSize::from_mib(20))
            .placement(PlacementConfig {
                candidates_per_try: 10,
                max_tries: 2,
                walk_steps: 6,
            })
            .build_shared(&mut rand);
        // Fill completely at 0.5.
        for i in 0..10 {
            cluster.with_node(NodeId::new(i), |unit| {
                unit.store(spec(i as u64, 20, 0.5), SimTime::ZERO).unwrap();
            });
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cluster = &cluster;
                scope.spawn(move || {
                    let mut rand = rng::stream(7, &format!("rejector-{t}"));
                    for i in 0..20u64 {
                        let id = 1_000 + t as u64 * 100 + i;
                        let result = cluster.place(spec(id, 20, 0.5), SimTime::ZERO, &mut rand);
                        assert!(result.is_err(), "equal importance must not preempt");
                    }
                });
            }
        });
        assert_eq!(cluster.stats().rejected(), 80);
        assert_eq!(cluster.stats().placed(), 0);
    }

    #[test]
    fn protocol_verbs_route_by_shard_and_respect_membership() {
        let mut rand = rng::seeded(6);
        let mut cluster =
            crate::Besteffs::builder(10, ByteSize::from_mib(100)).build_shared(&mut rand);
        let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_days(30));
        for i in 0..20u64 {
            cluster
                .put(
                    ObjectId::new(i),
                    ByteSize::from_mib(1),
                    curve.clone(),
                    SimTime::ZERO,
                )
                .unwrap();
        }
        let stats = cluster.store_stats(SimTime::ZERO).unwrap();
        assert_eq!(stats.objects, 20);
        assert_eq!(stats.unit.stores_accepted, 20);
        assert_eq!(stats.capacity, ByteSize::from_mib(1000));

        // Objects live on the node the workspace-wide router picks.
        let id = ObjectId::new(3);
        let node = NodeId::new(cluster.router.route(id) as usize);
        assert!(cluster.with_node(node, |unit| unit.contains(id)));
        assert!(cluster.get_info(id, SimTime::ZERO).unwrap().is_some());

        // A failed node answers keyed verbs with ShardUnavailable and
        // drops out of the aggregates.
        cluster.fail_node(node);
        let err = cluster.get_info(id, SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            temporal_importance::Error::ShardUnavailable { .. }
        ));
        let err = cluster
            .put(id, ByteSize::from_mib(1), curve, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(
            err,
            temporal_importance::Error::ShardUnavailable { .. }
        ));
        let stats = cluster.store_stats(SimTime::ZERO).unwrap();
        assert_eq!(stats.capacity, ByteSize::from_mib(900));
        let density = cluster.density_info(SimTime::ZERO).unwrap();
        assert_eq!(density.capacity, ByteSize::from_mib(900));

        // Health reports one inert entry per live node, in node order,
        // skipping the failed node's index.
        let health = cluster.health(SimTime::ZERO).unwrap();
        assert_eq!(health.shards.len(), 9);
        assert!(health.shards.iter().all(|s| s.shard != node.index() as u32));
        assert!(health
            .shards
            .windows(2)
            .all(|pair| pair[0].shard < pair[1].shard));
        assert!(health
            .shards
            .iter()
            .all(|s| s.queue_depth == 0 && s.latencies.is_empty()));
        assert_eq!(
            health.shards.iter().map(|s| s.residents).sum::<u64>(),
            stats.objects
        );
    }

    #[test]
    fn a_panic_under_a_node_lock_does_not_wedge_the_node() {
        let mut rand = rng::seeded(8);
        let mut cluster =
            crate::Besteffs::builder(3, ByteSize::from_mib(100)).build_shared(&mut rand);
        // Panic while holding every node's lock, so whichever node a later
        // call reaches has had a holder die on it.
        for i in 0..3 {
            let died = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        cluster.with_node(NodeId::new(i), |unit| {
                            unit.store(spec(i as u64, 10, 0.5), SimTime::ZERO).unwrap();
                            panic!("station crashed mid-call");
                        })
                    })
                    .join()
            });
            assert!(died.is_err());
        }

        assert_eq!(cluster.used(), ByteSize::from_mib(30));
        let node = cluster
            .place(spec(10, 10, 0.5), SimTime::ZERO, &mut rand)
            .unwrap();
        assert_eq!(cluster.with_node(node, |unit| unit.len()), 2);
        assert_eq!(cluster.store_stats(SimTime::ZERO).unwrap().objects, 4);
        assert_eq!(cluster.fail_node(node), 2);
    }

    #[test]
    fn fail_and_rejoin_are_idempotent_and_accounted() {
        let mut rand = rng::seeded(4);
        let cluster = crate::Besteffs::builder(10, ByteSize::from_mib(100)).build_shared(&mut rand);
        let node = cluster
            .place(spec(1, 10, 1.0), SimTime::ZERO, &mut rand)
            .unwrap();
        assert_eq!(cluster.fail_node(node), 1);
        assert_eq!(cluster.fail_node(node), 0, "double-fail is a no-op");
        assert!(!cluster.is_alive(node));
        assert_eq!(cluster.live_nodes(), 9);
        assert_eq!(cluster.stats().failed_nodes(), 1);
        assert_eq!(cluster.stats().objects_lost(), 1);
        assert_eq!(cluster.with_node(node, |u| u.len()), 0);

        assert!(cluster.rejoin_node(node));
        assert!(!cluster.rejoin_node(node), "double-rejoin is a no-op");
        assert_eq!(cluster.live_nodes(), 10);
        assert_eq!(cluster.stats().rejoined_nodes(), 1);
    }

    #[test]
    fn placements_survive_concurrent_churn() {
        let mut rand = rng::seeded(5);
        let cluster = crate::Besteffs::builder(30, ByteSize::from_mib(100)).build_shared(&mut rand);
        let threads = 4;
        let per_thread = 40u64;

        std::thread::scope(|scope| {
            // One chaos thread flaps membership while placers run.
            let chaos = &cluster;
            scope.spawn(move || {
                let mut rand = rng::stream(77, "chaos");
                for _ in 0..200 {
                    let node = NodeId::new(rand.gen_range(0..30));
                    if chaos.is_alive(node) {
                        chaos.fail_node(node);
                    } else {
                        chaos.rejoin_node(node);
                    }
                    std::thread::yield_now();
                }
                // Leave everything alive for the final invariants.
                for i in 0..30 {
                    chaos.rejoin_node(NodeId::new(i));
                }
            });
            for t in 0..threads {
                let cluster = &cluster;
                scope.spawn(move || {
                    let mut rand = rng::stream(78, &format!("churn-placer-{t}"));
                    for i in 0..per_thread {
                        let id = t as u64 * 10_000 + i;
                        let _ = cluster.place(spec(id, 5, 0.8), SimTime::ZERO, &mut rand);
                    }
                });
            }
        });

        let stats = cluster.stats();
        // Every request resolved one way or another (NoLiveNodes counts as
        // neither placed nor rejected, but with 30 nodes and one chaos
        // thread the fleet never empties).
        assert!(stats.placed() + stats.rejected() <= threads as u64 * per_thread);
        assert!(stats.placed() > 0, "churn starved every placement");
        assert_eq!(cluster.live_nodes(), 30);
        // Residency only counts survivors of the chaos: never more bytes
        // than placements, and the books balance against losses.
        assert!(cluster.used() <= ByteSize::from_mib(stats.placed() * 5));
        assert_eq!(
            cluster.used(),
            ByteSize::from_mib((stats.placed() - stats.objects_lost()) * 5)
        );
    }
}
