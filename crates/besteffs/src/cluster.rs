//! The Besteffs cluster and the §5.3 placement algorithm.

use std::error::Error;
use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, Obs, SimTime};
use temporal_importance::protocol::{Response, StoreApi};
use temporal_importance::{
    EvictionRecord, Importance, ObjectId, ObjectSpec, StorageUnit, StoreOutcome,
};

use crate::churn::{ChurnDriver, ChurnSchedule};
use crate::directory::Directory;
use crate::overlay::{NodeId, Overlay};

/// Parameters of the §5.3 distributed placement algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Candidate units sampled per try (`x`: "randomly pick x storage
    /// units").
    pub candidates_per_try: usize,
    /// Maximum successive tries (`m`: "we wait for up to m successive
    /// tries").
    pub max_tries: usize,
    /// Random-walk length used for sampling.
    pub walk_steps: usize,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            candidates_per_try: 8,
            max_tries: 3,
            walk_steps: 10,
        }
    }
}

/// Where and how an object was placed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementOutcome {
    /// The chosen node.
    pub node: NodeId,
    /// The underlying store outcome (including preempted victims).
    pub outcome: StoreOutcome,
    /// How many tries were used.
    pub tries: usize,
    /// How many candidate units were probed in total.
    pub probed: usize,
}

/// A placement request the cluster could not satisfy.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlacementError {
    /// Every probed unit was full for this object's importance level.
    ClusterFull {
        /// Candidate units probed across all tries.
        probed: usize,
        /// The incoming importance that could not find room.
        incoming: Importance,
    },
    /// No live node exists to probe.
    NoLiveNodes,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::ClusterFull { probed, incoming } => write!(
                f,
                "all {probed} probed units are full for importance {incoming}"
            ),
            PlacementError::NoLiveNodes => write!(f, "no live storage nodes remain"),
        }
    }
}

impl Error for PlacementError {}

impl From<PlacementError> for temporal_importance::Error {
    fn from(e: PlacementError) -> Self {
        temporal_importance::Error::external(e)
    }
}

/// Aggregate counters for a cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ClusterStats {
    /// Objects successfully placed.
    pub placed: u64,
    /// Placement requests rejected (cluster full for the object).
    pub rejected: u64,
    /// Placements that landed on a zero-preemption unit on the first try.
    pub direct_stores: u64,
    /// Nodes that have failed.
    pub failed_nodes: u64,
    /// Objects lost to node failures (no replication).
    pub objects_lost: u64,
    /// Bytes lost to node failures.
    pub bytes_lost: u64,
    /// Failed nodes that have rejoined (empty, with a fresh incarnation).
    pub rejoined_nodes: u64,
    /// Directory version entries purged by failure handling.
    pub directory_entries_purged: u64,
}

/// Loss accounting for one node-failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct FailureEpoch {
    /// When the failure was injected.
    pub at: SimTime,
    /// The node that failed.
    pub node: NodeId,
    /// The incarnation that died (rejoins come back one higher).
    pub incarnation: u64,
    /// Objects lost with the node (Besteffs does not replicate).
    pub objects_lost: u64,
    /// Bytes lost with the node.
    pub bytes_lost: u64,
}

/// Configures and builds a [`Besteffs`] cluster.
///
/// Obtained from [`Besteffs::builder`]; every knob is optional. The RNG is
/// consumed only at [`build`](ClusterBuilder::build) time, to wire the
/// overlay, so seeded simulations are bit-for-bit reproducible.
///
/// # Examples
///
/// ```
/// use besteffs::{Besteffs, PlacementConfig};
/// use sim_core::{rng, ByteSize};
///
/// let mut rand = rng::seeded(11);
/// let cluster = Besteffs::builder(50, ByteSize::from_gib(1))
///     .placement(PlacementConfig {
///         candidates_per_try: 4,
///         max_tries: 2,
///         walk_steps: 8,
///     })
///     .build(&mut rand);
/// assert_eq!(cluster.len(), 50);
/// assert_eq!(cluster.config().max_tries, 2);
/// ```
#[derive(Debug, Clone)]
#[must_use = "builders do nothing until `build` is called"]
pub struct ClusterBuilder {
    nodes: usize,
    capacity: ByteSize,
    config: PlacementConfig,
    churn: Option<ChurnSchedule>,
    obs: Option<Obs>,
}

impl ClusterBuilder {
    /// Sets the §5.3 placement parameters (default:
    /// [`PlacementConfig::default`]).
    pub fn placement(mut self, config: PlacementConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an observability handle; the cluster forwards it to every
    /// storage unit it creates (including rejoin replacements and
    /// [`add_node`] newcomers). Defaults to the process-global observer.
    ///
    /// [`add_node`]: Besteffs::add_node
    pub fn observer(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a churn schedule for [`build_with_churn`]; [`build`]
    /// ignores it.
    ///
    /// [`build_with_churn`]: ClusterBuilder::build_with_churn
    /// [`build`]: ClusterBuilder::build
    pub fn churn(mut self, schedule: ChurnSchedule) -> Self {
        self.churn = Some(schedule);
        self
    }

    /// Builds the cluster, consuming `rng` to wire the overlay.
    ///
    /// # Panics
    ///
    /// Panics if the builder was created with fewer than 3 nodes (the
    /// overlay needs a ring).
    pub fn build<R: Rng>(self, rng: &mut R) -> Besteffs {
        let ClusterBuilder {
            nodes,
            capacity,
            config,
            churn: _,
            obs,
        } = self;
        let obs = obs.unwrap_or_else(Obs::global);
        let degree = 6.min(nodes - 1).max(2);
        let overlay = Overlay::random(nodes, degree, rng);
        let units: Vec<StorageUnit> = (0..nodes)
            .map(|_| StorageUnit::builder(capacity).observer(obs.clone()).build())
            .collect();
        Besteffs {
            units,
            incarnations: vec![0; nodes],
            overlay,
            sample: Vec::with_capacity(config.candidates_per_try),
            config,
            stats: ClusterStats::default(),
            failure_epochs: Vec::new(),
            obs,
        }
    }

    /// Builds the cluster and a [`ChurnDriver`] loaded with the schedule
    /// from [`churn`](ClusterBuilder::churn) (empty if none was set), so a
    /// fault-injected experiment needs one expression instead of three.
    pub fn build_with_churn<R: Rng>(mut self, rng: &mut R) -> (Besteffs, ChurnDriver) {
        let schedule = self.churn.take().unwrap_or_default();
        let cluster = self.build(rng);
        (cluster, ChurnDriver::new(schedule))
    }
}

/// A simulated Besteffs deployment: `n` storage units joined by a p2p
/// overlay, placing objects with the §5.3 algorithm.
///
/// # Examples
///
/// ```
/// use besteffs::Besteffs;
/// use sim_core::{rng, ByteSize, SimDuration, SimTime};
/// use temporal_importance::{Importance, ImportanceCurve, ObjectId, ObjectSpec};
///
/// let mut rand = rng::seeded(11);
/// let mut cluster = Besteffs::builder(50, ByteSize::from_gib(1)).build(&mut rand);
/// let spec = ObjectSpec::new(
///     ObjectId::new(0),
///     ByteSize::from_mib(100),
///     ImportanceCurve::two_step(
///         Importance::FULL,
///         SimDuration::from_days(30),
///         SimDuration::from_days(30),
///     ),
/// );
/// let placed = cluster.place(spec, SimTime::ZERO, &mut rand)?;
/// assert!(cluster.node(placed.node).contains(ObjectId::new(0)));
/// # Ok::<(), besteffs::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Besteffs {
    units: Vec<StorageUnit>,
    /// Per-node generation counter, bumped on every rejoin so object ids
    /// placed before a failure can never resolve against the reborn node.
    incarnations: Vec<u64>,
    /// The p2p overlay, which also owns which nodes are live.
    overlay: Overlay,
    /// One try's walk-sampled candidates, kept so placements reuse it.
    sample: Vec<NodeId>,
    config: PlacementConfig,
    stats: ClusterStats,
    failure_epochs: Vec<FailureEpoch>,
    obs: Obs,
}

impl Besteffs {
    /// Starts building a cluster of `nodes` units of equal `capacity`.
    /// See [`ClusterBuilder`] for the knobs.
    pub fn builder(nodes: usize, capacity: ByteSize) -> ClusterBuilder {
        ClusterBuilder {
            nodes,
            capacity,
            config: PlacementConfig::default(),
            churn: None,
            obs: None,
        }
    }

    /// Number of nodes (live and failed).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Number of live nodes.
    pub fn live_nodes(&self) -> usize {
        self.overlay.live_count()
    }

    /// Cluster-level counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The placement configuration.
    pub fn config(&self) -> &PlacementConfig {
        &self.config
    }

    /// Borrow a node's storage unit.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &StorageUnit {
        &self.units[node.index()]
    }

    /// Mutably borrow a node's storage unit, e.g. to pre-fill one node
    /// through [`StoreApi`] instead of through [`place`](Besteffs::place).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_mut(&mut self, node: NodeId) -> &mut StorageUnit {
        &mut self.units[node.index()]
    }

    /// Iterates over `(id, unit)` for all live nodes.
    pub fn live_units(&self) -> impl Iterator<Item = (NodeId, &StorageUnit)> {
        self.units
            .iter()
            .enumerate()
            .map(|(i, u)| (NodeId::new(i), u))
            .filter(|&(n, _)| self.overlay.is_live(n))
    }

    /// True if `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.overlay.is_live(node)
    }

    /// Adds a fresh storage node of the given capacity to the running
    /// cluster, wiring it into the overlay. Returns its id.
    ///
    /// Models the §5.3 expectation that "the university \[will\]
    /// continuously replace older desktops with newer desktops that will
    /// likely host larger disks": new nodes may have any capacity.
    pub fn add_node<R: Rng>(&mut self, capacity: ByteSize, rng: &mut R) -> NodeId {
        let degree = 6.min(self.units.len()).max(2);
        let id = self.overlay.add_node(degree, rng);
        debug_assert_eq!(id.index(), self.units.len());
        self.units.push(
            StorageUnit::builder(capacity)
                .observer(self.obs.clone())
                .build(),
        );
        self.incarnations.push(0);
        self.obs.counter("cluster.nodes_added", 1);
        id
    }

    /// Attaches an observability handle after construction, forwarding it
    /// to every existing storage unit. Units created later (rejoin
    /// replacements, [`add_node`](Besteffs::add_node)) inherit it too.
    pub fn set_observer(&mut self, obs: Obs) {
        for unit in &mut self.units {
            unit.set_observer(obs.clone());
        }
        self.obs = obs;
    }

    /// Fails a node at `now`: its objects are lost (Besteffs does not
    /// replicate) and a [`FailureEpoch`] is recorded. Returns the number
    /// of objects lost. Failing a dead node is a no-op.
    ///
    /// This low-level path leaves the [`Directory`] untouched — callers
    /// that track one should use [`fail_node_purging`] so stale entries
    /// cannot keep resolving to the dead node.
    ///
    /// [`fail_node_purging`]: Besteffs::fail_node_purging
    pub fn fail_node(&mut self, node: NodeId, now: SimTime) -> u64 {
        if !self.overlay.set_live(node, false) {
            return 0;
        }
        let i = node.index();
        let lost_objects = self.units[i].len() as u64;
        let lost_bytes = self.units[i].used().as_bytes();
        self.stats.failed_nodes += 1;
        self.stats.objects_lost += lost_objects;
        self.stats.bytes_lost += lost_bytes;
        self.failure_epochs.push(FailureEpoch {
            at: now,
            node,
            incarnation: self.incarnations[i],
            objects_lost: lost_objects,
            bytes_lost: lost_bytes,
        });
        self.units[i] = StorageUnit::builder(self.units[i].capacity())
            .observer(self.obs.clone())
            .build();
        self.obs.counter("cluster.node_failures", 1);
        self.obs.event(
            now,
            "cluster.node_fail",
            &[
                ("node", i as u64),
                ("objects_lost", lost_objects),
                ("bytes_lost", lost_bytes),
            ],
        );
        lost_objects
    }

    /// Fails a node and drops every directory entry that still resolves
    /// to it, so lookups cannot return objects that died with the node.
    /// Returns the objects lost (failing a dead node is a no-op and
    /// purges nothing).
    pub fn fail_node_purging(
        &mut self,
        node: NodeId,
        now: SimTime,
        directory: &mut Directory,
    ) -> u64 {
        if !self.is_alive(node) {
            return 0;
        }
        let lost = self.fail_node(node, now);
        let purged = directory.purge_node(node) as u64;
        self.stats.directory_entries_purged += purged;
        self.obs.counter("directory.entries_purged", purged);
        lost
    }

    /// Rejoins a failed node: it comes back *empty*, under a fresh
    /// incarnation, and immediately re-enters the live-walk candidate set
    /// (its overlay edges survive the outage — a rebooted desktop keeps
    /// its neighbors). Returns false (a no-op) if the node is already
    /// alive.
    pub fn rejoin_node(&mut self, node: NodeId) -> bool {
        if !self.overlay.set_live(node, true) {
            return false;
        }
        let i = node.index();
        debug_assert_eq!(self.units[i].len(), 0, "failed node must be empty");
        self.incarnations[i] += 1;
        self.stats.rejoined_nodes += 1;
        self.obs.counter("cluster.node_rejoins", 1);
        true
    }

    /// The node's current incarnation: 0 until its first rejoin, then one
    /// higher per recovery. Placements record it so pre-failure object
    /// ids cannot resurrect on the reborn node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn incarnation(&self, node: NodeId) -> u64 {
        self.incarnations[node.index()]
    }

    /// True if `entry` still resolves: its node is alive *and* running
    /// the same incarnation the entry was published under.
    pub fn entry_is_current(&self, entry: crate::directory::VersionEntry) -> bool {
        self.is_alive(entry.node) && self.incarnations[entry.node.index()] == entry.incarnation
    }

    /// Every recorded node-failure event, in injection order.
    pub fn failure_epochs(&self) -> &[FailureEpoch] {
        &self.failure_epochs
    }

    /// Places an object with the §5.3 algorithm.
    ///
    /// Each try samples `x` distinct live units by random walks and asks
    /// each for the *highest importance object that would be preempted*.
    /// A unit scoring zero accepts the object immediately; otherwise up to
    /// `m` tries run and the lowest-scoring admitting unit wins. The score
    /// is deliberately *not* weighted by victim sizes, matching the paper.
    ///
    /// # Errors
    ///
    /// * [`PlacementError::NoLiveNodes`] — the cluster has no live nodes.
    /// * [`PlacementError::ClusterFull`] — every probed unit was full for
    ///   this object's importance level.
    pub fn place<R: Rng>(
        &mut self,
        spec: ObjectSpec,
        now: SimTime,
        rng: &mut R,
    ) -> Result<PlacementOutcome, PlacementError> {
        let _span = self.obs.span("span.cluster.place");
        if self.live_nodes() == 0 {
            return Err(PlacementError::NoLiveNodes);
        }
        let incoming = spec.curve().initial_importance();
        let start = self.random_live_start(rng);

        let mut best: Option<(NodeId, Importance)> = None;
        let mut probed = 0usize;
        let mut tries_used = 0usize;

        'tries: for try_index in 0..self.config.max_tries {
            tries_used = try_index + 1;
            let hops = self.overlay.sample_walks_counted(
                start,
                self.config.candidates_per_try,
                self.config.walk_steps,
                rng,
                &mut self.sample,
            );
            self.obs.counter("cluster.walks", self.sample.len() as u64);
            self.obs.record("cluster.walk_hops", hops);
            for &node in &self.sample {
                probed += 1;
                let unit = &mut self.units[node.index()];
                let admission = unit
                    .advise(spec.id(), spec.size(), incoming, now)
                    .expect("a unit answers a probe");
                let Some(score) = admission.placement_score() else {
                    continue; // full for this object
                };
                if score.is_zero() {
                    // "If the highest preempted objects' importance value
                    // ... is zero, then the object can be directly stored."
                    best = Some((node, score));
                    break 'tries;
                }
                if best.is_none_or(|(_, b)| score < b) {
                    best = Some((node, score));
                }
            }
        }

        let Some((node, score)) = best else {
            self.stats.rejected += 1;
            self.obs.counter("cluster.rejections", 1);
            return Err(PlacementError::ClusterFull { probed, incoming });
        };
        let outcome = match self.units[node.index()].call(now, spec.into()) {
            Response::Put(Ok(outcome)) => outcome,
            other => panic!("peeked unit must admit: {other:?}"),
        };
        self.stats.placed += 1;
        self.obs.counter("cluster.placements", 1);
        self.obs.record("cluster.probes", probed as u64);
        if score.is_zero() {
            self.stats.direct_stores += 1;
            self.obs.counter("cluster.direct_stores", 1);
        }
        Ok(PlacementOutcome {
            node,
            outcome,
            tries: tries_used,
            probed,
        })
    }

    /// Brings every live node's incremental engine indexes up to `now`.
    ///
    /// Every unit verb advances its unit itself, so this is never needed
    /// for an answer; it moves the breakpoint work of all live nodes to
    /// one place, where a sampling loop can time it apart from its
    /// density reads.
    pub fn advance(&mut self, now: SimTime) {
        let _span = self.obs.span("span.cluster.advance");
        for (i, unit) in self.units.iter_mut().enumerate() {
            if self.overlay.is_live(NodeId::new(i)) {
                unit.advance(now);
            }
        }
    }

    /// Sweeps expired objects on all live nodes and returns their
    /// eviction records in node order.
    pub fn sweep_expired(&mut self, now: SimTime) -> Vec<EvictionRecord> {
        let _span = self.obs.span("span.cluster.sweep");
        let mut out = Vec::new();
        for (i, unit) in self.units.iter_mut().enumerate() {
            if self.overlay.is_live(NodeId::new(i)) {
                out.extend(unit.sweep(now).expect("a unit answers a sweep"));
            }
        }
        out
    }

    /// Total bytes stored across live nodes.
    pub fn used(&self) -> ByteSize {
        self.live_units().map(|(_, u)| u.used()).sum()
    }

    /// Total capacity across live nodes.
    pub fn capacity(&self) -> ByteSize {
        self.live_units().map(|(_, u)| u.capacity()).sum()
    }

    /// The cluster-wide average storage importance density at `now`:
    /// importance-weighted bytes over total live capacity, summed in node
    /// order.
    pub fn importance_density(&mut self, now: SimTime) -> f64 {
        let capacity = self.capacity().as_bytes() as f64;
        if capacity == 0.0 {
            return 0.0;
        }
        let overlay = &self.overlay;
        let weighted: f64 = self
            .units
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| overlay.is_live(NodeId::new(*i)))
            .map(|(_, u)| unit_density(u, now) * u.capacity().as_bytes() as f64)
            .sum();
        weighted / capacity
    }

    /// Samples the cluster into the observer and returns the cluster-wide
    /// density (the same value as [`importance_density`]).
    ///
    /// Emits one `cluster.node` event per node (density, occupancy, and
    /// liveness — dead nodes report zeros) followed by a single
    /// `cluster.density` rollup. Fractions are scaled to parts-per-million
    /// so traces stay integer-only.
    ///
    /// [`importance_density`]: Besteffs::importance_density
    pub fn observe_density(&mut self, now: SimTime) -> f64 {
        let density = self.importance_density(now);
        if !self.obs.is_enabled() {
            return density;
        }
        let ppm = |fraction: f64| (fraction * 1e6).round() as u64;
        for (i, unit) in self.units.iter_mut().enumerate() {
            let live = self.overlay.is_live(NodeId::new(i));
            let (node_density, node_used) = if live {
                (unit_density(unit, now), unit.used().ratio(unit.capacity()))
            } else {
                (0.0, 0.0)
            };
            self.obs.event(
                now,
                "cluster.node",
                &[
                    ("node", i as u64),
                    ("density_ppm", ppm(node_density)),
                    ("used_ppm", ppm(node_used)),
                    ("live", live as u64),
                ],
            );
        }
        let used = self
            .used()
            .ratio(self.capacity().max(ByteSize::from_bytes(1)));
        self.obs.event(
            now,
            "cluster.density",
            &[("density_ppm", ppm(density)), ("used_ppm", ppm(used))],
        );
        density
    }

    /// Locates the live node storing `id`, if any (directory-service
    /// lookup; the simulation keeps it simple with a scan).
    pub fn locate(&self, id: ObjectId) -> Option<NodeId> {
        self.live_units()
            .find(|(_, u)| u.contains(id))
            .map(|(n, _)| n)
    }

    fn random_live_start<R: Rng>(&self, rng: &mut R) -> NodeId {
        loop {
            let node = NodeId::new(rng.gen_range(0..self.units.len()));
            if self.overlay.is_live(node) {
                return node;
            }
        }
    }
}

/// One unit's storage importance density at `now`.
fn unit_density(unit: &mut StorageUnit, now: SimTime) -> f64 {
    unit.density_info(now)
        .expect("a unit answers a density read")
        .density
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{rng, SimDuration};
    use temporal_importance::ImportanceCurve;

    fn spec(id: u64, mib: u64, importance: f64, expiry_days: u64) -> ObjectSpec {
        ObjectSpec::new(
            ObjectId::new(id),
            ByteSize::from_mib(mib),
            ImportanceCurve::Fixed {
                importance: Importance::new(importance).unwrap(),
                expiry: SimDuration::from_days(expiry_days),
            },
        )
    }

    fn small_cluster(seed: u64) -> (Besteffs, rand::rngs::StdRng) {
        let mut rand = rng::seeded(seed);
        let cluster = Besteffs::builder(20, ByteSize::from_mib(100)).build(&mut rand);
        (cluster, rand)
    }

    #[test]
    fn places_objects_and_locates_them() {
        let (mut cluster, mut rand) = small_cluster(1);
        let placed = cluster
            .place(spec(1, 50, 1.0, 30), SimTime::ZERO, &mut rand)
            .unwrap();
        assert_eq!(cluster.locate(ObjectId::new(1)), Some(placed.node));
        assert_eq!(cluster.stats().placed, 1);
        assert_eq!(cluster.stats().direct_stores, 1);
        assert_eq!(cluster.used(), ByteSize::from_mib(50));
    }

    #[test]
    fn fills_cluster_then_rejects_low_importance() {
        let (mut cluster, mut rand) = small_cluster(2);
        // Fill every node with full-importance data.
        let mut id = 0u64;
        let mut rejected = false;
        for _ in 0..3000 {
            id += 1;
            match cluster.place(spec(id, 25, 1.0, 3650), SimTime::ZERO, &mut rand) {
                Ok(_) => {}
                Err(PlacementError::ClusterFull { .. }) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected, "cluster should eventually be full");
        // Cluster is essentially full of importance-1.0 data: a lower
        // importance object is rejected...
        let err = cluster
            .place(spec(99_999, 25, 0.5, 30), SimTime::ZERO, &mut rand)
            .unwrap_err();
        assert!(matches!(err, PlacementError::ClusterFull { .. }));
        assert!(cluster.stats().rejected >= 2);
    }

    #[test]
    fn higher_importance_preempts_lower_across_cluster() {
        let (mut cluster, mut rand) = small_cluster(3);
        // Fill every node to the brim with 0.3-importance data (directly,
        // so no node retains free space that random sampling might miss).
        let mut id = 0u64;
        for i in 0..cluster.len() {
            for _ in 0..2 {
                id += 1;
                let unit = cluster.node_mut(NodeId::new(i));
                let stored = unit.call(SimTime::ZERO, spec(id, 50, 0.3, 3650).into());
                assert!(matches!(stored, Response::Put(Ok(_))), "{stored:?}");
            }
        }
        assert_eq!(cluster.used(), cluster.capacity());
        // A 0.9-importance object still finds room by preempting.
        let placed = cluster
            .place(spec(50_000, 50, 0.9, 30), SimTime::ZERO, &mut rand)
            .unwrap();
        assert!(!placed.outcome.evicted.is_empty());
        assert_eq!(
            placed.outcome.highest_preempted,
            Some(Importance::new(0.3).unwrap())
        );
    }

    #[test]
    fn placement_prefers_empty_units() {
        let (mut cluster, mut rand) = small_cluster(4);
        // With mostly-empty units, placements should be direct stores.
        for i in 0..10 {
            let p = cluster
                .place(spec(i, 10, 1.0, 30), SimTime::ZERO, &mut rand)
                .unwrap();
            assert_eq!(p.outcome.highest_preempted, None);
            assert_eq!(p.tries, 1);
        }
        assert_eq!(cluster.stats().direct_stores, 10);
    }

    #[test]
    fn node_failure_loses_objects_without_replication() {
        let (mut cluster, mut rand) = small_cluster(5);
        let placed = cluster
            .place(spec(1, 50, 1.0, 30), SimTime::ZERO, &mut rand)
            .unwrap();
        let lost = cluster.fail_node(placed.node, SimTime::ZERO);
        assert_eq!(lost, 1);
        assert_eq!(cluster.locate(ObjectId::new(1)), None);
        assert_eq!(cluster.stats().objects_lost, 1);
        assert_eq!(cluster.live_nodes(), 19);
        // Idempotent.
        assert_eq!(cluster.fail_node(placed.node, SimTime::ZERO), 0);
        assert_eq!(cluster.stats().failed_nodes, 1);
        assert_eq!(cluster.failure_epochs().len(), 1);
        assert_eq!(cluster.failure_epochs()[0].objects_lost, 1);
        // Placement still works around the failure.
        let again = cluster
            .place(spec(2, 50, 1.0, 30), SimTime::ZERO, &mut rand)
            .unwrap();
        assert!(cluster.is_alive(again.node));
    }

    #[test]
    fn all_nodes_failed_yields_no_live_nodes() {
        let (mut cluster, mut rand) = small_cluster(6);
        for i in 0..20 {
            cluster.fail_node(NodeId::new(i), SimTime::ZERO);
        }
        let err = cluster
            .place(spec(1, 10, 1.0, 30), SimTime::ZERO, &mut rand)
            .unwrap_err();
        assert_eq!(err, PlacementError::NoLiveNodes);
    }

    #[test]
    fn cluster_density_aggregates_nodes() {
        let (mut cluster, mut rand) = small_cluster(7);
        assert_eq!(cluster.importance_density(SimTime::ZERO), 0.0);
        for i in 0..20 {
            let _ = cluster.place(spec(i, 50, 1.0, 3650), SimTime::ZERO, &mut rand);
        }
        let d = cluster.importance_density(SimTime::ZERO);
        // 20 × 50 MiB of importance-1.0 data over 2,000 MiB capacity.
        assert!((d - 0.5).abs() < 0.01, "density {d}");
    }

    #[test]
    fn sweep_expired_reclaims_cluster_wide() {
        let (mut cluster, mut rand) = small_cluster(8);
        for i in 0..5 {
            cluster
                .place(spec(i, 10, 1.0, 10), SimTime::ZERO, &mut rand)
                .unwrap();
        }
        let swept = cluster.sweep_expired(SimTime::from_days(30));
        assert_eq!(swept.len(), 5);
        assert_eq!(cluster.used(), ByteSize::ZERO);
    }

    /// The §5.3 deployment is thousands of nodes: at that scale the
    /// cluster-level passes must equal applying each step node by node.
    #[test]
    fn paper_scale_passes_equal_per_node_application() {
        fn filled() -> Besteffs {
            let mut rand = rng::seeded(53);
            let mut cluster = Besteffs::builder(300, ByteSize::from_mib(100)).build(&mut rand);
            for id in 0..1200u64 {
                let curve = ImportanceCurve::two_step(
                    Importance::new(0.4 + (id % 7) as f64 * 0.1).unwrap(),
                    SimDuration::from_days(5 + id % 40),
                    SimDuration::from_days(10 + id % 25),
                );
                let spec =
                    ObjectSpec::new(ObjectId::new(id), ByteSize::from_mib(10 + id % 20), curve);
                let _ = cluster.place(spec, SimTime::from_days(id / 100), &mut rand);
            }
            cluster.fail_node(NodeId::new(7), SimTime::from_days(12));
            cluster.fail_node(NodeId::new(299), SimTime::from_days(12));
            cluster
        }
        let (mut whole, mut by_node) = (filled(), filled());

        let mut swept = 0;
        for day in [20, 45, 70] {
            let now = SimTime::from_days(day);
            whole.advance(now);
            let records = whole.sweep_expired(now);
            let density = whole.importance_density(now);
            assert!(density > 0.0, "day {day}: nothing left to weigh");

            let live: Vec<NodeId> = by_node.live_units().map(|(n, _)| n).collect();
            assert_eq!(live.len(), 298);
            let mut expected = Vec::new();
            for &n in &live {
                by_node.node_mut(n).advance(now);
                expected.extend(by_node.node_mut(n).sweep(now).unwrap());
            }
            let weighted: f64 = live
                .iter()
                .map(|&n| {
                    let unit = by_node.node_mut(n);
                    unit_density(unit, now) * unit.capacity().as_bytes() as f64
                })
                .sum();
            let expected_density = weighted / by_node.capacity().as_bytes() as f64;

            assert_eq!(records, expected, "day {day}: records in node order");
            assert_eq!(density.to_bits(), expected_density.to_bits(), "day {day}");
            assert_eq!(whole.used(), by_node.used());
            swept += records.len();
        }
        assert!(swept > 500, "only {swept} objects expired");
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use sim_core::{rng, SimDuration};
    use temporal_importance::ImportanceCurve;

    fn spec(id: u64, mib: u64) -> ObjectSpec {
        ObjectSpec::new(
            ObjectId::new(id),
            ByteSize::from_mib(mib),
            ImportanceCurve::fixed_lifetime(SimDuration::from_days(365)),
        )
    }

    #[test]
    fn added_nodes_join_the_overlay_and_accept_placements() {
        let mut rand = rng::seeded(21);
        let mut cluster = Besteffs::builder(10, ByteSize::from_mib(50)).build(&mut rand);
        // Fill the original fleet to the brim.
        let mut id = 0u64;
        for i in 0..10 {
            id += 1;
            let unit = cluster.node_mut(NodeId::new(i));
            let stored = unit.call(SimTime::ZERO, spec(id, 50).into());
            assert!(matches!(stored, Response::Put(Ok(_))), "{stored:?}");
        }
        assert!(cluster
            .place(spec(9_000, 50), SimTime::ZERO, &mut rand)
            .is_err());

        // Add bigger replacement desktops; capacity grows and placements
        // succeed again without touching any annotation.
        for _ in 0..5 {
            let node = cluster.add_node(ByteSize::from_mib(200), &mut rand);
            assert!(cluster.is_alive(node));
        }
        assert_eq!(cluster.len(), 15);
        assert_eq!(cluster.capacity(), ByteSize::from_mib(10 * 50 + 5 * 200));
        let mut placed = 0;
        for i in 0..20u64 {
            if cluster
                .place(spec(10_000 + i, 50), SimTime::ZERO, &mut rand)
                .is_ok()
            {
                placed += 1;
            }
        }
        assert!(placed > 10, "only {placed} placements landed on new nodes");
    }

    /// Regression: `fail_node` alone used to leave `Directory` entries
    /// resolvable to the dead node; the cluster-level failure path must
    /// purge them.
    #[test]
    fn fail_node_purging_drops_stale_directory_entries() {
        let mut rand = rng::seeded(23);
        let mut cluster = Besteffs::builder(10, ByteSize::from_mib(100)).build(&mut rand);
        let mut dir = crate::directory::Directory::new();
        let placed = cluster
            .place(spec(1, 10), SimTime::ZERO, &mut rand)
            .unwrap();
        let name = crate::directory::ObjectName::from("doomed");
        dir.publish_on(
            name.clone(),
            ObjectId::new(1),
            placed.node,
            cluster.incarnation(placed.node),
        );
        assert!(cluster.entry_is_current(dir.latest(&name).unwrap()));

        let lost = cluster.fail_node_purging(placed.node, SimTime::from_days(1), &mut dir);
        assert_eq!(lost, 1);
        assert_eq!(dir.latest(&name), None, "stale entry must be purged");
        assert_eq!(cluster.stats().directory_entries_purged, 1);
        // Failing the same dead node again purges nothing more.
        assert_eq!(
            cluster.fail_node_purging(placed.node, SimTime::from_days(2), &mut dir),
            0
        );
        assert_eq!(cluster.stats().directory_entries_purged, 1);
    }

    /// A rejoined node comes back empty under a fresh incarnation, so an
    /// entry published before the failure can never resurrect even if the
    /// purge was skipped.
    #[test]
    fn rejoin_bumps_incarnation_and_blocks_resurrection() {
        let mut rand = rng::seeded(24);
        let mut cluster = Besteffs::builder(10, ByteSize::from_mib(100)).build(&mut rand);
        let mut dir = crate::directory::Directory::new();
        let placed = cluster
            .place(spec(7, 10), SimTime::ZERO, &mut rand)
            .unwrap();
        let name = crate::directory::ObjectName::from("zombie");
        dir.publish_on(
            name.clone(),
            ObjectId::new(7),
            placed.node,
            cluster.incarnation(placed.node),
        );

        // Fail WITHOUT purging — the stale entry survives in the directory.
        cluster.fail_node(placed.node, SimTime::from_days(1));
        assert!(!cluster.rejoin_node(NodeId::new((placed.node.index() + 1) % cluster.len())));
        assert!(cluster.rejoin_node(placed.node));
        assert_eq!(cluster.incarnation(placed.node), 1);
        assert_eq!(cluster.stats().rejoined_nodes, 1);
        assert!(cluster.is_alive(placed.node));
        assert_eq!(
            cluster.node(placed.node).len(),
            0,
            "rejoins come back empty"
        );

        // The pre-failure entry points at a live node but a dead
        // incarnation: it must not resolve.
        let stale = dir.latest(&name).unwrap();
        assert!(!cluster.entry_is_current(stale));

        // A fresh placement on the reborn node resolves fine.
        let again = cluster
            .place(spec(8, 10), SimTime::from_days(2), &mut rand)
            .unwrap();
        dir.publish_on(
            name.clone(),
            ObjectId::new(8),
            again.node,
            cluster.incarnation(again.node),
        );
        assert!(cluster.entry_is_current(dir.latest(&name).unwrap()));
    }

    /// Placement, advance, sweep and density all work across a rejoin:
    /// the reborn node re-enters the live-walk candidate set.
    #[test]
    fn rejoined_nodes_reenter_the_candidate_set() {
        let mut rand = rng::seeded(25);
        let mut cluster = Besteffs::builder(10, ByteSize::from_mib(50)).build(&mut rand);
        for i in 0..10 {
            cluster.fail_node(NodeId::new(i), SimTime::ZERO);
        }
        assert_eq!(cluster.live_nodes(), 0);
        for i in 0..10 {
            cluster.rejoin_node(NodeId::new(i));
        }
        assert_eq!(cluster.live_nodes(), 10);
        let mut landed = 0;
        for i in 0..20u64 {
            if cluster
                .place(spec(100 + i, 10), SimTime::from_days(1), &mut rand)
                .is_ok()
            {
                landed += 1;
            }
        }
        assert!(landed > 10, "rejoined fleet only accepted {landed}");
        cluster.advance(SimTime::from_days(2));
        assert!(cluster.importance_density(SimTime::from_days(2)) > 0.0);
    }

    /// Regression: loss accounting across repeated fail → rejoin →
    /// publish cycles must stay exact. An earlier audit worried that a
    /// node failing between `fail_node` and the directory purge (or a
    /// second failure of an already-dead node) could double-count purged
    /// entries or lost objects; this pins the books.
    #[test]
    fn repeated_failure_cycles_never_double_count_losses() {
        let mut rand = rng::seeded(29);
        let mut cluster = Besteffs::builder(10, ByteSize::from_mib(100)).build(&mut rand);
        let mut dir = crate::directory::Directory::new();

        let mut published = 0u64;
        let mut expected_lost = 0u64;
        let mut id = 0u64;
        for cycle in 0..4 {
            // Publish a couple of fresh objects each cycle.
            let mut target = None;
            for _ in 0..2 {
                id += 1;
                let placed = cluster
                    .place(spec(id, 5), SimTime::from_days(cycle * 10), &mut rand)
                    .unwrap();
                dir.publish_on(
                    crate::directory::ObjectName::new(format!("obj-{id}")),
                    ObjectId::new(id),
                    placed.node,
                    cluster.incarnation(placed.node),
                );
                published += 1;
                target = Some(placed.node);
            }
            let node = target.unwrap();
            expected_lost += cluster.node(node).len() as u64;
            let lost =
                cluster.fail_node_purging(node, SimTime::from_days(cycle * 10 + 5), &mut dir);
            // Failing the node again while it is down must be a no-op.
            assert_eq!(
                cluster.fail_node_purging(node, SimTime::from_days(cycle * 10 + 6), &mut dir),
                0
            );
            assert!(lost >= 1);
            cluster.rejoin_node(node);
        }

        let stats = cluster.stats();
        assert_eq!(stats.objects_lost, expected_lost);
        assert_eq!(
            stats.objects_lost,
            cluster
                .failure_epochs()
                .iter()
                .map(|e| e.objects_lost)
                .sum::<u64>(),
            "epochs and stats must agree"
        );
        // Every directory entry is either still resolvable or was purged
        // exactly once: no entry is lost twice, none resurrects.
        let surviving = dir.len() as u64;
        assert_eq!(surviving + stats.directory_entries_purged, published);
        for name in dir.names() {
            let entry = dir.latest(name).unwrap();
            assert!(
                cluster.entry_is_current(entry),
                "surviving entry {name:?} must resolve to a live incarnation"
            );
        }
    }

    #[test]
    fn grown_overlay_stays_connected() {
        let mut rand = rng::seeded(22);
        let mut cluster = Besteffs::builder(5, ByteSize::from_mib(10)).build(&mut rand);
        for _ in 0..50 {
            cluster.add_node(ByteSize::from_mib(10), &mut rand);
        }
        assert_eq!(cluster.len(), 55);
        // Walk sampling reaches the newcomers.
        let sampled = (0..200)
            .map(|_| {
                cluster
                    .place(
                        spec(rand.gen_range(100_000..u64::MAX), 5),
                        SimTime::ZERO,
                        &mut rand,
                    )
                    .map(|p| p.node.index())
                    .unwrap_or(0)
            })
            .filter(|&n| n >= 5)
            .count();
        assert!(sampled > 50, "new nodes rarely sampled: {sampled}");
    }
}
