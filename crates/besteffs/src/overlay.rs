//! The p2p overlay graph and its random walks.

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifier of a storage node in the overlay.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(raw: usize) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A connected, approximately-regular random overlay graph, and the one
/// owner of node liveness.
///
/// Built as a ring (guaranteeing connectivity) plus random chords until
/// every node has at least `degree` neighbors. Random walks over the
/// overlay provide the uniform-ish node samples the §5.3 placement
/// algorithm relies on.
///
/// Every node is live when built or added. [`set_live`] fails and
/// rejoins nodes; edges outlive an outage, so a rebooted desktop keeps
/// its neighbors. Beside each node's neighbor list the overlay keeps its
/// *live* neighbors in the same order, rebuilt only when a neighbor's
/// liveness changes or a neighbor is added, so a walk hop is one draw
/// over a list that already exists.
///
/// [`set_live`]: Overlay::set_live
///
/// # Examples
///
/// ```
/// use besteffs::{NodeId, Overlay};
/// use sim_core::rng;
///
/// let mut rand = rng::seeded(7);
/// let mut overlay = Overlay::random(100, 6, &mut rand);
/// assert_eq!(overlay.live_count(), 100);
/// overlay.set_live(NodeId::new(3), false);
/// assert_eq!(overlay.live_count(), 99);
/// let (end, hops) = overlay.random_walk_live_counted(NodeId::new(0), 10, &mut rand);
/// let end = end.expect("a 99-node overlay never strands a walk");
/// assert!(overlay.is_live(end));
/// assert_eq!(hops, 10);
/// ```
#[derive(Debug, Clone)]
pub struct Overlay {
    neighbors: Vec<Vec<NodeId>>,
    /// Per node, the live entries of `neighbors`, in neighbor order.
    live_neighbors: Vec<Vec<NodeId>>,
    live: Vec<bool>,
    live_count: usize,
}

impl Overlay {
    /// Builds a random overlay of `nodes` nodes with target `degree`, all
    /// of them live.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 3` or `degree < 2`.
    pub fn random<R: Rng>(nodes: usize, degree: usize, rng: &mut R) -> Self {
        assert!(nodes >= 3, "overlay needs at least 3 nodes");
        assert!(degree >= 2, "overlay degree must be at least 2");
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::with_capacity(degree); nodes];
        // Ring edges for connectivity.
        for i in 0..nodes {
            let next = (i + 1) % nodes;
            neighbors[i].push(NodeId(next));
            neighbors[next].push(NodeId(i));
        }
        // Random chords until the target degree is met.
        for i in 0..nodes {
            let mut guard = 0;
            while neighbors[i].len() < degree && guard < 100 {
                guard += 1;
                let j = rng.gen_range(0..nodes);
                if j == i || neighbors[i].contains(&NodeId(j)) {
                    continue;
                }
                neighbors[i].push(NodeId(j));
                neighbors[j].push(NodeId(i));
            }
        }
        Overlay {
            live_neighbors: neighbors.clone(),
            neighbors,
            live: vec![true; nodes],
            live_count: nodes,
        }
    }

    /// The neighbors of `node`, live or not.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors[node.0]
    }

    /// True if `node` is live.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.live[node.0]
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Fails (`live == false`) or rejoins (`live == true`) `node`, and
    /// rebuilds the live-neighbor list of every neighbor of it. Returns
    /// false, changing nothing, if `node` already had that liveness.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_live(&mut self, node: NodeId, live: bool) -> bool {
        if self.live[node.0] == live {
            return false;
        }
        self.live[node.0] = live;
        if live {
            self.live_count += 1;
        } else {
            self.live_count -= 1;
        }
        for k in 0..self.neighbors[node.0].len() {
            self.refresh_live_neighbors(self.neighbors[node.0][k]);
        }
        true
    }

    /// Performs a `steps`-hop random walk that only ever hops onto live
    /// nodes — a failed desktop cannot forward a walk. Returns the end
    /// node, `None` if the walk gets stuck (no live neighbor) or ends on a
    /// dead node (only possible for `steps == 0` from a dead start), and
    /// the number of hops actually taken — the figure placement telemetry
    /// records. [`sample_walks_counted`] draws its candidates with this
    /// walk.
    ///
    /// Each hop is one uniform draw over the current node's live
    /// neighbors, in neighbor order. That is the draw a per-hop filter of
    /// the neighbor list would make, so the walk consumes the RNG exactly
    /// as one did; with every node live it is one draw over the full
    /// neighbor list.
    ///
    /// [`sample_walks_counted`]: Overlay::sample_walks_counted
    pub fn random_walk_live_counted<R: Rng>(
        &self,
        start: NodeId,
        steps: usize,
        rng: &mut R,
    ) -> (Option<NodeId>, u64) {
        let mut at = start;
        for hop in 0..steps {
            let Some(&next) = self.live_neighbors[at.0].choose(rng) else {
                return (None, hop as u64);
            };
            at = next;
        }
        (self.live[at.0].then_some(at), steps as u64)
    }

    /// Samples up to `count` *distinct* live nodes into `out` (cleared
    /// first) by repeated live-aware random walks from `start` (see
    /// [`random_walk_live_counted`]: dead nodes neither forward nor
    /// terminate a walk). Gives up after a bounded number of attempts, so
    /// the sample may be shorter than `count` on small or heavily-failed
    /// overlays. Returns the total hops taken across every attempted walk
    /// (including walks that got stuck or landed on duplicates).
    ///
    /// Callers that sample repeatedly pass the same `out` and allocate
    /// nothing after the first call.
    ///
    /// [`random_walk_live_counted`]: Overlay::random_walk_live_counted
    pub fn sample_walks_counted<R: Rng>(
        &self,
        start: NodeId,
        count: usize,
        steps: usize,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> u64 {
        out.clear();
        let mut hops = 0u64;
        let max_attempts = count * 8 + 16;
        for _ in 0..max_attempts {
            if out.len() >= count {
                break;
            }
            let (node, walked) = self.random_walk_live_counted(start, steps, rng);
            hops += walked;
            let Some(node) = node else {
                continue;
            };
            if !out.contains(&node) {
                out.push(node);
            }
        }
        hops
    }

    /// Joins a new, live node to the overlay, wiring it to `degree` random
    /// existing neighbors (always at least one, so it stays reachable).
    /// Returns the new node's id.
    ///
    /// This models the churn §5.3 anticipates: "we expect the university
    /// to continuously replace older desktops with newer desktops".
    pub fn add_node<R: Rng>(&mut self, degree: usize, rng: &mut R) -> NodeId {
        let id = NodeId(self.neighbors.len());
        self.neighbors.push(Vec::with_capacity(degree.max(1)));
        self.live_neighbors.push(Vec::new());
        self.live.push(true);
        self.live_count += 1;
        let existing = id.0;
        let mut guard = 0;
        while self.neighbors[id.0].len() < degree.max(1) && guard < 100 {
            guard += 1;
            let j = rng.gen_range(0..existing);
            if self.neighbors[id.0].contains(&NodeId(j)) {
                continue;
            }
            self.neighbors[id.0].push(NodeId(j));
            self.neighbors[j].push(id);
            self.refresh_live_neighbors(NodeId(j));
        }
        self.refresh_live_neighbors(id);
        id
    }

    /// True if every node can reach every other (BFS from node 0), over
    /// every edge, live or not.
    pub fn is_connected(&self) -> bool {
        if self.neighbors.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.neighbors.len()];
        let mut queue = vec![0usize];
        seen[0] = true;
        let mut visited = 1;
        while let Some(i) = queue.pop() {
            for n in &self.neighbors[i] {
                if !seen[n.0] {
                    seen[n.0] = true;
                    visited += 1;
                    queue.push(n.0);
                }
            }
        }
        visited == self.neighbors.len()
    }

    /// Rebuilds `node`'s live-neighbor list from its neighbor list.
    fn refresh_live_neighbors(&mut self, node: NodeId) {
        let list = &mut self.live_neighbors[node.0];
        list.clear();
        list.extend(
            self.neighbors[node.0]
                .iter()
                .copied()
                .filter(|n| self.live[n.0]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use sim_core::rng;

    #[test]
    fn overlay_is_connected_and_meets_degree() {
        let mut rand = rng::seeded(1);
        let overlay = Overlay::random(500, 8, &mut rand);
        assert!(overlay.is_connected());
        let min_degree = (0..500)
            .map(|i| overlay.neighbors(NodeId::new(i)).len())
            .min()
            .unwrap();
        assert!(min_degree >= 8);
    }

    #[test]
    fn walks_stay_in_range_and_mix() {
        let mut rand = rng::seeded(2);
        let overlay = Overlay::random(200, 6, &mut rand);
        let mut hits = vec![0u32; 200];
        for _ in 0..4000 {
            let (end, hops) = overlay.random_walk_live_counted(NodeId::new(0), 12, &mut rand);
            assert_eq!(hops, 12);
            hits[end.expect("an all-live walk never strands").index()] += 1;
        }
        // A 12-step walk over a degree-6 expander should reach a large
        // fraction of a 200-node overlay.
        let reached = hits.iter().filter(|&&h| h > 0).count();
        assert!(reached > 150, "walks reached only {reached} nodes");
    }

    #[test]
    fn sample_walks_returns_distinct_alive_nodes() {
        let mut rand = rng::seeded(3);
        let mut overlay = Overlay::random(100, 6, &mut rand);
        let dead = NodeId::new(5);
        assert!(overlay.set_live(dead, false));
        assert!(
            !overlay.set_live(dead, false),
            "failing a dead node is a no-op"
        );
        assert_eq!(overlay.live_count(), 99);
        let mut sample = Vec::new();
        overlay.sample_walks_counted(NodeId::new(0), 10, 8, &mut rand, &mut sample);
        assert!(sample.len() <= 10);
        assert!(!sample.contains(&dead));
        let mut unique = sample.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), sample.len());
    }

    /// The walk as a per-hop filter draws it: collect the live neighbors
    /// into a fresh `Vec`, then choose.
    fn filtered_walk<R: Rng>(
        overlay: &Overlay,
        start: NodeId,
        steps: usize,
        rng: &mut R,
    ) -> (Option<NodeId>, u64) {
        let mut at = start;
        for hop in 0..steps {
            let live: Vec<NodeId> = overlay
                .neighbors(at)
                .iter()
                .copied()
                .filter(|&n| overlay.is_live(n))
                .collect();
            let Some(&next) = live.choose(rng) else {
                return (None, hop as u64);
            };
            at = next;
        }
        (overlay.is_live(at).then_some(at), steps as u64)
    }

    #[test]
    fn kept_live_lists_draw_like_a_per_hop_filter() {
        let mut rand = rng::seeded(9);
        let mut overlay = Overlay::random(50, 4, &mut rand);
        for round in 0..40usize {
            match round % 4 {
                0 => {
                    overlay.add_node(3, &mut rand);
                }
                1 | 2 => {
                    let node = NodeId::new(rand.gen_range(0..overlay.neighbors.len()));
                    overlay.set_live(node, !overlay.is_live(node));
                }
                _ => {}
            }
            let start = NodeId::new(rand.gen_range(0..overlay.neighbors.len()));
            let mut reference = rand.clone();
            let (end, hops) = overlay.random_walk_live_counted(start, 6, &mut rand);
            assert_eq!(
                (end, hops),
                filtered_walk(&overlay, start, 6, &mut reference),
                "round {round}"
            );
            assert_eq!(rand.next_u64(), reference.next_u64(), "round {round}");
        }
        // Every attempted walk runs all 6 hops on an all-live overlay, and
        // at least `count` attempts are needed to find 5 distinct nodes.
        let all_live = Overlay::random(50, 4, &mut rand);
        let mut sample = Vec::new();
        let hops = all_live.sample_walks_counted(NodeId::new(0), 5, 6, &mut rand, &mut sample);
        assert_eq!(sample.len(), 5);
        assert!(hops >= 30, "hops {hops}");
        assert_eq!(hops % 6, 0);
    }

    #[test]
    fn sample_walks_gives_up_gracefully_when_everything_is_dead() {
        let mut rand = rng::seeded(4);
        let mut overlay = Overlay::random(10, 3, &mut rand);
        for i in 0..10 {
            overlay.set_live(NodeId::new(i), false);
        }
        assert_eq!(overlay.live_count(), 0);
        let mut sample = vec![NodeId::new(1)];
        let hops = overlay.sample_walks_counted(NodeId::new(0), 5, 4, &mut rand, &mut sample);
        assert!(sample.is_empty());
        assert_eq!(
            hops, 0,
            "a walk from a node with no live neighbor takes no hop"
        );
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_overlay_panics() {
        let mut rand = rng::seeded(5);
        let _ = Overlay::random(2, 2, &mut rand);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn degree_one_panics() {
        let mut rand = rng::seeded(6);
        let _ = Overlay::random(10, 1, &mut rand);
    }
}
