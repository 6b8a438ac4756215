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

/// A connected, approximately-regular random overlay graph.
///
/// Built as a ring (guaranteeing connectivity) plus random chords until
/// every node has at least `degree` neighbors. Random walks over the
/// overlay provide the uniform-ish node samples the §5.3 placement
/// algorithm relies on.
///
/// # Examples
///
/// ```
/// use besteffs::Overlay;
/// use sim_core::rng;
///
/// let mut rand = rng::seeded(7);
/// let overlay = Overlay::random(100, 6, &mut rand);
/// assert_eq!(overlay.len(), 100);
/// let walk_end = overlay.random_walk(besteffs::NodeId::new(0), 10, &mut rand);
/// assert!(walk_end.index() < 100);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Overlay {
    neighbors: Vec<Vec<NodeId>>,
}

impl Overlay {
    /// Builds a random overlay of `nodes` nodes with target `degree`.
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
        Overlay { neighbors }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True if the overlay has no nodes (never, for constructed overlays).
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The neighbors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors[node.0]
    }

    /// Performs a `steps`-hop uniform random walk from `start`.
    pub fn random_walk<R: Rng>(&self, start: NodeId, steps: usize, rng: &mut R) -> NodeId {
        let mut at = start;
        for _ in 0..steps {
            let next = self.neighbors[at.0]
                .choose(rng)
                .expect("every node has ring neighbors");
            at = *next;
        }
        at
    }

    /// Performs a `steps`-hop random walk that only ever hops onto nodes
    /// for which `alive` returns true — a failed desktop cannot forward a
    /// walk. Returns the end node, `None` if the walk gets stuck (no live
    /// neighbor) or ends on a dead node (only possible for `steps == 0`
    /// from a dead start), and the number of hops actually taken — the
    /// figure placement telemetry records. [`sample_walks_counted`] draws
    /// its candidates with this walk.
    ///
    /// When every node is alive this consumes the RNG identically to
    /// [`random_walk`] (one uniform draw over the full neighbor list per
    /// hop), so churn-free simulations are bit-for-bit unchanged.
    ///
    /// [`random_walk`]: Overlay::random_walk
    /// [`sample_walks_counted`]: Overlay::sample_walks_counted
    pub fn random_walk_live_counted<R, F>(
        &self,
        start: NodeId,
        steps: usize,
        rng: &mut R,
        alive: F,
    ) -> (Option<NodeId>, u64)
    where
        R: Rng,
        F: Fn(NodeId) -> bool,
    {
        let mut at = start;
        let mut hops = 0u64;
        let mut live: Vec<NodeId> = Vec::new();
        for _ in 0..steps {
            live.clear();
            live.extend(self.neighbors[at.0].iter().copied().filter(|&n| alive(n)));
            let Some(next) = live.choose(rng) else {
                return (None, hops);
            };
            at = *next;
            hops += 1;
        }
        (alive(at).then_some(at), hops)
    }

    /// Samples up to `count` *distinct* live nodes by repeated live-aware
    /// random walks from `start` (see [`random_walk_live_counted`]: dead
    /// nodes neither forward nor terminate a walk). Gives up after a
    /// bounded number of attempts, so the result may be shorter than
    /// `count` on small or heavily-failed overlays. Also returns the total
    /// hops taken across every attempted walk (including walks that got
    /// stuck or landed on duplicates).
    ///
    /// [`random_walk_live_counted`]: Overlay::random_walk_live_counted
    pub fn sample_walks_counted<R, F>(
        &self,
        start: NodeId,
        count: usize,
        steps: usize,
        rng: &mut R,
        alive: F,
    ) -> (Vec<NodeId>, u64)
    where
        R: Rng,
        F: Fn(NodeId) -> bool,
    {
        let mut out: Vec<NodeId> = Vec::with_capacity(count);
        let mut hops = 0u64;
        let max_attempts = count * 8 + 16;
        for _ in 0..max_attempts {
            if out.len() >= count {
                break;
            }
            let (node, walked) = self.random_walk_live_counted(start, steps, rng, &alive);
            hops += walked;
            let Some(node) = node else {
                continue;
            };
            if !out.contains(&node) {
                out.push(node);
            }
        }
        (out, hops)
    }

    /// Joins a new node to the overlay, wiring it to `degree` random
    /// existing neighbors (always at least one, so it stays reachable).
    /// Returns the new node's id.
    ///
    /// This models the churn §5.3 anticipates: "we expect the university
    /// to continuously replace older desktops with newer desktops".
    pub fn add_node<R: Rng>(&mut self, degree: usize, rng: &mut R) -> NodeId {
        let id = NodeId(self.neighbors.len());
        self.neighbors.push(Vec::with_capacity(degree.max(1)));
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
        }
        id
    }

    /// True if every node can reach every other (BFS from node 0).
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let end = overlay.random_walk(NodeId::new(0), 12, &mut rand);
            hits[end.index()] += 1;
        }
        // A 12-step walk over a degree-6 expander should reach a large
        // fraction of a 200-node overlay.
        let reached = hits.iter().filter(|&&h| h > 0).count();
        assert!(reached > 150, "walks reached only {reached} nodes");
    }

    #[test]
    fn sample_walks_returns_distinct_alive_nodes() {
        let mut rand = rng::seeded(3);
        let overlay = Overlay::random(100, 6, &mut rand);
        let dead = NodeId::new(5);
        let sample = overlay
            .sample_walks_counted(NodeId::new(0), 10, 8, &mut rand, |n| n != dead)
            .0;
        assert!(sample.len() <= 10);
        assert!(!sample.contains(&dead));
        let mut unique = sample.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), sample.len());
    }

    #[test]
    fn counted_walks_match_uncounted_and_report_hops() {
        let mut a = rng::seeded(9);
        let mut b = rng::seeded(9);
        let overlay_a = Overlay::random(50, 4, &mut a);
        let overlay_b = Overlay::random(50, 4, &mut b);
        // The no-liveness reference walk, deduplicated the same way.
        let mut plain = Vec::new();
        while plain.len() < 5 {
            let node = overlay_a.random_walk(NodeId::new(0), 6, &mut a);
            if !plain.contains(&node) {
                plain.push(node);
            }
        }
        let (counted, hops) =
            overlay_b.sample_walks_counted(NodeId::new(0), 5, 6, &mut b, |_| true);
        assert_eq!(plain, counted, "an all-alive mask must not perturb the RNG");
        // Every attempted walk runs all 6 hops on an all-alive overlay, and
        // at least `count` attempts are needed to find 5 distinct nodes.
        assert!(hops >= 30, "hops {hops}");
        assert_eq!(hops % 6, 0);
    }

    #[test]
    fn sample_walks_gives_up_gracefully_when_everything_is_dead() {
        let mut rand = rng::seeded(4);
        let overlay = Overlay::random(10, 3, &mut rand);
        let sample = overlay
            .sample_walks_counted(NodeId::new(0), 5, 4, &mut rand, |_| false)
            .0;
        assert!(sample.is_empty());
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
