//! Static obstacle R-tree for MOPED's first-stage collision filter.
//!
//! MOPED's two-stage collision scheme (§III-A) stores obstacle AABBs in a
//! hierarchical R-tree built **offline** with the Sort-Tile-Recursive (STR)
//! bulk-loading algorithm (Leutenegger et al., ICDE'97). At query time the
//! robot's OBB is tested against node AABBs with the cheap AABB–OBB SAT;
//! a clear node prunes its entire subtree, so most exact OBB–OBB checks are
//! never issued.
//!
//! The tree is *static by design*: the paper treats obstacle-tree
//! construction as an offline step that does not affect runtime cost, and
//! this crate mirrors that contract (build once per environment, then only
//! query).
//!
//! # Example
//!
//! ```
//! use moped_geometry::{Obb, OpCount, Vec3};
//! use moped_rtree::RTree;
//!
//! let obstacles = vec![
//!     Obb::axis_aligned(Vec3::new(10.0, 10.0, 10.0), Vec3::splat(2.0)),
//!     Obb::axis_aligned(Vec3::new(90.0, 90.0, 90.0), Vec3::splat(2.0)),
//! ];
//! let tree = RTree::build(&obstacles, 4);
//! let robot = Obb::axis_aligned(Vec3::new(11.0, 10.0, 10.0), Vec3::splat(1.0));
//! let mut ops = OpCount::default();
//! let candidates = tree.filter(&robot, &mut ops);
//! assert_eq!(candidates, vec![0]);
//! ```

#![deny(missing_docs)]

use moped_geometry::{sat, Aabb, Obb, OpCount, Vec3};

/// Statistics for one filter traversal, used by the evaluation figures to
/// report how many checks the first stage actually performed vs skipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Internal / leaf-group node AABB–OBB tests performed.
    pub node_checks: u64,
    /// Per-obstacle AABB–OBB tests performed at the leaves.
    pub leaf_checks: u64,
    /// Subtrees pruned without visiting their children.
    pub pruned_subtrees: u64,
    /// Obstacles that survived the first stage (need exact checks).
    pub survivors: u64,
}

impl FilterStats {
    /// Total first-stage SAT queries issued.
    pub fn total_checks(&self) -> u64 {
        self.node_checks + self.leaf_checks
    }
}

#[derive(Clone, Debug)]
enum Children {
    /// Indices into `nodes`.
    Inner(Vec<usize>),
    /// Obstacle ids.
    Leaves(Vec<usize>),
}

#[derive(Clone, Debug)]
struct Node {
    aabb: Aabb,
    children: Children,
}

/// A static R-tree over OBB obstacles, bulk-loaded with STR.
///
/// Node bounding volumes are AABBs, as the R-tree structure requires; the
/// per-obstacle AABBs at the leaf fringe are the relaxations of the stored
/// OBBs. See the crate docs for the query contract.
#[derive(Clone, Debug)]
pub struct RTree {
    nodes: Vec<Node>,
    /// Per-obstacle AABB relaxations, indexed by obstacle id.
    obstacle_aabbs: Vec<Aabb>,
    root: Option<usize>,
    fanout: usize,
    height: usize,
}

impl RTree {
    /// Bulk-loads an R-tree over `obstacles` with the given `fanout`
    /// (maximum children per node) using Sort-Tile-Recursive packing.
    ///
    /// An empty obstacle slice yields an empty tree whose
    /// [`RTree::filter`] always returns no candidates.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    pub fn build(obstacles: &[Obb], fanout: usize) -> RTree {
        assert!(fanout >= 2, "R-tree fanout must be at least 2");
        let obstacle_aabbs: Vec<Aabb> = obstacles.iter().map(Aabb::from_obb).collect();
        if obstacles.is_empty() {
            return RTree {
                nodes: Vec::new(),
                obstacle_aabbs,
                root: None,
                fanout,
                height: 0,
            };
        }

        // STR leaf packing: recursively tile the id list along x, y, z of
        // the obstacle centers so each leaf holds up to `fanout` nearby
        // obstacles.
        let ids: Vec<usize> = (0..obstacles.len()).collect();
        let centers: Vec<Vec3> = obstacle_aabbs.iter().map(Aabb::center).collect();
        let planar = obstacles.iter().all(Obb::is_planar);
        let axes: &[usize] = if planar { &[0, 1] } else { &[0, 1, 2] };
        let mut groups: Vec<Vec<usize>> = Vec::new();
        str_tile(&ids, &centers, axes, fanout, &mut groups);

        let mut nodes: Vec<Node> = Vec::new();
        let mut level: Vec<usize> = groups
            .into_iter()
            .map(|g| {
                let aabb = g
                    .iter()
                    .map(|&i| obstacle_aabbs[i])
                    .reduce(|a, b| a.union(&b))
                    .expect("STR groups are non-empty");
                nodes.push(Node {
                    aabb,
                    children: Children::Leaves(g),
                });
                nodes.len() - 1
            })
            .collect();

        // Pack upper levels: STR ordering keeps consecutive leaves spatially
        // close, so chunked packing preserves locality.
        let mut height = 1;
        while level.len() > 1 {
            let mut next = Vec::new();
            for chunk in level.chunks(fanout) {
                let aabb = chunk
                    .iter()
                    .map(|&i| nodes[i].aabb)
                    .reduce(|a, b| a.union(&b))
                    .expect("chunks are non-empty");
                nodes.push(Node {
                    aabb,
                    children: Children::Inner(chunk.to_vec()),
                });
                next.push(nodes.len() - 1);
            }
            level = next;
            height += 1;
        }

        RTree {
            root: Some(level[0]),
            nodes,
            obstacle_aabbs,
            fanout,
            height,
        }
    }

    /// Number of obstacles indexed.
    pub fn len(&self) -> usize {
        self.obstacle_aabbs.len()
    }

    /// Returns `true` if the tree indexes no obstacles.
    pub fn is_empty(&self) -> bool {
        self.obstacle_aabbs.is_empty()
    }

    /// Tree height in levels (0 for an empty tree; 1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total node count (internal + leaf-group nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Configured maximum fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The AABB relaxation stored for obstacle `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn obstacle_aabb(&self, id: usize) -> &Aabb {
        &self.obstacle_aabbs[id]
    }

    /// First-stage filter: returns the ids of obstacles whose AABB
    /// relaxation intersects the robot body `robot`, pruning whole
    /// subtrees whose group AABB is clear. Discards traversal statistics;
    /// see [`RTree::filter_with_stats`].
    pub fn filter(&self, robot: &Obb, ops: &mut OpCount) -> Vec<usize> {
        let mut stats = FilterStats::default();
        self.filter_with_stats(robot, ops, &mut stats)
    }

    /// First-stage filter with traversal statistics.
    ///
    /// Every AABB–OBB SAT issued is charged to `ops`; node/leaf check
    /// counts and pruning counts accumulate into `stats`. The result is a
    /// *superset* of the truly colliding obstacles (AABBs are
    /// conservative), and — crucially for correctness — never omits a
    /// colliding obstacle.
    pub fn filter_with_stats(
        &self,
        robot: &Obb,
        ops: &mut OpCount,
        stats: &mut FilterStats,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        self.filter_into(robot, ops, stats, &mut stack, &mut out);
        out
    }

    /// Allocation-free variant of [`RTree::filter_with_stats`]: the caller
    /// supplies the traversal stack and the output buffer (both are
    /// cleared first), so planner hot loops can reuse scratch storage.
    pub fn filter_into(
        &self,
        robot: &Obb,
        ops: &mut OpCount,
        stats: &mut FilterStats,
        stack: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        let _span = moped_obs::span(moped_obs::Stage::BroadPhase);
        out.clear();
        stack.clear();
        let Some(root) = self.root else { return };
        stack.push(root);
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni];
            stats.node_checks += 1;
            // Charge the node's AABB read (6 words 3D / 4 words 2D).
            ops.mem_words += if robot.is_planar() { 4 } else { 6 };
            if !sat::aabb_obb(&node.aabb, robot, ops) {
                stats.pruned_subtrees += 1;
                continue;
            }
            match &node.children {
                Children::Inner(kids) => stack.extend_from_slice(kids),
                Children::Leaves(obstacles) => {
                    for &oid in obstacles {
                        stats.leaf_checks += 1;
                        ops.mem_words += if robot.is_planar() { 4 } else { 6 };
                        if sat::aabb_obb(&self.obstacle_aabbs[oid], robot, ops) {
                            stats.survivors += 1;
                            out.push(oid);
                        }
                    }
                }
            }
        }
    }

    /// Box query: fills `out` (cleared first) with the ids of obstacles
    /// whose AABB relaxation overlaps `query`, inclusive, in the same
    /// depth-first order as [`RTree::filter_into`].
    ///
    /// This is the swept broad phase's one query per robot link per
    /// motion: `query` bounds the link over every pose of the motion, so
    /// the result is a superset of every per-pose filter's survivors for
    /// that link. Each node or obstacle test is an AABB–AABB overlap,
    /// charged as one comparison per interval end (4 for a query
    /// unbounded in z, the planar case; 6 otherwise) plus the box read.
    /// Node and leaf tests count in `stats`; `stats.survivors` is left to
    /// the per-pose tests that follow.
    pub fn query_aabb_into(
        &self,
        query: &Aabb,
        ops: &mut OpCount,
        stats: &mut FilterStats,
        stack: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        stack.clear();
        let Some(root) = self.root else { return };
        let words = if query.min().z.is_finite() { 6 } else { 4 };
        stack.push(root);
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni];
            stats.node_checks += 1;
            ops.mem_words += words;
            ops.cmp += words;
            if !node.aabb.intersects_aabb(query) {
                stats.pruned_subtrees += 1;
                continue;
            }
            match &node.children {
                Children::Inner(kids) => stack.extend_from_slice(kids),
                Children::Leaves(obstacles) => {
                    for &oid in obstacles {
                        stats.leaf_checks += 1;
                        ops.mem_words += words;
                        ops.cmp += words;
                        if self.obstacle_aabbs[oid].intersects_aabb(query) {
                            out.push(oid);
                        }
                    }
                }
            }
        }
    }

    /// On-chip storage footprint of the tree in 16-bit words (every node
    /// AABB is 6 words plus one child pointer word per child), used by the
    /// hardware model for SRAM sizing.
    pub fn memory_words(&self) -> u64 {
        let mut words = 0u64;
        for node in &self.nodes {
            words += 6; // AABB
            words += match &node.children {
                Children::Inner(k) => k.len() as u64,
                Children::Leaves(l) => l.len() as u64,
            };
        }
        words + self.obstacle_aabbs.len() as u64 * 6
    }

    /// Exhaustive reference filter (no hierarchy): checks the robot
    /// against every per-obstacle AABB. Used by tests to validate the
    /// superset property and by the figures to quantify pruning.
    pub fn filter_linear(&self, robot: &Obb, ops: &mut OpCount) -> Vec<usize> {
        self.obstacle_aabbs
            .iter()
            .enumerate()
            .filter(|(_, aabb)| sat::aabb_obb(aabb, robot, ops))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Recursive Sort-Tile-Recursive partition of `ids` into groups of at most
/// `cap`, slicing along `axes` in order.
fn str_tile(
    ids: &[usize],
    centers: &[Vec3],
    axes: &[usize],
    cap: usize,
    out: &mut Vec<Vec<usize>>,
) {
    if ids.len() <= cap {
        if !ids.is_empty() {
            out.push(ids.to_vec());
        }
        return;
    }
    let mut sorted = ids.to_vec();
    let axis = axes[0];
    sorted.sort_by(|&a, &b| {
        centers[a]
            .component(axis)
            .partial_cmp(&centers[b].component(axis))
            .expect("obstacle centers must be finite")
    });
    let leaves = ids.len().div_ceil(cap);
    let slabs = if axes.len() == 1 {
        leaves
    } else {
        // ceil(leaves^(1/remaining)) slabs along this axis.
        (leaves as f64).powf(1.0 / axes.len() as f64).ceil() as usize
    }
    .max(1);
    let per_slab = ids.len().div_ceil(slabs);
    for chunk in sorted.chunks(per_slab) {
        if axes.len() == 1 {
            for leaf in chunk.chunks(cap) {
                out.push(leaf.to_vec());
            }
        } else {
            str_tile(chunk, centers, &axes[1..], cap, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_obstacles(n_per_axis: usize, spacing: f64) -> Vec<Obb> {
        let mut v = Vec::new();
        for i in 0..n_per_axis {
            for j in 0..n_per_axis {
                for k in 0..n_per_axis {
                    v.push(Obb::axis_aligned(
                        Vec3::new(i as f64 * spacing, j as f64 * spacing, k as f64 * spacing),
                        Vec3::splat(1.0),
                    ));
                }
            }
        }
        v
    }

    #[test]
    fn empty_tree_filters_nothing() {
        let tree = RTree::build(&[], 4);
        let robot = Obb::axis_aligned(Vec3::ZERO, Vec3::splat(1.0));
        let mut ops = OpCount::default();
        assert!(tree.filter(&robot, &mut ops).is_empty());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn single_obstacle_hit_and_miss() {
        let tree = RTree::build(&[Obb::axis_aligned(Vec3::splat(5.0), Vec3::splat(1.0))], 4);
        let mut ops = OpCount::default();
        let near = Obb::axis_aligned(Vec3::splat(5.5), Vec3::splat(1.0));
        let far = Obb::axis_aligned(Vec3::splat(50.0), Vec3::splat(1.0));
        assert_eq!(tree.filter(&near, &mut ops), vec![0]);
        assert!(tree.filter(&far, &mut ops).is_empty());
    }

    #[test]
    fn filter_matches_linear_reference() {
        let obstacles = grid_obstacles(4, 7.0);
        let tree = RTree::build(&obstacles, 4);
        let mut ops = OpCount::default();
        for probe in [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(10.5, 10.5, 10.5),
            Vec3::new(3.0, 14.0, 7.0),
            Vec3::new(-5.0, -5.0, -5.0),
        ] {
            let robot = Obb::from_euler(probe, Vec3::splat(2.0), 0.3, 0.2, 0.1);
            let mut a = tree.filter(&robot, &mut ops);
            let mut b = tree.filter_linear(&robot, &mut ops);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn box_query_matches_linear_overlap_and_covers_filters() {
        let obstacles = grid_obstacles(4, 7.0);
        let tree = RTree::build(&obstacles, 4);
        let (mut stack, mut got) = (Vec::new(), Vec::new());
        for (lo, hi) in [
            (Vec3::splat(-1.0), Vec3::splat(1.0)),
            (Vec3::new(2.0, 5.0, -3.0), Vec3::new(12.0, 9.0, 30.0)),
            (Vec3::splat(30.0), Vec3::splat(40.0)),
            // Unbounded in z, as planar links query.
            (
                Vec3::new(6.0, 6.0, f64::NEG_INFINITY),
                Vec3::new(8.0, 8.0, f64::INFINITY),
            ),
        ] {
            let query = Aabb::new(lo, hi);
            let mut ops = OpCount::default();
            let mut stats = FilterStats::default();
            tree.query_aabb_into(&query, &mut ops, &mut stats, &mut stack, &mut got);
            let want: Vec<usize> = (0..obstacles.len())
                .filter(|&i| tree.obstacle_aabb(i).intersects_aabb(&query))
                .collect();
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, want);
            assert_eq!(stats.survivors, 0, "candidates are not survivors");
            assert_eq!(ops.sat_queries, 0);
            // Any body inside the query box filters to a subset.
            let body = Obb::from_euler(
                (lo.max(Vec3::splat(-50.0)) + hi.min(Vec3::splat(50.0))) * 0.5,
                Vec3::splat(0.5),
                0.3,
                0.2,
                0.1,
            );
            for oid in tree.filter(&body, &mut ops) {
                assert!(got.contains(&oid), "survivor {oid} missing from box query");
            }
        }
    }

    #[test]
    fn pruning_actually_skips_work() {
        let obstacles = grid_obstacles(4, 20.0); // 64 well-separated obstacles
        let tree = RTree::build(&obstacles, 4);
        let robot = Obb::axis_aligned(Vec3::splat(0.0), Vec3::splat(1.5));
        let mut ops = OpCount::default();
        let mut stats = FilterStats::default();
        let _ = tree.filter_with_stats(&robot, &mut ops, &mut stats);
        assert!(
            stats.pruned_subtrees > 0,
            "expected pruning on sparse scene"
        );
        assert!(
            stats.total_checks() < obstacles.len() as u64 * 2,
            "hierarchy should beat exhaustive checking"
        );
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let obstacles = grid_obstacles(4, 5.0); // 64 obstacles, fanout 4 → height >= 3
        let tree = RTree::build(&obstacles, 4);
        assert!(tree.height() >= 3);
        assert!(tree.node_count() > 16);
    }

    #[test]
    fn node_aabbs_contain_children() {
        let obstacles = grid_obstacles(3, 6.0);
        let tree = RTree::build(&obstacles, 4);
        for node in &tree.nodes {
            match &node.children {
                Children::Inner(kids) => {
                    for &k in kids {
                        assert!(node.aabb.contains_aabb(&tree.nodes[k].aabb));
                    }
                }
                Children::Leaves(obs) => {
                    for &o in obs {
                        assert!(node.aabb.contains_aabb(&tree.obstacle_aabbs[o]));
                    }
                }
            }
        }
    }

    #[test]
    fn every_obstacle_reachable_exactly_once() {
        let obstacles = grid_obstacles(3, 4.0);
        let tree = RTree::build(&obstacles, 5);
        let mut seen = vec![0usize; obstacles.len()];
        for node in &tree.nodes {
            if let Children::Leaves(obs) = &node.children {
                for &o in obs {
                    seen[o] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "leaf partition must cover each obstacle once"
        );
    }

    #[test]
    fn planar_obstacles_build_2d_tiling() {
        let obstacles: Vec<Obb> = (0..20)
            .map(|i| {
                Obb::planar(
                    Vec3::new((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0, 0.0),
                    2.0,
                    2.0,
                    0.1,
                )
            })
            .collect();
        let tree = RTree::build(&obstacles, 4);
        let robot = Obb::planar(Vec3::new(0.0, 0.0, 0.0), 1.0, 1.0, 0.0);
        let mut ops = OpCount::default();
        let hits = tree.filter(&robot, &mut ops);
        assert_eq!(hits, vec![0]);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn tiny_fanout_rejected() {
        let _ = RTree::build(&[], 1);
    }

    #[test]
    fn memory_words_positive_for_nonempty() {
        let tree = RTree::build(&grid_obstacles(2, 5.0), 4);
        assert!(tree.memory_words() > 0);
    }

    #[test]
    fn filter_charges_ops_and_memory() {
        let tree = RTree::build(&grid_obstacles(3, 6.0), 4);
        let robot = Obb::axis_aligned(Vec3::splat(6.0), Vec3::splat(2.0));
        let mut ops = OpCount::default();
        let _ = tree.filter(&robot, &mut ops);
        assert!(ops.sat_queries > 0);
        assert!(ops.mem_words > 0);
    }
}
