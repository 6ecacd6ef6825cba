//! Section 6.1: the recursion tree `T`.
//!
//! The paper's Section 6 keeps the whole divide-and-conquer recursion tree
//! around: every node stores its obstacle subset, its region, its separator
//! and the per-node path-length matrices, and the `V_R`-to-`V_R` computation
//! pipelines "flows" through this tree.  Our `V_R`-to-`V_R` construction uses
//! the source-parallel schedule (see `apsp`, DESIGN.md §3, the §6.3 flows row), so the
//! tree is not needed for correctness; this module materialises it anyway for
//! inspection, statistics and the figure gallery (F3): node sizes, separator
//! chains, balance factors and depths.

use crate::separator::find_separator;
use rsp_geom::rayshoot::ShootIndex;
use rsp_geom::{Chain, ObstacleSet, Rect, StairRegion};

/// One node of the recursion tree.
pub struct RecursionNode {
    /// Obstacle ids (into the root obstacle set) handled by this node.
    pub obstacle_ids: Vec<usize>,
    /// The node's region.
    pub region: StairRegion,
    /// The separator chain used to split this node (`None` for leaves).
    pub separator: Option<Chain>,
    /// Children indices in [`RecursionTree::nodes`].
    pub children: Vec<usize>,
    /// Depth of the node (root = 0).
    pub depth: usize,
}

/// The materialised recursion tree of Section 6.1.
pub struct RecursionTree {
    /// All nodes, root first, children after their parent.
    pub nodes: Vec<RecursionNode>,
}

impl RecursionTree {
    /// Build the tree for an obstacle set inside its expanded bounding box.
    pub fn build(obstacles: &ObstacleSet) -> Self {
        let bbox = obstacles.bbox().unwrap_or(Rect::new(0, 0, 1, 1)).expand(4);
        let region = StairRegion::from_rect(bbox);
        let mut tree = RecursionTree { nodes: Vec::new() };
        let all_ids: Vec<usize> = (0..obstacles.len()).collect();
        tree.grow(obstacles, all_ids, region, 0);
        tree
    }

    fn grow(&mut self, obstacles: &ObstacleSet, ids: Vec<usize>, region: StairRegion, depth: usize) -> usize {
        let my_index = self.nodes.len();
        self.nodes.push(RecursionNode {
            obstacle_ids: ids.clone(),
            region: region.clone(),
            separator: None,
            children: Vec::new(),
            depth,
        });
        if ids.len() < 2 {
            return my_index;
        }
        let subset = obstacles.subset(&ids);
        let index = ShootIndex::build(&subset);
        let sep = match find_separator(&subset, &index, &region) {
            Some(s) => s,
            None => return my_index,
        };
        let (piece_a, piece_b) = match region.try_split_by_chain(&sep.chain) {
            Some(pieces) => pieces,
            None => return my_index,
        };
        let above_ids: Vec<usize> = sep.above.iter().map(|&i| ids[i]).collect();
        let below_ids: Vec<usize> = sep.below.iter().map(|&i| ids[i]).collect();
        let above_obs = obstacles.subset(&above_ids);
        let (region_above, region_below) = {
            let a_count = above_obs.iter().filter(|r| piece_a.contains_rect(r)).count();
            let b_count = above_obs.iter().filter(|r| piece_b.contains_rect(r)).count();
            if a_count >= b_count {
                (piece_a, piece_b)
            } else {
                (piece_b, piece_a)
            }
        };
        self.nodes[my_index].separator = Some(sep.chain.clone());
        let left = self.grow(obstacles, above_ids, region_above, depth + 1);
        let right = self.grow(obstacles, below_ids, region_below, depth + 1);
        self.nodes[my_index].children = vec![left, right];
        my_index
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Height of the tree.
    pub fn height(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Worst balance factor over internal nodes: `max_child / node_size`.
    /// Theorem 2 guarantees at most `7/8` for the canonical separator.
    pub fn worst_balance(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| !n.children.is_empty())
            .map(|n| {
                let largest = n.children.iter().map(|&c| self.nodes[c].obstacle_ids.len()).max().unwrap_or(0);
                largest as f64 / n.obstacle_ids.len() as f64
            })
            .fold(0.0, f64::max)
    }

    /// A compact textual summary (used by the figure gallery, F3).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "{:indent$}node {i}: |R|={}, |Q|={} vertices, sep={} segments, depth {}\n",
                "",
                node.obstacle_ids.len(),
                node.region.num_vertices(),
                node.separator.as_ref().map_or(0, |c| c.num_segments()),
                node.depth,
                indent = 2 * node.depth
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_workload::uniform_disjoint;

    #[test]
    fn tree_covers_all_obstacles_and_is_balanced() {
        let w = uniform_disjoint(40, 13);
        let tree = RecursionTree::build(&w.obstacles);
        assert!(!tree.is_empty());
        assert_eq!(tree.nodes[0].obstacle_ids.len(), 40);
        // every leaf holds at least one obstacle and leaves partition the set
        let leaf_total: usize = tree.nodes.iter().filter(|n| n.children.is_empty()).map(|n| n.obstacle_ids.len()).sum();
        assert_eq!(leaf_total, 40);
        // balance no worse than Theorem 2's bound (with a little slack for
        // the clipped-region fallback separators)
        assert!(tree.worst_balance() <= 0.95, "balance {}", tree.worst_balance());
        assert!(tree.height() >= 3);
        assert!(tree.summary().contains("node 0"));
    }

    #[test]
    fn tiny_trees() {
        let w = uniform_disjoint(1, 1);
        let tree = RecursionTree::build(&w.obstacles);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 0);
    }
}
