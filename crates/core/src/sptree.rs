//! Section 8: shortest-path trees and reporting actual paths.
//!
//! For every requested source vertex `v` we build a shortest-path tree over
//! the obstacle vertices.  Each vertex `w` either *attaches to the escape
//! staircase* of `v` pointing into `w`'s quadrant (when the ray from `w`
//! towards `v` reaches that staircase before any obstacle, the path runs
//! straight to the staircase and then along it to `v`), or its *parent is one
//! of the two endpoints of the first obstacle edge hit* by that ray — exactly
//! the parent rule of Section 8 / [11].  The parent pointers plus a
//! level-ancestor structure (rsp-pram) let `⌈k/log n⌉` workers report a
//! `k`-segment path in parallel chunks.

use crate::query::{quadrant_of, PathLengthOracle};
use crate::store::DistanceStore;
use rayon::prelude::*;
use rsp_geom::{Chain, Dir, Dist, ObstacleSet, Point, RectiPath, INF};
use rsp_pram::{Forest, LevelAncestor};
use std::collections::HashMap;
use std::sync::Arc;

/// How a vertex connects to its parent in a shortest-path tree.
#[derive(Clone, Debug)]
enum Connector {
    /// The tree root (the source itself) or an unreachable vertex.
    Root,
    /// Connect to the parent vertex through the given bend point (the ray's
    /// hit point on the parent's obstacle edge).
    ViaBend { parent: usize, bend: Point },
    /// Attach to the source's escape staircase at `attach`, then follow the
    /// staircase back to the source (`quadrant` selects which staircase).
    ChainAttach { attach: Point, quadrant: usize },
}

/// A single shortest-path tree rooted at one source vertex.
pub struct ShortestPathTree {
    source_index: usize,
    connectors: Vec<Connector>,
    ancestors: LevelAncestor,
}

/// Shortest-path trees for a set of source vertices.
///
/// The oracle is held behind an [`Arc`] so that one
/// [`PathLengthOracle`] build can be shared between length queries, path
/// reporting and the [`Router`](crate::router::Router) without ever being
/// reconstructed (the old by-value `from_oracle` forced callers that also
/// wanted length queries to build the oracle twice).
pub struct ShortestPathTrees {
    oracle: Arc<PathLengthOracle>,
    trees: HashMap<usize, ShortestPathTree>,
}

impl ShortestPathTrees {
    /// Build trees for the given sources (all `4n` vertices when `sources`
    /// is `None`), in parallel over sources.
    pub fn build(obstacles: &ObstacleSet, sources: Option<&[Point]>) -> Self {
        Self::from_oracle(Arc::new(PathLengthOracle::build(obstacles)), sources)
    }

    /// Build from a shared oracle.  The oracle is *not* rebuilt — the same
    /// `Arc` can keep serving length queries.
    pub fn from_oracle(oracle: Arc<PathLengthOracle>, sources: Option<&[Point]>) -> Self {
        let source_ids: Vec<usize> = match sources {
            Some(list) => list.iter().filter_map(|p| oracle.apsp().vertex_index(*p)).collect(),
            None => (0..oracle.apsp().len()).collect(),
        };
        let trees: HashMap<usize, ShortestPathTree> = build_trees(&oracle, &source_ids).into_iter().collect();
        ShortestPathTrees { oracle, trees }
    }

    /// The oracle (for length queries).
    pub fn oracle(&self) -> &PathLengthOracle {
        &self.oracle
    }

    /// A clone of the shared oracle handle.
    pub fn oracle_arc(&self) -> Arc<PathLengthOracle> {
        Arc::clone(&self.oracle)
    }

    /// Number of trees built.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Is there a tree rooted at `source`?
    pub fn has_tree(&self, source: Point) -> bool {
        self.oracle.apsp().vertex_index(source).is_some_and(|s| self.trees.contains_key(&s))
    }

    /// Build (in parallel) any missing trees for the given source vertices;
    /// non-vertex points are ignored.  Returns the number of trees actually
    /// built, so callers can account construction work.
    pub fn ensure_sources(&mut self, sources: &[Point]) -> usize {
        let mut missing: Vec<usize> = sources
            .iter()
            .filter_map(|p| self.oracle.apsp().vertex_index(*p))
            .filter(|s| !self.trees.contains_key(s))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        let built = build_trees(&self.oracle, &missing);
        let count = built.len();
        self.trees.extend(built);
        count
    }

    /// Report an actual shortest path between two obstacle vertices (a tree
    /// must have been built for `source`).
    pub fn path_between(&self, source: Point, target: Point) -> Option<RectiPath> {
        let apsp = self.oracle.apsp();
        let s = apsp.vertex_index(source)?;
        let t = apsp.vertex_index(target)?;
        let tree = self.trees.get(&s)?;
        Some(self.extract_path(tree, t))
    }

    /// The number of tree edges between `target` and the root of `source`'s
    /// tree (an upper bound on the number of path bends / the paper's `k` up
    /// to a constant), answered in O(1) from the stored depths.
    pub fn hop_count(&self, source: Point, target: Point) -> Option<usize> {
        let apsp = self.oracle.apsp();
        let s = apsp.vertex_index(source)?;
        let t = apsp.vertex_index(target)?;
        Some(self.trees.get(&s)?.ancestors.depth(t))
    }

    /// Report a path in `⌈hops/chunk⌉` independently extracted pieces (the
    /// parallel reporting scheme of Section 8, with `chunk ≈ log n`).  Pieces
    /// are returned in order from the target towards the source and together
    /// cover the whole path.
    pub fn path_chunks(&self, source: Point, target: Point, chunk: usize) -> Option<Vec<RectiPath>> {
        let apsp = self.oracle.apsp();
        let s = apsp.vertex_index(source)?;
        let t = apsp.vertex_index(target)?;
        let tree = self.trees.get(&s)?;
        let depth = tree.ancestors.depth(t);
        let chunk = chunk.max(1);
        let starts: Vec<usize> = (0..=depth.saturating_sub(1) / chunk).map(|i| i * chunk).collect();
        let pieces: Vec<RectiPath> = starts
            .par_iter()
            .map(|&up| {
                let from = tree.ancestors.ancestor_at(t, up);
                let steps = chunk.min(depth - up);
                self.extract_partial(tree, from, steps)
            })
            .collect();
        Some(pieces)
    }

    /// Walk from tree node `t` to the root, emitting the geometric path from
    /// the *source* to `t`.
    fn extract_path(&self, tree: &ShortestPathTree, t: usize) -> RectiPath {
        let piece = self.extract_partial(tree, t, usize::MAX);
        piece.reversed()
    }

    /// Geometric sub-path starting at tree node `from` and following at most
    /// `steps` tree edges towards the root (target-to-source orientation).
    fn extract_partial(&self, tree: &ShortestPathTree, from: usize, steps: usize) -> RectiPath {
        let vertices = self.oracle.apsp().vertices();
        let mut pts: Vec<Point> = vec![vertices[from]];
        let mut cur = from;
        let mut remaining = steps;
        while remaining > 0 {
            remaining -= 1;
            match &tree.connectors[cur] {
                Connector::Root => break,
                Connector::ViaBend { parent, bend } => {
                    pts.push(*bend);
                    pts.push(vertices[*parent]);
                    cur = *parent;
                }
                Connector::ChainAttach { attach, quadrant } => {
                    pts.push(*attach);
                    let chain = self.oracle.escape_chain(tree.source_index, *quadrant);
                    let attach_pos = chain.arc_position(*attach).unwrap_or(0);
                    let mut prefix: Vec<Point> = chain
                        .points()
                        .iter()
                        .copied()
                        .take_while(|&p| chain.arc_position(p).unwrap_or(Dist::MAX) <= attach_pos)
                        .collect();
                    prefix.reverse();
                    pts.extend(prefix);
                    break;
                }
            }
        }
        RectiPath::new(pts)
    }
}

/// Build the trees for `sources` (distinct vertex ids), in parallel.  Each
/// tree reads its distances from its source's own row: a matrix row on the
/// dense store, or a row pinned on the implicit store.  The metric is
/// symmetric, so that row holds the very values `apsp.distance` would
/// answer, and each source costs at most one sweep — run outside the cache
/// lock and in parallel by [`ImplicitStore::pin_rows`](crate::store::ImplicitStore::pin_rows).
fn build_trees(oracle: &PathLengthOracle, sources: &[usize]) -> Vec<(usize, ShortestPathTree)> {
    match oracle.apsp().store() {
        DistanceStore::Dense(matrix) => {
            sources.par_iter().map(|&s| (s, build_tree(oracle, s, matrix.row(s)))).collect()
        }
        DistanceStore::Implicit(store) => {
            let pins = store.pin_rows(sources);
            sources
                .par_iter()
                .map(|&s| (s, build_tree(oracle, s, pins.row(s).expect("source row is pinned"))))
                .collect()
        }
    }
}

/// One tree from `source_index`, whose distances to every vertex are `row`.
fn build_tree(oracle: &PathLengthOracle, source_index: usize, row: &[Dist]) -> ShortestPathTree {
    let apsp = oracle.apsp();
    let vertices = apsp.vertices();
    let source = vertices[source_index];
    let n = vertices.len();
    let mut connectors: Vec<Connector> = Vec::with_capacity(n);
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for (w_idx, &w) in vertices.iter().enumerate() {
        if w_idx == source_index || w == source {
            connectors.push(Connector::Root);
            continue;
        }
        let total = row[w_idx];
        if total >= INF {
            connectors.push(Connector::Root);
            continue;
        }
        let connector = choose_parent(oracle, source_index, row, w, total).unwrap_or_else(|| {
            // Safety net: any vertex u with a clear one-bend connection that
            // certifies the distance.
            for (u_idx, &u) in vertices.iter().enumerate() {
                if u_idx != w_idx && row[u_idx] + u.l1(w) == total {
                    if let Some(bend) = oracle.l_connection(u, w) {
                        return Connector::ViaBend { parent: u_idx, bend };
                    }
                }
            }
            Connector::Root
        });
        match &connector {
            Connector::ViaBend { parent: p, .. } => parent[w_idx] = Some(*p),
            Connector::ChainAttach { .. } => parent[w_idx] = Some(source_index),
            Connector::Root => {}
        }
        connectors.push(connector);
    }
    let forest = Forest::new(parent);
    let ancestors = LevelAncestor::build(&forest);
    ShortestPathTree { source_index, connectors, ancestors }
}

/// The Section 8 parent rule: try the horizontal and the vertical ray from
/// `w` towards the source; accept a chain attachment or a blocking-edge
/// endpoint whenever it certifies the known distance `total`.  `row` holds
/// the source's distances to every vertex.
fn choose_parent(
    oracle: &PathLengthOracle,
    source_index: usize,
    row: &[Dist],
    w: Point,
    total: Dist,
) -> Option<Connector> {
    let apsp = oracle.apsp();
    let source = apsp.vertices()[source_index];
    let quadrant = quadrant_of(source, w);
    let chain: &Chain = oracle.escape_chain(source_index, quadrant);
    let index = oracle.shoot_index();
    let dirs =
        [if source.x <= w.x { Dir::West } else { Dir::East }, if source.y <= w.y { Dir::South } else { Dir::North }];
    for dir in dirs {
        let hit = index.shoot(w, dir);
        let obstacle_distance = hit.map(|h| h.distance_from(w));
        let chain_crossing: Option<(Point, Dist)> = match dir {
            Dir::West | Dir::East => chain.intersect_horizontal(w.y).and_then(|(lo, hi)| {
                let x = if dir == Dir::West {
                    if hi <= w.x {
                        Some(hi)
                    } else if lo <= w.x {
                        Some(w.x)
                    } else {
                        None
                    }
                } else if lo >= w.x {
                    Some(lo)
                } else if hi >= w.x {
                    Some(w.x)
                } else {
                    None
                };
                x.map(|x| (Point::new(x, w.y), (x - w.x).abs()))
            }),
            Dir::North | Dir::South => chain.intersect_vertical(w.x).and_then(|(lo, hi)| {
                let y = if dir == Dir::South {
                    if hi <= w.y {
                        Some(hi)
                    } else if lo <= w.y {
                        Some(w.y)
                    } else {
                        None
                    }
                } else if lo >= w.y {
                    Some(lo)
                } else if hi >= w.y {
                    Some(w.y)
                } else {
                    None
                };
                y.map(|y| (Point::new(w.x, y), (y - w.y).abs()))
            }),
        };
        if let Some((attach, cd)) = chain_crossing {
            if obstacle_distance.is_none_or(|od| cd <= od) && w.l1(attach) + attach.l1(source) == total {
                return Some(Connector::ChainAttach { attach, quadrant });
            }
        }
        if let Some(h) = hit {
            let r = oracle.obstacles().rect(h.rect);
            let (v1, v2) = match dir {
                Dir::West => (r.lr(), r.ur()),
                Dir::East => (r.ll(), r.ul()),
                Dir::South => (r.ul(), r.ur()),
                Dir::North => (r.ll(), r.lr()),
            };
            for v in [v1, v2] {
                if let Some(vi) = apsp.vertex_index(v) {
                    if row[vi] + v.l1(w) == total {
                        return Some(Connector::ViaBend { parent: vi, bend: h.point });
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::hanan::ground_truth_distance;
    use rsp_workload::uniform_disjoint;

    #[test]
    fn reported_paths_are_valid_and_tight() {
        for seed in 0..3 {
            let w = uniform_disjoint(7, seed);
            let verts = w.obstacles.vertices();
            let sources = vec![verts[0], verts[5], verts[verts.len() - 1]];
            let trees = ShortestPathTrees::build(&w.obstacles, Some(&sources));
            assert_eq!(trees.num_trees(), sources.len());
            for &s in &sources {
                for &t in verts.iter().step_by(3) {
                    let expect = ground_truth_distance(&w.obstacles, s, t);
                    let path = trees.path_between(s, t).unwrap();
                    assert!(
                        path.certifies(&w.obstacles, s, t, expect),
                        "seed {seed}: bad path {:?} -> {:?}: {:?} (len {} vs {})",
                        s,
                        t,
                        path.points(),
                        path.length(),
                        expect
                    );
                }
            }
        }
    }

    #[test]
    fn all_source_trees_for_a_small_instance() {
        let w = uniform_disjoint(4, 17);
        let verts = w.obstacles.vertices();
        let trees = ShortestPathTrees::build(&w.obstacles, None);
        assert_eq!(trees.num_trees(), verts.len());
        for &s in &verts {
            for &t in &verts {
                let expect = ground_truth_distance(&w.obstacles, s, t);
                let path = trees.path_between(s, t).unwrap();
                assert!(path.certifies(&w.obstacles, s, t, expect));
            }
        }
    }

    #[test]
    fn chunked_reporting_covers_the_whole_path() {
        let w = uniform_disjoint(10, 9);
        let verts = w.obstacles.vertices();
        let s = verts[0];
        let trees = ShortestPathTrees::build(&w.obstacles, Some(&[s]));
        for &t in verts.iter().step_by(5) {
            let full = trees.path_between(s, t).unwrap();
            let chunks = trees.path_chunks(s, t, 2).unwrap();
            let total: Dist = chunks.iter().map(|c| c.length()).sum();
            assert_eq!(total, full.length(), "{:?} -> {:?}", s, t);
            assert!(trees.hop_count(s, t).is_some());
        }
    }
}
