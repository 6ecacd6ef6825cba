//! Section 6: the all-pairs vertex-to-vertex (`V_R`-to-`V_R`) length matrix
//! and the vertex-to-boundary structure.
//!
//! The paper builds these in `O(log^2 n)` time with `O(n^2)` processors by
//! pipelining `O(n)` computational "flows" through the recursion tree
//! (Section 6.3).  On a multicore the same `O(n^2)` work bound is obtained by
//! fanning the `4n` single-source computations of Section 9 out over the
//! rayon pool: one `O(n log n)` sweep skeleton per scene, then per source
//! two escape traces and one linear relaxation pass per case view (see
//! [`crate::seq`]).  By Brent's theorem the running time is
//! `O(n^2 log n / p + n)`, which for any realistic `p << n` is
//! indistinguishable from the paper's schedule.  The substitution is
//! documented in DESIGN.md §3 (the §6.3 flows row) and evaluated by
//! experiment E4.

use crate::instance::Instance;
use crate::seq::SingleSourceEngine;
use crate::store::DistanceStore;
use rayon::prelude::*;
use rsp_geom::{Dist, ObstacleSet, Point, INF};
use rsp_monge::MinPlusMatrix;
use std::collections::HashMap;

/// The `V_R`-to-`V_R` path-length structure plus the point-to-index mapping.
/// Distances live behind a pluggable [`DistanceStore`]: the dense matrix the
/// paper materialises, or the implicit byte-budgeted row store for scenes
/// where `O(n^2)` memory is the wall.  Both backends answer bitwise
/// identically (see [`crate::store`]).
pub struct VertexApsp {
    vertices: Vec<Point>,
    index_of: HashMap<Point, usize>,
    store: DistanceStore,
}

impl VertexApsp {
    /// Build the dense matrix, fanning the `4n` sources out over the current
    /// rayon pool (on a one-worker pool this is the Section 9 sequential
    /// construction).
    pub fn build(obstacles: &ObstacleSet) -> Self {
        let engine = SingleSourceEngine::new(obstacles);
        let vertices = engine.vertices().to_vec();
        let rows: Vec<Vec<Dist>> = vertices.par_iter().map(|&v| engine.distances_from(v)).collect();
        Self::from_rows(vertices, rows)
    }

    /// Build an *implicit* structure: no matrix is materialised; distance
    /// rows are generated on demand by the same single-source engine the
    /// dense builders fan out over, and cached under `budget_bytes`.
    pub fn build_implicit(obstacles: &ObstacleSet, budget_bytes: usize) -> Self {
        let store = DistanceStore::implicit_sweep(obstacles, budget_bytes);
        Self::from_store(obstacles.vertices(), store)
    }

    /// Implicit structure over the Hanan-grid Dijkstra row generator (the
    /// baseline comparator's counterpart of [`VertexApsp::build_implicit`]).
    pub fn build_implicit_hanan(obstacles: &ObstacleSet, budget_bytes: usize) -> Self {
        let store = DistanceStore::implicit_hanan(obstacles, budget_bytes);
        Self::from_store(obstacles.vertices(), store)
    }

    /// Wrap an externally computed `V_R`-to-`V_R` matrix (rows/columns in
    /// `vertices` order).  Used by comparator engines (e.g. the Hanan-grid
    /// baseline of the `Router`) to serve queries through the same oracle.
    pub fn from_matrix(vertices: Vec<Point>, matrix: MinPlusMatrix) -> Self {
        assert_eq!(matrix.rows(), vertices.len(), "matrix rows must match the vertex count");
        assert_eq!(matrix.cols(), vertices.len(), "matrix cols must match the vertex count");
        Self::from_store(vertices, DistanceStore::dense(matrix))
    }

    /// Wrap any [`DistanceStore`] whose row/column space is `vertices`.
    pub fn from_store(vertices: Vec<Point>, store: DistanceStore) -> Self {
        assert_eq!(store.dim(), vertices.len(), "store dimension must match the vertex count");
        let mut index_of = HashMap::with_capacity(vertices.len());
        for (i, &p) in vertices.iter().enumerate() {
            index_of.entry(p).or_insert(i);
        }
        VertexApsp { vertices, index_of, store }
    }

    fn from_rows(vertices: Vec<Point>, rows: Vec<Vec<Dist>>) -> Self {
        let matrix = MinPlusMatrix::from_rows(rows);
        Self::from_store(vertices, DistanceStore::dense(matrix))
    }

    /// Convenience constructor from an [`Instance`].
    pub fn build_for(instance: &Instance) -> Self {
        Self::build(instance.obstacles())
    }

    /// The obstacle vertices, in matrix order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices (`4n`).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the obstacle set was empty (no vertices).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Length query between two vertices given by index: `O(1)` for the
    /// dense store and for implicit-resident rows; one single-source sweep
    /// on an implicit row miss.
    pub fn distance(&self, i: usize, j: usize) -> Dist {
        self.store.at(i, j)
    }

    /// Length query between two obstacle vertices given as points.
    /// Returns `INF` if either point is not an obstacle vertex.
    pub fn distance_between(&self, a: Point, b: Point) -> Dist {
        match (self.index_of.get(&a), self.index_of.get(&b)) {
            (Some(&i), Some(&j)) => self.store.at(i, j),
            _ => INF,
        }
    }

    /// Index of an obstacle vertex.
    pub fn vertex_index(&self, p: Point) -> Option<usize> {
        self.index_of.get(&p).copied()
    }

    /// The underlying dense matrix, when this structure has one (`None` for
    /// the implicit store, which never materialises it).
    pub fn matrix(&self) -> Option<&MinPlusMatrix> {
        self.store.as_dense()
    }

    /// The distance storage backend.
    pub fn store(&self) -> &DistanceStore {
        &self.store
    }

    /// Memory accounting snapshot of the distance store.
    pub fn store_stats(&self) -> crate::store::StoreStats {
        self.store.stats()
    }
}

/// The `B(P)`-to-`V_R` structure of Section 6.2: path lengths from a set of
/// boundary points of the container to every obstacle vertex.  (The paper
/// derives it top-down from the recursion tree with Lemma 15; here it is a
/// second fan-out of the same single-source engine, one source per boundary
/// point, preserving the `O(n^2 log n)`-work shape of the claim.)
pub struct BoundaryToVertex {
    boundary_points: Vec<Point>,
    vertices: Vec<Point>,
    matrix: MinPlusMatrix,
}

impl BoundaryToVertex {
    /// Build the boundary-to-vertex length structure by fanning the
    /// single-source engine out over `boundary_points` (Section 6.3).
    pub fn build(obstacles: &ObstacleSet, boundary_points: &[Point]) -> Self {
        let engine = SingleSourceEngine::new(obstacles);
        let vertices = engine.vertices().to_vec();
        let rows: Vec<Vec<Dist>> = boundary_points.par_iter().map(|&b| engine.distances_from(b)).collect();
        BoundaryToVertex { boundary_points: boundary_points.to_vec(), vertices, matrix: MinPlusMatrix::from_rows(rows) }
    }

    /// The boundary points (row index space).
    pub fn boundary_points(&self) -> &[Point] {
        &self.boundary_points
    }

    /// The obstacle vertices (column index space).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Length of a shortest path from boundary point `i` to obstacle vertex
    /// `j`.
    pub fn distance(&self, i: usize, j: usize) -> Dist {
        self.matrix.get(i, j)
    }

    /// The full boundary-to-vertex length matrix.
    pub fn matrix(&self) -> &MinPlusMatrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::hanan::ground_truth_matrix;
    use rsp_geom::Rect;

    fn obstacles() -> ObstacleSet {
        ObstacleSet::new(vec![
            Rect::new(0, 0, 4, 3),
            Rect::new(6, 2, 9, 8),
            Rect::new(1, 6, 4, 9),
            Rect::new(11, 0, 13, 4),
        ])
    }

    #[test]
    fn parallel_matches_sequential_and_truth() {
        let obs = obstacles();
        let par = VertexApsp::build(&obs);
        let seq = rsp_pram::pool::run_on_pool(1, || VertexApsp::build(&obs));
        assert_eq!(par.matrix().expect("dense build"), seq.matrix().expect("dense build"));
        let verts = obs.vertices();
        let truth = ground_truth_matrix(&obs, &verts);
        for i in 0..verts.len() {
            for j in 0..verts.len() {
                assert_eq!(par.distance(i, j), truth[i][j], "{:?} -> {:?}", verts[i], verts[j]);
            }
        }
    }

    #[test]
    fn implicit_store_is_bitwise_equal_to_dense() {
        let obs = obstacles();
        let dense = VertexApsp::build(&obs);
        // A deliberately tiny budget (two rows) exercises eviction churn.
        let row_bytes = dense.len() * std::mem::size_of::<Dist>();
        let implicit = VertexApsp::build_implicit(&obs, 2 * row_bytes);
        assert!(implicit.matrix().is_none(), "implicit store never materialises the matrix");
        assert_eq!(implicit.len(), dense.len());
        for i in 0..dense.len() {
            for j in 0..dense.len() {
                assert_eq!(implicit.distance(i, j), dense.distance(i, j), "({i},{j})");
            }
        }
        let stats = implicit.store_stats();
        assert!(stats.resident_bytes <= 2 * row_bytes);
        assert!(stats.resident_bytes < stats.dense_bytes);
        // Point-based lookups route through the same store.
        let a = Point::new(4, 3);
        let b = Point::new(6, 2);
        assert_eq!(implicit.distance_between(a, b), dense.distance_between(a, b));
    }

    #[test]
    fn point_based_lookup() {
        let obs = obstacles();
        let apsp = VertexApsp::build(&obs);
        let a = Point::new(4, 3); // UR of obstacle 0
        let b = Point::new(6, 2); // LL of obstacle 1
        assert_eq!(apsp.distance_between(a, b), 3);
        assert_eq!(apsp.distance_between(a, a), 0);
        assert_eq!(apsp.distance_between(a, Point::new(1000, 1000)), INF);
        assert!(apsp.vertex_index(a).is_some());
        assert_eq!(apsp.len(), 16);
    }

    #[test]
    fn boundary_to_vertex_structure() {
        let obs = obstacles();
        let boundary = vec![Point::new(-2, -2), Point::new(15, 10), Point::new(-2, 10)];
        let b2v = BoundaryToVertex::build(&obs, &boundary);
        assert_eq!(b2v.boundary_points().len(), 3);
        assert_eq!(b2v.vertices().len(), 16);
        for (i, &b) in boundary.iter().enumerate() {
            for (j, &v) in b2v.vertices().iter().enumerate() {
                let expect = rsp_geom::hanan::ground_truth_distance(&obs, b, v);
                assert_eq!(b2v.distance(i, j), expect, "{:?} -> {:?}", b, v);
            }
        }
    }
}
