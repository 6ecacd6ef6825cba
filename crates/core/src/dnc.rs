//! Section 5: divide-and-conquer construction of the boundary path-length
//! matrix `D_Q`.
//!
//! The recursion works on pairs *(obstacle subset, rectilinearly convex
//! region)*.  A node computes the matrix of **plane** shortest-path lengths
//! avoiding exactly its obstacles, between the points of a boundary
//! discretisation of its region (the Containment Lemma 10 is what makes
//! "plane distance" and "distance inside the region" coincide, and what makes
//! the merge compositional).
//!
//! * **Divide** — find a staircase separator (Theorem 2) for the node's
//!   obstacles, clip it to the region, and split the region into the two
//!   halves on either side of the chain (Lemma 9 guarantees both halves have
//!   clear boundaries).
//! * **Conquer** — any shortest path between points on opposite sides of the
//!   chain can be assumed to meet the chain in a single connected component
//!   (Single Intersection Lemma 11), and its crossing can be normalised to a
//!   discretisation `Middle` of the chain.  Cross distances are therefore one
//!   `(min,+)` product `M_left * M_right` (Theorem 3); by Lemma 1 these
//!   factors are Monge, so the product costs `O(|left| · |Middle|)` work
//!   (Lemmas 3–5) instead of the naive cubic bound.  The implementation
//!   checks the Monge property of the factors at run time and falls back to
//!   the general product if the check fails, so correctness never depends on
//!   the Monge argument (statistics record how often each path is taken —
//!   the ablation of experiment E3).
//! * **Discretisation** — the children's matrices are defined on their own
//!   boundary discretisations; the points the parent needs (its own boundary
//!   points and `Middle`) are attached with the Discretisation Lemma 7: a
//!   boundary point between two adjacent discretisation points either routes
//!   through one of them (walking along the clear boundary), or is connected
//!   "trivially" by a clear L-shaped staircase.
//!
//! The deviations from the paper's bookkeeping (coordinate-grid `B'(Q)`
//! instead of the visibility-based `B(Q)`, clipped regions instead of
//! envelopes) are documented in DESIGN.md §3/§4.

use crate::separator::find_separator;
use rsp_geom::bq::boundary_arc_position;
use rsp_geom::hanan::HananGrid;
use rsp_geom::rayshoot::ShootIndex;
use rsp_geom::{Chain, Coord, Dist, ObstacleSet, Point, Rect, StairRegion, INF};
use rsp_monge::{is_monge, min_plus_parallel, MinPlusMatrix, SubmatrixView};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tuning knobs for the divide-and-conquer.
///
/// The recursion always bottoms out at one obstacle (the paper's leaf) and
/// always recurses with `rayon::join` (the PRAM schedule); its width comes
/// from the pool it runs on, and a one-worker pool runs it sequentially.
#[derive(Clone, Debug)]
pub struct DncOptions {
    /// Use the Monge (SMAWK) product when the factors pass the Monge check.
    pub use_monge: bool,
}

impl Default for DncOptions {
    fn default() -> Self {
        DncOptions { use_monge: true }
    }
}

/// Counters describing one construction run (used by the E3 ablation).
#[derive(Clone, Debug, Default)]
pub struct DncStats {
    /// Recursion-tree nodes visited.
    pub nodes: usize,
    /// Leaves of the recursion (regions solved directly).
    pub leaves: usize,
    /// Leaves that fell back to the Hanan-grid solver.
    pub hanan_fallback_leaves: usize,
    /// Conquer steps performed as Monge (min,+) products.
    pub monge_products: usize,
    /// Conquer steps that needed the general (min,+) product.
    pub general_products: usize,
    /// Maximum recursion depth reached.
    pub max_depth: usize,
    /// Largest boundary discretisation `|B(Q)|` seen at any node.
    pub largest_boundary: usize,
}

/// The boundary path-length matrix `D_Q` of Section 5.
pub struct BoundaryMatrix {
    /// The boundary discretisation, in counterclockwise order.
    pub points: Vec<Point>,
    /// The region `Q` whose boundary the points live on.
    pub region: StairRegion,
    /// `dist[(i, j)]` = length of a shortest obstacle-avoiding path between
    /// `points[i]` and `points[j]`.
    pub dist: MinPlusMatrix,
    /// Construction statistics.
    pub stats: DncStats,
}

impl BoundaryMatrix {
    /// Distance between two discretisation points given as geometry.
    pub fn distance_between(&self, a: Point, b: Point) -> Option<Dist> {
        let i = self.points.iter().position(|&p| p == a)?;
        let j = self.points.iter().position(|&p| p == b)?;
        Some(self.dist.get(i, j))
    }
}

struct Counters {
    monge: AtomicUsize,
    general: AtomicUsize,
    nodes: AtomicUsize,
    leaves: AtomicUsize,
    hanan: AtomicUsize,
    max_depth: AtomicUsize,
    largest_boundary: AtomicUsize,
}

impl Counters {
    fn new() -> Self {
        Counters {
            monge: AtomicUsize::new(0),
            general: AtomicUsize::new(0),
            nodes: AtomicUsize::new(0),
            leaves: AtomicUsize::new(0),
            hanan: AtomicUsize::new(0),
            max_depth: AtomicUsize::new(0),
            largest_boundary: AtomicUsize::new(0),
        }
    }
    fn max_update(cell: &AtomicUsize, value: usize) {
        cell.fetch_max(value, Ordering::Relaxed);
    }
}

/// One recursion node's result: its boundary discretisation (counterclockwise)
/// and the pairwise distance matrix.
struct NodeResult {
    region: StairRegion,
    points: Vec<Point>,
    index: HashMap<Point, usize>,
    dist: MinPlusMatrix,
}

impl NodeResult {
    fn build(region: StairRegion, points: Vec<Point>, dist: MinPlusMatrix) -> Self {
        let mut index = HashMap::with_capacity(points.len());
        for (i, &p) in points.iter().enumerate() {
            index.entry(p).or_insert(i);
        }
        NodeResult { region, points, index, dist }
    }
}

/// Build `D_Q` for the given obstacles inside the given region.  The region
/// must contain every obstacle.  Returns `None` only for degenerate inputs
/// (region with fewer than 4 vertices cannot occur by construction).
pub fn build_boundary_matrix(obstacles: &ObstacleSet, region: &StairRegion, opts: &DncOptions) -> BoundaryMatrix {
    let counters = Counters::new();
    let node = solve(obstacles.clone(), region.clone(), opts, 0, &counters);
    BoundaryMatrix {
        points: node.points,
        region: node.region,
        dist: node.dist,
        stats: DncStats {
            nodes: counters.nodes.load(Ordering::Relaxed),
            leaves: counters.leaves.load(Ordering::Relaxed),
            hanan_fallback_leaves: counters.hanan.load(Ordering::Relaxed),
            monge_products: counters.monge.load(Ordering::Relaxed),
            general_products: counters.general.load(Ordering::Relaxed),
            max_depth: counters.max_depth.load(Ordering::Relaxed),
            largest_boundary: counters.largest_boundary.load(Ordering::Relaxed),
        },
    }
}

/// Convenience: build `D_Q` for an obstacle set inside its expanded bounding
/// box (the `Q = Env(R)`-like case of Section 5).
pub fn build_boundary_matrix_bbox(obstacles: &ObstacleSet, margin: Coord, opts: &DncOptions) -> BoundaryMatrix {
    let bbox = obstacles.bbox().unwrap_or(Rect::new(0, 0, 1, 1)).expand(margin.max(1));
    build_boundary_matrix(obstacles, &StairRegion::from_rect(bbox), opts)
}

fn boundary_discretisation(region: &StairRegion, obstacles: &ObstacleSet) -> Vec<Point> {
    let mut xs = obstacles.xs();
    let mut ys = obstacles.ys();
    xs.extend(region.vertices().iter().map(|p| p.x));
    ys.extend(region.vertices().iter().map(|p| p.y));
    xs.sort_unstable();
    xs.dedup();
    ys.sort_unstable();
    ys.dedup();
    region.boundary_grid_points(&xs, &ys)
}

fn solve(
    obstacles: ObstacleSet,
    region: StairRegion,
    opts: &DncOptions,
    depth: usize,
    counters: &Counters,
) -> NodeResult {
    counters.nodes.fetch_add(1, Ordering::Relaxed);
    Counters::max_update(&counters.max_depth, depth);
    let points = boundary_discretisation(&region, &obstacles);
    Counters::max_update(&counters.largest_boundary, points.len());
    if obstacles.len() <= 1 {
        counters.leaves.fetch_add(1, Ordering::Relaxed);
        let dist = leaf_matrix(&obstacles, &points);
        return NodeResult::build(region, points, dist);
    }
    let index = ShootIndex::build(&obstacles);
    let sep = match find_separator(&obstacles, &index, &region) {
        Some(s) => s,
        None => {
            // Extremely rare safety net (e.g. heavily clipped regions where
            // no candidate pivot yields a two-sided split): solve the node
            // exactly with a Hanan-grid computation.
            counters.leaves.fetch_add(1, Ordering::Relaxed);
            counters.hanan.fetch_add(1, Ordering::Relaxed);
            let dist = hanan_matrix(&obstacles, &points);
            return NodeResult::build(region, points, dist);
        }
    };
    let (piece_a, piece_b) = match region.try_split_by_chain(&sep.chain) {
        Some(pieces) => pieces,
        None => {
            counters.leaves.fetch_add(1, Ordering::Relaxed);
            counters.hanan.fetch_add(1, Ordering::Relaxed);
            let dist = hanan_matrix(&obstacles, &points);
            return NodeResult::build(region, points, dist);
        }
    };
    // Decide which piece hosts the "above" obstacles.
    let above_obs = obstacles.subset(&sep.above);
    let below_obs = obstacles.subset(&sep.below);
    let a_has_above = above_obs.iter().filter(|r| piece_a.contains_rect(r)).count();
    let b_has_above = above_obs.iter().filter(|r| piece_b.contains_rect(r)).count();
    let (region_above, region_below) = if a_has_above >= b_has_above { (piece_a, piece_b) } else { (piece_b, piece_a) };
    let consistent = above_obs.iter().all(|r| region_above.contains_rect(r))
        && below_obs.iter().all(|r| region_below.contains_rect(r))
        && points.iter().all(|&p| region_above.on_boundary(p) || region_below.on_boundary(p))
        && sep.chain.points().iter().all(|&p| region_above.on_boundary(p) && region_below.on_boundary(p))
        && region_above.is_rectilinearly_convex()
        && region_below.is_rectilinearly_convex();
    if !consistent {
        counters.leaves.fetch_add(1, Ordering::Relaxed);
        counters.hanan.fetch_add(1, Ordering::Relaxed);
        let dist = hanan_matrix(&obstacles, &points);
        return NodeResult::build(region, points, dist);
    }
    let (child_above, child_below) = if obstacles.len() > 8 {
        rayon::join(
            || solve(above_obs.clone(), region_above.clone(), opts, depth + 1, counters),
            || solve(below_obs.clone(), region_below.clone(), opts, depth + 1, counters),
        )
    } else {
        (
            solve(above_obs.clone(), region_above.clone(), opts, depth + 1, counters),
            solve(below_obs.clone(), region_below.clone(), opts, depth + 1, counters),
        )
    };
    merge(&obstacles, &region, points, &sep.chain, child_above, child_below, &above_obs, &below_obs, opts, counters)
}

/// Distances between boundary points of a region containing at most one
/// obstacle: the L1 distance, except when the single rectangle separates the
/// two points inside their bounding box, in which case the cheaper of the two
/// detours around it is added.
fn leaf_matrix(obstacles: &ObstacleSet, points: &[Point]) -> MinPlusMatrix {
    let rect = obstacles.iter().next().copied();
    MinPlusMatrix::from_fn(points.len(), points.len(), |i, j| match rect {
        None => points[i].l1(points[j]),
        Some(r) => one_rect_distance(&r, points[i], points[j]),
    })
}

/// Exact shortest-path distance between two points (not inside the rectangle)
/// when the only obstacle is a single rectangle.
pub fn one_rect_distance(r: &Rect, p: Point, q: Point) -> Dist {
    let direct = p.l1(q);
    let (x1, x2) = (p.x.min(q.x), p.x.max(q.x));
    let (y1, y2) = (p.y.min(q.y), p.y.max(q.y));
    // The rectangle blocks every monotone staircase only if it spans the
    // bounding box of p,q in one dimension while overlapping it in the other.
    let overlaps = r.xmin < x2 && r.xmax > x1 && r.ymin < y2 && r.ymax > y1;
    if !overlaps {
        return direct;
    }
    // "Wall" case: p and q on opposite vertical sides of the rectangle while
    // it covers their whole y-range — the detour climbs over the top or dips
    // under the bottom.
    let opposite_x = (p.x <= r.xmin && q.x >= r.xmax) || (q.x <= r.xmin && p.x >= r.xmax);
    let wall_extra = if opposite_x && r.ymin <= y1 && r.ymax >= y2 { 2 * (r.ymax - y2).min(y1 - r.ymin) } else { INF };
    // "Slab" case: p and q on opposite horizontal sides while the rectangle
    // covers their whole x-range — the detour goes around the left or right
    // end.
    let opposite_y = (p.y <= r.ymin && q.y >= r.ymax) || (q.y <= r.ymin && p.y >= r.ymax);
    let slab_extra = if opposite_y && r.xmin <= x1 && r.xmax >= x2 { 2 * (r.xmax - x2).min(x1 - r.xmin) } else { INF };
    let extra = wall_extra.min(slab_extra);
    if extra >= INF {
        direct
    } else {
        direct + extra
    }
}

/// Exact (slow) matrix via a Hanan grid — the safety net for nodes where the
/// separator machinery refuses to split.
fn hanan_matrix(obstacles: &ObstacleSet, points: &[Point]) -> MinPlusMatrix {
    let grid = HananGrid::build(obstacles, points);
    let rows: Vec<Vec<Dist>> = points.iter().map(|&p| grid.distances_to(p, points)).collect();
    MinPlusMatrix::from_rows(rows)
}

/// Extended view of a child's matrix covering extra boundary points, attached
/// with the Discretisation Lemma 7.
struct Extended {
    index: HashMap<Point, usize>,
    dist: MinPlusMatrix,
}

impl Extended {
    fn get(&self, a: Point, b: Point) -> Dist {
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&i), Some(&j)) => self.dist.get(i, j),
            _ => INF,
        }
    }
}

/// Is some L-shaped (one-bend) path between `a` and `b` clear?  `a` and `b`
/// are region-boundary points, so they are never strictly inside an obstacle
/// and the outside-start ray shot applies (the shared implementation lives
/// in `rsp_geom::rayshoot`; `ObstacleIndex::segment_clear` is the variant
/// without the precondition).
fn l_path_clear(index: &ShootIndex, a: Point, b: Point) -> bool {
    let via1 = Point::new(b.x, a.y);
    let via2 = Point::new(a.x, b.y);
    (index.segment_clear_from_outside(a, via1) && index.segment_clear_from_outside(via1, b))
        || (index.segment_clear_from_outside(a, via2) && index.segment_clear_from_outside(via2, b))
}

/// Attach `extra` boundary points to a child's matrix (Lemma 7).
fn extend_child(child: &NodeResult, child_obs: &ObstacleSet, extra: &[Point]) -> Extended {
    let index = ShootIndex::build(child_obs);
    // circular positions of the child's own points along its boundary
    let perimeter = child.region.perimeter();
    let pos_of =
        |p: Point| -> Coord { boundary_arc_position(&child.region, p).expect("point must be on the child's boundary") };
    let own_pos: Vec<Coord> = child.points.iter().map(|&p| pos_of(p)).collect();
    // new points, deduplicated against the child's own points
    let mut new_points: Vec<Point> = Vec::new();
    for &p in extra {
        if !child.index.contains_key(&p) && !new_points.contains(&p) {
            new_points.push(p);
        }
    }
    let m = child.points.len();
    let k = new_points.len();
    let total = m + k;
    let mut points = child.points.clone();
    points.extend_from_slice(&new_points);
    let mut dist = MinPlusMatrix::infinity(total, total);
    for i in 0..m {
        for j in 0..m {
            dist.set(i, j, child.dist.get(i, j));
        }
    }
    // neighbours of each new point among the child's own points
    let neighbours: Vec<(usize, usize)> = new_points
        .iter()
        .map(|&z| {
            let zp = pos_of(z);
            // successor: smallest own position >= zp (cyclically); predecessor: largest <= zp
            let mut succ = 0usize;
            let mut best_succ = Coord::MAX;
            let mut pred = 0usize;
            let mut best_pred = Coord::MAX;
            for (i, &op) in own_pos.iter().enumerate() {
                let fwd = (op - zp).rem_euclid(perimeter);
                let bwd = (zp - op).rem_euclid(perimeter);
                if fwd < best_succ {
                    best_succ = fwd;
                    succ = i;
                }
                if bwd < best_pred {
                    best_pred = bwd;
                    pred = i;
                }
            }
            (pred, succ)
        })
        .collect();
    // new-to-own distances
    for (zi, &z) in new_points.iter().enumerate() {
        let (pred, succ) = neighbours[zi];
        let dp = z.l1(child.points[pred]);
        let ds = z.l1(child.points[succ]);
        for j in 0..m {
            let mut best = (child.dist.get(pred, j).saturating_add(dp)).min(child.dist.get(succ, j).saturating_add(ds));
            let t = child.points[j];
            let direct = z.l1(t);
            if direct < best && l_path_clear(&index, z, t) {
                best = direct;
            }
            dist.set(m + zi, j, best);
            dist.set(j, m + zi, best);
        }
    }
    // new-to-new distances (through the child's own points, or direct)
    for zi in 0..k {
        dist.set(m + zi, m + zi, 0);
        for ti in (zi + 1)..k {
            let z = new_points[zi];
            let t = new_points[ti];
            let (zp, zs) = neighbours[zi];
            let mut best = INF;
            for &(ni, nd) in &[(zp, z.l1(child.points[zp])), (zs, z.l1(child.points[zs]))] {
                let via = dist.get(ni, m + ti);
                if via < INF {
                    best = best.min(via + nd);
                }
            }
            let direct = z.l1(t);
            if direct < best && l_path_clear(&index, z, t) {
                best = direct;
            }
            dist.set(m + zi, m + ti, best);
            dist.set(m + ti, m + zi, best);
        }
    }
    let mut index_map = HashMap::with_capacity(total);
    for (i, &p) in points.iter().enumerate() {
        index_map.entry(p).or_insert(i);
    }
    Extended { index: index_map, dist }
}

/// Discretise the separator chain: its vertices plus its crossings with every
/// coordinate line of the parent's obstacles and region vertices, in chain
/// order.
fn middle_points(chain: &Chain, obstacles: &ObstacleSet, region: &StairRegion) -> Vec<Point> {
    let mut xs = obstacles.xs();
    let mut ys = obstacles.ys();
    xs.extend(region.vertices().iter().map(|p| p.x));
    ys.extend(region.vertices().iter().map(|p| p.y));
    xs.sort_unstable();
    xs.dedup();
    ys.sort_unstable();
    ys.dedup();
    let mut pts: Vec<Point> = chain.points().to_vec();
    for &x in &xs {
        pts.extend(chain.points_at_x(x));
    }
    for &y in &ys {
        pts.extend(chain.points_at_y(y));
    }
    pts.retain(|&p| chain.contains_point(p));
    pts.sort_by_key(|&p| chain.arc_position(p).unwrap_or(Dist::MAX));
    pts.dedup();
    pts
}

#[allow(clippy::too_many_arguments)]
fn merge(
    obstacles: &ObstacleSet,
    region: &StairRegion,
    parent_points: Vec<Point>,
    chain: &Chain,
    child_above: NodeResult,
    child_below: NodeResult,
    above_obs: &ObstacleSet,
    below_obs: &ObstacleSet,
    opts: &DncOptions,
    counters: &Counters,
) -> NodeResult {
    let middle = middle_points(chain, obstacles, region);
    // Partition the parent's boundary points between the two children.
    let mut side_of: Vec<u8> = Vec::with_capacity(parent_points.len());
    for &p in &parent_points {
        if child_above.region.on_boundary(p) {
            side_of.push(0);
        } else {
            debug_assert!(child_below.region.on_boundary(p), "parent boundary point on neither child");
            side_of.push(1);
        }
    }
    let above_targets: Vec<Point> = parent_points
        .iter()
        .zip(&side_of)
        .filter(|&(_, &s)| s == 0)
        .map(|(&p, _)| p)
        .chain(middle.iter().copied())
        .collect();
    let below_targets: Vec<Point> = parent_points
        .iter()
        .zip(&side_of)
        .filter(|&(_, &s)| s == 1)
        .map(|(&p, _)| p)
        .chain(middle.iter().copied())
        .collect();
    let ext_above = extend_child(&child_above, above_obs, &above_targets);
    let ext_below = extend_child(&child_below, below_obs, &below_targets);

    // Cross-side distances via one (min,+) product over Middle.
    let above_parent: Vec<Point> =
        parent_points.iter().zip(&side_of).filter(|&(_, &s)| s == 0).map(|(&p, _)| p).collect();
    let below_parent: Vec<Point> =
        parent_points.iter().zip(&side_of).filter(|&(_, &s)| s == 1).map(|(&p, _)| p).collect();
    let a_rows: Vec<usize> = above_parent.iter().map(|p| ext_above.index[p]).collect();
    let mid_a: Vec<usize> = middle.iter().map(|p| ext_above.index[p]).collect();
    let mid_b: Vec<usize> = middle.iter().map(|p| ext_below.index[p]).collect();
    let b_cols: Vec<usize> = below_parent.iter().map(|p| ext_below.index[p]).collect();
    // Borrowed block views: the Monge check and the (min,+) product read the
    // factors in place instead of copying `O(|parent| · |Middle|)` entries
    // out of each child at every recursion node.
    let left = SubmatrixView::new(&ext_above.dist, &a_rows, &mid_a);
    let right = SubmatrixView::new(&ext_below.dist, &mid_b, &b_cols);
    let cross = if !above_parent.is_empty() && !below_parent.is_empty() && !middle.is_empty() {
        if opts.use_monge && is_monge(&left) && is_monge(&right) {
            counters.monge.fetch_add(1, Ordering::Relaxed);
            min_plus_parallel(&left, &right)
        } else {
            counters.general.fetch_add(1, Ordering::Relaxed);
            rsp_monge::multiply::min_plus_general_parallel(&left, &right)
        }
    } else {
        MinPlusMatrix::infinity(above_parent.len(), below_parent.len())
    };

    // Assemble the parent's matrix.
    let mut above_rank = vec![usize::MAX; parent_points.len()];
    let mut below_rank = vec![usize::MAX; parent_points.len()];
    {
        let mut a = 0;
        let mut b = 0;
        for (i, &s) in side_of.iter().enumerate() {
            if s == 0 {
                above_rank[i] = a;
                a += 1;
            } else {
                below_rank[i] = b;
                b += 1;
            }
        }
    }
    let n = parent_points.len();
    let dist = MinPlusMatrix::from_fn(n, n, |i, j| {
        let (pi, pj) = (parent_points[i], parent_points[j]);
        match (side_of[i], side_of[j]) {
            (0, 0) => ext_above.get(pi, pj),
            (1, 1) => ext_below.get(pi, pj),
            (0, 1) => cross.get(above_rank[i], below_rank[j]),
            _ => cross.get(above_rank[j], below_rank[i]),
        }
    });
    NodeResult::build(region.clone(), parent_points, dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::hanan::ground_truth_matrix;

    #[test]
    fn one_rect_distance_cases() {
        let r = Rect::new(2, 2, 6, 8);
        // unobstructed pairs
        assert_eq!(one_rect_distance(&r, Point::new(0, 0), Point::new(1, 9)), 10);
        // left-right across the rectangle, forced around the top or bottom
        assert_eq!(one_rect_distance(&r, Point::new(0, 5), Point::new(8, 5)), 8 + 2 * 3);
        // bottom-top across, forced around the left or right
        assert_eq!(one_rect_distance(&r, Point::new(4, 0), Point::new(4, 10)), 10 + 2 * 2);
        // touching the corner region: no detour
        assert_eq!(one_rect_distance(&r, Point::new(0, 0), Point::new(7, 9)), 16);
    }

    fn verify_against_truth(obstacles: ObstacleSet, opts: &DncOptions) {
        let bm = build_boundary_matrix_bbox(&obstacles, 3, opts);
        let truth = ground_truth_matrix(&obstacles, &bm.points);
        for (i, row) in truth.iter().enumerate() {
            for (j, &expected) in row.iter().enumerate() {
                assert_eq!(bm.dist.get(i, j), expected, "mismatch {:?} -> {:?}", bm.points[i], bm.points[j]);
            }
        }
    }

    #[test]
    fn matches_ground_truth_small_fixed() {
        let obstacles = ObstacleSet::new(vec![Rect::new(2, 2, 5, 6), Rect::new(8, 1, 11, 9), Rect::new(3, 9, 9, 12)]);
        verify_against_truth(obstacles, &DncOptions::default());
    }

    #[test]
    fn matches_ground_truth_random_instances() {
        for seed in 0..5 {
            let w = rsp_workload::uniform_disjoint(7, seed);
            verify_against_truth(w.obstacles, &DncOptions::default());
        }
    }

    #[test]
    fn monge_and_general_products_agree() {
        let w = rsp_workload::uniform_disjoint(10, 77);
        let a = build_boundary_matrix_bbox(&w.obstacles, 3, &DncOptions::default());
        let b = build_boundary_matrix_bbox(&w.obstacles, 3, &DncOptions { use_monge: false });
        assert_eq!(a.dist, b.dist);
        assert!(a.stats.monge_products + a.stats.general_products > 0);
        assert_eq!(b.stats.monge_products, 0);
    }

    #[test]
    fn sequential_and_parallel_schedules_agree() {
        let w = rsp_workload::uniform_disjoint(12, 5);
        let a = build_boundary_matrix_bbox(&w.obstacles, 3, &DncOptions::default());
        let b = rsp_pram::pool::run_on_pool(1, || build_boundary_matrix_bbox(&w.obstacles, 3, &DncOptions::default()));
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.points, b.points);
        assert!(a.stats.nodes >= 3);
        assert!(a.stats.max_depth >= 1);
    }

    #[test]
    fn empty_and_single_obstacle_regions() {
        let empty = ObstacleSet::empty();
        let region = StairRegion::from_rect(Rect::new(0, 0, 10, 10));
        let bm = build_boundary_matrix(&empty, &region, &DncOptions::default());
        for i in 0..bm.points.len() {
            for j in 0..bm.points.len() {
                assert_eq!(bm.dist.get(i, j), bm.points[i].l1(bm.points[j]));
            }
        }
        let one = ObstacleSet::new(vec![Rect::new(3, 3, 6, 6)]);
        verify_against_truth(one, &DncOptions::default());
    }

    #[test]
    fn distance_between_lookup() {
        let obstacles = ObstacleSet::new(vec![Rect::new(2, 2, 6, 6)]);
        let bm = build_boundary_matrix_bbox(&obstacles, 2, &DncOptions::default());
        let a = *bm.points.first().unwrap();
        assert_eq!(bm.distance_between(a, a), Some(0));
        assert_eq!(bm.distance_between(a, Point::new(1000, 1000)), None);
    }
}
