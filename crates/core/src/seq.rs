//! Section 9: single-source shortest path lengths to all obstacle vertices by
//! topological relaxation of monotone DAGs — the per-source routine that every
//! all-pairs construction in the workspace fans out over.
//!
//! For a source `v`, the plane is covered by four regions delimited by escape
//! paths from `v` (Fig. 5 / Section 9, following de Rezende–Lee–Wu [11]):
//! targets in the region to the right of `NE(v) ∪ SE(v)` have an x-monotone
//! shortest path with `v` as its left endpoint (Case (i)); the other three
//! cases are the reflections/transpositions of this one.  Within Case (i) the
//! length to a target `w` is either `d(v, w)` — when the leftward ray from
//! `w` reaches `NE(v) ∪ SE(v)` before any obstacle — or it goes through one
//! of the two right-edge vertices of the first obstacle hit by that ray.
//! Processing targets by increasing `x` therefore resolves all lengths in one
//! topological sweep.
//!
//! Two properties make the implementation below robust:
//!
//! * every value the sweep assigns is the length of some valid
//!   obstacle-avoiding path (so it can never *under*-estimate), and
//! * for targets inside the case's region the assigned value is exactly the
//!   shortest-path length (the paper's argument).
//!
//! Taking the minimum over the four symmetric cases therefore yields exact
//! distances for every obstacle vertex.
//!
//! # Cost split
//!
//! Only the escape paths and the chain crossings depend on the source.
//! Everything else is the *skeleton*, built once per scene by
//! [`SingleSourceEngine::new`] in `O(n log n)`:
//!
//! * one point-location and ray-shooting index over the scene in its own
//!   coordinates.  The case transforms are isometries and no two disjoint
//!   rectangles tie for a shot, so a shot or an escape trace in any case
//!   view is the original-frame one with its directions mapped;
//! * per case view, the vertices in sweep order, with the x of every
//!   vertex's westward obstacle hit and, in one flat `u32` arena, the ids of
//!   every vertex at that hit rectangle's `lr()` and `ur()` corners (the
//!   relaxation predecessors).  The order is by x, then y, except that a
//!   vertex lying on the right edge of the rectangle it hits — possible only
//!   where rectangles touch — comes after the rest of its x column, since it
//!   relaxes through that rectangle's corners at its own x.
//!
//! A [`SingleSourceEngine::distances_from`] call then checks once whether
//! the source lies inside an obstacle (an isometry keeps it inside in every
//! view), and does, per view, two escape-chain traces (`NE` and `SE`), one
//! binary search for the first target with `x >= source.x`, and one linear
//! pass over the remaining targets.  Each target in the pass costs two
//! `O(log n)` chain–line intersections and a scan of its predecessors.

use rsp_geom::{Chain, Coord, Dir, Dist, ObstacleIndex, ObstacleSet, Point, Rect, RectId, StairRegion, INF};

use crate::trace::{escape_path, EscapeKind};

/// The four coordinate transforms mapping each monotone case onto the
/// canonical "x-monotone, source on the left" case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CaseTransform {
    /// Case (i): x-monotone, source is the left endpoint.
    Identity,
    /// Case (ii): x-monotone, source is the right endpoint.
    ReflectX,
    /// Case (iii): y-monotone, source is the lower endpoint.
    SwapXY,
    /// Case (iv): y-monotone, source is the upper endpoint.
    SwapReflect,
}

impl CaseTransform {
    const ALL: [CaseTransform; 4] =
        [CaseTransform::Identity, CaseTransform::ReflectX, CaseTransform::SwapXY, CaseTransform::SwapReflect];

    /// All four transforms are involutions, so the same map is used in both
    /// directions.
    fn apply(self, p: Point) -> Point {
        match self {
            CaseTransform::Identity => p,
            CaseTransform::ReflectX => Point::new(-p.x, p.y),
            CaseTransform::SwapXY => Point::new(p.y, p.x),
            CaseTransform::SwapReflect => Point::new(-p.y, -p.x),
        }
    }

    fn apply_rect(self, r: &Rect) -> Rect {
        let a = self.apply(Point::new(r.xmin, r.ymin));
        let b = self.apply(Point::new(r.xmax, r.ymax));
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// The transforms are linear, so a direction maps like its unit step.
    fn apply_dir(self, d: Dir) -> Dir {
        let (dx, dy) = d.step();
        let s = self.apply(Point::new(dx, dy));
        Dir::ALL.into_iter().find(|e| e.step() == (s.x, s.y)).expect("isometries map unit steps to unit steps")
    }
}

/// One monotone case: the source-independent part of its sweep, in the
/// case's coordinates.
struct CaseView {
    transform: CaseTransform,
    /// The view's `NE` and `SE` escape kinds, in original coordinates.
    kinds: [EscapeKind; 2],
    /// Transformed vertex points, parallel to the *original* vertex indexing.
    vertices: Vec<Point>,
    /// Vertex ids in sweep order: by x of their transformed points, then by
    /// y (see [`CaseView::build`] for the one exception).
    order: Vec<u32>,
    /// `vertices[order[k]]`, contiguous for the binary search and the pass.
    sorted: Vec<Point>,
    /// x of the first obstacle hit west of `sorted[k]`; `Coord::MIN` when
    /// the ray escapes, which no chain crossing can fall short of.
    hit_x: Vec<Coord>,
    /// `preds[pred_start[k]..pred_start[k + 1]]`: every vertex id at the
    /// `lr()` and `ur()` corners of that hit rectangle (none on escape).
    pred_start: Vec<u32>,
    preds: Vec<u32>,
}

impl CaseView {
    fn build(transform: CaseTransform, obstacles: &ObstacleSet, original: &[Point], locate: &ObstacleIndex) -> Self {
        let vertices: Vec<Point> = original.iter().map(|&p| transform.apply(p)).collect();
        let west = transform.apply_dir(Dir::West);
        let hits: Vec<Option<(Coord, RectId)>> = vertices
            .iter()
            .map(|&w| locate.shoot(transform.apply(w), west).map(|h| (transform.apply(h.point).x, h.rect)))
            .collect();
        // Sweep order: by x, then by y — except that a vertex lying on the
        // right edge of the rectangle its ray hits (only touching rectangles
        // do this) relaxes through that rectangle's corners at its own x, so
        // it comes after them.  No such vertex is a corner any ray hits (that
        // rectangle would overlap the one it touches), so deferring it moves
        // no other value.  The sort is stable, so equal points keep ascending
        // ids and the suffix from any x on is exactly that x's targets.
        let key = |i: usize| (vertices[i].x, hits[i].is_some_and(|(x, _)| x == vertices[i].x), vertices[i].y);
        let mut order: Vec<u32> = (0..u32::try_from(vertices.len()).expect("vertex ids fit u32")).collect();
        order.sort_by_key(|&i| key(i as usize));
        let sorted: Vec<Point> = order.iter().map(|&i| vertices[i as usize]).collect();
        let mut hit_x = Vec::with_capacity(sorted.len());
        let mut pred_start = Vec::with_capacity(sorted.len() + 1);
        let mut preds = Vec::new();
        pred_start.push(0);
        for &i in &order {
            match hits[i as usize] {
                Some((x, rect)) => {
                    hit_x.push(x);
                    let r = transform.apply_rect(&obstacles.rect(rect));
                    for u in [r.lr(), r.ur()] {
                        // The vertices at `u` are contiguous in the sweep
                        // order; one of them is the hit rectangle's own.
                        let own =
                            (4 * rect..4 * rect + 4).find(|&c| vertices[c] == u).expect("corner of its rectangle");
                        let lo = order.partition_point(|&j| key(j as usize) < key(own));
                        let hi = order.partition_point(|&j| key(j as usize) <= key(own));
                        preds.extend_from_slice(&order[lo..hi]);
                    }
                }
                None => hit_x.push(Coord::MIN),
            }
            pred_start.push(u32::try_from(preds.len()).expect("predecessor arena fits u32"));
        }
        CaseView {
            transform,
            kinds: [EscapeKind::NE, EscapeKind::SE]
                .map(|k| EscapeKind { primary: transform.apply_dir(k.primary), policy: transform.apply_dir(k.policy) }),
            vertices,
            order,
            sorted,
            hit_x,
            pred_start,
            preds,
        }
    }

    /// Case (i) sweep from `source` (in this view's coordinates, outside
    /// every obstacle) into `dist`, given the source's `NE` and `SE` escape
    /// paths in the same coordinates: upper bounds on the distance to each
    /// vertex, exact for vertices in the region right of `NE ∪ SE`.
    fn sweep(&self, source: Point, ne: &Chain, se: &Chain, dist: &mut [Dist]) {
        dist.fill(INF);
        // Does the leftward ray from `w` reach NE ∪ SE no later than the first
        // obstacle, at `hit_x`?
        let reaches_chain = |w: Point, hit_x: Coord| -> bool {
            let mut best_chain_x: Option<Coord> = None;
            for chain in [ne, se] {
                if let Some((lo, hi)) = chain.intersect_horizontal(w.y) {
                    let candidate = if hi <= w.x {
                        Some(hi)
                    } else if lo <= w.x {
                        Some(w.x) // w lies in the chain's span at this y (on the chain)
                    } else {
                        None
                    };
                    if let Some(c) = candidate {
                        best_chain_x = Some(best_chain_x.map_or(c, |b| b.max(c)));
                    }
                }
            }
            best_chain_x.is_some_and(|cx| cx >= hit_x)
        };
        let first = self.sorted.partition_point(|p| p.x < source.x);
        for k in first..self.sorted.len() {
            let w = self.sorted[k];
            dist[self.order[k] as usize] = if w == source {
                0
            } else if reaches_chain(w, self.hit_x[k]) {
                source.l1(w)
            } else {
                self.preds[self.pred_start[k] as usize..self.pred_start[k + 1] as usize]
                    .iter()
                    .map(|&u| u as usize)
                    .filter(|&u| dist[u] < INF)
                    .map(|u| dist[u] + self.vertices[u].l1(w))
                    .min()
                    .unwrap_or(INF)
            };
        }
    }
}

/// Single-source engine over a fixed obstacle set with pairwise-disjoint
/// interiors — the role of the de Rezende–Lee–Wu structure in the paper's
/// Section 9 baseline.  [`SingleSourceEngine::new`] builds the skeleton once
/// (`O(n log n)`); each [`SingleSourceEngine::distances_from`] call is then
/// one containment probe plus, per case view, two escape-chain traces and one
/// linear relaxation pass (see the module docs for the split).
pub struct SingleSourceEngine {
    obstacles: ObstacleSet,
    /// Containment and ray shooting in original coordinates, for every view.
    locate: ObstacleIndex,
    /// The escape traces' clipping region: the scene's box, widened by 4.
    region: StairRegion,
    views: Vec<CaseView>,
    original_vertices: Vec<Point>,
}

impl SingleSourceEngine {
    /// Preprocess an obstacle set: the point-location index and the four
    /// case views' sweep skeletons (Section 9).
    pub fn new(obstacles: &ObstacleSet) -> Self {
        let original_vertices = obstacles.vertices();
        let locate = ObstacleIndex::build(obstacles);
        let views =
            CaseTransform::ALL.iter().map(|&t| CaseView::build(t, obstacles, &original_vertices, &locate)).collect();
        let bbox = obstacles.bbox().unwrap_or(Rect::new(-1, -1, 1, 1)).expand(4);
        SingleSourceEngine {
            obstacles: obstacles.clone(),
            locate,
            region: StairRegion::from_rect(bbox),
            views,
            original_vertices,
        }
    }

    /// The obstacle vertices, in the indexing used by the returned distance
    /// vectors.
    pub fn vertices(&self) -> &[Point] {
        &self.original_vertices
    }

    /// Exact shortest-path distances from `source` to every obstacle vertex
    /// (all `INF` for a source strictly inside an obstacle).
    pub fn distances_from(&self, source: Point) -> Vec<Dist> {
        let mut dist = vec![INF; self.original_vertices.len()];
        if self.locate.containing_obstacle(source).is_some() {
            return dist;
        }
        // The escape traces need a region that contains the source.
        let widened;
        let region = if self.region.contains(source) {
            &self.region
        } else {
            let srect = Rect::new(source.x - 1, source.y - 1, source.x + 1, source.y + 1);
            widened = StairRegion::from_rect(self.region.bbox().union(&srect).expand(2));
            &widened
        };
        let mut case = vec![INF; dist.len()];
        for view in &self.views {
            let [ne, se] = view.kinds.map(|kind| {
                let chain = escape_path(&self.obstacles, self.locate.shoot_index(), region, source, kind);
                Chain::new(chain.points().iter().map(|&p| view.transform.apply(p)).collect())
            });
            view.sweep(view.transform.apply(source), &ne, &se, &mut case);
            for (best, &d) in dist.iter_mut().zip(&case) {
                if d < *best {
                    *best = d;
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rsp_geom::hanan::{ground_truth_matrix, HananGrid};

    fn random_disjoint(n: usize, seed: u64) -> ObstacleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = (n as f64).sqrt().ceil() as i64 + 1;
        let cell = 16i64;
        let mut cells: Vec<(i64, i64)> = (0..side).flat_map(|i| (0..side).map(move |j| (i, j))).collect();
        for i in (1..cells.len()).rev() {
            let j = rng.gen_range(0..=i);
            cells.swap(i, j);
        }
        let rects: Vec<Rect> = cells
            .iter()
            .take(n)
            .map(|&(ci, cj)| {
                let x0 = ci * cell + rng.gen_range(1i64..5);
                let y0 = cj * cell + rng.gen_range(1i64..5);
                Rect::new(x0, y0, x0 + rng.gen_range(2i64..9), y0 + rng.gen_range(2i64..9))
            })
            .collect();
        ObstacleSet::new(rects)
    }

    #[test]
    fn single_wall_distances() {
        let obs = ObstacleSet::new(vec![Rect::new(4, -10, 6, 10)]);
        let engine = SingleSourceEngine::new(&obs);
        let d = engine.distances_from(Point::new(0, 0));
        let verts = engine.vertices();
        for (i, &v) in verts.iter().enumerate() {
            let expect = rsp_geom::hanan::ground_truth_distance(&obs, Point::new(0, 0), v);
            assert_eq!(d[i], expect, "vertex {:?}", v);
        }
    }

    #[test]
    fn matches_ground_truth_on_random_instances() {
        for seed in 0..6 {
            let obs = random_disjoint(10, seed);
            let verts = obs.vertices();
            let truth = ground_truth_matrix(&obs, &verts);
            let engine = SingleSourceEngine::new(&obs);
            for (i, &v) in verts.iter().enumerate() {
                let d = engine.distances_from(v);
                for j in 0..verts.len() {
                    assert_eq!(d[j], truth[i][j], "seed {seed}: {:?} -> {:?}", v, verts[j]);
                }
            }
        }
    }

    #[test]
    fn sequential_apsp_is_symmetric_and_matches_truth() {
        let obs = random_disjoint(8, 42);
        let verts = obs.vertices();
        let apsp = crate::apsp::VertexApsp::build(&obs);
        let truth = ground_truth_matrix(&obs, &verts);
        for (i, truth_row) in truth.iter().enumerate() {
            for (j, &d) in truth_row.iter().enumerate() {
                assert_eq!(apsp.distance(i, j), d);
                assert_eq!(apsp.distance(i, j), apsp.distance(j, i));
            }
        }
    }

    #[test]
    fn source_can_be_an_arbitrary_point() {
        let obs = random_disjoint(9, 7);
        let engine = SingleSourceEngine::new(&obs);
        let source = Point::new(-3, -5);
        let d = engine.distances_from(source);
        for (j, &w) in engine.vertices().iter().enumerate() {
            let expect = rsp_geom::hanan::ground_truth_distance(&obs, source, w);
            assert_eq!(d[j], expect, "target {:?}", w);
        }
    }

    /// Checkerboard rectangles touching at corners and sharing collinear
    /// edges: a west shot from many vertices hits a rectangle whose `lr()` or
    /// `ur()` is also a corner of a neighbour, so one hit corner names more
    /// than one vertex id.
    fn corner_touching() -> ObstacleSet {
        let obs = ObstacleSet::new(vec![
            Rect::new(0, 0, 4, 4),
            Rect::new(4, 4, 8, 8),
            Rect::new(8, 0, 12, 4),
            Rect::new(0, 8, 4, 12),
            Rect::new(8, 8, 12, 12),
            Rect::new(4, -4, 8, 0),
            Rect::new(12, 2, 14, 10),
            Rect::new(-6, 4, -2, 6),
            Rect::new(-2, 6, 0, 9),
        ]);
        assert!(obs.validate_disjoint().is_ok());
        obs
    }

    /// The scene's vertices plus a lattice of points over its widened
    /// bounding box: inside obstacles, on their boundaries, in free space and
    /// outside the box.
    fn probe_sources(obs: &ObstacleSet) -> Vec<Point> {
        let bbox = obs.bbox().expect("non-empty scene").expand(6);
        let step = (bbox.width().max(bbox.height()) / 12).max(1);
        let mut sources = obs.vertices();
        for i in 0..=13 {
            for j in 0..=13 {
                sources.push(Point::new(bbox.xmin + i * step, bbox.ymin + j * step));
            }
        }
        sources
    }

    /// FNV-1a over every row `distances_from` produces for the probe sources.
    fn row_digest(obs: &ObstacleSet) -> u64 {
        let engine = SingleSourceEngine::new(obs);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for s in probe_sources(obs) {
            for d in engine.distances_from(s) {
                for byte in d.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        hash
    }

    /// Pins the rows bitwise.  The uniform and clustered digests were
    /// recorded from the kernel that predates the sweep skeleton.  That kernel
    /// was wrong on 8 of the corner-touching scene's lattice sources, so that
    /// digest pins the corrected rows, which
    /// `corner_touching_rows_match_the_hanan_grid` checks are exact.
    #[test]
    fn rows_match_the_recorded_digests() {
        let scenes = [
            ("uniform_disjoint(64, 7)", rsp_workload::uniform_disjoint(64, 7).obstacles, 0x7664_c31c_db37_3a79u64),
            ("clustered(64, 4, 7)", rsp_workload::clustered(64, 4, 7).obstacles, 0xc065_ad9a_dc94_7a50),
            ("corner_touching", corner_touching(), 0xe3ce_fe2d_7699_5dd1),
        ];
        for (name, obs, want) in scenes {
            assert_eq!(row_digest(&obs), want, "{name}: rows drifted from the recorded kernel");
        }
    }

    #[test]
    fn corner_touching_rows_match_the_hanan_grid() {
        let obs = corner_touching();
        let engine = SingleSourceEngine::new(&obs);
        for s in probe_sources(&obs) {
            let row = engine.distances_from(s);
            if obs.containing_obstacle(s).is_some() {
                assert!(row.iter().all(|&d| d == INF), "{s:?} is inside an obstacle");
                continue;
            }
            assert_eq!(row, HananGrid::build(&obs, &[s]).distances_to(s, engine.vertices()), "source {s:?}");
        }
    }

    #[test]
    fn no_obstacles_gives_l1() {
        let obs = ObstacleSet::new(vec![Rect::new(100, 100, 101, 101)]);
        let engine = SingleSourceEngine::new(&obs);
        let d = engine.distances_from(Point::new(0, 0));
        assert_eq!(d[0], 200);
    }
}
