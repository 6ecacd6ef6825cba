//! # rsp-workload — instance and query generators for the evaluation harness
//!
//! The paper contains no empirical evaluation, so the experiment suite
//! (DESIGN.md §5) defines its own workloads.  This crate generates them
//! reproducibly (seeded) and serialises them with serde so every benchmark
//! run can be replayed:
//!
//! * [`uniform_disjoint`] — `n` disjoint rectangles placed in random cells of
//!   a coarse grid with jittered size/position (the default workload, used by
//!   E1, E3, E4, E8, E9);
//! * [`clustered`] — obstacles concentrated in a few dense clusters
//!   (stress-tests the separator balance, E1);
//! * [`corridors`] — long thin walls with narrow gaps (stress-tests path
//!   detours and path-length `k`, E6);
//! * [`aspect_stress`] — extreme aspect-ratio rectangles;
//! * [`touching_lattice`] — rectangles that share corners and collinear
//!   edges (the certification matrices' degenerate-contact family);
//! * [`query_pairs`] — random query point pairs, optionally snapped to
//!   obstacle vertices (E5);
//! * [`edit_stream`] — seeded incremental-edit traces (insert / remove /
//!   move) that stay disjoint step by step, driving the scene-editing
//!   experiments (E15) and the `apply_delta` certification tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_geom::{ObstacleSet, Point, Rect, SceneDelta};
use serde::{Deserialize, Serialize};

/// A generated workload with its provenance, serialisable for replay.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Workload {
    pub name: String,
    pub seed: u64,
    pub obstacles: ObstacleSet,
}

impl Workload {
    pub fn n(&self) -> usize {
        self.obstacles.len()
    }
}

/// `n` pairwise-disjoint rectangles: random cells of a `side x side` grid
/// (side ≈ sqrt(2n)) each receive at most one rectangle, jittered inside the
/// cell.  Disjointness holds by construction.
pub fn uniform_disjoint(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = ((2 * n.max(1)) as f64).sqrt().ceil() as i64 + 1;
    let cell = 32i64;
    let mut cells: Vec<(i64, i64)> = (0..side).flat_map(|i| (0..side).map(move |j| (i, j))).collect();
    shuffle(&mut cells, &mut rng);
    let rects: Vec<Rect> = cells
        .iter()
        .take(n)
        .map(|&(ci, cj)| {
            let x0 = ci * cell + rng.gen_range(1i64..8);
            let y0 = cj * cell + rng.gen_range(1i64..8);
            let w = rng.gen_range(3..=cell - 10);
            let h = rng.gen_range(3..=cell - 10);
            Rect::new(x0, y0, x0 + w, y0 + h)
        })
        .collect();
    let obstacles = ObstacleSet::new(rects);
    debug_assert!(obstacles.validate_disjoint().is_ok());
    Workload { name: format!("uniform_disjoint(n={n})"), seed, obstacles }
}

/// Obstacles concentrated into `clusters` dense groups.
pub fn clustered(n: usize, clusters: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let clusters = clusters.max(1);
    let per = n.div_ceil(clusters);
    let side = ((2 * per.max(1)) as f64).sqrt().ceil() as i64 + 1;
    let cell = 20i64;
    let cluster_pitch = side * cell * 4;
    let mut rects = Vec::with_capacity(n);
    'outer: for c in 0..clusters {
        let ox = (c as i64 % 4) * cluster_pitch;
        let oy = (c as i64 / 4) * cluster_pitch;
        let mut cells: Vec<(i64, i64)> = (0..side).flat_map(|i| (0..side).map(move |j| (i, j))).collect();
        shuffle(&mut cells, &mut rng);
        for &(ci, cj) in cells.iter().take(per) {
            if rects.len() == n {
                break 'outer;
            }
            let x0 = ox + ci * cell + rng.gen_range(1i64..5);
            let y0 = oy + cj * cell + rng.gen_range(1i64..5);
            rects.push(Rect::new(x0, y0, x0 + rng.gen_range(2..=cell - 8), y0 + rng.gen_range(2..=cell - 8)));
        }
    }
    let obstacles = ObstacleSet::new(rects);
    debug_assert!(obstacles.validate_disjoint().is_ok());
    Workload { name: format!("clustered(n={n},k={clusters})"), seed, obstacles }
}

/// Long horizontal walls with one randomly placed gap each: forces long
/// detours and large segment counts `k` for reported paths.
pub fn corridors(walls: usize, width: i64, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = width.max(20);
    let mut rects = Vec::new();
    for i in 0..walls {
        let y0 = (i as i64) * 10 + 5;
        let gap_at = rng.gen_range(1..width - 6);
        let gap_w = rng.gen_range(2i64..5);
        if gap_at > 0 {
            rects.push(Rect::new(0, y0, gap_at, y0 + 4));
        }
        if gap_at + gap_w < width {
            rects.push(Rect::new(gap_at + gap_w, y0, width, y0 + 4));
        }
    }
    let obstacles = ObstacleSet::new(rects);
    debug_assert!(obstacles.validate_disjoint().is_ok());
    Workload { name: format!("corridors(walls={walls})"), seed, obstacles }
}

/// Rectangles with extreme aspect ratios (very wide or very tall), laid out
/// on a coarse grid.
pub fn aspect_stress(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = ((2 * n.max(1)) as f64).sqrt().ceil() as i64 + 1;
    let cell = 40i64;
    let mut cells: Vec<(i64, i64)> = (0..side).flat_map(|i| (0..side).map(move |j| (i, j))).collect();
    shuffle(&mut cells, &mut rng);
    let rects: Vec<Rect> = cells
        .iter()
        .take(n)
        .map(|&(ci, cj)| {
            let x0 = ci * cell + 2;
            let y0 = cj * cell + 2;
            if rng.gen_bool(0.5) {
                Rect::new(x0, y0, x0 + cell - 6, y0 + rng.gen_range(1i64..4))
            } else {
                Rect::new(x0, y0, x0 + rng.gen_range(1i64..4), y0 + cell - 6)
            }
        })
        .collect();
    let obstacles = ObstacleSet::new(rects);
    debug_assert!(obstacles.validate_disjoint().is_ok());
    Workload { name: format!("aspect_stress(n={n})"), seed, obstacles }
}

/// `n` rectangles on a lattice of 6 x 6 cells, `ceil(sqrt(n))` cells wide.
/// Each cell stays empty with probability 1/4; otherwise it holds one
/// rectangle of random width and height in `2..=6`, pinned to the cell's
/// lower-left, lower-right or upper-right corner.  Rectangles therefore
/// touch: neighbours pinned to a shared cell side meet along collinear edges,
/// diagonal neighbours meet at shared corners, and full-size rectangles fill
/// their cell.  Interiors stay disjoint by construction.  This is the shape
/// of the touching scenes in `tests/properties.rs`, as a seeded family.
pub fn touching_lattice(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (n.max(1) as f64).sqrt().ceil() as usize;
    let pitch = 6i64;
    let mut rects = Vec::with_capacity(n);
    let mut cell = 0usize;
    while rects.len() < n {
        let (x0, y0) = (pitch * (cell % side) as i64, pitch * (cell / side) as i64);
        cell += 1;
        let anchor = rng.gen_range(0u8..4);
        let (w, h) = (rng.gen_range(2..=pitch), rng.gen_range(2..=pitch));
        let (x, y) = match anchor {
            0 => continue,
            1 => (x0, y0),
            2 => (x0 + pitch - w, y0),
            _ => (x0 + pitch - w, y0 + pitch - h),
        };
        rects.push(Rect::new(x, y, x + w, y + h));
    }
    let obstacles = ObstacleSet::new(rects);
    debug_assert!(obstacles.validate_disjoint().is_ok());
    Workload { name: format!("touching_lattice(n={n})"), seed, obstacles }
}

/// Random query pairs inside the bounding box of the obstacles (expanded a
/// little), avoiding obstacle interiors.  If `snap_to_vertices` is set the
/// points are obstacle vertices instead.
pub fn query_pairs(obstacles: &ObstacleSet, count: usize, snap_to_vertices: bool, seed: u64) -> Vec<(Point, Point)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bbox = obstacles.bbox().unwrap_or(Rect::new(0, 0, 10, 10)).expand(5);
    let vertices = obstacles.vertices();
    let sample_point = |rng: &mut StdRng| -> Point {
        if snap_to_vertices && !vertices.is_empty() {
            vertices[rng.gen_range(0..vertices.len())]
        } else {
            loop {
                let p = Point::new(rng.gen_range(bbox.xmin..=bbox.xmax), rng.gen_range(bbox.ymin..=bbox.ymax));
                if obstacles.containing_obstacle(p).is_none() {
                    return p;
                }
            }
        }
    };
    (0..count).map(|_| (sample_point(&mut rng), sample_point(&mut rng))).collect()
}

/// A seeded trace of incremental scene edits (ECO-style: engineering change
/// orders over a fixed floorplan).  Each [`SceneDelta`] is expressed against
/// the scene produced by applying all the deltas before it — the same
/// convention as chaining
/// [`Router::apply_delta`](../rsp_core/router/struct.Router.html#method.apply_delta)
/// session to session — and every step keeps the scene pairwise-disjoint, so
/// the whole trace replays without validation errors on any base produced by
/// [`uniform_disjoint`], [`clustered`], [`corridors`] or
/// [`touching_lattice`].
///
/// The mix is roughly 40% inserts, 30% removals and 30% moves (a removal
/// plus a re-insertion of the same rectangle translated by a small jitter,
/// in *one* delta).  Insert placements rejection-sample inside the slightly
/// expanded bounding box; a placement that cannot find free space after a
/// bounded number of tries falls outside the box to the east, so the stream
/// always has exactly `edits` steps.
pub fn edit_stream(base: &ObstacleSet, edits: usize, seed: u64) -> Vec<SceneDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = base.clone();
    let mut overflow = 0i64; // next free slot east of the bbox
    let mut stream = Vec::with_capacity(edits);
    for _ in 0..edits {
        let bbox = current.bbox().unwrap_or(Rect::new(0, 0, 64, 64)).expand(16);
        let disjoint_from_all = |scene: &ObstacleSet, cand: &Rect, skip: Option<usize>| {
            scene.iter().enumerate().all(|(i, r)| Some(i) == skip || !r.interiors_intersect(cand))
        };
        let mut place = |rng: &mut StdRng, current: &ObstacleSet, near: Option<Rect>, skip: Option<usize>| -> Rect {
            for _ in 0..64 {
                let w = rng.gen_range(2i64..=8);
                let h = rng.gen_range(2i64..=8);
                let (x0, y0) = match near {
                    // A move jitters within a small window around the old
                    // geometry; a plain insert samples the whole box.
                    Some(r) => (r.xmin + rng.gen_range(-24i64..=24), r.ymin + rng.gen_range(-24i64..=24)),
                    None => (rng.gen_range(bbox.xmin..bbox.xmax - w), rng.gen_range(bbox.ymin..bbox.ymax - h)),
                };
                let cand = Rect::new(x0, y0, x0 + w, y0 + h);
                if disjoint_from_all(current, &cand, skip) {
                    return cand;
                }
            }
            // Crowded scene: fall out of the bbox where space is guaranteed.
            overflow += 12;
            Rect::new(bbox.xmax + overflow, bbox.ymin, bbox.xmax + overflow + 4, bbox.ymin + 4)
        };
        let roll = rng.gen_range(0u32..10);
        let delta = if current.is_empty() || roll < 4 {
            SceneDelta::inserting(vec![place(&mut rng, &current, None, None)])
        } else if roll < 7 {
            SceneDelta::removing(vec![rng.gen_range(0..current.len())])
        } else {
            let id = rng.gen_range(0..current.len());
            let old = current.rects()[id];
            SceneDelta { insert: vec![place(&mut rng, &current, Some(old), Some(id))], remove: vec![id] }
        };
        current = current.apply_delta(&delta).expect("edit_stream keeps the scene valid").obstacles;
        stream.push(delta);
    }
    stream
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_disjoint_and_sized() {
        for n in [1, 5, 40, 150] {
            let w = uniform_disjoint(n, 7);
            assert_eq!(w.n(), n);
            assert!(w.obstacles.validate_disjoint().is_ok());
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = uniform_disjoint(30, 42);
        let b = uniform_disjoint(30, 42);
        assert_eq!(a.obstacles.rects(), b.obstacles.rects());
        let c = uniform_disjoint(30, 43);
        assert_ne!(a.obstacles.rects(), c.obstacles.rects());
    }

    #[test]
    fn clustered_and_aspect_and_corridors_are_disjoint() {
        assert!(clustered(60, 4, 1).obstacles.validate_disjoint().is_ok());
        assert!(aspect_stress(50, 2).obstacles.validate_disjoint().is_ok());
        let w = corridors(10, 100, 3);
        assert!(w.obstacles.validate_disjoint().is_ok());
        assert!(w.n() >= 10);
    }

    #[test]
    fn touching_lattice_is_disjoint_sized_and_touching() {
        for (n, seed) in [(1usize, 1u64), (9, 2), (25, 3), (64, 4)] {
            let w = touching_lattice(n, seed);
            assert_eq!(w.n(), n);
            assert!(w.obstacles.validate_disjoint().is_ok());
        }
        // Larger lattices always contain contacts: a shared corner or a
        // collinear shared edge segment between two rectangles.
        let w = touching_lattice(64, 5);
        let rects = w.obstacles.rects();
        let touching = rects.iter().enumerate().any(|(i, a)| {
            rects[i + 1..].iter().any(|b| {
                let xs = a.xmin.max(b.xmin) <= a.xmax.min(b.xmax);
                let ys = a.ymin.max(b.ymin) <= a.ymax.min(b.ymax);
                xs && ys
            })
        });
        assert!(touching, "no two rectangles touch");
        assert_eq!(touching_lattice(30, 9).obstacles.rects(), touching_lattice(30, 9).obstacles.rects());
    }

    #[test]
    fn query_pairs_avoid_interiors() {
        let w = uniform_disjoint(25, 9);
        let qs = query_pairs(&w.obstacles, 50, false, 11);
        assert_eq!(qs.len(), 50);
        for (a, b) in qs {
            assert!(w.obstacles.containing_obstacle(a).is_none());
            assert!(w.obstacles.containing_obstacle(b).is_none());
        }
        let vs = query_pairs(&w.obstacles, 20, true, 12);
        let vertices = w.obstacles.vertices();
        for (a, b) in vs {
            assert!(vertices.contains(&a) && vertices.contains(&b));
        }
    }

    #[test]
    fn edit_streams_replay_validly_on_every_base_family() {
        for base in [
            uniform_disjoint(20, 3).obstacles,
            clustered(24, 3, 4).obstacles,
            corridors(6, 60, 5).obstacles,
            touching_lattice(20, 6).obstacles,
        ] {
            let stream = edit_stream(&base, 40, 11);
            assert_eq!(stream.len(), 40);
            let mut scene = base.clone();
            for delta in &stream {
                scene = scene.apply_delta(delta).expect("every step applies cleanly").obstacles;
                assert!(scene.validate_disjoint().is_ok());
            }
        }
    }

    #[test]
    fn edit_streams_are_deterministic_and_mixed() {
        let base = uniform_disjoint(16, 7).obstacles;
        assert_eq!(edit_stream(&base, 30, 9), edit_stream(&base, 30, 9));
        assert_ne!(edit_stream(&base, 30, 9), edit_stream(&base, 30, 10));
        let stream = edit_stream(&base, 60, 9);
        // All three edit kinds occur: pure inserts, pure removals, and moves
        // (remove + insert in one delta).
        assert!(stream.iter().any(|d| !d.insert.is_empty() && d.remove.is_empty()));
        assert!(stream.iter().any(|d| d.insert.is_empty() && !d.remove.is_empty()));
        assert!(stream.iter().any(|d| !d.insert.is_empty() && !d.remove.is_empty()));
        // Deltas serialise (they travel over the rsp-server wire).
        let json = serde_json::to_string(&stream).unwrap();
        let back: Vec<SceneDelta> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stream);
    }

    #[test]
    fn workload_serialises() {
        let w = uniform_disjoint(10, 5);
        let json = serde_json::to_string(&w).unwrap();
        let back: Workload = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n(), 10);
        assert_eq!(back.obstacles.rects(), w.obstacles.rects());
    }
}
