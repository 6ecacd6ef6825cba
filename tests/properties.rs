//! Property-based tests (proptest) over the workspace's core invariants.

use proptest::prelude::*;
use rectilinear_shortest_paths::core::dnc::one_rect_distance;
use rectilinear_shortest_paths::core::query::PathLengthOracle;
use rectilinear_shortest_paths::core::separator::find_separator_unbounded;
use rectilinear_shortest_paths::core::seq::SingleSourceEngine;
use rectilinear_shortest_paths::core::trace::chain_avoids_obstacles;
use rectilinear_shortest_paths::geom::hanan::{ground_truth_distance, HananGrid};
use rectilinear_shortest_paths::geom::{Chain, ObstacleIndex, ObstacleSet, Point, Rect, INF};
use rectilinear_shortest_paths::monge::{is_monge, min_plus_naive, min_plus_parallel, MinPlusMatrix};
use rectilinear_shortest_paths::workload::{clustered, corridors, uniform_disjoint};

/// Strategy: a set of disjoint rectangles on a coarse grid.
fn obstacles_strategy(max_n: usize) -> impl Strategy<Value = ObstacleSet> {
    (1..=max_n, any::<u64>()).prop_map(|(n, seed)| uniform_disjoint(n, seed).obstacles)
}

/// Strategy: rectangles on a 5-wide lattice of 6-unit cells, each cell empty
/// or holding one rectangle of side 2..=6 anchored in its lower-left,
/// lower-right or upper-right corner — so neighbours share corners and
/// collinear edges (disjoint by construction).
fn touching_scene_strategy() -> impl Strategy<Value = ObstacleSet> {
    proptest::collection::vec((0u8..4, 2i64..=6, 2i64..=6), 4..=25).prop_map(|cells| {
        let rects = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.0 != 0)
            .map(|(k, &(anchor, w, h))| {
                let (x0, y0) = (6 * (k % 5) as i64, 6 * (k / 5) as i64);
                let (x, y) = match anchor {
                    1 => (x0, y0),
                    2 => (x0 + 6 - w, y0),
                    _ => (x0 + 6 - w, y0 + 6 - h),
                };
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        ObstacleSet::new(rects)
    })
}

fn sorted_coords(len: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-300i64..300, 1..=len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2: the separator never cuts an obstacle, is a staircase, has
    /// O(n) segments and respects the 7n/8 balance bound.
    #[test]
    fn separator_properties(obs in obstacles_strategy(40)) {
        prop_assume!(obs.len() >= 2);
        let sep = find_separator_unbounded(&obs).unwrap();
        prop_assert!(chain_avoids_obstacles(&sep.chain, &obs));
        prop_assert!(sep.chain.is_staircase());
        prop_assert!(sep.chain.num_segments() <= 2 * obs.len() + 4);
        prop_assert!(sep.is_theorem2_balanced(obs.len()));
        prop_assert_eq!(sep.above.len() + sep.below.len(), obs.len());
    }

    /// Lemma 3: the (min,+) product of Monge matrices computed via SMAWK
    /// equals the naive product and is again Monge.
    #[test]
    fn monge_product_properties(xs in sorted_coords(12), ys in sorted_coords(10), zs in sorted_coords(14), gap in 0i64..40) {
        let a = MinPlusMatrix::from_fn(xs.len(), ys.len(), |i, j| (xs[i] - ys[j]).abs() + gap);
        let b = MinPlusMatrix::from_fn(ys.len(), zs.len(), |i, j| (ys[i] - zs[j]).abs() + gap);
        prop_assert!(is_monge(&a));
        prop_assert!(is_monge(&b));
        let fast = min_plus_parallel(&a, &b);
        prop_assert_eq!(&fast, &min_plus_naive(&a, &b));
        prop_assert!(is_monge(&fast));
    }

    /// The single-rectangle closed form matches the exact oracle.
    #[test]
    fn one_rect_distance_is_exact(
        rx in -50i64..50, ry in -50i64..50, w in 1i64..40, h in 1i64..40,
        px in -100i64..100, py in -100i64..100, qx in -100i64..100, qy in -100i64..100,
    ) {
        let r = Rect::new(rx, ry, rx + w, ry + h);
        let p = Point::new(px, py);
        let q = Point::new(qx, qy);
        prop_assume!(!r.contains_open(p) && !r.contains_open(q));
        let obs = ObstacleSet::new(vec![r]);
        prop_assert_eq!(one_rect_distance(&r, p, q), ground_truth_distance(&obs, p, q));
    }

    /// Single-source distances are a metric-consistent upper bound family:
    /// symmetric, zero on the diagonal, never below L1, and exact versus the
    /// Hanan ground truth.
    #[test]
    fn single_source_engine_is_exact(obs in obstacles_strategy(8), sx in -20i64..200, sy in -20i64..200) {
        let source = Point::new(sx, sy);
        prop_assume!(obs.containing_obstacle(source).is_none());
        let engine = SingleSourceEngine::new(&obs);
        let dist = engine.distances_from(source);
        for (i, &v) in engine.vertices().iter().enumerate() {
            prop_assert!(dist[i] >= source.l1(v));
            prop_assert_eq!(dist[i], ground_truth_distance(&obs, source, v));
        }
    }

    /// The §9 sweep agrees with a Hanan-grid Dijkstra on scenes full of
    /// shared corners and collinear edges, for four kinds of source: a
    /// vertex, any point of the bounding box (a source strictly inside an
    /// obstacle reaches nothing), a point outside the box (the widened-region
    /// branch) and a point on an obstacle's boundary.
    #[test]
    fn single_source_rows_match_hanan_on_touching_scenes(
        obs in touching_scene_strategy(),
        vertex in any::<usize>(),
        ix in 0i64..=1000,
        iy in 0i64..=1000,
        sector in 0usize..8,
        gap in 1i64..40,
        rect in any::<usize>(),
        edge in 0u8..4,
        along in 0i64..=1000,
    ) {
        prop_assume!(!obs.is_empty());
        let verts = obs.vertices();
        let bbox = obs.bbox().unwrap();
        let inside = Point::new(bbox.xmin + ix * bbox.width() / 1000, bbox.ymin + iy * bbox.height() / 1000);
        // The eight sectors around the box, skipping the box itself.
        let (sx, sy) = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)][sector];
        let outside = Point::new(
            [bbox.xmin - gap, inside.x, bbox.xmax + gap][sx],
            [bbox.ymin - gap, inside.y, bbox.ymax + gap][sy],
        );
        let r = obs.rect(rect % obs.len());
        let (bx, by) = (r.xmin + along * r.width() / 1000, r.ymin + along * r.height() / 1000);
        let boundary = match edge {
            0 => Point::new(bx, r.ymin),
            1 => Point::new(bx, r.ymax),
            2 => Point::new(r.xmin, by),
            _ => Point::new(r.xmax, by),
        };
        let engine = SingleSourceEngine::new(&obs);
        for source in [verts[vertex % verts.len()], inside, outside, boundary] {
            let row = engine.distances_from(source);
            if obs.containing_obstacle(source).is_some() {
                prop_assert!(row.iter().all(|&d| d == INF), "{:?} is inside an obstacle", source);
                continue;
            }
            let truth = HananGrid::build(&obs, &[source]).distances_to(source, &verts);
            prop_assert!(row == truth, "source {:?} in {:?}: sweep {:?} vs Hanan {:?}", source, obs.rects(), row, truth);
        }
    }

    /// Oracle queries are symmetric, satisfy the triangle inequality over a
    /// sampled midpoint set, and never beat the L1 lower bound.
    #[test]
    fn oracle_metric_properties(obs in obstacles_strategy(6), ax in -10i64..150, ay in -10i64..150, bx in -10i64..150, by in -10i64..150) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        prop_assume!(obs.containing_obstacle(a).is_none() && obs.containing_obstacle(b).is_none());
        let oracle = PathLengthOracle::build(&obs);
        let d_ab = oracle.distance(a, b);
        prop_assert_eq!(d_ab, oracle.distance(b, a));
        prop_assert!(d_ab >= a.l1(b));
        prop_assert_eq!(oracle.distance(a, a), 0);
        for &m in obs.vertices().iter().take(6) {
            prop_assert!(d_ab <= oracle.distance(a, m) + oracle.distance(m, b));
        }
    }

    /// The staircase binary search behind `Chain::intersect_*` agrees with
    /// the linear reference scan on random monotone staircases, across every
    /// vertex coordinate, the gaps between them, and points beyond the ends.
    #[test]
    fn staircase_line_intersections_match_linear_scan(
        xs in sorted_coords(40),
        ys in sorted_coords(40),
        decreasing in any::<bool>(),
    ) {
        let mut xs = xs;
        let mut ys = ys;
        xs.dedup();
        ys.dedup();
        let k = xs.len().min(ys.len());
        prop_assume!(k >= 2);
        let mut pts = Vec::with_capacity(2 * k);
        for i in 0..k {
            let y = if decreasing { -ys[i] } else { ys[i] };
            pts.push(Point::new(xs[i], y));
            if i + 1 < k {
                pts.push(Point::new(xs[i + 1], y));
            }
        }
        let chain = Chain::new(pts);
        prop_assert!(chain.is_staircase());
        let mut probes: Vec<i64> = xs.iter().chain(ys.iter()).flat_map(|&c| [c - 1, c, c + 1, -c]).collect();
        probes.push(-301);
        probes.push(301);
        for &c in &probes {
            prop_assert_eq!(chain.intersect_vertical(c), chain.intersect_vertical_linear(c));
            prop_assert_eq!(chain.intersect_horizontal(c), chain.intersect_horizontal_linear(c));
        }
    }

    /// `ObstacleIndex` containment and segment clearance agree with the
    /// naive `ObstacleSet` scans on all three seeded scene families,
    /// including probes strictly inside obstacles (where the two historical
    /// `segment_clear` implementations used to disagree).
    #[test]
    fn obstacle_index_matches_naive_scans(kind in 0usize..3, n in 2usize..24, seed in any::<u64>()) {
        let obs = match kind {
            0 => uniform_disjoint(n, seed).obstacles,
            1 => clustered(n, 3, seed).obstacles,
            _ => corridors(n.min(10), 40, seed).obstacles,
        };
        prop_assume!(!obs.is_empty());
        let index = ObstacleIndex::build(&obs);
        let bbox = obs.bbox().unwrap();
        let step = ((bbox.width().max(bbox.height())) / 9).max(1);
        let mut probes = Vec::new();
        for r in obs.iter().take(6) {
            probes.push(r.center());
            probes.push(r.ll());
            probes.push(Point::new(r.xmin, (r.ymin + r.ymax) / 2));
        }
        let mut x = bbox.xmin - 2;
        while x <= bbox.xmax + 2 {
            let mut y = bbox.ymin - 2;
            while y <= bbox.ymax + 2 {
                probes.push(Point::new(x, y));
                y += step;
            }
            x += step;
        }
        for &p in &probes {
            prop_assert_eq!(index.containing_obstacle(p), obs.containing_obstacle(p));
        }
        for (i, &a) in probes.iter().enumerate() {
            for &b in probes.iter().skip(i) {
                if a.x != b.x && a.y != b.y {
                    continue;
                }
                prop_assert_eq!(index.segment_clear(a, b), obs.segment_clear(a, b));
            }
        }
    }
}
