//! Baselines and ground truth.
//!
//! * [`ground_truth_distance`] / [`ground_truth_matrix`] — Hanan-grid
//!   Dijkstra, the exact oracle every engine in the workspace is validated
//!   against.  This plays the role of an external reference implementation;
//!   it is not part of the paper's algorithm.
//! * [`dijkstra_sssp_matrix`] — an intentionally naive all-pairs baseline
//!   (full Hanan-grid Dijkstra per source) used to show the gap to the
//!   paper's approach on small inputs.

use crate::instance::Instance;
use rayon::prelude::*;
use rsp_geom::hanan::HananGrid;
use rsp_geom::{Dist, ObstacleSet, Point};
use rsp_monge::MinPlusMatrix;

pub use rsp_geom::hanan::{ground_truth_distance, ground_truth_matrix};

/// Ground-truth distance between two arbitrary points of an instance.
pub fn instance_ground_truth(instance: &Instance, a: Point, b: Point) -> Dist {
    ground_truth_distance(instance.obstacles(), a, b)
}

/// All-pairs vertex matrix by running a full Hanan-grid Dijkstra per source
/// (parallel over sources).  Quadratic-size graph per source, so
/// `O(n^3 log n)` work in total — the "don't do this" baseline.
pub fn dijkstra_sssp_matrix(obstacles: &ObstacleSet) -> MinPlusMatrix {
    let vertices = obstacles.vertices();
    let grid = HananGrid::build(obstacles, &vertices);
    let rows: Vec<Vec<Dist>> = vertices.par_iter().map(|&v| grid.distances_to(v, &vertices)).collect();
    MinPlusMatrix::from_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::Rect;

    fn obstacles() -> ObstacleSet {
        ObstacleSet::new(vec![Rect::new(0, 0, 3, 3), Rect::new(5, 1, 8, 6), Rect::new(2, 8, 9, 10)])
    }

    #[test]
    fn baselines_agree_with_each_other() {
        let obs = obstacles();
        let fast = crate::apsp::VertexApsp::build_sequential(&obs);
        let slow = dijkstra_sssp_matrix(&obs);
        assert_eq!(fast.matrix().expect("dense build"), &slow);
    }

    #[test]
    fn instance_ground_truth_wrapper() {
        let inst = Instance::with_margin(obstacles(), 5);
        let d = instance_ground_truth(&inst, Point::new(-1, -1), Point::new(9, 7));
        assert_eq!(d, ground_truth_distance(inst.obstacles(), Point::new(-1, -1), Point::new(9, 7)));
        assert!(d >= Point::new(-1, -1).l1(Point::new(9, 7)));
    }
}
