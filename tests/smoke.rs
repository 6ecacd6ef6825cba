//! Smoke test: the three independent engines — the O(n^2) sequential
//! construction of Section 9 (`seq`, `VertexApsp::build` on one worker), the
//! Hanan-grid Dijkstra baseline, and the divide-and-conquer `BoundaryMatrix`
//! of Section 5 — agree on shortest-path lengths for small seeded
//! `uniform_disjoint` workloads.

use rectilinear_shortest_paths::core::apsp::VertexApsp;
use rectilinear_shortest_paths::core::dnc::{build_boundary_matrix_bbox, DncOptions};
use rectilinear_shortest_paths::geom::hanan::{ground_truth_distance, ground_truth_matrix};
use rectilinear_shortest_paths::pram::pool::run_on_pool;
use rectilinear_shortest_paths::workload::uniform_disjoint;

#[test]
fn seq_baseline_and_dnc_agree_on_small_uniform_workloads() {
    for (n, seed) in [(4usize, 1u64), (6, 2), (8, 3)] {
        let w = uniform_disjoint(n, seed);
        let obs = &w.obstacles;
        let verts = obs.vertices();

        // Section 9 sequential engine vs the Hanan-grid Dijkstra baseline,
        // over all vertex pairs.
        let seq = run_on_pool(1, || VertexApsp::build(obs));
        let hanan = ground_truth_matrix(obs, &verts);
        for i in 0..verts.len() {
            for j in 0..verts.len() {
                assert_eq!(
                    seq.distance(i, j),
                    hanan[i][j],
                    "{}: seq vs hanan at {:?} -> {:?}",
                    w.name,
                    verts[i],
                    verts[j]
                );
            }
        }

        // Section 5 divide-and-conquer boundary matrix vs the same baseline,
        // over its boundary discretisation points (subsampled for speed).
        let bm = build_boundary_matrix_bbox(obs, 3, &DncOptions::default());
        for (i, &a) in bm.points.iter().enumerate().step_by(3) {
            for &b in bm.points.iter().skip(i).step_by(4) {
                let via_dnc = bm.distance_between(a, b).expect("boundary points are in the matrix");
                assert_eq!(via_dnc, ground_truth_distance(obs, a, b), "{}: dnc vs hanan at {a:?} -> {b:?}", w.name);
            }
        }
    }
}
