//! Cross-crate integration tests: generator → builders → oracle → path
//! reporter, validated against the Hanan-grid ground truth.

use rectilinear_shortest_paths::core::apsp::VertexApsp;
use rectilinear_shortest_paths::core::baseline::dijkstra_sssp_matrix;
use rectilinear_shortest_paths::core::bigp::BigPolygonStructure;
use rectilinear_shortest_paths::core::dnc::{build_boundary_matrix_bbox, DncOptions};
use rectilinear_shortest_paths::core::query::PathLengthOracle;
use rectilinear_shortest_paths::core::separator::find_separator_unbounded;
use rectilinear_shortest_paths::core::sptree::ShortestPathTrees;
use rectilinear_shortest_paths::core::tree::RecursionTree;
use rectilinear_shortest_paths::core::Instance;
use rectilinear_shortest_paths::geom::hanan::{ground_truth_distance, ground_truth_matrix};
use rectilinear_shortest_paths::geom::Point;
use rectilinear_shortest_paths::pram::pool::run_on_pool;
use rectilinear_shortest_paths::workload::{aspect_stress, clustered, corridors, query_pairs, uniform_disjoint};

#[test]
fn every_engine_agrees_on_uniform_instances() {
    for seed in 0..3u64 {
        let w = uniform_disjoint(9, seed);
        let obs = &w.obstacles;
        let verts = obs.vertices();
        let truth = ground_truth_matrix(obs, &verts);

        let apsp = VertexApsp::build(obs);
        let seq = run_on_pool(1, || VertexApsp::build(obs));
        let dij = dijkstra_sssp_matrix(obs);
        for i in 0..verts.len() {
            for j in 0..verts.len() {
                assert_eq!(apsp.distance(i, j), truth[i][j], "apsp {:?}->{:?}", verts[i], verts[j]);
                assert_eq!(seq.distance(i, j), truth[i][j]);
                assert_eq!(dij.get(i, j), truth[i][j]);
            }
        }
    }
}

#[test]
fn boundary_matrix_matches_truth_on_varied_workloads() {
    let workloads = vec![uniform_disjoint(8, 11), clustered(8, 2, 3), aspect_stress(7, 4), corridors(3, 40, 5)];
    for w in workloads {
        let bm = build_boundary_matrix_bbox(&w.obstacles, 3, &DncOptions::default());
        let truth = ground_truth_matrix(&w.obstacles, &bm.points);
        for (i, row) in truth.iter().enumerate() {
            for (j, &expected) in row.iter().enumerate() {
                assert_eq!(bm.dist.get(i, j), expected, "{}: {:?} -> {:?}", w.name, bm.points[i], bm.points[j]);
            }
        }
    }
}

#[test]
fn oracle_and_paths_end_to_end() {
    let w = uniform_disjoint(10, 42);
    let obs = &w.obstacles;
    let inst = Instance::with_margin(obs.clone(), 5);
    assert!(inst.validate().is_ok());

    let oracle = PathLengthOracle::build(obs);
    // arbitrary-point queries
    for (a, b) in query_pairs(obs, 60, false, 1) {
        assert_eq!(oracle.distance(a, b), ground_truth_distance(obs, a, b), "{:?} {:?}", a, b);
    }
    // actual paths certify their lengths
    let verts = obs.vertices();
    let sources = vec![verts[0], verts[13], verts[27]];
    let trees = ShortestPathTrees::build(obs, Some(&sources));
    for &s in &sources {
        for &t in verts.iter().step_by(4) {
            let d = oracle.vertex_distance(s, t).unwrap();
            let path = trees.path_between(s, t).unwrap();
            assert!(path.certifies(obs, s, t, d));
        }
    }
}

#[test]
fn separator_theorem_holds_across_workload_families() {
    for (tag, obs) in [
        ("uniform", uniform_disjoint(64, 7).obstacles),
        ("clustered", clustered(64, 4, 8).obstacles),
        ("aspect", aspect_stress(48, 9).obstacles),
    ] {
        let n = obs.len();
        let sep = find_separator_unbounded(&obs).expect("separator");
        assert!(sep.is_theorem2_balanced(n), "{tag}: {} of {}", sep.max_side(), n);
        assert!(sep.chain.num_segments() <= 2 * n + 4, "{tag}");
        assert!(sep.chain.is_staircase(), "{tag}");
    }
}

#[test]
fn recursion_tree_partitions_obstacles() {
    let w = uniform_disjoint(30, 2);
    let tree = RecursionTree::build(&w.obstacles);
    let leaf_total: usize = tree.nodes.iter().filter(|n| n.children.is_empty()).map(|n| n.obstacle_ids.len()).sum();
    assert_eq!(leaf_total, 30);
}

#[test]
fn big_polygon_structure_is_consistent_with_oracle() {
    let w = uniform_disjoint(10, 77);
    let obs = &w.obstacles;
    let container = obs.bbox().unwrap().expand(25);
    let big = BigPolygonStructure::build(obs, container, 10_000);
    let oracle = PathLengthOracle::build(obs);
    let boundary_samples = [
        Point::new(container.xmin, container.ymin + 11),
        Point::new(container.xmax, container.ymax - 3),
        Point::new(container.xmin + 17, container.ymax),
        container.lr(),
    ];
    for &p in &boundary_samples {
        for &t in obs.vertices().iter().step_by(5) {
            assert_eq!(big.boundary_distance(p, t), oracle.distance(p, t), "{:?} -> {:?}", p, t);
        }
    }
    assert!(big.implicit_entries() < 10_000 * 10_000 / 100);
}
