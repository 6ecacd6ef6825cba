//! Determinism certification for the work-stealing scheduler: every Router
//! engine must return **bitwise-identical** distances and paths no matter
//! how many worker threads serve the session.  This is what lets one engine
//! serve every pool size: a one-worker pool is the sequential schedule, and
//! any scheduling-order leak (a non-associative reduction, an
//! iteration-order-dependent tie-break, a racy write) shows up here as a
//! cross-thread-count diff.
//!
//! Seeded scenes cover the four workload families (uniform, clustered,
//! corridors, touching lattice); a property-based sweep then fuzzes scene
//! shape and mixed vertex/arbitrary batches.

use proptest::prelude::*;
use rectilinear_shortest_paths::workload::{clustered, corridors, query_pairs, touching_lattice, uniform_disjoint};
use rectilinear_shortest_paths::{Dist, Engine, ObstacleSet, Point, RectiPath, Router, StoreKind};

/// Distance stores under test: the dense matrix and an implicit store with a
/// deliberately tiny budget (two rows), so eviction churn and lazy
/// materialisation order are both exercised.
fn store_kinds(obstacles: &ObstacleSet) -> [StoreKind; 2] {
    let row_bytes = 4 * obstacles.len() * std::mem::size_of::<Dist>();
    [StoreKind::Dense, StoreKind::Implicit { budget_bytes: 2 * row_bytes }]
}

/// Thread counts under test: sequential, minimal parallelism, and the full
/// machine (deduplicated on small machines).
fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).max(2);
    let mut counts = vec![1, 2, max];
    counts.dedup();
    counts
}

/// A deliberately mixed batch: arbitrary free pairs, vertex pairs, and
/// half-snapped pairs, interleaved.
fn mixed_batch(obstacles: &ObstacleSet, seed: u64) -> Vec<(Point, Point)> {
    let mut pairs = query_pairs(obstacles, 12, false, seed);
    pairs.extend(query_pairs(obstacles, 12, true, seed + 1));
    let verts = obstacles.vertices();
    if !verts.is_empty() {
        for (i, &(a, _)) in query_pairs(obstacles, 6, false, seed + 2).iter().enumerate() {
            pairs.push((a, verts[(i * 7) % verts.len()]));
        }
    }
    pairs
}

/// Distances and paths served by one engine at one thread count with one
/// distance store.
fn serve(
    obstacles: &ObstacleSet,
    engine: Engine,
    threads: usize,
    store: StoreKind,
    pairs: &[(Point, Point)],
    vertex_pairs: &[(Point, Point)],
) -> (Vec<Dist>, Vec<RectiPath>) {
    let router =
        Router::builder(obstacles.clone()).engine(engine).threads(threads).store(store).build().expect("valid scene");
    let distances = router.distances(pairs).expect("distance batch");
    let paths = router.paths(vertex_pairs).expect("path batch");
    (distances, paths)
}

#[test]
fn every_engine_is_bitwise_deterministic_across_thread_counts() {
    let scenes = [
        ("uniform", uniform_disjoint(7, 4).obstacles),
        ("clustered", clustered(6, 2, 9).obstacles),
        ("corridors", corridors(3, 40, 11).obstacles),
        ("touching", touching_lattice(9, 5).obstacles),
    ];
    for (name, obstacles) in scenes {
        let pairs = mixed_batch(&obstacles, 77);
        let vertex_pairs = query_pairs(&obstacles, 10, true, 99);
        for engine in [Engine::Sweep, Engine::HananBaseline] {
            // One reference per engine, shared across the thread-count AND
            // store matrix: thread scheduling must not move an answer, and
            // neither may the implicit store's lazy materialisation /
            // eviction order.
            let mut reference: Option<(Vec<Dist>, Vec<RectiPath>)> = None;
            for threads in thread_counts() {
                for store in store_kinds(&obstacles) {
                    let result = serve(&obstacles, engine, threads, store, &pairs, &vertex_pairs);
                    match &reference {
                        None => reference = Some(result),
                        Some((dist0, paths0)) => {
                            assert_eq!(
                                &result.0, dist0,
                                "{name}/{engine:?}/{store:?}: distances diverge at {threads} threads"
                            );
                            assert_eq!(
                                &result.1, paths0,
                                "{name}/{engine:?}/{store:?}: paths diverge at {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Delta-built sessions are part of the determinism contract too: after a
/// scene edit ([`Router::apply_delta`]), every engine × thread count × store
/// must serve the *edited* scene bitwise-identically — the carried
/// substructures (distance rows, escape staircases, slab columns) must not
/// leak any base-epoch or scheduling-order artifact into an answer.
#[test]
fn edited_sessions_are_bitwise_deterministic_across_the_matrix() {
    use rectilinear_shortest_paths::workload::edit_stream;
    let base = uniform_disjoint(7, 31).obstacles;
    let delta = &edit_stream(&base, 1, 17)[0];
    let edited_scene = base.apply_delta(delta).expect("stream delta applies").obstacles;
    let pairs = mixed_batch(&edited_scene, 55);
    let vertex_pairs = query_pairs(&edited_scene, 10, true, 66);
    for engine in [Engine::Sweep, Engine::HananBaseline] {
        let mut reference: Option<(Vec<Dist>, Vec<RectiPath>)> = None;
        for threads in thread_counts() {
            for store in store_kinds(&base) {
                let parent = Router::builder(base.clone())
                    .engine(engine)
                    .threads(threads)
                    .store(store)
                    .build()
                    .expect("valid scene");
                // Warm the parent so the delta build has something to carry.
                let _ = parent.distances(&query_pairs(&base, 4, true, 7)).expect("warm batch");
                let session = parent.apply_delta(delta).expect("edit applies");
                let result = (
                    session.distances(&pairs).expect("distance batch"),
                    session.paths(&vertex_pairs).expect("path batch"),
                );
                match &reference {
                    None => reference = Some(result),
                    Some((dist0, paths0)) => {
                        assert_eq!(
                            &result.0, dist0,
                            "edited {engine:?}/{store:?}: distances diverge at {threads} threads"
                        );
                        assert_eq!(
                            &result.1, paths0,
                            "edited {engine:?}/{store:?}: paths diverge at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fuzzed scenes and batches: for every engine, a 2-thread and a
    /// max-thread session must reproduce the single-thread session bit for
    /// bit (distances and vertex-pair paths).
    #[test]
    fn engines_reproduce_single_thread_results_on_random_scenes(
        n in 2usize..7,
        scene_seed in any::<u64>(),
        batch_seed in any::<u64>(),
    ) {
        let obstacles = uniform_disjoint(n, scene_seed).obstacles;
        let pairs = mixed_batch(&obstacles, batch_seed);
        let vertex_pairs = query_pairs(&obstacles, 6, true, batch_seed + 7);
        prop_assume!(!pairs.is_empty());
        for engine in [Engine::Sweep, Engine::HananBaseline] {
            let baseline = serve(&obstacles, engine, 1, StoreKind::Dense, &pairs, &vertex_pairs);
            for threads in thread_counts().into_iter().skip(1) {
                for store in store_kinds(&obstacles) {
                    let parallel = serve(&obstacles, engine, threads, store, &pairs, &vertex_pairs);
                    prop_assert_eq!(&parallel.0, &baseline.0);
                    prop_assert_eq!(&parallel.1, &baseline.1);
                }
            }
        }
    }
}
