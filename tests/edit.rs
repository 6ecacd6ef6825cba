//! Certification of incremental scene editing ([`Router::apply_delta`]):
//! a session built by delta rebuild must be **bitwise-identical** — every
//! distance and every reported path — to a session built from scratch on
//! the edited scene, after *every* step of an edit stream, for every engine,
//! both distance stores, and multiple thread counts.  This is what licenses
//! the delta path's substructure reuse (carried distance rows, escape
//! staircases and ray-shooting slab columns) as a pure optimisation.
//!
//! The reuse itself is certified separately: a far single-rectangle edit on
//! a large scene must carry >90% of the slab columns and >90% of the
//! resident implicit rows, and the scene hash must be delta-consistent
//! (insert-then-remove restores it), so content-addressed session caches
//! (`rsp-server`) resolve edits back to identical ids.

use proptest::prelude::*;
use rectilinear_shortest_paths::workload::{edit_stream, query_pairs, touching_lattice, uniform_disjoint};
use rectilinear_shortest_paths::{Dist, Engine, ObstacleSet, Rect, Router, SceneDelta, StoreKind};

/// Distance stores under test: the dense matrix and an implicit store with a
/// deliberately tiny budget (two rows), so the delta carry also runs under
/// eviction pressure.
fn store_kinds(obstacles: &ObstacleSet) -> [StoreKind; 2] {
    let row_bytes = 4 * obstacles.len() * std::mem::size_of::<Dist>();
    [StoreKind::Dense, StoreKind::Implicit { budget_bytes: 2 * row_bytes.max(64) }]
}

/// Assert the delta-built `edited` session answers exactly like the
/// from-scratch `fresh` session on `scene`: arbitrary-point distances,
/// vertex distances and vertex-pair paths.
fn assert_bitwise_equal(edited: &Router, fresh: &Router, scene: &ObstacleSet, seed: u64, label: &str) {
    let mut pairs = query_pairs(scene, 8, false, seed);
    pairs.extend(query_pairs(scene, 8, true, seed + 1));
    assert_eq!(
        edited.distances(&pairs).expect("edited distances"),
        fresh.distances(&pairs).expect("fresh distances"),
        "{label}: distances diverge"
    );
    let vertex_pairs = query_pairs(scene, 8, true, seed + 2);
    assert_eq!(
        edited.paths(&vertex_pairs).expect("edited paths"),
        fresh.paths(&vertex_pairs).expect("fresh paths"),
        "{label}: paths diverge"
    );
}

/// The full certification matrix: scene families × engines × stores ×
/// thread counts, walked along one seeded edit stream per family, comparing
/// after **every** step.  Each epoch is warmed with a query batch before the
/// next edit so the delta build has substructures to carry (a cold
/// `apply_delta` would just build fresh).  The edited sessions' lengths are
/// also checked against a fresh Hanan-grid comparator at every step.
#[test]
fn edit_streams_stay_bitwise_faithful_for_every_engine_store_and_thread_count() {
    for base in [uniform_disjoint(8, 42).obstacles, touching_lattice(9, 42).obstacles] {
        edit_matrix(&base, &edit_stream(&base, 6, 7));
    }
}

fn edit_matrix(base: &ObstacleSet, stream: &[SceneDelta]) {
    for engine in [Engine::Sweep, Engine::HananBaseline] {
        for store in store_kinds(base) {
            for threads in [1usize, 2] {
                let build = |obstacles: ObstacleSet| {
                    Router::builder(obstacles)
                        .engine(engine)
                        .store(store)
                        .threads(threads)
                        .build()
                        .expect("valid scene")
                };
                let mut session = build(base.clone());
                let mut scene = base.clone();
                for (step, delta) in stream.iter().enumerate() {
                    // Warm the current epoch, then edit.
                    let warm = query_pairs(&scene, 4, true, step as u64);
                    let _ = session.distances(&warm).expect("warm batch");
                    session = session.apply_delta(delta).expect("stream deltas stay valid");
                    scene = scene.apply_delta(delta).expect("stream deltas stay valid").obstacles;
                    assert_eq!(session.epoch(), step as u64 + 1);
                    let fresh = build(scene.clone());
                    let label = format!("{engine:?}/{store:?}/{threads}t/step {step}");
                    assert_bitwise_equal(&session, &fresh, &scene, 1000 + step as u64, &label);
                    let hanan = Router::builder(scene.clone()).engine(Engine::HananBaseline).build().expect("valid");
                    let pairs = query_pairs(&scene, 8, false, 2000 + step as u64);
                    assert_eq!(
                        session.distances(&pairs),
                        hanan.distances(&pairs),
                        "{label}: lengths differ from Hanan"
                    );
                }
            }
        }
    }
}

/// A long (32-edit) stream on one configuration, certifying that epochs
/// chain indefinitely and reuse accounting only ever grows.
#[test]
fn a_32_edit_stream_chains_epochs() {
    let base = uniform_disjoint(10, 5).obstacles;
    let stream = edit_stream(&base, 32, 21);
    let mut session = Router::new(base.clone()).expect("valid scene");
    let mut scene = base;
    for (step, delta) in stream.iter().enumerate() {
        let warm = query_pairs(&scene, 2, true, step as u64);
        let _ = session.distances(&warm).expect("warm batch");
        session = session.apply_delta(delta).expect("stream deltas stay valid");
        scene = scene.apply_delta(delta).expect("stream deltas stay valid").obstacles;
    }
    assert_eq!(session.epoch(), 32);
    let fresh = Router::new(scene.clone()).expect("valid scene");
    assert_bitwise_equal(&session, &fresh, &scene, 99, "32-edit chain");
}

/// Reuse accounting on a large scene: a single far-away inserted rectangle
/// must leave >90% of the ray-shooting slab columns and >90% of the resident
/// implicit distance rows untouched — the delta build provably cannot be
/// doing linear re-derivation work for a constant-size far edit.
#[test]
fn far_single_rect_edit_reuses_slab_columns_and_resident_rows() {
    let n = 512;
    let base = uniform_disjoint(n, 13).obstacles;
    let row_bytes = 4 * n * std::mem::size_of::<Dist>();
    let budget = 160 * row_bytes;
    let parent =
        Router::builder(base.clone()).store(StoreKind::Implicit { budget_bytes: budget }).build().expect("valid scene");
    // Materialise ~128 rows.
    let verts = base.vertices();
    for i in 0..128 {
        let _ = parent.vertex_distance(verts[i * 7 % verts.len()], verts[(i * 11 + 3) % verts.len()]).unwrap();
    }
    let resident_rows = parent.memory_stats().resident_bytes / row_bytes;
    assert!(resident_rows >= 64, "warming materialised only {resident_rows} rows");
    // One small rectangle, far enough out that no in-scene pair's keep-test
    // can fail (the through-edit bound dwarfs every in-scene distance).
    let bbox = base.bbox().unwrap();
    let far = Rect::new(bbox.xmax + 4000, bbox.ymin, bbox.xmax + 4006, bbox.ymin + 6);
    let child = parent.apply_delta(&SceneDelta::inserting(vec![far])).expect("far insert is disjoint");
    // Force the delta oracle build so the counters fill.
    let new_verts = child.instance().obstacles().vertices();
    let _ = child.vertex_distance(new_verts[0], new_verts[17]).unwrap();
    let counts = child.build_counts();
    let slab_total = counts.slab_columns_reused + counts.slab_columns_rebuilt;
    assert!(
        counts.slab_columns_reused * 10 >= slab_total * 9,
        "slab columns: reused {} of {slab_total}",
        counts.slab_columns_reused
    );
    let row_total = counts.rows_reused + counts.rows_rebuilt;
    assert!(counts.rows_reused * 10 >= row_total * 9, "resident rows: carried {} of {row_total}", counts.rows_reused);
    assert!(counts.rows_reused as usize >= resident_rows * 9 / 10, "carried rows track the warmed residency");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Fuzzed bases and streams: a delta-built session (2 threads) must
    /// reproduce a from-scratch single-thread session bit for bit after
    /// every step, on both stores.
    #[test]
    fn random_edit_streams_stay_bitwise_faithful(
        n in 3usize..7,
        scene_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        edits in 1usize..5,
    ) {
        let base = uniform_disjoint(n, scene_seed).obstacles;
        let stream = edit_stream(&base, edits, stream_seed);
        for store in store_kinds(&base) {
            let mut session =
                Router::builder(base.clone()).store(store).threads(2).build().expect("valid scene");
            let mut scene = base.clone();
            for (step, delta) in stream.iter().enumerate() {
                let warm = query_pairs(&scene, 3, true, step as u64);
                let _ = session.distances(&warm).expect("warm batch");
                session = session.apply_delta(delta).expect("stream deltas stay valid");
                scene = scene.apply_delta(delta).expect("stream deltas stay valid").obstacles;
                let fresh =
                    Router::builder(scene.clone()).store(store).threads(1).build().expect("valid scene");
                let mut pairs = query_pairs(&scene, 6, false, 50 + step as u64);
                pairs.extend(query_pairs(&scene, 6, true, 60 + step as u64));
                prop_assert_eq!(session.distances(&pairs).unwrap(), fresh.distances(&pairs).unwrap());
                let vertex_pairs = query_pairs(&scene, 4, true, 70 + step as u64);
                prop_assert_eq!(session.paths(&vertex_pairs).unwrap(), fresh.paths(&vertex_pairs).unwrap());
            }
        }
    }

    /// Scene hashes are delta-consistent: inserting rectangles and then
    /// removing exactly those rectangles restores the original hash, so a
    /// content-addressed session cache resolves the round trip to the same
    /// scene id.
    #[test]
    fn insert_then_remove_round_trips_the_scene_hash(
        n in 1usize..10,
        scene_seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let base = uniform_disjoint(n, scene_seed).obstacles;
        let bbox = base.bbox().unwrap();
        // Far-flung distinct rectangles: disjoint from the scene and each other.
        let inserts: Vec<Rect> = (0..k as i64)
            .map(|i| Rect::new(bbox.xmax + 10 + 20 * i, bbox.ymin, bbox.xmax + 20 + 20 * i, bbox.ymin + 5))
            .collect();
        let applied = base.apply_delta(&SceneDelta::inserting(inserts)).unwrap();
        prop_assert!(applied.obstacles.scene_hash() != base.scene_hash());
        let undo = SceneDelta::removing((applied.first_inserted..applied.obstacles.len()).collect());
        let restored = applied.obstacles.apply_delta(&undo).unwrap().obstacles;
        prop_assert_eq!(restored.scene_hash(), base.scene_hash());
        prop_assert_eq!(restored.rects(), base.rects());
    }
}

/// Release-mode smoke (run with `--ignored`): a 64-edit stream over a
/// 1024-obstacle implicit-store scene.  Every edit must clear a per-edit
/// wall-clock budget for `apply_delta` + a first 8-query batch (the
/// edit→first-query path the delta rebuild exists to make sublinear), with
/// periodic bitwise spot checks against from-scratch builds.
#[test]
#[ignore = "release-mode smoke: large scene, run with --ignored"]
fn release_smoke_64_edits_at_n_1024() {
    use std::time::{Duration, Instant};
    let n = 1024;
    let base = uniform_disjoint(n, 3).obstacles;
    let stream = edit_stream(&base, 64, 9);
    let store = StoreKind::Implicit { budget_bytes: 64 << 20 };
    let mut session = Router::builder(base.clone()).store(store).build().expect("valid scene");
    let mut scene = base;
    // Warm epoch 0 fully (oracle + some rows).
    let warm = query_pairs(&scene, 64, true, 1);
    let _ = session.distances(&warm).expect("warm batch");
    let budget = Duration::from_secs(10);
    for (step, delta) in stream.iter().enumerate() {
        let start = Instant::now();
        session = session.apply_delta(delta).expect("stream deltas stay valid");
        scene = scene.apply_delta(delta).expect("stream deltas stay valid").obstacles;
        let pairs = query_pairs(&scene, 8, true, 100 + step as u64);
        let lengths = session.distances(&pairs).expect("first batch");
        let elapsed = start.elapsed();
        assert!(elapsed < budget, "edit {step}: edit->first-batch took {elapsed:?} (budget {budget:?})");
        if step % 16 == 15 {
            let fresh = Router::builder(scene.clone()).store(store).build().expect("valid scene");
            assert_eq!(lengths, fresh.distances(&pairs).expect("fresh batch"), "edit {step}: spot check diverged");
            let vertex_pairs = query_pairs(&scene, 4, true, 200 + step as u64);
            assert_eq!(
                session.paths(&vertex_pairs).expect("edited paths"),
                fresh.paths(&vertex_pairs).expect("fresh paths"),
                "edit {step}: path spot check diverged"
            );
        }
    }
    assert_eq!(session.epoch(), 64);
}
