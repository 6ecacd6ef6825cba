//! `edit_eco`: writes beside reads, one caller, closed loop.
//!
//! A warm implicit `uniform_disjoint(1024)` session absorbs a seeded
//! `edit_stream` (in-scene inserts, removes and moves).  After each
//! `Router::apply_delta` it answers 16 vertex-pair nets.  This is the only
//! workload that reaches the keep-test, the row/chain/slab carry and
//! incremental validation.  The measured loop asks no `paths`: one call on
//! the implicit store takes from 10 ms to over 18 s (a tree build sweeps the
//! canonical row of every distance it misses), which left a run a few dozen
//! edits or fewer.  Traced edits ask one path on the new epoch, so tree
//! builds still show in the per-layer figures.  Primary: edit to first answer (the delta
//! plus the 16 nets); secondary: edit to acknowledgement (`apply_delta`
//! returning the new epoch's session, as `UpdateScene` answers).

use crate::common::{
    closed_loop, mismatches, mix, ms_since, reference_router, repeated_setup, uncertified, Ctx, Pairs, UnitDone,
};
use crate::probe::{self, ServedUnit};
use crate::report::Outcome;
use crate::trace::Tracer;
use rsp_core::router::Router;
use rsp_core::store::{StoreKind, StoreStats};
use rsp_geom::{Dist, ObstacleSet, Point, RectiPath, SceneDelta};
use rsp_workload::{edit_stream, query_pairs, uniform_disjoint};
use std::time::Instant;

pub const N: usize = 1024;
const NETS: usize = 16;
/// Paths a traced edit asks.
const TRACED_PATHS: usize = 1;
/// Edits generated up front; far more than a run gets through.
const STREAM: usize = 2000;
/// Every `CHECK_EVERY`-th edit is checked against a fresh build.
const CHECK_EVERY: u64 = 8;

/// The base scene, the edit stream, and the warm-up queries.
#[derive(Clone, Debug, PartialEq)]
pub struct EditInputs {
    pub base: ObstacleSet,
    pub stream: Vec<SceneDelta>,
    pub warm: Vec<(Point, Point)>,
}

pub fn inputs(seed: u64, edits: usize) -> EditInputs {
    let base = uniform_disjoint(N, mix(seed, 0)).obstacles;
    let stream = edit_stream(&base, edits, mix(seed, 1));
    let warm = query_pairs(&base, NETS, true, mix(seed, 2));
    EditInputs { base, stream, warm }
}

/// Nets and path pairs asked after edit `k`, over the edited scene (path
/// pairs only when `traced`).
fn step_queries(seed: u64, k: u64, scene: &ObstacleSet, traced: bool) -> (Pairs, Pairs) {
    let s = mix(seed, 1000 + k);
    let paths = if traced { query_pairs(scene, TRACED_PATHS, true, s ^ 1) } else { Vec::new() };
    (query_pairs(scene, NETS, true, s), paths)
}

/// A warm session over the base scene: built, and its first nets answered.
fn warm_session(inputs: &EditInputs) -> Router {
    let router = Router::builder(inputs.base.clone()).build().expect("benchmark scenes are valid");
    router.distances(&inputs.warm).expect("warm-up nets");
    router
}

/// One step's answers and times.
struct Step {
    router: Option<Router>,
    lengths: Vec<Dist>,
    paths: Vec<RectiPath>,
    ack_ms: f64,
    first_ms: f64,
    paths_ms: f64,
    /// The new session's store counters right after the nets.
    first_answer_stats: StoreStats,
}

/// The timed unit: apply the delta, answer the nets, then the paths (only
/// traced edits ask any).
fn step(
    base: &Router,
    delta: &SceneDelta,
    nets: &[(Point, Point)],
    path_pairs: &[(Point, Point)],
    k: u64,
    tracer: Option<&mut Tracer>,
) -> Step {
    let mut tracer = tracer;
    let root = tracer.as_deref_mut().map(|t| t.enter("edit.first_answer", k));
    let t0 = Instant::now();
    let applied = tracer.as_deref_mut().map(|t| t.enter("delta.apply", k));
    let router = base.apply_delta(delta).ok();
    let ack_ms = ms_since(t0);
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), applied) {
        t.exit(id);
    }
    let lengths = router.as_ref().and_then(|r| r.distances(nets).ok()).unwrap_or_default();
    let first_ms = ms_since(t0);
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), root) {
        t.exit(id);
    }
    let first_answer_stats = router.as_ref().map(Router::memory_stats).unwrap_or_default();
    let root = tracer.as_deref_mut().map(|t| t.enter("edit.paths", k));
    let t1 = Instant::now();
    let paths = router.as_ref().and_then(|r| r.paths(path_pairs).ok()).unwrap_or_default();
    let paths_ms = ms_since(t1);
    if let (Some(t), Some(id)) = (tracer, root) {
        t.exit(id);
    }
    Step { router, lengths, paths, ack_ms, first_ms, paths_ms, first_answer_stats }
}

/// A step kept for checking after the loop.
struct Kept {
    scene: ObstacleSet,
    nets: Vec<(Point, Point)>,
    path_pairs: Vec<(Point, Point)>,
    lengths: Vec<Dist>,
    paths: Vec<RectiPath>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome { sizes: vec![N], ..Outcome::default() };
    outcome.config("scene", "uniform_disjoint n=1024, implicit store");
    outcome.config("per_edit", format!("{NETS} vertex-pair nets ({TRACED_PATHS} path when traced)"));
    outcome.config("callers", 1);
    let inputs = inputs(ctx.seed, STREAM);
    let mut router = repeated_setup(&mut outcome, || warm_session(&inputs));
    let mut scene = inputs.base.clone();
    let store_ok = matches!(router.store_kind(), StoreKind::Implicit { .. });

    let mut tracer = ctx.traced.then(|| Tracer::new(Instant::now()));
    let mut ack = Vec::new();
    let mut first = Vec::new();
    let mut paths_ms = Vec::new();
    let mut kept: Vec<Kept> = Vec::new();
    let mut failed_steps = 0u64;
    let (traced_units, overhead_ms) = closed_loop(
        ctx,
        |_| true,
        |k, tracing| {
            let delta = &inputs.stream[k as usize];
            let next_scene = scene.apply_delta(delta).expect("edit_stream deltas apply").obstacles;
            let (nets, path_pairs) = step_queries(ctx.seed, k, &next_scene, tracing);
            let unit = step(&router, delta, &nets, &path_pairs, k, tracer.as_mut().filter(|_| tracing));
            ack.push(unit.ack_ms);
            first.push(unit.first_ms);
            if !path_pairs.is_empty() {
                paths_ms.push(unit.paths_ms);
            }
            let traced = match (tracer.as_mut().filter(|_| tracing), &unit.router) {
                (Some(t), Some(edited)) => {
                    let replayed = ServedUnit {
                        obstacles: &next_scene,
                        pairs: &nets,
                        path_pairs: &path_pairs,
                        router: edited,
                        first_answer_stats: unit.first_answer_stats,
                        edit: Some((&scene, delta)),
                    };
                    probe::session_replay(t, k, &replayed);
                    true
                }
                _ => false,
            };
            let overhead_ms = Some(unit.first_ms);
            let Some(next) = unit.router else {
                failed_steps += 1;
                return UnitDone { overhead_ms, traced, last: true };
            };
            if k.is_multiple_of(CHECK_EVERY) {
                kept.push(Kept {
                    scene: next_scene.clone(),
                    nets,
                    path_pairs,
                    lengths: unit.lengths,
                    paths: unit.paths,
                });
            }
            router = next;
            scene = next_scene;
            UnitDone { overhead_ms, traced, last: k as usize + 1 == inputs.stream.len() }
        },
    );
    outcome.peak_rss_mib = crate::sys::peak_rss_mib();
    drop(router);
    outcome.primary_ms = first.clone();
    outcome.secondary_ms = ack.clone();
    let loop_ms: f64 = first.iter().chain(&paths_ms).sum();
    outcome.figure("edit.edits_per_s", "1/s", first.len() as f64 / (loop_ms / 1e3), "closed loop, 1 caller");
    outcome.timing("edit.first_answer", "ms", &first);
    outcome.timing("edit.ack", "us", &ack);
    if !paths_ms.is_empty() {
        outcome.timing("edit.paths", "ms", &paths_ms);
    }
    outcome.figure("edit.steps_checked", "count", kept.len() as f64, "edits checked against a fresh build");

    // Spot checks against a fresh, separate build of the edited scene.
    outcome.attempted = first.len() as u64;
    outcome.failed = failed_steps + u64::from(!store_ok);
    for step in &kept {
        let reference = reference_router(&step.scene);
        let mut bad = mismatches(&reference, &step.nets, &step.lengths);
        let lengths: Vec<Dist> = step.path_pairs.iter().map(|&(s, t)| reference.distance(s, t).unwrap_or(-1)).collect();
        bad += uncertified(&step.scene, &step.path_pairs, &step.paths, &lengths);
        outcome.failed += u64::from(bad > 0);
    }
    if let Some(t) = tracer {
        outcome.layers = probe::session_layers(&t, traced_units, &["edit.first_answer", "edit.paths"]);
        outcome.layers.insert("trace.overhead_ms", overhead_ms);
        outcome.tracer = Some(t);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = inputs(9, 8);
        assert_eq!(a, inputs(9, 8));
        let b = inputs(10, 8);
        assert_ne!(a.base, b.base);
        assert_ne!(a.stream, b.stream);
        assert_eq!(a.base.len(), N);
        assert_eq!(a.stream.len(), 8);
    }
}
