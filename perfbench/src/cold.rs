//! `cold_scene`: onboarding fresh scenes, one caller, closed loop.
//!
//! A stream of fresh seeded `uniform_disjoint` scenes alternates n=256
//! (`StoreKind::Auto` resolves to the dense store) and n=1024 (implicit
//! store).  Each scene is built with `Router::builder(..).build()` and asked
//! its first `distances` batch (64 vertex pairs + 64 arbitrary point pairs);
//! dense scenes then ask `paths` for 8 vertex pairs (see
//! [`served_path_pairs`] for the implicit ones).  Primary: the dense scenes'
//! time to first answer; secondary: the implicit scenes'.

use crate::common::{
    closed_loop, hanan_check, mismatches, mix, ms_since, reference_router, repeated_setup, uncertified, Ctx, UnitDone,
    WARM_UP_SEED,
};
use crate::probe::{self, ServedUnit};
use crate::report::{Outcome, PER_LAYER};
use crate::trace::Tracer;
use rsp_core::router::Router;
use rsp_core::store::StoreStats;
use rsp_geom::{Dist, ObstacleSet, Point, RectiPath};
use rsp_workload::{query_pairs, uniform_disjoint};
use std::time::Instant;

pub const DENSE_N: usize = 256;
pub const IMPLICIT_N: usize = 1024;
const VERTEX_PAIRS: usize = 64;
const POINT_PAIRS: usize = 64;
const PATH_PAIRS: usize = 8;
/// Pairs of each half of the first batch checked against the reference
/// (the pairs are already seeded draws, so the first ones are a sample).
const CHECK_SAMPLE: usize = 8;

/// The inputs of scene `k` of the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct SceneInput {
    pub obstacles: ObstacleSet,
    /// The first batch: vertex pairs first, then arbitrary point pairs.
    pub pairs: Vec<(Point, Point)>,
    pub path_pairs: Vec<(Point, Point)>,
}

/// Scene `k` of the stream for `seed`: even `k` is dense-sized, odd `k`
/// implicit-sized.
pub fn scene_input(seed: u64, k: u64) -> SceneInput {
    let n = if k.is_multiple_of(2) { DENSE_N } else { IMPLICIT_N };
    let s = mix(seed, k);
    let obstacles = uniform_disjoint(n, s).obstacles;
    let mut pairs = query_pairs(&obstacles, VERTEX_PAIRS, true, s ^ 1);
    pairs.extend(query_pairs(&obstacles, POINT_PAIRS, false, s ^ 2));
    let path_pairs = query_pairs(&obstacles, PATH_PAIRS, true, s ^ 3);
    SceneInput { obstacles, pairs, path_pairs }
}

/// Vertex pairs scene `k` asks `paths` for.  Dense scenes ask all of
/// theirs.  Implicit scenes ask none in the measured loop: one `paths` call
/// on the implicit store takes from 1 ms to over 30 s (a tree build sweeps
/// the canonical row of every distance it misses), which would leave a run
/// with a handful of scenes.  Traced implicit scenes ask one, so that cost
/// still shows in the `implicit.` per-layer figures.
fn served_path_pairs(input: &SceneInput, k: u64, traced: bool) -> &[(Point, Point)] {
    match (k.is_multiple_of(2), traced) {
        (true, _) => &input.path_pairs,
        (false, true) => &input.path_pairs[..1],
        (false, false) => &[],
    }
}

/// What one scene served, kept for the checks after the loop.
struct Served {
    k: u64,
    lengths: Vec<Dist>,
    /// Paths of the first `paths.len()` path pairs.
    paths: Vec<RectiPath>,
    first_ms: f64,
    paths_ms: f64,
    /// The session's store counters right after the first answer.
    first_answer_stats: StoreStats,
}

/// Build, first batch, paths — the timed unit.  Errors yield empty answers,
/// which the checks count as failures.  The session is returned beside the
/// answers so the traced run can probe it; the loop drops it at once.
fn serve_scene(
    input: &SceneInput,
    k: u64,
    path_pairs: &[(Point, Point)],
    tracer: Option<&mut Tracer>,
) -> (Served, Option<Router>) {
    let obstacles = input.obstacles.clone();
    let mut tracer = tracer;
    let root = tracer.as_deref_mut().map(|t| t.enter("cold.first_answer", k));
    let t0 = Instant::now();
    let router = Router::builder(obstacles).build().ok();
    let lengths = router.as_ref().and_then(|r| r.distances(&input.pairs).ok()).unwrap_or_default();
    let first_ms = ms_since(t0);
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), root) {
        t.exit(id);
    }
    let first_answer_stats = router.as_ref().map(Router::memory_stats).unwrap_or_default();
    let root = tracer.as_deref_mut().map(|t| t.enter("cold.paths", k));
    let t1 = Instant::now();
    let paths = router.as_ref().and_then(|r| r.paths(path_pairs).ok()).unwrap_or_default();
    let paths_ms = ms_since(t1);
    if let (Some(t), Some(id)) = (tracer, root) {
        t.exit(id);
    }
    (Served { k, lengths, paths, first_ms, paths_ms, first_answer_stats }, router)
}

/// Warm-up scene for set-up: spins up the thread pool and the allocator on
/// one fixed dense scene outside the measured stream.
fn setup() -> usize {
    let input = scene_input(WARM_UP_SEED, 0);
    serve_scene(&input, u64::MAX, &input.path_pairs, None).0.lengths.len()
}

/// Check one served scene against the reference session (a sample of the
/// first batch, every path it asked) and, when `hanan` is set, the same sample
/// against a Hanan grid.  Returns (failed, pairs checked against the grid).
fn check(seed: u64, served: &Served, hanan: bool) -> (bool, usize) {
    let input = scene_input(seed, served.k);
    if served.lengths.len() != input.pairs.len() {
        return (true, 0);
    }
    let reference = reference_router(&input.obstacles);
    let picked = (0..CHECK_SAMPLE).chain(VERTEX_PAIRS..VERTEX_PAIRS + CHECK_SAMPLE);
    let (pairs, lengths): (Vec<(Point, Point)>, Vec<Dist>) =
        picked.map(|i| (input.pairs[i], served.lengths[i])).unzip();
    let mut bad = mismatches(&reference, &pairs, &lengths);
    let path_pairs = &input.path_pairs[..served.paths.len().min(input.path_pairs.len())];
    if served.k.is_multiple_of(2) && path_pairs.len() != input.path_pairs.len() {
        bad += 1;
    }
    let path_lengths: Vec<Dist> = path_pairs.iter().map(|&(s, t)| reference.distance(s, t).unwrap_or(-1)).collect();
    bad += uncertified(&input.obstacles, path_pairs, &served.paths, &path_lengths);
    let (hanan_checked, wrong) =
        if hanan { hanan_check(&input.obstacles, &pairs, &lengths, pairs.len()) } else { (0, 0) };
    (bad + wrong > 0, hanan_checked)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome { sizes: vec![DENSE_N, IMPLICIT_N], ..Outcome::default() };
    outcome.config("scenes", "uniform_disjoint n=256 (dense) / n=1024 (implicit), alternating");
    outcome.config("first_batch", format!("{VERTEX_PAIRS} vertex pairs + {POINT_PAIRS} point pairs"));
    outcome.config("paths", format!("{PATH_PAIRS} per dense scene"));
    outcome.config("callers", 1);
    repeated_setup(&mut outcome, setup);

    let mut served: Vec<Served> = Vec::new();
    // One tracer per scene kind (dense, implicit): their layers differ in
    // kind, not just in size, so they are reported apart.
    let origin = Instant::now();
    let mut tracers = ctx.traced.then(|| [Tracer::new(origin), Tracer::new(origin)]);
    let mut traced_units = [0usize; 2];
    // Tracing starts on a dense scene; the overhead compares dense scenes
    // only (one mode, not two).
    let (_, overhead_ms) = closed_loop(
        ctx,
        |k| k.is_multiple_of(2),
        |k, tracing| {
            let kind = (k % 2) as usize;
            let mut tracer = tracers.as_mut().filter(|_| tracing).map(|ts| &mut ts[kind]);
            let input = scene_input(ctx.seed, k);
            let path_pairs = served_path_pairs(&input, k, tracer.is_some());
            let (unit, router) = serve_scene(&input, k, path_pairs, tracer.as_deref_mut());
            let traced = match (tracer, &router) {
                (Some(t), Some(router)) => {
                    let replayed = ServedUnit {
                        obstacles: &input.obstacles,
                        pairs: &input.pairs,
                        path_pairs,
                        router,
                        first_answer_stats: unit.first_answer_stats,
                        edit: None,
                    };
                    probe::session_replay(t, k, &replayed);
                    traced_units[kind] += 1;
                    true
                }
                _ => false,
            };
            let overhead_ms = (kind == 0).then_some(unit.first_ms);
            served.push(unit);
            UnitDone { overhead_ms, traced, last: false }
        },
    );
    let loop_ms: f64 = served.iter().map(|s| s.first_ms + s.paths_ms).sum();
    outcome.peak_rss_mib = crate::sys::peak_rss_mib();

    let dense: Vec<f64> = served.iter().filter(|s| s.k % 2 == 0).map(|s| s.first_ms).collect();
    let implicit: Vec<f64> = served.iter().filter(|s| s.k % 2 == 1).map(|s| s.first_ms).collect();
    let paths: Vec<f64> = served.iter().filter(|s| s.k % 2 == 0).map(|s| s.paths_ms).collect();
    outcome.primary_ms = dense.clone();
    outcome.secondary_ms = implicit.clone();
    outcome.figure("cold.scenes_per_s", "1/s", served.len() as f64 / (loop_ms / 1e3), "closed loop, 1 caller");
    outcome.timing("cold.dense_first_answer", "ms", &dense);
    outcome.timing("cold.implicit_first_answer", "ms", &implicit);
    outcome.timing("cold.dense_paths", "ms", &paths);

    // The first two dense scenes are also checked against a Hanan grid.
    outcome.attempted = served.len() as u64;
    let mut hanan_pairs = 0;
    for s in &served {
        let (failed, checked) = check(ctx.seed, s, s.k < 4 && s.k.is_multiple_of(2));
        outcome.failed += u64::from(failed);
        hanan_pairs += checked;
    }
    outcome.figure(
        "check.hanan_pairs",
        "count",
        hanan_pairs as f64,
        "first-batch lengths checked against a Hanan grid",
    );
    if let Some([dense, implicit]) = tracers {
        let e2e = ["cold.first_answer", "cold.paths"];
        // The result line carries the dense scenes' layers; the implicit
        // scenes' are reported beside them under an `implicit.` prefix.
        outcome.layers = probe::session_layers(&dense, traced_units[0], &e2e);
        outcome.layers.insert("trace.overhead_ms", overhead_ms);
        for (name, value) in probe::session_layers(&implicit, traced_units[1], &e2e) {
            let unit = PER_LAYER.iter().find(|&&(n, _)| n == name).map_or("", |&(_, u)| u);
            let detail = format!("implicit n={IMPLICIT_N} scenes, {} traced", traced_units[1]);
            outcome.figure(&format!("implicit.{name}"), unit, value, detail);
        }
        let mut t = dense;
        t.merge(implicit);
        outcome.tracer = Some(t);
    }
    drop(served);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_inputs_follow_the_seed() {
        assert_eq!(scene_input(5, 0), scene_input(5, 0));
        assert_eq!(scene_input(5, 1), scene_input(5, 1));
        assert_ne!(scene_input(5, 0), scene_input(6, 0));
        assert_ne!(scene_input(5, 0).obstacles, scene_input(5, 2).obstacles);
        assert_eq!(scene_input(5, 0).obstacles.len(), DENSE_N);
        assert_eq!(scene_input(5, 1).obstacles.len(), IMPLICIT_N);
    }
}
