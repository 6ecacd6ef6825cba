//! `boundary_dq`: the Section 5 boundary matrix `D_Q`, one caller, closed
//! loop.
//!
//! Fresh seeded scenes alternate `uniform_disjoint(64)` and
//! `clustered(128, 4)`; each unit builds a `Router` and calls
//! `Router::boundary_matrix()`.  This is the only workload that reaches the
//! staircase separator, the divide-and-conquer and the Monge products.
//! Primary: the uniform scenes' build time; secondary: the clustered ones'.

use crate::common::{
    closed_loop, hanan_check, mix, ms_since, reference_router, repeated_setup, Ctx, UnitDone, WARM_UP_SEED,
};
use crate::probe::{ratio, Totals};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::trace::Tracer;
use rsp_core::dnc::{build_boundary_matrix, BoundaryMatrix, DncOptions};
use rsp_core::instance::Instance;
use rsp_core::router::Router;
use rsp_core::separator::find_separator_unbounded;
use rsp_geom::{Dist, ObstacleSet, Point};
use rsp_workload::{clustered, uniform_disjoint};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Scene sizes.  Build times vary by a factor of two and more from scene to
/// scene of one family, so a run's median needs many scenes: at n=128 /
/// 256 a run finished under 20 of each and its median moved with the seed
/// by more than the bound; at n=64 / 128 it finishes about four times as
/// many.
pub const UNIFORM_N: usize = 64;
pub const CLUSTERED_N: usize = 128;
const CLUSTERS: usize = 4;
/// Matrix entries checked per built matrix.
const CHECK_SAMPLE: usize = 16;

/// Scene `k` of the stream: even `k` uniform, odd `k` clustered.
pub fn scene(seed: u64, k: u64) -> ObstacleSet {
    let s = mix(seed, k);
    if k.is_multiple_of(2) {
        uniform_disjoint(UNIFORM_N, s).obstacles
    } else {
        clustered(CLUSTERED_N, CLUSTERS, s).obstacles
    }
}

/// Build the session and its boundary matrix — the timed unit.
fn build(obstacles: &ObstacleSet, k: u64, tracer: Option<&mut Tracer>) -> (Option<Arc<BoundaryMatrix>>, f64) {
    let owned = obstacles.clone();
    let mut tracer = tracer;
    let root = tracer.as_deref_mut().map(|t| t.enter("dq.build", k));
    let t0 = Instant::now();
    let bm = Router::builder(owned).build().ok().map(|router| router.boundary_matrix());
    let ms = ms_since(t0);
    if let (Some(t), Some(id)) = (tracer, root) {
        t.exit(id);
    }
    (bm, ms)
}

/// Pairs of boundary points with their `D_Q` lengths.
type Entries = Vec<((Point, Point), Dist)>;

/// Seeded sample of matrix entries.
fn sample_entries(bm: &BoundaryMatrix, seed: u64, k: u64) -> Entries {
    let m = bm.points.len();
    let mut rng = Rng::new(seed, k);
    (0..CHECK_SAMPLE.min(m * m))
        .map(|_| {
            let (i, j) = (rng.below(m), rng.below(m));
            ((bm.points[i], bm.points[j]), bm.dist.get(i, j))
        })
        .collect()
}

/// Replay the unit's layers: validation, the top-level separator and the
/// divide-and-conquer on its own.
fn replay(t: &mut Tracer, k: u64, obstacles: &ObstacleSet, bm: &BoundaryMatrix) {
    let root = t.enter("replay", k);
    let instance = Instance::with_margin(obstacles.clone(), 2);
    t.span("rect.validate", k, || instance.validate().is_ok());
    t.span("separator.find", k, || find_separator_unbounded(obstacles).map(|s| s.max_side()));
    let opts = DncOptions::default();
    t.span("dnc.build", k, || build_boundary_matrix(obstacles, instance.container(), &opts).points.len());
    t.exit(root);
    let stats = &bm.stats;
    t.count("dnc.nodes", stats.nodes as f64);
    t.count("dnc.leaves", stats.leaves as f64);
    t.count("dnc.hanan_fallback_leaves", stats.hanan_fallback_leaves as f64);
    t.count("dnc.monge_products", stats.monge_products as f64);
    t.count("dnc.general_products", stats.general_products as f64);
    t.count("dnc.largest_boundary", stats.largest_boundary as f64);
}

fn layers(t: &Tracer, units: usize) -> BTreeMap<&'static str, f64> {
    let s = Totals::of(t);
    let per_unit = |name: &str| ratio(t.counter(name), units as f64);
    let mut m = BTreeMap::new();
    m.insert("rect.validate_ms", s.mean_ms("rect.validate"));
    m.insert("separator.find_ms", s.mean_ms("separator.find"));
    m.insert("dnc.build_ms", s.mean_ms("dnc.build"));
    for name in ["dnc.nodes", "dnc.leaves", "dnc.hanan_fallback_leaves", "dnc.monge_products", "dnc.general_products"] {
        m.insert(name, per_unit(name));
    }
    let products = t.counter("dnc.monge_products") + t.counter("dnc.general_products");
    m.insert("dnc.monge_share", ratio(t.counter("dnc.monge_products"), products));
    m.insert("dnc.largest_boundary", per_unit("dnc.largest_boundary"));
    let covered = s.total_ms("rect.validate") + s.total_ms("dnc.build");
    m.insert("unattributed_ms", ratio(s.total_ms("dq.build") - covered, units as f64));
    m
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome { sizes: vec![UNIFORM_N, CLUSTERED_N], ..Outcome::default() };
    outcome.config(
        "scenes",
        format!("uniform_disjoint n={UNIFORM_N} / clustered n={CLUSTERED_N} k={CLUSTERS}, alternating"),
    );
    outcome.config("callers", 1);
    // Set-up warms the pool and the allocator on one fixed uniform scene.
    repeated_setup(&mut outcome, || build(&scene(WARM_UP_SEED, 0), u64::MAX, None).1);

    let mut tracer = ctx.traced.then(|| Tracer::new(Instant::now()));
    let mut times: Vec<(u64, f64)> = Vec::new();
    let mut samples: Vec<(u64, Entries)> = Vec::new();
    // Tracing starts on a uniform scene; the overhead compares uniform
    // scenes only (one mode, not two).
    let (traced_units, overhead_ms) = closed_loop(
        ctx,
        |k| k.is_multiple_of(2),
        |k, tracing| {
            let obstacles = scene(ctx.seed, k);
            let (bm, ms) = build(&obstacles, k, tracer.as_mut().filter(|_| tracing));
            times.push((k, ms));
            samples.push((k, bm.as_ref().map(|bm| sample_entries(bm, ctx.seed, k)).unwrap_or_default()));
            let traced = match (tracer.as_mut().filter(|_| tracing), bm) {
                (Some(t), Some(bm)) => {
                    replay(t, k, &obstacles, &bm);
                    true
                }
                _ => false,
            };
            UnitDone { overhead_ms: k.is_multiple_of(2).then_some(ms), traced, last: false }
        },
    );
    outcome.peak_rss_mib = crate::sys::peak_rss_mib();
    let uniform: Vec<f64> = times.iter().filter(|(k, _)| k % 2 == 0).map(|&(_, ms)| ms).collect();
    let clustered: Vec<f64> = times.iter().filter(|(k, _)| k % 2 == 1).map(|&(_, ms)| ms).collect();
    let loop_s = times.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3;
    outcome.figure("dq.matrices_per_s", "1/s", times.len() as f64 / loop_s, "closed loop, 1 caller");
    outcome.primary_ms = uniform.clone();
    outcome.secondary_ms = clustered.clone();
    outcome.timing("dq.uniform_build", "ms", &uniform);
    outcome.timing("dq.clustered_build", "ms", &clustered);

    // Checks: sampled entries against per-pair `Router::distance` on an
    // separately built session, and against a Hanan grid on the first scene of
    // each family.
    outcome.attempted = times.len() as u64;
    let mut hanan_checked = 0;
    for (k, entries) in &samples {
        let obstacles = scene(ctx.seed, *k);
        let reference = reference_router(&obstacles);
        let pairs: Vec<(Point, Point)> = entries.iter().map(|&(p, _)| p).collect();
        let served: Vec<Dist> = entries.iter().map(|&(_, d)| d).collect();
        let mut bad = entries.is_empty() as usize + crate::common::mismatches(&reference, &pairs, &served);
        if *k < 2 {
            let (checked, wrong) = hanan_check(&obstacles, &pairs, &served, CHECK_SAMPLE);
            hanan_checked += checked;
            bad += wrong;
        }
        outcome.failed += u64::from(bad > 0);
    }
    outcome.figure("check.hanan_pairs", "count", hanan_checked as f64, "D_Q entries checked against a Hanan grid");
    if let Some(t) = tracer {
        outcome.layers = layers(&t, traced_units);
        outcome.layers.insert("trace.overhead_ms", overhead_ms);
        outcome.tracer = Some(t);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenes_follow_the_seed() {
        assert_eq!(scene(3, 0), scene(3, 0));
        assert_eq!(scene(3, 1), scene(3, 1));
        assert_ne!(scene(3, 0), scene(4, 0));
        assert_ne!(scene(3, 1), scene(4, 1));
        assert_eq!(scene(3, 0).len(), UNIFORM_N);
        assert_eq!(scene(3, 1).len(), CLUSTERED_N);
    }
}
