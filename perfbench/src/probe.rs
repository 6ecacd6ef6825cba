//! Layer-by-layer replay of a session's cold path, and the per-layer
//! metrics derived from the spans it records.
//!
//! The library has no spans of its own, so the traced run times each layer
//! by calling its public functions one at a time, from here, on the same
//! inputs the end-to-end unit just served: validation (`rect`), the slab
//! index (`locate`), escape-chain tracing (`query`), the §9 skeleton and row
//! sweeps (`seq`), the batch planner (`plan`), the row store (`store`) and
//! the shortest-path trees (`sptree`).  Warm query costs and store counters
//! are read off the served session itself.

use crate::trace::Tracer;
use rsp_core::apsp::VertexApsp;
use rsp_core::instance::Instance;
use rsp_core::plan::{plan_vertex_pairs, VertexBatchPlan};
use rsp_core::query::PathLengthOracle;
use rsp_core::router::Router;
use rsp_core::seq::SingleSourceEngine;
use rsp_core::sptree::ShortestPathTrees;
use rsp_core::store::{default_budget_bytes, DistanceStore, StoreKind, StoreStats};
use rsp_geom::{ObstacleIndex, ObstacleSet, Point, SceneDelta};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Row sweeps timed one by one per replayed scene.
const SWEEP_SAMPLE: usize = 8;

/// One served unit of work, as [`session_replay`] replays it.
pub struct ServedUnit<'a> {
    pub obstacles: &'a ObstacleSet,
    /// The first batch the session answered.
    pub pairs: &'a [(Point, Point)],
    pub path_pairs: &'a [(Point, Point)],
    pub router: &'a Router,
    /// The session's store counters right after its first answer, before
    /// `paths` ran.
    pub first_answer_stats: StoreStats,
    /// For an edited session: the base scene and the delta, so incremental
    /// validation is replayed too.
    pub edit: Option<(&'a ObstacleSet, &'a SceneDelta)>,
}

/// Time warm `Router::distances` on `pairs` — vertex pairs and arbitrary
/// point pairs on their own — and the batch planner on the vertex pairs,
/// under request id `req`.  Returns the plan.
pub fn warm_queries(t: &mut Tracer, req: u64, router: &Router, pairs: &[(Point, Point)]) -> VertexBatchPlan {
    let oracle = router.oracle();
    let apsp = oracle.apsp();
    let index = |&(a, b): &(Point, Point)| Some((apsp.vertex_index(a)?, apsp.vertex_index(b)?));
    let (vertex_pairs, point_pairs): (Vec<_>, Vec<_>) = pairs.iter().partition(|p| index(p).is_some());
    let items: Vec<(usize, usize, usize)> =
        vertex_pairs.iter().filter_map(index).enumerate().map(|(slot, (i, j))| (i, j, slot)).collect();
    let plan = t.span("plan.plan", req, || plan_vertex_pairs(&items));
    t.count("plan.distinct_rows", plan.rows.len() as f64);
    t.span("query.vertex_pairs", req, || router.distances(&vertex_pairs).map_or(0, |d| d.len()));
    t.count("query.vertex_pairs_n", vertex_pairs.len() as f64);
    t.span("query.point_pairs", req, || router.distances(&point_pairs).map_or(0, |d| d.len()));
    t.count("query.point_pairs_n", point_pairs.len() as f64);
    plan
}

/// The metrics of [`warm_queries`]' spans and counters.
pub fn warm_query_layers(t: &Tracer, s: &Totals, m: &mut BTreeMap<&'static str, f64>) {
    m.insert("plan.plan_us", s.mean_ms("plan.plan") * 1e3);
    m.insert("plan.distinct_rows", ratio(t.counter("plan.distinct_rows"), s.count("plan.plan") as f64));
    m.insert("query.vertex_pair_ns", ratio(s.total_ms("query.vertex_pairs") * 1e6, t.counter("query.vertex_pairs_n")));
    m.insert("query.point_pair_us", ratio(s.total_ms("query.point_pairs") * 1e3, t.counter("query.point_pairs_n")));
}

/// Replay the cold path of a served unit one layer call at a time, under
/// request id `req`.
pub fn session_replay(t: &mut Tracer, req: u64, unit: &ServedUnit) {
    let (obstacles, router) = (unit.obstacles, unit.router);
    let n = obstacles.len();
    let root = t.enter("replay", req);
    match unit.edit {
        Some((base, delta)) => {
            let applied = base.apply_delta(delta).expect("benchmark deltas apply");
            t.span("rect.validate_incremental", req, || applied.validate_disjoint_incremental().is_ok());
        }
        None => {
            let instance = Instance::with_margin(obstacles.clone(), 2);
            t.span("rect.validate", req, || instance.validate().is_ok());
            t.span("locate.build", req, || ObstacleIndex::build(obstacles).len());
            let apsp = VertexApsp::build_implicit(obstacles, default_budget_bytes(n));
            let shared = Arc::new(obstacles.clone());
            t.span("query.from_apsp", req, || PathLengthOracle::from_apsp(shared, apsp).n());
        }
    }

    let skeleton_start = std::time::Instant::now();
    let engine = t.span("seq.skeleton", req, || SingleSourceEngine::new(obstacles));
    let skeleton_ms = skeleton_start.elapsed().as_secs_f64() * 1e3;
    let stride = (engine.vertices().len() / SWEEP_SAMPLE).max(1);
    let mut sweep_ms = Vec::new();
    for &v in engine.vertices().iter().step_by(stride).take(SWEEP_SAMPLE) {
        let start = std::time::Instant::now();
        t.span("seq.row_sweep", req, || engine.distances_from(v).len());
        sweep_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let sweep_ms = sweep_ms.iter().sum::<f64>() / sweep_ms.len().max(1) as f64;
    drop(engine);

    // Warm queries on the served session (re-warmed first: on the implicit
    // store the unit's `paths` call can evict the batch's rows), then the
    // sweep fan-out as the session ran it: the whole dense matrix, or the
    // planned working set pinned into a fresh implicit store.
    let _ = router.distances(unit.pairs);
    let plan = warm_queries(t, req, router, unit.pairs);
    let stats = unit.first_answer_stats;
    let fanout_start = std::time::Instant::now();
    let fanout_sweeps = match router.store_kind() {
        StoreKind::Implicit { budget_bytes } => {
            let fresh = DistanceStore::implicit_sweep(obstacles, budget_bytes);
            let store = fresh.as_implicit().expect("an implicit store");
            t.span("seq.fanout", req, || store.pin_rows(&plan.rows).len());
            t.count("seq.row_sweeps", stats.row_misses as f64);
            store.stats().row_misses as f64
        }
        _ => {
            t.span("seq.fanout", req, || VertexApsp::build(obstacles).len());
            t.count("seq.row_sweeps", (4 * n) as f64);
            (4 * n) as f64
        }
    };
    // Serial sweep work of this fan-out (its sweeps at this scene's sampled
    // per-sweep time) against its wall time less the skeleton it builds.
    let fanout_ms = fanout_start.elapsed().as_secs_f64() * 1e3;
    t.count("seq.fanout_serial_ms", fanout_sweeps * sweep_ms);
    t.count("seq.fanout_wall_ms", (fanout_ms - skeleton_ms).max(0.0));
    t.count("store.row_hits", stats.row_hits as f64);
    t.count("store.row_misses", stats.row_misses as f64);
    t.count("store.resident_bytes", stats.resident_bytes as f64);

    let counts = router.build_counts();
    t.count("delta.rows_reused", counts.rows_reused as f64);
    t.count("delta.rows_rebuilt", counts.rows_rebuilt as f64);
    t.count("delta.chains_reused", counts.chains_reused as f64);
    t.count("delta.chains_rebuilt", counts.chains_rebuilt as f64);
    t.count("delta.slab_columns_reused", counts.slab_columns_reused as f64);
    t.count("delta.slab_columns_rebuilt", counts.slab_columns_rebuilt as f64);

    // Path trees over the served oracle, then extraction pair by pair.
    let mut trees = ShortestPathTrees::from_oracle(router.oracle(), Some(&[]));
    let sources: Vec<Point> = unit.path_pairs.iter().map(|&(s, _)| s).collect();
    let built = t.span("sptree.ensure_sources", req, || trees.ensure_sources(&sources));
    t.count("sptree.trees_built", built as f64);
    for &(s, target) in unit.path_pairs {
        t.span("sptree.path_between", req, || trees.path_between(s, target).map(|p| p.num_segments()));
    }
    t.exit(root);
}

/// Summed span figures by name.
pub struct Totals(BTreeMap<&'static str, (usize, u64, u64)>);

impl Totals {
    pub fn of(t: &Tracer) -> Self {
        Totals(t.totals())
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |e| e.0)
    }

    /// Summed duration of `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1 as f64 / 1e6)
    }

    /// Mean duration of `name`, ms (0 when never recorded).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            c => self.total_ms(name) / c as f64,
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a run whose units were replayed with
/// [`session_replay`]; `e2e` names the end-to-end spans of one unit.
/// Counts are per unit of work.
pub fn session_layers(t: &Tracer, units: usize, e2e: &[&str]) -> BTreeMap<&'static str, f64> {
    let s = Totals::of(t);
    let per_unit = |name: &str| ratio(t.counter(name), units as f64);
    let mut m = BTreeMap::new();
    let sweep_ms = s.mean_ms("seq.row_sweep");
    m.insert("seq.skeleton_ms", s.mean_ms("seq.skeleton"));
    m.insert("seq.row_sweep_ms", sweep_ms);
    m.insert("seq.row_sweeps", per_unit("seq.row_sweeps"));
    m.insert("seq.fanout_speedup", ratio(t.counter("seq.fanout_serial_ms"), t.counter("seq.fanout_wall_ms")));
    m.insert("rect.validate_ms", s.mean_ms("rect.validate"));
    m.insert("locate.build_ms", s.mean_ms("locate.build"));
    m.insert("query.chains_ms", (s.mean_ms("query.from_apsp") - s.mean_ms("locate.build")).max(0.0));
    m.insert("rect.validate_incremental_us", s.mean_ms("rect.validate_incremental") * 1e3);
    m.insert("delta.apply_us", s.mean_ms("delta.apply") * 1e3);
    for name in [
        "delta.rows_reused",
        "delta.rows_rebuilt",
        "delta.chains_reused",
        "delta.chains_rebuilt",
        "delta.slab_columns_reused",
        "delta.slab_columns_rebuilt",
        "sptree.trees_built",
        "store.row_misses",
        "store.resident_bytes",
    ] {
        m.insert(name, per_unit(name));
    }
    let carry_base = t.counter("delta.rows_reused") + t.counter("delta.rows_rebuilt");
    m.insert("delta.row_carry_ratio", ratio(t.counter("delta.rows_reused"), carry_base));
    m.insert("delta.row_carry_base", ratio(carry_base, units as f64));
    m.insert("sptree.tree_build_ms", ratio(s.total_ms("sptree.ensure_sources"), t.counter("sptree.trees_built")));
    m.insert("sptree.path_extract_us", s.mean_ms("sptree.path_between") * 1e3);
    warm_query_layers(t, &s, &mut m);
    let lookups = t.counter("store.row_hits") + t.counter("store.row_misses");
    m.insert("store.row_hit_ratio", ratio(t.counter("store.row_hits"), lookups));
    // What the replayed layers cover of each unit: validation (or the
    // `apply_delta` call, which validates incrementally), index + chains,
    // the sweep fan-out (skeleton included), planning, the answers
    // themselves, trees and extraction.
    let covered: f64 = [
        "rect.validate",
        "delta.apply",
        "query.from_apsp",
        "seq.fanout",
        "plan.plan",
        "query.vertex_pairs",
        "query.point_pairs",
        "sptree.ensure_sources",
        "sptree.path_between",
    ]
    .iter()
    .map(|name| s.total_ms(name))
    .sum();
    let end_to_end: f64 = e2e.iter().map(|name| s.total_ms(name)).sum();
    m.insert("unattributed_ms", ratio(end_to_end - covered, units as f64));
    m
}
