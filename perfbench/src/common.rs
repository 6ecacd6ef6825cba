//! Pieces every workload shares: the run context, repeated set-up, answer
//! digests and the references answers are checked against.

use crate::report::Outcome;
use rsp_core::router::{Engine, Router};
use rsp_core::store::{default_budget_bytes, StoreKind};
use rsp_geom::hanan::HananGrid;
use rsp_geom::{Dist, ObstacleSet, Point, RectiPath};
use std::time::{Duration, Instant};

/// Query point pairs.
pub type Pairs = Vec<(Point, Point)>;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Largest scene the Hanan-grid reference is built for (its construction
/// scans every obstacle per grid node).
pub const HANAN_MAX_N: usize = 256;

/// Command-line parameters of one run.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Ctx {
    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Units a traced run traces at least.
const MIN_TRACED_UNITS: usize = 2;

/// Seed of the scenes the cold set-ups warm up on: fixed, so set-up time
/// does not depend on `--seed`.
pub const WARM_UP_SEED: u64 = 0x5eed;

/// What one unit of a [`closed_loop`] reports back.
pub struct UnitDone {
    /// The unit's time, when it is of the kind `trace.overhead_ms` compares
    /// (one kind only, so traced and untraced medians compare like with
    /// like).
    pub overhead_ms: Option<f64>,
    /// Whether the unit ran traced and its layers were replayed.
    pub traced: bool,
    /// Stop after this unit.
    pub last: bool,
}

/// Run units `k = 0, 1, ...` back to back with one caller until the budget
/// is spent and at least two units ran (one of each kind of an alternating
/// stream).  A traced run spends its first third untraced — the baseline of
/// `trace.overhead_ms` — then asks every unit from the first `k` that
/// `may_start_tracing` admits onwards to trace (`unit(k, true)`), and keeps
/// going until at least [`MIN_TRACED_UNITS`] were traced.  Returns the
/// number of traced units and `trace.overhead_ms`: the median traced minus
/// the median untraced unit time (0 when either side is empty).
pub fn closed_loop(
    ctx: &Ctx,
    may_start_tracing: impl Fn(u64) -> bool,
    mut unit: impl FnMut(u64, bool) -> UnitDone,
) -> (usize, f64) {
    let budget = ctx.budget();
    let (mut tracing, mut traced_units) = (false, 0);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0u64;
    while k < 2 || start.elapsed() < budget || (ctx.traced && traced_units < MIN_TRACED_UNITS) {
        tracing |= ctx.traced && may_start_tracing(k) && start.elapsed() >= budget / 3;
        let done = unit(k, tracing);
        if done.traced {
            traced_units += 1;
            traced_ms.extend(done.overhead_ms);
        } else {
            plain_ms.extend(done.overhead_ms);
        }
        if done.last {
            break;
        }
        k += 1;
    }
    let overhead = match (crate::stats::median(&plain_ms), crate::stats::median(&traced_ms)) {
        (Some(plain), Some(with_spans)) => with_spans - plain,
        _ => 0.0,
    };
    (traced_units, overhead)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A derived seed: `seed` and `k` mixed so neighbouring values decorrelate.
pub fn mix(seed: u64, k: u64) -> u64 {
    crate::rng::Rng::new(seed, k).next_u64()
}

/// Run `setup` [`SETUP_REPEATS`] times, recording each duration in
/// `outcome.setup_s`; keeps the last result (earlier ones are dropped, and
/// so shut down, before the next starts).
pub fn repeated_setup<S>(outcome: &mut Outcome, mut setup: impl FnMut() -> S) -> S {
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        outcome.setup_s.push(t.elapsed().as_secs_f64());
    }
    kept.expect("at least one set-up")
}

/// FNV-1a over a sequence of integers: a cheap fingerprint of an answer.
pub fn digest(values: impl IntoIterator<Item = i64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Fingerprint of a batch of lengths.
pub fn digest_lengths(lengths: &[Dist]) -> u64 {
    digest(lengths.iter().copied())
}

/// Fingerprint of a batch of paths (every turning point).
pub fn digest_paths(paths: &[RectiPath]) -> u64 {
    digest(paths.iter().flat_map(|p| p.points().iter().flat_map(|q| [q.x, q.y]).chain([i64::MIN])))
}

/// A separately built router for checking: the sequential engine over an
/// implicit store with a generous budget, queried pair by pair (no batch
/// planner, no row pinning), so it shares neither the store branch of a
/// dense session nor the batch path of any session.  It is *not* an
/// independent length oracle: its rows come from the same §9 sweep
/// (`SingleSourceEngine::distances_from`) that fills every served store, so
/// agreement with it shows the store, planner, query reductions and carry
/// logic are consistent with the sweep.  Independent evidence is the
/// Hanan-grid sample ([`hanan_check`], n ≤ [`HANAN_MAX_N`]) and path
/// certification, which cannot catch a consistently too-long length.
pub fn reference_router(obstacles: &ObstacleSet) -> Router {
    let budget_bytes = 4 * default_budget_bytes(obstacles.len());
    Router::builder(obstacles.clone())
        .engine(Engine::Sequential)
        .store(StoreKind::Implicit { budget_bytes })
        .build()
        .expect("benchmark scenes are valid")
}

/// Pairs whose served length differs from `reference`'s per-pair answer.
pub fn mismatches(reference: &Router, pairs: &[(Point, Point)], served: &[Dist]) -> usize {
    if pairs.len() != served.len() {
        return pairs.len().max(served.len());
    }
    pairs.iter().zip(served).filter(|&(&(a, b), &d)| reference.distance(a, b).ok() != Some(d)).count()
}

/// Paths that fail to certify: wrong endpoints, crossing an obstacle, or a
/// length other than the checked distance of the same pair.
pub fn uncertified(obstacles: &ObstacleSet, pairs: &[(Point, Point)], paths: &[RectiPath], lengths: &[Dist]) -> usize {
    if pairs.len() != paths.len() || pairs.len() != lengths.len() {
        return pairs.len().max(paths.len());
    }
    pairs.iter().zip(paths).zip(lengths).filter(|&((&(s, t), path), &d)| !path.certifies(obstacles, s, t, d)).count()
}

/// Check up to `sample` of `pairs` (taken from the front, which the callers
/// seed) against a Hanan-grid Dijkstra, grouped by source so each source
/// runs one Dijkstra.  Returns (checked, mismatched).  Scenes above
/// [`HANAN_MAX_N`] obstacles are skipped.
pub fn hanan_check(
    obstacles: &ObstacleSet,
    pairs: &[(Point, Point)],
    served: &[Dist],
    sample: usize,
) -> (usize, usize) {
    if obstacles.len() > HANAN_MAX_N {
        return (0, 0);
    }
    let picked: Vec<usize> = (0..pairs.len().min(served.len())).take(sample).collect();
    let extra: Vec<Point> = picked.iter().flat_map(|&i| [pairs[i].0, pairs[i].1]).collect();
    let grid = HananGrid::build(obstacles, &extra);
    let mut sources: Vec<Point> = picked.iter().map(|&i| pairs[i].0).collect();
    sources.sort_unstable_by_key(|p| (p.x, p.y));
    sources.dedup();
    let mut bad = 0;
    for source in sources {
        let group: Vec<usize> = picked.iter().copied().filter(|&i| pairs[i].0 == source).collect();
        let targets: Vec<Point> = group.iter().map(|&i| pairs[i].1).collect();
        let truth = grid.distances_to(source, &targets);
        bad += group.iter().zip(truth).filter(|&(&i, d)| served[i] != d).count();
    }
    (picked.len(), bad)
}
