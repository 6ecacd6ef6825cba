//! The distance storage layer behind [`VertexApsp`](crate::apsp::VertexApsp):
//! a pluggable [`DistanceStore`] with a dense and an implicit backend.
//!
//! The dense backend is the classic trade of the paper — pay `O(n^2)` memory
//! once, answer every vertex-pair query with one array read.  At `n = 2048`
//! obstacles that matrix is `(4n)^2` entries ≈ 512 MiB, which walls off
//! exactly the scenes where the `O(n^2)`-work construction would shine.
//!
//! The implicit backend never materialises the matrix.  It keeps the row
//! *generator* instead — the Section 9 single-source engine (or the
//! Hanan-grid Dijkstra for the baseline comparator) — and materialises
//! distance rows on demand into a byte-budgeted LRU
//! [`BlockCache`](rsp_monge::BlockCache).  A row is the natural block
//! granularity here: every generator is a whole-source sweep, so a single
//! entry costs exactly as much as its row, and caching the row makes the
//! follow-up queries of a scan free.
//!
//! **Bitwise equality is by construction**: both backends obtain row `i` by
//! calling the *same* per-source routine on the *same* source vertex, so an
//! implicit store returns bit-for-bit the numbers the dense matrix holds —
//! independent of materialisation order, eviction history or thread count.
//! (Lemma 1's Monge guarantee holds for boundary portions of convex clear
//! regions, not for the scattered vertex set `V_R`, which is why the vertex
//! store caches generator rows rather than SMAWK minima.)

use crate::seq::SingleSourceEngine;
use rsp_geom::hanan::HananGrid;
use rsp_geom::{Dist, ObstacleSet, Point};
use rsp_monge::{BlockCache, MinPlusMatrix};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

const ENTRY_BYTES: usize = std::mem::size_of::<Dist>();

/// Obstacle count at which [`StoreKind::Auto`] switches from the dense
/// matrix to the implicit store (the dense matrix crosses 32 MiB here).
pub const IMPLICIT_AUTO_THRESHOLD: usize = 512;

/// Bytes the dense `V_R`-to-`V_R` matrix costs for `n` obstacles
/// (`(4n)^2` entries), computed without building anything.
pub fn dense_bytes_for(n_obstacles: usize) -> usize {
    let dim = 4 * n_obstacles;
    dim * dim * ENTRY_BYTES
}

/// The default implicit row budget for `n` obstacles: 1/16 of the dense
/// matrix (room for `dim/16` resident rows), floored at 1 MiB so small
/// scenes never thrash.
pub fn default_budget_bytes(n_obstacles: usize) -> usize {
    (dense_bytes_for(n_obstacles) / 16).max(1 << 20)
}

/// Which distance storage backend a router/oracle uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreKind {
    /// Pick by scene size: [`StoreKind::Dense`] below
    /// [`IMPLICIT_AUTO_THRESHOLD`] obstacles, otherwise
    /// [`StoreKind::Implicit`] with [`default_budget_bytes`].
    #[default]
    Auto,
    /// The full `(4n) x (4n)` matrix: `O(n^2)` bytes, lock-free and
    /// allocation-free `O(1)` reads.
    Dense,
    /// Rows materialised on demand into a byte-budgeted LRU cache:
    /// `O(budget)` bytes, `O(1)` reads for resident rows, one single-source
    /// sweep per miss.
    Implicit {
        /// Bytes the resident rows may occupy (a budget below one row keeps
        /// exactly one row and recomputes on every miss — slow but correct).
        budget_bytes: usize,
    },
}

impl StoreKind {
    /// Resolve [`StoreKind::Auto`] for a scene of `n_obstacles`; the other
    /// variants pass through unchanged.
    pub fn resolve(self, n_obstacles: usize) -> StoreKind {
        match self {
            StoreKind::Auto => {
                if n_obstacles >= IMPLICIT_AUTO_THRESHOLD {
                    StoreKind::Implicit { budget_bytes: default_budget_bytes(n_obstacles) }
                } else {
                    StoreKind::Dense
                }
            }
            other => other,
        }
    }
}

/// Memory accounting snapshot of a [`DistanceStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes the store currently holds resident (the whole matrix for the
    /// dense backend, the cached rows for the implicit one).
    pub resident_bytes: usize,
    /// Bytes a dense matrix of the same dimensions costs (the baseline the
    /// implicit backend is saving against).
    pub dense_bytes: usize,
    /// The configured byte budget (equals `dense_bytes` for the dense
    /// backend, which has no eviction).
    pub budget_bytes: usize,
    /// Row requests served from a resident row (implicit backend only).
    pub row_hits: u64,
    /// Row requests that ran a single-source sweep (implicit backend only).
    pub row_misses: u64,
    /// Rows evicted to respect the budget (implicit backend only).
    pub row_evictions: u64,
    /// Bytes currently pinned against eviction by an in-flight batch plan
    /// (implicit backend only; see [`ImplicitStore::pin_rows`]).
    pub pinned_bytes: usize,
}

/// How the implicit store generates a distance row for source `i`.
enum RowProvider {
    /// The Section 9 single-source engine — the same routine the dense
    /// builders fan out over, so rows are bitwise-identical to theirs.
    Sweep(Box<SingleSourceEngine>),
    /// Hanan-grid Dijkstra per source — the same routine
    /// [`dijkstra_sssp_matrix`](crate::baseline::dijkstra_sssp_matrix) fans
    /// out over, for the baseline-comparator engine.
    Hanan { grid: HananGrid, vertices: Vec<Point> },
}

impl RowProvider {
    fn row(&self, i: usize) -> Vec<Dist> {
        match self {
            RowProvider::Sweep(engine) => engine.distances_from(engine.vertices()[i]),
            RowProvider::Hanan { grid, vertices } => grid.distances_to(vertices[i], vertices),
        }
    }
}

/// A [`RowProvider`] whose skeleton (the sweep engine's point-location
/// index and four case views, or the Hanan grid) is built on the first
/// *sweep*, not at store construction.
///
/// The skeleton only matters on a row miss, and its build is the dominant
/// fixed cost of an implicit store at large `n`.  Deferring it keeps a fresh
/// store's construction O(1), and — the case it exists for — lets a
/// delta-carried store ([`DistanceStore::implicit_delta`]) whose first batch
/// is answered entirely from carried rows skip the skeleton build outright,
/// which is what makes edit→first-query genuinely sublinear.  Values are
/// unaffected: whenever a sweep does run, it runs the same routine on the
/// same scene.
struct LazyProvider {
    obstacles: Arc<ObstacleSet>,
    hanan: bool,
    cell: OnceLock<RowProvider>,
}

impl LazyProvider {
    fn deferred(obstacles: Arc<ObstacleSet>, hanan: bool) -> Self {
        LazyProvider { obstacles, hanan, cell: OnceLock::new() }
    }

    /// The built provider.  Callers that fan sweeps out over rayon force
    /// this *before* going parallel, so the one-time build never runs under
    /// a worker that peers would have to block on.
    fn force(&self) -> &RowProvider {
        self.cell.get_or_init(|| {
            if self.hanan {
                let vertices = self.obstacles.vertices();
                let grid = HananGrid::build(&self.obstacles, &vertices);
                RowProvider::Hanan { grid, vertices }
            } else {
                RowProvider::Sweep(Box::new(SingleSourceEngine::new(&self.obstacles)))
            }
        })
    }

    fn row(&self, i: usize) -> Vec<Dist> {
        self.force().row(i)
    }
}

/// The implicit backend: a row generator plus a byte-budgeted LRU of
/// materialised rows.
pub struct ImplicitStore {
    provider: LazyProvider,
    dim: usize,
    cache: Mutex<BlockCache>,
}

impl ImplicitStore {
    fn new(provider: LazyProvider, dim: usize, budget_bytes: usize) -> Self {
        ImplicitStore { provider, dim, cache: Mutex::new(BlockCache::new(budget_bytes)) }
    }

    /// Row `i` (all distances from source vertex `i`), materialised on first
    /// use and resident while the byte budget allows.
    pub fn row(&self, i: usize) -> Arc<[Dist]> {
        debug_assert!(i < self.dim, "row out of range");
        let mut cache = self.cache.lock().expect("distance row cache poisoned");
        cache.get_or_insert_with(i as u64, || self.provider.row(i))
    }

    /// Entry `(i, j)`, served from *either* endpoint's row.
    ///
    /// The rectilinear metric is symmetric (`d(i, j) == d(j, i)`, a property
    /// the store test suite pins bitwise), so a resident row `j` answers a
    /// query about row `i` for free.  Only when neither row is resident does
    /// a sweep run — for the *canonical* row `min(i, j)`, so `(u, v)` and
    /// `(v, u)` always materialise the same row and a batch planner can
    /// count on one sweep per unordered pair.  Exactly one hit or miss is
    /// counted per call, as before.
    pub fn distance(&self, i: usize, j: usize) -> Dist {
        debug_assert!(i < self.dim && j < self.dim, "index out of range");
        let mut cache = self.cache.lock().expect("distance row cache poisoned");
        if let Some(row) = cache.peek(i as u64) {
            return row[j];
        }
        if i != j {
            if let Some(row) = cache.peek(j as u64) {
                return row[i];
            }
        }
        let (canon, other) = if i <= j { (i, j) } else { (j, i) };
        cache.get_or_insert_with(canon as u64, || self.provider.row(canon))[other]
    }

    /// Matrix dimension (`4n`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Materialise and pin a working set of rows for a batch's lifetime.
    ///
    /// Resident rows are reused (one hit each); the missing ones are swept
    /// in parallel *outside* the cache lock, then inserted (one miss each) —
    /// so a batch over `r` distinct rows costs at most `r` sweeps no matter
    /// how many queries it answers.  Rows are pinned against eviction only
    /// while the pinned total stays within the byte budget; rows past that
    /// point are held alive by the guard's own `Arc` handles instead, which
    /// keeps the answers correct (and still one-sweep) under arbitrarily
    /// small budgets at the price of letting the cache churn them.  Dropping
    /// the guard unpins everything and lets deferred evictions run.
    pub fn pin_rows(&self, rows: &[usize]) -> PinnedRows<'_> {
        use rayon::prelude::*;
        let mut distinct: Vec<usize> = rows.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if let Some(&max) = distinct.last() {
            assert!(max < self.dim, "row out of range");
        }
        let row_bytes = self.dim * ENTRY_BYTES;
        let mut handles: HashMap<usize, Arc<[Dist]>> = HashMap::with_capacity(distinct.len());
        let mut pinned: Vec<usize> = Vec::with_capacity(distinct.len());
        let missing: Vec<usize> = {
            let mut cache = self.cache.lock().expect("distance row cache poisoned");
            let budget = cache.stats().budget_bytes;
            distinct
                .into_iter()
                .filter(|&i| match cache.peek(i as u64) {
                    Some(row) => {
                        if cache.pinned_bytes() + row_bytes <= budget && cache.pin(i as u64) {
                            pinned.push(i);
                        }
                        handles.insert(i, row);
                        false
                    }
                    None => true,
                })
                .collect()
        };
        // Sweeps run unlocked and in parallel: they dominate cold-batch cost
        // and must not serialise behind (or block) concurrent readers.  The
        // provider is forced up front so the skeleton build happens once,
        // outside the fan-out.
        let built: Vec<(usize, Vec<Dist>)> = if missing.is_empty() {
            Vec::new()
        } else {
            let provider = self.provider.force();
            missing.par_iter().map(|&i| (i, provider.row(i))).collect()
        };
        let mut cache = self.cache.lock().expect("distance row cache poisoned");
        let budget = cache.stats().budget_bytes;
        for (i, row) in built {
            let handle = cache.get_or_insert_with(i as u64, || row);
            if cache.pinned_bytes() + row_bytes <= budget && cache.pin(i as u64) {
                pinned.push(i);
            }
            handles.insert(i, handle);
        }
        drop(cache);
        PinnedRows { store: self, pinned, rows: handles }
    }

    /// Memory accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        let cache = self.cache.lock().expect("distance row cache poisoned").stats();
        StoreStats {
            resident_bytes: cache.resident_bytes,
            dense_bytes: self.dim * self.dim * ENTRY_BYTES,
            budget_bytes: cache.budget_bytes,
            row_hits: cache.hits,
            row_misses: cache.misses,
            row_evictions: cache.evictions,
            pinned_bytes: cache.pinned_bytes,
        }
    }
}

/// A batch's pinned working set of distance rows (see
/// [`ImplicitStore::pin_rows`]).  Answers row and pair lookups without
/// touching the cache; dropping it releases every pin.
pub struct PinnedRows<'a> {
    store: &'a ImplicitStore,
    pinned: Vec<usize>,
    rows: HashMap<usize, Arc<[Dist]>>,
}

impl PinnedRows<'_> {
    /// The held row `i`, if it was part of the pinned set.
    pub fn row(&self, i: usize) -> Option<&[Dist]> {
        self.rows.get(&i).map(|r| &r[..])
    }

    /// Distance `(i, j)` answered from the held rows via either endpoint
    /// (the metric is symmetric).  Panics if neither row was requested from
    /// [`ImplicitStore::pin_rows`] — the planner guarantees coverage.
    pub fn distance(&self, i: usize, j: usize) -> Dist {
        if let Some(row) = self.rows.get(&i) {
            return row[j];
        }
        self.rows.get(&j).map(|row| row[i]).expect("planned batch covers every queried row")
    }

    /// Number of distinct rows held by this guard.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the guard holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Drop for PinnedRows<'_> {
    fn drop(&mut self) {
        let mut cache = self.store.cache.lock().expect("distance row cache poisoned");
        for &i in &self.pinned {
            cache.unpin(i as u64);
        }
    }
}

/// Accounting of a delta-carried implicit store build
/// ([`DistanceStore::implicit_delta`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowCarry {
    /// Resident rows carried over from the previous epoch's cache (keep-test
    /// passed; entries bitwise-identical to a fresh sweep).
    pub rows_carried: usize,
    /// Resident rows the keep-test invalidated (re-swept lazily on demand).
    pub rows_dropped: usize,
    /// Fresh sweeps run for inserted-corner sources during the carry.
    pub corner_sweeps: usize,
}

/// Pluggable distance storage for the `V_R`-to-`V_R` length structure.
///
/// The dense arm keeps the lock-free, allocation-free `O(1)` read the
/// vertex-pair fast path is benchmarked on (E10); the implicit arm trades
/// a mutex-guarded row cache for an `O(budget)` footprint.  Both arms
/// return bitwise-identical distances (see the module docs).
pub enum DistanceStore {
    /// The full matrix.
    Dense(MinPlusMatrix),
    /// Budgeted on-demand rows (boxed: the provider is large, and keeping
    /// the enum small keeps the dense arm's reads cheap).
    Implicit(Box<ImplicitStore>),
}

impl DistanceStore {
    /// Wrap an already materialised matrix.
    pub fn dense(matrix: MinPlusMatrix) -> Self {
        DistanceStore::Dense(matrix)
    }

    /// An implicit store over the Section 9 single-source engine — the
    /// backend behind every non-baseline engine.
    pub fn implicit_sweep(obstacles: &ObstacleSet, budget_bytes: usize) -> Self {
        let dim = obstacles.vertices().len();
        let provider = LazyProvider::deferred(Arc::new(obstacles.clone()), false);
        DistanceStore::Implicit(Box::new(ImplicitStore::new(provider, dim, budget_bytes)))
    }

    /// An implicit store over the Hanan-grid Dijkstra — the backend behind
    /// the baseline-comparator engine.
    pub fn implicit_hanan(obstacles: &ObstacleSet, budget_bytes: usize) -> Self {
        let dim = obstacles.vertices().len();
        let provider = LazyProvider::deferred(Arc::new(obstacles.clone()), true);
        DistanceStore::Implicit(Box::new(ImplicitStore::new(provider, dim, budget_bytes)))
    }

    /// An implicit store for an *edited* scene that carries over every
    /// resident row of the previous epoch's store that the edit provably
    /// cannot change.
    ///
    /// Soundness of the keep-test: engine rows hold *true* shortest-path
    /// distances, so for an inserted or removed rectangle `R` the distance
    /// `d(u, v)` can only change if some optimal (or newly optimal) path
    /// passes through `int(R)` — and any path through `int(R)` has length
    /// `> l1(u, R) + l1(v, R)` (the nearest points of a closed rectangle to
    /// a non-interior point lie on its boundary).  Hence
    /// `l1(u, R) + l1(v, R) >= d_old(u, v)` certifies `d_new == d_old`; the
    /// test composes over multi-rectangle deltas by induction, and `INF`
    /// entries conservatively fail it.  Columns of inserted vertices are
    /// filled exactly from fresh corner-source sweeps via metric symmetry
    /// (`row_u[j_new] = row_{j_new}[u]`).  A row failing the test for *any*
    /// surviving column is dropped whole ([`BlockCache::invalidate_if`]) and
    /// re-swept lazily if requested again.
    ///
    /// `old_to_new` / `new_to_old` map **vertex** indices across the id
    /// compaction (`None` = removed / inserted); `edited` holds the
    /// geometries of all inserted and removed rectangles.  A provider-kind
    /// mismatch (sweep vs Hanan) carries nothing.
    pub fn implicit_delta(
        obstacles: &ObstacleSet,
        budget_bytes: usize,
        hanan: bool,
        old: &ImplicitStore,
        old_to_new: &[Option<usize>],
        new_to_old: &[Option<usize>],
        edited: &[rsp_geom::Rect],
    ) -> (Self, RowCarry) {
        use rayon::prelude::*;
        let vertices = obstacles.vertices();
        let dim = vertices.len();
        // Deferred on purpose: for an edit whose keep-test carries the whole
        // resident set (and that inserts nothing), the skeleton build never
        // runs at all — the child store is ready in O(carried rows).
        let provider = LazyProvider::deferred(Arc::new(obstacles.clone()), hanan);
        let store = ImplicitStore::new(provider, dim, budget_bytes);
        let kinds_match = hanan == old.provider.hanan;
        // Candidate rows: resident in the old cache with a surviving source.
        let mut candidates: Vec<(usize, Arc<[Dist]>)> = if kinds_match {
            let old_cache = old.cache.lock().expect("distance row cache poisoned");
            old_cache
                .snapshot()
                .into_iter()
                .filter_map(|(k, row)| {
                    let new_i = (*old_to_new.get(k as usize)?)?;
                    Some((new_i, row))
                })
                .collect()
        } else {
            Vec::new()
        };
        if candidates.is_empty() || dim == 0 {
            return (DistanceStore::Implicit(Box::new(store)), RowCarry::default());
        }
        candidates.sort_by_key(|&(new_i, _)| new_i);
        // Exact rows for the inserted corners, swept in the new scene; they
        // both seed the cache and fill the inserted columns of carried rows.
        let inserted: Vec<usize> = (0..dim).filter(|&j| new_to_old[j].is_none()).collect();
        let corner_rows: Vec<(usize, Vec<Dist>)> = if inserted.is_empty() {
            Vec::new()
        } else {
            let provider = store.provider.force();
            inserted.par_iter().map(|&j| (j, provider.row(j))).collect()
        };
        let corner_of: HashMap<usize, &[Dist]> = corner_rows.iter().map(|&(j, ref r)| (j, &r[..])).collect();
        let remapped: Vec<(usize, Vec<Dist>)> = candidates
            .par_iter()
            .map(|&(new_i, ref old_row)| {
                let row = (0..dim)
                    .map(|j| match new_to_old[j] {
                        Some(old_j) => old_row[old_j],
                        None => corner_of[&j][new_i],
                    })
                    .collect();
                (new_i, row)
            })
            .collect();
        // Per-edited-rect vertex gaps, shared by every row's keep-test.
        let gaps: Vec<Vec<Dist>> =
            edited.iter().map(|r| vertices.iter().map(|&v| r.l1_distance_to(v)).collect()).collect();
        let carried: std::collections::HashSet<u64> = remapped.iter().map(|&(i, _)| i as u64).collect();
        let candidate_count = carried.len();
        let mut cache = store.cache.lock().expect("distance row cache poisoned");
        for (i, row) in remapped {
            cache.seed(i as u64, row.into());
        }
        let corner_sweeps = corner_rows.len();
        for (j, row) in corner_rows {
            cache.seed(j as u64, row.into());
        }
        cache.invalidate_if(|k, row| {
            if !carried.contains(&k) {
                return true; // fresh corner rows are exact by construction
            }
            let u = k as usize;
            gaps.iter().all(|gap| {
                let through_edit = gap[u];
                (0..dim).all(|j| new_to_old[j].is_none() || through_edit.saturating_add(gap[j]) >= row[j])
            })
        });
        // Count what actually stayed resident, so budget evictions during
        // seeding are charged as drops too, not claimed as reuse.
        let rows_carried = cache.snapshot().iter().filter(|(k, _)| carried.contains(k)).count();
        drop(cache);
        let carry = RowCarry { rows_carried, rows_dropped: candidate_count - rows_carried, corner_sweeps };
        (DistanceStore::Implicit(Box::new(store)), carry)
    }

    /// A dense store for an *edited* scene that carries every row of the
    /// previous epoch's matrix the edit provably cannot change and re-sweeps
    /// only the rest (inserted-corner sources plus keep-test failures).
    /// Same keep-test and column-fill scheme as
    /// [`DistanceStore::implicit_delta`]; the result is bitwise-identical to
    /// an eager fresh build.
    pub fn dense_delta(
        obstacles: &ObstacleSet,
        hanan: bool,
        old: &MinPlusMatrix,
        new_to_old: &[Option<usize>],
        edited: &[rsp_geom::Rect],
    ) -> (Self, RowCarry) {
        use rayon::prelude::*;
        let vertices = obstacles.vertices();
        let dim = vertices.len();
        // Deferred like the implicit arm's: a full-carry edit needs no sweeps
        // and therefore never builds the skeleton.
        let provider = LazyProvider::deferred(Arc::new(obstacles.clone()), hanan);
        let gaps: Vec<Vec<Dist>> =
            edited.iter().map(|r| vertices.iter().map(|&v| r.l1_distance_to(v)).collect()).collect();
        // Decide per row: carry (survivor passing the keep-test on every
        // surviving column) or sweep.
        let keeps: Vec<Option<usize>> = (0..dim)
            .into_par_iter()
            .map(|i| {
                let old_i = new_to_old[i]?;
                let old_row = old.row(old_i);
                gaps.iter()
                    .all(|gap| {
                        let through_edit = gap[i];
                        (0..dim).all(|j| match new_to_old[j] {
                            Some(old_j) => through_edit.saturating_add(gap[j]) >= old_row[old_j],
                            None => true,
                        })
                    })
                    .then_some(old_i)
            })
            .collect();
        let sweep_list: Vec<usize> = (0..dim).filter(|&i| keeps[i].is_none()).collect();
        let swept: HashMap<usize, Vec<Dist>> = if sweep_list.is_empty() {
            HashMap::new()
        } else {
            let provider = provider.force();
            sweep_list.par_iter().map(|&i| (i, provider.row(i))).collect()
        };
        let rows: Vec<Vec<Dist>> = (0..dim)
            .into_par_iter()
            .map(|i| match keeps[i] {
                Some(old_i) => {
                    let old_row = old.row(old_i);
                    (0..dim)
                        .map(|j| match new_to_old[j] {
                            Some(old_j) => old_row[old_j],
                            // Inserted column: exact by symmetry from the
                            // freshly swept inserted-corner row.
                            None => swept[&j][i],
                        })
                        .collect()
                }
                None => swept[&i].clone(),
            })
            .collect();
        let rows_carried = keeps.iter().filter(|k| k.is_some()).count();
        let corner_sweeps = (0..dim).filter(|&i| new_to_old[i].is_none()).count();
        let carry = RowCarry { rows_carried, rows_dropped: dim - rows_carried - corner_sweeps, corner_sweeps };
        (DistanceStore::dense(MinPlusMatrix::from_rows(rows)), carry)
    }

    /// Entry `(i, j)`: one array read for the dense arm, a cache probe (and
    /// possibly a single-source sweep) for the implicit arm.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> Dist {
        match self {
            DistanceStore::Dense(m) => m.get(i, j),
            DistanceStore::Implicit(s) => s.distance(i, j),
        }
    }

    /// Matrix dimension (`4n`).
    pub fn dim(&self) -> usize {
        match self {
            DistanceStore::Dense(m) => m.rows(),
            DistanceStore::Implicit(s) => s.dim(),
        }
    }

    /// The dense matrix, when this store has one (expert consumers — E8's
    /// matrix comparison, the recursion inspector — need the raw matrix and
    /// accept that an implicit store cannot provide it).
    pub fn as_dense(&self) -> Option<&MinPlusMatrix> {
        match self {
            DistanceStore::Dense(m) => Some(m),
            DistanceStore::Implicit(_) => None,
        }
    }

    /// The implicit backend, when this store has one (the batch planner
    /// pins rows on it; the dense arm needs no planning).
    pub fn as_implicit(&self) -> Option<&ImplicitStore> {
        match self {
            DistanceStore::Dense(_) => None,
            DistanceStore::Implicit(s) => Some(s),
        }
    }

    /// Which backend this is, with the implicit arm's configured budget.
    pub fn kind(&self) -> StoreKind {
        match self {
            DistanceStore::Dense(_) => StoreKind::Dense,
            DistanceStore::Implicit(s) => StoreKind::Implicit { budget_bytes: s.stats().budget_bytes },
        }
    }

    /// Memory accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        match self {
            DistanceStore::Dense(m) => {
                let bytes = m.rows() * m.cols() * ENTRY_BYTES;
                StoreStats { resident_bytes: bytes, dense_bytes: bytes, budget_bytes: bytes, ..StoreStats::default() }
            }
            DistanceStore::Implicit(s) => s.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_workload::uniform_disjoint;

    /// The dense store the sequential §9 construction builds.
    fn sequential_dense(obstacles: &ObstacleSet) -> DistanceStore {
        let apsp = crate::apsp::VertexApsp::build(obstacles);
        DistanceStore::dense(apsp.matrix().expect("dense build").clone())
    }

    #[test]
    fn auto_resolution_picks_by_scene_size() {
        assert_eq!(StoreKind::Auto.resolve(8), StoreKind::Dense);
        assert_eq!(
            StoreKind::Auto.resolve(IMPLICIT_AUTO_THRESHOLD),
            StoreKind::Implicit { budget_bytes: default_budget_bytes(IMPLICIT_AUTO_THRESHOLD) }
        );
        assert_eq!(StoreKind::Dense.resolve(10_000), StoreKind::Dense);
        let pinned = StoreKind::Implicit { budget_bytes: 123 };
        assert_eq!(pinned.resolve(1), pinned);
    }

    #[test]
    fn budget_arithmetic() {
        // n = 2048: dense is (8192)^2 * 8 = 512 MiB; the default budget is
        // 1/16 of that = 32 MiB, comfortably under the 10% acceptance bar.
        assert_eq!(dense_bytes_for(2048), 512 << 20);
        assert_eq!(default_budget_bytes(2048), 32 << 20);
        assert!(default_budget_bytes(2048) * 10 <= dense_bytes_for(2048));
        // tiny scenes get the 1 MiB floor
        assert_eq!(default_budget_bytes(4), 1 << 20);
    }

    #[test]
    fn implicit_sweep_matches_dense_bitwise() {
        let w = uniform_disjoint(9, 17);
        let dense = sequential_dense(&w.obstacles);
        // A budget of three rows forces heavy churn; answers must not move.
        let row_bytes = dense.dim() * ENTRY_BYTES;
        let implicit = DistanceStore::implicit_sweep(&w.obstacles, 3 * row_bytes);
        assert_eq!(implicit.dim(), dense.dim());
        for i in 0..dense.dim() {
            for j in 0..dense.dim() {
                assert_eq!(implicit.at(i, j), dense.at(i, j), "({i},{j})");
            }
        }
        let stats = implicit.stats();
        assert!(stats.resident_bytes <= 3 * row_bytes);
        assert!(stats.row_evictions > 0, "a 3-row budget over {} rows must evict", dense.dim());
        assert_eq!(stats.dense_bytes, dense.stats().dense_bytes);
        // Dense accounting: resident == dense == budget, no cache traffic.
        let d = dense.stats();
        assert_eq!(d.resident_bytes, d.dense_bytes);
        assert_eq!((d.row_hits, d.row_misses, d.row_evictions), (0, 0, 0));
    }

    #[test]
    fn implicit_hanan_matches_the_dijkstra_baseline() {
        let w = uniform_disjoint(6, 5);
        let baseline = crate::baseline::dijkstra_sssp_matrix(&w.obstacles);
        let implicit = DistanceStore::implicit_hanan(&w.obstacles, usize::MAX);
        assert_eq!(implicit.kind(), StoreKind::Implicit { budget_bytes: usize::MAX });
        for i in 0..baseline.rows() {
            for j in 0..baseline.cols() {
                assert_eq!(implicit.at(i, j), baseline.get(i, j), "({i},{j})");
            }
        }
        assert!(implicit.as_dense().is_none());
    }

    #[test]
    fn symmetric_accessor_answers_from_either_resident_row() {
        let w = uniform_disjoint(5, 3);
        let store = DistanceStore::implicit_sweep(&w.obstacles, usize::MAX);
        let dim = store.dim();
        // Materialise row 2, then ask (7, 2): the resident row must answer
        // (one hit), with no second sweep for row 7.
        let d_direct = store.at(2, 7);
        let before = store.stats();
        let d_sym = store.at(7, 2);
        let after = store.stats();
        assert_eq!(d_sym, d_direct, "metric symmetry");
        assert_eq!(after.row_misses, before.row_misses, "no extra sweep");
        assert_eq!(after.row_hits, before.row_hits + 1);
        // A fresh unordered pair materialises its canonical (min) row only.
        let _ = store.at(9, 4);
        let implicit = store.as_implicit().expect("implicit store");
        assert!(implicit.row(4).len() == dim, "canonical row 4 is resident");
        assert_eq!(store.stats().row_misses, after.row_misses + 1);
    }

    #[test]
    fn pinned_rows_answer_batches_with_one_sweep_per_row() {
        let w = uniform_disjoint(6, 11);
        let dense = sequential_dense(&w.obstacles);
        let dim = dense.dim();
        let row_bytes = dim * ENTRY_BYTES;
        let store = DistanceStore::implicit_sweep(&w.obstacles, 2 * row_bytes);
        let implicit = store.as_implicit().expect("implicit store");
        {
            let pins = implicit.pin_rows(&[3, 0, 7, 3, 0]);
            assert_eq!(pins.len(), 3);
            assert!(!pins.is_empty());
            // Only two rows fit the pin budget; the third is held by handle.
            let stats = store.stats();
            assert_eq!(stats.pinned_bytes, 2 * row_bytes);
            assert_eq!(stats.row_misses, 3, "one sweep per distinct row");
            for j in 0..dim {
                assert_eq!(pins.distance(0, j), dense.at(0, j), "(0,{j})");
                assert_eq!(pins.distance(j, 7), dense.at(j, 7), "({j},7) via symmetry");
            }
            assert_eq!(pins.row(3).expect("requested row")[5], dense.at(3, 5));
            assert!(pins.row(9).is_none());
            // Answering from pins generated no further cache traffic.
            assert_eq!(store.stats().row_misses, 3);
            assert_eq!(store.stats().row_hits, 0);
        }
        // The guard dropped: pins released, budget enforcement resumes.
        let stats = store.stats();
        assert_eq!(stats.pinned_bytes, 0);
        assert!(stats.resident_bytes <= 2 * row_bytes);
        // Pinning a still-resident row costs a hit, not a sweep.
        let pins = implicit.pin_rows(&[0]);
        assert!(pins.row(0).is_some());
        assert_eq!(store.stats().row_misses, 3);
        assert_eq!(store.stats().row_hits, 1);
    }

    #[test]
    fn row_cache_counts_hits_after_first_touch() {
        let w = uniform_disjoint(4, 2);
        let store = DistanceStore::implicit_sweep(&w.obstacles, usize::MAX);
        let dim = store.dim();
        for j in 0..dim {
            let _ = store.at(0, j);
        }
        let stats = store.stats();
        assert_eq!(stats.row_misses, 1, "one sweep serves the whole row scan");
        assert_eq!(stats.row_hits as usize, dim - 1);
        assert_eq!(stats.row_evictions, 0);
        assert_eq!(stats.resident_bytes, dim * ENTRY_BYTES);
    }
}
