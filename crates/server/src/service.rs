//! The in-process serving engine: configuration, typed entry points, and
//! the [`Request`] → [`Response`] dispatcher shared by every front end.
//!
//! [`RspService`] is the whole subsystem minus transport: shards, session
//! caches and admission queues, driven either directly (the in-process
//! client — also what the `e12_server_load` bench measures) or through the
//! TCP front end in [`server`](crate::server), which is a thin framing loop
//! around [`RspService::handle`].

use crate::protocol::{Request, Response, SceneId, ServerError, ServerStats};
use crate::shard::ShardSet;
use rsp_core::router::Router;
use rsp_core::store::StoreKind;
use rsp_geom::{Dist, ObstacleSet, Point, RectiPath, SceneDelta};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for an [`RspService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of independent shards (default 1).
    pub shards: usize,
    /// Resident-session bound *per shard* (default 16).
    pub session_capacity: usize,
    /// Distance-store byte budget *per shard* (default 1 GiB): the summed
    /// residency of the shard's built routers; crossing it LRU-evicts whole
    /// sessions (the count cap above is the secondary bound).
    pub session_budget_bytes: usize,
    /// Admission window: how long the executing caller lingers, measured
    /// from the oldest queued query, before draining a batch (default zero:
    /// drain at once, so a lone query pays no timer and batches form only
    /// from queries that queue while another batch runs).
    pub batch_window: Duration,
    /// Admission size budget: a batch dispatches as soon as it holds this
    /// many queries (default 256).
    pub batch_max: usize,
    /// Distance store for session construction (default [`StoreKind::Auto`]:
    /// dense for small scenes, byte-budgeted implicit rows for large ones).
    pub store: StoreKind,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            session_capacity: 16,
            session_budget_bytes: 1 << 30,
            batch_window: Duration::ZERO,
            batch_max: 256,
            store: StoreKind::Auto,
        }
    }
}

/// The sharded, batching query-serving engine over [`Router`] sessions.
pub struct RspService {
    shards: ShardSet,
}

impl RspService {
    /// Assemble a service (shards with their caches and queues; no threads).
    pub fn new(config: ServiceConfig) -> Self {
        RspService { shards: ShardSet::new(&config) }
    }

    /// Load (or touch) a scene on its shard; returns its wire id.
    pub fn load_scene(&self, obstacles: &ObstacleSet) -> Result<SceneId, ServerError> {
        let (scene, session) = self.shards.shard_for(obstacles.scene_hash()).sessions.load(obstacles);
        session.map(|_| scene)
    }

    /// The cached session for a scene (introspection: tests use this to
    /// certify that concurrent clients share one `Arc<Router>`).
    pub fn session(&self, scene: SceneId) -> Result<Arc<Router>, ServerError> {
        self.shards.shard_for(scene).sessions.lookup(scene)
    }

    /// Edit a resident scene: resolve the session for `base`, derive the new
    /// epoch's session with [`Router::apply_delta`] (substructure-reusing,
    /// bitwise-faithful), and adopt it into the cache under the edited
    /// geometry's own scene hash — which may live on a *different* shard
    /// than the base, since shards are keyed by content hash.  Returns the
    /// new scene id, its obstacle count and the adopted session's epoch.
    /// The base session stays resident and queryable throughout.
    pub fn update_scene(&self, base: SceneId, delta: &SceneDelta) -> Result<(SceneId, usize, u64), ServerError> {
        let base_router = self.shards.shard_for(base).sessions.lookup(base)?;
        let edited = Arc::new(base_router.apply_delta(delta).map_err(ServerError::from)?);
        let obstacles = edited.instance().obstacles_arc();
        let scene = obstacles.scene_hash();
        let session = self.shards.shard_for(scene).sessions.adopt(scene, obstacles, edited)?;
        Ok((scene, session.instance().obstacles().len(), session.epoch()))
    }

    /// One point-to-point length query, coalesced with concurrent queries on
    /// the same shard into a single `Router` batch.
    pub fn distance(&self, scene: SceneId, a: Point, b: Point) -> Result<Dist, ServerError> {
        let shard = self.shards.shard_for(scene);
        let router = shard.sessions.lookup(scene)?;
        // `recv` fails only if the batch carrying this query panicked.
        shard.queue.submit(router, a, b).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// A pre-batched distance query, served by one
    /// [`Router::distances`] call (no admission delay).
    pub fn batch_distances(&self, scene: SceneId, pairs: &[(Point, Point)]) -> Result<Vec<Dist>, ServerError> {
        let router = self.shards.shard_for(scene).sessions.lookup(scene)?;
        router.distances(pairs).map_err(ServerError::from)
    }

    /// One vertex-pair path report.
    pub fn path(&self, scene: SceneId, source: Point, target: Point) -> Result<RectiPath, ServerError> {
        let router = self.shards.shard_for(scene).sessions.lookup(scene)?;
        router.path(source, target).map_err(ServerError::from)
    }

    /// A pre-batched set of vertex-pair path reports.
    pub fn batch_paths(&self, scene: SceneId, pairs: &[(Point, Point)]) -> Result<Vec<RectiPath>, ServerError> {
        let router = self.shards.shard_for(scene).sessions.lookup(scene)?;
        router.paths(pairs).map_err(ServerError::from)
    }

    /// Per-shard counter snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats { shards: self.shards.shards().iter().map(|s| s.stats()).collect() }
    }

    /// Drop a scene's session; returns whether it was resident.
    pub fn evict(&self, scene: SceneId) -> bool {
        self.shards.shard_for(scene).sessions.evict(scene)
    }

    /// Serve one wire request.  This is the single dispatch point every
    /// transport shares; it never panics on client input — all failures
    /// come back as [`Response::Error`].
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::LoadScene { obstacles } => match self.load_scene(&obstacles) {
                Ok(scene) => Response::SceneLoaded { scene, obstacles: obstacles.len() },
                Err(error) => Response::Error { error },
            },
            Request::Distance { scene, a, b } => match self.distance(scene, a, b) {
                Ok(length) => Response::Distance { length },
                Err(error) => Response::Error { error },
            },
            Request::Path { scene, source, target } => match self.path(scene, source, target) {
                Ok(path) => Response::Path { path },
                Err(error) => Response::Error { error },
            },
            Request::BatchDistances { scene, pairs } => match self.batch_distances(scene, &pairs) {
                Ok(lengths) => Response::Distances { lengths },
                Err(error) => Response::Error { error },
            },
            Request::BatchPaths { scene, pairs } => match self.batch_paths(scene, &pairs) {
                Ok(paths) => Response::Paths { paths },
                Err(error) => Response::Error { error },
            },
            Request::UpdateScene { base, delta } => match self.update_scene(base, &delta) {
                Ok((scene, obstacles, epoch)) => Response::SceneUpdated { scene, obstacles, epoch },
                Err(error) => Response::Error { error },
            },
            Request::Stats => Response::Stats { stats: self.stats() },
            Request::Evict { scene } => Response::Evicted { existed: self.evict(scene) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::Rect;
    use rsp_workload::{query_pairs, uniform_disjoint};

    fn service(shards: usize) -> RspService {
        RspService::new(ServiceConfig { shards, batch_window: Duration::from_micros(100), ..ServiceConfig::default() })
    }

    #[test]
    fn end_to_end_dispatch_matches_direct_router() {
        let svc = service(2);
        let w = uniform_disjoint(10, 23);
        let scene = svc.load_scene(&w.obstacles).unwrap();
        assert_eq!(scene, w.obstacles.scene_hash());
        let direct = Router::new(w.obstacles.clone()).unwrap();
        let mut pairs = query_pairs(&w.obstacles, 16, true, 7);
        pairs.extend(query_pairs(&w.obstacles, 16, false, 8));
        // Coalesced single queries.
        for &(a, b) in &pairs {
            assert_eq!(svc.distance(scene, a, b).unwrap(), direct.distance(a, b).unwrap());
        }
        // Pre-batched queries.
        let batched = svc.batch_distances(scene, &pairs).unwrap();
        assert_eq!(batched, direct.distances(&pairs).unwrap());
        // Paths certify against distances.
        let verts = w.obstacles.vertices();
        let path = svc.path(scene, verts[0], verts[9]).unwrap();
        assert_eq!(path.length(), direct.vertex_distance(verts[0], verts[9]).unwrap());
        assert!(path.avoids(&w.obstacles));
    }

    #[test]
    fn handle_maps_every_failure_to_a_typed_error_response() {
        let svc = service(1);
        let missing = 0xdead_beef;
        assert_eq!(
            svc.handle(Request::Distance { scene: missing, a: Point::new(0, 0), b: Point::new(1, 1) }),
            Response::Error { error: ServerError::UnknownScene { scene: missing } }
        );
        let overlapping = ObstacleSet::new(vec![Rect::new(0, 0, 4, 4), Rect::new(2, 2, 6, 6)]);
        match svc.handle(Request::LoadScene { obstacles: overlapping }) {
            Response::Error { error: ServerError::OverlappingObstacles { violation } } => {
                assert_eq!((violation.first, violation.second), (0, 1));
            }
            other => panic!("expected overlap error, got {other:?}"),
        }
        let far = ObstacleSet::new(vec![Rect::new(1 << 60, 0, (1 << 60) + 4, 20)]);
        assert_eq!(
            svc.handle(Request::LoadScene { obstacles: far }),
            Response::Error { error: ServerError::CoordinateOutOfRange { coordinate: (1 << 60) - 2 } }
        );
        let scene = svc.load_scene(&ObstacleSet::new(vec![Rect::new(2, 2, 6, 10)])).unwrap();
        match svc.handle(Request::Path { scene, source: Point::new(1, 1), target: Point::new(2, 2) }) {
            Response::Error { error: ServerError::NotAVertex { point } } => assert_eq!(point, Point::new(1, 1)),
            other => panic!("expected not-a-vertex error, got {other:?}"),
        }
        assert_eq!(svc.handle(Request::Evict { scene }), Response::Evicted { existed: true });
        assert_eq!(svc.handle(Request::Evict { scene }), Response::Evicted { existed: false });
    }

    #[test]
    fn implicit_store_service_matches_dense_and_reports_memory() {
        let w = uniform_disjoint(8, 19);
        let dense_svc = RspService::new(ServiceConfig { store: StoreKind::Dense, ..ServiceConfig::default() });
        let impl_svc = RspService::new(ServiceConfig {
            store: StoreKind::Implicit { budget_bytes: 1 << 16 },
            ..ServiceConfig::default()
        });
        let scene_d = dense_svc.load_scene(&w.obstacles).unwrap();
        let scene_i = impl_svc.load_scene(&w.obstacles).unwrap();
        // 24 vertex pairs: answers must agree bitwise across backends.
        let pairs = query_pairs(&w.obstacles, 24, true, 3);
        assert_eq!(
            dense_svc.batch_distances(scene_d, &pairs).unwrap(),
            impl_svc.batch_distances(scene_i, &pairs).unwrap()
        );
        // Stats carry per-session memory: the dense session holds the whole
        // 32x32 matrix, the implicit one only the rows those pairs touched.
        let d_bytes = dense_svc.stats().total_resident_bytes();
        let i_bytes = impl_svc.stats().total_resident_bytes();
        assert_eq!(d_bytes, (4 * w.n() * 4 * w.n() * 8) as u64);
        assert!(i_bytes > 0);
        assert!(i_bytes < d_bytes, "at most 24 of 32 rows can be resident");
        // The per-session breakdown travels on the wire too (protocol v3):
        // each built session reports its store counters keyed by scene id.
        let impl_stores: Vec<_> = impl_svc.stats().shards.into_iter().flat_map(|s| s.stores).collect();
        assert_eq!(impl_stores.len(), 1);
        let s = &impl_stores[0];
        assert_eq!(s.scene, scene_i);
        assert_eq!(s.resident_bytes, i_bytes);
        assert_eq!(s.budget_bytes, 1 << 16);
        assert_eq!(s.dense_bytes, d_bytes);
        assert!(s.row_misses > 0, "cold rows were swept");
        assert_eq!(s.pinned_bytes, 0, "no batch in flight");
        let dense_stores: Vec<_> = dense_svc.stats().shards.into_iter().flat_map(|s| s.stores).collect();
        assert_eq!(dense_stores.len(), 1);
        assert_eq!(dense_stores[0].resident_bytes, d_bytes);
        assert_eq!(dense_stores[0].row_misses, 0, "dense rows never sweep");
    }

    #[test]
    fn update_scene_edits_in_place_and_keeps_the_base_resident() {
        // Several shards, so base and edited scenes routinely land on
        // different ones — adopt must cross shards by content hash.
        let svc = service(4);
        let w = uniform_disjoint(10, 23);
        let base = svc.load_scene(&w.obstacles).unwrap();
        // Warm the base session so the edit has substructures to carry.
        let pairs = query_pairs(&w.obstacles, 8, true, 7);
        let base_answers = svc.batch_distances(base, &pairs).unwrap();
        let delta = SceneDelta::inserting(vec![Rect::new(2000, 2000, 2004, 2004)]);
        let (edited, n_obstacles, epoch) = svc.update_scene(base, &delta).unwrap();
        assert_eq!(n_obstacles, w.n() + 1);
        assert_eq!(epoch, 1);
        assert_ne!(edited, base);
        // Content addressing: the edited id is the edited geometry's hash,
        // and re-sending the same edit resolves to the same resident session.
        let edited_set = w.obstacles.apply_delta(&delta).unwrap().obstacles;
        assert_eq!(edited, edited_set.scene_hash());
        let again = svc.update_scene(base, &delta).unwrap();
        assert_eq!(again, (edited, n_obstacles, epoch));
        assert!(Arc::ptr_eq(&svc.session(edited).unwrap(), &svc.session(edited).unwrap()));
        // The base keeps answering, unchanged.
        assert_eq!(svc.batch_distances(base, &pairs).unwrap(), base_answers);
        // The edited session answers bitwise like a from-scratch build.
        let direct = Router::new(edited_set.clone()).unwrap();
        let edited_pairs = query_pairs(&edited_set, 16, true, 9);
        assert_eq!(svc.batch_distances(edited, &edited_pairs).unwrap(), direct.distances(&edited_pairs).unwrap());
        // Stats report the epoch and the delta-reuse counters on the wire.
        let stores: Vec<_> = svc.stats().shards.into_iter().flat_map(|s| s.stores).collect();
        let base_store = stores.iter().find(|s| s.scene == base).unwrap();
        let edited_store = stores.iter().find(|s| s.scene == edited).unwrap();
        assert_eq!(base_store.epoch, 0);
        assert_eq!(edited_store.epoch, 1);
        assert!(edited_store.rows_reused > 0, "far insert should carry rows: {edited_store:?}");
        // A malformed delta comes back as the typed wire error.
        let bad = SceneDelta::removing(vec![99]);
        match svc.handle(Request::UpdateScene { base, delta: bad }) {
            Response::Error { error: ServerError::InvalidDelta { .. } } => {}
            other => panic!("expected invalid-delta error, got {other:?}"),
        }
        // Editing an unknown scene reports UnknownScene.
        assert_eq!(
            svc.update_scene(0xdead, &SceneDelta::default()).err(),
            Some(ServerError::UnknownScene { scene: 0xdead })
        );
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let svc = service(4);
        let mut loaded = 0;
        for offset in 0..6i64 {
            let scene = ObstacleSet::new(vec![Rect::new(offset * 10, 0, offset * 10 + 2, 3)]);
            svc.load_scene(&scene).unwrap();
            loaded += 1;
        }
        let stats = svc.stats();
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(stats.total_builds(), loaded);
        assert_eq!(stats.total_resident(), loaded);
        assert_eq!(stats.total_evictions(), 0);
    }
}
