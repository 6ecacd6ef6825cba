//! `serve_mixed`: a seeded request mix over loopback TCP.
//!
//! Set-up starts an in-process `Server` (`ServiceConfig::default()` with
//! two shards), loads two tenants — dense `uniform_disjoint(256)` and
//! implicit `uniform_disjoint(1024)` — and pre-warms every query the mix can
//! send, so steady state runs no row sweeps and builds no trees.  One
//! `Client` connection per load thread (at most `nproc`, at most two) sends
//! 60% single `Distance` (half vertex pairs, half arbitrary points), 30%
//! `BatchDistances` of 64 (both tenants) and 10% `BatchPaths` of 8 (dense
//! tenant, from a pool of 8 pre-warmed sources).
//!
//! The whole workload — server, clients and set-up — runs pinned to one
//! CPU, so it has one connection.  Every request hands off between client,
//! connection and shard threads several times; spread over two CPUs of a
//! shared virtual machine, each hand-off can wait for an idle virtual CPU
//! to be woken, and that wait set the round trip: its p50 moved by 1.5x
//! between runs of the same code, against a few per cent on one CPU.
//!
//! Two phases: an open loop at [`OFFERED_RPS`], with each latency timed
//! from the request's due time, then a closed loop (each connection sends
//! its next request when the last one is answered) that measures capacity.
//! Primary: single `Distance` latency in the closed loop; secondary:
//! `BatchDistances` latency in the closed loop.  At the fixed rate the CPU
//! idles between requests, and each one starts on a CPU that has been idle
//! or running someone else's work: across seeds the fixed-rate
//! `BatchDistances` p50 spread by up to 24%, the closed loop's by up to 12%,
//! so the fixed-rate figures are printed, not gated.

use crate::common::{
    digest_lengths, digest_paths, hanan_check, mix, reference_router, repeated_setup, uncertified, Ctx, Pairs,
};
use crate::probe::{self, ratio, Totals};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use rsp_core::router::Router;
use rsp_geom::{Dist, ObstacleSet, Point};
use rsp_server::protocol::{read_message, write_message};
use rsp_server::{Client, Coalescer, Request, Response, RspService, SceneId, Server, ServerStats, ServiceConfig};
use rsp_workload::{query_pairs, uniform_disjoint};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const DENSE_N: usize = 256;
pub const IMPLICIT_N: usize = 1024;
/// Offered load of the open-loop phase, requests per second over all
/// connections (well below capacity, so it measures unloaded latency).
pub const OFFERED_RPS: f64 = 400.0;
/// Share of the budget spent in the open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.3;
const MAX_CONNECTIONS: usize = 2;
/// Requests generated per connection; the loops cycle through them.
const POOL: usize = 1024;
const BATCH: usize = 64;
const PATH_BATCH: usize = 8;
/// Implicit tenant: vertex pairs are drawn among this many hot vertices and
/// point pairs from a pool this small, so the warm working set stays under
/// half the store's row budget.
const HOT_VERTICES: usize = 64;
const HOT_POINT_PAIRS: usize = 32;
/// Distinct path sources of the dense tenant (their trees are built in
/// set-up).
const PATH_SOURCES: usize = 8;
/// Probe requests per kind in the traced run.
const PROBES: usize = 48;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Distance,
    Batch,
    Paths,
}

/// One tenant's scene and the query pools its requests draw from.
#[derive(Clone, Debug, PartialEq)]
pub struct Tenant {
    pub obstacles: ObstacleSet,
    pub vertex_pairs: Vec<(Point, Point)>,
    pub point_pairs: Vec<(Point, Point)>,
    pub path_pairs: Vec<(Point, Point)>,
}

/// One generated request, before scene ids are known.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    pub kind: Kind,
    pub tenant: usize,
    pub pairs: Vec<(Point, Point)>,
}

/// Everything the workload sends, derived from the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeInputs {
    pub tenants: Vec<Tenant>,
    /// One request pool per connection.
    pub pools: Vec<Vec<Planned>>,
}

fn tenant(n: usize, seed: u64, hot: bool) -> Tenant {
    let obstacles = uniform_disjoint(n, seed).obstacles;
    let mut rng = Rng::new(seed, 7);
    let vertices = obstacles.vertices();
    let (vertex_pairs, point_pairs) = if hot {
        let hot: Vec<Point> = (0..HOT_VERTICES).map(|_| vertices[rng.below(vertices.len())]).collect();
        let pairs = (0..4 * HOT_VERTICES).map(|_| (hot[rng.below(hot.len())], hot[rng.below(hot.len())])).collect();
        (pairs, query_pairs(&obstacles, HOT_POINT_PAIRS, false, seed ^ 2))
    } else {
        (query_pairs(&obstacles, 256, true, seed ^ 1), query_pairs(&obstacles, 256, false, seed ^ 2))
    };
    // Only the dense tenant serves paths (see `inputs`).
    let path_pairs = if hot {
        Vec::new()
    } else {
        let sources: Vec<Point> = vertex_pairs.iter().take(PATH_SOURCES).map(|&(s, _)| s).collect();
        vertex_pairs.iter().enumerate().take(64).map(|(i, &(_, t))| (sources[i % sources.len()], t)).collect()
    };
    Tenant { obstacles, vertex_pairs, point_pairs, path_pairs }
}

pub fn inputs(seed: u64, connections: usize) -> ServeInputs {
    let tenants = vec![tenant(DENSE_N, mix(seed, 10), false), tenant(IMPLICIT_N, mix(seed, 11), true)];
    let pools = (0..connections)
        .map(|c| {
            let mut rng = Rng::new(seed, 100 + c as u64);
            (0..POOL)
                .map(|_| {
                    let roll = rng.below(100);
                    // Paths go to the dense tenant only: tree builds on the
                    // implicit tenant cost from 0.1 to over 1 s per source
                    // depending on the scene, which would make set-up time a
                    // function of the seed.
                    let t = if roll >= 90 { 0 } else { rng.below(tenants.len()) };
                    let tn = &tenants[t];
                    let mut pick = |pool: &[(Point, Point)]| pool[rng.below(pool.len())];
                    if roll < 60 {
                        let pair = if roll.is_multiple_of(2) { pick(&tn.vertex_pairs) } else { pick(&tn.point_pairs) };
                        Planned { kind: Kind::Distance, tenant: t, pairs: vec![pair] }
                    } else if roll < 90 {
                        let pairs = (0..BATCH)
                            .map(|i| if i % 2 == 0 { pick(&tn.vertex_pairs) } else { pick(&tn.point_pairs) })
                            .collect();
                        Planned { kind: Kind::Batch, tenant: t, pairs }
                    } else {
                        let pairs = (0..PATH_BATCH).map(|_| pick(&tn.path_pairs)).collect();
                        Planned { kind: Kind::Paths, tenant: t, pairs }
                    }
                })
                .collect()
        })
        .collect();
    ServeInputs { tenants, pools }
}

fn to_request(p: &Planned, scenes: &[SceneId]) -> Request {
    let scene = scenes[p.tenant];
    match p.kind {
        Kind::Distance => Request::Distance { scene, a: p.pairs[0].0, b: p.pairs[0].1 },
        Kind::Batch => Request::BatchDistances { scene, pairs: p.pairs.clone() },
        Kind::Paths => Request::BatchPaths { scene, pairs: p.pairs.clone() },
    }
}

/// Fingerprint of a response (`None` for an error or an unexpected kind).
fn response_digest(r: &Response) -> Option<u64> {
    match r {
        Response::Distance { length } => Some(digest_lengths(&[*length])),
        Response::Distances { lengths } => Some(digest_lengths(lengths)),
        Response::Paths { paths } => Some(digest_paths(paths)),
        _ => None,
    }
}

/// A running server with its tenants loaded and warm, and one connected
/// client per load thread.
struct Rig {
    server: Server,
    scenes: Vec<SceneId>,
    clients: Vec<Client>,
}

fn setup(inputs: &ServeInputs) -> Rig {
    let service = RspService::new(ServiceConfig { shards: 2, ..ServiceConfig::default() });
    let server = Server::bind("127.0.0.1:0", service).expect("bind a loopback port");
    let mut warm = Client::connect(server.addr()).expect("connect");
    let scenes: Vec<SceneId> = inputs.tenants.iter().map(|t| warm.load_scene(&t.obstacles).expect("load")).collect();
    for (tenant, &scene) in inputs.tenants.iter().zip(&scenes) {
        let mut all = tenant.vertex_pairs.clone();
        all.extend_from_slice(&tenant.point_pairs);
        warm.batch_distances(scene, &all).expect("warm distances");
    }
    warm.batch_paths(scenes[0], &inputs.tenants[0].path_pairs).expect("warm paths");
    let clients = inputs.pools.iter().map(|_| Client::connect(server.addr()).expect("connect")).collect();
    Rig { server, scenes, clients }
}

/// One answered request.
struct Answer {
    kind: Kind,
    pool_index: usize,
    latency_ms: f64,
    lag_ms: f64,
    digest: Option<u64>,
}

/// When one connection sends: every `period` from `start` (open loop), or
/// back to back (closed loop, no period), until `end`.
#[derive(Clone, Copy)]
struct Schedule {
    start: Instant,
    end: Instant,
    period: Option<Duration>,
}

/// Run one connection's requests on `schedule`, cycling through `pool`.
fn drive(
    client: &mut Client,
    pool: &[Request],
    kinds: &[Kind],
    schedule: Schedule,
    mut tracer: Option<&mut Tracer>,
    req_base: u64,
) -> Vec<Answer> {
    let mut out = Vec::new();
    for i in 0.. {
        let due = match schedule.period {
            Some(p) => schedule.start + p * i as u32,
            None => Instant::now(),
        };
        if due >= schedule.end {
            break;
        }
        // Sleep to just short of the due time, then spin the rest.
        let now = Instant::now();
        if due > now + Duration::from_micros(200) {
            std::thread::sleep(due - now - Duration::from_micros(150));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let idx = i % pool.len();
        let span = tracer.as_deref_mut().map(|t| t.enter("serve.request", req_base + i as u64));
        let response = client.call(&pool[idx]);
        let done = Instant::now();
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.exit(id);
        }
        out.push(Answer {
            kind: kinds[idx],
            pool_index: idx,
            latency_ms: (done - due).as_secs_f64() * 1e3,
            lag_ms: (sent - due).as_secs_f64() * 1e3,
            digest: response.ok().as_ref().and_then(response_digest),
        });
    }
    out
}

/// Run every connection for `seconds`, in parallel; answers per connection.
fn phase(
    rig: &mut Rig,
    requests: &[Vec<Request>],
    kinds: &[Vec<Kind>],
    seconds: f64,
    open: bool,
    tracers: Option<&mut [Tracer]>,
) -> Vec<Vec<Answer>> {
    let connections = rig.clients.len();
    let period = open.then(|| Duration::from_secs_f64(connections as f64 / OFFERED_RPS));
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(seconds);
    let mut tracer_slots: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => (0..connections).map(|_| None).collect(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(tracer_slots.iter_mut())
            .enumerate()
            .map(|(c, (client, tracer))| {
                // Stagger the connections evenly inside one period.
                let offset = period.map_or(Duration::ZERO, |p| p * c as u32 / connections as u32);
                let (pool, kinds) = (&requests[c], &kinds[c]);
                let tracer = tracer.take();
                let schedule = Schedule { start: start + offset, end, period };
                scope.spawn(move || drive(client, pool, kinds, schedule, tracer, (c as u64) << 40))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect()
    })
}

/// Summed store counters of every resident session: (hits, misses,
/// resident bytes).
fn store_totals(stats: &ServerStats) -> (u64, u64, u64) {
    let stores = stats.shards.iter().flat_map(|s| &s.stores);
    stores.fold((0, 0, 0), |(h, m, b), s| (h + s.row_hits, m + s.row_misses, b + s.resident_bytes))
}

/// Summed admission counters: (queries, batches).
fn queue_totals(stats: &ServerStats) -> (u64, u64) {
    stats.shards.iter().fold((0, 0), |(q, b), s| (q + s.queue.queries, b + s.queue.batches))
}

/// Traced probes: for a sample of pool requests, the TCP round trip, the
/// codec both ways, the in-process `RspService::handle`, the session lookup,
/// and — per kind — the admission queue, the planner and warm `Router`
/// queries ([`probe::warm_queries`]) and path extraction, each timed on its
/// own.
fn probes(t: &mut Tracer, rig: &mut Rig, inputs: &ServeInputs, requests: &[Request]) {
    let service = rig.server.service();
    let routers: Vec<Arc<Router>> = rig.scenes.iter().map(|&s| service.session(s).expect("resident")).collect();
    let queue = Coalescer::new(ServiceConfig::default().batch_window, ServiceConfig::default().batch_max);
    let client = &mut rig.clients[0];
    let mut taken: BTreeMap<Kind, usize> = BTreeMap::new();
    for (i, (planned, request)) in inputs.pools[0].iter().zip(requests).enumerate() {
        let seen = taken.entry(planned.kind).or_insert(0);
        if *seen >= if planned.kind == Kind::Paths { PROBES / 3 } else { PROBES } {
            continue;
        }
        *seen += 1;
        let req = i as u64;
        let response = t.span("transport.rtt", req, || client.call(request));
        let Ok(response) = response else { continue };
        let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
        t.span("protocol.encode", req, || {
            write_message(&mut req_buf, request).and_then(|()| write_message(&mut resp_buf, &response))
        })
        .expect("encode");
        t.count("protocol.frame_bytes", (req_buf.len() + resp_buf.len()) as f64);
        t.count("protocol.frames", 2.0);
        t.span("protocol.decode", req, || {
            read_message::<_, Request>(&mut req_buf.as_slice()).map(|_| ())?;
            read_message::<_, Response>(&mut resp_buf.as_slice()).map(|_| ())
        })
        .expect("decode");
        let handle_name = match planned.kind {
            Kind::Distance => "service.handle_distance",
            Kind::Batch => "service.handle_batch",
            Kind::Paths => "service.handle_paths",
        };
        t.span(handle_name, req, || service.handle(request.clone()));
        let scene = rig.scenes[planned.tenant];
        t.span("session.lookup", req, || service.session(scene).is_ok());
        let router = &routers[planned.tenant];
        match planned.kind {
            Kind::Distance => {
                let (a, b) = planned.pairs[0];
                t.span("admission.submit_recv", req, || queue.submit(Arc::clone(router), a, b).recv().ok());
                t.span("admission.direct", req, || router.distances(&[(a, b)]).ok());
            }
            Kind::Batch => {
                probe::warm_queries(t, req, router, &planned.pairs);
            }
            Kind::Paths => {
                t.span("sptree.paths", req, || router.paths(&planned.pairs).ok());
                t.count("sptree.paths_n", planned.pairs.len() as f64);
            }
        }
    }
}

fn layers(t: &Tracer, requests: usize, store: (u64, u64, u64), queue: (u64, u64)) -> BTreeMap<&'static str, f64> {
    let s = Totals::of(t);
    let mut m = BTreeMap::new();
    let frames = t.counter("protocol.frames");
    // Encode/decode spans each cover a request and its response.
    m.insert("protocol.encode_us", s.mean_ms("protocol.encode") * 1e3);
    m.insert("protocol.decode_us", s.mean_ms("protocol.decode") * 1e3);
    m.insert("protocol.frame_bytes", ratio(t.counter("protocol.frame_bytes"), frames));
    m.insert("session.lookup_us", s.mean_ms("session.lookup") * 1e3);
    m.insert("service.handle_distance_us", s.mean_ms("service.handle_distance") * 1e3);
    m.insert("service.handle_batch_us", s.mean_ms("service.handle_batch") * 1e3);
    m.insert("service.handle_paths_us", s.mean_ms("service.handle_paths") * 1e3);
    let wait = s.mean_ms("admission.submit_recv") - s.mean_ms("admission.direct");
    m.insert("admission.wait_us", wait * 1e3);
    m.insert("admission.batch_size", ratio(queue.0 as f64, queue.1 as f64));
    probe::warm_query_layers(t, &s, &mut m);
    m.insert("sptree.path_extract_us", ratio(s.total_ms("sptree.paths") * 1e3, t.counter("sptree.paths_n")));
    let (hits, misses, resident) = store;
    m.insert("store.row_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    m.insert("store.row_misses", ratio(misses as f64, requests as f64));
    m.insert("seq.row_sweeps", ratio(misses as f64, requests as f64));
    m.insert("store.resident_bytes", resident as f64);
    let handled =
        s.total_ms("service.handle_distance") + s.total_ms("service.handle_batch") + s.total_ms("service.handle_paths");
    let covered = handled + s.total_ms("protocol.encode") + s.total_ms("protocol.decode");
    let remainder = ratio(s.total_ms("transport.rtt") - covered, s.count("transport.rtt") as f64);
    m.insert("transport.remainder_us", remainder * 1e3);
    m.insert("unattributed_ms", remainder);
    m
}

pub fn run(ctx: &Ctx) -> Outcome {
    // First, so that every thread the workload starts inherits the pin.
    let pinned = crate::sys::pin_to_one_cpu();
    let connections = crate::sys::nproc().clamp(1, MAX_CONNECTIONS);
    let mut outcome = Outcome { sizes: vec![DENSE_N, IMPLICIT_N], ..Outcome::default() };
    outcome.config("pinned_cpu", pinned.map_or_else(|| "none".to_string(), |cpu| cpu.to_string()));
    outcome.config("tenants", "uniform_disjoint n=256 (dense) + n=1024 (implicit)");
    outcome.config("mix", "60% Distance, 30% BatchDistances(64), 10% BatchPaths(8)");
    outcome.config("connections", connections);
    outcome.config("shards", 2);
    outcome.config("offered_rps", OFFERED_RPS);
    let inputs = inputs(ctx.seed, connections);
    let mut rig = repeated_setup(&mut outcome, || setup(&inputs));
    let requests: Vec<Vec<Request>> =
        inputs.pools.iter().map(|pool| pool.iter().map(|p| to_request(p, &rig.scenes)).collect()).collect();
    let kinds: Vec<Vec<Kind>> = inputs.pools.iter().map(|pool| pool.iter().map(|p| p.kind).collect()).collect();

    let before = rig.server.service().stats();
    let mut answers: Vec<Vec<Answer>> = Vec::new();
    let mut overhead = 0.0;
    let mut tracer = None;
    if ctx.traced {
        // Untraced and traced open loops of equal length, then probes.
        let third = ctx.seconds / 3.0;
        let plain = phase(&mut rig, &requests, &kinds, third, true, None);
        let origin = Instant::now();
        let mut tracers: Vec<Tracer> = (0..connections).map(|_| Tracer::new(origin)).collect();
        let traced = phase(&mut rig, &requests, &kinds, third, true, Some(&mut tracers));
        let p50 = |a: &[Vec<Answer>]| median(&a.iter().flatten().map(|x| x.latency_ms).collect::<Vec<_>>());
        overhead = p50(&traced).unwrap_or(0.0) - p50(&plain).unwrap_or(0.0);
        let mut t = Tracer::new(origin);
        for other in tracers {
            t.merge(other);
        }
        answers.extend(plain);
        answers.extend(traced);
        tracer = Some(t);
    } else {
        let open = phase(&mut rig, &requests, &kinds, ctx.seconds * OPEN_SHARE, true, None);
        let closed_secs = ctx.seconds * (1.0 - OPEN_SHARE);
        let closed = phase(&mut rig, &requests, &kinds, closed_secs, false, None);
        let done: usize = closed.iter().map(Vec::len).sum();
        let capacity = done as f64 / closed_secs;
        outcome.figure("serve.capacity_rps", "1/s", capacity, format!("closed loop, {connections} connections"));
        let closed_timed = |kind: Kind| -> Vec<f64> {
            closed.iter().flatten().filter(|a| a.kind == kind).map(|a| a.latency_ms).collect()
        };
        outcome.primary_ms = closed_timed(Kind::Distance);
        outcome.secondary_ms = closed_timed(Kind::Batch);
        let open_count = open.iter().map(Vec::len).sum::<usize>();
        answers.extend(open);
        // Closed-loop answers are checked but not timed as fixed-rate
        // latencies.
        for conn in closed {
            answers.push(conn.into_iter().map(|a| Answer { latency_ms: f64::NAN, ..a }).collect());
        }
        outcome.config("open_loop_requests", open_count);
        outcome.config("closed_loop_requests", done);
    }
    let after = rig.server.service().stats();
    outcome.peak_rss_mib = crate::sys::peak_rss_mib();

    let timed = |kind: Kind| -> Vec<f64> {
        answers.iter().flatten().filter(|a| a.kind == kind && a.latency_ms.is_finite()).map(|a| a.latency_ms).collect()
    };
    let (distance, batch, paths) = (timed(Kind::Distance), timed(Kind::Batch), timed(Kind::Paths));
    outcome.timing("serve.distance", "us", &distance);
    outcome.timing("serve.batch", "us", &batch);
    outcome.timing("serve.paths", "us", &paths);
    let lags: Vec<f64> = answers.iter().flatten().filter(|a| a.latency_ms.is_finite()).map(|a| a.lag_ms).collect();
    outcome.timing("serve.generator_lag", "us", &lags);
    let (closed_distance, closed_batch) = (outcome.primary_ms.clone(), outcome.secondary_ms.clone());
    if !closed_distance.is_empty() {
        outcome.timing("serve.closed_distance", "us", &closed_distance);
        outcome.timing("serve.closed_batch", "us", &closed_batch);
    }

    if let Some(t) = tracer.as_mut() {
        probes(t, &mut rig, &inputs, &requests[0]);
    }
    let requests_answered: usize = answers.iter().map(Vec::len).sum();
    let store = {
        let (b, a) = (store_totals(&before), store_totals(&after));
        (a.0 - b.0, a.1 - b.1, a.2)
    };
    let queue = {
        let (b, a) = (queue_totals(&before), queue_totals(&after));
        (a.0 - b.0, a.1 - b.1)
    };
    drop(rig);

    // Checks: every answer against the same request served by an
    // in-process `Router`, and the in-process answers against the
    // references.
    outcome.attempted = requests_answered as u64;
    let expected = expected_digests(&inputs, &mut outcome);
    // Phases push one answer list per connection, in connection order.
    for (c, conn) in answers.iter().enumerate() {
        for a in conn {
            if a.digest.is_none() || a.digest != expected[c % connections][a.pool_index] {
                outcome.failed += 1;
            }
        }
    }
    if let Some(mut t) = tracer {
        let mut m = layers(&t, requests_answered, store, queue);
        m.insert("trace.overhead_ms", overhead);
        outcome.layers = m;
        t.count("requests", requests_answered as f64);
        outcome.tracer = Some(t);
    }
    outcome
}

/// Expected response fingerprints for every pool request, from in-process
/// routers built like the server's.  The in-process answers are themselves
/// checked: lengths per pair against a separately built reference session,
/// paths certified, and a sample of the dense tenant's lengths against a
/// Hanan grid.  A failed reference check voids the fingerprint, so every
/// answer to that request counts as failed.
fn expected_digests(inputs: &ServeInputs, outcome: &mut Outcome) -> Vec<Vec<Option<u64>>> {
    let mut hanan_pairs = 0;
    let mut checked: Vec<BTreeMap<Pairs, Option<u64>>> = vec![BTreeMap::new(); inputs.tenants.len()];
    let mut out = Vec::new();
    let in_process: Vec<Router> =
        inputs.tenants.iter().map(|t| Router::new(t.obstacles.clone()).expect("valid")).collect();
    let references: Vec<Router> = inputs.tenants.iter().map(|t| reference_router(&t.obstacles)).collect();
    for (t, tenant) in inputs.tenants.iter().enumerate() {
        let mut all = tenant.vertex_pairs.clone();
        all.extend_from_slice(&tenant.point_pairs);
        let served = in_process[t].distances(&all).unwrap_or_default();
        let (n, bad) = hanan_check(
            &tenant.obstacles,
            &all[tenant.vertex_pairs.len() - 4..],
            &served[tenant.vertex_pairs.len() - 4..],
            8,
        );
        hanan_pairs += n;
        if bad > 0 {
            outcome.failed += 1;
        }
    }
    for pool in &inputs.pools {
        let mut digests = Vec::with_capacity(pool.len());
        for p in pool {
            let cache = &mut checked[p.tenant];
            if let Some(&d) = cache.get(&p.pairs) {
                digests.push(d);
                continue;
            }
            let router = &in_process[p.tenant];
            let reference = &references[p.tenant];
            let obstacles = &inputs.tenants[p.tenant].obstacles;
            let truth: Vec<Option<Dist>> = p.pairs.iter().map(|&(a, b)| reference.distance(a, b).ok()).collect();
            let digest = match p.kind {
                Kind::Distance | Kind::Batch => router.distances(&p.pairs).ok().and_then(|lengths| {
                    let agrees = lengths.iter().zip(&truth).all(|(&d, &r)| Some(d) == r);
                    agrees.then(|| digest_lengths(&lengths))
                }),
                Kind::Paths => router.paths(&p.pairs).ok().and_then(|paths| {
                    let lengths: Vec<Dist> = truth.iter().map(|d| d.unwrap_or(-1)).collect();
                    (uncertified(obstacles, &p.pairs, &paths, &lengths) == 0).then(|| digest_paths(&paths))
                }),
            };
            cache.insert(p.pairs.clone(), digest);
            digests.push(digest);
        }
        out.push(digests);
    }
    outcome.figure("check.hanan_pairs", "count", hanan_pairs as f64, "in-process lengths checked against a Hanan grid");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = inputs(4, 2);
        assert_eq!(a, inputs(4, 2));
        let b = inputs(5, 2);
        assert_ne!(a.tenants, b.tenants);
        assert_ne!(a.pools, b.pools);
        assert_eq!(a.pools.len(), 2);
        let kinds = |k: Kind| a.pools[0].iter().filter(|p| p.kind == k).count();
        assert!(kinds(Kind::Distance) > kinds(Kind::Batch) && kinds(Kind::Batch) > kinds(Kind::Paths));
    }
}
