//! Integration tests for the `rsp-server` serving subsystem: concurrent
//! TCP clients sharing build-once sessions, coalesced answers agreeing
//! bitwise with direct `Router` calls, the LRU residency bound over the
//! wire, connection churn leaking no descriptors, and (property-based) the
//! `RspError` → `ServerError` wire mapping preserving every variant's
//! evidence through serialisation and the frame decoder turning hostile
//! bytes into typed errors.

use proptest::prelude::*;
use rectilinear_shortest_paths::geom::DisjointnessViolation;
use rectilinear_shortest_paths::server::protocol::{read_message, write_message};
use rectilinear_shortest_paths::server::{
    Client, Request, Response, RspService, Server, ServerError, ServiceConfig, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use rectilinear_shortest_paths::workload::{query_pairs, uniform_disjoint};
use rectilinear_shortest_paths::{ObstacleSet, Point, Rect, Router, RspError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Three concurrent TCP clients over two scenes: every answer (coalesced
/// singles, pre-batched, paths) must agree with a direct `Router` on the
/// same geometry, and the two scenes must build exactly twice no matter
/// how many clients load them.
#[test]
fn three_concurrent_clients_share_two_sessions() {
    let scene_a = uniform_disjoint(8, 101).obstacles;
    let scene_b = uniform_disjoint(8, 202).obstacles;
    let direct_a = Router::new(scene_a.clone()).unwrap();
    let direct_b = Router::new(scene_b.clone()).unwrap();

    let config = ServiceConfig { shards: 2, batch_window: Duration::from_micros(100), ..ServiceConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", RspService::new(config)).unwrap();
    let addr = server.addr();

    // Clients 0 and 1 hammer scene A (their loads must share one session);
    // client 2 works scene B.
    let mut handles = Vec::new();
    for worker in 0..3usize {
        let (obstacles, direct_seed) = if worker < 2 { (scene_a.clone(), 101u64) } else { (scene_b.clone(), 202) };
        handles.push(thread::spawn(move || {
            let direct = Router::new(obstacles.clone()).unwrap();
            let mut client = Client::connect(addr).unwrap();
            let scene = client.load_scene(&obstacles).unwrap();
            assert_eq!(scene, obstacles.scene_hash());

            // Coalesced single queries: bitwise-identical to direct calls.
            let mut pairs = query_pairs(&obstacles, 12, true, direct_seed + worker as u64);
            pairs.extend(query_pairs(&obstacles, 12, false, direct_seed + 10 + worker as u64));
            for &(a, b) in &pairs {
                assert_eq!(client.distance(scene, a, b).unwrap(), direct.distance(a, b).unwrap(), "{a:?}->{b:?}");
            }

            // Pre-batched queries: index-aligned and identical.
            assert_eq!(client.batch_distances(scene, &pairs).unwrap(), direct.distances(&pairs).unwrap());

            // A path certifies against the distance it claims.
            let verts = obstacles.vertices();
            let path = client.path(scene, verts[0], verts[verts.len() - 1]).unwrap();
            assert_eq!(path.length(), direct.vertex_distance(verts[0], verts[verts.len() - 1]).unwrap());
            assert!(path.avoids(&obstacles));
            scene
        }));
    }
    let scenes: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(scenes[0], scenes[1], "clients 0 and 1 share a scene id");
    assert_ne!(scenes[0], scenes[2]);

    // Two distinct scenes, three clients: exactly two Router builds.
    let stats = server.service().stats();
    assert_eq!(stats.total_builds(), 2, "{stats:?}");
    assert_eq!(stats.total_resident(), 2);

    // The resident sessions are the ones every client used, built once each
    // (BuildCounts certifies the lazy substructures), and repeated lookups
    // hand out the same `Arc<Router>`.
    let session_a = server.service().session(scenes[0]).unwrap();
    assert!(Arc::ptr_eq(&session_a, &server.service().session(scenes[0]).unwrap()));
    assert_eq!(session_a.build_counts().oracle_builds, 1);
    let session_b = server.service().session(scenes[2]).unwrap();
    assert_eq!(session_b.build_counts().oracle_builds, 1);
    assert_eq!(
        session_a.distance(Point::new(0, 0), Point::new(3, 3)),
        direct_a.distance(Point::new(0, 0), Point::new(3, 3))
    );
    assert_eq!(
        session_b.distance(Point::new(0, 0), Point::new(3, 3)),
        direct_b.distance(Point::new(0, 0), Point::new(3, 3))
    );

    // Wire-level stats and evict agree with the service view.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().total_resident(), 2);
    assert!(client.evict(scenes[0]).unwrap());
    assert!(!client.evict(scenes[0]).unwrap());
    match client.distance(scenes[0], Point::new(0, 0), Point::new(1, 1)) {
        Err(e) => assert_eq!(
            format!("{e}"),
            format!("server error: scene {:#018x} is not resident (load it first)", scenes[0])
        ),
        Ok(d) => panic!("evicted scene still answered: {d}"),
    }
    server.shutdown();
}

/// The session cache's LRU bound holds over the wire: a one-shard server
/// with capacity 2 stays at two resident sessions while a client cycles
/// through four scenes.
#[test]
fn lru_bound_caps_resident_sessions_over_tcp() {
    let config = ServiceConfig { shards: 1, session_capacity: 2, ..ServiceConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", RspService::new(config)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let mut ids = Vec::new();
    for offset in 0..4i64 {
        let obstacles = ObstacleSet::new(vec![Rect::new(offset * 20, 0, offset * 20 + 3, 5)]);
        let scene = client.load_scene(&obstacles).unwrap();
        // The freshly loaded scene is usable immediately.
        let d = client.distance(scene, Point::new(offset * 20 - 2, 0), Point::new(offset * 20 + 5, 5)).unwrap();
        assert!(d > 0);
        ids.push(scene);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.total_resident(), 2, "{stats:?}");
    assert_eq!(stats.total_evictions(), 2);
    assert_eq!(stats.total_builds(), 4);
    // The two most recent scenes survived; the oldest was evicted.
    assert!(server.service().session(ids[3]).is_ok());
    assert_eq!(server.service().session(ids[0]).err(), Some(ServerError::UnknownScene { scene: ids[0] }));
    server.shutdown();
}

/// Connection churn holds no descriptors: 2,000 connect/close cycles leave
/// the process's open-fd count where it started (within slack for sockets
/// the other tests in this binary may hold meanwhile), because each ended
/// connection releases its stream and its thread.
#[cfg(target_os = "linux")]
#[test]
fn connection_churn_leaks_no_descriptors() {
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").expect("procfs").count()
    }
    let mut server = Server::bind("127.0.0.1:0", RspService::new(ServiceConfig::default())).unwrap();
    // One served round trip first, so lazily opened descriptors exist before
    // the baseline is read.
    let mut client = Client::connect(server.addr()).unwrap();
    client.stats().unwrap();
    drop(client);
    let before = open_fds();
    for _ in 0..2_000 {
        drop(std::net::TcpStream::connect(server.addr()).unwrap());
    }
    // Server-side closes trail the client's by a thread wake-up; let them
    // land.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut after = open_fds();
    while after > before + 16 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(after <= before + 16, "{before} fds before 2,000 connect/close cycles, {after} after");
    // A live connection still works, and shutdown closes and joins it.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.stats().unwrap().total_resident(), 0);
    server.shutdown();
    assert!(client.stats().is_err(), "shutdown closed the live connection");
}

/// Build one of each `RspError` variant from sampled evidence.
fn rsp_error_from(selector: u8, x: i64, y: i64, id_a: usize, id_b: usize) -> RspError {
    match selector % 7 {
        0 => RspError::OverlappingObstacles(DisjointnessViolation {
            first: id_a,
            second: id_b,
            first_rect: Rect::new(x, y, x + 2, y + 2),
            second_rect: Rect::new(x + 1, y + 1, x + 3, y + 3),
        }),
        1 => RspError::ObstacleOutsideContainer(id_a),
        2 => RspError::ContainerNotConvex,
        3 => RspError::NotAVertex(Point::new(x, y)),
        4 => RspError::PointOutsideContainer(Point::new(x, y)),
        5 => RspError::PointInsideObstacle { point: Point::new(x, y), obstacle: id_b },
        _ => RspError::ThreadPool(format!("pool of {id_a} threads unavailable")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every `RspError` variant maps onto a `ServerError`, survives a
    /// serialize → deserialize round trip bit-for-bit, and maps back to an
    /// `RspError` rendering identically (the evidence is intact).
    #[test]
    fn every_rsp_error_survives_the_wire(
        selector in 0u8..7,
        x in -1000i64..1000,
        y in -1000i64..1000,
        id_a in 0usize..10_000,
        id_b in 0usize..10_000,
    ) {
        let original = rsp_error_from(selector, x, y, id_a, id_b);
        let wire = ServerError::from(original.clone());
        let json = serde_json::to_string(&wire).expect("serialise");
        let decoded: ServerError = serde_json::from_str(&json).expect("deserialise");
        prop_assert_eq!(&decoded, &wire);
        // The evidence survives: mapping back yields an error that renders
        // exactly like the original (Display carries every field).
        let back = decoded.into_rsp().expect("mirrored variants map back");
        prop_assert_eq!(format!("{back}"), format!("{original}"));
        prop_assert_eq!(format!("{}", ServerError::from(back)), format!("{wire}"));
    }
}

/// One valid frame per message shape the decoder must handle: requests and
/// responses carrying geometry, pairs, errors and nested stats.
fn valid_frames() -> Vec<Vec<u8>> {
    let scene = ObstacleSet::new(vec![Rect::new(2, 2, 6, 10), Rect::new(8, -4, 9, 1)]);
    let (a, b) = (Point::new(0, 0), Point::new(8, 12));
    let requests = [
        Request::LoadScene { obstacles: scene },
        Request::Distance { scene: 7, a, b },
        Request::BatchDistances { scene: 7, pairs: vec![(a, b), (b, a)] },
        Request::Stats,
    ];
    let responses = [
        Response::Distance { length: 20 },
        Response::Distances { lengths: vec![20, 3] },
        Response::Error { error: ServerError::PointInsideObstacle { point: a, obstacle: 1 } },
        Response::Stats { stats: RspService::new(ServiceConfig { shards: 2, ..ServiceConfig::default() }).stats() },
    ];
    let mut frames = Vec::new();
    for request in &requests {
        let mut frame = Vec::new();
        write_message(&mut frame, request).unwrap();
        frames.push(frame);
    }
    for response in &responses {
        let mut frame = Vec::new();
        write_message(&mut frame, response).unwrap();
        frames.push(frame);
    }
    frames
}

/// Decode `bytes` as both message types.  Returning at all is the main
/// property (a panic fails the test); a frame that does decode must also
/// survive a re-encode round trip unchanged.
fn decode_both(bytes: &[u8]) -> [Result<(), WireError>; 2] {
    let request = read_message::<_, Request>(&mut &bytes[..]).map(|message| {
        let mut again = Vec::new();
        write_message(&mut again, &message).unwrap();
        assert_eq!(read_message::<_, Request>(&mut again.as_slice()).unwrap(), message);
    });
    let response = read_message::<_, Response>(&mut &bytes[..]).map(|message| {
        let mut again = Vec::new();
        write_message(&mut again, &message).unwrap();
        assert_eq!(read_message::<_, Response>(&mut again.as_slice()).unwrap(), message);
    });
    [request, response]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The frame decoder meets hostile input with typed `WireError`s, never
    /// a panic: random bytes (bare, or behind a valid header), truncated
    /// and bit-flipped valid frames, wrong version bytes, oversized length
    /// headers and deeply nested payloads.
    #[test]
    fn frame_decoder_never_panics_on_hostile_bytes(
        frame_index in 0usize..8,
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip in 1u8..=255,
        version in any::<u8>(),
        excess in 1u32..=(u32::MAX - MAX_FRAME_LEN),
        depth in 1usize..4096,
    ) {
        let frame = valid_frames().swap_remove(frame_index);

        // Random bytes, bare and as the payload of a well-formed header.
        let _ = decode_both(&junk);
        let mut framed = vec![PROTOCOL_VERSION];
        framed.extend_from_slice(&(junk.len() as u32).to_be_bytes());
        framed.extend_from_slice(&junk);
        for result in decode_both(&framed) {
            prop_assert!(!matches!(result, Err(WireError::VersionMismatch { .. } | WireError::FrameTooLarge { .. })));
        }

        // A valid frame cut short: `Closed` at the boundary, an error after.
        let cut = cut % frame.len();
        for result in decode_both(&frame[..cut]) {
            if cut == 0 {
                prop_assert_eq!(result, Err(WireError::Closed));
            } else {
                prop_assert!(matches!(result, Err(WireError::Io(_))), "{:?}", result);
            }
        }

        // A valid frame with one payload byte changed.
        let mut flipped = frame.clone();
        let at = 5 + flip_at % (frame.len() - 5);
        flipped[at] ^= flip;
        let _ = decode_both(&flipped);

        // Any other version byte is refused before the length is read.
        prop_assume!(version != PROTOCOL_VERSION);
        let mut wrong = frame.clone();
        wrong[0] = version;
        for result in decode_both(&wrong) {
            prop_assert_eq!(result, Err(WireError::VersionMismatch { got: version, expected: PROTOCOL_VERSION }));
        }

        // A length header above the limit is refused before any payload is
        // read (or allocated).
        let len = MAX_FRAME_LEN + excess;
        let mut oversized = vec![PROTOCOL_VERSION];
        oversized.extend_from_slice(&len.to_be_bytes());
        oversized.extend_from_slice(&frame[5..]);
        for result in decode_both(&oversized) {
            prop_assert_eq!(result, Err(WireError::FrameTooLarge { len }));
        }

        // Nesting far past any real message: a codec error, not a stack
        // overflow.
        let nested = "[".repeat(depth * 64) + &"]".repeat(depth * 64);
        let mut deep = vec![PROTOCOL_VERSION];
        deep.extend_from_slice(&(nested.len() as u32).to_be_bytes());
        deep.extend_from_slice(nested.as_bytes());
        for result in decode_both(&deep) {
            prop_assert!(matches!(result, Err(WireError::Codec(_))), "{:?}", result);
        }
    }
}
