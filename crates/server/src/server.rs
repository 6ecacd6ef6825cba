//! The TCP front end: a `std::net` accept loop framing [`RspService`].
//!
//! Deliberately boring: one OS thread per connection reading framed
//! [`Request`]s and writing framed [`Response`]s (the environment has no
//! async runtime — see the vendoring note in DESIGN.md §7).  All serving
//! intelligence lives behind [`RspService::handle`]; this module only owns
//! sockets and thread lifecycles.  [`Server::shutdown`] (also run on drop)
//! closes the listener and every open connection, then joins all threads.

use crate::protocol::{read_message, write_message, Request, WireError};
use crate::service::RspService;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

struct ServerShared {
    service: RspService,
    shutdown: AtomicBool,
    /// A clone of every live connection's stream, keyed by connection id,
    /// so shutdown can unblock reader threads by closing their sockets.  A
    /// connection removes its own entry when it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A running TCP server.  Dropping it shuts the server down.
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    /// The accept loop; it returns the handles of the connection threads
    /// still running when it stops.
    accept_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections for `service`.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: RspService) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared =
            Arc::new(ServerShared { service, shutdown: AtomicBool::new(false), conns: Mutex::new(HashMap::new()) });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("rsp-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server { shared, addr, accept_thread: Some(accept_thread) })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this server (introspection for tests and stats).
    pub fn service(&self) -> &RspService {
        &self.shared.service
    }

    /// Stop accepting, close every open connection, and join all threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        let conn_threads = self.accept_thread.take().and_then(|handle| handle.join().ok()).unwrap_or_default();
        // Unblock connection readers by closing their sockets.
        for (_, stream) in self.shared.conns.lock().expect("server conns poisoned").drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for handle in conn_threads {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept until shutdown, one thread per connection.  Threads of ended
/// connections are joined as new ones arrive, so a long-lived server holds
/// state only for its live connections.
fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) -> Vec<JoinHandle<()>> {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for ended in threads.extract_if(.., |handle| handle.is_finished()) {
            let _ = ended.join();
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(clone) = stream.try_clone() else { continue };
        shared.conns.lock().expect("server conns poisoned").insert(id, clone);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new().name("rsp-conn".into()).spawn(move || {
            serve_conn(stream, &conn_shared);
            conn_shared.conns.lock().expect("server conns poisoned").remove(&id);
        });
        match spawned {
            Ok(handle) => threads.push(handle),
            Err(_) => {
                shared.conns.lock().expect("server conns poisoned").remove(&id);
            }
        }
    }
    threads
}

/// One connection: a strict request/response loop.  Returns (closing the
/// connection) on peer disconnect, any framing error, or server shutdown.
fn serve_conn(stream: TcpStream, shared: &Arc<ServerShared>) {
    // Reads go through the buffer (one `recv` per frame); replies are
    // written to the socket itself.
    let mut stream = BufReader::new(stream);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request: Request = match read_message(&mut stream) {
            Ok(request) => request,
            // A peer speaking garbage gets no reply we could frame reliably;
            // closing the connection is the protocol's error signal.
            Err(WireError::Closed) | Err(_) => return,
        };
        let response = shared.service.handle(request);
        if write_message(stream.get_mut(), &response).is_err() {
            return;
        }
    }
}
