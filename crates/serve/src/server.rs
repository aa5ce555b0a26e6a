//! The TCP server: accept loop, fixed worker pool, admission control,
//! and graceful shutdown.
//!
//! Threading model: one accept loop (the caller's thread) plus
//! `workers` handler threads, all inside a [`std::thread::scope`] so the
//! workers may borrow the engine (a [`NewsLink`] borrows its graph and
//! cannot be moved into `'static` threads). Accepted connections travel
//! over an mpsc channel whose receiver the workers share behind a mutex.
//!
//! Admission control is a counting gate, not a lock: the accept loop is
//! the only incrementer of `in_flight`, workers decrement when done. The
//! capacity is `workers + queue_depth`; a connection arriving above it
//! is answered `429` inline from the accept loop without ever touching
//! the pool, so overload sheds in O(µs) instead of queueing unboundedly.
//!
//! Graceful shutdown: [`ServerHandle::shutdown`] sets the flag and wakes
//! the blocked `accept` with one self-connect, which the loop drops
//! unadmitted before it drops the channel sender. Workers keep draining
//! whatever was already queued (every accepted request gets its
//! response), then see the channel hang up and exit; the scope joins
//! them before [`Server::run`] returns. A worker waiting for the next
//! request on a kept-alive connection does not wait out the read
//! timeout: the loop shuts the read side of every such idle connection.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use newslink_core::{NewsLink, NewsLinkIndex};
use newslink_util::{wake_accept, ShutdownFlag};
use parking_lot::{Mutex, RwLock};

use crate::cluster::{dispatch_cluster, Cluster, ClusterContext};
use crate::durable::DurableState;
use crate::metrics::{Route, ServerMetrics};
use crate::protocol::{read_request, write_response, write_response_conn, write_response_with, HttpRequest, RecvError};
use crate::router::{dispatch, error_body, RequestContext, Routed};

/// Tunables for one server instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Handler threads. Each serves one connection at a time.
    pub workers: usize,
    /// Accepted connections allowed to wait beyond the ones being
    /// served; admission capacity is `workers + queue_depth`.
    pub queue_depth: usize,
    /// Default per-request deadline budget, anchored at accept time.
    /// Requests carrying their own `timeout_ms` get the tighter of the
    /// two. `None` = no server-imposed deadline.
    pub default_timeout_ms: Option<u64>,
    /// Largest accepted request body; bigger bodies are answered `413`.
    pub max_body_bytes: usize,
    /// Socket read timeout, so a stalled client cannot pin a worker.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            default_timeout_ms: None,
            max_body_bytes: 1 << 20,
            read_timeout_ms: 5_000,
        }
    }
}

impl ServeConfig {
    /// Set the worker count (min 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the admission queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Set the default deadline budget.
    pub fn with_default_timeout(mut self, budget: Duration) -> Self {
        self.default_timeout_ms = Some(u64::try_from(budget.as_millis()).unwrap_or(u64::MAX));
        self
    }

    /// Connections admitted at once (serving + queued).
    pub fn capacity(&self) -> usize {
        self.workers + self.queue_depth
    }
}

/// A clonable remote control for a running server: its address plus the
/// shutdown trigger.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin graceful shutdown and wake the accept loop; `true` on the first call.
    pub fn shutdown(&self) -> bool {
        let first = self.shutdown.trigger();
        if first {
            wake_accept(self.addr);
        }
        first
    }
}

/// One accepted connection on its way to a worker.
struct Job {
    stream: TcpStream,
    accepted: Instant,
}

/// A bound (but not yet running) HTTP search server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServeConfig,
    shutdown: ShutdownFlag,
    metrics: Arc<ServerMetrics>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
            config,
            shutdown: ShutdownFlag::new(),
            metrics: Arc::new(ServerMetrics::new()),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The live metrics registry (shared with the handler threads).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A handle for triggering shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shutdown: self.shutdown.clone(),
        }
    }

    /// Serve until the handle triggers shutdown, then drain and return.
    /// Blocks the calling thread; spawns `config.workers` scoped handler
    /// threads that borrow `engine` and `index`. The index sits behind a
    /// reader-writer lock: searches share the read side; `/docs`
    /// mutations embed, seal and merge under the upgradable read side,
    /// which searches pass, and upgrade to the write side only to
    /// publish the result.
    pub fn run(&self, engine: &NewsLink<'_>, index: &RwLock<NewsLinkIndex>) -> io::Result<()> {
        self.run_durable(engine, index, None)
    }

    /// Like [`run`](Self::run), but with durability wiring: when
    /// `durable` is present, `/docs` mutations are write-ahead logged
    /// before they are acknowledged, `POST /admin/snapshot` checkpoints
    /// the store, and `/healthz` + `/metrics` surface the recovery
    /// report.
    pub fn run_durable(
        &self,
        engine: &NewsLink<'_>,
        index: &RwLock<NewsLinkIndex>,
        durable: Option<&DurableState>,
    ) -> io::Result<()> {
        self.serve_with(|request, accepted, in_flight| {
            let ctx = RequestContext {
                engine,
                index,
                config: &self.config,
                metrics: &self.metrics,
                accepted,
                in_flight,
                durable,
            };
            dispatch(request, &ctx)
        })
    }

    /// Serve in *router* mode: no local corpus — every `/v1/search`
    /// scatters across the cluster's shard groups and the merged answer
    /// comes back bit-identical to a single process searching the union
    /// (see [`crate::cluster`]). A background thread probes every
    /// replica's `/healthz` on the cluster's configured cadence
    /// (`--probe-interval-ms`); it stops when the server's shutdown
    /// handle triggers.
    pub fn run_router(&self, engine: &NewsLink<'_>, cluster: &Cluster) -> io::Result<()> {
        std::thread::scope(|scope| {
            let stop = self.shutdown.clone();
            scope.spawn(move || cluster.probe_loop(&stop));
            let result = self.serve_with(|request, accepted, in_flight| {
                let ctx = ClusterContext {
                    cluster,
                    engine,
                    config: &self.config,
                    metrics: &self.metrics,
                    accepted,
                    in_flight,
                };
                dispatch_cluster(request, &ctx)
            });
            // serve_with returns only once shutdown triggered (or the
            // listener failed, which also triggers it), so the prober
            // exits and the scope joins it.
            self.shutdown.trigger();
            result
        })
    }

    /// The serving machinery behind every mode: accept loop, worker
    /// pool, admission gate, graceful drain — parameterized over the
    /// per-request handler. [`run_durable`](Self::run_durable) plugs in
    /// the standalone dispatcher; router mode plugs in the
    /// scatter-gather one. The handler receives the parsed request, the
    /// deadline anchor (accept time for a connection's first request,
    /// arrival time for later requests on a kept-alive connection) and
    /// the in-flight gauge.
    pub fn serve_with<H>(&self, handler: H) -> io::Result<()>
    where
        H: Fn(&HttpRequest, Instant, usize) -> Routed + Sync,
    {
        let capacity = self.config.capacity().max(1);
        let in_flight = AtomicUsize::new(0);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Mutex::new(receiver);
        let workers = self.config.workers.max(1);
        // Per worker: a clone of the kept-alive connection it is waiting
        // on for the next request, if any.
        let idle: Mutex<Vec<Option<TcpStream>>> = Mutex::new((0..workers).map(|_| None).collect());

        std::thread::scope(|scope| {
            for slot in 0..workers {
                let receiver = &receiver;
                let in_flight = &in_flight;
                let handler = &handler;
                let idle = &idle;
                scope.spawn(move || loop {
                    // Hold the lock only while waiting; release before
                    // handling so peers can pick up the next job.
                    let job = receiver.lock().recv();
                    let Ok(job) = job else {
                        break; // sender dropped and queue drained
                    };
                    let gauge = in_flight.load(Ordering::Relaxed);
                    self.handle_connection(job, handler, gauge, idle, slot);
                    in_flight.fetch_sub(1, Ordering::Release);
                });
            }

            // Accept loop: block until a connection arrives; shutdown's
            // wake connection is dropped before the admission gate.
            let mut outcome = Ok(());
            while !self.shutdown.is_triggered() {
                match self.listener.accept() {
                    Ok(_) if self.shutdown.is_triggered() => break,
                    Ok((stream, _peer)) => {
                        let admitted = in_flight.fetch_add(1, Ordering::Acquire) < capacity;
                        if admitted {
                            let job = Job {
                                stream,
                                accepted: Instant::now(),
                            };
                            if sender.send(job).is_err() {
                                break; // workers gone; nothing left to do
                            }
                        } else {
                            in_flight.fetch_sub(1, Ordering::Release);
                            self.metrics.observe_shed();
                            shed(stream);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        // Listener failure: shut the pool down cleanly
                        // before surfacing the error.
                        self.shutdown.trigger();
                        outcome = Err(e);
                    }
                }
            }
            // The flag is set: end the reads of workers waiting on idle
            // kept-alive connections. A worker registers before it checks
            // the flag, so one that registers after this sweep sees it.
            for stream in idle.lock().iter().flatten() {
                let _ = stream.shutdown(Shutdown::Read);
            }
            // Graceful drain: stop accepting, let queued jobs finish.
            drop(sender);
            outcome
        })
    }

    /// Serve one connection end to end. A client that sent
    /// `Connection: keep-alive` gets its connection back for the next
    /// request (each anchored at its own arrival); everyone else gets
    /// the classic one-request `Connection: close` exchange. A
    /// kept-alive connection occupies its worker (and its admission
    /// slot) until the client closes it or stalls past the read
    /// timeout — which is exactly the accounting admission control
    /// wants, since the connection really is holding a worker. While it
    /// waits for a later request it sits in the worker's `idle` slot, so
    /// that shutdown can end the wait.
    fn handle_connection<H>(
        &self,
        job: Job,
        handler: &H,
        in_flight: usize,
        idle: &Mutex<Vec<Option<TcpStream>>>,
        slot: usize,
    ) where
        H: Fn(&HttpRequest, Instant, usize) -> Routed + Sync,
    {
        let mut stream = job.stream;
        // Responses go out in one write; disable Nagle anyway so no
        // future multi-write path can trip over delayed ACKs.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(self.config.read_timeout_ms.max(1))));
        let mut anchor = job.accepted;
        let mut first = true;
        loop {
            // Register, then check the flag (see `serve_with`'s sweep).
            // The first request never registers.
            let waiting = !first;
            if waiting {
                idle.lock()[slot] = stream.try_clone().ok();
                if self.shutdown.is_triggered() {
                    idle.lock()[slot] = None;
                    return;
                }
            }
            let received = read_request(&mut stream, self.config.max_body_bytes);
            if waiting {
                idle.lock()[slot] = None;
            }
            let request = match received {
                Ok(request) => {
                    // The first request's budget is anchored at accept
                    // (queue wait counts against it); later requests on a
                    // kept-alive connection anchor at their own arrival.
                    if !first {
                        anchor = Instant::now();
                    }
                    first = false;
                    request
                }
                Err(RecvError::Closed) => return,
                Err(RecvError::BadRequest(msg)) => {
                    let _ = write_response(&mut stream, 400, &error_body(400, &msg));
                    self.metrics.observe(Route::Other, 400, anchor.elapsed());
                    return;
                }
                Err(RecvError::TooLarge) => {
                    let _ =
                        write_response(&mut stream, 413, &error_body(413, "request body too large"));
                    self.metrics.observe(Route::Other, 413, anchor.elapsed());
                    return;
                }
                Err(RecvError::Io(_)) => {
                    // Read timeout or reset mid-request; the peer is gone.
                    self.metrics.observe(Route::Other, 500, anchor.elapsed());
                    return;
                }
            };
            // A panic inside a handler must not take down the pool:
            // answer 500 and keep serving.
            let routed = catch_unwind(AssertUnwindSafe(|| handler(&request, anchor, in_flight)));
            let (route, status, body, deprecated) = match routed {
                Ok(r) => (r.route, r.status, r.body, r.deprecated),
                Err(_) => (Route::Other, 500, error_body(500, "internal error"), false),
            };
            // Legacy unversioned paths still answer, but tell the client
            // to move to `/v1/...`.
            let extra: &[(&str, &str)] = if deprecated {
                &[("Deprecation", "true")]
            } else {
                &[]
            };
            let keep = request.keep_alive;
            if write_response_conn(&mut stream, status, extra, &body, keep).is_err() {
                self.metrics.observe(route, status, anchor.elapsed());
                return;
            }
            self.metrics.observe(route, status, anchor.elapsed());
            if !keep {
                return;
            }
        }
    }
}

/// Answer an over-capacity connection `429` without handling its request.
/// `Retry-After` tells well-behaved clients how long to back off before
/// reconnecting.
fn shed(mut stream: TcpStream) {
    let _ = write_response_with(
        &mut stream,
        429,
        &[("Retry-After", "1")],
        &error_body(429, "server at capacity, retry later"),
    );
    // Closing with unread request bytes in the socket makes the kernel
    // send RST, which can destroy the 429 before the client reads it.
    // Signal end-of-response, then briefly drain what the client sent —
    // bounded reads only, since this runs on the accept thread.
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    for _ in 0..4 {
        match io::Read::read(&mut stream, &mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_and_builders() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert_eq!(c.capacity(), c.workers + c.queue_depth);
        let c = ServeConfig::default()
            .with_workers(0)
            .with_queue_depth(2)
            .with_default_timeout(Duration::from_millis(750));
        assert_eq!(c.workers, 1, "workers floor at one");
        assert_eq!(c.capacity(), 3);
        assert_eq!(c.default_timeout_ms, Some(750));
    }

    #[test]
    fn bind_ephemeral_and_handle_shutdown() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        let handle = server.handle();
        assert_eq!(handle.addr(), server.local_addr());
        assert!(handle.shutdown(), "first trigger wins");
        assert!(!handle.shutdown(), "second trigger is a no-op");
    }

    /// Bound on how long `serve_with` may take to return after shutdown:
    /// a missing wake fails the test instead of hanging it.
    const RETURN_WITHIN: Duration = Duration::from_secs(5);

    /// Run `serve_with` on its own thread with a handler that counts its
    /// calls; the receiver yields `serve_with`'s result once it returns.
    fn serve_counting(
        server: Server,
    ) -> (Arc<ServerMetrics>, Arc<AtomicUsize>, mpsc::Receiver<io::Result<()>>) {
        let metrics = server.metrics();
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let (done, returned) = mpsc::channel();
        std::thread::spawn(move || {
            let result = server.serve_with(|_, _, _| {
                counter.fetch_add(1, Ordering::Relaxed);
                Routed {
                    route: Route::Healthz,
                    status: 200,
                    body: "{}".to_string(),
                    deprecated: false,
                }
            });
            let _ = done.send(result);
        });
        (metrics, calls, returned)
    }

    /// A client that sent one kept-alive request to `addr` and read the
    /// whole response, leaving the connection open.
    fn kept_alive_client(addr: SocketAddr) -> TcpStream {
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(RETURN_WITHIN)).unwrap();
        io::Write::write_all(
            &mut client,
            b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
        )
        .unwrap();
        let mut response = Vec::new();
        let mut buf = [0u8; 1024];
        while !response.ends_with(b"{}") {
            let n = io::Read::read(&mut client, &mut buf).unwrap();
            assert!(n > 0, "EOF before the response body");
            response.extend_from_slice(&buf[..n]);
        }
        client
    }

    fn shutdown_returns_idle_server(bind: &str) {
        let server = Server::bind(bind, ServeConfig::default()).unwrap();
        let handle = server.handle();
        let (metrics, calls, returned) = serve_counting(server);
        // Let the loop reach its blocking `accept`, so that only the wake
        // (not an early flag check) can end it.
        std::thread::sleep(Duration::from_millis(100));
        assert!(handle.shutdown());
        returned.recv_timeout(RETURN_WITHIN).expect("accept loop woken").unwrap();
        // The wake connection was never handled or shed.
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.shed_total(), 0);
    }

    #[test]
    fn shutdown_wakes_an_idle_loopback_server() {
        shutdown_returns_idle_server("127.0.0.1:0");
    }

    #[test]
    fn shutdown_wakes_a_server_bound_to_the_unspecified_address() {
        shutdown_returns_idle_server("0.0.0.0:0");
    }

    #[test]
    fn shutdown_before_serving_returns_at_once() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        assert!(server.handle().shutdown());
        let (_, calls, returned) = serve_counting(server);
        returned.recv_timeout(RETURN_WITHIN).expect("returned at once").unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn wake_connection_never_reaches_a_full_admission_gate() {
        // One worker and no queue: a kept-alive client fills the gate, so
        // a wake connection that reached admission would be shed.
        let config = ServeConfig::default().with_workers(1).with_queue_depth(0);
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let handle = server.handle();
        let (metrics, calls, returned) = serve_counting(server);
        let client = kept_alive_client(handle.addr());
        assert!(handle.shutdown());
        // Give a wake connection that reached the gate time to be shed.
        std::thread::sleep(Duration::from_millis(100));
        drop(client); // frees the worker so the drain can finish
        returned.recv_timeout(RETURN_WITHIN).expect("drained").unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "only the client's request");
        assert_eq!(metrics.shed_total(), 0, "the wake connection was admitted");
    }

    #[test]
    fn shutdown_ends_the_wait_on_an_idle_kept_alive_connection() {
        // One worker, blocked reading the next request of a kept-alive
        // client that went quiet: shutdown must not wait out the 5 s
        // read timeout.
        let server = Server::bind("127.0.0.1:0", ServeConfig::default().with_workers(1)).unwrap();
        let handle = server.handle();
        let (_, calls, returned) = serve_counting(server);
        let mut client = kept_alive_client(handle.addr());
        // Let the worker go back to reading, so the sweep has to end it.
        std::thread::sleep(Duration::from_millis(100));
        assert!(handle.shutdown());
        returned
            .recv_timeout(Duration::from_secs(1))
            .expect("serve_with returned without waiting out the read timeout")
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // The server closed the idle connection.
        assert_eq!(io::Read::read(&mut client, &mut [0u8; 64]).unwrap(), 0);
    }
}
