//! Bringing the program up the way an operator would: the real
//! `newslink_serve::Server` on loopback TCP, default configuration
//! everywhere, in this process.
//!
//! Three shapes: a standalone server, a durable standalone server
//! (fresh data directory, fsync per acknowledged write) and a router in
//! front of two single-replica shard servers that hold id stripes of
//! the same corpus. Each server has its own engine and so its own
//! caches, as separate processes would.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use newslink_core::{DurableStore, NewsLink, NewsLinkConfig, NewsLinkIndex};
use newslink_serve::cluster::{dispatch_cluster, ClusterContext};
use newslink_serve::router::{dispatch, RequestContext};
use newslink_serve::{
    client, Cluster, DurableState, ServeConfig, Server, ServerHandle, ServerMetrics,
};
use parking_lot::RwLock;

use crate::fixture::Dataset;
use crate::gen::Workload;
use crate::trace::Tracer;

pub const SHARDS: u32 = 2;

/// Span names of the server-side handlers.
pub const SPAN_SERVE: &str = "serve.dispatch";
pub const SPAN_ROUTER: &str = "cluster.dispatch";
pub const SPAN_SHARD: &str = "cluster.shard_dispatch";

/// A running deployment, as the workload sees it.
pub struct Deployment<'a> {
    /// Where clients connect: the standalone server or the router.
    pub front: SocketAddr,
    /// World + label index + `index_corpus` (+ stripes) + servers
    /// answering `/v1/healthz`.
    pub setup_s: f64,
    /// The `index_corpus` share of it.
    pub index_s: f64,
    pub dataset: &'a Dataset,
    /// The engine behind the front door (its caches see the queries).
    pub engine: &'a NewsLink<'a>,
    /// The servers that hold documents, with their indexes: the one
    /// standalone server, or the shards.
    pub holders: Vec<(SocketAddr, &'a RwLock<NewsLinkIndex>)>,
    /// Metrics registries, front door first.
    pub metrics: Vec<Arc<ServerMetrics>>,
    pub cluster: Option<&'a Cluster>,
    pub durable: Option<&'a DurableState>,
    pub data_dir: Option<&'a Path>,
}

/// Asks a server to shut down when dropped — at the end of a deployment,
/// and also when the workload panics, so that the scope its threads run
/// in can still join them instead of hanging.
struct StopOnDrop(ServerHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Join a server thread: its own error, or that it panicked.
fn joined(handle: std::thread::ScopedJoinHandle<'_, io::Result<()>>, who: &str) -> io::Result<()> {
    handle
        .join()
        .map_err(|_| other(format!("{who} thread panicked")))
        .and_then(|served| served)
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Block until `addr` answers `GET /v1/healthz`.
fn wait_ready(addr: SocketAddr) -> io::Result<()> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match client::request(addr, "GET", "/v1/healthz", "") {
            Ok((200, _)) => return Ok(()),
            _ if Instant::now() > give_up => {
                return Err(other(format!("{addr} never became ready")))
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Serve `server` standalone. Untraced this is `Server::run_durable`
/// itself; traced it is `Server::serve_with` around the same public
/// `dispatch`, inside a span.
fn serve_standalone(
    server: &Server,
    engine: &NewsLink<'_>,
    index: &RwLock<NewsLinkIndex>,
    durable: Option<&DurableState>,
    tracer: Option<(&Tracer, &'static str)>,
) -> io::Result<()> {
    let Some((tracer, name)) = tracer else {
        return server.run_durable(engine, index, durable);
    };
    let metrics = server.metrics();
    server.serve_with(|request, accepted, in_flight| {
        let ctx = RequestContext {
            engine,
            index,
            config: server.config(),
            metrics: &metrics,
            accepted,
            in_flight,
            durable,
        };
        // Health probes are not part of any operation.
        if request.path.ends_with("/healthz") {
            return dispatch(request, &ctx);
        }
        tracer.span(name, None, || dispatch(request, &ctx))
    })
}

fn serve_router(
    server: &Server,
    engine: &NewsLink<'_>,
    cluster: &Cluster,
    tracer: Option<&Tracer>,
) -> io::Result<()> {
    // Traced, the background health prober of `run_router` is left out:
    // it only flips health flags, and no replica fails here.
    let Some(tracer) = tracer else {
        return server.run_router(engine, cluster);
    };
    let metrics = server.metrics();
    server.serve_with(|request, accepted, in_flight| {
        let ctx = ClusterContext {
            cluster,
            engine,
            config: server.config(),
            metrics: &metrics,
            accepted,
            in_flight,
        };
        if request.path.ends_with("/healthz") {
            return dispatch_cluster(request, &ctx);
        }
        tracer.span(SPAN_ROUTER, None, || dispatch_cluster(request, &ctx))
    })
}

/// Where the durable server of `mixed_rw` keeps snapshot and WAL. Every
/// deployment starts from an empty one; whoever deploys last removes it.
pub fn data_dir(scratch: &Path) -> PathBuf {
    scratch.join("data")
}

/// Set the deployment of `workload` up, hand it to `body`, and take it
/// down again: every server is shut down and joined before this
/// returns.
pub fn deploy<R>(
    workload: Workload,
    corpus: &[String],
    scratch: &Path,
    tracer: Option<&Tracer>,
    body: impl FnOnce(&Deployment<'_>) -> R,
) -> io::Result<R> {
    let t0 = Instant::now();
    let dataset = Dataset::build();
    let graph = &dataset.world.graph;
    let engine = NewsLink::new(graph, &dataset.labels, NewsLinkConfig::default());
    if workload == Workload::RoutedRepeat {
        return deploy_routed(t0, &dataset, &engine, corpus, tracer, body);
    }

    let data_dir: Option<PathBuf> = workload.has_writes().then(|| data_dir(scratch));
    let t_index = Instant::now();
    let (index, durable) = match &data_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            let (store, index) =
                DurableStore::open(&engine, dir, || engine.index_corpus(corpus)).map_err(other)?;
            (index, Some(DurableState::new(store)))
        }
        None => (engine.index_corpus(corpus), None),
    };
    let index_s = t_index.elapsed().as_secs_f64();
    let index = RwLock::new(index);
    let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
    let front = server.local_addr();

    let out = std::thread::scope(|scope| {
        let serving = scope.spawn(|| {
            serve_standalone(
                &server,
                &engine,
                &index,
                durable.as_ref(),
                tracer.map(|t| (t, SPAN_SERVE)),
            )
        });
        let stop = StopOnDrop(server.handle());
        let out = wait_ready(front).map(|()| {
            body(&Deployment {
                front,
                setup_s: t0.elapsed().as_secs_f64(),
                index_s,
                dataset: &dataset,
                engine: &engine,
                holders: vec![(front, &index)],
                metrics: vec![server.metrics()],
                cluster: None,
                durable: durable.as_ref(),
                data_dir: data_dir.as_deref(),
            })
        });
        drop(stop);
        joined(serving, "server").and(out)
    });
    out
}

fn deploy_routed<R>(
    t0: Instant,
    dataset: &Dataset,
    router_engine: &NewsLink<'_>,
    corpus: &[String],
    tracer: Option<&Tracer>,
    body: impl FnOnce(&Deployment<'_>) -> R,
) -> io::Result<R> {
    let graph = &dataset.world.graph;
    let shard_engines: Vec<NewsLink<'_>> = (0..SHARDS)
        .map(|_| NewsLink::new(graph, &dataset.labels, NewsLinkConfig::default()))
        .collect();
    let t_index = Instant::now();
    let shard_indexes: Vec<RwLock<NewsLinkIndex>> = shard_engines
        .iter()
        .zip(0..SHARDS)
        .map(|(engine, s)| {
            let mut index = engine.index_corpus_sharded(corpus, s, SHARDS);
            index.set_id_stripe(s, SHARDS);
            RwLock::new(index)
        })
        .collect();
    let index_s = t_index.elapsed().as_secs_f64();
    let shard_servers: Vec<Server> = (0..SHARDS)
        .map(|_| Server::bind("127.0.0.1:0", ServeConfig::default()))
        .collect::<io::Result<_>>()?;
    let router = Server::bind("127.0.0.1:0", ServeConfig::default())?;
    let front = router.local_addr();
    // Owned here so it can be dropped between the two shutdowns below.
    let mut cluster = Some(Cluster::new(
        shard_servers.iter().map(|s| vec![s.local_addr()]).collect(),
    ));

    std::thread::scope(|scope| {
        let shards: Vec<_> = shard_servers
            .iter()
            .zip(&shard_engines)
            .zip(&shard_indexes)
            .map(|((server, engine), index)| {
                scope.spawn(move || {
                    serve_standalone(server, engine, index, None, tracer.map(|t| (t, SPAN_SHARD)))
                })
            })
            .collect();
        let stop_shards: Vec<StopOnDrop> = shard_servers
            .iter()
            .map(|server| StopOnDrop(server.handle()))
            .collect();
        let out = std::thread::scope(|inner| {
            let cluster = cluster
                .as_ref()
                .expect("cluster is alive while the router runs");
            let routing = inner.spawn(|| serve_router(&router, router_engine, cluster, tracer));
            let stop_router = StopOnDrop(router.handle());
            let ready = shard_servers
                .iter()
                .map(Server::local_addr)
                .chain([front])
                .try_for_each(wait_ready);
            let out = ready.map(|()| {
                body(&Deployment {
                    front,
                    setup_s: t0.elapsed().as_secs_f64(),
                    index_s,
                    dataset,
                    engine: router_engine,
                    holders: shard_servers
                        .iter()
                        .map(Server::local_addr)
                        .zip(&shard_indexes)
                        .collect(),
                    metrics: std::iter::once(&router)
                        .chain(&shard_servers)
                        .map(Server::metrics)
                        .collect(),
                    cluster: Some(cluster),
                    durable: None,
                    data_dir: None,
                })
            });
            drop(stop_router);
            joined(routing, "router").and(out)
        });
        // The router's pooled connections each pin a shard worker until
        // they close; drop them before asking the shards to drain.
        cluster = None;
        drop(stop_shards);
        let mut result = out;
        for shard in shards {
            result = joined(shard, "shard").and(result);
        }
        result
    })
}
