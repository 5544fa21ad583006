//! Deployments of the serving stack at each depth of the ladder, and the
//! per-client handles ("lanes") the load generators submit through.
//!
//! Only public functions of each crate are called: `Engine::serve`,
//! `Server::submit*` with `Ticket::wait`, `Client::submit*`/`wait`,
//! `Store::open`, `Replica::start`/`lead`/`follow`/`status`.

use crate::inputs::{Inputs, BUDGET};
use crate::trace::Spans;
use bf_core::Epsilon;
use bf_engine::{Engine, Request, Response, Store};
use bf_net::{Client, NetConfig, NetServer};
use bf_obs::MetricSnapshot;
use bf_replica::{Replica, ReplicaConfig};
use bf_server::{DriverHandle, Server, ServerConfig, Ticket};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How deep a request travels. Each rung adds one layer to the one
/// before it, so a layer's cost is the difference between adjacent rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// `Engine::serve`, in process, no store.
    Engine,
    /// `Server::submit` plus the ticket wait, driven by a background tick.
    Server,
    /// A loopback `NetServer` in front of the server, no store.
    Net,
    /// The same with a WAL under the engine.
    Store,
    /// A 3-replica quorum-2 cluster, each node with its own WAL.
    Replica,
}

pub const LADDER: [Rung; 5] = [
    Rung::Engine,
    Rung::Server,
    Rung::Net,
    Rung::Store,
    Rung::Replica,
];

impl Rung {
    pub fn name(self) -> &'static str {
        match self {
            Rung::Engine => "engine",
            Rung::Server => "server",
            Rung::Net => "net",
            Rung::Store => "store",
            Rung::Replica => "replica",
        }
    }
}

/// The tick interval `NetServer` uses by default; the in-process server
/// rung ticks its scheduler at the same cadence so only the wire differs.
const TICK: Duration = Duration::from_micros(500);
const REPLICAS: usize = 3;
const QUORUM: usize = 2;
/// How long the benchmark waits for replicas to converge before it calls
/// the deployment broken.
pub const CONVERGE_TIMEOUT: Duration = Duration::from_secs(20);

/// One client's way into the deployment.
pub enum Lane {
    Engine(Arc<Engine>),
    Server(Arc<Server>),
    Net(Box<Client>),
}

/// A submitted request awaiting its answer.
pub enum Handle {
    /// Answered (or refused) during the submit call, at the instant given.
    Done(Result<Response, String>, Instant),
    Ticket(Ticket),
    Wire(u64),
}

impl Lane {
    /// Submits one request. `tag` is its idempotency key, sent only by
    /// workloads that use `submit_tagged`.
    pub fn submit(
        &mut self,
        analyst: &str,
        request: &Request,
        tag: Option<u64>,
        spans: &mut Spans,
        req: u64,
    ) -> Handle {
        match self {
            Lane::Engine(engine) => {
                let t = spans.open();
                let result = engine.serve(analyst, request).map_err(|e| e.to_string());
                spans.close("Engine::serve", t, req);
                Handle::Done(result, Instant::now())
            }
            Lane::Server(server) => {
                let t = spans.open();
                let result = server.submit(analyst, request.clone());
                spans.close("Server::submit", t, req);
                match result {
                    Ok(ticket) => Handle::Ticket(ticket),
                    Err(e) => Handle::Done(Err(e.to_string()), Instant::now()),
                }
            }
            Lane::Net(client) => {
                let t = spans.open();
                let result = client.submit_tagged(analyst, request, tag, None);
                spans.close("Client::submit", t, req);
                match result {
                    Ok(id) => Handle::Wire(id),
                    Err(e) => Handle::Done(Err(e.to_string()), Instant::now()),
                }
            }
        }
    }

    /// Blocks for a submitted request's answer; returns it with the
    /// instant it was received.
    pub fn wait(
        &mut self,
        handle: Handle,
        spans: &mut Spans,
        req: u64,
    ) -> (Result<Response, String>, Instant) {
        let result = match handle {
            Handle::Done(result, at) => return (result, at),
            Handle::Ticket(ticket) => {
                let t = spans.open();
                let result = ticket.wait().map_err(|e| e.to_string());
                spans.close("Ticket::wait", t, req);
                result
            }
            Handle::Wire(id) => {
                let Lane::Net(client) = self else {
                    unreachable!("wire handles come from wire lanes")
                };
                let t = spans.open();
                let result = client.wait(id).map_err(|e| e.to_string());
                spans.close("Client::wait", t, req);
                result
            }
        };
        (result, Instant::now())
    }

    pub fn client(&mut self) -> Option<&mut Client> {
        match self {
            Lane::Net(client) => Some(client),
            _ => None,
        }
    }
}

/// A running deployment.
pub struct Deployment {
    pub rung: Rung,
    /// The engine that answers writes: the only one, or the leader's.
    pub engine: Arc<Engine>,
    server: Option<(Arc<Server>, DriverHandle)>,
    net: Option<NetServer>,
    /// Leader first.
    pub replicas: Vec<Replica>,
    /// One lane per query client.
    pub lanes: Vec<Lane>,
    /// A follower connection for the budget reader, when a cluster is
    /// asked for one.
    pub reader: Option<Client>,
    /// Store directories, leader's (or the only one) first.
    dirs: Vec<PathBuf>,
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("positive ε")
}

fn open_store(dir: &Path) -> Arc<Store> {
    Arc::new(Store::open(dir).expect("open store"))
}

impl Deployment {
    /// Builds the deployment for `rung` and opens every analyst's
    /// session. Returns it with its set-up time: from opening the first
    /// store or engine until every session is open (and, in a cluster,
    /// applied on every follower), so the deployment accepts requests.
    /// Every engine is seeded with `seed`, which fixes its release noise.
    pub fn start(
        rung: Rung,
        inputs: &Inputs,
        dir: &Path,
        with_reader: bool,
        seed: u64,
    ) -> (Deployment, Duration) {
        let clients = inputs.workload.clients();
        let started = Instant::now();
        let mut dirs = Vec::new();
        let mut engine_for = |dir: Option<PathBuf>| {
            let engine = match dir {
                Some(d) => {
                    let e = Engine::with_store(seed, open_store(&d));
                    dirs.push(d);
                    e
                }
                None => Engine::with_seed(seed),
            };
            inputs.registry.register(&engine);
            Arc::new(engine)
        };
        let mut dep = match rung {
            Rung::Engine | Rung::Server => {
                let engine = engine_for(None);
                for c in 0..clients {
                    for a in inputs.analysts(c) {
                        engine.open_session(a, eps(BUDGET)).expect("open session");
                    }
                }
                let server = (rung == Rung::Server).then(|| {
                    let server =
                        Arc::new(Server::new(Arc::clone(&engine), ServerConfig::default()));
                    let ticker = server.start_driver(TICK);
                    (server, ticker)
                });
                let lanes = (0..clients)
                    .map(|_| match &server {
                        Some((s, _)) => Lane::Server(Arc::clone(s)),
                        None => Lane::Engine(Arc::clone(&engine)),
                    })
                    .collect();
                Deployment {
                    rung,
                    engine,
                    server,
                    net: None,
                    replicas: Vec::new(),
                    lanes,
                    reader: None,
                    dirs: Vec::new(),
                }
            }
            Rung::Net | Rung::Store => {
                let engine = engine_for((rung == Rung::Store).then(|| dir.join("node")));
                let server = Arc::new(Server::new(Arc::clone(&engine), ServerConfig::default()));
                let net = NetServer::bind("127.0.0.1:0", server, NetConfig::default())
                    .expect("bind loopback server");
                let addr = net.local_addr();
                Deployment {
                    rung,
                    engine,
                    server: None,
                    net: Some(net),
                    replicas: Vec::new(),
                    lanes: connect_lanes(inputs, addr),
                    reader: None,
                    dirs: Vec::new(),
                }
            }
            Rung::Replica => {
                let replicas: Vec<Replica> = (0..REPLICAS)
                    .map(|i| {
                        let d = dir.join(format!("replica-{i}"));
                        let registry = Arc::clone(&inputs.registry);
                        let replica = Replica::start(
                            &d,
                            "127.0.0.1:0",
                            "127.0.0.1:0",
                            ReplicaConfig {
                                seed,
                                quorum: QUORUM,
                                name: format!("replica-{i}"),
                                ..ReplicaConfig::default()
                            },
                            move |engine| registry.register(engine),
                        )
                        .expect("start replica");
                        dirs.push(d);
                        replica
                    })
                    .collect();
                let leader = &replicas[0];
                leader.lead();
                let hint = leader.client_addr().to_string();
                for follower in &replicas[1..] {
                    follower.follow(leader.peer_addr(), &hint);
                }
                let lanes = connect_lanes(inputs, leader.client_addr());
                let reader = with_reader
                    .then(|| Client::connect(replicas[1].client_addr()).expect("connect reader"));
                let engine = Arc::clone(leader.engine());
                let dep = Deployment {
                    rung,
                    engine,
                    server: None,
                    net: None,
                    replicas,
                    lanes,
                    reader,
                    dirs: Vec::new(),
                };
                dep.await_convergence()
                    .expect("followers apply the session opens");
                dep
            }
        };
        dep.dirs = dirs;
        (dep, started.elapsed())
    }

    /// Waits until every follower has applied everything the leader has;
    /// returns when that happened.
    pub fn await_convergence(&self) -> Result<Instant, String> {
        let Some(leader) = self.replicas.first() else {
            return Ok(Instant::now());
        };
        let deadline = Instant::now() + CONVERGE_TIMEOUT;
        loop {
            let target = leader.status().applied;
            if self.replicas[1..]
                .iter()
                .all(|r| r.status().applied >= target)
            {
                return Ok(Instant::now());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "followers did not reach the leader's applied index {target} within {:?}",
                    CONVERGE_TIMEOUT
                ));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Every metric of the write path's process: the engine registry
    /// (server and net layers register there too) merged with its store's.
    pub fn metrics(&self) -> Vec<MetricSnapshot> {
        self.engine.metrics_snapshot()
    }

    /// Bytes on disk in the write path's store directory.
    pub fn wal_bytes(&self) -> u64 {
        self.dirs.first().map(|d| dir_bytes(d)).unwrap_or(0)
    }

    /// Stops every client, server, scheduler tick thread and replica,
    /// waiting for each.
    pub fn shutdown(self) -> Result<(), String> {
        let mut errors = Vec::new();
        for lane in self.lanes {
            if let Lane::Net(client) = lane {
                if let Err(e) = client.goodbye() {
                    errors.push(format!("client goodbye: {e}"));
                }
            }
        }
        if let Some(reader) = self.reader {
            if let Err(e) = reader.goodbye() {
                errors.push(format!("reader goodbye: {e}"));
            }
        }
        if let Some(net) = self.net {
            if let Err(e) = net.shutdown() {
                errors.push(format!("net shutdown: {e}"));
            }
        }
        if let Some((server, ticker)) = self.server {
            ticker.stop();
            if let Err(e) = server.shutdown() {
                errors.push(format!("server shutdown: {e}"));
            }
        }
        for replica in self.replicas.into_iter().rev() {
            if let Err(e) = replica.shutdown() {
                errors.push(format!("replica shutdown: {e}"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

fn connect_lanes(inputs: &Inputs, addr: std::net::SocketAddr) -> Vec<Lane> {
    (0..inputs.workload.clients())
        .map(|c| {
            let mut client = Client::connect(addr).expect("connect client");
            for a in inputs.analysts(c) {
                client.open_session(&a, BUDGET).expect("open session");
            }
            Lane::Net(Box::new(client))
        })
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A counter's value by registry name (0 when absent).
pub fn counter(metrics: &[MetricSnapshot], name: &str) -> u64 {
    metrics
        .iter()
        .find_map(|m| match m {
            MetricSnapshot::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or(0)
}
