//! The TCP front-end: accept, decode, bridge into `bf-server` tickets.

use crate::proto::{
    ClientMessage, ServerMessage, WireError, WireEventKind, WireMetric, WireReplicaStats,
    WireResponse, PROTOCOL_VERSION,
};
use bf_obs::{
    BusSubscriber, ClusterEventKind, Counter, Histogram, MetricSnapshot, Registry, SloEngine,
    SloSpec, Stage, TraceContext, TraceId, TraceTimer,
};
use bf_server::{DriverHandle, Server, ServerError, ServerStats, Ticket};
use bf_store::{fnv1a, frame_bytes, read_frame, FrameRead};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The replication layer's interposition points. One trait (held behind
/// a stable `Arc` in [`ServerRole::Replica`]) so a replica can change
/// behaviour — follower refusing writes, then promoting to leader and
/// sequencing them — without the net layer re-wiring anything: the hook
/// decides per call.
pub trait ReplicaHook: Send + Sync {
    /// Sequences a write into the replicated log, returning a ticket
    /// that resolves once the entry is quorum-durable **and** executed
    /// locally. A follower refuses with [`WireError::NotLeader`].
    ///
    /// Client deadlines are ignored under replication: a deadline is
    /// wall-clock dependent, and a charge that one replica drops on
    /// timeout while another executes it would fork the ledgers.
    fn sequence_submit(
        &self,
        analyst: &str,
        request_id: Option<u64>,
        request: bf_engine::Request,
    ) -> Result<Ticket, WireError>;

    /// Sequences a session open/reattach. Session totals go through the
    /// log too — every replica must agree on each analyst's budget, so
    /// an open is an ordered log entry like any charge. Blocks until
    /// the entry is quorum-durable and applied locally, returning the
    /// remaining ε; rare enough (once per analyst per connection) that
    /// blocking an acceptor is acceptable.
    fn sequence_open(&self, analyst: &str, total_bits: u64) -> Result<f64, WireError>;

    /// `Some(error)` when local reads must be refused right now —
    /// typically [`WireError::StaleReplica`] while this replica lags
    /// the commit index past its configured staleness bound. `None`
    /// serves `Budget` / `Stats` / `Traces` / `BudgetAudit` from the
    /// local engine, which is how followers scale reads out.
    fn refuse_read(&self) -> Option<WireError>;

    /// Refreshes hook-owned gauges (log index, lag, epoch, role) from
    /// live node state. Called at scrape and health-probe time so the
    /// reported values are current rather than whatever the last
    /// replication-stream receipt left behind. Default: no-op.
    fn refresh_observability(&self) {}

    /// This node's stable identity — the `replica` label its samples
    /// carry in a federated scrape (conventionally the replication
    /// peer address). Only consulted under [`ServerRole::Replica`];
    /// standalone nodes are labeled by [`NetConfig::node_name`].
    fn node_name(&self) -> String {
        "replica".into()
    }

    /// Scrapes every configured peer's metrics over the replication
    /// peer port: one entry per peer, in configured order, with
    /// unreachable peers reported (`reachable: false`, no samples)
    /// rather than silently dropped. Default: no peers.
    fn scrape_peers(&self) -> Vec<PeerScrape> {
        Vec::new()
    }

    /// Role, epoch, replication position and peer reachability for a
    /// `Health` probe. Probing may refresh cluster-level gauges (the
    /// fleet lag gauge an SLO reads), so the caller snapshots metrics
    /// *after* this. `None` (the default) reports a standalone node.
    fn health(&self) -> Option<ReplicaHealth> {
        None
    }
}

/// One cluster member's slice of a federated scrape, as returned by
/// [`ReplicaHook::scrape_peers`].
#[derive(Debug, Clone)]
pub struct PeerScrape {
    /// The member's node label (its replication peer address).
    pub node: String,
    /// Whether the member answered the probe.
    pub reachable: bool,
    /// The member's metric snapshot — unqualified names; the wire
    /// layer adds no label, the *client* merges with
    /// `bf_obs::merge_labeled_snapshots`. Empty when unreachable.
    pub metrics: Vec<MetricSnapshot>,
}

/// Replication-side identity and position for a `Health` probe, as
/// returned by [`ReplicaHook::health`].
#[derive(Debug, Clone)]
pub struct ReplicaHealth {
    /// `"leader"` or `"follower"`.
    pub role: String,
    /// Current sequencing epoch.
    pub epoch: u64,
    /// Largest log index executed through the local engine.
    pub applied: u64,
    /// Worst replication lag visible from this node, in entries: the
    /// local commit-to-apply gap, or (on a node with configured peers)
    /// the largest durable-high-water-to-peer-applied gap, with an
    /// unreachable peer counted as applied 0.
    pub lag: u64,
    /// Peer addresses that did not answer a status probe.
    pub unreachable: Vec<String>,
}

/// How this process's client port routes work.
#[derive(Clone, Default)]
pub enum ServerRole {
    /// Single-node serving: submissions feed the in-process scheduler
    /// directly. The default.
    #[default]
    Standalone,
    /// Member of a replicated cluster: writes are sequenced through the
    /// hook (refused with [`WireError::NotLeader`] on a follower),
    /// reads are gated on replication lag via
    /// [`ReplicaHook::refuse_read`].
    Replica(Arc<dyn ReplicaHook>),
}

impl std::fmt::Debug for ServerRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerRole::Standalone => f.write_str("Standalone"),
            ServerRole::Replica(_) => f.write_str("Replica(..)"),
        }
    }
}

/// Tuning knobs for the TCP front-end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Size of the acceptor pool. Each acceptor owns one connection at a
    /// time, so this bounds the number of concurrently **served**
    /// connections; further clients queue in the kernel backlog until an
    /// acceptor frees up.
    pub acceptors: usize,
    /// Per-connection bound on outstanding requests (pipelining window).
    /// A submit past the window is refused over the wire with
    /// [`WireError::WindowFull`] — per-connection backpressure layered
    /// on top of the server's per-analyst `QueueFull`.
    pub max_in_flight: usize,
    /// Cadence of the background scheduler driver ticking the inner
    /// [`Server`].
    pub tick_interval: Duration,
    /// How long a connection handler blocks waiting for socket bytes
    /// before polling its outstanding tickets for completions.
    pub poll_interval: Duration,
    /// Deterministic fault injection for the reply path: each **answer
    /// frame** (`Answer` / `BatchAnswer`) advances the plan's op clock,
    /// and a due fault drops the connection, truncates the frame
    /// mid-write, or delays it — the failure modes a client's retry
    /// logic must survive. Injections count into
    /// `faults_injected{layer="net"}`. `None` (the default) injects
    /// nothing.
    pub fault_plan: Option<Arc<bf_chaos::NetPlan>>,
    /// Routing for writes and reads: [`ServerRole::Standalone`] (the
    /// default) feeds the scheduler directly; [`ServerRole::Replica`]
    /// interposes the replication layer's [`ReplicaHook`].
    pub role: ServerRole,
    /// The `replica` label a standalone node's samples carry in a
    /// `ClusterStats` report (replicas use
    /// [`ReplicaHook::node_name`] instead).
    pub node_name: String,
    /// Declarative SLOs evaluated at every `Stats` / `ClusterStats` /
    /// `Health` scrape — passive, no background thread: each scrape
    /// feeds one sample into the sliding window, updates the `slo_*`
    /// gauges, and publishes firing/ok flips on the live event bus.
    /// Empty (the default) skips evaluation entirely.
    pub slos: Vec<SloSpec>,
    /// Sliding-window length for SLO rate objectives, in scrapes
    /// (minimum 2).
    pub slo_window: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            acceptors: 8,
            max_in_flight: 64,
            tick_interval: Duration::from_micros(500),
            poll_interval: Duration::from_micros(200),
            fault_plan: None,
            role: ServerRole::Standalone,
            node_name: "standalone".into(),
            slos: Vec::new(),
            slo_window: 8,
        }
    }
}

/// TCP-layer instruments, registered on the engine's shared registry so
/// one `StatsReport` covers every layer. Pure side channel: nothing here
/// feeds scheduling, admission or noise.
#[derive(Debug)]
struct NetCounters {
    obs: Arc<Registry>,
    connections: Counter,
    frames_in: Counter,
    frames_out: Counter,
    protocol_errors: Counter,
    window_refusals: Counter,
    disconnects_mid_request: Counter,
    /// Chaos-plan faults fired on the reply path (same label-in-name
    /// convention as the store's `faults_injected{layer="store"}`).
    faults_injected: Counter,
    /// Duration of handler-loop passes that made progress (flushed a
    /// reply, read bytes, or dispatched a frame).
    tick_busy_ns: Histogram,
    /// Duration of passes that found nothing to do (dominated by the
    /// read timeout / drain sleep).
    tick_idle_ns: Histogram,
    /// Submit-to-reply-flushed wall time per request, as observed by the
    /// wire layer (queue wait + schedule + release + encode included).
    request_ns: Histogram,
    /// In-flight requests on a connection at each accepted submit.
    window_occupancy: Histogram,
}

impl NetCounters {
    fn new(obs: Arc<Registry>) -> Self {
        Self {
            connections: obs.counter("net_connections_total"),
            frames_in: obs.counter("net_frames_in_total"),
            frames_out: obs.counter("net_frames_out_total"),
            protocol_errors: obs.counter("net_protocol_errors_total"),
            window_refusals: obs.counter("net_window_refusals_total"),
            disconnects_mid_request: obs.counter("net_disconnects_mid_request_total"),
            faults_injected: obs.counter("faults_injected{layer=\"net\"}"),
            tick_busy_ns: obs.histogram("net_tick_busy_ns"),
            tick_idle_ns: obs.histogram("net_tick_idle_ns"),
            request_ns: obs.histogram("net_request_ns"),
            window_occupancy: obs.histogram("net_window_occupancy"),
            obs,
        }
    }
}

/// Counter snapshot for the TCP layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames decoded from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// Connections killed for protocol violations (corrupt frames,
    /// undecodable messages, handshake misuse).
    pub protocol_errors: u64,
    /// Submissions refused because the connection's in-flight window was
    /// full.
    pub window_refusals: u64,
    /// Connections that dropped with requests still in flight (their
    /// tickets were released — undispatched work cancels without an ε
    /// charge).
    pub disconnects_mid_request: u64,
}

/// The serving process's network face: a `TcpListener` whose accepted
/// connections speak the [`crate::proto`] protocol and feed the
/// [`Server`]'s submission queues, so every fairness, coalescing,
/// admission and durability guarantee of the in-process stack applies
/// unchanged to remote analysts.
///
/// ```text
/// client processes ──TCP──► acceptor pool ──decode──► Server::submit ──► tickets ──encode──► replies
/// ```
///
/// The listener is non-blocking; a fixed pool of acceptor threads each
/// serve one connection at a time (bounded concurrency), polling between
/// socket reads and ticket completions so any number of pipelined
/// requests per connection make progress without an executor. Dropping a
/// connection mid-request releases its tickets: work not yet dispatched
/// is cancelled by the scheduler's sweep — no queue-slot leak, no ε
/// charge for answers nobody can read.
pub struct NetServer {
    server: Arc<Server>,
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    acceptors: Vec<std::thread::JoinHandle<()>>,
    driver: Option<DriverHandle>,
    /// Session tokens issued by this process: analyst → token. Shared
    /// across connections so a token survives reconnects (stable for
    /// the process lifetime), per-process so a failover's new leader
    /// issues fresh ones on reattach.
    tokens: Arc<Mutex<HashMap<String, u64>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (use port 0 for an OS-assigned port, then
    /// [`NetServer::local_addr`]), spawns the acceptor pool and a
    /// background driver ticking `server`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the listener cannot bind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        server: Arc<Server>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let closing = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::new(Arc::clone(server.engine().obs())));
        // Token seed: wall clock ⊕ pid. Tokens are an authentication
        // side channel — they never feed answers, noise or ordering, so
        // nondeterminism here cannot fork replicated ledgers.
        let token_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x626c_6f77_6669_7368)
            ^ u64::from(std::process::id());
        let tokens: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        // One shared SLO engine per serving process (scrapes from every
        // connection feed the same sliding window). Absent entirely
        // when no SLOs are configured — the common path pays nothing.
        let slo: Option<Arc<Mutex<SloEngine>>> = (!config.slos.is_empty()).then(|| {
            Arc::new(Mutex::new(SloEngine::new(
                server.engine().obs(),
                config.slos.clone(),
                config.slo_window,
            )))
        });
        let driver = server.start_driver(config.tick_interval);
        let acceptors = (0..config.acceptors.max(1))
            .map(|i| {
                let listener = listener.try_clone().expect("clone listener");
                let shared = AcceptorShared {
                    server: Arc::clone(&server),
                    config: config.clone(),
                    closing: Arc::clone(&closing),
                    counters: Arc::clone(&counters),
                    tokens: Arc::clone(&tokens),
                    token_seed,
                    slo: slo.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("bf-net-acceptor-{i}"))
                    .spawn(move || loop {
                        if shared.closing.load(Ordering::Acquire) {
                            return;
                        }
                        match listener.accept() {
                            Ok((stream, _)) => {
                                shared.counters.connections.inc();
                                Connection::new(stream, &shared).run();
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(shared.config.poll_interval);
                            }
                            Err(_) => return,
                        }
                    })
                    .expect("spawn acceptor")
            })
            .collect();
        Ok(NetServer {
            server,
            addr,
            closing,
            counters,
            acceptors,
            driver: Some(driver),
            tokens,
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The inner scheduler the connections feed.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// The session token this process issued for `analyst`, if any —
    /// issued on the first wire `OpenSession` and stable until the
    /// process exits.
    pub fn session_token(&self, analyst: &str) -> Option<u64> {
        self.tokens
            .lock()
            .expect("token book poisoned")
            .get(analyst)
            .copied()
    }

    /// Network-layer counters — a thin shim over the shared `bf-obs`
    /// registry (the same counters a wire `StatsReport` carries).
    pub fn stats(&self) -> NetStats {
        NetStats {
            connections: self.counters.connections.get(),
            frames_in: self.counters.frames_in.get(),
            frames_out: self.counters.frames_out.get(),
            protocol_errors: self.counters.protocol_errors.get(),
            window_refusals: self.counters.window_refusals.get(),
            disconnects_mid_request: self.counters.disconnects_mid_request.get(),
        }
    }

    /// Graceful shutdown: stop accepting, let every live connection
    /// drain its in-flight tickets (new submissions refuse with
    /// [`WireError::ShutDown`]) and close, then stop the driver and shut
    /// the inner server down (which drains, flushes and compacts the
    /// engine's store).
    ///
    /// # Errors
    ///
    /// [`ServerError`] when the inner server's final checkpoint fails;
    /// the network side is down either way.
    pub fn shutdown(mut self) -> Result<ServerStats, ServerError> {
        self.closing.store(true, Ordering::Release);
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
        if let Some(driver) = self.driver.take() {
            driver.stop();
        }
        self.server.shutdown()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.closing.store(true, Ordering::Release);
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
        // The driver handle (if still present) stops itself on drop.
    }
}

/// One outstanding single submit. `started` feeds the `net_request_ns`
/// histogram only — it never influences ordering or scheduling.
struct Outstanding {
    id: u64,
    ticket: Ticket,
    started: Instant,
    /// The client-assigned trace id, echoed on the reply frame.
    trace_id: Option<u64>,
    /// The request's trace context — the net layer's clone records the
    /// Reply span and finishes the tree when the answer flushes.
    trace: TraceContext,
}

/// One outstanding batch: slots resolve independently, the reply goes
/// out once all are done.
struct OutstandingBatch {
    id: u64,
    slots: Vec<Result<Ticket, WireError>>,
    started: Instant,
}

/// The process-shared state every connection on an acceptor borrows:
/// built once per acceptor thread, lent to each [`Connection`] it
/// serves in turn.
struct AcceptorShared {
    server: Arc<Server>,
    config: NetConfig,
    closing: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    tokens: Arc<Mutex<HashMap<String, u64>>>,
    token_seed: u64,
    slo: Option<Arc<Mutex<SloEngine>>>,
}

/// Per-connection state machine: owns the socket, the receive buffer,
/// and the in-flight tickets.
struct Connection<'a> {
    stream: TcpStream,
    server: &'a Arc<Server>,
    config: &'a NetConfig,
    closing: &'a AtomicBool,
    counters: &'a NetCounters,
    buf: Vec<u8>,
    hello_done: bool,
    goodbye: Option<u64>,
    /// Analysts whose sessions this connection attached via
    /// `OpenSession`. `BudgetAudit` — per-record labels and exact ε
    /// charges, a materially larger disclosure than the aggregate
    /// `Budget` snapshot — is served only for analysts in this set.
    attached: HashSet<String>,
    /// The server-wide session-token book (see [`NetServer::tokens`]).
    tokens: &'a Mutex<HashMap<String, u64>>,
    /// Seed for deriving fresh tokens (process-stable).
    token_seed: u64,
    singles: Vec<Outstanding>,
    batches: Vec<OutstandingBatch>,
    /// The process-wide SLO engine (`None` when no SLOs are
    /// configured).
    slo: &'a Option<Arc<Mutex<SloEngine>>>,
    /// The live `Watch` subscription, if this connection opened one:
    /// the watch's correlation id plus the bus subscription whose
    /// queued events the handler loop pumps out as `Event` frames.
    watch: Option<(u64, BusSubscriber)>,
}

/// Per-subscriber event-queue bound for `Watch` connections. A watcher
/// that falls further behind than this loses events (visible as gaps
/// in the sequence numbers) instead of growing server memory.
const WATCH_QUEUE_CAPACITY: usize = 256;
/// Max events flushed per handler-loop pass, so a hot bus cannot
/// starve frame reads on the same connection.
const WATCH_BATCH: usize = 64;

impl<'a> Connection<'a> {
    fn new(stream: TcpStream, shared: &'a AcceptorShared) -> Self {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
        // A client that stops READING can otherwise wedge this thread
        // forever in write_all once the TCP send buffer fills — which
        // would also hang NetServer::shutdown on the acceptor join. A
        // stalled write past this timeout is treated as a dead peer.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        Self {
            stream,
            server: &shared.server,
            config: &shared.config,
            closing: &shared.closing,
            counters: &shared.counters,
            buf: Vec::new(),
            hello_done: false,
            goodbye: None,
            attached: HashSet::new(),
            tokens: &shared.tokens,
            token_seed: shared.token_seed,
            singles: Vec::new(),
            batches: Vec::new(),
            slo: &shared.slo,
            watch: None,
        }
    }

    /// Outstanding **requests** (batch members each count — the window
    /// bounds server-side work per connection, and a thousand-member
    /// batch is a thousand queue slots, not one).
    fn in_flight(&self) -> usize {
        self.singles.len() + self.batches.iter().map(|b| b.slots.len()).sum::<usize>()
    }

    /// Serves the connection to completion. Returning drops any
    /// unresolved tickets — the scheduler's cancellation sweep then
    /// skips their work before it charges anything.
    ///
    /// Each loop pass is a *tick*. A pass that made progress (flushed a
    /// reply, read bytes, dispatched a frame) loops straight back around
    /// instead of sleeping — the old behaviour of waiting out a full
    /// `poll_interval` after productive work turned the interval into a
    /// latency floor on pipelined streams. Only a pass that found
    /// nothing to do pays the wait (the socket read timeout, or the
    /// drain sleep while a `Goodbye` settles).
    fn run(mut self) {
        let mut read_chunk = [0u8; 16 * 1024];
        loop {
            let tick_started = self.counters.obs.is_enabled().then(Instant::now);
            let mut progressed = false;

            // 1. Flush completions (also detects a dead peer on write).
            match self.flush_completions() {
                Err(_) => {
                    self.note_disconnect();
                    return;
                }
                Ok(flushed) => progressed |= flushed > 0,
            }

            // 1b. Stream queued watch events (suspended once a Goodbye
            //     starts draining, so the Farewell is the last frame).
            if self.goodbye.is_none() {
                match self.pump_watch() {
                    Err(_) => {
                        self.note_disconnect();
                        return;
                    }
                    Ok(pumped) => progressed |= pumped > 0,
                }
            }

            // 2. Orderly endings.
            if let Some(id) = self.goodbye {
                if self.in_flight() == 0 {
                    let _ = self.write_message(&ServerMessage::Farewell { id });
                    let _ = self.stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
                // Still draining; don't read further frames. Re-poll
                // immediately after a productive pass, sleep otherwise.
                if !progressed {
                    std::thread::sleep(self.config.poll_interval);
                }
                self.note_tick(tick_started, progressed);
                continue;
            }
            if self.closing.load(Ordering::Acquire) && self.in_flight() == 0 {
                // Server shutting down and nothing owed to this client.
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                return;
            }

            // 3. Pull bytes (blocking up to the poll timeout only when
            //    idle); decode complete frames.
            match self.stream.read(&mut read_chunk) {
                Ok(0) => {
                    // EOF: client gone. In-flight tickets drop here.
                    self.note_disconnect();
                    return;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&read_chunk[..n]);
                    progressed = true;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => {
                    self.note_disconnect();
                    return;
                }
            }
            loop {
                match read_frame(&self.buf) {
                    FrameRead::Incomplete => break,
                    FrameRead::Corrupt => {
                        self.counters.protocol_errors.inc();
                        let _ = self.write_message(&ServerMessage::Refused {
                            id: 0,
                            error: WireError::Protocol("corrupt frame".into()),
                            trace_id: None,
                        });
                        return;
                    }
                    FrameRead::Complete { payload, consumed } => {
                        self.counters.frames_in.inc();
                        let mut span = self.counters.obs.span();
                        let msg = ClientMessage::decode(payload);
                        self.counters.obs.span_mark(&mut span, Stage::Decode);
                        let decode_elapsed = span.elapsed().unwrap_or_default();
                        self.buf.drain(..consumed);
                        match msg {
                            Some(msg) => {
                                progressed = true;
                                if !self.dispatch(msg, decode_elapsed) {
                                    return;
                                }
                            }
                            None => {
                                self.counters.protocol_errors.inc();
                                let _ = self.write_message(&ServerMessage::Refused {
                                    id: 0,
                                    error: WireError::Protocol("undecodable message".into()),
                                    trace_id: None,
                                });
                                return;
                            }
                        }
                    }
                }
            }
            self.note_tick(tick_started, progressed);
        }
    }

    /// Feeds the busy/idle tick histograms; inert when metrics are off
    /// (no clock read happened).
    fn note_tick(&self, started: Option<Instant>, progressed: bool) {
        if let Some(t0) = started {
            let h = if progressed {
                &self.counters.tick_busy_ns
            } else {
                &self.counters.tick_idle_ns
            };
            h.record_duration(t0.elapsed());
        }
    }

    fn note_disconnect(&self) {
        if self.in_flight() > 0 {
            self.counters.disconnects_mid_request.inc();
        }
    }

    /// Handles one decoded message. Returns `false` when the connection
    /// must close (fatal protocol violation). `decode_elapsed` is how
    /// long the frame's decode took — a traced submit records it as the
    /// trace's Decode span.
    fn dispatch(&mut self, msg: ClientMessage, decode_elapsed: Duration) -> bool {
        let id = msg.id();
        if !self.hello_done && !matches!(msg, ClientMessage::Hello { .. }) {
            self.counters.protocol_errors.inc();
            let _ = self.write_message(&ServerMessage::Refused {
                id,
                error: WireError::Protocol("first frame must be Hello".into()),
                trace_id: None,
            });
            return false;
        }
        match msg {
            ClientMessage::Hello { id, version } => {
                if self.hello_done {
                    self.counters.protocol_errors.inc();
                    let _ = self.write_message(&ServerMessage::Refused {
                        id,
                        error: WireError::Protocol("duplicate Hello".into()),
                        trace_id: None,
                    });
                    return false;
                }
                if version != PROTOCOL_VERSION {
                    self.counters.protocol_errors.inc();
                    let _ = self.write_message(&ServerMessage::Refused {
                        id,
                        error: WireError::Protocol(format!(
                            "version mismatch: server speaks {PROTOCOL_VERSION}, client {version}"
                        )),
                        trace_id: None,
                    });
                    return false;
                }
                self.hello_done = true;
                self.write_message(&ServerMessage::Welcome {
                    id,
                    version: PROTOCOL_VERSION,
                })
                .is_ok()
            }
            ClientMessage::OpenSession {
                id,
                analyst,
                total_bits,
            } => {
                let reply = match bf_core::Epsilon::new(f64::from_bits(total_bits)) {
                    Err(e) => ServerMessage::Refused {
                        id,
                        error: WireError::InvalidRequest(e.to_string()),
                        trace_id: None,
                    },
                    Ok(total) => {
                        // Under replication the open itself is a log
                        // entry — every replica must agree on the
                        // analyst's total before any charge sequences
                        // after it.
                        let attached = match &self.config.role {
                            ServerRole::Standalone => self
                                .server
                                .engine()
                                .attach_session(&analyst, total)
                                .map_err(|e| WireError::from_engine_error(&e)),
                            ServerRole::Replica(hook) => hook.sequence_open(&analyst, total_bits),
                        };
                        match attached {
                            Ok(remaining) => {
                                self.attached.insert(analyst.clone());
                                ServerMessage::SessionAttached {
                                    id,
                                    remaining_bits: remaining.to_bits(),
                                    token: self.issue_token(&analyst),
                                }
                            }
                            Err(error) => ServerMessage::Refused {
                                id,
                                error,
                                trace_id: None,
                            },
                        }
                    }
                };
                self.write_message(&reply).is_ok()
            }
            ClientMessage::Submit {
                id,
                analyst,
                request,
                request_id,
                deadline_micros,
                trace_id,
                token,
            } => {
                if let Some(error) = self.token_refusal(&analyst, token) {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error,
                            trace_id,
                        })
                        .is_ok();
                }
                if let Some(refusal) = self.window_refusal(1) {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error: refusal,
                            trace_id,
                        })
                        .is_ok();
                }
                // A traced submit mints the request's travelling context
                // here, at the wire boundary, and backfills the Decode
                // span the frame just paid.
                let trace = match trace_id {
                    Some(tid) => {
                        let t = self.counters.obs.begin_trace(TraceId(tid), &analyst);
                        if t.is_active() {
                            t.record_elapsed(Stage::Decode, decode_elapsed, "ok");
                        }
                        t
                    }
                    None => TraceContext::inert(),
                };
                match self.submit_one(&analyst, &request, request_id, deadline_micros, &trace) {
                    Ok(ticket) => {
                        self.singles.push(Outstanding {
                            id,
                            ticket,
                            started: Instant::now(),
                            trace_id,
                            trace,
                        });
                        self.note_occupancy();
                        true
                    }
                    Err(error) => {
                        trace.finish("refused");
                        self.write_message(&ServerMessage::Refused {
                            id,
                            error,
                            trace_id,
                        })
                        .is_ok()
                    }
                }
            }
            ClientMessage::SubmitBatch {
                id,
                analyst,
                requests,
                token,
            } => {
                // The batch path charges the same ε budget as single
                // submits, so it passes the same session-token gate.
                if let Some(refusal) = self.token_refusal(&analyst, token) {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error: refusal,
                            trace_id: None,
                        })
                        .is_ok();
                }
                if let Some(refusal) = self.window_refusal(requests.len()) {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error: refusal,
                            trace_id: None,
                        })
                        .is_ok();
                }
                // Each member submits independently — compatible members
                // land in the same coalescing window and share releases;
                // a refused member fails only its own slot.
                let slots = requests
                    .iter()
                    .map(|request| {
                        self.submit_one(&analyst, request, None, None, &TraceContext::inert())
                    })
                    .collect();
                self.batches.push(OutstandingBatch {
                    id,
                    slots,
                    started: Instant::now(),
                });
                self.note_occupancy();
                true
            }
            ClientMessage::Budget { id, analyst } => {
                if let Some(error) = self.read_refusal() {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error,
                            trace_id: None,
                        })
                        .is_ok();
                }
                let reply = match self.server.engine().session_snapshot(&analyst) {
                    Ok(snap) => ServerMessage::BudgetReport {
                        id,
                        total_bits: snap.total().value().to_bits(),
                        spent_bits: snap.spent().to_bits(),
                        remaining_bits: snap.remaining().to_bits(),
                        served: snap.served(),
                    },
                    Err(e) => ServerMessage::Refused {
                        id,
                        error: WireError::from_engine_error(&e),
                        trace_id: None,
                    },
                };
                self.write_message(&reply).is_ok()
            }
            ClientMessage::Stats { id } => {
                if let Some(error) = self.read_refusal() {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error,
                            trace_id: None,
                        })
                        .is_ok();
                }
                // One merged snapshot covering every layer: engine,
                // store, server and net metrics all live on the two
                // registries `Engine::metrics_snapshot` folds together.
                let metrics = self
                    .scrape_local()
                    .iter()
                    .map(WireMetric::from_snapshot)
                    .collect();
                self.write_message(&ServerMessage::StatsReport { id, metrics })
                    .is_ok()
            }
            ClientMessage::ClusterStats { id } => {
                if let Some(error) = self.read_refusal() {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error,
                            trace_id: None,
                        })
                        .is_ok();
                }
                // The serving node's own slice first, then one entry
                // per configured peer (scraped over the replication
                // peer port) — every reachable member exactly once,
                // unreachable members reported rather than dropped.
                // Samples go out with unqualified names; the client
                // qualifies each source with its `replica` label.
                let local = self
                    .scrape_local()
                    .iter()
                    .map(WireMetric::from_snapshot)
                    .collect();
                let node = match &self.config.role {
                    ServerRole::Replica(hook) => hook.node_name(),
                    ServerRole::Standalone => self.config.node_name.clone(),
                };
                let mut replicas = vec![WireReplicaStats {
                    node,
                    reachable: true,
                    metrics: local,
                }];
                if let ServerRole::Replica(hook) = &self.config.role {
                    for peer in hook.scrape_peers() {
                        replicas.push(WireReplicaStats {
                            node: peer.node,
                            reachable: peer.reachable,
                            metrics: peer.metrics.iter().map(WireMetric::from_snapshot).collect(),
                        });
                    }
                }
                self.write_message(&ServerMessage::ClusterStatsReport { id, replicas })
                    .is_ok()
            }
            ClientMessage::Health { id } => {
                // No read-refusal gate: a lagging or fenced replica
                // must still report *that* it is lagging — health is
                // what a load balancer decides eviction by.
                let health = match &self.config.role {
                    ServerRole::Replica(hook) => {
                        hook.refresh_observability();
                        hook.health()
                    }
                    ServerRole::Standalone => None,
                };
                // Snapshot after the hook's peer probes: they refresh
                // the cluster-lag gauge the SLO evaluation reads.
                let snaps = self.server.engine().metrics_snapshot();
                let firing = self.observe_slos(&snaps);
                let gauge_sum = |prefix: &str| {
                    snaps
                        .iter()
                        .filter(|s| s.name().starts_with(prefix))
                        .map(|s| match s {
                            MetricSnapshot::Gauge { value, .. } => *value,
                            _ => 0.0,
                        })
                        .sum::<f64>()
                };
                let wal_segments =
                    gauge_sum("store_live_wal_segments") + gauge_sum("store_archived_wal_segments");
                let queue_depth = gauge_sum("server_queue_depth{");
                let (role, epoch, applied, lag, unreachable) = match health {
                    Some(h) => (h.role, h.epoch, h.applied, h.lag, h.unreachable),
                    None => ("standalone".to_owned(), 0, 0, 0, Vec::new()),
                };
                self.write_message(&ServerMessage::HealthReport {
                    id,
                    role,
                    epoch,
                    applied,
                    lag,
                    wal_segments: wal_segments as u64,
                    queue_depth: queue_depth as u64,
                    unreachable,
                    firing,
                })
                .is_ok()
            }
            ClientMessage::Watch { id } => {
                // Attach a bounded bus subscription; the handler loop
                // pumps its events out as `Event` frames echoing this
                // id. One watch per connection: a second Watch
                // replaces the first (whose queued events are
                // dropped with it).
                let sub = self.counters.obs.bus().subscribe(WATCH_QUEUE_CAPACITY);
                self.watch = Some((id, sub));
                true
            }
            ClientMessage::Traces { id } => {
                if let Some(error) = self.read_refusal() {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error,
                            trace_id: None,
                        })
                        .is_ok();
                }
                let traces = self.counters.obs.trace_buffer().snapshot();
                self.write_message(&ServerMessage::TraceReport { id, traces })
                    .is_ok()
            }
            ClientMessage::BudgetAudit { id, analyst, token } => {
                if let Some(error) = self.read_refusal() {
                    return self
                        .write_message(&ServerMessage::Refused {
                            id,
                            error,
                            trace_id: None,
                        })
                        .is_ok();
                }
                // Per-record provenance (exact labels and ε per query)
                // is only served to a connection that attached the
                // analyst's session — reattaching requires the
                // session's original ε total, so a stranger on the
                // same port cannot walk another analyst's history —
                // and presented the session token the attach handed
                // back.
                let reply = if !self.attached.contains(&analyst) {
                    ServerMessage::Refused {
                        id,
                        error: WireError::InvalidRequest(format!(
                            "audit for {analyst:?} requires a session \
                             attached on this connection"
                        )),
                        trace_id: None,
                    }
                } else if let Some(error) = self.token_refusal(&analyst, token) {
                    ServerMessage::Refused {
                        id,
                        error,
                        trace_id: None,
                    }
                } else {
                    match self.server.engine().ledger_history(&analyst) {
                        Ok(entries) => ServerMessage::AuditReport { id, entries },
                        Err(e) => ServerMessage::Refused {
                            id,
                            error: WireError::from_engine_error(&e),
                            trace_id: None,
                        },
                    }
                };
                self.write_message(&reply).is_ok()
            }
            ClientMessage::LogCatchup { id, .. }
            | ClientMessage::ReplicateAck { id, .. }
            | ClientMessage::PeerStatus { id } => {
                // Replication frames travel replica-to-replica on the
                // peer port; a client sending one here is confused or
                // probing.
                self.counters.protocol_errors.inc();
                self.write_message(&ServerMessage::Refused {
                    id,
                    error: WireError::Protocol(
                        "replication frames are peer-to-peer, not served on the client port".into(),
                    ),
                    trace_id: None,
                })
                .is_ok()
            }
            ClientMessage::Goodbye { id } => {
                self.goodbye = Some(id);
                true
            }
        }
    }

    /// Gets-or-derives the session token for `analyst`. Tokens are
    /// process-stable: a reconnecting client reattaching the same
    /// session gets the same token back.
    fn issue_token(&self, analyst: &str) -> u64 {
        let mut book = self.tokens.lock().expect("token book poisoned");
        *book.entry(analyst.to_owned()).or_insert_with(|| {
            let mut bytes = self.token_seed.to_le_bytes().to_vec();
            bytes.extend_from_slice(analyst.as_bytes());
            // Zero means "no token" on the wire, so never issue it.
            fnv1a(&bytes).max(1)
        })
    }

    /// Refuses a request that should have presented `analyst`'s session
    /// token but didn't (or presented a stale/forged one). Enforced once
    /// a wire `OpenSession` issued a token for the analyst; sessions
    /// opened in-process are exempt.
    fn token_refusal(&self, analyst: &str, presented: Option<u64>) -> Option<WireError> {
        let expected = self
            .tokens
            .lock()
            .expect("token book poisoned")
            .get(analyst)
            .copied()?;
        if presented == Some(expected) {
            None
        } else {
            Some(WireError::InvalidRequest(format!(
                "missing or invalid session token for {analyst:?}; \
                 reattach the session to obtain one"
            )))
        }
    }

    /// The replication layer's veto on serving reads locally (`None`
    /// under [`ServerRole::Standalone`]).
    fn read_refusal(&self) -> Option<WireError> {
        match &self.config.role {
            ServerRole::Standalone => None,
            ServerRole::Replica(hook) => hook.refuse_read(),
        }
    }

    /// The local scrape path shared by `Stats` and `ClusterStats`:
    /// refresh hook-owned gauges from live node state, feed one sample
    /// through the SLO engine, and return a snapshot that includes the
    /// updated `slo_*` gauges. Without configured SLOs this is one
    /// snapshot and nothing else.
    fn scrape_local(&self) -> Vec<MetricSnapshot> {
        if let ServerRole::Replica(hook) = &self.config.role {
            hook.refresh_observability();
        }
        let snaps = self.server.engine().metrics_snapshot();
        if self.slo.is_none() {
            return snaps;
        }
        self.observe_slos(&snaps);
        // Re-read so the reply carries the slo_* gauges this very
        // scrape just updated (scrapes are rare; the second pass is
        // cheaper than serving stale SLO state).
        self.server.engine().metrics_snapshot()
    }

    /// Feeds one scrape sample through the SLO engine (no-op without
    /// configured SLOs): updates the `slo_*` gauges, publishes
    /// firing/ok flips on the live event bus, and returns the names
    /// currently firing.
    fn observe_slos(&self, snaps: &[MetricSnapshot]) -> Vec<String> {
        let Some(slo) = self.slo.as_ref() else {
            return Vec::new();
        };
        let mut slo = slo.lock().expect("slo engine poisoned");
        for flip in slo.observe(snaps) {
            self.counters.obs.bus().publish(
                ClusterEventKind::Slo,
                &flip.slo,
                u64::from(flip.firing),
            );
        }
        slo.firing()
    }

    /// Writes out every event queued on the connection's `Watch`
    /// subscription (bounded per pass), returning how many went — the
    /// handler loop's progress signal.
    fn pump_watch(&mut self) -> std::io::Result<usize> {
        let (watch_id, events) = match &self.watch {
            Some((id, sub)) => (*id, sub.drain(WATCH_BATCH)),
            None => return Ok(0),
        };
        for event in &events {
            self.write_message(&ServerMessage::Event {
                id: watch_id,
                seq: event.seq,
                kind: WireEventKind::from(event.kind),
                detail: event.detail.clone(),
                value: event.value,
            })?;
        }
        Ok(events.len())
    }

    /// Records the connection's in-flight depth after an accepted
    /// submit (metrics-off: no-op).
    fn note_occupancy(&self) {
        if self.counters.obs.is_enabled() {
            self.counters
                .window_occupancy
                .record(self.in_flight() as u64);
        }
    }

    /// Refuses when admitting `incoming` more requests would overflow
    /// the connection's window.
    fn window_refusal(&self, incoming: usize) -> Option<WireError> {
        if self.in_flight() + incoming > self.config.max_in_flight {
            self.counters.window_refusals.inc();
            Some(WireError::WindowFull {
                capacity: self.config.max_in_flight as u64,
            })
        } else {
            None
        }
    }

    fn submit_one(
        &self,
        analyst: &str,
        request: &crate::proto::WireRequest,
        request_id: Option<u64>,
        deadline_micros: Option<u64>,
        trace: &TraceContext,
    ) -> Result<Ticket, WireError> {
        if self.closing.load(Ordering::Acquire) {
            return Err(WireError::ShutDown);
        }
        // The top quarter of the id space is reserved for log-position-
        // derived idempotency keys (see `RESERVED_REQUEST_ID_BASE`);
        // letting a client key land there could alias another request's
        // cached reply.
        if request_id.is_some_and(|rid| rid >= crate::proto::RESERVED_REQUEST_ID_BASE) {
            return Err(WireError::InvalidRequest(format!(
                "request_id {} is in the reserved range (>= 2^62); \
                 pick an id below {}",
                request_id.unwrap_or(0),
                crate::proto::RESERVED_REQUEST_ID_BASE,
            )));
        }
        let request = request.to_request()?;
        match &self.config.role {
            ServerRole::Standalone => self
                .server
                .submit_traced(
                    analyst,
                    request,
                    request_id,
                    deadline_micros.map(Duration::from_micros),
                    trace.clone(),
                )
                .map_err(|e| WireError::from_server_error(&e)),
            // Replicated writes sequence through the log instead of the
            // local scheduler; the deadline is dropped (wall-clock
            // dependent — see [`ReplicaHook::sequence_submit`]).
            ServerRole::Replica(hook) => hook.sequence_submit(analyst, request_id, request),
        }
    }

    /// Writes replies for every resolved ticket and completed batch,
    /// returning how many went out (the handler loop's progress signal).
    fn flush_completions(&mut self) -> std::io::Result<usize> {
        let metrics_on = self.counters.obs.is_enabled();
        let request_ns = &self.counters.request_ns;
        let mut replies: Vec<(ServerMessage, TraceContext, &'static str)> = Vec::new();
        self.singles.retain(|o| match o.ticket.try_take() {
            None => true,
            Some(result) => {
                if metrics_on {
                    request_ns.record_duration(o.started.elapsed());
                }
                let (msg, outcome) = match result {
                    Ok(response) => (
                        ServerMessage::Answer {
                            id: o.id,
                            response: WireResponse::from_response(&response),
                            trace_id: o.trace_id,
                        },
                        "ok",
                    ),
                    Err(e) => (
                        ServerMessage::Refused {
                            id: o.id,
                            error: WireError::from_server_error(&e),
                            trace_id: o.trace_id,
                        },
                        "refused",
                    ),
                };
                replies.push((msg, o.trace.clone(), outcome));
                false
            }
        });
        let mut finished: Vec<usize> = Vec::new();
        for (i, batch) in self.batches.iter().enumerate() {
            let done = batch.slots.iter().all(|slot| match slot {
                Err(_) => true,
                Ok(ticket) => ticket.try_take().is_some(),
            });
            if done {
                finished.push(i);
            }
        }
        for i in finished.into_iter().rev() {
            let batch = self.batches.swap_remove(i);
            if metrics_on {
                // One sample per member: a batch of n occupied n window
                // slots for its whole flight.
                for _ in 0..batch.slots.len() {
                    request_ns.record_duration(batch.started.elapsed());
                }
            }
            let slots = batch
                .slots
                .into_iter()
                .map(|slot| match slot {
                    Err(e) => Err(e),
                    Ok(ticket) => match ticket.try_take().expect("resolved above") {
                        Ok(response) => Ok(WireResponse::from_response(&response)),
                        Err(e) => Err(WireError::from_server_error(&e)),
                    },
                })
                .collect();
            replies.push((
                ServerMessage::BatchAnswer {
                    id: batch.id,
                    slots,
                },
                TraceContext::inert(),
                "ok",
            ));
        }
        let flushed = replies.len();
        if flushed > 0 {
            let mut span = self.counters.obs.span();
            let timer = TraceTimer::any(replies.iter().map(|(_, t, _)| t));
            for (reply, _, _) in &replies {
                self.write_message(reply)?;
            }
            self.counters.obs.span_mark(&mut span, Stage::Reply);
            // Close out every traced request that just flushed: record
            // its Reply span and seal the tree into the trace buffer.
            for (_, trace, outcome) in &replies {
                if trace.is_active() {
                    trace.record(Stage::Reply, &timer, outcome);
                    trace.finish(outcome);
                }
            }
        }
        Ok(flushed)
    }

    fn write_message(&mut self, msg: &ServerMessage) -> std::io::Result<()> {
        let mut payload = msg.encode();
        if payload.len() > bf_store::MAX_RECORD_LEN as usize {
            // The client would reject a longer frame as corrupt and drop
            // the connection; refuse this one request instead.
            payload = ServerMessage::Refused {
                id: msg.id(),
                error: WireError::ReplyTooLarge {
                    bytes: payload.len() as u64,
                    limit: u64::from(bf_store::MAX_RECORD_LEN),
                },
                trace_id: None,
            }
            .encode();
        }
        // The chaos plan's op clock ticks once per **answer** frame, so a
        // scripted schedule addresses "the 3rd answer" no matter how many
        // handshake or stats frames interleave.
        if let Some(plan) = &self.config.fault_plan {
            if matches!(
                msg,
                ServerMessage::Answer { .. } | ServerMessage::BatchAnswer { .. }
            ) {
                if let Some(fault) = plan.next() {
                    self.counters.faults_injected.inc();
                    match fault {
                        bf_chaos::NetFault::DropConnection => {
                            let _ = self.stream.shutdown(std::net::Shutdown::Both);
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::ConnectionReset,
                                "chaos: connection dropped before reply",
                            ));
                        }
                        bf_chaos::NetFault::TruncateReply => {
                            let framed = frame_bytes(&payload);
                            self.counters.frames_out.inc();
                            let _ = self.stream.write_all(&framed[..framed.len() / 2]);
                            let _ = self.stream.shutdown(std::net::Shutdown::Both);
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::ConnectionReset,
                                "chaos: reply frame truncated mid-write",
                            ));
                        }
                        bf_chaos::NetFault::DelayReplyMicros(us) => {
                            std::thread::sleep(Duration::from_micros(us));
                        }
                    }
                }
            }
        }
        self.counters.frames_out.inc();
        self.stream.write_all(&frame_bytes(&payload))
    }
}
