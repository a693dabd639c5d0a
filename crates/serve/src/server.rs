//! The TCP server: a readiness-driven, nonblocking event loop.
//!
//! Hand-rolled on `std::net` plus the [`crate::poll`] shim (the build
//! is offline — no tokio/hyper/mio): [`Server::run`] spawns `threads`
//! event-loop threads, each multiplexing its own set of accepted
//! connections over an [`Poller`] (epoll on Linux, `poll(2)`
//! elsewhere). Every socket is nonblocking; each connection is a small
//! state machine with a read buffer, a write buffer, and deadlines.
//!
//! **Pipelining.** A connection parses *every* complete request its
//! read buffer holds and queues the responses in order, so a client
//! may write N requests back-to-back and read N replies — one round
//! trip for the whole burst instead of one per query. The observed
//! depth per network read feeds the `pipeline` histogram.
//!
//! **Binary framing.** `HELLO proto=SKYWIRE01` flips the connection to
//! length-prefixed frames (the `skydiver_cluster::frame` codec) whose
//! payload is exactly the text-protocol bytes — see [`crate::protocol`].
//!
//! **Admission control.** Every `QUERY`/`BATCH` runs under a
//! per-request [`RunBudget`] assembled from its `timeout_ms` /
//! `max_dominance_tests` parameters plus a server-wide [`CancelToken`].
//! A tripped budget degrades the query to a partial result instead of
//! stalling the loop indefinitely.
//!
//! **Connection hardening.** Deadlines are enforced by a sweep on the
//! loop's tick rather than `set_read_timeout`: a connection that has
//! not *completed* a request within `read_timeout_ms` is shed — that
//! covers the silent idler and the slow-loris dribbling one byte at a
//! time equally, without pinning a thread. A client that stops reading
//! its responses trips `write_timeout_ms` the same way. The request
//! line cap and the frame cap bound per-connection memory.
//!
//! **Shutdown.** `SHUTDOWN` queues its `OK`, and once that reply is
//! flushed (or its 1 s grace expires) the shared flag flips and the
//! server-wide token cancels in-flight work; every loop observes the
//! flag within a tick, closes its connections and exits. The final
//! metrics snapshot is dumped to stderr.
//!
//! **Cluster roles.** Every server answers the worker verbs
//! (`SHARDPUT`/`FOLD`/`FETCH`/`REPLICATE`) through its registry's
//! [`ShardHost`](crate::ShardHost) — the same host its own `QUERY`s
//! fold on, so a node needs no restart to be drafted into a cluster
//! and holds one fold cache whichever way it is asked. A server
//! started with [`ClusterConfig`] additionally acts as coordinator:
//! `LOAD`/`APPEND` route shards to workers, `QUERY`/`BATCH` fan folds
//! out and merge, `JOIN`/`LEAVE` reshape the roster, and `STATS` rolls
//! the workers' snapshots up. Request lines carrying a `bytes=<n>`
//! token are followed by exactly `n` raw body bytes, bounded by
//! `max_frame_bytes`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skydiver_cluster::frame;
use skydiver_core::{
    canonicalise, select_diverse_budgeted, CancelToken, Degradation, DiverseResult,
    ExactJaccardDistance, ExecContext, Fingerprint, GammaSets, RunBudget, SeedRule, SkyDiver,
    TieBreak,
};
use skydiver_data::dominance::MinDominance;
use skydiver_skyline::sfs;

use crate::cluster::{ClusterConfig, ClusterState};
use crate::metrics::Metrics;
use crate::poll::{Event, Interest, Poller};
use crate::protocol::{
    json_escape, parse_request, BatchSpec, Method, QuerySpec, Request, WIRE_PROTO,
};
use crate::registry::{
    parse_prefs, request_budget, LoadedDataset, Registry, SelectionKey, SelectionMemo,
    DEFAULT_MAX_FRAME_BYTES,
};
use crate::store::SignatureStore;

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Event-loop threads (each multiplexes many connections).
    pub threads: usize,
    /// Fingerprint-cache ceiling in bytes.
    pub cache_bytes: usize,
    /// Directory of the durable signature store; `None` disables
    /// persistence (cold restarts, as before PR 6).
    pub store_dir: Option<String>,
    /// Per-connection request deadline in milliseconds — doubles as
    /// the idle-connection limit: a client that completes no request
    /// within it (silent, or dribbling bytes slower than this) is shed
    /// by the deadline sweep. `0` disables the deadline.
    pub read_timeout_ms: u64,
    /// Per-connection write deadline in milliseconds (a client that
    /// stops reading its responses is shed). `0` disables.
    pub write_timeout_ms: u64,
    /// Longest accepted request line in bytes; a connection exceeding
    /// it gets one `ERR` and is closed (bounds per-connection memory).
    pub max_line_bytes: usize,
    /// Largest binary body (`SHARDPUT`/`FOLD` frame) or `SKYWIRE01`
    /// frame payload accepted; a larger announcement gets one `ERR`
    /// and the connection is closed (the unread body cannot be
    /// resynced).
    pub max_frame_bytes: usize,
    /// Coordinator configuration. `Some` makes this server route
    /// `LOAD`/`APPEND` shards to workers and fan `QUERY` folds out to
    /// them; `None` serves single-process (but still answers the
    /// worker verbs).
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 4,
            cache_bytes: 64 << 20,
            store_dir: None,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            max_line_bytes: 64 << 10,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            cluster: None,
        }
    }
}

/// Per-connection hardening knobs, copied out of the config for the
/// event-loop threads.
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    max_line_bytes: usize,
    max_frame_bytes: usize,
}

/// A bound (not yet running) diversification query server.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    metrics: Arc<Metrics>,
    cluster: Option<Arc<ClusterState>>,
    shutdown: Arc<AtomicBool>,
    cancel: CancelToken,
    threads: usize,
    limits: ConnLimits,
}

impl Server {
    /// Binds the listener and builds the shared registry (opening the
    /// durable store first when `store_dir` is set — its recovery sweep
    /// runs here, so by the time the server accepts a connection every
    /// surviving artefact has been validated). A store that cannot be
    /// opened is logged and dropped: the server degrades to cold
    /// recomputes rather than refusing to start. The server does not
    /// accept connections until [`Server::run`].
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let metrics = Arc::new(Metrics::new());
        let store = match &cfg.store_dir {
            Some(dir) => match SignatureStore::open(dir, Arc::clone(&metrics), &[]) {
                Ok((store, report)) => {
                    eprintln!(
                        "skydiver-store: opened {dir} ({} valid, {} quarantined, \
                         {} temp files removed)",
                        report.valid, report.quarantined, report.removed_temps
                    );
                    Some(Arc::new(store))
                }
                Err(e) => {
                    eprintln!(
                        "skydiver-store: cannot open {dir} ({e}); \
                         serving without persistence"
                    );
                    None
                }
            },
            None => None,
        };
        // The registry's shard host folds for `QUERY`/`BATCH` and the
        // worker verbs alike, refusing a signature matrix larger than a
        // frame could carry.
        let max_frame_bytes = cfg.max_frame_bytes.max(1024);
        let registry =
            Registry::with_store(cfg.cache_bytes, Arc::clone(&metrics), store, max_frame_bytes);
        let cluster = cfg
            .cluster
            .as_ref()
            .map(|c| Arc::new(ClusterState::new(c, Arc::clone(&metrics))));
        Ok(Server {
            listener,
            registry: Arc::new(registry),
            metrics,
            cluster,
            shutdown: Arc::new(AtomicBool::new(false)),
            cancel: CancelToken::new(),
            threads: cfg.threads.max(1),
            limits: ConnLimits {
                read_timeout_ms: cfg.read_timeout_ms,
                write_timeout_ms: cfg.write_timeout_ms,
                max_line_bytes: cfg.max_line_bytes.max(64),
                max_frame_bytes,
            },
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared registry — lets embedders preload datasets before
    /// serving (tests, the load generator).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared metrics block.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Serves until a `SHUTDOWN` request arrives; every event loop
    /// drains, joins, and the final metrics snapshot is dumped to
    /// stderr before returning.
    pub fn run(self) -> std::io::Result<()> {
        // O_NONBLOCK lives on the shared file description, so setting
        // it once covers every per-thread clone below.
        self.listener.set_nonblocking(true)?;
        let mut loops = Vec::with_capacity(self.threads);
        for wid in 0..self.threads {
            let listener = self.listener.try_clone()?;
            let ctx = LoopCtx {
                registry: Arc::clone(&self.registry),
                cluster: self.cluster.clone(),
                shutdown: Arc::clone(&self.shutdown),
                cancel: self.cancel.clone(),
                limits: self.limits,
            };
            loops.push(
                std::thread::Builder::new()
                    .name(format!("skydiver-serve-{wid}"))
                    .spawn(move || event_loop(listener, ctx))?,
            );
        }
        // lint: allow(R2) -- joins a fixed handful of loop threads, each of which exits on the shutdown flag
        for h in loops {
            let _ = h.join();
        }
        eprintln!(
            "skydiver-serve: shutdown, final stats {}",
            self.metrics.snapshot_json()
        );
        Ok(())
    }

    /// Convenience: moves the server onto a background thread and
    /// returns a handle exposing the bound address, the registry, the
    /// metrics and a join point.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let registry = Arc::clone(&self.registry);
        let metrics = Arc::clone(&self.metrics);
        let join = std::thread::Builder::new()
            .name("skydiver-serve-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            registry,
            metrics,
            join,
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<Registry>,
    metrics: Arc<Metrics>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry (preload datasets here).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared metrics block.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Waits for the server to shut down.
    pub fn join(self) -> std::io::Result<()> {
        self.join
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Everything one event-loop thread shares with the rest of the server.
struct LoopCtx {
    registry: Arc<Registry>,
    cluster: Option<Arc<ClusterState>>,
    shutdown: Arc<AtomicBool>,
    cancel: CancelToken,
    limits: ConnLimits,
}

const LISTENER_TOKEN: u64 = 0;
/// Bytes read per wake-up before yielding to other connections — a
/// firehose client is re-scheduled (level-triggered) instead of
/// starving its neighbours.
const READ_BUDGET_BYTES: usize = 1 << 20;

/// One nonblocking connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes; `rpos` is the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Queued response bytes; `wpos` is the flushed prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// `true` after a successful `HELLO proto=SKYWIRE01`.
    framed: bool,
    /// A text-mode request whose announced body has not fully arrived.
    pending: Option<(Request, usize)>,
    /// Last time a complete request was parsed (or the connection was
    /// accepted) — the read/idle deadline anchors here, so a dribbler
    /// that never completes a request is shed like a silent idler.
    last_progress: Instant,
    /// Last time response bytes left the socket.
    last_write: Instant,
    eof: bool,
    /// Close once the write buffer drains.
    closing: bool,
    /// This connection carried `SHUTDOWN`: flip the server-wide flag
    /// once its reply is flushed (or its grace expires).
    shutdown_after_flush: bool,
    /// Whether the poller registration currently includes write.
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            framed: false,
            pending: None,
            last_progress: now,
            last_write: now,
            eof: false,
            closing: false,
            shutdown_after_flush: false,
            want_write: false,
        }
    }
}

/// The sweep/wake interval: fine enough to enforce the configured
/// deadlines promptly, coarse enough to stay idle-cheap.
fn tick_interval(limits: &ConnLimits) -> Duration {
    let mut tick = Duration::from_millis(100);
    // lint: allow(R2) -- two-element literal array, pure arithmetic
    for ms in [limits.read_timeout_ms, limits.write_timeout_ms] {
        if ms > 0 {
            tick = tick.min(Duration::from_millis((ms / 4).max(10)));
        }
    }
    tick
}

/// One event-loop thread: accepts, reads, dispatches and writes over a
/// private [`Poller`] until the server-wide shutdown flag flips.
fn event_loop(listener: TcpListener, ctx: LoopCtx) {
    let metrics = Arc::clone(ctx.registry.metrics());
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("skydiver-serve: poller init failed: {e}");
            return;
        }
    };
    if let Err(e) = poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ) {
        eprintln!("skydiver-serve: cannot watch listener: {e}");
        return;
    }
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let tick = tick_interval(&ctx.limits);
    loop {
        if ctx.shutdown.load(Ordering::Acquire) {
            break;
        }
        if poller.wait(&mut events, Some(tick)).is_err() {
            break;
        }
        for &ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_all(&listener, &mut poller, &mut conns, &metrics);
                continue;
            }
            let idx = (ev.token as usize).wrapping_sub(1);
            let mut finished = false;
            if let Some(Some(conn)) = conns.get_mut(idx) {
                if ev.closed && !ev.readable {
                    conn.closing = true;
                    conn.wbuf.clear();
                    conn.wpos = 0;
                }
                if ev.readable {
                    on_readable(conn, &ctx, &metrics);
                }
                if !conn.wbuf.is_empty() {
                    flush_conn(conn, &metrics);
                }
                update_interest(&mut poller, conn, ev.token);
                finished = conn.closing && conn.wbuf.is_empty();
            }
            if finished {
                close_conn(&mut poller, &mut conns, idx, &ctx.shutdown, &ctx.cancel);
            }
        }
        sweep_deadlines(
            &mut poller,
            &mut conns,
            &ctx.limits,
            &metrics,
            &ctx.shutdown,
            &ctx.cancel,
        );
    }
    // Shutdown: one best-effort flush per connection, then close.
    for idx in 0..conns.len() {
        if let Some(Some(conn)) = conns.get_mut(idx) {
            flush_conn(conn, &metrics);
        }
        close_conn(&mut poller, &mut conns, idx, &ctx.shutdown, &ctx.cancel);
    }
    let _ = poller.deregister(listener.as_raw_fd());
}

/// Accepts until the (shared, nonblocking) listener would block.
fn accept_all(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut Vec<Option<Conn>>,
    metrics: &Metrics,
) {
    // lint: allow(R2) -- accepts until WouldBlock; bounded by the backlog
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Pipelined request/response turnarounds are latency
                // sensitive — never batch them behind Nagle.
                let _ = stream.set_nodelay(true);
                metrics.bump(&metrics.conns_accepted);
                let idx = conns
                    .iter()
                    .position(|c| c.is_none())
                    .unwrap_or_else(|| {
                        conns.push(None);
                        conns.len() - 1
                    });
                let conn = Conn::new(stream);
                if poller
                    .register(conn.stream.as_raw_fd(), idx as u64 + 1, Interest::READ)
                    .is_ok()
                {
                    conns[idx] = Some(conn);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Drains the socket into the read buffer, then parses and answers
/// every complete request buffered (the pipelining core).
fn on_readable(conn: &mut Conn, ctx: &LoopCtx, metrics: &Metrics) {
    let mut chunk = [0u8; 16 * 1024];
    let mut read_budget = READ_BUDGET_BYTES;
    loop {
        if read_budget == 0 {
            break; // level-triggered: the poller re-wakes us for the rest
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                metrics.add(&metrics.bytes_in, n as u64);
                read_budget = read_budget.saturating_sub(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.eof = true;
                conn.closing = true;
                break;
            }
        }
    }
    let parsed = parse_and_dispatch(conn, ctx, metrics);
    if parsed > 0 {
        metrics.pipeline.record_micros(parsed as u64);
        conn.last_progress = Instant::now();
    }
    if conn.eof && conn.pending.is_none() {
        // Half-close: the client finished writing. Whatever could
        // complete above has been answered; flush and go.
        conn.closing = true;
    }
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
}

/// Parses every complete request in the read buffer and queues its
/// reply; returns how many replies were queued (the pipeline depth of
/// this wake-up).
fn parse_and_dispatch(conn: &mut Conn, ctx: &LoopCtx, metrics: &Metrics) -> usize {
    let mut count = 0usize;
    // lint: allow(R2) -- consumes only already-buffered bytes; each
    // dispatched request runs under its own budget + the server token
    loop {
        if conn.closing {
            break;
        }
        // A text-mode body announced by `bytes=<n>` may span reads.
        if let Some((req, need)) = conn.pending.take() {
            if conn.rbuf.len() - conn.rpos < need {
                conn.pending = Some((req, need));
                break;
            }
            let body = conn.rbuf[conn.rpos..conn.rpos + need].to_vec();
            conn.rpos += need;
            dispatch(conn, req, Some(body), ctx, metrics);
            count += 1;
            continue;
        }
        let stepped = if conn.framed {
            step_framed(conn, ctx, metrics, &mut count)
        } else {
            step_text(conn, ctx, metrics, &mut count)
        };
        if !stepped {
            break;
        }
    }
    count
}

/// One step of the line-delimited state machine. Returns `false` when
/// more bytes are needed (or the connection is now closing).
fn step_text(conn: &mut Conn, ctx: &LoopCtx, metrics: &Metrics, count: &mut usize) -> bool {
    let avail = &conn.rbuf[conn.rpos..];
    let Some(rel) = avail.iter().position(|&b| b == b'\n') else {
        if avail.len() > ctx.limits.max_line_bytes {
            // Same shed as the blocking server: one ERR, then close.
            queue_reply(
                conn,
                &format!(
                    "ERR request line exceeds {} bytes",
                    ctx.limits.max_line_bytes
                ),
                None,
            );
            conn.closing = true;
        }
        return false;
    };
    if rel > ctx.limits.max_line_bytes {
        queue_reply(
            conn,
            &format!(
                "ERR request line exceeds {} bytes",
                ctx.limits.max_line_bytes
            ),
            None,
        );
        conn.closing = true;
        return false;
    }
    let line = String::from_utf8_lossy(&avail[..rel]).into_owned();
    conn.rpos += rel + 1;
    if line.trim().is_empty() {
        return true;
    }
    // Parse before reading any body: only a well-formed line can
    // announce how many bytes follow. A malformed line never has a
    // body to skip, so the connection keeps serving after the `ERR`.
    let req = match parse_request(&line) {
        Ok(req) => req,
        Err(e) => {
            metrics.bump(&metrics.errors);
            queue_reply(conn, &format!("ERR {e}"), None);
            *count += 1;
            return true;
        }
    };
    match req.body_bytes() {
        Some(n) if n > ctx.limits.max_frame_bytes => {
            // The unread body cannot be resynced — shed the client.
            metrics.bump(&metrics.errors);
            queue_reply(
                conn,
                &format!(
                    "ERR request body of {n} bytes exceeds {} bytes",
                    ctx.limits.max_frame_bytes
                ),
                None,
            );
            conn.closing = true;
            false
        }
        Some(n) => {
            if conn.rbuf.len() - conn.rpos >= n {
                let body = conn.rbuf[conn.rpos..conn.rpos + n].to_vec();
                conn.rpos += n;
                dispatch(conn, req, Some(body), ctx, metrics);
                *count += 1;
                true
            } else {
                conn.pending = Some((req, n));
                false
            }
        }
        None => {
            dispatch(conn, req, None, ctx, metrics);
            *count += 1;
            true
        }
    }
}

/// One step of the `SKYWIRE01` framed state machine. Returns `false`
/// when more bytes are needed (or the connection is now closing).
fn step_framed(conn: &mut Conn, ctx: &LoopCtx, metrics: &Metrics, count: &mut usize) -> bool {
    let avail = conn.rbuf.len() - conn.rpos;
    if avail < 8 {
        return false;
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&conn.rbuf[conn.rpos..conn.rpos + 8]);
    let plen = u64::from_le_bytes(len8);
    if plen > ctx.limits.max_frame_bytes as u64 {
        metrics.bump(&metrics.errors);
        queue_reply(
            conn,
            &format!(
                "ERR frame of {plen} bytes exceeds {} bytes",
                ctx.limits.max_frame_bytes
            ),
            None,
        );
        conn.closing = true;
        return false;
    }
    let total = 8 + plen as usize + 8;
    if avail < total {
        return false;
    }
    let frame_bytes = conn.rbuf[conn.rpos..conn.rpos + total].to_vec();
    conn.rpos += total;
    let payload = match frame::decode(&frame_bytes) {
        Ok(p) => p.to_vec(),
        Err(e) => {
            // A checksum failure means corruption in flight — close
            // rather than trust the stream again.
            metrics.bump(&metrics.errors);
            queue_reply(conn, &format!("ERR bad frame: {e}"), None);
            conn.closing = true;
            return false;
        }
    };
    // Frame payload = request line [+ '\n' + raw body].
    let (line_bytes, body) = match payload.iter().position(|&b| b == b'\n') {
        Some(i) => (&payload[..i], Some(payload[i + 1..].to_vec())),
        None => (&payload[..], None),
    };
    let line = String::from_utf8_lossy(line_bytes).into_owned();
    if line.trim().is_empty() {
        return true;
    }
    let req = match parse_request(&line) {
        Ok(req) => req,
        Err(e) => {
            metrics.bump(&metrics.errors);
            queue_reply(conn, &format!("ERR {e}"), None);
            *count += 1;
            return true;
        }
    };
    let matches_announcement = match (req.body_bytes(), &body) {
        (Some(n), Some(b)) => b.len() == n,
        (None, None) => true,
        _ => false,
    };
    if !matches_announcement {
        metrics.bump(&metrics.errors);
        queue_reply(
            conn,
            "ERR frame body does not match the line's bytes=<n> announcement",
            None,
        );
        *count += 1;
        return true;
    }
    dispatch(conn, req, body, ctx, metrics);
    *count += 1;
    true
}

/// Runs one parsed request through the transport-independent
/// dispatcher and queues its reply in the connection's current mode.
fn dispatch(conn: &mut Conn, req: Request, body: Option<Vec<u8>>, ctx: &LoopCtx, metrics: &Metrics) {
    let hello_ok = matches!(&req, Request::Hello { proto } if proto == WIRE_PROTO);
    let reply = respond(
        req,
        body.as_deref(),
        &ctx.registry,
        ctx.cluster.as_deref(),
        &ctx.cancel,
    );
    // The HELLO acknowledgement itself goes out in the connection's
    // *current* mode; everything after it is framed.
    queue_reply(conn, &reply.line, reply.body.as_deref());
    if hello_ok {
        conn.framed = true;
        metrics.bump(&metrics.hellos);
    }
    if reply.shutdown {
        conn.closing = true;
        conn.shutdown_after_flush = true;
    }
}

/// Appends one reply to the write buffer — raw line + body in text
/// mode, one `SKYWIRE01` frame wrapping the identical bytes in framed
/// mode.
fn queue_reply(conn: &mut Conn, line: &str, body: Option<&[u8]>) {
    if conn.framed {
        let mut payload =
            Vec::with_capacity(line.len() + 1 + body.map_or(0, |b| b.len()));
        payload.extend_from_slice(line.as_bytes());
        if let Some(b) = body {
            payload.push(b'\n');
            payload.extend_from_slice(b);
        }
        conn.wbuf.extend_from_slice(&frame::encode(&payload));
    } else {
        conn.wbuf.extend_from_slice(line.as_bytes());
        conn.wbuf.push(b'\n');
        if let Some(b) = body {
            conn.wbuf.extend_from_slice(b);
        }
    }
}

/// Writes queued response bytes until the socket would block or the
/// buffer drains.
fn flush_conn(conn: &mut Conn, metrics: &Metrics) {
    // lint: allow(R2) -- writes until WouldBlock; bounded by wbuf
    loop {
        if conn.wpos >= conn.wbuf.len() {
            break;
        }
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.closing = true;
                conn.wbuf.clear();
                conn.wpos = 0;
                break;
            }
            Ok(n) => {
                conn.wpos += n;
                metrics.add(&metrics.bytes_out, n as u64);
                conn.last_write = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closing = true;
                conn.wbuf.clear();
                conn.wpos = 0;
                break;
            }
        }
    }
    if conn.wpos > 0 && conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
}

/// Keeps the poller registration in sync with whether the connection
/// has unflushed response bytes.
fn update_interest(poller: &mut Poller, conn: &mut Conn, token: u64) {
    let want = conn.wpos < conn.wbuf.len();
    if want != conn.want_write {
        let interest = if want { Interest::BOTH } else { Interest::READ };
        if poller
            .modify(conn.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            conn.want_write = want;
        }
    }
}

/// Deregisters, drops (closes) and — if this connection carried
/// `SHUTDOWN` — flips the server-wide flag and cancels in-flight work.
fn close_conn(
    poller: &mut Poller,
    conns: &mut [Option<Conn>],
    idx: usize,
    shutdown: &AtomicBool,
    cancel: &CancelToken,
) {
    if let Some(slot) = conns.get_mut(idx) {
        if let Some(conn) = slot.take() {
            let _ = poller.deregister(conn.stream.as_raw_fd());
            if conn.shutdown_after_flush {
                shutdown.store(true, Ordering::Release);
                cancel.cancel();
            }
        }
    }
}

/// The per-tick deadline sweep: sheds connections that completed no
/// request within the read deadline (idlers *and* slow-loris
/// dribblers), connections that stopped draining their responses, and
/// expires the `SHUTDOWN` flush grace.
fn sweep_deadlines(
    poller: &mut Poller,
    conns: &mut [Option<Conn>],
    limits: &ConnLimits,
    metrics: &Metrics,
    shutdown: &AtomicBool,
    cancel: &CancelToken,
) {
    let now = Instant::now();
    for idx in 0..conns.len() {
        let mut close = false;
        if let Some(Some(conn)) = conns.get_mut(idx) {
            if conn.shutdown_after_flush {
                // Deliver the SHUTDOWN reply if the client reads it;
                // give up (and shut down anyway) after a short grace.
                if now.duration_since(conn.last_write) > Duration::from_secs(1) {
                    close = true;
                }
            } else if (limits.read_timeout_ms > 0
                && now.duration_since(conn.last_progress)
                    > Duration::from_millis(limits.read_timeout_ms))
                || (limits.write_timeout_ms > 0
                    && conn.wpos < conn.wbuf.len()
                    && now.duration_since(conn.last_write)
                        > Duration::from_millis(limits.write_timeout_ms))
            {
                metrics.bump(&metrics.conns_shed);
                close = true;
            }
        }
        if close {
            close_conn(poller, conns, idx, shutdown, cancel);
        }
    }
}

// ---------------------------------------------------------------------
// Request dispatch (transport-independent)
// ---------------------------------------------------------------------

/// One response: the status line, an optional raw body (announced by a
/// `bytes=<n>` token inside the line's payload), and the shutdown flag.
struct Reply {
    line: String,
    body: Option<Vec<u8>>,
    shutdown: bool,
}

impl Reply {
    /// A body-less response line.
    fn line(line: String) -> Reply {
        Reply {
            line,
            body: None,
            shutdown: false,
        }
    }
}

/// Dispatches one parsed request (body already read off the wire).
fn respond(
    req: Request,
    body: Option<&[u8]>,
    registry: &Registry,
    cluster: Option<&ClusterState>,
    cancel: &CancelToken,
) -> Reply {
    let metrics = Arc::clone(registry.metrics());
    let host = registry.host();
    let err = |e: String| {
        metrics.bump(&metrics.errors);
        Reply::line(format!("ERR {e}"))
    };
    match req {
        Request::Load { name, path } => {
            let result = match cluster {
                Some(cs) => cs.load(registry, &name, &path),
                None => registry
                    .load_path(&name, &path)
                    .map(|(points, dims)| format!("dataset={name} points={points} dims={dims}")),
            };
            match result {
                Ok(payload) => {
                    metrics.bump(&metrics.loads);
                    Reply::line(format!("OK {payload}"))
                }
                Err(e) => err(e),
            }
        }
        Request::Append { name, path } => {
            let result =
                match cluster {
                    Some(cs) => cs.append(registry, &name, &path),
                    None => registry.append_path(&name, &path).map(
                        |(points, dims, shards, appended)| {
                            format!(
                                "dataset={name} points={points} dims={dims} \
                             shards={shards} appended={appended}"
                            )
                        },
                    ),
                };
            match result {
                Ok(payload) => {
                    metrics.bump(&metrics.appends);
                    Reply::line(format!("OK {payload}"))
                }
                Err(e) => err(e),
            }
        }
        Request::Query(q) => {
            let t0 = Instant::now();
            match answer_query(&q, registry, cluster, cancel) {
                Ok(json) => {
                    metrics.bump(&metrics.queries);
                    metrics
                        .latency
                        .record_micros(t0.elapsed().as_micros() as u64);
                    Reply::line(format!("OK {json}"))
                }
                Err(e) => err(e),
            }
        }
        Request::Batch(b) => match answer_batch(&b, registry, cluster, cancel) {
            Ok(json) => {
                metrics.bump(&metrics.batches);
                metrics.add(&metrics.batch_items, b.items.len() as u64);
                Reply::line(format!("OK {json}"))
            }
            Err(e) => err(e),
        },
        Request::Hello { proto } => {
            // The mode flip itself happens in the connection layer
            // (it owns the framing state); this just acknowledges.
            if proto == WIRE_PROTO {
                Reply::line(format!("OK proto={WIRE_PROTO}"))
            } else {
                err(format!("unsupported proto {proto:?} (want {WIRE_PROTO})"))
            }
        }
        Request::Stats => match cluster {
            Some(cs) => Reply::line(format!("OK {}", cs.stats_rollup(registry))),
            None => Reply::line(format!("OK {}", registry.stats_json())),
        },
        Request::Snapshot => match registry.store_snapshot() {
            Ok(persisted) => Reply::line(format!("OK persisted={persisted}")),
            Err(e) => err(e),
        },
        Request::Restore => match registry.store_restore() {
            Ok(r) => Reply::line(format!(
                "OK artifacts={} quarantined={} removed_temps={}",
                r.valid, r.quarantined, r.removed_temps
            )),
            Err(e) => err(e),
        },
        Request::Join { addr } => match cluster {
            Some(cs) => match cs.join(registry, &addr) {
                Ok(payload) => Reply::line(format!("OK {payload}")),
                Err(e) => err(e),
            },
            None => err("not a coordinator (start with --workers)".to_string()),
        },
        Request::Leave { addr } => match cluster {
            Some(cs) => match cs.leave(registry, &addr) {
                Ok(payload) => Reply::line(format!("OK {payload}")),
                Err(e) => err(e),
            },
            None => err("not a coordinator (start with --workers)".to_string()),
        },
        Request::ShardPut {
            name,
            shard,
            base,
            replace,
            ..
        } => match host.shardput(&name, shard, base, replace, body.unwrap_or_default()) {
            Ok(payload) => Reply::line(format!("OK {payload}")),
            Err(e) => err(e),
        },
        Request::Fold {
            dataset,
            hash,
            shard,
            shard_hash,
            prefs,
            t,
            seed,
            max_dominance_tests,
            timeout_ms,
            ..
        } => match host.fold(
            &dataset,
            hash,
            shard,
            shard_hash,
            &prefs,
            t,
            seed,
            max_dominance_tests,
            timeout_ms,
            body.unwrap_or_default(),
            cancel,
        ) {
            Ok((header, frame)) => Reply {
                line: format!("OK {header}"),
                body: Some(frame),
                shutdown: false,
            },
            Err(e) => err(e),
        },
        Request::Fetch {
            name,
            hash,
            shard,
            prefs,
            t,
            seed,
        } => match host.fetch(&name, hash, shard, &prefs, t, seed) {
            Ok((header, frame)) => Reply {
                line: format!("OK {header}"),
                body: frame,
                shutdown: false,
            },
            Err(e) => err(e),
        },
        Request::Replicate {
            name,
            hash,
            shard,
            prefs,
            t,
            seed,
            from,
            timeout_ms,
        } => match host.replicate(&name, hash, shard, &prefs, t, seed, &from, timeout_ms) {
            Ok(payload) => Reply::line(format!("OK {payload}")),
            Err(e) => err(e),
        },
        Request::Shutdown => Reply {
            line: "OK shutting down".to_string(),
            body: None,
            shutdown: true,
        },
    }
}

/// Renders the one-line `QUERY` JSON payload of `answer`. `BATCH`
/// items and selection-memo hits go through the same renderer so a
/// reply is byte-identical, field for field, however it was produced.
#[allow(clippy::too_many_arguments)]
fn render_query_json(
    dataset: &str,
    k: usize,
    method: &Method,
    cached: bool,
    answer: &SelectionMemo,
    fingerprint_ms: f64,
    selection_ms: f64,
    total_ms: f64,
    dominance_tests: u64,
    degradation: &Degradation,
) -> String {
    let selected_json: Vec<String> = answer.selected.iter().map(|i| i.to_string()).collect();
    let gamma_json: Vec<String> = answer.gamma.iter().map(|g| g.to_string()).collect();
    format!(
        concat!(
            "{{\"dataset\":\"{}\",\"k\":{},\"method\":\"{}\",\"cached\":{},",
            "\"skyline\":{},\"selected\":[{}],\"gamma\":[{}],",
            "\"fingerprint_ms\":{:.3},\"selection_ms\":{:.3},\"total_ms\":{:.3},",
            "\"memory_bytes\":{},\"dominance_tests\":{},",
            "\"degraded\":{},\"status\":\"{}\"}}"
        ),
        json_escape(dataset),
        k,
        method.token(),
        cached,
        answer.skyline_len,
        selected_json.join(","),
        gamma_json.join(","),
        fingerprint_ms,
        selection_ms,
        total_ms,
        answer.memory_bytes,
        dominance_tests,
        degradation.is_degraded(),
        json_escape(&degradation.summary()),
    )
}

/// Renders a selection-memo hit: the reply the memoised selection had,
/// with zero phase timings, `total_ms` measured from `t0` and the
/// caller's `cached`/`dominance_tests` flags.
fn render_memo(
    dataset: &str,
    k: usize,
    method: &Method,
    cached: bool,
    m: &SelectionMemo,
    t0: Instant,
    dominance_tests: u64,
) -> String {
    let complete = Degradation {
        interrupt: None,
        events: vec![],
    };
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    render_query_json(dataset, k, method, cached, m, 0.0, 0.0, total_ms, dominance_tests, &complete)
}

/// Selects `(k, method)` from `fp` under `budget` and returns the run
/// with its answer. When `memoise` holds (a budget-free request over a
/// complete fingerprint) an undegraded answer is stored in the
/// dataset's selection memo under `key`.
#[allow(clippy::too_many_arguments)]
fn select_memoised(
    ds: &LoadedDataset,
    key: SelectionKey,
    fp: &Fingerprint,
    k: usize,
    method: Method,
    t: usize,
    seed: u64,
    budget: RunBudget,
    memoise: bool,
) -> Result<(DiverseResult, Arc<SelectionMemo>), String> {
    let mut diver = SkyDiver::new(k)
        .signature_size(t)
        .hash_seed(seed)
        .budget(budget);
    if let Method::Lsh { xi, buckets } = method {
        diver = diver.lsh(xi, buckets);
    }
    let r = diver.select_from(fp).map_err(|e| e.to_string())?;
    let answer = Arc::new(SelectionMemo {
        skyline_len: r.skyline.len(),
        selected: r.selected.clone(),
        gamma: r.selected_positions.iter().map(|&p| r.scores[p]).collect(),
        memory_bytes: r.memory_bytes,
    });
    if memoise && !r.degradation.is_degraded() {
        ds.selection_put(key, Arc::clone(&answer));
    }
    Ok((r, answer))
}

/// Memo key component for a selection method, parameters included —
/// [`Method::token`] alone would conflate distinct LSH configurations.
fn method_key(method: &Method) -> String {
    match method {
        Method::Lsh { xi, buckets } => format!("lsh:{xi}:{buckets}"),
        other => other.token().to_string(),
    }
}

/// Answers a `QUERY`: signature methods go through the fingerprint
/// cache + [`SkyDiver::select_from`]; the exact `greedy` baseline
/// recomputes dominated sets per query (never cached). Budget-free
/// repeats of an identical query are served from the per-dataset
/// selection memo without re-running the selection — the memo only
/// holds undegraded runs over complete fingerprints, so a hit differs
/// from the recompute in timing fields alone. On a coordinator the
/// fingerprint comes from the cluster fan-out — merged to the same
/// bits, so selection (and the response payload) is identical to the
/// single-process answer.
fn answer_query(
    q: &QuerySpec,
    registry: &Registry,
    cluster: Option<&ClusterState>,
    cancel: &CancelToken,
) -> Result<String, String> {
    let t0 = Instant::now();
    let ds = registry
        .dataset(&q.dataset)
        .ok_or_else(|| format!("unknown dataset {:?} (LOAD it first)", q.dataset))?;
    let (prefs, prefs_key) = parse_prefs(q.prefs.as_deref(), ds.data.dims())?;
    let budget = request_budget(cancel, q.timeout_ms, q.max_dominance_tests);
    let metrics = Arc::clone(registry.metrics());

    let (answer, fingerprint_ms, selection_ms, cached, tests, degradation) = match q.method {
        Method::Greedy => {
            let (answer, selection_ms, degradation) = answer_exact(q, &ds.whole(), &prefs, budget)?;
            (Arc::new(answer), 0.0, selection_ms, false, 0, degradation)
        }
        Method::MinHash | Method::Lsh { .. } => {
            let unbudgeted = q.timeout_ms.is_none() && q.max_dominance_tests.is_none();
            let sel_key = (prefs_key.clone(), q.t, q.seed, q.k, method_key(&q.method));
            if let Some(m) = unbudgeted.then(|| ds.selection_get(&sel_key)).flatten() {
                // A memoised selection implies the memoised fingerprint,
                // so this is a cache hit in the warm-query sense too.
                metrics.bump(&metrics.cache_hits);
                metrics.bump(&metrics.selection_hits);
                return Ok(render_memo(&q.dataset, q.k, &q.method, true, &m, t0, 0));
            }
            let (d, b) = (&q.dataset, budget.clone());
            let (fp, cached, dominance_tests) = match cluster {
                Some(cs) => cs.fingerprint(registry, d, &prefs, &prefs_key, q.t, q.seed, b)?,
                None => registry.fingerprint(d, &prefs, &prefs_key, q.t, q.seed, b)?,
            };
            let memoise = unbudgeted && fp.is_complete();
            let (r, answer) = select_memoised(
                &ds, sel_key, &fp, q.k, q.method, q.t, q.seed, budget, memoise,
            )?;
            // A cache hit charges no fingerprinting (and no dominance
            // tests) to this request.
            let fingerprint_ms = if cached { 0.0 } else { r.fingerprint_ms };
            (answer, fingerprint_ms, r.selection_ms, cached, dominance_tests, r.degradation)
        }
    };

    if degradation.is_degraded() {
        metrics.bump(&metrics.degraded);
    }
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(render_query_json(
        &q.dataset,
        q.k,
        &q.method,
        cached,
        &answer,
        fingerprint_ms,
        selection_ms,
        total_ms,
        tests,
        &degradation,
    ))
}

/// Answers a `BATCH`: resolves the shared fingerprint once (cache,
/// cluster fan-out, or cold compute) and runs every `(k, method)`
/// selection against it. Per-item `cached`/`dominance_tests` fields
/// report what the equivalent sequence of stand-alone `QUERY`s would
/// have reported: item 0 carries the resolution's flags; later items
/// are cache hits when the fingerprint is complete (it was memoised),
/// and deterministic recomputes (same flags as item 0) when a budget
/// trip left it partial.
fn answer_batch(
    b: &BatchSpec,
    registry: &Registry,
    cluster: Option<&ClusterState>,
    cancel: &CancelToken,
) -> Result<String, String> {
    if b.items.is_empty() {
        return Err("BATCH requires at least one spec".to_string());
    }
    let ds = registry
        .dataset(&b.dataset)
        .ok_or_else(|| format!("unknown dataset {:?} (LOAD it first)", b.dataset))?;
    let (prefs, prefs_key) = parse_prefs(b.prefs.as_deref(), ds.data.dims())?;
    let budget = request_budget(cancel, b.timeout_ms, b.max_dominance_tests);
    let metrics = Arc::clone(registry.metrics());
    let (d, budgeted) = (&b.dataset, budget.clone());
    let (fp, resolved_cached, resolved_tests) = match cluster {
        Some(cs) => cs.fingerprint(registry, d, &prefs, &prefs_key, b.t, b.seed, budgeted)?,
        None => registry.fingerprint(d, &prefs, &prefs_key, b.t, b.seed, budgeted)?,
    };
    let complete = fp.is_complete();
    let unbudgeted = b.timeout_ms.is_none() && b.max_dominance_tests.is_none();
    let mut results = Vec::with_capacity(b.items.len());
    for (i, &(k, method)) in b.items.iter().enumerate() {
        let it0 = Instant::now();
        let sel_key = (prefs_key.clone(), b.t, b.seed, k, method_key(&method));
        // Budget-free items over a memoised complete fingerprint can be
        // served straight from the selection memo — the flags below
        // already describe a warm recompute, so the reply is identical
        // (timing fields aside). Item 0 of a cold resolution must carry
        // the resolution's charge, so it never takes this path.
        if let Some(m) = (unbudgeted && complete && (resolved_cached || i > 0))
            .then(|| ds.selection_get(&sel_key))
            .flatten()
        {
            metrics.bump(&metrics.selection_hits);
            let cached = if i == 0 { resolved_cached } else { complete };
            let tests = if i == 0 { resolved_tests } else { 0 };
            results.push(render_memo(&b.dataset, k, &method, cached, &m, it0, tests));
            continue;
        }
        // Every selection runs under the shared batch budget.
        let memoise = unbudgeted && complete;
        let (r, answer) = select_memoised(
            &ds,
            sel_key,
            &fp,
            k,
            method,
            b.t,
            b.seed,
            budget.clone(),
            memoise,
        )?;
        let cached = if i == 0 { resolved_cached } else { complete };
        let tests = if i == 0 || !complete { resolved_tests } else { 0 };
        let fingerprint_ms = if cached { 0.0 } else { r.fingerprint_ms };
        if r.degradation.is_degraded() {
            metrics.bump(&metrics.degraded);
        }
        let total_ms = it0.elapsed().as_secs_f64() * 1e3;
        results.push(render_query_json(
            &b.dataset,
            k,
            &method,
            cached,
            &answer,
            fingerprint_ms,
            r.selection_ms,
            total_ms,
            tests,
            &r.degradation,
        ));
    }
    Ok(format!(
        "{{\"dataset\":\"{}\",\"batch\":{},\"results\":[{}]}}",
        json_escape(&b.dataset),
        results.len(),
        results.join(",")
    ))
}

/// The exact greedy baseline: dominated-set Jaccard distances over
/// explicit [`GammaSets`] — no signatures, no cache, per-query cost
/// `O(n · m)` like a cold fingerprint plus an exact selection. Returns
/// the answer (no resident signature bytes), the selection time and
/// the degradation report.
fn answer_exact(
    q: &QuerySpec,
    data: &skydiver_data::Dataset,
    prefs: &[skydiver_data::Preference],
    budget: RunBudget,
) -> Result<(SelectionMemo, f64, Degradation), String> {
    let ctx = ExecContext::new(budget);
    let canon = canonicalise(data, prefs).map_err(|e| e.to_string())?;
    let skyline = sfs(canon.as_ref(), &MinDominance);
    if skyline.is_empty() {
        return Err("empty skyline".to_string());
    }
    let t0 = Instant::now();
    let gamma = GammaSets::build(canon.as_ref(), &MinDominance, &skyline);
    let scores = gamma.scores();
    let mut dist = ExactJaccardDistance::new(&gamma);
    let (positions, interrupt) = select_diverse_budgeted(
        &mut dist,
        &scores,
        q.k,
        SeedRule::MaxDominance,
        TieBreak::MaxDominance,
        &ctx,
    )
    .map_err(|e| e.to_string())?;
    let selection_ms = t0.elapsed().as_secs_f64() * 1e3;
    let answer = SelectionMemo {
        skyline_len: skyline.len(),
        selected: positions.iter().map(|&p| skyline[p]).collect(),
        gamma: positions.iter().map(|&p| scores[p]).collect(),
        memory_bytes: 0,
    };
    let events = match &interrupt {
        Some(_) => vec![skydiver_core::DegradationEvent::SelectionCurtailed {
            selected: positions.len(),
            requested: q.k,
        }],
        None => vec![],
    };
    Ok((answer, selection_ms, Degradation { interrupt, events }))
}
