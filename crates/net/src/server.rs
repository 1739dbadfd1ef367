//! `ProxyServer`: the organization's proxy on a real TCP socket.
//!
//! The server wraps the existing `dvm_proxy::Proxy` — its filter
//! pipeline, rewrite cache, and signer all run unchanged behind the
//! socket — and speaks the protocol through one of two engines sharing
//! the logic in [`crate::protocol`]:
//!
//! - **reactor** (default, `ServerConfig::reactor`): the `dvm-reactor`
//!   epoll event loop — one loop thread owns every connection and a
//!   bounded worker pool executes requests (`crate::reactor_server`).
//! - **blocking**: the original thread-per-connection engine, bounded
//!   by a connection-limit [`Semaphore`]; kept as a fallback and as a
//!   baseline for the C10K benchmark.
//!
//! `AUDIT_EVENT` frames from clients are ingested straight into the
//! shared `AdminConsole`, so the paper's remote administration console
//! keeps working when the trust boundary becomes a network hop.
//! [`ProxyServer::shutdown`] joins every thread before returning — no
//! leaked connections, whichever engine serves.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dvm_monitor::AdminConsole;
use dvm_proxy::Proxy;
use dvm_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::assembler::FrameAssembler;
use crate::frame::{ErrorCode, Frame, FrameError};
use crate::protocol::{execute_plan, handle_frame, ConnProto, Flow};
use crate::sema::Semaphore;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections. Connections beyond the
    /// limit are *rejected* with a typed `Overloaded` error frame rather
    /// than queued indefinitely — clients back off and retry, and a
    /// cluster client fails over to another shard immediately.
    pub max_connections: usize,
    /// Idle-poll granularity for connection threads (bounds shutdown
    /// latency; not a client-visible deadline). Blocking engine only.
    pub poll_interval: Duration,
    /// Serve through the epoll reactor (`dvm-reactor`): one loop thread
    /// owns every connection and only request *execution* uses worker
    /// threads. Off, the original thread-per-connection engine serves —
    /// same protocol, same stats, same telemetry names.
    pub reactor: bool,
    /// Close connections with no read/write progress for this long
    /// (slowloris defense). `None` keeps the pre-deadline behavior:
    /// idle connections stay up indefinitely.
    pub idle_deadline: Option<Duration>,
    /// Reactor worker threads for request execution; `0` picks
    /// `max(2, available_parallelism)`. Reactor engine only.
    pub workers: usize,
    /// Reactor per-connection read-buffer bound while a request is in
    /// flight (see `dvm_reactor::ReactorConfig::read_buf_limit`).
    pub read_buf_limit: usize,
    /// Reactor per-connection output backlog beyond which the
    /// connection is backpressured (reads pause until the peer drains).
    pub write_buf_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            poll_interval: Duration::from_millis(50),
            reactor: true,
            idle_deadline: None,
            workers: 0,
            read_buf_limit: 64 << 10,
            write_buf_limit: 256 << 10,
        }
    }
}

/// Most entries a single `MIGRATE_BEGIN` answer will stream before
/// closing the batch with `complete: false`. Bounds both the memory a
/// source shard pins per transfer and the work lost to a cut stream —
/// the target resumes from the last key it ingested.
pub const MIGRATE_BATCH: usize = 64;

/// The server's read-only view of cluster membership, installed by the
/// membership plane after bind. `RING_UPDATE` requests are answered
/// from here: askers at an older epoch get the published snapshot
/// bytes, up-to-date askers get just the epoch. Publishing is
/// epoch-monotonic; stale publishes are ignored.
#[derive(Debug, Default)]
pub struct MembershipView {
    epoch: AtomicU64,
    snapshot: Mutex<Arc<Vec<u8>>>,
}

impl MembershipView {
    pub fn new() -> MembershipView {
        MembershipView::default()
    }

    /// Installs the encoded ring for `epoch`. Ignored unless `epoch`
    /// advances the view (publishes may race during rapid transitions).
    pub fn publish(&self, epoch: u64, encoded: Vec<u8>) {
        let mut snap = self.snapshot.lock();
        if epoch >= self.epoch.load(Ordering::SeqCst) {
            *snap = Arc::new(encoded);
            self.epoch.store(epoch, Ordering::SeqCst);
        }
    }

    /// The most recently published epoch (0 before any publish).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The published snapshot bytes (empty before any publish).
    pub fn snapshot(&self) -> Arc<Vec<u8>> {
        self.snapshot.lock().clone()
    }
}

/// One batch of a migration stream, as produced by a
/// [`MigrateExporter`].
#[derive(Debug, Clone, Default)]
pub struct MigrateBatch {
    /// `(url, signed bytes)` pairs in ascending url order.
    pub entries: Vec<(String, Vec<u8>)>,
    /// False when the exporter truncated the batch (more keys remain
    /// after the last entry).
    pub complete: bool,
}

/// Source side of live cache migration: enumerates the cached entries a
/// given shard owns, in key order, resumable from any key. Installed on
/// the server by the membership plane; the frame layer stays ignorant
/// of rings and stores.
pub trait MigrateExporter: Send + Sync {
    /// Up to `max` owned entries strictly after `after` (empty = from
    /// the start) for `shard`, under the exporter's ring at `epoch`.
    /// `Err` is a typed refusal (e.g. the source has not reached
    /// `epoch`), relayed to the asker as an `ERROR` frame.
    fn export(
        &self,
        shard: u32,
        epoch: u64,
        after: &str,
        max: usize,
    ) -> Result<MigrateBatch, String>;
}

/// Renders the Prometheus-text metrics exposition for this node,
/// answered over `METRICS_SCRAPE`. Installed by the serving layer
/// (`dvm-watch` provides the implementation); the frame layer stays
/// ignorant of the text format, same as it is of rings and stores.
pub trait MetricsSource: Send + Sync {
    /// The current exposition text.
    fn render_metrics(&self) -> String;
}

/// Aggregate server statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Code requests received.
    pub requests: u64,
    /// Successful code responses sent.
    pub responses: u64,
    /// Typed error frames sent.
    pub errors: u64,
    /// Audit events ingested into the console.
    pub audit_events: u64,
    /// Malformed or unparseable frames received.
    pub malformed: u64,
    /// Connections rejected with `Overloaded` at the admission gate.
    pub overload_rejects: u64,
    /// `PEER_GET` probes received from peer shards.
    pub peer_gets: u64,
    /// `PEER_GET` probes answered from the local cache.
    pub peer_hits: u64,
    /// `PEER_PUT` offers ingested into the local cache.
    pub peer_puts: u64,
    /// `RING_UPDATE` requests answered.
    pub ring_updates: u64,
    /// `MIGRATE_BEGIN` streams served (including resumed ones).
    pub migrate_streams: u64,
    /// `MIGRATE_CHUNK` frames sent to joining shards.
    pub migrate_chunks_out: u64,
    /// `MIGRATE_BEGIN` requests refused by the exporter (epoch mismatch
    /// or no exporter installed).
    pub migrate_rejects: u64,
    /// Connections closed for exceeding the idle deadline (slowloris
    /// reaping).
    pub idle_reaped: u64,
    /// Times a connection crossed its write-buffer limit and had its
    /// reads paused until the peer drained (reactor engine only).
    pub backpressure_stalls: u64,
}

/// Pre-registered wire-layer telemetry handles (the proxy's plane is
/// shared: server and proxy report as one node).
pub(crate) struct ServerMetrics {
    pub(crate) frames_in: Arc<Counter>,
    pub(crate) frames_out: Arc<Counter>,
    pub(crate) bytes_in: Arc<Counter>,
    pub(crate) bytes_out: Arc<Counter>,
    pub(crate) live_connections: Arc<Gauge>,
    pub(crate) overload_rejects: Arc<Counter>,
    pub(crate) malformed: Arc<Counter>,
    pub(crate) audit_events: Arc<Counter>,
    pub(crate) stats_requests: Arc<Counter>,
    pub(crate) scrape_requests: Arc<Counter>,
    pub(crate) events_requests: Arc<Counter>,
    pub(crate) serve_ns: Arc<Histogram>,
    pub(crate) ring_updates: Arc<Counter>,
    pub(crate) migrate_chunks_out: Arc<Counter>,
    pub(crate) idle_reaped: Arc<Counter>,
}

impl ServerMetrics {
    fn register(telemetry: &Telemetry) -> ServerMetrics {
        let r = telemetry.registry();
        ServerMetrics {
            frames_in: r.counter("net.server.frames_in"),
            frames_out: r.counter("net.server.frames_out"),
            bytes_in: r.counter("net.server.bytes_in"),
            bytes_out: r.counter("net.server.bytes_out"),
            live_connections: r.gauge("net.server.live_connections"),
            overload_rejects: r.counter("net.server.overload_rejects"),
            malformed: r.counter("net.server.malformed"),
            audit_events: r.counter("net.server.audit_events"),
            stats_requests: r.counter("net.server.stats_requests"),
            scrape_requests: r.counter("net.server.scrape_requests"),
            events_requests: r.counter("net.server.events_requests"),
            serve_ns: r.histogram("net.server.serve_ns"),
            ring_updates: r.counter("net.server.ring_updates"),
            migrate_chunks_out: r.counter("net.server.migrate_chunks_out"),
            idle_reaped: r.counter("net.server.idle_reaped"),
        }
    }
}

/// Engine-shared server state: the protocol layer (`crate::protocol`)
/// and both engines (blocking threads here, the reactor in
/// `crate::reactor_server`) all work against this.
pub(crate) struct Inner {
    pub(crate) proxy: Arc<Proxy>,
    pub(crate) console: Option<Arc<Mutex<AdminConsole>>>,
    pub(crate) config: ServerConfig,
    pub(crate) running: AtomicBool,
    pub(crate) sema: Arc<Semaphore>,
    pub(crate) stats: Mutex<ServerStats>,
    pub(crate) anon_sessions: AtomicU64,
    pub(crate) live: AtomicUsize,
    pub(crate) conns: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) membership: Mutex<Option<Arc<MembershipView>>>,
    pub(crate) exporter: Mutex<Option<Arc<dyn MigrateExporter>>>,
    pub(crate) scrape: Mutex<Option<Arc<dyn MetricsSource>>>,
}

impl Inner {
    /// Encodes `frame` for the wire, counting it and its bytes on the
    /// out-metrics (the single choke point both engines send through).
    pub(crate) fn encode_counted(&self, frame: &Frame) -> Vec<u8> {
        let encoded = frame.encode();
        self.metrics.frames_out.inc();
        self.metrics.bytes_out.add(encoded.len() as u64);
        encoded
    }

    /// Writes `frame`, counting it and its bytes on the wire.
    fn send(&self, writer: &mut TcpStream, frame: &Frame) -> bool {
        let encoded = self.encode_counted(frame);
        writer.write_all(&encoded).is_ok()
    }
}

/// The DVM proxy behind a live TCP socket.
pub struct ProxyServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// Accept thread (blocking engine only).
    accept: Option<JoinHandle<()>>,
    /// The event loop (reactor engine only).
    reactor: Option<dvm_reactor::Reactor>,
}

impl std::fmt::Debug for ProxyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyServer")
            .field("addr", &self.addr)
            .field("live", &self.inner.live.load(Ordering::Relaxed))
            .finish()
    }
}

impl ProxyServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    ///
    /// When a console is supplied, client handshakes and `AUDIT_EVENT`
    /// frames flow into it; without one, sessions are numbered locally.
    pub fn bind(
        addr: impl ToSocketAddrs,
        proxy: Arc<Proxy>,
        console: Option<Arc<Mutex<AdminConsole>>>,
        config: ServerConfig,
    ) -> std::io::Result<ProxyServer> {
        let listener = TcpListener::bind(addr)?;
        // Deepen the accept queue past std's 128 on both engines: a
        // connect burst deeper than the queue costs each overflowing
        // peer a SYN retransmit (seconds of kernel backoff).
        {
            use std::os::unix::io::AsRawFd;
            let _ = dvm_reactor::sys::deepen_backlog(
                listener.as_raw_fd(),
                config.max_connections.clamp(128, 65_535) as i32,
            );
        }
        let addr = listener.local_addr()?;
        let telemetry = proxy.telemetry();
        let metrics = ServerMetrics::register(&telemetry);
        let max_connections = config.max_connections.max(1);
        let inner = Arc::new(Inner {
            proxy,
            console,
            config,
            running: AtomicBool::new(true),
            sema: Arc::new(Semaphore::new(max_connections)),
            stats: Mutex::new(ServerStats::default()),
            anon_sessions: AtomicU64::new(1),
            live: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            telemetry,
            metrics,
            membership: Mutex::new(None),
            exporter: Mutex::new(None),
            scrape: Mutex::new(None),
        });
        let (accept, reactor) = if inner.config.reactor {
            let handler = Arc::new(crate::reactor_server::NetHandler {
                inner: inner.clone(),
            });
            let observer = Arc::new(crate::reactor_server::ReactorTelemetry::register(
                &inner.telemetry,
                inner.clone(),
            ));
            let rconfig = dvm_reactor::ReactorConfig {
                max_connections,
                workers: inner.config.workers,
                read_buf_limit: inner.config.read_buf_limit,
                write_buf_limit: inner.config.write_buf_limit,
                idle_deadline: inner.config.idle_deadline,
            };
            let reactor = dvm_reactor::Reactor::start(listener, handler, rconfig, observer)?;
            (None, Some(reactor))
        } else {
            let accept_inner = inner.clone();
            let accept = std::thread::Builder::new()
                .name("dvm-net-accept".into())
                .spawn(move || accept_loop(listener, accept_inner))?;
            (Some(accept), None)
        };
        Ok(ProxyServer {
            inner,
            addr,
            accept,
            reactor,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> ServerStats {
        *self.inner.stats.lock()
    }

    /// The telemetry plane this server reports into (shared with its
    /// proxy, so proxy and wire metrics land in one `StatsReport`).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.inner.telemetry.clone()
    }

    /// Connections currently being served.
    pub fn live_connections(&self) -> usize {
        self.inner.live.load(Ordering::SeqCst)
    }

    /// Installs the membership view answering `RING_UPDATE` requests.
    /// Called by the membership plane after bind; before this, askers
    /// are told epoch 0 with no snapshot.
    pub fn set_membership_view(&self, view: Arc<MembershipView>) {
        *self.inner.membership.lock() = Some(view);
    }

    /// Installs the cache exporter answering `MIGRATE_BEGIN` streams.
    /// Without one, migration requests get a typed `Internal` error.
    pub fn set_migrate_exporter(&self, exporter: Arc<dyn MigrateExporter>) {
        *self.inner.exporter.lock() = Some(exporter);
    }

    /// Installs the exposition renderer answering `METRICS_SCRAPE`
    /// requests. Without one, scrapers get a typed `Internal` error
    /// (`EVENTS_REQUEST` works regardless — the journal lives on the
    /// telemetry plane itself).
    pub fn set_metrics_source(&self, source: Arc<dyn MetricsSource>) {
        *self.inner.scrape.lock() = Some(source);
    }

    /// Stops accepting, waits for every connection thread to exit, and
    /// returns the final statistics. Idempotent via [`Drop`].
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        if !self.inner.running.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(r) = self.reactor.take() {
            // The loop closes every connection and joins its workers.
            r.shutdown();
            debug_assert_eq!(self.inner.live.load(Ordering::SeqCst), 0);
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads observe `running == false` within one poll
        // interval; join them all.
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.inner.conns.lock());
        for h in handles {
            let _ = h.join();
        }
        debug_assert_eq!(self.inner.live.load(Ordering::SeqCst), 0);
    }
}

impl Drop for ProxyServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if !inner.running.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if !inner.running.load(Ordering::SeqCst) {
            break;
        }
        // Bounded concurrency with admission control: at capacity, the
        // connection is told so with a typed `Overloaded` frame instead
        // of queueing indefinitely (clients back off; cluster clients
        // fail over to another shard).
        let Some(permit) = inner.sema.try_acquire_owned() else {
            inner.stats.lock().overload_rejects += 1;
            inner.metrics.overload_rejects.inc();
            // A short-lived detached thread drains the handshake and
            // delivers the rejection so the accept loop never stalls on
            // a slow peer.
            let _ = std::thread::Builder::new()
                .name("dvm-net-reject".into())
                .spawn(move || reject_overloaded(stream));
            continue;
        };
        if !inner.running.load(Ordering::SeqCst) {
            break;
        }
        inner.stats.lock().connections += 1;
        inner.live.fetch_add(1, Ordering::SeqCst);
        inner.metrics.live_connections.add(1);
        let conn_inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name("dvm-net-conn".into())
            .spawn(move || {
                serve_connection(stream, &conn_inner);
                conn_inner.live.fetch_sub(1, Ordering::SeqCst);
                conn_inner.metrics.live_connections.add(-1);
                drop(permit);
            });
        match handle {
            Ok(h) => {
                let mut conns = inner.conns.lock();
                // Reap finished threads occasionally so the handle list
                // doesn't grow without bound on long-lived servers.
                if conns.len() >= 2 * inner.config.max_connections {
                    let (done, pending): (Vec<_>, Vec<_>) =
                        conns.drain(..).partition(|h| h.is_finished());
                    for d in done {
                        let _ = d.join();
                    }
                    *conns = pending;
                }
                conns.push(h);
            }
            Err(_) => {
                inner.live.fetch_sub(1, Ordering::SeqCst);
                inner.metrics.live_connections.add(-1);
            }
        }
    }
}

/// Tells a connection the server is at capacity: read its opening frame
/// (so the error is not lost to a reset racing the client's write), send
/// the typed rejection, close.
fn reject_overloaded(stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut reader = FrameReader {
        stream: match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
        asm: FrameAssembler::new(),
        bytes_in: None,
    };
    let _ = reader.poll_frame();
    let _ = Frame::Error {
        request_id: 0,
        code: ErrorCode::Overloaded,
        message: "server at connection capacity".into(),
    }
    .write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Accumulates stream bytes through a [`FrameAssembler`] and yields
/// whole frames, tolerating idle timeouts between frames without losing
/// partial reads.
struct FrameReader {
    stream: TcpStream,
    asm: FrameAssembler,
    /// When set, every byte read off the socket is counted here.
    bytes_in: Option<Arc<Counter>>,
}

impl FrameReader {
    fn poll_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        loop {
            if let Some(frame) = self.asm.next_frame()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(FrameError::Io(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed".into(),
                    ))
                }
                Ok(n) => {
                    if let Some(c) = &self.bytes_in {
                        c.add(n as u64);
                    }
                    self.asm.push(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

fn serve_connection(stream: TcpStream, inner: &Inner) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.config.poll_interval));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = FrameReader {
        stream,
        asm: FrameAssembler::new(),
        bytes_in: Some(inner.metrics.bytes_in.clone()),
    };
    let mut proto = ConnProto::default();
    let mut last_activity = Instant::now();

    while inner.running.load(Ordering::SeqCst) {
        let frame = match reader.poll_frame() {
            Ok(Some(frame)) => {
                last_activity = Instant::now();
                frame
            }
            Ok(None) => {
                // Idle poll tick: reap the connection if it has made no
                // progress within the deadline (slowloris defense — a
                // stalled peer must not hold this thread forever).
                if let Some(deadline) = inner.config.idle_deadline {
                    if last_activity.elapsed() >= deadline {
                        inner.stats.lock().idle_reaped += 1;
                        inner.metrics.idle_reaped.inc();
                        break;
                    }
                }
                continue;
            }
            // Transport-class failures (including a client that died
            // mid-frame) have no one left to answer.
            Err(e) if e.is_transport() => break,
            Err(e) => {
                inner.stats.lock().malformed += 1;
                inner.metrics.malformed.inc();
                let _ = inner.send(
                    &mut writer,
                    &Frame::Error {
                        request_id: 0,
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    },
                );
                break;
            }
        };
        let mut replies = Vec::new();
        let flow = handle_frame(inner, &mut proto, frame, &mut replies);
        let mut write_ok = true;
        for f in &replies {
            if !inner.send(&mut writer, f) {
                write_ok = false;
                break;
            }
        }
        if !write_ok {
            break;
        }
        match flow {
            Flow::Continue => {}
            Flow::Close => break,
            Flow::Execute(plan) => {
                // The blocking engine runs request execution inline on
                // this connection thread (bytes are pre-counted by
                // `execute_plan`).
                if writer.write_all(&execute_plan(inner, plan)).is_err() {
                    break;
                }
            }
        }
    }
    let _ = reader.stream.shutdown(Shutdown::Both);
}
