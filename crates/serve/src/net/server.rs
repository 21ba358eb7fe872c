//! The listener side of the wire front-end: accept loops, and one
//! reader + one responder thread per connection feeding the in-process
//! [`Server`](crate::Server)'s micro-batcher.
//!
//! Socket I/O is batched per connection, so a peer that keeps several
//! requests in flight pays one system call per *burst*, not per frame:
//!
//! - **Reader.** One 4 KiB receive buffer (`RECV_BUF`). One `read` takes
//!   whatever the peer has queued, and every complete frame in the
//!   buffer is decoded from a slice of it before the next `read`. The
//!   buffer grows only to hold a single larger frame — by doubling as
//!   its bytes arrive, never past its declared length — and shrinks
//!   back once that frame is consumed, so receive memory follows the
//!   bytes received, not the lengths claimed.
//! - **Responder.** One 8 KiB reply buffer (`REPLY_BUF`). It blocks on
//!   the oldest reply, then encodes in place every later reply already
//!   answered, and sends them in one `write_all`. Replies leave in
//!   request order: the first one not yet answered is kept and waited
//!   on next; gathering never waits for it.
//! - **Timeouts.** Idle time between frames is unlimited (a draining
//!   server sends its go-away then); with part of a frame buffered, more
//!   than [`NetConfig::read_timeout`] without a new byte is a slow-loris
//!   kill, even when the same `read` delivered complete frames first.
//!   The in-flight window admits each request frame on its own, and
//!   [`NetStats::responses`] counts frames, not writes.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::ops::{ControlFlow, Range};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pulp_hd_core::backend::Verdict;

use crate::{Client, ServeError, Server, ServerStats, Ticket, TrySubmitError};

use super::proto::{self, ErrorCode, FrameHeader, HealthReport, WireError, WireFault};
use super::transport::WireStream;
use super::{NetConfig, NetError};

/// How often blocked accept/read loops wake to re-check the draining
/// flag and the connection-dead flag.
const POLL_TICK: Duration = Duration::from_millis(5);

/// A connection's receive buffer: one `read` takes up to this much of
/// whatever the peer has queued (about 50 five-sample `Classify`
/// frames). It grows past this only to hold one larger frame.
const RECV_BUF: usize = 4 * 1024;

/// A connection's reply buffer: one `write_all` carries up to this much
/// of the replies already answered (six 313-word verdict frames).
const REPLY_BUF: usize = 8 * 1024;

/// An address to serve on.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP listen address, e.g. `"127.0.0.1:0"` (`0` picks a free
    /// port; read it back from [`NetServer::tcp_addr`]).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file at the path (one
    /// left by a dead server) is removed before binding; a regular file
    /// or a socket a live server answers on makes the bind fail with
    /// `AddrInUse`. The socket file is removed again on shutdown.
    Uds(PathBuf),
}

/// An address the server actually bound.
#[derive(Debug, Clone)]
pub enum BoundEndpoint {
    /// Bound TCP address with the OS-assigned port resolved.
    Tcp(SocketAddr),
    /// Bound Unix-domain socket path.
    Uds(PathBuf),
}

/// Wire-side counters (the transport analog of [`ServerStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused (connection cap, or arriving mid-drain).
    pub refused: u64,
    /// Connections currently open.
    pub active: u64,
    /// Request frames fully read.
    pub frames: u64,
    /// Response frames fully written.
    pub responses: u64,
    /// Connections killed for an undecodable frame.
    pub malformed: u64,
    /// Connections killed for stalling mid-frame past
    /// [`NetConfig::read_timeout`] (slow-loris defense).
    pub stalled_kills: u64,
    /// Requests shed with [`ErrorCode::Overloaded`] at the wire layer
    /// (per-connection in-flight window or batcher queue full).
    pub wire_overloaded: u64,
}

/// State shared by the accept loops and every connection.
#[derive(Debug, Default)]
struct NetShared {
    draining: AtomicBool,
    active: AtomicUsize,
    accepted: AtomicU64,
    refused: AtomicU64,
    frames: AtomicU64,
    responses: AtomicU64,
    malformed: AtomicU64,
    stalled: AtomicU64,
    overloaded: AtomicU64,
}

impl NetShared {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            // ORDERING: `active` is the drain handshake's connection
            // count (SeqCst everywhere else: the accept loop's
            // check-then-increment must be totally ordered against
            // shutdown's drain-then-wait). This read used to be Relaxed
            // — a snapshot taken after `shutdown()` returned could then
            // lag the guards' SeqCst decrements and report a phantom
            // active connection; reading SeqCst keeps the snapshot
            // inside the same total order the handshake relies on.
            active: self.active.load(Ordering::SeqCst) as u64,
            frames: self.frames.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            stalled_kills: self.stalled.load(Ordering::Relaxed),
            wire_overloaded: self.overloaded.load(Ordering::Relaxed),
        }
    }
}

/// A running wire front-end around an in-process [`Server`].
///
/// Dropping it performs the same graceful drain as
/// [`shutdown`](Self::shutdown): new connections are refused, every
/// accepted request is answered, connections wind down, then the inner
/// server itself drains.
#[derive(Debug)]
pub struct NetServer {
    server: Option<Arc<Server>>,
    shared: Arc<NetShared>,
    accepts: Vec<JoinHandle<()>>,
    bound: Vec<BoundEndpoint>,
    uds_paths: Vec<PathBuf>,
    final_stats: Option<ServerStats>,
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Box<dyn WireStream>> {
        match self {
            Self::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Box::new(stream))
            }
            Self::Uds(l) => {
                let (stream, _) = l.accept()?;
                Ok(Box::new(stream))
            }
        }
    }
}

impl NetServer {
    /// Puts `server` on the wire at every endpoint in `endpoints`.
    ///
    /// Takes ownership of the in-process server: its lifecycle is now
    /// the net server's ([`shutdown`](Self::shutdown) drains the wire
    /// side first, then the batcher). Telemetry stays reachable through
    /// [`server_stats`](Self::server_stats) and the wire `Stats`
    /// command.
    ///
    /// # Errors
    ///
    /// [`NetError::Config`] for an invalid [`NetConfig`] or empty
    /// `endpoints`, [`NetError::Io`] if an endpoint cannot be bound.
    pub fn spawn(
        server: Server,
        endpoints: &[Endpoint],
        config: NetConfig,
    ) -> Result<Self, NetError> {
        config.validate()?;
        if endpoints.is_empty() {
            return Err(NetError::Config("at least one endpoint required".into()));
        }
        let mut listeners = Vec::with_capacity(endpoints.len());
        let mut bound = Vec::with_capacity(endpoints.len());
        let mut uds_paths = Vec::new();
        for endpoint in endpoints {
            match endpoint {
                Endpoint::Tcp(addr) => {
                    let listener = TcpListener::bind(addr.as_str())?;
                    bound.push(BoundEndpoint::Tcp(listener.local_addr()?));
                    listeners.push(Listener::Tcp(listener));
                }
                Endpoint::Uds(path) => {
                    unlink_stale_uds(path)?;
                    let listener = UnixListener::bind(path)?;
                    bound.push(BoundEndpoint::Uds(path.clone()));
                    uds_paths.push(path.clone());
                    listeners.push(Listener::Uds(listener));
                }
            }
        }
        let server = Arc::new(server);
        let shared = Arc::new(NetShared::default());
        let mut accepts = Vec::with_capacity(listeners.len());
        for listener in listeners {
            let server = Arc::clone(&server);
            let shared = Arc::clone(&shared);
            let config = config.clone();
            accepts.push(
                std::thread::Builder::new()
                    .name("pulp-hd-net-accept".into())
                    .spawn(move || accept_loop(&listener, &server, &shared, &config))
                    .map_err(|e| NetError::Config(format!("cannot spawn accept thread: {e}")))?,
            );
        }
        Ok(Self {
            server: Some(server),
            shared,
            accepts,
            bound,
            uds_paths,
            final_stats: None,
        })
    }

    /// The addresses actually bound, in `endpoints` order.
    #[must_use]
    pub fn bound(&self) -> &[BoundEndpoint] {
        &self.bound
    }

    /// The first bound TCP address, if any (the port is resolved, so
    /// `Tcp("127.0.0.1:0")` spawns report the real port here).
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.bound.iter().find_map(|b| match b {
            BoundEndpoint::Tcp(addr) => Some(*addr),
            BoundEndpoint::Uds(_) => None,
        })
    }

    /// A snapshot of the inner server's telemetry (what the wire
    /// `Stats` command returns).
    #[must_use]
    pub fn server_stats(&self) -> ServerStats {
        self.server.as_ref().map_or_else(
            || self.final_stats.clone().unwrap_or_else(zero_stats),
            |s| s.stats(),
        )
    }

    /// A snapshot of the wire-side counters.
    #[must_use]
    pub fn net_stats(&self) -> NetStats {
        self.shared.snapshot()
    }

    /// Graceful drain: refuse new connections, answer everything
    /// already accepted, wind down every connection, then shut the
    /// inner server down. Returns the final stats of both layers.
    ///
    /// Connections blocked waiting for traffic see a go-away frame
    /// ([`ErrorCode::Closed`], request id 0) and close. A request with
    /// no deadline whose backend never answers would hold the drain
    /// open — deadlines bound the drain the same way they bound
    /// requests.
    #[must_use = "the final stats are the server's life's work; ignore explicitly if unwanted"]
    pub fn shutdown(mut self) -> (ServerStats, NetStats) {
        self.finish();
        (
            self.final_stats.clone().unwrap_or_else(zero_stats),
            self.shared.snapshot(),
        )
    }

    fn finish(&mut self) {
        if self.server.is_none() {
            return;
        }
        // ORDERING: SeqCst store-then-load against the accept loop's
        // load-then-increment (Dekker-style): either the acceptor sees
        // `draining` and refuses, or this drain sees its `active`
        // increment and waits — weaker orders would allow both sides to
        // miss each other and leak a served connection past shutdown.
        self.shared.draining.store(true, Ordering::SeqCst);
        for handle in self.accepts.drain(..) {
            let _ = handle.join();
        }
        while self.shared.active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(arc) = self.server.take() {
            // Every connection (and the accept loops) has exited, so
            // their `Arc` clones are gone or about to be: spin the
            // handful of nanoseconds until ours is the last.
            let mut arc = arc;
            let server = loop {
                match Arc::try_unwrap(arc) {
                    Ok(server) => break server,
                    Err(still_shared) => {
                        arc = still_shared;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            };
            self.final_stats = Some(server.shutdown());
        }
        for path in &self.uds_paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.finish();
    }
}

/// An all-zero stats value for the post-shutdown edge (final stats are
/// always set by then; this is belt-and-braces, not a real path).
fn zero_stats() -> ServerStats {
    crate::stats::Recorder::new().snapshot(Duration::ZERO)
}

/// Unlinks a *stale* socket file — one left behind by a dead server —
/// before a UDS bind. Anything else at the path stays put: a regular
/// file is never deleted (the bind then fails with `AddrInUse`), and a
/// socket a live server still answers on is a typed error rather than
/// a silent theft.
fn unlink_stale_uds(path: &std::path::Path) -> Result<(), NetError> {
    use std::os::unix::fs::FileTypeExt;
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        if meta.file_type().is_socket() {
            if std::os::unix::net::UnixStream::connect(path).is_ok() {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("{} is in use by a live server", path.display()),
                )));
            }
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(())
}

fn accept_loop(
    listener: &Listener,
    server: &Arc<Server>,
    shared: &Arc<NetShared>,
    config: &NetConfig,
) {
    match listener {
        Listener::Tcp(l) => l.set_nonblocking(true).ok(),
        Listener::Uds(l) => l.set_nonblocking(true).ok(),
    };
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                if shared.draining.load(Ordering::SeqCst)
                    || shared.active.load(Ordering::SeqCst) >= config.max_connections
                {
                    // ORDERING: Relaxed telemetry counter; the SeqCst
                    // accesses around it carry the drain handshake.
                    shared.refused.fetch_add(1, Ordering::Relaxed);
                    refuse(&*stream, shared.draining.load(Ordering::SeqCst));
                    continue;
                }
                // Count the connection before its thread exists so the
                // cap can never be raced past, and hand the increment's
                // ownership to the thread (its guard decrements).
                // ORDERING: `active` is SeqCst at every site — the
                // drain handshake in `finish` needs the check-then-
                // increment totally ordered against drain-then-wait.
                // `accepted` is Relaxed telemetry.
                shared.active.fetch_add(1, Ordering::SeqCst);
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let server = Arc::clone(server);
                let shared_conn = Arc::clone(shared);
                let config = config.clone();
                let spawned = std::thread::Builder::new()
                    .name("pulp-hd-net-conn".into())
                    .spawn(move || connection(stream, &server, &shared_conn, &config));
                if spawned.is_err() {
                    // ORDERING: SeqCst, same `active` protocol as above.
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(POLL_TICK);
            }
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Best-effort go-away for a connection that will not be served.
fn refuse(stream: &dyn WireStream, draining: bool) {
    let fault = if draining {
        WireFault::new(ErrorCode::Closed, "server is draining")
    } else {
        WireFault::new(ErrorCode::Overloaded, "connection limit reached")
    };
    let frame = proto::encode_response(0, &proto::Response::Error(fault));
    if let Ok(mut w) = stream.try_clone_stream() {
        let _ = w.write_all(&frame);
        let _ = w.flush();
    }
    stream.shutdown_stream();
}

/// Decrements the active-connection count when the connection thread
/// exits, however it exits.
struct ActiveGuard<'a>(&'a NetShared);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        // ORDERING: SeqCst — the release half of the `active` protocol;
        // shutdown's SeqCst wait loop must observe this decrement after
        // the connection's final writes.
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the reader hands the responder, in request order.
enum Reply {
    /// A pre-encoded frame (stats, health, immediate errors).
    Frame(Vec<u8>),
    /// A submitted classify: resolve the ticket, then encode.
    Wait {
        id: u64,
        ticket: Ticket,
        deadline: Option<Instant>,
    },
    /// A submitted batch: resolve each accepted ticket in order.
    WaitBatch {
        id: u64,
        items: Vec<Result<Ticket, WireFault>>,
        deadline: Option<Instant>,
    },
}

/// A typed fault frame; id 0 is the connection-level go-away.
fn fault_frame(id: u64, code: ErrorCode, detail: impl Into<String>) -> Reply {
    Reply::Frame(proto::encode_response(
        id,
        &proto::Response::Error(WireFault::new(code, detail)),
    ))
}

fn connection(
    stream: Box<dyn WireStream>,
    server: &Arc<Server>,
    shared: &Arc<NetShared>,
    config: &NetConfig,
) {
    let _guard = ActiveGuard(shared);
    let Ok(writer) = stream.try_clone_stream() else {
        stream.shutdown_stream();
        return;
    };
    // A peer that submits requests but never reads its replies fills
    // the kernel send buffer; bounding writes turns that into a dead
    // connection instead of a responder blocked forever (which would
    // wedge the reader on the bounded channel and hold graceful drain
    // open indefinitely).
    if writer
        .set_stream_write_timeout(Some(config.write_timeout))
        .is_err()
    {
        stream.shutdown_stream();
        return;
    }
    // Reads poll in POLL_TICK slices so the reader notices draining and
    // responder-death promptly even while idle.
    if stream.set_stream_read_timeout(Some(POLL_TICK)).is_err() {
        stream.shutdown_stream();
        return;
    }
    // Bounded queue: `Wait` entries are capped by the in-flight window,
    // `Frame` entries by the reader blocking on `send` once the
    // responder falls behind — which stops the reader reading, which
    // backpressures the peer through the socket.
    let (tx, rx) = sync_channel(config.inflight_window + 8);
    let inflight = Arc::new(AtomicUsize::new(0));
    let conn_dead = Arc::new(AtomicBool::new(false));
    let responder = {
        let inflight = Arc::clone(&inflight);
        let conn_dead = Arc::clone(&conn_dead);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("pulp-hd-net-responder".into())
            .spawn(move || responder_loop(writer, &rx, &inflight, &conn_dead, &shared))
    };
    let Ok(responder) = responder else {
        stream.shutdown_stream();
        return;
    };
    let mut stream = stream;
    let admission = Admission {
        server,
        client: server.client(),
        shared,
        config,
        inflight: &inflight,
    };
    reader_loop(stream.as_mut(), &admission, &tx, &conn_dead);
    drop(tx);
    let _ = responder.join();
    stream.shutdown_stream();
}

/// A connection's receive buffer: `buf[start..end]` holds bytes read
/// but not yet consumed as frames.
struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// What the front of a [`RecvBuf`] holds.
enum Buffered {
    /// A complete frame, now consumed: its header and the buffer range
    /// of its payload (valid until the next read).
    Frame(FrameHeader, Range<usize>),
    /// Part of a frame this many bytes long, header included
    /// (`HEADER_LEN` while the header itself is incomplete).
    Partial(usize),
    /// Nothing: the connection is between frames.
    Empty,
}

impl RecvBuf {
    fn new() -> Self {
        Self {
            buf: vec![0; RECV_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Takes the next complete frame off the front, if there is one.
    fn next_frame(&mut self, max_frame: u32) -> Result<Buffered, WireError> {
        let pending = &self.buf[self.start..self.end];
        if pending.is_empty() {
            return Ok(Buffered::Empty);
        }
        if pending.len() < proto::HEADER_LEN {
            return Ok(Buffered::Partial(proto::HEADER_LEN));
        }
        let header = proto::decode_header(pending, max_frame)?;
        let need = proto::HEADER_LEN + header.len as usize;
        if pending.len() < need {
            return Ok(Buffered::Partial(need));
        }
        let payload = self.start + proto::HEADER_LEN..self.start + need;
        self.start += need;
        Ok(Buffered::Frame(header, payload))
    }

    /// The free tail to read into, after making room for the frame
    /// being assembled (`need` bytes in total, 0 between frames). Never
    /// empty, so a `read` into it returning 0 always means end of
    /// stream.
    fn spare(&mut self, need: usize) -> &mut [u8] {
        // A frame larger than `RECV_BUF` was consumed: give its memory
        // back.
        let shrink = self.buf.len() > RECV_BUF && need <= RECV_BUF;
        if self.start > 0
            && (self.start == self.end || shrink || self.start + need > self.buf.len())
        {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if shrink {
            self.buf.truncate(RECV_BUF);
            self.buf.shrink_to_fit();
        } else if self.end == self.buf.len() {
            // Full, and the frame is larger than the buffer: double, as
            // bytes arrive, never past the frame's declared size (which
            // `decode_header` capped at `max_frame`).
            let grown = (2 * self.buf.len()).min(need);
            self.buf.resize(grown, 0);
        }
        &mut self.buf[self.end..]
    }
}

/// The wire deadline for a request: its own header, else the server's
/// default.
fn wire_deadline(deadline_us: u64, config: &NetConfig) -> Option<Duration> {
    if deadline_us == 0 {
        config.default_deadline
    } else {
        Some(Duration::from_micros(deadline_us))
    }
}

/// Reads frames until the peer leaves, stalls, sends garbage, or the
/// server drains. Each `read` takes whatever the peer has queued, and
/// every complete frame in the buffer is answered before the next one.
fn reader_loop(
    stream: &mut dyn WireStream,
    admission: &Admission<'_>,
    tx: &SyncSender<Reply>,
    conn_dead: &AtomicBool,
) {
    let Admission { shared, config, .. } = *admission;
    let mut recv = RecvBuf::new();
    loop {
        let need = loop {
            match recv.next_frame(config.max_frame) {
                Ok(Buffered::Frame(header, payload)) => {
                    if conn_dead.load(Ordering::SeqCst) {
                        return;
                    }
                    // ORDERING: Relaxed telemetry counter.
                    shared.frames.fetch_add(1, Ordering::Relaxed);
                    match admission.admit(&header, &recv.buf[payload]) {
                        ControlFlow::Continue(reply) => {
                            if tx.send(reply).is_err() {
                                // Responder gone (write failure): nothing
                                // to answer to.
                                return;
                            }
                        }
                        ControlFlow::Break(last) => {
                            let _ = tx.send(last);
                            return;
                        }
                    }
                }
                Ok(Buffered::Partial(need)) => break need,
                Ok(Buffered::Empty) => break 0,
                Err(e) => {
                    // Header or length failed to decode: resync is
                    // impossible.
                    // ORDERING: Relaxed telemetry counter.
                    shared.malformed.fetch_add(1, Ordering::Relaxed);
                    let code = if matches!(e, WireError::TooLarge { .. }) {
                        ErrorCode::TooLarge
                    } else {
                        ErrorCode::Malformed
                    };
                    let _ = tx.send(fault_frame(0, code, e.to_string()));
                    return;
                }
            }
        };
        // Wait for more bytes in poll-tick slices. Between frames the
        // wait is unlimited but the draining flag is honored; with part
        // of a frame buffered the stall clock runs: more than
        // `read_timeout` without a byte is a slow-loris kill.
        let waiting_since = Instant::now();
        loop {
            if conn_dead.load(Ordering::SeqCst) {
                return;
            }
            match stream.read(recv.spare(need)) {
                // End of stream, between frames or mid-frame.
                Ok(0) => return,
                Ok(n) => {
                    recv.end += n;
                    break;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if need == 0 {
                        if shared.draining.load(Ordering::SeqCst) {
                            let _ =
                                tx.send(fault_frame(0, ErrorCode::Closed, "server is draining"));
                            return;
                        }
                    } else if waiting_since.elapsed() > config.read_timeout {
                        // ORDERING: Relaxed telemetry counter.
                        shared.stalled.fetch_add(1, Ordering::Relaxed);
                        let _ = tx.send(fault_frame(
                            0,
                            ErrorCode::Stalled,
                            "stalled mid-frame past the read timeout",
                        ));
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// What a connection's reader needs to turn request frames into
/// replies.
struct Admission<'a> {
    server: &'a Server,
    client: Client,
    shared: &'a NetShared,
    config: &'a NetConfig,
    inflight: &'a AtomicUsize,
}

impl Admission<'_> {
    fn overload(&self, id: u64, detail: &str) -> Reply {
        // ORDERING: Relaxed telemetry counter (see NetShared).
        self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
        fault_frame(id, ErrorCode::Overloaded, detail)
    }

    /// Decodes one request and submits it: the reply to queue, or the
    /// last one before the connection closes.
    fn admit(&self, header: &FrameHeader, payload: &[u8]) -> ControlFlow<Reply, Reply> {
        let Self {
            server,
            client,
            shared,
            config,
            inflight,
        } = self;
        let request = match proto::decode_request(header, payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame boundary was intact, but the payload is
                // garbage: answer with the request's own id, then kill
                // the connection (a peer that encodes garbage cannot be
                // trusted to stay in sync).
                // ORDERING: Relaxed telemetry counter.
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                return ControlFlow::Break(fault_frame(
                    header.id,
                    ErrorCode::Malformed,
                    e.to_string(),
                ));
            }
        };
        ControlFlow::Continue(match request {
            proto::Request::Classify {
                deadline_us,
                window,
            } => {
                if inflight.load(Ordering::SeqCst) >= config.inflight_window {
                    return ControlFlow::Continue(
                        self.overload(header.id, "connection in-flight window full"),
                    );
                }
                let deadline = wire_deadline(deadline_us, config);
                match client.try_submit_with_deadline(window, deadline) {
                    Ok(ticket) => {
                        // ORDERING: SeqCst — `inflight` is a reader-side
                        // admission bound decremented on the responder
                        // thread; the check-then-add here must stay
                        // ordered against those subs so the window
                        // cannot be overshot.
                        inflight.fetch_add(1, Ordering::SeqCst);
                        Reply::Wait {
                            id: header.id,
                            ticket,
                            deadline: deadline.map(|d| Instant::now() + d),
                        }
                    }
                    Err(TrySubmitError::Overloaded) => {
                        self.overload(header.id, "server queue full")
                    }
                    Err(TrySubmitError::Closed) => {
                        return ControlFlow::Break(fault_frame(
                            header.id,
                            ErrorCode::Closed,
                            "server is shut down",
                        ));
                    }
                }
            }
            proto::Request::ClassifyBatch {
                deadline_us,
                windows,
            } => {
                let deadline = wire_deadline(deadline_us, config);
                let room = config
                    .inflight_window
                    .saturating_sub(inflight.load(Ordering::SeqCst));
                if windows.len() > room {
                    return ControlFlow::Continue(
                        self.overload(header.id, "batch exceeds connection in-flight window"),
                    );
                }
                let mut items = Vec::with_capacity(windows.len());
                let mut accepted = 0usize;
                for window in windows {
                    match client.try_submit_with_deadline(window, deadline) {
                        Ok(ticket) => {
                            accepted += 1;
                            items.push(Ok(ticket));
                        }
                        Err(TrySubmitError::Overloaded) => {
                            // ORDERING: Relaxed telemetry counter.
                            shared.overloaded.fetch_add(1, Ordering::Relaxed);
                            items.push(Err(WireFault::new(
                                ErrorCode::Overloaded,
                                "server queue full",
                            )));
                        }
                        Err(TrySubmitError::Closed) => {
                            items.push(Err(WireFault::new(
                                ErrorCode::Closed,
                                "server is shut down",
                            )));
                        }
                    }
                }
                // ORDERING: SeqCst `inflight` protocol, as in the
                // single-window path above.
                inflight.fetch_add(accepted, Ordering::SeqCst);
                Reply::WaitBatch {
                    id: header.id,
                    items,
                    deadline: deadline.map(|d| Instant::now() + d),
                }
            }
            proto::Request::Stats => Reply::Frame(proto::encode_response(
                header.id,
                &proto::Response::Stats(server.stats()),
            )),
            proto::Request::Health => {
                let report = HealthReport {
                    serving: !shared.draining.load(Ordering::SeqCst),
                };
                Reply::Frame(proto::encode_response(
                    header.id,
                    &proto::Response::Health(report),
                ))
            }
        })
    }
}

/// Resolves one accepted ticket against its (absolute) deadline. The
/// wire layer enforces the deadline on the reply path too — the
/// batcher's triage cannot run while the backend itself hangs, so this
/// `wait_timeout` is what keeps "every fault surfaces before its
/// deadline" true even then.
fn wait_result(ticket: Ticket, deadline: Option<Instant>) -> Result<Verdict, WireFault> {
    let outcome = match deadline {
        Some(at) => match ticket.wait_timeout(at.saturating_duration_since(Instant::now())) {
            Ok(Some(verdict)) => Ok(verdict),
            Ok(None) => Err(ServeError::DeadlineExceeded),
            Err(e) => Err(e),
        },
        None => ticket.wait(),
    };
    outcome.map_err(|e| fault_of(&e))
}

/// Maps a serve-layer error to its wire fault.
fn fault_of(e: &ServeError) -> WireFault {
    match e {
        ServeError::Backend(inner) => {
            if matches!(
                inner,
                pulp_hd_core::backend::BackendError::WorkerLost { .. }
            ) {
                WireFault::new(ErrorCode::WorkerLost, inner.to_string())
            } else {
                WireFault::new(ErrorCode::Backend, inner.to_string())
            }
        }
        ServeError::Config(what) => WireFault::new(ErrorCode::Backend, what.clone()),
        ServeError::Closed => WireFault::new(ErrorCode::Closed, "server is shut down"),
        ServeError::ServerDied => {
            WireFault::new(ErrorCode::ServerDied, "server batcher thread died")
        }
        ServeError::DeadlineExceeded => WireFault::new(
            ErrorCode::DeadlineExceeded,
            "deadline exceeded before service",
        ),
    }
}

/// A reply ready to go on the wire.
enum Answer {
    Frame(Vec<u8>),
    Response(u64, proto::Response),
}

fn verdict_answer(id: u64, result: Result<Verdict, WireFault>) -> Answer {
    Answer::Response(
        id,
        match result {
            Ok(verdict) => proto::Response::Verdict(verdict),
            Err(fault) => proto::Response::Error(fault),
        },
    )
}

/// Blocks until `reply` is answered.
fn resolve(reply: Reply, inflight: &AtomicUsize) -> Answer {
    match reply {
        Reply::Frame(frame) => Answer::Frame(frame),
        Reply::Wait {
            id,
            ticket,
            deadline,
        } => {
            let result = wait_result(ticket, deadline);
            // ORDERING: SeqCst — the release half of the `inflight`
            // admission protocol (reader adds, responder subs).
            inflight.fetch_sub(1, Ordering::SeqCst);
            verdict_answer(id, result)
        }
        Reply::WaitBatch {
            id,
            items,
            deadline,
        } => {
            let results = items
                .into_iter()
                .map(|item| match item {
                    Ok(ticket) => {
                        let result = wait_result(ticket, deadline);
                        // ORDERING: SeqCst `inflight` protocol.
                        inflight.fetch_sub(1, Ordering::SeqCst);
                        result
                    }
                    Err(fault) => Err(fault),
                })
                .collect();
            Answer::Response(id, proto::Response::VerdictBatch(results))
        }
    }
}

/// `reply`'s answer if it is already known, without blocking; the
/// reply back otherwise. A batch is never peeked: it waits its turn as
/// the oldest reply of a later write.
fn try_resolve(reply: Reply, inflight: &AtomicUsize) -> Result<Answer, Reply> {
    match reply {
        Reply::Frame(frame) => Ok(Answer::Frame(frame)),
        Reply::Wait {
            id,
            ticket,
            deadline,
        } => match ticket.try_wait() {
            Ok(result) => {
                // ORDERING: SeqCst `inflight` protocol.
                inflight.fetch_sub(1, Ordering::SeqCst);
                Ok(verdict_answer(id, result.map_err(|e| fault_of(&e))))
            }
            Err(ticket) => Err(Reply::Wait {
                id,
                ticket,
                deadline,
            }),
        },
        batch @ Reply::WaitBatch { .. } => Err(batch),
    }
}

/// The responder's side of a connection: answered replies are encoded
/// in place into one buffer and leave in one `write_all`.
struct ReplyWriter<'a> {
    writer: Box<dyn WireStream>,
    buf: Vec<u8>,
    /// Frames in `buf`.
    frames: u64,
    /// Cleared by the first write failure; later answers are dropped.
    ok: bool,
    conn_dead: &'a AtomicBool,
    shared: &'a NetShared,
}

impl ReplyWriter<'_> {
    /// Appends `answer`, sending what is buffered first if it would
    /// not fit. A single frame larger than `REPLY_BUF` goes out alone.
    fn push(&mut self, answer: Answer) {
        let len = match &answer {
            Answer::Frame(frame) => frame.len(),
            Answer::Response(_, response) => proto::response_len(response),
        };
        if self.buf.len() + len > REPLY_BUF {
            self.send();
        }
        if !self.ok {
            return;
        }
        match answer {
            Answer::Frame(frame) => self.buf.extend_from_slice(&frame),
            Answer::Response(id, response) => {
                proto::encode_response_into(&mut self.buf, id, &response);
            }
        }
        self.frames += 1;
    }

    fn send(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.ok {
            self.ok = self
                .writer
                .write_all(&self.buf)
                .and_then(|()| self.writer.flush())
                .is_ok();
            if self.ok {
                // ORDERING: Relaxed telemetry counter (frames, not
                // writes).
                self.shared
                    .responses
                    .fetch_add(self.frames, Ordering::Relaxed);
            } else {
                // Wake the reader (it is blocked in poll-tick reads) so
                // the connection winds down instead of reading requests
                // nobody can answer.
                // ORDERING: SeqCst kill flag — must become visible to
                // the reader's SeqCst poll before it commits to another
                // blocking read tick.
                self.conn_dead.store(true, Ordering::SeqCst);
            }
        }
        self.buf.clear();
        self.buf.shrink_to(REPLY_BUF);
        self.frames = 0;
    }
}

fn responder_loop(
    writer: Box<dyn WireStream>,
    rx: &Receiver<Reply>,
    inflight: &AtomicUsize,
    conn_dead: &AtomicBool,
    shared: &NetShared,
) {
    // After a write failure the responder keeps draining (and resolving
    // tickets, keeping `inflight` accurate) but stops writing.
    let mut out = ReplyWriter {
        writer,
        buf: Vec::with_capacity(REPLY_BUF),
        frames: 0,
        ok: true,
        conn_dead,
        shared,
    };
    let mut unanswered = None;
    while let Some(oldest) = unanswered.take().or_else(|| rx.recv().ok()) {
        // Block on the oldest reply, then gather every later reply that
        // is already answered, stopping at the first that is not (it is
        // the next write's oldest).
        out.push(resolve(oldest, inflight));
        while let Ok(reply) = rx.try_recv() {
            match try_resolve(reply, inflight) {
                Ok(answer) => out.push(answer),
                Err(reply) => {
                    unanswered = Some(reply);
                    break;
                }
            }
        }
        out.send();
    }
    out.writer.shutdown_stream();
}
