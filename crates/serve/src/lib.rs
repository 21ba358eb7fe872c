//! # `pulp-hd-serve` — the concurrent serving front-end
//!
//! PR 1–4 built an engine that classifies hundreds of thousands of
//! windows per second through
//! [`BackendSession::classify_batch`](pulp_hd_core::backend::BackendSession::classify_batch)
//! — but a batch API serves exactly one caller. This crate turns the
//! engine into a *system that handles traffic*: many concurrent
//! callers, one model, one session, with the throughput/latency
//! trade-off made explicit.
//!
//! ## Architecture
//!
//! ```text
//!  Client ──┐ submit(window) ─▶ ┌───────────────┐   classify_batch   ┌─────────────┐
//!  Client ──┤   bounded queue   │ micro-batcher │ ─────────────────▶ │BackendSession│
//!  Client ──┘ ◀─ Ticket/Verdict │ (one thread)  │ ◀───────────────── │ (worker pool)│
//!           one-shot fan-back   └───────────────┘      verdicts      └─────────────┘
//! ```
//!
//! * [`Server::spawn`] prepares a
//!   [`BackendSession`](pulp_hd_core::backend::BackendSession) on any
//!   [`ExecutionBackend`] and moves it onto a dedicated batcher thread.
//! * [`Server::client`] hands out cheap clonable [`Client`] handles.
//!   [`Client::submit`] enqueues one window and returns a [`Ticket`];
//!   [`Ticket::wait`] blocks for that window's [`Verdict`].
//!   [`Client::classify`] is the submit-and-wait convenience.
//! * The **adaptive micro-batcher** drains the request queue, closes a
//!   batch at [`max_batch`](ServeConfig::max_batch) requests or
//!   [`max_delay`](ServeConfig::max_delay) after the batch opened —
//!   whichever comes first — runs one `classify_batch`, and fans the
//!   verdicts back to per-request one-shot channels. Under load,
//!   batches fill instantly and ride the backend's multi-threaded batch
//!   pipeline; a lone caller pays at most `max_delay` extra latency.
//! * **Backpressure:** the queue is bounded at
//!   [`queue_depth`](ServeConfig::queue_depth). [`Client::submit`]
//!   blocks when it is full (closed-loop callers self-pace);
//!   [`Client::try_submit`] returns
//!   [`TrySubmitError::Overloaded`] instead, for callers that would
//!   rather shed load than queue behind it.
//! * **Graceful shutdown:** [`Server::shutdown`] (and `Drop`) stops
//!   accepting new work, serves every request already queued, joins the
//!   batcher, and returns the final [`ServerStats`]. No ticket is ever
//!   left hanging: everything queued when shutdown begins gets its
//!   verdict, and a submission racing shutdown either joins the final
//!   drain or resolves promptly with [`ServeError::Closed`].
//! * **Telemetry:** a lock-free recorder tracks queue-to-verdict
//!   latency (p50/p95/p99/max), batch shapes, service times, and
//!   throughput; [`Server::stats`] snapshots it at any time without
//!   stopping traffic.
//!
//! Every verdict returned through the server is **bit-identical** to a
//! direct `session.classify` of the same window on the same backend —
//! the batcher only regroups work, never changes it (pinned by this
//! crate's tests on top of the core equivalence suites).
//!
//! ## Example
//!
//! ```
//! use pulp_hd_core::backend::{FastBackend, HdModel};
//! use pulp_hd_core::layout::AccelParams;
//! use pulp_hd_serve::{ServeConfig, Server};
//!
//! let params = AccelParams { n_words: 16, ..AccelParams::emg_default() };
//! let model = HdModel::random(&params, 7);
//! let backend = FastBackend::try_with_threads(2)?;
//! let server = Server::spawn(&backend, &model, ServeConfig::default())?;
//!
//! let client = server.client();
//! let window = vec![vec![100u16, 60_000, 33_000, 8_000]];
//! let verdict = client.classify(&window)?;
//! assert!(verdict.class < params.classes);
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok::<(), pulp_hd_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod net;
mod stats;

pub use net::{NetClient, NetError, NetServer};
pub use stats::ServerStats;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{
    sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pulp_hd_core::backend::{
    BackendError, BackendSession, CacheMonitor, ExecutionBackend, HdModel, TrainingSession, Verdict,
};

use stats::Recorder;

/// Tuning knobs of the adaptive micro-batcher.
///
/// The two batching knobs span the throughput/latency trade-off:
///
/// * **`max_batch`** caps how much work one `classify_batch` call sees.
///   Bigger batches amortize dispatch and let the backend's worker pool
///   fan out (the fast backend needs ≥ 8 windows per participant to
///   leave its single-thread path); past a few hundred windows the
///   returns flatten.
/// * **`max_delay`** caps how long an open batch waits for company.
///   The batcher fills cooperatively: it drains whatever is queued,
///   then yields the CPU a handful of times to let submitting threads
///   run, and closes the batch as soon as the queue stays empty across
///   those yields — so a sparse caller pays microseconds, not
///   `max_delay`, while a crowd mid-submission gets swept into one
///   batch. `max_delay` is the hard upper bound on that fill phase
///   (worst-case added latency); `0` disables the fill phase entirely
///   (each request is served with whatever happened to be queued
///   alongside it).
///
/// `queue_depth` bounds memory and tail latency under overload: once
/// the queue holds that many submitted-but-unserved windows,
/// [`Client::try_submit`] sheds load with
/// [`TrySubmitError::Overloaded`] and [`Client::submit`] blocks.
///
/// The fault-tolerance knobs bound how a failure is allowed to spread:
///
/// * **`deadline`** is the server-side time budget from submission to
///   batch service. A request still unserved when its batch closes past
///   the deadline resolves with [`ServeError::DeadlineExceeded`]
///   instead of occupying a batch slot — so a latency fault (a stalled
///   backend, a flooded queue) sheds the requests that already missed
///   their window rather than serving everyone late. `None` (the
///   default) disables the check.
/// * **`worker_lost_retries`** bounds how often one batch is retried
///   after a [`WorkerLost`](BackendError::WorkerLost) failure (a
///   contained worker panic). Retrying is safe — a failed batch rolls
///   back — and usually succeeds, because a contained worker rebuilds
///   its state and serves the retry like any other batch.
/// * **`retry_backoff`** is slept between those attempts.
///
/// Engine options live on the backend, not here: to serve with a query
/// cache, prepare the session yourself and hand it to
/// [`Server::from_session`], which also lights up the `cache_*`
/// counters in [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Close a batch once it holds this many requests (≥ 1).
    pub max_batch: usize,
    /// Close a batch this long after its first request arrived, even if
    /// it is not full.
    pub max_delay: Duration,
    /// Bounded submission-queue capacity (≥ 1).
    pub queue_depth: usize,
    /// Server-side deadline per request, measured from submission; a
    /// request whose deadline expires before its batch is served
    /// resolves with [`ServeError::DeadlineExceeded`]. `None` disables
    /// deadline enforcement.
    pub deadline: Option<Duration>,
    /// How many times one batch may be retried after a
    /// [`WorkerLost`](BackendError::WorkerLost) failure before falling
    /// back to per-window classification.
    pub worker_lost_retries: u32,
    /// Pause between worker-lost retry attempts.
    pub retry_backoff: Duration,
}

impl Default for ServeConfig {
    /// `max_batch` 64, `max_delay` 200 µs, `queue_depth` 1024 — sized
    /// so a saturated server forms pool-friendly batches while a lone
    /// caller's worst-case added latency stays well under a millisecond.
    /// No deadline; two worker-lost retries, 50 µs apart.
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_delay: Duration::from_micros(200),
            queue_depth: 1024,
            deadline: None,
            worker_lost_retries: 2,
            retry_backoff: Duration::from_micros(50),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be at least 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::Config("queue_depth must be at least 1".into()));
        }
        Ok(())
    }
}

/// Errors surfaced by the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The backend rejected the model, the configuration, or this
    /// specific window (per-request: other requests in the same batch
    /// are unaffected).
    Backend(BackendError),
    /// The serving configuration is invalid.
    Config(String),
    /// The server was shut down gracefully before this request could be
    /// answered (the batcher drained and exited; nothing crashed).
    Closed,
    /// The batcher thread died — the terminal failure the containment
    /// layer exists to prevent, still reported as a typed error so no
    /// [`Ticket::wait`] ever hangs on a dead server.
    ServerDied,
    /// This request waited past the configured
    /// [`deadline`](ServeConfig::deadline) before its batch was served.
    DeadlineExceeded,
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Backend(e) => write!(f, "backend: {e}"),
            Self::Config(what) => write!(f, "config: {what}"),
            Self::Closed => write!(f, "server is shut down"),
            Self::ServerDied => write!(f, "server batcher thread died"),
            Self::DeadlineExceeded => write!(f, "request deadline exceeded before service"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BackendError> for ServeError {
    fn from(e: BackendError) -> Self {
        Self::Backend(e)
    }
}

/// Why a non-blocking submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySubmitError {
    /// The bounded queue is full — shed load or retry later. The
    /// rejection is counted in [`ServerStats::rejected`].
    Overloaded,
    /// The server has shut down.
    Closed,
}

impl core::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Overloaded => write!(f, "server queue is full"),
            Self::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

/// One queued request: the window, its arrival time, and the one-shot
/// reply channel its [`Ticket`] waits on.
struct Pending {
    window: Vec<Vec<u16>>,
    enqueued: Instant,
    /// Per-request deadline (absolute), overriding the config-wide
    /// [`ServeConfig::deadline`] for this request when set — the wire
    /// layer maps each request's deadline header here.
    deadline: Option<Instant>,
    reply: SyncSender<Result<Verdict, ServeError>>,
}

enum Request {
    Classify(Pending),
    /// Shutdown sentinel: serve everything already queued, then exit.
    Drain,
}

/// State shared by the server handle, every client, and the batcher.
struct Shared {
    /// Flips to `false` on shutdown; clients check it before queuing.
    open: AtomicBool,
    /// Flips to `true` if the batcher thread dies (unwinds) instead of
    /// exiting gracefully — set *before* the outstanding reply channels
    /// close, so waiting tickets report [`ServeError::ServerDied`]
    /// rather than the graceful [`ServeError::Closed`].
    batcher_down: AtomicBool,
    recorder: Recorder,
    started: Instant,
}

/// A running serving front-end: one
/// [`BackendSession`](pulp_hd_core::backend::BackendSession) on one
/// batcher thread, fed by any number of [`Client`] handles.
///
/// Dropping the server performs the same graceful shutdown as
/// [`shutdown`](Self::shutdown): queued requests are served, the
/// batcher is joined, and later submissions fail with
/// [`ServeError::Closed`] / [`TrySubmitError::Closed`] (see
/// [`shutdown`](Self::shutdown) for the exact guarantee under races).
#[derive(Debug)]
pub struct Server {
    tx: SyncSender<Request>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
    /// Query-cache counters, when the served session has a query cache
    /// (grabbed from the session before it moves onto the batcher
    /// thread).
    cache_monitor: Option<CacheMonitor>,
}

impl Server {
    /// Prepares `model` on `backend` and starts serving it.
    ///
    /// The session is prepared on the calling thread so backend errors
    /// surface synchronously, then moved onto the batcher thread.
    ///
    /// This constructor validates its [`ServeConfig`] and reports
    /// problems as [`ServeError::Config`] — nothing ever panics
    /// mid-thread. [`try_spawn`](Self::try_spawn) is the same
    /// constructor under the fallible-twin name
    /// (mirroring `FastBackend::try_with_threads`), kept so call sites
    /// can spell out that configuration errors are expected and
    /// handled.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an invalid [`ServeConfig`]
    /// (`max_batch == 0`, `queue_depth == 0`) and
    /// [`ServeError::Backend`] if the backend cannot realize the model.
    pub fn spawn(
        backend: &dyn ExecutionBackend,
        model: &HdModel,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let session = backend.prepare(model)?;
        Self::from_session(session, config)
    }

    /// The fallible-twin name of [`spawn`](Self::spawn), for call sites
    /// that want the `try_` convention of
    /// `FastBackend::try_with_threads` — identical semantics: an
    /// invalid [`ServeConfig`] (`max_batch == 0`, `queue_depth == 0`)
    /// comes back as [`ServeError::Config`] before any thread exists.
    ///
    /// # Errors
    ///
    /// As [`spawn`](Self::spawn).
    pub fn try_spawn(
        backend: &dyn ExecutionBackend,
        model: &HdModel,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::spawn(backend, model, config)
    }

    /// Serves an already-prepared session — the direct hand-off from
    /// one-shot training:
    /// `Server::from_training(trainer, config)` is covered separately;
    /// use this when the session came from
    /// [`ExecutionBackend::prepare`] or a custom construction, such as
    /// a `FastBackend` with a query cache
    /// (`Server::from_session(FastBackend::new().with_cache(n).prepare(&model)?, config)`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an invalid [`ServeConfig`].
    pub fn from_session(
        session: Box<dyn BackendSession>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        // The session is about to move onto the batcher thread — grab
        // its cache telemetry handle (if any) while we still can.
        let cache_monitor = session.cache_monitor();
        let (tx, rx) = sync_channel(config.queue_depth);
        let shared = Arc::new(Shared {
            open: AtomicBool::new(true),
            batcher_down: AtomicBool::new(false),
            recorder: Recorder::new(),
            started: Instant::now(),
        });
        let batcher_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("pulp-hd-serve".into())
            .spawn(move || batcher(session, &rx, &batcher_shared, config))
            .map_err(|e| ServeError::Config(format!("cannot spawn batcher thread: {e}")))?;
        Ok(Self {
            tx,
            shared,
            handle: Some(handle),
            cache_monitor,
        })
    }

    /// The fallible-twin name of [`from_session`](Self::from_session) —
    /// identical semantics, see [`try_spawn`](Self::try_spawn).
    ///
    /// # Errors
    ///
    /// As [`from_session`](Self::from_session).
    pub fn try_from_session(
        session: Box<dyn BackendSession>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::from_session(session, config)
    }

    /// Finalizes a training session and serves the trained model on its
    /// own backend — the train → deploy path
    /// ([`TrainingSession::into_serving`]) behind the serving layer.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Backend`] if finalization or serving
    /// preparation fails, [`ServeError::Config`] for an invalid
    /// [`ServeConfig`].
    pub fn from_training(
        trainer: Box<dyn TrainingSession>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        Self::from_session(trainer.into_serving()?, config)
    }

    /// A new client handle. Clients are cheap (`Clone` + `Send`), so
    /// hand one to every caller thread.
    #[must_use]
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// A snapshot of the server's telemetry, without stopping traffic.
    /// When the served session carries a query cache, the snapshot
    /// includes its hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.shared.recorder.snapshot(self.shared.started.elapsed());
        if let Some(cache) = &self.cache_monitor {
            stats.cache_hits = cache.hits();
            stats.cache_misses = cache.misses();
            stats.cache_evictions = cache.evictions();
        }
        stats
    }

    /// Graceful shutdown: stop accepting new requests, serve everything
    /// already queued, join the batcher, and return the final stats.
    ///
    /// Every outstanding [`Ticket`] resolves: tickets queued before
    /// this call (in particular, everything submitted from the calling
    /// thread) get their verdicts; a submission on another thread that
    /// races this call may instead resolve with [`ServeError::Closed`]
    /// — it is never left blocking.
    #[must_use = "the final stats are the server's life's work; ignore explicitly if unwanted"]
    pub fn shutdown(mut self) -> ServerStats {
        self.finish();
        self.stats()
    }

    fn finish(&mut self) {
        if let Some(handle) = self.handle.take() {
            // ORDERING: SeqCst close flag — submitters load it SeqCst
            // before enqueueing, so once this store is ordered before
            // the Drain sentinel below, no submission can slip in after
            // the drain and block forever.
            self.shared.open.store(false, Ordering::SeqCst);
            // The blocking send is safe: the batcher only exits after
            // consuming a Drain (or after every sender is gone), so it
            // is still draining the queue ahead of this sentinel. If it
            // panicked instead, the send fails — nothing to drain.
            let _ = self.tx.send(Request::Drain);
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A cheap clonable handle for submitting windows to a [`Server`].
#[derive(Debug, Clone)]
pub struct Client {
    tx: SyncSender<Request>,
    shared: Arc<Shared>,
}

impl core::fmt::Debug for Shared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shared")
            .field("open", &self.open)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Submits one window, blocking while the queue is full, and
    /// returns a [`Ticket`] for its verdict.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server has shut down.
    pub fn submit(&self, window: Vec<Vec<u16>>) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(window, None)
    }

    /// Like [`submit`](Self::submit), with a per-request deadline that
    /// overrides the config-wide [`ServeConfig::deadline`] for this
    /// request only (measured from now): if the request is still
    /// unserved when its batch closes past the deadline, its ticket
    /// resolves with [`ServeError::DeadlineExceeded`]. `None` falls back
    /// to the config-wide deadline. This is the hook the network layer
    /// uses to propagate each wire request's deadline header.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        window: Vec<Vec<u16>>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        if !self.shared.open.load(Ordering::SeqCst) {
            return Err(ServeError::Closed);
        }
        let (ticket, pending) = self.package(window, deadline);
        self.tx
            .send(Request::Classify(pending))
            .map_err(|_| ServeError::Closed)?;
        Ok(ticket)
    }

    /// Submits one window without blocking: full queue means
    /// [`TrySubmitError::Overloaded`] (the shed-load backpressure
    /// signal), not a wait.
    ///
    /// # Errors
    ///
    /// Returns [`TrySubmitError::Overloaded`] when the bounded queue is
    /// full, [`TrySubmitError::Closed`] if the server has shut down.
    pub fn try_submit(&self, window: Vec<Vec<u16>>) -> Result<Ticket, TrySubmitError> {
        self.try_submit_with_deadline(window, None)
    }

    /// The non-blocking twin of
    /// [`submit_with_deadline`](Self::submit_with_deadline): shed-load
    /// backpressure plus a per-request deadline.
    ///
    /// # Errors
    ///
    /// As [`try_submit`](Self::try_submit).
    pub fn try_submit_with_deadline(
        &self,
        window: Vec<Vec<u16>>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, TrySubmitError> {
        if !self.shared.open.load(Ordering::SeqCst) {
            return Err(TrySubmitError::Closed);
        }
        let (ticket, pending) = self.package(window, deadline);
        match self.tx.try_send(Request::Classify(pending)) {
            Ok(()) => Ok(ticket),
            Err(TrySendError::Full(_)) => {
                self.shared.recorder.record_rejected();
                Err(TrySubmitError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(TrySubmitError::Closed),
        }
    }

    /// Submit-and-wait: one window in, its [`Verdict`] out. The calling
    /// thread blocks (closed-loop callers self-pace — this is the
    /// backpressure-friendly way to drive the server hard).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Backend`] if the backend rejected this
    /// window, [`ServeError::Closed`] if the server shut down first.
    pub fn classify(&self, window: &[Vec<u16>]) -> Result<Verdict, ServeError> {
        self.submit(window.to_vec())?.wait()
    }

    fn package(&self, window: Vec<Vec<u16>>, deadline: Option<Duration>) -> (Ticket, Pending) {
        // Capacity 1 and exactly one send ever: the batcher's reply can
        // never block, and a dropped ticket just discards the verdict.
        let (reply_tx, reply_rx) = sync_channel(1);
        let now = Instant::now();
        (
            Ticket {
                reply: reply_rx,
                shared: Arc::clone(&self.shared),
            },
            Pending {
                window,
                enqueued: now,
                deadline: deadline.map(|d| now + d),
                reply: reply_tx,
            },
        )
    }
}

/// How often a blocked [`Ticket::wait`] re-checks the batcher-death
/// flag. Pure defense in depth: a dying batcher closes the reply
/// channels (waking every waiter immediately) on all normal unwind
/// paths, so the watchdog tick only matters if a reply sender leaks —
/// and it guarantees `wait` can never hang forever on a dead server
/// even then.
const WATCHDOG_TICK: Duration = Duration::from_millis(25);

/// An outstanding request: redeem it with [`wait`](Self::wait).
#[derive(Debug)]
pub struct Ticket {
    reply: Receiver<Result<Verdict, ServeError>>,
    shared: Arc<Shared>,
}

impl Ticket {
    /// Blocks until this request's verdict is ready. Can never hang on
    /// a dead server: if the batcher thread dies, every outstanding
    /// `wait` resolves with [`ServeError::ServerDied`] (a watchdog
    /// re-checks the death flag even if the reply channel leaks).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Backend`] if the backend rejected this
    /// window, [`ServeError::DeadlineExceeded`] if it waited past the
    /// configured [`deadline`](ServeConfig::deadline),
    /// [`ServeError::Closed`] if the server shut down gracefully first,
    /// [`ServeError::ServerDied`] if the batcher thread died.
    pub fn wait(self) -> Result<Verdict, ServeError> {
        loop {
            match self.reply.recv_timeout(WATCHDOG_TICK) {
                Ok(result) => return result,
                Err(RecvTimeoutError::Timeout) => {
                    if self.shared.batcher_down.load(Ordering::SeqCst) {
                        return Err(ServeError::ServerDied);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(self.disconnect_error()),
            }
        }
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait); additionally returns `Ok(None)` — not an
    /// error — when the timeout elapses first (the ticket is consumed,
    /// the verdict is discarded when it arrives).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Option<Verdict>, ServeError> {
        let give_up = Instant::now() + timeout;
        loop {
            let remaining = give_up.saturating_duration_since(Instant::now());
            match self.reply.recv_timeout(remaining.min(WATCHDOG_TICK)) {
                Ok(result) => return result.map(Some),
                Err(RecvTimeoutError::Timeout) => {
                    if self.shared.batcher_down.load(Ordering::SeqCst) {
                        return Err(ServeError::ServerDied);
                    }
                    if remaining <= WATCHDOG_TICK {
                        return Ok(None);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(self.disconnect_error()),
            }
        }
    }

    /// The non-blocking peek: this request's result if it has already
    /// arrived (the ticket is spent), or the ticket back, untouched, if
    /// it has not. The wire responder uses it to send every answered
    /// reply in one write without waiting on a later one.
    pub(crate) fn try_wait(self) -> Result<Result<Verdict, ServeError>, Self> {
        match self.reply.try_recv() {
            Ok(result) => Ok(result),
            Err(TryRecvError::Empty) => Err(self),
            Err(TryRecvError::Disconnected) => Ok(Err(self.disconnect_error())),
        }
    }

    /// The typed verdict for a reply channel that closed with no
    /// answer: a crashed batcher versus a graceful shutdown race.
    fn disconnect_error(&self) -> ServeError {
        if self.shared.batcher_down.load(Ordering::SeqCst) {
            ServeError::ServerDied
        } else {
            ServeError::Closed
        }
    }
}

/// Consecutive empty-queue yield rounds after which the fill phase
/// concludes no more traffic is coming and closes the batch. Each round
/// costs one `yield_now` — nanoseconds when nothing else is runnable
/// (the sparse-caller case closes its batch almost instantly), a
/// scheduler slice that lets submitting threads actually reach the
/// queue when the machine is saturated (the crowd case fills the
/// batch).
const FILL_IDLE_ROUNDS: u32 = 8;

/// Runs `f` with its panics contained: a panic becomes `Err(message)`
/// instead of unwinding the batcher thread. The serve-layer twin of the
/// core dispatch layer's containment primitive — `AssertUnwindSafe` is
/// justified because the caller discards or rebuilds everything the
/// closure touched (the verdict buffer is cleared per attempt, the
/// session rolls failed batches back by contract).
fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload")
            .to_owned()
    })
}

/// Arms [`Shared::batcher_down`] against an unwinding batcher: dropped
/// while armed (the unwind path), it flips the flag so tickets report
/// [`ServeError::ServerDied`]; disarmed on every graceful exit so a
/// submission racing shutdown still sees the honest
/// [`ServeError::Closed`].
struct DownGuard<'a> {
    shared: &'a Shared,
    armed: bool,
}

impl Drop for DownGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // ORDERING: SeqCst — waiters poll this flag SeqCst to turn
            // a dead batcher into `ServerDied` instead of blocking; the
            // store must be ordered after the unwinding batcher's last
            // ticket resolutions so no resolved ticket reports a death.
            self.shared.batcher_down.store(true, Ordering::SeqCst);
        }
    }
}

/// The batcher loop: block for the first request of a batch, top the
/// batch up (cooperative fill, bounded by `max_batch` and `max_delay`),
/// serve it, repeat — until a [`Request::Drain`] sentinel (graceful
/// shutdown) or channel disconnection (server handle and every client
/// dropped).
fn batcher(
    mut session: Box<dyn BackendSession>,
    rx: &Receiver<Request>,
    shared: &Shared,
    config: ServeConfig,
) {
    let mut pending: Vec<Pending> = Vec::with_capacity(config.max_batch);
    let mut windows: Vec<Vec<Vec<u16>>> = Vec::with_capacity(config.max_batch);
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(config.max_batch);
    // Declared after the batch buffers so it drops *first* during an
    // unwind: outstanding tickets observe `batcher_down` before their
    // reply channels (held by `pending` and the queue) close.
    let mut guard = DownGuard {
        shared,
        armed: true,
    };
    loop {
        let mut draining = match rx.recv() {
            Ok(Request::Classify(p)) => {
                pending.push(p);
                false
            }
            Ok(Request::Drain) => true,
            Err(_) => true,
        };
        if !draining {
            // Cooperative fill: sweep everything already queued, and
            // between sweeps yield so threads that are mid-submission
            // get the CPU to finish. Close once the queue stays empty
            // for FILL_IDLE_ROUNDS consecutive yields (no more traffic
            // in flight), at max_batch, or at the max_delay deadline —
            // whichever comes first.
            let deadline = Instant::now() + config.max_delay;
            let mut idle_rounds = 0;
            while pending.len() < config.max_batch && idle_rounds < FILL_IDLE_ROUNDS {
                match rx.try_recv() {
                    Ok(Request::Classify(p)) => {
                        pending.push(p);
                        idle_rounds = 0;
                    }
                    Ok(Request::Drain) | Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                        draining = true;
                        break;
                    }
                    Err(std::sync::mpsc::TryRecvError::Empty) => {
                        // The queue was empty at batch-open (nothing
                        // swept since the blocking recv) — a lone
                        // caller closes after this one sweep instead of
                        // paying the full cooperative yield loop; a
                        // crowd (anything swept) keeps filling.
                        if pending.len() == 1 {
                            break;
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
                        idle_rounds += 1;
                        std::thread::yield_now();
                    }
                }
            }
        }
        serve_batch(
            session.as_mut(),
            &mut pending,
            &mut windows,
            &mut verdicts,
            shared,
            &config,
        );
        if draining {
            // Serve everything already queued, then exit. Replies to
            // requests that sneak in after the final try_recv are
            // dropped with the channel — their tickets see `Closed`.
            loop {
                match rx.try_recv() {
                    Ok(Request::Classify(p)) => {
                        pending.push(p);
                        if pending.len() == config.max_batch {
                            serve_batch(
                                session.as_mut(),
                                &mut pending,
                                &mut windows,
                                &mut verdicts,
                                shared,
                                &config,
                            );
                        }
                    }
                    Ok(Request::Drain) => {}
                    Err(_) => break,
                }
            }
            serve_batch(
                session.as_mut(),
                &mut pending,
                &mut windows,
                &mut verdicts,
                shared,
                &config,
            );
            guard.armed = false;
            return;
        }
    }
}

/// Serves one closed batch: triage expired deadlines, run
/// `classify_batch` over the surviving windows (panics contained,
/// worker-loss failures retried with backoff), record telemetry, fan
/// each verdict back to its ticket.
///
/// A batch-level error that survives the retries falls back to
/// per-window classification so the error lands only on the request
/// that caused it — every other ticket in the batch still gets its
/// verdict (bit-identical either way; the core pins `classify_batch`
/// to looped `classify`).
fn serve_batch(
    session: &mut dyn BackendSession,
    pending: &mut Vec<Pending>,
    windows: &mut Vec<Vec<Vec<u16>>>,
    verdicts: &mut Vec<Verdict>,
    shared: &Shared,
    config: &ServeConfig,
) {
    if pending.is_empty() {
        return;
    }
    // Deadline triage: requests that already waited past their budget
    // resolve immediately with the typed error instead of occupying a
    // batch slot and making everyone behind them later still. A
    // per-request deadline (`Pending::deadline`, set by
    // `submit_with_deadline`) overrides the config-wide one.
    if config.deadline.is_some() || pending.iter().any(|p| p.deadline.is_some()) {
        let now = Instant::now();
        pending.retain_mut(|p| {
            let expired = match p.deadline {
                Some(at) => now > at,
                None => config
                    .deadline
                    .is_some_and(|budget| now.duration_since(p.enqueued) > budget),
            };
            if expired {
                shared.recorder.record_deadline_expired();
                shared.recorder.record_latency(p.enqueued.elapsed());
                let _ = p.reply.send(Err(ServeError::DeadlineExceeded));
                false
            } else {
                true
            }
        });
        if pending.is_empty() {
            return;
        }
    }
    windows.clear();
    windows.extend(pending.iter_mut().map(|p| std::mem::take(&mut p.window)));
    let service_start = Instant::now();
    // Batch attempts: each one against a cleared verdict buffer (the
    // backend's `classify_batch_into` contract leaves `out` unchanged
    // on error, and a contained panic discards the buffer anyway).
    // Worker-loss failures — a contained worker panic inside the
    // backend, or a panic on this thread contained right here — are
    // transient-by-design (a contained worker rebuilds its state and
    // keeps serving), so they get `worker_lost_retries` fresh attempts
    // before the per-window fallback.
    let mut attempt = 0;
    let batch_result = loop {
        verdicts.clear();
        let result = match contain(|| session.classify_batch_into(windows, verdicts)) {
            Ok(result) => result,
            Err(panic) => {
                shared.recorder.record_contained_panic();
                verdicts.clear();
                Err(BackendError::WorkerLost { chunk: 0, panic })
            }
        };
        match result {
            Err(BackendError::WorkerLost { .. }) if attempt < config.worker_lost_retries => {
                attempt += 1;
                shared.recorder.record_retried_batch();
                std::thread::sleep(config.retry_backoff);
            }
            other => break other,
        }
    };
    match batch_result {
        Ok(()) => {
            shared.recorder.record_batch(service_start.elapsed());
            debug_assert_eq!(verdicts.len(), pending.len());
            for (p, v) in pending.drain(..).zip(verdicts.drain(..)) {
                shared.recorder.record_latency(p.enqueued.elapsed());
                let _ = p.reply.send(Ok(v));
            }
        }
        Err(_) => {
            // Per-window fallback, itself contained: the error (or
            // panic) lands only on the window that caused it.
            for (p, w) in pending.drain(..).zip(windows.iter()) {
                let result = match contain(|| session.classify(w)) {
                    Ok(result) => result.map_err(ServeError::Backend),
                    Err(panic) => {
                        shared.recorder.record_contained_panic();
                        Err(ServeError::Backend(BackendError::WorkerLost {
                            chunk: 0,
                            panic,
                        }))
                    }
                };
                shared.recorder.record_latency(p.enqueued.elapsed());
                let _ = p.reply.send(result);
            }
            shared.recorder.record_batch(service_start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    //! Watchdog unit tests: the `ServerDied` paths are deliberately
    //! unreachable through the public API (the batcher contains every
    //! session panic), so the guarantee "`wait` can never hang on a
    //! dead batcher" is pinned here against hand-built shared state.

    use super::*;

    fn shared(batcher_down: bool) -> Arc<Shared> {
        Arc::new(Shared {
            open: AtomicBool::new(true),
            batcher_down: AtomicBool::new(batcher_down),
            recorder: Recorder::new(),
            started: Instant::now(),
        })
    }

    /// The worst case the watchdog exists for: the batcher died but a
    /// leaked reply sender keeps the channel open. `wait` must resolve
    /// with `ServerDied` within a tick instead of blocking forever.
    #[test]
    fn wait_cannot_hang_when_the_batcher_dies_with_a_leaked_sender() {
        let (tx, rx) = sync_channel::<Result<Verdict, ServeError>>(1);
        let ticket = Ticket {
            reply: rx,
            shared: shared(true),
        };
        let start = Instant::now();
        assert!(matches!(ticket.wait(), Err(ServeError::ServerDied)));
        assert!(start.elapsed() < WATCHDOG_TICK * 4);
        drop(tx);
    }

    /// A closed reply channel is disambiguated by the death flag:
    /// crashed batcher → `ServerDied`, graceful shutdown → `Closed`.
    #[test]
    fn disconnected_reply_reports_died_versus_closed() {
        let (_, rx) = sync_channel::<Result<Verdict, ServeError>>(1);
        let ticket = Ticket {
            reply: rx,
            shared: shared(true),
        };
        assert!(matches!(ticket.wait(), Err(ServeError::ServerDied)));

        let (_, rx) = sync_channel::<Result<Verdict, ServeError>>(1);
        let ticket = Ticket {
            reply: rx,
            shared: shared(false),
        };
        assert!(matches!(ticket.wait(), Err(ServeError::Closed)));
    }

    /// `wait_timeout` keeps its `Ok(None)` contract on a *healthy*
    /// server (slow reply, leaked sender) and still detects death.
    #[test]
    fn wait_timeout_expires_on_healthy_servers_and_detects_death() {
        let (tx, rx) = sync_channel::<Result<Verdict, ServeError>>(1);
        let ticket = Ticket {
            reply: rx,
            shared: shared(false),
        };
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(5)),
            Ok(None)
        ));
        drop(tx);

        let (tx, rx) = sync_channel::<Result<Verdict, ServeError>>(1);
        let ticket = Ticket {
            reply: rx,
            shared: shared(true),
        };
        assert!(matches!(
            ticket.wait_timeout(Duration::from_secs(60)),
            Err(ServeError::ServerDied)
        ));
        drop(tx);
    }

    /// The non-blocking peek hands an unanswered ticket back intact (a
    /// later `wait` still gets the verdict), takes an arrived result,
    /// and types a closed channel like `wait` does.
    #[test]
    fn try_wait_returns_pending_tickets_intact() {
        let (tx, rx) = sync_channel::<Result<Verdict, ServeError>>(1);
        let ticket = Ticket {
            reply: rx,
            shared: shared(false),
        };
        let ticket = ticket.try_wait().expect_err("nothing sent yet");
        tx.send(Err(ServeError::DeadlineExceeded)).unwrap();
        assert!(matches!(
            ticket.try_wait(),
            Ok(Err(ServeError::DeadlineExceeded))
        ));

        let (tx, rx) = sync_channel::<Result<Verdict, ServeError>>(1);
        let ticket = Ticket {
            reply: rx,
            shared: shared(false),
        };
        let ticket = ticket.try_wait().expect_err("nothing sent yet");
        tx.send(Err(ServeError::Closed)).unwrap();
        assert!(matches!(ticket.wait(), Err(ServeError::Closed)));

        let (_, rx) = sync_channel::<Result<Verdict, ServeError>>(1);
        let ticket = Ticket {
            reply: rx,
            shared: shared(true),
        };
        assert!(matches!(ticket.try_wait(), Ok(Err(ServeError::ServerDied))));
    }
}
