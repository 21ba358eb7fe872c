//! The throughput backend: the HD chain on `u64`-packed hypervectors
//! with a zero-allocation encode hot path, runtime-dispatched SIMD
//! kernels, and a persistent multi-threaded batch pipeline.
//!
//! Five things make it fast while staying bit-identical to the golden
//! model (property tests pin this — see `tests/` here and at the
//! workspace root):
//!
//! * hypervectors are repacked into [`Hv64`] words, halving the word
//!   count of every bind/rotate/majority/popcount;
//! * every word loop of those kernels dispatches through
//!   [`hdc::simd::Simd`] — AVX-512 or AVX2/POPCNT kernels when the CPU
//!   has them, a portable unrolled fallback otherwise, selected once
//!   per process (`BENCH_throughput.json` records which level a bench
//!   run used);
//! * the `channels × levels` bind table `IM[c] ⊕ CIM[l]` is
//!   precomputed at [`prepare`](super::ExecutionBackend::prepare) time
//!   into one flat buffer, removing one XOR per channel per sample from
//!   the hot path;
//! * encoding runs entirely inside a reusable per-thread
//!   [`EncodeScratch`] arena. A unigram window is one fused vote
//!   ([`BitslicedBundler::bundle_window_into`]): for each word block,
//!   every sample's spatial vote is computed in registers from its
//!   bind-table rows and feeds the carry-save tree of the temporal vote
//!   directly, so no spatial hypervector is written. N-gram windows,
//!   and windows with a vote too wide for the in-register counter
//!   (`2^RIPPLE_PLANES` or more inputs with the tie vector), write each
//!   sample's spatial hypervector, build the N-grams in place with the
//!   fused bind-rotate [`Hv64::xor_rotated`], and bundle them with the
//!   word-major, register-resident carry-save majority
//!   ([`BitslicedBundler::bundle_paper_into`]). After the arena has
//!   warmed up to the window length, classifying a window performs
//!   **no heap allocation in the encode path** (the returned
//!   [`Verdict`] still owns its two output buffers — the distances
//!   vector and the unpacked query — which are the only per-window
//!   allocations left);
//! * [`classify_batch`](super::BackendSession::classify_batch) feeds a
//!   **persistent worker pool** owned by the session: workers are
//!   spawned once at `prepare` time (one channel and one private
//!   scratch arena each, never re-created per call), each batch is
//!   split into contiguous chunks with the calling thread working chunk
//!   0 alongside the pool, and an adaptive cutover keeps small batches
//!   inline on the calling thread — fanning out only when every
//!   participant gets at least [`MIN_WINDOWS_PER_WORKER`] windows. That
//!   cutover is a constant, not a measurement of the host, and on a
//!   2-CPU host the threaded path can lose to the single-threaded one
//!   (ROADMAP item L: 5-sample classify at ×0.52–0.77 of one thread at
//!   16–32 windows). The
//!   pool holds `min(threads, available_parallelism) - 1` workers:
//!   oversubscribing a CPU-bound bit-kernel workload can only add
//!   context switches. Every job runs with its panics contained: a
//!   panicking chunk fails its batch with a typed
//!   [`BackendError::WorkerLost`], and the worker rebuilds its arena
//!   and keeps serving.
//!
//! The associative-memory search is one exact scan: a full
//! [`Hv64::hamming`] against every prototype, and the first minimum
//! wins. Every distance is exact, and verdicts are bit-identical to the
//! golden backend's.
//!
//! **Query cache.** [`FastBackend::with_cache`] puts a private LRU
//! cache of scan results in front of each participant's scan. A hit
//! needs the encoded query to match a cached one word for word, and
//! replays that scan's class and distances, so a cached verdict differs
//! from the scanned one only in [`Verdict::source`]
//! ([`VerdictSource::CacheHit`]). The session counts hits, misses and
//! evictions ([`CacheMonitor`]). The cache pays only when queries
//! repeat and the scan dominates. One thread at the AVX-512 level,
//! 256-window batches of 5-sample EMG windows, a 64-entry cache: on a
//! 64-class model in arrival order it read ×1.40–1.45 the plain scan's
//! throughput; on 5 classes, or on shuffled pools of distinct windows,
//! ×0.60–0.88.
//!
//! `crates/bench/benches/throughput.rs` measures the backend and records
//! the numbers in `BENCH_throughput.json`.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use hdc::hv64::{BitslicedBundler, CounterBundler, Hv64};
use hdc::item_memory::quantize_code;
use hdc::rng::{derive_seed, Xoshiro256PlusPlus};
use hdc::simd::RIPPLE_PLANES;
use hdc::BinaryHv;

use super::pool::{
    contain, fan_out_for, ChunkResult, RawLabels, RawWindows, ResultDrain, WorkerPool,
};
use super::{
    argmin, validate_label, validate_window, BackendError, BackendSession, ExecutionBackend,
    HdModel, TrainSpec, TrainableBackend, TrainingSession, Verdict, VerdictSource,
};

/// Fewest windows a batch participant (the calling thread or a pool
/// worker) must receive before fanning out pays for its dispatch: below
/// this, the batch runs inline on the calling thread.
pub const MIN_WINDOWS_PER_WORKER: usize = 8;

/// Shared hit/miss/evict counters of a session's query caches. Every
/// participant's private cache ticks the same counters, so the monitor
/// sees the session-wide totals.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A cloneable, read-only handle onto a session's query-cache counters
/// (hits / misses / evictions), obtained from
/// [`BackendSession::cache_monitor`] and safe to poll from any thread
/// while the session serves — the serving front-end surfaces these
/// through `ServerStats`.
#[derive(Debug, Clone)]
pub struct CacheMonitor {
    counters: Arc<CacheCounters>,
}

impl CacheMonitor {
    /// Windows answered straight from a query cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Windows that went through to the AM scan (and were then cached).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// Cache entries displaced to make room for a newer query.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.counters.evictions.load(Ordering::Relaxed)
    }
}

/// A cheap 64-bit signature of a packed query hypervector: four sampled
/// words — first, the two thirds, and **always the last word**, so an
/// odd-`n_words32` tail participates — plus the total popcount bucketed
/// to 64 bits, mixed through SplitMix64 finalizers.
///
/// The signature is a *filter*, not an identity: a cache lookup that
/// matches on signature still compares the full query word-for-word
/// before replaying a verdict, so collisions cost one extra compare and
/// never a wrong answer.
fn query_signature(words: &[u64]) -> u64 {
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let n = words.len();
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for idx in [0, n / 3, (2 * n) / 3, n - 1] {
        h = mix(h ^ words[idx]);
    }
    let pop: u32 = words.iter().map(|w| w.count_ones()).sum();
    mix(h ^ u64::from(pop / 64))
}

/// One cached scan result: the full packed query (the ground truth a
/// hit must match word-for-word), its signature (the cheap pre-filter),
/// and the verdict data to replay.
struct CacheEntry {
    sig: u64,
    query: Box<[u64]>,
    class: usize,
    distances: Vec<u32>,
    /// Logical timestamp of the last hit or insertion (LRU order).
    stamp: u64,
}

/// A fixed-capacity, per-participant LRU cache of scan results, keyed
/// by [`query_signature`] and verified by full word comparison. Private
/// to one thread (no locks on the hot path); only the shared telemetry
/// counters are atomic.
///
/// Capacities are serving-cache sized (tens of entries), so lookup is a
/// linear signature sweep over a flat `Vec` — cheaper than any hashed
/// structure at this size and free of per-hit allocation.
struct QueryCache {
    entries: Vec<CacheEntry>,
    capacity: NonZeroUsize,
    clock: u64,
    counters: Arc<CacheCounters>,
}

impl QueryCache {
    fn new(capacity: NonZeroUsize, counters: Arc<CacheCounters>) -> Self {
        Self {
            entries: Vec::with_capacity(capacity.get()),
            capacity,
            clock: 0,
            counters,
        }
    }

    /// Replays the cached class and distances for `words`, if an entry
    /// holds this exact query. Counts the hit or miss either way.
    fn lookup(&mut self, sig: u64, words: &[u64]) -> Option<(usize, Vec<u32>)> {
        self.clock += 1;
        for entry in &mut self.entries {
            // Signature first (one compare), full query only on a
            // signature match — see `query_signature`.
            if entry.sig == sig && *entry.query == *words {
                entry.stamp = self.clock;
                // ORDERING: Relaxed — the cache counters are telemetry
                // read only by stats snapshots; the cache itself is
                // behind `&mut self`, so no synchronization rides on
                // these counters.
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Some((entry.class, entry.distances.clone()));
            }
        }
        // ORDERING: Relaxed telemetry, as for `hits` above.
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records a freshly scanned verdict, evicting the least recently
    /// used entry at capacity.
    fn insert(&mut self, sig: u64, words: &[u64], class: usize, distances: Vec<u32>) {
        self.clock += 1;
        if self.entries.len() == self.capacity.get() {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                // INFALLIBLE: this branch runs only when the cache is
                // at capacity, and the capacity is a `NonZeroUsize`, so
                // the iterator is non-empty.
                .expect("capacity >= 1, so a full cache has entries");
            self.entries.swap_remove(oldest);
            // ORDERING: Relaxed telemetry, as for `hits` above.
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.entries.push(CacheEntry {
            sig,
            query: words.into(),
            class,
            distances,
            stamp: self.clock,
        });
    }
}

/// The `u64`-packed multi-threaded host backend.
///
/// The thread count is the **requested parallelism cap** for
/// [`classify_batch`](super::BackendSession::classify_batch); the
/// session it prepares sizes its persistent worker pool to
/// `min(threads, available_parallelism)` participants and falls back to
/// the calling thread for batches too small to split (see the [module
/// docs](self)). Single windows always run inline on the calling
/// thread.
#[derive(Debug, Clone, Copy)]
pub struct FastBackend {
    threads: usize,
    /// Per-participant query-cache capacity; `None` runs without one.
    cache: Option<NonZeroUsize>,
}

impl FastBackend {
    /// A backend using all available CPU parallelism for batches and no
    /// query cache.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self {
            threads,
            cache: None,
        }
    }

    /// A backend with an explicit batch thread cap — the panicking
    /// convenience for thread counts known at compile time (tests,
    /// benches, examples with hard-coded parallelism). When the count
    /// comes from configuration or user input, use
    /// [`try_with_threads`](Self::try_with_threads) and handle the error.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        // INFALLIBLE: not a proof — this is the documented panicking
        // twin of `try_with_threads` ("# Panics" above); callers who
        // cannot rule out `threads == 0` must use the fallible form.
        Self::try_with_threads(threads).expect("fast backend needs at least one thread")
    }

    /// The fallible twin of [`with_threads`](Self::with_threads):
    /// rejects a zero thread count with [`BackendError::Config`] instead
    /// of panicking, matching the `Result`-based contract of
    /// [`prepare`](ExecutionBackend::prepare). The serving front-end and
    /// the examples route through this constructor.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Config`] if `threads == 0`.
    pub fn try_with_threads(threads: usize) -> Result<Self, BackendError> {
        if threads == 0 {
            return Err(BackendError::Config(
                "fast backend needs at least one thread".into(),
            ));
        }
        Ok(Self {
            threads,
            cache: None,
        })
    }

    /// Returns this backend with a query cache of `capacity` entries
    /// per participant: the calling thread and each pool worker hold a
    /// private one, and each entry owns one packed query plus one
    /// distances vector (see the [module docs](self)).
    #[must_use]
    pub fn with_cache(mut self, capacity: NonZeroUsize) -> Self {
        self.cache = Some(capacity);
        self
    }

    /// The configured batch thread cap.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-participant query-cache capacity, when the cache is on.
    #[must_use]
    pub fn cache(&self) -> Option<NonZeroUsize> {
        self.cache
    }

    /// [`prepare`](ExecutionBackend::prepare) with an explicit
    /// participant count (callers + pool workers), bypassing the
    /// `available_parallelism` clamp — the testable core of session
    /// construction, also exercised on single-CPU hosts.
    fn prepare_with_participants(&self, model: &HdModel, participants: usize) -> FastSession {
        let enc = EncodeCore::from_parts(model.im(), model.cim(), model.ngram());
        let prototypes: Vec<Hv64> = model.prototypes().iter().map(Hv64::from_binary).collect();
        let n_words32 = enc.n_words32;
        let core = Arc::new(FastCore {
            enc,
            prototypes,
            cache_capacity: self.cache,
            counters: Arc::new(CacheCounters::default()),
        });
        let caught = Arc::new(AtomicU64::new(0));
        let pool = {
            let core = &core;
            let caught = &caught;
            WorkerPool::spawn(participants.saturating_sub(1), || {
                let core = Arc::clone(core);
                let caught = Arc::clone(caught);
                let mut scratch = EncodeScratch::new(core.enc.n_words32);
                let mut cache = core.new_cache();
                move |job: ClassifyJob| {
                    let ClassifyJob {
                        windows,
                        range,
                        chunk,
                        done,
                    } = job;
                    let result = contain(|| {
                        // SAFETY: see `RawWindows` — the batch outlives
                        // the job because the dispatcher waits for our
                        // `done` message before returning.
                        let windows = unsafe { windows.slice() };
                        windows[range]
                            .iter()
                            .map(|w| core.classify_with(w, &mut scratch, &mut cache))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .unwrap_or_else(|panic| {
                        // The arena (and cache) may hold torn state from
                        // the unwound encode; respawn both, count the
                        // loss, keep the worker alive.
                        scratch = EncodeScratch::new(core.enc.n_words32);
                        cache = core.new_cache();
                        // ORDERING: Relaxed — contained-panic telemetry;
                        // the loss itself is reported through the job's
                        // result channel, which does the synchronizing.
                        caught.fetch_add(1, Ordering::Relaxed);
                        Err(BackendError::WorkerLost { chunk, panic })
                    });
                    // A dropped receiver just means the dispatcher gave
                    // up on the batch; keep serving future jobs.
                    let _ = done.send((chunk, result));
                }
            })
        };
        let cache = core.new_cache();
        let monitor = core.cache_capacity.map(|_| CacheMonitor {
            counters: Arc::clone(&core.counters),
        });
        FastSession {
            scratch: EncodeScratch::new(n_words32),
            cache,
            monitor,
            core,
            pool,
            caught,
        }
    }

    /// [`begin_training`](TrainableBackend::begin_training) with an
    /// explicit participant count — the testable core of training
    /// session construction, also exercised on single-CPU hosts.
    fn begin_training_with_participants(
        &self,
        spec: &TrainSpec,
        participants: usize,
    ) -> Result<FastTrainingSession, BackendError> {
        let enc = Arc::new(EncodeCore::from_parts(spec.im(), spec.cim(), spec.ngram()));
        let n_words32 = enc.n_words32;
        let classes = spec.classes();
        // The per-class seeded tie vectors of the golden associative
        // memory, materialized once and packed: ties resolve identically
        // forever after, at zero per-update cost.
        let ties: Vec<Hv64> = (0..classes)
            .map(|class| {
                let mut rng =
                    Xoshiro256PlusPlus::seed_from_u64(derive_seed(spec.tie_seed(), class as u64));
                Hv64::from_binary(&BinaryHv::random_from(n_words32, &mut rng))
            })
            .collect();
        let caught = Arc::new(AtomicU64::new(0));
        let pool = {
            let enc = &enc;
            let caught = &caught;
            WorkerPool::spawn(participants.saturating_sub(1), || {
                let enc = Arc::clone(enc);
                let caught = Arc::clone(caught);
                let mut scratch = EncodeScratch::new(enc.n_words32);
                move |job: TrainJob| {
                    let TrainJob {
                        windows,
                        labels,
                        mut range,
                        chunk,
                        classes,
                        done,
                    } = job;
                    let result = contain(|| {
                        // SAFETY: see `RawWindows`/`RawLabels` — the
                        // batch and label slices outlive the job because
                        // the dispatcher waits for our `done` message.
                        let windows = unsafe { windows.slice() };
                        // SAFETY: same guard as `windows` above.
                        let labels = unsafe { labels.slice() };
                        let mut partials: Vec<CounterBundler> = (0..classes)
                            .map(|_| CounterBundler::new(enc.n_words32))
                            .collect();
                        range
                            .try_for_each(|i| {
                                validate_label(labels[i], classes)?;
                                enc.encode_with(&windows[i], &mut scratch)?;
                                partials[labels[i]].add(&scratch.query);
                                Ok(())
                            })
                            .map(|()| partials)
                    })
                    .unwrap_or_else(|panic| {
                        // Partial counters died with the unwind (they
                        // were job-local); only the arena needs a respawn
                        // before the next job.
                        scratch = EncodeScratch::new(enc.n_words32);
                        // ORDERING: Relaxed — contained-panic telemetry;
                        // the loss itself is reported through the job's
                        // result channel, which does the synchronizing.
                        caught.fetch_add(1, Ordering::Relaxed);
                        Err(BackendError::WorkerLost { chunk, panic })
                    });
                    let _ = done.send((chunk, result));
                }
            })
        };
        Ok(FastTrainingSession {
            counters: (0..classes)
                .map(|_| CounterBundler::new(n_words32))
                .collect(),
            prototypes: vec![Hv64::zeros(n_words32); classes],
            stale: vec![false; classes],
            ties,
            scratch: EncodeScratch::new(n_words32),
            enc,
            pool,
            caught,
            spec: spec.clone(),
            backend: *self,
        })
    }
}

impl Default for FastBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutionBackend for FastBackend {
    fn name(&self) -> &'static str {
        if self.cache.is_some() {
            "fast-cached"
        } else {
            "fast"
        }
    }

    fn prepare(&self, model: &HdModel) -> Result<Box<dyn BackendSession>, BackendError> {
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Ok(Box::new(
            self.prepare_with_participants(model, self.threads.min(cpus)),
        ))
    }
}

impl TrainableBackend for FastBackend {
    fn begin_training(&self, spec: &TrainSpec) -> Result<Box<dyn TrainingSession>, BackendError> {
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let session = self.begin_training_with_participants(spec, self.threads.min(cpus))?;
        Ok(Box::new(session))
    }
}

/// Reusable per-thread encode arena: every intermediate buffer of the
/// spatial → temporal → query chain, allocated once and recycled across
/// windows. After it has grown to the longest window seen, the encode
/// path performs zero heap allocations. Pool workers each own one for
/// the lifetime of the session, so repeated batches reuse warm arenas.
#[derive(Debug)]
struct EncodeScratch {
    /// First word in the bind table of every sample's channel rows,
    /// sample by sample.
    starts: Vec<usize>,
    /// N-gram windows, and windows with a vote too wide for the
    /// in-register counter: each sample's spatial hypervector, then in
    /// place each sliding N-gram over its first sample. Grows to the
    /// window length. Other unigram windows leave it empty: their
    /// spatial votes are never written.
    grams: Vec<Hv64>,
    /// The encoded query of the current window.
    query: Hv64,
}

impl EncodeScratch {
    fn new(n_words32: usize) -> Self {
        Self {
            starts: Vec::new(),
            grams: Vec::new(),
            query: Hv64::zeros(n_words32),
        }
    }
}

/// The immutable encoding tables of the chain — everything needed to
/// turn a window into its packed query hypervector, shared by the
/// serving and training sessions (and their pool workers) behind an
/// [`Arc`].
struct EncodeCore {
    /// The per-sample bind table `IM[c] ⊕ CIM[l]`, packed, row
    /// `c · levels + l` after row, in one flat buffer.
    bound: Vec<u64>,
    channels: usize,
    levels: usize,
    ngram: usize,
    n_words32: usize,
}

impl EncodeCore {
    /// Precomputes the bind table from the model's item memories.
    fn from_parts(im: &hdc::ItemMemory, cim: &hdc::ContinuousItemMemory, ngram: usize) -> Self {
        let levels = cim.n_levels();
        let n_words32 = cim.get(0).n_words();
        let mut bound = Vec::with_capacity(im.len() * levels * n_words32.div_ceil(2));
        for c in 0..im.len() {
            for l in 0..levels {
                bound.extend_from_slice(Hv64::from_binary(&im.get(c).bind(cim.get(l))).words());
            }
        }
        Self {
            n_words32,
            bound,
            channels: im.len(),
            levels,
            ngram,
        }
    }

    /// Encodes one window into `scratch.query` — the zero-allocation
    /// spatial → temporal chain (see the module docs).
    fn encode_with(
        &self,
        window: &[Vec<u16>],
        scratch: &mut EncodeScratch,
    ) -> Result<(), BackendError> {
        validate_window(window, self.channels, self.ngram)?;
        let EncodeScratch {
            starts,
            grams,
            query,
        } = scratch;
        let row_words = query.n_words();
        starts.clear();
        for sample in window {
            starts.extend(sample.iter().enumerate().map(|(c, &code)| {
                (c * self.levels + quantize_code(code, self.levels)) * row_words
            }));
        }
        let (channels, n) = (self.channels, self.ngram);
        // Whether a vote fits the in-register counter: fewer than
        // `2^RIPPLE_PLANES` inputs with its tie vector.
        let fits = |votes: usize| votes + usize::from(votes.is_multiple_of(2)) < 1 << RIPPLE_PLANES;
        if n == 1 && fits(window.len()) && fits(channels) {
            // Unigrams: each word block's spatial votes feed the
            // temporal vote in registers; none is written.
            BitslicedBundler::bundle_window_into(
                window.len(),
                channels,
                &self.bound,
                starts,
                query,
            );
            return Ok(());
        }
        // N-grams, and votes too wide for the counter: each sample's
        // spatial hypervector, then each sliding N-gram built in place
        // over its first sample with fused bind-rotates (the later
        // samples it reads are still spatial; a unigram is the spatial
        // itself), then one word-major majority over the N-grams.
        while grams.len() < window.len() {
            grams.push(Hv64::zeros(self.n_words32));
        }
        for (spatial, sample) in grams.iter_mut().zip(starts.chunks(channels)) {
            BitslicedBundler::bundle_window_into(1, channels, &self.bound, sample, spatial);
        }
        let g_count = window.len() - n + 1;
        for s in 0..g_count {
            let (head, later) = grams.split_at_mut(s + 1);
            for (k, sp) in later[..n - 1].iter().enumerate() {
                head[s].xor_rotated(sp, k + 1);
            }
        }
        BitslicedBundler::bundle_paper_into(g_count, |i| &grams[i], query);
        Ok(())
    }
}

/// The immutable, shareable part of a serving session: the encoding
/// tables, the trained prototypes and the query-cache configuration.
struct FastCore {
    enc: EncodeCore,
    prototypes: Vec<Hv64>,
    /// Per-participant query-cache capacity; `None` disables caching.
    cache_capacity: Option<NonZeroUsize>,
    /// Session-wide cache telemetry, shared by every participant's
    /// private cache.
    counters: Arc<CacheCounters>,
}

impl FastCore {
    /// A fresh private query cache for one participant (`None` when the
    /// backend runs without one). Workers respawn theirs after a
    /// contained panic, exactly like their scratch arena.
    fn new_cache(&self) -> Option<QueryCache> {
        self.cache_capacity
            .map(|capacity| QueryCache::new(capacity, Arc::clone(&self.counters)))
    }

    /// The associative-memory search on an already-encoded query: the
    /// exact distance to every prototype, first minimum wins.
    fn scan_query(&self, query: &Hv64) -> Verdict {
        let distances: Vec<u32> = self.prototypes.iter().map(|p| p.hamming(query)).collect();
        Verdict {
            class: argmin(&distances),
            distances,
            query: query.to_binary(),
            cycles: None,
            source: VerdictSource::Scan,
        }
    }

    fn classify_with(
        &self,
        window: &[Vec<u16>],
        scratch: &mut EncodeScratch,
        cache: &mut Option<QueryCache>,
    ) -> Result<Verdict, BackendError> {
        self.enc.encode_with(window, scratch)?;
        let query = &scratch.query;
        let Some(cache) = cache.as_mut() else {
            return Ok(self.scan_query(query));
        };
        // Signature filter, word-exact verification, replay on a hit;
        // scan-and-remember on a miss.
        let sig = query_signature(query.words());
        if let Some((class, distances)) = cache.lookup(sig, query.words()) {
            return Ok(Verdict {
                class,
                distances,
                query: query.to_binary(),
                cycles: None,
                source: VerdictSource::CacheHit,
            });
        }
        let verdict = self.scan_query(query);
        cache.insert(sig, query.words(), verdict.class, verdict.distances.clone());
        Ok(verdict)
    }
}

/// One chunk of a classification batch, dispatched to a pool worker.
struct ClassifyJob {
    windows: RawWindows,
    /// Window range of this chunk within the batch.
    range: Range<usize>,
    /// Chunk index, for in-order reassembly.
    chunk: usize,
    /// Per-call result channel.
    done: Sender<ChunkResult>,
}

/// A training chunk's completion message: chunk index + the partial
/// per-class counter planes the worker accumulated over its windows.
type TrainChunkResult = (usize, Result<Vec<CounterBundler>, BackendError>);

/// One chunk of a training batch, dispatched to a pool worker: the
/// worker encodes its window range into a **private** set of per-class
/// counter planes and sends the partials back for merging.
struct TrainJob {
    windows: RawWindows,
    labels: RawLabels,
    range: Range<usize>,
    chunk: usize,
    classes: usize,
    done: Sender<TrainChunkResult>,
}

struct FastSession {
    core: Arc<FastCore>,
    /// Arena for single-window calls and inline (non-fanned) batches.
    scratch: EncodeScratch,
    /// The calling thread's private query cache (`None` unless the
    /// backend caches); pool workers own their own.
    cache: Option<QueryCache>,
    /// Handle onto the session-wide cache counters, cloned out through
    /// [`BackendSession::cache_monitor`].
    monitor: Option<CacheMonitor>,
    pool: WorkerPool<ClassifyJob>,
    /// Worker panics contained so far (telemetry; each one also surfaced
    /// as a [`BackendError::WorkerLost`] to the affected batch).
    caught: Arc<AtomicU64>,
}

impl std::fmt::Debug for FastSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastSession")
            .field("participants", &(self.pool.workers() + 1))
            .field("contained_panics", &self.caught.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FastSession {
    fn fan_out(&self, batch: usize) -> usize {
        fan_out_for(&self.pool, batch, MIN_WINDOWS_PER_WORKER)
    }
}

impl FastSession {
    /// The batched pipeline, writing verdicts straight into `out` (the
    /// calling thread's chunk is pushed as it is computed; worker
    /// chunks are spliced in in order). On error, `out` may hold a
    /// partial prefix — [`classify_batch_into`](BackendSession::
    /// classify_batch_into) rolls it back.
    fn classify_batch_impl(
        &mut self,
        windows: &[Vec<Vec<u16>>],
        out: &mut Vec<Verdict>,
    ) -> Result<(), BackendError> {
        let fan_out = self.fan_out(windows.len());
        out.reserve(windows.len());
        if fan_out <= 1 {
            for w in windows {
                out.push(
                    self.core
                        .classify_with(w, &mut self.scratch, &mut self.cache)?,
                );
            }
            return Ok(());
        }
        let chunk = windows.len().div_ceil(fan_out);
        let n_chunks = windows.len().div_ceil(chunk);
        let (done_tx, done_rx) = channel();
        // From the first dispatch on, `drain` guarantees the workers are
        // done with `windows` before this frame can unwind (see
        // `ResultDrain`); every panic below happens under its watch.
        let mut drain = ResultDrain {
            rx: &done_rx,
            tx: Some(done_tx),
            outstanding: 0,
        };
        for idx in 1..n_chunks {
            let done = drain
                .tx
                .as_ref()
                // INFALLIBLE: `tx` is only taken by `ResultDrain::drop`
                // after dispatch returns, so it is `Some` for the whole
                // dispatch body.
                .expect("dispatcher sender lives through dispatch")
                .clone();
            let job = ClassifyJob {
                windows: RawWindows::of(windows),
                range: idx * chunk..((idx + 1) * chunk).min(windows.len()),
                chunk: idx,
                done,
            };
            // A job that cannot be sent (its worker thread is gone)
            // leaves its chunk unreported: it fails below with that
            // chunk's `WorkerLost`, like a worker that dies mid-job.
            if self.pool.senders[idx - 1].send(job).is_ok() {
                drain.outstanding += 1;
            }
        }
        // Only worker-held clones keep the result channel open now, so
        // a dead worker surfaces as a recv error instead of a deadlock.
        drain.tx = None;
        // The calling thread is participant 0, on its warm arena,
        // writing chunk 0 straight into the output buffer.
        let first: Result<(), BackendError> = windows[..chunk].iter().try_for_each(|w| {
            out.push(
                self.core
                    .classify_with(w, &mut self.scratch, &mut self.cache)?,
            );
            Ok(())
        });
        let mut parts: Vec<Option<Result<Vec<Verdict>, BackendError>>> =
            (1..n_chunks).map(|_| None).collect();
        while drain.outstanding > 0 {
            // A recv error means a worker died mid-job without reporting
            // (all senders gone, so no worker still sees the batch):
            // stop waiting and let the missing chunk surface below.
            let Ok((idx, result)) = drain.rx.recv() else {
                drain.outstanding = 0;
                break;
            };
            drain.outstanding -= 1;
            parts[idx - 1] = Some(result);
        }
        // Chunk-order error precedence, as before: chunk 0 first, then
        // the worker chunks in order.
        first?;
        for (i, part) in parts.into_iter().enumerate() {
            out.extend(part.unwrap_or_else(|| {
                Err(BackendError::WorkerLost {
                    chunk: i + 1,
                    panic: "worker thread terminated before reporting".into(),
                })
            })?);
        }
        Ok(())
    }
}

impl BackendSession for FastSession {
    fn classify(&mut self, window: &[Vec<u16>]) -> Result<Verdict, BackendError> {
        self.core
            .classify_with(window, &mut self.scratch, &mut self.cache)
    }

    fn classify_batch(&mut self, windows: &[Vec<Vec<u16>>]) -> Result<Vec<Verdict>, BackendError> {
        let mut out = Vec::with_capacity(windows.len());
        self.classify_batch_into(windows, &mut out)?;
        Ok(out)
    }

    /// The real into-buffer pipeline: the inline path and the calling
    /// thread's chunk push verdicts directly into `out` with no
    /// intermediate vector, so a long-lived caller reusing one buffer
    /// (the serving micro-batcher) allocates nothing for the batch
    /// container after warm-up.
    fn classify_batch_into(
        &mut self,
        windows: &[Vec<Vec<u16>>],
        out: &mut Vec<Verdict>,
    ) -> Result<(), BackendError> {
        let start = out.len();
        let result = self.classify_batch_impl(windows, out);
        if result.is_err() {
            // Keep the documented contract: `out` unchanged on error.
            out.truncate(start);
        }
        result
    }

    fn cache_monitor(&self) -> Option<CacheMonitor> {
        self.monitor.clone()
    }
}

/// The throughput training session: the same packed encode chain and
/// persistent worker pool as the serving side, feeding per-class
/// [`CounterBundler`] counter planes instead of an AM scan.
///
/// * **Batch training** fans the batch out exactly like
///   `classify_batch`: workers encode disjoint chunks into *private*
///   partial counter planes (no shared mutable state, no locks), which
///   the calling thread then merges via bit-sliced sideways addition
///   and thresholds once. Counter addition is commutative, so the
///   trained prototypes are bit-identical to sequential golden
///   training regardless of the split.
/// * **Online updates** are incremental: one sideways addition into the
///   class's counters plus one vectorized re-threshold of that class
///   against its precomputed seeded tie vector — no other class is
///   touched, no tie vector is ever regenerated.
///
/// Prototypes re-threshold lazily ([`finalize`](TrainingSession::
/// finalize) or the classification inside `update_online` pay the cost
/// only for classes whose counters changed).
struct FastTrainingSession {
    enc: Arc<EncodeCore>,
    counters: Vec<CounterBundler>,
    prototypes: Vec<Hv64>,
    stale: Vec<bool>,
    /// Per-class seeded tie vectors (see `begin_training_with_participants`).
    ties: Vec<Hv64>,
    /// Arena for inline encoding (single windows, non-fanned batches).
    scratch: EncodeScratch,
    pool: WorkerPool<TrainJob>,
    /// Worker panics contained so far (telemetry; each one also surfaced
    /// as a [`BackendError::WorkerLost`] to the affected batch).
    caught: Arc<AtomicU64>,
    spec: TrainSpec,
    /// The backend configuration, for the serving hand-off.
    backend: FastBackend,
}

impl std::fmt::Debug for FastTrainingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastTrainingSession")
            .field("participants", &(self.pool.workers() + 1))
            .field("classes", &self.counters.len())
            .field("contained_panics", &self.caught.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FastTrainingSession {
    /// Re-thresholds every stale non-empty class.
    fn refresh_prototypes(&mut self) {
        for class in 0..self.counters.len() {
            if self.stale[class] && !self.counters[class].is_empty() {
                self.counters[class]
                    .majority_seeded_into(&self.ties[class], &mut self.prototypes[class]);
                self.stale[class] = false;
            }
        }
    }

    /// Encodes and accumulates one window inline on the calling thread.
    fn train_inline(&mut self, window: &[Vec<u16>], label: usize) -> Result<(), BackendError> {
        validate_label(label, self.counters.len())?;
        self.enc.encode_with(window, &mut self.scratch)?;
        self.counters[label].add(&self.scratch.query);
        self.stale[label] = true;
        Ok(())
    }
}

impl TrainingSession for FastTrainingSession {
    fn train(&mut self, window: &[Vec<u16>], label: usize) -> Result<(), BackendError> {
        self.train_inline(window, label)
    }

    fn train_batch(
        &mut self,
        windows: &[Vec<Vec<u16>>],
        labels: &[usize],
    ) -> Result<(), BackendError> {
        if windows.len() != labels.len() {
            return Err(BackendError::Input(format!(
                "batch of {} windows carries {} labels",
                windows.len(),
                labels.len()
            )));
        }
        let fan_out = fan_out_for(&self.pool, windows.len(), MIN_WINDOWS_PER_WORKER);
        if fan_out <= 1 {
            return windows
                .iter()
                .zip(labels)
                .try_for_each(|(w, &l)| self.train_inline(w, l));
        }
        let chunk = windows.len().div_ceil(fan_out);
        let n_chunks = windows.len().div_ceil(chunk);
        let (done_tx, done_rx) = channel();
        // Same unwind contract as `classify_batch`: `drain` keeps this
        // frame alive until no worker can still see the borrows.
        let mut drain = ResultDrain {
            rx: &done_rx,
            tx: Some(done_tx),
            outstanding: 0,
        };
        // The first chunk whose job cannot be sent (its worker thread is
        // gone) fails the batch with that chunk's `WorkerLost`.
        let mut unsent = None;
        for idx in 1..n_chunks {
            let done = drain
                .tx
                .as_ref()
                // INFALLIBLE: `tx` is only taken by `ResultDrain::drop`
                // after dispatch returns, so it is `Some` for the whole
                // dispatch body.
                .expect("dispatcher sender lives through dispatch")
                .clone();
            let job = TrainJob {
                windows: RawWindows::of(windows),
                labels: RawLabels::of(labels),
                range: idx * chunk..((idx + 1) * chunk).min(windows.len()),
                chunk: idx,
                classes: self.counters.len(),
                done,
            };
            if self.pool.senders[idx - 1].send(job).is_ok() {
                drain.outstanding += 1;
            } else {
                unsent = unsent.or(Some(idx));
            }
        }
        drain.tx = None;
        // The calling thread works chunk 0 straight into the session
        // counters (merge order is irrelevant: counts are commutative).
        let mut first_error = windows[..chunk]
            .iter()
            .zip(&labels[..chunk])
            .try_for_each(|(w, &l)| self.train_inline(w, l))
            .err()
            .or_else(|| {
                unsent.map(|chunk| BackendError::WorkerLost {
                    chunk,
                    panic: "worker thread terminated before reporting".into(),
                })
            });
        let mut lost = 0;
        while drain.outstanding > 0 {
            // A recv error means a worker died mid-job without reporting
            // (all senders gone, so no worker still sees the batch).
            let Ok((_, result)) = drain.rx.recv() else {
                lost = drain.outstanding;
                drain.outstanding = 0;
                break;
            };
            drain.outstanding -= 1;
            match result {
                Ok(partials) => {
                    for (class, partial) in partials.iter().enumerate() {
                        if !partial.is_empty() {
                            self.counters[class].merge(partial);
                            self.stale[class] = true;
                        }
                    }
                }
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        if lost > 0 {
            first_error = first_error.or(Some(BackendError::WorkerLost {
                chunk: 0,
                panic: format!("{lost} training worker(s) terminated before reporting"),
            }));
        }
        match first_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn update_online(
        &mut self,
        window: &[Vec<u16>],
        label: usize,
    ) -> Result<Verdict, BackendError> {
        validate_label(label, self.counters.len())?;
        self.enc.encode_with(window, &mut self.scratch)?;
        self.refresh_prototypes();
        let query = &self.scratch.query;
        let mut distances = Vec::with_capacity(self.prototypes.len());
        distances.extend(self.prototypes.iter().map(|p| p.hamming(query)));
        let class = argmin(&distances);
        let verdict = Verdict {
            class,
            distances,
            query: query.to_binary(),
            cycles: None,
            source: VerdictSource::Scan,
        };
        // Incremental adaptation: one sideways addition + one vectorized
        // re-threshold of this class only.
        self.counters[label].add(&self.scratch.query);
        self.counters[label].majority_seeded_into(&self.ties[label], &mut self.prototypes[label]);
        self.stale[label] = false;
        Ok(verdict)
    }

    fn examples(&self, class: usize) -> u32 {
        self.counters[class].len()
    }

    fn finalize(&mut self) -> Result<HdModel, BackendError> {
        self.refresh_prototypes();
        HdModel::new(
            self.spec.cim().clone(),
            self.spec.im().clone(),
            self.prototypes.iter().map(Hv64::to_binary).collect(),
            self.spec.ngram(),
        )
    }

    fn reset(&mut self) {
        for (counter, (prototype, stale)) in self
            .counters
            .iter_mut()
            .zip(self.prototypes.iter_mut().zip(&mut self.stale))
        {
            counter.clear();
            *prototype = Hv64::zeros(counter.n_words32());
            *stale = false;
        }
    }

    fn into_serving(mut self: Box<Self>) -> Result<Box<dyn BackendSession>, BackendError> {
        let model = self.finalize()?;
        self.backend.prepare(&model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GoldenBackend;
    use crate::layout::AccelParams;
    use hdc::rng::Xoshiro256PlusPlus;

    fn random_windows(
        params: &AccelParams,
        samples: usize,
        count: usize,
        seed: u64,
    ) -> Vec<Vec<Vec<u16>>> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (0..samples)
                    .map(|_| {
                        (0..params.channels)
                            .map(|_| (rng.next_u32() & 0xffff) as u16)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// A session with a real worker pool of the given size, regardless
    /// of how many CPUs the test host has — the pool path must be
    /// exercised even on single-CPU machines.
    fn pooled_session(backend: FastBackend, model: &HdModel, participants: usize) -> FastSession {
        backend.prepare_with_participants(model, participants)
    }

    /// The decisive property: fast == golden, bit for bit, across
    /// random shapes and inputs.
    #[test]
    fn bit_identical_to_golden_across_shapes() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xFA57_BACC);
        for case in 0..24 {
            let params = AccelParams {
                n_words: 1 + rng.next_below(24) as usize,
                channels: 1 + rng.next_below(8) as usize,
                levels: 2 + rng.next_below(28) as usize,
                ngram: 1 + rng.next_below(4) as usize,
                classes: 2 + rng.next_below(5) as usize,
            };
            let model = HdModel::random(&params, rng.next_u64());
            let samples = params.ngram + rng.next_below(4) as usize;
            let windows = random_windows(&params, samples, 6, rng.next_u64());
            let mut golden = GoldenBackend.prepare(&model).unwrap();
            let mut fast = FastBackend::with_threads(3).prepare(&model).unwrap();
            let expected = golden.classify_batch(&windows).unwrap();
            let got = fast.classify_batch(&windows).unwrap();
            assert_eq!(got, expected, "case {case} with {params:?}");
        }
    }

    /// The pool path itself (forced fan-out, real worker threads) is
    /// bit-identical to the inline path and to golden.
    #[test]
    fn worker_pool_path_matches_golden_and_inline() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x9001_1234);
        for case in 0..6 {
            let params = AccelParams {
                n_words: 1 + rng.next_below(24) as usize,
                channels: 1 + rng.next_below(6) as usize,
                levels: 2 + rng.next_below(20) as usize,
                ngram: 1 + rng.next_below(3) as usize,
                classes: 2 + rng.next_below(5) as usize,
            };
            let model = HdModel::random(&params, rng.next_u64());
            let samples = params.ngram + rng.next_below(4) as usize;
            // Big enough that a 4-participant session genuinely fans out.
            let windows = random_windows(
                &params,
                samples,
                4 * MIN_WINDOWS_PER_WORKER + 3,
                rng.next_u64(),
            );
            let mut golden = GoldenBackend.prepare(&model).unwrap();
            let mut pooled = pooled_session(FastBackend::with_threads(4), &model, 4);
            assert_eq!(pooled.fan_out(windows.len()), 4, "must exercise the pool");
            let expected = golden.classify_batch(&windows).unwrap();
            let got = pooled.classify_batch(&windows).unwrap();
            assert_eq!(got, expected, "case {case} with {params:?}");
        }
    }

    /// One session, many batches: the persistent pool and its warm
    /// per-worker arenas must not leak state between batches (varying
    /// batch sizes cross the inline/fan-out cutover repeatedly).
    #[test]
    fn pool_is_reusable_across_batches_of_varying_size() {
        let params = AccelParams {
            n_words: 12,
            ngram: 2,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 88);
        let mut golden = GoldenBackend.prepare(&model).unwrap();
        let mut pooled = pooled_session(FastBackend::with_threads(3), &model, 3);
        for (round, count) in [40usize, 1, 25, 3, 64, 0, 17].iter().enumerate() {
            let windows = random_windows(&params, 4, *count, 500 + round as u64);
            let expected = golden.classify_batch(&windows).unwrap();
            let got = pooled.classify_batch(&windows).unwrap();
            assert_eq!(got, expected, "round {round} with {count} windows");
        }
    }

    /// Panic isolation on the serving pool, on every SIMD level: a job
    /// that panics inside a worker (an out-of-range chunk crafted
    /// straight at the worker's job channel) comes back as a typed
    /// [`BackendError::WorkerLost`], the containment counter ticks, and
    /// the *same* worker keeps serving subsequent batches
    /// bit-identically to golden.
    #[test]
    fn contained_worker_panic_surfaces_as_worker_lost_and_pool_survives() {
        use hdc::simd::Simd;
        crate::backend::pool::silence_expected_panics();
        let params = AccelParams {
            n_words: 6,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 21);
        let mut golden = GoldenBackend.prepare(&model).unwrap();
        let windows = random_windows(&params, 3, 4, 77);
        let batch = random_windows(&params, 3, 2 * MIN_WINDOWS_PER_WORKER, 78);
        let expected = golden.classify_batch(&batch).unwrap();
        let restore = Simd::active();
        for level in Simd::available() {
            Simd::set_active(level);
            let mut session = pooled_session(FastBackend::with_threads(2), &model, 2);
            let (done_tx, done_rx) = channel();
            session.pool.senders[0]
                .send(ClassifyJob {
                    windows: RawWindows::of(&windows),
                    range: 0..windows.len() + 9,
                    chunk: 1,
                    done: done_tx,
                })
                .unwrap();
            let (chunk, result) = done_rx.recv().unwrap();
            assert_eq!(chunk, 1, "{level:?}");
            match result {
                Err(BackendError::WorkerLost { chunk: 1, panic }) => {
                    assert!(panic.contains("out of range"), "{level:?}: {panic}");
                }
                other => panic!("{level:?}: expected WorkerLost, got {other:?}"),
            }
            assert_eq!(session.caught.load(Ordering::Relaxed), 1, "{level:?}");
            // Same pool, same worker thread: fanned batches still work.
            assert_eq!(session.fan_out(batch.len()), 2);
            assert_eq!(
                session.classify_batch(&batch).unwrap(),
                expected,
                "{level:?}: verdicts after a contained panic"
            );
        }
        Simd::set_active(restore);
    }

    /// Panic isolation on the training pool: the worker rebuilds its
    /// arena after a contained panic and later batches still train
    /// bit-identically to golden.
    #[test]
    fn contained_training_panic_surfaces_as_worker_lost_and_session_recovers() {
        crate::backend::pool::silence_expected_panics();
        let params = AccelParams {
            n_words: 6,
            ..AccelParams::emg_default()
        };
        let spec = TrainSpec::random(&params, 31);
        let mut session = FastBackend::with_threads(2)
            .begin_training_with_participants(&spec, 2)
            .unwrap();
        let windows = random_windows(&params, 3, 4, 91);
        let labels = vec![0usize; windows.len()];
        let (done_tx, done_rx) = channel();
        session.pool.senders[0]
            .send(TrainJob {
                windows: RawWindows::of(&windows),
                labels: RawLabels::of(&labels),
                range: 0..windows.len() + 5,
                chunk: 1,
                classes: spec.classes(),
                done: done_tx,
            })
            .unwrap();
        let (chunk, result) = done_rx.recv().unwrap();
        assert_eq!(chunk, 1);
        assert!(matches!(
            result,
            Err(BackendError::WorkerLost { chunk: 1, .. })
        ));
        assert_eq!(session.caught.load(Ordering::Relaxed), 1);
        // The failed job accumulated nothing; a clean fanned batch now
        // matches sequential golden training exactly.
        let count = 2 * MIN_WINDOWS_PER_WORKER;
        let batch = random_windows(&params, 3, count, 92);
        let labels: Vec<usize> = (0..count).map(|i| i % spec.classes()).collect();
        session.train_batch(&batch, &labels).unwrap();
        let mut golden = GoldenBackend.begin_training(&spec).unwrap();
        golden.train_batch(&batch, &labels).unwrap();
        assert_eq!(
            session.finalize().unwrap().prototypes(),
            golden.finalize().unwrap().prototypes()
        );
    }

    /// A chunk whose job cannot be handed to its worker (the worker's
    /// job channel is closed) fails the batch with that chunk's typed
    /// `WorkerLost`, for classification and training alike; the
    /// classification output stays untouched.
    #[test]
    fn unsendable_chunk_fails_with_its_worker_lost() {
        let params = AccelParams {
            n_words: 6,
            ..AccelParams::emg_default()
        };
        let batch = random_windows(&params, 3, 2 * MIN_WINDOWS_PER_WORKER, 79);
        let labels = random_labels(batch.len(), params.classes, 80);

        let model = HdModel::random(&params, 23);
        let mut session = pooled_session(FastBackend::with_threads(2), &model, 2);
        session.pool.senders[0] = channel().0;
        let mut out = Vec::new();
        assert!(matches!(
            session.classify_batch_into(&batch, &mut out),
            Err(BackendError::WorkerLost { chunk: 1, .. })
        ));
        assert!(out.is_empty());

        let spec = TrainSpec::random(&params, 23);
        let mut training = pooled_training(FastBackend::with_threads(2), &spec, 2);
        training.pool.senders[0] = channel().0;
        assert!(matches!(
            training.train_batch(&batch, &labels),
            Err(BackendError::WorkerLost { chunk: 1, .. })
        ));
    }

    /// The shape of the Miri-sized handoff tests below: tiny enough for
    /// the interpreter, and still two-gram windows over several
    /// channels and classes.
    const HANDOFF_PARAMS: AccelParams = AccelParams {
        n_words: 2,
        channels: 3,
        ngram: 2,
        classes: 3,
        levels: 4,
    };

    /// The borrow-erased `RawWindows` handoff, walked at a Miri-sized
    /// batch: a 2-participant session ships the second chunk to its real
    /// worker thread whatever the host's (or Miri's) CPU count, and the
    /// spliced verdicts must still match golden.
    #[test]
    fn classify_handoff_is_sound_and_exact() {
        let params = HANDOFF_PARAMS;
        let model = HdModel::random(&params, 0x00D1_5EED);
        let batch = random_windows(&params, params.ngram, 2 * MIN_WINDOWS_PER_WORKER, 5);
        let expected = GoldenBackend
            .prepare(&model)
            .unwrap()
            .classify_batch(&batch)
            .unwrap();
        let mut session = FastBackend::with_threads(2).prepare_with_participants(&model, 2);
        assert_eq!(session.fan_out(batch.len()), 2, "must reach the worker");
        assert_eq!(session.classify_batch(&batch).unwrap(), expected);
    }

    /// The `RawWindows` + `RawLabels` handoff of batch training, walked
    /// the same way: the worker's counter partials merge into prototypes
    /// bit-identical to golden training.
    #[test]
    fn training_handoff_is_sound_and_exact() {
        use crate::backend::TrainableBackend as _;
        let params = HANDOFF_PARAMS;
        let spec = TrainSpec::random(&params, 42);
        let count = 2 * MIN_WINDOWS_PER_WORKER;
        let batch = random_windows(&params, params.ngram, count, 0x7EAC_0DE5);
        let labels: Vec<usize> = (0..count).map(|i| i % params.classes).collect();
        let mut golden = GoldenBackend.begin_training(&spec).unwrap();
        golden.train_batch(&batch, &labels).unwrap();
        let mut session = FastBackend::with_threads(2)
            .begin_training_with_participants(&spec, 2)
            .unwrap();
        assert_eq!(
            fan_out_for(&session.pool, count, MIN_WINDOWS_PER_WORKER),
            2,
            "must reach the worker"
        );
        session.train_batch(&batch, &labels).unwrap();
        assert_eq!(
            session.finalize().unwrap().prototypes(),
            golden.finalize().unwrap().prototypes()
        );
    }

    /// The adaptive cutover: small batches stay inline, large batches
    /// use every participant, and nobody gets less than the minimum
    /// chunk.
    #[test]
    fn fan_out_heuristic_scales_with_batch_size() {
        let params = AccelParams {
            n_words: 4,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 5);
        let session = pooled_session(FastBackend::with_threads(4), &model, 4);
        assert_eq!(session.pool.workers(), 3);
        assert_eq!(session.fan_out(0), 1);
        assert_eq!(session.fan_out(1), 1);
        assert_eq!(session.fan_out(MIN_WINDOWS_PER_WORKER), 1);
        assert_eq!(session.fan_out(2 * MIN_WINDOWS_PER_WORKER), 2);
        assert_eq!(session.fan_out(4 * MIN_WINDOWS_PER_WORKER), 4);
        assert_eq!(session.fan_out(100 * MIN_WINDOWS_PER_WORKER), 4);
        // A single-participant session never fans out.
        let solo = pooled_session(FastBackend::with_threads(1), &model, 1);
        assert_eq!(solo.pool.workers(), 0);
        assert_eq!(solo.fan_out(usize::MAX), 1);
    }

    /// Adversarial tie-heavy AM: identical and near-identical prototypes
    /// force exact ties, which must resolve to the first minimum, with
    /// every distance equal to golden's.
    #[test]
    fn full_scan_survives_tie_heavy_prototype_sets() {
        let params = AccelParams {
            n_words: 8,
            channels: 4,
            levels: 8,
            ngram: 2,
            classes: 6,
        };
        let mut base = HdModel::random(&params, 77);
        let windows = random_windows(&params, 4, 24, 3);
        // Window 0's own query becomes prototype 0, duplicated into
        // slots 1 and 3, and slot 4 is one bit off it: window 0 ties
        // three ways at distance 0, and every window's distances to
        // slots 0, 1 and 3 collide exactly.
        let query = GoldenBackend
            .prepare(&base)
            .unwrap()
            .classify(&windows[0])
            .unwrap()
            .query;
        let mut rigged = base.prototypes().to_vec();
        for slot in [0, 1, 3] {
            rigged[slot] = query.clone();
        }
        let mut nearly = query;
        nearly.set_bit(17, !nearly.bit(17));
        rigged[4] = nearly;
        base = HdModel::new(base.cim().clone(), base.im().clone(), rigged, params.ngram).unwrap();
        let mut golden = GoldenBackend.prepare(&base).unwrap();
        let mut fast = pooled_session(FastBackend::with_threads(2), &base, 2);
        let expected = golden.classify_batch(&windows).unwrap();
        assert_eq!(expected[0].class, 0, "the three-way tie goes to slot 0");
        assert_eq!(expected[0].distances[..2], [0, 0]);
        let got = fast.classify_batch(&windows).unwrap();
        for (i, (f, g)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(f, g, "window {i}: tie-break order or a distance diverged");
        }
    }

    #[test]
    fn batch_order_is_preserved_across_participant_counts() {
        let params = AccelParams {
            n_words: 16,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 11);
        let windows = random_windows(&params, 1, 37, 5);
        let mut one = FastBackend::with_threads(1).prepare(&model).unwrap();
        let sequential = one.classify_batch(&windows).unwrap();
        for participants in [2usize, 4, 8] {
            let mut many = pooled_session(
                FastBackend::with_threads(participants),
                &model,
                participants,
            );
            assert_eq!(
                many.classify_batch(&windows).unwrap(),
                sequential,
                "{participants} participants"
            );
        }
    }

    /// The session arena must not leak state between windows of
    /// different lengths (growing and shrinking windows reuse slots),
    /// and holds spatial hypervectors only for N-gram windows: unigram
    /// windows never write one.
    #[test]
    fn scratch_reuse_across_varying_window_lengths() {
        for ngram in [1, 2] {
            let params = AccelParams {
                n_words: 12,
                ngram,
                ..AccelParams::emg_default()
            };
            let model = HdModel::random(&params, 31);
            let mut golden = GoldenBackend.prepare(&model).unwrap();
            let mut fast = pooled_session(FastBackend::with_threads(1), &model, 1);
            // One session, windows of wildly varying lengths, interleaved.
            let lengths = [7usize, 2, 5, 2, 9, 3, 2, 8];
            for (i, len) in lengths.iter().enumerate() {
                let w = random_windows(&params, *len, 1, 1000 + i as u64).remove(0);
                let g = golden.classify(&w).unwrap();
                let f = fast.classify(&w).unwrap();
                assert_eq!(f, g, "{ngram}-grams: window {i} of {len} samples");
            }
            let spatials = if ngram == 1 { 0 } else { 9 };
            assert_eq!(fast.scratch.grams.len(), spatials, "{ngram}-grams");
        }
    }

    #[test]
    fn batch_surfaces_input_errors_inline_and_pooled() {
        let params = AccelParams {
            n_words: 8,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 2);
        // Inline path (batch below the fan-out cutover).
        let mut session = FastBackend::with_threads(4).prepare(&model).unwrap();
        let mut windows = random_windows(&params, 1, 8, 3);
        windows[5] = vec![vec![0u16; 3]]; // wrong channel count
        assert!(matches!(
            session.classify_batch(&windows),
            Err(BackendError::Input(_))
        ));
        // Pool path: the bad window sits in a worker's chunk.
        let mut pooled = pooled_session(FastBackend::with_threads(4), &model, 4);
        let mut windows = random_windows(&params, 1, 4 * MIN_WINDOWS_PER_WORKER, 3);
        let last = windows.len() - 1;
        windows[last] = vec![vec![0u16; 3]];
        assert!(matches!(
            pooled.classify_batch(&windows),
            Err(BackendError::Input(_))
        ));
        // The pool survives the failed batch and still classifies.
        let windows = random_windows(&params, 1, 4 * MIN_WINDOWS_PER_WORKER, 9);
        assert_eq!(
            pooled.classify_batch(&windows).unwrap().len(),
            windows.len()
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let params = AccelParams {
            n_words: 8,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 2);
        let mut session = FastBackend::new().prepare(&model).unwrap();
        assert!(session.classify_batch(&[]).unwrap().is_empty());
    }

    /// The training twin of `empty_batch_is_fine`: an empty training
    /// batch is a no-op on both backends — no panic, no counter change.
    #[test]
    fn empty_train_batch_is_fine_on_both_backends() {
        use crate::backend::TrainableBackend as _;
        let params = AccelParams {
            n_words: 8,
            ..AccelParams::emg_default()
        };
        let spec = TrainSpec::random(&params, 2);
        let sessions: Vec<Box<dyn TrainingSession>> = vec![
            GoldenBackend.begin_training(&spec).unwrap(),
            FastBackend::with_threads(4).begin_training(&spec).unwrap(),
        ];
        for mut session in sessions {
            session.train_batch(&[], &[]).unwrap();
            for class in 0..params.classes {
                assert_eq!(session.examples(class), 0, "class {class}");
            }
            // An empty batch between real batches must not disturb state.
            let windows = random_windows(&params, 1, 4, 3);
            let labels = random_labels(4, params.classes, 4);
            session.train_batch(&windows, &labels).unwrap();
            session.train_batch(&[], &[]).unwrap();
            session.finalize().unwrap();
        }
    }

    /// `update_online` against a completely untrained session (and
    /// against classes that never saw an example) returns cleanly on
    /// both backends, with identical verdicts and identical adapted
    /// prototypes.
    #[test]
    fn update_online_on_untrained_session_is_fine_on_both_backends() {
        use crate::backend::TrainableBackend as _;
        let params = AccelParams {
            n_words: 8,
            ..AccelParams::emg_default()
        };
        let spec = TrainSpec::random(&params, 7);
        let mut golden = GoldenBackend.begin_training(&spec).unwrap();
        let mut fast = FastBackend::with_threads(2).begin_training(&spec).unwrap();
        let window = &random_windows(&params, 2, 1, 11)[0];
        // First-ever call on a fresh session: all prototypes are still
        // zero, the verdict is well-defined (class 0 wins ties).
        let g = golden.update_online(window, 1).unwrap();
        let f = fast.update_online(window, 1).unwrap();
        assert_eq!(f, g, "untrained verdicts");
        assert_eq!(g.class, 0, "all-zero prototypes tie to class 0");
        // Classes 0 and 2 still have zero examples; finalize keeps their
        // prototypes all-zero, exactly like the golden AM.
        let gm = golden.finalize().unwrap();
        let fm = fast.finalize().unwrap();
        assert_eq!(fm.prototypes(), gm.prototypes(), "adapted prototypes");
        assert_eq!(golden.examples(0), 0);
        assert_eq!(fast.examples(0), 0);
        assert!(
            fm.prototypes()[0].words().iter().all(|&w| w == 0),
            "untrained class keeps an all-zero prototype"
        );
    }

    /// Oversubscription: sessions with far more pool participants than
    /// the batch has windows must stay correct (the adaptive cutover
    /// keeps tiny batches inline; medium batches use only part of the
    /// pool) — for classification and training alike.
    #[test]
    fn oversubscribed_pool_handles_small_batches() {
        use crate::backend::TrainableBackend as _;
        let params = AccelParams {
            n_words: 5, // odd u32 count: the packed tail is a half word
            ngram: 2,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 21);
        let spec = TrainSpec::random(&params, 21);
        let participants = 8;
        let mut golden = GoldenBackend.prepare(&model).unwrap();
        let mut pooled = pooled_session(
            FastBackend::with_threads(participants),
            &model,
            participants,
        );
        let mut golden_train = GoldenBackend.begin_training(&spec).unwrap();
        let mut pooled_train =
            pooled_training(FastBackend::with_threads(participants), &spec, participants);
        // 0 and 1: degenerate; 3: fewer windows than workers; 2*MIN:
        // fans out to 2 of 8 participants; 2*MIN+1: uneven tail chunk.
        for (round, count) in [
            0usize,
            1,
            3,
            2 * MIN_WINDOWS_PER_WORKER,
            2 * MIN_WINDOWS_PER_WORKER + 1,
        ]
        .iter()
        .enumerate()
        {
            let windows = random_windows(&params, 3, *count, 700 + round as u64);
            let labels = random_labels(*count, params.classes, 800 + round as u64);
            assert!(
                pooled.fan_out(*count) <= participants,
                "round {round}: no more chunks than participants"
            );
            assert_eq!(
                pooled.classify_batch(&windows).unwrap(),
                golden.classify_batch(&windows).unwrap(),
                "round {round}: classification with {count} windows"
            );
            golden_train.train_batch(&windows, &labels).unwrap();
            pooled_train.train_batch(&windows, &labels).unwrap();
            assert_eq!(
                pooled_train.finalize().unwrap().prototypes(),
                golden_train.finalize().unwrap().prototypes(),
                "round {round}: training with {count} windows"
            );
        }
    }

    /// The into-buffer batch entry point appends in order (across
    /// repeated calls on one warm buffer), matches `classify_batch`
    /// exactly, and leaves the buffer untouched on error — on the
    /// inline and the pooled path alike.
    #[test]
    fn classify_batch_into_appends_and_rolls_back_on_error() {
        let params = AccelParams {
            n_words: 8,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 6);
        let mut pooled = pooled_session(FastBackend::with_threads(4), &model, 4);
        let small = random_windows(&params, 1, 3, 1); // inline path
        let large = random_windows(&params, 1, 4 * MIN_WINDOWS_PER_WORKER, 2); // pool path
        let mut out = Vec::new();
        pooled.classify_batch_into(&small, &mut out).unwrap();
        pooled.classify_batch_into(&large, &mut out).unwrap();
        let mut expected = pooled.classify_batch(&small).unwrap();
        expected.extend(pooled.classify_batch(&large).unwrap());
        assert_eq!(out, expected, "appended across calls, in order");
        // Errors roll the buffer back to its pre-call state, from both
        // paths.
        for count in [3usize, 4 * MIN_WINDOWS_PER_WORKER] {
            let mut bad = random_windows(&params, 1, count, 3);
            let last = bad.len() - 1;
            bad[last] = vec![vec![0u16; 3]]; // wrong channel count
            let before = out.clone();
            assert!(matches!(
                pooled.classify_batch_into(&bad, &mut out),
                Err(BackendError::Input(_))
            ));
            assert_eq!(out, before, "{count} windows: buffer unchanged on error");
        }
    }

    /// `try_with_threads` is the fallible twin of `with_threads`: same
    /// backend on valid input, `BackendError::Config` instead of a panic
    /// on zero.
    #[test]
    fn try_with_threads_rejects_zero_without_panicking() {
        assert!(matches!(
            FastBackend::try_with_threads(0),
            Err(BackendError::Config(_))
        ));
        let backend = FastBackend::try_with_threads(3).unwrap();
        assert_eq!(backend.threads(), 3);
        assert_eq!(backend.cache(), None);
    }

    /// Dropping a session joins its workers without hanging, even when
    /// jobs ran beforehand.
    #[test]
    fn dropping_a_session_shuts_the_pool_down() {
        let params = AccelParams {
            n_words: 8,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 7);
        let mut pooled = pooled_session(FastBackend::with_threads(4), &model, 4);
        let windows = random_windows(&params, 1, 4 * MIN_WINDOWS_PER_WORKER, 1);
        pooled.classify_batch(&windows).unwrap();
        drop(pooled); // must not deadlock or leak threads
    }

    /// Random labels for a training batch.
    fn random_labels(count: usize, classes: usize, seed: u64) -> Vec<usize> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        (0..count)
            .map(|_| rng.next_below(classes as u32) as usize)
            .collect()
    }

    /// A training session with a real worker pool of the given size,
    /// regardless of host CPU count.
    fn pooled_training(
        backend: FastBackend,
        spec: &TrainSpec,
        participants: usize,
    ) -> FastTrainingSession {
        backend
            .begin_training_with_participants(spec, participants)
            .unwrap()
    }

    /// The decisive training property: fast-trained prototypes (inline
    /// and through the real worker pool) are bit-identical to golden
    /// training across random shapes, inputs, and splits.
    #[test]
    fn training_is_bit_identical_to_golden_across_shapes() {
        use crate::backend::TrainableBackend as _;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x7A41_0001);
        for case in 0..10 {
            let params = AccelParams {
                n_words: 1 + rng.next_below(24) as usize,
                channels: 1 + rng.next_below(6) as usize,
                levels: 2 + rng.next_below(20) as usize,
                ngram: 1 + rng.next_below(3) as usize,
                classes: 2 + rng.next_below(5) as usize,
            };
            let spec = TrainSpec::random(&params, rng.next_u64());
            let samples = params.ngram + rng.next_below(3) as usize;
            let count = 4 * MIN_WINDOWS_PER_WORKER + rng.next_below(9) as usize;
            let windows = random_windows(&params, samples, count, rng.next_u64());
            let labels = random_labels(count, params.classes, rng.next_u64());

            let mut golden = GoldenBackend.begin_training(&spec).unwrap();
            golden.train_batch(&windows, &labels).unwrap();
            let expected = golden.finalize().unwrap();

            // Inline (single participant) …
            let mut inline = pooled_training(FastBackend::with_threads(1), &spec, 1);
            inline.train_batch(&windows, &labels).unwrap();
            let got_inline = inline.finalize().unwrap();
            assert_eq!(
                got_inline.prototypes(),
                expected.prototypes(),
                "case {case} inline with {params:?}"
            );

            // … and through a genuinely fanned-out pool.
            let mut pooled = pooled_training(FastBackend::with_threads(4), &spec, 4);
            assert_eq!(
                fan_out_for(&pooled.pool, count, MIN_WINDOWS_PER_WORKER),
                4,
                "must exercise pool"
            );
            pooled.train_batch(&windows, &labels).unwrap();
            let got_pooled = pooled.finalize().unwrap();
            assert_eq!(
                got_pooled.prototypes(),
                expected.prototypes(),
                "case {case} pooled with {params:?}"
            );
            for class in 0..params.classes {
                assert_eq!(
                    pooled.examples(class),
                    labels.iter().filter(|&&l| l == class).count() as u32,
                    "case {case} class {class}: example count"
                );
            }
        }
    }

    /// Adversarial tie-rigged training: duplicated and complemented
    /// windows force exact counter ties, which must resolve through the
    /// same seeded tie vectors as the golden associative memory.
    #[test]
    fn training_ties_resolve_identically_to_golden() {
        use crate::backend::TrainableBackend as _;
        let params = AccelParams {
            n_words: 8,
            channels: 4,
            levels: 6,
            ngram: 1,
            classes: 3,
        };
        let spec = TrainSpec::random(&params, 0x7E11);
        // Two distinct windows per class, each added an equal number of
        // times: every component where their encodings differ is an
        // exact tie.
        let a = random_windows(&params, 2, 1, 100).remove(0);
        let b = random_windows(&params, 2, 1, 200).remove(0);
        let mut windows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3 {
            for _ in 0..2 + class {
                windows.push(a.clone());
                labels.push(class);
                windows.push(b.clone());
                labels.push(class);
            }
        }
        let mut golden = GoldenBackend.begin_training(&spec).unwrap();
        golden.train_batch(&windows, &labels).unwrap();
        let expected = golden.finalize().unwrap();
        let mut fast = pooled_training(FastBackend::with_threads(4), &spec, 4);
        fast.train_batch(&windows, &labels).unwrap();
        let got = fast.finalize().unwrap();
        assert_eq!(got.prototypes(), expected.prototypes());
    }

    /// One training session, many batches and online updates, crossing
    /// the inline/fan-out cutover: state accumulates exactly like the
    /// golden reference, and `reset` starts over cleanly.
    #[test]
    fn training_session_accumulates_and_resets_like_golden() {
        use crate::backend::TrainableBackend as _;
        let params = AccelParams {
            n_words: 12,
            ngram: 2,
            ..AccelParams::emg_default()
        };
        let spec = TrainSpec::random(&params, 88);
        let mut golden = GoldenBackend.begin_training(&spec).unwrap();
        let mut fast = pooled_training(FastBackend::with_threads(3), &spec, 3);
        for (round, count) in [40usize, 1, 25, 3, 64, 0, 17].iter().enumerate() {
            let windows = random_windows(&params, 4, *count, 600 + round as u64);
            let labels = random_labels(*count, params.classes, 900 + round as u64);
            golden.train_batch(&windows, &labels).unwrap();
            fast.train_batch(&windows, &labels).unwrap();
            assert_eq!(
                fast.finalize().unwrap().prototypes(),
                golden.finalize().unwrap().prototypes(),
                "round {round} with {count} windows"
            );
        }
        // Online updates after batch training: verdicts and adapted
        // prototypes stay identical.
        let stream = random_windows(&params, 4, 12, 4_321);
        let stream_labels = random_labels(12, params.classes, 1_234);
        for (i, (w, &l)) in stream.iter().zip(&stream_labels).enumerate() {
            let g = golden.update_online(w, l).unwrap();
            let f = fast.update_online(w, l).unwrap();
            assert_eq!(f, g, "update {i}");
        }
        assert_eq!(
            fast.finalize().unwrap().prototypes(),
            golden.finalize().unwrap().prototypes(),
            "after online updates"
        );
        // Reset and retrain from scratch.
        fast.reset();
        golden.reset();
        for class in 0..params.classes {
            assert_eq!(fast.examples(class), 0, "class {class} after reset");
        }
        let windows = random_windows(&params, 4, 20, 77);
        let labels = random_labels(20, params.classes, 78);
        golden.train_batch(&windows, &labels).unwrap();
        fast.train_batch(&windows, &labels).unwrap();
        assert_eq!(
            fast.finalize().unwrap().prototypes(),
            golden.finalize().unwrap().prototypes(),
            "after reset"
        );
    }

    /// `into_serving` classifies exactly like preparing the finalized
    /// model by hand — the one-shot train → deploy path.
    #[test]
    fn training_hands_off_to_bit_identical_serving_session() {
        use crate::backend::TrainableBackend as _;
        let params = AccelParams {
            n_words: 16,
            ..AccelParams::emg_default()
        };
        let spec = TrainSpec::random(&params, 3);
        let windows = random_windows(&params, 3, 40, 5);
        let labels = random_labels(40, params.classes, 6);
        let mut trainer = FastBackend::with_threads(2).begin_training(&spec).unwrap();
        trainer.train_batch(&windows, &labels).unwrap();
        let model = trainer.finalize().unwrap();
        let mut direct = trainer.into_serving().unwrap();
        let mut golden = GoldenBackend.prepare(&model).unwrap();
        let probes = random_windows(&params, 3, 10, 9);
        assert_eq!(
            direct.classify_batch(&probes).unwrap(),
            golden.classify_batch(&probes).unwrap()
        );
    }

    /// Training surfaces bad labels and malformed windows from both the
    /// inline and the pooled path, and the pool survives the failure.
    #[test]
    fn training_surfaces_input_errors_inline_and_pooled() {
        let params = AccelParams {
            n_words: 8,
            ..AccelParams::emg_default()
        };
        let spec = TrainSpec::random(&params, 2);
        let mut session = pooled_training(FastBackend::with_threads(4), &spec, 4);
        // Inline path.
        assert!(matches!(
            session.train(&random_windows(&params, 1, 1, 1)[0], 99),
            Err(BackendError::Input(_))
        ));
        assert!(matches!(
            session.train(&[vec![0u16; 3]], 0),
            Err(BackendError::Input(_))
        ));
        // Length mismatch.
        assert!(matches!(
            session.train_batch(&random_windows(&params, 1, 4, 2), &[0, 1]),
            Err(BackendError::Input(_))
        ));
        // Pool path: the bad window sits in a worker's chunk.
        let mut windows = random_windows(&params, 1, 4 * MIN_WINDOWS_PER_WORKER, 3);
        let labels = random_labels(windows.len(), params.classes, 4);
        let last = windows.len() - 1;
        windows[last] = vec![vec![0u16; 3]];
        assert!(matches!(
            session.train_batch(&windows, &labels),
            Err(BackendError::Input(_))
        ));
        // The pool survives and still trains correctly afterwards.
        session.reset();
        let windows = random_windows(&params, 1, 4 * MIN_WINDOWS_PER_WORKER, 9);
        let labels = random_labels(windows.len(), params.classes, 10);
        session.train_batch(&windows, &labels).unwrap();
        use crate::backend::TrainableBackend as _;
        let mut golden = GoldenBackend.begin_training(&spec).unwrap();
        golden.train_batch(&windows, &labels).unwrap();
        assert_eq!(
            session.finalize().unwrap().prototypes(),
            golden.finalize().unwrap().prototypes()
        );
    }

    #[test]
    fn backend_names_reflect_scan_policy() {
        let capacity = NonZeroUsize::new(8).unwrap();
        assert_eq!(FastBackend::new().name(), "fast");
        assert_eq!(FastBackend::new().cache(), None);
        let cached = FastBackend::new().with_cache(capacity);
        assert_eq!(cached.name(), "fast-cached");
        assert_eq!(cached.cache(), Some(capacity));
    }

    /// A repeated window is answered from the cache (source says so,
    /// counters tick) and the replayed verdict equals the scanned one
    /// apart from provenance.
    #[test]
    fn query_cache_replays_identical_verdicts_and_counts() {
        let params = AccelParams {
            n_words: 9,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 13);
        let mut session = FastBackend::with_threads(1)
            .with_cache(NonZeroUsize::new(4).unwrap())
            .prepare(&model)
            .unwrap();
        let monitor = session.cache_monitor().unwrap();
        let windows = random_windows(&params, 3, 2, 17);
        let first = session.classify(&windows[0]).unwrap();
        assert_eq!(first.source, VerdictSource::Scan);
        let replay = session.classify(&windows[0]).unwrap();
        assert_eq!(replay.source, VerdictSource::CacheHit);
        assert_eq!(replay.class, first.class);
        assert_eq!(replay.distances, first.distances);
        assert_eq!(replay.query, first.query);
        let other = session.classify(&windows[1]).unwrap();
        assert_eq!(other.source, VerdictSource::Scan);
        assert_eq!(monitor.hits(), 1);
        assert_eq!(monitor.misses(), 2);
        assert_eq!(monitor.evictions(), 0);
    }

    /// Filling the cache past capacity evicts the least recently used
    /// entry: the evicted window re-scans, a recently touched one still
    /// replays.
    #[test]
    fn query_cache_evicts_least_recently_used() {
        let params = AccelParams {
            n_words: 5,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 19);
        let mut session = FastBackend::with_threads(1)
            .with_cache(NonZeroUsize::new(2).unwrap())
            .prepare(&model)
            .unwrap();
        let monitor = session.cache_monitor().unwrap();
        let windows = random_windows(&params, 3, 3, 23);
        session.classify(&windows[0]).unwrap(); // miss, cache [0]
        session.classify(&windows[1]).unwrap(); // miss, cache [0, 1]
        session.classify(&windows[0]).unwrap(); // hit, 0 is now newest
        session.classify(&windows[2]).unwrap(); // miss, evicts LRU = 1
        assert_eq!(monitor.evictions(), 1);
        assert_eq!(
            session.classify(&windows[0]).unwrap().source,
            VerdictSource::CacheHit,
            "recently used entry survived the eviction"
        );
        assert_eq!(
            session.classify(&windows[1]).unwrap().source,
            VerdictSource::Scan,
            "least recently used entry was evicted"
        );
    }

    /// Adversarial collision: two different queries engineered onto the
    /// same signature (compensated bit flips in non-sampled words keep
    /// the sampled words and the popcount bucket identical) must never
    /// replay each other's verdicts — the full word compare decides.
    #[test]
    fn query_cache_rejects_signature_collisions() {
        // 8 u64 words → sampled indices 0, 2, 5, 7; words 1 and 3 are
        // free. Flip one bit on in word 1 and one bit off in word 3:
        // same popcount, same sampled words, same signature.
        let a: Vec<u64> = (0..8).map(|i| 0x0123_4567_89ab_cdefu64 ^ i).collect();
        let mut b = a.clone();
        assert_eq!(b[1] & (1 << 4), 0);
        b[1] |= 1 << 4;
        assert_ne!(b[3] & (1 << 5), 0);
        b[3] &= !(1 << 5);
        assert_ne!(a, b);
        assert_eq!(
            query_signature(&a),
            query_signature(&b),
            "the collision must be real for this test to bite"
        );
        let counters = Arc::new(CacheCounters::default());
        let mut cache = QueryCache::new(NonZeroUsize::new(4).unwrap(), Arc::clone(&counters));
        let sig = query_signature(&a);
        cache.insert(sig, &a, 3, vec![9, 8, 7, 0]);
        assert!(
            cache.lookup(query_signature(&b), &b).is_none(),
            "a colliding but different query must miss"
        );
        assert_eq!(
            cache.lookup(sig, &a),
            Some((3, vec![9, 8, 7, 0])),
            "the original query still hits"
        );
        assert_eq!(counters.hits.load(Ordering::Relaxed), 1);
        assert_eq!(counters.misses.load(Ordering::Relaxed), 1);
    }

    /// The signature must depend on the final word — where an odd
    /// `n_words32` keeps its 32-bit tail — at every width, including
    /// widths whose sampled indices collide (n = 1, 2, 3).
    #[test]
    fn query_signature_includes_the_tail_word() {
        for n in [1usize, 2, 3, 4, 7, 8, 157] {
            let a: Vec<u64> = (0..n as u64).map(|i| 0x5555_5555_5555_5555 ^ i).collect();
            let mut b = a.clone();
            // Flip a bit that lives in the valid low 32 bits of the
            // tail word (the only populated half when n_words32 is
            // odd).
            b[n - 1] ^= 1 << 7;
            assert_ne!(
                query_signature(&a),
                query_signature(&b),
                "width {n}: tail word must participate in the signature"
            );
        }
    }

    /// A caching session replays *correct* verdicts under every SIMD
    /// level: identical to an exact session's output apart from the
    /// provenance field, across a stream with repeats.
    #[test]
    fn cached_sessions_stay_correct_under_both_simd_levels() {
        use hdc::simd::Simd;
        let params = AccelParams {
            n_words: 9, // odd: the packed tail word is half-populated
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 37);
        let windows = random_windows(&params, 3, 6, 41);
        // A stream with heavy repetition, crossing the capacity.
        let stream: Vec<usize> = vec![0, 1, 2, 0, 1, 3, 4, 0, 5, 2, 2, 0];
        for level in Simd::available() {
            Simd::set_active(level);
            let mut exact = FastBackend::with_threads(1).prepare(&model).unwrap();
            let mut cached = FastBackend::with_threads(1)
                .with_cache(NonZeroUsize::new(3).unwrap())
                .prepare(&model)
                .unwrap();
            for &i in &stream {
                let e = exact.classify(&windows[i]).unwrap();
                let c = cached.classify(&windows[i]).unwrap();
                assert_eq!(c.class, e.class, "{level:?} window {i}");
                assert_eq!(c.distances, e.distances, "{level:?} window {i}");
                assert_eq!(c.query, e.query, "{level:?} window {i}");
            }
            let monitor = cached.cache_monitor().unwrap();
            assert!(monitor.hits() > 0, "{level:?}: the stream repeats");
            assert!(monitor.evictions() > 0, "{level:?}: capacity 3 < 6 uniques");
        }
        Simd::set_active(Simd::detect());
    }

    /// One-prototype sessions (a detector that only scores the distance
    /// to one learned pattern) return the exact full-scan verdict, with
    /// or without the query cache: class 0 and the true distance.
    #[test]
    fn single_prototype_sessions_scan_full_whatever_the_policy() {
        let params = AccelParams {
            n_words: 6,
            classes: 1,
            ..AccelParams::emg_default()
        };
        let model = HdModel::random(&params, 29);
        let windows = random_windows(&params, 3, 3, 31);
        let mut golden = GoldenBackend.prepare(&model).unwrap();
        let expected: Vec<Verdict> = windows
            .iter()
            .map(|w| golden.classify(w).unwrap())
            .collect();
        for backend in [
            FastBackend::with_threads(1),
            FastBackend::with_threads(1).with_cache(NonZeroUsize::new(2).unwrap()),
        ] {
            let mut session = backend.prepare(&model).unwrap();
            for (w, e) in windows.iter().zip(&expected) {
                let v = session.classify(w).unwrap();
                assert_eq!(v, *e, "{}: single-prototype scan", backend.name());
            }
        }
    }
}
