//! The unified execution-backend layer.
//!
//! PULP-HD's point is that one HD-computing chain (MAP → spatial /
//! temporal encode → associative-memory search) can be lowered onto very
//! different execution substrates and compared apples-to-apples. This
//! module is that seam: [`ExecutionBackend::prepare`] turns a trained
//! [`HdModel`] into a [`BackendSession`], and every session answers
//! [`classify`](BackendSession::classify) /
//! [`classify_batch`](BackendSession::classify_batch) with a [`Verdict`]
//! carrying the predicted class, the per-class Hamming distances, the
//! query hypervector, and — when the substrate measures time — the cycle
//! breakdown.
//!
//! Three substrates ship today:
//!
//! * [`GoldenBackend`] — the `hdc` scalar golden model; the semantic
//!   reference every other backend must match bit for bit.
//! * [`AccelBackend`] — the simulated PULP cluster
//!   ([`AccelChain`](crate::pipeline::AccelChain)); the only backend
//!   that reports cycles. It is a **cycle-accurate simulator**: its
//!   wall-clock is the cost of *simulating* the hardware
//!   instruction by instruction, not a host-throughput figure, so it is
//!   excluded from throughput comparisons (the `accel_sim` row in
//!   `BENCH_throughput.json` is reported for scale only).
//! * [`FastBackend`] — a throughput-oriented pure-Rust engine on
//!   `u64`-packed hypervectors with runtime-dispatched SIMD kernels
//!   ([`hdc::simd::Simd`]: AVX-512 or AVX2/POPCNT when the CPU has
//!   them, portable unrolled fallback otherwise), a zero-allocation
//!   encode hot path (per-thread scratch arena + bit-sliced carry-save
//!   bundling), and batch classification over a persistent
//!   session-owned worker pool with an adaptive single-thread cutover
//!   for small batches. Its associative-memory search is one exact full
//!   scan; an optional query cache ([`FastBackend::with_cache`])
//!   replays the scan of a word-identical recent query.
//!
//! All three produce identical classes, distances, and query
//! hypervectors on identical inputs; `tests/determinism.rs` and
//! `crates/core/tests/prop_equivalence.rs` pin that equivalence on
//! random EMG windows and random chain shapes, with and without the
//! query cache.
//!
//! Parallelism lives in one place: the [`FastBackend`] session's flat
//! worker pool, the host analogue of the paper's one team of cores
//! splitting a batch over one shared memory. Every pool job runs with
//! its panics contained, so a worker panic fails only the affected
//! batch with a typed [`BackendError::WorkerLost`] and the same pool
//! serves the next one.
//!
//! ## Training through the same seam
//!
//! The paper's one-shot training runs the *same* encode chain as
//! classification, so the backend layer expresses it too:
//! [`TrainableBackend::begin_training`] turns a [`TrainSpec`] (seed
//! matrices, class count, tie seed — no prototypes yet) into a
//! [`TrainingSession`] with
//! [`train`](TrainingSession::train) /
//! [`train_batch`](TrainingSession::train_batch) /
//! [`update_online`](TrainingSession::update_online), and hands the
//! result off via [`finalize`](TrainingSession::finalize) (an
//! [`HdModel`] for any backend) or
//! [`into_serving`](TrainingSession::into_serving) (directly into a
//! serving [`BackendSession`]). [`GoldenBackend`] trains through the
//! scalar `hdc::AssociativeMemory` (the reference); [`FastBackend`]
//! accumulates `u64`-packed queries into bit-sliced counter planes
//! (`hdc::hv64::CounterBundler`) over its persistent worker pool, with
//! per-class seeded tie vectors precomputed once — bit-identical
//! trained prototypes at an order of magnitude more throughput.
//!
//! ## Example
//!
//! ```
//! use pulp_hd_core::backend::{ExecutionBackend, FastBackend, GoldenBackend, HdModel};
//! use pulp_hd_core::layout::AccelParams;
//!
//! let params = AccelParams { n_words: 16, ..AccelParams::emg_default() };
//! let model = HdModel::random(&params, 42);
//! let window = vec![vec![100u16, 60_000, 33_000, 8_000]];
//!
//! let mut golden = GoldenBackend.prepare(&model)?;
//! let mut fast = FastBackend::with_threads(2).prepare(&model)?;
//! let a = golden.classify(&window)?;
//! let b = fast.classify(&window)?;
//! assert_eq!(a.class, b.class);
//! assert_eq!(a.distances, b.distances);
//! assert_eq!(a.query, b.query);
//! # Ok::<(), pulp_hd_core::backend::BackendError>(())
//! ```

pub mod accel;
pub mod fast;
pub mod fault;
pub mod golden;
mod pool;

pub use accel::AccelBackend;
pub use fast::{CacheMonitor, FastBackend};
pub use fault::{FaultBackend, FaultKind, FaultPlan, HangRelease};
pub use golden::GoldenBackend;
/// Re-exported so downstream crates (the serve wire codec in
/// particular) can name the query hypervector type carried by
/// [`Verdict`] without depending on `hdc` directly.
pub use hdc::BinaryHv;

use hdc::rng::derive_seed;
use hdc::{ContinuousItemMemory, HdClassifier, HdConfig, ItemMemory};

use crate::layout::AccelParams;
use crate::pipeline::ChainError;

/// A trained HD model, backend-agnostic: the three seed matrices plus
/// the N-gram size of the temporal encoder.
///
/// Construct one from scratch with [`HdModel::new`], from a trained
/// golden-model classifier with [`HdModel::from_classifier`], or as a
/// seeded random model (for timing runs, whose cycle counts are
/// data-independent) with [`HdModel::random`].
#[derive(Debug, Clone)]
pub struct HdModel {
    cim: ContinuousItemMemory,
    im: ItemMemory,
    prototypes: Vec<BinaryHv>,
    ngram: usize,
}

impl HdModel {
    /// Bundles the seed matrices into a model after validating that all
    /// hypervectors share one width.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Model`] if `prototypes` is empty,
    /// `ngram == 0`, or any hypervector width disagrees.
    pub fn new(
        cim: ContinuousItemMemory,
        im: ItemMemory,
        prototypes: Vec<BinaryHv>,
        ngram: usize,
    ) -> Result<Self, BackendError> {
        if prototypes.is_empty() {
            return Err(BackendError::Model(
                "model needs at least one prototype".into(),
            ));
        }
        if ngram == 0 {
            return Err(BackendError::Model("n-gram size must be at least 1".into()));
        }
        let n_words = cim.get(0).n_words();
        let all = cim.iter().chain(im.iter()).chain(prototypes.iter());
        for hv in all {
            if hv.n_words() != n_words {
                return Err(BackendError::Model(format!(
                    "hypervector width mismatch: {} vs {} words",
                    hv.n_words(),
                    n_words
                )));
            }
        }
        Ok(Self {
            cim,
            im,
            prototypes,
            ngram,
        })
    }

    /// Extracts the model of a trained golden classifier (finalizing any
    /// stale prototypes first).
    #[must_use]
    pub fn from_classifier(clf: &mut HdClassifier) -> Self {
        let ngram = clf.config().ngram;
        let prototypes = clf.am_mut().prototypes().to_vec();
        Self {
            cim: clf.spatial().cim().clone(),
            im: clf.spatial().im().clone(),
            prototypes,
            ngram,
        }
    }

    /// A seeded random model of the given shape — prototypes are i.i.d.
    /// hypervectors, exactly as the cycle-measurement runs use (kernel
    /// timing is data-independent).
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`AccelParams::validate`] (this is a
    /// test/measurement constructor; malformed shapes are programmer
    /// error, not input).
    #[must_use]
    pub fn random(params: &AccelParams, seed: u64) -> Self {
        // INFALLIBLE: documented panicking constructor — the `# Panics`
        // section above declares malformed params programmer error.
        params.validate().expect("valid accelerator parameters");
        let cim = ContinuousItemMemory::new(params.levels, params.n_words, derive_seed(seed, 1));
        let im = ItemMemory::new(params.channels, params.n_words, derive_seed(seed, 2));
        let prototypes: Vec<BinaryHv> = (0..params.classes)
            .map(|k| BinaryHv::random(params.n_words, derive_seed(seed, 100 + k as u64)))
            .collect();
        Self {
            cim,
            im,
            prototypes,
            ngram: params.ngram,
        }
    }

    /// The continuous item memory (quantization-level hypervectors).
    #[must_use]
    pub fn cim(&self) -> &ContinuousItemMemory {
        &self.cim
    }

    /// The channel item memory.
    #[must_use]
    pub fn im(&self) -> &ItemMemory {
        &self.im
    }

    /// The class prototypes, indexed by class.
    #[must_use]
    pub fn prototypes(&self) -> &[BinaryHv] {
        &self.prototypes
    }

    /// N-gram size of the temporal encoder.
    #[must_use]
    pub fn ngram(&self) -> usize {
        self.ngram
    }

    /// Hypervector width in `u32` words.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.cim.get(0).n_words()
    }

    /// Number of input channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.im.len()
    }

    /// Number of quantization levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.cim.n_levels()
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.prototypes.len()
    }

    /// The accelerator-parameter view of this model's shape.
    #[must_use]
    pub fn params(&self) -> AccelParams {
        AccelParams {
            n_words: self.n_words(),
            channels: self.channels(),
            levels: self.levels(),
            ngram: self.ngram,
            classes: self.classes(),
        }
    }
}

/// Everything needed to *start* training a model: the seed matrices and
/// shape of the chain, but no prototypes yet — those are what training
/// produces.
///
/// The spec fixes the training semantics completely: the IM/CIM decide
/// the encoding, `tie_seed` decides how exactly-tied majority votes
/// resolve (per class, via [`derive_seed`]), so every
/// [`TrainableBackend`] fed the same spec and the same examples must
/// produce **bit-identical** prototypes. Property tests pin this for
/// the shipped backends.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    cim: ContinuousItemMemory,
    im: ItemMemory,
    ngram: usize,
    classes: usize,
    tie_seed: u64,
}

impl TrainSpec {
    /// Bundles existing seed matrices into a training spec.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Model`] if `classes == 0`, `ngram == 0`,
    /// or the IM and CIM widths disagree.
    pub fn new(
        cim: ContinuousItemMemory,
        im: ItemMemory,
        ngram: usize,
        classes: usize,
        tie_seed: u64,
    ) -> Result<Self, BackendError> {
        if classes == 0 {
            return Err(BackendError::Model(
                "training needs at least one class".into(),
            ));
        }
        if ngram == 0 {
            return Err(BackendError::Model("n-gram size must be at least 1".into()));
        }
        let n_words = cim.get(0).n_words();
        for hv in cim.iter().chain(im.iter()) {
            if hv.n_words() != n_words {
                return Err(BackendError::Model(format!(
                    "hypervector width mismatch: {} vs {} words",
                    hv.n_words(),
                    n_words
                )));
            }
        }
        Ok(Self {
            cim,
            im,
            ngram,
            classes,
            tie_seed,
        })
    }

    /// The spec of a golden-model classifier configuration: item
    /// memories and tie seed are derived from `config.seed` exactly as
    /// [`HdClassifier::new`] derives them, so training through any
    /// backend reproduces the classifier's prototypes bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Model`] if the configuration is invalid
    /// or `n_classes == 0`.
    pub fn from_config(config: &HdConfig, n_classes: usize) -> Result<Self, BackendError> {
        config
            .validate()
            .map_err(|e| BackendError::Model(e.to_string()))?;
        Self::new(
            ContinuousItemMemory::new(config.levels, config.n_words, derive_seed(config.seed, 2)),
            ItemMemory::new(config.channels, config.n_words, derive_seed(config.seed, 1)),
            config.ngram,
            n_classes,
            derive_seed(config.seed, 3),
        )
    }

    /// A seeded random spec of the given shape (test/bench constructor;
    /// shares its seed streams with [`HdModel::random`], so a model
    /// trained from this spec encodes queries identically to that
    /// random model).
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`AccelParams::validate`].
    #[must_use]
    pub fn random(params: &AccelParams, seed: u64) -> Self {
        // INFALLIBLE: documented panicking constructor — the `# Panics`
        // section above declares malformed params programmer error.
        params.validate().expect("valid accelerator parameters");
        Self {
            cim: ContinuousItemMemory::new(params.levels, params.n_words, derive_seed(seed, 1)),
            im: ItemMemory::new(params.channels, params.n_words, derive_seed(seed, 2)),
            ngram: params.ngram,
            classes: params.classes,
            tie_seed: derive_seed(seed, 3),
        }
    }

    /// The continuous item memory (quantization-level hypervectors).
    #[must_use]
    pub fn cim(&self) -> &ContinuousItemMemory {
        &self.cim
    }

    /// The channel item memory.
    #[must_use]
    pub fn im(&self) -> &ItemMemory {
        &self.im
    }

    /// N-gram size of the temporal encoder.
    #[must_use]
    pub fn ngram(&self) -> usize {
        self.ngram
    }

    /// Number of classes the trained model will have.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Master seed of the per-class majority tie-breaks.
    #[must_use]
    pub fn tie_seed(&self) -> u64 {
        self.tie_seed
    }

    /// Hypervector width in `u32` words.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.cim.get(0).n_words()
    }

    /// Number of input channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.im.len()
    }

    /// Number of quantization levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.cim.n_levels()
    }
}

/// Per-kernel cycle counts reported by cycle-measuring backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// End-to-end total.
    pub total: u64,
    /// MAP + spatial + temporal encoders.
    pub map_encode: u64,
    /// Associative-memory search.
    pub am: u64,
}

/// How a [`Verdict`] was produced — a scan of the associative memory,
/// or a replay from the query cache of [`FastBackend::with_cache`].
///
/// Both carry the same class and distances, so the field exists for
/// telemetry only: a serving stack can count, per verdict, how many
/// scans the cache saved. Sessions without a cache always report
/// [`Scan`](Self::Scan), so their verdicts equal the golden backend's
/// (which only ever scans) field for field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerdictSource {
    /// The associative memory was scanned in full and the class is the
    /// first arg-min.
    #[default]
    Scan,
    /// The query cache matched the encoded query word for word; `class`
    /// and `distances` are replayed from the cached scan of the
    /// identical query.
    CacheHit,
}

/// Result of one classification, uniform across backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Predicted class (arg-min Hamming distance, first minimum wins).
    pub class: usize,
    /// Exact Hamming distance to every class prototype, indexed by
    /// class, under every backend configuration.
    pub distances: Vec<u32>,
    /// The query hypervector the window encoded to.
    pub query: BinaryHv,
    /// Cycle counts, when the backend simulates hardware time
    /// (`None` for host-native backends).
    pub cycles: Option<CycleBreakdown>,
    /// Provenance: scan or cache replay.
    pub source: VerdictSource,
}

/// Errors raised while preparing a backend session or classifying.
#[derive(Debug)]
#[non_exhaustive]
pub enum BackendError {
    /// The model is malformed or does not fit the backend.
    Model(String),
    /// An input window has the wrong shape.
    Input(String),
    /// The backend descriptor itself is invalid (e.g. a zero thread
    /// count) — rejected before any model is involved.
    Config(String),
    /// The simulated-cluster backend failed.
    Chain(ChainError),
    /// A worker computing chunk `chunk` of a batch panicked. The panic
    /// was contained (`catch_unwind` in the worker), the batch rolled
    /// back, and the session stays serviceable — the affected call gets
    /// this typed error instead of a process-wide unwind.
    WorkerLost {
        /// Index of the batch chunk whose worker was lost.
        chunk: usize,
        /// The panic payload, stringified.
        panic: String,
    },
    /// A deterministic fault injected by
    /// [`FaultBackend`](fault::FaultBackend) — only ever seen in chaos
    /// testing.
    Injected {
        /// The session-local call index the fault was scheduled at.
        call: u64,
    },
}

impl core::fmt::Display for BackendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Model(what) => write!(f, "model: {what}"),
            Self::Input(what) => write!(f, "input: {what}"),
            Self::Config(what) => write!(f, "config: {what}"),
            Self::Chain(e) => write!(f, "chain: {e}"),
            Self::WorkerLost { chunk, panic } => {
                write!(f, "worker lost on batch chunk {chunk}: {panic}")
            }
            Self::Injected { call } => write!(f, "injected fault at call {call}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<ChainError> for BackendError {
    fn from(e: ChainError) -> Self {
        match e {
            ChainError::ModelMismatch(what) => Self::Model(what),
            ChainError::InputMismatch(what) => Self::Input(what),
            other => Self::Chain(other),
        }
    }
}

impl From<BackendError> for ChainError {
    fn from(e: BackendError) -> Self {
        match e {
            // A bad backend descriptor surfaces as a model-level problem
            // on the chain side: the chain cannot be realized.
            BackendError::Model(what) | BackendError::Config(what) => Self::ModelMismatch(what),
            BackendError::Input(what) => Self::InputMismatch(what),
            BackendError::Chain(chain) => chain,
            // Runtime losses and injected faults have no chain-side
            // analogue; the chain sees them as an unrealizable model.
            other => Self::ModelMismatch(other.to_string()),
        }
    }
}

/// An execution substrate for the HD classification chain.
///
/// Backends are cheap descriptors (platform choice, thread count);
/// [`prepare`](Self::prepare) does the expensive work of loading a model
/// onto the substrate and returns a reusable session.
pub trait ExecutionBackend {
    /// Human-readable backend name (stable; used in benches and reports).
    fn name(&self) -> &'static str;

    /// Loads `model` onto the substrate.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if the model cannot be realized on this
    /// backend (shape limits, memory capacity, program generation).
    fn prepare(&self, model: &HdModel) -> Result<Box<dyn BackendSession>, BackendError>;
}

/// A model loaded onto one substrate, ready to classify windows.
///
/// A window is `samples × channels` ADC codes (`window[t][c]` = code of
/// channel `c` at time `t`). Host backends accept any window of at least
/// `ngram` samples (sliding N-grams are bundled into the query, exactly
/// like the golden classifier); the simulated-cluster backend requires
/// exactly `ngram` samples per call, the unit of work its kernels are
/// generated for.
pub trait BackendSession: Send {
    /// Classifies one window.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Input`] on shape mismatch, or a
    /// backend-specific error.
    fn classify(&mut self, window: &[Vec<u16>]) -> Result<Verdict, BackendError>;

    /// Classifies a batch of windows, in order.
    ///
    /// The default implementation loops [`classify`](Self::classify);
    /// throughput-oriented backends override it (the [`FastBackend`]
    /// fans the batch out across threads).
    ///
    /// # Errors
    ///
    /// Returns the first error encountered.
    fn classify_batch(&mut self, windows: &[Vec<Vec<u16>>]) -> Result<Vec<Verdict>, BackendError> {
        windows.iter().map(|w| self.classify(w)).collect()
    }

    /// Classifies a batch of windows into a caller-owned buffer, in
    /// order, appending one [`Verdict`] per window.
    ///
    /// Long-lived callers that classify batch after batch (the serving
    /// front-end's micro-batcher) clear and reuse one output vector so
    /// its capacity stays warm across batches; the verdicts themselves
    /// are preserved exactly as [`classify_batch`](Self::classify_batch)
    /// returns them — bit-identical to per-window
    /// [`classify`](Self::classify) calls on every backend.
    ///
    /// The provided implementation delegates to
    /// [`classify_batch`](Self::classify_batch) and extends `out` from
    /// the intermediate vector; [`FastBackend`] overrides it to write
    /// verdicts into `out` directly (its `classify_batch` is the thin
    /// wrapper, not the other way around).
    ///
    /// # Errors
    ///
    /// Returns the first error encountered; `out` is unchanged when an
    /// error is returned.
    fn classify_batch_into(
        &mut self,
        windows: &[Vec<Vec<u16>>],
        out: &mut Vec<Verdict>,
    ) -> Result<(), BackendError> {
        out.extend(self.classify_batch(windows)?);
        Ok(())
    }

    /// A cloneable handle onto this session's query-cache counters
    /// (hits / misses / evictions), when the session has a query cache
    /// ([`FastBackend::with_cache`]). `None` — the default — means the
    /// session has no cache and the counters would be forever zero.
    ///
    /// The serving front-end grabs this before moving the session onto
    /// its batcher thread and surfaces the counters through
    /// `ServerStats`.
    fn cache_monitor(&self) -> Option<CacheMonitor> {
        None
    }
}

/// A backend that can also *train* models, not just serve them.
///
/// Where [`ExecutionBackend::prepare`] consumes an already-trained
/// [`HdModel`], [`begin_training`](Self::begin_training) starts from a
/// [`TrainSpec`] (seed matrices, no prototypes) and returns a live
/// [`TrainingSession`] that accumulates examples, adapts online, and
/// finally hands the trained model off — either as an [`HdModel`] or
/// directly as a serving [`BackendSession`].
///
/// Every implementation must produce prototypes bit-identical to the
/// golden path (`hdc::AssociativeMemory` fed the same encoded queries
/// under the same seeded tie-breaks); the property suites pin
/// [`GoldenBackend`] and [`FastBackend`] to each other on random and
/// adversarially tie-rigged inputs.
pub trait TrainableBackend: ExecutionBackend {
    /// Starts a training session for `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if the spec cannot be realized on this
    /// backend.
    fn begin_training(&self, spec: &TrainSpec) -> Result<Box<dyn TrainingSession>, BackendError>;
}

/// A model being trained on one substrate.
///
/// Windows follow the same shape rules as [`BackendSession`] (at least
/// `ngram` samples, `channels` codes per sample). The session keeps the
/// per-component vote counters of every class, so training, one-shot or
/// batched, can be followed by online updates at any time — the paper's
/// "continuously updated for on-line learning" AM, behind the backend
/// seam.
pub trait TrainingSession: Send {
    /// Accumulates one training window for `label`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Input`] on shape mismatch or a label out
    /// of range.
    fn train(&mut self, window: &[Vec<u16>], label: usize) -> Result<(), BackendError>;

    /// Accumulates a batch of labelled windows (`labels[i]` is the class
    /// of `windows[i]`).
    ///
    /// The default implementation loops [`train`](Self::train);
    /// throughput-oriented backends override it (the [`FastBackend`]
    /// fans the batch out across its worker pool; counter accumulation
    /// is commutative, so the trained model is independent of the
    /// split).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Input`] if the lengths differ, on shape
    /// mismatch, or on a label out of range. When an error is returned
    /// mid-batch the session's counters are unspecified (some windows
    /// of the batch may have been accumulated); callers that need
    /// all-or-nothing semantics should validate shapes up front.
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
        for (window, &label) in windows.iter().zip(labels) {
            self.train(window, label)?;
        }
        Ok(())
    }

    /// Classifies `window` against the current prototypes, then folds it
    /// into `label`'s counters and re-thresholds **only that class** —
    /// the online-learning step. The returned [`Verdict`] is the
    /// classification *before* the update (the deployed model's answer),
    /// so supervised-feedback loops get prediction and adaptation in one
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Input`] on shape mismatch or a label out
    /// of range.
    fn update_online(&mut self, window: &[Vec<u16>], label: usize)
        -> Result<Verdict, BackendError>;

    /// Number of training examples accumulated for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    fn examples(&self, class: usize) -> u32;

    /// Re-thresholds any stale prototypes and returns the trained model
    /// (classes with no examples keep all-zero prototypes, exactly like
    /// the golden associative memory). The session stays usable — more
    /// training or online updates may follow.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Model`] if the trained parts cannot be
    /// assembled into a model.
    fn finalize(&mut self) -> Result<HdModel, BackendError>;

    /// Discards all accumulated training state (counters, prototypes),
    /// keeping buffers and worker pools warm — start a fresh model on
    /// the same spec without paying session construction again.
    fn reset(&mut self);

    /// Finalizes and hands the trained model straight to this backend's
    /// serving side: `session.into_serving()` is the one-shot-train →
    /// deploy path.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if finalization or serving-session
    /// preparation fails.
    fn into_serving(self: Box<Self>) -> Result<Box<dyn BackendSession>, BackendError>;
}

/// Shared label validation for training sessions.
pub(crate) fn validate_label(label: usize, classes: usize) -> Result<(), BackendError> {
    if label >= classes {
        return Err(BackendError::Input(format!(
            "label {label} out of range for {classes} classes"
        )));
    }
    Ok(())
}

/// Shared input validation: every sample must have `channels` codes and
/// the window at least `min_samples` samples.
pub(crate) fn validate_window(
    window: &[Vec<u16>],
    channels: usize,
    min_samples: usize,
) -> Result<(), BackendError> {
    if window.len() < min_samples {
        return Err(BackendError::Input(format!(
            "window of {} samples cannot hold a {min_samples}-gram",
            window.len()
        )));
    }
    for (t, sample) in window.iter().enumerate() {
        if sample.len() != channels {
            return Err(BackendError::Input(format!(
                "sample {t} has {} channels, expected {channels}",
                sample.len()
            )));
        }
    }
    Ok(())
}

/// First-minimum arg-min over per-class distances — the kernel's
/// strict-less search, shared by every backend.
pub(crate) fn argmin(distances: &[u32]) -> usize {
    distances
        .iter()
        .enumerate()
        .min_by_key(|&(_, &d)| d)
        .map(|(i, _)| i)
        // INFALLIBLE: every caller passes a model's distance vector,
        // and models are validated to hold >= 1 class.
        .expect("at least one prototype")
}
