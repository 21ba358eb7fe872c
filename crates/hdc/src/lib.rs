//! # `hdc` — binary hyperdimensional computing
//!
//! A from-scratch implementation of binary high-dimensional (HD) computing
//! as used by *PULP-HD: Accelerating Brain-Inspired High-Dimensional
//! Computing on a Parallel Ultra-Low Power Platform* (DAC 2018):
//! hypervectors packed 32 components per word, the MAP operation set
//! (multiply = XOR, add = componentwise majority, permute = rotation), item
//! memories, spatial/temporal encoders, and an associative memory.
//!
//! This crate is the **golden model**: the accelerated kernels that run on
//! the simulated PULP cluster (`pulp-hd-core`) reproduce every intermediate
//! hypervector of this implementation bit-for-bit.
//!
//! ## Quick start
//!
//! ```
//! use hdc::{HdClassifier, HdConfig};
//!
//! // 2048-bit hypervectors, 4 channels, 22 amplitude levels,
//! // 5-sample windows (10 ms at 500 Hz).
//! let config = HdConfig { n_words: 64, channels: 4, levels: 22,
//!                         ngram: 1, window: 5, seed: 7 };
//! let mut clf = HdClassifier::new(config, 2)?;
//!
//! let open = vec![[1_000u16, 2_000, 1_500, 900]; 5];
//! let fist = vec![[48_000u16, 52_000, 45_000, 50_000]; 5];
//! clf.train_window(0, &open)?;
//! clf.train_window(1, &fist)?;
//! clf.finalize();
//!
//! assert_eq!(clf.predict(&fist)?.class(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Modules
//!
//! * [`hv`] — packed binary hypervectors and the MAP primitives.
//! * [`hv64`] — `u64`-repacked hypervectors for throughput-oriented
//!   host backends (lossless conversion, bit-identical operations).
//! * [`bundle`] — componentwise majority with explicit tie-break policies.
//! * [`item_memory`] — item memory (IM) and continuous item memory (CIM).
//! * [`encoder`] — spatial and temporal (N-gram) encoders.
//! * [`am`] — associative memory and nearest-prototype classification.
//! * [`classifier`] — the end-to-end chain.
//! * [`simd`] — runtime-dispatched SIMD kernels (AVX-512 for the AM
//!   scan's distance, AVX2 for every kernel, and a portable fallback)
//!   behind the `hv64` hot paths.
//! * [`twins`] — the differential-twin registry pairing every
//!   `#[target_feature]` kernel with its portable reference, consumed
//!   by the `pulp-hd-audit` lint and fuzz gates.
//! * [`rng`] — deterministic generators (reproducibility is part of the
//!   model definition).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod am;
pub mod bundle;
pub mod classifier;
pub mod encoder;
pub mod hv;
pub mod hv64;
pub mod item_memory;
pub mod rng;
pub mod simd;
pub mod twins;

pub use am::{AssociativeMemory, Classification};
pub use bundle::{Bundler, TieBreak};
pub use classifier::{ConfigError, HdClassifier, HdConfig, WindowError};
pub use encoder::{ngram, SpatialEncoder, TemporalEncoder};
pub use hv::{words_for_dim, BinaryHv, BITS_PER_WORD};
pub use hv64::{Hv64, BITS_PER_WORD64};
pub use item_memory::{quantize_code, ContinuousItemMemory, ItemMemory};
pub use simd::Simd;
