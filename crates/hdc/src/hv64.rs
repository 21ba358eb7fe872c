//! `u64`-word packed hypervectors for throughput-oriented host execution.
//!
//! [`Hv64`] carries the exact bit pattern of a [`BinaryHv`] repacked two
//! `u32` words per `u64` word (component `i` is bit `i % 64` of word
//! `i / 64`), so every MAP operation runs over half as many words and
//! Hamming distances use 64-bit `count_ones`. Conversion to and from
//! [`BinaryHv`] is lossless in both directions, and every operation here
//! is bit-identical to its `u32` counterpart — the [`FastBackend`]
//! property tests pin this equivalence.
//!
//! The canonical width stays the `u32` word count of the golden model
//! (313 words ≙ "10,000-D"); when it is odd, the top `u64` word holds
//! only 32 valid components and its padding bits are kept at zero by
//! every constructor and operation.
//!
//! Besides the allocating operations, the module provides the
//! zero-allocation hot-path building blocks the fast backend's encode
//! loop is made of: in-place ops ([`Hv64::xor_assign`],
//! [`Hv64::rotate_into`], the fused bind-rotate [`Hv64::xor_rotated`]),
//! the streaming word-parallel majority accumulator
//! [`BitslicedBundler`], the early-exit associative-memory scan
//! [`scan_pruned_into`], and its approximate sibling
//! [`scan_threshold_into`] (accept-first-below-τ).
//!
//! Every word loop of those building blocks executes through the
//! runtime-dispatched kernel layer in [`crate::simd`]: an AVX2/POPCNT
//! specialization when the CPU has it, a portable unrolled fallback
//! otherwise, both bit-identical (see the `simd` module docs for the
//! dispatch and override rules).
//!
//! [`FastBackend`]: ../../pulp_hd_core/backend/fast/index.html
//! (in-repo: `crates/core/src/backend/fast.rs`)

use core::fmt;

use crate::hv::{BinaryHv, BITS_PER_WORD};
use crate::simd::Simd;

/// Number of binary components packed into one `u64` word.
pub const BITS_PER_WORD64: usize = 64;

/// A binary hypervector packed into `u64` words.
///
/// # Examples
///
/// ```
/// use hdc::{BinaryHv, Hv64};
///
/// let a = BinaryHv::random(313, 1);
/// let b = BinaryHv::random(313, 2);
/// let a64 = Hv64::from_binary(&a);
/// let b64 = Hv64::from_binary(&b);
/// // Same algebra, half the words: distances and bindings agree exactly.
/// assert_eq!(a64.hamming(&b64), a.hamming(&b));
/// assert_eq!(a64.bind(&b64).to_binary(), a.bind(&b));
/// assert_eq!(a64.to_binary(), a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hv64 {
    words: Box<[u64]>,
    /// Width in canonical `u32` words (`dim = n_words32 * 32`).
    n_words32: usize,
}

impl Hv64 {
    /// The all-zeros hypervector of the given canonical (`u32`) width —
    /// the scratch-buffer constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n_words32 == 0`.
    #[must_use]
    pub fn zeros(n_words32: usize) -> Self {
        assert!(n_words32 > 0, "hypervector width must be at least one word");
        Self {
            words: vec![0u64; n_words32.div_ceil(2)].into_boxed_slice(),
            n_words32,
        }
    }

    /// Repacks a [`BinaryHv`] into `u64` words (lossless).
    #[must_use]
    pub fn from_binary(hv: &BinaryHv) -> Self {
        let w32 = hv.words();
        let mut words = Vec::with_capacity(w32.len().div_ceil(2));
        for pair in w32.chunks(2) {
            let lo = u64::from(pair[0]);
            let hi = pair.get(1).map_or(0, |&h| u64::from(h) << 32);
            words.push(lo | hi);
        }
        Self {
            words: words.into_boxed_slice(),
            n_words32: w32.len(),
        }
    }

    /// Unpacks back into the canonical `u32`-word representation
    /// (lossless; `to_binary(from_binary(x)) == x`).
    #[must_use]
    pub fn to_binary(&self) -> BinaryHv {
        // One pass over whole word pairs, then the odd top half-word:
        // ~5x faster at 313 words than a push per half-word with a
        // branch, as this runs once per verdict.
        let mut w32 = vec![0u32; self.n_words32];
        let mut pairs = w32.chunks_exact_mut(2);
        for (pair, &w) in (&mut pairs).zip(self.words.iter()) {
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        if let ([top], Some(&w)) = (pairs.into_remainder(), self.words.last()) {
            *top = w as u32;
        }
        BinaryHv::from_words(w32)
    }

    /// Dimensionality (number of binary components, a multiple of 32).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n_words32 * BITS_PER_WORD
    }

    /// Number of packed `u64` words.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.words.len()
    }

    /// Width in canonical `u32` words (matches the golden model).
    #[must_use]
    pub fn n_words32(&self) -> usize {
        self.n_words32
    }

    /// The packed words, little-endian in component order.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of components set to one.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        Simd::active().popcount(&self.words)
    }

    /// Componentwise XOR — the HD *multiplication* (binding) operation.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths.
    #[must_use]
    pub fn bind(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.bind_assign(other);
        out
    }

    /// In-place componentwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths.
    pub fn bind_assign(&mut self, other: &Self) {
        self.xor_assign(other);
    }

    /// In-place componentwise XOR (`self ^= other`), the borrowing form
    /// of [`bind`](Self::bind).
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(
            self.n_words32, other.n_words32,
            "hypervector width mismatch: {} vs {} u32 words",
            self.n_words32, other.n_words32
        );
        Simd::active().xor_into(&mut self.words, &other.words);
    }

    /// Overwrites `self` with `other`'s bit pattern without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(
            self.n_words32, other.n_words32,
            "hypervector width mismatch: {} vs {} u32 words",
            self.n_words32, other.n_words32
        );
        self.words.copy_from_slice(&other.words);
    }

    /// Hamming distance via 64-bit popcount.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> u32 {
        assert_eq!(
            self.n_words32, other.n_words32,
            "hypervector width mismatch: {} vs {} u32 words",
            self.n_words32, other.n_words32
        );
        Simd::active().hamming(&self.words, &other.words)
    }

    /// ρᵏ: rotates all components left by `k` positions modulo the
    /// dimension, bit-identical to [`BinaryHv::rotate`].
    #[must_use]
    pub fn rotate(&self, k: usize) -> Self {
        let mut out = Self::zeros(self.n_words32);
        self.rotate_into(k, &mut out);
        out
    }

    /// ρᵏ into a caller-owned buffer: `out = rotate(self, k)` without
    /// allocating. `out`'s previous contents are overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different width (aliasing is impossible:
    /// `self` is borrowed shared and `out` mutably).
    pub fn rotate_into(&self, k: usize, out: &mut Self) {
        assert_eq!(
            self.n_words32, out.n_words32,
            "hypervector width mismatch: {} vs {} u32 words",
            self.n_words32, out.n_words32
        );
        Simd::active().rotate_into_words(&mut out.words, &self.words, self.dim(), k);
    }

    /// Fused bind-rotate: `self ^= rotate(other, k)` with no temporary
    /// hypervector — the inner step of N-gram encoding
    /// (`gram ⊕= ρᵏ spatialₖ`), computed word by word.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths.
    pub fn xor_rotated(&mut self, other: &Self, k: usize) {
        assert_eq!(
            self.n_words32, other.n_words32,
            "hypervector width mismatch: {} vs {} u32 words",
            self.n_words32, other.n_words32
        );
        let dim = self.dim();
        Simd::active().xor_rotated_words(&mut self.words, &other.words, dim, k);
    }
}

impl fmt::Debug for Hv64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hv64 {{ dim: {}, words: [", self.dim())?;
        for (i, w) in self.words.iter().take(2).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:#018x}")?;
        }
        if self.words.len() > 2 {
            write!(f, ", …")?;
        }
        write!(f, "] }}")
    }
}

/// Encodes a sequence into one N-gram, bit-identical to
/// [`crate::encoder::ngram`]: `hvs[0] ⊕ ρ¹hvs[1] ⊕ … ⊕ ρᴺ⁻¹hvs[N−1]`.
///
/// # Panics
///
/// Panics if `hvs` is empty or widths differ.
#[must_use]
pub fn ngram64(hvs: &[Hv64]) -> Hv64 {
    assert!(!hvs.is_empty(), "n-gram of an empty sequence is undefined");
    let mut out = hvs[0].clone();
    for (k, hv) in hvs.iter().enumerate().skip(1) {
        out.bind_assign(&hv.rotate(k));
    }
    out
}

/// Majority with the *paper's kernel policy*, bit-identical to
/// [`crate::bundle::majority_paper`]: an even input count appends the
/// XOR of the first two inputs as the tie-break vector, making the vote
/// effectively odd.
///
/// Takes references so hot paths can vote over item-memory entries
/// without cloning.
///
/// # Panics
///
/// Panics if `inputs` is empty or widths differ.
///
/// # Examples
///
/// ```
/// use hdc::bundle::majority_paper;
/// use hdc::hv64::{majority_paper64, Hv64};
/// use hdc::BinaryHv;
///
/// let inputs: Vec<BinaryHv> = (0..4).map(|s| BinaryHv::random(313, s)).collect();
/// let packed: Vec<Hv64> = inputs.iter().map(Hv64::from_binary).collect();
/// let refs: Vec<&Hv64> = packed.iter().collect();
/// assert_eq!(majority_paper64(&refs).to_binary(), majority_paper(&inputs));
/// ```
#[must_use]
pub fn majority_paper64(inputs: &[&Hv64]) -> Hv64 {
    assert!(!inputs.is_empty(), "majority of an empty set is undefined");
    if inputs.len() == 1 {
        return inputs[0].clone();
    }
    let tie = if inputs.len().is_multiple_of(2) {
        Some(inputs[0].bind(inputs[1]))
    } else {
        None
    };
    let refs: Vec<&Hv64> = inputs.iter().copied().chain(tie.as_ref()).collect();
    majority_odd_bitsliced64(&refs)
}

/// Componentwise majority of an odd number of equally wide packed
/// hypervectors — the `u64`-lane version of
/// [`crate::bundle::majority_odd_bitsliced`], voting over 64 components
/// per word-operation.
///
/// # Panics
///
/// Panics if `inputs` is empty, has an even length, or widths differ.
#[must_use]
pub fn majority_odd_bitsliced64(inputs: &[&Hv64]) -> Hv64 {
    assert!(!inputs.is_empty(), "majority of an empty set is undefined");
    assert!(
        inputs.len() % 2 == 1,
        "bit-sliced majority requires an odd input count"
    );
    let n_words32 = inputs[0].n_words32;
    for hv in inputs {
        assert_eq!(
            hv.n_words32, n_words32,
            "majority width mismatch: expected {n_words32} u32 words, got {}",
            hv.n_words32
        );
    }
    let n = inputs.len() as u32;
    let threshold = n / 2 + 1;
    let n_planes = (32 - n.leading_zeros()) as usize;
    let n_words = inputs[0].words.len();
    let mut out = Vec::with_capacity(n_words);
    let mut planes = vec![0u64; n_planes];
    for wi in 0..n_words {
        planes.fill(0);
        for hv in inputs {
            // Ripple-carry increment of the vertical counters.
            let mut carry = hv.words[wi];
            for plane in planes.iter_mut() {
                let t = *plane & carry;
                *plane ^= carry;
                carry = t;
            }
            debug_assert_eq!(carry, 0, "counter planes sized for n inputs");
        }
        // count >= threshold ⇔ (count - threshold) does not borrow.
        // Padding lanes count zero and threshold >= 1, so they borrow
        // and stay clear.
        let mut borrow = 0u64;
        for (p, &plane) in planes.iter().enumerate() {
            let t = if threshold >> p & 1 == 1 { u64::MAX } else { 0 };
            borrow = (!plane & (t | borrow)) | (t & borrow);
        }
        out.push(!borrow);
    }
    let tail = (n_words32 * BITS_PER_WORD) % BITS_PER_WORD64;
    if tail != 0 {
        out[n_words - 1] &= (1u64 << tail) - 1;
    }
    Hv64 {
        words: out.into_boxed_slice(),
        n_words32,
    }
}

/// Streaming word-parallel majority accumulator — the zero-allocation
/// bundling engine of the fast backend's hot path.
///
/// Hypervectors are [`add`](Self::add)ed one at a time into vertical
/// (bit-sliced) carry-save counters: plane `p` holds bit `p` of the
/// per-component vote count for 64 components per word, so each add is a
/// ripple-carry increment using only word-wide AND/XOR, and the final
/// threshold comparison is a word-wide borrow chain. Semantically
/// identical to [`majority_paper64`] (and therefore to
/// [`crate::bundle::majority_paper`]): with an even input count, the XOR
/// of the first two inputs joins the vote as the tie-break vector.
///
/// The accumulator allocates only when it grows — counter planes and the
/// tie-break buffer are retained across
/// [`majority_paper_into`](Self::majority_paper_into) /
/// [`clear`](Self::clear) cycles, so steady-state bundling performs no
/// heap allocation.
///
/// # Examples
///
/// ```
/// use hdc::hv64::{majority_paper64, BitslicedBundler, Hv64};
/// use hdc::BinaryHv;
///
/// let inputs: Vec<Hv64> = (0..4)
///     .map(|s| Hv64::from_binary(&BinaryHv::random(313, s)))
///     .collect();
/// let refs: Vec<&Hv64> = inputs.iter().collect();
///
/// let mut bundler = BitslicedBundler::new(313);
/// let mut out = Hv64::zeros(313);
/// for hv in &inputs {
///     bundler.add(hv);
/// }
/// bundler.majority_paper_into(&mut out);
/// assert_eq!(out, majority_paper64(&refs));
/// // The bundler has reset itself and can be reused immediately.
/// assert!(bundler.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct BitslicedBundler {
    /// `planes[p][w]`: bit `p` of the vote count of the 64 components in
    /// word `w`. Grows on demand; values up to the input count are always
    /// representable.
    planes: Vec<Vec<u64>>,
    /// First input, then (after the second add) XOR of the first two —
    /// the paper's tie-break vector, maintained incrementally.
    tie: Hv64,
    n_words32: usize,
    n: u32,
}

impl BitslicedBundler {
    /// An empty bundler for hypervectors of `n_words32` canonical words.
    ///
    /// # Panics
    ///
    /// Panics if `n_words32 == 0`.
    #[must_use]
    pub fn new(n_words32: usize) -> Self {
        Self {
            planes: Vec::new(),
            tie: Hv64::zeros(n_words32),
            n_words32,
            n: 0,
        }
    }

    /// Width of accepted hypervectors in canonical `u32` words.
    #[must_use]
    pub fn n_words32(&self) -> usize {
        self.n_words32
    }

    /// Number of hypervectors accumulated since the last reset.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether no hypervectors have been accumulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Resets the vote counters without releasing storage.
    pub fn clear(&mut self) {
        for plane in &mut self.planes {
            plane.fill(0);
        }
        self.n = 0;
    }

    /// Adds one hypervector to the vote.
    ///
    /// # Panics
    ///
    /// Panics if `hv` has a different width.
    pub fn add(&mut self, hv: &Hv64) {
        assert_eq!(
            hv.n_words32, self.n_words32,
            "bundler width mismatch: expected {} u32 words, got {}",
            self.n_words32, hv.n_words32
        );
        self.add_row(&hv.words);
    }

    /// [`add`](Self::add) of one row of words, the width already
    /// checked.
    fn add_row(&mut self, row: &[u64]) {
        match self.n {
            0 => self.tie.words.copy_from_slice(row),
            1 => Simd::active().xor_into(&mut self.tie.words, row),
            _ => {}
        }
        Self::add_words(&mut self.planes, row);
        self.n += 1;
    }

    /// Ripple-carry increment of the vertical counters by one input,
    /// growing the plane stack if the count needs another bit.
    fn add_words(planes: &mut Vec<Vec<u64>>, words: &[u64]) {
        for (wi, &word) in words.iter().enumerate() {
            let mut carry = word;
            let mut p = 0;
            while carry != 0 {
                if p == planes.len() {
                    planes.push(vec![0u64; words.len()]);
                }
                let plane = &mut planes[p][wi];
                let t = *plane & carry;
                *plane ^= carry;
                carry = t;
                p += 1;
            }
        }
    }

    /// Word-major, register-resident form of the same carry-save
    /// counter network: bundles `n` hypervectors accessed by index
    /// (`get(0..n)`) straight into `out`, with the paper's tie policy
    /// (even count ⇒ the XOR of the first two inputs joins the vote).
    ///
    /// Where [`add`](Self::add) streams inputs through heap-resident
    /// counter planes (one pass over the planes per input), this form
    /// makes a **single pass over the words**: for each output word the
    /// vote counters live in registers, and no step branches on the
    /// data.
    ///
    /// * **The tie rule is an OR.** The tie input `x0 ⊕ x1` makes
    ///   `x0 + x1 + (x0 ⊕ x1) = 2·(x0 ∨ x1)`. So two inputs vote as
    ///   `x0 ∨ x1`, and four (4 channels + tie) as
    ///   `(x0 ∨ x1) ∧ (x2 ∨ x3)`.
    /// * **Three and five inputs** (e.g. 5-sample windows of unigrams)
    ///   are fixed full-adder majority networks.
    /// * **Larger votes** run the carry-save tree of
    ///   [`Simd::ripple_majority_into`], with as many planes as the
    ///   vote count has bits. Inputs enter in Harley–Seal groups of
    ///   eight, counted into the low planes by full adders; only each
    ///   group's carry walks the higher planes. An even vote seeds
    ///   plane 1 with `x0 ∨ x1`.
    ///
    /// The fast backend bundles with this form the N-grams of N-gram
    /// windows and the spatial hypervectors of unigram windows too wide
    /// for the fused vote; spatial votes go through
    /// [`bundle_window_into`](Self::bundle_window_into). It performs no
    /// heap allocation for votes up to 1022 inputs and needs no
    /// persistent accumulator state (hence no `self`). Wider votes —
    /// beyond the 10-plane in-register counter — transparently route
    /// through a freshly allocated streaming accumulator (at that input
    /// scale the allocation is noise next to the counting work).
    ///
    /// Bit-identical to [`majority_paper64`] over the same inputs in
    /// the same order (a property test pins this).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any input width differs from `out`'s.
    pub fn bundle_paper_into<'a, F>(n: usize, get: F, out: &mut Hv64)
    where
        F: Fn(usize) -> &'a Hv64,
    {
        assert!(n > 0, "majority of an empty set is undefined");
        let n_words32 = out.n_words32;
        for i in 0..n {
            assert_eq!(
                get(i).n_words32,
                n_words32,
                "bundler width mismatch: expected {} u32 words, got {}",
                n_words32,
                get(i).n_words32
            );
        }
        if n == 1 {
            out.copy_from(get(0));
            return;
        }
        let even = n.is_multiple_of(2);
        let n_eff = n + usize::from(even);
        let n_words = out.words.len();
        let simd = Simd::active();
        match n_eff {
            3 if n == 2 => {
                // majority({x, y, x⊕y}) at threshold 2 reduces to x | y.
                simd.or_into(&get(0).words, &get(1).words, &mut out.words);
            }
            3 => {
                simd.maj3_into(&get(0).words, &get(1).words, &get(2).words, &mut out.words);
            }
            5 if n == 4 => {
                // majority({x0..x3, x0⊕x1}) at threshold 3 reduces to
                // (x0 | x1) & (x2 | x3).
                simd.maj5_tie_into(
                    &get(0).words,
                    &get(1).words,
                    &get(2).words,
                    &get(3).words,
                    &mut out.words,
                );
            }
            5 => {
                simd.maj5_into(
                    &get(0).words,
                    &get(1).words,
                    &get(2).words,
                    &get(3).words,
                    &get(4).words,
                    &mut out.words,
                );
            }
            n_eff if n_eff >= (1 << crate::simd::RIPPLE_PLANES) => {
                // The vote count overflows the in-register counter:
                // fall back to the streaming heap-plane form, which has
                // no input limit.
                let mut bundler = Self::new(n_words32);
                for i in 0..n {
                    bundler.add(get(i));
                }
                bundler.majority_paper_into(out);
                return;
            }
            _ => {
                #[allow(clippy::cast_possible_truncation)]
                let threshold = (n_eff / 2 + 1) as u32;
                simd.ripple_majority_into(
                    n,
                    |i| &get(i).words[..],
                    even,
                    threshold,
                    &mut out.words,
                );
            }
        }
        // Every path keeps padding clean (inputs are clean and the
        // generic threshold rejects zero-count lanes), but mask
        // defensively, matching the rest of the module.
        let tail = (n_words32 * BITS_PER_WORD) % BITS_PER_WORD64;
        if tail != 0 {
            out.words[n_words - 1] &= (1u64 << tail) - 1;
        }
    }

    /// The unigram encode of one window, straight into `out`: spatial
    /// vote `t` is the paper majority of sample `t`'s `channels` bound
    /// rows, and `out` is the paper majority of the `samples` spatial
    /// votes. The rows come from one flat table: row `t·channels + c`
    /// is the `out.n_words()` words of `table` from word
    /// `starts[t·channels + c]`.
    ///
    /// No spatial hypervector is written. For each word block the
    /// spatial votes are computed in registers, in the closed form
    /// [`bundle_paper_into`](Self::bundle_paper_into) picks for the
    /// channel count (or by the carry-save tree from six channels on),
    /// and feed the temporal carry-save tree directly. Both votes must
    /// stay below `2^`[`RIPPLE_PLANES`](crate::simd::RIPPLE_PLANES)
    /// inputs with their tie vectors; a longer window writes its
    /// spatial hypervectors with one-sample calls and bundles them with
    /// `bundle_paper_into`.
    ///
    /// With one sample this is the spatial vote alone, and a spatial
    /// vote of `2^RIPPLE_PLANES` or more inputs with its tie vector
    /// then streams through a fresh accumulator. Bit-identical to
    /// `bundle_paper_into` over the spatial hypervectors that
    /// `bundle_paper_into` writes from the same rows (a property test
    /// pins this).
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `channels` is zero, a window of more than
    /// one sample has a vote of `2^RIPPLE_PLANES` or more inputs with
    /// its tie vector, `starts` does not hold `samples · channels`
    /// rows, or a row runs past the end of `table`.
    pub fn bundle_window_into(
        samples: usize,
        channels: usize,
        table: &[u64],
        starts: &[usize],
        out: &mut Hv64,
    ) {
        let wide =
            channels + usize::from(channels.is_multiple_of(2)) >= 1 << crate::simd::RIPPLE_PLANES;
        if samples == 1 && wide {
            assert_eq!(starts.len(), channels, "a sample needs one row per channel");
            let width = out.words.len();
            let mut votes = Self::new(out.n_words32);
            for &start in starts {
                votes.add_row(&table[start..start + width]);
            }
            votes.majority_paper_into(out);
            return;
        }
        Simd::active().window_majority_into(samples, channels, table, starts, &mut out.words);
        // Padding stays clean as in `bundle_paper_into`; mask likewise.
        let tail = (out.n_words32 * BITS_PER_WORD) % BITS_PER_WORD64;
        if tail != 0 {
            let n_words = out.words.len();
            out.words[n_words - 1] &= (1u64 << tail) - 1;
        }
    }

    /// Writes the majority of the accumulated inputs into `out` with the
    /// paper's kernel tie policy (even count ⇒ the XOR of the first two
    /// inputs joins the vote), then resets the accumulator for reuse.
    ///
    /// Bit-identical to [`majority_paper64`] over the same inputs in the
    /// same order.
    ///
    /// # Panics
    ///
    /// Panics if the bundler is empty or `out` has a different width.
    pub fn majority_paper_into(&mut self, out: &mut Hv64) {
        assert!(self.n > 0, "majority of an empty bundle is undefined");
        assert_eq!(
            out.n_words32, self.n_words32,
            "bundler width mismatch: expected {} u32 words, got {}",
            self.n_words32, out.n_words32
        );
        if self.n == 1 {
            // Single input: identity (`tie` still holds the first input).
            out.copy_from(&self.tie);
            self.clear();
            return;
        }
        let n_eff = if self.n.is_multiple_of(2) {
            Self::add_words(&mut self.planes, &self.tie.words);
            self.n + 1
        } else {
            self.n
        };
        let threshold = n_eff / 2 + 1;
        // Threshold bits above the stored planes read as zero-count
        // planes (all inputs may agree on zero there).
        let p_max = self
            .planes
            .len()
            .max((32 - threshold.leading_zeros()) as usize);
        let n_words = out.words.len();
        for wi in 0..n_words {
            // count >= threshold ⇔ (count - threshold) does not borrow,
            // evaluated for 64 components per step.
            let mut borrow = 0u64;
            for p in 0..p_max {
                let plane = self.planes.get(p).map_or(0, |pl| pl[wi]);
                let t = if threshold >> p & 1 == 1 { u64::MAX } else { 0 };
                borrow = (!plane & (t | borrow)) | (t & borrow);
            }
            out.words[wi] = !borrow;
        }
        let tail = (self.n_words32 * BITS_PER_WORD) % BITS_PER_WORD64;
        if tail != 0 {
            out.words[n_words - 1] &= (1u64 << tail) - 1;
        }
        self.clear();
    }
}

/// Counter-plane training accumulator — the packed twin of the scalar
/// associative-memory [`crate::bundle::Bundler`].
///
/// Where [`BitslicedBundler`] votes with the *paper's* tie policy (for
/// within-window encoding), `CounterBundler` keeps the **training**
/// semantics of the golden model: per-component vote counts that
/// survive across batches, thresholded with a caller-supplied (seeded)
/// tie vector. Counts are stored bit-sliced — plane `p` holds bit `p`
/// of the count for 64 components per word — so:
///
/// * [`add`](Self::add) is a carry-save sideways addition
///   ([`Simd::csa_step`](crate::simd::Simd::csa_step) rippled through
///   the planes): one packed hypervector joins 64 counters per
///   word-operation;
/// * [`merge`](Self::merge) adds another accumulator's planes in at
///   their significance — the reduction step that lets batch-training
///   workers accumulate disjoint chunks privately and combine them
///   exactly (counter addition is commutative, so the merged counts —
///   and therefore the trained prototype — are independent of how the
///   batch was split);
/// * [`majority_seeded_into`](Self::majority_seeded_into) thresholds
///   all counters at once
///   ([`Simd::counter_majority_into`](crate::simd::Simd::counter_majority_into)):
///   strictly-greater-than-half wins, exact half ties copy the tie
///   vector's bit — bit-identical to
///   [`Bundler::majority`](crate::bundle::Bundler::majority) with
///   [`TieBreak::Seeded`](crate::bundle::TieBreak) over the same seed.
///
/// Storage is retained across [`clear`](Self::clear) cycles; after
/// warm-up, accumulation performs no heap allocation.
///
/// # Examples
///
/// ```
/// use hdc::bundle::{Bundler, TieBreak};
/// use hdc::hv64::{CounterBundler, Hv64};
/// use hdc::BinaryHv;
///
/// let inputs: Vec<BinaryHv> = (0..4).map(|s| BinaryHv::random(313, s)).collect();
/// let tie = BinaryHv::random(313, 99);
///
/// let mut scalar = Bundler::new(313);
/// let mut packed = CounterBundler::new(313);
/// for hv in &inputs {
///     scalar.add(hv);
///     packed.add(&Hv64::from_binary(hv));
/// }
/// let mut out = Hv64::zeros(313);
/// packed.majority_seeded_into(&Hv64::from_binary(&tie), &mut out);
/// assert_eq!(out.to_binary(), scalar.majority(TieBreak::Vector(&tie)));
/// ```
#[derive(Debug, Clone)]
pub struct CounterBundler {
    /// `planes[p][w]`: bit `p` of the vote count of the 64 components in
    /// word `w`. Grows on demand.
    planes: Vec<Vec<u64>>,
    /// Carry scratch of the sideways addition (one word row).
    carry: Vec<u64>,
    n_words32: usize,
    n: u32,
}

impl CounterBundler {
    /// An empty accumulator for hypervectors of `n_words32` canonical
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if `n_words32 == 0`.
    #[must_use]
    pub fn new(n_words32: usize) -> Self {
        assert!(n_words32 > 0, "bundler width must be at least one word");
        Self {
            planes: Vec::new(),
            carry: vec![0u64; n_words32.div_ceil(2)],
            n_words32,
            n: 0,
        }
    }

    /// Width of accepted hypervectors in canonical `u32` words.
    #[must_use]
    pub fn n_words32(&self) -> usize {
        self.n_words32
    }

    /// Number of hypervectors accumulated so far.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether no hypervectors have been accumulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Resets all counters to zero without releasing storage.
    pub fn clear(&mut self) {
        for plane in &mut self.planes {
            plane.fill(0);
        }
        self.n = 0;
    }

    /// Ripples `carry` (pre-loaded with the addend) into the planes from
    /// significance `from` upward, growing the stack as needed.
    fn ripple_from(&mut self, from: usize) {
        let simd = Simd::active();
        let mut p = from;
        let mut pending = true;
        while pending {
            if p == self.planes.len() {
                self.planes.push(vec![0u64; self.carry.len()]);
            }
            pending = simd.csa_step(&mut self.planes[p], &mut self.carry);
            p += 1;
        }
    }

    /// Adds one hypervector to every counter it has a one-bit for.
    ///
    /// # Panics
    ///
    /// Panics if `hv` has a different width.
    pub fn add(&mut self, hv: &Hv64) {
        assert_eq!(
            hv.n_words32, self.n_words32,
            "bundler width mismatch: expected {} u32 words, got {}",
            self.n_words32, hv.n_words32
        );
        self.carry.copy_from_slice(&hv.words);
        self.ripple_from(0);
        self.n = self.n.checked_add(1).expect("counter overflow");
    }

    /// Adds another accumulator's counts into this one (sideways
    /// addition plane by plane at its significance). The result is the
    /// accumulator that would have seen both input streams, in any
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the accumulators have different widths.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            other.n_words32, self.n_words32,
            "bundler width mismatch: expected {} u32 words, got {}",
            self.n_words32, other.n_words32
        );
        for (p, plane) in other.planes.iter().enumerate() {
            self.carry.copy_from_slice(plane);
            self.ripple_from(p);
        }
        self.n = self.n.checked_add(other.n).expect("counter overflow");
    }

    /// Thresholds the counters into `out`: a component becomes one iff
    /// strictly more than half of the accumulated inputs had it set, or
    /// exactly half did (even counts only) and `tie`'s bit is one.
    ///
    /// Bit-identical to
    /// [`Bundler::majority`](crate::bundle::Bundler::majority) with
    /// [`TieBreak::Vector`](crate::bundle::TieBreak)`(tie)` (and
    /// therefore to `TieBreak::Seeded` when `tie` is the seeded vector
    /// materialized from the same seed). Unlike the paper-policy
    /// bundlers, this does **not** reset the accumulator: training
    /// counters persist so the model "can be continuously updated for
    /// on-line learning".
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty or `tie` / `out` widths
    /// differ.
    pub fn majority_seeded_into(&self, tie: &Hv64, out: &mut Hv64) {
        assert!(self.n > 0, "majority of an empty bundle is undefined");
        assert_eq!(
            tie.n_words32, self.n_words32,
            "tie-break vector width mismatch: expected {} u32 words, got {}",
            self.n_words32, tie.n_words32
        );
        assert_eq!(
            out.n_words32, self.n_words32,
            "bundler width mismatch: expected {} u32 words, got {}",
            self.n_words32, out.n_words32
        );
        Simd::active().counter_majority_into(
            |p| self.planes[p].as_slice(),
            self.planes.len(),
            self.n,
            &tie.words,
            &mut out.words,
        );
        // Inputs and tie have clean padding, so padding counts are zero
        // and never reach the threshold; mask defensively anyway,
        // matching the rest of the module.
        let n_words = out.words.len();
        let tail = (self.n_words32 * BITS_PER_WORD) % BITS_PER_WORD64;
        if tail != 0 {
            out.words[n_words - 1] &= (1u64 << tail) - 1;
        }
    }
}

/// Exact nearest-prototype search with early exit, writing per-class
/// distances into a caller-owned buffer and returning the winning class.
///
/// The scan tracks the running best distance and abandons a prototype's
/// word loop as soon as its partial Hamming distance exceeds the current
/// minimum — an abandoned prototype can never win, so the **class is
/// always identical to a full scan's** (including first-minimum tie
/// order, because a pruned prototype's true distance is strictly greater
/// than the final minimum).
///
/// The `distances` entries trade exactness for the skipped work: entry
/// `k` is the exact Hamming distance whenever prototype `k` was fully
/// scanned — always true for the winner and for every prototype whose
/// distance ties or beats the running minimum — and otherwise the
/// partial distance at the abandonment point, which is simultaneously a
/// lower bound on the true distance and strictly greater than the
/// winning distance. Ordering queries ("is `k` the argmin", margins
/// above the winner) therefore resolve the same way as on exact
/// distances.
///
/// Abandonment happens at fixed
/// [`SCAN_BLOCK_WORDS64`](crate::simd::SCAN_BLOCK_WORDS64)-word
/// (512-bit) block boundaries, identically on every
/// [`Simd`](crate::simd::Simd) level, so the reported partial distances
/// never depend on the CPU the scan ran on (and equal
/// [`crate::AssociativeMemory::classify_pruned`]'s, which abandons at
/// the same bit positions on the `u32`-packed representation).
///
/// # Panics
///
/// Panics if `prototypes` is empty or any width differs from the
/// query's.
///
/// # Examples
///
/// ```
/// use hdc::hv64::{scan_pruned_into, Hv64};
/// use hdc::BinaryHv;
///
/// let prototypes: Vec<Hv64> = (0..5)
///     .map(|s| Hv64::from_binary(&BinaryHv::random(313, s)))
///     .collect();
/// let query = prototypes[3].clone();
/// let mut distances = Vec::new();
/// let class = scan_pruned_into(&prototypes, &query, &mut distances);
/// assert_eq!(class, 3);
/// assert_eq!(distances[3], 0);
/// ```
pub fn scan_pruned_into(prototypes: &[Hv64], query: &Hv64, distances: &mut Vec<u32>) -> usize {
    assert!(
        !prototypes.is_empty(),
        "associative-memory scan needs at least one prototype"
    );
    distances.clear();
    let simd = Simd::active();
    let mut best = u32::MAX;
    let mut best_class = 0usize;
    for (class, p) in prototypes.iter().enumerate() {
        assert_eq!(
            p.n_words32, query.n_words32,
            "prototype width mismatch: {} vs {} u32 words",
            p.n_words32, query.n_words32
        );
        let d = simd.hamming_bounded(&p.words, &query.words, best);
        if d < best {
            best = d;
            best_class = class;
        }
        distances.push(d);
    }
    best_class
}

/// **Approximate** nearest-prototype search with threshold early
/// termination: accepts the first prototype whose distance is provably
/// `<= accept`, skipping the remaining classes entirely.
///
/// This is the accuracy-for-speed rung of the scan ladder. Prototypes
/// are visited in order; each is scanned with the two-sided
/// [`Simd::hamming_threshold`] kernel, which abandons a prototype that
/// can no longer win (partial distance above the running best, exactly
/// like [`scan_pruned_into`]) *and* stops early once the partial
/// distance plus the maximum contribution of the unscanned words is
/// within `accept` — at which point the prototype is declared the
/// winner without scanning the rest of the associative memory.
///
/// The loop maintains `best > accept` as its invariant: it returns the
/// moment a scanned prototype lands at or below `accept`, so an
/// abandoned prototype (partial `> best > accept`) can never be
/// mistaken for an accepted one, and an accepted prototype's true
/// distance (`<= accept < best`) always beats every class scanned
/// before it. When *no* prototype meets the threshold the scan
/// degenerates to the exact pruned scan and returns the true argmin —
/// `accept = 0` makes this function behave identically to
/// [`scan_pruned_into`] on distinct prototypes.
///
/// `distances` is filled for every class: visited classes record their
/// (possibly partial, see [`scan_pruned_into`]) distances — the
/// accepted class's entry is the partial sum at the acceptance
/// boundary, a lower bound on its true distance that is still `<=
/// accept` — and classes skipped by an acceptance record the
/// [`u32::MAX`] sentinel, making skipped work visible to telemetry.
///
/// Returns `(class, accepted)` where `accepted` says whether the scan
/// exited through the threshold (false means the result is exact).
///
/// # Panics
///
/// Panics if `prototypes` is empty or any width differs from the
/// query's.
///
/// # Examples
///
/// ```
/// use hdc::hv64::{scan_threshold_into, Hv64};
/// use hdc::BinaryHv;
///
/// let prototypes: Vec<Hv64> = (0..5)
///     .map(|s| Hv64::from_binary(&BinaryHv::random(313, s)))
///     .collect();
/// let query = prototypes[2].clone();
/// let mut distances = Vec::new();
/// // Random 313-u32-word vectors sit ~5000 bits apart; a 1000-bit
/// // acceptance radius catches only the exact-match prototype.
/// let (class, accepted) = scan_threshold_into(&prototypes, &query, 1000, &mut distances);
/// assert_eq!((class, accepted), (2, true));
/// assert!(distances[2] <= 1000);
/// assert_eq!(distances[3], u32::MAX); // skipped, never scanned
/// ```
pub fn scan_threshold_into(
    prototypes: &[Hv64],
    query: &Hv64,
    accept: u32,
    distances: &mut Vec<u32>,
) -> (usize, bool) {
    assert!(
        !prototypes.is_empty(),
        "associative-memory scan needs at least one prototype"
    );
    distances.clear();
    let simd = Simd::active();
    let mut best = u32::MAX;
    let mut best_class = 0usize;
    for (class, p) in prototypes.iter().enumerate() {
        assert_eq!(
            p.n_words32, query.n_words32,
            "prototype width mismatch: {} vs {} u32 words",
            p.n_words32, query.n_words32
        );
        // Invariant: `best > accept` here (the loop exits below the
        // moment that stops holding), so `prune = best` keeps the two
        // kernel exits disjoint.
        let d = simd.hamming_threshold(&p.words, &query.words, best, accept);
        distances.push(d);
        if d <= accept {
            distances.resize(prototypes.len(), u32::MAX);
            return (class, true);
        }
        if d < best {
            best = d;
            best_class = class;
        }
    }
    (best_class, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::majority_paper;
    use crate::encoder::ngram;
    use crate::rng::Xoshiro256PlusPlus;

    fn pair(n_words32: usize, seed: u64) -> (BinaryHv, Hv64) {
        let hv = BinaryHv::random(n_words32, seed);
        let packed = Hv64::from_binary(&hv);
        (hv, packed)
    }

    #[test]
    fn roundtrip_is_lossless_for_even_and_odd_widths() {
        for n_words32 in [1usize, 2, 3, 7, 16, 313] {
            let (hv, packed) = pair(n_words32, n_words32 as u64);
            assert_eq!(packed.to_binary(), hv, "{n_words32} words");
            assert_eq!(packed.dim(), hv.dim());
            assert_eq!(packed.n_words(), n_words32.div_ceil(2));
            assert_eq!(packed.count_ones(), hv.count_ones());
        }
    }

    #[test]
    fn padding_bits_stay_zero() {
        let (_, packed) = pair(313, 9);
        // 313 u32 words → 157 u64 words; top 32 bits of the last are pad.
        assert_eq!(packed.words()[156] >> 32, 0);
        let rotated = packed.rotate(1);
        assert_eq!(rotated.words()[156] >> 32, 0);
    }

    #[test]
    fn bind_matches_u32_model() {
        for n_words32 in [1usize, 3, 8, 313] {
            let (a, a64) = pair(n_words32, 1);
            let (b, b64) = pair(n_words32, 2);
            assert_eq!(a64.bind(&b64).to_binary(), a.bind(&b), "{n_words32} words");
        }
    }

    #[test]
    fn hamming_matches_u32_model() {
        for n_words32 in [1usize, 3, 8, 313] {
            let (a, a64) = pair(n_words32, 3);
            let (b, b64) = pair(n_words32, 4);
            assert_eq!(a64.hamming(&b64), a.hamming(&b), "{n_words32} words");
        }
    }

    #[test]
    fn rotate_matches_u32_model_across_shifts() {
        for n_words32 in [1usize, 2, 3, 5, 313] {
            let (a, a64) = pair(n_words32, 5);
            let dim = a.dim();
            for k in [0, 1, 31, 32, 33, 63, 64, 65, 127, dim - 1, dim, dim + 7] {
                assert_eq!(
                    a64.rotate(k).to_binary(),
                    a.rotate(k),
                    "{n_words32} words, k = {k}"
                );
            }
        }
    }

    #[test]
    fn rotate_randomized_against_u32_model() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xFA57);
        for case in 0..64 {
            let n_words32 = 1 + (rng.next_below(20) as usize);
            let (a, a64) = pair(n_words32, rng.next_u64());
            let k = rng.next_below(2 * a.dim() as u32) as usize;
            assert_eq!(a64.rotate(k).to_binary(), a.rotate(k), "case {case}");
        }
    }

    #[test]
    fn ngram_matches_u32_model() {
        for (n_words32, n) in [(3usize, 2usize), (5, 3), (313, 4)] {
            let hvs: Vec<BinaryHv> = (0..n)
                .map(|s| BinaryHv::random(n_words32, 40 + s as u64))
                .collect();
            let packed: Vec<Hv64> = hvs.iter().map(Hv64::from_binary).collect();
            assert_eq!(
                ngram64(&packed).to_binary(),
                ngram(&hvs),
                "{n_words32} words, N = {n}"
            );
        }
    }

    #[test]
    fn majority_matches_u32_model_odd_and_even() {
        for n in 1usize..10 {
            for n_words32 in [1usize, 3, 11, 313] {
                let hvs: Vec<BinaryHv> = (0..n)
                    .map(|s| BinaryHv::random(n_words32, 900 + s as u64))
                    .collect();
                let packed: Vec<Hv64> = hvs.iter().map(Hv64::from_binary).collect();
                let refs: Vec<&Hv64> = packed.iter().collect();
                assert_eq!(
                    majority_paper64(&refs).to_binary(),
                    majority_paper(&hvs),
                    "{n_words32} words, n = {n}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn bind_width_mismatch_panics() {
        let (_, a) = pair(2, 1);
        let (_, b) = pair(3, 2);
        let _ = a.bind(&b);
    }

    #[test]
    #[should_panic(expected = "odd input count")]
    fn bitsliced_majority_rejects_even_counts() {
        let (_, a) = pair(1, 1);
        let (_, b) = pair(1, 2);
        let _ = majority_odd_bitsliced64(&[&a, &b]);
    }

    #[test]
    fn in_place_ops_match_allocating_counterparts() {
        for n_words32 in [1usize, 2, 3, 8, 313] {
            let (_, a) = pair(n_words32, 21);
            let (_, b) = pair(n_words32, 22);
            // xor_assign == bind
            let mut x = a.clone();
            x.xor_assign(&b);
            assert_eq!(x, a.bind(&b), "{n_words32} words: xor_assign");
            // copy_from == clone
            let mut c = Hv64::zeros(n_words32);
            c.copy_from(&a);
            assert_eq!(c, a, "{n_words32} words: copy_from");
            let dim = a.dim();
            for k in [0usize, 1, 31, 32, 63, 64, 65, 100, dim - 1, dim, dim + 3] {
                // rotate_into == rotate, including into a dirty buffer
                let mut out = b.clone();
                a.rotate_into(k, &mut out);
                assert_eq!(out, a.rotate(k), "{n_words32} words, k = {k}: rotate_into");
                // xor_rotated == bind(rotate)
                let mut fused = a.clone();
                fused.xor_rotated(&b, k);
                assert_eq!(
                    fused,
                    a.bind(&b.rotate(k)),
                    "{n_words32} words, k = {k}: xor_rotated"
                );
            }
        }
    }

    /// The fused window encode equals `bundle_paper_into` over the
    /// spatial hypervectors it writes, at the active level, for odd
    /// widths (padding) and up to the in-register counter's limit:
    /// 1022 samples vote 1023 inputs with the tie vector, 1023 vote
    /// 1023 without it. One sample of 1023 channels is the widest
    /// spatial vote the counter holds; 1024 channels vote 1025 inputs
    /// and stream.
    #[test]
    fn bundle_window_into_matches_bundling_the_written_spatials() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xB0_7E);
        let window_lengths: &[usize] = if cfg!(miri) {
            &[1, 2, 25]
        } else {
            &[1, 2, 25, 1022, 1023]
        };
        // (samples, channels)
        let mut shapes: Vec<(usize, usize)> = [1usize, 4, 6]
            .iter()
            .flat_map(|&channels| window_lengths.iter().map(move |&t| (t, channels)))
            .collect();
        if !cfg!(miri) {
            shapes.extend([(1, 1023), (1, 1024)]);
        }
        for n_words32 in [3usize, 9] {
            let rows: Vec<Hv64> = (0..10)
                .map(|_| Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64())))
                .collect();
            let table: Vec<u64> = rows.iter().flat_map(|r| r.words().to_vec()).collect();
            let width = rows[0].n_words();
            for &(samples, channels) in &shapes {
                let picks: Vec<usize> = (0..samples * channels)
                    .map(|_| rng.next_below(rows.len() as u32) as usize)
                    .collect();
                let starts: Vec<usize> = picks.iter().map(|&r| r * width).collect();
                let spatials: Vec<Hv64> = (0..samples)
                    .map(|t| {
                        let mut spatial = Hv64::zeros(n_words32);
                        let row = |c: usize| &rows[picks[t * channels + c]];
                        BitslicedBundler::bundle_paper_into(channels, row, &mut spatial);
                        spatial
                    })
                    .collect();
                let mut expected = Hv64::zeros(n_words32);
                BitslicedBundler::bundle_paper_into(samples, |t| &spatials[t], &mut expected);
                let mut got = Hv64::zeros(n_words32);
                BitslicedBundler::bundle_window_into(samples, channels, &table, &starts, &mut got);
                assert_eq!(
                    got, expected,
                    "{n_words32} words, {channels} channels, {samples} samples"
                );
            }
        }
    }

    /// A window of more than one sample must fit the in-register
    /// counter: the caller writes the spatials of a longer one.
    #[test]
    #[should_panic(expected = "overflows")]
    fn bundle_window_into_rejects_a_window_past_the_counter() {
        let table = vec![0u64; 2];
        let mut out = Hv64::zeros(3);
        BitslicedBundler::bundle_window_into(1024, 1, &table, &[0; 1024], &mut out);
    }

    #[test]
    fn zeros_has_clean_padding_and_width() {
        let z = Hv64::zeros(313);
        assert_eq!(z.n_words32(), 313);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.to_binary(), BinaryHv::zeros(313));
    }

    #[test]
    fn bundler_matches_majority_paper64_for_all_counts() {
        for n in 1usize..12 {
            for n_words32 in [1usize, 3, 11, 313] {
                let hvs: Vec<Hv64> = (0..n)
                    .map(|s| Hv64::from_binary(&BinaryHv::random(n_words32, 700 + s as u64)))
                    .collect();
                let refs: Vec<&Hv64> = hvs.iter().collect();
                let mut bundler = BitslicedBundler::new(n_words32);
                let mut out = Hv64::zeros(n_words32);
                for hv in &hvs {
                    bundler.add(hv);
                }
                bundler.majority_paper_into(&mut out);
                assert_eq!(out, majority_paper64(&refs), "{n_words32} words, n = {n}");
                assert!(bundler.is_empty(), "bundler must self-reset");
            }
        }
    }

    #[test]
    fn bundle_paper_into_matches_majority_paper64_for_all_counts() {
        // n = 1..14 crosses every specialization boundary: identity,
        // the OR shortcut (n = 2), maj-3, maj-5 with and without the
        // tie input, and the carry-save tree; the larger counts cover
        // the served temporal vote (25) and the counter's plane-count
        // steps.
        for n in (1usize..14).chain([24, 25, 31, 32, 63, 64]) {
            for n_words32 in [1usize, 3, 11, 313] {
                let hvs: Vec<Hv64> = (0..n)
                    .map(|s| Hv64::from_binary(&BinaryHv::random(n_words32, 550 + s as u64)))
                    .collect();
                let refs: Vec<&Hv64> = hvs.iter().collect();
                let mut out = Hv64::from_binary(&BinaryHv::random(n_words32, 1)); // dirty
                BitslicedBundler::bundle_paper_into(n, |i| &hvs[i], &mut out);
                assert_eq!(out, majority_paper64(&refs), "{n_words32} words, n = {n}");
            }
        }
    }

    #[test]
    fn bundle_paper_into_handles_votes_wider_than_the_register_counter() {
        // > 1022 inputs overflow the 10-plane in-register counter and
        // must route through the streaming fallback — no panic, same
        // bits (a 1023-sample window at ngram 1 is a legal workload).
        for n in [1023usize, 1030, 1041] {
            let hvs: Vec<Hv64> = (0..n)
                .map(|s| Hv64::from_binary(&BinaryHv::random(2, s as u64)))
                .collect();
            let refs: Vec<&Hv64> = hvs.iter().collect();
            let mut out = Hv64::zeros(2);
            BitslicedBundler::bundle_paper_into(n, |i| &hvs[i], &mut out);
            assert_eq!(out, majority_paper64(&refs), "n = {n}");
        }
    }

    #[test]
    fn bundler_reuse_is_stateless_across_rounds() {
        // Interleave bundles of different sizes through one accumulator;
        // every round must match a fresh computation.
        let mut bundler = BitslicedBundler::new(7);
        let mut out = Hv64::zeros(7);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xB0D1);
        for round in 0..16 {
            let n = 1 + (rng.next_below(9) as usize);
            let hvs: Vec<Hv64> = (0..n)
                .map(|_| Hv64::from_binary(&BinaryHv::random(7, rng.next_u64())))
                .collect();
            let refs: Vec<&Hv64> = hvs.iter().collect();
            for hv in &hvs {
                bundler.add(hv);
            }
            bundler.majority_paper_into(&mut out);
            assert_eq!(out, majority_paper64(&refs), "round {round}, n = {n}");
        }
    }

    #[test]
    fn bundler_of_all_zero_inputs_is_zero() {
        // No plane is ever materialized, yet the threshold must still
        // reject every component.
        let z = Hv64::zeros(3);
        let mut bundler = BitslicedBundler::new(3);
        let mut out = Hv64::from_binary(&BinaryHv::random(3, 5));
        for _ in 0..3 {
            bundler.add(&z);
        }
        bundler.majority_paper_into(&mut out);
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "empty bundle")]
    fn bundler_empty_majority_panics() {
        let mut bundler = BitslicedBundler::new(2);
        let mut out = Hv64::zeros(2);
        bundler.majority_paper_into(&mut out);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn bundler_add_width_mismatch_panics() {
        let mut bundler = BitslicedBundler::new(2);
        let (_, a) = pair(3, 1);
        bundler.add(&a);
    }

    #[test]
    fn counter_bundler_matches_scalar_training_bundler() {
        use crate::bundle::{Bundler, TieBreak};
        for n in 1usize..=12 {
            for n_words32 in [1usize, 3, 11, 313] {
                let hvs: Vec<BinaryHv> = (0..n)
                    .map(|s| BinaryHv::random(n_words32, 2_000 + s as u64))
                    .collect();
                let tie = BinaryHv::random(n_words32, 4_242);
                let mut scalar = Bundler::new(n_words32);
                let mut packed = CounterBundler::new(n_words32);
                for hv in &hvs {
                    scalar.add(hv);
                    packed.add(&Hv64::from_binary(hv));
                }
                assert_eq!(packed.len(), n as u32);
                let mut out = Hv64::from_binary(&BinaryHv::random(n_words32, 7)); // dirty
                packed.majority_seeded_into(&Hv64::from_binary(&tie), &mut out);
                assert_eq!(
                    out.to_binary(),
                    scalar.majority(TieBreak::Vector(&tie)),
                    "{n_words32} words, n = {n}"
                );
                // Counters persist: thresholding again gives the same
                // answer, and more adds keep counting.
                let mut again = Hv64::zeros(n_words32);
                packed.majority_seeded_into(&Hv64::from_binary(&tie), &mut again);
                assert_eq!(again, out, "{n_words32} words, n = {n}: persistent");
            }
        }
    }

    /// Exact ties are the adversarial case: two complementary inputs tie
    /// every component, so the output must equal the tie vector itself.
    #[test]
    fn counter_bundler_ties_copy_the_tie_vector() {
        let a = BinaryHv::random(5, 1);
        let mut b = a.clone();
        for i in 0..b.dim() {
            b.set_bit(i, !b.bit(i));
        }
        let tie = BinaryHv::random(5, 9);
        let mut packed = CounterBundler::new(5);
        packed.add(&Hv64::from_binary(&a));
        packed.add(&Hv64::from_binary(&b));
        let mut out = Hv64::zeros(5);
        packed.majority_seeded_into(&Hv64::from_binary(&tie), &mut out);
        assert_eq!(out.to_binary(), tie);
    }

    /// Merging split accumulators equals one accumulator over the whole
    /// stream, regardless of split point or merge order.
    #[test]
    fn counter_bundler_merge_is_exact_and_order_free() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xC0DE);
        for case in 0..12 {
            let n_words32 = 1 + rng.next_below(20) as usize;
            let n = 1 + rng.next_below(14) as usize;
            let hvs: Vec<Hv64> = (0..n)
                .map(|_| Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64())))
                .collect();
            let tie = Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64()));
            let mut whole = CounterBundler::new(n_words32);
            for hv in &hvs {
                whole.add(hv);
            }
            let split = (rng.next_below(n as u32 + 1)) as usize;
            let mut left = CounterBundler::new(n_words32);
            let mut right = CounterBundler::new(n_words32);
            for hv in &hvs[..split] {
                left.add(hv);
            }
            for hv in &hvs[split..] {
                right.add(hv);
            }
            let mut expected = Hv64::zeros(n_words32);
            whole.majority_seeded_into(&tie, &mut expected);
            // left ← right …
            let mut merged = left.clone();
            merged.merge(&right);
            assert_eq!(merged.len(), n as u32);
            let mut out = Hv64::zeros(n_words32);
            merged.majority_seeded_into(&tie, &mut out);
            assert_eq!(out, expected, "case {case}: split {split} of {n}");
            // … and right ← left agree.
            let mut flipped = right.clone();
            flipped.merge(&left);
            flipped.majority_seeded_into(&tie, &mut out);
            assert_eq!(out, expected, "case {case}: merge order");
        }
    }

    #[test]
    fn counter_bundler_clear_keeps_storage_and_resets_counts() {
        let mut b = CounterBundler::new(3);
        for s in 0..5 {
            b.add(&Hv64::from_binary(&BinaryHv::random(3, s)));
        }
        b.clear();
        assert!(b.is_empty());
        let probe = Hv64::from_binary(&BinaryHv::random(3, 77));
        b.add(&probe);
        let mut out = Hv64::zeros(3);
        b.majority_seeded_into(&Hv64::zeros(3), &mut out);
        assert_eq!(out, probe, "single input after clear is the identity");
    }

    #[test]
    #[should_panic(expected = "empty bundle")]
    fn counter_bundler_empty_majority_panics() {
        let b = CounterBundler::new(2);
        let mut out = Hv64::zeros(2);
        b.majority_seeded_into(&Hv64::zeros(2), &mut out);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn counter_bundler_add_width_mismatch_panics() {
        let mut b = CounterBundler::new(2);
        b.add(&Hv64::zeros(3));
    }

    #[test]
    fn pruned_scan_class_matches_full_scan() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5CAD);
        for case in 0..64 {
            let n_words32 = 1 + (rng.next_below(20) as usize);
            let classes = 1 + (rng.next_below(8) as usize);
            let prototypes: Vec<Hv64> = (0..classes)
                .map(|_| Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64())))
                .collect();
            let query = Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64()));
            let full: Vec<u32> = prototypes.iter().map(|p| p.hamming(&query)).collect();
            let expected = full
                .iter()
                .enumerate()
                .min_by_key(|&(_, &d)| d)
                .map(|(i, _)| i)
                .unwrap();
            let mut distances = Vec::new();
            let class = scan_pruned_into(&prototypes, &query, &mut distances);
            assert_eq!(class, expected, "case {case}");
            assert_eq!(distances[class], full[class], "case {case}: winner exact");
            for (k, (&pruned, &exact)) in distances.iter().zip(&full).enumerate() {
                assert!(pruned <= exact, "case {case}, class {k}: lower bound");
                if k != class {
                    assert!(
                        pruned >= full[class],
                        "case {case}, class {k}: non-winner cannot undercut the minimum"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_scan_breaks_exact_ties_like_full_scan() {
        // All prototypes identical: every distance ties, and the first
        // minimum must win, exactly as the kernel's strict-less search.
        let p = Hv64::from_binary(&BinaryHv::random(5, 9));
        let prototypes = vec![p.clone(), p.clone(), p.clone()];
        let query = Hv64::from_binary(&BinaryHv::random(5, 10));
        let mut distances = Vec::new();
        assert_eq!(scan_pruned_into(&prototypes, &query, &mut distances), 0);
        let exact = p.hamming(&query);
        assert_eq!(distances[0], exact, "first prototype is fully scanned");
    }

    /// With `accept = 0` (and distinct prototypes) the threshold scan
    /// never accepts early, so it must agree with the exact pruned scan
    /// on class *and* distances across random shapes.
    #[test]
    fn threshold_scan_with_zero_accept_matches_pruned_scan() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x7A11);
        for case in 0..64 {
            let n_words32 = 1 + (rng.next_below(20) as usize);
            let classes = 1 + (rng.next_below(8) as usize);
            let prototypes: Vec<Hv64> = (0..classes)
                .map(|_| Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64())))
                .collect();
            let query = Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64()));
            let mut pruned = Vec::new();
            let expected = scan_pruned_into(&prototypes, &query, &mut pruned);
            let mut thresholded = Vec::new();
            let (class, accepted) = scan_threshold_into(&prototypes, &query, 0, &mut thresholded);
            if accepted {
                // Only an exact duplicate of the query can be accepted
                // at radius zero.
                assert_eq!(thresholded[class], 0, "case {case}");
                assert_eq!(prototypes[class], query, "case {case}");
                assert_eq!(class, expected, "case {case}");
            } else {
                assert_eq!(class, expected, "case {case}");
                assert_eq!(thresholded, pruned, "case {case}");
            }
        }
    }

    /// An acceptance exit always returns a class whose *true* distance
    /// is within the radius, skipped classes carry the sentinel, and
    /// the accepted class is the first such class in scan order.
    #[test]
    fn threshold_scan_accepts_first_class_within_radius() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xACC3);
        for case in 0..64 {
            let n_words32 = 1 + (rng.next_below(20) as usize);
            let classes = 2 + (rng.next_below(7) as usize);
            let mut prototypes: Vec<Hv64> = (0..classes)
                .map(|_| Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64())))
                .collect();
            // Plant a near-duplicate of the query mid-scan.
            let query = Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64()));
            let planted = rng.next_below(classes as u32) as usize;
            prototypes[planted] = query.clone();
            let accept = 4 + rng.next_below(n_words32 as u32 * 8);
            let mut distances = Vec::new();
            let (class, accepted) =
                scan_threshold_into(&prototypes, &query, accept, &mut distances);
            assert!(accepted, "case {case}: planted duplicate must be accepted");
            assert!(
                prototypes[class].hamming(&query) <= accept,
                "case {case}: accepted class within radius"
            );
            assert!(distances[class] <= accept, "case {case}");
            // First-acceptable-in-order: nobody before `class` is
            // within the radius.
            for (k, earlier) in prototypes.iter().enumerate().take(class) {
                assert!(
                    earlier.hamming(&query) > accept,
                    "case {case}, class {k}: earlier class inside radius was skipped"
                );
            }
            for (k, &d) in distances.iter().enumerate().skip(class + 1) {
                assert_eq!(d, u32::MAX, "case {case}, class {k}: sentinel");
            }
            assert_eq!(distances.len(), classes, "case {case}");
        }
    }

    /// Every SIMD level produces identical threshold-scan results
    /// (classes, acceptance flags, and every partial distance).
    #[test]
    fn threshold_scan_is_level_independent() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x1E7E);
        let before = Simd::active();
        for case in 0..32 {
            let n_words32 = 1 + (rng.next_below(20) as usize);
            let classes = 1 + (rng.next_below(8) as usize);
            let mut prototypes: Vec<Hv64> = (0..classes)
                .map(|_| Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64())))
                .collect();
            let query = Hv64::from_binary(&BinaryHv::random(n_words32, rng.next_u64()));
            if case % 2 == 0 {
                let planted = rng.next_below(classes as u32) as usize;
                prototypes[planted] = query.clone();
            }
            let accept = rng.next_below(n_words32 as u32 * 16);
            let mut results = Vec::new();
            for level in Simd::available() {
                Simd::set_active(level);
                let mut distances = Vec::new();
                let out = scan_threshold_into(&prototypes, &query, accept, &mut distances);
                results.push((out, distances));
            }
            Simd::set_active(before);
            for pair in results.windows(2) {
                assert_eq!(pair[0], pair[1], "case {case}");
            }
        }
    }
}
