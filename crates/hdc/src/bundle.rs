//! Bundling (the HD *addition*): componentwise majority with explicit
//! tie-break policies.
//!
//! Bundling superimposes a set of hypervectors into one that stays similar
//! to every input. For binary vectors this is the componentwise majority
//! vote; with an even number of inputs, ties must be broken, and *how* they
//! are broken is part of the model definition. The PULP-HD kernels break
//! ties with "one random but reproducible hypervector … generated by
//! componentwise XOR between two bound hypervectors"; training-time
//! accumulation in the golden model uses a seeded pseudo-random tie vector.
//! [`TieBreak`] makes the choice explicit at every call site.
//!
//! Everything here operates on the canonical `u32`-packed [`BinaryHv`]
//! and favors clarity over speed — it is the semantic reference. The
//! throughput twin lives in [`crate::hv64`]: [`majority_odd_bitsliced`]
//! corresponds to `majority_odd_bitsliced64`, [`majority_paper`] to
//! `majority_paper64`, and the fast backend's streaming, zero-allocation
//! form of the same vote is [`crate::hv64::BitslicedBundler`] (property
//! tests pin all of them to this module bit for bit).

use crate::hv::{BinaryHv, BITS_PER_WORD};
use crate::rng::Xoshiro256PlusPlus;

/// Tie-break policy for componentwise majority over an even number of
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak<'a> {
    /// Tied components become `0`.
    Zero,
    /// Tied components become `1`.
    One,
    /// Tied components copy the corresponding component of the given
    /// vector (the paper's kernel policy, with the vector being the XOR of
    /// the first two bound hypervectors).
    Vector(&'a BinaryHv),
    /// Tied components take i.i.d. pseudo-random values derived from the
    /// seed — "ties broken at random", reproducibly.
    Seeded(u64),
}

/// Accumulates hypervectors and produces their componentwise majority.
///
/// Internally keeps one saturating-free `u32` counter per component, so it
/// also serves as the associative-memory training accumulator (prototypes
/// are the majority over all of a class's encoded trials).
///
/// # Examples
///
/// ```
/// use hdc::{BinaryHv, Bundler, TieBreak};
///
/// let a = BinaryHv::random(313, 1);
/// let b = BinaryHv::random(313, 2);
/// let c = BinaryHv::random(313, 3);
/// let mut bundler = Bundler::new(313);
/// for hv in [&a, &b, &c] {
///     bundler.add(hv);
/// }
/// let sum = bundler.majority(TieBreak::Zero);
/// // The bundle is similar to every input (distance well below D/2)…
/// assert!(sum.normalized_hamming(&a) < 0.3);
/// // …but not equal to any of them.
/// assert_ne!(sum, a);
/// ```
#[derive(Debug, Clone)]
pub struct Bundler {
    counts: Vec<u32>,
    n_words: usize,
    n_inputs: u32,
}

impl Bundler {
    /// Creates an empty bundler for hypervectors of `n_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `n_words == 0`.
    #[must_use]
    pub fn new(n_words: usize) -> Self {
        assert!(n_words > 0, "bundler width must be at least one word");
        Self {
            counts: vec![0; n_words * BITS_PER_WORD],
            n_words,
            n_inputs: 0,
        }
    }

    /// Number of hypervectors accumulated so far.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.n_inputs
    }

    /// Whether no hypervectors have been accumulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_inputs == 0
    }

    /// Width of accepted hypervectors, in words.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Adds one hypervector to the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `hv` has a different width.
    pub fn add(&mut self, hv: &BinaryHv) {
        assert_eq!(
            hv.n_words(),
            self.n_words,
            "bundler width mismatch: expected {} words, got {}",
            self.n_words,
            hv.n_words()
        );
        for (wi, &word) in hv.words().iter().enumerate() {
            let base = wi * BITS_PER_WORD;
            for bit in 0..BITS_PER_WORD {
                self.counts[base + bit] += (word >> bit) & 1;
            }
        }
        self.n_inputs += 1;
    }

    /// Per-component count of ones among the accumulated inputs.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Componentwise majority of the accumulated inputs.
    ///
    /// Components where exactly half the inputs are one are resolved by
    /// `tie` (only reachable for an even number of inputs).
    ///
    /// # Panics
    ///
    /// Panics if the bundler is empty, or if `tie` is
    /// [`TieBreak::Vector`] with a vector of different width.
    #[must_use]
    pub fn majority(&self, tie: TieBreak<'_>) -> BinaryHv {
        let mut out = BinaryHv::zeros(self.n_words);
        self.majority_into(tie, &mut out);
        out
    }

    /// Writes the componentwise majority into an existing hypervector,
    /// touching only words whose value actually changed — the
    /// allocation-free form of [`majority`](Self::majority) that makes
    /// online updates cheap.
    ///
    /// Two costs of the allocating form are skipped: no output
    /// hypervector is allocated, and the tie-break vector is
    /// materialized **only if some component actually ties** (never for
    /// an odd input count, and for [`TieBreak::Seeded`] this is where
    /// the whole pseudo-random vector generation lives). The result is
    /// bit-identical to [`majority`](Self::majority) regardless of
    /// `out`'s previous contents — a property test pins this.
    ///
    /// # Panics
    ///
    /// Panics if the bundler is empty, `out` has a different width, or
    /// `tie` is [`TieBreak::Vector`] with a vector of different width.
    pub fn majority_into(&self, tie: TieBreak<'_>, out: &mut BinaryHv) {
        assert!(!self.is_empty(), "majority of an empty bundle is undefined");
        assert_eq!(
            out.n_words(),
            self.n_words,
            "majority output width mismatch: expected {} words, got {}",
            self.n_words,
            out.n_words()
        );
        if let TieBreak::Vector(hv) = tie {
            assert_eq!(
                hv.n_words(),
                self.n_words,
                "tie-break vector width mismatch: expected {} words, got {}",
                self.n_words,
                hv.n_words()
            );
        }
        let n = self.n_inputs;
        let mut seeded_tie: Option<BinaryHv> = None;
        for wi in 0..self.n_words {
            let base = wi * BITS_PER_WORD;
            let mut word = 0u32;
            let mut ties = 0u32;
            for bit in 0..BITS_PER_WORD {
                match (2 * self.counts[base + bit]).cmp(&n) {
                    core::cmp::Ordering::Greater => word |= 1 << bit,
                    core::cmp::Ordering::Equal => ties |= 1 << bit,
                    core::cmp::Ordering::Less => {}
                }
            }
            if ties != 0 {
                let tie_word = match tie {
                    TieBreak::Zero => 0,
                    TieBreak::One => u32::MAX,
                    TieBreak::Vector(hv) => hv.words()[wi],
                    TieBreak::Seeded(seed) => {
                        let hv = seeded_tie.get_or_insert_with(|| {
                            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
                            BinaryHv::random_from(self.n_words, &mut rng)
                        });
                        hv.words()[wi]
                    }
                };
                word |= tie_word & ties;
            }
            if out.words()[wi] != word {
                out.words_mut()[wi] = word;
            }
        }
    }

    /// Resets the accumulator to empty without releasing storage.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n_inputs = 0;
    }
}

/// Majority of a slice of hypervectors with the *paper's kernel policy*:
/// when the input count is even, the tie-break vector is the XOR of the
/// first two inputs (making the vote effectively odd and reproducible).
///
/// This is the exact semantics the simulated spatial-encoder kernel
/// implements, so the golden model must share it bit-for-bit.
///
/// # Panics
///
/// Panics if `inputs` is empty or widths differ.
///
/// # Examples
///
/// ```
/// use hdc::{BinaryHv, bundle::majority_paper};
///
/// let inputs: Vec<BinaryHv> = (0..4).map(|s| BinaryHv::random(10, s)).collect();
/// let m = majority_paper(&inputs);
/// for hv in &inputs {
///     assert!(m.normalized_hamming(hv) < 0.5);
/// }
/// ```
#[must_use]
pub fn majority_paper(inputs: &[BinaryHv]) -> BinaryHv {
    assert!(!inputs.is_empty(), "majority of an empty set is undefined");
    if inputs.len() == 1 {
        return inputs[0].clone();
    }
    let tie = if inputs.len().is_multiple_of(2) {
        Some(inputs[0].bind(&inputs[1]))
    } else {
        None
    };
    let refs: Vec<&BinaryHv> = inputs.iter().chain(tie.as_ref()).collect();
    // Vote count is odd by construction, so no tie policy is needed.
    majority_odd_bitsliced(&refs)
}

/// Componentwise majority of an odd number of equally wide hypervectors,
/// computed bit-parallel with vertical (bit-sliced) counters — 32
/// components per word-operation instead of one. Semantically identical
/// to accumulating per-component counters and thresholding at `n/2 + 1`.
///
/// # Panics
///
/// Panics if `inputs` is empty, has an even length, or widths differ.
///
/// # Examples
///
/// ```
/// use hdc::{BinaryHv, bundle::majority_odd_bitsliced};
///
/// let a = BinaryHv::from_words(vec![0b1111_0000]);
/// let b = BinaryHv::from_words(vec![0b1100_1100]);
/// let c = BinaryHv::from_words(vec![0b1010_1010]);
/// let m = majority_odd_bitsliced(&[&a, &b, &c]);
/// assert_eq!(m.words()[0], 0b1110_1000);
/// ```
#[must_use]
pub fn majority_odd_bitsliced(inputs: &[&BinaryHv]) -> BinaryHv {
    assert!(!inputs.is_empty(), "majority of an empty set is undefined");
    assert!(
        inputs.len() % 2 == 1,
        "bit-sliced majority requires an odd input count"
    );
    let n_words = inputs[0].n_words();
    for hv in inputs {
        assert_eq!(
            hv.n_words(),
            n_words,
            "majority width mismatch: expected {n_words} words, got {}",
            hv.n_words()
        );
    }
    let n = inputs.len() as u32;
    let threshold = n / 2 + 1;
    // Vertical counter planes: plane[p] holds bit p of the per-component
    // vote count, for all 32 components of a word at once.
    let n_planes = (32 - n.leading_zeros()) as usize;
    let mut out = Vec::with_capacity(n_words);
    let mut planes = vec![0u32; n_planes];
    for wi in 0..n_words {
        planes.fill(0);
        for hv in inputs {
            // Ripple-carry increment of the vertical counters by the
            // input word.
            let mut carry = hv.words()[wi];
            for plane in planes.iter_mut() {
                let t = *plane & carry;
                *plane ^= carry;
                carry = t;
            }
            debug_assert_eq!(carry, 0, "counter planes sized for n inputs");
        }
        // count >= threshold ⇔ (count - threshold) does not borrow,
        // evaluated bitwise-parallel across the 32 components.
        let mut borrow = 0u32;
        for (p, &plane) in planes.iter().enumerate() {
            let t = if threshold >> p & 1 == 1 { u32::MAX } else { 0 };
            borrow = (!plane & (t | borrow)) | (t & borrow);
        }
        out.push(!borrow);
    }
    BinaryHv::from_words(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_of_single_input_is_identity() {
        let a = BinaryHv::random(8, 1);
        assert_eq!(majority_paper(std::slice::from_ref(&a)), a);
    }

    #[test]
    fn majority_of_three_matches_truth_table() {
        // Construct three one-word vectors covering all 8 bit patterns.
        let a = BinaryHv::from_words(vec![0b1111_0000]);
        let b = BinaryHv::from_words(vec![0b1100_1100]);
        let c = BinaryHv::from_words(vec![0b1010_1010]);
        let mut bundler = Bundler::new(1);
        bundler.add(&a);
        bundler.add(&b);
        bundler.add(&c);
        let m = bundler.majority(TieBreak::Zero);
        assert_eq!(m.words()[0], 0b1110_1000);
    }

    #[test]
    fn even_count_ties_resolved_by_policy() {
        let a = BinaryHv::from_words(vec![0b01]);
        let b = BinaryHv::from_words(vec![0b10]);
        let mut bundler = Bundler::new(1);
        bundler.add(&a);
        bundler.add(&b);
        // Both bits are ties (one vote each out of two).
        assert_eq!(bundler.majority(TieBreak::Zero).words()[0] & 0b11, 0b00);
        assert_eq!(bundler.majority(TieBreak::One).words()[0] & 0b11, 0b11);
        let tie = BinaryHv::from_words(vec![0b10]);
        assert_eq!(
            bundler.majority(TieBreak::Vector(&tie)).words()[0] & 0b11,
            0b10
        );
    }

    #[test]
    fn seeded_tie_break_is_reproducible() {
        let a = BinaryHv::random(4, 1);
        let b = BinaryHv::random(4, 2);
        let mut bundler = Bundler::new(4);
        bundler.add(&a);
        bundler.add(&b);
        let x = bundler.majority(TieBreak::Seeded(99));
        let y = bundler.majority(TieBreak::Seeded(99));
        let z = bundler.majority(TieBreak::Seeded(100));
        assert_eq!(x, y);
        assert_ne!(x, z, "different seeds should resolve ties differently");
    }

    #[test]
    fn paper_majority_even_count_uses_xor_tie_vector() {
        let a = BinaryHv::from_words(vec![0b0011]);
        let b = BinaryHv::from_words(vec![0b0101]);
        // Ties at every bit where a and b differ: bits 1 and 2.
        // Tie vector = a ^ b = 0b0110 → tied bits copy it.
        let m = majority_paper(&[a.clone(), b.clone()]);
        // bit0: votes a=1,b=1 → 1. bit1: a=1,b=0, tie→ (a^b) bit1=1 → 1.
        // bit2: a=0,b=1, tie→ (a^b) bit2=1 → 1. bit3: 0,0 → 0.
        assert_eq!(m.words()[0], 0b0111);
    }

    #[test]
    fn bundle_similarity_grows_with_agreement() {
        // A bundle of vectors all near `base` stays very near `base`.
        let base = BinaryHv::random(313, 0);
        let noisy: Vec<BinaryHv> = (0..5).map(|s| base.with_bit_flips(500, s)).collect();
        let m = majority_paper(&noisy);
        assert!(m.normalized_hamming(&base) < 0.05);
    }

    #[test]
    fn clear_resets_state() {
        let mut bundler = Bundler::new(2);
        bundler.add(&BinaryHv::random(2, 1));
        bundler.clear();
        assert!(bundler.is_empty());
        assert!(bundler.counts().iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "empty bundle")]
    fn empty_majority_panics() {
        let bundler = Bundler::new(2);
        let _ = bundler.majority(TieBreak::Zero);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn add_width_mismatch_panics() {
        let mut bundler = Bundler::new(2);
        bundler.add(&BinaryHv::zeros(3));
    }

    /// The in-place form is bit-identical to the allocating one for
    /// every tie policy, input parity, and (dirty) output start state.
    #[test]
    fn majority_into_matches_allocating_majority() {
        for n in 1usize..=10 {
            let inputs: Vec<BinaryHv> = (0..n)
                .map(|s| BinaryHv::random(9, 300 + s as u64))
                .collect();
            let mut bundler = Bundler::new(9);
            for hv in &inputs {
                bundler.add(hv);
            }
            let vector = BinaryHv::random(9, 777);
            let policies = [
                TieBreak::Zero,
                TieBreak::One,
                TieBreak::Vector(&vector),
                TieBreak::Seeded(1234),
            ];
            for (pi, &tie) in policies.iter().enumerate() {
                let expected = bundler.majority(tie);
                // Start from garbage: every word must be corrected.
                let mut out = BinaryHv::random(9, 900 + pi as u64);
                bundler.majority_into(tie, &mut out);
                assert_eq!(out, expected, "n = {n}, policy {pi} from dirty");
                // Start from the answer: idempotent.
                bundler.majority_into(tie, &mut out);
                assert_eq!(out, expected, "n = {n}, policy {pi} idempotent");
            }
        }
    }

    #[test]
    #[should_panic(expected = "tie-break vector width mismatch")]
    fn majority_into_rejects_mismatched_tie_vector() {
        let mut bundler = Bundler::new(2);
        bundler.add(&BinaryHv::random(2, 1));
        let bad = BinaryHv::zeros(3);
        let mut out = BinaryHv::zeros(2);
        bundler.majority_into(TieBreak::Vector(&bad), &mut out);
    }

    #[test]
    #[should_panic(expected = "output width mismatch")]
    fn majority_into_rejects_mismatched_output() {
        let mut bundler = Bundler::new(2);
        bundler.add(&BinaryHv::random(2, 1));
        let mut out = BinaryHv::zeros(3);
        bundler.majority_into(TieBreak::Zero, &mut out);
    }

    #[test]
    fn bitsliced_majority_matches_counter_reference() {
        for n in [1usize, 3, 5, 7, 9, 15, 21] {
            let inputs: Vec<BinaryHv> = (0..n)
                .map(|s| BinaryHv::random(11, 900 + s as u64))
                .collect();
            let refs: Vec<&BinaryHv> = inputs.iter().collect();
            let fast = majority_odd_bitsliced(&refs);
            let mut bundler = Bundler::new(11);
            for hv in &inputs {
                bundler.add(hv);
            }
            let slow = bundler.majority(TieBreak::Zero);
            assert_eq!(fast, slow, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "odd input count")]
    fn bitsliced_majority_rejects_even_counts() {
        let a = BinaryHv::zeros(1);
        let b = BinaryHv::zeros(1);
        let _ = majority_odd_bitsliced(&[&a, &b]);
    }
}
