//! Packed binary hypervectors.
//!
//! A [`BinaryHv`] stores a `{0,1}^D` hypervector packed 32 components per
//! `u32` word, exactly as the PULP-HD C implementation does. The paper's
//! "10,000-dimensional" vectors therefore occupy 313 words and effectively
//! live in a 10,016-dimensional space (the padding bits participate in all
//! operations, matching the released code).
//!
//! Component `i` is bit `i % 32` of word `i / 32`.

use core::fmt;

use crate::rng::Xoshiro256PlusPlus;

/// Number of binary components packed into one machine word.
pub const BITS_PER_WORD: usize = 32;

/// Number of `u32` words needed to hold `dim` binary components.
///
/// # Examples
///
/// ```
/// assert_eq!(hdc::hv::words_for_dim(10_000), 313);
/// assert_eq!(hdc::hv::words_for_dim(200), 7);
/// ```
#[must_use]
pub const fn words_for_dim(dim: usize) -> usize {
    dim.div_ceil(BITS_PER_WORD)
}

/// A binary hypervector packed into `u32` words.
///
/// All mutating and combining operations require operands of the same
/// width; widths are validated eagerly (see individual methods).
///
/// # Examples
///
/// ```
/// use hdc::BinaryHv;
///
/// let a = BinaryHv::random(313, 1);
/// let b = BinaryHv::random(313, 2);
/// // Random hypervectors are quasi-orthogonal: distance ≈ D/2.
/// let d = a.hamming(&b);
/// assert!((4500..5500).contains(&d));
/// // Binding is XOR: it is its own inverse.
/// let bound = a.bind(&b);
/// assert_eq!(bound.bind(&b), a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BinaryHv {
    words: Box<[u32]>,
}

impl BinaryHv {
    /// Creates the all-zero hypervector of `n_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `n_words == 0`; a zero-width hypervector is never
    /// meaningful and would otherwise propagate silently.
    #[must_use]
    pub fn zeros(n_words: usize) -> Self {
        assert!(n_words > 0, "hypervector must have at least one word");
        Self {
            words: vec![0; n_words].into_boxed_slice(),
        }
    }

    /// Creates a pseudo-random dense hypervector (i.i.d. fair bits) from a
    /// dedicated seed.
    ///
    /// # Panics
    ///
    /// Panics if `n_words == 0`.
    #[must_use]
    pub fn random(n_words: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        Self::random_from(n_words, &mut rng)
    }

    /// Creates a pseudo-random hypervector drawing from an existing stream.
    ///
    /// # Panics
    ///
    /// Panics if `n_words == 0`.
    #[must_use]
    pub fn random_from(n_words: usize, rng: &mut Xoshiro256PlusPlus) -> Self {
        assert!(n_words > 0, "hypervector must have at least one word");
        let words: Vec<u32> = (0..n_words).map(|_| rng.next_u32()).collect();
        Self {
            words: words.into_boxed_slice(),
        }
    }

    /// Wraps an existing word vector.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty.
    #[must_use]
    pub fn from_words(words: Vec<u32>) -> Self {
        assert!(!words.is_empty(), "hypervector must have at least one word");
        Self {
            words: words.into_boxed_slice(),
        }
    }

    /// Dimensionality (number of binary components, always a multiple of 32).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.words.len() * BITS_PER_WORD
    }

    /// Number of packed words.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.words.len()
    }

    /// The packed words, little-endian in component order.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Mutable access to the packed words.
    pub fn words_mut(&mut self) -> &mut [u32] {
        &mut self.words
    }

    /// Value of component `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.dim(), "component {i} out of range {}", self.dim());
        (self.words[i / BITS_PER_WORD] >> (i % BITS_PER_WORD)) & 1 == 1
    }

    /// Sets component `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(i < self.dim(), "component {i} out of range {}", self.dim());
        let mask = 1u32 << (i % BITS_PER_WORD);
        if value {
            self.words[i / BITS_PER_WORD] |= mask;
        } else {
            self.words[i / BITS_PER_WORD] &= !mask;
        }
    }

    /// Number of components set to one.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
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
        assert_eq!(
            self.n_words(),
            other.n_words(),
            "hypervector width mismatch: {} vs {} words",
            self.n_words(),
            other.n_words()
        );
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a ^= *b;
        }
    }

    /// The permutation ρ: rotates all components left by one position
    /// (component `i` of the result is component `i-1` of the input,
    /// wrapping at the packed width).
    ///
    /// This matches a `u32`-array bit-rotation, carries included, as the
    /// embedded kernels implement it.
    #[must_use]
    pub fn rotate_one(&self) -> Self {
        self.rotate(1)
    }

    /// ρᵏ: rotates all components left by `k` positions (mod the packed
    /// width). `rotate(0)` is the identity.
    #[must_use]
    pub fn rotate(&self, k: usize) -> Self {
        let n = self.words.len();
        let dim = self.dim();
        let k = k % dim;
        if k == 0 {
            return self.clone();
        }
        let word_shift = k / BITS_PER_WORD;
        let bit_shift = k % BITS_PER_WORD;
        let mut out = vec![0u32; n];
        for (j, slot) in out.iter_mut().enumerate() {
            // Source words, walking backwards with wraparound.
            let lo = self.words[(j + n - word_shift) % n];
            if bit_shift == 0 {
                *slot = lo;
            } else {
                let hi = self.words[(j + n - word_shift - 1) % n];
                *slot = (lo << bit_shift) | (hi >> (BITS_PER_WORD - bit_shift));
            }
        }
        Self {
            words: out.into_boxed_slice(),
        }
    }

    /// Hamming distance: number of components at which the vectors differ.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> u32 {
        assert_eq!(
            self.n_words(),
            other.n_words(),
            "hypervector width mismatch: {} vs {} words",
            self.n_words(),
            other.n_words()
        );
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Hamming distance normalized to `[0, 1]`.
    ///
    /// Quasi-orthogonal vectors score ≈ 0.5.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths.
    #[must_use]
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        f64::from(self.hamming(other)) / self.dim() as f64
    }

    /// Returns a copy with exactly `count` distinct, pseudo-randomly chosen
    /// components flipped — used for fault-injection / graceful-degradation
    /// experiments.
    ///
    /// # Panics
    ///
    /// Panics if `count > self.dim()`.
    #[must_use]
    pub fn with_bit_flips(&self, count: usize, seed: u64) -> Self {
        assert!(
            count <= self.dim(),
            "cannot flip {count} of {} components",
            self.dim()
        );
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut positions: Vec<usize> = (0..self.dim()).collect();
        rng.shuffle(&mut positions);
        let mut out = self.clone();
        for &p in &positions[..count] {
            out.set_bit(p, !out.bit(p));
        }
        out
    }
}

impl fmt::Debug for BinaryHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 313-word dumps drown test output; show width and a prefix.
        write!(f, "BinaryHv {{ dim: {}, words: [", self.dim())?;
        for (i, w) in self.words.iter().take(4).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:#010x}")?;
        }
        if self.words.len() > 4 {
            write!(f, ", …")?;
        }
        write!(f, "] }}")
    }
}

impl fmt::Binary for BinaryHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in self.words.iter().rev() {
            write!(f, "{w:032b}")?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for BinaryHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in self.words.iter().rev() {
            write!(f, "{w:08x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_dim_matches_paper_sizes() {
        assert_eq!(words_for_dim(10_000), 313);
        assert_eq!(words_for_dim(200), 7);
        assert_eq!(words_for_dim(32), 1);
        assert_eq!(words_for_dim(33), 2);
    }

    #[test]
    fn zeros_has_no_ones() {
        let z = BinaryHv::zeros(10);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.dim(), 320);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_width_rejected() {
        let _ = BinaryHv::zeros(0);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let hv = BinaryHv::random(313, 42);
        let ones = hv.count_ones();
        // Binomial(10016, 0.5): 5σ ≈ 250.
        assert!((4758..=5258).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn random_is_seed_deterministic() {
        assert_eq!(BinaryHv::random(313, 7), BinaryHv::random(313, 7));
        assert_ne!(BinaryHv::random(313, 7), BinaryHv::random(313, 8));
    }

    #[test]
    fn bit_get_set_roundtrip() {
        let mut hv = BinaryHv::zeros(3);
        for i in [0, 1, 31, 32, 33, 63, 64, 95] {
            assert!(!hv.bit(i));
            hv.set_bit(i, true);
            assert!(hv.bit(i));
        }
        assert_eq!(hv.count_ones(), 8);
        hv.set_bit(33, false);
        assert!(!hv.bit(33));
        assert_eq!(hv.count_ones(), 7);
    }

    #[test]
    fn bind_is_xor_and_self_inverse() {
        let a = BinaryHv::random(16, 1);
        let b = BinaryHv::random(16, 2);
        let c = a.bind(&b);
        assert_eq!(c.bind(&b), a);
        assert_eq!(c.bind(&a), b);
        assert_eq!(a.bind(&a).count_ones(), 0);
    }

    #[test]
    fn bind_produces_dissimilar_vector() {
        let a = BinaryHv::random(313, 1);
        let b = BinaryHv::random(313, 2);
        let c = a.bind(&b);
        // Binding must map far away from both operands.
        assert!(c.normalized_hamming(&a) > 0.45);
        assert!(c.normalized_hamming(&b) > 0.45);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn bind_width_mismatch_panics() {
        let a = BinaryHv::zeros(2);
        let b = BinaryHv::zeros(3);
        let _ = a.bind(&b);
    }

    #[test]
    fn rotate_one_matches_per_bit_reference() {
        let hv = BinaryHv::random(5, 33);
        let rot = hv.rotate_one();
        let dim = hv.dim();
        for i in 0..dim {
            assert_eq!(rot.bit(i), hv.bit((i + dim - 1) % dim), "bit {i}");
        }
    }

    #[test]
    fn rotate_k_matches_per_bit_reference() {
        let hv = BinaryHv::random(4, 5);
        let dim = hv.dim();
        for k in [0, 1, 31, 32, 33, 64, 127, dim - 1] {
            let rot = hv.rotate(k);
            for i in 0..dim {
                assert_eq!(rot.bit(i), hv.bit((i + dim - k) % dim), "k={k} bit {i}");
            }
        }
    }

    #[test]
    fn rotate_composes_additively() {
        let hv = BinaryHv::random(7, 9);
        assert_eq!(hv.rotate(3).rotate(4), hv.rotate(7));
        assert_eq!(hv.rotate(hv.dim()), hv);
    }

    #[test]
    fn rotation_preserves_distance() {
        let a = BinaryHv::random(313, 1);
        let b = BinaryHv::random(313, 2);
        assert_eq!(a.rotate(17).hamming(&b.rotate(17)), a.hamming(&b));
    }

    #[test]
    fn rotation_generates_dissimilar_vector() {
        let a = BinaryHv::random(313, 1);
        // ρ(a) should be quasi-orthogonal to a.
        assert!(a.rotate_one().normalized_hamming(&a) > 0.45);
    }

    #[test]
    fn hamming_is_symmetric_and_zero_on_self() {
        let a = BinaryHv::random(20, 3);
        let b = BinaryHv::random(20, 4);
        assert_eq!(a.hamming(&b), b.hamming(&a));
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn bit_flips_change_exactly_count_components() {
        let a = BinaryHv::random(313, 11);
        let flipped = a.with_bit_flips(100, 1);
        assert_eq!(a.hamming(&flipped), 100);
    }

    #[test]
    fn debug_and_binary_formatting_nonempty() {
        let a = BinaryHv::zeros(1);
        assert!(format!("{a:?}").contains("dim: 32"));
        assert_eq!(format!("{a:b}").len(), 32);
        assert_eq!(format!("{a:x}").len(), 8);
    }
}
