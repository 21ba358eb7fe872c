//! The `Lane` trait: one SIMD register of `u64` words, the unit the
//! vote network ([`super::network`]) counts in. `__m256i` implements it
//! in `avx2` and `__m512i` in `avx512`.
//!
//! Every method but [`Lane::wide_vote`] is `#[inline(always)]` with no
//! target feature of its own, so it compiles for the level of the
//! `#[target_feature]` kernel it inlines into. Each requires the CPU
//! features of the lane's level, which that kernel's contract
//! guarantees; the bitwise methods require nothing else.

use super::{Inputs, Rows};

/// One SIMD register of [`Lane::WORDS`] `u64` words.
pub(super) trait Lane: Copy {
    /// The `u64` words in one lane.
    const WORDS: usize;

    /// Words `i..i + WORDS` of `a`.
    ///
    /// # Safety
    ///
    /// Requires `i + WORDS <= a.len()` and the lane's features.
    unsafe fn load(a: &[u64], i: usize) -> Self;

    /// Writes the lane to words `i..i + WORDS` of `a`.
    ///
    /// # Safety
    ///
    /// As [`Lane::load`].
    unsafe fn store(self, a: &mut [u64], i: usize);

    /// Bitwise AND. # Safety: requires the lane's features, as do the
    /// next four.
    unsafe fn and(self, b: Self) -> Self;
    /// Bitwise OR. # Safety: as [`Lane::and`].
    unsafe fn or(self, b: Self) -> Self;
    /// Bitwise XOR. # Safety: as [`Lane::and`].
    unsafe fn xor(self, b: Self) -> Self;
    /// All bits clear. # Safety: as [`Lane::and`].
    unsafe fn zero() -> Self;
    /// All bits set. # Safety: as [`Lane::and`].
    unsafe fn ones() -> Self;

    /// The full adder on every bit: `(a ⊕ b ⊕ c, maj(a, b, c))`, the
    /// cell every vote is built from. Five logic ops, unless the lane
    /// has a shorter form.
    ///
    /// # Safety
    ///
    /// Requires the lane's features.
    #[inline(always)]
    unsafe fn full_add(a: Self, b: Self, c: Self) -> (Self, Self) {
        // SAFETY: the lane's features are this fn's contract.
        unsafe {
            let ab = a.xor(b);
            (ab.xor(c), a.and(b).or(c.and(ab)))
        }
    }

    /// [`network::wide_vote`](super::network::wide_vote) compiled out of
    /// line for the lane's level: a spatial vote too wide for a closed
    /// form, kept out of the temporal tree so the closed forms inline
    /// into every input of it.
    ///
    /// # Safety
    ///
    /// As `network::wide_vote`.
    unsafe fn wide_vote<R: Rows + ?Sized>(rows: Inputs<'_, R>, n: usize, wi: usize) -> Self;
}
