//! The AVX-512 level's own kernels: [`Simd::hamming`](super::Simd::hamming)
//! over 512-bit lanes with the `vpopcntq` lane popcount, and the six
//! vote kernels, which instantiate the network (`super::network`) over
//! `__m512i`, whose full adder is two `vpternlogq`. Each vote kernel
//! runs its whole 8-word lanes and hands the rest to its AVX2 kernel:
//! at most one 4-word lane, then the portable loop. Every other kernel
//! of [`Simd::Avx512`](super::Simd::Avx512) is its `avx2` body.
//! Intrinsics that only touch registers are safe inside a
//! `#[target_feature]` fn on the workspace MSRV (1.89), so there only
//! the loads sit in `unsafe` blocks.

#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_maskz_loadu_epi64,
    _mm512_or_si512, _mm512_popcnt_epi64, _mm512_reduce_add_epi64, _mm512_set1_epi64,
    _mm512_setzero_si512, _mm512_storeu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
};

use super::lane::Lane;
use super::network::vote_into;
use super::{avx2, counter_planes, network, Inputs, Rows};

impl Lane for __m512i {
    const WORDS: usize = 8;

    /// # Safety
    ///
    /// As [`Lane::load`].
    #[inline(always)]
    unsafe fn load(a: &[u64], i: usize) -> Self {
        debug_assert!(i + 8 <= a.len());
        // SAFETY: `i + 8 <= a.len()` and AVX-512F are this fn's contract.
        unsafe { _mm512_loadu_si512(a.as_ptr().add(i).cast()) }
    }

    /// # Safety
    ///
    /// As [`Lane::store`].
    #[inline(always)]
    unsafe fn store(self, a: &mut [u64], i: usize) {
        debug_assert!(i + 8 <= a.len());
        // SAFETY: `i + 8 <= a.len()` and AVX-512F are this fn's contract.
        unsafe { _mm512_storeu_si512(a.as_mut_ptr().add(i).cast(), self) }
    }

    // SAFETY: the trait's contract is AVX-512F, for this and the next five.
    #[inline(always)]
    unsafe fn and(self, b: Self) -> Self {
        // SAFETY: a register-only AVX-512F intrinsic, as are the next five.
        unsafe { _mm512_and_si512(self, b) }
    }

    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn or(self, b: Self) -> Self {
        // SAFETY: as for `and`.
        unsafe { _mm512_or_si512(self, b) }
    }

    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn xor(self, b: Self) -> Self {
        // SAFETY: as for `and`.
        unsafe { _mm512_xor_si512(self, b) }
    }

    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn zero() -> Self {
        // SAFETY: as for `and`.
        unsafe { _mm512_setzero_si512() }
    }

    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn ones() -> Self {
        // SAFETY: as for `and`.
        unsafe { _mm512_set1_epi64(-1) }
    }

    /// Two `vpternlogq`: the sum is the three-input XOR (truth table
    /// `0x96`), the carry the three-input majority (`0xE8`).
    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn full_add(a: Self, b: Self, c: Self) -> (Self, Self) {
        // SAFETY: as for `and`.
        unsafe {
            (
                _mm512_ternarylogic_epi64::<0x96>(a, b, c),
                _mm512_ternarylogic_epi64::<0xE8>(a, b, c),
            )
        }
    }

    /// # Safety
    ///
    /// As [`Lane::wide_vote`].
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    unsafe fn wide_vote<R: Rows + ?Sized>(rows: Inputs<'_, R>, n: usize, wi: usize) -> Self {
        // SAFETY: this fn's contract is the network's, with AVX-512F.
        unsafe { network::wide_vote(rows, n, wi) }
    }
}

/// Hamming distance, 16 words per step into two accumulators, then
/// at most one whole 8-word lane, then the last 1–7 words as one
/// masked lane: no scalar tail.
///
/// # Safety
///
/// Requires AVX-512F, AVX512-VPOPCNTDQ and `a.len() == b.len()`.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub(super) unsafe fn hamming(a: &[u64], b: &[u64]) -> u32 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm512_setzero_si512();
    let mut acc1 = _mm512_setzero_si512();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n` keeps both 8-word lanes of both
        // slices in range (`b` is as long as `a`, the contract).
        let (x0, x1) = unsafe {
            (
                _mm512_xor_si512(
                    _mm512_loadu_si512(pa.add(i).cast()),
                    _mm512_loadu_si512(pb.add(i).cast()),
                ),
                _mm512_xor_si512(
                    _mm512_loadu_si512(pa.add(i + 8).cast()),
                    _mm512_loadu_si512(pb.add(i + 8).cast()),
                ),
            )
        };
        acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(x0));
        acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(x1));
        i += 16;
    }
    if i + 8 <= n {
        // SAFETY: `i + 8 <= n` keeps the lane of both slices in range.
        let x = unsafe {
            _mm512_xor_si512(
                _mm512_loadu_si512(pa.add(i).cast()),
                _mm512_loadu_si512(pb.add(i).cast()),
            )
        };
        acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(x));
        i += 8;
    }
    if i < n {
        // The last `n - i` words, 1 to 7 of them: one mask bit each.
        let mask = (1u8 << (n - i)) - 1;
        // SAFETY: the masked loads read only the lanes whose mask
        // bit is set, words `i..n` of each slice, all in range. A
        // masked-off lane is never read: AVX-512 suppresses the
        // access, and any fault, for elements whose mask bit is
        // clear, and zeroes the lane, so the words past the end of
        // either slice are never touched and count nothing.
        let x = unsafe {
            _mm512_xor_si512(
                _mm512_maskz_loadu_epi64(mask, pa.add(i).cast()),
                _mm512_maskz_loadu_epi64(mask, pb.add(i).cast()),
            )
        };
        acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(x));
    }
    _mm512_reduce_add_epi64(_mm512_add_epi64(acc0, acc1)) as u32
}

// Each vote kernel below instantiates its network namesake over
// `__m512i`, then hands the last 0–7 words to its `avx2` namesake: at
// most one 4-word lane, then the portable loop. Each requires AVX-512F
// and the contract of that namesake with `start == 0`.

/// # Safety
///
/// As above.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn maj3_into(x: [&[u64]; 3], out: &mut [u64]) {
    // SAFETY: the network's contract and the AVX2 kernel's are this
    // fn's, and the network stops at a word inside `out`.
    unsafe {
        let i = network::maj3_into::<__m512i>(x, out, 0);
        avx2::maj3_into(x, out, i);
    }
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn maj5_into(x: [&[u64]; 5], out: &mut [u64]) {
    // SAFETY: as in `maj3_into`.
    unsafe {
        let i = network::maj5_into::<__m512i>(x, out, 0);
        avx2::maj5_into(x, out, i);
    }
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn maj5_tie_into(x: [&[u64]; 4], out: &mut [u64]) {
    // SAFETY: as in `maj3_into`.
    unsafe {
        let i = network::maj5_tie_into::<__m512i>(x, out, 0);
        avx2::maj5_tie_into(x, out, i);
    }
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn ripple_majority_into<const C: usize, R: Rows + ?Sized>(
    n: usize,
    inputs: Inputs<'_, R>,
    even_tie: bool,
    threshold: u32,
    out: &mut [u64],
) {
    let planes = counter_planes(n + usize::from(even_tie));
    // SAFETY: as in `maj3_into`, and `counter_planes` picks a `P` with
    // `n + even_tie < 2^P`.
    unsafe {
        let i = with_planes!(
            planes,
            vote_into::<__m512i, C, R>(n, inputs, even_tie, threshold, out, 0)
        );
        avx2::ripple_majority_into::<C, R>(n, inputs, even_tie, threshold, out, i);
    }
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn csa_step(plane: &mut [u64], carry: &mut [u64]) -> bool {
    // SAFETY: as in `maj3_into`.
    unsafe {
        let (i, any) = network::csa_step::<__m512i>(plane, carry, 0);
        avx2::csa_step(plane, carry, i) | any
    }
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn counter_majority_into<'a, F>(
    planes: &F,
    n_planes: usize,
    n: u32,
    tie: &[u64],
    out: &mut [u64],
) where
    F: Fn(usize) -> &'a [u64],
{
    // SAFETY: as in `maj3_into`.
    unsafe {
        let i = network::counter_majority_into::<__m512i, F>(planes, n_planes, n, tie, out, 0);
        avx2::counter_majority_into(planes, n_planes, n, tie, out, i);
    }
}
