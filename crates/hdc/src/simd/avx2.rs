//! The AVX2/POPCNT level: 256-bit lanes. Every kernel is `unsafe fn` +
//! `#[target_feature]`; the safe dispatch methods on [`Simd`](super::Simd)
//! guard each call with a CPU-feature check. The vote kernels
//! instantiate the network (`super::network`) over `__m256i` from the
//! word they are given, so the AVX-512 level can hand them its last
//! words. All loops fall back to the portable scalar code for
//! remainders and boundary words, so the two levels share their
//! edge-case handling where it matters most. Intrinsics that only touch
//! registers are safe inside a `#[target_feature]` fn on the workspace
//! MSRV (1.89), so only the loads and stores sit in `unsafe` blocks.

#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_loadu_si256,
    _mm256_or_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_sll_epi64, _mm256_srl_epi64, _mm256_srli_epi32,
    _mm256_storeu_si256, _mm256_xor_si256, _mm_cvtsi32_si128,
};

use super::lane::Lane;
use super::network::vote_into;
use super::{counter_planes, network, portable, Inputs, RotGeom, Rows, SCAN_BLOCK_WORDS64};

impl Lane for __m256i {
    const WORDS: usize = 4;

    /// # Safety
    ///
    /// As [`Lane::load`].
    #[inline(always)]
    unsafe fn load(a: &[u64], i: usize) -> Self {
        debug_assert!(i + 4 <= a.len());
        // SAFETY: `i + 4 <= a.len()` and AVX2 are this fn's contract.
        unsafe { _mm256_loadu_si256(a.as_ptr().add(i).cast()) }
    }

    /// # Safety
    ///
    /// As [`Lane::store`].
    #[inline(always)]
    unsafe fn store(self, a: &mut [u64], i: usize) {
        debug_assert!(i + 4 <= a.len());
        // SAFETY: `i + 4 <= a.len()` and AVX2 are this fn's contract.
        unsafe { _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), self) }
    }

    // SAFETY: the trait's contract is AVX2, for this and the next four.
    #[inline(always)]
    unsafe fn and(self, b: Self) -> Self {
        // SAFETY: a register-only AVX2 intrinsic, as are the next four.
        unsafe { _mm256_and_si256(self, b) }
    }

    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn or(self, b: Self) -> Self {
        // SAFETY: as for `and`.
        unsafe { _mm256_or_si256(self, b) }
    }

    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn xor(self, b: Self) -> Self {
        // SAFETY: as for `and`.
        unsafe { _mm256_xor_si256(self, b) }
    }

    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn zero() -> Self {
        // SAFETY: as for `and`.
        unsafe { _mm256_setzero_si256() }
    }

    // SAFETY: as for `and`.
    #[inline(always)]
    unsafe fn ones() -> Self {
        // SAFETY: as for `and`.
        unsafe { _mm256_set1_epi8(-1) }
    }

    /// # Safety
    ///
    /// As [`Lane::wide_vote`].
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    unsafe fn wide_vote<R: Rows + ?Sized>(rows: Inputs<'_, R>, n: usize, wi: usize) -> Self {
        // SAFETY: this fn's contract is the network's, with AVX2.
        unsafe { network::wide_vote(rows, n, wi) }
    }
}

/// # Safety
///
/// Requires AVX2 and `dst.len() == src.len()`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn xor_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: the loop bound keeps every 4-word lane of both slices
        // in range (`src` is as long as `dst`, the contract).
        unsafe { _mm256_xor_si256(__m256i::load(dst, i), __m256i::load(src, i)).store(dst, i) };
        i += 4;
    }
    while i < n {
        dst[i] ^= src[i];
        i += 1;
    }
}

/// Per-byte population count of 4 words via the `vpshufb` nibble
/// table, accumulated into 4 `u64` lanes with `vpsadbw`.
#[inline]
#[target_feature(enable = "avx2")]
fn popcnt_epi64(v: __m256i) -> __m256i {
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let low = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low);
    let hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
    let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    _mm256_sad_epu8(cnt, _mm256_setzero_si256())
}

#[inline]
#[target_feature(enable = "avx2")]
fn hsum_epi64(v: __m256i) -> u64 {
    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is exactly one 4-word lane; AVX2 is enabled here.
    unsafe { v.store(&mut lanes, 0) };
    lanes[0]
        .wrapping_add(lanes[1])
        .wrapping_add(lanes[2])
        .wrapping_add(lanes[3])
}

/// # Safety
///
/// Requires AVX2 and POPCNT.
#[target_feature(enable = "avx2,popcnt")]
#[allow(clippy::cast_possible_truncation)]
pub(super) unsafe fn popcount(a: &[u64]) -> u32 {
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: the loop bound keeps every 4-word lane in range.
        acc = _mm256_add_epi64(acc, popcnt_epi64(unsafe { __m256i::load(a, i) }));
        i += 4;
    }
    let mut total = hsum_epi64(acc);
    while i < n {
        total += u64::from(a[i].count_ones());
        i += 1;
    }
    total as u32
}

/// # Safety
///
/// Requires AVX2, POPCNT, and `a.len() == b.len()`.
#[target_feature(enable = "avx2,popcnt")]
#[allow(clippy::cast_possible_truncation)]
pub(super) unsafe fn hamming(a: &[u64], b: &[u64]) -> u32 {
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` keeps both 4-word lanes of both slices in
        // range (`b` is as long as `a`, the contract).
        let (x0, x1) = unsafe {
            (
                _mm256_xor_si256(__m256i::load(a, i), __m256i::load(b, i)),
                _mm256_xor_si256(__m256i::load(a, i + 4), __m256i::load(b, i + 4)),
            )
        };
        let c = _mm256_add_epi64(popcnt_epi64(x0), popcnt_epi64(x1));
        acc = _mm256_add_epi64(acc, c);
        i += 8;
    }
    if i + 4 <= n {
        // SAFETY: `i + 4 <= n` keeps the lane of both slices in range.
        let x = unsafe { _mm256_xor_si256(__m256i::load(a, i), __m256i::load(b, i)) };
        acc = _mm256_add_epi64(acc, popcnt_epi64(x));
        i += 4;
    }
    let mut total = hsum_epi64(acc);
    while i < n {
        total += u64::from((a[i] ^ b[i]).count_ones());
        i += 1;
    }
    total as u32
}

/// Early-exit Hamming distance at the shared
/// [`SCAN_BLOCK_WORDS64`]-word block granularity. Uses scalar
/// `popcnt` (one per word): with the hardware instruction the block
/// sum is load-bound anyway, and the block partials must equal the
/// portable level's exactly.
///
/// # Safety
///
/// Requires POPCNT and `a.len() == b.len()`.
#[target_feature(enable = "popcnt")]
pub(super) unsafe fn hamming_bounded(a: &[u64], b: &[u64], bound: u32) -> u32 {
    let n = a.len();
    let mut d = 0u32;
    let mut i = 0;
    while i < n {
        let end = (i + SCAN_BLOCK_WORDS64).min(n);
        let mut s = 0u32;
        while i < end {
            s += (a[i] ^ b[i]).count_ones();
            i += 1;
        }
        d += s;
        if d > bound {
            break;
        }
    }
    d
}

/// Two-sided early-exit Hamming distance at the shared
/// [`SCAN_BLOCK_WORDS64`]-word block granularity. Scalar `popcnt`
/// for the same reason as [`hamming_bounded`]: the block partials
/// must equal the portable level's exactly.
///
/// # Safety
///
/// Requires POPCNT and `a.len() == b.len()`.
#[target_feature(enable = "popcnt")]
pub(super) unsafe fn hamming_threshold(a: &[u64], b: &[u64], prune: u32, accept: u32) -> u32 {
    let n = a.len();
    let mut d = 0u32;
    let mut i = 0;
    while i < n {
        let end = (i + SCAN_BLOCK_WORDS64).min(n);
        let mut s = 0u32;
        while i < end {
            s += (a[i] ^ b[i]).count_ones();
            i += 1;
        }
        d += s;
        // Same check order as the portable lane: abandon, then
        // early-accept.
        if d > prune {
            break;
        }
        if u64::from(d) + ((n - i) as u64) * 64 <= u64::from(accept) {
            break;
        }
    }
    d
}

/// # Safety
///
/// Requires AVX2 and equal slice lengths.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn or_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    let n = out.len();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: the loop bound keeps every 4-word lane of the three
        // equally long slices in range.
        unsafe { _mm256_or_si256(__m256i::load(a, i), __m256i::load(b, i)).store(out, i) };
        i += 4;
    }
    while i < n {
        out[i] = a[i] | b[i];
        i += 1;
    }
}

// Each vote kernel below instantiates its network namesake over
// `__m256i` from word `start`, then runs the portable loop on the last
// 0–3 words. Each requires AVX2, `start <= out.len()` and the
// network's contract.

/// # Safety
///
/// As above.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn maj3_into(x: [&[u64]; 3], out: &mut [u64], start: usize) {
    // SAFETY: this fn's contract is the network's, with AVX2.
    let i = unsafe { network::maj3_into::<__m256i>(x, out, start) };
    let [x0, x1, x2] = x.map(|row| &row[i..]);
    portable::maj3_into(x0, x1, x2, &mut out[i..]);
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn maj5_into(x: [&[u64]; 5], out: &mut [u64], start: usize) {
    // SAFETY: this fn's contract is the network's, with AVX2.
    let i = unsafe { network::maj5_into::<__m256i>(x, out, start) };
    let [x0, x1, x2, x3, x4] = x.map(|row| &row[i..]);
    portable::maj5_into(x0, x1, x2, x3, x4, &mut out[i..]);
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn maj5_tie_into(x: [&[u64]; 4], out: &mut [u64], start: usize) {
    // SAFETY: this fn's contract is the network's, with AVX2.
    let i = unsafe { network::maj5_tie_into::<__m256i>(x, out, start) };
    let [x0, x1, x2, x3] = x.map(|row| &row[i..]);
    portable::maj5_tie_into(x0, x1, x2, x3, &mut out[i..]);
}

/// # Safety
///
/// As above, with `threshold <= n + even_tie < 2^RIPPLE_PLANES` and the
/// rest of [`network::vote_into`]'s.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn ripple_majority_into<const C: usize, R: Rows + ?Sized>(
    n: usize,
    inputs: Inputs<'_, R>,
    even_tie: bool,
    threshold: u32,
    out: &mut [u64],
    start: usize,
) {
    let planes = counter_planes(n + usize::from(even_tie));
    // SAFETY: this fn's contract is the network's, with AVX2, and
    // `counter_planes` picks a `P` with `n + even_tie < 2^P`.
    let end = unsafe {
        with_planes!(
            planes,
            vote_into::<__m256i, C, R>(n, inputs, even_tie, threshold, out, start)
        )
    };
    portable::ripple_majority_from::<C, R>(n, inputs, even_tie, threshold, out, end);
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn csa_step(plane: &mut [u64], carry: &mut [u64], start: usize) -> bool {
    // SAFETY: this fn's contract is the network's, with AVX2.
    let (i, any) = unsafe { network::csa_step::<__m256i>(plane, carry, start) };
    portable::csa_step(&mut plane[i..], &mut carry[i..]) | any
}

/// # Safety
///
/// As above.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn counter_majority_into<'a, F>(
    planes: &F,
    n_planes: usize,
    n: u32,
    tie: &[u64],
    out: &mut [u64],
    start: usize,
) where
    F: Fn(usize) -> &'a [u64],
{
    // SAFETY: this fn's contract is the network's, with AVX2.
    let i = unsafe {
        network::counter_majority_into::<__m256i, F>(planes, n_planes, n, tie, out, start)
    };
    portable::counter_majority_from(planes, n_planes, n, tie, out, i);
}

/// Fused bind-rotate, exploiting that the shift and wrap
/// contributions of a rotation touch disjoint bit positions, so
/// `dst ^= rot(src)` splits into two independent XOR passes (each
/// vectorized over its in-bounds interior, scalar at the edges).
/// The top word always runs the portable path with the tail mask.
///
/// # Safety
///
/// Requires AVX2 and `dst.len() == src.len() >= 1`.
#[target_feature(enable = "avx2")]
#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
pub(super) unsafe fn xor_rotated_into(dst: &mut [u64], src: &[u64], g: &RotGeom) {
    let n = dst.len();
    let last = n - 1;
    let sw = g.shl_words;
    let rw = g.shr_words;
    // SAFETY: every 4-word load/store index is bounded by the
    // rotation-geometry loop conditions (`j + 4 <= last` with
    // offsets `j - sw` / `j + rw` kept in range by RotGeom);
    // AVX2 flows from the enclosing `#[target_feature]` contract.
    unsafe {
        // Pass A: the `<< k` contribution, nonzero for j >= sw.
        if sw < last {
            dst[sw] ^= g.shl_part(src, sw);
            let sb = _mm_cvtsi32_si128(g.shl_bits as i32);
            let sb_inv = _mm_cvtsi32_si128(64 - g.shl_bits as i32);
            let mut j = sw + 1;
            while j + 4 <= last {
                let lo = _mm256_sll_epi64(__m256i::load(src, j - sw), sb);
                // Shift counts >= 64 yield zero in SIMD, which is
                // exactly the vanishing carry of shl_bits == 0.
                let carry = _mm256_srl_epi64(__m256i::load(src, j - sw - 1), sb_inv);
                let r = _mm256_or_si256(lo, carry);
                _mm256_xor_si256(__m256i::load(dst, j), r).store(dst, j);
                j += 4;
            }
            while j < last {
                dst[j] ^= g.shl_part(src, j);
                j += 1;
            }
        }
        // Pass B: the `>> (dim - k)` wrap, nonzero while j + rw < n.
        let end = last.min(n.saturating_sub(rw));
        let vec_end = end.min(n.saturating_sub(rw + 1));
        let rb = _mm_cvtsi32_si128(g.shr_bits as i32);
        let rb_inv = _mm_cvtsi32_si128(64 - g.shr_bits as i32);
        let mut j = 0;
        while j + 4 <= vec_end {
            let hi = _mm256_srl_epi64(__m256i::load(src, j + rw), rb);
            let carry = _mm256_sll_epi64(__m256i::load(src, j + rw + 1), rb_inv);
            let r = _mm256_or_si256(hi, carry);
            _mm256_xor_si256(__m256i::load(dst, j), r).store(dst, j);
            j += 4;
        }
        while j < end {
            dst[j] ^= g.shr_part(src, j);
            j += 1;
        }
    }
    dst[last] ^= g.word(src, last) & g.tail_mask();
}
