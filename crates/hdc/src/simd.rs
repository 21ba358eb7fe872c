//! Runtime-dispatched SIMD kernels for the `u64`-packed hot path.
//!
//! Every throughput-critical word loop of [`crate::hv64`] — XOR-bind,
//! the fused bind-rotate, the carry-save majority networks, and the
//! popcount Hamming distance / early-exit associative-memory scan —
//! lives here at three levels:
//!
//! * an **AVX2/POPCNT** specialization (`unsafe fn` +
//!   `#[target_feature]`, 256-bit lanes, `vpshufb` nibble popcount),
//!   used when the CPU supports it;
//! * an **AVX-512** level that specializes the one kernel the AM scan
//!   spends its time in, [`Simd::hamming`]: 512-bit XOR and the
//!   `vpopcntq` lane popcount (AVX512-VPOPCNTDQ), the vector form of
//!   the single-cycle `p.cnt` the paper's cluster uses for the same
//!   search. Every other kernel of [`Simd::Avx512`] runs its AVX2 body;
//! * a **portable** fallback written as 4×`u64` unrolled safe Rust that
//!   the auto-vectorizer handles on any target — and that doubles as
//!   the scalar reference the SIMD paths are property-tested against.
//!
//! The two vote kernels of the encoder are branch-free on every level:
//!
//! * **The tie rule is an OR.** The paper breaks even votes with the
//!   extra input `x0 ⊕ x1`, and per lane `x0 + x1 + (x0 ⊕ x1) =
//!   2·(x0 ∨ x1)`. So the 4-input spatial vote
//!   ([`Simd::maj5_tie_into`]) is `(x0 ∨ x1) ∧ (x2 ∨ x3)`, three logic
//!   ops, and an even temporal vote seeds counter plane 1 with
//!   `x0 ∨ x1` instead of counting three inputs.
//! * **The vote counter is a carry-save tree.**
//!   [`Simd::ripple_majority_into`] counts with a Harley–Seal tree of
//!   full adders. Inputs enter eight at a time: seven full adders count
//!   a group into planes 0–2, and only the group's carry is half-added
//!   through the higher planes. The plane count is fixed once per call
//!   as the bit width of the vote count (2 to [`RIPPLE_PLANES`] planes,
//!   one const-generic instantiation each, so the planes stay in
//!   registers), and no step branches on the data.
//! * **A window's spatial votes are never written.** The same tree
//!   takes its inputs either from rows or from the paper majority of
//!   each sample's channel rows, computed in registers for each word
//!   block in the closed form the channel count allows. That is the
//!   unigram encode,
//!   [`BitslicedBundler::bundle_window_into`](crate::hv64::BitslicedBundler::bundle_window_into).
//!
//! The level is picked **once per process** at first use via
//! [`is_x86_feature_detected!`], in the order AVX-512, AVX2, portable;
//! `cargo build` on stable works everywhere because nothing is gated at
//! compile time. Every level is bit-identical on every kernel (the
//! property suites pin this), so dispatch is purely a performance
//! decision.
//!
//! Selection can be overridden:
//!
//! * **Environment:** setting `PULP_HD_FORCE_SCALAR=1` before first use
//!   forces [`Simd::Portable`] for the whole process — CI runs the full
//!   test suite this way so the fallback cannot rot.
//! * **Code:** [`Simd::set_active`] swaps the process-wide level at any
//!   point (safe, because the levels agree bit for bit), and every
//!   kernel is also callable on an explicit level (`Simd::Portable
//!   .hamming(..)`) for side-by-side testing. [`Simd::available`] lists
//!   every level this CPU runs, which is what the tests and the fuzzer
//!   loop over.
//!
//! **The AVX-512 level** is a variant ([`Simd::Avx512`]), a sibling
//! intrinsics module (`avx512`) holding only `hamming`, a detection
//! branch in [`Simd::detect`] ahead of AVX2, and one arm per dispatch
//! method: `hamming`'s calls the `avx512` kernel, and every other
//! method serves the level from its AVX2 arm. Its kernel is registered
//! at its own level in [`crate::twins`], so the audit lint and fuzzer
//! check it by name and level. A kernel ported to AVX-512 later takes
//! the same three steps: the function in `avx512`, its own arm in the
//! dispatch method, and `"avx512"` in its registry entry's levels.

use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicU8, Ordering};

/// Output words per early-exit check of the bounded Hamming scan
/// (512 bits). Every level abandons prototypes at identical block
/// boundaries, so pruned-scan distances never depend on the CPU.
pub const SCAN_BLOCK_WORDS64: usize = 8;

/// Most counter planes of the in-register vote counter: votes up to
/// `2^10 - 1` inputs.
pub const RIPPLE_PLANES: usize = 10;

/// Counter planes a vote of `votes` inputs needs: the bit width of the
/// largest count, and at least 2, the plane an even tie seeds.
fn counter_planes(votes: usize) -> usize {
    (usize::BITS - votes.leading_zeros()).max(2) as usize
}

/// The paper majority over `n` inputs as a counted vote: whether the
/// tie vector joins it (even `n`), and the count threshold.
#[allow(clippy::cast_possible_truncation)]
fn paper_vote(n: usize) -> (bool, u32) {
    let even_tie = n.is_multiple_of(2);
    (even_tie, ((n + usize::from(even_tie)) / 2 + 1) as u32)
}

/// Where the rows of a vote come from. Every row is at least as long
/// as the vote's output.
trait Rows {
    /// Row `i`.
    fn row(&self, i: usize) -> &[u64];

    /// Row `i`, with no check of `i` where the source can skip it: the
    /// AVX2 level's row read, once per row and word block. (On AVX2,
    /// skipping the check took the 25 × 4 window vote from 1.16× to
    /// 1.33× the speed of writing the spatial hypervectors.)
    ///
    /// # Safety
    ///
    /// Requires `i` below the vote's row count. The vote methods check
    /// it against the source once per call: `ripple_majority_into`
    /// resolves exactly `n` rows, and `window_majority_into` asserts
    /// `starts.len() == samples · channels`.
    #[inline(always)]
    unsafe fn row_unchecked(&self, i: usize) -> &[u64] {
        self.row(i)
    }
}

/// Rows resolved once per call: the inputs of `ripple_majority_into`.
impl Rows for [&[u64]] {
    #[inline(always)]
    fn row(&self, i: usize) -> &[u64] {
        self[i]
    }

    /// # Safety
    ///
    /// As [`Rows::row_unchecked`].
    #[inline(always)]
    unsafe fn row_unchecked(&self, i: usize) -> &[u64] {
        // SAFETY: `i` is below the row count, the length of this slice
        // of resolved rows (the contract).
        unsafe { self.get_unchecked(i) }
    }
}

/// Rows of a flat table: row `i` is the `width` words at `starts[i]`.
struct Table<'t> {
    words: &'t [u64],
    starts: &'t [usize],
    width: usize,
}

impl<'t> Table<'t> {
    /// Checks every row once, so the reads of each word block need not.
    ///
    /// # Panics
    ///
    /// Panics if a row runs past the end of `words`.
    fn new(words: &'t [u64], starts: &'t [usize], width: usize) -> Self {
        for &start in starts {
            assert!(
                start
                    .checked_add(width)
                    .is_some_and(|end| end <= words.len()),
                "table row at word {start} runs past the table's {} words",
                words.len()
            );
        }
        Self {
            words,
            starts,
            width,
        }
    }
}

impl Rows for Table<'_> {
    #[inline(always)]
    fn row(&self, i: usize) -> &[u64] {
        let start = self.starts[i];
        // SAFETY: `Table::new` checked `start + width <= words.len()`
        // for every one of `starts` (the fields are private to this
        // module).
        unsafe { self.words.get_unchecked(start..start + self.width) }
    }

    /// # Safety
    ///
    /// As [`Rows::row_unchecked`].
    #[inline(always)]
    unsafe fn row_unchecked(&self, i: usize) -> &[u64] {
        // SAFETY: `i` is below the row count, the length of `starts`
        // (the contract), and `Table::new` checked every start as in
        // `row`.
        unsafe {
            let start = *self.starts.get_unchecked(i);
            self.words.get_unchecked(start..start + self.width)
        }
    }
}

/// A vote's inputs: input `i` is the paper majority of the `channels`
/// rows `first + i·channels + c`, so with one channel it is row
/// `first + i` itself.
struct Inputs<'r, R: ?Sized> {
    rows: &'r R,
    first: usize,
    channels: usize,
}

impl<R: ?Sized> Clone for Inputs<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R: ?Sized> Copy for Inputs<'_, R> {}

impl<'r, R: Rows + ?Sized> Inputs<'r, R> {
    /// Row `c` of input `i`, for spatial form `C` (see `with_planes!`).
    #[inline(always)]
    fn row<const C: usize>(self, i: usize, c: usize) -> &'r [u64] {
        self.rows.row(self.index::<C>(i, c))
    }

    /// [`row`](Self::row) through [`Rows::row_unchecked`].
    ///
    /// # Safety
    ///
    /// Requires input `i` of the vote and `c` below its channel count.
    #[inline(always)]
    unsafe fn row_unchecked<const C: usize>(self, i: usize, c: usize) -> &'r [u64] {
        // SAFETY: a row of an input of the vote is below its row count.
        unsafe { self.rows.row_unchecked(self.index::<C>(i, c)) }
    }

    /// The source index of row `c` of input `i`.
    #[inline(always)]
    fn index<const C: usize>(self, i: usize, c: usize) -> usize {
        let channels = if C == 0 { self.channels } else { C };
        self.first + i * channels + c
    }

    /// The rows of input `i`, one input each: the inputs of a spatial
    /// vote too wide for a closed form.
    #[inline(always)]
    fn rows_of(self, i: usize) -> Self {
        Self {
            rows: self.rows,
            first: self.first + i * self.channels,
            channels: 1,
        }
    }
}

/// Calls the const-generic counter `$kernel::<P, C, _>(args)` for the
/// runtime plane count `$planes` in `2..=RIPPLE_PLANES`. `C` is the
/// spatial form of the inputs: the channel count for the closed forms
/// of one to five channels, and 0 for spatial votes counted by the
/// tree. Both are fixed once per call, so the planes stay in registers
/// and every input inlines its one form.
macro_rules! with_planes {
    ($planes:expr, $kernel:ident::<$c:tt>($($arg:expr),* $(,)?)) => {
        match $planes {
            2 => $kernel::<2, $c, _>($($arg),*),
            3 => $kernel::<3, $c, _>($($arg),*),
            4 => $kernel::<4, $c, _>($($arg),*),
            5 => $kernel::<5, $c, _>($($arg),*),
            6 => $kernel::<6, $c, _>($($arg),*),
            7 => $kernel::<7, $c, _>($($arg),*),
            8 => $kernel::<8, $c, _>($($arg),*),
            9 => $kernel::<9, $c, _>($($arg),*),
            10 => $kernel::<10, $c, _>($($arg),*),
            p => unreachable!("{p} counter planes outside 2..={}", $crate::simd::RIPPLE_PLANES),
        }
    };
}

/// Cached process-wide kernel level: 0 = undecided, 1 = portable,
/// 2 = AVX2, 3 = AVX-512.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// A kernel dispatch level. See the [module docs](self) for the
/// dispatch and override rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simd {
    /// 4×`u64` unrolled safe Rust — compiles anywhere, auto-vectorizes,
    /// and serves as the scalar reference for every other level.
    Portable,
    /// 256-bit AVX2 lanes with POPCNT/`vpshufb` population counts.
    ///
    /// Methods on this variant panic if the running CPU lacks AVX2 or
    /// POPCNT (the check is a cached atomic load), so the variant is
    /// safe to name unconditionally.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The AVX2 level with a 512-bit `vpopcntq` Hamming distance: only
    /// [`Simd::hamming`] has a kernel of its own, and every other method
    /// runs its AVX2 body.
    ///
    /// Methods on this variant panic if the running CPU lacks AVX-512F,
    /// AVX512-VPOPCNTDQ, AVX2 or POPCNT, so the variant is safe to name
    /// unconditionally.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Simd {
    /// The level the current process/CPU should use: the best level
    /// the probed CPU features run (AVX-512, then AVX2, then portable),
    /// unless `PULP_HD_FORCE_SCALAR` is set to anything but `0`/empty,
    /// which forces [`Simd::Portable`].
    #[must_use]
    pub fn detect() -> Self {
        if std::env::var_os("PULP_HD_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
            return Self::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if avx512_detected() {
                return Self::Avx512;
            }
            if avx2_detected() {
                return Self::Avx2;
            }
        }
        Self::Portable
    }

    /// Every level this CPU can execute: [`Simd::Portable`] first, then
    /// the SIMD levels from the least to the most preferred, so the last
    /// entry is the level [`Simd::detect`] picks when
    /// `PULP_HD_FORCE_SCALAR` is unset. It ignores that variable, which
    /// steers only `detect` and [`Simd::active`]: tests and the fuzzer
    /// loop over this list to pin every level to the portable
    /// reference, whatever level the process runs.
    #[must_use]
    pub fn available() -> Vec<Self> {
        let mut levels = vec![Self::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_detected() {
                levels.push(Self::Avx2);
            }
            if avx512_detected() {
                levels.push(Self::Avx512);
            }
        }
        levels
    }

    /// The process-wide active level, detecting (and caching) it on
    /// first use.
    #[must_use]
    pub fn active() -> Self {
        match ACTIVE.load(Ordering::Relaxed) {
            1 => Self::Portable,
            #[cfg(target_arch = "x86_64")]
            2 => Self::Avx2,
            #[cfg(target_arch = "x86_64")]
            3 => Self::Avx512,
            _ => {
                let detected = Self::detect();
                // ORDERING: Relaxed — a monotone cache of an idempotent
                // detection; racing initializers store the same value,
                // and no other memory hangs off it.
                ACTIVE.store(detected.code(), Ordering::Relaxed);
                detected
            }
        }
    }

    /// Overrides the process-wide level returned by [`Simd::active`].
    ///
    /// Intended for tests and experiments. Because every level computes
    /// bit-identical results, flipping the level at any point — even
    /// while other threads are mid-computation — only changes speed,
    /// never output.
    pub fn set_active(level: Self) {
        // ORDERING: Relaxed — every level is bit-identical, so a stale
        // read elsewhere only changes speed, never output (see above).
        ACTIVE.store(level.code(), Ordering::Relaxed);
    }

    /// Stable lowercase name, as recorded in `BENCH_throughput.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => "avx512",
        }
    }

    fn code(self) -> u8 {
        match self {
            Self::Portable => 1,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => 2,
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => 3,
        }
    }

    /// Panics unless the running CPU has this SIMD level's features —
    /// the soundness guard that lets [`Simd::Avx2`] and [`Simd::Avx512`]
    /// expose safe methods. Both levels' features include the AVX2 and
    /// POPCNT every `avx2` kernel is compiled for.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn simd_ready(self) {
        if self == Self::Avx512 {
            avx512_ready();
        } else {
            avx2_ready();
        }
    }

    /// `dst ^= src` wordwise — the HD binding kernel.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn xor_into(self, dst: &mut [u64], src: &[u64]) {
        assert_eq!(dst.len(), src.len(), "kernel operand length mismatch");
        match self {
            Self::Portable => portable::xor_into(dst, src),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::xor_into(dst, src) }
            }
        }
    }

    /// Population count of a word slice.
    #[must_use]
    #[inline]
    pub fn popcount(self, a: &[u64]) -> u32 {
        match self {
            Self::Portable => portable::popcount(a),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::popcount(a) }
            }
        }
    }

    /// Hamming distance (`popcount(a ^ b)`) — the AM-scan kernel.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    #[inline]
    pub fn hamming(self, a: &[u64], b: &[u64]) -> u32 {
        assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
        match self {
            Self::Portable => portable::hamming(a, b),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => {
                avx2_ready();
                // SAFETY: `avx2_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::hamming(a, b) }
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                avx512_ready();
                // SAFETY: `avx512_ready()` above verified (or aborted on
                // a broken override) that this CPU has the AVX-512
                // features the `#[target_feature]` kernel was compiled
                // for, and the assert above that the lengths match.
                unsafe { avx512::hamming(a, b) }
            }
        }
    }

    /// Early-exit Hamming distance: accumulates in
    /// [`SCAN_BLOCK_WORDS64`]-word blocks and returns the partial sum
    /// as soon as it exceeds `bound` at a block boundary (otherwise the
    /// exact distance). Every level abandons at identical block
    /// boundaries, so the returned partial is level-independent.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    #[inline]
    pub fn hamming_bounded(self, a: &[u64], b: &[u64], bound: u32) -> u32 {
        assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
        match self {
            Self::Portable => portable::hamming_bounded(a, b, bound),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::hamming_bounded(a, b, bound) }
            }
        }
    }

    /// Two-sided early-exit Hamming distance for the approximate
    /// threshold AM scan. Accumulates in [`SCAN_BLOCK_WORDS64`]-word
    /// blocks and stops at the first block boundary where either
    ///
    /// * the partial sum exceeds `prune` (this prototype can no longer
    ///   win — same abandonment rule as [`Simd::hamming_bounded`]), or
    /// * the partial sum plus the maximum possible contribution of the
    ///   unscanned words (64 per word) is `<= accept` — the exact
    ///   distance is then guaranteed to be at most `accept`, so the
    ///   caller may accept this prototype without finishing the scan.
    ///
    /// Either way the returned value is the partial sum at the stopping
    /// block boundary — a lower bound on the exact distance — and the
    /// exact distance if neither side fired. Every level evaluates the
    /// two checks in the same order at identical block boundaries, so
    /// the result is level-independent.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    #[inline]
    pub fn hamming_threshold(self, a: &[u64], b: &[u64], prune: u32, accept: u32) -> u32 {
        assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
        match self {
            Self::Portable => portable::hamming_threshold(a, b, prune, accept),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::hamming_threshold(a, b, prune, accept) }
            }
        }
    }

    /// `out = a | b` wordwise — the 2-input paper majority
    /// (`maj{x, y, x⊕y}` collapses to OR).
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `out`'s.
    #[inline]
    pub fn or_into(self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(
            a.len() == out.len() && b.len() == out.len(),
            "kernel operand length mismatch"
        );
        match self {
            Self::Portable => portable::or_into(a, b, out),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::or_into(a, b, out) }
            }
        }
    }

    /// 3-input componentwise majority (one full adder per word).
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `out`'s.
    #[inline]
    pub fn maj3_into(self, x0: &[u64], x1: &[u64], x2: &[u64], out: &mut [u64]) {
        assert!(
            x0.len() == out.len() && x1.len() == out.len() && x2.len() == out.len(),
            "kernel operand length mismatch"
        );
        match self {
            Self::Portable => portable::maj3_into(x0, x1, x2, out),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::maj3_into(x0, x1, x2, out) }
            }
        }
    }

    /// 5-input componentwise majority (two full adders + combine).
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `out`'s.
    #[inline]
    pub fn maj5_into(
        self,
        x0: &[u64],
        x1: &[u64],
        x2: &[u64],
        x3: &[u64],
        x4: &[u64],
        out: &mut [u64],
    ) {
        assert!(
            x0.len() == out.len()
                && x1.len() == out.len()
                && x2.len() == out.len()
                && x3.len() == out.len()
                && x4.len() == out.len(),
            "kernel operand length mismatch"
        );
        match self {
            Self::Portable => portable::maj5_into(x0, x1, x2, x3, x4, out),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::maj5_into(x0, x1, x2, x3, x4, out) }
            }
        }
    }

    /// 5-input majority whose fifth input is the paper's tie-break
    /// vector `x0 ⊕ x1` (the 4-input even vote). Since `x0 + x1 +
    /// (x0 ⊕ x1) = 2·(x0 ∨ x1)`, a count of at least 3 is exactly
    /// `(x0 ∨ x1) ∧ (x2 ∨ x3)`.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `out`'s.
    #[inline]
    pub fn maj5_tie_into(self, x0: &[u64], x1: &[u64], x2: &[u64], x3: &[u64], out: &mut [u64]) {
        assert!(
            x0.len() == out.len()
                && x1.len() == out.len()
                && x2.len() == out.len()
                && x3.len() == out.len(),
            "kernel operand length mismatch"
        );
        match self {
            Self::Portable => portable::maj5_tie_into(x0, x1, x2, x3, out),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::maj5_tie_into(x0, x1, x2, x3, out) }
            }
        }
    }

    /// Generic carry-save majority over `n` word slices accessed by
    /// index, with the vote counters ("bundling planes") held in
    /// registers: `out[w]` gets bit `c` set iff at least `threshold` of
    /// the inputs (plus, when `even_tie`, the tie vector
    /// `get(0) ⊕ get(1)`) have bit `c` of word `w` set. A threshold
    /// above the vote count yields all zeros.
    ///
    /// The counter is a Harley–Seal carry-save tree with as many planes
    /// as the vote count has bits, fixed once per call. Inputs enter in
    /// groups of eight: two full adders count each pair into plane 0,
    /// their carries meet in full adders on planes 1 and 2, and only
    /// the group's weight-8 carry is half-added through the higher
    /// planes. The last 0–7 inputs enter as one group of four, two and
    /// one each, the same way. An even tie seeds plane 1 with
    /// `get(0) ∨ get(1)`, which counts `get(0)`, `get(1)` and the tie
    /// vector at once. No step branches on the data.
    ///
    /// `get` is called once per input, before any word is counted: the
    /// rows are kept in a stack array of slices (16 KiB, sized for the
    /// widest vote the counter holds), so no word block pays for a
    /// fetch.
    ///
    /// The effective vote count `n + even_tie` must stay below
    /// `2^`[`RIPPLE_PLANES`]; wider votes belong to the streaming
    /// accumulator ([`crate::hv64::BitslicedBundler`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `threshold == 0`, `even_tie` with fewer than
    /// two inputs, the vote count overflows the counter, or any input
    /// length differs from `out`'s.
    pub fn ripple_majority_into<'a, F>(
        self,
        n: usize,
        get: F,
        even_tie: bool,
        threshold: u32,
        out: &mut [u64],
    ) where
        F: Fn(usize) -> &'a [u64],
    {
        assert!(n > 0, "majority of an empty set is undefined");
        assert!(threshold > 0, "majority threshold must be at least 1");
        assert!(!even_tie || n >= 2, "the tie vote needs two inputs");
        let votes = n + usize::from(even_tie);
        assert!(
            votes < (1 << RIPPLE_PLANES),
            "vote of {n} inputs overflows the {RIPPLE_PLANES}-plane counter"
        );
        // Left uninitialized: filling 16 KiB would cost more than a
        // small vote.
        let mut slots = [MaybeUninit::<&[u64]>::uninit(); (1 << RIPPLE_PLANES) - 1];
        for (i, slot) in slots[..n].iter_mut().enumerate() {
            let row = get(i);
            assert_eq!(row.len(), out.len(), "kernel operand length mismatch");
            slot.write(row);
        }
        // SAFETY: the loop above initialized the first `n` slots, and
        // `MaybeUninit<T>` has the layout of `T`.
        let rows: &[&[u64]] = unsafe { &*(core::ptr::from_ref(&slots[..n]) as *const [&[u64]]) };
        if threshold as usize > votes {
            // No count can reach the threshold.
            out.fill(0);
            return;
        }
        let inputs = Inputs {
            rows,
            first: 0,
            channels: 1,
        };
        self.vote_into::<1, _>(n, inputs, even_tie, threshold, out);
    }

    /// The unigram window vote over a flat table of bound rows: `out`
    /// is the paper majority over `samples` spatial votes, where
    /// spatial vote `t` is the paper majority of the `channels` rows
    /// starting at words `starts[t·channels + c]` of `table`, each
    /// `out.len()` words long.
    ///
    /// The spatial votes are never written. For each word block they
    /// are computed in registers and feed the carry-save tree of
    /// [`ripple_majority_into`](Self::ripple_majority_into) directly.
    /// A spatial vote takes the closed form
    /// [`BitslicedBundler::bundle_paper_into`](crate::hv64::BitslicedBundler::bundle_paper_into)
    /// picks for its channel count (the row, OR, `maj3`,
    /// `(x0 ∨ x1) ∧ (x2 ∨ x3)`, `maj5`), or is counted by the tree from
    /// six channels on.
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `channels` is zero, either vote reaches
    /// `2^`[`RIPPLE_PLANES`] inputs with its tie vector, `starts` does
    /// not hold `samples · channels` rows, or a row runs past the end
    /// of `table`.
    pub(crate) fn window_majority_into(
        self,
        samples: usize,
        channels: usize,
        table: &[u64],
        starts: &[usize],
        out: &mut [u64],
    ) {
        assert!(
            samples > 0 && channels > 0,
            "majority of an empty set is undefined"
        );
        for n in [samples, channels] {
            assert!(
                n + usize::from(n % 2 == 0) < (1 << RIPPLE_PLANES),
                "vote of {n} inputs overflows the {RIPPLE_PLANES}-plane counter"
            );
        }
        assert_eq!(
            starts.len(),
            samples * channels,
            "a window of {samples} samples of {channels} channels needs one row per channel"
        );
        let rows = Table::new(table, starts, out.len());
        let inputs = Inputs {
            rows: &rows,
            first: 0,
            channels,
        };
        let (even_tie, threshold) = paper_vote(samples);
        match channels {
            1 => self.vote_into::<1, _>(samples, inputs, even_tie, threshold, out),
            2 => self.vote_into::<2, _>(samples, inputs, even_tie, threshold, out),
            3 => self.vote_into::<3, _>(samples, inputs, even_tie, threshold, out),
            4 => self.vote_into::<4, _>(samples, inputs, even_tie, threshold, out),
            5 => self.vote_into::<5, _>(samples, inputs, even_tie, threshold, out),
            _ => self.vote_into::<0, _>(samples, inputs, even_tie, threshold, out),
        }
    }

    /// The level dispatch of both vote methods, after their checks.
    /// Requires `threshold <= n + even_tie < 2^RIPPLE_PLANES`, `n >= 2`
    /// when `even_tie`, every spatial vote of `inputs` below
    /// `2^RIPPLE_PLANES` inputs, and the row source holding every row
    /// of the `n` inputs, each at least `out.len()` words.
    fn vote_into<const C: usize, R: Rows + ?Sized>(
        self,
        n: usize,
        inputs: Inputs<'_, R>,
        even_tie: bool,
        threshold: u32,
        out: &mut [u64],
    ) {
        match self {
            Self::Portable => {
                portable::ripple_majority_from::<C, R>(n, inputs, even_tie, threshold, out, 0);
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for; the
                // vote and row bounds are this fn's own contract.
                unsafe { avx2::ripple_majority_into::<C, R>(n, inputs, even_tie, threshold, out) }
            }
        }
    }

    /// One carry-save addition step of the counter-plane accumulators:
    /// `(plane, carry) ← (plane ⊕ carry, plane ∧ carry)`, evaluated for
    /// 64 counters per word. Returns whether any carry survives —
    /// i.e. whether the ripple must continue into the next plane.
    ///
    /// Chaining this step over the planes of a bit-sliced counter stack
    /// adds one packed hypervector to 64 per-component counters per
    /// word-operation ("sideways addition") — the training-accumulation
    /// kernel behind [`crate::hv64::CounterBundler`].
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn csa_step(self, plane: &mut [u64], carry: &mut [u64]) -> bool {
        assert_eq!(plane.len(), carry.len(), "kernel operand length mismatch");
        match self {
            Self::Portable => portable::csa_step(plane, carry),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::csa_step(plane, carry) }
            }
        }
    }

    /// Thresholds bit-sliced per-component counters into a majority
    /// vector with a **seeded tie policy**: component `c` of word `w`
    /// becomes one iff its count strictly exceeds `n / 2`, or exactly
    /// equals `n / 2` (possible only for even `n`) and the corresponding
    /// `tie` bit is one. This is the vectorized twin of the scalar
    /// training threshold [`crate::bundle::Bundler::majority`] with
    /// `TieBreak::Seeded` — the finalize step of one-shot training and
    /// online updates.
    ///
    /// `planes(p)` yields counter plane `p` (bit `p` of each count) for
    /// `p < n_planes`; higher planes read as zero. Padding lanes whose
    /// count is zero stay clear as long as `n > 0` (the threshold is at
    /// least 1 and zero never equals `n / 2` for `n >= 2`; for `n == 1`
    /// the count *is* the input, which has clean padding).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any plane / `tie` length differs from
    /// `out`'s.
    pub fn counter_majority_into<'a, F>(
        self,
        planes: F,
        n_planes: usize,
        n: u32,
        tie: &[u64],
        out: &mut [u64],
    ) where
        F: Fn(usize) -> &'a [u64],
    {
        assert!(n > 0, "majority of an empty bundle is undefined");
        assert_eq!(tie.len(), out.len(), "kernel operand length mismatch");
        for p in 0..n_planes {
            assert_eq!(planes(p).len(), out.len(), "kernel operand length mismatch");
        }
        match self {
            Self::Portable => {
                portable::counter_majority_from(&planes, n_planes, n, tie, out, 0);
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::counter_majority_into(&planes, n_planes, n, tie, out) }
            }
        }
    }

    /// `dst = rotate(src, k)` over a `dim`-bit vector packed
    /// little-endian into `u64` words: all components move left by
    /// `k mod dim` positions. Padding bits of `src` must be zero;
    /// `dst`'s padding bits are left zero.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or either slice length differs from
    /// `dim.div_ceil(64)`.
    pub fn rotate_into_words(self, dst: &mut [u64], src: &[u64], dim: usize, k: usize) {
        let (geom, k) = Self::rot_args(dst, src, dim, k);
        if k == 0 {
            dst.copy_from_slice(src);
            return;
        }
        let geom = geom.expect("geometry exists for nonzero rotation");
        match self {
            Self::Portable => portable::rotate_into(dst, src, &geom),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                dst.fill(0);
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::xor_rotated_into(dst, src, &geom) }
            }
        }
    }

    /// Fused bind-rotate: `dst ^= rotate(src, k)` over a `dim`-bit
    /// vector, with no rotated temporary. Padding-bit contract as for
    /// [`rotate_into_words`](Self::rotate_into_words).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or either slice length differs from
    /// `dim.div_ceil(64)`.
    pub fn xor_rotated_words(self, dst: &mut [u64], src: &[u64], dim: usize, k: usize) {
        let (geom, k) = Self::rot_args(dst, src, dim, k);
        if k == 0 {
            self.xor_into(dst, src);
            return;
        }
        let geom = geom.expect("geometry exists for nonzero rotation");
        match self {
            Self::Portable => portable::xor_rotated_into(dst, src, &geom),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 | Self::Avx512 => {
                self.simd_ready();
                // SAFETY: `simd_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::xor_rotated_into(dst, src, &geom) }
            }
        }
    }

    /// Shared validation for the rotation kernels; returns the geometry
    /// (when the normalized shift is nonzero) and the normalized shift.
    fn rot_args(dst: &[u64], src: &[u64], dim: usize, k: usize) -> (Option<RotGeom>, usize) {
        assert!(dim > 0, "rotation needs a nonzero dimension");
        let words = dim.div_ceil(64);
        assert!(
            dst.len() == words && src.len() == words,
            "rotation buffers must hold exactly {words} words for {dim} bits"
        );
        let k = k % dim;
        (
            if k == 0 {
                None
            } else {
                Some(RotGeom::new(dim, k))
            },
            k,
        )
    }
}

/// Panics unless the running CPU supports the AVX2/POPCNT kernels —
/// the soundness guard that lets [`Simd::Avx2`] expose safe methods.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_ready() {
    assert!(
        avx2_detected(),
        "Simd::Avx2 kernels invoked on a CPU without AVX2/POPCNT"
    );
}

/// Panics unless the running CPU supports the AVX-512 level: its own
/// `vpopcntq` kernel and the AVX2/POPCNT kernels it shares — the
/// soundness guard that lets [`Simd::Avx512`] expose safe methods.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_ready() {
    assert!(
        avx512_detected(),
        "Simd::Avx512 kernels invoked on a CPU without AVX-512F/VPOPCNTDQ/AVX2/POPCNT"
    );
}

/// Whether the CPU has the features of the AVX2 level.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_detected() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
}

/// Whether the CPU has the features of the AVX-512 level: those of its
/// `hamming` kernel, and those of the AVX2 kernels it serves every
/// other method with.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_detected() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512vpopcntdq")
        && avx2_detected()
}

/// Per-word geometry of a `dim`-bit left rotation by `k` over
/// little-endian `u64` words: `rotl(x, k) = ((x << k) | (x >> (dim -
/// k))) mod 2^dim`, evaluated one output word at a time so rotations
/// stream into existing buffers without big-integer temporaries.
///
/// Every output word is the OR of two contributions with **disjoint bit
/// positions** (each output bit comes from exactly one input bit), so
/// the kernels may also XOR or ADD them — the AVX2 path exploits this
/// to apply the two contributions in independent passes.
pub(crate) struct RotGeom {
    /// Word/bit split of the left-shift part (`<< k`).
    shl_words: usize,
    shl_bits: usize,
    /// Word/bit split of the wrap part (`>> (dim - k)`).
    shr_words: usize,
    shr_bits: usize,
    /// Valid bits in the top word (0 when the dimension fills it).
    tail: usize,
}

impl RotGeom {
    pub(crate) fn new(dim: usize, k: usize) -> Self {
        debug_assert!(k > 0 && k < dim);
        let wrap = dim - k;
        Self {
            shl_words: k / 64,
            shl_bits: k % 64,
            shr_words: wrap / 64,
            shr_bits: wrap % 64,
            tail: dim % 64,
        }
    }

    /// The `<< k` contribution to output word `j` (zero for `j` below
    /// the word shift).
    #[inline]
    fn shl_part(&self, x: &[u64], j: usize) -> u64 {
        if j < self.shl_words {
            return 0;
        }
        let lo = x[j - self.shl_words] << self.shl_bits;
        let carry = if j > self.shl_words && self.shl_bits > 0 {
            x[j - self.shl_words - 1] >> (64 - self.shl_bits)
        } else {
            0
        };
        lo | carry
    }

    /// The `>> (dim - k)` wrap contribution to output word `j` (zero
    /// once the source index runs off the top).
    #[inline]
    fn shr_part(&self, x: &[u64], j: usize) -> u64 {
        if j + self.shr_words >= x.len() {
            return 0;
        }
        let hi = x[j + self.shr_words] >> self.shr_bits;
        let carry = if j + self.shr_words + 1 < x.len() && self.shr_bits > 0 {
            x[j + self.shr_words + 1] << (64 - self.shr_bits)
        } else {
            0
        };
        hi | carry
    }

    /// Output word `j` of the rotated vector (unmasked; the caller
    /// masks the tail of the top word).
    #[inline]
    pub(crate) fn word(&self, x: &[u64], j: usize) -> u64 {
        self.shl_part(x, j) | self.shr_part(x, j)
    }

    /// All-ones below the tail boundary (all-ones when the dimension
    /// fills the top word).
    #[inline]
    pub(crate) fn tail_mask(&self) -> u64 {
        if self.tail == 0 {
            u64::MAX
        } else {
            (1u64 << self.tail) - 1
        }
    }
}

/// Bit-sliced full adder over 64 lanes: `(sum, carry)` of three one-bit
/// addends per lane — the cell the majority networks are built from.
#[inline]
pub(crate) fn full_add(a: u64, b: u64, c: u64) -> (u64, u64) {
    let ab = a ^ b;
    (ab ^ c, (a & b) | (c & ab))
}

/// The portable level: safe Rust, unrolled four `u64` words per step so
/// the auto-vectorizer can widen it, and simple enough to audit — this
/// is the reference implementation of every kernel.
mod portable {
    use super::{full_add, Inputs, RotGeom, Rows, SCAN_BLOCK_WORDS64};

    /// Applies `f` to 4-word blocks of three equal-length slices
    /// (two inputs, one output), then to the remainder wordwise.
    #[inline]
    fn zip2_into(a: &[u64], b: &[u64], out: &mut [u64], f: impl Fn(u64, u64) -> u64) {
        let mut oc = out.chunks_exact_mut(4);
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
            o[0] = f(x[0], y[0]);
            o[1] = f(x[1], y[1]);
            o[2] = f(x[2], y[2]);
            o[3] = f(x[3], y[3]);
        }
        for ((o, &x), &y) in oc
            .into_remainder()
            .iter_mut()
            .zip(ac.remainder())
            .zip(bc.remainder())
        {
            *o = f(x, y);
        }
    }

    pub(super) fn xor_into(dst: &mut [u64], src: &[u64]) {
        let mut dc = dst.chunks_exact_mut(4);
        let mut sc = src.chunks_exact(4);
        for (d, s) in (&mut dc).zip(&mut sc) {
            d[0] ^= s[0];
            d[1] ^= s[1];
            d[2] ^= s[2];
            d[3] ^= s[3];
        }
        for (d, &s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
            *d ^= s;
        }
    }

    pub(super) fn popcount(a: &[u64]) -> u32 {
        let mut c = a.chunks_exact(4);
        let mut total = 0u32;
        for w in &mut c {
            total += w[0].count_ones() + w[1].count_ones() + w[2].count_ones() + w[3].count_ones();
        }
        for &w in c.remainder() {
            total += w.count_ones();
        }
        total
    }

    pub(super) fn hamming(a: &[u64], b: &[u64]) -> u32 {
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        let mut total = 0u32;
        for (x, y) in (&mut ac).zip(&mut bc) {
            total += (x[0] ^ y[0]).count_ones()
                + (x[1] ^ y[1]).count_ones()
                + (x[2] ^ y[2]).count_ones()
                + (x[3] ^ y[3]).count_ones();
        }
        for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
            total += (x ^ y).count_ones();
        }
        total
    }

    pub(super) fn hamming_bounded(a: &[u64], b: &[u64], bound: u32) -> u32 {
        let mut d = 0u32;
        for (ba, bb) in a
            .chunks(SCAN_BLOCK_WORDS64)
            .zip(b.chunks(SCAN_BLOCK_WORDS64))
        {
            d += hamming(ba, bb);
            if d > bound {
                break;
            }
        }
        d
    }

    pub(super) fn hamming_threshold(a: &[u64], b: &[u64], prune: u32, accept: u32) -> u32 {
        let n = a.len();
        let mut d = 0u32;
        let mut i = 0;
        while i < n {
            let end = (i + SCAN_BLOCK_WORDS64).min(n);
            d += hamming(&a[i..end], &b[i..end]);
            i = end;
            // Check order is part of the kernel contract: abandon
            // first, then early-accept (the AVX2 lane mirrors it).
            if d > prune {
                break;
            }
            if u64::from(d) + ((n - i) as u64) * 64 <= u64::from(accept) {
                break;
            }
        }
        d
    }

    pub(super) fn or_into(a: &[u64], b: &[u64], out: &mut [u64]) {
        zip2_into(a, b, out, |x, y| x | y);
    }

    pub(super) fn maj3_into(x0: &[u64], x1: &[u64], x2: &[u64], out: &mut [u64]) {
        for (((o, &a), &b), &c) in out.iter_mut().zip(x0).zip(x1).zip(x2) {
            let (_, maj) = full_add(a, b, c);
            *o = maj;
        }
    }

    #[inline]
    fn maj5_word(a: u64, b: u64, c: u64, d: u64, e: u64) -> u64 {
        let (s1, c1) = full_add(a, b, c);
        let (s2, c2) = full_add(s1, d, e);
        (c1 & c2) | ((c1 | c2) & s2)
    }

    pub(super) fn maj5_into(
        x0: &[u64],
        x1: &[u64],
        x2: &[u64],
        x3: &[u64],
        x4: &[u64],
        out: &mut [u64],
    ) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = maj5_word(x0[j], x1[j], x2[j], x3[j], x4[j]);
        }
    }

    pub(super) fn maj5_tie_into(x0: &[u64], x1: &[u64], x2: &[u64], x3: &[u64], out: &mut [u64]) {
        for ((((o, &a), &b), &c), &d) in out.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
            *o = (a | b) & (c | d);
        }
    }

    /// The carry-save vote counter from word `start` to the end — also
    /// the tail loop of the AVX2 version, which is why the range is a
    /// parameter. Requires `threshold <= n + even_tie`.
    pub(super) fn ripple_majority_from<const C: usize, R: Rows + ?Sized>(
        n: usize,
        inputs: Inputs<'_, R>,
        even_tie: bool,
        threshold: u32,
        out: &mut [u64],
        start: usize,
    ) {
        let planes = super::counter_planes(n + usize::from(even_tie));
        with_planes!(
            planes,
            vote_words::<C>(n, inputs, even_tie, threshold, out, start)
        );
    }

    /// [`ripple_majority_from`] with its `P` counter planes in
    /// registers: four words per step, then word by word.
    fn vote_words<const P: usize, const C: usize, R: Rows + ?Sized>(
        n: usize,
        inputs: Inputs<'_, R>,
        even_tie: bool,
        threshold: u32,
        out: &mut [u64],
        start: usize,
    ) {
        let mut wi = start;
        while wi + 4 <= out.len() {
            let v: [u64; 4] = vote_block::<P, C, 4, R>(n, inputs, even_tie, threshold, wi);
            out[wi..wi + 4].copy_from_slice(&v);
            wi += 4;
        }
        for (w, o) in out.iter_mut().enumerate().skip(wi) {
            [*o] = vote_block::<P, C, 1, R>(n, inputs, even_tie, threshold, w);
        }
    }

    /// The vote over words `wi..wi + L`, each counter plane an `[u64; L]`.
    #[inline(always)]
    fn vote_block<const P: usize, const C: usize, const L: usize, R: Rows + ?Sized>(
        n: usize,
        inputs: Inputs<'_, R>,
        even_tie: bool,
        threshold: u32,
        wi: usize,
    ) -> [u64; L] {
        let mut planes = [[0u64; L]; P];
        let mut i = if even_tie {
            let x0 = input_block::<C, L, R>(inputs, 0, wi);
            let x1 = input_block::<C, L, R>(inputs, 1, wi);
            planes[1] = lanes(x0, x1, |a, b| a | b);
            2
        } else {
            planes[0] = input_block::<C, L, R>(inputs, 0, wi);
            1
        };
        // The plane guards are constants: a vote with fewer planes
        // never has the inputs left for the wider group.
        while P > 3 && i + 8 <= n {
            let carry = csa8::<P, C, L, R>(&mut planes, inputs, i, wi);
            half_add_from(&mut planes, 3, carry);
            i += 8;
        }
        if P > 2 && i + 4 <= n {
            let carry = csa4::<P, C, L, R>(&mut planes, inputs, i, wi);
            half_add_from(&mut planes, 2, carry);
            i += 4;
        }
        if i + 2 <= n {
            let carry = csa2::<P, C, L, R>(&mut planes, inputs, i, wi);
            half_add_from(&mut planes, 1, carry);
            i += 2;
        }
        if i < n {
            half_add_from(&mut planes, 0, input_block::<C, L, R>(inputs, i, wi));
        }
        // count >= threshold, decided from the lowest plane up: a set
        // threshold bit needs the count bit, a clear one is met by it.
        let mut geq = [u64::MAX; L];
        for (p, &plane) in planes.iter().enumerate() {
            geq = if threshold >> p & 1 == 1 {
                lanes(geq, plane, |g, x| g & x)
            } else {
                lanes(geq, plane, |g, x| g | x)
            };
        }
        geq
    }

    /// Harley–Seal pair: counts inputs `i` and `i + 1` into plane 0 and
    /// returns the carry, of weight 2.
    #[inline(always)]
    fn csa2<const P: usize, const C: usize, const L: usize, R: Rows + ?Sized>(
        planes: &mut [[u64; L]; P],
        inputs: Inputs<'_, R>,
        i: usize,
        wi: usize,
    ) -> [u64; L] {
        let a = input_block::<C, L, R>(inputs, i, wi);
        let b = input_block::<C, L, R>(inputs, i + 1, wi);
        let carry;
        (planes[0], carry) = full_add_lanes(planes[0], a, b);
        carry
    }

    /// Harley–Seal group of four: two pairs, whose carries meet in
    /// plane 1; returns the carry of weight 4.
    #[inline(always)]
    fn csa4<const P: usize, const C: usize, const L: usize, R: Rows + ?Sized>(
        planes: &mut [[u64; L]; P],
        inputs: Inputs<'_, R>,
        i: usize,
        wi: usize,
    ) -> [u64; L] {
        let a = csa2::<P, C, L, R>(planes, inputs, i, wi);
        let b = csa2::<P, C, L, R>(planes, inputs, i + 2, wi);
        let carry;
        (planes[1], carry) = full_add_lanes(planes[1], a, b);
        carry
    }

    /// Harley–Seal group of eight: two groups of four, whose carries
    /// meet in plane 2; returns the carry of weight 8.
    #[inline(always)]
    fn csa8<const P: usize, const C: usize, const L: usize, R: Rows + ?Sized>(
        planes: &mut [[u64; L]; P],
        inputs: Inputs<'_, R>,
        i: usize,
        wi: usize,
    ) -> [u64; L] {
        let a = csa4::<P, C, L, R>(planes, inputs, i, wi);
        let b = csa4::<P, C, L, R>(planes, inputs, i + 4, wi);
        let carry;
        (planes[2], carry) = full_add_lanes(planes[2], a, b);
        carry
    }

    /// Input `i` of a vote over words `wi..wi + L`: a row, or a
    /// sample's spatial vote in spatial form `C` (see `with_planes!`).
    #[inline(always)]
    fn input_block<const C: usize, const L: usize, R: Rows + ?Sized>(
        inputs: Inputs<'_, R>,
        i: usize,
        wi: usize,
    ) -> [u64; L] {
        let row = |c| row_block::<C, L, R>(inputs, i, c, wi);
        match C {
            1 => row(0),
            2 => lanes(row(0), row(1), |a, b| a | b),
            3 => full_add_lanes(row(0), row(1), row(2)).1,
            4 => {
                let (a, b, c, d) = (row(0), row(1), row(2), row(3));
                core::array::from_fn(|k| (a[k] | b[k]) & (c[k] | d[k]))
            }
            5 => {
                let (a, b, c, d, e) = (row(0), row(1), row(2), row(3), row(4));
                core::array::from_fn(|k| maj5_word(a[k], b[k], c[k], d[k], e[k]))
            }
            _ => wide_vote(inputs.rows_of(i), inputs.channels, wi),
        }
    }

    /// Words `wi..wi + L` of row `c` of input `i`.
    #[inline(always)]
    fn row_block<const C: usize, const L: usize, R: Rows + ?Sized>(
        inputs: Inputs<'_, R>,
        i: usize,
        c: usize,
        wi: usize,
    ) -> [u64; L] {
        let mut x = [0u64; L];
        x.copy_from_slice(&inputs.row::<C>(i, c)[wi..wi + L]);
        x
    }

    /// The paper majority of `n` rows, counted by the tree: a spatial
    /// vote wider than the closed forms. Kept out of line, so the
    /// closed forms inline into every input of the temporal tree.
    #[inline(never)]
    fn wide_vote<const L: usize, R: Rows + ?Sized>(
        rows: Inputs<'_, R>,
        n: usize,
        wi: usize,
    ) -> [u64; L] {
        let (even_tie, threshold) = super::paper_vote(n);
        if n + usize::from(even_tie) < 16 {
            vote_block::<4, 1, L, R>(n, rows, even_tie, threshold, wi)
        } else {
            vote_block::<{ super::RIPPLE_PLANES }, 1, L, R>(n, rows, even_tie, threshold, wi)
        }
    }

    /// [`full_add`] lane by lane: `(sum, carry)`.
    #[inline(always)]
    fn full_add_lanes<const L: usize>(
        a: [u64; L],
        b: [u64; L],
        c: [u64; L],
    ) -> ([u64; L], [u64; L]) {
        let mut out = ([0u64; L], [0u64; L]);
        for k in 0..L {
            (out.0[k], out.1[k]) = full_add(a[k], b[k], c[k]);
        }
        out
    }

    /// `f` applied lane by lane.
    #[inline(always)]
    fn lanes<const L: usize>(a: [u64; L], b: [u64; L], f: impl Fn(u64, u64) -> u64) -> [u64; L] {
        core::array::from_fn(|k| f(a[k], b[k]))
    }

    /// Half-adds `carry` into planes `first..P`. The caller bounds the
    /// count below `2^P`, so the last carry is always zero.
    #[inline(always)]
    fn half_add_from<const P: usize, const L: usize>(
        planes: &mut [[u64; L]; P],
        first: usize,
        mut carry: [u64; L],
    ) {
        for plane in &mut planes[first..] {
            let t = lanes(*plane, carry, |p, c| p & c);
            *plane = lanes(*plane, carry, |p, c| p ^ c);
            carry = t;
        }
    }

    pub(super) fn csa_step(plane: &mut [u64], carry: &mut [u64]) -> bool {
        let mut any = 0u64;
        let mut pc = plane.chunks_exact_mut(4);
        let mut cc = carry.chunks_exact_mut(4);
        for (p, c) in (&mut pc).zip(&mut cc) {
            for i in 0..4 {
                let t = p[i] & c[i];
                p[i] ^= c[i];
                c[i] = t;
                any |= t;
            }
        }
        for (p, c) in pc
            .into_remainder()
            .iter_mut()
            .zip(cc.into_remainder().iter_mut())
        {
            let t = *p & *c;
            *p ^= *c;
            *c = t;
            any |= t;
        }
        any != 0
    }

    /// The seeded-tie counter threshold from word `start` to the end —
    /// also the tail loop of the AVX2 version.
    pub(super) fn counter_majority_from<'a, F>(
        planes: &F,
        n_planes: usize,
        n: u32,
        tie: &[u64],
        out: &mut [u64],
        start: usize,
    ) where
        F: Fn(usize) -> &'a [u64],
    {
        let threshold = n / 2 + 1;
        let even = n.is_multiple_of(2);
        let half = n / 2;
        let t_bits = (32 - threshold.leading_zeros()) as usize;
        let p_max = n_planes.max(t_bits);
        for (wi, o) in out.iter_mut().enumerate().skip(start) {
            // count >= threshold ⇔ (count - threshold) does not borrow;
            // count == half ⇔ every counter bit matches half's bits.
            let mut borrow = 0u64;
            let mut eq = u64::MAX;
            for p in 0..p_max {
                let plane = if p < n_planes { planes(p)[wi] } else { 0 };
                let t = if threshold >> p & 1 == 1 { u64::MAX } else { 0 };
                borrow = (!plane & (t | borrow)) | (t & borrow);
                let h = if half >> p & 1 == 1 { u64::MAX } else { 0 };
                eq &= !(plane ^ h);
            }
            let gt = !borrow;
            *o = if even { gt | (eq & tie[wi]) } else { gt };
        }
    }

    pub(super) fn rotate_into(dst: &mut [u64], src: &[u64], g: &RotGeom) {
        for (j, d) in dst.iter_mut().enumerate() {
            *d = g.word(src, j);
        }
        if let Some(top) = dst.last_mut() {
            *top &= g.tail_mask();
        }
    }

    pub(super) fn xor_rotated_into(dst: &mut [u64], src: &[u64], g: &RotGeom) {
        let last = dst.len() - 1;
        for (j, d) in dst.iter_mut().enumerate() {
            let mut r = g.word(src, j);
            if j == last {
                r &= g.tail_mask();
            }
            *d ^= r;
        }
    }
}

/// The AVX2/POPCNT level. Every function is `unsafe fn` +
/// `#[target_feature]`; the safe dispatch methods on [`Simd`] guard
/// each call with a CPU-feature check. All loops fall back to the
/// portable scalar code for remainders and boundary words, so the two
/// levels share their edge-case handling where it matters most.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![deny(unsafe_op_in_unsafe_fn)]
    // Written for an MSRV (1.82) on which every intrinsic call needed an
    // explicit `unsafe` block. On the workspace MSRV (1.89) the
    // value-only intrinsics are safe inside `#[target_feature]` fns, so
    // the blocks around them are redundant there; they stay (the
    // `#[inline(always)]` helpers, which have no target feature, still
    // need theirs), and the redundancy lint is silenced.
    #![allow(unused_unsafe)]

    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_andnot_si256,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_sll_epi64, _mm256_srl_epi64,
        _mm256_srli_epi32, _mm256_storeu_si256, _mm256_testz_si256, _mm256_xor_si256,
        _mm_cvtsi32_si128,
    };

    use super::{Inputs, RotGeom, Rows, SCAN_BLOCK_WORDS64};

    /// Unaligned 4-word load at `a[i..i + 4]`.
    ///
    /// # Safety
    ///
    /// Requires `i + 4 <= a.len()` and AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn loadu(a: &[u64], i: usize) -> __m256i {
        debug_assert!(i + 4 <= a.len());
        // SAFETY: the fn's contract requires `i + 4 <= a.len()`
        // (debug-asserted above) and AVX2.
        unsafe { _mm256_loadu_si256(a.as_ptr().add(i).cast()) }
    }

    /// Unaligned 4-word store to `a[i..i + 4]`.
    ///
    /// # Safety
    ///
    /// Requires `i + 4 <= a.len()` and AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn storeu(a: &mut [u64], i: usize, v: __m256i) {
        debug_assert!(i + 4 <= a.len());
        // SAFETY: the fn's contract requires `i + 4 <= a.len()`
        // (debug-asserted above) and AVX2.
        unsafe { _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), v) }
    }

    /// # Safety
    ///
    /// Requires AVX2 and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            let v = unsafe { _mm256_xor_si256(loadu(dst, i), loadu(src, i)) };
            // SAFETY: same bound as the load above.
            unsafe { storeu(dst, i, v) };
            i += 4;
        }
        while i < n {
            dst[i] ^= src[i];
            i += 1;
        }
    }

    /// Per-byte population count of 4 words via the `vpshufb` nibble
    /// table, accumulated into 4 `u64` lanes with `vpsadbw`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt_epi64(v: __m256i) -> __m256i {
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        unsafe {
            let lut = _mm256_setr_epi8(
                0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                2, 3, 3, 4,
            );
            let low = _mm256_set1_epi8(0x0f);
            let lo = _mm256_and_si256(v, low);
            let hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
            let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            _mm256_sad_epu8(cnt, _mm256_setzero_si256())
        }
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is exactly 32 bytes; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
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
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        let mut acc = unsafe { _mm256_setzero_si256() };
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            acc = unsafe { _mm256_add_epi64(acc, popcnt_epi64(loadu(a, i))) };
            i += 4;
        }
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        let mut total = unsafe { hsum_epi64(acc) };
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
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        let mut acc = unsafe { _mm256_setzero_si256() };
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            let x0 = unsafe { _mm256_xor_si256(loadu(a, i), loadu(b, i)) };
            // SAFETY: `i + 8 <= n` covers the second lane too.
            let x1 = unsafe { _mm256_xor_si256(loadu(a, i + 4), loadu(b, i + 4)) };
            // SAFETY: register-only intrinsics; AVX2 flows from the
            // enclosing `#[target_feature]` contract.
            let c = unsafe { _mm256_add_epi64(popcnt_epi64(x0), popcnt_epi64(x1)) };
            // SAFETY: register-only intrinsics; AVX2 flows from the
            // enclosing `#[target_feature]` contract.
            acc = unsafe { _mm256_add_epi64(acc, c) };
            i += 8;
        }
        if i + 4 <= n {
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            let x = unsafe { _mm256_xor_si256(loadu(a, i), loadu(b, i)) };
            // SAFETY: register-only intrinsics; AVX2 flows from the
            // enclosing `#[target_feature]` contract.
            acc = unsafe { _mm256_add_epi64(acc, popcnt_epi64(x)) };
            i += 4;
        }
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        let mut total = unsafe { hsum_epi64(acc) };
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
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            let v = unsafe { _mm256_or_si256(loadu(a, i), loadu(b, i)) };
            // SAFETY: same bound as the load above.
            unsafe { storeu(out, i, v) };
            i += 4;
        }
        while i < n {
            out[i] = a[i] | b[i];
            i += 1;
        }
    }

    /// Full adder over 256-bit lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn full_add_v(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        unsafe {
            let ab = _mm256_xor_si256(a, b);
            (
                _mm256_xor_si256(ab, c),
                _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(c, ab)),
            )
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and equal slice lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn maj3_into(x0: &[u64], x1: &[u64], x2: &[u64], out: &mut [u64]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            let (_, maj) = unsafe { full_add_v(loadu(x0, i), loadu(x1, i), loadu(x2, i)) };
            // SAFETY: same bound as the load above.
            unsafe { storeu(out, i, maj) };
            i += 4;
        }
        while i < n {
            let (_, maj) = super::full_add(x0[i], x1[i], x2[i]);
            out[i] = maj;
            i += 1;
        }
    }

    /// Two full adders + combine: count ≥ 3 of 5 ⇔ both carries, or one
    /// carry plus the final sum bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn maj5_v(a: __m256i, b: __m256i, c: __m256i, d: __m256i, e: __m256i) -> __m256i {
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        unsafe {
            let (s1, c1) = full_add_v(a, b, c);
            let (s2, c2) = full_add_v(s1, d, e);
            _mm256_or_si256(
                _mm256_and_si256(c1, c2),
                _mm256_and_si256(_mm256_or_si256(c1, c2), s2),
            )
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and equal slice lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn maj5_into(
        x0: &[u64],
        x1: &[u64],
        x2: &[u64],
        x3: &[u64],
        x4: &[u64],
        out: &mut [u64],
    ) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            let v = unsafe {
                maj5_v(
                    loadu(x0, i),
                    loadu(x1, i),
                    loadu(x2, i),
                    loadu(x3, i),
                    loadu(x4, i),
                )
            };
            // SAFETY: same bound as the load above.
            unsafe { storeu(out, i, v) };
            i += 4;
        }
        while i < n {
            let (s1, c1) = super::full_add(x0[i], x1[i], x2[i]);
            let (s2, c2) = super::full_add(s1, x3[i], x4[i]);
            out[i] = (c1 & c2) | ((c1 | c2) & s2);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and equal slice lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn maj5_tie_into(
        x0: &[u64],
        x1: &[u64],
        x2: &[u64],
        x3: &[u64],
        out: &mut [u64],
    ) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            let v = unsafe {
                _mm256_and_si256(
                    _mm256_or_si256(loadu(x0, i), loadu(x1, i)),
                    _mm256_or_si256(loadu(x2, i), loadu(x3, i)),
                )
            };
            // SAFETY: same bound as the load above.
            unsafe { storeu(out, i, v) };
            i += 4;
        }
        while i < n {
            out[i] = (x0[i] | x1[i]) & (x2[i] | x3[i]);
            i += 1;
        }
    }

    /// The carry-save vote counter over 256-bit lanes, 256 components
    /// per step; tail words run the portable loop.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `threshold <= n + even_tie < 2^RIPPLE_PLANES`,
    /// `n >= 2` when `even_tie`, every spatial vote of `inputs` below
    /// `2^RIPPLE_PLANES` inputs, and the row source holding every row
    /// of the `n` inputs, each at least `out.len()` words.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ripple_majority_into<const C: usize, R: Rows + ?Sized>(
        n: usize,
        inputs: Inputs<'_, R>,
        even_tie: bool,
        threshold: u32,
        out: &mut [u64],
    ) {
        let planes = super::counter_planes(n + usize::from(even_tie));
        let end =
            // SAFETY: this fn's contract is `vote_lanes`'s, and
            // `counter_planes` picks a `P` with `n + even_tie < 2^P`.
            unsafe { with_planes!(planes, vote_lanes::<C>(n, inputs, even_tie, threshold, out)) };
        super::portable::ripple_majority_from::<C, R>(n, inputs, even_tie, threshold, out, end);
    }

    /// [`ripple_majority_into`] with its `P` counter planes in
    /// registers, over every whole 4-word step of `out`; returns the
    /// first word it left for the tail loop.
    ///
    /// # Safety
    ///
    /// As [`ripple_majority_into`], with `2^P` for `2^RIPPLE_PLANES`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vote_lanes<const P: usize, const C: usize, R: Rows + ?Sized>(
        n: usize,
        inputs: Inputs<'_, R>,
        even_tie: bool,
        threshold: u32,
        out: &mut [u64],
    ) -> usize {
        let n_words = out.len();
        let mut wi = 0;
        while wi + 4 <= n_words {
            // SAFETY: `wi + 4 <= n_words` bounds the store and, as every
            // row is at least `n_words` long, every row load; the vote
            // bounds are this fn's contract; AVX2 flows from the
            // enclosing `#[target_feature]` contract.
            unsafe {
                let v = vote_v::<P, C, R>(n, inputs, even_tie, threshold, wi);
                storeu(out, wi, v);
            }
            wi += 4;
        }
        wi
    }

    // The helpers below are `#[inline(always)]` with no
    // `#[target_feature]` of their own (the two cannot be combined):
    // they are only called from `vote_lanes` and `wide_vote_v`, and
    // inline into them, so their intrinsics compile for AVX2 with the
    // planes and the row pointers in registers.

    /// The vote over words `wi..wi + 4`: the Harley–Seal count of
    /// [`super::portable`]'s `vote_block`, over 256-bit planes.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `threshold <= n + even_tie < 2^P`, `n >= 2` when
    /// `even_tie`, every spatial vote of `inputs` below
    /// `2^RIPPLE_PLANES` inputs, and `wi + 4` words in every row.
    #[inline(always)]
    unsafe fn vote_v<const P: usize, const C: usize, R: Rows + ?Sized>(
        n: usize,
        inputs: Inputs<'_, R>,
        even_tie: bool,
        threshold: u32,
        wi: usize,
    ) -> __m256i {
        // SAFETY: the plane guards below keep every constant plane
        // index under `P`, and the half-add chains end at plane
        // `P - 1`, which the count never overflows (the contract); the
        // row and AVX2 bounds are this fn's contract too.
        unsafe {
            let mut planes = [_mm256_setzero_si256(); P];
            let mut i = if even_tie {
                let x0 = input_v::<C, R>(inputs, 0, wi);
                planes[1] = _mm256_or_si256(x0, input_v::<C, R>(inputs, 1, wi));
                2
            } else {
                planes[0] = input_v::<C, R>(inputs, 0, wi);
                1
            };
            while P > 3 && i + 8 <= n {
                let carry = csa8_v::<P, C, R>(&mut planes, inputs, i, wi);
                half_add_from_v(&mut planes, 3, carry);
                i += 8;
            }
            if P > 2 && i + 4 <= n {
                let carry = csa4_v::<P, C, R>(&mut planes, inputs, i, wi);
                half_add_from_v(&mut planes, 2, carry);
                i += 4;
            }
            if i + 2 <= n {
                let carry = csa2_v::<P, C, R>(&mut planes, inputs, i, wi);
                half_add_from_v(&mut planes, 1, carry);
                i += 2;
            }
            if i < n {
                half_add_from_v(&mut planes, 0, input_v::<C, R>(inputs, i, wi));
            }
            // count >= threshold, decided as on the portable level.
            let mut geq = _mm256_set1_epi8(-1);
            for (p, &plane) in planes.iter().enumerate() {
                geq = if threshold >> p & 1 == 1 {
                    _mm256_and_si256(geq, plane)
                } else {
                    _mm256_or_si256(geq, plane)
                };
            }
            geq
        }
    }

    /// Harley–Seal pair: counts inputs `i` and `i + 1` into plane 0 and
    /// returns the carry, of weight 2.
    ///
    /// # Safety
    ///
    /// As [`input_v`].
    #[inline(always)]
    unsafe fn csa2_v<const P: usize, const C: usize, R: Rows + ?Sized>(
        planes: &mut [__m256i; P],
        inputs: Inputs<'_, R>,
        i: usize,
        wi: usize,
    ) -> __m256i {
        // SAFETY: this fn's contract is `input_v`'s.
        unsafe {
            let (a, b) = (
                input_v::<C, R>(inputs, i, wi),
                input_v::<C, R>(inputs, i + 1, wi),
            );
            let carry;
            (planes[0], carry) = full_add_v(planes[0], a, b);
            carry
        }
    }

    /// Harley–Seal group of four: two pairs, whose carries meet in
    /// plane 1; returns the carry of weight 4.
    ///
    /// # Safety
    ///
    /// As [`input_v`].
    #[inline(always)]
    unsafe fn csa4_v<const P: usize, const C: usize, R: Rows + ?Sized>(
        planes: &mut [__m256i; P],
        inputs: Inputs<'_, R>,
        i: usize,
        wi: usize,
    ) -> __m256i {
        // SAFETY: this fn's contract is `csa2_v`'s.
        unsafe {
            let a = csa2_v::<P, C, R>(planes, inputs, i, wi);
            let b = csa2_v::<P, C, R>(planes, inputs, i + 2, wi);
            let carry;
            (planes[1], carry) = full_add_v(planes[1], a, b);
            carry
        }
    }

    /// Harley–Seal group of eight: two groups of four, whose carries
    /// meet in plane 2; returns the carry of weight 8.
    ///
    /// # Safety
    ///
    /// As [`input_v`].
    #[inline(always)]
    unsafe fn csa8_v<const P: usize, const C: usize, R: Rows + ?Sized>(
        planes: &mut [__m256i; P],
        inputs: Inputs<'_, R>,
        i: usize,
        wi: usize,
    ) -> __m256i {
        // SAFETY: this fn's contract is `csa4_v`'s.
        unsafe {
            let a = csa4_v::<P, C, R>(planes, inputs, i, wi);
            let b = csa4_v::<P, C, R>(planes, inputs, i + 4, wi);
            let carry;
            (planes[2], carry) = full_add_v(planes[2], a, b);
            carry
        }
    }

    /// Input `i` of a vote over words `wi..wi + 4`: a row, or a
    /// sample's spatial vote in spatial form `C` (see `with_planes!`).
    ///
    /// # Safety
    ///
    /// Requires AVX2, input `i` of the vote, `wi + 4` words in every
    /// row, and every spatial vote of `inputs` below `2^RIPPLE_PLANES`
    /// inputs.
    #[inline(always)]
    unsafe fn input_v<const C: usize, R: Rows + ?Sized>(
        inputs: Inputs<'_, R>,
        i: usize,
        wi: usize,
    ) -> __m256i {
        // SAFETY: every row holds `wi + 4` words (the contract); the
        // rest are register-only intrinsics; AVX2 is the contract too.
        unsafe {
            let row = |c| loadu(inputs.row_unchecked::<C>(i, c), wi);
            match C {
                1 => row(0),
                2 => _mm256_or_si256(row(0), row(1)),
                3 => full_add_v(row(0), row(1), row(2)).1,
                4 => _mm256_and_si256(
                    _mm256_or_si256(row(0), row(1)),
                    _mm256_or_si256(row(2), row(3)),
                ),
                5 => maj5_v(row(0), row(1), row(2), row(3), row(4)),
                _ => wide_vote_v(inputs.rows_of(i), inputs.channels, wi),
            }
        }
    }

    /// The paper majority of `n` rows, counted by the tree: a spatial
    /// vote wider than the closed forms. Kept out of line, so the
    /// closed forms inline into every input of the temporal tree.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `wi + 4` words in every row, and `n` plus its tie
    /// vector below `2^RIPPLE_PLANES`.
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    unsafe fn wide_vote_v<R: Rows + ?Sized>(rows: Inputs<'_, R>, n: usize, wi: usize) -> __m256i {
        let (even_tie, threshold) = super::paper_vote(n);
        // SAFETY: the paper threshold is at most the vote count, and
        // both plane counts hold it (16 > the vote on the first arm,
        // the contract on the second); rows and AVX2 are the contract.
        unsafe {
            if n + usize::from(even_tie) < 16 {
                vote_v::<4, 1, R>(n, rows, even_tie, threshold, wi)
            } else {
                vote_v::<{ super::RIPPLE_PLANES }, 1, R>(n, rows, even_tie, threshold, wi)
            }
        }
    }

    /// Half-adds `carry` into planes `first..P`. The caller bounds the
    /// count below `2^P`, so the last carry is always zero.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn half_add_from_v<const P: usize>(
        planes: &mut [__m256i; P],
        first: usize,
        mut carry: __m256i,
    ) {
        for plane in &mut planes[first..] {
            // SAFETY: register-only intrinsics; AVX2 flows from the
            // enclosing `#[target_feature]` contract.
            unsafe {
                let t = _mm256_and_si256(*plane, carry);
                *plane = _mm256_xor_si256(*plane, carry);
                carry = t;
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and `plane.len() == carry.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn csa_step(plane: &mut [u64], carry: &mut [u64]) -> bool {
        let n = plane.len();
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        let mut any = unsafe { _mm256_setzero_si256() };
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: the loop bound keeps every 4-word lane in range;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            unsafe {
                let p = loadu(plane, i);
                let c = loadu(carry, i);
                let t = _mm256_and_si256(p, c);
                storeu(plane, i, _mm256_xor_si256(p, c));
                storeu(carry, i, t);
                any = _mm256_or_si256(any, t);
            }
            i += 4;
        }
        let mut scalar_any = 0u64;
        while i < n {
            let t = plane[i] & carry[i];
            plane[i] ^= carry[i];
            carry[i] = t;
            scalar_any |= t;
            i += 1;
        }
        // SAFETY: register-only intrinsics; AVX2 flows from the
        // enclosing `#[target_feature]` contract.
        scalar_any != 0 || unsafe { _mm256_testz_si256(any, any) } == 0
    }

    /// The seeded-tie counter threshold over 256-bit lanes; tail words
    /// run the portable loop.
    ///
    /// # Safety
    ///
    /// Requires AVX2; every `planes(p)` for `p < n_planes` and `tie`
    /// must be at least `out.len()` words.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn counter_majority_into<'a, F>(
        planes: &F,
        n_planes: usize,
        n: u32,
        tie: &[u64],
        out: &mut [u64],
    ) where
        F: Fn(usize) -> &'a [u64],
    {
        let threshold = n / 2 + 1;
        let even = n.is_multiple_of(2);
        let half = n / 2;
        let t_bits = (32 - threshold.leading_zeros()) as usize;
        let p_max = n_planes.max(t_bits);
        let n_words = out.len();
        let mut wi = 0;
        while wi + 4 <= n_words {
            // SAFETY: `wi + 4 <= n_words` bounds every lane; each
            // `planes(p)` slice matches `out` per the caller contract;
            // AVX2 flows from the enclosing `#[target_feature]` contract.
            unsafe {
                let zero = _mm256_setzero_si256();
                let ones = _mm256_set1_epi8(-1);
                let mut borrow = zero;
                let mut eq = ones;
                for p in 0..p_max {
                    let plane = if p < n_planes {
                        loadu(planes(p), wi)
                    } else {
                        zero
                    };
                    let t = if threshold >> p & 1 == 1 { ones } else { zero };
                    let t_or_b = _mm256_or_si256(t, borrow);
                    borrow = _mm256_or_si256(
                        _mm256_andnot_si256(plane, t_or_b),
                        _mm256_and_si256(t, borrow),
                    );
                    let h = if half >> p & 1 == 1 { ones } else { zero };
                    eq = _mm256_andnot_si256(_mm256_xor_si256(plane, h), eq);
                }
                let gt = _mm256_xor_si256(borrow, ones);
                let v = if even {
                    _mm256_or_si256(gt, _mm256_and_si256(eq, loadu(tie, wi)))
                } else {
                    gt
                };
                storeu(out, wi, v);
            }
            wi += 4;
        }
        super::portable::counter_majority_from(planes, n_planes, n, tie, out, wi);
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
                    let lo = _mm256_sll_epi64(loadu(src, j - sw), sb);
                    // Shift counts >= 64 yield zero in SIMD, which is
                    // exactly the vanishing carry of shl_bits == 0.
                    let carry = _mm256_srl_epi64(loadu(src, j - sw - 1), sb_inv);
                    let r = _mm256_or_si256(lo, carry);
                    storeu(dst, j, _mm256_xor_si256(loadu(dst, j), r));
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
                let hi = _mm256_srl_epi64(loadu(src, j + rw), rb);
                let carry = _mm256_sll_epi64(loadu(src, j + rw + 1), rb_inv);
                let r = _mm256_or_si256(hi, carry);
                storeu(dst, j, _mm256_xor_si256(loadu(dst, j), r));
                j += 4;
            }
            while j < end {
                dst[j] ^= g.shr_part(src, j);
                j += 1;
            }
        }
        dst[last] ^= g.word(src, last) & g.tail_mask();
    }
}

/// The AVX-512 level's own kernel: [`Simd::hamming`] over 512-bit
/// lanes with the `vpopcntq` lane popcount. Every other kernel of
/// [`Simd::Avx512`] is its `avx2` body. Intrinsics that only touch
/// registers are safe inside the `#[target_feature]` fn on the
/// workspace MSRV (1.89), so only the loads sit in `unsafe` blocks.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    #![deny(unsafe_op_in_unsafe_fn)]

    use core::arch::x86_64::{
        _mm512_add_epi64, _mm512_loadu_si512, _mm512_maskz_loadu_epi64, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_setzero_si512, _mm512_xor_si512,
    };

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;

    fn words(n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<u64> {
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// Lengths crossing every unroll boundary: sub-lane, one lane, the
    /// 8-word scan block, misaligned tails, and the real 313-u32 width
    /// (157 u64 words).
    const LENGTHS: [usize; 8] = [1, 3, 4, 7, 8, 17, 64, 157];

    /// One test for everything that reads *and* writes the process-wide
    /// `ACTIVE` state: split across `#[test]`s these assertions would
    /// race each other under the parallel test runner (another test
    /// flipping the level between two `active()` calls).
    #[test]
    fn detection_is_stable_and_set_active_overrides_and_restores() {
        assert_eq!(Simd::Portable.name(), "portable");
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(Simd::Avx2.name(), "avx2");
            assert_eq!(Simd::Avx512.name(), "avx512");
        }
        assert_eq!(Simd::detect(), Simd::detect());
        // Portable first, detection's pick last (unless the override
        // forces portable), and no level twice.
        let available = Simd::available();
        assert_eq!(available[0], Simd::Portable);
        let forced =
            std::env::var_os("PULP_HD_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
        if forced {
            assert_eq!(Simd::detect(), Simd::Portable);
        } else {
            assert_eq!(available.last(), Some(&Simd::detect()));
        }
        for (i, level) in available.iter().enumerate() {
            assert!(!available[..i].contains(level), "{level:?} listed twice");
        }
        let before = Simd::active();
        for &level in &available {
            Simd::set_active(level);
            assert_eq!(Simd::active(), level);
        }
        Simd::set_active(before);
        assert_eq!(Simd::active(), before);
    }

    /// Every tail of the AVX-512 `hamming` unroll (two 8-word lanes per
    /// step, one whole lane, then 1–7 masked words) and of the AVX2 and
    /// portable ones, on both sides of each step: every length up to
    /// three 16-word steps, and the 313-`u32` width. The words past each
    /// slice's end are all ones, so a tail that read past its slice
    /// would count them.
    #[test]
    fn hamming_covers_every_unroll_tail_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5B);
        for len in (0..=49).chain([157]) {
            let mut a = words(len + 8, &mut rng);
            let mut b = words(len + 8, &mut rng);
            a[len..].fill(u64::MAX);
            b[len..].fill(0);
            let (a, b) = (&a[..len], &b[..len]);
            let ham: u32 = a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum();
            for level in Simd::available() {
                assert_eq!(level.hamming(a, b), ham, "{level:?} len {len}");
                // All-ones differences count every lane's full 64 bits.
                let ones = vec![u64::MAX; len];
                let zeros = vec![0u64; len];
                #[allow(clippy::cast_possible_truncation)]
                let full = 64 * len as u32;
                assert_eq!(level.hamming(&ones, &zeros), full, "{level:?} len {len}");
            }
        }
    }

    #[test]
    fn xor_and_or_match_wordwise_reference_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x51);
        for level in Simd::available() {
            for len in LENGTHS {
                let a = words(len, &mut rng);
                let b = words(len, &mut rng);
                let expected_xor: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
                let mut dst = a.clone();
                level.xor_into(&mut dst, &b);
                assert_eq!(dst, expected_xor, "{level:?} xor len {len}");
                let expected_or: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
                let mut out = vec![0u64; len];
                level.or_into(&a, &b, &mut out);
                assert_eq!(out, expected_or, "{level:?} or len {len}");
            }
        }
    }

    #[test]
    fn popcount_and_hamming_match_reference_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x52);
        for level in Simd::available() {
            for len in LENGTHS {
                let a = words(len, &mut rng);
                let b = words(len, &mut rng);
                let pop: u32 = a.iter().map(|w| w.count_ones()).sum();
                let ham: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
                assert_eq!(level.popcount(&a), pop, "{level:?} popcount len {len}");
                assert_eq!(level.hamming(&a, &b), ham, "{level:?} hamming len {len}");
            }
        }
    }

    /// The bounded scan's block-partial results are pinned across
    /// levels: identical abandonment points, identical partial sums.
    #[test]
    fn hamming_bounded_is_block_exact_and_level_independent() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x53);
        for len in LENGTHS {
            for case in 0..8 {
                let a = words(len, &mut rng);
                let b = words(len, &mut rng);
                let exact: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
                let bound = rng.next_below(exact.max(1) + 32);
                // Block-semantics reference.
                let mut expected = 0u32;
                for (ba, bb) in a
                    .chunks(SCAN_BLOCK_WORDS64)
                    .zip(b.chunks(SCAN_BLOCK_WORDS64))
                {
                    expected += ba
                        .iter()
                        .zip(bb)
                        .map(|(x, y)| (x ^ y).count_ones())
                        .sum::<u32>();
                    if expected > bound {
                        break;
                    }
                }
                for level in Simd::available() {
                    let got = level.hamming_bounded(&a, &b, bound);
                    assert_eq!(got, expected, "{level:?} len {len} case {case}");
                }
                // An unreachable bound yields the exact distance.
                for level in Simd::available() {
                    assert_eq!(level.hamming_bounded(&a, &b, u32::MAX), exact);
                }
            }
        }
    }

    /// The two-sided threshold scan's stopping points and partial sums
    /// are pinned across levels by a block-semantics reference that
    /// applies the documented checks (abandon first, then early-accept)
    /// at every block boundary.
    #[test]
    fn hamming_threshold_is_block_exact_and_level_independent() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x55);
        for len in LENGTHS {
            for case in 0..12 {
                let a = words(len, &mut rng);
                let b = words(len, &mut rng);
                let exact: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
                let prune = rng.next_below(exact.max(1) + 32);
                let accept = rng.next_below(exact.max(1) + 32);
                // Block-semantics reference.
                let n = len;
                let mut expected = 0u32;
                let mut i = 0;
                while i < n {
                    let end = (i + SCAN_BLOCK_WORDS64).min(n);
                    expected += a[i..end]
                        .iter()
                        .zip(&b[i..end])
                        .map(|(x, y)| (x ^ y).count_ones())
                        .sum::<u32>();
                    i = end;
                    if expected > prune {
                        break;
                    }
                    if u64::from(expected) + ((n - i) as u64) * 64 <= u64::from(accept) {
                        break;
                    }
                }
                for level in Simd::available() {
                    let got = level.hamming_threshold(&a, &b, prune, accept);
                    assert_eq!(got, expected, "{level:?} len {len} case {case}");
                    // Every early exit returns a lower bound on the
                    // exact distance.
                    assert!(got <= exact, "{level:?} len {len} case {case}");
                    // A non-abandon early exit is an accept: it
                    // certifies the exact distance is within the
                    // acceptance bound. (When `prune < accept` an
                    // abandoned partial can also land `<= accept`,
                    // which certifies nothing — real callers keep
                    // `prune > accept` so that ambiguity never
                    // arises.)
                    if got <= prune && got <= accept && got < exact {
                        assert!(exact <= accept, "{level:?} len {len} case {case}");
                    }
                }
                for level in Simd::available() {
                    // Neither side reachable: the exact distance.
                    assert_eq!(level.hamming_threshold(&a, &b, u32::MAX, 0), exact);
                    // An always-true accept stops after the first block.
                    let first = a[..SCAN_BLOCK_WORDS64.min(n)]
                        .iter()
                        .zip(&b[..SCAN_BLOCK_WORDS64.min(n)])
                        .map(|(x, y)| (x ^ y).count_ones())
                        .sum::<u32>();
                    assert_eq!(level.hamming_threshold(&a, &b, u32::MAX, u32::MAX), first);
                    // A zero prune abandons at the first block whenever
                    // it is nonzero.
                    if first > 0 {
                        assert_eq!(level.hamming_threshold(&a, &b, 0, 0), first);
                    }
                }
            }
        }
    }

    #[test]
    fn majority_networks_match_counting_reference_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x54);
        let count_maj = |inputs: &[&[u64]], j: usize| -> u64 {
            let mut out = 0u64;
            for bit in 0..64 {
                let votes = inputs.iter().filter(|x| x[j] >> bit & 1 == 1).count();
                if 2 * votes > inputs.len() {
                    out |= 1 << bit;
                }
            }
            out
        };
        for level in Simd::available() {
            for len in LENGTHS {
                let xs: Vec<Vec<u64>> = (0..5).map(|_| words(len, &mut rng)).collect();
                let mut out = vec![0u64; len];

                level.maj3_into(&xs[0], &xs[1], &xs[2], &mut out);
                let refs3: Vec<&[u64]> = xs[..3].iter().map(Vec::as_slice).collect();
                for (j, &o) in out.iter().enumerate() {
                    assert_eq!(o, count_maj(&refs3, j), "{level:?} maj3 len {len}");
                }

                level.maj5_into(&xs[0], &xs[1], &xs[2], &xs[3], &xs[4], &mut out);
                let refs5: Vec<&[u64]> = xs.iter().map(Vec::as_slice).collect();
                for (j, &o) in out.iter().enumerate() {
                    assert_eq!(o, count_maj(&refs5, j), "{level:?} maj5 len {len}");
                }

                level.maj5_tie_into(&xs[0], &xs[1], &xs[2], &xs[3], &mut out);
                let tie: Vec<u64> = xs[0].iter().zip(&xs[1]).map(|(a, b)| a ^ b).collect();
                let refs_tie: Vec<&[u64]> = xs[..4]
                    .iter()
                    .map(Vec::as_slice)
                    .chain(std::iter::once(tie.as_slice()))
                    .collect();
                for (j, &o) in out.iter().enumerate() {
                    assert_eq!(o, count_maj(&refs_tie, j), "{level:?} maj5_tie len {len}");
                }
            }
        }
    }

    /// All 16 input rows of the tie vote, one per bit lane, against the
    /// counting reference `x0 + x1 + x2 + x3 + (x0 ⊕ x1) >= 3`. The
    /// rows repeat across five words, so the AVX2 lanes and the scalar
    /// tail both see every row.
    #[test]
    fn maj5_tie_matches_its_truth_table_on_all_levels() {
        let len = 5;
        // Input k's bit r is bit k of row r.
        let input = |k: usize| -> Vec<u64> {
            vec![(0..16u64).filter(|r| r >> k & 1 == 1).map(|r| 1 << r).sum(); len]
        };
        let xs: Vec<Vec<u64>> = (0..4).map(input).collect();
        let mut expected = 0u64;
        for row in 0..16u64 {
            let bit = |k: usize| row >> k & 1;
            if bit(0) + bit(1) + bit(2) + bit(3) + (bit(0) ^ bit(1)) >= 3 {
                expected |= 1 << row;
            }
        }
        for level in Simd::available() {
            let mut out = vec![u64::MAX; len];
            level.maj5_tie_into(&xs[0], &xs[1], &xs[2], &xs[3], &mut out);
            assert_eq!(out, vec![expected; len], "{level:?}");
        }
    }

    /// A threshold above the vote count, including ones wider than the
    /// counter, yields all zeros.
    #[test]
    fn ripple_majority_unreachable_threshold_is_all_zeros_on_all_levels() {
        let ones = vec![u64::MAX; 5];
        for level in Simd::available() {
            for (n, even_tie, threshold) in [
                (3usize, false, 4u32),
                (3, false, 1024),
                (3, false, 1025),
                (3, false, 2048),
                (3, false, u32::MAX),
                (4, true, 6),
                (1022, true, 1024),
            ] {
                let mut out = vec![u64::MAX; ones.len()];
                level.ripple_majority_into(n, |_| ones.as_slice(), even_tie, threshold, &mut out);
                assert_eq!(
                    out,
                    vec![0; ones.len()],
                    "{level:?} n {n} threshold {threshold}"
                );
            }
        }
    }

    /// Vote sizes on either side of every tree group (8, 4, 2, 1) and
    /// of the plane-count steps, and the widest vote the counter holds;
    /// widths whose tail after the last 4-word block is 0–3 words.
    /// Miri skips only the 1022-input vote and the widths 3 and 6.
    const RIPPLE_VOTES: &[usize] = if cfg!(miri) {
        &[
            1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 21, 24, 25, 31, 32, 63, 64, 65,
        ]
    } else {
        &[
            1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 21, 24, 25, 31, 32, 63, 64, 65, 1022,
        ]
    };
    const RIPPLE_WIDTHS: &[usize] = if cfg!(miri) {
        &[1, 2, 4, 7, 11]
    } else {
        &[1, 2, 3, 4, 6, 7, 11]
    };

    #[test]
    fn ripple_majority_matches_counting_reference_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x55);
        for level in Simd::available() {
            for &len in RIPPLE_WIDTHS {
                for &n in RIPPLE_VOTES {
                    let xs: Vec<Vec<u64>> = (0..n).map(|_| words(len, &mut rng)).collect();
                    let even = n % 2 == 0;
                    let n_eff = n + usize::from(even);
                    #[allow(clippy::cast_possible_truncation)]
                    let threshold = (n_eff / 2 + 1) as u32;
                    let mut out = vec![0u64; len];
                    level.ripple_majority_into(n, |i| xs[i].as_slice(), even, threshold, &mut out);
                    // Counting reference with the tie vector appended.
                    let tie: Vec<u64> = if even {
                        xs[0].iter().zip(&xs[1]).map(|(a, b)| a ^ b).collect()
                    } else {
                        vec![0; len]
                    };
                    for (j, &got) in out.iter().enumerate() {
                        let mut expected = 0u64;
                        for bit in 0..64 {
                            let mut votes = xs.iter().filter(|x| x[j] >> bit & 1 == 1).count();
                            if even && tie[j] >> bit & 1 == 1 {
                                votes += 1;
                            }
                            if votes as u32 >= threshold {
                                expected |= 1 << bit;
                            }
                        }
                        assert_eq!(got, expected, "{level:?} len {len} n {n} word {j}");
                    }
                }
            }
        }
    }

    /// The paper majority of one lane's votes: the input itself for one
    /// vote; with an even count the first two votes' XOR joins, and the
    /// lane is set at a count above half.
    fn paper_bit(votes: &[bool]) -> bool {
        let n = votes.len();
        if n == 1 {
            return votes[0];
        }
        let even = n.is_multiple_of(2);
        let count =
            votes.iter().filter(|&&v| v).count() + usize::from(even && votes[0] != votes[1]);
        count > (n + usize::from(even)) / 2
    }

    /// The fused window vote against a per-bit reference that writes
    /// every spatial vote first: 1–8 channels (every closed form, the
    /// tree from six), window lengths across the tree groups, widths
    /// whose tail after the last 4-word block is 1–3 words, and rows
    /// drawn with repeats from a small table, as a bind table is.
    #[test]
    fn window_majority_matches_spatial_then_temporal_reference_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5A);
        let (widths, channel_counts, window_lengths): (&[usize], &[usize], &[usize]) = if cfg!(miri)
        {
            (&[2, 5, 7], &[1, 4, 6], &[1, 2, 9, 25])
        } else {
            (
                &[1, 2, 3, 5, 6, 7, 157],
                &[1, 2, 3, 4, 5, 6, 7, 8],
                &[
                    1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 25, 31, 32, 33, 64, 65,
                ],
            )
        };
        let bit = |x: &[u64], i: usize| x[i / 64] >> (i % 64) & 1 == 1;
        for &width in widths {
            let table_rows = 12;
            let table = words(table_rows * width, &mut rng);
            for &channels in channel_counts {
                for &samples in window_lengths {
                    if width == 157 && samples != 25 {
                        continue;
                    }
                    let starts: Vec<usize> = (0..samples * channels)
                        .map(|_| rng.next_below(table_rows as u32) as usize * width)
                        .collect();
                    let row = |i: usize| &table[starts[i]..starts[i] + width];
                    let mut expected = vec![0u64; width];
                    for b in 0..width * 64 {
                        let spatial: Vec<bool> = (0..samples)
                            .map(|t| {
                                let votes: Vec<bool> = (0..channels)
                                    .map(|c| bit(row(t * channels + c), b))
                                    .collect();
                                paper_bit(&votes)
                            })
                            .collect();
                        if paper_bit(&spatial) {
                            expected[b / 64] |= 1 << (b % 64);
                        }
                    }
                    for level in Simd::available() {
                        let mut out = vec![u64::MAX; width];
                        level.window_majority_into(samples, channels, &table, &starts, &mut out);
                        assert_eq!(
                            out, expected,
                            "{level:?} width {width} channels {channels} samples {samples}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "runs past")]
    fn window_majority_rejects_a_row_past_the_table() {
        let table = vec![0u64; 8];
        let mut out = vec![0u64; 4];
        Simd::Portable.window_majority_into(1, 2, &table, &[0, 5], &mut out);
    }

    /// One `csa_step` must behave as a per-counter half addition:
    /// chained over a fresh plane stack it counts input vectors exactly.
    #[test]
    fn csa_step_chains_into_exact_counters_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x58);
        for level in Simd::available() {
            for len in LENGTHS {
                for n in [1usize, 2, 3, 5, 8, 13] {
                    let inputs: Vec<Vec<u64>> = (0..n).map(|_| words(len, &mut rng)).collect();
                    let mut planes: Vec<Vec<u64>> = Vec::new();
                    let mut carry = vec![0u64; len];
                    for input in &inputs {
                        carry.copy_from_slice(input);
                        let mut p = 0;
                        let mut pending = true;
                        while pending {
                            if p == planes.len() {
                                planes.push(vec![0u64; len]);
                            }
                            pending = level.csa_step(&mut planes[p], &mut carry);
                            p += 1;
                        }
                    }
                    // Decode the vertical counters and compare against a
                    // naive per-bit count.
                    for j in 0..len {
                        for bit in 0..64 {
                            let expected =
                                inputs.iter().filter(|x| x[j] >> bit & 1 == 1).count() as u64;
                            let got = planes
                                .iter()
                                .enumerate()
                                .map(|(p, plane)| (plane[j] >> bit & 1) << p)
                                .sum::<u64>();
                            assert_eq!(got, expected, "{level:?} len {len} n {n} word {j}");
                        }
                    }
                }
            }
        }
    }

    /// The seeded-tie threshold against a naive counting reference,
    /// covering odd counts (no ties possible), even counts with forced
    /// exact ties, and counter stacks shorter than the threshold width.
    #[test]
    fn counter_majority_matches_counting_reference_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x59);
        for level in Simd::available() {
            for len in LENGTHS {
                for n in [1usize, 2, 3, 4, 5, 6, 9, 12, 21] {
                    let inputs: Vec<Vec<u64>> = (0..n).map(|_| words(len, &mut rng)).collect();
                    let tie = words(len, &mut rng);
                    // Accumulate planes with the (already verified) csa
                    // chain.
                    let mut planes: Vec<Vec<u64>> = Vec::new();
                    let mut carry = vec![0u64; len];
                    for input in &inputs {
                        carry.copy_from_slice(input);
                        let mut p = 0;
                        let mut pending = true;
                        while pending {
                            if p == planes.len() {
                                planes.push(vec![0u64; len]);
                            }
                            pending = Simd::Portable.csa_step(&mut planes[p], &mut carry);
                            p += 1;
                        }
                    }
                    let mut out = vec![u64::MAX; len]; // dirty
                    #[allow(clippy::cast_possible_truncation)]
                    level.counter_majority_into(
                        |p| planes[p].as_slice(),
                        planes.len(),
                        n as u32,
                        &tie,
                        &mut out,
                    );
                    for (j, &got) in out.iter().enumerate() {
                        let mut expected = 0u64;
                        for bit in 0..64 {
                            let votes = inputs.iter().filter(|x| x[j] >> bit & 1 == 1).count();
                            let set = match (2 * votes).cmp(&n) {
                                core::cmp::Ordering::Greater => true,
                                core::cmp::Ordering::Equal => tie[j] >> bit & 1 == 1,
                                core::cmp::Ordering::Less => false,
                            };
                            if set {
                                expected |= 1 << bit;
                            }
                        }
                        assert_eq!(got, expected, "{level:?} len {len} n {n} word {j}");
                    }
                }
            }
        }
    }

    /// Rotation against a naive per-bit reference, across widths with
    /// and without padding tails and shifts crossing every boundary
    /// (word-aligned, sub-word, near-dim).
    #[test]
    fn rotations_match_bitwise_reference_on_all_levels() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x56);
        let bit = |x: &[u64], i: usize| x[i / 64] >> (i % 64) & 1;
        for level in Simd::available() {
            for dim in [32usize, 64, 96, 128, 160, 416, 10_016] {
                let n = dim.div_ceil(64);
                let mut src = words(n, &mut rng);
                if dim % 64 != 0 {
                    src[n - 1] &= (1u64 << (dim % 64)) - 1;
                }
                for k in [0usize, 1, 5, 31, 32, 63, 64, 65, 127, dim - 1, dim, dim + 7] {
                    let mut rotated = vec![0u64; n];
                    level.rotate_into_words(&mut rotated, &src, dim, k);
                    for i in 0..dim {
                        assert_eq!(
                            bit(&rotated, (i + k) % dim),
                            bit(&src, i),
                            "{level:?} dim {dim} k {k} bit {i}"
                        );
                    }
                    if dim % 64 != 0 {
                        assert_eq!(rotated[n - 1] >> (dim % 64), 0, "padding dirty");
                    }
                    // Fused form: dst ^= rot(src).
                    let mut dst = words(n, &mut rng);
                    if dim % 64 != 0 {
                        dst[n - 1] &= (1u64 << (dim % 64)) - 1;
                    }
                    let expected: Vec<u64> = dst.iter().zip(&rotated).map(|(d, r)| d ^ r).collect();
                    level.xor_rotated_words(&mut dst, &src, dim, k);
                    assert_eq!(expected, dst, "{level:?} dim {dim} k {k} fused");
                }
            }
        }
    }

    /// Randomized cross-level agreement on the rotation kernels — the
    /// AVX2 two-pass decomposition must equal the portable reference
    /// for arbitrary (dim, k).
    #[test]
    fn rotation_levels_agree_on_random_geometry() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x57);
        for case in 0..64 {
            let dim = 32 * (1 + rng.next_below(40) as usize);
            let n = dim.div_ceil(64);
            let mut src = words(n, &mut rng);
            if !dim.is_multiple_of(64) {
                src[n - 1] &= (1u64 << (dim % 64)) - 1;
            }
            let k = rng.next_below(2 * dim as u32 + 1) as usize;
            let mut reference = vec![0u64; n];
            Simd::Portable.rotate_into_words(&mut reference, &src, dim, k);
            for level in Simd::available() {
                let mut got = vec![u64::MAX; n];
                level.rotate_into_words(&mut got, &src, dim, k);
                assert_eq!(got, reference, "case {case}: {level:?} dim {dim} k {k}");
            }
        }
    }
}
