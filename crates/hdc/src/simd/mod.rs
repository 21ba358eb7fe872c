//! Runtime-dispatched SIMD kernels for the `u64`-packed hot path.
//!
//! Every throughput-critical word loop of [`crate::hv64`] — XOR-bind,
//! the fused bind-rotate, the carry-save majority networks, and the
//! popcount Hamming distance of the associative-memory scan — lives
//! here at three levels:
//!
//! * an **AVX-512** level (`avx512`) with kernels of its own for the AM
//!   scan's [`Simd::hamming`] — 512-bit XOR and the `vpopcntq` lane
//!   popcount (AVX512-VPOPCNTDQ), the vector form of the single-cycle
//!   `p.cnt` the paper's cluster uses for the same search — and for the
//!   six vote kernels of the encoder and the trainer:
//!   [`Simd::maj3_into`], [`Simd::maj5_into`], [`Simd::maj5_tie_into`],
//!   [`Simd::ripple_majority_into`] with the fused window vote,
//!   [`Simd::csa_step`] and [`Simd::counter_majority_into`]. Its other
//!   kernels run their AVX2 bodies;
//! * an **AVX2/POPCNT** level (`avx2`: 256-bit lanes, `vpshufb` nibble
//!   popcount), used when the CPU supports it;
//! * a **portable** fallback (`portable`) written as 4×`u64` unrolled
//!   safe Rust that the auto-vectorizer handles on any target — and
//!   that doubles as the scalar reference the SIMD paths are
//!   property-tested against.
//!
//! **One vote network for both SIMD levels.** The vote kernels are
//! written once (`network`), as `#[inline(always)]` code generic over
//! a private `Lane` trait (`lane`): one SIMD register with its load,
//! store, AND, OR, XOR, all-zeros, all-ones and a full adder, which
//! `__m512i` overrides with two `vpternlogq` (sum `0x96`, carry
//! `0xE8`). A level's vote kernel is a thin `#[target_feature]` fn
//! that instantiates the network for its lane, so the network compiles
//! for that level with the counter planes in registers. The kernels run
//! their whole lanes and hand the rest of the slice on: an AVX-512
//! kernel to its AVX2 namesake (at most one 4-word lane), an AVX2
//! kernel to the portable loop. No lane loads or stores past the end
//! of a slice. The portable level shares no code with the network: it
//! is the independent reference.
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
//! **Adding a level or a kernel.** A level is a variant of [`Simd`], a
//! sibling intrinsics module, a detection branch in [`Simd::detect`]
//! and one arm per dispatch method; its vote kernels cost one `Lane`
//! impl and one instantiation each. Each kernel is registered at its
//! level in [`crate::twins`], so the audit lint and fuzzer check it by
//! name and level. Specializing a kernel at a level takes the function
//! in that level's module, its own arm in the dispatch method, and the
//! level in its registry entry's `levels`.

use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicU8, Ordering};

/// Output words per early-exit check of [`Simd::hamming_bounded`] and
/// [`Simd::hamming_threshold`] (512 bits). Every level stops at
/// identical block boundaries, so their partial sums never depend on
/// the CPU.
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
    /// vote network's row read at both SIMD levels, once per row and word
    /// block. (On AVX2, skipping the check took the 25 × 4 window vote
    /// from 1.16× to 1.33× the speed of writing the spatial
    /// hypervectors.)
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

/// Calls the const-generic counter `$kernel::<P, ..>(args)` for the
/// runtime plane count `$planes` in `2..=RIPPLE_PLANES`; the other
/// generic arguments follow `P`. Among them, `C` is the spatial form of
/// the inputs: the channel count for the closed forms of one to five
/// channels, and 0 for spatial votes counted by the tree. Both are
/// fixed once per call, so the planes stay in registers and every
/// input inlines its one form.
macro_rules! with_planes {
    ($planes:expr, $kernel:ident::<$($g:tt),*>($($arg:expr),* $(,)?)) => {
        match $planes {
            2 => $kernel::<2, $($g),*>($($arg),*),
            3 => $kernel::<3, $($g),*>($($arg),*),
            4 => $kernel::<4, $($g),*>($($arg),*),
            5 => $kernel::<5, $($g),*>($($arg),*),
            6 => $kernel::<6, $($g),*>($($arg),*),
            7 => $kernel::<7, $($g),*>($($arg),*),
            8 => $kernel::<8, $($g),*>($($arg),*),
            9 => $kernel::<9, $($g),*>($($arg),*),
            10 => $kernel::<10, $($g),*>($($arg),*),
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
    /// The AVX2 level with 512-bit kernels of its own for
    /// [`Simd::hamming`] (`vpopcntq`) and the six vote kernels
    /// (`vpternlogq` full adders); every other method runs its AVX2
    /// body.
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
    /// No scan calls it: the AM scan is one exact [`Simd::hamming`] per
    /// prototype. It stays only for perfbench's per-layer rows and the
    /// `audit fuzz` family until it is deleted together with those
    /// benchmark rows.
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

    /// Two-sided early-exit Hamming distance. Accumulates in
    /// [`SCAN_BLOCK_WORDS64`]-word blocks and stops at the first block
    /// boundary where either
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
    /// No scan calls it, as for [`Simd::hamming_bounded`]: it stays only
    /// for perfbench's per-layer rows and the `audit fuzz` family.
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
            Self::Avx2 => {
                avx2_ready();
                // SAFETY: `avx2_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::maj3_into([x0, x1, x2], out, 0) }
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                avx512_ready();
                // SAFETY: as on the AVX2 arm, for the AVX-512 features.
                unsafe { avx512::maj3_into([x0, x1, x2], out) }
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
            Self::Avx2 => {
                avx2_ready();
                // SAFETY: `avx2_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::maj5_into([x0, x1, x2, x3, x4], out, 0) }
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                avx512_ready();
                // SAFETY: as on the AVX2 arm, for the AVX-512 features.
                unsafe { avx512::maj5_into([x0, x1, x2, x3, x4], out) }
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
            Self::Avx2 => {
                avx2_ready();
                // SAFETY: `avx2_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::maj5_tie_into([x0, x1, x2, x3], out, 0) }
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                avx512_ready();
                // SAFETY: as on the AVX2 arm, for the AVX-512 features.
                unsafe { avx512::maj5_tie_into([x0, x1, x2, x3], out) }
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
            Self::Avx2 => {
                avx2_ready();
                // SAFETY: `avx2_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for; the
                // vote and row bounds are this fn's own contract.
                unsafe {
                    avx2::ripple_majority_into::<C, R>(n, inputs, even_tie, threshold, out, 0)
                }
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                avx512_ready();
                // SAFETY: as on the AVX2 arm, for the AVX-512 features.
                unsafe { avx512::ripple_majority_into::<C, R>(n, inputs, even_tie, threshold, out) }
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
            Self::Avx2 => {
                avx2_ready();
                // SAFETY: `avx2_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::csa_step(plane, carry, 0) }
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                avx512_ready();
                // SAFETY: as on the AVX2 arm, for the AVX-512 features.
                unsafe { avx512::csa_step(plane, carry) }
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
            Self::Avx2 => {
                avx2_ready();
                // SAFETY: `avx2_ready()` above verified (or aborted on a
                // broken override) that this CPU has the AVX2 features
                // the `#[target_feature]` kernel was compiled for.
                unsafe { avx2::counter_majority_into(&planes, n_planes, n, tie, out, 0) }
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                avx512_ready();
                // SAFETY: as on the AVX2 arm, for the AVX-512 features.
                unsafe { avx512::counter_majority_into(&planes, n_planes, n, tie, out) }
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
/// kernels and the AVX2/POPCNT kernels it shares and hands its tails
/// to — the soundness guard that lets [`Simd::Avx512`] expose safe
/// methods.
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
/// `hamming` kernel (the vote kernels need only AVX-512F), and those
/// of the AVX2 kernels it shares and hands its tails to.
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

mod portable;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "x86_64")]
mod lane;
#[cfg(target_arch = "x86_64")]
mod network;

#[cfg(test)]
mod tests;
