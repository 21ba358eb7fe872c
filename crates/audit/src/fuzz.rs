//! The seeded differential fuzzer: every kernel registered in
//! [`hdc::twins`] is run at every level this CPU has ([`Simd::available`]:
//! portable, AVX2, AVX-512) against a naive reference at adversarial
//! widths, the packed [`CounterBundler`] and the fused unigram window
//! vote are checked against per-bit counting, and the wire decoder is
//! fed mutated frames.
//!
//! Determinism is the contract: a case is fully determined by its
//! `(family, seed)` pair, so any failure replays with
//! `pulp-hd-audit fuzz --family <F> --seed <N>`. The naive references
//! here are deliberately written per-bit (or as the obviously correct
//! word loop) and share no code with the kernels under test.
//!
//! Coverage is forced from the registry: [`families`] fails if a
//! [`KERNEL_TWINS`](hdc::twins::KERNEL_TWINS) entry has no fuzzer, and
//! [`run`] fails if a kernel's family did not run one of the entry's
//! registered levels that this CPU has. So registering a kernel, or a
//! level of one, without fuzzing it breaks the `audit fuzz` CI gate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use hdc::hv64::{BitslicedBundler, CounterBundler};
use hdc::simd::Simd;
use hdc::twins::KERNEL_TWINS;
use hdc::{BinaryHv, Hv64};
use pulp_hd_core::backend::{CycleBreakdown, Verdict, VerdictSource};
use pulp_hd_serve::net::proto::{self, Request, Response};
use pulp_hd_serve::net::{ErrorCode, HealthReport, WireFault};
use pulp_hd_serve::ServerStats;

use crate::rng::XorShift64;

/// One failing case, replayable from its family and seed.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The family that failed.
    pub family: &'static str,
    /// The failing seed.
    pub seed: u64,
    /// What went wrong (mismatch description or panic payload).
    pub message: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} seed {}] {}\n    replay: cargo run -p pulp-hd-audit -- fuzz --family {} --seed {}",
            self.family, self.seed, self.message, self.family, self.seed
        )
    }
}

/// Kernel families this module has a differential fuzzer for. Must
/// cover every [`KERNEL_TWINS`] entry — [`families`] enforces it.
const KERNEL_FAMILIES: &[&str] = &[
    "xor_into",
    "popcount",
    "hamming",
    "hamming_bounded",
    "hamming_threshold",
    "or_into",
    "maj3_into",
    "maj5_into",
    "maj5_tie_into",
    "ripple_majority_into",
    "csa_step",
    "counter_majority_into",
    "xor_rotated_into",
];

/// Non-kernel families: the packed training accumulator, the fused
/// unigram window vote, and the wire decoder.
const EXTRA_FAMILIES: &[&str] = &["counter_bundler", "window_vote", "proto"];

/// All fuzz families, derived from the twin registry.
///
/// # Errors
///
/// Fails when a registered kernel has no fuzzer — the coverage-forcing
/// half of the registry contract.
pub fn families() -> Result<Vec<&'static str>, String> {
    let mut out = Vec::new();
    for twin in KERNEL_TWINS {
        if !KERNEL_FAMILIES.contains(&twin.kernel) {
            return Err(format!(
                "kernel `{}` is registered in crates/hdc/src/twins.rs but has no \
                 differential fuzzer — add a family for it in crates/audit/src/fuzz.rs",
                twin.kernel
            ));
        }
        out.push(twin.kernel);
    }
    out.extend_from_slice(EXTRA_FAMILIES);
    Ok(out)
}

/// Runs one `(family, seed)` case, converting panics into replayable
/// failures. Returns the SIMD levels the case checked: every available
/// level for a kernel or window-vote case, none for the others, which
/// run on the process's active level.
///
/// # Errors
///
/// A mismatch description or panic payload.
pub fn run_case(family: &'static str, seed: u64) -> Result<Vec<Simd>, String> {
    let result = catch_unwind(AssertUnwindSafe(|| dispatch(family, seed)));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("panicked: {msg}"))
        }
    }
}

/// What a run found, and which levels its cases checked.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Every failing case, and every kernel family that left one of its
    /// registered levels unchecked.
    pub failures: Vec<FuzzFailure>,
    /// Passing cases that checked each level, in [`Simd::available`]
    /// order.
    pub cases_per_level: Vec<(Simd, u64)>,
}

/// Runs `n_seeds` consecutive seeds (starting at `base`) for each
/// family, collecting failures and the levels each case checked. A
/// kernel family fails, as seed `base`, when none of its cases checked
/// a level its [`KERNEL_TWINS`] entry registers and this CPU has.
pub fn run(families: &[&'static str], n_seeds: u64, base: u64) -> FuzzReport {
    let mut report = FuzzReport {
        failures: Vec::new(),
        cases_per_level: Simd::available().into_iter().map(|l| (l, 0)).collect(),
    };
    for &family in families {
        let mut ran = Vec::new();
        for seed in base..base + n_seeds {
            match run_case(family, seed) {
                Ok(levels) => {
                    for (level, cases) in &mut report.cases_per_level {
                        *cases += u64::from(levels.contains(level));
                    }
                    ran.extend(levels);
                }
                Err(message) => report.failures.push(FuzzFailure {
                    family,
                    seed,
                    message,
                }),
            }
        }
        if let Some(twin) = KERNEL_TWINS.iter().find(|t| t.kernel == family) {
            for level in unchecked_levels(twin.levels, &ran) {
                report.failures.push(FuzzFailure {
                    family,
                    seed: base,
                    message: format!(
                        "registered at level `{level}`, which this CPU runs, but no case \
                         of the family checked that level"
                    ),
                });
            }
        }
    }
    report
}

/// The `registered` levels this CPU has that are not among `ran`.
fn unchecked_levels(registered: &[&'static str], ran: &[Simd]) -> Vec<&'static str> {
    Simd::available()
        .into_iter()
        .filter(|level| !ran.contains(level))
        .map(Simd::name)
        .filter(|name| registered.contains(name))
        .collect()
}

/// FNV-1a over the family name: decorrelates the per-family streams so
/// seed `N` exercises different shapes in each family.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn dispatch(family: &str, seed: u64) -> Result<Vec<Simd>, String> {
    let mut rng = XorShift64::new(seed ^ fnv1a(family));
    match family {
        "xor_into" => fuzz_xor_into(&mut rng),
        "popcount" => fuzz_popcount(&mut rng),
        "hamming" => fuzz_hamming(&mut rng),
        "hamming_bounded" => fuzz_hamming_bounded(&mut rng),
        "hamming_threshold" => fuzz_hamming_threshold(&mut rng),
        "or_into" => fuzz_or_into(&mut rng),
        "maj3_into" => fuzz_maj3(&mut rng),
        "maj5_into" => fuzz_maj5(&mut rng),
        "maj5_tie_into" => fuzz_maj5_tie(&mut rng),
        "ripple_majority_into" => fuzz_ripple_majority(&mut rng, seed),
        "csa_step" => fuzz_csa_step(&mut rng),
        "counter_majority_into" => fuzz_counter_majority(&mut rng),
        "xor_rotated_into" => fuzz_xor_rotated(&mut rng),
        "counter_bundler" => fuzz_counter_bundler(&mut rng),
        "window_vote" => fuzz_window_vote(&mut rng, seed),
        "proto" => fuzz_proto(&mut rng),
        other => Err(format!("unknown fuzz family `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Shared generators
// ---------------------------------------------------------------------------

/// Runs `check` at every level this CPU has ([`Simd::available`], the
/// portable reference first), stopping at the first failure; returns
/// the levels it ran.
fn each_level(mut check: impl FnMut(Simd) -> Result<(), String>) -> Result<Vec<Simd>, String> {
    let levels = Simd::available();
    for &level in &levels {
        check(level)?;
    }
    Ok(levels)
}

/// Widths (in `u64` words) that sit on the kernels' unrolling and
/// tail-handling boundaries: the 4-word portable unroll, the 4-word
/// (256-bit) AVX2 step, the 8-word scan block and AVX-512 lane with its
/// 1–7-word masked tail, and both sides of the 16-word AVX-512 step.
const WIDTHS: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65, 127, 157, 257,
];

fn pick_width(rng: &mut XorShift64) -> usize {
    if rng.chance(3, 4) {
        *rng.pick(WIDTHS)
    } else {
        rng.range(1, 320)
    }
}

/// A word plane in one of the adversarial fill patterns.
fn gen_words(rng: &mut XorShift64, n: usize) -> Vec<u64> {
    match rng.below(6) {
        0 => vec![0u64; n],
        1 => vec![u64::MAX; n],
        2 => vec![0xAAAA_AAAA_AAAA_AAAA; n],
        3 => vec![0x5555_5555_5555_5555; n],
        // Sparse: a few set bits, adversarial for popcount-style sums.
        4 => {
            let mut v = vec![0u64; n];
            for _ in 0..rng.range(0, 4) {
                let i = rng.below((n * 64) as u64) as usize;
                v[i / 64] |= 1u64 << (i % 64);
            }
            v
        }
        _ => (0..n).map(|_| rng.next_u64()).collect(),
    }
}

fn bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Per-bit counting majority: bit `i` of the result is set iff at
/// least `threshold` of `inputs` have bit `i` set.
fn naive_majority(inputs: &[&[u64]], threshold: u32, n_words: usize) -> Vec<u64> {
    let mut out = vec![0u64; n_words];
    for i in 0..n_words * 64 {
        let count = inputs.iter().filter(|w| bit(w, i)).count() as u32;
        if count >= threshold {
            out[i / 64] |= 1u64 << (i % 64);
        }
    }
    out
}

fn naive_hamming(a: &[u64], b: &[u64]) -> u32 {
    (0..a.len() * 64)
        .filter(|&i| bit(a, i) != bit(b, i))
        .count() as u32
}

fn check_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    level: Simd,
    got: &T,
    want: &T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} disagrees with naive reference (got {got:?}, want {want:?})",
            level.name()
        ))
    }
}

// ---------------------------------------------------------------------------
// Kernel families
// ---------------------------------------------------------------------------

fn fuzz_xor_into(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let a = gen_words(rng, w);
    let b = gen_words(rng, w);
    let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
    each_level(|level| {
        let mut dst = a.clone();
        level.xor_into(&mut dst, &b);
        check_eq(&format!("xor_into w={w}"), level, &dst, &want)
    })
}

fn fuzz_popcount(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let a = gen_words(rng, w);
    let want = (0..w * 64).filter(|&i| bit(&a, i)).count() as u32;
    each_level(|level| {
        check_eq(
            &format!("popcount w={w}"),
            level,
            &level.popcount(&a),
            &want,
        )
    })
}

fn fuzz_hamming(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let a = gen_words(rng, w);
    let b = gen_words(rng, w);
    let want = naive_hamming(&a, &b);
    each_level(|level| {
        check_eq(
            &format!("hamming w={w}"),
            level,
            &level.hamming(&a, &b),
            &want,
        )
    })
}

fn fuzz_hamming_bounded(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let a = gen_words(rng, w);
    let b = gen_words(rng, w);
    let full = naive_hamming(&a, &b);
    // Bounds around the true distance are the adversarial region (the
    // break decision flips on single-block granularity there).
    let bound = match rng.below(4) {
        0 => 0,
        1 => full.saturating_sub(rng.below(65) as u32),
        2 => full + rng.below(65) as u32,
        _ => rng.below((w as u64) * 64 + 1) as u32,
    };
    let reference = Simd::Portable.hamming_bounded(&a, &b, bound);
    each_level(|level| {
        let d = level.hamming_bounded(&a, &b, bound);
        // Block boundaries are part of the kernel contract, so every
        // level reports the identical partial sum.
        check_eq(
            &format!("hamming_bounded w={w} bound={bound}"),
            level,
            &d,
            &reference,
        )?;
        if d > full || (d <= bound && d != full) || (d > bound && full <= bound) {
            return Err(format!(
                "hamming_bounded w={w} bound={bound}: {} returned {d}, true distance {full}",
                level.name()
            ));
        }
        Ok(())
    })
}

fn fuzz_hamming_threshold(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let a = gen_words(rng, w);
    let b = gen_words(rng, w);
    let full = naive_hamming(&a, &b);
    let max = (w as u64) * 64;
    let prune = match rng.below(3) {
        0 => full.saturating_sub(rng.below(65) as u32),
        1 => full + rng.below(65) as u32,
        _ => rng.below(max + 1) as u32,
    };
    // `accept == 0` disables early accept, making the scan exact up to
    // the prune bound — keep that shape common.
    let accept = if rng.chance(1, 3) {
        0
    } else {
        rng.below(max + 1) as u32
    };
    let reference = Simd::Portable.hamming_threshold(&a, &b, prune, accept);
    each_level(|level| {
        let d = level.hamming_threshold(&a, &b, prune, accept);
        check_eq(
            &format!("hamming_threshold w={w} prune={prune} accept={accept}"),
            level,
            &d,
            &reference,
        )?;
        // `d` is always a prefix sum of block distances, so it can
        // never exceed the true distance; past the prune bound the true
        // distance is at least `d`; under it the scan either ran to the
        // end (exact) or early-accepted (true distance provably under
        // `accept`).
        let ok = d <= full && (d > prune || d == full || full <= accept);
        if !ok {
            return Err(format!(
                "hamming_threshold w={w} prune={prune} accept={accept}: {} returned {d}, \
                 true distance {full}",
                level.name()
            ));
        }
        Ok(())
    })
}

fn fuzz_or_into(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let a = gen_words(rng, w);
    let b = gen_words(rng, w);
    let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x | y).collect();
    each_level(|level| {
        let mut out = gen_words(rng, w);
        level.or_into(&a, &b, &mut out);
        check_eq(&format!("or_into w={w}"), level, &out, &want)
    })
}

fn fuzz_maj3(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let xs: Vec<Vec<u64>> = (0..3).map(|_| gen_words(rng, w)).collect();
    let refs: Vec<&[u64]> = xs.iter().map(Vec::as_slice).collect();
    let want = naive_majority(&refs, 2, w);
    each_level(|level| {
        let mut out = vec![0u64; w];
        level.maj3_into(&xs[0], &xs[1], &xs[2], &mut out);
        check_eq(&format!("maj3_into w={w}"), level, &out, &want)
    })
}

fn fuzz_maj5(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let xs: Vec<Vec<u64>> = (0..5).map(|_| gen_words(rng, w)).collect();
    let refs: Vec<&[u64]> = xs.iter().map(Vec::as_slice).collect();
    let want = naive_majority(&refs, 3, w);
    each_level(|level| {
        let mut out = vec![0u64; w];
        level.maj5_into(&xs[0], &xs[1], &xs[2], &xs[3], &xs[4], &mut out);
        check_eq(&format!("maj5_into w={w}"), level, &out, &want)
    })
}

fn fuzz_maj5_tie(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let xs: Vec<Vec<u64>> = (0..4).map(|_| gen_words(rng, w)).collect();
    // The implied fifth input is the tie vector x0 ^ x1.
    let tie: Vec<u64> = xs[0].iter().zip(&xs[1]).map(|(&a, &b)| a ^ b).collect();
    let refs: Vec<&[u64]> = xs
        .iter()
        .map(Vec::as_slice)
        .chain([tie.as_slice()])
        .collect();
    let want = naive_majority(&refs, 3, w);
    each_level(|level| {
        let mut out = vec![0u64; w];
        level.maj5_tie_into(&xs[0], &xs[1], &xs[2], &xs[3], &mut out);
        check_eq(&format!("maj5_tie_into w={w}"), level, &out, &want)
    })
}

/// Input counts on either side of the vote counter's plane-count steps
/// (`2^k - 1` and `2^k` inputs).
const PLANE_BOUNDARIES: [usize; 10] = [3, 4, 7, 8, 15, 16, 31, 32, 63, 64];

fn fuzz_ripple_majority(rng: &mut XorShift64, seed: u64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng).min(160);
    // Every even seed runs one plane boundary, with or without the tie,
    // so any 40 consecutive seeds cover all of them.
    let (n, even_tie) = if seed.is_multiple_of(2) {
        let k = (seed / 2 % 20) as usize;
        (PLANE_BOUNDARIES[k / 2], k % 2 == 1)
    } else {
        let n = rng.range(1, 64);
        (n, n >= 2 && rng.chance(1, 2))
    };
    let votes = n + usize::from(even_tie);
    // Occasionally a threshold no count can reach (all-zero output),
    // including ones wider than the counter.
    let threshold = if rng.chance(1, 8) {
        rng.range(1024, 1 << 16) as u32
    } else {
        rng.range(1, votes + 1) as u32
    };
    let xs: Vec<Vec<u64>> = (0..n).map(|_| gen_words(rng, w)).collect();
    let mut refs: Vec<&[u64]> = xs.iter().map(Vec::as_slice).collect();
    let tie: Vec<u64>;
    if even_tie {
        tie = xs[0].iter().zip(&xs[1]).map(|(&a, &b)| a ^ b).collect();
        refs.push(&tie);
    }
    let want = naive_majority(&refs, threshold, w);
    each_level(|level| {
        let mut out = vec![0u64; w];
        level.ripple_majority_into(n, |i| xs[i].as_slice(), even_tie, threshold, &mut out);
        check_eq(
            &format!("ripple_majority_into w={w} n={n} tie={even_tie} t={threshold}"),
            level,
            &out,
            &want,
        )
    })
}

fn fuzz_csa_step(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng);
    let plane = gen_words(rng, w);
    let carry = gen_words(rng, w);
    let want_plane: Vec<u64> = plane.iter().zip(&carry).map(|(&p, &c)| p ^ c).collect();
    let want_carry: Vec<u64> = plane.iter().zip(&carry).map(|(&p, &c)| p & c).collect();
    let want_pending = want_carry.iter().any(|&c| c != 0);
    each_level(|level| {
        let mut p = plane.clone();
        let mut c = carry.clone();
        let pending = level.csa_step(&mut p, &mut c);
        check_eq(&format!("csa_step plane w={w}"), level, &p, &want_plane)?;
        check_eq(&format!("csa_step carry w={w}"), level, &c, &want_carry)?;
        check_eq(
            &format!("csa_step pending w={w}"),
            level,
            &pending,
            &want_pending,
        )
    })
}

fn fuzz_counter_majority(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    let w = pick_width(rng).min(160);
    let n = rng.range(1, 300) as u32;
    // Generate per-component counts in 0..=n (the reachable range),
    // then slice them into bit planes — the inverse of what the
    // accumulator does, so the kernel sees realistic stacks.
    let counts: Vec<u32> = (0..w * 64)
        .map(|_| match rng.below(5) {
            0 => 0,
            1 => n,
            2 => n / 2,
            3 => (n / 2 + 1).min(n),
            _ => rng.below(u64::from(n) + 1) as u32,
        })
        .collect();
    let needed = (32 - n.leading_zeros()) as usize;
    // Sometimes present extra all-zero high planes; the contract says
    // absent high planes read as zero, so both shapes must agree.
    let n_planes = needed + rng.range(0, 2);
    let mut planes = vec![vec![0u64; w]; n_planes];
    for (i, &c) in counts.iter().enumerate() {
        for (p, plane) in planes.iter_mut().enumerate() {
            if (c >> p) & 1 == 1 {
                plane[i / 64] |= 1u64 << (i % 64);
            }
        }
    }
    let tie = gen_words(rng, w);
    let mut want = vec![0u64; w];
    for (i, &c) in counts.iter().enumerate() {
        let set = c > n / 2 || (n.is_multiple_of(2) && c == n / 2 && bit(&tie, i));
        if set {
            want[i / 64] |= 1u64 << (i % 64);
        }
    }
    each_level(|level| {
        let mut out = vec![0u64; w];
        level.counter_majority_into(|p| planes[p].as_slice(), n_planes, n, &tie, &mut out);
        check_eq(
            &format!("counter_majority_into w={w} n={n} planes={n_planes}"),
            level,
            &out,
            &want,
        )
    })
}

fn fuzz_xor_rotated(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    // Dimensions off the word boundary exercise the tail-mask path.
    let dim = if rng.chance(1, 2) {
        *rng.pick(&[1usize, 3, 31, 32, 33, 63, 64, 65, 100, 157, 320, 1000, 2048])
    } else {
        rng.range(1, 2048)
    };
    let w = dim.div_ceil(64);
    let tail_mask = if dim % 64 == 0 {
        u64::MAX
    } else {
        (1u64 << (dim % 64)) - 1
    };
    let mut src = gen_words(rng, w);
    src[w - 1] &= tail_mask;
    let k = rng.below(2 * dim as u64 + 1) as usize;
    // Naive per-bit rotation: component i moves to (i + k) mod dim.
    let mut rotated = vec![0u64; w];
    for i in 0..dim {
        if bit(&src, i) {
            let j = (i + k) % dim;
            rotated[j / 64] |= 1u64 << (j % 64);
        }
    }
    let mut dst0 = gen_words(rng, w);
    dst0[w - 1] &= tail_mask;
    let want_xor: Vec<u64> = dst0.iter().zip(&rotated).map(|(&d, &r)| d ^ r).collect();
    each_level(|level| {
        let mut out = vec![0u64; w];
        level.rotate_into_words(&mut out, &src, dim, k);
        check_eq(
            &format!("rotate_into_words dim={dim} k={k}"),
            level,
            &out,
            &rotated,
        )?;
        let mut dst = dst0.clone();
        level.xor_rotated_words(&mut dst, &src, dim, k);
        check_eq(
            &format!("xor_rotated_words dim={dim} k={k}"),
            level,
            &dst,
            &want_xor,
        )
    })
}

// ---------------------------------------------------------------------------
// CounterBundler family
// ---------------------------------------------------------------------------

fn gen_hv(rng: &mut XorShift64, n_words32: usize) -> Hv64 {
    let words: Vec<u32> = (0..n_words32).map(|_| rng.next_u64() as u32).collect();
    Hv64::from_binary(&BinaryHv::from_words(words))
}

fn fuzz_counter_bundler(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    // Odd widths leave the top 32 bits of the last u64 word as padding;
    // the threshold must never set them.
    let n_words32 = *rng.pick(&[1usize, 2, 3, 5, 7, 9, 31, 157]);
    let m = rng.range(1, 24);
    let inputs: Vec<Hv64> = (0..m).map(|_| gen_hv(rng, n_words32)).collect();
    let tie = gen_hv(rng, n_words32);

    // Sequential accumulation.
    let mut seq = CounterBundler::new(n_words32);
    for hv in &inputs {
        seq.add(hv);
    }

    // Split-and-merge must match, including lopsided splits where the
    // two halves hold different numbers of significance planes.
    let split = rng.range(0, m);
    let mut left = CounterBundler::new(n_words32);
    for hv in &inputs[..split] {
        left.add(hv);
    }
    let mut right = CounterBundler::new(n_words32);
    for hv in &inputs[split..] {
        right.add(hv);
    }
    left.merge(&right);
    if left.len() != seq.len() || seq.len() != m as u32 {
        return Err(format!(
            "counter_bundler w32={n_words32} m={m} split={split}: merged count {} != {}",
            left.len(),
            seq.len()
        ));
    }

    let mut out_seq = Hv64::zeros(n_words32);
    seq.majority_seeded_into(&tie, &mut out_seq);
    let mut out_merged = Hv64::zeros(n_words32);
    left.majority_seeded_into(&tie, &mut out_merged);
    if out_seq.words() != out_merged.words() {
        return Err(format!(
            "counter_bundler w32={n_words32} m={m} split={split}: merged majority \
             differs from sequential"
        ));
    }

    // Naive per-component count against the packed threshold.
    let dim = n_words32 * 32;
    let mut want = vec![0u64; out_seq.words().len()];
    for i in 0..dim {
        let count = inputs.iter().filter(|hv| bit(hv.words(), i)).count();
        let set = 2 * count > m || (m.is_multiple_of(2) && 2 * count == m && bit(tie.words(), i));
        if set {
            want[i / 64] |= 1u64 << (i % 64);
        }
    }
    if out_seq.words() != want.as_slice() {
        return Err(format!(
            "counter_bundler w32={n_words32} m={m}: majority differs from naive counts"
        ));
    }

    // clear() must fully reset: one re-added vector is its own majority.
    seq.clear();
    seq.add(&inputs[0]);
    let mut out_one = Hv64::zeros(n_words32);
    seq.majority_seeded_into(&tie, &mut out_one);
    if out_one.words() != inputs[0].words() {
        return Err(format!(
            "counter_bundler w32={n_words32}: cleared+re-added majority is not the input"
        ));
    }
    Ok(Vec::new())
}

// ---------------------------------------------------------------------------
// Fused window-vote family
// ---------------------------------------------------------------------------

/// The paper majority of one lane's votes, counted: one vote is
/// itself; an even count adds the first two votes' XOR; the lane is set
/// above half.
fn naive_paper_bit(votes: &[bool]) -> bool {
    let n = votes.len();
    if n == 1 {
        return votes[0];
    }
    let even = n.is_multiple_of(2);
    let count = votes.iter().filter(|&&v| v).count() + usize::from(even && votes[0] != votes[1]);
    2 * count > n + usize::from(even)
}

/// The unigram window encode (`BitslicedBundler::bundle_window_into`)
/// at every level against writing every spatial vote per bit first:
/// 1–8 channels, window lengths on the counter's plane boundaries plus
/// 1, 2, 5 and 25, rows drawn with repeats from a small table.
fn fuzz_window_vote(rng: &mut XorShift64, seed: u64) -> Result<Vec<Simd>, String> {
    const LENGTHS: [usize; 14] = [3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 1, 2, 5, 25];
    // Every length in turn, so any 14 consecutive seeds cover them all.
    let samples = LENGTHS[(seed % LENGTHS.len() as u64) as usize];
    let channels = rng.range(1, 8);
    // Wide windows get narrow rows, bounding the per-bit reference.
    let w = pick_width(rng).min(if samples * channels > 64 { 17 } else { 160 });
    // Odd `u32` widths leave the top half of the last word as padding.
    let n_words32 = 2 * w - usize::from(rng.chance(1, 2));
    let mut table = Vec::new();
    let table_rows = rng.range(1, 12);
    for _ in 0..table_rows {
        let mut row = gen_words(rng, w);
        if n_words32 % 2 == 1 {
            row[w - 1] &= u64::from(u32::MAX);
        }
        table.extend(row);
    }
    let starts: Vec<usize> = (0..samples * channels)
        .map(|_| rng.below(table_rows as u64) as usize * w)
        .collect();
    let mut want = vec![0u64; w];
    for i in 0..w * 64 {
        let spatial: Vec<bool> = starts
            .chunks(channels)
            .map(|rows| {
                let votes: Vec<bool> = rows.iter().map(|&s| bit(&table[s..s + w], i)).collect();
                naive_paper_bit(&votes)
            })
            .collect();
        if naive_paper_bit(&spatial) {
            want[i / 64] |= 1u64 << (i % 64);
        }
    }
    let before = Simd::active();
    let result = each_level(|level| {
        Simd::set_active(level);
        let mut out = Hv64::zeros(n_words32);
        BitslicedBundler::bundle_window_into(samples, channels, &table, &starts, &mut out);
        check_eq(
            &format!("window_vote w32={n_words32} samples={samples} channels={channels}"),
            level,
            &out.words().to_vec(),
            &want,
        )
    });
    Simd::set_active(before);
    result
}

// ---------------------------------------------------------------------------
// Wire-decoder family
// ---------------------------------------------------------------------------

fn gen_window(rng: &mut XorShift64) -> Vec<Vec<u16>> {
    let samples = rng.range(0, 5);
    if samples == 0 {
        return Vec::new();
    }
    let channels = rng.range(1, 4);
    (0..samples)
        .map(|_| (0..channels).map(|_| rng.next_u64() as u16).collect())
        .collect()
}

fn gen_request(rng: &mut XorShift64) -> Request {
    match rng.below(4) {
        0 => Request::Classify {
            deadline_us: rng.next_u64() >> rng.below(64),
            window: gen_window(rng),
        },
        1 => Request::ClassifyBatch {
            deadline_us: rng.next_u64() >> rng.below(64),
            windows: (0..rng.range(0, 4)).map(|_| gen_window(rng)).collect(),
        },
        2 => Request::Stats,
        _ => Request::Health,
    }
}

fn gen_fault(rng: &mut XorShift64) -> WireFault {
    // INFALLIBLE is not needed here: audit is outside the lint's unwrap
    // scope, and 1..=9 are exactly the defined codes.
    let code = ErrorCode::from_u8(1 + rng.below(9) as u8).expect("codes 1..=9 are defined");
    let detail: String = (0..rng.range(0, 32))
        .map(|_| char::from(b'a' + (rng.below(26) as u8)))
        .collect();
    WireFault::new(code, detail)
}

fn gen_verdict(rng: &mut XorShift64) -> Verdict {
    Verdict {
        class: rng.below(1 << 16) as usize,
        distances: (0..rng.range(0, 6))
            .map(|_| rng.next_u64() as u32)
            .collect(),
        query: BinaryHv::from_words(
            (0..rng.range(1, 6))
                .map(|_| rng.next_u64() as u32)
                .collect(),
        ),
        cycles: if rng.chance(1, 2) {
            Some(CycleBreakdown {
                total: rng.next_u64(),
                map_encode: rng.next_u64(),
                am: rng.next_u64(),
            })
        } else {
            None
        },
        source: match rng.below(3) {
            0 => VerdictSource::Scan,
            1 => VerdictSource::EarlyAccept,
            _ => VerdictSource::CacheHit,
        },
    }
}

/// An exactly-representable non-NaN f64 (float fields must round-trip
/// bit-for-bit and compare equal).
fn gen_f64(rng: &mut XorShift64) -> f64 {
    rng.below(1 << 32) as f64 / 16.0
}

fn gen_stats(rng: &mut XorShift64) -> ServerStats {
    ServerStats {
        completed: rng.next_u64() >> 20,
        rejected: rng.next_u64() >> 20,
        batches: rng.next_u64() >> 20,
        mean_batch: gen_f64(rng),
        p50_us: rng.next_u64() >> 20,
        p95_us: rng.next_u64() >> 20,
        p99_us: rng.next_u64() >> 20,
        latency_max_us: rng.next_u64() >> 20,
        latency_mean_us: gen_f64(rng),
        batch_service_max_us: rng.next_u64() >> 20,
        batch_service_mean_us: gen_f64(rng),
        elapsed: Duration::from_nanos(rng.next_u64() >> 10),
        windows_per_sec: gen_f64(rng),
        deadline_expired: rng.next_u64() >> 20,
        retried_batches: rng.next_u64() >> 20,
        contained_panics: rng.next_u64() >> 20,
        cache_hits: rng.next_u64() >> 20,
        cache_misses: rng.next_u64() >> 20,
        cache_evictions: rng.next_u64() >> 20,
    }
}

fn gen_response(rng: &mut XorShift64) -> Response {
    match rng.below(5) {
        0 => Response::Verdict(gen_verdict(rng)),
        1 => Response::VerdictBatch(
            (0..rng.range(0, 4))
                .map(|_| {
                    if rng.chance(1, 2) {
                        Ok(gen_verdict(rng))
                    } else {
                        Err(gen_fault(rng))
                    }
                })
                .collect(),
        ),
        2 => Response::Stats(gen_stats(rng)),
        3 => Response::Health(HealthReport {
            serving: rng.chance(1, 2),
        }),
        _ => Response::Error(gen_fault(rng)),
    }
}

/// Decodes arbitrary bytes as a frame the way a server would: header
/// first, then the payload as both a request and a response. The only
/// failure mode is a panic — every byte soup must come back as
/// `Ok`/`Err`, never unwind.
fn decode_anything(bytes: &[u8]) {
    let Ok(header) = proto::decode_header(bytes, proto::DEFAULT_MAX_FRAME) else {
        return;
    };
    let payload = bytes.get(proto::HEADER_LEN..).unwrap_or(&[]);
    let payload = &payload[..payload.len().min(header.len as usize)];
    let _ = proto::decode_request(&header, payload);
    let _ = proto::decode_response(&header, payload);
}

fn fuzz_proto(rng: &mut XorShift64) -> Result<Vec<Simd>, String> {
    // Every case: appending the response in place, after a random
    // prefix, must leave the prefix alone and add exactly the
    // standalone frame.
    let id = rng.next_u64();
    let resp = gen_response(rng);
    let frame = proto::encode_response(id, &resp);
    let prefix: Vec<u8> = (0..rng.range(0, 64))
        .map(|_| rng.next_u64() as u8)
        .collect();
    let mut appended = prefix.clone();
    proto::encode_response_into(&mut appended, id, &resp);
    if appended[..prefix.len()] != prefix[..] || appended[prefix.len()..] != frame[..] {
        return Err(format!(
            "encode_response_into after a {}-byte prefix differs from encode_response: {resp:?}",
            prefix.len()
        ));
    }
    match rng.below(3) {
        // Round-trip: encode → decode must reproduce the value.
        0 => {
            let id = rng.next_u64();
            let req = gen_request(rng);
            let bytes = proto::encode_request(id, &req);
            let header = proto::decode_header(&bytes, proto::DEFAULT_MAX_FRAME)
                .map_err(|e| format!("request header rejected: {e}"))?;
            if header.id != id {
                return Err(format!("request id mangled: {} != {id}", header.id));
            }
            let decoded = proto::decode_request(&header, &bytes[proto::HEADER_LEN..])
                .map_err(|e| format!("valid request rejected: {e}"))?;
            if decoded != req {
                return Err(format!(
                    "request round-trip mismatch: {decoded:?} != {req:?}"
                ));
            }
        }
        1 => {
            let header = proto::decode_header(&frame, proto::DEFAULT_MAX_FRAME)
                .map_err(|e| format!("response header rejected: {e}"))?;
            let decoded = proto::decode_response(&header, &frame[proto::HEADER_LEN..])
                .map_err(|e| format!("valid response rejected: {e}"))?;
            if decoded != resp {
                return Err(format!(
                    "response round-trip mismatch: {decoded:?} != {resp:?}"
                ));
            }
        }
        // Adversarial: mutate a valid frame and require decode totality.
        _ => {
            let mut bytes = if rng.chance(1, 2) {
                proto::encode_request(id, &gen_request(rng))
            } else {
                frame
            };
            match rng.below(3) {
                0 => {
                    bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize);
                }
                1 => {
                    for _ in 0..rng.range(1, 8) {
                        if bytes.is_empty() {
                            break;
                        }
                        let i = rng.below(bytes.len() as u64) as usize;
                        bytes[i] ^= 1 << rng.below(8);
                    }
                }
                _ => {
                    bytes = (0..rng.range(0, 64))
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                }
            }
            decode_anything(&bytes);
        }
    }
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_kernel_has_a_family() {
        let fams = families().expect("registry fully covered");
        for twin in KERNEL_TWINS {
            assert!(fams.contains(&twin.kernel), "missing {}", twin.kernel);
        }
        assert!(fams.contains(&"counter_bundler"));
        assert!(fams.contains(&"window_vote"));
        assert!(fams.contains(&"proto"));
    }

    /// A kernel family that never checked a registered level the CPU
    /// has is a failure; one that checked every available level is not.
    #[test]
    fn registered_levels_must_be_checked() {
        let simd: Vec<&str> = Simd::available()[1..].iter().map(|l| l.name()).collect();
        assert_eq!(
            unchecked_levels(&["avx2", "avx512"], &[Simd::Portable]),
            simd
        );
        assert!(unchecked_levels(&["avx2", "avx512"], &Simd::available()).is_empty());
        let report = run(&["hamming", "proto"], 2, 0);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        for &(level, cases) in &report.cases_per_level {
            assert_eq!(cases, 2, "{level:?}: only the hamming cases check levels");
        }
    }

    #[test]
    fn failures_are_deterministic_per_seed() {
        // Same (family, seed) twice must produce the same outcome —
        // the replay contract.
        for &family in &["hamming", "proto", "counter_bundler"] {
            for seed in 0..5 {
                let a = run_case(family, seed);
                let b = run_case(family, seed);
                assert_eq!(a, b, "{family} seed {seed} not deterministic");
            }
        }
    }
}
