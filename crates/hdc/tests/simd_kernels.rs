//! Property tests pinning every runtime-dispatched SIMD kernel to the
//! scalar golden model, exercised through the public `Hv64` API under
//! **each** kernel level available on this machine.
//!
//! Two override mechanisms are covered:
//!
//! * the **ctor hook** [`Simd::set_active`], which this suite uses to
//!   flip the process-wide level between the detected path and the
//!   forced-portable path mid-run;
//! * the **env hook** `PULP_HD_FORCE_SCALAR=1`, covered by the CI job
//!   that re-runs the whole workspace test suite with the portable
//!   level pinned (see `.github/workflows/ci.yml`).
//!
//! Per-kernel slice-level equivalence (explicit calls on each level of
//! `Simd::available()` against naive references) lives in the `simd`
//! module's unit tests; this file checks the same kernels end to end —
//! bind, fused bind-rotate, both bundling forms, and the distance
//! scans — against the `u32` golden model.

use hdc::bundle::majority_paper;
use hdc::encoder::ngram;
use hdc::hv64::{majority_paper64, ngram64, BitslicedBundler, CounterBundler, Hv64};
use hdc::rng::Xoshiro256PlusPlus;
use hdc::{AssociativeMemory, BinaryHv, Bundler, Simd, TieBreak};

// Miri runs ~3 orders of magnitude slower than native code; shrink the
// drawn-case budget (but keep most directed widths) under the
// interpreter.
const CASES: usize = if cfg!(miri) { 4 } else { 32 };

/// Runs `check` once per available level, flipping the process-wide
/// dispatch through the ctor override hook and restoring the detected
/// level afterwards (drop-safe restoration is overkill here: a failed
/// assert ends the process anyway).
fn for_each_level(mut check: impl FnMut(Simd)) {
    for level in Simd::available() {
        Simd::set_active(level);
        check(level);
    }
    Simd::set_active(Simd::detect());
}

#[test]
fn bind_and_hamming_match_golden_under_every_level() {
    for_each_level(|level| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x01);
        for case in 0..CASES {
            let n_words32 = 1 + rng.next_below(24) as usize;
            let a = BinaryHv::random(n_words32, rng.next_u64());
            let b = BinaryHv::random(n_words32, rng.next_u64());
            let (a64, b64) = (Hv64::from_binary(&a), Hv64::from_binary(&b));
            assert_eq!(
                a64.bind(&b64).to_binary(),
                a.bind(&b),
                "{level:?} case {case}: bind"
            );
            assert_eq!(
                a64.hamming(&b64),
                a.hamming(&b),
                "{level:?} case {case}: hamming"
            );
            assert_eq!(
                a64.count_ones(),
                a.count_ones(),
                "{level:?} case {case}: popcount"
            );
        }
    });
}

#[test]
fn rotation_and_fused_bind_rotate_match_golden_under_every_level() {
    for_each_level(|level| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x02);
        for case in 0..CASES {
            let n_words32 = 1 + rng.next_below(24) as usize;
            let a = BinaryHv::random(n_words32, rng.next_u64());
            let b = BinaryHv::random(n_words32, rng.next_u64());
            let (a64, b64) = (Hv64::from_binary(&a), Hv64::from_binary(&b));
            let k = rng.next_below(2 * a.dim() as u32 + 1) as usize;
            assert_eq!(
                a64.rotate(k).to_binary(),
                a.rotate(k),
                "{level:?} case {case}: rotate by {k}"
            );
            let mut fused = a64.clone();
            fused.xor_rotated(&b64, k);
            assert_eq!(
                fused.to_binary(),
                a.bind(&b.rotate(k)),
                "{level:?} case {case}: xor_rotated by {k}"
            );
        }
    });
}

#[test]
fn bundling_planes_match_golden_under_every_level() {
    for_each_level(|level| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x03);
        // 1..=12 inputs crosses the identity, OR, maj-3, maj-5 (with
        // and without the tie vector), and carry-save-tree arms.
        for n in 1usize..=12 {
            let n_words32 = 1 + rng.next_below(24) as usize;
            let hvs: Vec<BinaryHv> = (0..n)
                .map(|_| BinaryHv::random(n_words32, rng.next_u64()))
                .collect();
            let packed: Vec<Hv64> = hvs.iter().map(Hv64::from_binary).collect();
            let expected = majority_paper(&hvs);
            // Word-major register-resident form.
            let mut out = Hv64::zeros(n_words32);
            BitslicedBundler::bundle_paper_into(n, |i| &packed[i], &mut out);
            assert_eq!(
                out.to_binary(),
                expected,
                "{level:?} n {n}: bundle_paper_into"
            );
            // Streaming heap-plane form.
            let mut bundler = BitslicedBundler::new(n_words32);
            for hv in &packed {
                bundler.add(hv);
            }
            bundler.majority_paper_into(&mut out);
            assert_eq!(
                out.to_binary(),
                expected,
                "{level:?} n {n}: streaming bundler"
            );
            // Allocating reference form.
            let refs: Vec<&Hv64> = packed.iter().collect();
            assert_eq!(
                majority_paper64(&refs).to_binary(),
                expected,
                "{level:?} n {n}: majority_paper64"
            );
        }
    });
}

#[test]
fn ngram_encoding_matches_golden_under_every_level() {
    for_each_level(|level| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x04);
        for n in 1usize..=5 {
            let n_words32 = 1 + rng.next_below(24) as usize;
            let hvs: Vec<BinaryHv> = (0..n)
                .map(|_| BinaryHv::random(n_words32, rng.next_u64()))
                .collect();
            let packed: Vec<Hv64> = hvs.iter().map(Hv64::from_binary).collect();
            assert_eq!(
                ngram64(&packed).to_binary(),
                ngram(&hvs),
                "{level:?} N = {n}"
            );
        }
    });
}

/// The AM scan — one exact `Hv64::hamming` per prototype, first
/// minimum wins — matches the golden associative memory's distances
/// and class under every level. Every other case duplicates prototype
/// 0 into the last slot, so exact ties test the first-minimum order.
#[test]
fn distance_scans_match_golden_under_every_level() {
    for_each_level(|level| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x05);
        for case in 0..CASES {
            let n_words32 = 1 + rng.next_below(24) as usize;
            let classes = 1 + rng.next_below(8) as usize;
            let mut hvs: Vec<BinaryHv> = (0..classes)
                .map(|_| BinaryHv::random(n_words32, rng.next_u64()))
                .collect();
            if case % 2 == 0 {
                hvs[classes - 1] = hvs[0].clone();
            }
            let mut am = AssociativeMemory::new(classes, n_words32, 0);
            for (class, hv) in hvs.iter().enumerate() {
                am.set_prototype(class, hv.clone());
            }
            let query32 = BinaryHv::random(n_words32, rng.next_u64());
            let golden = am.classify_finalized(&query32);
            let query = Hv64::from_binary(&query32);
            let distances: Vec<u32> = hvs
                .iter()
                .map(|p| Hv64::from_binary(p).hamming(&query))
                .collect();
            let class = distances
                .iter()
                .enumerate()
                .min_by_key(|&(_, &d)| d)
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(
                distances,
                golden.distances(),
                "{level:?} case {case}: distances"
            );
            assert_eq!(class, golden.class(), "{level:?} case {case}: class");
        }
    });
}

/// The training accumulator (sideways-addition counter planes + seeded
/// threshold) matches the scalar training `Bundler` under every kernel
/// level, including split-and-merge accumulation and forced exact ties.
#[test]
fn training_counters_match_golden_under_every_level() {
    for_each_level(|level| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x07);
        for case in 0..CASES.div_ceil(2) {
            let n_words32 = 1 + rng.next_below(24) as usize;
            let n = 1 + rng.next_below(12) as usize;
            // Draw from a small pool so repeats force exact ties.
            let pool: Vec<BinaryHv> = (0..3)
                .map(|_| BinaryHv::random(n_words32, rng.next_u64()))
                .collect();
            let inputs: Vec<&BinaryHv> =
                (0..n).map(|_| &pool[rng.next_below(3) as usize]).collect();
            let tie = BinaryHv::random(n_words32, rng.next_u64());

            let mut scalar = Bundler::new(n_words32);
            let mut packed = CounterBundler::new(n_words32);
            // Split the stream across two accumulators and merge — the
            // worker-pool reduction path.
            let split = rng.next_below(n as u32 + 1) as usize;
            let mut partial = CounterBundler::new(n_words32);
            for (i, hv) in inputs.iter().enumerate() {
                scalar.add(hv);
                let packed_hv = Hv64::from_binary(hv);
                if i < split {
                    packed.add(&packed_hv);
                } else {
                    partial.add(&packed_hv);
                }
            }
            packed.merge(&partial);
            let mut out = Hv64::zeros(n_words32);
            packed.majority_seeded_into(&Hv64::from_binary(&tie), &mut out);
            assert_eq!(
                out.to_binary(),
                scalar.majority(TieBreak::Vector(&tie)),
                "{level:?} case {case}: n = {n}, split {split}"
            );
        }
    });
}

/// Directed tail-masking coverage: odd `n_words32` widths leave a
/// half-`u64` tail in the packed representation, and the counter planes
/// of [`CounterBundler::merge`] / `majority_seeded_into` must mask it —
/// adversarial all-ones inputs (every canonical bit set, tail included)
/// and all-ones tie vectors try to smuggle votes into the padding, and
/// the thresholded output's padding must still come back clean under
/// every kernel level.
#[test]
fn counter_tail_masking_survives_all_ones_inputs_at_odd_widths() {
    for_each_level(|level| {
        let widths: &[usize] = if cfg!(miri) {
            &[1, 3, 5] // the per-bit fill below crawls under Miri
        } else {
            &[1, 3, 5, 7, 21, 313]
        };
        for &n_words32 in widths {
            let dim = n_words32 * 32;
            let mut ones = BinaryHv::zeros(n_words32);
            for b in 0..dim {
                ones.set_bit(b, true);
            }
            let ones64 = Hv64::from_binary(&ones);
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x7A11 + n_words32 as u64);
            let noise = BinaryHv::random(n_words32, rng.next_u64());
            let noise64 = Hv64::from_binary(&noise);

            // Two all-ones + one noise in the main accumulator, one of
            // each merged in from a partial: count(ones-bit) = 3 of 4 →
            // majority one; noise-only bits are 2 of 4 → exact tie,
            // resolved by the (also all-ones) tie vector.
            let mut main = CounterBundler::new(n_words32);
            main.add(&ones64);
            main.add(&noise64);
            let mut partial = CounterBundler::new(n_words32);
            partial.add(&ones64);
            partial.add(&noise64);
            main.merge(&partial);

            let mut scalar = Bundler::new(n_words32);
            for hv in [&ones, &noise, &ones, &noise] {
                scalar.add(hv);
            }

            let mut out = Hv64::from_binary(&ones); // dirty start: output must be overwritten
            main.majority_seeded_into(&ones64, &mut out);
            assert_eq!(
                out.to_binary(),
                scalar.majority(TieBreak::Vector(&ones)),
                "{level:?}: {n_words32} u32 words"
            );
            // The packed padding itself stays zero — a dirty tail would
            // corrupt every later hamming/bind on this vector.
            if n_words32 % 2 == 1 {
                assert_eq!(
                    out.words()[out.n_words() - 1] >> 32,
                    0,
                    "{level:?}: {n_words32} u32 words leaked into the padding"
                );
            }
        }
    });
}
