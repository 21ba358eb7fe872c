//! Property-based tests of the HD-computing invariants the paper's
//! algorithm relies on.
//!
//! Properties are checked over many pseudo-randomly drawn cases from the
//! crate's own deterministic generator (the container ships no external
//! property-testing framework, and reproducibility is better served by a
//! fixed seed anyway: every failure is replayable from the case index).

use hdc::bundle::{majority_odd_bitsliced, majority_paper};
use hdc::hv64::BitslicedBundler;
use hdc::rng::Xoshiro256PlusPlus;
use hdc::{quantize_code, BinaryHv, Bundler, Hv64, TieBreak};

// Miri runs ~3 orders of magnitude slower than native code; a thinner
// case budget keeps the suite in CI's time budget while still walking
// every property through the interpreter.
const CASES: usize = if cfg!(miri) { 8 } else { 64 };

/// Per-case deterministic RNG: independent stream per (test, case).
fn case_rng(test_id: u64, case: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(test_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

fn draw(rng: &mut Xoshiro256PlusPlus, lo: usize, hi: usize) -> usize {
    lo + rng.next_below((hi - lo) as u32) as usize
}

fn hv(words: usize, rng: &mut Xoshiro256PlusPlus) -> BinaryHv {
    BinaryHv::random(words, rng.next_u64())
}

/// Binding is an involution and preserves Hamming distance.
#[test]
fn bind_involution_and_isometry() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case as u64);
        let words = draw(&mut rng, 1, 40);
        let a = hv(words, &mut rng);
        let b = hv(words, &mut rng);
        let c = hv(words, &mut rng);
        assert_eq!(a.bind(&b).bind(&b), a, "case {case}");
        // d(a⊕c, b⊕c) = d(a, b): XOR by a common vector is an isometry.
        assert_eq!(
            a.bind(&c).hamming(&b.bind(&c)),
            a.hamming(&b),
            "case {case}"
        );
    }
}

/// Hamming distance satisfies the metric axioms.
#[test]
fn hamming_is_a_metric() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case as u64);
        let words = draw(&mut rng, 1, 30);
        let a = hv(words, &mut rng);
        let b = hv(words, &mut rng);
        let c = hv(words, &mut rng);
        assert_eq!(a.hamming(&a), 0, "case {case}");
        assert_eq!(a.hamming(&b), b.hamming(&a), "case {case}");
        assert!(
            a.hamming(&c) <= a.hamming(&b) + b.hamming(&c),
            "case {case}: triangle inequality"
        );
    }
}

/// Rotation is a distance-preserving bijection that composes additively
/// modulo the dimension.
#[test]
fn rotation_group_structure() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case as u64);
        let words = draw(&mut rng, 1, 20);
        let a = hv(words, &mut rng);
        let dim = a.dim();
        let j = draw(&mut rng, 0, 700);
        let k = draw(&mut rng, 0, 700);
        assert_eq!(
            a.rotate(j).rotate(k),
            a.rotate((j + k) % dim),
            "case {case}"
        );
        assert_eq!(a.rotate(j).rotate(dim - (j % dim)), a, "case {case}");
        let b = hv(words, &mut rng);
        assert_eq!(
            a.rotate(k).hamming(&b.rotate(k)),
            a.hamming(&b),
            "case {case}: rotation must preserve distance"
        );
    }
}

/// The componentwise majority is the 1-median of the input multiset: no
/// other vector has a smaller total Hamming distance to the inputs.
/// Odd-count majorities are also order-invariant (no tie-break involved).
#[test]
fn majority_minimizes_total_distance() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case as u64);
        let words = draw(&mut rng, 1, 16);
        let n = draw(&mut rng, 1, 9);
        let inputs: Vec<BinaryHv> = (0..n).map(|_| hv(words, &mut rng)).collect();
        let m = majority_paper(&inputs);
        let total = |y: &BinaryHv| -> u64 { inputs.iter().map(|x| u64::from(y.hamming(x))).sum() };
        let m_total = total(&m);
        for x in &inputs {
            assert!(
                m_total <= total(x),
                "case {case}: an input beats the majority"
            );
        }
        for _ in 0..4 {
            let probe = hv(words, &mut rng);
            assert!(
                m_total <= total(&probe),
                "case {case}: a probe beats the majority"
            );
        }
        if n % 2 == 1 {
            let mut reversed = inputs.clone();
            reversed.reverse();
            assert_eq!(
                majority_paper(&reversed),
                m,
                "case {case}: order dependence"
            );
        }
    }
}

/// Bit-sliced majority ≡ counter majority for every odd count.
#[test]
fn bitsliced_equals_counters() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case as u64);
        let words = draw(&mut rng, 1, 12);
        let n = 2 * draw(&mut rng, 0, 6) + 1;
        let inputs: Vec<BinaryHv> = (0..n).map(|_| hv(words, &mut rng)).collect();
        let refs: Vec<&BinaryHv> = inputs.iter().collect();
        let fast = majority_odd_bitsliced(&refs);
        let mut bundler = Bundler::new(words);
        for i in &inputs {
            bundler.add(i);
        }
        assert_eq!(
            fast,
            bundler.majority(TieBreak::Zero),
            "case {case}, n = {n}"
        );
    }
}

/// The quantizer is monotone, total, and hits the extreme levels.
#[test]
fn quantizer_properties() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case as u64);
        let a = (rng.next_u32() & 0xffff) as u16;
        let b = (rng.next_u32() & 0xffff) as u16;
        let levels = draw(&mut rng, 2, 64);
        let qa = quantize_code(a, levels);
        let qb = quantize_code(b, levels);
        assert!(qa < levels, "case {case}");
        if a <= b {
            assert!(qa <= qb, "case {case}: quantizer must be monotone");
        }
        assert_eq!(quantize_code(0, levels), 0, "case {case}");
        assert_eq!(quantize_code(u16::MAX, levels), levels - 1, "case {case}");
    }
}

/// The in-place / borrowing `Hv64` hot-path ops equal their allocating
/// counterparts on every width and shift: `xor_assign` ≡ `bind`,
/// `rotate_into` ≡ `rotate`, and the fused `xor_rotated` ≡
/// `bind(rotate)`.
#[test]
fn hv64_in_place_ops_equal_allocating_ops() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case as u64);
        let words = draw(&mut rng, 1, 40);
        let a = Hv64::from_binary(&hv(words, &mut rng));
        let b = Hv64::from_binary(&hv(words, &mut rng));
        let k = draw(&mut rng, 0, 3 * a.dim());

        let mut x = a.clone();
        x.xor_assign(&b);
        assert_eq!(x, a.bind(&b), "case {case}: xor_assign");

        let mut rotated = b.clone(); // dirty on purpose
        a.rotate_into(k, &mut rotated);
        assert_eq!(rotated, a.rotate(k), "case {case}, k = {k}: rotate_into");

        let mut fused = a.clone();
        fused.xor_rotated(&b, k);
        assert_eq!(
            fused,
            a.bind(&b.rotate(k)),
            "case {case}, k = {k}: xor_rotated"
        );
        // Padding stays clean through the in-place path.
        assert_eq!(
            fused.to_binary().count_ones(),
            fused.count_ones(),
            "case {case}: padding bits leaked"
        );
    }
}

/// The streaming `BitslicedBundler` computes exactly the scalar
/// `majority_paper` of the golden model, for every count (odd, even,
/// single) and across accumulator reuse.
#[test]
fn bitsliced_bundler_equals_scalar_majority() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case as u64);
        let words = draw(&mut rng, 1, 16);
        let mut bundler = BitslicedBundler::new(words);
        let mut out = Hv64::zeros(words);
        // Two rounds through one accumulator: reuse must be stateless.
        for round in 0..2 {
            let n = draw(&mut rng, 1, 10);
            let inputs: Vec<BinaryHv> = (0..n).map(|_| hv(words, &mut rng)).collect();
            let packed: Vec<Hv64> = inputs.iter().map(Hv64::from_binary).collect();
            for input in &packed {
                bundler.add(input);
            }
            bundler.majority_paper_into(&mut out);
            assert_eq!(
                out.to_binary(),
                majority_paper(&inputs),
                "case {case}, round {round}, n = {n}: streaming form"
            );
            // The word-major register-resident form agrees too.
            BitslicedBundler::bundle_paper_into(n, |i| &packed[i], &mut out);
            assert_eq!(
                out.to_binary(),
                majority_paper(&inputs),
                "case {case}, round {round}, n = {n}: word-major form"
            );
        }
    }
}

/// Bit-flip count equals the resulting Hamming distance (fault injection
/// is exact).
#[test]
fn fault_injection_is_exact() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case as u64);
        let words = draw(&mut rng, 1, 20);
        let a = hv(words, &mut rng);
        let frac = draw(&mut rng, 0, 100);
        let flips = a.dim() * frac / 100;
        let seed = rng.next_u64();
        assert_eq!(
            a.with_bit_flips(flips, seed).hamming(&a) as usize,
            flips,
            "case {case}"
        );
    }
}
