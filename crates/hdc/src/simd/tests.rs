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
    let count = votes.iter().filter(|&&v| v).count() + usize::from(even && votes[0] != votes[1]);
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
    let (widths, channel_counts, window_lengths): (&[usize], &[usize], &[usize]) = if cfg!(miri) {
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
