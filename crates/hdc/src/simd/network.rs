//! The vote networks, written once over [`Lane`]: the closed-form
//! majorities, the carry-save vote counter behind
//! [`Simd::ripple_majority_into`](super::Simd::ripple_majority_into)
//! and the fused window vote, the counter-plane step and the seeded-tie
//! threshold. Everything is `#[inline(always)]` with no target feature,
//! so it compiles for the level of the `#[target_feature]` kernel that
//! instantiates it, with the counter planes and row pointers in
//! registers.
//!
//! Each kernel runs the whole lanes of its output from word `start` and
//! returns the first word it left, which the caller hands to a narrower
//! level. No lane reaches past the end of a slice. The portable level
//! is the independent reference and shares no code with this module.

use super::lane::Lane;
use super::{Inputs, Rows};

/// `out = maj(x0, x1, x2)`: one full adder's carry.
///
/// # Safety
///
/// Requires the lane's features, equal slice lengths and
/// `start <= out.len()`.
#[inline(always)]
pub(super) unsafe fn maj3_into<L: Lane>(x: [&[u64]; 3], out: &mut [u64], start: usize) -> usize {
    let mut i = start;
    while i + L::WORDS <= out.len() {
        // SAFETY: the loop bound keeps the lane inside `out` and the
        // equally long inputs; the features are the contract.
        unsafe {
            let [a, b, c] = x.map(|row| L::load(row, i));
            L::full_add(a, b, c).1.store(out, i);
        }
        i += L::WORDS;
    }
    i
}

/// `out = maj(x0, …, x4)`, as [`maj5`].
///
/// # Safety
///
/// As [`maj3_into`].
#[inline(always)]
pub(super) unsafe fn maj5_into<L: Lane>(x: [&[u64]; 5], out: &mut [u64], start: usize) -> usize {
    let mut i = start;
    while i + L::WORDS <= out.len() {
        // SAFETY: as in `maj3_into`.
        unsafe {
            let [a, b, c, d, e] = x.map(|row| L::load(row, i));
            maj5(a, b, c, d, e).store(out, i);
        }
        i += L::WORDS;
    }
    i
}

/// `out = (x0 ∨ x1) ∧ (x2 ∨ x3)`: the 4-input vote with the tie vector.
///
/// # Safety
///
/// As [`maj3_into`].
#[inline(always)]
pub(super) unsafe fn maj5_tie_into<L: Lane>(
    x: [&[u64]; 4],
    out: &mut [u64],
    start: usize,
) -> usize {
    let mut i = start;
    while i + L::WORDS <= out.len() {
        // SAFETY: as in `maj3_into`.
        unsafe {
            let [a, b, c, d] = x.map(|row| L::load(row, i));
            a.or(b).and(c.or(d)).store(out, i);
        }
        i += L::WORDS;
    }
    i
}

/// Two full adders and a carry: a count of at least 3 of 5 is both
/// carries, or one carry and the second sum, i.e. `maj(c1, c2, s2)`.
///
/// # Safety
///
/// Requires the lane's features.
#[inline(always)]
unsafe fn maj5<L: Lane>(a: L, b: L, c: L, d: L, e: L) -> L {
    // SAFETY: the lane's features are this fn's contract.
    unsafe {
        let (s1, c1) = L::full_add(a, b, c);
        let (s2, c2) = L::full_add(s1, d, e);
        L::full_add(c1, c2, s2).1
    }
}

/// The carry-save vote counter with `P` planes over every whole lane
/// of `out` from `start`, one [`vote`] each.
///
/// # Safety
///
/// As [`vote`] for every lane, and `start <= out.len()`.
#[inline(always)]
pub(super) unsafe fn vote_into<const P: usize, L: Lane, const C: usize, R: Rows + ?Sized>(
    n: usize,
    inputs: Inputs<'_, R>,
    even_tie: bool,
    threshold: u32,
    out: &mut [u64],
    start: usize,
) -> usize {
    let mut wi = start;
    while wi + L::WORDS <= out.len() {
        // SAFETY: the loop bound keeps the lane inside `out` and every
        // row, each at least as long; the rest is the contract.
        unsafe { vote::<L, P, C, R>(n, inputs, even_tie, threshold, wi).store(out, wi) };
        wi += L::WORDS;
    }
    wi
}

/// The vote over words `wi..wi + WORDS`: the Harley–Seal count of the
/// portable `vote_block`, over lanes. Inputs enter eight at a time;
/// the last 0–7 as a group of four, two and one.
///
/// # Safety
///
/// Requires the lane's features, `threshold <= n + even_tie < 2^P`,
/// `n >= 2` when `even_tie`, every spatial vote of `inputs` below
/// `2^RIPPLE_PLANES` inputs, and `wi + WORDS` words in every row.
#[inline(always)]
unsafe fn vote<L: Lane, const P: usize, const C: usize, R: Rows + ?Sized>(
    n: usize,
    inputs: Inputs<'_, R>,
    even_tie: bool,
    threshold: u32,
    wi: usize,
) -> L {
    // SAFETY: the plane guards keep every constant plane index under
    // `P`, and the half-add chains end at plane `P - 1`, which the
    // count never overflows; rows and features are the contract.
    unsafe {
        let mut planes = [L::zero(); P];
        let mut i = if even_tie {
            let x0 = input::<L, C, R>(inputs, 0, wi);
            planes[1] = x0.or(input::<L, C, R>(inputs, 1, wi));
            2
        } else {
            planes[0] = input::<L, C, R>(inputs, 0, wi);
            1
        };
        while P > 3 && i + 8 <= n {
            let carry = csa8::<L, P, C, R>(&mut planes, inputs, i, wi);
            half_add_from(&mut planes, 3, carry);
            i += 8;
        }
        if P > 2 && i + 4 <= n {
            let carry = csa4::<L, P, C, R>(&mut planes, inputs, i, wi);
            half_add_from(&mut planes, 2, carry);
            i += 4;
        }
        if i + 2 <= n {
            let carry = csa2::<L, P, C, R>(&mut planes, inputs, i, wi);
            half_add_from(&mut planes, 1, carry);
            i += 2;
        }
        if i < n {
            half_add_from(&mut planes, 0, input::<L, C, R>(inputs, i, wi));
        }
        // count >= threshold, decided from the lowest plane up: a set
        // threshold bit needs the count bit, a clear one is met by it.
        let mut geq = L::ones();
        for (p, &plane) in planes.iter().enumerate() {
            geq = if threshold >> p & 1 == 1 {
                geq.and(plane)
            } else {
                geq.or(plane)
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
/// As [`input`].
#[inline(always)]
unsafe fn csa2<L: Lane, const P: usize, const C: usize, R: Rows + ?Sized>(
    planes: &mut [L; P],
    inputs: Inputs<'_, R>,
    i: usize,
    wi: usize,
) -> L {
    // SAFETY: this fn's contract is `input`'s.
    unsafe {
        let (a, b) = (
            input::<L, C, R>(inputs, i, wi),
            input::<L, C, R>(inputs, i + 1, wi),
        );
        let carry;
        (planes[0], carry) = L::full_add(planes[0], a, b);
        carry
    }
}

/// Harley–Seal group of four: two pairs, whose carries meet in plane
/// 1; returns the carry of weight 4.
///
/// # Safety
///
/// As [`input`].
#[inline(always)]
unsafe fn csa4<L: Lane, const P: usize, const C: usize, R: Rows + ?Sized>(
    planes: &mut [L; P],
    inputs: Inputs<'_, R>,
    i: usize,
    wi: usize,
) -> L {
    // SAFETY: this fn's contract is `csa2`'s.
    unsafe {
        let a = csa2::<L, P, C, R>(planes, inputs, i, wi);
        let b = csa2::<L, P, C, R>(planes, inputs, i + 2, wi);
        let carry;
        (planes[1], carry) = L::full_add(planes[1], a, b);
        carry
    }
}

/// Harley–Seal group of eight: two groups of four, whose carries meet
/// in plane 2; returns the carry of weight 8.
///
/// # Safety
///
/// As [`input`].
#[inline(always)]
unsafe fn csa8<L: Lane, const P: usize, const C: usize, R: Rows + ?Sized>(
    planes: &mut [L; P],
    inputs: Inputs<'_, R>,
    i: usize,
    wi: usize,
) -> L {
    // SAFETY: this fn's contract is `csa4`'s.
    unsafe {
        let a = csa4::<L, P, C, R>(planes, inputs, i, wi);
        let b = csa4::<L, P, C, R>(planes, inputs, i + 4, wi);
        let carry;
        (planes[2], carry) = L::full_add(planes[2], a, b);
        carry
    }
}

/// Half-adds `carry` into planes `first..P`. The caller bounds the
/// count below `2^P`, so the last carry is always zero.
///
/// # Safety
///
/// Requires the lane's features.
#[inline(always)]
unsafe fn half_add_from<L: Lane, const P: usize>(planes: &mut [L; P], first: usize, mut carry: L) {
    for plane in &mut planes[first..] {
        // SAFETY: the lane's features are this fn's contract.
        unsafe { (*plane, carry) = (plane.xor(carry), plane.and(carry)) };
    }
}

/// Input `i` of a vote over words `wi..wi + WORDS`: a row, or a
/// sample's spatial vote in spatial form `C` (see `with_planes!`).
///
/// # Safety
///
/// Requires the lane's features, input `i` of the vote, `wi + WORDS`
/// words in every row, and every spatial vote of `inputs` below
/// `2^RIPPLE_PLANES` inputs.
#[inline(always)]
unsafe fn input<L: Lane, const C: usize, R: Rows + ?Sized>(
    inputs: Inputs<'_, R>,
    i: usize,
    wi: usize,
) -> L {
    // SAFETY: every row of input `i` holds `wi + WORDS` words, and the
    // rest are the lane's features (the contract).
    unsafe {
        let row = |c| L::load(inputs.row_unchecked::<C>(i, c), wi);
        match C {
            1 => row(0),
            2 => row(0).or(row(1)),
            3 => L::full_add(row(0), row(1), row(2)).1,
            4 => row(0).or(row(1)).and(row(2).or(row(3))),
            5 => maj5(row(0), row(1), row(2), row(3), row(4)),
            _ => L::wide_vote(inputs.rows_of(i), inputs.channels, wi),
        }
    }
}

/// The paper majority of `n` rows, counted by the tree: the body of
/// [`Lane::wide_vote`].
///
/// # Safety
///
/// Requires the lane's features, `wi + WORDS` words in every row, and
/// `n` plus its tie vector below `2^RIPPLE_PLANES`.
#[inline(always)]
pub(super) unsafe fn wide_vote<L: Lane, R: Rows + ?Sized>(
    rows: Inputs<'_, R>,
    n: usize,
    wi: usize,
) -> L {
    let (even_tie, threshold) = super::paper_vote(n);
    // SAFETY: the paper threshold is at most the vote count, and both
    // plane counts hold it (16 > the vote on the first arm, the
    // contract on the second); rows and features are the contract.
    unsafe {
        if n + usize::from(even_tie) < 16 {
            vote::<L, 4, 1, R>(n, rows, even_tie, threshold, wi)
        } else {
            vote::<L, { super::RIPPLE_PLANES }, 1, R>(n, rows, even_tie, threshold, wi)
        }
    }
}

/// One carry-save step over every whole lane from `start`:
/// `(plane, carry) ← (plane ⊕ carry, plane ∧ carry)`. Returns the first
/// word left and whether a carry survives in the lanes it ran.
///
/// # Safety
///
/// Requires the lane's features, `plane.len() == carry.len()`,
/// `start <= plane.len()` and at most 8 words per lane.
#[inline(always)]
pub(super) unsafe fn csa_step<L: Lane>(
    plane: &mut [u64],
    carry: &mut [u64],
    start: usize,
) -> (usize, bool) {
    let mut spill = [0u64; 8];
    let mut i = start;
    // SAFETY: the loop bound keeps each lane inside both slices, the
    // spill holds one lane, and the features are the contract.
    unsafe {
        let mut any = L::zero();
        while i + L::WORDS <= plane.len() {
            let (p, c) = (L::load(plane, i), L::load(carry, i));
            let t = p.and(c);
            p.xor(c).store(plane, i);
            t.store(carry, i);
            any = any.or(t);
            i += L::WORDS;
        }
        any.store(&mut spill, 0);
    }
    (i, spill != [0; 8])
}

/// The seeded-tie threshold of the portable `counter_majority_from`
/// over every whole lane of `out` from `start`.
///
/// # Safety
///
/// Requires the lane's features, `n > 0`, `start <= out.len()`, and
/// every `planes(p)` for `p < n_planes` and `tie` at least `out.len()`
/// words.
#[inline(always)]
pub(super) unsafe fn counter_majority_into<'a, L: Lane, F>(
    planes: &F,
    n_planes: usize,
    n: u32,
    tie: &[u64],
    out: &mut [u64],
    start: usize,
) -> usize
where
    F: Fn(usize) -> &'a [u64],
{
    let (threshold, half) = (n / 2 + 1, n / 2);
    let p_max = n_planes.max((32 - threshold.leading_zeros()) as usize);
    let mut wi = start;
    while wi + L::WORDS <= out.len() {
        // SAFETY: the loop bound keeps the lane inside `out`, `tie` and
        // every plane (the contract); the features are the contract.
        unsafe {
            // count >= threshold ⇔ count - threshold does not borrow:
            // per plane, a set threshold bit borrows unless the count
            // bit is set, a clear one only passes a borrow on. count ==
            // half ⇔ every plane matches half's bit.
            let (mut borrow, mut eq) = (L::zero(), L::ones());
            for p in 0..p_max {
                let plane = if p < n_planes {
                    L::load(planes(p), wi)
                } else {
                    L::zero()
                };
                let clear = plane.xor(L::ones());
                borrow = if threshold >> p & 1 == 1 {
                    borrow.or(clear)
                } else {
                    borrow.and(clear)
                };
                eq = eq.and(if half >> p & 1 == 1 { plane } else { clear });
            }
            let gt = borrow.xor(L::ones());
            let v = if n.is_multiple_of(2) {
                gt.or(eq.and(L::load(tie, wi)))
            } else {
                gt
            };
            v.store(out, wi);
        }
        wi += L::WORDS;
    }
    wi
}
