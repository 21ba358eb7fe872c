//! The portable level: safe Rust, unrolled four `u64` words per step so
//! the auto-vectorizer can widen it, and simple enough to audit — this
//! is the reference implementation of every kernel, and shares no code
//! with the SIMD levels' vote network.

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
        vote_words::<C, _>(n, inputs, even_tie, threshold, out, start)
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
fn full_add_lanes<const L: usize>(a: [u64; L], b: [u64; L], c: [u64; L]) -> ([u64; L], [u64; L]) {
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
