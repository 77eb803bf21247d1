//! Cache-blocked, autovectorizer-friendly matrix-multiply kernels.
//!
//! Three variants cover everything the tape needs without ever materialising
//! a transpose:
//!
//! * [`matmul_nn`] — `C += A·B` (forward pass);
//! * [`matmul_nt`] — `C += A·Bᵀ` with `B` stored un-transposed (the
//!   `grad_a = g·bᵀ` rule: every output element is a dot product of two
//!   contiguous rows);
//! * [`matmul_tn`] — `C += Aᵀ·B` with `A` stored un-transposed (the
//!   `grad_b = aᵀ·g` rule: a sequence of rank-1 updates over contiguous
//!   rows).
//!
//! All loops are tiled so the working set of each inner loop nest fits in L1,
//! and — the part the codegen actually cares about — every inner loop is a
//! zip over slices whose lengths the compiler can prove equal
//! (`chunks_exact` + `zip`), so there are **no index bounds checks inside the
//! hot loops** and the autovectorizer can lower them to packed SIMD.
//!
//! FP-order contract: `matmul_nn` accumulates each output element strictly in
//! ascending shared-dimension order — blocking changes *which* elements are
//! computed together, never the order of the floating-point additions — so
//! its results are bitwise independent of the tile sizes (pinned by
//! `nn_matches_naive_on_all_shapes`). `matmul_nt` uses an 8-lane chunked dot
//! (`dot_chunked`) that reassociates the reduction; its results differ from
//! the naive order only by rounding (tests compare at `1e-5`).
//!
//! Every kernel reports its algorithmic FLOP and byte traffic to
//! [`crate::counters`] — two relaxed atomic adds per call.

use crate::counters;

/// Rows of the output tile kept hot per block.
const BI: usize = 32;
/// Shared-dimension tile: `BK` rows of `B` (or `A` in the `tn` case) are
/// streamed through L1 per block.
const BK: usize = 64;

/// Accumulator lanes for the chunked dot product: wide enough to hide FMA
/// latency on any SIMD width the autovectorizer picks, small enough to stay
/// in registers.
const LANES: usize = 8;

/// Dot product with `LANES` independent accumulators.
///
/// The lane split reassociates the sum (bitwise ≠ a strict left fold, equal
/// within rounding); each lane's partial runs in ascending index order, and
/// the final lane reduction is a fixed-shape tree, so the result is
/// deterministic for a given input length.
#[inline]
pub(crate) fn dot_chunked(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; LANES];
    let xc = x.chunks_exact(LANES);
    let yc = y.chunks_exact(LANES);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        let xs: &[f32; LANES] = xs.try_into().unwrap();
        let ys: &[f32; LANES] = ys.try_into().unwrap();
        for l in 0..LANES {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (a, b) in xr.iter().zip(yr) {
        tail += a * b;
    }
    let head = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    head + tail
}

/// `out += a · b` for row-major `a` (`m`×`k`), `b` (`k`×`n`), `out` (`m`×`n`).
///
/// `out` is *accumulated into*, not overwritten — callers that want a plain
/// product pass a zeroed buffer. Tiled i-k-j: the inner loop is an `axpy`
/// over a contiguous row of `b` into a contiguous row of `out`. Rows of the
/// left operand that are exactly zero (ReLU masks) are skipped; this
/// cannot change the result because `0 · x` contributes nothing to a sum that
/// is accumulated in the same order either way.
pub fn matmul_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    counters::record(2 * (m * k * n) as u64, 4 * (m * k + k * n + 2 * m * n) as u64);
    if n == 0 {
        return;
    }
    for i0 in (0..m).step_by(BI) {
        let i1 = (i0 + BI).min(m);
        for p0 in (0..k).step_by(BK) {
            let p1 = (p0 + BK).min(k);
            // `chunks_exact(n)` over the block of B rows: each chunk is one
            // row, and the zip with the A sub-row needs no indexing at all.
            let bblock = b[p0 * n..p1 * n].chunks_exact(n);
            for i in i0..i1 {
                let arow = &a[i * k + p0..i * k + p1];
                let orow = &mut out[i * n..(i + 1) * n];
                for (&av, brow) in arow.iter().zip(bblock.clone()) {
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
}

/// `out += a · bᵀ` for row-major `a` (`m`×`k`), `b` (`n`×`k`), `out` (`m`×`n`).
///
/// `b` is the *un-transposed* right operand: `out[i][j] = Σₚ a[i][p]·b[j][p]`,
/// a dot product of two contiguous rows. This is the `grad_a = g·bᵀ` backward
/// rule without ever materialising `bᵀ`. Tiled over `i` and `j` so a block of
/// `b` rows stays in L1 while `BI` rows of `a` stream past it; each dot runs
/// through the multi-accumulator `dot_chunked`.
pub fn matmul_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    counters::record(2 * (m * k * n) as u64, 4 * (m * k + n * k + 2 * m * n) as u64);
    if k == 0 {
        return;
    }
    for i0 in (0..m).step_by(BI) {
        let i1 = (i0 + BI).min(m);
        for j0 in (0..n).step_by(BK) {
            let j1 = (j0 + BK).min(n);
            let bblock = b[j0 * k..j1 * k].chunks_exact(k);
            for i in i0..i1 {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n + j0..i * n + j1];
                for (o, brow) in orow.iter_mut().zip(bblock.clone()) {
                    *o += dot_chunked(arow, brow);
                }
            }
        }
    }
}

/// `out += aᵀ · b` for row-major `a` (`k`×`m`), `b` (`k`×`n`), `out` (`m`×`n`).
///
/// `a` is the *un-transposed* left operand: `out[i][j] = Σₚ a[p][i]·b[p][j]`.
/// This is the `grad_b = aᵀ·g` backward rule, computed as rank-1 updates:
/// each shared-dimension index `p` scatters `a[p][i] · b_row_p` into output
/// row `i`. Tiled over output rows so a block of `out` stays hot while the
/// `p` loop streams `a` and `b` rows through it. Like `matmul_nn`, each
/// output element accumulates in ascending `p` order.
pub fn matmul_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    counters::record(2 * (m * k * n) as u64, 4 * (k * m + k * n + 2 * m * n) as u64);
    for i0 in (0..m).step_by(BI) {
        let i1 = (i0 + BI).min(m);
        for p in 0..k {
            let arow = &a[p * m + i0..p * m + i1];
            let brow = &b[p * n..(p + 1) * n];
            for (di, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let i = i0 + di;
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook triple loop, the reference the blocked kernels must match.
    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn transpose(r: usize, c: usize, x: &[f32]) -> Vec<f32> {
        let mut t = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                t[j * r + i] = x[i * c + j];
            }
        }
        t
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // deterministic pseudo-random values with some exact zeros mixed in
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state % 7 == 0 {
                    0.0
                } else {
                    ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
                }
            })
            .collect()
    }

    // Shapes chosen to exercise every tiling edge: smaller than one block,
    // exactly one block, one-past-a-block boundary, and multi-block.
    const SHAPES: &[(usize, usize, usize)] =
        &[(1, 1, 1), (3, 5, 2), (8, 8, 8), (31, 64, 33), (32, 65, 64), (70, 70, 70), (1, 130, 1)];

    #[test]
    fn nn_matches_naive_on_all_shapes() {
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut out = vec![0.0; m * n];
            matmul_nn(m, k, n, &a, &b, &mut out);
            assert_eq!(out, naive_nn(m, k, n, &a, &b), "nn {m}x{k}x{n}");
        }
    }

    #[test]
    fn nt_matches_naive_against_explicit_transpose() {
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 3);
            let bt = fill(n * k, 4); // B stored as (n, k)
            let b = transpose(n, k, &bt); // materialised (k, n) for the reference
            let mut out = vec![0.0; m * n];
            matmul_nt(m, k, n, &a, &bt, &mut out);
            let expect = naive_nn(m, k, n, &a, &b);
            for (got, want) in out.iter().zip(&expect) {
                assert!((got - want).abs() <= 1e-5, "nt {m}x{k}x{n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn tn_matches_naive_against_explicit_transpose() {
        for &(m, k, n) in SHAPES {
            let at = fill(k * m, 5); // A stored as (k, m)
            let b = fill(k * n, 6);
            let a = transpose(k, m, &at); // materialised (m, k) for the reference
            let mut out = vec![0.0; m * n];
            matmul_tn(m, k, n, &at, &b, &mut out);
            let expect = naive_nn(m, k, n, &a, &b);
            for (got, want) in out.iter().zip(&expect) {
                assert!((got - want).abs() <= 1e-5, "tn {m}x{k}x{n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn kernels_accumulate_rather_than_overwrite() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let mut out = [10.0];
        matmul_nn(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out, [10.0 + 11.0]);
        let mut out = [1.0];
        matmul_nt(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out, [1.0 + 11.0]);
        // aᵀ(2x1)·b(1x2): out[i][j] = a[0][i]*b[0][j]
        let mut out = [0.5, 0.0, 0.0, 0.0];
        matmul_tn(2, 1, 2, &a, &b, &mut out);
        assert_eq!(out, [0.5 + 3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn dot_chunked_matches_naive_within_rounding() {
        for len in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 257] {
            let x = fill(len, 7);
            let y = fill(len, 8);
            let naive: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let got = dot_chunked(&x, &y);
            assert!(
                (got - naive).abs() <= 1e-5 * (1.0 + naive.abs()),
                "len {len}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn kernels_report_traffic() {
        let before = crate::counters::snapshot();
        let a = fill(32 * 16, 9);
        let b = fill(16 * 8, 10);
        let mut out = vec![0.0; 32 * 8];
        matmul_nn(32, 16, 8, &a, &b, &mut out);
        let after = crate::counters::snapshot();
        assert!(after.flops >= before.flops + 2 * 32 * 16 * 8);
        assert!(after.bytes > before.bytes);
    }
}
