//! Cache-blocked, register-tiled dense matrix-multiply driver.
//!
//! The four dense products the pipeline spends its time in — `A·B`, `Aᵀ·B`,
//! `A·Bᵀ` and `AᵀA` — all route through one blocked GEMM driver:
//!
//! * the inner dimension is processed in `KC`-sized panels so the packed
//!   operand stays resident in cache while it is reused;
//! * the B panel is packed once per k-panel into `NR`-wide column slabs
//!   (contiguous `kc × NR` blocks that the micro-kernel streams from L1);
//! * A is never packed: it is described by a row and a column stride
//!   ([`StridedA`]) and the micro-kernel broadcasts each element straight
//!   from the caller's storage, so `A` and `Aᵀ` cost the same;
//! * an `MR×NR` register-tiled micro-kernel accumulates the tile and writes
//!   it into the output itself.
//!
//! The micro-kernel — and with it the `MR`/`NR` tile shape the B slabs are
//! packed for — is **selected at runtime** from [`crate::kernels`]: explicit
//! AVX-512 (8×16), AVX2+FMA (4×8) or NEON (8×4) kernels where the host
//! supports them, a scalar 4×8 fallback everywhere (see the `kernels` module
//! docs for the dispatch and accuracy contract).
//!
//! **Determinism.** For any fixed output element the contributions of one
//! `KC` panel are chained in ascending-`k` order from `0.0` — one (possibly
//! fused) multiply-add per step — and the panel sums are added to the output
//! in panel order (the first panel stores `0.0 + acc`).  That sequence does
//! not depend on how rows are distributed over threads, where the element
//! falls in a tile or how large the tile is, so results are bit-identical
//! for every thread count (including `HTC_NUM_THREADS=1`) under a fixed ISA.
//!
//! The packing closure `b_at` abstracts the memory layout of B, which is how
//! the same driver serves `A·B` (row-major B), `A·Bᵀ` (B indexed transposed)
//! and `AᵀA` (both operands read from the same buffer) without materialising
//! any transpose.

use crate::kernels::{self, GemmTile, KernelSet};
use crate::parallel::parallel_rows_mut;
use std::cell::RefCell;

/// Inner-dimension panel size (packed B panels span `KC` k-steps).
pub const KC: usize = 256;
/// Row-block size each worker sweeps every B slab over (`MC × KC` doubles of
/// A ≈ 128 KiB, comfortably inside L2).
pub const MC: usize = 64;

thread_local! {
    /// Per-thread packed-B buffer; only the thread driving a product uses it.
    /// Thread-locals make repeated products allocation-free.
    static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The left operand of a product, read in place: element `(i, p)` is
/// `data[i * row_stride + p * col_stride]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StridedA<'a> {
    pub data: &'a [f64],
    pub row_stride: usize,
    pub col_stride: usize,
}

impl StridedA<'_> {
    #[inline]
    fn at(&self, i: usize, p: usize) -> f64 {
        self.data[i * self.row_stride + p * self.col_stride]
    }
}

/// Packs the B panel `k ∈ [kp, kp+kc), j ∈ [0, n)` into `nr`-wide slabs for
/// the selected kernel (`nr = kernels::active().nr`).
///
/// Slab `s` occupies `pb[s*kc*nr ..][p*nr + j]`; tail columns are zero-padded
/// so the micro-kernel never branches on shape.
#[inline]
fn pack_b<FB: Fn(usize, usize) -> f64>(
    pb: &mut Vec<f64>,
    b_at: &FB,
    kp: usize,
    kc: usize,
    n: usize,
    nr: usize,
) {
    let slabs = n.div_ceil(nr);
    pb.clear();
    pb.resize(slabs * kc * nr, 0.0);
    for s in 0..slabs {
        let j0 = s * nr;
        let cols = nr.min(n - j0);
        let slab = &mut pb[s * kc * nr..(s + 1) * kc * nr];
        for p in 0..kc {
            let row = &mut slab[p * nr..p * nr + nr];
            for (j, slot) in row[..cols].iter_mut().enumerate() {
                *slot = b_at(kp + p, j0 + j);
            }
            // Tail lanes stay zero from the resize above.
        }
    }
}

/// Blocked GEMM driver: `out[i,j] = Σ_p a(i,p) · b_at(p,j)`.
///
/// `out` must be an `m × n` row-major buffer; it is fully overwritten.
/// Parallelised over output row chunks via the persistent pool; see the
/// module docs for the determinism argument.
pub(crate) fn gemm_into<FB>(
    m: usize,
    n: usize,
    k: usize,
    a: StridedA<'_>,
    b_at: FB,
    out: &mut [f64],
) where
    FB: Fn(usize, usize) -> f64 + Sync,
{
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        // Zero-dimension products are a cheap no-op: the output is all
        // zeros, and the packing machinery (which would compute zero-sized
        // slabs) is never entered.
        out.fill(0.0);
        return;
    }
    // Small products skip the packing machinery entirely: below ~64k
    // multiply-adds the pack/tile bookkeeping costs more than it saves, and
    // these shapes (per-layer products on small graphs, tiny test matrices)
    // are latency- not throughput-bound.  This axpy-form loop is not the
    // micro-kernel's sequence: it adds each rounded product straight into
    // the output (no fused multiply-add, no per-panel partial sums), in
    // ascending-k order, and skips zero lhs entries (common for one-hot
    // attribute matrices).
    const SMALL_PRODUCT_MADDS: usize = 1 << 16;
    if m * n * k <= SMALL_PRODUCT_MADDS {
        out.fill(0.0);
        for i in 0..m {
            let row = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let a = a.at(i, p);
                if a == 0.0 {
                    continue;
                }
                for (j, o) in row.iter_mut().enumerate() {
                    *o += a * b_at(p, j);
                }
            }
        }
        return;
    }
    // Resolve the dispatch once per product; tile geometry and the kernel
    // stay consistent for the whole call even if a test re-forces the ISA
    // concurrently.
    let ks: &'static KernelSet = kernels::active();
    let (mr, nr) = (ks.mr, ks.nr);
    let slabs = n.div_ceil(nr);
    PACK_B.with(|pb_cell| {
        let mut pb = pb_cell.borrow_mut();
        let mut kp = 0;
        while kp < k {
            let kc = KC.min(k - kp);
            pack_b(&mut pb, &b_at, kp, kc, n, nr);
            let pb_ref: &[f64] = &pb;
            // The first panel overwrites the output, later ones add to it.
            let accumulate = kp > 0;
            let a_panel = &a.data[kp * a.col_stride..];
            parallel_rows_mut(out, n, |start_row, chunk| {
                let rows = chunk.len() / n;
                // Sweep every B slab over an MC-row block of A so the block
                // stays in L2 while the slab stays in L1.
                let mut b0 = 0;
                while b0 < rows {
                    let mb = MC.min(rows - b0);
                    for s in 0..slabs {
                        let j0 = s * nr;
                        let slab = &pb_ref[s * kc * nr..(s + 1) * kc * nr];
                        let mut r0 = b0;
                        while r0 < b0 + mb {
                            (ks.gemm)(&mut GemmTile {
                                a: &a_panel[(start_row + r0) * a.row_stride..],
                                a_row_stride: a.row_stride,
                                a_col_stride: a.col_stride,
                                b: slab,
                                kc,
                                c: &mut chunk[r0 * n + j0..],
                                ldc: n,
                                rows: mr.min(b0 + mb - r0),
                                cols: nr.min(n - j0),
                                accumulate,
                            });
                            r0 += mr;
                        }
                    }
                    b0 += mb;
                }
            });
            kp += kc;
        }
    });
}

/// Reference (unblocked, single-threaded) `A·B`, kept as the ground truth for
/// property tests and as the baseline the criterion benches compare against.
pub fn reference_matmul(m: usize, k: usize, n: usize, lhs: &[f64], rhs: &[f64], out: &mut [f64]) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    if n == 0 {
        return;
    }
    for r in 0..m {
        let lhs_row = &lhs[r * k..(r + 1) * k];
        let out_row = &mut out[r * n..(r + 1) * n];
        for (p, &a) in lhs_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let rhs_row = &rhs[p * n..(p + 1) * n];
            for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                *o += a * b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: usize, n: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        (0..m * n).map(|i| f(i / n, i % n)).collect()
    }

    #[test]
    fn blocked_matches_reference_on_odd_shapes() {
        // Shapes straddle every block boundary for every ISA's tile shape
        // (mr ≤ 8, nr ≤ 16, MC = 64, KC = 256).
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 1),
            (3, 300, 5),
            (8, KC, 8),
            (9, KC + 1, 9),
            (65, 17, 9),
            (2 * MC + 3, 2 * KC + 5, 31),
        ] {
            let a = dense(m, k, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
            let b = dense(k, n, |r, c| ((r * 11 + c * 3) % 17) as f64 - 8.0);
            let mut blocked = vec![0.0; m * n];
            let mut reference = vec![0.0; m * n];
            let lhs = StridedA {
                data: &a,
                row_stride: k,
                col_stride: 1,
            };
            gemm_into(m, n, k, lhs, |p, j| b[p * n + j], &mut blocked);
            reference_matmul(m, k, n, &a, &b, &mut reference);
            for (x, y) in blocked.iter().zip(&reference) {
                assert!((x - y).abs() < 1e-9, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn empty_dimensions_produce_zeros() {
        let none = StridedA {
            data: &[],
            row_stride: 0,
            col_stride: 0,
        };
        let mut out = vec![1.0; 6];
        gemm_into(2, 3, 0, none, |_, _| unreachable!(), &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
        let mut empty: Vec<f64> = Vec::new();
        gemm_into(0, 3, 4, none, |_, _| 1.0, &mut empty);
        gemm_into(3, 0, 4, none, |_, _| 1.0, &mut empty);
    }
}
