//! The plain dense LISI (Eq. 9–12), kept as the test oracle for the blocked
//! sweep: one correlation GEMM over the Pearson-normalised rows,
//! `top_k_mean` per row and per column, and the scalar combine.
//!
//! Shared by the `htc-core` unit tests, its integration tests and the
//! workspace's `session_api` test through `#[path]` module declarations, so
//! it may use only `htc_linalg`.

#![allow(dead_code)]

use htc_linalg::ops::{mutual_argmax_pairs, pearson_normalize_rows, top_k_mean};
use htc_linalg::DenseMatrix;

/// Pearson correlation of every (source row, target row) pair.
pub fn oracle_correlation(source: &DenseMatrix, target: &DenseMatrix) -> DenseMatrix {
    let (mut source, mut target) = (source.clone(), target.clone());
    pearson_normalize_rows(&mut source);
    pearson_normalize_rows(&mut target);
    source
        .matmul_transpose(&target)
        .expect("embedding dimensions agree")
}

/// The full LISI matrix `2·corr − D_t(h_s) − D_s(h_t)` with hubness over the
/// `m` nearest cross-graph neighbours.
pub fn oracle_lisi(source: &DenseMatrix, target: &DenseMatrix, m: usize) -> DenseMatrix {
    let m = m.max(1);
    let corr = oracle_correlation(source, target);
    let (rows, cols) = corr.shape();
    let hub_source: Vec<f64> = (0..rows).map(|r| top_k_mean(corr.row(r), m)).collect();
    let hub_target: Vec<f64> = (0..cols).map(|c| top_k_mean(&corr.column(c), m)).collect();
    let mut lisi = DenseMatrix::zeros(rows, cols);
    for (r, &penalty) in hub_source.iter().enumerate() {
        for (c, &hub) in hub_target.iter().enumerate() {
            lisi.set(r, c, 2.0 * corr.get(r, c) - (penalty + hub));
        }
    }
    lisi
}

/// Trusted pairs (Eq. 12): the mutual arg-maxes of a LISI matrix, in row
/// order.
pub fn oracle_trusted_pairs(lisi: &DenseMatrix) -> Vec<(usize, usize)> {
    mutual_argmax_pairs(lisi)
}
