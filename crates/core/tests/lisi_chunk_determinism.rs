//! Chunk-count × ISA invariance of the parallel blocked LISI sweep.
//!
//! The multi-threaded sweep of `lisi_sweep` partitions row blocks into
//! chunks and merges chunk-partial state in ascending chunk order; the
//! determinism contract says neither the chunk count nor the instruction set
//! may influence a single result bit.  This test cross-checks every chunk
//! split, for the top-k sink and the dense integration sink, against the
//! plain dense LISI oracle under both the machine's best ISA and the
//! forced-scalar kernels.
//!
//! It lives in its own integration-test binary because `force_isa` mutates
//! process-global kernel dispatch: as the only test here, nothing races the
//! override.

#[path = "support/lisi_oracle.rs"]
mod lisi_oracle;

use htc_core::lisi::{lisi_sweep, BlockedLisiScratch, RowSink, SweepControl};
use htc_linalg::kernels::force_isa;
use htc_linalg::ops::row_argmax;
use htc_linalg::{DenseMatrix, Isa};
use lisi_oracle::{oracle_lisi, oracle_trusted_pairs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// γ weights of a run of orbits sharing one pair of embeddings.
const WEIGHTS: [f64; 2] = [0.3125, 0.75];

fn random_embedding(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(n, d, data).unwrap()
}

/// All observable outputs of one configuration, with scores as raw bits:
/// retained top-k rows, row arg-maxes, trusted pairs, and the bits of a
/// γ-weighted accumulation.
type Fingerprint = (
    Vec<Vec<(usize, u64)>>,
    Vec<usize>,
    Vec<(usize, usize)>,
    Vec<u64>,
);

fn fingerprint(
    hs: &DenseMatrix,
    ht: &DenseMatrix,
    m: usize,
    k: usize,
    block: usize,
    chunks: usize,
    cache_bytes: usize,
) -> Fingerprint {
    let mut scratch = BlockedLisiScratch::new();
    let control = SweepControl {
        corr_cache_bytes: cache_bytes,
        chunks: Some(chunks),
        progress: None,
    };
    let blocked = lisi_sweep(hs, ht, m, block, RowSink::TopK(k), &mut scratch, &control).unwrap();
    let topk = blocked.topk.as_ref().unwrap();
    let rows = (0..topk.rows())
        .map(|r| topk.row(r).map(|(c, v)| (c, v.to_bits())).collect())
        .collect();
    let mut accum = DenseMatrix::zeros(hs.rows(), ht.rows());
    let integrated = lisi_sweep(
        hs,
        ht,
        m,
        block,
        RowSink::Accumulate(&mut accum, &WEIGHTS),
        &mut scratch,
        &control,
    )
    .unwrap();
    assert_eq!(integrated.trusted_pairs(), blocked.trusted_pairs());
    let accum = accum.data().iter().map(|v| v.to_bits()).collect();
    (
        rows,
        blocked.row_best().to_vec(),
        blocked.trusted_pairs(),
        accum,
    )
}

#[test]
fn sweep_bits_survive_chunking_and_forced_scalar_isa() {
    let (ns, nt, d, m, k, block) = (34, 21, 5, 4, 6, 3);
    let hs = random_embedding(ns, d, 77);
    let ht = random_embedding(nt, d, 78);

    // Reference on the machine's best ISA: the dense oracle, plus the
    // single-chunk sweep checked against it entry by entry.
    let dense = oracle_lisi(&hs, &ht, m);
    let native = fingerprint(&hs, &ht, m, k, block, 1, 0);
    for (r, row) in native.0.iter().enumerate() {
        for &(c, bits) in row {
            assert_eq!(bits, dense.get(r, c).to_bits(), "LISI({r},{c})");
        }
    }
    assert_eq!(native.1, row_argmax(&dense));
    assert_eq!(native.2, oracle_trusted_pairs(&dense));
    let mut integrated = DenseMatrix::zeros(ns, nt);
    for &w in &WEIGHTS {
        integrated.add_scaled_inplace(&dense, w).unwrap();
    }
    let integrated: Vec<u64> = integrated.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(native.3, integrated);

    // Chunk counts and cache budgets never change a bit on the native ISA.
    for chunks in [2usize, 3, 7, 12] {
        for cache in [0usize, 1 << 14, usize::MAX] {
            assert_eq!(
                fingerprint(&hs, &ht, m, k, block, chunks, cache),
                native,
                "native ISA, chunks={chunks}, cache={cache}"
            );
        }
    }

    // Forced-scalar kernels reproduce the same bits for every chunk split —
    // the combine-argmax / threshold-scan / AXPY kernels are scalar-pinned
    // just like the GEMM.
    force_isa(Some(Isa::Scalar)).expect("scalar is always available");
    let result = std::panic::catch_unwind(|| {
        for chunks in [1usize, 3, 12] {
            assert_eq!(
                fingerprint(&hs, &ht, m, k, block, chunks, usize::MAX),
                native,
                "scalar ISA, chunks={chunks}"
            );
        }
    });
    force_isa(None).expect("clearing the override never fails");
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}
