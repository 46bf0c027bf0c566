//! Kernel probes for traced runs: isolated calls into the public kernels of
//! `htc-linalg`, `htc-nn`, `htc-orbits` and `htc-core::lisi`, at shapes taken
//! from the workload's own staged artifacts.  Each `kernel.*_ms` is the
//! median over repeated calls; GFLOP/s figures use computed flop counts
//! (2·m·n·k for GEMM, 2·nnz·d for SpMM), not hardware counters.

use crate::stats::{median, Metrics};
use htc_core::lisi::{
    default_block_rows, lisi_matrix_into, lisi_topk, BlockedLisiScratch, LisiScratch,
};
use htc_graph::Graph;
use htc_linalg::{CsrMatrix, DenseMatrix};
use htc_nn::activation::Activation;
use htc_nn::adam::Adam;
use htc_nn::encoder::{BackwardScratch, ForwardCache};
use htc_nn::loss::{reconstruction_loss_and_grad_into, LossScratch};
use htc_nn::GcnEncoder;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Node count of the induced subgraph the `large-20k` orbit-count probe
/// uses (the Large tier itself never counts 4-node orbits).
pub const LARGE_ORBIT_NODES: usize = 2_000;
/// Time spent repeating each probe after its first call.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
const MIN_CALLS: usize = 3;

pub struct ProbeInputs {
    /// Encoder input features (`n × d_in`).
    pub features: DenseMatrix,
    /// A propagator over the same `n` nodes.
    pub laplacian: CsrMatrix,
    pub encoder: GcnEncoder,
    pub graph: Graph,
    pub lisi_source: DenseMatrix,
    pub lisi_target: DenseMatrix,
    pub nearest: usize,
    pub top_k: usize,
}

/// Median milliseconds per call of `f`: one warm-up call, then calls until
/// the budget is spent (at least [`MIN_CALLS`], or exactly one call when
/// the warm-up alone took longer than the budget).
fn time_ms(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let first = start.elapsed();
    if first > PROBE_BUDGET {
        return first.as_secs_f64() * 1e3;
    }
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < MIN_CALLS || begin.elapsed() < PROBE_BUDGET {
        let call = Instant::now();
        f();
        samples.push(call.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

pub fn run(inputs: &ProbeInputs) -> Metrics {
    let mut m = Metrics::default();
    let features = &inputs.features;
    let laplacian = &inputs.laplacian;
    let encoder = &inputs.encoder;
    let w0 = &encoder.weights()[0];
    let (n, d_in) = features.shape();
    let hidden = w0.cols();

    let mut z = DenseMatrix::zeros(0, 0);
    let gemm_ms = time_ms(|| {
        features
            .matmul_into(black_box(w0), &mut z)
            .expect("shapes agree");
        black_box(&z);
    });
    m.set("kernel.gemm_ms", gemm_ms, "ms");
    m.set(
        "kernel.gemm_gflops",
        2.0 * (n * d_in * hidden) as f64 / (gemm_ms * 1e6),
        "GFLOP/s",
    );

    let mut propagated = DenseMatrix::zeros(0, 0);
    let spmm_ms = time_ms(|| {
        laplacian
            .matmul_dense_into(black_box(features), &mut propagated)
            .expect("shapes agree");
        black_box(&propagated);
    });
    m.set("kernel.spmm_ms", spmm_ms, "ms");
    m.set(
        "kernel.spmm_gflops",
        2.0 * (laplacian.nnz() * d_in) as f64 / (spmm_ms * 1e6),
        "GFLOP/s",
    );

    let mut h = DenseMatrix::zeros(0, 0);
    m.set(
        "kernel.tanh_fwd_ms",
        time_ms(|| {
            Activation::Tanh.apply_into(black_box(&z), &mut h);
            black_box(&h);
        }),
        "ms",
    );
    let mut dz = DenseMatrix::zeros(0, 0);
    m.set(
        "kernel.tanh_bwd_ms",
        time_ms(|| {
            Activation::Tanh.backprop_into(black_box(&z), &h, &mut dz);
            black_box(&dz);
        }),
        "ms",
    );

    let mut cache = ForwardCache::new();
    m.set(
        "kernel.encoder_fwd_ms",
        time_ms(|| {
            encoder
                .forward_cached_into(laplacian, black_box(features), &mut cache)
                .expect("shapes agree");
            black_box(&cache);
        }),
        "ms",
    );
    let embedding = cache.output().clone();
    let mut grad = DenseMatrix::zeros(0, 0);
    let mut loss_scratch = LossScratch::new();
    m.set(
        "kernel.loss_grad_ms",
        time_ms(|| {
            black_box(reconstruction_loss_and_grad_into(
                laplacian,
                black_box(&embedding),
                &mut grad,
                &mut loss_scratch,
            ));
        }),
        "ms",
    );
    let mut grads: Vec<DenseMatrix> = encoder
        .weights()
        .iter()
        .map(|w| DenseMatrix::zeros(w.rows(), w.cols()))
        .collect();
    let mut backward = BackwardScratch::new();
    m.set(
        "kernel.encoder_bwd_ms",
        time_ms(|| {
            encoder
                .backward_into(
                    laplacian,
                    &cache,
                    black_box(&grad),
                    &mut grads,
                    &mut backward,
                )
                .expect("shapes agree");
            black_box(&grads);
        }),
        "ms",
    );
    let mut params = encoder.weights().to_vec();
    let mut adam = Adam::for_parameters(1e-9, &params);
    m.set(
        "kernel.adam_ms",
        time_ms(|| {
            adam.step(&mut params, black_box(&grads));
            black_box(&params);
        }),
        "ms",
    );

    let mut lisi_scratch = LisiScratch::new();
    let mut lisi = DenseMatrix::zeros(0, 0);
    m.set(
        "kernel.lisi_dense_ms",
        time_ms(|| {
            lisi_matrix_into(
                black_box(&inputs.lisi_source),
                &inputs.lisi_target,
                inputs.nearest,
                &mut lisi_scratch,
                &mut lisi,
            );
            black_box(&lisi);
        }),
        "ms",
    );
    drop((lisi, lisi_scratch));
    let mut blocked_scratch = BlockedLisiScratch::new();
    let block_rows = default_block_rows(inputs.lisi_target.rows());
    m.set(
        "kernel.lisi_blocked_ms",
        time_ms(|| {
            black_box(lisi_topk(
                black_box(&inputs.lisi_source),
                &inputs.lisi_target,
                inputs.nearest,
                inputs.top_k,
                block_rows,
                &mut blocked_scratch,
            ));
        }),
        "ms",
    );
    m.set(
        "kernel.orbit_count_ms",
        time_ms(|| {
            black_box(htc_orbits::count_edge_orbits(black_box(&inputs.graph)));
        }),
        "ms",
    );
    m
}
