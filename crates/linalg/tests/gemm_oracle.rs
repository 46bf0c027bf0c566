//! Exact-bits oracle for the blocked GEMM: every ISA lane this host can run
//! must reproduce, bit for bit, the per-element sequence the kernels promise.
//!
//! For each output element and each `KC` panel the oracle chains the panel's
//! products from `0.0` in ascending-`k` order — `f64::mul_add` for the FMA
//! lanes, `a * b` then `+` for the scalar lane — and adds the panel sums to
//! `C` in panel order, the first as `0.0 + acc`.  No tolerance: a change of
//! tile shape, loop order or store path that moves a single bit fails here.
//!
//! The products run at the default thread count, so rows split across pool
//! workers are covered too.  Forcing an ISA mutates process-global dispatch
//! state, so the test holds one mutex and restores the default before
//! releasing it.

use htc_linalg::gemm::KC;
use htc_linalg::kernels::{self, Isa};
use htc_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static ISA_LOCK: Mutex<()> = Mutex::new(());

fn runnable_isas() -> Vec<Isa> {
    [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon]
        .into_iter()
        .filter(|isa| isa.supported())
        .collect()
}

fn with_isa<T>(isa: Isa, body: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            kernels::force_isa(None).expect("clearing the override cannot fail");
        }
    }
    let _restore = Restore;
    kernels::force_isa(Some(isa)).expect("caller checked support");
    body()
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

/// The promised sequence for `out[i,j] = Σ_p a(i,p) · b(p,j)`.
fn oracle(
    m: usize,
    n: usize,
    k: usize,
    fused: bool,
    a: impl Fn(usize, usize) -> f64,
    b: impl Fn(usize, usize) -> f64,
) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut c = 0.0f64;
            let mut kp = 0;
            while kp < k {
                let mut acc = 0.0f64;
                for p in kp..k.min(kp + KC) {
                    acc = if fused {
                        a(i, p).mul_add(b(p, j), acc)
                    } else {
                        acc + a(i, p) * b(p, j)
                    };
                }
                c += acc; // the first panel: 0.0 + acc
                kp += KC;
            }
            out[i * n + j] = c;
        }
    }
    out
}

fn assert_bits(got: &DenseMatrix, expected: &[f64], label: &str) {
    assert_eq!(got.data().len(), expected.len(), "{label}: shape");
    for (idx, (x, y)) in got.data().iter().zip(expected).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {idx} is {x:e}, the oracle gives {y:e}"
        );
    }
}

/// `(m, n)` per `k`, ragged against the 8×16 and 4×8 tiles (m ≡ 3 mod 8,
/// n ≡ 5 mod 16) and at least twice the 64k-multiply-add small-product
/// cutoff, so the blocked kernels run.
fn shapes() -> Vec<(usize, usize, usize)> {
    [1, KC - 1, KC, KC + 1, 2 * KC + 5]
        .into_iter()
        .map(|k| if k == 1 { (371, 357, k) } else { (43, 21, k) })
        .collect()
}

#[test]
fn every_lane_matches_the_oracle_for_all_four_layouts() {
    let _guard = ISA_LOCK.lock().unwrap();
    for (m, n, k) in shapes() {
        let a = random_matrix(m, k, (m * 31 + k) as u64);
        let at = random_matrix(k, m, (m * 37 + k) as u64);
        let b = random_matrix(k, n, (n * 41 + k) as u64);
        let bt = random_matrix(n, k, (n * 43 + k) as u64);
        // A Gram operand with at least as many columns as the ragged m, so
        // its d × d output also clears the small-product cutoff.
        let d = if k == 1 { 371 } else { 43 };
        let g = random_matrix(k, d, (d * 47 + k) as u64);
        for isa in runnable_isas() {
            let fused = kernels::kernel_set(isa).unwrap().gemm_uses_fma;
            let label = |op: &str| format!("{isa:?} {op} m={m} n={n} k={k}");

            let got = with_isa(isa, || a.matmul(&b).unwrap());
            let want = oracle(m, n, k, fused, |i, p| a.get(i, p), |p, j| b.get(p, j));
            assert_bits(&got, &want, &label("A·B"));

            let got = with_isa(isa, || at.transposed_matmul(&b).unwrap());
            let want = oracle(m, n, k, fused, |i, p| at.get(p, i), |p, j| b.get(p, j));
            assert_bits(&got, &want, &label("Aᵀ·B"));

            let got = with_isa(isa, || a.matmul_transpose(&bt).unwrap());
            let want = oracle(m, n, k, fused, |i, p| a.get(i, p), |p, j| bt.get(j, p));
            assert_bits(&got, &want, &label("A·Bᵀ"));

            let got = with_isa(isa, || g.gram());
            let want = oracle(d, d, k, fused, |i, p| g.get(p, i), |p, j| g.get(p, j));
            assert_bits(&got, &want, &label("AᵀA"));
        }
    }
}
