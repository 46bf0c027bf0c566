//! Element-wise activation functions and their derivatives.
//!
//! `tanh` and the sigmoid are computed in this module from IEEE arithmetic
//! alone rather than by the platform's libm, so trained weights do not
//! depend on the host they were trained on.

use htc_linalg::DenseMatrix;

/// Activation functions supported by the GCN encoder.
///
/// The paper's encoder uses smooth non-linearities between layers; `Tanh` is
/// the default because the reconstruction target (a normalised Laplacian) has
/// entries in `[0, 1]` and the embedding similarities live most naturally in
/// `[-1, 1]`.  `Identity` is used for ablations and for linear output layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = tanh(x)` (default).
    #[default]
    Tanh,
    /// `f(x) = 1 / (1 + e^{ -x })`.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => relu(x),
            Activation::Tanh => tanh(x),
            Activation::Sigmoid => sigmoid(x),
        }
    }

    /// Derivative `f'` expressed in terms of the activation's *output*
    /// `h = f(x)`: `1` for identity, `h > 0` for ReLU, `1 − h²` for tanh and
    /// `h(1 − h)` for sigmoid.  Backprop reads `h` from the forward cache, so
    /// it never evaluates the activation a second time.
    #[inline]
    pub fn derivative_from_output(self, h: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if h > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - h * h,
            Activation::Sigmoid => h * (1.0 - h),
        }
    }

    /// Applies the activation element-wise to a matrix.
    pub fn apply(self, m: &DenseMatrix) -> DenseMatrix {
        let mut out = m.clone();
        self.apply_in_place(&mut out);
        out
    }

    /// Applies the activation element-wise, writing into `out` (resized as
    /// needed, reusing its allocation).
    pub fn apply_into(self, m: &DenseMatrix, out: &mut DenseMatrix) {
        // One loop per arm, with the `match` outside the element loop: each
        // body is branch-free, so LLVM vectorizes it for the build's target
        // CPU, and the lanes compute the same bits as `apply_scalar`.
        match self {
            Activation::Identity => out.copy_from(m),
            Activation::Relu => out.map_from(m, relu),
            Activation::Tanh => out.map_from(m, tanh),
            Activation::Sigmoid => out.map_from(m, sigmoid),
        }
    }

    /// Applies the activation element-wise in place — the encoder's forward
    /// pass turns each layer's pre-activation `Z_l` into `H^l` this way.
    pub fn apply_in_place(self, m: &mut DenseMatrix) {
        // Loops shaped as in `apply_into`.
        match self {
            Activation::Identity => {}
            Activation::Relu => m.map_inplace(relu),
            Activation::Tanh => m.map_inplace(tanh),
            Activation::Sigmoid => m.map_inplace(sigmoid),
        }
    }

    /// Fused backprop step: `dz[i] = grad_out[i] * f'(x[i])` in one
    /// traversal, writing into `dz` (resized as needed).  `f'` is taken from
    /// the activated `output[i] = f(x[i])` of the forward pass (see
    /// [`Activation::derivative_from_output`]).
    ///
    /// `Identity` and `Relu` route through the ISA-dispatched kernels in
    /// `htc_linalg::kernels` (a copy and a masked select — bit-identical to
    /// the scalar loop on every ISA; `relu(x) > 0` exactly when `x > 0`).
    /// `Tanh` and `Sigmoid` are plain element loops of `+ − ×`, which LLVM
    /// vectorizes without changing a bit.
    ///
    /// # Panics
    /// Panics if the two input shapes differ.
    pub fn backprop_into(self, output: &DenseMatrix, grad_out: &DenseMatrix, dz: &mut DenseMatrix) {
        assert_eq!(
            output.shape(),
            grad_out.shape(),
            "activation output and output gradient must have the same shape"
        );
        let (rows, cols) = grad_out.shape();
        match self {
            Activation::Identity => dz.copy_from(grad_out),
            Activation::Relu => {
                // Shape only — the kernel writes every element of dz.
                dz.resize_for_overwrite(rows, cols);
                (htc_linalg::kernels::active().relu_backprop)(
                    output.data(),
                    grad_out.data(),
                    dz.data_mut(),
                );
            }
            Activation::Tanh => {
                dz.resize_for_overwrite(rows, cols);
                scale_by_derivative(output, grad_out, dz, |h| {
                    Activation::Tanh.derivative_from_output(h)
                });
            }
            Activation::Sigmoid => {
                dz.resize_for_overwrite(rows, cols);
                scale_by_derivative(output, grad_out, dz, |h| {
                    Activation::Sigmoid.derivative_from_output(h)
                });
            }
        }
    }
}

/// `dz[i] = grad_out[i] * derivative(output[i])` over same-shape matrices.
#[inline(always)]
fn scale_by_derivative(
    output: &DenseMatrix,
    grad_out: &DenseMatrix,
    dz: &mut DenseMatrix,
    derivative: impl Fn(f64) -> f64,
) {
    for ((d, &h), &g) in dz
        .data_mut()
        .iter_mut()
        .zip(output.data())
        .zip(grad_out.data())
    {
        *d = g * derivative(h);
    }
}

#[inline(always)]
fn relu(x: f64) -> f64 {
    x.max(0.0)
}

// IEEE-only `tanh` and sigmoid.
//
// Determinism rule: the code below uses only IEEE `+ − × ÷` (each correctly
// rounded), magic-number rounding, exponent-bit scaling and branch-free
// selects.  There is no FMA — Rust never contracts `a * b + c` into one —
// and no libm call.  An auto-vectorized loop runs the same operations in
// the same order in every lane and in its scalar remainder, so the result
// bits are the same for every vector width, ISA and host.

/// `1.5 · 2^52`: adding it to a float of magnitude below `2^51` rounds that
/// float to an integer (ties to even) held in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// `ln 2` in two parts: `LN2_HI` has 32 significant bits, so `k · LN2_HI` is
/// exact for `|k| < 2^11`, and `LN2_HI + LN2_LO` is `ln 2` to within 2⁻⁸⁵.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// Taylor coefficients `1/n!` of `expm1` for `n = 2 ..= 13`.  On
/// `|r| ≤ ln2/2` the first omitted term is below 2⁻⁵⁶ of the result.
const EXPM1_TAYLOR: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// The shared `expm1` core: splits `y = k·ln2 + r` with `k` integral and
/// `|r| ≲ ln2/2`, and returns `(k, expm1(r))`, so that
/// `e^y = 2^k · (1 + expm1(r))`.  Requires `|y| < 1400`; a NaN `y` gives a
/// NaN `expm1(r)`.
#[inline(always)]
fn expm1_core(y: f64) -> (f64, f64) {
    let k = (y * std::f64::consts::LOG2_E + ROUND_MAGIC) - ROUND_MAGIC;
    // Both products are exact and `y − k·LN2_HI` cancels exactly (Sterbenz),
    // so `r` carries a single rounding.
    let r = (y - k * LN2_HI) - k * LN2_LO;
    let mut q = EXPM1_TAYLOR[EXPM1_TAYLOR.len() - 1];
    for &c in EXPM1_TAYLOR[..EXPM1_TAYLOR.len() - 1].iter().rev() {
        q = q * r + c;
    }
    (k, r + (r * r) * q)
}

/// `2^k` for an integral `k` with `k + 1023` in `[1, 2046]`: the magic add
/// leaves `k` in the low mantissa bits, and the shift moves its low twelve
/// bits into the exponent field.
#[inline(always)]
fn pow2(k: f64) -> f64 {
    f64::from_bits(((k + ROUND_MAGIC).to_bits() << 52).wrapping_add(1023 << 52))
}

/// `tanh(x) = sign(x) · e / (e + 2)` with `e = expm1(2|x|)`.
#[inline(always)]
fn tanh(x: f64) -> f64 {
    // Past |x| = 22 the quotient rounds to 1.  The `>` select keeps NaN,
    // which compares false.
    let a = x.abs();
    let a = if a > 22.0 { 22.0 } else { a };
    let (k, p) = expm1_core(2.0 * a);
    let s = pow2(k);
    // expm1(2a) = 2^k·p + (2^k − 1); `k ≥ 0` here, so `s − 1` is exact up
    // to k = 53.
    let e = s * p + (s - 1.0);
    (e / (e + 2.0)).copysign(x)
}

/// `σ(x) = 1 / (1 + E)` for `x ≥ 0` and `E / (1 + E)` below, with
/// `E = e^{−|x|}` in `[0, 1]`.
#[inline(always)]
fn sigmoid(x: f64) -> f64 {
    // e^{−746} rounds to 0.  The `<` select keeps NaN.
    let y = -x.abs();
    let y = if y < -746.0 { -746.0 } else { y };
    let (k, p) = expm1_core(y);
    // k ≥ −1076 may lie below the normal exponent range: scale by 2^(k+60)
    // (always normal) and then by the exact 2⁻⁶⁰, so a subnormal `E` is
    // rounded only once.
    let s = pow2(k + 60.0);
    let e = (s + s * p) * f64::from_bits(0x3C30_0000_0000_0000);
    let numerator = if x < 0.0 { e } else { 1.0 };
    numerator / (1.0 + e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_values() {
        assert_eq!(Activation::Identity.apply_scalar(-2.5), -2.5);
        assert_eq!(Activation::Relu.apply_scalar(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(2.0), 2.0);
        assert!((Activation::Tanh.apply_scalar(0.0)).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply_scalar(0.0) - 0.5).abs() < 1e-12);
    }

    const ALL: [Activation; 4] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    /// The pre-activation form of `f'` that backprop used before it read the
    /// cached output — kept as the oracle for `derivative_from_output`.
    fn derivative_at_pre_activation(act: Activation, x: f64) -> f64 {
        match act {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = Activation::Tanh.apply_scalar(x);
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = Activation::Sigmoid.apply_scalar(x);
                s * (1.0 - s)
            }
        }
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for act in ALL {
            for &x in &[-1.7, -0.3, 0.4, 1.9] {
                let numeric = (act.apply_scalar(x + eps) - act.apply_scalar(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(act.apply_scalar(x));
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn matrix_application() {
        let m = DenseMatrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        let relu = Activation::Relu.apply(&m);
        assert_eq!(relu.data(), &[0.0, 0.0, 2.0]);
        let grad = relu.map(|h| Activation::Relu.derivative_from_output(h));
        assert_eq!(grad.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn fused_backprop_matches_two_pass() {
        let z = DenseMatrix::from_vec(2, 2, vec![-1.0, 0.5, 2.0, -0.2]).unwrap();
        let g = DenseMatrix::from_vec(2, 2, vec![0.3, -0.7, 1.1, 0.9]).unwrap();
        for act in ALL {
            let h = act.apply(&z);
            let derivative = h.map(|v| act.derivative_from_output(v));
            let two_pass = g.hadamard(&derivative).unwrap();
            let mut fused = DenseMatrix::zeros(0, 0);
            act.backprop_into(&h, &g, &mut fused);
            assert!(fused.approx_eq(&two_pass, 0.0), "{act:?}");
        }
    }

    /// Backprop from the cached output gives the same bits as the
    /// pre-activation formula, on random and special inputs.
    #[test]
    fn output_form_backprop_matches_pre_activation_form() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut xs: Vec<f64> = (0..4000)
            .map(|i| {
                let scale = [1e-300, 1e-8, 0.5, 3.0, 30.0, 800.0][i % 6];
                rng.gen_range(-1.0..1.0) * scale
            })
            .collect();
        xs.extend([
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]);
        let n = xs.len();
        let z = DenseMatrix::from_vec(1, n, xs).unwrap();
        let g =
            DenseMatrix::from_vec(1, n, (0..n).map(|i| 0.25 + i as f64 * 1e-3).collect()).unwrap();
        for act in ALL {
            let h = act.apply(&z);
            let mut dz = DenseMatrix::zeros(0, 0);
            act.backprop_into(&h, &g, &mut dz);
            for i in 0..n {
                let (x, hv) = (z.data()[i], h.data()[i]);
                let old = derivative_at_pre_activation(act, x);
                assert!(
                    same_bits(act.derivative_from_output(hv), old),
                    "{act:?} f' at {x:e}"
                );
                assert!(
                    same_bits(dz.data()[i], g.data()[i] * old),
                    "{act:?} backprop at {x:e}"
                );
            }
        }
    }

    /// Distance in units in the last place, counted over the ordered doubles
    /// (`-0.0` and `0.0` are one apart).
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    /// Dense sweep of `[-25, 25]` plus magnitudes down to 1e-300.
    fn accuracy_inputs() -> Vec<f64> {
        let steps = 1 << 20;
        let mut xs: Vec<f64> = (0..=steps)
            .map(|i| -25.0 + 50.0 * i as f64 / steps as f64)
            .collect();
        for exponent in 0..=300 {
            for mantissa in [1.0, 1.234_567_890_123, 3.3, 7.777_777, 9.999_999_999] {
                let x = mantissa * 10f64.powi(-exponent);
                xs.extend([x, -x]);
            }
        }
        xs
    }

    #[test]
    fn tanh_is_within_4_ulp_of_libm() {
        let mut worst = (0, 0.0);
        for x in accuracy_inputs() {
            let d = ulps(Activation::Tanh.apply_scalar(x), x.tanh());
            if d > worst.0 {
                worst = (d, x);
            }
        }
        eprintln!("tanh worst {worst:?}");
        assert!(
            worst.0 <= 4,
            "tanh is {} ulp from libm at {:e}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn sigmoid_is_within_4_ulp_of_libm() {
        let mut worst = (0, 0.0);
        for x in accuracy_inputs() {
            let libm = 1.0 / (1.0 + (-x).exp());
            let d = ulps(Activation::Sigmoid.apply_scalar(x), libm);
            if d > worst.0 {
                worst = (d, x);
            }
        }
        eprintln!("sigmoid worst {worst:?}");
        assert!(
            worst.0 <= 4,
            "sigmoid is {} ulp from libm at {:e}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn tanh_and_sigmoid_special_values() {
        let tanh = |x| Activation::Tanh.apply_scalar(x);
        let sigmoid = |x| Activation::Sigmoid.apply_scalar(x);
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert!(tanh(f64::NAN).is_nan());
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        assert_eq!(sigmoid(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert!(sigmoid(f64::NAN).is_nan());
        // Deep in the negative tail the sigmoid is e^x, subnormals included.
        for x in [-700.0f64, -720.0, -740.0] {
            assert!(ulps(sigmoid(x), x.exp()) <= 4, "sigmoid({x})");
        }
    }

    /// Pinned result bits: a host, ISA or compiler that moves one bit of
    /// the activations (and so of every trained encoder) fails here.
    #[test]
    fn tanh_and_sigmoid_golden_bits() {
        const GOLDEN: [(f64, u64, u64); 32] = [
            (0.0, 0x0000000000000000, 0x3FE0000000000000),
            (-0.0, 0x8000000000000000, 0x3FE0000000000000),
            (5e-324, 0x0000000000000001, 0x3FE0000000000000),
            (-1e-300, 0x81A56E1FC2F8F359, 0x3FE0000000000000),
            (1e-100, 0x2B2BFF2EE48E0530, 0x3FE0000000000000),
            (-1e-16, 0xBC9CD2B297D889BD, 0x3FDFFFFFFFFFFFFF),
            (3e-9, 0x3E29C511DC3A41DF, 0x3FE0000000671448),
            (-1e-5, 0xBEE4F8B588E06853, 0x3FDFFFF583A53B8E),
            (0.001, 0x3F50624D77516CE3, 0x3FE0020C49B78133),
            (-0.03125, 0xBF9FFD559992B1DE, 0x3FDF8002AA999A08),
            (0.1, 0x3FB983D7795F413B, 0x3FE0CCA12729AFB8),
            (-0.25, 0xBFCF597EA69A1C86, 0x3FDC054CDA8768F9),
            (0.3465735902799726, 0x3FD5555555555554, 0x3FE2BEC333018867),
            (-0.5, 0xBFDD9353D7568AF3, 0x3FD829A0565978DF),
            (
                std::f64::consts::LN_2,
                0x3FE3333333333333,
                0x3FE5555555555555,
            ),
            (-0.9, 0xBFE6EBE982D6605D, 0x3FD27FCDA8478FA2),
            (1.0, 0x3FE85EFAB514F394, 0x3FE764D4F5D5A2BD),
            (-1.5, 0xBFECF6F9786DF577, 0x3FC759B8355A1BAF),
            (2.0, 0x3FEED9505E1BC3D4, 0x3FEC2F7D5A8A79C9),
            (-3.3, 0xBFEFE9BDF44F7C03, 0x3FA236630D362B35),
            (4.7, 0x3FEFFEA50F0EEA10, 0x3FEFB629BE21D26E),
            (-6.25, 0xBFEFFFF05E8D3192, 0x3F5F914F977DEDBF),
            (8.0, 0x3FEFFFFF872A91F8, 0x3FEFFD40B84505A2),
            (-10.5, 0xBFEFFFFFFF2F9279, 0x3EFCDF8E48F306F6),
            (13.0, 0x3FEFFFFFFFFE987B, 0x3FEFFFFB427F64DC),
            (-18.0, 0xBFEFFFFFFFFFFFFC, 0x3E505A62883BEEB6),
            (19.1, 0x3FF0000000000000, 0x3FEFFFFFFD473C9C),
            (-21.9, 0xBFF0000000000000, 0x3DF52F63433D4184),
            (25.0, 0x3FF0000000000000, 0x3FEFFFFFFFFE175C),
            (-40.0, 0xBFF0000000000000, 0x3C539792499B1A24),
            (-700.0, 0xBFF0000000000000, 0x00D14F2B0FB9307F),
            (745.0, 0x3FF0000000000000, 0x3FF0000000000000),
        ];
        for (x, tanh_bits, sigmoid_bits) in GOLDEN {
            let t = Activation::Tanh.apply_scalar(x);
            let s = Activation::Sigmoid.apply_scalar(x);
            assert_eq!(t.to_bits(), tanh_bits, "tanh({x:e}) = {t:e}");
            assert_eq!(s.to_bits(), sigmoid_bits, "sigmoid({x:e}) = {s:e}");
        }
    }

    /// The vectorized slice loops give the same bits as `apply_scalar` for
    /// every length around the vector widths, remainders included.
    #[test]
    fn slice_application_matches_scalar_bits() {
        let pool: Vec<f64> = (0..67)
            .map(|i| (i as f64 - 33.0) * 0.37 * if i % 5 == 0 { 40.0 } else { 1.0 })
            .chain([
                0.0,
                -0.0,
                1e-300,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ])
            .collect();
        for act in ALL {
            for len in 0..=67 {
                let xs: Vec<f64> = pool.iter().cycle().skip(len).take(len).copied().collect();
                let m = DenseMatrix::from_vec(1, len, xs.clone()).unwrap();
                let mut out = DenseMatrix::zeros(0, 0);
                act.apply_into(&m, &mut out);
                for (&x, &h) in xs.iter().zip(out.data()) {
                    assert!(
                        same_bits(h, act.apply_scalar(x)),
                        "{act:?} len {len} at {x:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn apply_into_matches_apply() {
        let m = DenseMatrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        let mut out = DenseMatrix::zeros(5, 5);
        Activation::Sigmoid.apply_into(&m, &mut out);
        assert!(out.approx_eq(&Activation::Sigmoid.apply(&m), 0.0));
    }

    #[test]
    fn default_is_tanh() {
        assert_eq!(Activation::default(), Activation::Tanh);
    }
}
