//! Convolution edge-case matrix, differentially checked against the oracle
//! references: degenerate kernels, degenerate strides, empty channel axes,
//! and sign patterns that force 0% or 100% early termination.

use snapea_suite::core::exec::{execute_conv, LayerConfig};
use snapea_suite::core::params::KernelMode;
use snapea_suite::core::reorder::sign_reorder;
use snapea_suite::nn::ops::{Conv2d, MaxPool};
use snapea_suite::oracle::reference;
use snapea_suite::oracle::OracleRng;
use snapea_suite::tensor::{ConvGeom, Shape4, Tensor4};

fn conv_from(seed: u64, c_out: usize, c_in: usize, geom: ConvGeom) -> Conv2d {
    let mut r = OracleRng::new(seed);
    let shape = Shape4::new(c_out, c_in, geom.kh, geom.kw);
    let w: Vec<f32> = (0..shape.len()).map(|_| r.uniform(-1.0, 1.0)).collect();
    let bias: Vec<f32> = (0..c_out).map(|_| r.uniform(-0.2, 0.2)).collect();
    Conv2d::from_parts(Tensor4::from_vec(shape, w).unwrap(), bias, geom)
}

fn input_from(seed: u64, shape: Shape4, lo: f32, hi: f32) -> Tensor4 {
    let mut r = OracleRng::new(seed);
    let v: Vec<f32> = (0..shape.len()).map(|_| r.uniform(lo, hi)).collect();
    Tensor4::from_vec(shape, v).unwrap()
}

/// Exact-mode executor output must be bit-identical to the oracle's
/// independent walk. The dense post-ReLU comparison additionally holds when
/// inputs are non-negative (the paper's premise); for signed inputs the
/// sign-check termination is not output-preserving, so only the walk check
/// applies.
fn assert_exact_walk_matches(conv: &Conv2d, input: &Tensor4) {
    let geom = conv.geom();
    let r = execute_conv(conv, input, &LayerConfig::exact(conv));
    let walk = reference::execute_layer(
        conv.weight(),
        conv.bias(),
        geom,
        input,
        &snapea_suite::core::params::LayerParams::Exact,
    );
    assert_eq!(r.output.as_slice().len(), walk.output.as_slice().len());
    for (i, (a, b)) in r
        .output
        .as_slice()
        .iter()
        .zip(walk.output.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "element {i}: executor {a} vs oracle {b}"
        );
    }
    assert_eq!(r.profile.ops_slice(), &walk.ops[..]);
}

/// The walk check plus ReLU-equality against the dense 7-loop reference
/// (valid for non-negative inputs).
fn assert_exact_matches_oracle(conv: &Conv2d, input: &Tensor4) {
    assert_exact_walk_matches(conv, input);
    let r = execute_conv(conv, input, &LayerConfig::exact(conv));
    let dense = reference::conv_dense(conv.weight(), conv.bias(), conv.geom(), input);
    for (a, b) in r.output.as_slice().iter().zip(dense.as_slice()) {
        assert!(
            (a.max(0.0) - b.max(0.0)).abs() < 1e-3,
            "post-ReLU mismatch {a} vs {b}"
        );
    }
}

#[test]
fn one_by_one_kernels() {
    let geom = ConvGeom::square(1, 1, 0);
    let conv = conv_from(11, 4, 3, geom);
    let input = input_from(12, Shape4::new(2, 3, 5, 5), 0.0, 1.5);
    assert_exact_matches_oracle(&conv, &input);
}

#[test]
fn kernel_equal_to_input_size_yields_one_window() {
    let geom = ConvGeom::square(4, 1, 0);
    let conv = conv_from(21, 3, 2, geom);
    let input = input_from(22, Shape4::new(1, 2, 4, 4), 0.0, 1.0);
    let r = execute_conv(&conv, &input, &LayerConfig::exact(&conv));
    assert_eq!(r.output.shape(), Shape4::new(1, 3, 1, 1));
    assert_exact_matches_oracle(&conv, &input);
}

#[test]
fn stride_larger_than_kernel_skips_pixels() {
    let geom = ConvGeom::square(2, 3, 0);
    let conv = conv_from(31, 2, 2, geom);
    let input = input_from(32, Shape4::new(1, 2, 8, 8), 0.0, 1.0);
    let r = execute_conv(&conv, &input, &LayerConfig::exact(&conv));
    assert_eq!(r.output.shape(), Shape4::new(1, 2, 3, 3));
    assert_exact_matches_oracle(&conv, &input);
}

#[test]
fn kernel_larger_than_padded_input_is_all_padding() {
    // k exceeds h + 2·pad: the single window is entirely padding except for
    // the input's overlap, and out-dims clamp to 1×1.
    let geom = ConvGeom::square(6, 1, 1);
    let conv = conv_from(41, 2, 1, geom);
    let input = input_from(42, Shape4::new(1, 1, 3, 3), 0.0, 1.0);
    let r = execute_conv(&conv, &input, &LayerConfig::exact(&conv));
    assert_eq!(r.output.shape(), Shape4::new(1, 2, 1, 1));
    assert_exact_matches_oracle(&conv, &input);
}

#[test]
fn zero_channel_input_degenerates_to_bias() {
    // c_in = 0: the window is empty, every walk performs zero MACs and
    // returns the bias. Exact mode only — speculation over an empty window
    // is meaningless (groups ≥ 1 cannot be formed).
    let geom = ConvGeom::square(3, 1, 1);
    let weight = Tensor4::from_vec(Shape4::new(2, 0, 3, 3), Vec::new()).unwrap();
    let conv = Conv2d::from_parts(weight, vec![0.25, -0.75], geom);
    let input = Tensor4::zeros(Shape4::new(1, 0, 4, 4));
    let r = execute_conv(&conv, &input, &LayerConfig::exact(&conv));
    assert_eq!(r.output.shape(), Shape4::new(1, 2, 4, 4));
    assert_eq!(r.profile.total_ops(), 0, "no channels means no MACs");
    for k in 0..2 {
        let bias = conv.bias()[k];
        for w in 0..16 {
            assert_eq!(r.output.as_slice()[k * 16 + w], bias);
        }
    }
}

#[test]
fn all_negative_weights_terminate_every_window_after_one_mac() {
    // Every weight negative and inputs strictly positive: the sign-ordered
    // walk enters the negative region immediately, the partial sum drops
    // below zero after the first MAC, and the PAU terminates every window at
    // ops = 1 — the 100%-early-termination extreme of the paper's exact mode.
    let geom = ConvGeom::square(3, 1, 0);
    let mut r = OracleRng::new(51);
    let shape = Shape4::new(2, 2, 3, 3);
    let w: Vec<f32> = (0..shape.len()).map(|_| -r.uniform(0.1, 1.0)).collect();
    let conv = Conv2d::from_parts(Tensor4::from_vec(shape, w).unwrap(), vec![0.0; 2], geom);
    let input = input_from(52, Shape4::new(1, 2, 6, 6), 0.1, 1.5);

    let res = execute_conv(&conv, &input, &LayerConfig::exact(&conv));
    let windows = res.profile.windows() * res.profile.images() * res.profile.kernels();
    assert_eq!(
        res.profile.total_ops(),
        windows as u64,
        "exactly one MAC per window"
    );
    assert!(res.output.as_slice().iter().all(|&v| v < 0.0));
    assert_exact_matches_oracle(&conv, &input);
}

#[test]
fn all_negative_inputs_terminate_at_the_negative_region_boundary() {
    // Strictly negative inputs with mixed-sign weights: the non-negative
    // weight prefix accumulates a strictly negative sum, so the first probe
    // inside the negative region terminates — every window stops at exactly
    // `neg_start` ops and every output is squashed to zero by ReLU.
    let geom = ConvGeom::square(2, 1, 0);
    let mut r = OracleRng::new(61);
    let shape = Shape4::new(1, 2, 2, 2);
    let w: Vec<f32> = (0..shape.len())
        .map(|i| {
            if i % 2 == 0 {
                r.uniform(0.1, 1.0)
            } else {
                -r.uniform(0.1, 1.0)
            }
        })
        .collect();
    let conv = Conv2d::from_parts(Tensor4::from_vec(shape, w).unwrap(), vec![0.0], geom);
    let neg_start = sign_reorder(conv.weight().item(0)).neg_start();
    let input = input_from(62, Shape4::new(1, 2, 5, 5), -1.5, -0.1);

    let res = execute_conv(&conv, &input, &LayerConfig::exact(&conv));
    for &ops in res.profile.ops_slice() {
        assert_eq!(
            ops as usize, neg_start,
            "every window stops entering the negative region"
        );
    }
    assert!(res.output.as_slice().iter().all(|&v| v.max(0.0) == 0.0));
    // Signed inputs: only the walk-vs-walk check applies (sign-check
    // termination is output-preserving only for non-negative inputs).
    assert_exact_walk_matches(&conv, &input);
}

#[test]
fn fully_predictive_threshold_squashes_every_window() {
    // threshold = +∞ predicts every window after `groups` MACs.
    let geom = ConvGeom::square(3, 1, 1);
    let conv = conv_from(71, 3, 2, geom);
    let input = input_from(72, Shape4::new(1, 2, 6, 6), 0.0, 1.0);
    let modes = vec![KernelMode::spec(f32::INFINITY, 4); 3];
    let cfg = LayerConfig::predictive(&conv, &modes);
    let res = execute_conv(&conv, &input, &cfg);
    assert!(res.output.as_slice().iter().all(|&v| v == 0.0));
    for &ops in res.profile.ops_slice() {
        assert_eq!(ops, 4, "prediction costs exactly `groups` MACs");
    }
}

/// Max-pool output values and argmax map must equal the oracle's bit for
/// bit: NaN never wins, the first of tied taps wins (so `-0.0` before
/// `+0.0` survives), and windows with no tap above `-inf` — all `-inf`, all
/// NaN, or wholly in the padding — output `+0.0` with argmax `u32::MAX`.
#[test]
fn maxpool_matches_oracle_on_nan_signed_zero_and_padding_windows() {
    let shape = Shape4::new(2, 3, 5, 6);
    let mut r = OracleRng::new(91);
    let mut v: Vec<f32> = (0..shape.len())
        .map(|_| match r.range(0, 5) {
            0 => f32::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f32::NEG_INFINITY,
            _ => r.uniform(-1.0, 1.0),
        })
        .collect();
    let plane = shape.h * shape.w;
    // Channel planes with one value everywhere: all-(-inf), all-NaN, and an
    // alternating -0.0/+0.0 plane where every window is a signed-zero tie.
    v[..plane].fill(f32::NEG_INFINITY);
    v[plane..2 * plane].fill(f32::NAN);
    for (i, x) in v[2 * plane..3 * plane].iter_mut().enumerate() {
        *x = if i % 2 == 0 { -0.0 } else { 0.0 };
    }
    let input = Tensor4::from_vec(shape, v).unwrap();

    let mut padding_windows = 0;
    for k in 1..=3 {
        for stride in 1..=2 {
            for pad in 0..=1 {
                let what = format!("k {k} stride {stride} pad {pad}");
                let (out, arg) = MaxPool::with_pad(k, stride, pad).forward(&input);
                let (want, want_arg) = reference::maxpool(&input, k, stride, pad);
                assert_eq!(out.shape(), want.shape(), "{what}");
                assert_eq!(arg, want_arg, "{what}: argmax");
                for (i, (a, b)) in out.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
                }
                // The all-(-inf) and all-NaN planes pick nothing.
                let out_plane = out.shape().h * out.shape().w;
                assert!(
                    arg[..2 * out_plane].iter().all(|&a| a == u32::MAX),
                    "{what}"
                );
                padding_windows += arg.iter().filter(|&&a| a == u32::MAX).count();
            }
        }
    }
    assert!(padding_windows > 0);

    // A window holding -0.0 then +0.0 keeps the first.
    let tie = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![-0.0, 0.0, 0.0, -0.0]).unwrap();
    let (out, arg) = MaxPool::new(2, 1).forward(&tie);
    assert_eq!(out.as_slice()[0].to_bits(), (-0.0f32).to_bits());
    assert_eq!(arg, vec![0]);
    // k = 1 with pad 1: the border windows lie wholly in the padding.
    let ones = Tensor4::full(Shape4::new(1, 1, 2, 2), 1.0);
    let (out, arg) = MaxPool::with_pad(1, 1, 1).forward(&ones);
    assert_eq!(out.shape(), Shape4::new(1, 1, 4, 4));
    assert_eq!(
        (out.as_slice()[0].to_bits(), arg[0]),
        (0.0f32.to_bits(), u32::MAX)
    );
    assert_eq!((out.as_slice()[5], arg[5]), (1.0, 0));
}
