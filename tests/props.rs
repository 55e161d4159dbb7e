//! Property-based tests of the core invariants (proptest).

use proptest::prelude::*;
use snapea_suite::core::exec::{run_window, KernelExec, LayerConfig};
use snapea_suite::core::params::KernelParams;
use snapea_suite::core::pau::{Pau, TerminationKind};
use snapea_suite::core::reorder::{magnitude_reorder, predictive_reorder, sign_reorder};
use snapea_suite::nn::ops::Conv2d;
use snapea_suite::oracle::OracleRng;
use snapea_suite::tensor::im2col::ConvGeom;
use snapea_suite::tensor::im2col::{col2im, im2col};
use snapea_suite::tensor::q16::Q16Format;
use snapea_suite::tensor::{Shape2, Tensor2};
use snapea_suite::tensor::{Shape4, Tensor4};

fn weights_strategy(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, 2..max_len)
}

fn is_permutation(order: &[u32], len: usize) -> bool {
    let mut seen = vec![false; len];
    for &i in order {
        if (i as usize) >= len || seen[i as usize] {
            return false;
        }
        seen[i as usize] = true;
    }
    order.len() == len
}

proptest! {
    /// Every reordering is a permutation with the documented region
    /// structure.
    #[test]
    fn reorderings_are_structured_permutations(w in weights_strategy(40)) {
        let r = sign_reorder(&w);
        prop_assert!(is_permutation(r.order(), w.len()));
        prop_assert!(r.weights()[..r.neg_start()].iter().all(|&v| v >= 0.0));
        prop_assert!(r.weights()[r.neg_start()..].iter().all(|&v| v < 0.0));
        // Negative region is sorted by descending magnitude.
        for pair in r.weights()[r.neg_start()..].windows(2) {
            prop_assert!(pair[0] <= pair[1], "negatives not descending in |w|");
        }

        for groups in [1usize, 2, w.len() / 2, w.len()] {
            if groups == 0 || groups > w.len() {
                continue;
            }
            let p = predictive_reorder(&w, groups);
            prop_assert!(is_permutation(p.order(), w.len()));
            prop_assert_eq!(p.spec_len(), groups);
            prop_assert!(p.neg_start() >= groups);
            let mid = &p.weights()[groups..p.neg_start()];
            let tail = &p.weights()[p.neg_start()..];
            prop_assert!(mid.iter().all(|&v| v >= 0.0));
            prop_assert!(tail.iter().all(|&v| v < 0.0));

            let m = magnitude_reorder(&w, groups);
            prop_assert!(is_permutation(m.order(), w.len()));
        }
    }

    /// The `Op` function of Eq. (1): op counts are bounded, prediction costs
    /// exactly `N`, and a window that never terminates costs the full window.
    #[test]
    fn op_counts_obey_equation_1(
        w in weights_strategy(30),
        xs in prop::collection::vec(0.0f32..2.0, 30),
        th in -1.0f32..1.0,
        groups_raw in 1usize..8,
        bias in -0.5f32..0.5,
    ) {
        let groups = groups_raw.min(w.len());
        let taps: Vec<i32> = (0..w.len() as i32).collect();
        let item = &xs[..w.len().min(xs.len())];
        prop_assume!(item.len() == w.len());

        let r = predictive_reorder(&w, groups);
        let pau = Pau::predictive(&r, KernelParams::new(th, groups));
        let k = KernelExec::new(r, pau);
        let res = run_window(&k, &taps, item, bias);
        prop_assert!(res.ops as usize <= w.len());
        match res.termination {
            Some(TerminationKind::Predicted) => {
                prop_assert_eq!(res.ops as usize, groups);
                prop_assert_eq!(res.output, 0.0);
            }
            Some(TerminationKind::SignCheck) => {
                prop_assert!(res.output < 0.0);
                prop_assert!((res.ops as usize) >= k.reordered.neg_start());
            }
            None => prop_assert_eq!(res.ops as usize, w.len()),
        }
    }

    /// Exact-mode window walks reproduce the dense dot product after ReLU.
    #[test]
    fn exact_window_walk_matches_dot_product(
        w in weights_strategy(24),
        xs in prop::collection::vec(0.0f32..2.0, 24),
        bias in -0.5f32..0.5,
    ) {
        prop_assume!(xs.len() >= w.len());
        let item = &xs[..w.len()];
        let taps: Vec<i32> = (0..w.len() as i32).collect();
        let r = sign_reorder(&w);
        let pau = Pau::exact(&r);
        let k = KernelExec::new(r, pau);
        let res = run_window(&k, &taps, item, bias);
        let dense: f32 = bias + w.iter().zip(item).map(|(a, b)| a * b).sum::<f32>();
        prop_assert!(
            (res.output.max(0.0) - dense.max(0.0)).abs() < 1e-3,
            "post-ReLU mismatch: {} vs {}",
            res.output,
            dense
        );
    }

    /// `col2im(im2col(x))` scales every input position by the number of
    /// windows that tap it (its multiplicity, obtained by scattering an
    /// all-ones patch matrix) — the adjoint-consistency law the backward
    /// pass relies on. Shapes come from the oracle PRNG so the same seed
    /// replays the same geometry.
    #[test]
    fn im2col_col2im_roundtrip_is_multiplicity_scaling(seed in 0u64..150) {
        let mut r = OracleRng::new(seed);
        let (c, h, w) = (r.range(1, 3), r.range(2, 7), r.range(2, 7));
        let geom = ConvGeom::square(r.range(1, 3), r.range(1, 2), r.range(0, 1));
        let shape = Shape4::new(1, c, h, w);
        let x_vals: Vec<f32> = (0..shape.len()).map(|_| r.uniform(-2.0, 2.0)).collect();
        let x = Tensor4::from_vec(shape, x_vals).unwrap();

        let cols = im2col(&x, 0, geom);
        let mut back = Tensor4::zeros(shape);
        col2im(&cols, &mut back, 0, geom);

        let ones = Tensor2::from_vec(
            Shape2::new(c * geom.kh * geom.kw, geom.out_h(h) * geom.out_w(w)),
            vec![1.0; cols.shape().len()],
        )
        .unwrap();
        let mut mult = Tensor4::zeros(shape);
        col2im(&ones, &mut mult, 0, geom);

        for ((&roundtrip, &orig), &m) in
            back.as_slice().iter().zip(x.as_slice()).zip(mult.as_slice())
        {
            let want = orig * m;
            prop_assert!(
                (roundtrip - want).abs() <= 1e-4 * want.abs().max(1.0),
                "seed {}: col2im∘im2col gave {} for value {} with multiplicity {}",
                seed, roundtrip, orig, m
            );
        }
    }

    /// Quantise→dequantise error bounds over oracle-PRNG-driven formats:
    /// half an LSB inside the representable range, clean saturation at the
    /// rails outside it, and sign preservation everywhere.
    #[test]
    fn q16_round_trip_error_is_bounded_everywhere(seed in 0u64..300) {
        let mut r = OracleRng::new(seed);
        let fmt = Q16Format::new(r.range(2, 12) as u32);
        let limit_hi = fmt.dequantize(snapea_suite::tensor::q16::Q16(i16::MAX));
        let limit_lo = fmt.dequantize(snapea_suite::tensor::q16::Q16(i16::MIN));

        for _ in 0..32 {
            let v = r.uniform(-1.5, 1.5) * limit_hi.max(1.0) * 1.5;
            let d = fmt.dequantize(fmt.quantize(v));
            if v >= limit_lo && v <= limit_hi {
                prop_assert!(
                    (d - v).abs() <= fmt.lsb() / 2.0 + 1e-5,
                    "in-range {} came back as {} (lsb {})", v, d, fmt.lsb()
                );
            } else if v > limit_hi {
                prop_assert_eq!(d, limit_hi, "positive overflow must saturate at the rail");
            } else {
                prop_assert_eq!(d, limit_lo, "negative overflow must saturate at the rail");
            }
            prop_assert!(v.abs() <= fmt.lsb() / 2.0 || d == 0.0 || (d >= 0.0) == (v >= 0.0));
        }
    }

    /// Exact-mode layer execution preserves post-ReLU outputs for arbitrary
    /// (seeded) convolutions — the library-level statement of soundness.
    #[test]
    fn exact_layer_execution_is_sound(seed in 0u64..50) {
        use snapea_suite::tensor::init;
        let mut rng = init::rng(seed);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input: Tensor4 =
            init::uniform4(Shape4::new(1, 3, 6, 6), 1.5, &mut rng).map(f32::abs);
        let r = snapea_suite::core::exec::execute_conv(
            &conv,
            &input,
            &LayerConfig::exact(&conv),
        );
        let dense = conv.forward(&input);
        for (a, b) in r.output.iter().zip(dense.iter()) {
            prop_assert!((a.max(0.0) - b.max(0.0)).abs() < 1e-3);
        }
    }

    /// Log-histogram quantiles land in exactly the bucket the naive sorted
    /// nearest-rank reference picks — the histogram loses resolution within
    /// a bucket (~9%), never across buckets.
    #[test]
    fn log_histogram_quantiles_match_naive_reference(
        samples in prop::collection::vec(1e-6f64..1e6, 1..200),
    ) {
        use snapea_suite::obs::LogHistogramSnapshot;
        let snap = LogHistogramSnapshot::from_samples(&samples);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            // Nearest-rank: the ceil(q*n)-th order statistic (1-based).
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let naive = sorted[rank - 1];
            prop_assert_eq!(
                snap.quantile_bucket(q),
                LogHistogramSnapshot::bucket_of(naive),
                "q={} naive={}", q, naive
            );
            // And the midpoint estimate is within one sub-bucket (~±9%).
            let est = snap.quantile(q);
            prop_assert!(
                est >= naive / 1.19 && est <= naive * 1.19,
                "q={} est={} naive={}", q, est, naive
            );
        }
    }

    /// Histogram merge is exact: commutative, associative, and identical to
    /// bucketing the concatenated sample set directly.
    #[test]
    fn log_histogram_merge_is_commutative_and_associative(
        a in prop::collection::vec(1e-6f64..1e6, 0..60),
        b in prop::collection::vec(1e-6f64..1e6, 0..60),
        c in prop::collection::vec(1e-6f64..1e6, 0..60),
    ) {
        use snapea_suite::obs::LogHistogramSnapshot;
        let (sa, sb, sc) = (
            LogHistogramSnapshot::from_samples(&a),
            LogHistogramSnapshot::from_samples(&b),
            LogHistogramSnapshot::from_samples(&c),
        );
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge must be associative");

        let concat: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(
            &ab_c,
            &LogHistogramSnapshot::from_samples(&concat),
            "merging snapshots must equal bucketing the concatenation"
        );
        prop_assert_eq!(ab_c.count(), (a.len() + b.len() + c.len()) as u64);

        let mut with_empty = ab_c.clone();
        with_empty.merge(&LogHistogramSnapshot::empty());
        prop_assert_eq!(&with_empty, &ab_c, "empty is the merge identity");
    }
}
