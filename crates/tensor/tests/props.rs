//! Property-based tests of the tensor primitives.

use proptest::prelude::*;
use snapea_tensor::im2col::{
    col2im, col2im_item_slice, im2col, im2col_into, im2col_strided_into, ConvGeom,
};
use snapea_tensor::{Shape2, Shape4, Tensor2, Tensor4};

fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Tensor2> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Tensor2::from_vec(Shape2::new(rows, cols), v).expect("sized"))
}

proptest! {
    /// (A·B)·C == A·(B·C) within float tolerance.
    #[test]
    fn matmul_is_associative(a in mat(3, 4), b in mat(4, 5), c in mat(5, 2)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.iter().zip(right.iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Transpose is an involution and transposed products match.
    #[test]
    fn transpose_involution(a in mat(4, 6)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
    }

    /// `t_matmul` and `matmul_t` agree with explicit transposes.
    #[test]
    fn fused_transpose_products(a in mat(5, 3), b in mat(5, 4), c in mat(6, 3)) {
        let fused = a.t_matmul(&b).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        for (x, y) in fused.iter().zip(explicit.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let fused = a.matmul_t(&c).unwrap();
        let explicit = a.matmul(&c.transpose()).unwrap();
        for (x, y) in fused.iter().zip(explicit.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// im2col/col2im satisfy the adjoint identity
    /// `<im2col(x), y> == <x, col2im(y)>` for every geometry.
    #[test]
    fn im2col_adjoint_identity(
        xv in prop::collection::vec(-1.0f32..1.0, 2 * 6 * 6),
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let shape = Shape4::new(1, 2, 6, 6);
        let geom = ConvGeom::square(k, stride, pad);
        prop_assume!(geom.out_h(6) > 0 && geom.out_w(6) > 0);
        let x = Tensor4::from_vec(shape, xv).expect("sized");
        let cols = im2col(&x, 0, geom);
        let y = Tensor2::from_fn(cols.shape(), |r, c| ((r * 13 + c * 7) % 5) as f32 - 2.0);
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let mut back = Tensor4::zeros(shape);
        col2im(&y, &mut back, 0, geom);
        let rhs: f32 = x.iter().zip(back.iter()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    /// `negative_fraction` is exactly the count of negatives over the size.
    #[test]
    fn negative_fraction_definition(v in prop::collection::vec(-1.0f32..1.0, 24)) {
        let t = Tensor4::from_vec(Shape4::new(1, 2, 3, 4), v.clone()).expect("sized");
        let expect = v.iter().filter(|x| **x < 0.0).count() as f64 / 24.0;
        prop_assert_eq!(t.negative_fraction(), expect);
    }
}

/// Every geometry of the range-lowering checks: kernels 1–5, strides 1–3,
/// pads 0–3, and inputs from 1×1 up to 6×5, so inputs smaller than the
/// kernel and taps whose every window is padding are all covered.
fn lowering_geometries() -> impl Iterator<Item = (ConvGeom, usize, usize)> {
    (1..=5usize).flat_map(|k| {
        (1..=3usize).flat_map(move |stride| {
            (0..=3usize).flat_map(move |pad| {
                (1..=6usize).flat_map(move |h| {
                    (1..=5usize).map(move |w| (ConvGeom::square(k, stride, pad), h, w))
                })
            })
        })
    })
}

/// Per-element im2col of item `n`: patch row `r` at `out[r * ld..]`, every
/// entry bounds-checked, padding entries left as they were.
fn im2col_reference(x: &Tensor4, n: usize, geom: ConvGeom, out: &mut [f32], ld: usize) {
    let s = x.shape();
    let (oh, ow) = (geom.out_h(s.h), geom.out_w(s.w));
    for c in 0..s.c {
        for ky in 0..geom.kh {
            for kx in 0..geom.kw {
                let row = (c * geom.kh + ky) * geom.kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if (0..s.h as isize).contains(&iy) && (0..s.w as isize).contains(&ix) {
                            out[row * ld + oy * ow + ox] = x[(n, c, iy as usize, ix as usize)];
                        }
                    }
                }
            }
        }
    }
}

/// Per-element col2im, accumulating in channel, ky, kx, oy, ox order.
fn col2im_reference(cols: &[f32], grad: &mut [f32], c: usize, h: usize, w: usize, geom: ConvGeom) {
    let (oh, ow) = (geom.out_h(h), geom.out_w(w));
    for ci in 0..c {
        for ky in 0..geom.kh {
            for kx in 0..geom.kw {
                let row = (ci * geom.kh + ky) * geom.kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                            grad[(ci * h + iy as usize) * w + ix as usize] +=
                                cols[row * oh * ow + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `im2col_into` and `im2col_strided_into` equal the per-element
/// definition bit for bit on every geometry, the strided form lowering two
/// images side by side into one matrix.
#[test]
fn range_im2col_matches_per_element_definition() {
    for (geom, h, w) in lowering_geometries() {
        let shape = Shape4::new(2, 2, h, w);
        let x = Tensor4::from_fn(shape, |n, c, y, z| {
            ((n * 97 + c * 31 + y * 7 + z) as f32).sin()
        });
        let rows = 2 * geom.kh * geom.kw;
        let cols = geom.out_h(h) * geom.out_w(w);
        let mut want = vec![0.0f32; rows * cols];
        im2col_reference(&x, 1, geom, &mut want, cols);
        let mut got = vec![0.0f32; rows * cols];
        im2col_into(&x, 1, geom, &mut got);
        assert_eq!(bits(&got), bits(&want), "{geom:?} on {h}x{w}");

        let ld = 2 * cols;
        let mut want = vec![0.0f32; rows * ld];
        let mut got = want.clone();
        for n in 0..2 {
            im2col_reference(&x, n, geom, &mut want[n * cols..], ld);
            im2col_strided_into(&x, n, geom, &mut got[n * cols..], ld);
        }
        assert_eq!(bits(&got), bits(&want), "side by side: {geom:?} on {h}x{w}");
    }
}

/// `col2im_item_slice` equals the per-element definition bit for bit on
/// every geometry, with NaN and `-0.0` in the gradients and `-0.0` in the
/// accumulator it adds into.
#[test]
fn range_col2im_matches_per_element_definition() {
    for (geom, h, w) in lowering_geometries() {
        let c = 2;
        let len = c * geom.kh * geom.kw * geom.out_h(h) * geom.out_w(w);
        let cols: Vec<f32> = (0..len)
            .map(|i| match i % 7 {
                3 => f32::NAN,
                5 => -0.0,
                _ => ((i * 13) as f32).cos(),
            })
            .collect();
        let start: Vec<f32> = (0..c * h * w)
            .map(|i| if i % 3 == 0 { -0.0 } else { i as f32 * 0.5 })
            .collect();
        let mut want = start.clone();
        col2im_reference(&cols, &mut want, c, h, w, geom);
        let mut got = start;
        col2im_item_slice(&cols, &mut got, c, h, w, geom);
        assert_eq!(bits(&got), bits(&want), "{geom:?} on {h}x{w}");
    }
}
