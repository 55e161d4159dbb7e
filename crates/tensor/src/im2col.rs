//! im2col / col2im transforms used by the fast convolution path.
//!
//! The forward/backward passes of [`snapea-nn`]'s convolution layer lower a
//! convolution to a matrix product: weights `[c_out, c_in*kh*kw]` times the
//! im2col patch matrix `[c_in*kh*kw, out_h*out_w]`. The SnaPEA executor in
//! the `snapea` crate lowers each image with the same [`im2col_into`]: the
//! matrix is tap-major, so row `i` holds tap `i` of every window as one
//! contiguous vector, and the executor's window-major walk broadcasts each
//! reordered weight over the row it selects (`snapea::exec`).

use crate::{Shape2, Tensor2, Tensor4};
use std::ops::Range;

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ConvGeom {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Zero padding applied on every side.
    pub pad: usize,
}

impl ConvGeom {
    /// Creates a square-kernel geometry.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Output height for an input of height `h`.
    pub fn out_h(&self, h: usize) -> usize {
        (h + 2 * self.pad).saturating_sub(self.kh) / self.stride + 1
    }

    /// Output width for an input of width `w`.
    pub fn out_w(&self, w: usize) -> usize {
        (w + 2 * self.pad).saturating_sub(self.kw) / self.stride + 1
    }

    /// The outputs whose tap `(ky, kx)` lands inside an `h × w` input: the
    /// rows `oy` and columns `ox` with `0 <= oy*stride + ky - pad < h` and
    /// `0 <= ox*stride + kx - pad < w`, clamped to the output extent. Every
    /// other output reads padding at this tap. Either range may be empty.
    fn tap_ranges(&self, ky: usize, kx: usize, h: usize, w: usize) -> (Range<usize>, Range<usize>) {
        (
            tap_range(ky, self.pad, self.stride, h, self.out_h(h)),
            tap_range(kx, self.pad, self.stride, w, self.out_w(w)),
        )
    }
}

/// The outputs `o < out` with `0 <= o*stride + k - pad < len`.
fn tap_range(k: usize, pad: usize, stride: usize, len: usize, out: usize) -> Range<usize> {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    // o*stride + k - pad < len  <=>  o*stride < len + pad - k.
    let hi = (len + pad)
        .checked_sub(k)
        .map_or(0, |span| span.div_ceil(stride))
        .min(out);
    lo.min(hi)..hi
}

/// Calls `f(patch, input, len)` for every run of in-bounds taps, visiting
/// channel, `ky`, `kx`, then `oy` in ascending order: the `len` patch
/// entries `patch..patch + len` (patch row `r` starting at `r * ld`) pair
/// with the input elements `input, input + stride, …` of a flat
/// `[c × h × w]` item. Entries no run covers are padding taps.
fn tap_runs(
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeom,
    ld: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    let ow = geom.out_w(w);
    for ci in 0..c {
        for ky in 0..geom.kh {
            for kx in 0..geom.kw {
                let row = (ci * geom.kh + ky) * geom.kw + kx;
                let (oys, oxs) = geom.tap_ranges(ky, kx, h, w);
                if oxs.is_empty() {
                    continue;
                }
                let ix = oxs.start * geom.stride + kx - geom.pad;
                for oy in oys {
                    let iy = oy * geom.stride + ky - geom.pad;
                    f(
                        row * ld + oy * ow + oxs.start,
                        (ci * h + iy) * w + ix,
                        oxs.len(),
                    );
                }
            }
        }
    }
}

/// Expands batch item `n` of `input` into the im2col patch matrix of shape
/// `[c_in*kh*kw, out_h*out_w]`. Out-of-bounds (padding) taps contribute zero.
///
/// # Panics
///
/// Panics if `n` is out of bounds.
pub fn im2col(input: &Tensor4, n: usize, geom: ConvGeom) -> Tensor2 {
    let s = input.shape();
    let (oh, ow) = (geom.out_h(s.h), geom.out_w(s.w));
    let rows = s.c * geom.kh * geom.kw;
    let mut out = Tensor2::zeros(Shape2::new(rows, oh * ow));
    im2col_into(input, n, geom, out.as_mut_slice());
    out
}

/// [`im2col`] writing into a caller-provided **zeroed** flat buffer of length
/// `c_in*kh*kw × out_h*out_w` (row-major) — the allocation-free form used by
/// the scratch-reuse convolution path. Padding taps are left untouched, which
/// is why the buffer must arrive zeroed (e.g. from
/// [`crate::scratch::with_zeroed`]).
///
/// # Panics
///
/// Panics if `n` is out of bounds or `out` has the wrong length.
pub fn im2col_into(input: &Tensor4, n: usize, geom: ConvGeom, out: &mut [f32]) {
    let s = input.shape();
    let cols = geom.out_h(s.h) * geom.out_w(s.w);
    assert_eq!(
        out.len(),
        s.c * geom.kh * geom.kw * cols,
        "im2col_into: buffer length"
    );
    im2col_strided_into(input, n, geom, out, cols);
}

/// [`im2col_into`] with patch row `r` at `out[r * ld..]` instead of
/// `out[r * cols..]`, so several images can be lowered side by side into
/// one wider matrix. Entries between rows and padding taps are left
/// untouched; the buffer must arrive zeroed.
///
/// # Panics
///
/// Panics if `n` is out of bounds, `ld` is less than `out_h*out_w`, or
/// `out` ends before the last row does.
pub fn im2col_strided_into(input: &Tensor4, n: usize, geom: ConvGeom, out: &mut [f32], ld: usize) {
    let s = input.shape();
    let (rows, cols) = (s.c * geom.kh * geom.kw, geom.out_h(s.h) * geom.out_w(s.w));
    assert!(
        ld >= cols && (rows == 0 || out.len() >= (rows - 1) * ld + cols),
        "im2col_strided_into: buffer length"
    );
    let item = input.item(n);
    tap_runs(s.c, s.h, s.w, geom, ld, |patch, at, len| {
        let dst = &mut out[patch..patch + len];
        if geom.stride == 1 {
            dst.copy_from_slice(&item[at..at + len]);
        } else {
            for (d, &v) in dst.iter_mut().zip(item[at..].iter().step_by(geom.stride)) {
                *d = v;
            }
        }
    });
}

/// Scatters a patch-matrix gradient (shape `[c_in*kh*kw, out_h*out_w]`) back
/// into an input-shaped gradient for batch item `n`, accumulating overlaps.
///
/// Inverse-adjoint of [`im2col`]: padding positions are dropped.
///
/// # Panics
///
/// Panics if `cols` has the wrong shape for `(grad_input.shape(), geom)`.
pub fn col2im(cols: &Tensor2, grad_input: &mut Tensor4, n: usize, geom: ConvGeom) {
    let s = grad_input.shape();
    col2im_item(cols, grad_input.item_mut(n), s.c, s.h, s.w, geom);
}

/// [`col2im`] operating on a single batch item's flat `[c × h × w]` slice —
/// the form used by the parallel convolution backward pass, where each
/// worker owns one item's disjoint `grad_input` slice.
///
/// # Panics
///
/// Panics if `grad_item.len() != c * h * w` or `cols` has the wrong shape
/// for `(c, h, w, geom)`.
pub fn col2im_item(
    cols: &Tensor2,
    grad_item: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeom,
) {
    let (oh, ow) = (geom.out_h(h), geom.out_w(w));
    assert_eq!(
        cols.shape(),
        Shape2::new(c * geom.kh * geom.kw, oh * ow),
        "col2im: patch matrix shape mismatch"
    );
    col2im_item_slice(cols.as_slice(), grad_item, c, h, w, geom);
}

/// [`col2im_item`] over a raw flat `[c*kh*kw, out_h*out_w]` row-major patch
/// matrix — the allocation-free form used by the scratch-reuse convolution
/// backward pass. Entries accumulate in channel, `ky`, `kx`, `oy`, `ox`
/// order, skipping padding taps.
///
/// # Panics
///
/// Panics if either slice has the wrong length for `(c, h, w, geom)`.
pub fn col2im_item_slice(
    cols: &[f32],
    grad_item: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeom,
) {
    let ocols = geom.out_h(h) * geom.out_w(w);
    assert_eq!(grad_item.len(), c * h * w, "col2im: item slice length");
    assert_eq!(
        cols.len(),
        c * geom.kh * geom.kw * ocols,
        "col2im: patch matrix length mismatch"
    );
    tap_runs(c, h, w, geom, ocols, |patch, at, len| {
        let src = &cols[patch..patch + len];
        if geom.stride == 1 {
            for (g, &v) in grad_item[at..at + len].iter_mut().zip(src) {
                *g += v;
            }
        } else {
            for (g, &v) in grad_item[at..].iter_mut().step_by(geom.stride).zip(src) {
                *g += v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape4;

    #[test]
    fn geometry() {
        let g = ConvGeom::square(3, 1, 1);
        assert_eq!(g.out_h(8), 8);
        assert_eq!(g.out_w(8), 8);
        let g = ConvGeom::square(3, 2, 0);
        assert_eq!(g.out_h(7), 3);
        let g = ConvGeom::square(1, 1, 0);
        assert_eq!(g.out_h(5), 5);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is just the channel planes.
        let t = Tensor4::from_fn(Shape4::new(1, 2, 2, 2), |_, c, h, w| {
            (c * 4 + h * 2 + w) as f32
        });
        let m = im2col(&t, 0, ConvGeom::square(1, 1, 0));
        assert_eq!(m.shape(), Shape2::new(2, 4));
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let t = Tensor4::full(Shape4::new(1, 1, 2, 2), 1.0);
        let m = im2col(&t, 0, ConvGeom::square(3, 1, 1));
        // Centre tap of the 3x3 kernel sees every input pixel.
        let centre = m.row(4);
        assert_eq!(centre, &[1.0, 1.0, 1.0, 1.0]);
        // Top-left tap only sees the input at output (1,1).
        let tl = m.row(0);
        assert_eq!(tl, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let geom = ConvGeom::square(3, 2, 1);
        let shape = Shape4::new(1, 2, 5, 5);
        let x = Tensor4::from_fn(shape, |_, c, h, w| ((c * 25 + h * 5 + w) as f32).sin());
        let cols = im2col(&x, 0, geom);
        let y = Tensor2::from_fn(cols.shape(), |r, c| ((r * 31 + c * 7) as f32).cos());
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let mut back = Tensor4::zeros(shape);
        col2im(&y, &mut back, 0, geom);
        let rhs: f32 = x.iter().zip(back.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
