//! 16-bit fixed-point values mirroring the paper's PEs.
//!
//! Table II of the paper specifies "16-bit Fixed Point PE"s. The host
//! computes every result in `f32`; this representation appears only in the
//! compiled `.snapea` artifact, which stores each predictive kernel's
//! walk-order weights quantised to a [`Q16Format`].
//!
//! The format is Q notation with a configurable number of fractional bits
//! (default Q8.8 via [`Q16::DEFAULT_FRAC_BITS`]); conversion from `f32`
//! rounds to nearest and saturates at the 16-bit rails.

use serde::{Deserialize, Serialize};

/// A 16-bit fixed-point value with `FRAC` fractional bits implied by the
/// [`Q16Format`] used to create it.
///
/// `Q16` is a plain wrapper over `i16`; the format travels separately (the
/// hardware fixes it per accelerator configuration, not per value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Q16(pub i16);

impl Q16 {
    /// Default number of fractional bits (Q8.8).
    pub const DEFAULT_FRAC_BITS: u32 = 8;

    /// The raw underlying bits.
    pub fn raw(self) -> i16 {
        self.0
    }
}

/// Fixed-point format: the number of fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Q16Format {
    frac_bits: u32,
}

impl Default for Q16Format {
    fn default() -> Self {
        Self {
            frac_bits: Q16::DEFAULT_FRAC_BITS,
        }
    }
}

impl Q16Format {
    /// Creates a format with `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits >= 16`.
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits < 16, "Q16 supports at most 15 fractional bits");
        Self { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Quantises an `f32` to fixed point, rounding to nearest and saturating.
    pub fn quantize(self, v: f32) -> Q16 {
        let scaled = (v * (1i32 << self.frac_bits) as f32).round();
        Q16(crate::num::sat_i16(scaled))
    }

    /// Converts a fixed-point value back to `f32`.
    pub fn dequantize(self, q: Q16) -> f32 {
        q.0 as f32 / (1i32 << self.frac_bits) as f32
    }

    /// The quantisation step (value of one least-significant bit).
    pub fn lsb(self) -> f32 {
        1.0 / (1i32 << self.frac_bits) as f32
    }
}

/// Quantises a slice of `f32` values into fixed point.
pub fn quantize_slice(fmt: Q16Format, values: &[f32]) -> Vec<Q16> {
    values.iter().map(|&v| fmt.quantize(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_lsb() {
        let fmt = Q16Format::default();
        for &v in &[0.0_f32, 1.0, -1.0, 0.5, -0.4999, 3.75, -7.125, 100.0] {
            let q = fmt.quantize(v);
            let back = fmt.dequantize(q);
            assert!((back - v).abs() <= fmt.lsb() / 2.0 + 1e-6, "{v} -> {back}");
        }
    }

    #[test]
    fn saturation() {
        let fmt = Q16Format::new(8);
        assert_eq!(fmt.quantize(1e9).raw(), i16::MAX);
        assert_eq!(fmt.quantize(-1e9).raw(), i16::MIN);
    }

    #[test]
    fn quantize_slice_matches_elementwise() {
        let fmt = Q16Format::default();
        let v = [0.1_f32, -0.2, 0.3];
        let q = quantize_slice(fmt, &v);
        assert_eq!(q.len(), 3);
        for (a, &b) in q.iter().zip(v.iter()) {
            assert_eq!(*a, fmt.quantize(b));
        }
    }
}
