//! Struct-of-arrays optical field buffers.
//!
//! [`OpticalField`] stores an array of `Complex` structs — natural for
//! per-sample device walks, hostile to data-parallel loops (every power
//! computation strides over interleaved re/im pairs, and fused pipelines
//! end up cloning whole fields per stage). [`FieldBlock`] is the same
//! sample block laid out as two contiguous `f64` lanes. Conversion is
//! lossless in both directions (bit-exact per component, including
//! denormals, signed zeros, and infinities), which the property tests in
//! `tests/kernels.rs` pin.

use crate::complex::Complex;
use crate::signal::OpticalField;

/// A block of optical field samples in struct-of-arrays layout:
/// separate real and imaginary lanes plus the block metadata carried by
/// [`OpticalField`].
#[derive(Debug, Clone, PartialEq)]
pub struct FieldBlock {
    /// Real lane of the envelope samples.
    pub re: Vec<f64>,
    /// Imaginary lane of the envelope samples.
    pub im: Vec<f64>,
    /// Sample rate in Hz (symbol rate of the block).
    pub sample_rate_hz: f64,
    /// Carrier wavelength in meters.
    pub wavelength_m: f64,
}

impl FieldBlock {
    /// An all-dark (zero-field) block.
    pub fn dark(n: usize, sample_rate_hz: f64, wavelength_m: f64) -> Self {
        FieldBlock {
            re: vec![0.0; n],
            im: vec![0.0; n],
            sample_rate_hz,
            wavelength_m,
        }
    }

    /// Convert from the array-of-structs representation. Lossless:
    /// every component is copied bit-for-bit.
    pub fn from_field(field: &OpticalField) -> Self {
        FieldBlock {
            re: field.samples.iter().map(|s| s.re).collect(),
            im: field.samples.iter().map(|s| s.im).collect(),
            sample_rate_hz: field.sample_rate_hz,
            wavelength_m: field.wavelength_m,
        }
    }

    /// Convert back to the array-of-structs representation. Lossless.
    pub fn to_field(&self) -> OpticalField {
        OpticalField {
            samples: self
                .re
                .iter()
                .zip(&self.im)
                .map(|(&re, &im)| Complex::new(re, im))
                .collect(),
            sample_rate_hz: self.sample_rate_hz,
            wavelength_m: self.wavelength_m,
        }
    }

    /// Number of samples in the block.
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Whether the block holds no samples.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Instantaneous power `|e|²` of sample `k`, watts.
    pub fn power_at(&self, k: usize) -> f64 {
        self.re[k] * self.re[k] + self.im[k] * self.im[k]
    }

    /// Mean optical power over the block, watts (0 for an empty block).
    pub fn mean_power_w(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| re * re + im * im)
            .sum();
        total / self.len() as f64
    }

    /// Scale every sample's field amplitude by `s` (power by `s²`).
    pub fn scale_all(&mut self, s: f64) {
        for v in &mut self.re {
            *v *= s;
        }
        for v in &mut self.im {
            *v *= s;
        }
    }

    /// Duration of the block in seconds.
    pub fn duration_s(&self) -> f64 {
        if self.sample_rate_hz <= 0.0 {
            return 0.0;
        }
        self.len() as f64 / self.sample_rate_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units;

    const RATE: f64 = 32e9;
    const WL: f64 = units::C_BAND_WAVELENGTH_M;

    #[test]
    fn round_trip_is_bit_exact() {
        // Include the awkward values: denormals, ±0, infinities.
        let samples = vec![
            Complex::new(1.5e-3, -2.5e-4),
            Complex::new(1e-310, -1e-310), // denormal
            Complex::new(0.0, -0.0),
            Complex::new(f64::INFINITY, f64::MIN_POSITIVE),
        ];
        let field = OpticalField {
            samples,
            sample_rate_hz: RATE,
            wavelength_m: WL,
        };
        let block = FieldBlock::from_field(&field);
        let back = block.to_field();
        assert_eq!(field.samples.len(), back.samples.len());
        for (a, b) in field.samples.iter().zip(&back.samples) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(field.sample_rate_hz, back.sample_rate_hz);
        assert_eq!(field.wavelength_m, back.wavelength_m);
    }

    #[test]
    fn power_matches_complex_norm_sqr() {
        let field = OpticalField::cw(16, 1e-3, RATE, WL);
        let block = FieldBlock::from_field(&field);
        for k in 0..block.len() {
            assert_eq!(
                block.power_at(k).to_bits(),
                field.samples[k].norm_sqr().to_bits()
            );
        }
        assert!((block.mean_power_w() - field.mean_power_w()).abs() < 1e-18);
    }

    #[test]
    fn scale_all_scales_power_quadratically() {
        let mut block = FieldBlock::from_field(&OpticalField::cw(4, 1e-3, RATE, WL));
        let before = block.mean_power_w();
        block.scale_all(0.5);
        assert!((block.mean_power_w() - 0.25 * before).abs() < 1e-18);
    }

    #[test]
    fn dark_block_is_dark() {
        let block = FieldBlock::dark(8, RATE, WL);
        assert_eq!(block.len(), 8);
        assert!(!block.is_empty());
        assert_eq!(block.mean_power_w(), 0.0);
        assert!((block.duration_s() - 8.0 / RATE).abs() < 1e-24);
    }
}
