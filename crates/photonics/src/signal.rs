//! Signal types flowing between devices.
//!
//! Two representations cross device boundaries:
//!
//! * [`OpticalField`] — a block of complex envelope samples on one
//!   wavelength. `|sample|²` is instantaneous optical power in watts.
//! * [`AnalogWaveform`] — an electrical voltage/current sample block, the
//!   input of DACs/modulator drivers and the output of photodetectors.
//!
//! Both carry their sample rate so devices can apply bandwidth-dependent
//! noise correctly.

use crate::complex::Complex;
use crate::units;

/// A block of complex optical envelope samples on a single wavelength.
#[derive(Debug, Clone)]
pub struct OpticalField {
    /// Envelope samples; `|e|²` = instantaneous power (W).
    pub samples: Vec<Complex>,
    /// Sample rate in Hz (symbol rate of the block).
    pub sample_rate_hz: f64,
    /// Carrier wavelength in meters.
    pub wavelength_m: f64,
}

impl OpticalField {
    /// A dark (all-zero) field of `n` samples.
    pub fn dark(n: usize, sample_rate_hz: f64, wavelength_m: f64) -> Self {
        OpticalField {
            samples: vec![Complex::ZERO; n],
            sample_rate_hz,
            wavelength_m,
        }
    }

    /// Continuous-wave C-band field: every sample at amplitude
    /// `sqrt(power_w)`.
    pub fn cw(n: usize, power_w: f64, sample_rate_hz: f64) -> Self {
        let amp = power_w.max(0.0).sqrt();
        OpticalField {
            samples: vec![Complex::new(amp, 0.0); n],
            sample_rate_hz,
            wavelength_m: crate::units::C_BAND_WAVELENGTH_M,
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Instantaneous power of sample `i`, W.
    #[inline]
    pub fn power_at(&self, i: usize) -> f64 {
        self.samples[i].norm_sqr()
    }

    /// Mean optical power over the block, W. Zero for an empty block.
    pub fn mean_power_w(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / self.samples.len() as f64
    }

    /// Apply a flat power loss of `loss_db` ≥ 0 dB (amplitude scaling).
    pub fn attenuate_db(&mut self, loss_db: f64) {
        let amp_scale = units::db_to_linear(-loss_db.abs()).sqrt();
        for s in &mut self.samples {
            *s = s.scale(amp_scale);
        }
    }

    /// Apply a uniform phase rotation to every sample.
    pub fn rotate_phase(&mut self, theta: f64) {
        let ph = Complex::phasor(theta);
        for s in &mut self.samples {
            *s *= ph;
        }
    }

    /// Block duration in seconds.
    pub(crate) fn duration_s(&self) -> f64 {
        if self.sample_rate_hz <= 0.0 {
            0.0
        } else {
            self.samples.len() as f64 / self.sample_rate_hz
        }
    }
}

/// A block of electrical samples (volts by convention; photodetector output
/// is a current that a transimpedance stage maps to volts).
#[derive(Debug, Clone)]
pub struct AnalogWaveform {
    pub samples: Vec<f64>,
    pub(crate) sample_rate_hz: f64,
}

impl AnalogWaveform {
    pub fn new(samples: Vec<f64>, sample_rate_hz: f64) -> Self {
        AnalogWaveform {
            samples,
            sample_rate_hz,
        }
    }

    pub(crate) fn zeros(n: usize, sample_rate_hz: f64) -> Self {
        AnalogWaveform::new(vec![0.0; n], sample_rate_hz)
    }

    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Single-pole low-pass filter with 3-dB cutoff `cutoff_hz`, modelling
    /// the dispersion limit of a fiber span (`FiberSpan::propagate`).
    /// First-order IIR: `y[n] = y[n-1] + α (x[n] − y[n-1])`.
    pub(crate) fn lowpass(&mut self, cutoff_hz: f64) {
        if self.samples.is_empty() || cutoff_hz <= 0.0 || self.sample_rate_hz <= 0.0 {
            return;
        }
        // α from the bilinear-ish RC mapping; cutoff ≥ Nyquist ⇒ passthrough.
        if cutoff_hz >= self.sample_rate_hz / 2.0 {
            return;
        }
        let dt = 1.0 / self.sample_rate_hz;
        let rc = 1.0 / (std::f64::consts::TAU * cutoff_hz);
        let alpha = dt / (rc + dt);
        // Filter starts at rest (y = 0), like an RC network before the
        // signal arrives.
        let mut y = 0.0;
        for s in &mut self.samples {
            y += alpha * (*s - y);
            *s = y;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 10e9;
    const WL: f64 = units::C_BAND_WAVELENGTH_M;

    #[test]
    fn cw_power_is_uniform() {
        let f = OpticalField::cw(64, 2e-3, RATE);
        assert!((f.mean_power_w() - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn dark_field_has_no_energy() {
        let f = OpticalField::dark(16, RATE, WL);
        assert_eq!(f.mean_power_w(), 0.0);
    }

    #[test]
    fn attenuation_halves_power_at_3db() {
        let mut f = OpticalField::cw(8, 1e-3, RATE);
        f.attenuate_db(3.0103);
        assert!((f.mean_power_w() - 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn attenuation_is_loss_even_for_negative_input() {
        // Sign mistakes must not create gain.
        let mut f = OpticalField::cw(8, 1e-3, RATE);
        f.attenuate_db(-3.0);
        assert!(f.mean_power_w() < 1e-3);
    }

    #[test]
    fn phase_rotation_preserves_power() {
        let mut f = OpticalField::cw(8, 1e-3, RATE);
        f.rotate_phase(1.234);
        assert!((f.mean_power_w() - 1e-3).abs() < 1e-18);
        assert!((f.samples[0].arg() - 1.234).abs() < 1e-12);
    }

    #[test]
    fn duration_is_samples_over_rate() {
        let f = OpticalField::cw(1000, 1e-3, RATE);
        assert!((f.duration_s() - 1000.0 / RATE).abs() < 1e-18);
    }

    #[test]
    fn waveform_stats() {
        let w = AnalogWaveform::new(vec![1.0, -1.0, 1.0, -1.0], RATE);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn lowpass_attenuates_alternating_signal() {
        // Nyquist-rate square wave should be heavily attenuated by a
        // cutoff far below the sample rate.
        let samples: Vec<f64> = (0..512)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut w = AnalogWaveform::new(samples, RATE);
        w.lowpass(RATE / 100.0);
        // Judge the steady state (skip the startup transient).
        let tail = &w.samples[256..];
        let rms = (tail.iter().map(|s| s * s).sum::<f64>() / tail.len() as f64).sqrt();
        assert!(rms < 0.1, "rms {rms}");
    }

    #[test]
    fn lowpass_passes_dc() {
        let mut w = AnalogWaveform::new(vec![0.7; 256], RATE);
        w.lowpass(RATE / 100.0);
        assert!((w.samples[255] - 0.7).abs() < 1e-6);
    }

    #[test]
    fn lowpass_above_nyquist_is_identity() {
        let orig: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        let mut w = AnalogWaveform::new(orig.clone(), RATE);
        w.lowpass(RATE);
        assert_eq!(w.samples, orig);
    }

    #[test]
    fn empty_blocks_are_safe() {
        let f = OpticalField::dark(0, RATE, WL);
        assert_eq!(f.mean_power_w(), 0.0);
        let mut w = AnalogWaveform::zeros(0, RATE);
        w.lowpass(1e9);
        assert_eq!(w.mean(), 0.0);
    }
}
