//! Fiber spans.
//!
//! The medium of Fig. 1's WAN links: standard single-mode fiber with
//! 0.2 dB/km attenuation, group delay at `c / n_g`, and (optionally)
//! chromatic-dispersion-induced intersymbol interference modeled as a
//! symbol-rate-dependent low-pass on the envelope. The physical-layer
//! experiments push [`OpticalField`] blocks through [`FiberSpan::propagate`].

use crate::signal::OpticalField;
use crate::units;

/// A span of standard single-mode fiber.
#[derive(Debug, Clone)]
pub struct FiberSpan {
    /// Span length, km.
    pub length_km: f64,
    /// Attenuation, dB/km.
    pub(crate) attenuation_db_per_km: f64,
    /// Dispersion parameter D, ps/(nm·km); 17 for SMF-28 at 1550 nm.
    pub(crate) dispersion_ps_nm_km: f64,
}

impl FiberSpan {
    /// Standard SMF-28 span of the given length.
    pub fn smf(length_km: f64) -> Self {
        assert!(length_km >= 0.0, "negative fiber length");
        FiberSpan {
            length_km,
            attenuation_db_per_km: units::SMF_ATTENUATION_DB_PER_KM,
            dispersion_ps_nm_km: 17.0,
        }
    }

    /// A dispersion-compensated span: same loss and delay as SMF, zero
    /// residual dispersion. Deployed WAN links are dispersion-managed
    /// (DCF spools or coherent-DSP equalization), so frame transport in
    /// the network simulator uses this variant; the uncompensated
    /// [`FiberSpan::smf`] stays available for physical-layer experiments.
    pub fn compensated(length_km: f64) -> Self {
        FiberSpan {
            dispersion_ps_nm_km: 0.0,
            ..FiberSpan::smf(length_km)
        }
    }

    /// Total span loss, dB.
    pub fn total_loss_db(&self) -> f64 {
        self.length_km * self.attenuation_db_per_km
    }

    /// Accumulated dispersion, ps/nm.
    pub(crate) fn accumulated_dispersion_ps_nm(&self) -> f64 {
        self.dispersion_ps_nm_km * self.length_km
    }

    /// Dispersion-limited bandwidth for on-off envelopes, Hz.
    ///
    /// Uses the engineering rule that pulse broadening `Δt = D·L·Δλ` with
    /// signal spectral width `Δλ ≈ λ²·B/c` limits usable symbol rate to
    /// roughly `B ≤ sqrt(c / (2 D L λ²))` — the classic dispersion-length
    /// trade-off. Returns `f64::INFINITY` for a zero-dispersion span.
    pub(crate) fn dispersion_limited_bandwidth_hz(&self, wavelength_m: f64) -> f64 {
        let d_total = self.accumulated_dispersion_ps_nm() * 1e-12 / 1e-9; // s/m
        if d_total <= 0.0 {
            return f64::INFINITY;
        }
        (units::C_VACUUM / (2.0 * d_total * wavelength_m * wavelength_m)).sqrt()
    }

    /// Propagate a field through the span: attenuate, rotate by the
    /// carrier phase accumulated over the length, and apply the
    /// dispersion-limited low-pass to the envelope when the block's
    /// sample rate exceeds the dispersion limit.
    pub fn propagate(&self, input: &OpticalField) -> OpticalField {
        let mut out = input.clone();
        out.attenuate_db(self.total_loss_db());
        // Carrier phase modulo 2π (physically exact phase is enormous;
        // only the modulo matters for interference downstream).
        let phase = (std::f64::consts::TAU * self.length_km * 1e3 / input.wavelength_m)
            % std::f64::consts::TAU;
        out.rotate_phase(phase);
        let disp_bw = self.dispersion_limited_bandwidth_hz(input.wavelength_m);
        if disp_bw.is_finite() && disp_bw < input.sample_rate_hz / 2.0 {
            // Apply the band limit to I and Q envelopes independently.
            let mut re: Vec<f64> = out.samples.iter().map(|s| s.re).collect();
            let mut im: Vec<f64> = out.samples.iter().map(|s| s.im).collect();
            let mut wre = crate::signal::AnalogWaveform::new(re.clone(), out.sample_rate_hz);
            let mut wim = crate::signal::AnalogWaveform::new(im.clone(), out.sample_rate_hz);
            wre.lowpass(disp_bw);
            wim.lowpass(disp_bw);
            re = wre.samples;
            im = wim.samples;
            for (i, s) in out.samples.iter_mut().enumerate() {
                *s = crate::Complex::new(re[i], im[i]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 10e9;
    const WL: f64 = units::C_BAND_WAVELENGTH_M;

    #[test]
    fn loss_is_02_db_per_km() {
        let span = FiberSpan::smf(100.0);
        assert!((span.total_loss_db() - 20.0).abs() < 1e-12);
        let input = OpticalField::cw(4, 1e-3, RATE, WL);
        let out = span.propagate(&input);
        assert!((out.mean_power_w() - 1e-5).abs() / 1e-5 < 1e-9);
    }

    #[test]
    fn zero_length_span_is_identity() {
        let span = FiberSpan::smf(0.0);
        let input = OpticalField::cw(4, 1e-3, RATE, WL);
        let out = span.propagate(&input);
        assert_eq!(out.samples, input.samples);
    }

    #[test]
    fn dispersion_limit_shrinks_with_length() {
        let short = FiberSpan::smf(10.0);
        let long = FiberSpan::smf(1000.0);
        let b_short = short.dispersion_limited_bandwidth_hz(WL);
        let b_long = long.dispersion_limited_bandwidth_hz(WL);
        assert!(b_short > b_long);
        // 1000 km uncompensated SMF supports only a few GHz OOK.
        assert!(b_long < 10e9, "limit {b_long}");
        assert!(b_long > 1e9, "limit {b_long}");
    }

    #[test]
    fn zero_dispersion_is_unlimited() {
        let mut span = FiberSpan::smf(100.0);
        span.dispersion_ps_nm_km = 0.0;
        assert_eq!(span.dispersion_limited_bandwidth_hz(WL), f64::INFINITY);
    }

    #[test]
    fn long_span_smears_fast_envelope() {
        let span = FiberSpan::smf(2000.0);
        // Alternating on/off at 10 GHz over 2000 km: dispersion limit is
        // ~2 GHz, so the pattern must be heavily smeared.
        let amp = 1e-3f64.sqrt();
        let samples: Vec<crate::Complex> = (0..256)
            .map(|i| {
                if i % 2 == 0 {
                    crate::Complex::new(amp, 0.0)
                } else {
                    crate::Complex::ZERO
                }
            })
            .collect();
        let input = OpticalField {
            samples,
            sample_rate_hz: RATE,
            wavelength_m: WL,
        };
        let out = span.propagate(&input);
        // Contrast between even and odd samples collapses.
        let even: f64 = out.samples.iter().step_by(2).map(|s| s.norm_sqr()).sum();
        let odd: f64 = out
            .samples
            .iter()
            .skip(1)
            .step_by(2)
            .map(|s| s.norm_sqr())
            .sum();
        let contrast = (even - odd).abs() / (even + odd).max(1e-30);
        assert!(contrast < 0.2, "contrast {contrast}");
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_length() {
        FiberSpan::smf(-1.0);
    }
}
