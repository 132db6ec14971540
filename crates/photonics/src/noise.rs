//! Noise physics shared by the device models.
//!
//! The paper's §4 calls out "new algorithms to mitigate photonic noise
//! during computation" as a core challenge; this module provides the noise
//! processes that make that challenge real in simulation:
//!
//! * **Shot noise** — Poissonian photocurrent fluctuation, variance
//!   `σ² = 2 q I Δf`.
//! * **Thermal (Johnson–Nyquist) noise** — receiver load resistor noise,
//!   variance `σ² = 4 k T Δf / R`.
//! * **Relative intensity noise (RIN)** — laser power fluctuation,
//!   variance `σ² = P² · 10^(RIN_dB/10) · Δf`.
//! * **ASE** — amplified spontaneous emission added by EDFAs, power
//!   spectral density `S = (G − 1) · nsp · hν` per polarization.

use crate::units;

/// Shot-noise standard deviation (amps) for mean photocurrent
/// `current_a` over bandwidth `bandwidth_hz`.
#[inline]
pub(crate) fn shot_noise_sigma_a(current_a: f64, bandwidth_hz: f64) -> f64 {
    (2.0 * units::ELEMENTARY_CHARGE * current_a.abs() * bandwidth_hz.max(0.0)).sqrt()
}

/// Load resistance the thermal noise is referred to, ohms.
const LOAD_OHMS: f64 = 50.0;

/// Thermal-noise standard deviation (amps) of the 50 Ω detector load
/// over bandwidth `bandwidth_hz` at room temperature.
#[inline]
pub(crate) fn thermal_noise_sigma_a(bandwidth_hz: f64) -> f64 {
    (4.0 * units::BOLTZMANN * units::ROOM_TEMP_K * bandwidth_hz.max(0.0) / LOAD_OHMS).sqrt()
}

/// RIN-induced power standard deviation (watts) on mean optical power
/// `power_w` for a laser with relative intensity noise `rin_db_hz`
/// (dB/Hz, typically −145 to −160) over bandwidth `bandwidth_hz`.
#[inline]
pub(crate) fn rin_sigma_w(power_w: f64, rin_db_hz: f64, bandwidth_hz: f64) -> f64 {
    let rin_linear = units::db_to_linear(rin_db_hz);
    (power_w * power_w * rin_linear * bandwidth_hz.max(0.0)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shot_noise_scales_with_sqrt_current() {
        let s1 = shot_noise_sigma_a(1e-3, 10e9);
        let s4 = shot_noise_sigma_a(4e-3, 10e9);
        assert!((s4 / s1 - 2.0).abs() < 1e-12);
        // Textbook value: 2qIΔf with I=1mA, Δf=10GHz → σ ≈ 1.79 µA.
        assert!((s1 - 1.79e-6).abs() / 1.79e-6 < 0.01, "got {s1}");
    }

    #[test]
    fn shot_noise_zero_current_is_zero() {
        assert_eq!(shot_noise_sigma_a(0.0, 10e9), 0.0);
        // Negative bandwidth clamps rather than producing NaN.
        assert_eq!(shot_noise_sigma_a(1e-3, -1.0), 0.0);
    }

    #[test]
    fn thermal_noise_textbook_value() {
        // 4kTΔf/R with R=50Ω, Δf=10GHz, T=290K → σ ≈ 1.79 µA.
        let s = thermal_noise_sigma_a(10e9);
        assert!((s - 1.79e-6).abs() / 1.79e-6 < 0.01, "got {s}");
    }

    #[test]
    fn rin_scales_linearly_with_power() {
        let a = rin_sigma_w(1e-3, -150.0, 10e9);
        let b = rin_sigma_w(2e-3, -150.0, 10e9);
        assert!((b / a - 2.0).abs() < 1e-12);
    }
}
