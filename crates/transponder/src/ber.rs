//! Bit-error-rate estimation.
//!
//! Link-quality math for the transponder paths: Q-factor from the
//! received 0/1 current statistics, the standard `BER = ½·erfc(Q/√2)`
//! mapping, and a Monte-Carlo BER measurement harness used by experiment
//! E3 to show the photonic engine does not degrade the through-path.

use crate::commodity::CommodityTransponder;
use ofpc_photonics::fiber::FiberSpan;
use ofpc_photonics::SimRng;

/// Complementary error function (Abramowitz–Stegun 7.1.26 rational
/// approximation; max absolute error ~1.5e-7, ample for BER curves).
pub fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x_abs);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erfc_pos = poly * (-x_abs * x_abs).exp();
    if sign_negative {
        2.0 - erfc_pos
    } else {
        erfc_pos
    }
}

/// BER for a given Q-factor: `½·erfc(Q/√2)`.
pub fn q_to_ber(q: f64) -> f64 {
    0.5 * erfc(q / std::f64::consts::SQRT_2)
}

/// Q-factor from level statistics: `Q = (μ₁ − μ₀) / (σ₁ + σ₀)`.
pub fn q_factor(mean_one: f64, mean_zero: f64, sigma_one: f64, sigma_zero: f64) -> f64 {
    let denom = sigma_one + sigma_zero;
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        (mean_one - mean_zero) / denom
    }
}

/// Result of a Monte-Carlo BER run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerReport {
    pub bits_tested: u64,
    pub bit_errors: u64,
    pub ber: f64,
}

/// Measure BER by sending random bits from `a` to `b` over `span`.
pub fn measure_ber(
    a: &mut CommodityTransponder,
    b: &mut CommodityTransponder,
    span: &FiberSpan,
    n_bits: usize,
    rng: &mut SimRng,
) -> BerReport {
    assert!(n_bits > 0, "need at least one bit");
    let bits: Vec<bool> = (0..n_bits).map(|_| rng.chance(0.5)).collect();
    let field = a.tx.transmit(&bits);
    let received = span.propagate(&field);
    let got = b.rx.receive(&received);
    let errors = bits.iter().zip(&got).filter(|(x, y)| x != y).count() as u64;
    BerReport {
        bits_tested: n_bits as u64,
        bit_errors: errors,
        ber: errors as f64 / n_bits as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rxpath::RxConfig;
    use crate::txpath::TxConfig;

    #[test]
    fn erfc_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        assert!((erfc(-1.0) - 1.842701).abs() < 1e-5);
        assert!(erfc(5.0) < 1e-11);
    }

    #[test]
    fn q_to_ber_benchmarks() {
        // Q = 6 ⇒ BER ≈ 1e-9; Q = 7 ⇒ ≈ 1.3e-12 (textbook pairs).
        let b6 = q_to_ber(6.0);
        assert!(b6 > 5e-10 && b6 < 2e-9, "BER(6) = {b6}");
        let b7 = q_to_ber(7.0);
        assert!(b7 < 1e-11, "BER(7) = {b7}");
    }

    #[test]
    fn q_factor_edge_cases() {
        assert_eq!(q_factor(1.0, 0.0, 0.0, 0.0), f64::INFINITY);
        assert!((q_factor(1.0, 0.0, 0.1, 0.1) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn clean_short_link_is_error_free() {
        let mut rng = SimRng::seed_from_u64(0);
        let span = FiberSpan::smf(10.0);
        let mut a = CommodityTransponder::ideal(&mut rng);
        let mut b = CommodityTransponder::new(TxConfig::ideal(), RxConfig::ideal(), &mut rng);
        b.rx.calibrate_for_one_level(
            a.tx.one_level_w() * ofpc_photonics::units::db_to_linear(-span.total_loss_db()),
        );
        let report = measure_ber(&mut a, &mut b, &span, 2_000, &mut rng);
        assert_eq!(report.bit_errors, 0, "{report:?}");
    }

    #[test]
    fn noisy_long_link_has_errors() {
        let mut rng = SimRng::seed_from_u64(1);
        // 120 km unamplified with realistic receiver noise: 24 dB of loss
        // pushes the signal toward the thermal floor.
        let span = FiberSpan::smf(120.0);
        let mut a = CommodityTransponder::realistic(0.0, &mut rng);
        let mut b = CommodityTransponder::realistic(span.total_loss_db(), &mut rng);
        let report = measure_ber(&mut a, &mut b, &span, 5_000, &mut rng);
        assert!(report.ber > 0.0, "expected a noisy link, got {report:?}");
        assert!(
            report.ber < 0.5,
            "link should not be pure noise: {report:?}"
        );
    }

    #[test]
    fn ber_monotone_in_distance() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut bers = Vec::new();
        for km in [60.0, 100.0, 140.0] {
            let span = FiberSpan::smf(km);
            let mut a = CommodityTransponder::realistic(0.0, &mut rng);
            let mut b = CommodityTransponder::realistic(span.total_loss_db(), &mut rng);
            let report = measure_ber(&mut a, &mut b, &span, 4_000, &mut rng);
            bers.push(report.ber);
        }
        assert!(
            bers[2] >= bers[0],
            "BER should not improve with distance: {bers:?}"
        );
    }
}
