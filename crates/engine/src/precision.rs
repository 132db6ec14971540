//! Analog precision analysis.
//!
//! Photonic computing trades digital exactness for speed and energy; the
//! currency of that trade is *effective bits*. This module predicts the
//! effective resolution of a P1 readout from the receiver physics and
//! measures it empirically from repeated trials, so experiments (E2a,
//! E10) can plot precision against optical power, vector length, and
//! noise sources — the paper's §4 "high accuracy" challenge made
//! quantitative.

use crate::dot::DotProductUnit;
use ofpc_photonics::units;

/// Predicted effective bits of a single-symbol P1 measurement given the
/// photodetector's SNR at the operating optical power.
///
/// The integrated readout over `n` symbols averages noise down by `√n`
/// *relative to the per-symbol full scale*, but the result's full scale
/// also grows as `n`, so per-element resolution is what the SNR sets.
pub fn predicted_effective_bits(pd_snr_db: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    // Averaging gain: SNR of the sum improves by 10·log10(n) for
    // independent noise, referenced to the summed signal.
    let snr_sum = pd_snr_db + 10.0 * (n as f64).log10();
    units::snr_db_to_enob(snr_sum)
}

/// Empirical precision measurement of a dot-product unit.
#[derive(Debug, Clone, Copy)]
pub struct PrecisionReport {
    /// RMS error of the normalized result (result / n), dimensionless.
    pub rms_error: f64,
    /// Effective bits: `log2(1 / rms_error)` of the normalized result.
    pub effective_bits: f64,
}

/// Measure the effective precision of `unit` on random vectors of length
/// `n` over `trials` repetitions. The reference is the exact dot product
/// of the quantized operands.
pub fn measure_precision(
    unit: &mut DotProductUnit,
    n: usize,
    trials: usize,
    rng: &mut ofpc_photonics::SimRng,
) -> PrecisionReport {
    assert!(n > 0 && trials > 0, "need positive n and trials");
    let mut sq_sum = 0.0;
    for _ in 0..trials {
        let a: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let exact: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let got = unit.dot_nonneg(&a, &b);
        let err = (got - exact).abs() / n as f64;
        sq_sum += err * err;
    }
    let rms = (sq_sum / trials as f64).sqrt();
    PrecisionReport {
        rms_error: rms,
        effective_bits: if rms > 0.0 {
            (1.0 / rms).log2()
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dot::DotUnitConfig;
    use ofpc_photonics::SimRng;

    #[test]
    fn predicted_bits_grow_with_snr() {
        let low = predicted_effective_bits(20.0, 1);
        let high = predicted_effective_bits(50.0, 1);
        assert!(high > low + 4.0);
    }

    #[test]
    fn averaging_adds_half_bit_per_doubling() {
        let b1 = predicted_effective_bits(30.0, 16);
        let b2 = predicted_effective_bits(30.0, 64);
        // 10·log10(4) ≈ 6 dB ≈ 1 bit.
        assert!((b2 - b1 - 1.0).abs() < 0.05, "b1 {b1} b2 {b2}");
    }

    #[test]
    fn zero_length_has_zero_bits() {
        assert_eq!(predicted_effective_bits(40.0, 0), 0.0);
    }

    #[test]
    fn ideal_unit_measures_many_effective_bits() {
        let mut unit = DotProductUnit::ideal();
        let mut rng = SimRng::seed_from_u64(11);
        let report = measure_precision(&mut unit, 16, 20, &mut rng);
        assert!(report.effective_bits > 8.0, "{report:?}");
    }

    #[test]
    fn noisy_unit_loses_bits() {
        let mut rng = SimRng::seed_from_u64(12);
        let mut ideal = DotProductUnit::ideal();
        let mut noisy = DotProductUnit::new(DotUnitConfig::realistic(), &mut rng);
        noisy.calibrate(256);
        let mut r1 = SimRng::seed_from_u64(13);
        let mut r2 = SimRng::seed_from_u64(13);
        let clean = measure_precision(&mut ideal, 32, 15, &mut r1);
        let dirty = measure_precision(&mut noisy, 32, 15, &mut r2);
        assert!(
            clean.effective_bits > dirty.effective_bits + 1.0,
            "clean {clean:?} dirty {dirty:?}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_trials() {
        let mut unit = DotProductUnit::ideal();
        let mut rng = SimRng::seed_from_u64(0);
        measure_precision(&mut unit, 4, 0, &mut rng);
    }
}
