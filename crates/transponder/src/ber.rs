//! Bit-error-rate estimation.
//!
//! A Monte-Carlo BER measurement harness for the transponder paths:
//! random bits from one transponder's TX path, over a fiber span, into
//! another's RX path.

use crate::commodity::CommodityTransponder;
use ofpc_photonics::fiber::FiberSpan;
use ofpc_photonics::SimRng;

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
