//! Bit-error-rate estimation.
//!
//! A Monte-Carlo BER measurement harness for the Fig. 3 transponder
//! paths: random bits from a TX path, over a fiber span, into an RX path.

use crate::rxpath::RxPath;
use crate::txpath::TxPath;
use ofpc_photonics::fiber::FiberSpan;
use ofpc_photonics::SimRng;

/// Result of a Monte-Carlo BER run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerReport {
    pub(crate) bits_tested: u64,
    pub(crate) bit_errors: u64,
    pub(crate) ber: f64,
}

/// Measure BER by sending random bits from `tx` to `rx` over `span`.
pub fn measure_ber(
    tx: &mut TxPath,
    rx: &mut RxPath,
    span: &FiberSpan,
    n_bits: usize,
    rng: &mut SimRng,
) -> BerReport {
    assert!(n_bits > 0, "need at least one bit");
    let bits: Vec<bool> = (0..n_bits).map(|_| rng.chance(0.5)).collect();
    let field = tx.transmit(&bits);
    let received = span.propagate(&field);
    let got = rx.receive(&received);
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
    use crate::rxpath::tests::link;
    use crate::rxpath::RxConfig;
    use crate::txpath::TxConfig;

    #[test]
    fn clean_short_link_is_error_free() {
        let mut rng = SimRng::seed_from_u64(0);
        let span = FiberSpan::smf(10.0);
        let (mut tx, mut rx) = link(
            TxConfig::ideal(),
            RxConfig::ideal(),
            span.total_loss_db(),
            &mut rng,
        );
        let report = measure_ber(&mut tx, &mut rx, &span, 2_000, &mut rng);
        assert_eq!(report.bit_errors, 0, "{report:?}");
    }

    #[test]
    fn noisy_long_link_has_errors() {
        let mut rng = SimRng::seed_from_u64(1);
        // 120 km unamplified with realistic receiver noise: 24 dB of loss
        // pushes the signal toward the thermal floor.
        let span = FiberSpan::smf(120.0);
        let (mut tx, mut rx) = link(
            TxConfig::realistic(),
            RxConfig::realistic(),
            span.total_loss_db(),
            &mut rng,
        );
        let report = measure_ber(&mut tx, &mut rx, &span, 5_000, &mut rng);
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
            let (mut tx, mut rx) = link(
                TxConfig::realistic(),
                RxConfig::realistic(),
                span.total_loss_db(),
                &mut rng,
            );
            let report = measure_ber(&mut tx, &mut rx, &span, 4_000, &mut rng);
            bers.push(report.ber);
        }
        assert!(
            bers[2] >= bers[0],
            "BER should not improve with distance: {bers:?}"
        );
    }
}
