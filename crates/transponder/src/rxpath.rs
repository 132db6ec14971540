//! Receive path (Fig. 3, bottom): fiber → photodetector → threshold
//! slicer → bits.
//!
//! Square-law detection of the OOK envelope and threshold slicing at the
//! calibrated midpoint. No frame terminates at a simulated node, so no
//! run reads this path's ADC or DSP energy and neither is modeled: the
//! path is the direct-detection reference for
//! [`measure_ber`](crate::ber::measure_ber) and for the coherent path's
//! sensitivity comparison.

use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use ofpc_photonics::signal::OpticalField;
use ofpc_photonics::SimRng;

/// The receive path of a transponder.
#[derive(Debug, Clone)]
pub struct RxPath {
    pd: Photodetector,
    /// Decision threshold in amps (midpoint of calibrated 0/1 currents).
    threshold_a: Option<f64>,
}

impl RxPath {
    pub fn new(pd: PhotodetectorConfig, rng: &mut SimRng) -> Self {
        RxPath {
            pd: Photodetector::new(pd, rng.derive("rx-pd")),
            threshold_a: None,
        }
    }

    /// Set the decision threshold from the expected received '1' power
    /// (link budget): threshold at half the '1' photocurrent.
    pub fn calibrate_for_one_level(&mut self, one_level_w: f64) {
        assert!(one_level_w > 0.0, "one-level power must be positive");
        let i_one = self.pd.expected_current_a(one_level_w);
        let i_zero = self.pd.expected_current_a(0.0);
        self.threshold_a = Some((i_one + i_zero) / 2.0);
    }

    /// Detect a field and slice it to bits. Requires calibration.
    pub(crate) fn receive(&mut self, field: &OpticalField) -> Vec<bool> {
        let threshold = self
            .threshold_a
            .expect("RxPath must be calibrated before use; call calibrate_for_one_level()");
        let current = self.pd.detect(field);
        current.samples.iter().map(|&i| i > threshold).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::frame::{Frame, FrameError};
    use crate::txpath::{TxConfig, TxPath};
    use ofpc_photonics::fiber::FiberSpan;

    /// Detect and slice `field` at `rx`, then parse the first frame whose
    /// preamble it finds.
    fn receive_frame(rx: &mut RxPath, field: &OpticalField) -> Result<Frame, FrameError> {
        let bits = rx.receive(field);
        let off = Frame::find_preamble(&bits).ok_or(FrameError::BadPreamble(0))?;
        Frame::from_bits(&bits[off..]).map(|(frame, _)| frame)
    }

    /// A TX path and an RX path calibrated for `loss_db` between them.
    pub(crate) fn link(
        tx: TxConfig,
        pd: PhotodetectorConfig,
        loss_db: f64,
        rng: &mut SimRng,
    ) -> (TxPath, RxPath) {
        let tx = TxPath::new(tx, rng);
        let mut rx = RxPath::new(pd, rng);
        rx.calibrate_for_one_level(
            tx.one_level_w() * ofpc_photonics::units::db_to_linear(-loss_db),
        );
        (tx, rx)
    }

    #[test]
    fn loopback_frame_round_trip() {
        let mut rng = SimRng::seed_from_u64(0);
        let (mut tx, mut rx) = link(
            TxConfig::ideal(),
            PhotodetectorConfig::ideal(),
            0.0,
            &mut rng,
        );
        let frame = Frame::data(&b"the quick brown photon"[..]);
        let field = tx.transmit(&frame.to_bits());
        assert_eq!(receive_frame(&mut rx, &field).unwrap(), frame);
    }

    #[test]
    fn span_transfer_with_matched_calibration() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut span = FiberSpan::compensated();
        span.length_km = 40.0;
        let (mut tx, mut rx) = link(
            TxConfig::ideal(),
            PhotodetectorConfig::ideal(),
            span.total_loss_db(),
            &mut rng,
        );
        let frame = Frame::compute(1, &[9u8, 8, 7][..]);
        let received = span.propagate(&tx.transmit(&frame.to_bits()));
        assert_eq!(receive_frame(&mut rx, &received).unwrap(), frame);
    }

    #[test]
    fn realistic_link_survives_metro_distance() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut span = FiberSpan::compensated();
        span.length_km = 40.0;
        let (mut tx, mut rx) = link(
            TxConfig::realistic(),
            PhotodetectorConfig::default(),
            span.total_loss_db(),
            &mut rng,
        );
        let frame = Frame::data(&b"metro hop payload 123456"[..]);
        let received = span.propagate(&tx.transmit(&frame.to_bits()));
        assert_eq!(receive_frame(&mut rx, &received).unwrap(), frame);
    }

    #[test]
    fn unlit_fiber_yields_no_frame() {
        let mut rng = SimRng::seed_from_u64(3);
        let (_, mut rx) = link(
            TxConfig::ideal(),
            PhotodetectorConfig::ideal(),
            0.0,
            &mut rng,
        );
        let dark = OpticalField::dark(256, 32e9, 1550e-9);
        assert!(receive_frame(&mut rx, &dark).is_err());
    }

    #[test]
    fn loopback_recovers_bits() {
        let mut rng = SimRng::seed_from_u64(0);
        let (mut tx, mut rx) = link(
            TxConfig::ideal(),
            PhotodetectorConfig::ideal(),
            0.0,
            &mut rng,
        );
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let field = tx.transmit(&bits);
        assert_eq!(rx.receive(&field), bits);
    }

    #[test]
    fn attenuated_link_still_decodes_with_adjusted_threshold() {
        let mut rng = SimRng::seed_from_u64(1);
        let span = FiberSpan::compensated(); // 16 dB loss
        let (mut tx, mut rx) = link(
            TxConfig::ideal(),
            PhotodetectorConfig::ideal(),
            span.total_loss_db(),
            &mut rng,
        );
        let bits: Vec<bool> = (0..64).map(|i| i % 5 < 2).collect();
        let field = span.propagate(&tx.transmit(&bits));
        assert_eq!(rx.receive(&field), bits);
    }

    #[test]
    fn wrong_threshold_misdecodes() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut tx = TxPath::new(TxConfig::ideal(), &mut rng);
        let mut rx = RxPath::new(PhotodetectorConfig::ideal(), &mut rng);
        // Threshold calibrated for 100× the actual power: everything
        // slices to zero.
        rx.calibrate_for_one_level(tx.one_level_w() * 100.0);
        let field = tx.transmit(&[true, true, true]);
        assert_eq!(rx.receive(&field), vec![false, false, false]);
    }

    #[test]
    #[should_panic(expected = "calibrated")]
    fn uncalibrated_rx_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut rx = RxPath::new(PhotodetectorConfig::ideal(), &mut rng);
        let field = OpticalField::cw(4, 1e-3, 32e9);
        rx.receive(&field);
    }
}
