//! Receive path (Fig. 3, bottom): fiber → photodetector → ADC → DSP bits.
//!
//! Square-law detection of the OOK envelope, threshold slicing at the
//! calibrated midpoint, energy charged per stage (ADC per sample, TIA
//! over the block, DSP per recovered bit). This is the path the Fig.-4
//! design *augments* with the photonic engine; keeping it as its own type
//! lets the compute transponder reuse it unchanged after the engine.

use ofpc_photonics::converter::{Adc, ConverterConfig};
use ofpc_photonics::energy::{constants, EnergyLedger};
use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use ofpc_photonics::signal::OpticalField;
use ofpc_photonics::SimRng;

/// Receive-path configuration.
#[derive(Debug, Clone)]
pub struct RxConfig {
    pub(crate) pd: PhotodetectorConfig,
    pub(crate) adc: ConverterConfig,
    /// DSP energy per recovered bit, J.
    pub(crate) dsp_energy_per_bit_j: f64,
}

impl RxConfig {
    pub(crate) fn ideal() -> Self {
        RxConfig {
            pd: PhotodetectorConfig::ideal(),
            adc: ConverterConfig::ideal(8),
            dsp_energy_per_bit_j: 0.0,
        }
    }

    pub fn realistic() -> Self {
        RxConfig {
            pd: PhotodetectorConfig::default(),
            adc: ConverterConfig {
                energy_per_sample_j: constants::ADC_SAMPLE_J,
                ..ConverterConfig::default()
            },
            dsp_energy_per_bit_j: constants::DSP_BIT_J,
        }
    }
}

/// The receive path of a transponder.
#[derive(Debug, Clone)]
pub struct RxPath {
    pub(crate) config: RxConfig,
    pd: Photodetector,
    adc: Adc,
    /// Decision threshold in amps (midpoint of calibrated 0/1 currents).
    threshold_a: Option<f64>,
    pub(crate) bits_received: u64,
}

impl RxPath {
    pub fn new(config: RxConfig, rng: &mut SimRng) -> Self {
        RxPath {
            pd: Photodetector::new(config.pd.clone(), rng.derive("rx-pd")),
            adc: Adc::new(config.adc.clone(), rng.derive("rx-adc")),
            config,
            threshold_a: None,
            bits_received: 0,
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
        // The ADC digitizes every sample (this is the cost the photonic
        // engine avoids for compute operands).
        let _codes = self.adc.convert(&current);
        let bits: Vec<bool> = current.samples.iter().map(|&i| i > threshold).collect();
        self.bits_received += bits.len() as u64;
        bits
    }

    pub(crate) fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        ledger.add("rx-pd", self.pd.energy_consumed_j());
        ledger.add("rx-adc", self.adc.energy_consumed_j());
        ledger.add(
            "rx-dsp",
            self.bits_received as f64 * self.config.dsp_energy_per_bit_j,
        );
        ledger
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
        rx: RxConfig,
        loss_db: f64,
        rng: &mut SimRng,
    ) -> (TxPath, RxPath) {
        let tx = TxPath::new(tx, rng);
        let mut rx = RxPath::new(rx, rng);
        rx.calibrate_for_one_level(
            tx.one_level_w() * ofpc_photonics::units::db_to_linear(-loss_db),
        );
        (tx, rx)
    }

    #[test]
    fn loopback_frame_round_trip() {
        let mut rng = SimRng::seed_from_u64(0);
        let (mut tx, mut rx) = link(TxConfig::ideal(), RxConfig::ideal(), 0.0, &mut rng);
        let frame = Frame::data(&b"the quick brown photon"[..]);
        let field = tx.transmit(&frame.to_bits());
        assert_eq!(receive_frame(&mut rx, &field).unwrap(), frame);
    }

    #[test]
    fn span_transfer_with_matched_calibration() {
        let mut rng = SimRng::seed_from_u64(1);
        let span = FiberSpan::compensated(40.0);
        let (mut tx, mut rx) = link(
            TxConfig::ideal(),
            RxConfig::ideal(),
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
        let span = FiberSpan::compensated(40.0);
        let (mut tx, mut rx) = link(
            TxConfig::realistic(),
            RxConfig::realistic(),
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
        let (_, mut rx) = link(TxConfig::ideal(), RxConfig::ideal(), 0.0, &mut rng);
        let dark = OpticalField::dark(256, 32e9, 1550e-9);
        assert!(receive_frame(&mut rx, &dark).is_err());
    }

    #[test]
    fn loopback_recovers_bits() {
        let mut rng = SimRng::seed_from_u64(0);
        let (mut tx, mut rx) = link(TxConfig::ideal(), RxConfig::ideal(), 0.0, &mut rng);
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let field = tx.transmit(&bits);
        assert_eq!(rx.receive(&field), bits);
    }

    #[test]
    fn attenuated_link_still_decodes_with_adjusted_threshold() {
        let mut rng = SimRng::seed_from_u64(1);
        let span = FiberSpan::compensated(80.0); // 16 dB loss
        let (mut tx, mut rx) = link(
            TxConfig::ideal(),
            RxConfig::ideal(),
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
        let mut rx = RxPath::new(RxConfig::ideal(), &mut rng);
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
        let mut rx = RxPath::new(RxConfig::ideal(), &mut rng);
        let field = OpticalField::cw(4, 1e-3, 32e9, 1550e-9);
        rx.receive(&field);
    }

    #[test]
    fn rx_energy_charges_adc_per_sample() {
        let mut rng = SimRng::seed_from_u64(3);
        let (mut tx, mut rx) = link(TxConfig::ideal(), RxConfig::realistic(), 0.0, &mut rng);
        rx.receive(&tx.transmit(&vec![true; 500]));
        let ledger = rx.energy_ledger();
        let expect_adc = 500.0 * constants::ADC_SAMPLE_J;
        assert!((ledger.get("rx-adc") - expect_adc).abs() / expect_adc < 1e-9);
        assert!(ledger.get("rx-dsp") > 0.0);
    }
}
