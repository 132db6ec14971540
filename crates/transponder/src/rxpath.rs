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
use ofpc_telemetry::{Counter, Telemetry};

/// Receive-path configuration.
#[derive(Debug, Clone)]
pub struct RxConfig {
    pub pd: PhotodetectorConfig,
    pub adc: ConverterConfig,
    /// DSP energy per recovered bit, J.
    pub dsp_energy_per_bit_j: f64,
}

impl RxConfig {
    pub fn ideal() -> Self {
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
    pub config: RxConfig,
    pd: Photodetector,
    adc: Adc,
    /// Decision threshold in amps (midpoint of calibrated 0/1 currents).
    threshold_a: Option<f64>,
    pub bits_received: u64,
    tel_blocks: Counter,
    tel_bits: Counter,
}

impl RxPath {
    pub fn new(config: RxConfig, rng: &mut SimRng) -> Self {
        RxPath {
            pd: Photodetector::new(config.pd.clone(), rng.derive("rx-pd")),
            adc: Adc::new(config.adc.clone(), rng.derive("rx-adc")),
            config,
            threshold_a: None,
            bits_received: 0,
            tel_blocks: Counter::noop(),
            tel_bits: Counter::noop(),
        }
    }

    /// Profiling hook: count received blocks/bits on the registry
    /// (`transponder_rx_*` series).
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel_blocks = tel.counter("transponder_rx_blocks_total", &Vec::new());
        self.tel_bits = tel.counter("transponder_rx_bits_total", &Vec::new());
    }

    pub fn is_calibrated(&self) -> bool {
        self.threshold_a.is_some()
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
    pub fn receive(&mut self, field: &OpticalField) -> Vec<bool> {
        let threshold = self
            .threshold_a
            .expect("RxPath must be calibrated before use; call calibrate_for_one_level()");
        let current = self.pd.detect(field);
        // The ADC digitizes every sample (this is the cost the photonic
        // engine avoids for compute operands).
        let _codes = self.adc.convert(&current);
        let bits: Vec<bool> = current.samples.iter().map(|&i| i > threshold).collect();
        self.bits_received += bits.len() as u64;
        self.tel_blocks.inc();
        self.tel_bits.add(bits.len() as u64);
        bits
    }

    /// Receiver sensitivity check: SNR at the given received power.
    pub fn snr_db(&self, power_w: f64, sample_rate_hz: f64) -> f64 {
        self.pd.snr_db(power_w, sample_rate_hz)
    }

    pub fn energy_ledger(&self) -> EnergyLedger {
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
mod tests {
    use super::*;
    use crate::txpath::{TxConfig, TxPath};

    #[test]
    fn loopback_recovers_bits() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut tx = TxPath::new(TxConfig::ideal(), &mut rng);
        let mut rx = RxPath::new(RxConfig::ideal(), &mut rng);
        rx.calibrate_for_one_level(tx.one_level_w());
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let field = tx.transmit(&bits);
        assert_eq!(rx.receive(&field), bits);
    }

    #[test]
    fn attenuated_link_still_decodes_with_adjusted_threshold() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut tx = TxPath::new(TxConfig::ideal(), &mut rng);
        let mut rx = RxPath::new(RxConfig::ideal(), &mut rng);
        let span = ofpc_photonics::fiber::FiberSpan::compensated(80.0); // 16 dB loss
        rx.calibrate_for_one_level(
            tx.one_level_w() * ofpc_photonics::units::db_to_linear(-span.total_loss_db()),
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
        let mut tx = TxPath::new(TxConfig::ideal(), &mut rng);
        let mut rx = RxPath::new(RxConfig::realistic(), &mut rng);
        rx.calibrate_for_one_level(tx.one_level_w());
        rx.receive(&tx.transmit(&vec![true; 500]));
        let ledger = rx.energy_ledger();
        let expect_adc = 500.0 * constants::ADC_SAMPLE_J;
        assert!((ledger.get("rx-adc") - expect_adc).abs() / expect_adc < 1e-9);
        assert!(ledger.get("rx-dsp") > 0.0);
    }
}
