//! Transmit path (Fig. 3, top): DSP bits → DAC → modulator → fiber.
//!
//! On-off keying at one sample per bit — deliberately the simplest line
//! code that exercises every device on the path. Energy is charged per
//! stage: DSP per bit, DAC per sample, modulator drive per symbol, laser
//! wall-plug over the block duration.

use ofpc_photonics::converter::{ConverterConfig, Dac};
use ofpc_photonics::energy::{constants, EnergyLedger};
use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::{MachZehnderModulator, MzmConfig};
use ofpc_photonics::signal::{AnalogWaveform, OpticalField};
use ofpc_photonics::SimRng;

/// Transmit-path configuration.
#[derive(Debug, Clone)]
pub struct TxConfig {
    pub(crate) laser: LaserConfig,
    pub(crate) mzm: MzmConfig,
    pub(crate) dac: ConverterConfig,
    /// Line rate, bits (symbols) per second.
    pub line_rate_bps: f64,
    /// DSP energy per transmitted bit, J.
    pub(crate) dsp_energy_per_bit_j: f64,
}

impl TxConfig {
    /// Ideal noiseless path.
    pub(crate) fn ideal() -> Self {
        TxConfig {
            laser: LaserConfig::ideal(),
            mzm: MzmConfig::ideal(),
            dac: ConverterConfig::ideal(8),
            line_rate_bps: 32e9,
            dsp_energy_per_bit_j: 0.0,
        }
    }

    /// Realistic commodity transponder TX.
    pub fn realistic() -> Self {
        TxConfig {
            laser: LaserConfig::default(),
            mzm: MzmConfig::default(),
            dac: ConverterConfig {
                energy_per_sample_j: constants::DAC_SAMPLE_J,
                ..ConverterConfig::default()
            },
            line_rate_bps: 32e9,
            dsp_energy_per_bit_j: constants::DSP_BIT_J,
        }
    }
}

/// The transmit path of a transponder.
#[derive(Debug, Clone)]
pub struct TxPath {
    pub(crate) config: TxConfig,
    laser: Laser,
    mzm: MachZehnderModulator,
    dac: Dac,
    pub(crate) bits_sent: u64,
}

impl TxPath {
    pub fn new(config: TxConfig, rng: &mut SimRng) -> Self {
        let laser = Laser::new(config.laser.clone(), rng.derive("tx-laser"));
        // The DAC draws no noise; this draw holds the streams the caller
        // derives after this path in place.
        rng.derive("tx-dac");
        TxPath {
            laser,
            mzm: MachZehnderModulator::new(config.mzm.clone()),
            dac: Dac::new(config.dac.clone()),
            config,
            bits_sent: 0,
        }
    }

    /// Modulate a bit sequence onto light, one sample per bit (OOK).
    pub(crate) fn transmit(&mut self, bits: &[bool]) -> OpticalField {
        assert!(!bits.is_empty(), "cannot transmit zero bits");
        let n = bits.len();
        let light = self.laser.emit(n, self.config.line_rate_bps);
        let drive = AnalogWaveform::new(
            bits.iter()
                .map(|&b| self.mzm.drive_for_transmission(if b { 1.0 } else { 0.0 }))
                .collect(),
            self.config.line_rate_bps,
        );
        let out = self.mzm.transfer(&light, &drive);
        self.book(n);
        out
    }

    /// Book `n` transmitted symbols: the DSP bits, the DAC conversions
    /// (the bits go through the DAC as full-scale / zero codes) and the
    /// modulator symbols. The energy ledger reads only these counts, so
    /// a caller that needs no light books without synthesizing it.
    pub(crate) fn book(&mut self, n: usize) {
        self.dac.charge_samples(n as u64);
        self.mzm.symbols_modulated += n as u64;
        self.bits_sent += n as u64;
    }

    /// Mean launch power of a '1' symbol, W (after modulator loss).
    pub fn one_level_w(&self) -> f64 {
        let t = {
            let v = self.mzm.drive_for_transmission(1.0);
            self.mzm.power_transmission(v)
        };
        self.laser.power_w() * t
    }

    pub(crate) fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        let secs = self.bits_sent as f64 / self.config.line_rate_bps;
        ledger.add("tx-laser", self.laser.config.wall_plug_w * secs);
        ledger.add("tx-mzm", self.mzm.energy_consumed_j());
        ledger.add("tx-dac", self.dac.energy_consumed_j());
        ledger.add(
            "tx-dsp",
            self.bits_sent as f64 * self.config.dsp_energy_per_bit_j,
        );
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_carry_power_zeros_are_dark() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut tx = TxPath::new(TxConfig::ideal(), &mut rng);
        let field = tx.transmit(&[true, false, true, true, false]);
        assert!(field.power_at(0) > 1e-4);
        assert!(field.power_at(1) < 1e-12);
        assert!(field.power_at(4) < 1e-12);
        assert_eq!(tx.bits_sent, 5);
    }

    #[test]
    fn one_level_matches_emitted_power() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut tx = TxPath::new(TxConfig::ideal(), &mut rng);
        let field = tx.transmit(&[true]);
        assert!((field.power_at(0) - tx.one_level_w()).abs() / tx.one_level_w() < 1e-9);
    }

    #[test]
    fn realistic_tx_charges_every_stage() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut tx = TxPath::new(TxConfig::realistic(), &mut rng);
        tx.transmit(&vec![true; 1000]);
        let ledger = tx.energy_ledger();
        for stage in ["tx-laser", "tx-mzm", "tx-dac", "tx-dsp"] {
            assert!(ledger.get(stage) > 0.0, "stage {stage} uncharged");
        }
    }

    #[test]
    #[should_panic(expected = "zero bits")]
    fn rejects_empty_transmission() {
        let mut rng = SimRng::seed_from_u64(0);
        TxPath::new(TxConfig::ideal(), &mut rng).transmit(&[]);
    }
}
