//! Swappable hardware parts: the trait layer of the component library.
//!
//! The paper's evaluation fixes one hardware design point, but its
//! energy/latency story hinges on converter, modulator, and laser
//! choices. These traits let calibrated catalog entries (see the
//! `ofpc-dse` crate) stand in wherever the transponder and engine
//! models previously hard-coded a part: a [`DacPart`] produces the
//! [`ConverterConfig`] the DAC model consumes, an [`AdcPart`] its
//! per-sample energy, a [`ModulatorPart`] an [`MzmConfig`], a
//! [`LaserPart`] a [`LaserConfig`]. Every part also carries the static
//! power/area numbers the form-factor budget checker needs, plus a
//! provenance string naming where its numbers were transcribed from.

use crate::converter::ConverterConfig;
use crate::laser::LaserConfig;
use crate::modulator::MzmConfig;

/// Common surface of every catalog part: identity, provenance, and the
/// static power/area demand the form-factor budget checker prices.
pub trait HardwarePart {
    /// Short catalog name, e.g. `"dac-12b-14g"`.
    fn part_name(&self) -> &str;
    /// Where the numbers come from (cited table, paper, or the repo
    /// default they mirror).
    fn provenance(&self) -> &str;
    /// Static power draw, W.
    fn power_w(&self) -> f64;
    /// Die area, mm².
    fn area_mm2(&self) -> f64;
}

/// A digital-to-analog converter part.
pub trait DacPart: HardwarePart {
    /// Nominal resolution, bits.
    fn bits(&self) -> u32;
    /// Maximum conversion rate, samples/s.
    fn sample_rate_hz(&self) -> f64;

    /// Energy per conversion at full rate, J — the part's power
    /// amortized over its sample stream.
    fn energy_per_sample_j(&self) -> f64 {
        self.power_w() / self.sample_rate_hz()
    }

    /// The config the DAC model consumes: the part's resolution and
    /// per-sample energy. The DAC synthesizes no output, so it carries
    /// no noise.
    fn converter_config(&self) -> ConverterConfig {
        ConverterConfig {
            energy_per_sample_j: self.energy_per_sample_j(),
            ..ConverterConfig::ideal(self.bits())
        }
    }
}

/// An analog-to-digital converter part.
pub trait AdcPart: HardwarePart {
    /// Nominal resolution, bits.
    fn bits(&self) -> u32;
    /// Maximum conversion rate, samples/s.
    fn sample_rate_hz(&self) -> f64;

    /// Energy per conversion at full rate, J.
    fn energy_per_sample_j(&self) -> f64 {
        self.power_w() / self.sample_rate_hz()
    }
}

/// An intensity-modulator part (drives both the TX path and the P1
/// weight arm).
pub trait ModulatorPart: HardwarePart {
    /// The behavioral config the MZM model consumes.
    fn mzm_config(&self) -> MzmConfig;
}

/// A CW laser part.
pub trait LaserPart: HardwarePart {
    /// The behavioral config the laser model consumes.
    fn laser_config(&self) -> LaserConfig;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestDac;
    impl HardwarePart for TestDac {
        fn part_name(&self) -> &str {
            "test-dac"
        }
        fn provenance(&self) -> &str {
            "unit test"
        }
        fn power_w(&self) -> f64 {
            0.050
        }
        fn area_mm2(&self) -> f64 {
            0.011
        }
    }
    impl DacPart for TestDac {
        fn bits(&self) -> u32 {
            8
        }
        fn sample_rate_hz(&self) -> f64 {
            14e9
        }
    }

    #[test]
    fn default_energy_is_power_over_rate() {
        let d = TestDac;
        let want = 0.050 / 14e9;
        assert!((d.energy_per_sample_j() - want).abs() / want < 1e-12);
    }

    #[test]
    fn converter_config_carries_the_part_numbers() {
        let cfg = TestDac.converter_config();
        assert_eq!(cfg.bits, 8);
        assert!((cfg.energy_per_sample_j - 0.050 / 14e9).abs() < 1e-18);
    }
}
