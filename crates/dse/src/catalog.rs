//! The calibrated component library.
//!
//! Converter entries are transcribed from the published
//! area/power/precision/sample-rate survey tables used by the SCATTER
//! photonic-crossbar simulator (`ScopeX-ASU/SCATTER`,
//! `hardware/photonic_crossbar.py`, `DAC_list`/`ADC_list`; areas in
//! µm², power in mW, rates in GS/s). Each part records that provenance
//! verbatim so a design point can be traced back to its source row.
//! Per-sample energy follows the survey convention: the part's static
//! power amortized over its full-rate sample stream.
//!
//! [`hardware_variant`] is the bridge to the compiler: it builds the
//! transponder config from a converter pairing
//! ([`ComputeTransponderConfig::with_parts`]), derives the serving-layer
//! [`ServiceModel`], and then re-prices the converter-sensitive model
//! fields from the parts themselves — the derived model otherwise
//! clamps cheap ADCs to the repo's default readout energy.

use ofpc_graph::HardwareVariant;
use ofpc_photonics::laser::LaserConfig;
use ofpc_photonics::modulator::MzmConfig;
use ofpc_photonics::parts::{AdcPart, DacPart, HardwarePart, LaserPart, ModulatorPart};
use ofpc_serve::ServiceModel;
use ofpc_transponder::compute::ComputeTransponderConfig;

/// A DAC entry from the survey table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CatalogDac {
    pub(crate) name: &'static str,
    pub(crate) provenance: &'static str,
    pub(crate) bits: u32,
    pub(crate) sample_rate_hz: f64,
    pub(crate) power_w: f64,
    pub(crate) area_mm2: f64,
}

impl HardwarePart for CatalogDac {
    fn part_name(&self) -> &str {
        self.name
    }
    fn provenance(&self) -> &str {
        self.provenance
    }
    fn power_w(&self) -> f64 {
        self.power_w
    }
    fn area_mm2(&self) -> f64 {
        self.area_mm2
    }
}

impl DacPart for CatalogDac {
    fn bits(&self) -> u32 {
        self.bits
    }
    fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }
}

/// An ADC entry from the survey table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CatalogAdc {
    pub(crate) name: &'static str,
    pub(crate) provenance: &'static str,
    pub(crate) bits: u32,
    pub(crate) sample_rate_hz: f64,
    pub(crate) power_w: f64,
    pub(crate) area_mm2: f64,
}

impl HardwarePart for CatalogAdc {
    fn part_name(&self) -> &str {
        self.name
    }
    fn provenance(&self) -> &str {
        self.provenance
    }
    fn power_w(&self) -> f64 {
        self.power_w
    }
    fn area_mm2(&self) -> f64 {
        self.area_mm2
    }
}

impl AdcPart for CatalogAdc {
    fn bits(&self) -> u32 {
        self.bits
    }
    fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }
}

/// SCATTER `DAC_list[1]`: 12 bit, 14 GS/s, 169 mW, 11000 µm².
pub(crate) const DAC_12B_14G: CatalogDac = CatalogDac {
    name: "dac-12b-14g",
    provenance: "SCATTER photonic_crossbar.py DAC_list[1]: 12 b, 14 GS/s, 169 mW, 11000 um^2",
    bits: 12,
    sample_rate_hz: 14e9,
    power_w: 0.169,
    area_mm2: 0.011,
};

/// SCATTER `DAC_list[2]`: 8 bit, 14 GS/s, 50 mW, 11000 µm².
pub(crate) const DAC_8B_14G: CatalogDac = CatalogDac {
    name: "dac-8b-14g",
    provenance: "SCATTER photonic_crossbar.py DAC_list[2]: 8 b, 14 GS/s, 50 mW, 11000 um^2",
    bits: 8,
    sample_rate_hz: 14e9,
    power_w: 0.050,
    area_mm2: 0.011,
};

/// SCATTER `DAC_list[3]`: 8 bit, 5 GS/s, 20 mW, 500000 µm².
pub(crate) const DAC_8B_5G: CatalogDac = CatalogDac {
    name: "dac-8b-5g",
    provenance: "SCATTER photonic_crossbar.py DAC_list[3]: 8 b, 5 GS/s, 20 mW, 500000 um^2",
    bits: 8,
    sample_rate_hz: 5e9,
    power_w: 0.020,
    area_mm2: 0.5,
};

/// SCATTER `ADC_list[1]`: 8 bit, 10 GS/s, 14.8 mW, 2850 µm² — the
/// time-domain two-step SAR TDC (ISSCC'22).
pub(crate) const ADC_8B_10G: CatalogAdc = CatalogAdc {
    name: "adc-8b-10g",
    provenance: "SCATTER photonic_crossbar.py ADC_list[1] (\"A 10GS/s 8b 25fJ/c-s 2850um2 \
                 Two-Step Time-Domain ADC Using Delay-Tracking Pipelined-SAR TDC with 500fs \
                 Time Step in 14nm CMOS Technology\", ieeexplore 9731625): 8 b, 10 GS/s, \
                 14.8 mW, 2850 um^2",
    bits: 8,
    sample_rate_hz: 10e9,
    power_w: 0.0148,
    area_mm2: 0.00285,
};

/// SCATTER `ADC_list[2]`: 8 bit, 5 GS/s, 7.5 mW, 100000 µm².
pub(crate) const ADC_8B_5G: CatalogAdc = CatalogAdc {
    name: "adc-8b-5g",
    provenance: "SCATTER photonic_crossbar.py ADC_list[2]: 8 b, 5 GS/s, 7.5 mW, 100000 um^2",
    bits: 8,
    sample_rate_hz: 5e9,
    power_w: 0.0075,
    area_mm2: 0.1,
};

/// The repo's realistic silicon-photonic MZM as a catalog part (power
/// and area from the form-factor block table).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CatalogModulator;

impl HardwarePart for CatalogModulator {
    fn part_name(&self) -> &str {
        "mzm-sipho-40g"
    }
    fn provenance(&self) -> &str {
        "repo realistic default: 40 GHz silicon MZM (modulator::MzmConfig::default), \
         power/area from transponder::energy block(\"tx-mzm\")"
    }
    fn power_w(&self) -> f64 {
        0.8
    }
    fn area_mm2(&self) -> f64 {
        3.0
    }
}

impl ModulatorPart for CatalogModulator {
    fn mzm_config(&self) -> MzmConfig {
        MzmConfig::default()
    }
}

/// The repo's realistic 13 dBm DFB laser as a catalog part.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CatalogLaser;

impl HardwarePart for CatalogLaser {
    fn part_name(&self) -> &str {
        "laser-dfb-13dbm"
    }
    fn provenance(&self) -> &str {
        "repo realistic default: 13 dBm DFB (laser::LaserConfig::default), \
         power/area from transponder::energy block(\"laser\")"
    }
    fn power_w(&self) -> f64 {
        1.5
    }
    fn area_mm2(&self) -> f64 {
        2.0
    }
}

impl LaserPart for CatalogLaser {
    fn laser_config(&self) -> LaserConfig {
        LaserConfig::default()
    }
}

/// The swappable converter pairings the sweep explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConverterChoice {
    /// 12-bit 14 GS/s DAC + 10 GS/s time-domain ADC: precision at a
    /// ~3.4× operand-encode energy premium.
    Cv12bFast,
    /// 8-bit 14 GS/s DAC + 10 GS/s ADC: the energy-optimal fast pairing.
    Cv8bFast,
    /// 8-bit 5 GS/s DAC + 5 GS/s ADC: lower static power, slower
    /// readout — the economy corner.
    Cv8bEco,
}

impl ConverterChoice {
    /// Every catalog pairing, in sweep order.
    pub const ALL: [ConverterChoice; 3] = [
        ConverterChoice::Cv12bFast,
        ConverterChoice::Cv8bFast,
        ConverterChoice::Cv8bEco,
    ];

    /// Stable catalog name (doubles as the variant name in lowered
    /// plans, telemetry, and the E17 JSON).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ConverterChoice::Cv12bFast => "cv-12b-fast",
            ConverterChoice::Cv8bFast => "cv-8b-fast",
            ConverterChoice::Cv8bEco => "cv-8b-eco",
        }
    }

    pub(crate) fn dac(self) -> CatalogDac {
        match self {
            ConverterChoice::Cv12bFast => DAC_12B_14G,
            ConverterChoice::Cv8bFast => DAC_8B_14G,
            ConverterChoice::Cv8bEco => DAC_8B_5G,
        }
    }

    pub(crate) fn adc(self) -> CatalogAdc {
        match self {
            ConverterChoice::Cv12bFast | ConverterChoice::Cv8bFast => ADC_8B_10G,
            ConverterChoice::Cv8bEco => ADC_8B_5G,
        }
    }
}

/// Build the [`HardwareVariant`] for a converter pairing at a WDM
/// width: transponder config from the parts, service model from the
/// transponder, then the converter-sensitive fields re-priced from the
/// parts directly (per-sample energies, ADC-rate-limited readout, and a
/// weight-write floor of one DAC conversion per element).
pub fn hardware_variant(choice: ConverterChoice, wdm_channels: usize) -> HardwareVariant {
    let dac = choice.dac();
    let adc = choice.adc();
    let tcfg = ComputeTransponderConfig::with_parts(&dac, &adc, &CatalogModulator, &CatalogLaser);
    let mut model = ServiceModel::from_transponder(&tcfg, wdm_channels);
    model.dac_sample_j = dac.energy_per_sample_j();
    model.adc_result_j = adc.energy_per_sample_j();
    model.readout_per_request_ps = (1e12 / adc.sample_rate_hz()).ceil() as u64 * 8;
    model.reconfig_per_element_ps = model
        .reconfig_per_element_ps
        .max((1e12 / dac.sample_rate_hz()).ceil() as u64);
    HardwareVariant {
        name: choice.name().to_string(),
        dac_bits: f64::from(dac.bits),
        adc_bits: f64::from(adc.bits),
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_sample_energy_matches_the_survey_rows() {
        // power / rate, straight from the transcribed table.
        assert!((DacPart::energy_per_sample_j(&DAC_12B_14G) - 0.169 / 14e9).abs() < 1e-24);
        assert!((DacPart::energy_per_sample_j(&DAC_8B_14G) - 0.050 / 14e9).abs() < 1e-24);
        assert!((AdcPart::energy_per_sample_j(&ADC_8B_10G) - 0.0148 / 10e9).abs() < 1e-24);
    }

    #[test]
    fn every_part_carries_provenance() {
        let parts: Vec<&dyn HardwarePart> = vec![
            &DAC_12B_14G,
            &DAC_8B_14G,
            &DAC_8B_5G,
            &ADC_8B_10G,
            &ADC_8B_5G,
            &CatalogModulator,
            &CatalogLaser,
        ];
        for p in parts {
            assert!(
                !p.provenance().is_empty() && p.power_w() > 0.0 && p.area_mm2() > 0.0,
                "{}",
                p.part_name()
            );
        }
        // The cited ADC row keeps its source identifiable.
        assert!(ADC_8B_10G.provenance().contains("9731625"));
    }

    #[test]
    fn variant_model_prices_converters_from_the_parts() {
        let v = hardware_variant(ConverterChoice::Cv8bFast, 4);
        assert_eq!(v.name, "cv-8b-fast");
        assert_eq!(v.dac_bits, 8.0);
        assert!((v.model.dac_sample_j - 0.050 / 14e9).abs() < 1e-24);
        assert!((v.model.adc_result_j - 0.0148 / 10e9).abs() < 1e-24);
        // 10 GS/s ADC: 100 ps/sample × 8 samples per readout.
        assert_eq!(v.model.readout_per_request_ps, 800);
        assert_eq!(v.model.wdm_channels, 4);
    }

    #[test]
    fn eco_pairing_reads_out_slower_but_draws_less() {
        let fast = hardware_variant(ConverterChoice::Cv8bFast, 4);
        let eco = hardware_variant(ConverterChoice::Cv8bEco, 4);
        assert!(eco.model.readout_per_request_ps > fast.model.readout_per_request_ps);
        let fast_w = fast.model.dac_sample_j * 14e9;
        let eco_w = eco.model.dac_sample_j * 5e9;
        assert!(eco_w < fast_w, "eco {eco_w} W !< fast {fast_w} W");
    }

    #[test]
    fn precision_pairing_costs_more_energy_per_operand() {
        let v12 = hardware_variant(ConverterChoice::Cv12bFast, 4);
        let v8 = hardware_variant(ConverterChoice::Cv8bFast, 4);
        assert!(v12.model.dac_sample_j > 3.0 * v8.model.dac_sample_j);
        assert_eq!(v12.dac_bits, 12.0);
        assert_eq!(v12.adc_bits, v8.adc_bits, "same readout ADC");
    }
}
