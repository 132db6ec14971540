//! The calibrated component library.
//!
//! Converter rows are transcribed from the published
//! area/power/precision/sample-rate survey tables used by the SCATTER
//! photonic-crossbar simulator (`ScopeX-ASU/SCATTER`,
//! `hardware/photonic_crossbar.py`, `DAC_list`/`ADC_list`; areas in
//! µm², power in mW, rates in GS/s). Each row's doc comment names its
//! source row, so a design point can be traced back to it. Per-sample
//! energy follows the survey convention: the part's static power
//! amortized over its full-rate sample stream.
//!
//! [`hardware_variant`] is the bridge to the compiler: it derives the
//! serving-layer [`ServiceModel`] from the realistic transponder, then
//! re-prices the converter-sensitive model fields from the pairing's
//! rows — the derived model otherwise clamps cheap ADCs to the repo's
//! default readout energy. At one 8-bit symbol per conversion, the
//! transponder's 32 Gb/s line needs a DAC of at least 4 GS/s; every
//! catalog DAC is faster, so no pairing slows the line.

use ofpc_graph::HardwareVariant;
use ofpc_serve::ServiceModel;
use ofpc_transponder::compute::ComputeTransponderConfig;

/// A converter row from the survey table (DAC or ADC).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Converter {
    /// Nominal resolution, bits.
    pub(crate) bits: u32,
    /// Maximum conversion rate, samples/s.
    pub(crate) sample_rate_hz: f64,
    /// Static power draw, W.
    pub(crate) power_w: f64,
    /// Die area, mm².
    pub(crate) area_mm2: f64,
}

impl Converter {
    /// Energy per conversion at full rate, J — the row's power
    /// amortized over its sample stream.
    pub(crate) fn energy_per_sample_j(&self) -> f64 {
        self.power_w / self.sample_rate_hz
    }
}

/// SCATTER `photonic_crossbar.py` `DAC_list[1]`: 12 b, 14 GS/s, 169 mW,
/// 11000 µm².
pub(crate) const DAC_12B_14G: Converter = Converter {
    bits: 12,
    sample_rate_hz: 14e9,
    power_w: 0.169,
    area_mm2: 0.011,
};

/// SCATTER `photonic_crossbar.py` `DAC_list[2]`: 8 b, 14 GS/s, 50 mW,
/// 11000 µm².
pub(crate) const DAC_8B_14G: Converter = Converter {
    bits: 8,
    sample_rate_hz: 14e9,
    power_w: 0.050,
    area_mm2: 0.011,
};

/// SCATTER `photonic_crossbar.py` `DAC_list[3]`: 8 b, 5 GS/s, 20 mW,
/// 500000 µm².
pub(crate) const DAC_8B_5G: Converter = Converter {
    bits: 8,
    sample_rate_hz: 5e9,
    power_w: 0.020,
    area_mm2: 0.5,
};

/// SCATTER `photonic_crossbar.py` `ADC_list[1]`: 8 b, 10 GS/s, 14.8 mW,
/// 2850 µm² — the time-domain two-step SAR TDC of "A 10GS/s 8b
/// 25fJ/c-s 2850um2 Two-Step Time-Domain ADC Using Delay-Tracking
/// Pipelined-SAR TDC with 500fs Time Step in 14nm CMOS Technology"
/// (ISSCC'22, ieeexplore 9731625).
pub(crate) const ADC_8B_10G: Converter = Converter {
    bits: 8,
    sample_rate_hz: 10e9,
    power_w: 0.0148,
    area_mm2: 0.00285,
};

/// SCATTER `photonic_crossbar.py` `ADC_list[2]`: 8 b, 5 GS/s, 7.5 mW,
/// 100000 µm².
pub(crate) const ADC_8B_5G: Converter = Converter {
    bits: 8,
    sample_rate_hz: 5e9,
    power_w: 0.0075,
    area_mm2: 0.1,
};

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

    pub(crate) fn dac(self) -> Converter {
        match self {
            ConverterChoice::Cv12bFast => DAC_12B_14G,
            ConverterChoice::Cv8bFast => DAC_8B_14G,
            ConverterChoice::Cv8bEco => DAC_8B_5G,
        }
    }

    pub(crate) fn adc(self) -> Converter {
        match self {
            ConverterChoice::Cv12bFast | ConverterChoice::Cv8bFast => ADC_8B_10G,
            ConverterChoice::Cv8bEco => ADC_8B_5G,
        }
    }
}

/// Build the [`HardwareVariant`] for a converter pairing at a WDM
/// width: service model from the realistic transponder, then the
/// converter-sensitive fields re-priced from the rows directly
/// (per-sample energies, ADC-rate-limited readout, and a weight-write
/// floor of one DAC conversion per element).
pub fn hardware_variant(choice: ConverterChoice, wdm_channels: usize) -> HardwareVariant {
    let dac = choice.dac();
    let adc = choice.adc();
    let mut model =
        ServiceModel::from_transponder(&ComputeTransponderConfig::realistic(), wdm_channels);
    model.dac_sample_j = dac.energy_per_sample_j();
    model.adc_result_j = adc.energy_per_sample_j();
    model.readout_per_request_ps = (1e12 / adc.sample_rate_hz).ceil() as u64 * 8;
    model.reconfig_per_element_ps = model
        .reconfig_per_element_ps
        .max((1e12 / dac.sample_rate_hz).ceil() as u64);
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
        assert!((DAC_12B_14G.energy_per_sample_j() - 0.169 / 14e9).abs() < 1e-24);
        assert!((DAC_8B_14G.energy_per_sample_j() - 0.050 / 14e9).abs() < 1e-24);
        assert!((ADC_8B_10G.energy_per_sample_j() - 0.0148 / 10e9).abs() < 1e-24);
    }

    #[test]
    fn every_catalog_dac_keeps_up_with_the_line_rate() {
        // The line sends one 8-bit symbol per DAC conversion. A DAC
        // slower than line rate / 8 would cap the line below the 32 Gb/s
        // that `hardware_variant`'s model assumes, and the model would
        // need that cap back.
        let line_rate_bps = ComputeTransponderConfig::realistic().tx.line_rate_bps;
        for choice in ConverterChoice::ALL {
            let dac = choice.dac();
            assert!(
                dac.sample_rate_hz * 8.0 >= line_rate_bps,
                "{}: {} S/s × 8 < {line_rate_bps} b/s",
                choice.name(),
                dac.sample_rate_hz
            );
        }
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
