//! Data converters: DAC and ADC.
//!
//! The boundary devices between the digital and analog domains (Fig. 3).
//! The paper's second §2.2 benefit — on-fiber computing skips the
//! constant DAC/ADC round-trips that conventional photonic accelerators
//! pay — is quantified with the energy model here: every conversion has a
//! per-sample energy cost, so experiment E3 can count exactly how many
//! joules the photonic-engine receive path saves.
//!
//! No run reads a DAC's output voltage (the decoded codes feed the drive
//! synthesis directly), so the DAC only quantizes and counts its
//! conversions. The ADC digitizes a waveform, noise included.

use crate::rng::SimRng;
use crate::signal::AnalogWaveform;

/// Full-scale range of every converter: codes map to voltages in
/// `[0, FULL_SCALE_V]`.
pub const FULL_SCALE_V: f64 = 1.0;

/// Configuration shared by both converter directions.
#[derive(Debug, Clone)]
pub struct ConverterConfig {
    /// Nominal resolution in bits.
    pub bits: u32,
    /// Energy per conversion sample, joules. High-speed 8-bit converters
    /// run on the order of 1–10 pJ/sample.
    pub energy_per_sample_j: f64,
    /// Additive RMS noise referred to the ADC input, volts — models
    /// jitter + reference noise beyond quantization. The DAC synthesizes
    /// no output, so it draws none.
    pub noise_rms_v: f64,
}

impl ConverterConfig {
    /// Ideal converter: quantization only, zero energy.
    pub fn ideal(bits: u32) -> Self {
        ConverterConfig {
            bits,
            energy_per_sample_j: 0.0,
            noise_rms_v: 0.0,
        }
    }
}

impl Default for ConverterConfig {
    fn default() -> Self {
        ConverterConfig {
            bits: 8,
            energy_per_sample_j: 1.5e-12,
            noise_rms_v: 0.0005,
        }
    }
}

/// Digital-to-analog converter: value → code, with its conversions
/// counted for the energy ledger.
#[derive(Debug, Clone)]
pub struct Dac {
    pub(crate) config: ConverterConfig,
    pub(crate) samples_converted: u64,
}

impl Dac {
    pub fn new(config: ConverterConfig) -> Self {
        assert!(
            config.bits >= 1 && config.bits <= 24,
            "unreasonable DAC resolution"
        );
        Dac {
            config,
            samples_converted: 0,
        }
    }

    pub fn ideal(bits: u32) -> Self {
        Dac::new(ConverterConfig::ideal(bits))
    }

    /// Number of codes, `2^bits`.
    pub fn levels(&self) -> u64 {
        1u64 << self.config.bits
    }

    /// Book `n` conversions. The energy ledger reads only this count,
    /// so no output waveform is synthesized.
    pub fn charge_samples(&mut self, n: u64) {
        self.samples_converted += n;
    }

    /// Encode a normalized value in `[0,1]` to the nearest code.
    pub fn encode_unit(&self, x: f64) -> u64 {
        let max_code = self.levels() - 1;
        (x.clamp(0.0, 1.0) * max_code as f64).round() as u64
    }

    pub fn energy_consumed_j(&self) -> f64 {
        self.samples_converted as f64 * self.config.energy_per_sample_j
    }
}

/// Analog-to-digital converter: voltage → code.
#[derive(Debug, Clone)]
pub struct Adc {
    pub config: ConverterConfig,
    rng: SimRng,
    pub(crate) samples_converted: u64,
}

impl Adc {
    pub fn new(config: ConverterConfig, rng: SimRng) -> Self {
        assert!(
            config.bits >= 1 && config.bits <= 24,
            "unreasonable ADC resolution"
        );
        Adc {
            config,
            rng,
            samples_converted: 0,
        }
    }

    pub fn ideal(bits: u32) -> Self {
        Adc::new(ConverterConfig::ideal(bits), SimRng::seed_from_u64(0))
    }

    pub fn levels(&self) -> u64 {
        1u64 << self.config.bits
    }

    /// Quantize a waveform to codes. Inputs outside `[0, FULL_SCALE_V]`
    /// saturate at the rails.
    pub fn convert(&mut self, input: &AnalogWaveform) -> Vec<u64> {
        let max_code = self.levels() - 1;
        let lsb = FULL_SCALE_V / max_code as f64;
        let mut out = Vec::with_capacity(input.len());
        for &v in &input.samples {
            let mut v = v;
            if self.config.noise_rms_v > 0.0 {
                v += self.rng.normal(self.config.noise_rms_v);
            }
            let code = (v / lsb).round().clamp(0.0, max_code as f64) as u64;
            out.push(code);
        }
        self.samples_converted += input.len() as u64;
        out
    }

    /// Decode a code back to the unit interval `[0,1]`.
    pub fn decode_unit(&self, code: u64) -> f64 {
        let max_code = self.levels() - 1;
        code.min(max_code) as f64 / max_code as f64
    }

    pub fn energy_consumed_j(&self) -> f64 {
        self.samples_converted as f64 * self.config.energy_per_sample_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 10e9;

    #[test]
    fn dac_adc_round_trip_is_code_exact() {
        let mut adc = Adc::ideal(8);
        let codes: Vec<u64> = (0..256).collect();
        let lsb = FULL_SCALE_V / 255.0;
        let wave = AnalogWaveform::new(codes.iter().map(|&c| c as f64 * lsb).collect(), RATE);
        assert_eq!(adc.convert(&wave), codes);
    }

    #[test]
    fn adc_saturates_at_rails() {
        let mut adc = Adc::ideal(8);
        let wave = AnalogWaveform::new(vec![-0.5, 2.0], RATE);
        let codes = adc.convert(&wave);
        assert_eq!(codes, vec![0, 255]);
    }

    #[test]
    fn encode_decode_unit_round_trip_within_half_lsb() {
        let dac = Dac::ideal(8);
        let adc = Adc::ideal(8);
        for i in 0..100 {
            let x = i as f64 / 99.0;
            let y = adc.decode_unit(dac.encode_unit(x));
            assert!((x - y).abs() <= 0.5 / 255.0 + 1e-12, "x {x} y {y}");
        }
    }

    #[test]
    fn converter_energy_accounting() {
        let mut dac = Dac::new(ConverterConfig {
            energy_per_sample_j: 2e-12,
            ..ConverterConfig::ideal(8)
        });
        dac.charge_samples(1000);
        assert!((dac.energy_consumed_j() - 2e-9).abs() < 1e-18);
    }

    #[test]
    fn adc_noise_degrades_effective_bits() {
        // With noise at several LSBs, repeated conversion of the same
        // voltage spreads across codes.
        let mut adc = Adc::new(
            ConverterConfig {
                noise_rms_v: 4.0 / 255.0,
                ..ConverterConfig::ideal(8)
            },
            SimRng::seed_from_u64(5),
        );
        let wave = AnalogWaveform::new(vec![0.5; 1000], RATE);
        let codes = adc.convert(&wave);
        let distinct: std::collections::HashSet<u64> = codes.iter().copied().collect();
        assert!(distinct.len() > 5, "only {} codes", distinct.len());
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn rejects_zero_bit_converter() {
        Dac::new(ConverterConfig::ideal(0));
    }

    // ------------------------------------------------- library edge cases

    /// Full-scale clipping: inputs beyond either rail pin to the end
    /// codes, and the clipped codes decode back to exactly 0 or 1 —
    /// the saturation behavior the calibrated ADC parts rely on.
    #[test]
    fn adc_clips_symmetrically_beyond_full_scale() {
        let mut adc = Adc::new(ConverterConfig::ideal(8), SimRng::seed_from_u64(0));
        let wave = AnalogWaveform::new(vec![-10.0, -1e-9, 0.0, 1.0, 1.0 + 1e-9, 10.0], RATE);
        let codes = adc.convert(&wave);
        assert_eq!(codes, vec![0, 0, 0, 255, 255, 255]);
        assert_eq!(adc.decode_unit(codes[0]), 0.0);
        assert_eq!(adc.decode_unit(codes[5]), 1.0);
    }

    /// LSB rounding at precision boundaries: a value exactly between two
    /// codes rounds away from zero (`f64::round` semantics), values an
    /// epsilon to either side land on the adjacent codes, and the
    /// boundary moves with the resolution.
    #[test]
    fn dac_rounds_half_lsb_boundaries_per_resolution() {
        for bits in [4u32, 8, 12] {
            let dac = Dac::ideal(bits);
            let max_code = (1u64 << bits) - 1;
            for k in [0u64, max_code / 3, max_code - 1] {
                let boundary = (k as f64 + 0.5) / max_code as f64;
                assert_eq!(dac.encode_unit(boundary), k + 1, "bits {bits} code {k}");
                assert_eq!(dac.encode_unit(boundary - 1e-9), k, "bits {bits} code {k}");
                assert_eq!(
                    dac.encode_unit(boundary + 1e-9),
                    k + 1,
                    "bits {bits} code {k}"
                );
            }
            // The ends of the range are exact codes at every resolution.
            assert_eq!(dac.encode_unit(0.0), 0);
            assert_eq!(dac.encode_unit(1.0), max_code);
        }
    }
}
