//! Data converters: DAC and ADC.
//!
//! The boundary devices between the digital and analog domains (Fig. 3).
//! The paper's second §2.2 benefit — on-fiber computing skips the
//! constant DAC/ADC round-trips that conventional photonic accelerators
//! pay — is quantified with the energy model here: every conversion has a
//! per-sample energy cost, so experiment E3 can count exactly how many
//! joules the photonic-engine receive path saves.

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
    /// Additive RMS noise referred to the output (DAC) or input (ADC),
    /// volts — models jitter + reference noise beyond quantization.
    pub noise_rms_v: f64,
    /// Maximum conversion rate, samples/s (`0` = unlimited). A converter
    /// asked to run faster emits/ingests at this rate instead, stretching
    /// symbol time — the sample-rate wall calibrated catalog parts hit.
    pub max_sample_rate_hz: f64,
}

impl ConverterConfig {
    /// Ideal converter: quantization only, zero energy, no rate wall.
    pub fn ideal(bits: u32) -> Self {
        ConverterConfig {
            bits,
            energy_per_sample_j: 0.0,
            noise_rms_v: 0.0,
            max_sample_rate_hz: 0.0,
        }
    }

    /// The rate the converter actually runs at when driven at
    /// `requested_hz`: clamped to the part's maximum when one is set.
    pub(crate) fn effective_sample_rate_hz(&self, requested_hz: f64) -> f64 {
        assert!(requested_hz > 0.0, "sample rate must be positive");
        if self.max_sample_rate_hz > 0.0 {
            requested_hz.min(self.max_sample_rate_hz)
        } else {
            requested_hz
        }
    }
}

impl Default for ConverterConfig {
    fn default() -> Self {
        ConverterConfig {
            bits: 8,
            energy_per_sample_j: 1.5e-12,
            noise_rms_v: 0.0005,
            max_sample_rate_hz: 0.0,
        }
    }
}

/// Digital-to-analog converter: code → voltage.
#[derive(Debug, Clone)]
pub struct Dac {
    pub(crate) config: ConverterConfig,
    rng: SimRng,
    pub(crate) samples_converted: u64,
}

impl Dac {
    pub fn new(config: ConverterConfig, rng: SimRng) -> Self {
        assert!(
            config.bits >= 1 && config.bits <= 24,
            "unreasonable DAC resolution"
        );
        Dac {
            config,
            rng,
            samples_converted: 0,
        }
    }

    pub fn ideal(bits: u32) -> Self {
        Dac::new(ConverterConfig::ideal(bits), SimRng::seed_from_u64(0))
    }

    /// Number of codes, `2^bits`.
    pub fn levels(&self) -> u64 {
        1u64 << self.config.bits
    }

    /// Convert a block of digital codes to voltages. Codes are clamped to
    /// the valid range (saturation, not wraparound). The output waveform
    /// runs at the part's effective rate: a DAC driven past its maximum
    /// sample rate stretches symbol time rather than dropping samples.
    pub fn convert(&mut self, codes: &[u64], sample_rate_hz: f64) -> AnalogWaveform {
        let max_code = self.levels() - 1;
        let lsb = FULL_SCALE_V / max_code as f64;
        let rate = self.config.effective_sample_rate_hz(sample_rate_hz);
        let mut out = AnalogWaveform::zeros(codes.len(), rate);
        for (o, &c) in out.samples.iter_mut().zip(codes.iter()) {
            let c = c.min(max_code);
            let mut v = c as f64 * lsb;
            if self.config.noise_rms_v > 0.0 {
                v += self.rng.normal(0.0, self.config.noise_rms_v);
            }
            *o = v;
        }
        self.samples_converted += codes.len() as u64;
        out
    }

    /// Account for `n` conversions without synthesizing the waveform.
    ///
    /// The scalar dot-product kernel converts every operand block and
    /// immediately discards the waveform (the decoded codes are what
    /// feed the drive synthesis). The vectorized kernel elides those
    /// dead conversions for speed but must still pay for them in the
    /// energy ledger — this bumps `samples_converted` exactly as
    /// [`Dac::convert`] would, without touching the noise RNG.
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
                v += self.rng.normal(0.0, self.config.noise_rms_v);
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
        let mut dac = Dac::ideal(8);
        let mut adc = Adc::ideal(8);
        let codes: Vec<u64> = (0..256).collect();
        let wave = dac.convert(&codes, RATE);
        let back = adc.convert(&wave);
        assert_eq!(codes, back);
    }

    #[test]
    fn dac_clamps_out_of_range_codes() {
        let mut dac = Dac::ideal(4);
        let wave = dac.convert(&[100_000], RATE);
        assert!((wave.samples[0] - 1.0).abs() < 1e-12);
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
    fn quantization_error_bounded_by_half_lsb() {
        let mut dac = Dac::ideal(6);
        let mut adc = Adc::ideal(6);
        let lsb = 1.0 / 63.0;
        for i in 0..200 {
            let x = i as f64 / 199.0;
            let code = dac.encode_unit(x);
            let wave = dac.convert(&[code], RATE);
            let back = adc.convert(&wave);
            let y = adc.decode_unit(back[0]);
            assert!((x - y).abs() <= 0.5 * lsb + 1e-12);
        }
    }

    #[test]
    fn converter_energy_accounting() {
        let mut dac = Dac::new(
            ConverterConfig {
                energy_per_sample_j: 2e-12,
                ..ConverterConfig::ideal(8)
            },
            SimRng::seed_from_u64(0),
        );
        dac.convert(&[0; 1000], RATE);
        assert!((dac.energy_consumed_j() - 2e-9).abs() < 1e-18);
    }

    #[test]
    fn charge_samples_matches_convert_energy() {
        let cfg = ConverterConfig {
            energy_per_sample_j: 2e-12,
            ..ConverterConfig::ideal(8)
        };
        let mut converted = Dac::new(cfg.clone(), SimRng::seed_from_u64(0));
        let mut charged = Dac::new(cfg, SimRng::seed_from_u64(0));
        converted.convert(&[0; 1000], RATE);
        charged.charge_samples(1000);
        assert_eq!(converted.samples_converted, charged.samples_converted);
        assert_eq!(
            converted.energy_consumed_j().to_bits(),
            charged.energy_consumed_j().to_bits()
        );
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
        Dac::new(ConverterConfig::ideal(0), SimRng::seed_from_u64(0));
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

    /// Sample-rate-limited symbol timing: a slow part driven past its
    /// wall emits at its own rate, stretching the symbol period; a part
    /// with no wall (or driven below it) passes the requested rate
    /// through untouched.
    #[test]
    fn rate_limited_dac_stretches_symbol_time() {
        let slow = ConverterConfig {
            max_sample_rate_hz: 1e6,
            ..ConverterConfig::ideal(8)
        };
        let mut dac = Dac::new(slow.clone(), SimRng::seed_from_u64(0));
        let wave = dac.convert(&[0, 128, 255], 10e9);
        assert_eq!(wave.sample_rate_hz, 1e6);
        // Below the wall the requested rate wins.
        assert_eq!(slow.effective_sample_rate_hz(0.5e6), 0.5e6);
        // No wall: pass-through.
        let free = ConverterConfig::ideal(8);
        assert_eq!(free.effective_sample_rate_hz(10e9), 10e9);
        let mut fast = Dac::new(free, SimRng::seed_from_u64(0));
        assert_eq!(fast.convert(&[1], 10e9).sample_rate_hz, 10e9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_requested_rate_panics() {
        ConverterConfig::ideal(8).effective_sample_rate_hz(0.0);
    }
}
