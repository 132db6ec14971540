//! Erbium-doped fiber amplifier (EDFA).
//!
//! WAN spans are amplified every ~80 km; amplification matters to on-fiber
//! computing because each EDFA adds ASE noise that eats into the analog
//! precision budget of the photonic engine downstream (experiment E2a
//! sweeps span count for exactly this reason).

use crate::noise;
use crate::rng::SimRng;
use crate::signal::OpticalField;
use crate::units;

/// Configuration of an EDFA.
#[derive(Debug, Clone)]
pub struct EdfaConfig {
    /// Gain in dB.
    pub gain_db: f64,
    /// Noise figure in dB (typical 4–6).
    pub noise_figure_db: f64,
    /// Output saturation power in dBm.
    pub saturation_dbm: f64,
    /// Electrical power draw, W.
    pub wall_plug_w: f64,
}

impl Default for EdfaConfig {
    fn default() -> Self {
        EdfaConfig {
            gain_db: 16.0,
            noise_figure_db: 5.0,
            saturation_dbm: 20.0,
            wall_plug_w: 8.0,
        }
    }
}

/// An EDFA adding gain and ASE noise.
#[derive(Debug, Clone)]
pub struct Edfa {
    pub config: EdfaConfig,
    rng: SimRng,
}

impl Edfa {
    pub fn new(config: EdfaConfig, rng: SimRng) -> Self {
        assert!(config.gain_db >= 0.0, "EDFA gain must be non-negative");
        Edfa { config, rng }
    }

    /// Ideal noiseless amplifier (for algebra tests).
    pub fn ideal(gain_db: f64) -> Self {
        Edfa::new(
            EdfaConfig {
                gain_db,
                noise_figure_db: 3.0, // quantum limit; noise disabled below
                saturation_dbm: f64::INFINITY,
                wall_plug_w: 0.0,
            },
            SimRng::seed_from_u64(0),
        )
    }

    /// Spontaneous-emission factor derived from the noise figure:
    /// `NF ≈ 2·nsp/G·(G−1) ≈ 2·nsp` for large gain, so `nsp = NF/2`.
    pub fn nsp(&self) -> f64 {
        (units::db_to_linear(self.config.noise_figure_db) / 2.0).max(1.0)
    }

    /// ASE power added over the block's bandwidth, W.
    pub fn ase_power_w(&self, sample_rate_hz: f64, wavelength_m: f64) -> f64 {
        let gain = units::db_to_linear(self.config.gain_db);
        noise::ase_power_w(gain, self.nsp(), sample_rate_hz / 2.0, wavelength_m)
    }

    /// Effective linear gain for a block of mean input power `p_in`:
    /// the configured gain capped by output saturation.
    pub fn effective_gain(&self, p_in: f64) -> f64 {
        let gain_lin = units::db_to_linear(self.config.gain_db);
        let p_sat = if self.config.saturation_dbm.is_finite() {
            units::dbm_to_watts(self.config.saturation_dbm)
        } else {
            f64::INFINITY
        };
        if p_in * gain_lin > p_sat && p_in > 0.0 {
            p_sat / p_in
        } else {
            gain_lin
        }
    }

    /// Amplify a field block: gain (with output saturation) plus complex
    /// Gaussian ASE noise distributed over the samples.
    pub fn amplify(&mut self, input: &OpticalField) -> OpticalField {
        // Saturation: cap mean output power at the saturation level.
        let p_in = input.mean_power_w();
        let amp = self.effective_gain(p_in).sqrt();
        let ase_total = self.ase_power_w(input.sample_rate_hz, input.wavelength_m);
        // Each quadrature gets half the ASE power.
        let sigma = (ase_total / 2.0).sqrt();
        let mut out = input.clone();
        for s in &mut out.samples {
            let mut v = s.scale(amp);
            if sigma > 0.0 {
                v += crate::Complex::new(self.rng.normal(0.0, sigma), self.rng.normal(0.0, sigma));
            }
            *s = v;
        }
        out
    }

    /// Vectorized [`Edfa::amplify`] operating on a struct-of-arrays
    /// block in place: same saturation-capped gain and the same ASE
    /// statistics, with the quadrature noise drawn through the ziggurat
    /// sampler lane by lane.
    /// Noiseless (zero-ASE) configurations are bit-identical to
    /// `amplify`; noisy ones share distributions but not streams
    /// (DESIGN.md §12).
    pub fn amplify_block(&mut self, block: &mut crate::simd::FieldBlock) {
        let p_in = block.mean_power_w();
        let amp = self.effective_gain(p_in).sqrt();
        let ase_total = self.ase_power_w(block.sample_rate_hz, block.wavelength_m);
        let sigma = (ase_total / 2.0).sqrt();
        block.scale_all(amp);
        if sigma > 0.0 {
            for v in &mut block.re {
                *v += sigma * crate::simd::gauss::standard_normal(&mut self.rng);
            }
            for v in &mut block.im {
                *v += sigma * crate::simd::gauss::standard_normal(&mut self.rng);
            }
        }
    }

    /// Output OSNR (dB) for a given input power, assuming this is the
    /// only noise source — the per-span OSNR building block of link
    /// budgets.
    pub fn output_osnr_db(
        &self,
        input_power_w: f64,
        sample_rate_hz: f64,
        wavelength_m: f64,
    ) -> f64 {
        let gain = units::db_to_linear(self.config.gain_db);
        let p_sig = input_power_w * gain;
        let p_ase = self.ase_power_w(sample_rate_hz, wavelength_m);
        noise::snr_db(p_sig, p_ase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 10e9;
    const WL: f64 = units::C_BAND_WAVELENGTH_M;

    #[test]
    fn ideal_gain_is_exact() {
        let mut e = Edfa::ideal(10.0);
        // Quantum-limited ASE is tiny but non-zero; check gain dominates.
        let input = OpticalField::cw(1000, 1e-6, RATE, WL);
        let out = e.amplify(&input);
        assert!((out.mean_power_w() / 1e-5 - 1.0).abs() < 0.01);
    }

    #[test]
    fn saturation_caps_output() {
        let mut e = Edfa::new(
            EdfaConfig {
                gain_db: 30.0,
                saturation_dbm: 10.0,
                ..EdfaConfig::default()
            },
            SimRng::seed_from_u64(1),
        );
        let input = OpticalField::cw(100, 1e-3, RATE, WL); // 0 dBm in, 30 dB gain
        let out = e.amplify(&input);
        let p_out_dbm = out.mean_power_dbm();
        assert!(p_out_dbm < 10.5, "output {p_out_dbm} dBm");
    }

    #[test]
    fn ase_matches_formula() {
        let e = Edfa::new(EdfaConfig::default(), SimRng::seed_from_u64(2));
        let gain = units::db_to_linear(16.0);
        let expect = noise::ase_power_w(gain, e.nsp(), RATE / 2.0, WL);
        assert!((e.ase_power_w(RATE, WL) - expect).abs() < 1e-20);
        assert!(expect > 0.0);
    }

    #[test]
    fn osnr_degrades_with_noise_figure() {
        let quiet = Edfa::new(
            EdfaConfig {
                noise_figure_db: 4.0,
                ..EdfaConfig::default()
            },
            SimRng::seed_from_u64(3),
        );
        let loud = Edfa::new(
            EdfaConfig {
                noise_figure_db: 7.0,
                ..EdfaConfig::default()
            },
            SimRng::seed_from_u64(3),
        );
        let p = units::dbm_to_watts(-20.0);
        assert!(quiet.output_osnr_db(p, RATE, WL) > loud.output_osnr_db(p, RATE, WL));
    }

    #[test]
    fn cascade_accumulates_noise() {
        // A chain of gain-balanced spans: OSNR must fall monotonically.
        let mut rng = SimRng::seed_from_u64(4);
        let mut field = OpticalField::cw(5000, units::dbm_to_watts(0.0), RATE, WL);
        let clean_power = field.mean_power_w();
        let mut last_var = 0.0;
        for i in 0..5 {
            let span = crate::fiber::FiberSpan::smf(80.0);
            field = span.propagate(&field);
            let mut edfa = Edfa::new(EdfaConfig::default(), rng.derive(&format!("edfa{i}")));
            field = edfa.amplify(&field);
            let mean = field.mean_power_w();
            let var = field
                .samples
                .iter()
                .map(|s| (s.norm_sqr() - mean).powi(2))
                .sum::<f64>()
                / field.len() as f64;
            assert!(var > last_var, "variance must grow per span (span {i})");
            last_var = var;
        }
        // Power stays near launch (gain 16 dB balances 16 dB span loss).
        assert!((field.mean_power_w() / clean_power - 1.0).abs() < 0.2);
    }

    #[test]
    fn amplify_block_matches_gain_and_ase_statistics() {
        let cfg = EdfaConfig::default();
        let mut e = Edfa::new(cfg.clone(), SimRng::seed_from_u64(6));
        let input = OpticalField::cw(40_000, units::dbm_to_watts(-10.0), RATE, WL);
        let mut block = crate::simd::FieldBlock::from_field(&input);
        e.amplify_block(&mut block);
        let gain = units::db_to_linear(16.0);
        let p_expect = units::dbm_to_watts(-10.0) * gain;
        let p_out = block.mean_power_w();
        assert!((p_out / p_expect - 1.0).abs() < 0.01, "power {p_out}");
        // Per-quadrature ASE variance = ase_total / 2.
        let sigma2 = e.ase_power_w(RATE, WL) / 2.0;
        let amp_mean = block.re.iter().sum::<f64>() / block.len() as f64;
        let var = block
            .re
            .iter()
            .map(|&r| (r - amp_mean).powi(2))
            .sum::<f64>()
            / block.len() as f64;
        assert!((var / sigma2 - 1.0).abs() < 0.05, "re-lane var {var}");
    }

    #[test]
    fn amplify_block_is_deterministic_per_seed() {
        let input = OpticalField::cw(64, 1e-4, RATE, WL);
        let mut e1 = Edfa::new(EdfaConfig::default(), SimRng::seed_from_u64(8));
        let mut e2 = Edfa::new(EdfaConfig::default(), SimRng::seed_from_u64(8));
        let mut b1 = crate::simd::FieldBlock::from_field(&input);
        let mut b2 = crate::simd::FieldBlock::from_field(&input);
        e1.amplify_block(&mut b1);
        e2.amplify_block(&mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_gain() {
        Edfa::new(
            EdfaConfig {
                gain_db: -3.0,
                ..EdfaConfig::default()
            },
            SimRng::seed_from_u64(0),
        );
    }
}
