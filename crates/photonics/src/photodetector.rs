//! PIN photodetector.
//!
//! The summation device of the P1 primitive (Fig. 2a) and the receive-path
//! front end of every transponder (Fig. 3/4). Converts optical power to
//! photocurrent `I = R·P`, then adds the receiver noise triplet: shot
//! noise on the instantaneous current, thermal noise of the load, and
//! dark current. Square-law detection is what discards phase — tests
//! verify that phase-only modulation is invisible to a photodetector,
//! which is exactly why the P2 matcher needs interference *before* the
//! detector.
//!
//! Every detector's front end is wider than Nyquist at the one lane
//! rate, so photocurrents pass unfiltered and both noise terms
//! integrate over the Nyquist bandwidth, half the sample rate
//! (DESIGN.md §12).

use crate::noise;
use crate::rng::SimRng;
use crate::signal::{AnalogWaveform, OpticalField};

/// Responsivity of every detector, A/W (InGaAs at 1550 nm: ~0.9–1.1).
pub const RESPONSIVITY_A_W: f64 = 1.0;

/// Configuration of a PIN photodetector front end. Every detector runs
/// at [`RESPONSIVITY_A_W`] into a 50 Ω load at room temperature.
#[derive(Debug, Clone)]
pub struct PhotodetectorConfig {
    /// Dark current, A.
    pub(crate) dark_current_a: f64,
    /// Enable shot noise.
    pub shot_noise: bool,
    /// Enable thermal noise.
    pub(crate) thermal_noise: bool,
    /// Static power draw of the TIA stage, W (energy accounting).
    pub(crate) tia_power_w: f64,
}

impl PhotodetectorConfig {
    /// Noiseless detector for calibration and algebra tests.
    pub fn ideal() -> Self {
        PhotodetectorConfig {
            dark_current_a: 0.0,
            shot_noise: false,
            thermal_noise: false,
            tia_power_w: 0.0,
        }
    }
}

impl Default for PhotodetectorConfig {
    fn default() -> Self {
        PhotodetectorConfig {
            dark_current_a: 5e-9,
            shot_noise: true,
            thermal_noise: true,
            tia_power_w: 0.5,
        }
    }
}

/// A PIN photodetector with its receiver noise processes.
#[derive(Debug, Clone)]
pub struct Photodetector {
    pub config: PhotodetectorConfig,
    rng: SimRng,
    /// Seconds of signal detected so far (drives TIA energy accounting).
    pub(crate) seconds_active: f64,
}

impl Photodetector {
    pub fn new(config: PhotodetectorConfig, rng: SimRng) -> Self {
        Photodetector {
            config,
            rng,
            seconds_active: 0.0,
        }
    }

    /// Detect an optical field block, producing a photocurrent waveform
    /// (amps). Square-law: `i[n] = R·|e[n]|² + I_dark + noise`.
    pub fn detect(&mut self, input: &OpticalField) -> AnalogWaveform {
        // Noise integrates over the Nyquist bandwidth (module doc).
        let bw = input.sample_rate_hz / 2.0;
        let mut out = AnalogWaveform::zeros(input.len(), input.sample_rate_hz);
        let thermal_sigma = if self.config.thermal_noise {
            noise::thermal_noise_sigma_a(bw)
        } else {
            0.0
        };
        for (o, s) in out.samples.iter_mut().zip(input.samples.iter()) {
            let mut i = RESPONSIVITY_A_W * s.norm_sqr() + self.config.dark_current_a;
            if self.config.shot_noise {
                let sigma = noise::shot_noise_sigma_a(i, bw);
                i += self.rng.normal(sigma);
            }
            if thermal_sigma > 0.0 {
                i += self.rng.normal(thermal_sigma);
            }
            *o = i;
        }
        self.seconds_active += input.duration_s();
        out
    }

    /// Fused power-domain detection for the vectorized kernels: on
    /// entry, `samples` holds instantaneous optical powers (W); on
    /// return it holds photocurrent samples (A). No intermediate waveform
    /// is allocated.
    ///
    /// Shot and thermal noise are folded into a *single* Gaussian draw
    /// per sample — independent Gaussian variances add, so the
    /// distribution is identical to the scalar two-draw path — taken
    /// from the ziggurat sampler over this detector's own RNG. The draw
    /// stream therefore differs from [`Photodetector::detect`]'s while
    /// staying deterministic per seed (DESIGN.md §12).
    pub fn detect_power_block(&mut self, samples: &mut [f64], sample_rate_hz: f64) {
        // Noise integrates over the Nyquist bandwidth (module doc).
        let bw = sample_rate_hz / 2.0;
        let thermal_var = if self.config.thermal_noise {
            let sigma = noise::thermal_noise_sigma_a(bw);
            sigma * sigma
        } else {
            0.0
        };
        // 2q·bw: shot variance per amp of photocurrent.
        let shot_coeff = if self.config.shot_noise {
            let unit = noise::shot_noise_sigma_a(1.0, bw);
            unit * unit
        } else {
            0.0
        };
        let noisy = shot_coeff > 0.0 || thermal_var > 0.0;
        for s in samples.iter_mut() {
            let mut i = RESPONSIVITY_A_W * *s + self.config.dark_current_a;
            if noisy {
                let var = shot_coeff * i.abs() + thermal_var;
                if var > 0.0 {
                    i += var.sqrt() * crate::simd::gauss::standard_normal(&mut self.rng);
                }
            }
            *s = i;
        }
        if sample_rate_hz > 0.0 {
            self.seconds_active += samples.len() as f64 / sample_rate_hz;
        }
    }

    /// Mean photocurrent that a CW input of `power_w` would produce, A.
    pub fn expected_current_a(&self, power_w: f64) -> f64 {
        RESPONSIVITY_A_W * power_w + self.config.dark_current_a
    }

    /// TIA energy consumed so far, J.
    pub fn energy_consumed_j(&self) -> f64 {
        self.seconds_active * self.config.tia_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::units;

    const RATE: f64 = 10e9;
    const WL: f64 = units::C_BAND_WAVELENGTH_M;

    #[test]
    fn ideal_detection_is_linear_in_power() {
        let mut pd = Photodetector::new(PhotodetectorConfig::ideal(), SimRng::seed_from_u64(0));
        let f1 = OpticalField::cw(8, 1e-3, RATE);
        let f2 = OpticalField::cw(8, 2e-3, RATE);
        let i1 = pd.detect(&f1).mean();
        let i2 = pd.detect(&f2).mean();
        assert!((i1 - 1e-3).abs() < 1e-15);
        assert!((i2 / i1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn square_law_discards_phase() {
        // Phase-modulated light at constant power is indistinguishable
        // from unmodulated light — the motivation for interference-based
        // pattern matching (Fig. 2b).
        let mut pd = Photodetector::new(PhotodetectorConfig::ideal(), SimRng::seed_from_u64(0));
        let mut f = OpticalField::cw(16, 1e-3, RATE);
        for (i, s) in f.samples.iter_mut().enumerate() {
            *s = s.rotate(i as f64 * 0.7);
        }
        let out = pd.detect(&f);
        for &i in &out.samples {
            assert!((i - 1e-3).abs() < 1e-15);
        }
    }

    #[test]
    fn interference_is_visible_after_combining() {
        let mut pd = Photodetector::new(PhotodetectorConfig::ideal(), SimRng::seed_from_u64(0));
        let a = Complex::new(1e-3f64.sqrt(), 0.0);
        let constructive = OpticalField {
            samples: vec![a + a],
            sample_rate_hz: RATE,
            wavelength_m: WL,
        };
        let destructive = OpticalField {
            samples: vec![a - a],
            sample_rate_hz: RATE,
            wavelength_m: WL,
        };
        let ic = pd.detect(&constructive).samples[0];
        let id = pd.detect(&destructive).samples[0];
        assert!((ic - 4e-3).abs() < 1e-15);
        assert!(id < 1e-15);
    }

    #[test]
    fn dark_current_adds_offset() {
        let mut pd = Photodetector::new(
            PhotodetectorConfig {
                dark_current_a: 1e-6,
                ..PhotodetectorConfig::ideal()
            },
            SimRng::seed_from_u64(0),
        );
        let f = OpticalField::dark(4, RATE, WL);
        let out = pd.detect(&f);
        for &i in &out.samples {
            assert!((i - 1e-6).abs() < 1e-18);
        }
    }

    #[test]
    fn shot_noise_variance_tracks_theory() {
        let mut pd = Photodetector::new(
            PhotodetectorConfig {
                shot_noise: true,
                thermal_noise: false,
                ..PhotodetectorConfig::ideal()
            },
            SimRng::seed_from_u64(1),
        );
        let f = OpticalField::cw(40_000, 1e-3, RATE);
        let out = pd.detect(&f);
        let mean = out.mean();
        let var = out.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / out.len() as f64;
        let expect = noise::shot_noise_sigma_a(1e-3, RATE / 2.0);
        assert!(
            (var.sqrt() - expect).abs() / expect < 0.05,
            "sigma {} expect {expect}",
            var.sqrt()
        );
    }

    #[test]
    fn thermal_noise_dominates_at_low_power() {
        // At -40 dBm the thermal term should dwarf shot noise.
        let p = units::dbm_to_watts(-40.0);
        let shot = noise::shot_noise_sigma_a(p, RATE / 2.0);
        let thermal = noise::thermal_noise_sigma_a(RATE / 2.0);
        assert!(thermal > 5.0 * shot);
    }

    #[test]
    fn energy_accounting_accumulates() {
        let mut pd = Photodetector::new(
            PhotodetectorConfig {
                tia_power_w: 0.5,
                ..PhotodetectorConfig::ideal()
            },
            SimRng::seed_from_u64(0),
        );
        let f = OpticalField::cw(10_000, 1e-3, RATE);
        pd.detect(&f);
        let expect = 0.5 * 10_000.0 / RATE;
        assert!((pd.energy_consumed_j() - expect).abs() < 1e-12);
    }

    #[test]
    fn noiseless_power_block_matches_detect_bit_exactly() {
        // With noise off, the fused power-domain path is algebraically
        // identical to the scalar path (same adds) — require bit equality.
        let cfg = PhotodetectorConfig {
            dark_current_a: 5e-9,
            ..PhotodetectorConfig::ideal()
        };
        let mut aos = Photodetector::new(cfg.clone(), SimRng::seed_from_u64(4));
        let mut soa = Photodetector::new(cfg, SimRng::seed_from_u64(4));
        let mut f = OpticalField::cw(32, 1e-3, RATE);
        for (i, s) in f.samples.iter_mut().enumerate() {
            *s = s.scale(((i % 7) as f64 + 1.0) / 7.0);
        }
        let want = aos.detect(&f);
        let mut powers: Vec<f64> = f.samples.iter().map(|s| s.norm_sqr()).collect();
        soa.detect_power_block(&mut powers, RATE);
        for (k, &p) in powers.iter().enumerate().take(32) {
            assert_eq!(want.samples[k].to_bits(), p.to_bits(), "sample {k}");
        }
        assert!((aos.seconds_active - soa.seconds_active).abs() < 1e-24);
    }

    #[test]
    fn combined_noise_draw_has_the_right_variance() {
        // One fused Gaussian draw per sample must carry the *sum* of the
        // shot and thermal variances.
        let cfg = PhotodetectorConfig {
            shot_noise: true,
            thermal_noise: true,
            ..PhotodetectorConfig::ideal()
        };
        let mut pd = Photodetector::new(cfg, SimRng::seed_from_u64(5));
        let p = 1e-3;
        let mut samples = vec![p; 40_000];
        pd.detect_power_block(&mut samples, RATE);
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let shot = noise::shot_noise_sigma_a(p, RATE / 2.0);
        let thermal = noise::thermal_noise_sigma_a(RATE / 2.0);
        let expect = (shot * shot + thermal * thermal).sqrt();
        assert!((mean - p).abs() < 5.0 * expect / 200.0, "mean {mean}");
        assert!(
            (var.sqrt() - expect).abs() / expect < 0.05,
            "sigma {} expect {expect}",
            var.sqrt()
        );
    }

    #[test]
    fn detection_is_deterministic_per_seed() {
        let cfg = PhotodetectorConfig::default();
        let mut a = Photodetector::new(cfg.clone(), SimRng::seed_from_u64(9));
        let mut b = Photodetector::new(cfg, SimRng::seed_from_u64(9));
        let f = OpticalField::cw(64, 1e-3, RATE);
        assert_eq!(a.detect(&f).samples, b.detect(&f).samples);
    }
}
