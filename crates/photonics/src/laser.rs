//! Continuous-wave laser source.
//!
//! The transponder's light source (Fig. 3/4 "Laser" block): a CW laser
//! with configurable output power, wavelength, relative intensity noise
//! (RIN), and phase noise from a Lorentzian linewidth.

use crate::noise;
use crate::rng::SimRng;
use crate::signal::OpticalField;
use crate::units;

/// Configuration of a CW laser.
#[derive(Debug, Clone)]
pub struct LaserConfig {
    /// Output power in dBm. Typical integrated DFB: 10–16 dBm.
    pub power_dbm: f64,
    /// Emission wavelength in meters.
    pub wavelength_m: f64,
    /// Relative intensity noise in dB/Hz (e.g. −150).
    pub rin_db_hz: f64,
    /// Lorentzian linewidth in Hz (phase-noise strength, e.g. 100 kHz).
    pub linewidth_hz: f64,
    /// Electrical wall-plug power draw in watts (for energy accounting).
    pub wall_plug_w: f64,
}

impl Default for LaserConfig {
    fn default() -> Self {
        LaserConfig {
            power_dbm: 13.0,
            wavelength_m: units::C_BAND_WAVELENGTH_M,
            rin_db_hz: -150.0,
            linewidth_hz: 100e3,
            wall_plug_w: 1.5,
        }
    }
}

/// A CW laser emitting blocks of optical field samples.
#[derive(Debug, Clone)]
pub struct Laser {
    pub config: LaserConfig,
    rng: SimRng,
    /// Running phase of the random-walk phase noise, carried across blocks.
    phase: f64,
}

impl Laser {
    pub fn new(config: LaserConfig, rng: SimRng) -> Self {
        Laser {
            config,
            rng,
            phase: 0.0,
        }
    }

    /// Mean emitted power in watts.
    pub fn power_w(&self) -> f64 {
        units::dbm_to_watts(self.config.power_dbm)
    }

    /// Emit `n` samples at `sample_rate_hz`.
    ///
    /// RIN perturbs instantaneous power; the Lorentzian linewidth drives a
    /// Wiener phase walk with per-sample variance `2πΔν·dt`.
    pub fn emit(&mut self, n: usize, sample_rate_hz: f64) -> OpticalField {
        let p0 = self.power_w();
        let mut field = OpticalField::dark(n, sample_rate_hz, self.config.wavelength_m);
        let rin_sigma = if self.config.rin_db_hz.is_finite() {
            noise::rin_sigma_w(p0, self.config.rin_db_hz, sample_rate_hz / 2.0)
        } else {
            0.0
        };
        let phase_sigma = if self.config.linewidth_hz > 0.0 && sample_rate_hz > 0.0 {
            (std::f64::consts::TAU * self.config.linewidth_hz / sample_rate_hz).sqrt()
        } else {
            0.0
        };
        for s in &mut field.samples {
            let p = if rin_sigma > 0.0 {
                (p0 + self.rng.normal(0.0, rin_sigma)).max(0.0)
            } else {
                p0
            };
            if phase_sigma > 0.0 {
                self.phase += self.rng.normal(0.0, phase_sigma);
            }
            *s = crate::Complex::from_polar(p.sqrt(), self.phase);
        }
        field
    }

    /// Vectorized *power-domain* emission: fill `out` with `n`
    /// instantaneous power samples (W), RIN applied.
    ///
    /// The P1 chain is power-domain end to end (real MZM transmissions,
    /// square-law detection), so the phase walk the scalar
    /// [`Laser::emit`] synthesizes is provably invisible there:
    /// `|√p·e^{iφ}|² = p` to the ulp. This path skips the walk entirely
    /// — no phase normals are drawn and `self.phase` is left untouched —
    /// and draws RIN through the ziggurat sampler, so its noise stream
    /// differs from `emit`'s while staying deterministic per seed
    /// (DESIGN.md §12). Do **not** use it where phase matters (coherent
    /// detection, interference); use [`Laser::emit`] there.
    pub fn emit_power_block(&mut self, n: usize, sample_rate_hz: f64, out: &mut Vec<f64>) {
        let p0 = self.power_w();
        let rin_sigma = if self.config.rin_db_hz.is_finite() {
            noise::rin_sigma_w(p0, self.config.rin_db_hz, sample_rate_hz / 2.0)
        } else {
            0.0
        };
        out.clear();
        out.resize(n, p0);
        if rin_sigma > 0.0 {
            for v in out.iter_mut() {
                *v = (p0 + rin_sigma * crate::simd::gauss::standard_normal(&mut self.rng)).max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noiseless laser at `power_dbm`.
    fn ideal(power_dbm: f64) -> Laser {
        Laser::new(
            LaserConfig {
                power_dbm,
                rin_db_hz: f64::NEG_INFINITY,
                linewidth_hz: 0.0,
                ..LaserConfig::default()
            },
            SimRng::seed_from_u64(0),
        )
    }

    #[test]
    fn ideal_laser_emits_constant_power() {
        let mut l = ideal(10.0);
        let f = l.emit(256, 10e9);
        let p = units::dbm_to_watts(10.0);
        for s in &f.samples {
            assert!((s.norm_sqr() - p).abs() < 1e-15);
            assert_eq!(s.arg(), 0.0);
        }
    }

    #[test]
    fn rin_perturbs_power_with_correct_scale() {
        let cfg = LaserConfig {
            power_dbm: 10.0,
            rin_db_hz: -140.0,
            linewidth_hz: 0.0,
            ..LaserConfig::default()
        };
        let mut l = Laser::new(cfg, SimRng::seed_from_u64(1));
        let f = l.emit(20_000, 10e9);
        let p0 = units::dbm_to_watts(10.0);
        let mean = f.mean_power_w();
        assert!((mean - p0).abs() / p0 < 0.01, "mean {mean}");
        let var = f
            .samples
            .iter()
            .map(|s| (s.norm_sqr() - mean).powi(2))
            .sum::<f64>()
            / f.len() as f64;
        let expect = noise::rin_sigma_w(p0, -140.0, 5e9);
        assert!(
            (var.sqrt() - expect).abs() / expect < 0.05,
            "sigma {} vs {expect}",
            var.sqrt()
        );
    }

    #[test]
    fn linewidth_produces_phase_walk() {
        let cfg = LaserConfig {
            linewidth_hz: 1e6,
            rin_db_hz: f64::NEG_INFINITY,
            ..LaserConfig::default()
        };
        let mut l = Laser::new(cfg, SimRng::seed_from_u64(2));
        let f = l.emit(4096, 10e9);
        // Phase must actually move...
        let first = f.samples[0].arg();
        let last = f.samples[4095].arg();
        assert!((first - last).abs() > 1e-6);
        // ...without disturbing power.
        let p0 = units::dbm_to_watts(13.0);
        assert!((f.mean_power_w() - p0).abs() / p0 < 1e-9);
    }

    #[test]
    fn phase_is_continuous_across_blocks() {
        let cfg = LaserConfig {
            linewidth_hz: 1e6,
            rin_db_hz: f64::NEG_INFINITY,
            ..LaserConfig::default()
        };
        let mut l = Laser::new(cfg.clone(), SimRng::seed_from_u64(3));
        let a = l.emit(10, 10e9);
        let b = l.emit(1, 10e9);
        // The next block starts near where the previous ended (one step of
        // the walk), not back at zero.
        let step = (b.samples[0].arg() - a.samples[9].arg()).abs();
        assert!(step < 0.1, "phase jumped by {step}");
    }

    #[test]
    fn emission_is_deterministic_per_seed() {
        let cfg = LaserConfig::default();
        let mut l1 = Laser::new(cfg.clone(), SimRng::seed_from_u64(7));
        let mut l2 = Laser::new(cfg, SimRng::seed_from_u64(7));
        assert_eq!(l1.emit(64, 10e9).samples, l2.emit(64, 10e9).samples);
    }

    #[test]
    fn power_block_matches_emit_distribution() {
        let cfg = LaserConfig {
            power_dbm: 10.0,
            rin_db_hz: -140.0,
            linewidth_hz: 0.0,
            ..LaserConfig::default()
        };
        let mut l = Laser::new(cfg, SimRng::seed_from_u64(11));
        let mut powers = Vec::new();
        l.emit_power_block(40_000, 10e9, &mut powers);
        let p0 = units::dbm_to_watts(10.0);
        let mean = powers.iter().sum::<f64>() / powers.len() as f64;
        assert!((mean - p0).abs() / p0 < 0.01, "mean {mean}");
        let var = powers.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / powers.len() as f64;
        let expect = noise::rin_sigma_w(p0, -140.0, 5e9);
        assert!(
            (var.sqrt() - expect).abs() / expect < 0.05,
            "sigma {} vs {expect}",
            var.sqrt()
        );
    }

    #[test]
    fn noiseless_power_block_is_exact_and_skips_the_rng() {
        let mut l = ideal(10.0);
        let mut before = l.rng.clone();
        let mut powers = Vec::new();
        l.emit_power_block(64, 10e9, &mut powers);
        let p0 = units::dbm_to_watts(10.0);
        assert!(powers.iter().all(|p| p.to_bits() == p0.to_bits()));
        // No RIN, no phase walk: the stream must be untouched.
        assert_eq!(l.rng.next_u64(), before.next_u64());
    }

    #[test]
    fn power_block_is_deterministic_per_seed() {
        let cfg = LaserConfig::default();
        let mut l1 = Laser::new(cfg.clone(), SimRng::seed_from_u64(9));
        let mut l2 = Laser::new(cfg, SimRng::seed_from_u64(9));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        l1.emit_power_block(128, 10e9, &mut a);
        l2.emit_power_block(128, 10e9, &mut b);
        assert_eq!(a, b);
    }
}
