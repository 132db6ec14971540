//! Photonic comparator — balanced photodetection.
//!
//! Table 1's load-balancing use case needs "photonic comparator hardware":
//! deciding which of two analog quantities is larger without digitizing
//! either. The classic optical realization is a *balanced photodetector*:
//! the two intensity-encoded values illuminate two matched photodiodes
//! wired back-to-back, so the output current is `R·(P_a − P_b)` and its
//! **sign** is the comparison result. No ADC is needed for the decision —
//! a single comparator latch reads the sign.

use ofpc_photonics::energy::EnergyLedger;
use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::{MachZehnderModulator, MzmConfig};
use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use ofpc_photonics::signal::AnalogWaveform;
use ofpc_photonics::SimRng;

/// Configuration of a photonic comparator.
#[derive(Debug, Clone)]
pub struct ComparatorConfig {
    pub laser: LaserConfig,
    pub mzm_a: MzmConfig,
    pub mzm_b: MzmConfig,
    pub pd_a: PhotodetectorConfig,
    pub pd_b: PhotodetectorConfig,
    pub sample_rate_hz: f64,
    /// Number of symbol slots integrated per comparison (longer = less
    /// noise, more latency).
    pub integration_symbols: usize,
    /// Dead zone: |difference| below this fraction of full scale reports
    /// [`Comparison::TooClose`] instead of a possibly-noisy sign.
    pub dead_zone: f64,
}

impl ComparatorConfig {
    pub fn ideal() -> Self {
        ComparatorConfig {
            laser: LaserConfig {
                rin_db_hz: f64::NEG_INFINITY,
                linewidth_hz: 0.0,
                wall_plug_w: 0.0,
                ..LaserConfig::default()
            },
            mzm_a: MzmConfig::ideal(),
            mzm_b: MzmConfig::ideal(),
            pd_a: PhotodetectorConfig::ideal(),
            pd_b: PhotodetectorConfig::ideal(),
            sample_rate_hz: 32e9,
            integration_symbols: 4,
            dead_zone: 0.0,
        }
    }

    pub fn realistic() -> Self {
        ComparatorConfig {
            laser: LaserConfig::default(),
            mzm_a: MzmConfig::default(),
            mzm_b: MzmConfig::default(),
            pd_a: PhotodetectorConfig::default(),
            pd_b: PhotodetectorConfig::default(),
            sample_rate_hz: 32e9,
            integration_symbols: 8,
            dead_zone: 0.02,
        }
    }
}

/// Outcome of a photonic comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// `a > b` with margin.
    AGreater,
    /// `b > a` with margin.
    BGreater,
    /// The difference fell inside the dead zone.
    TooClose,
}

/// A balanced-photodetector comparator.
#[derive(Debug, Clone)]
pub struct PhotonicComparator {
    pub config: ComparatorConfig,
    laser: Laser,
    mzm_a: MachZehnderModulator,
    mzm_b: MachZehnderModulator,
    pd_a: Photodetector,
    pd_b: Photodetector,
    pub comparisons: u64,
}

impl PhotonicComparator {
    pub fn new(config: ComparatorConfig, rng: &mut SimRng) -> Self {
        PhotonicComparator {
            laser: Laser::new(config.laser.clone(), rng.derive("cmp-laser")),
            mzm_a: MachZehnderModulator::new(config.mzm_a.clone()),
            mzm_b: MachZehnderModulator::new(config.mzm_b.clone()),
            pd_a: Photodetector::new(config.pd_a.clone(), rng.derive("cmp-pd-a")),
            pd_b: Photodetector::new(config.pd_b.clone(), rng.derive("cmp-pd-b")),
            config,
            comparisons: 0,
        }
    }

    pub fn ideal() -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        PhotonicComparator::new(ComparatorConfig::ideal(), &mut rng)
    }

    /// Compare two values in `[0, 1]` by balanced detection.
    pub fn compare(&mut self, a: f64, b: f64) -> Comparison {
        let n = self.config.integration_symbols.max(1);
        let light = self.laser.emit(2 * n, self.config.sample_rate_hz);
        let half_a = ofpc_photonics::coupler::split_n(&light, 2);
        let (arm_a, arm_b) = (half_a[0].clone(), half_a[1].clone());
        let drive_a = AnalogWaveform::new(
            vec![self.mzm_a.drive_for_transmission(a.clamp(0.0, 1.0)); 2 * n],
            self.config.sample_rate_hz,
        );
        let drive_b = AnalogWaveform::new(
            vec![self.mzm_b.drive_for_transmission(b.clamp(0.0, 1.0)); 2 * n],
            self.config.sample_rate_hz,
        );
        let lit_a = self.mzm_a.modulate(&arm_a, &drive_a);
        let lit_b = self.mzm_b.modulate(&arm_b, &drive_b);
        let i_a: f64 = self.pd_a.detect(&lit_a).samples.iter().sum::<f64>();
        let i_b: f64 = self.pd_b.detect(&lit_b).samples.iter().sum::<f64>();
        self.comparisons += 1;
        // Differential current, normalized to the full-scale per-arm
        // current so the dead zone is unit-independent.
        let full_scale =
            self.laser.power_w() / 2.0 * self.pd_a.config.responsivity_a_w * 2.0 * n as f64;
        let diff = (i_a - i_b) / full_scale.max(f64::MIN_POSITIVE);
        if diff.abs() < self.config.dead_zone {
            Comparison::TooClose
        } else if diff > 0.0 {
            Comparison::AGreater
        } else {
            Comparison::BGreater
        }
    }

    /// Find the index of the maximum of `values` by a single-elimination
    /// tournament of pairwise comparisons (ties broken toward the lower
    /// index). This is the photonic "argmin queue-depth" kernel of the
    /// load-balancing use case.
    pub fn argmax(&mut self, values: &[f64]) -> usize {
        assert!(!values.is_empty(), "argmax of empty slice");
        let mut best = 0;
        for i in 1..values.len() {
            if self.compare(values[i], values[best]) == Comparison::AGreater {
                best = i;
            }
        }
        best
    }

    /// Latency of one comparison, seconds.
    pub fn latency_s(&self) -> f64 {
        self.config.integration_symbols as f64 * 2.0 / self.config.sample_rate_hz + 1e-9
    }

    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        let secs = self.comparisons as f64 * 2.0 * self.config.integration_symbols as f64
            / self.config.sample_rate_hz;
        ledger.add("laser", self.laser.config.wall_plug_w * secs);
        ledger.add("mzm-a", self.mzm_a.energy_consumed_j());
        ledger.add("mzm-b", self.mzm_b.energy_consumed_j());
        ledger.add("pd-a", self.pd_a.energy_consumed_j());
        ledger.add("pd-b", self.pd_b.energy_consumed_j());
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_differences_are_decided() {
        let mut c = PhotonicComparator::ideal();
        assert_eq!(c.compare(0.9, 0.1), Comparison::AGreater);
        assert_eq!(c.compare(0.1, 0.9), Comparison::BGreater);
    }

    #[test]
    fn equal_values_with_dead_zone_are_too_close() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut cfg = ComparatorConfig::ideal();
        cfg.dead_zone = 0.01;
        let mut c = PhotonicComparator::new(cfg, &mut rng);
        assert_eq!(c.compare(0.5, 0.5), Comparison::TooClose);
    }

    #[test]
    fn small_differences_resolve_without_dead_zone() {
        let mut c = PhotonicComparator::ideal();
        assert_eq!(c.compare(0.51, 0.50), Comparison::AGreater);
    }

    #[test]
    fn noisy_comparator_resolves_clear_margins() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut c = PhotonicComparator::new(ComparatorConfig::realistic(), &mut rng);
        let mut correct = 0;
        let trials = 100;
        for i in 0..trials {
            let (a, b) = if i % 2 == 0 { (0.8, 0.3) } else { (0.2, 0.7) };
            let want = if a > b {
                Comparison::AGreater
            } else {
                Comparison::BGreater
            };
            if c.compare(a, b) == want {
                correct += 1;
            }
        }
        assert!(correct >= 98, "only {correct}/{trials} correct");
    }

    #[test]
    fn argmax_finds_the_maximum() {
        let mut c = PhotonicComparator::ideal();
        let values = [0.2, 0.9, 0.4, 0.7, 0.1];
        assert_eq!(c.argmax(&values), 1);
        assert_eq!(c.argmax(&[0.5]), 0);
    }

    #[test]
    fn argmax_prefers_lower_index_on_ties() {
        let mut c = PhotonicComparator::ideal();
        assert_eq!(c.argmax(&[0.5, 0.5, 0.5]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_rejects_empty() {
        PhotonicComparator::ideal().argmax(&[]);
    }

    #[test]
    fn comparison_count_and_energy() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut c = PhotonicComparator::new(ComparatorConfig::realistic(), &mut rng);
        c.compare(0.1, 0.9);
        c.compare(0.9, 0.1);
        assert_eq!(c.comparisons, 2);
        assert!(c.energy_ledger().total_j() > 0.0);
        assert!(c.latency_s() > 0.0);
    }
}
