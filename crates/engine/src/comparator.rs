//! Photonic comparator — balanced photodetection.
//!
//! Table 1's load-balancing use case needs "photonic comparator hardware":
//! deciding which of two analog quantities is larger without digitizing
//! either. The classic optical realization is a *balanced photodetector*:
//! the two intensity-encoded values illuminate two matched photodiodes
//! wired back-to-back, so the output current is `R·(P_a − P_b)` and its
//! **sign** is the comparison result. No ADC is needed for the decision —
//! a single comparator latch reads the sign.

use ofpc_photonics::energy::constants::PHOTONIC_LANE_HZ;
use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::{MachZehnderModulator, MzmConfig};
use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig, RESPONSIVITY_A_W};
use ofpc_photonics::signal::AnalogWaveform;
use ofpc_photonics::SimRng;

/// Symbol slots integrated per comparison: both arms run `2 ×` this
/// many slots at [`PHOTONIC_LANE_HZ`].
const INTEGRATION_SYMBOLS: usize = 4;

/// Dead zone: |difference| below this fraction of full scale reports
/// [`Comparison::TooClose`] instead of a possibly-noisy sign.
const DEAD_ZONE: f64 = 0.01;

/// Outcome of a photonic comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    laser: Laser,
    mzm_a: MachZehnderModulator,
    mzm_b: MachZehnderModulator,
    pd_a: Photodetector,
    pd_b: Photodetector,
}

impl PhotonicComparator {
    /// A comparator built from ideal (noiseless, lossless) parts.
    pub fn ideal() -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        PhotonicComparator {
            laser: Laser::new(LaserConfig::ideal(), rng.derive("cmp-laser")),
            mzm_a: MachZehnderModulator::new(MzmConfig::ideal()),
            mzm_b: MachZehnderModulator::new(MzmConfig::ideal()),
            pd_a: Photodetector::new(PhotodetectorConfig::ideal(), rng.derive("cmp-pd-a")),
            pd_b: Photodetector::new(PhotodetectorConfig::ideal(), rng.derive("cmp-pd-b")),
        }
    }

    /// Compare two values in `[0, 1]` by balanced detection.
    pub fn compare(&mut self, a: f64, b: f64) -> Comparison {
        let n = INTEGRATION_SYMBOLS;
        let light = self.laser.emit(2 * n, PHOTONIC_LANE_HZ);
        let half_a = ofpc_photonics::coupler::split_in_two(&light);
        let (arm_a, arm_b) = (half_a[0].clone(), half_a[1].clone());
        let drive_a = AnalogWaveform::new(
            vec![self.mzm_a.drive_for_transmission(a.clamp(0.0, 1.0)); 2 * n],
            PHOTONIC_LANE_HZ,
        );
        let drive_b = AnalogWaveform::new(
            vec![self.mzm_b.drive_for_transmission(b.clamp(0.0, 1.0)); 2 * n],
            PHOTONIC_LANE_HZ,
        );
        let lit_a = self.mzm_a.modulate(&arm_a, &drive_a);
        let lit_b = self.mzm_b.modulate(&arm_b, &drive_b);
        let i_a: f64 = self.pd_a.detect(&lit_a).samples.iter().sum::<f64>();
        let i_b: f64 = self.pd_b.detect(&lit_b).samples.iter().sum::<f64>();
        // Differential current, normalized to the full-scale per-arm
        // current so the dead zone is unit-independent.
        let full_scale = self.laser.power_w() / 2.0 * RESPONSIVITY_A_W * 2.0 * n as f64;
        let diff = (i_a - i_b) / full_scale.max(f64::MIN_POSITIVE);
        if diff.abs() < DEAD_ZONE {
            Comparison::TooClose
        } else if diff > 0.0 {
            Comparison::AGreater
        } else {
            Comparison::BGreater
        }
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
        let mut c = PhotonicComparator::ideal();
        assert_eq!(c.compare(0.5, 0.5), Comparison::TooClose);
    }
}
