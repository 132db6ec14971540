//! Ternary pattern matching (match / mismatch / wildcard).
//!
//! The "photonic ternary matching hardware" that Table 1 lists for the IP
//! routing use case: TCAM-style rules with don't-care bits. A wildcard
//! position simply gets *no light* on the pattern arm — the pattern-arm
//! modulator is gated dark for that symbol — so the difference port sees a
//! constant, data-independent power of `P/4` there (only the data arm's
//! half-field arrives). The digital threshold logic subtracts that known
//! per-wildcard offset before deciding.
//!
//! Built on the same physics as [`crate::matcher`], reusing phase
//! encoding and the 3-dB coupler.

use crate::matcher::MATCH_THRESHOLD;
use ofpc_photonics::coupler::Coupler;
use ofpc_photonics::energy::constants::PHOTONIC_LANE_HZ;
use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::{
    MachZehnderModulator, MzmConfig, PhaseModulator, PhaseModulatorConfig,
};
use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use ofpc_photonics::signal::AnalogWaveform;
use ofpc_photonics::SimRng;

/// One symbol of a ternary pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tern {
    Zero,
    One,
    /// Don't care.
    Wild,
}

/// Symbols per calibration pass.
const CALIBRATION_SYMBOLS: usize = 128;

/// Result of a ternary match.
#[derive(Debug, Clone, Copy)]
pub struct TernaryResult {
    pub matched: bool,
}

/// A photonic ternary matcher (the P2 matcher whose pattern arm gains an
/// intensity gate for wildcards). Symbols pass at [`PHOTONIC_LANE_HZ`],
/// and a rule matches below the P2 matcher's distance threshold.
#[derive(Debug, Clone)]
pub struct TernaryMatcher {
    laser: Laser,
    pm_data: PhaseModulator,
    pm_pattern: PhaseModulator,
    /// Intensity gate on the pattern arm (dark = wildcard).
    gate: MachZehnderModulator,
    coupler: Coupler,
    pd: Photodetector,
    /// Per-mismatch current (calibrated), A.
    unit_current_a: f64,
    /// Per-wildcard offset current, A.
    wild_current_a: f64,
    /// Matched-floor current per symbol, A.
    floor_current_a: f64,
}

impl TernaryMatcher {
    /// A matcher built from ideal (noiseless, lossless) parts and
    /// calibrated.
    pub fn ideal() -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        let mut m = TernaryMatcher {
            laser: Laser::new(LaserConfig::ideal(), rng.derive("tern-laser")),
            pm_data: PhaseModulator::new(PhaseModulatorConfig::ideal()),
            pm_pattern: PhaseModulator::new(PhaseModulatorConfig::ideal()),
            gate: MachZehnderModulator::new(MzmConfig::ideal()),
            coupler: Coupler::three_db(),
            pd: Photodetector::new(PhotodetectorConfig::ideal(), rng.derive("tern-pd")),
            unit_current_a: 0.0,
            wild_current_a: 0.0,
            floor_current_a: 0.0,
        };
        m.calibrate();
        m
    }

    /// Calibrate the three per-symbol currents: matched floor, mismatch
    /// unit, and wildcard offset.
    fn calibrate(&mut self) {
        let n = CALIBRATION_SYMBOLS;
        let zeros = vec![false; n];
        let ones = vec![true; n];
        let p_zero = vec![Tern::Zero; n];
        let p_wild = vec![Tern::Wild; n];
        let all_match = self.raw_pass(&zeros, &p_zero);
        let all_mismatch = self.raw_pass(&ones, &p_zero);
        let all_wild = self.raw_pass(&zeros, &p_wild);
        let floor = all_match / n as f64;
        let unit = (all_mismatch - all_match) / n as f64;
        assert!(unit > 0.0, "calibration failed: no mismatch contrast");
        self.unit_current_a = unit;
        self.floor_current_a = floor;
        self.wild_current_a = all_wild / n as f64;
    }

    fn raw_pass(&mut self, data: &[bool], pattern: &[Tern]) -> f64 {
        assert_eq!(
            data.len(),
            pattern.len(),
            "data and pattern must match in length"
        );
        assert!(!data.is_empty(), "cannot match empty blocks");
        let n = data.len();
        let light = self.laser.emit(n, PHOTONIC_LANE_HZ);
        let (arm_data, arm_pattern) = self.coupler.split(&light);
        let d_data = AnalogWaveform::new(
            data.iter()
                .map(|&b| {
                    self.pm_data
                        .drive_for_phase(if b { std::f64::consts::PI } else { 0.0 })
                })
                .collect(),
            PHOTONIC_LANE_HZ,
        );
        let d_pattern = AnalogWaveform::new(
            pattern
                .iter()
                .map(|&t| {
                    self.pm_pattern.drive_for_phase(match t {
                        Tern::One => std::f64::consts::PI,
                        _ => 0.0,
                    })
                })
                .collect(),
            PHOTONIC_LANE_HZ,
        );
        // Wildcards gate the pattern arm dark.
        let d_gate = AnalogWaveform::new(
            pattern
                .iter()
                .map(|&t| {
                    self.gate
                        .drive_for_transmission(if t == Tern::Wild { 0.0 } else { 1.0 })
                })
                .collect(),
            PHOTONIC_LANE_HZ,
        );
        let enc_data = self.pm_data.modulate(&arm_data, &d_data);
        let gated = self.gate.modulate(&arm_pattern, &d_gate);
        let mut enc_pattern = self.pm_pattern.modulate(&gated, &d_pattern);
        enc_pattern.rotate_phase(-std::f64::consts::PI);
        let (_sum, diff) = self.coupler.combine(&enc_data, &enc_pattern);
        let current = self.pd.detect(&diff);
        current.samples.iter().sum()
    }

    /// Match data bits against a ternary pattern.
    pub fn match_block(&mut self, data: &[bool], pattern: &[Tern]) -> TernaryResult {
        let unit = self.unit_current_a;
        let wilds = pattern.iter().filter(|&&t| t == Tern::Wild).count();
        let cared = data.len() - wilds;
        let charge = self.raw_pass(data, pattern);
        // Subtract the known wildcard offset and the matched floor over
        // the cared positions.
        let corrected =
            charge - wilds as f64 * self.wild_current_a - cared as f64 * self.floor_current_a;
        let est = (corrected / unit).max(0.0);
        TernaryResult {
            matched: est < MATCH_THRESHOLD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    /// `'1'`, `'0'`, and `'*'` (don't care) per symbol.
    fn pattern(s: &str) -> Vec<Tern> {
        s.chars()
            .map(|c| match c {
                '0' => Tern::Zero,
                '1' => Tern::One,
                _ => Tern::Wild,
            })
            .collect()
    }

    #[test]
    fn exact_pattern_matches() {
        let mut m = TernaryMatcher::ideal();
        let data = bits("10110010");
        let pattern = pattern("10110010");
        let r = m.match_block(&data, &pattern);
        assert!(r.matched);
    }

    #[test]
    fn wildcards_ignore_disagreement() {
        let mut m = TernaryMatcher::ideal();
        // Pattern cares only about the first 4 bits.
        let pattern = pattern("1011****");
        assert!(m.match_block(&bits("10110000"), &pattern).matched);
        assert!(m.match_block(&bits("10111111"), &pattern).matched);
        assert!(!m.match_block(&bits("00110000"), &pattern).matched);
    }

    #[test]
    fn all_wild_pattern_matches_anything() {
        let mut m = TernaryMatcher::ideal();
        let pattern = pattern("********");
        assert!(m.match_block(&bits("10110010"), &pattern).matched);
        assert!(m.match_block(&bits("01001101"), &pattern).matched);
    }

    #[test]
    fn prefix_match_models_ip_lpm() {
        // A /4 prefix rule on an 8-bit address space — exactly the IP
        // routing use-case shape from Table 1.
        let mut m = TernaryMatcher::ideal();
        let rule_1010 = pattern("1010****");
        assert!(m.match_block(&bits("10101111"), &rule_1010).matched);
        assert!(m.match_block(&bits("10100000"), &rule_1010).matched);
        assert!(!m.match_block(&bits("10111111"), &rule_1010).matched);
    }
}
