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

/// Configuration of a ternary matcher (superset of the P2 matcher: the
/// pattern arm gains an intensity gate for wildcards). Symbols pass at
/// [`PHOTONIC_LANE_HZ`], and a rule matches below the P2 matcher's
/// distance threshold.
#[derive(Debug, Clone)]
pub struct TernaryConfig {
    pub(crate) laser: LaserConfig,
    pub(crate) pm_data: PhaseModulatorConfig,
    pub(crate) pm_pattern: PhaseModulatorConfig,
    /// Intensity gate on the pattern arm (dark = wildcard).
    pub(crate) gate: MzmConfig,
    pub(crate) pd: PhotodetectorConfig,
}

impl TernaryConfig {
    pub fn ideal() -> Self {
        TernaryConfig {
            laser: LaserConfig {
                rin_db_hz: f64::NEG_INFINITY,
                linewidth_hz: 0.0,
                wall_plug_w: 0.0,
                ..LaserConfig::default()
            },
            pm_data: PhaseModulatorConfig::ideal(),
            pm_pattern: PhaseModulatorConfig::ideal(),
            gate: MzmConfig::ideal(),
            pd: PhotodetectorConfig::ideal(),
        }
    }
}

/// Result of a ternary match.
#[derive(Debug, Clone, Copy)]
pub struct TernaryResult {
    pub matched: bool,
}

/// A photonic ternary matcher.
#[derive(Debug, Clone)]
pub struct TernaryMatcher {
    laser: Laser,
    pm_data: PhaseModulator,
    pm_pattern: PhaseModulator,
    gate: MachZehnderModulator,
    coupler: Coupler,
    pd: Photodetector,
    /// Per-mismatch current (calibrated), A.
    unit_current_a: Option<f64>,
    /// Per-wildcard offset current, A.
    wild_current_a: f64,
    /// Matched-floor current per symbol, A.
    floor_current_a: f64,
    pub symbols_matched: u64,
}

impl TernaryMatcher {
    pub fn new(config: TernaryConfig, rng: &mut SimRng) -> Self {
        TernaryMatcher {
            laser: Laser::new(config.laser.clone(), rng.derive("tern-laser")),
            pm_data: PhaseModulator::new(config.pm_data.clone()),
            pm_pattern: PhaseModulator::new(config.pm_pattern.clone()),
            gate: MachZehnderModulator::new(config.gate.clone()),
            coupler: Coupler::three_db(),
            pd: Photodetector::new(config.pd.clone(), rng.derive("tern-pd")),
            unit_current_a: None,
            wild_current_a: 0.0,
            floor_current_a: 0.0,
            symbols_matched: 0,
        }
    }

    /// Calibrate the three per-symbol currents: matched floor, mismatch
    /// unit, and wildcard offset.
    pub fn calibrate(&mut self, n: usize) {
        assert!(n > 0, "calibration needs at least one symbol");
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
        self.unit_current_a = Some(unit);
        self.floor_current_a = floor;
        self.wild_current_a = all_wild / n as f64;
        self.symbols_matched = self.symbols_matched.saturating_sub(3 * n as u64);
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
        self.symbols_matched += n as u64;
        current.samples.iter().sum()
    }

    /// Match data bits against a ternary pattern.
    pub fn match_block(&mut self, data: &[bool], pattern: &[Tern]) -> TernaryResult {
        let unit = self
            .unit_current_a
            .expect("TernaryMatcher must be calibrated before use; call calibrate()");
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

    fn ideal() -> TernaryMatcher {
        let mut rng = SimRng::seed_from_u64(0);
        let mut m = TernaryMatcher::new(TernaryConfig::ideal(), &mut rng);
        m.calibrate(64);
        m
    }

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
        let mut m = ideal();
        let data = bits("10110010");
        let pattern = pattern("10110010");
        let r = m.match_block(&data, &pattern);
        assert!(r.matched);
    }

    #[test]
    fn wildcards_ignore_disagreement() {
        let mut m = ideal();
        // Pattern cares only about the first 4 bits.
        let pattern = pattern("1011****");
        assert!(m.match_block(&bits("10110000"), &pattern).matched);
        assert!(m.match_block(&bits("10111111"), &pattern).matched);
        assert!(!m.match_block(&bits("00110000"), &pattern).matched);
    }

    #[test]
    fn all_wild_pattern_matches_anything() {
        let mut m = ideal();
        let pattern = pattern("********");
        assert!(m.match_block(&bits("10110010"), &pattern).matched);
        assert!(m.match_block(&bits("01001101"), &pattern).matched);
    }

    #[test]
    fn prefix_match_models_ip_lpm() {
        // A /4 prefix rule on an 8-bit address space — exactly the IP
        // routing use-case shape from Table 1.
        let mut m = ideal();
        let rule_1010 = pattern("1010****");
        assert!(m.match_block(&bits("10101111"), &rule_1010).matched);
        assert!(m.match_block(&bits("10100000"), &rule_1010).matched);
        assert!(!m.match_block(&bits("10111111"), &rule_1010).matched);
    }

    #[test]
    #[should_panic(expected = "calibrated")]
    fn uncalibrated_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut m = TernaryMatcher::new(TernaryConfig::ideal(), &mut rng);
        m.match_block(&[true], &[Tern::One]);
    }
}
