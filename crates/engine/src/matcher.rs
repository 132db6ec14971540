//! P2 — photonic pattern matching (Fig. 2b).
//!
//! Data bits and pattern bits are BPSK-encoded (phases 0/π) on two phase
//! modulators feeding a 3-dB coupler. A static −π/2 bias on the pattern
//! arm cancels the coupler's intrinsic quadrature, so at the difference
//! port the fields are `(E_data − E_pattern)/√2`: a **matched** symbol
//! interferes destructively (no light), a **mismatched** symbol
//! constructively (2P). The photodetector's integrated power over the
//! block is therefore proportional to the *Hamming distance* between data
//! and pattern — an all-optical correlator in the spirit of the tunable
//! optical correlators the paper cites (Alishahi et al., Ziyadi et al.).
//!
//! A calibration pass (all-match / all-mismatch blocks) measures the
//! per-mismatch photocurrent so the digital threshold logic can convert
//! integrated charge to a distance estimate.

use ofpc_photonics::coupler::Coupler;
use ofpc_photonics::energy::constants::PHOTONIC_LANE_HZ;
use ofpc_photonics::energy::EnergyLedger;
use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::{PhaseModulator, PhaseModulatorConfig};
use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use ofpc_photonics::signal::AnalogWaveform;
use ofpc_photonics::SimRng;

/// Decision threshold as a fraction of one mismatch's charge: a block
/// whose distance estimate is below this matches ("less than half a bit
/// of disagreement").
pub(crate) const MATCH_THRESHOLD: f64 = 0.5;

/// Configuration of a P2 pattern-matching unit. Symbols pass at
/// [`PHOTONIC_LANE_HZ`].
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    pub(crate) laser: LaserConfig,
    pub(crate) pm_data: PhaseModulatorConfig,
    pub(crate) pm_pattern: PhaseModulatorConfig,
    pub(crate) pd: PhotodetectorConfig,
}

impl MatcherConfig {
    pub fn ideal() -> Self {
        MatcherConfig {
            laser: LaserConfig::ideal(),
            pm_data: PhaseModulatorConfig::ideal(),
            pm_pattern: PhaseModulatorConfig::ideal(),
            pd: PhotodetectorConfig::ideal(),
        }
    }

    pub fn realistic() -> Self {
        MatcherConfig {
            laser: LaserConfig::default(),
            pm_data: PhaseModulatorConfig::default(),
            pm_pattern: PhaseModulatorConfig::default(),
            pd: PhotodetectorConfig::default(),
        }
    }
}

/// Result of one pattern-match operation.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct MatchResult {
    /// Analog estimate of the Hamming distance (may be fractional).
    pub distance_estimate: f64,
    /// Rounded integer Hamming distance.
    pub hamming: u64,
    /// Whether the distance estimate fell below half a bit.
    pub matched: bool,
}

/// A P2 photonic pattern matcher.
#[derive(Debug, Clone)]
pub struct PatternMatcher {
    laser: Laser,
    pm_data: PhaseModulator,
    pm_pattern: PhaseModulator,
    coupler: Coupler,
    pd: Photodetector,
    /// Photocurrent per mismatched symbol (from calibration), A.
    unit_current_a: Option<f64>,
    /// Dark/matched-floor current per symbol, A.
    floor_current_a: f64,
    /// Symbols matched so far.
    pub(crate) symbols_matched: u64,
}

impl PatternMatcher {
    pub fn new(config: MatcherConfig, rng: &mut SimRng) -> Self {
        PatternMatcher {
            laser: Laser::new(config.laser.clone(), rng.derive("p2-laser")),
            pm_data: PhaseModulator::new(config.pm_data.clone()),
            pm_pattern: PhaseModulator::new(config.pm_pattern.clone()),
            coupler: Coupler::three_db(),
            pd: Photodetector::new(config.pd.clone(), rng.derive("p2-pd")),
            unit_current_a: None,
            floor_current_a: 0.0,
            symbols_matched: 0,
        }
    }

    /// Ideal matcher with a fixed seed, pre-calibrated.
    pub fn ideal() -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        let mut m = PatternMatcher::new(MatcherConfig::ideal(), &mut rng);
        m.calibrate(64);
        m
    }

    /// Measure the per-mismatch photocurrent with all-match and
    /// all-mismatch test blocks.
    pub fn calibrate(&mut self, n: usize) {
        assert!(n > 0, "calibration needs at least one symbol");
        let zeros = vec![false; n];
        let ones = vec![true; n];
        let all_match = self.raw_pass(&zeros, &zeros);
        let all_mismatch = self.raw_pass(&ones, &zeros);
        let floor = all_match / n as f64;
        let unit = (all_mismatch - all_match) / n as f64;
        assert!(unit > 0.0, "calibration failed: no mismatch contrast");
        self.unit_current_a = Some(unit);
        self.floor_current_a = floor;
        self.symbols_matched = self.symbols_matched.saturating_sub(2 * n as u64);
    }

    /// One physical pass: phase-encode, interfere, detect, integrate.
    /// Returns summed photocurrent at the difference port.
    fn raw_pass(&mut self, data: &[bool], pattern: &[bool]) -> f64 {
        assert_eq!(
            data.len(),
            pattern.len(),
            "data and pattern must match in length"
        );
        assert!(!data.is_empty(), "cannot match empty blocks");
        let n = data.len();
        let light = self.laser.emit(n, PHOTONIC_LANE_HZ);
        let (arm_data, arm_pattern) = self.coupler.split(&light);
        let phase_wave = |bits: &[bool], pm: &PhaseModulator| {
            AnalogWaveform::new(
                bits.iter()
                    .map(|&b| pm.drive_for_phase(if b { std::f64::consts::PI } else { 0.0 }))
                    .collect(),
                PHOTONIC_LANE_HZ,
            )
        };
        let d_data = phase_wave(data, &self.pm_data);
        let d_pattern = phase_wave(pattern, &self.pm_pattern);
        let enc_data = self.pm_data.modulate(&arm_data, &d_data);
        let mut enc_pattern = self.pm_pattern.modulate(&arm_pattern, &d_pattern);
        // Static bias aligning the coupler so the difference port nulls on
        // matched symbols (see module docs). The extra π accounts for the
        // π/2 picked up in the splitter path.
        enc_pattern.rotate_phase(-std::f64::consts::PI);
        let (_sum_port, diff_port) = self.coupler.combine(&enc_data, &enc_pattern);
        let current = self.pd.detect(&diff_port);
        self.symbols_matched += n as u64;
        current.samples.iter().sum()
    }

    /// Estimate the Hamming distance between `data` and `pattern` and
    /// apply the match threshold. Requires prior calibration.
    pub fn match_block(&mut self, data: &[bool], pattern: &[bool]) -> MatchResult {
        let n = data.len();
        let unit = self
            .unit_current_a
            .expect("PatternMatcher must be calibrated before use; call calibrate()");
        let charge = self.raw_pass(data, pattern);
        let est = ((charge - n as f64 * self.floor_current_a) / unit).max(0.0);
        MatchResult {
            distance_estimate: est,
            hamming: est.round().max(0.0) as u64,
            matched: est < MATCH_THRESHOLD,
        }
    }

    /// Latency of matching an n-symbol block, seconds.
    pub(crate) fn latency_s(&self, n: usize) -> f64 {
        n as f64 / PHOTONIC_LANE_HZ + 1e-9
    }

    /// Energy spent so far.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        let secs = self.symbols_matched as f64 / PHOTONIC_LANE_HZ;
        ledger.add("laser", self.laser.config.wall_plug_w * secs);
        ledger.add("pm-data", self.pm_data.energy_consumed_j());
        ledger.add("pm-pattern", self.pm_pattern.energy_consumed_j());
        ledger.add("photodetector", self.pd.energy_consumed_j());
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn exact_match_has_zero_distance() {
        let mut m = PatternMatcher::ideal();
        let d = bits("10110010");
        let r = m.match_block(&d, &d);
        assert_eq!(r.hamming, 0);
        assert!(r.matched);
        assert!(r.distance_estimate < 0.01);
    }

    #[test]
    fn hamming_distance_is_recovered_exactly() {
        let mut m = PatternMatcher::ideal();
        let data = bits("1011001110100101");
        let pattern = bits("1011001010100001");
        let true_distance = data.iter().zip(&pattern).filter(|(a, b)| a != b).count() as u64;
        let r = m.match_block(&data, &pattern);
        assert_eq!(r.hamming, true_distance);
        assert!(!r.matched);
    }

    #[test]
    fn all_mismatch_distance_is_n() {
        let mut m = PatternMatcher::ideal();
        let data = vec![true; 32];
        let pattern = vec![false; 32];
        let r = m.match_block(&data, &pattern);
        assert_eq!(r.hamming, 32);
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let mut m = PatternMatcher::ideal();
        let data = bits("11110000111100001111000011110000");
        let mut flipped = data.clone();
        flipped[17] = !flipped[17];
        let r = m.match_block(&data, &flipped);
        assert_eq!(r.hamming, 1);
        assert!(!r.matched);
    }

    #[test]
    fn noisy_matcher_still_discriminates() {
        let mut rng = SimRng::seed_from_u64(10);
        let mut m = PatternMatcher::new(MatcherConfig::realistic(), &mut rng);
        m.calibrate(256);
        let pattern = bits("11001010111100001100101011110000");
        // Matching data: estimate near 0. One flip: estimate near 1.
        let r_match = m.match_block(&pattern, &pattern);
        assert!(r_match.matched, "estimate {}", r_match.distance_estimate);
        let mut one_off = pattern.clone();
        one_off[5] = !one_off[5];
        let r_miss = m.match_block(&one_off, &pattern);
        assert!(!r_miss.matched, "estimate {}", r_miss.distance_estimate);
        assert_eq!(r_miss.hamming, 1);
    }

    #[test]
    #[should_panic(expected = "calibrated")]
    fn uncalibrated_matcher_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut m = PatternMatcher::new(MatcherConfig::ideal(), &mut rng);
        m.match_block(&[true], &[true]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_panic() {
        let mut m = PatternMatcher::ideal();
        m.match_block(&[true, false], &[true]);
    }

    #[test]
    fn energy_is_accounted() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut m = PatternMatcher::new(MatcherConfig::realistic(), &mut rng);
        m.calibrate(64);
        m.match_block(&[true; 64], &[false; 64]);
        let ledger = m.energy_ledger();
        assert!(ledger.total_j() > 0.0);
        assert!(ledger.get("pm-data") > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut rng = SimRng::seed_from_u64(2);
            let mut m = PatternMatcher::new(MatcherConfig::realistic(), &mut rng);
            m.calibrate(64);
            m.match_block(&bits("10101010"), &bits("10100010"))
                .distance_estimate
        };
        assert_eq!(run(), run());
    }
}
