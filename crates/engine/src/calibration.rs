//! Calibration of analog compute units.
//!
//! The paper's §4 names "new algorithms to mitigate photonic noise during
//! computation and achieve high accuracy" as a required system component.
//! The first such algorithm is plain gain/offset calibration: analog
//! results come off the photodetector scaled by every insertion loss in
//! the chain and offset by dark current; measuring those two constants
//! with known test vectors removes the systematic error, leaving only the
//! stochastic noise floor. Experiment E10 ablates calibration to show the
//! accuracy collapse.

/// Gain/offset calibration of a P1 dot-product chain: the measured
/// photocurrent for a unit product, and the dark (zero-input) current.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DotCalibration {
    /// Photocurrent per unit product per symbol, A.
    pub unit_current_a: f64,
    /// Dark photocurrent per symbol, A.
    pub dark_current_a: f64,
}

impl DotCalibration {
    /// Map a summed photocurrent over `n` symbols back to `Σ aᵢbᵢ`.
    pub fn apply(&self, summed_current_a: f64, n: usize) -> f64 {
        (summed_current_a - n as f64 * self.dark_current_a) / self.unit_current_a
    }
}

/// Running drift tracker: photonic chains drift with temperature; a
/// production engine re-calibrates when the drift estimate exceeds a
/// threshold. The tracker holds an exponentially weighted estimate of the
/// ratio between fresh unit-current measurements and the stored
/// calibration.
#[derive(Debug, Clone)]
pub struct DriftTracker {
    /// EWMA of measured/calibrated unit-current ratio.
    ratio: f64,
    /// EWMA weight for new observations.
    alpha: f64,
    /// Re-calibration threshold on `|ratio − 1|`.
    threshold: f64,
    observations: u64,
}

impl DriftTracker {
    pub fn new(alpha: f64, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert!(threshold > 0.0, "threshold must be positive");
        DriftTracker {
            ratio: 1.0,
            alpha,
            threshold,
            observations: 0,
        }
    }

    /// Record a fresh measurement of the unit current against the stored
    /// calibration value.
    pub fn observe(&mut self, measured_unit_a: f64, calibrated_unit_a: f64) {
        if calibrated_unit_a <= 0.0 {
            return;
        }
        let r = measured_unit_a / calibrated_unit_a;
        self.ratio += self.alpha * (r - self.ratio);
        self.observations += 1;
    }

    /// Current drift estimate, as a fraction (0 = no drift).
    pub fn drift(&self) -> f64 {
        (self.ratio - 1.0).abs()
    }

    /// Whether the engine should re-calibrate.
    pub fn needs_recalibration(&self) -> bool {
        self.observations > 0 && self.drift() > self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_inverts_gain_and_offset() {
        let cal = DotCalibration {
            unit_current_a: 2e-3,
            dark_current_a: 1e-6,
        };
        // 10 symbols, true sum 3.5: current = 3.5*2e-3 + 10*1e-6.
        let current = 3.5 * 2e-3 + 10.0 * 1e-6;
        let got = cal.apply(current, 10);
        assert!((got - 3.5).abs() < 1e-12);
    }

    #[test]
    fn drift_tracker_flags_sustained_drift() {
        let mut t = DriftTracker::new(0.5, 0.05);
        assert!(!t.needs_recalibration());
        for _ in 0..20 {
            t.observe(0.9, 1.0); // 10% gain sag
        }
        assert!(t.drift() > 0.05);
        assert!(t.needs_recalibration());
    }

    #[test]
    fn drift_tracker_tolerates_jitter_around_unity() {
        let mut t = DriftTracker::new(0.1, 0.05);
        for i in 0..50 {
            let r = if i % 2 == 0 { 1.01 } else { 0.99 };
            t.observe(r, 1.0);
        }
        assert!(!t.needs_recalibration(), "drift {}", t.drift());
    }

    #[test]
    fn drift_tracker_ignores_bad_reference() {
        let mut t = DriftTracker::new(0.5, 0.05);
        t.observe(1.0, 0.0); // nonsense reference must not poison the EWMA
        assert_eq!(t.drift(), 0.0);
        assert!(!t.needs_recalibration());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        DriftTracker::new(1.5, 0.05);
    }
}
