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
#[derive(Debug, Clone, Copy)]
pub struct DotCalibration {
    /// Photocurrent per unit product per symbol, A.
    pub unit_current_a: f64,
    /// Dark photocurrent per symbol, A.
    pub dark_current_a: f64,
}
