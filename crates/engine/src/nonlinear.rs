//! P3 — photonic nonlinear function (Fig. 2c).
//!
//! The electro-optic activation of Bandyopadhyay et al.: a tap coupler
//! siphons a fraction of the incoming light onto a photodetector; the
//! resulting photovoltage drives an MZM that gates the *remaining* copy of
//! the light. With the gate biased near its null, weak inputs stay blocked
//! and strong inputs open the gate — a smooth ReLU-like transfer entirely
//! in the analog domain. The bias and tap ratio select the knee position
//! and sharpness.
//!
//! The unit operates on *power-encoded values*: input `x ∈ [0, 1]` is an
//! optical power fraction, output `y = f(x)` likewise.

use ofpc_photonics::coupler::Coupler;
use ofpc_photonics::energy::EnergyLedger;
use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::{MachZehnderModulator, MzmConfig};
use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use ofpc_photonics::signal::AnalogWaveform;
use ofpc_photonics::SimRng;

/// Configuration of a P3 nonlinear unit.
#[derive(Debug, Clone)]
pub struct NonlinearConfig {
    pub laser: LaserConfig,
    /// Input-encoding modulator (maps the digital test value to power;
    /// in-line deployments receive the power directly).
    pub encoder: MzmConfig,
    /// The gate MZM driven by the tap photovoltage.
    pub gate: MzmConfig,
    pub tap_pd: PhotodetectorConfig,
    pub out_pd: PhotodetectorConfig,
    /// Fraction of input power tapped for the feed-forward detector.
    pub tap_ratio: f64,
    /// Transimpedance gain converting tap photocurrent to gate drive
    /// voltage, V/A. Sets the activation sharpness.
    pub tia_gain_v_a: f64,
    /// Gate bias voltage offset (shifts the knee), volts. Negative values
    /// delay turn-on (larger dead zone at small inputs).
    pub gate_bias_v: f64,
    pub sample_rate_hz: f64,
}

impl NonlinearConfig {
    pub fn ideal() -> Self {
        NonlinearConfig {
            laser: LaserConfig {
                rin_db_hz: f64::NEG_INFINITY,
                linewidth_hz: 0.0,
                wall_plug_w: 0.0,
                ..LaserConfig::default()
            },
            encoder: MzmConfig::ideal(),
            gate: MzmConfig::ideal(),
            tap_pd: PhotodetectorConfig::ideal(),
            out_pd: PhotodetectorConfig::ideal(),
            tap_ratio: 0.1,
            // Chosen so the gate approaches full transmission as x → 1.
            tia_gain_v_a: 1.6e3,
            gate_bias_v: -0.45,
            sample_rate_hz: 32e9,
        }
    }
}

/// A P3 electro-optic nonlinear activation unit.
#[derive(Debug, Clone)]
pub struct NonlinearUnit {
    pub config: NonlinearConfig,
    laser: Laser,
    encoder: MachZehnderModulator,
    gate: MachZehnderModulator,
    tap: Coupler,
    tap_pd: Photodetector,
    out_pd: Photodetector,
    /// Output normalization measured by calibration (current for x = 1).
    full_scale_current_a: Option<f64>,
    pub activations: u64,
}

impl NonlinearUnit {
    pub fn new(config: NonlinearConfig, rng: &mut SimRng) -> Self {
        assert!(
            (0.0..1.0).contains(&config.tap_ratio),
            "tap ratio must be in [0,1)"
        );
        NonlinearUnit {
            laser: Laser::new(config.laser.clone(), rng.derive("p3-laser")),
            encoder: MachZehnderModulator::new(config.encoder.clone()),
            gate: MachZehnderModulator::new(config.gate.clone()),
            tap: Coupler::new(config.tap_ratio, 0.0),
            tap_pd: Photodetector::new(config.tap_pd.clone(), rng.derive("p3-tap-pd")),
            out_pd: Photodetector::new(config.out_pd.clone(), rng.derive("p3-out-pd")),
            config,
            full_scale_current_a: None,
            activations: 0,
        }
    }

    pub fn ideal() -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        let mut u = NonlinearUnit::new(NonlinearConfig::ideal(), &mut rng);
        u.calibrate();
        u
    }

    /// Measure the output current at full-scale input for normalization.
    pub fn calibrate(&mut self) {
        let i = self.raw_activate(1.0);
        assert!(i > 0.0, "calibration failed: gate never opens");
        self.full_scale_current_a = Some(i);
        self.activations = self.activations.saturating_sub(1);
    }

    /// One physical activation: encode `x` as power, tap, detect, gate.
    /// Returns the output photocurrent (single integrated symbol).
    fn raw_activate(&mut self, x: f64) -> f64 {
        let light = self.laser.emit(1, self.config.sample_rate_hz);
        let drive = AnalogWaveform::new(
            vec![self.encoder.drive_for_transmission(x.clamp(0.0, 1.0))],
            self.config.sample_rate_hz,
        );
        let encoded = self.encoder.modulate(&light, &drive);
        // Tap coupler: through port keeps (1−κ), coupled port κ.
        let (through, tapped) = self.tap.combine(
            &encoded,
            &ofpc_photonics::signal::OpticalField::dark(
                1,
                self.config.sample_rate_hz,
                encoded.wavelength_m,
            ),
        );
        let tap_current = self.tap_pd.detect(&tapped).samples[0];
        let gate_v = (tap_current * self.config.tia_gain_v_a + self.config.gate_bias_v).max(0.0);
        let gate_drive = AnalogWaveform::new(vec![gate_v], self.config.sample_rate_hz);
        let out = self.gate.modulate(&through, &gate_drive);
        self.activations += 1;
        self.out_pd.detect(&out).samples[0]
    }

    /// Apply the nonlinearity to a value in `[0, 1]`.
    pub fn activate(&mut self, x: f64) -> f64 {
        let fs = self
            .full_scale_current_a
            .expect("NonlinearUnit must be calibrated before use; call calibrate()");
        (self.raw_activate(x) / fs).clamp(0.0, 1.0)
    }

    /// Apply the nonlinearity element-wise.
    pub fn activate_vec(&mut self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.activate(x)).collect()
    }

    /// Sweep the transfer curve over `steps` points — experiment E2c's
    /// figure data.
    pub fn transfer_curve(&mut self, steps: usize) -> Vec<(f64, f64)> {
        assert!(steps >= 2, "a curve needs at least two points");
        (0..steps)
            .map(|i| {
                let x = i as f64 / (steps - 1) as f64;
                (x, self.activate(x))
            })
            .collect()
    }

    /// Latency of one activation, seconds (one symbol + analog loop).
    pub fn latency_s(&self) -> f64 {
        1.0 / self.config.sample_rate_hz + 1e-9
    }

    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        let secs = self.activations as f64 / self.config.sample_rate_hz;
        ledger.add("laser", self.laser.config.wall_plug_w * secs);
        ledger.add("encoder", self.encoder.energy_consumed_j());
        ledger.add("gate", self.gate.energy_consumed_j());
        ledger.add("tap-pd", self.tap_pd.energy_consumed_j());
        ledger.add("out-pd", self.out_pd.energy_consumed_j());
        ledger
    }
}

/// Exact ReLU clipped to `[0, 1]`, shifted by `knee` — the digital
/// reference activation the photonic curve approximates.
pub fn relu_reference(x: f64, knee: f64) -> f64 {
    ((x - knee) / (1.0 - knee).max(f64::MIN_POSITIVE)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_monotric_and_relu_shaped() {
        let mut u = NonlinearUnit::ideal();
        let curve = u.transfer_curve(21);
        // Monotonically non-decreasing.
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "curve not monotone at {:?}", w);
        }
        // Suppressed at the bottom, open at the top.
        assert!(curve[0].1 < 0.05, "f(0) = {}", curve[0].1);
        assert!(curve[2].1 < 0.1, "f(0.1) = {}", curve[2].1);
        let top = curve.last().unwrap().1;
        assert!((top - 1.0).abs() < 1e-6, "f(1) = {top}");
    }

    #[test]
    fn knee_suppresses_small_inputs_nonlinearly() {
        // A linear device would have f(0.2)/f(0.8) = 0.25; the activation
        // must suppress small inputs much harder.
        let mut u = NonlinearUnit::ideal();
        let small = u.activate(0.2);
        let large = u.activate(0.8);
        assert!(small / large < 0.15, "ratio {}", small / large);
    }

    #[test]
    fn activate_vec_matches_scalar() {
        let mut u1 = NonlinearUnit::ideal();
        let mut u2 = NonlinearUnit::ideal();
        let xs = [0.0, 0.3, 0.6, 1.0];
        let v = u1.activate_vec(&xs);
        for (i, &x) in xs.iter().enumerate() {
            assert!((v[i] - u2.activate(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn tracks_relu_reference_roughly() {
        let mut u = NonlinearUnit::ideal();
        // Find the knee empirically, then compare the top half of the
        // curve against the shifted ReLU.
        let curve = u.transfer_curve(41);
        let knee = curve
            .iter()
            .find(|(_, y)| *y > 0.05)
            .map(|(x, _)| *x)
            .unwrap_or(0.0);
        let mut max_err: f64 = 0.0;
        for &(x, y) in curve.iter().filter(|(x, _)| *x > knee + 0.2) {
            max_err = max_err.max((y - relu_reference(x, knee)).abs());
        }
        assert!(max_err < 0.25, "max deviation from ReLU {max_err}");
    }

    #[test]
    fn bias_shifts_the_knee() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut soft_cfg = NonlinearConfig::ideal();
        soft_cfg.gate_bias_v = -0.2;
        let mut hard_cfg = NonlinearConfig::ideal();
        hard_cfg.gate_bias_v = -0.9;
        let mut soft = NonlinearUnit::new(soft_cfg, &mut rng);
        let mut hard = NonlinearUnit::new(hard_cfg, &mut rng);
        soft.calibrate();
        hard.calibrate();
        // The harder bias needs more input before the gate opens.
        assert!(soft.activate(0.3) > hard.activate(0.3));
    }

    #[test]
    #[should_panic(expected = "calibrated")]
    fn uncalibrated_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut u = NonlinearUnit::new(NonlinearConfig::ideal(), &mut rng);
        u.activate(0.5);
    }

    #[test]
    #[should_panic(expected = "tap ratio")]
    fn rejects_full_tap() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut cfg = NonlinearConfig::ideal();
        cfg.tap_ratio = 1.0;
        NonlinearUnit::new(cfg, &mut rng);
    }

    #[test]
    fn energy_and_latency_reported() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut cfg = NonlinearConfig::ideal();
        cfg.laser.wall_plug_w = 1.0;
        let mut u = NonlinearUnit::new(cfg, &mut rng);
        u.calibrate();
        u.activate(0.5);
        assert!(u.energy_ledger().total_j() > 0.0);
        assert!(u.latency_s() > 0.0);
    }
}
