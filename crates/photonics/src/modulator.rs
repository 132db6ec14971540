//! Optical modulators.
//!
//! Two device types drive all three of the paper's computing primitives
//! (Fig. 2a–c):
//!
//! * [`MachZehnderModulator`] — intensity modulator with the standard
//!   raised-cosine power transfer `T(v) = sin²(π v / (2 Vπ))`, biased
//!   at its null (dark at zero drive: the best contrast for amplitude
//!   encoding of non-negative values).
//!   Two MZMs back-to-back implement the element-wise product of P1.
//! * [`PhaseModulator`] — pure phase encoder `E → E·e^{i π v / Vπ}`,
//!   used by the P2 pattern matcher's interference scheme.
//!
//! Both models include insertion loss (and the MZM a finite extinction
//! ratio), configurable so tests can switch the imperfections off and
//! verify the ideal math first. Drives pass unfiltered: every modulator's
//! electro-optic bandwidth is above Nyquist at the one lane rate
//! (DESIGN.md §12).

use crate::signal::{AnalogWaveform, OpticalField};
use crate::units;

/// Half-wave voltage Vπ of every MZM, volts (typical silicon MZM: 2–6 V).
pub(crate) const MZM_V_PI: f64 = 3.0;

/// Voltage for a π phase shift in every phase modulator, volts.
const PM_V_PI: f64 = 3.0;

/// Configuration of a Mach-Zehnder intensity modulator. Every MZM has a
/// half-wave voltage of 3 V and is biased at its null.
#[derive(Debug, Clone)]
pub struct MzmConfig {
    /// Insertion loss in dB (typical 3–5 dB).
    pub insertion_loss_db: f64,
    /// Extinction ratio in dB (finite leakage at the null; typical 20–30).
    pub extinction_ratio_db: f64,
    /// Drive energy per symbol transition, joules (for energy accounting;
    /// on the order of tens of fJ for integrated silicon MZMs).
    pub drive_energy_j: f64,
}

impl MzmConfig {
    /// An ideal, lossless MZM — calibration reference.
    pub fn ideal() -> Self {
        MzmConfig {
            insertion_loss_db: 0.0,
            extinction_ratio_db: f64::INFINITY,
            drive_energy_j: 0.0,
        }
    }
}

impl Default for MzmConfig {
    fn default() -> Self {
        MzmConfig {
            insertion_loss_db: 3.5,
            extinction_ratio_db: 25.0,
            drive_energy_j: 50e-15,
        }
    }
}

/// Mach-Zehnder intensity modulator.
#[derive(Debug, Clone)]
pub struct MachZehnderModulator {
    pub(crate) config: MzmConfig,
    /// Symbols modulated so far (drives energy accounting).
    pub symbols_modulated: u64,
}

impl MachZehnderModulator {
    pub fn new(config: MzmConfig) -> Self {
        MachZehnderModulator {
            config,
            symbols_modulated: 0,
        }
    }

    /// Amplitude transmission for drive voltage `v`:
    /// `t(v) = sin(π v / (2 Vπ))`, floored by the extinction
    /// ratio and scaled by insertion loss. Power transmission is `t²`.
    pub fn amplitude_transmission(&self, v: f64) -> f64 {
        let theta = std::f64::consts::PI * v / (2.0 * MZM_V_PI);
        let t = theta.sin();
        let floor = if self.config.extinction_ratio_db.is_finite() {
            units::db_to_linear(-self.config.extinction_ratio_db).sqrt()
        } else {
            0.0
        };
        // Keep the sign of the ideal transmission but floor the magnitude
        // at the extinction-ratio leakage level.
        let sign = if t < 0.0 { -1.0 } else { 1.0 };
        let t = sign * t.abs().max(floor);
        let il = units::db_to_linear(-self.config.insertion_loss_db).sqrt();
        t * il
    }

    /// Power transmission `T(v) = t(v)²`.
    pub fn power_transmission(&self, v: f64) -> f64 {
        let t = self.amplitude_transmission(v);
        t * t
    }

    /// The drive voltage that produces (ideal, lossless) power
    /// transmission `target` in `[0, 1]` at the null bias. Used by
    /// calibration to encode a known value onto the light.
    pub fn drive_for_transmission(&self, target: f64) -> f64 {
        let target = target.clamp(0.0, 1.0);
        let theta = target.sqrt().asin();
        theta * 2.0 * MZM_V_PI / std::f64::consts::PI
    }

    /// Fused encode→transmit amplitude transfer: the amplitude
    /// transmission this modulator produces when driven with
    /// [`MachZehnderModulator::drive_for_transmission`]`(target)`. The
    /// round trip goes through
    /// `θ = asin(√target) ∈ [0, π/2]`, so this collapses to
    /// `max(√target, floor)·il` — one `sqrt`
    /// instead of an `asin`/`sin` pair, equal to the scalar round trip
    /// within ~1 ulp.
    pub fn fused_amplitude_transmission(&self, target: f64) -> f64 {
        let (floor, il) = self.fused_amplitude_constants();
        target.clamp(0.0, 1.0).sqrt().max(floor) * il
    }

    /// The `(floor, il)` pair of the fused amplitude transfer —
    /// extinction-ratio leakage floor and insertion-loss amplitude
    /// scale — hoisted out for block loops: the fused amplitude
    /// transmission of `target` is `max(√target, floor)·il`. Both
    /// values cost a `powf` to derive, which block kernels must not
    /// pay per sample.
    pub fn fused_amplitude_constants(&self) -> (f64, f64) {
        let floor = if self.config.extinction_ratio_db.is_finite() {
            units::db_to_linear(-self.config.extinction_ratio_db).sqrt()
        } else {
            0.0
        };
        let il = units::db_to_linear(-self.config.insertion_loss_db).sqrt();
        (floor, il)
    }

    /// Fused encode→transmit *power* transfer (the square of
    /// [`MachZehnderModulator::fused_amplitude_transmission`]).
    pub fn fused_power_transmission(&self, target: f64) -> f64 {
        let t = self.fused_amplitude_transmission(target);
        t * t
    }

    /// Modulate `input` with the drive waveform; sample `i` of the output
    /// is the input field scaled by `t(drive[i])`.
    ///
    /// `drive.len()` must equal `input.len()`.
    pub fn modulate(&mut self, input: &OpticalField, drive: &AnalogWaveform) -> OpticalField {
        let out = self.transfer(input, drive);
        self.symbols_modulated += input.len() as u64;
        out
    }

    /// [`MachZehnderModulator::modulate`] without the symbol accounting,
    /// for callers that book the symbols themselves.
    pub fn transfer(&self, input: &OpticalField, drive: &AnalogWaveform) -> OpticalField {
        assert_eq!(
            input.len(),
            drive.len(),
            "drive waveform length must match optical block"
        );
        let mut out = input.clone();
        for (s, &v) in out.samples.iter_mut().zip(drive.samples.iter()) {
            *s = s.scale(self.amplitude_transmission(v));
        }
        out
    }

    /// Total drive energy consumed so far, joules.
    pub fn energy_consumed_j(&self) -> f64 {
        self.symbols_modulated as f64 * self.config.drive_energy_j
    }
}

/// Configuration of a phase modulator. Every phase modulator shifts
/// by π at 3 V.
#[derive(Debug, Clone)]
pub struct PhaseModulatorConfig {
    /// Insertion loss in dB.
    pub insertion_loss_db: f64,
    /// Drive energy per symbol, joules.
    pub drive_energy_j: f64,
}

impl PhaseModulatorConfig {
    pub fn ideal() -> Self {
        PhaseModulatorConfig {
            insertion_loss_db: 0.0,
            drive_energy_j: 0.0,
        }
    }
}

impl Default for PhaseModulatorConfig {
    fn default() -> Self {
        PhaseModulatorConfig {
            insertion_loss_db: 2.0,
            drive_energy_j: 30e-15,
        }
    }
}

/// Pure phase modulator: `E → E · e^{i π v / Vπ}` per sample.
#[derive(Debug, Clone)]
pub struct PhaseModulator {
    pub(crate) config: PhaseModulatorConfig,
    pub(crate) symbols_modulated: u64,
}

impl PhaseModulator {
    pub fn new(config: PhaseModulatorConfig) -> Self {
        PhaseModulator {
            config,
            symbols_modulated: 0,
        }
    }

    /// Phase shift for drive voltage `v`, radians.
    #[inline]
    pub(crate) fn phase_for(&self, v: f64) -> f64 {
        std::f64::consts::PI * v / PM_V_PI
    }

    /// Drive voltage for a desired phase shift.
    #[inline]
    pub fn drive_for_phase(&self, phase: f64) -> f64 {
        phase * PM_V_PI / std::f64::consts::PI
    }

    /// Apply per-sample phase modulation.
    pub fn modulate(&mut self, input: &OpticalField, drive: &AnalogWaveform) -> OpticalField {
        assert_eq!(
            input.len(),
            drive.len(),
            "drive waveform length must match optical block"
        );
        let il = units::db_to_linear(-self.config.insertion_loss_db).sqrt();
        let mut out = input.clone();
        for (s, &v) in out.samples.iter_mut().zip(drive.samples.iter()) {
            *s = s.rotate(self.phase_for(v)).scale(il);
        }
        self.symbols_modulated += input.len() as u64;
        out
    }

    pub fn energy_consumed_j(&self) -> f64 {
        self.symbols_modulated as f64 * self.config.drive_energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::OpticalField;

    const RATE: f64 = 10e9;

    fn cw(n: usize) -> OpticalField {
        OpticalField::cw(n, 1e-3, RATE)
    }

    #[test]
    fn ideal_mzm_null_bias_extremes() {
        let m = MachZehnderModulator::new(MzmConfig::ideal());
        // v = 0 → dark; v = Vπ → full transmission (sin(π/2) = 1).
        assert!(m.power_transmission(0.0) < 1e-20);
        assert!((m.power_transmission(3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drive_for_transmission_inverts_transfer() {
        let mut m = MachZehnderModulator::new(MzmConfig::ideal());
        for target in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
            let v = m.drive_for_transmission(target);
            let input = cw(1);
            let drive = AnalogWaveform::new(vec![v], RATE);
            let out = m.modulate(&input, &drive);
            let got = out.power_at(0) / input.power_at(0);
            assert!((got - target).abs() < 1e-9, "target {target} got {got}");
        }
    }

    #[test]
    fn two_mzms_back_to_back_multiply() {
        // This is the P1 primitive's core algebra (Fig. 2a): power
        // transmissions multiply, so encoding a then b yields a·b.
        let mut m1 = MachZehnderModulator::new(MzmConfig::ideal());
        let mut m2 = MachZehnderModulator::new(MzmConfig::ideal());
        let (a, b) = (0.6, 0.3);
        let input = cw(1);
        let d1 = AnalogWaveform::new(vec![m1.drive_for_transmission(a)], RATE);
        let d2 = AnalogWaveform::new(vec![m2.drive_for_transmission(b)], RATE);
        let out = m2.modulate(&m1.modulate(&input, &d1), &d2);
        let got = out.power_at(0) / input.power_at(0);
        assert!((got - a * b).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn insertion_loss_reduces_power() {
        let mut m = MachZehnderModulator::new(MzmConfig {
            insertion_loss_db: 3.0103,
            ..MzmConfig::ideal()
        });
        let input = cw(4);
        let drive = AnalogWaveform::new(vec![m.drive_for_transmission(1.0); 4], RATE);
        let out = m.modulate(&input, &drive);
        assert!((out.mean_power_w() / input.mean_power_w() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn finite_extinction_ratio_leaks_at_null() {
        let m = MachZehnderModulator::new(MzmConfig {
            extinction_ratio_db: 20.0,
            ..MzmConfig::ideal()
        });
        let t = m.power_transmission(0.0);
        assert!((t - 0.01).abs() < 1e-6, "leakage {t}");
    }

    #[test]
    fn mzm_energy_accounting() {
        let mut m = MachZehnderModulator::new(MzmConfig {
            drive_energy_j: 50e-15,
            ..MzmConfig::ideal()
        });
        let input = cw(100);
        let drive = AnalogWaveform::zeros(100, RATE);
        m.modulate(&input, &drive);
        assert!((m.energy_consumed_j() - 100.0 * 50e-15).abs() < 1e-24);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mzm_rejects_mismatched_lengths() {
        let mut m = MachZehnderModulator::new(MzmConfig::ideal());
        let input = cw(4);
        let drive = AnalogWaveform::zeros(3, RATE);
        m.modulate(&input, &drive);
    }

    #[test]
    fn phase_modulator_encodes_phase_not_power() {
        let mut pm = PhaseModulator::new(PhaseModulatorConfig::ideal());
        let input = cw(1);
        let drive = AnalogWaveform::new(vec![pm.drive_for_phase(1.1)], RATE);
        let out = pm.modulate(&input, &drive);
        assert!((out.samples[0].arg() - 1.1).abs() < 1e-12);
        assert!((out.power_at(0) - input.power_at(0)).abs() < 1e-18);
    }

    #[test]
    fn phase_modulator_pi_inverts_field() {
        let mut pm = PhaseModulator::new(PhaseModulatorConfig::ideal());
        let input = cw(1);
        let drive = AnalogWaveform::new(vec![pm.drive_for_phase(std::f64::consts::PI)], RATE);
        let out = pm.modulate(&input, &drive);
        // e^{iπ} = −1: destructive with the original.
        let sum = out.samples[0] + input.samples[0];
        assert!(sum.norm_sqr() < 1e-18);
    }

    #[test]
    fn fused_transfer_matches_scalar_round_trip() {
        // Lossy and lossless, finite and infinite ER: encode→transmit
        // through the scalar pair must equal the fused one-sqrt path up
        // to the scalar path's own rounding. The scalar round trip
        // carries the operating point through asin/sin, so its angle is
        // off by a few ulps *absolutely*; in power that is an error of
        // order EPS·√t + EPS², not EPS·t — the bound below mirrors that.
        for (il, er) in [(0.0, f64::INFINITY), (3.5, 25.0), (1.0, 20.0)] {
            let m = MachZehnderModulator::new(MzmConfig {
                insertion_loss_db: il,
                extinction_ratio_db: er,
                ..MzmConfig::ideal()
            });
            for target in [0.0, 1e-300, 1e-6, 0.001, 0.25, 0.5, 0.999, 1.0, 1.5, -0.3] {
                let scalar = {
                    let t = m.amplitude_transmission(m.drive_for_transmission(target));
                    t * t
                };
                let fused = m.fused_power_transmission(target);
                let err = (scalar - fused).abs();
                let tol = 4.0 * f64::EPSILON * scalar
                    + 8.0 * f64::EPSILON * scalar.sqrt()
                    + 32.0 * f64::EPSILON * f64::EPSILON;
                assert!(
                    err <= tol,
                    "il {il} er {er} target {target}: scalar {scalar} fused {fused}"
                );
            }
        }
    }
}
