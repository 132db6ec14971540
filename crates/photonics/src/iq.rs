//! IQ modulation and coherent detection.
//!
//! The devices that make a transponder *coherent* (the 100G+ systems the
//! paper's Fig. 3 cites): an [`IqModulator`] — two null-biased
//! Mach-Zehnder children writing the in-phase and quadrature field
//! amplitudes — and a [`CoherentReceiver`] — a 90° optical hybrid mixing
//! the signal with a local oscillator onto two balanced photodetector
//! pairs, recovering both field quadratures (and thus phase, which
//! square-law direct detection discards).

use crate::complex::Complex;
use crate::laser::{Laser, LaserConfig};
use crate::modulator::{MachZehnderModulator, MzmConfig};
use crate::photodetector::{Photodetector, PhotodetectorConfig};
use crate::signal::{AnalogWaveform, OpticalField};
use crate::SimRng;

/// An IQ (nested Mach-Zehnder) modulator.
#[derive(Debug, Clone)]
pub struct IqModulator {
    mzm_i: MachZehnderModulator,
    mzm_q: MachZehnderModulator,
}

impl IqModulator {
    /// Both children share `config`; like every MZM they are
    /// null-biased, which gives the IQ structure the signed amplitude
    /// transmission around zero it needs.
    pub fn new(config: MzmConfig) -> Self {
        IqModulator {
            mzm_i: MachZehnderModulator::new(config.clone()),
            mzm_q: MachZehnderModulator::new(config),
        }
    }

    /// Drive voltage that produces signed amplitude transmission
    /// `a ∈ [-1, 1]` in a null-biased child: `v = (2Vπ/π)·asin(a)`.
    pub fn drive_for_amplitude(&self, a: f64) -> f64 {
        let a = a.clamp(-1.0, 1.0);
        2.0 * crate::modulator::MZM_V_PI / std::f64::consts::PI * a.asin()
    }

    /// Modulate per-sample complex amplitudes `(i, q)` (each in
    /// `[-1, 1]`) onto the carrier: output envelope
    /// `E·(tᵢ + i·t_q)/2` (the 1/2 is the split/combine loss inherent to
    /// the nested structure).
    pub fn modulate(
        &mut self,
        carrier: &OpticalField,
        drive_i: &AnalogWaveform,
        drive_q: &AnalogWaveform,
    ) -> OpticalField {
        assert_eq!(carrier.len(), drive_i.len(), "I drive length mismatch");
        assert_eq!(carrier.len(), drive_q.len(), "Q drive length mismatch");
        let arm_i = self.mzm_i.modulate(carrier, drive_i);
        let arm_q = self.mzm_q.modulate(carrier, drive_q);
        let mut out = carrier.clone();
        for k in 0..out.len() {
            let i = arm_i.samples[k];
            let q = arm_q.samples[k] * Complex::new(0.0, 1.0);
            out.samples[k] = (i + q).scale(0.5);
        }
        out
    }
}

/// Configuration of a coherent receiver front end.
#[derive(Debug, Clone)]
pub struct CoherentRxConfig {
    /// Local-oscillator laser.
    pub(crate) lo: LaserConfig,
    /// The four hybrid photodetectors share this config.
    pub pd: PhotodetectorConfig,
}

impl CoherentRxConfig {
    pub fn ideal() -> Self {
        CoherentRxConfig {
            lo: LaserConfig {
                rin_db_hz: f64::NEG_INFINITY,
                linewidth_hz: 0.0,
                wall_plug_w: 0.0,
                ..LaserConfig::default()
            },
            pd: PhotodetectorConfig::ideal(),
        }
    }
}

/// A phase- and polarization-ideal coherent receiver: 90° hybrid + two
/// balanced pairs. Carrier recovery (the DSP's job in a real
/// transponder) is assumed ideal: the LO is co-phased with the carrier.
#[derive(Debug)]
pub struct CoherentReceiver {
    lo: Laser,
    pd_ip: Photodetector,
    pd_in: Photodetector,
    pd_qp: Photodetector,
    pd_qn: Photodetector,
}

impl CoherentReceiver {
    pub fn new(config: CoherentRxConfig, rng: &mut SimRng) -> Self {
        CoherentReceiver {
            lo: Laser::new(config.lo.clone(), rng.derive("coh-lo")),
            pd_ip: Photodetector::new(config.pd.clone(), rng.derive("coh-pd-ip")),
            pd_in: Photodetector::new(config.pd.clone(), rng.derive("coh-pd-in")),
            pd_qp: Photodetector::new(config.pd.clone(), rng.derive("coh-pd-qp")),
            pd_qn: Photodetector::new(config.pd.clone(), rng.derive("coh-pd-qn")),
        }
    }

    pub fn ideal() -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        CoherentReceiver::new(CoherentRxConfig::ideal(), &mut rng)
    }

    /// Detect both quadratures of `signal`. Returns `(i, q)` balanced
    /// photocurrent waveforms: `i ∝ Re(S·L*)`, `q ∝ Im(S·L*)`.
    pub fn detect(&mut self, signal: &OpticalField) -> (AnalogWaveform, AnalogWaveform) {
        let n = signal.len();
        let lo = self.lo.emit(n, signal.sample_rate_hz);
        // 90° hybrid outputs (each port carries (S ± L)/2 or (S ± iL)/2).
        let mut p_ip = signal.clone();
        let mut p_in = signal.clone();
        let mut p_qp = signal.clone();
        let mut p_qn = signal.clone();
        for k in 0..n {
            let s = signal.samples[k];
            let l = lo.samples[k];
            let il = l * Complex::new(0.0, 1.0);
            p_ip.samples[k] = (s + l).scale(0.5);
            p_in.samples[k] = (s - l).scale(0.5);
            p_qp.samples[k] = (s + il).scale(0.5);
            p_qn.samples[k] = (s - il).scale(0.5);
        }
        let i_p = self.pd_ip.detect(&p_ip);
        let i_n = self.pd_in.detect(&p_in);
        let q_p = self.pd_qp.detect(&p_qp);
        let q_n = self.pd_qn.detect(&p_qn);
        let diff = |a: &AnalogWaveform, b: &AnalogWaveform| {
            AnalogWaveform::new(
                a.samples
                    .iter()
                    .zip(&b.samples)
                    .map(|(x, y)| x - y)
                    .collect(),
                signal.sample_rate_hz,
            )
        };
        (diff(&i_p, &i_n), diff(&q_p, &q_n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units;

    const RATE: f64 = 32e9;
    const WL: f64 = units::C_BAND_WAVELENGTH_M;

    #[test]
    fn iq_modulator_writes_both_quadratures() {
        let mut iq = IqModulator::new(MzmConfig::ideal());
        let carrier = OpticalField::cw(4, 1e-3, RATE, WL);
        let amps = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.7, -0.7)];
        let di = AnalogWaveform::new(
            amps.iter()
                .map(|&(i, _)| iq.drive_for_amplitude(i))
                .collect(),
            RATE,
        );
        let dq = AnalogWaveform::new(
            amps.iter()
                .map(|&(_, q)| iq.drive_for_amplitude(q))
                .collect(),
            RATE,
        );
        let out = iq.modulate(&carrier, &di, &dq);
        let e0 = 1e-3f64.sqrt() / 2.0;
        for (k, &(i, q)) in amps.iter().enumerate() {
            let s = out.samples[k];
            assert!((s.re - i * e0).abs() < 1e-9, "sample {k} re {}", s.re);
            assert!((s.im - q * e0).abs() < 1e-9, "sample {k} im {}", s.im);
        }
    }

    #[test]
    fn coherent_detection_recovers_phase() {
        // Direct detection cannot distinguish ±E; coherent detection can.
        let mut rx = CoherentReceiver::ideal();
        let amp = 1e-3f64.sqrt();
        let field = OpticalField {
            samples: vec![
                Complex::new(amp, 0.0),
                Complex::new(-amp, 0.0),
                Complex::new(0.0, amp),
                Complex::new(0.0, -amp),
            ],
            sample_rate_hz: RATE,
            wavelength_m: WL,
        };
        let (i, q) = rx.detect(&field);
        assert!(i.samples[0] > 0.0 && i.samples[1] < 0.0, "I signs");
        assert!((i.samples[0] + i.samples[1]).abs() < 1e-12, "balanced");
        assert!(q.samples[2] > 0.0 && q.samples[3] < 0.0, "Q signs");
        // I channel silent for pure-Q symbols and vice versa.
        assert!(i.samples[2].abs() < 1e-12);
        assert!(q.samples[0].abs() < 1e-12);
    }

    #[test]
    fn coherent_gain_scales_with_lo_power() {
        // The balanced output ∝ √(P_sig·P_lo): a stronger LO amplifies a
        // weak signal above the thermal floor — coherent sensitivity.
        let weak = OpticalField::cw(1, 1e-9, RATE, WL); // -60 dBm
        let mut rng = SimRng::seed_from_u64(1);
        let mut cfg = CoherentRxConfig::ideal();
        cfg.lo.power_dbm = 0.0;
        let mut rx_low = CoherentReceiver::new(cfg.clone(), &mut rng);
        cfg.lo.power_dbm = 13.0;
        let mut rx_high = CoherentReceiver::new(cfg, &mut rng);
        let (i_low, _) = rx_low.detect(&weak);
        let (i_high, _) = rx_high.detect(&weak);
        let gain = i_high.samples[0] / i_low.samples[0];
        // 13 dB more LO power → √(20×) ≈ 4.5× more photocurrent.
        assert!((gain - 20f64.sqrt()).abs() < 0.1, "gain {gain}");
    }

    #[test]
    fn round_trip_iq_to_coherent() {
        let mut iq = IqModulator::new(MzmConfig::ideal());
        let mut rx = CoherentReceiver::ideal();
        let carrier = OpticalField::cw(8, 1e-3, RATE, WL);
        let symbols: Vec<(f64, f64)> = (0..8)
            .map(|k| {
                let a = 0.7;
                match k % 4 {
                    0 => (a, a),
                    1 => (-a, a),
                    2 => (-a, -a),
                    _ => (a, -a),
                }
            })
            .collect();
        let di = AnalogWaveform::new(
            symbols
                .iter()
                .map(|&(i, _)| iq.drive_for_amplitude(i))
                .collect(),
            RATE,
        );
        let dq = AnalogWaveform::new(
            symbols
                .iter()
                .map(|&(_, q)| iq.drive_for_amplitude(q))
                .collect(),
            RATE,
        );
        let field = iq.modulate(&carrier, &di, &dq);
        let (i, q) = rx.detect(&field);
        for (k, &(si, sq)) in symbols.iter().enumerate() {
            assert_eq!(i.samples[k] > 0.0, si > 0.0, "I sign at {k}");
            assert_eq!(q.samples[k] > 0.0, sq > 0.0, "Q sign at {k}");
        }
    }
}
