//! Optical couplers and splitters.
//!
//! A 2×2 directional coupler is the interference element of the P2
//! pattern matcher (Fig. 2b): two phase-encoded fields combine, and the
//! output intensity encodes their phase agreement. The standard lossless
//! 2×2 coupler has the unitary transfer matrix
//!
//! ```text
//! [o1]   [ √(1−κ)    i√κ   ] [i1]
//! [o2] = [  i√κ     √(1−κ) ] [i2]
//! ```
//!
//! with κ the power coupling ratio (0.5 for a 3-dB coupler).

use crate::complex::Complex;
use crate::signal::OpticalField;
use crate::units;

/// A 2×2 directional coupler.
#[derive(Debug, Clone)]
pub struct Coupler {
    /// Power coupling ratio κ in [0, 1]; 0.5 = 3-dB coupler.
    pub(crate) kappa: f64,
    /// Excess loss in dB (applied to both outputs).
    pub(crate) excess_loss_db: f64,
}

impl Coupler {
    /// Lossless 3-dB (50/50) coupler.
    pub fn three_db() -> Self {
        Coupler {
            kappa: 0.5,
            excess_loss_db: 0.0,
        }
    }

    pub fn new(kappa: f64, excess_loss_db: f64) -> Self {
        assert!((0.0..=1.0).contains(&kappa), "kappa must be in [0,1]");
        Coupler {
            kappa,
            excess_loss_db: excess_loss_db.abs(),
        }
    }

    /// Combine two sample-aligned fields. Returns the two output fields.
    ///
    /// Panics if the blocks differ in length or sample rate.
    pub fn combine(&self, a: &OpticalField, b: &OpticalField) -> (OpticalField, OpticalField) {
        assert_eq!(a.len(), b.len(), "coupler inputs must be sample-aligned");
        assert!(
            (a.sample_rate_hz - b.sample_rate_hz).abs() < 1e-6,
            "coupler inputs must share a sample rate"
        );
        let t = (1.0 - self.kappa).sqrt();
        let k = self.kappa.sqrt();
        let ik = Complex::new(0.0, k);
        let loss = units::db_to_linear(-self.excess_loss_db).sqrt();
        let mut o1 = a.clone();
        let mut o2 = b.clone();
        for i in 0..a.len() {
            let (ia, ib) = (a.samples[i], b.samples[i]);
            o1.samples[i] = (ia.scale(t) + ib * ik).scale(loss);
            o2.samples[i] = (ia * ik + ib.scale(t)).scale(loss);
        }
        (o1, o2)
    }

    /// Split one field into two (second input dark).
    pub fn split(&self, input: &OpticalField) -> (OpticalField, OpticalField) {
        let dark = OpticalField::dark(input.len(), input.sample_rate_hz, input.wavelength_m);
        self.combine(input, &dark)
    }
}

/// A lossless 1×N power splitter dividing input power evenly.
pub fn split_n(input: &OpticalField, n: usize) -> Vec<OpticalField> {
    assert!(n >= 1, "cannot split into zero outputs");
    let scale = (1.0 / n as f64).sqrt();
    (0..n)
        .map(|_| {
            let mut f = input.clone();
            for s in &mut f.samples {
                *s = s.scale(scale);
            }
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 10e9;
    const WL: f64 = units::C_BAND_WAVELENGTH_M;

    #[test]
    fn three_db_coupler_conserves_power() {
        let c = Coupler::three_db();
        let a = OpticalField::cw(4, 1e-3, RATE, WL);
        let b = OpticalField::cw(4, 2e-3, RATE, WL);
        let (o1, o2) = c.combine(&a, &b);
        let p_in = a.mean_power_w() + b.mean_power_w();
        let p_out = o1.mean_power_w() + o2.mean_power_w();
        assert!((p_in - p_out).abs() / p_in < 1e-12);
    }

    #[test]
    fn in_phase_inputs_interfere() {
        // Equal in-phase fields through a 3-dB coupler: all power exits
        // one port (the classic interferometer null).
        let c = Coupler::three_db();
        let a = OpticalField::cw(1, 1e-3, RATE, WL);
        let (o1, o2) = c.combine(&a, &a);
        let total = o1.power_at(0) + o2.power_at(0);
        assert!((total - 2e-3).abs() < 1e-15);
        // Ports split by the relative π/2 the coupler imparts: equal here.
        assert!((o1.power_at(0) - o2.power_at(0)).abs() < 1e-15);
    }

    #[test]
    fn quadrature_inputs_route_to_one_port() {
        let c = Coupler::three_db();
        let a = OpticalField::cw(1, 1e-3, RATE, WL);
        let mut b = OpticalField::cw(1, 1e-3, RATE, WL);
        b.rotate_phase(std::f64::consts::FRAC_PI_2);
        let (o1, o2) = c.combine(&a, &b);
        // a + i·b with b = i·a gives o1 = (a + i²a)/√2 = 0.
        assert!(o1.power_at(0) < 1e-15, "o1 {}", o1.power_at(0));
        assert!((o2.power_at(0) - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn split_halves_power() {
        let c = Coupler::three_db();
        let input = OpticalField::cw(4, 1e-3, RATE, WL);
        let (o1, o2) = c.split(&input);
        assert!((o1.mean_power_w() - 0.5e-3).abs() < 1e-15);
        assert!((o2.mean_power_w() - 0.5e-3).abs() < 1e-15);
    }

    #[test]
    fn asymmetric_coupler_ratio() {
        let c = Coupler::new(0.1, 0.0);
        let input = OpticalField::cw(1, 1e-3, RATE, WL);
        let (o1, o2) = c.split(&input);
        assert!((o1.power_at(0) - 0.9e-3).abs() < 1e-15);
        assert!((o2.power_at(0) - 0.1e-3).abs() < 1e-15);
    }

    #[test]
    fn excess_loss_applies() {
        let c = Coupler::new(0.5, 3.0103);
        let input = OpticalField::cw(1, 1e-3, RATE, WL);
        let (o1, o2) = c.split(&input);
        assert!((o1.power_at(0) + o2.power_at(0) - 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn split_n_conserves_power() {
        let input = OpticalField::cw(4, 1e-3, RATE, WL);
        let outs = split_n(&input, 7);
        let total: f64 = outs.iter().map(|f| f.mean_power_w()).sum();
        assert!((total - 1e-3).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "kappa")]
    fn rejects_invalid_kappa() {
        Coupler::new(1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "sample-aligned")]
    fn rejects_mismatched_lengths() {
        let c = Coupler::three_db();
        let a = OpticalField::cw(2, 1e-3, RATE, WL);
        let b = OpticalField::cw(3, 1e-3, RATE, WL);
        c.combine(&a, &b);
    }
}
