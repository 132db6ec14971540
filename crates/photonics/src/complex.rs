//! Minimal complex-number type for optical field envelopes.
//!
//! The workspace deliberately avoids pulling in `num-complex` (the offline
//! dependency set is fixed); the handful of operations optical envelopes
//! need — add, scale, rotate, magnitude — fit in this module.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number `re + i·im`, used as the slowly-varying envelope of an
/// optical field sample. `|z|²` is instantaneous optical power.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub(crate) const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Construct from polar form: `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Unit phasor `e^{iθ}`.
    #[inline]
    pub(crate) fn phasor(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Squared magnitude `|z|²` (optical power for a field envelope).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }

    /// Rotate by angle `theta` (multiply by `e^{iθ}`).
    #[inline]
    pub(crate) fn rotate(self, theta: f64) -> Self {
        self * Complex::phasor(theta)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.norm_sqr().sqrt() - 2.0).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn multiplication_adds_phases_and_multiplies_magnitudes() {
        let a = Complex::from_polar(2.0, 0.3);
        let b = Complex::from_polar(3.0, 0.5);
        let c = a * b;
        assert!((c.norm_sqr().sqrt() - 6.0).abs() < 1e-10);
        assert!((c.arg() - 0.8).abs() < 1e-10);
    }

    #[test]
    fn interference_extremes() {
        // Constructive: |1 + 1|² = 4; destructive: |1 − 1|² = 0.
        let a = Complex::new(1.0, 0.0);
        assert!(((a + a).norm_sqr() - 4.0).abs() < EPS);
        assert!((a - a).norm_sqr() < EPS);
        // Quadrature: |1 + i|² = 2.
        assert!(((a + Complex::new(0.0, 1.0)).norm_sqr() - 2.0).abs() < EPS);
    }

    #[test]
    fn rotate_by_pi_negates() {
        let z = Complex::new(1.0, 2.0);
        let r = z.rotate(std::f64::consts::PI);
        assert!((r.re + 1.0).abs() < EPS && (r.im + 2.0).abs() < EPS);
    }
}
