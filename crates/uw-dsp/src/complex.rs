//! Minimal complex-number arithmetic.
//!
//! The workspace avoids external numeric crates, so this module provides the
//! small set of complex operations the FFT, channel estimation and
//! correlation code need: addition, subtraction, multiplication, conjugation,
//! scaling, magnitude and `exp(i·θ)` construction.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity (0 + 0i).
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity (1 + 0i).
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit (0 + 1i).
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Returns `exp(i·theta)` — a unit phasor at angle `theta` radians.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Multiplicative inverse. Returns `None` when the magnitude is zero.
    #[inline]
    pub fn inv(self) -> Option<Self> {
        let d = self.norm_sqr();
        if d == 0.0 {
            None
        } else {
            Some(Self {
                re: self.re / d,
                im: -self.im / d,
            })
        }
    }

    /// Returns true when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    /// Complex division. Division by zero yields NaN components, matching
    /// `f64` semantics.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_re(re)
    }
}

/// Converts a real sample buffer into a complex buffer with zero imaginary
/// parts.
pub fn to_complex(samples: &[f64]) -> Vec<Complex64> {
    samples.iter().map(|&s| Complex64::from_re(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 4.0);
        let c = a + b - b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 4.0);
        let c = a * b;
        assert!(close(c.re, -14.0));
        assert!(close(c.im, 5.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 4.0);
        let c = (a * b) / b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let a = Complex64::new(2.0, 3.0);
        assert_eq!(a.conj(), Complex64::new(2.0, -3.0));
    }

    #[test]
    fn unit_phasor_has_unit_magnitude() {
        for k in 0..32 {
            let theta = k as f64 * 0.41;
            assert!((Complex64::from_angle(theta).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert!(Complex64::ZERO.inv().is_none());
        let a = Complex64::new(3.0, -4.0);
        let inv = a.inv().unwrap();
        let prod = a * inv;
        assert!(close(prod.re, 1.0) && close(prod.im, 0.0));
    }

    #[test]
    fn conversions_roundtrip() {
        let real = vec![1.0, -2.0, 3.5];
        let cx = to_complex(&real);
        assert!(cx.iter().zip(&real).all(|(c, &r)| c.re == r && c.im == 0.0));
    }

    #[test]
    fn scalar_ops() {
        let a = Complex64::new(1.0, -2.0);
        assert_eq!(a * 2.0, Complex64::new(2.0, -4.0));
        assert_eq!(a / 2.0, Complex64::new(0.5, -1.0));
        assert_eq!(-a, Complex64::new(-1.0, 2.0));
    }
}
