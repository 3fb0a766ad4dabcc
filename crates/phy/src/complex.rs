//! A minimal complex-number type for channel modelling.
//!
//! Kept in-house (rather than pulling `num-complex`) to stay within the
//! approved dependency set; only the operations the channel models need
//! are implemented.

use core::ops::{Add, AddAssign, Mul, Sub};

/// A complex number in rectangular form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Builds from rectangular parts.
    pub const fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Builds from polar form.
    pub fn from_polar(magnitude: f64, phase_rad: f64) -> Complex {
        Complex {
            re: magnitude * phase_rad.cos(),
            im: magnitude * phase_rad.sin(),
        }
    }

    /// Magnitude (absolute value).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude (power).
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in (-π, π].
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplication by a real scalar.
    pub fn scale(self, s: f64) -> Complex {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn polar_round_trip() {
        let c = Complex::from_polar(2.0, FRAC_PI_2);
        assert!((c.abs() - 2.0).abs() < 1e-12);
        assert!((c.arg() - FRAC_PI_2).abs() < 1e-12);
        assert!(c.re.abs() < 1e-12);
    }

    #[test]
    fn multiplication_adds_phases() {
        let a = Complex::from_polar(1.0, PI / 3.0);
        let b = Complex::from_polar(2.0, PI / 6.0);
        let p = a * b;
        assert!((p.abs() - 2.0).abs() < 1e-12);
        assert!((p.arg() - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn conj_negates_phase() {
        let c = Complex::new(3.0, 4.0);
        assert_eq!(c.conj(), Complex::new(3.0, -4.0));
        assert!((c.norm_sq() - 25.0).abs() < 1e-12);
        assert!(((c * c.conj()).re - 25.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a.scale(2.0), Complex::new(2.0, 4.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }
}
