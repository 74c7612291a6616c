//! Zadoff–Chu (ZC) sequences.
//!
//! The paper fills the OFDM preamble bins with a ZC sequence: a
//! constant-amplitude, zero-autocorrelation (CAZAC) sequence that is
//! phase-modulated and orthogonal to delayed copies of itself. This gives
//! the preamble a flat in-band spectrum and a sharp correlation peak, which
//! is why ZC-modulated OFDM outperforms chirps for underwater ranging.

use crate::complex::Complex64;
use crate::{DspError, Result};

/// Generates a Zadoff–Chu sequence of length `n` with root index `root`.
///
/// `root` must be coprime with `n` and in `1..n`. The classic definition is
/// used: `x[k] = exp(-i·π·root·k·(k+cf)/n)` where `cf = n mod 2`.
pub fn zadoff_chu(n: usize, root: usize) -> Result<Vec<Complex64>> {
    if n == 0 {
        return Err(DspError::InvalidLength {
            reason: "ZC length must be positive",
        });
    }
    if root == 0 || root >= n {
        return Err(DspError::InvalidParameter {
            reason: "ZC root must be in 1..n",
        });
    }
    if gcd(root, n) != 1 {
        return Err(DspError::InvalidParameter {
            reason: "ZC root must be coprime with length",
        });
    }
    let cf = (n % 2) as f64;
    let nf = n as f64;
    let rf = root as f64;
    let mut seq = Vec::with_capacity(n);
    for k in 0..n {
        let kf = k as f64;
        let phase = -std::f64::consts::PI * rf * kf * (kf + cf) / nf;
        seq.push(Complex64::from_angle(phase));
    }
    Ok(seq)
}

/// Greatest common divisor.
pub fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Circular autocorrelation of a complex sequence at a given lag,
/// normalised by the sequence energy.
pub fn circular_autocorr(seq: &[Complex64], lag: usize) -> Result<f64> {
    if seq.is_empty() {
        return Err(DspError::InvalidLength {
            reason: "sequence must be non-empty",
        });
    }
    let n = seq.len();
    let lag = lag % n;
    let mut acc = Complex64::ZERO;
    let mut energy = 0.0;
    for k in 0..n {
        acc += seq[k] * seq[(k + lag) % n].conj();
        energy += seq[k].norm_sqr();
    }
    Ok(acc.abs() / energy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zc_is_constant_amplitude() {
        let seq = zadoff_chu(139, 25).unwrap();
        for c in &seq {
            assert!((c.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zc_has_zero_autocorrelation_at_nonzero_lag() {
        // Prime length guarantees the ideal CAZAC property.
        let seq = zadoff_chu(139, 25).unwrap();
        assert!((circular_autocorr(&seq, 0).unwrap() - 1.0).abs() < 1e-12);
        for lag in 1..139 {
            let r = circular_autocorr(&seq, lag).unwrap();
            assert!(r < 1e-9, "lag {lag} autocorr {r}");
        }
    }

    #[test]
    fn zc_rejects_bad_roots() {
        assert!(zadoff_chu(0, 1).is_err());
        assert!(zadoff_chu(10, 0).is_err());
        assert!(zadoff_chu(10, 10).is_err());
        assert!(zadoff_chu(10, 4).is_err()); // gcd(4,10)=2
        assert!(zadoff_chu(10, 3).is_ok());
    }

    #[test]
    fn gcd_values() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn different_roots_have_low_cross_correlation() {
        let a = zadoff_chu(139, 25).unwrap();
        let b = zadoff_chu(139, 29).unwrap();
        let mut acc = Complex64::ZERO;
        for (x, y) in a.iter().zip(b.iter()) {
            acc += *x * y.conj();
        }
        // Cross-correlation of distinct-root ZC sequences is 1/sqrt(N).
        let normalized = acc.abs() / 139.0;
        assert!(normalized < 0.12, "cross-corr {normalized}");
    }
}
