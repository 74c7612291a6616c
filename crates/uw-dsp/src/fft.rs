//! Iterative radix-2 fast Fourier transform.
//!
//! The OFDM modulator/demodulator, the LS channel estimator and the
//! FFT-based correlators all run on power-of-two lengths, so a classic
//! in-place radix-2 decimation-in-time FFT is sufficient. Helper functions
//! cover the common real-signal cases and zero-padding to the next power of
//! two.

use crate::complex::Complex64;
use crate::{DspError, Result};

/// Returns the smallest power of two greater than or equal to `n`
/// (and at least 1).
pub fn next_pow2(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let mut p = 1usize;
    while p < n {
        p <<= 1;
    }
    p
}

/// Returns true when `n` is a power of two (and non-zero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// In-place radix-2 FFT.
///
/// `data.len()` must be a power of two. The transform is unnormalised: the
/// inverse transform divides by the length so `ifft(fft(x)) == x`.
pub fn fft_in_place(data: &mut [Complex64]) -> Result<()> {
    transform(data, false)
}

/// In-place radix-2 inverse FFT (normalised by 1/N).
pub fn ifft_in_place(data: &mut [Complex64]) -> Result<()> {
    transform(data, true)?;
    let n = data.len() as f64;
    for x in data.iter_mut() {
        *x = *x / n;
    }
    Ok(())
}

/// Out-of-place FFT convenience wrapper.
pub fn fft(data: &[Complex64]) -> Result<Vec<Complex64>> {
    let mut buf = data.to_vec();
    fft_in_place(&mut buf)?;
    Ok(buf)
}

/// Out-of-place inverse FFT convenience wrapper.
pub fn ifft(data: &[Complex64]) -> Result<Vec<Complex64>> {
    let mut buf = data.to_vec();
    ifft_in_place(&mut buf)?;
    Ok(buf)
}

/// FFT of a real signal, zero-padded to `n_fft` (which must be a power of
/// two and at least `signal.len()`).
pub fn rfft(signal: &[f64], n_fft: usize) -> Result<Vec<Complex64>> {
    if !is_pow2(n_fft) {
        return Err(DspError::InvalidLength {
            reason: "FFT length must be a power of two",
        });
    }
    if n_fft < signal.len() {
        return Err(DspError::InvalidLength {
            reason: "FFT length shorter than the signal",
        });
    }
    let mut buf = vec![Complex64::ZERO; n_fft];
    for (b, &s) in buf.iter_mut().zip(signal.iter()) {
        *b = Complex64::from_re(s);
    }
    fft_in_place(&mut buf)?;
    Ok(buf)
}

fn transform(data: &mut [Complex64], inverse: bool) -> Result<()> {
    let n = data.len();
    if n == 0 {
        return Err(DspError::InvalidLength {
            reason: "FFT input must be non-empty",
        });
    }
    if !is_pow2(n) {
        return Err(DspError::InvalidLength {
            reason: "FFT length must be a power of two",
        });
    }
    if n == 1 {
        return Ok(());
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Danielson–Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex64::from_angle(ang);
        let half = len / 2;
        let mut start = 0usize;
        while start < n {
            let mut w = Complex64::ONE;
            for k in 0..half {
                let even = data[start + k];
                let odd = data[start + k + half] * w;
                data[start + k] = even + odd;
                data[start + k + half] = even - odd;
                w *= wlen;
            }
            start += len;
        }
        len <<= 1;
    }
    Ok(())
}

/// FFT of arbitrary length using Bluestein's chirp-z algorithm for
/// non-power-of-two sizes (power-of-two inputs go straight to the radix-2
/// path). The OFDM symbols in the paper are 1920 samples long — not a power
/// of two — so channel estimation needs this.
pub fn fft_any(data: &[Complex64]) -> Result<Vec<Complex64>> {
    let n = data.len();
    if n == 0 {
        return Err(DspError::InvalidLength {
            reason: "FFT input must be non-empty",
        });
    }
    if is_pow2(n) {
        return fft(data);
    }
    // Bluestein: X[k] = w[k] · (a ⊛ b)[k] where a[j] = x[j]·w[j],
    // b[j] = conj(w[j]) extended symmetrically, w[j] = exp(-iπ j²/n).
    let m = next_pow2(2 * n - 1);
    let w: Vec<Complex64> = (0..n)
        .map(|j| {
            // j² mod 2n keeps the phase argument small and exact.
            let jj = (j * j) % (2 * n);
            Complex64::from_angle(-std::f64::consts::PI * jj as f64 / n as f64)
        })
        .collect();
    let mut a = vec![Complex64::ZERO; m];
    for j in 0..n {
        a[j] = data[j] * w[j];
    }
    let mut b = vec![Complex64::ZERO; m];
    for j in 0..n {
        b[j] = w[j].conj();
        if j != 0 {
            b[m - j] = w[j].conj();
        }
    }
    fft_in_place(&mut a)?;
    fft_in_place(&mut b)?;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x *= *y;
    }
    ifft_in_place(&mut a)?;
    Ok((0..n).map(|k| a[k] * w[k]).collect())
}

/// Inverse FFT of arbitrary length (normalised by 1/N).
pub fn ifft_any(data: &[Complex64]) -> Result<Vec<Complex64>> {
    let n = data.len();
    if n == 0 {
        return Err(DspError::InvalidLength {
            reason: "FFT input must be non-empty",
        });
    }
    let conj_in: Vec<Complex64> = data.iter().map(|c| c.conj()).collect();
    let spec = fft_any(&conj_in)?;
    Ok(spec.into_iter().map(|c| c.conj() / n as f64).collect())
}

/// FFT of a real signal at an arbitrary transform length ≥ the signal
/// length (the signal is zero-padded).
pub fn rfft_any(signal: &[f64], n_fft: usize) -> Result<Vec<Complex64>> {
    if n_fft == 0 {
        return Err(DspError::InvalidLength {
            reason: "FFT length must be positive",
        });
    }
    if n_fft < signal.len() {
        return Err(DspError::InvalidLength {
            reason: "FFT length shorter than the signal",
        });
    }
    let mut buf = vec![Complex64::ZERO; n_fft];
    for (b, &s) in buf.iter_mut().zip(signal.iter()) {
        *b = Complex64::from_re(s);
    }
    fft_any(&buf)
}

/// Returns the FFT bin index corresponding to `freq_hz` for a transform of
/// length `n_fft` at sampling rate `fs`.
pub fn bin_for_freq(freq_hz: f64, n_fft: usize, fs: f64) -> usize {
    ((freq_hz * n_fft as f64 / fs).round() as usize).min(n_fft.saturating_sub(1))
}

/// Returns the centre frequency in Hz of FFT bin `bin`.
pub fn freq_for_bin(bin: usize, n_fft: usize, fs: f64) -> f64 {
    bin as f64 * fs / n_fft as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::to_complex;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1920), 2048);
        assert_eq!(next_pow2(2048), 2048);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut buf = vec![Complex64::ZERO; 6];
        assert!(fft_in_place(&mut buf).is_err());
        assert!(fft_in_place(&mut []).is_err());
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        fft_in_place(&mut x).unwrap();
        for c in &x {
            assert_close(c.re, 1.0, 1e-12);
            assert_close(c.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = rfft(&signal, n).unwrap();
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        // Energy should concentrate in bins k and n-k.
        assert_close(mags[k], n as f64 / 2.0, 1e-9);
        assert_close(mags[n - k], n as f64 / 2.0, 1e-9);
        for (i, &m) in mags.iter().enumerate() {
            if i != k && i != n - k {
                assert!(m < 1e-9, "leakage at bin {i}: {m}");
            }
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let signal: Vec<f64> = (0..128)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) / 13.0)
            .collect();
        let cx = to_complex(&signal);
        let spec = fft(&cx).unwrap();
        let back = ifft(&spec).unwrap();
        for (a, b) in signal.iter().zip(back.iter()) {
            assert_close(*a, b.re, 1e-10);
            assert_close(0.0, b.im, 1e-10);
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let b: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new((i % 7) as f64, (i % 3) as f64))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(b.iter()).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a).unwrap();
        let fb = fft(&b).unwrap();
        let fsum = fft(&sum).unwrap();
        for i in 0..32 {
            let expect = fa[i] + fb[i];
            assert_close(fsum[i].re, expect.re, 1e-9);
            assert_close(fsum[i].im, expect.im, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let signal: Vec<f64> = (0..256).map(|i| ((i as f64) * 0.37).sin() * 2.0).collect();
        let time_energy: f64 = signal.iter().map(|s| s * s).sum();
        let spec = rfft(&signal, 256).unwrap();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / 256.0;
        assert_close(time_energy, freq_energy, 1e-6);
    }

    #[test]
    fn bluestein_matches_radix2_on_power_of_two() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let a = fft(&x).unwrap();
        let b = fft_any(&x).unwrap();
        for (p, q) in a.iter().zip(b.iter()) {
            assert_close(p.re, q.re, 1e-9);
            assert_close(p.im, q.im, 1e-9);
        }
    }

    #[test]
    fn bluestein_matches_direct_dft_on_odd_length() {
        let n = 45;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.2).cos()))
            .collect();
        let fast = fft_any(&x).unwrap();
        for (k, f) in fast.iter().enumerate() {
            let mut acc = Complex64::ZERO;
            for (j, xv) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc += *xv * Complex64::from_angle(ang);
            }
            assert_close(f.re, acc.re, 1e-7);
            assert_close(f.im, acc.im, 1e-7);
        }
    }

    #[test]
    fn fft_any_ifft_any_roundtrip_1920() {
        // The paper's symbol length.
        let n = 1920;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(((i * 31 % 97) as f64 - 48.0) / 11.0, 0.0))
            .collect();
        let spec = fft_any(&x).unwrap();
        let back = ifft_any(&spec).unwrap();
        for (a, b) in x.iter().zip(back.iter()) {
            assert_close(a.re, b.re, 1e-8);
            assert_close(a.im, b.im, 1e-8);
        }
        assert!(fft_any(&[]).is_err());
        assert!(ifft_any(&[]).is_err());
    }

    #[test]
    fn rfft_any_tone_on_non_pow2_length() {
        let n = 1920;
        let k = 44;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = rfft_any(&signal, n).unwrap();
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        assert_close(mags[k], n as f64 / 2.0, 1e-6);
        // No significant leakage elsewhere.
        for (i, &m) in mags.iter().enumerate() {
            if i != k && i != n - k {
                assert!(m < 1e-6, "leakage at bin {i}: {m}");
            }
        }
        assert!(rfft_any(&signal, 0).is_err());
        assert!(rfft_any(&signal, 10).is_err());
    }

    #[test]
    fn bin_freq_mapping_roundtrip() {
        let n = 2048;
        let fs = 44_100.0;
        let bin = bin_for_freq(3000.0, n, fs);
        let freq = freq_for_bin(bin, n, fs);
        assert!((freq - 3000.0).abs() < fs / n as f64);
    }
}
