//! Peak detection and noise-floor estimation.
//!
//! The dual-microphone direct-path search (§2.2) needs three primitives:
//!
//! * a local-maximum test (`IsPeak` in the paper's formulation),
//! * a noise-floor estimate computed from the tail of the channel impulse
//!   response (the paper averages the last 100 channel taps), and
//! * normalisation of a channel magnitude profile to `[0, 1]`.

use crate::{DspError, Result};

/// Returns true when `values[idx]` is a local maximum: greater than or equal
/// to both neighbours and strictly greater than at least one of them.
/// A missing neighbour (at the boundaries) is treated as equal to the value
/// itself, so flat profiles and single-sample profiles contain no peaks while
/// a boundary sample that rises above its single neighbour still counts.
pub fn is_peak(values: &[f64], idx: usize) -> bool {
    if values.is_empty() || idx >= values.len() {
        return false;
    }
    let v = values[idx];
    let left = if idx > 0 { values[idx - 1] } else { v };
    let right = if idx + 1 < values.len() {
        values[idx + 1]
    } else {
        v
    };
    v >= left && v >= right && (v > left || v > right)
}

/// Indices of all local maxima whose value exceeds `threshold`.
pub fn find_peaks_above(values: &[f64], threshold: f64) -> Vec<usize> {
    (0..values.len())
        .filter(|&i| values[i] > threshold && is_peak(values, i))
        .collect()
}

/// Estimates the noise floor as the mean of the last `tail_len` values
/// (the paper uses the average power of the last 100 channel taps).
pub fn noise_floor(values: &[f64], tail_len: usize) -> Result<f64> {
    if values.is_empty() {
        return Err(DspError::InvalidLength {
            reason: "cannot estimate noise floor of empty profile",
        });
    }
    if tail_len == 0 {
        return Err(DspError::InvalidParameter {
            reason: "noise-floor tail length must be positive",
        });
    }
    let tail = tail_len.min(values.len());
    let start = values.len() - tail;
    Ok(values[start..].iter().sum::<f64>() / tail as f64)
}

/// Normalises a profile to `[0, 1]` by dividing by its maximum absolute
/// value. A profile that is identically zero is returned unchanged.
pub fn normalize_profile(values: &[f64]) -> Vec<f64> {
    let max = values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if max == 0.0 {
        return values.to_vec();
    }
    values.iter().map(|&v| v / max).collect()
}

/// Summary statistics of a set of scalar errors, used throughout the
/// evaluation harness (medians and percentiles of error distributions).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ErrorStats {
    /// Number of samples.
    pub count: usize,
    /// Mean value.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum value.
    pub max: f64,
    /// Standard deviation.
    pub std_dev: f64,
}

impl ErrorStats {
    /// Computes statistics from a slice of samples. Returns `None` for an
    /// empty slice.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / count as f64;
        Some(Self {
            count,
            mean,
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            max: *sorted.last().unwrap(),
            std_dev: var.sqrt(),
        })
    }
}

/// Percentile of a **sorted** slice using linear interpolation between
/// order statistics. `p` is in `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Percentile of an **unsorted** slice (makes an internal sorted copy).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    percentile_sorted(&sorted, p)
}

/// Empirical CDF of a sample set: returns `(sorted_values, cumulative_fraction)`.
pub fn empirical_cdf(values: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    let fracs = (1..=n).map(|i| i as f64 / n as f64).collect();
    (sorted, fracs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_peak_detects_local_maxima() {
        let v = [0.0, 1.0, 0.5, 2.0, 2.0, 1.0, 3.0];
        assert!(!is_peak(&v, 0));
        assert!(is_peak(&v, 1));
        assert!(!is_peak(&v, 2));
        assert!(is_peak(&v, 3)); // plateau left edge counts (greater than left)
        assert!(!is_peak(&v, 5));
        assert!(is_peak(&v, 6)); // boundary peak
        assert!(!is_peak(&v, 10)); // out of range
        assert!(!is_peak(&[], 0));
        assert!(!is_peak(&[5.0], 0)); // a single sample has no structure
    }

    #[test]
    fn flat_profile_has_no_peaks() {
        let v = [1.0; 10];
        for i in 0..10 {
            assert!(!is_peak(&v, i));
        }
    }

    #[test]
    fn find_peaks_above_threshold() {
        let v = [0.0, 1.0, 0.2, 0.8, 0.1, 2.0, 0.0];
        assert_eq!(find_peaks_above(&v, 0.5), vec![1, 3, 5]);
        assert_eq!(find_peaks_above(&v, 1.5), vec![5]);
        assert!(find_peaks_above(&v, 5.0).is_empty());
    }

    #[test]
    fn noise_floor_uses_tail() {
        let mut v = vec![10.0; 50];
        v.extend(vec![0.5; 100]);
        assert!((noise_floor(&v, 100).unwrap() - 0.5).abs() < 1e-12);
        // Tail longer than the profile falls back to the whole profile.
        let w = [2.0, 4.0];
        assert!((noise_floor(&w, 10).unwrap() - 3.0).abs() < 1e-12);
        assert!(noise_floor(&[], 10).is_err());
        assert!(noise_floor(&w, 0).is_err());
    }

    #[test]
    fn normalize_profile_bounds() {
        let v = [-2.0, 1.0, 4.0];
        let n = normalize_profile(&v);
        assert_eq!(n, vec![-0.5, 0.25, 1.0]);
        let z = [0.0, 0.0];
        assert_eq!(normalize_profile(&z), vec![0.0, 0.0]);
    }

    #[test]
    fn error_stats_and_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let stats = ErrorStats::from_samples(&samples).unwrap();
        assert_eq!(stats.count, 100);
        assert!((stats.mean - 50.5).abs() < 1e-12);
        assert!((stats.median - 50.5).abs() < 1e-12);
        assert!((stats.p95 - 95.05).abs() < 0.1);
        assert_eq!(stats.max, 100.0);
        assert!(stats.std_dev > 28.0 && stats.std_dev < 29.5);
        assert!(ErrorStats::from_samples(&[]).is_none());
    }

    #[test]
    fn percentile_edge_cases() {
        assert!(percentile_sorted(&[], 50.0).is_nan());
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn empirical_cdf_is_monotone() {
        let (vals, fracs) = empirical_cdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(vals, vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(fracs.last().copied(), Some(1.0));
        for w in fracs.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
