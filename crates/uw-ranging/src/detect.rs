//! Preamble detection (§2.2.1, Fig. 12a).
//!
//! Detection runs in two stages:
//!
//! 1. **Cross-correlation** of the microphone stream with the transmitted
//!    preamble. Peaks mark candidate arrivals, but the peak height varies
//!    strongly with SNR and impulsive noise produces false peaks.
//! 2. **Auto-correlation validation**: the 4 received OFDM symbols are
//!    re-signed with the PN sequence and correlated against each other.
//!    Because all 4 symbols pass through (nearly) the same channel, genuine
//!    preambles score close to 1; impulsive noise does not carry the coded
//!    repetition structure and scores near 0. A candidate is accepted when
//!    the validation score exceeds 0.35.
//!
//! The FMCW baseline detector used for the comparison in Fig. 12a — a
//! window-based power threshold `TH_SD` dB above the background, as in
//! BeepBeep — is in [`crate::baselines`].
//!
//! The correlation stage runs on whichever numeric path the preamble was
//! built for: the `f64` matched filter, the single-precision
//! [`uw_dsp::F32MatchedFilter`] ([`uw_dsp::NumericPath::F32`]) or the
//! fixed-point [`uw_dsp::Q15MatchedFilter`] ([`uw_dsp::NumericPath::Q15`]),
//! whose peak positions agree with the `f64` path to within ±1 sample. The
//! validation stage stays in `f64` on every path.

use crate::preamble::RangingPreamble;
use crate::{RangingError, Result};
use serde::{Deserialize, Serialize};
use uw_dsp::correlation::autocorr_validation;
use uw_dsp::peaks::find_peaks_above;

/// Default auto-correlation validation threshold from the paper.
pub const DEFAULT_VALIDATION_THRESHOLD: f64 = 0.35;

/// Parameters of the detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Minimum normalised cross-correlation for a sample to be considered a
    /// candidate (screens the stream cheaply before validation).
    pub correlation_threshold: f64,
    /// Auto-correlation validation threshold (0.35 in the paper).
    pub validation_threshold: f64,
    /// Maximum number of candidate peaks to validate, strongest first.
    pub max_candidates: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            correlation_threshold: 0.15,
            validation_threshold: DEFAULT_VALIDATION_THRESHOLD,
            max_candidates: 16,
        }
    }
}

/// A detected preamble.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Sample index in the stream at which the preamble starts (coarse,
    /// from the correlation peak).
    pub start_sample: usize,
    /// Normalised cross-correlation value at the peak.
    pub correlation: f64,
    /// Auto-correlation validation score.
    pub validation: f64,
}

/// Detects the strongest validated preamble in `stream`.
///
/// Returns `Err(RangingError::NotDetected)` when no candidate passes
/// validation; the error carries the best score seen so callers can build
/// false-negative statistics.
pub fn detect_preamble(
    stream: &[f64],
    preamble: &RangingPreamble,
    config: &DetectorConfig,
) -> Result<Detection> {
    let detections = detect_all(stream, preamble, config)?;
    detections
        .into_iter()
        .max_by(|a, b| {
            a.validation
                .partial_cmp(&b.validation)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .ok_or(RangingError::NotDetected { best_score: 0.0 })
}

/// Detects every validated preamble occurrence in `stream` (used when a
/// stream contains responses from several devices).
pub fn detect_all(
    stream: &[f64],
    preamble: &RangingPreamble,
    config: &DetectorConfig,
) -> Result<Vec<Detection>> {
    if stream.len() < preamble.len() {
        return Err(RangingError::InvalidInput {
            reason: format!(
                "stream of {} samples is shorter than the {}-sample preamble",
                stream.len(),
                preamble.len()
            ),
        });
    }
    // Streaming matched filter: the preamble's template spectrum and FFT
    // plan are computed once per preamble, not once per stream.
    let corr = preamble.correlate_normalized(stream)?;
    let mut candidates: Vec<usize> = find_peaks_above(&corr, config.correlation_threshold);
    // Strongest candidates first, cap the work.
    candidates.sort_by(|&a, &b| {
        corr[b]
            .partial_cmp(&corr[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    candidates.truncate(config.max_candidates);

    let mut best_failed_score = 0.0f64;
    let mut detections = Vec::new();
    for &cand in &candidates {
        let score = validation_score(stream, preamble, cand)?;
        if score >= config.validation_threshold {
            detections.push(Detection {
                start_sample: cand,
                correlation: corr[cand],
                validation: score,
            });
        } else {
            best_failed_score = best_failed_score.max(score);
        }
    }
    if detections.is_empty() && candidates.is_empty() {
        return Err(RangingError::NotDetected { best_score: 0.0 });
    }
    if detections.is_empty() {
        return Err(RangingError::NotDetected {
            best_score: best_failed_score,
        });
    }
    // De-duplicate detections closer than one preamble length, keeping the
    // best-validated one in each cluster.
    detections.sort_by_key(|d| d.start_sample);
    let mut deduped: Vec<Detection> = Vec::new();
    for d in detections {
        match deduped.last_mut() {
            Some(last) if d.start_sample < last.start_sample + preamble.len() => {
                if d.validation > last.validation {
                    *last = d;
                }
            }
            _ => deduped.push(d),
        }
    }
    Ok(deduped)
}

/// Auto-correlation validation score for a candidate start index.
pub fn validation_score(stream: &[f64], preamble: &RangingPreamble, start: usize) -> Result<f64> {
    let block = preamble.block_len();
    if start + preamble.pn_signs.len() * block > stream.len() {
        // Cannot validate a candidate whose symbols run past the stream end.
        return Ok(0.0);
    }
    // Step over each block's cyclic prefix, so the segments being compared
    // are the repeated OFDM symbol bodies themselves, read in place.
    Ok(autocorr_validation(
        &stream[start + preamble.config.cyclic_prefix..],
        block,
        preamble.config.symbol_len,
        &preamble.pn_signs,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn embed(
        preamble: &RangingPreamble,
        offset: usize,
        total: usize,
        gain: f64,
        noise_amp: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream: Vec<f64> = (0..total)
            .map(|_| noise_amp * rng.gen_range(-1.0..1.0))
            .collect();
        for (i, &p) in preamble.waveform.iter().enumerate() {
            stream[offset + i] += gain * p;
        }
        stream
    }

    #[test]
    fn detects_clean_preamble_at_correct_offset() {
        let p = RangingPreamble::default_paper().unwrap();
        let stream = embed(&p, 3000, p.len() + 8000, 1.0, 0.01, 1);
        let det = detect_preamble(&stream, &p, &DetectorConfig::default()).unwrap();
        assert!(
            (det.start_sample as i64 - 3000).unsigned_abs() < 5,
            "start {}",
            det.start_sample
        );
        assert!(det.validation > 0.9);
        assert!(det.correlation > 0.5);
    }

    #[test]
    fn detects_weak_preamble_in_noise() {
        let p = RangingPreamble::default_paper().unwrap();
        // Signal amplitude comparable to the noise floor.
        let stream = embed(&p, 5000, p.len() + 12_000, 0.08, 0.05, 2);
        let det = detect_preamble(&stream, &p, &DetectorConfig::default()).unwrap();
        assert!(
            (det.start_sample as i64 - 5000).unsigned_abs() < 20,
            "start {}",
            det.start_sample
        );
        assert!(det.validation > DEFAULT_VALIDATION_THRESHOLD);
    }

    #[test]
    fn rejects_noise_only_stream() {
        let p = RangingPreamble::default_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let stream: Vec<f64> = (0..p.len() + 10_000)
            .map(|_| 0.3 * rng.gen_range(-1.0..1.0))
            .collect();
        let result = detect_preamble(&stream, &p, &DetectorConfig::default());
        assert!(matches!(result, Err(RangingError::NotDetected { .. })));
    }

    #[test]
    fn rejects_impulsive_spikes() {
        // A large spike fools plain correlation thresholds but not the
        // PN-structure validation.
        let p = RangingPreamble::default_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut stream: Vec<f64> = (0..p.len() + 10_000)
            .map(|_| 0.02 * rng.gen_range(-1.0..1.0))
            .collect();
        for k in 0..200 {
            stream[4000 + k] += 3.0 * ((k as f64) * 0.5).sin() * (-(k as f64) / 40.0).exp();
        }
        let result = detect_preamble(&stream, &p, &DetectorConfig::default());
        assert!(
            result.is_err(),
            "impulsive noise must not validate as a preamble"
        );
    }

    #[test]
    fn detects_two_preambles_in_one_stream() {
        let p = RangingPreamble::default_paper().unwrap();
        let total = 2 * p.len() + 30_000;
        let mut stream = embed(&p, 2000, total, 1.0, 0.01, 5);
        for (i, &s) in p.waveform.iter().enumerate() {
            stream[2000 + p.len() + 12_000 + i] += 0.7 * s;
        }
        let detections = detect_all(&stream, &p, &DetectorConfig::default()).unwrap();
        assert_eq!(detections.len(), 2, "{detections:?}");
        assert!((detections[0].start_sample as i64 - 2000).unsigned_abs() < 5);
        assert!(
            (detections[1].start_sample as i64 - (2000 + p.len() as i64 + 12_000)).unsigned_abs()
                < 5
        );
    }

    #[test]
    fn short_stream_is_rejected() {
        let p = RangingPreamble::default_paper().unwrap();
        let stream = vec![0.0; 100];
        assert!(matches!(
            detect_preamble(&stream, &p, &DetectorConfig::default()),
            Err(RangingError::InvalidInput { .. })
        ));
    }

    #[test]
    fn q15_preamble_detects_where_the_f64_one_does() {
        let p = RangingPreamble::default_paper().unwrap();
        let q = RangingPreamble::default_paper_q15().unwrap();
        let stream = embed(&p, 5000, p.len() + 12_000, 0.3, 0.03, 7);
        let det_f64 = detect_preamble(&stream, &p, &DetectorConfig::default()).unwrap();
        let det_q15 = detect_preamble(&stream, &q, &DetectorConfig::default()).unwrap();
        // Fixed-point correlation moves the peak by at most ±1 sample.
        assert!(
            (det_q15.start_sample as i64 - det_f64.start_sample as i64).unsigned_abs() <= 1,
            "f64 at {} vs q15 at {}",
            det_f64.start_sample,
            det_q15.start_sample
        );
        assert!(det_q15.validation > DEFAULT_VALIDATION_THRESHOLD);
        // Noise-only streams are still rejected on the Q15 path.
        let mut rng = StdRng::seed_from_u64(8);
        let noise: Vec<f64> = (0..q.len() + 10_000)
            .map(|_| 0.3 * rng.gen_range(-1.0..1.0))
            .collect();
        assert!(detect_preamble(&noise, &q, &DetectorConfig::default()).is_err());
    }

    #[test]
    fn validation_score_handles_candidate_near_stream_end() {
        let p = RangingPreamble::default_paper().unwrap();
        let stream = vec![0.0; p.len() + 100];
        // Candidate too close to the end: score 0, not an error.
        let score = validation_score(&stream, &p, p.len()).unwrap();
        assert_eq!(score, 0.0);
    }
}
