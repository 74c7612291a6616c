//! Streaming preamble-burst detection over long captures.
//!
//! A raw field recording is an hour of continuous hydrophone audio in
//! which the protocol's preamble appears a few thousand times. This
//! module finds every occurrence without ever materialising the file:
//! a [`BurstScanner`] consumes arbitrarily sized sample chunks, slides a
//! fixed analysis window over them, and runs each window through the
//! single-precision overlap-save [`F32MatchedFilter`] from `uw-dsp` — the
//! filter the f32 ranging path runs, which a scanner either builds from
//! the template ([`BurstScanner::new`]) or borrows ready-built
//! ([`BurstScanner::with_filter`]: the campaign importer borrows the f32
//! ranging preamble's, so no scan rebuilds it). Its windows are the f64
//! oracle filter's (both float paths top out at
//! `next_pow2(2 · template_len)` samples), and its normalised scores match
//! the f64 filter's to within f32 rounding, so every burst lands where the
//! f64 filter peaks: the golden import test
//! (`crates/eval/tests/import_golden.rs`) pins the two against each other,
//! and a borrowed filter against one the scanner builds, bit for bit.
//!
//! ## Determinism across chunkings
//!
//! The scanner partitions the *absolute* sample stream into fixed
//! windows (one matched-filter FFT block per window, consecutive windows
//! overlapping by `template_len − 1` samples so no lag is lost at a
//! boundary). Window boundaries depend only on absolute sample indices —
//! never on how the caller chunked its reads — so the concatenated
//! detections are **bitwise identical** for every chunking of the same
//! stream, from single-sample pushes to one whole-file push. The
//! property suite in `tests/burst_properties.rs` pins this.
//!
//! ## Memory bound
//!
//! Between pushes the scanner holds at most one analysis window
//! (`F32MatchedFilter::block_len()` samples: 32,768 for the paper's
//! 9,840-sample preamble) plus the detector's candidate peak — a few
//! hundred kilobytes regardless of recording length, besides the filter's
//! template spectra when it owns its filter. A push scans every whole
//! window its samples complete and drops the consumed samples once, at
//! the end.

use crate::AudioError;
use std::borrow::Cow;
use uw_dsp::float32::F32MatchedFilter;

/// One detected preamble occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Absolute sample index at which the template alignment peaked:
    /// the first sample of the detected preamble.
    pub position: u64,
    /// Normalised correlation score at the peak: in `[-1, 1]` up to the
    /// f32 filter's rounding, within about 1e-6 of the f64 oracle's.
    pub score: f64,
}

/// Streaming peak detector state: the best above-threshold candidate not
/// yet separated from later samples by the refractory gap.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    position: u64,
    score: f64,
}

/// A bounded-memory streaming burst detector for one fixed template.
///
/// Feed samples with [`BurstScanner::push`] (any chunk size); every call
/// returns the bursts finalised so far, and [`BurstScanner::finish`]
/// flushes the tail. See the module docs for the determinism and memory
/// guarantees.
#[derive(Debug)]
pub struct BurstScanner<'f> {
    /// The scanner's own filter, or one it borrows (see
    /// [`BurstScanner::with_filter`]).
    filter: Cow<'f, F32MatchedFilter>,
    threshold: f64,
    min_gap: u64,
    /// Unprocessed samples; `buffer[0]` is absolute index `base`.
    buffer: Vec<f64>,
    base: u64,
    pending: Option<Candidate>,
    corr: Vec<f64>,
}

impl<'f> BurstScanner<'f> {
    /// Builds a scanner for `template`, with a filter of its own.
    ///
    /// `threshold` is the normalised-correlation level a peak must reach
    /// to count as a burst (typically 0.3–0.6: template-free noise
    /// correlates at `O(1/√template_len)`, a real preamble near 1).
    /// `min_gap` is the refractory distance in samples: candidate peaks
    /// closer than this merge into the strongest one, and a candidate is
    /// only finalised once the scan has advanced `min_gap` samples past
    /// it. Use at least the template's autocorrelation sidelobe span
    /// (the template length is a safe default).
    pub fn new(template: &[f64], threshold: f64, min_gap: usize) -> Result<Self, AudioError> {
        check_parameters(threshold, min_gap)?;
        let filter = F32MatchedFilter::new(template).map_err(dsp_err)?;
        Ok(Self::from_filter(Cow::Owned(filter), threshold, min_gap))
    }

    /// Builds a scanner that borrows an already-built `filter` for the
    /// template, with the same parameters as [`BurstScanner::new`]: a
    /// process that keeps the template's filter (the f32 ranging path
    /// does) scans without rebuilding it. The detections are those of a
    /// scanner built by [`BurstScanner::new`] on the template the filter
    /// was built from, bit for bit.
    pub fn with_filter(
        filter: &'f F32MatchedFilter,
        threshold: f64,
        min_gap: usize,
    ) -> Result<Self, AudioError> {
        check_parameters(threshold, min_gap)?;
        Ok(Self::from_filter(Cow::Borrowed(filter), threshold, min_gap))
    }

    fn from_filter(filter: Cow<'f, F32MatchedFilter>, threshold: f64, min_gap: usize) -> Self {
        Self {
            filter,
            threshold,
            min_gap: min_gap as u64,
            buffer: Vec::new(),
            base: 0,
            pending: None,
            corr: Vec::new(),
        }
    }

    /// Length of the template this scanner searches for.
    pub fn template_len(&self) -> usize {
        self.filter.template_len()
    }

    /// Samples of new input consumed per analysis window (one matched
    /// filter FFT block yields this many correlation lags).
    fn window_step(&self) -> usize {
        self.filter.block_len() - self.filter.template_len() + 1
    }

    /// Feeds a chunk of samples and returns every burst finalised by it.
    /// Chunks may be any size, including empty; detections are identical
    /// for every chunking of the same stream.
    pub fn push(&mut self, samples: &[f64]) -> Result<Vec<Burst>, AudioError> {
        self.buffer.extend_from_slice(samples);
        let mut found = Vec::new();
        let window = self.filter.block_len();
        let step = self.window_step();
        let mut start = 0;
        while self.buffer.len() - start >= window {
            let mut corr = std::mem::take(&mut self.corr);
            self.filter
                .correlate_normalized_into(&self.buffer[start..start + window], &mut corr)
                .map_err(dsp_err)?;
            self.detect(&corr, self.base, &mut found);
            self.corr = corr;
            start += step;
            self.base += step as u64;
        }
        // Drop what the scanned windows consumed. What is left starts with
        // the last window's template_len − 1 tail samples: they take part
        // in the next window's first lags.
        self.buffer.drain(..start);
        Ok(found)
    }

    /// Processes the remaining tail (shorter than one full window) and
    /// flushes the last candidate peak, consuming the scanner.
    pub fn finish(mut self) -> Result<Vec<Burst>, AudioError> {
        let mut found = Vec::new();
        if self.buffer.len() >= self.filter.template_len() {
            let mut corr = std::mem::take(&mut self.corr);
            self.filter
                .correlate_normalized_into(&self.buffer, &mut corr)
                .map_err(dsp_err)?;
            self.detect(&corr, self.base, &mut found);
            self.corr = corr;
        }
        if let Some(c) = self.pending.take() {
            found.push(Burst {
                position: c.position,
                score: c.score,
            });
        }
        Ok(found)
    }

    /// Runs the streaming peak state machine over one window of
    /// correlation lags starting at absolute index `base`.
    fn detect(&mut self, corr: &[f64], base: u64, found: &mut Vec<Burst>) {
        for (k, &v) in corr.iter().enumerate() {
            let idx = base + k as u64;
            if let Some(c) = self.pending {
                if idx - c.position > self.min_gap {
                    found.push(Burst {
                        position: c.position,
                        score: c.score,
                    });
                    self.pending = None;
                }
            }
            match &mut self.pending {
                Some(c) => {
                    // Within the refractory span a higher lag takes over:
                    // the candidate tracks the true peak, not the first
                    // threshold crossing.
                    if v > c.score {
                        c.position = idx;
                        c.score = v;
                    }
                }
                None => {
                    if v >= self.threshold {
                        self.pending = Some(Candidate {
                            position: idx,
                            score: v,
                        });
                    }
                }
            }
        }
    }
}

/// Scans a fully materialised signal in one pass — the whole-file
/// reference the streaming scanner is pinned against.
pub fn scan_all(
    template: &[f64],
    signal: &[f64],
    threshold: f64,
    min_gap: usize,
) -> Result<Vec<Burst>, AudioError> {
    let mut scanner = BurstScanner::new(template, threshold, min_gap)?;
    let mut found = scanner.push(signal)?;
    found.extend(scanner.finish()?);
    Ok(found)
}

fn check_parameters(threshold: f64, min_gap: usize) -> Result<(), AudioError> {
    if !(threshold.is_finite() && threshold > 0.0 && threshold <= 1.0) {
        return Err(AudioError::InvalidParameter {
            reason: format!("burst threshold must be in (0, 1], got {threshold}"),
        });
    }
    if min_gap == 0 {
        return Err(AudioError::InvalidParameter {
            reason: "burst refractory gap must be at least 1 sample".into(),
        });
    }
    Ok(())
}

fn dsp_err(e: uw_dsp::DspError) -> AudioError {
    AudioError::InvalidParameter {
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short linear up-chirp: broadband enough for a sharp
    /// autocorrelation peak.
    fn chirp(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * (200.0 * t + 1800.0 * t * t)).sin()
            })
            .collect()
    }

    fn plant(signal: &mut [f64], template: &[f64], at: usize, gain: f64) {
        for (i, &t) in template.iter().enumerate() {
            signal[at + i] += t * gain;
        }
    }

    #[test]
    fn finds_planted_bursts_at_exact_positions() {
        let template = chirp(512);
        let mut signal = vec![0.0; 20_000];
        for &at in &[1_000usize, 7_333, 15_000] {
            plant(&mut signal, &template, at, 0.7);
        }
        let bursts = scan_all(&template, &signal, 0.5, 512).unwrap();
        let positions: Vec<u64> = bursts.iter().map(|b| b.position).collect();
        assert_eq!(positions, vec![1_000, 7_333, 15_000]);
        for b in &bursts {
            assert!(b.score > 0.99, "clean burst scored {}", b.score);
        }
    }

    #[test]
    fn bursts_on_window_edges_are_found_at_exact_positions() {
        // A 512-sample template runs on 1,024-sample windows that each
        // yield 513 lags: plant one peak on the second window's first lag
        // and one on the third window's last lag.
        let template = chirp(512);
        let mut signal = vec![0.0; 4_096];
        for at in [513, 3 * 513 - 1] {
            plant(&mut signal, &template, at, 0.7);
        }
        let bursts = scan_all(&template, &signal, 0.5, 512).unwrap();
        let positions: Vec<u64> = bursts.iter().map(|b| b.position).collect();
        assert_eq!(positions, vec![513, 3 * 513 - 1]);
    }

    #[test]
    fn silence_and_tones_yield_no_bursts() {
        let template = chirp(512);
        let silence = vec![0.0; 8_192];
        assert!(scan_all(&template, &silence, 0.3, 512).unwrap().is_empty());
        let tone: Vec<f64> = (0..8_192).map(|i| (i as f64 * 0.05).sin()).collect();
        assert!(scan_all(&template, &tone, 0.5, 512).unwrap().is_empty());
    }

    #[test]
    fn bursts_closer_than_the_gap_merge_to_the_strongest() {
        let template = chirp(256);
        let mut signal = vec![0.0; 4_096];
        plant(&mut signal, &template, 1_000, 0.4);
        plant(&mut signal, &template, 1_100, 0.9); // within min_gap of the first
        let bursts = scan_all(&template, &signal, 0.2, 256).unwrap();
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].position, 1_100);
    }

    #[test]
    fn chunked_scan_matches_whole_scan_bitwise() {
        let template = chirp(300);
        let mut signal = vec![0.0; 30_000];
        for (k, &at) in [500usize, 6_000, 12_345, 25_000].iter().enumerate() {
            plant(&mut signal, &template, at, 0.5 + 0.1 * k as f64);
        }
        // Add a deterministic pseudo-noise floor.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for s in signal.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *s += ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.05;
        }
        let whole = scan_all(&template, &signal, 0.4, 300).unwrap();
        assert_eq!(whole.len(), 4);
        // A scanner on a borrowed filter scans as one that built its own.
        let filter = F32MatchedFilter::new(&template).unwrap();
        for chunk in [1usize, 7, 300, 4_096, 16_384] {
            for mut scanner in [
                BurstScanner::new(&template, 0.4, 300).unwrap(),
                BurstScanner::with_filter(&filter, 0.4, 300).unwrap(),
            ] {
                let mut got = Vec::new();
                for c in signal.chunks(chunk) {
                    got.extend(scanner.push(c).unwrap());
                }
                got.extend(scanner.finish().unwrap());
                assert_eq!(got.len(), whole.len(), "chunk size {chunk}");
                for (a, b) in got.iter().zip(&whole) {
                    assert_eq!(a.position, b.position, "chunk size {chunk}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "chunk size {chunk}");
                }
            }
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let template = chirp(64);
        assert!(BurstScanner::new(&template, 0.0, 64).is_err());
        assert!(BurstScanner::new(&template, 1.5, 64).is_err());
        assert!(BurstScanner::new(&template, f64::NAN, 64).is_err());
        assert!(BurstScanner::new(&template, 0.5, 0).is_err());
        assert!(BurstScanner::new(&[], 0.5, 64).is_err());
        assert!(BurstScanner::new(&[0.0; 64], 0.5, 64).is_err());
        let filter = F32MatchedFilter::new(&template).unwrap();
        assert!(BurstScanner::with_filter(&filter, 0.0, 64).is_err());
        assert!(BurstScanner::with_filter(&filter, 0.5, 0).is_err());
    }
}
