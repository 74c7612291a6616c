//! End-to-end arrival-time and distance estimation.
//!
//! [`estimate_arrival_dual`] runs the full §2.2 pipeline on the two
//! microphone streams of a receiving device:
//!
//! 1. detect the preamble in the first microphone stream (coarse sync),
//! 2. back the coarse start off by a safety margin so that, if the
//!    correlation locked onto a later multipath arrival, the true direct
//!    path still lands at a positive channel tap,
//! 3. LS-estimate both microphone channels from that common start (on the
//!    f64 and f32 paths in one packed forward and one inverse transform
//!    for the pair, see [`crate::channel_est`]),
//! 4. run the dual-microphone direct-path search,
//! 5. report the arrival as `fine_start + τ_LOS` samples (fractional).
//!
//! Distances follow as `c · Δt` for one-way measurements with known
//! emission times (used by the benchmark experiments); the two-way
//! timestamp combination that removes clock offsets lives in
//! `uw-protocol::timestamps`.

use crate::channel_est::{ls_channel_estimate, ls_channel_estimate_pair};
use crate::detect::{detect_preamble, DetectorConfig};
use crate::los::{arrival_sign, dual_mic_los, single_mic_los, LosConfig, LosEstimate};
use crate::preamble::RangingPreamble;
use crate::{RangingError, Result};
use serde::{Deserialize, Serialize};

/// Which microphones to use for the direct-path search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MicMode {
    /// Joint dual-microphone search (the paper's method).
    Both,
    /// First (bottom) microphone only.
    FirstOnly,
    /// Second (top) microphone only.
    SecondOnly,
}

/// Configuration of the ranging pipeline.
#[derive(Debug, Clone)]
pub struct RangingConfig {
    /// Detector parameters.
    pub detector: DetectorConfig,
    /// Direct-path search parameters.
    pub los: LosConfig,
    /// Samples to back off from the coarse detection before channel
    /// estimation, so an early (attenuated) direct path is not pushed to a
    /// negative tap. Must stay below the cyclic-prefix length.
    pub backoff_samples: usize,
    /// Which microphones to use.
    pub mic_mode: MicMode,
}

impl Default for RangingConfig {
    fn default() -> Self {
        Self {
            detector: DetectorConfig::default(),
            los: LosConfig::default(),
            backoff_samples: 256,
            mic_mode: MicMode::Both,
        }
    }
}

/// The estimated arrival of a preamble at a device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalEstimate {
    /// Coarse detection start (sample index in the stream).
    pub coarse_start: usize,
    /// Sample index used as tap 0 for channel estimation.
    pub fine_start: usize,
    /// Direct-path delay in taps relative to `fine_start`.
    pub tau_taps: f64,
    /// Final arrival estimate in (fractional) samples within the stream.
    pub arrival_sample: f64,
    /// Direct-path tap indices in the two microphone channels.
    pub los: LosEstimate,
    /// Auto-correlation validation score of the detection.
    pub validation: f64,
}

impl ArrivalEstimate {
    /// Arrival time in seconds for a stream sampled at `sample_rate`.
    pub fn arrival_time_s(&self, sample_rate: f64) -> f64 {
        self.arrival_sample / sample_rate
    }

    /// Sign of the inter-microphone arrival difference (+1 when microphone 1
    /// heard the signal first), used for flipping disambiguation.
    pub fn mic_sign(&self) -> i8 {
        arrival_sign(&self.los)
    }
}

/// Runs the full dual-microphone arrival estimation on the two microphone
/// streams (which must be sample-aligned, as they are on real hardware —
/// both are filled by the same audio callback).
pub fn estimate_arrival_dual(
    stream_mic1: &[f64],
    stream_mic2: &[f64],
    preamble: &RangingPreamble,
    config: &RangingConfig,
) -> Result<ArrivalEstimate> {
    if stream_mic1.len() != stream_mic2.len() {
        return Err(RangingError::InvalidInput {
            reason: format!(
                "microphone streams must be the same length ({} vs {})",
                stream_mic1.len(),
                stream_mic2.len()
            ),
        });
    }
    let detection = detect_preamble(stream_mic1, preamble, &config.detector)?;
    let fine_start = detection
        .start_sample
        .saturating_sub(config.backoff_samples);

    let (los_est, tau) = match config.mic_mode {
        MicMode::Both => {
            let [h1, h2] =
                ls_channel_estimate_pair(stream_mic1, stream_mic2, preamble, fine_start)?;
            let est = dual_mic_los(&h1.impulse_magnitude, &h2.impulse_magnitude, &config.los)?;
            (est, est.tau_taps)
        }
        MicMode::FirstOnly => {
            let h1 = ls_channel_estimate(stream_mic1, preamble, fine_start)?;
            let est = single_mic_los(&h1.impulse_magnitude, &config.los)?;
            (est, est.tau_taps)
        }
        MicMode::SecondOnly => {
            let h2 = ls_channel_estimate(stream_mic2, preamble, fine_start)?;
            let est = single_mic_los(&h2.impulse_magnitude, &config.los)?;
            (est, est.tau_taps)
        }
    };

    Ok(ArrivalEstimate {
        coarse_start: detection.start_sample,
        fine_start,
        tau_taps: tau,
        arrival_sample: fine_start as f64 + tau,
        los: los_est,
        validation: detection.validation,
    })
}

/// Convenience wrapper for a single-microphone device (or ablation): both
/// "streams" are the same buffer.
pub fn estimate_arrival_single(
    stream: &[f64],
    preamble: &RangingPreamble,
    config: &RangingConfig,
) -> Result<ArrivalEstimate> {
    let cfg = RangingConfig {
        mic_mode: MicMode::FirstOnly,
        ..config.clone()
    };
    estimate_arrival_dual(stream, stream, preamble, &cfg)
}

/// One-way distance from a known emission time and an estimated arrival
/// time (both in seconds on a common clock): `d = c · (t_arrival − t_emit)`.
pub fn one_way_distance(t_emit_s: f64, t_arrival_s: f64, sound_speed: f64) -> Result<f64> {
    if sound_speed <= 0.0 {
        return Err(RangingError::InvalidInput {
            reason: "sound speed must be positive".into(),
        });
    }
    let dt = t_arrival_s - t_emit_s;
    if dt < 0.0 {
        return Err(RangingError::InvalidInput {
            reason: format!("arrival ({t_arrival_s} s) precedes emission ({t_emit_s} s)"),
        });
    }
    Ok(sound_speed * dt)
}

/// Two-way ranging between devices A and B without any clock
/// synchronisation (the BeepBeep/paper formulation): device A emits at its
/// local time `a_tx` and hears B's reply at `a_rx`; device B hears A at its
/// local time `b_rx` and replies at `b_tx`. The one-way propagation time is
/// `((a_rx − a_tx) − (b_tx − b_rx)) / 2` and the distance follows by
/// multiplying with the sound speed.
pub fn two_way_distance(
    a_tx: f64,
    a_rx: f64,
    b_rx: f64,
    b_tx: f64,
    sound_speed: f64,
) -> Result<f64> {
    if sound_speed <= 0.0 {
        return Err(RangingError::InvalidInput {
            reason: "sound speed must be positive".into(),
        });
    }
    let round_trip = (a_rx - a_tx) - (b_tx - b_rx);
    if round_trip < 0.0 {
        return Err(RangingError::InvalidInput {
            reason: "negative round-trip time; timestamps are inconsistent".into(),
        });
    }
    Ok(sound_speed * round_trip / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a pair of microphone streams containing the preamble arriving
    /// at `arrival` samples (mic 1) and `arrival + mic_offset` (mic 2), each
    /// with an extra multipath echo and noise.
    fn dual_streams(
        preamble: &RangingPreamble,
        arrival: usize,
        mic_offset: i64,
        direct_gain: f64,
        echo_gain: f64,
        noise_amp: f64,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>) {
        let total = arrival + preamble.len() + 8000;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mk = |arr: usize| {
            let mut s: Vec<f64> = (0..total)
                .map(|_| noise_amp * rng.gen_range(-1.0..1.0))
                .collect();
            for (i, &p) in preamble.waveform.iter().enumerate() {
                if arr + i < total {
                    s[arr + i] += direct_gain * p;
                }
                let echo = arr + 150 + i;
                if echo < total {
                    s[echo] += echo_gain * p;
                }
            }
            s
        };
        let s1 = mk(arrival);
        let s2 = mk((arrival as i64 + mic_offset) as usize);
        (s1, s2)
    }

    #[test]
    fn clean_arrival_is_estimated_to_within_a_few_samples() {
        let p = RangingPreamble::default_paper().unwrap();
        let truth = 4000;
        let (s1, s2) = dual_streams(&p, truth, 2, 1.0, 0.3, 0.01, 1);
        let est = estimate_arrival_dual(&s1, &s2, &p, &RangingConfig::default()).unwrap();
        let err_samples = (est.arrival_sample - truth as f64).abs();
        // 18 samples at 44.1 kHz and 1500 m/s is ~0.6 m — the same scale as
        // the paper's 0.48–0.86 m median 1D errors. The band-limited
        // (1–5 kHz) channel estimate spreads each tap over several samples
        // and its first sidelobe sits right at the noise+λ threshold, so
        // errors of a few tens of centimetres are inherent to the method.
        assert!(err_samples < 18.0, "error {err_samples} samples");
        assert!(est.validation > 0.5);
    }

    #[test]
    fn attenuated_direct_path_with_strong_echo_still_resolves() {
        let p = RangingPreamble::default_paper().unwrap();
        let truth = 6000;
        // Direct path clearly weaker than the echo 150 samples later (the
        // echo is what plain correlation locks onto), but still above the
        // noise-floor + λ threshold of the direct-path search.
        let (s1, s2) = dual_streams(&p, truth, 1, 0.45, 1.0, 0.01, 2);
        let est = estimate_arrival_dual(&s1, &s2, &p, &RangingConfig::default()).unwrap();
        let err_samples = (est.arrival_sample - truth as f64).abs();
        assert!(err_samples < 10.0, "error {err_samples} samples");
    }

    #[test]
    fn dual_mic_beats_single_mic_with_asymmetric_spur() {
        // Add an early spurious burst to mic 1 only; the single-mic estimate
        // is pulled early while the dual-mic estimate stays near the truth.
        let p = RangingPreamble::default_paper().unwrap();
        let truth = 5000;
        let (mut s1, s2) = dual_streams(&p, truth, 2, 0.8, 0.4, 0.01, 3);
        for k in 0..300 {
            s1[truth - 180 + k] += 0.5 * ((k as f64) * 0.9).sin();
        }
        let dual = estimate_arrival_dual(&s1, &s2, &p, &RangingConfig::default()).unwrap();
        let single_cfg = RangingConfig {
            mic_mode: MicMode::FirstOnly,
            ..RangingConfig::default()
        };
        let single = estimate_arrival_dual(&s1, &s2, &p, &single_cfg).unwrap();
        let dual_err = (dual.arrival_sample - truth as f64).abs();
        let single_err = (single.arrival_sample - truth as f64).abs();
        assert!(
            dual_err <= single_err,
            "dual {dual_err} vs single {single_err}"
        );
        assert!(dual_err < 20.0);
    }

    #[test]
    fn mic_sign_reflects_arrival_order() {
        let p = RangingPreamble::default_paper().unwrap();
        let (s1, s2) = dual_streams(&p, 4000, 3, 1.0, 0.2, 0.005, 4);
        let est = estimate_arrival_dual(&s1, &s2, &p, &RangingConfig::default()).unwrap();
        // Mic 1 hears it first (mic 2 is delayed by +3 samples).
        assert_eq!(est.mic_sign(), 1);
        let (s1, s2) = dual_streams(&p, 4000, -3, 1.0, 0.2, 0.005, 5);
        let est = estimate_arrival_dual(&s1, &s2, &p, &RangingConfig::default()).unwrap();
        assert_eq!(est.mic_sign(), -1);
    }

    #[test]
    fn mismatched_stream_lengths_are_rejected() {
        let p = RangingPreamble::default_paper().unwrap();
        let s1 = vec![0.0; p.len() + 100];
        let s2 = vec![0.0; p.len() + 200];
        assert!(estimate_arrival_dual(&s1, &s2, &p, &RangingConfig::default()).is_err());
    }

    #[test]
    fn arrival_time_conversion() {
        let est = ArrivalEstimate {
            coarse_start: 4410,
            fine_start: 4154,
            tau_taps: 256.0,
            arrival_sample: 4410.0,
            los: LosEstimate {
                tau_taps: 256.0,
                tap_mic1: 256,
                tap_mic2: 256,
            },
            validation: 0.9,
        };
        assert!((est.arrival_time_s(44_100.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn distance_helpers() {
        // 20 ms one-way at 1500 m/s is 30 m.
        assert!((one_way_distance(1.0, 1.02, 1500.0).unwrap() - 30.0).abs() < 1e-9);
        assert!(one_way_distance(1.0, 0.9, 1500.0).is_err());
        assert!(one_way_distance(1.0, 2.0, 0.0).is_err());

        // Two-way: true distance 15 m => one-way 10 ms. Clock offsets cancel.
        let c = 1500.0;
        let tof = 15.0 / c;
        let a_tx = 100.0; // device A clock
        let b_rx = 7.3 + tof; // device B clock, arbitrary offset
        let b_tx = b_rx + 0.6; // replies 600 ms later
        let a_rx = a_tx + tof + 0.6 + tof;
        let d = two_way_distance(a_tx, a_rx, b_rx - 7.3 + 200.0, b_tx - 7.3 + 200.0, c).unwrap();
        assert!((d - 15.0).abs() < 1e-9, "d = {d}");
        assert!(two_way_distance(0.0, 0.1, 0.0, 0.3, c).is_err());
        assert!(two_way_distance(0.0, 1.0, 0.0, 0.5, -1.0).is_err());
    }

    #[test]
    fn single_stream_wrapper_works() {
        let p = RangingPreamble::default_paper().unwrap();
        let (s1, _) = dual_streams(&p, 3000, 0, 1.0, 0.2, 0.01, 6);
        let est = estimate_arrival_single(&s1, &p, &RangingConfig::default()).unwrap();
        assert!((est.arrival_sample - 3000.0).abs() < 20.0);
    }
}
