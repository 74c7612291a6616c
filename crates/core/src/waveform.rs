//! Waveform-level pairwise experiments.
//!
//! These helpers run the full §2.2 pipeline — preamble synthesis, image-
//! method channel, ambient and impulsive noise, detection with PN
//! validation, LS channel estimation and the dual-microphone direct-path
//! search — for a single transmitter/receiver pair. The benchmark figures
//! that study 1D ranging (Fig. 11, 12, 13, 14, 15) are generated from these
//! trials, and the statistical reception model used for network-scale
//! experiments is calibrated against them.

use crate::config::NumericPath;
use crate::{Result, SystemError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use uw_channel::environment::{Environment, EnvironmentKind};
use uw_channel::geometry::Point3;
use uw_channel::propagate::{ChannelSimulator, PropagateOptions};
use uw_device::device::MIC_SEPARATION_M;
use uw_device::sensors::Orientation;
use uw_dsp::SAMPLE_RATE;
use uw_ranging::baselines::ChirpBaseline;
use uw_ranging::preamble::RangingPreamble;
use uw_ranging::ranging::{estimate_arrival_dual, MicMode, RangingConfig};

/// The paper-default receive-side preamble every waveform trial shares:
/// its matched filter and symbol FFT plans are pooled internally, so
/// concurrent trials reuse them without serialising. Built once per
/// process **per numeric path** — a session's many exchanges, and all
/// parallel links within one round, reuse the same precomputed DSP state;
/// an f64 and a Q15 session in the same process each get their own
/// preamble (each path builds only its own execution state).
fn preamble_for(path: NumericPath) -> &'static RangingPreamble {
    static F64_PREAMBLE: OnceLock<RangingPreamble> = OnceLock::new();
    static F32_PREAMBLE: OnceLock<RangingPreamble> = OnceLock::new();
    static Q15_PREAMBLE: OnceLock<RangingPreamble> = OnceLock::new();
    let slot = match path {
        NumericPath::F64 => &F64_PREAMBLE,
        NumericPath::F32 => &F32_PREAMBLE,
        NumericPath::Q15 => &Q15_PREAMBLE,
    };
    slot.get_or_init(|| {
        RangingPreamble::new_with_path(uw_dsp::ofdm::OfdmConfig::default(), path)
            .expect("paper-default preamble parameters are valid")
    })
}

/// Forces construction of the process-wide waveform assets for a numeric
/// path (the shared [`RangingPreamble`] with its pooled matched filter and
/// symbol FFT plans). Building them takes tens of milliseconds; a serving
/// shard calls this when it first sees a hybrid-fidelity job on a path, so
/// the cost is paid predictably per shard instead of inside the first
/// job's first round. Idempotent and cheap once warm.
pub fn warm_assets(path: NumericPath) {
    let _ = preamble_for(path);
}

/// The transmitted preamble waveform for a numeric path, as the raw f64
/// sample sequence every device emits at the start of its TDMA slot.
/// This is the template a field-recording importer matched-filters a raw
/// capture against (see `uw_audio::burst`); exposing the shared
/// process-wide copy keeps the importer and the ranging hot path working
/// from bitwise-identical samples.
pub fn preamble_waveform(path: NumericPath) -> &'static [f64] {
    &preamble_for(path).waveform
}

/// The matched chirp baseline (BeepBeep/CAT comparisons). Pure f64 and
/// numeric-path independent, so it is shared by every trial.
fn baseline() -> &'static ChirpBaseline {
    static BASELINE: OnceLock<ChirpBaseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        ChirpBaseline::matched_to_preamble().expect("paper-default chirp parameters are valid")
    })
}

/// A rival dive group's transmission overlapping one capture: where the
/// interferer is, how loud it is, and when its preamble lands within the
/// victim's capture window. Injected by the fault layer
/// ([`crate::faults::FaultKind::Interference`]) and rendered by
/// [`synthesize_dual_mic`] via [`uw_channel::interference::mix_rival_into`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceSpec {
    /// Position of the rival transmitter.
    pub tx_position: Point3,
    /// Rival transmit amplitude relative to an in-group device (linear).
    pub source_level: f64,
    /// Seconds into the victim capture at which the rival's transmission
    /// begins.
    pub offset_s: f64,
    /// Seed of the interference stream's own RNG (kept separate from the
    /// victim capture's channel realisation).
    pub seed: u64,
}

/// Set-up of one waveform-level ranging trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairwiseTrial {
    /// Deployment environment.
    pub environment: EnvironmentKind,
    /// Transmitter position.
    pub tx_position: Point3,
    /// Receiver position (centre of the two microphones).
    pub rx_position: Point3,
    /// Receiver azimuth (orients the microphone baseline).
    pub rx_azimuth_rad: f64,
    /// Relative transmit amplitude (1.0 = Galaxy S9 at maximum volume).
    pub source_level: f64,
    /// Extra direct-path loss in dB (occlusion), 0 for a clear link.
    pub occlusion_db: f64,
    /// Extra transmission loss from the transmitter's orientation (dB).
    pub orientation_loss_db: f64,
    /// Numeric path of the receive-side DSP (detection + channel
    /// estimation): the `f64` oracle or the on-device Q15 path.
    pub numeric_path: NumericPath,
    /// Net transmitter-minus-receiver sample-clock skew in ppm: the
    /// synthesized capture is resampled by `1 + ppm·1e-6`
    /// ([`uw_dsp::resample::apply_ppm_skew`]), exactly the appendix's model
    /// of real speaker/microphone clock offsets. 0 for nominal clocks.
    pub clock_skew_ppm: f64,
    /// A rival group's overlapping transmission, if the fault layer
    /// scripted one for this round.
    pub interference: Option<InterferenceSpec>,
}

impl PairwiseTrial {
    /// A clear-path trial at a given horizontal separation and common depth
    /// in an environment, on the `f64` reference path.
    pub fn at_distance(environment: EnvironmentKind, separation_m: f64, depth_m: f64) -> Self {
        Self {
            environment,
            tx_position: Point3::new(0.0, 0.0, depth_m),
            rx_position: Point3::new(separation_m, 0.0, depth_m),
            rx_azimuth_rad: 0.0,
            source_level: 1.0,
            occlusion_db: 0.0,
            orientation_loss_db: 0.0,
            numeric_path: NumericPath::F64,
            clock_skew_ppm: 0.0,
            interference: None,
        }
    }

    /// The same trial on the chosen numeric path.
    pub fn with_numeric_path(self, numeric_path: NumericPath) -> Self {
        Self {
            numeric_path,
            ..self
        }
    }

    /// The same trial with a net tx-minus-rx clock skew (ppm).
    pub fn with_clock_skew_ppm(self, clock_skew_ppm: f64) -> Self {
        Self {
            clock_skew_ppm,
            ..self
        }
    }

    /// The same trial with a rival transmission mixed into the capture.
    pub fn with_interference(self, interference: InterferenceSpec) -> Self {
        Self {
            interference: Some(interference),
            ..self
        }
    }
}

/// Result of one waveform-level ranging trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Ground-truth distance from the transmitter to the first microphone (m).
    pub true_distance_m: f64,
    /// Estimated distance (m).
    pub estimated_distance_m: f64,
    /// Signed estimation error (m).
    pub error_m: f64,
    /// Sign of the inter-microphone arrival difference (+1 when microphone 1
    /// heard the signal first).
    pub mic_sign: i8,
}

/// Which arrival estimator a trial uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RangingScheme {
    /// The paper's dual-microphone ZC-OFDM pipeline.
    DualMicOfdm,
    /// Single-microphone ablation using only the first (bottom) microphone.
    BottomMicOnly,
    /// Single-microphone ablation using only the second (top) microphone.
    TopMicOnly,
    /// BeepBeep-style chirp correlation baseline.
    BeepBeep,
    /// CAT-style FMCW baseline.
    CatFmcw,
}

/// The two sample-aligned microphone streams a receiving device captured
/// for one ranging exchange — the unit the replay subsystem records to and
/// decodes from WAV (see `uw-audio` and `uw_eval::replay`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkCapture {
    /// First (bottom) microphone stream.
    pub mic1: Vec<f64>,
    /// Second (top) microphone stream (same length as `mic1`).
    pub mic2: Vec<f64>,
}

impl LinkCapture {
    /// Undoes a known sample-clock skew by resampling both microphone
    /// streams with the exact inverse ratio `1 / (1 + ppm·1e-6)` — what a
    /// real receiver does once the protocol has estimated the skew. A
    /// skewed capture run through `compensate_clock_ppm(ppm)` lands back
    /// on the nominal sample grid (up to linear-interpolation error), so
    /// the replay path can range against skew-recorded WAVs.
    pub fn compensate_clock_ppm(&self, ppm: f64) -> Result<LinkCapture> {
        if ppm == 0.0 {
            return Ok(self.clone());
        }
        let inverse = 1.0 / (1.0 + ppm * 1e-6);
        Ok(LinkCapture {
            mic1: uw_dsp::resample::resample(&self.mic1, inverse).map_err(SystemError::from)?,
            mic2: uw_dsp::resample::resample(&self.mic2, inverse).map_err(SystemError::from)?,
        })
    }

    /// Assembles a capture from a segment sliced out of a continuous
    /// field recording: two equal-length mic channels plus the device's
    /// estimated clock skew, which is compensated here so the returned
    /// capture sits on the nominal 44.1 kHz grid like a simulated one.
    /// At zero skew the two buffers are moved into the capture as they
    /// are. This is the seam the campaign importer (`uw_eval::import`)
    /// feeds ranging through.
    pub fn from_imported_segment(
        mic1: Vec<f64>,
        mic2: Vec<f64>,
        skew_ppm: f64,
    ) -> Result<LinkCapture> {
        if mic1.is_empty() || mic1.len() != mic2.len() {
            return Err(SystemError::InvalidConfig {
                reason: format!(
                    "imported segment channels must be non-empty and equal length, got {} and {}",
                    mic1.len(),
                    mic2.len()
                ),
            });
        }
        if !skew_ppm.is_finite() {
            return Err(SystemError::InvalidConfig {
                reason: format!("imported segment skew must be finite, got {skew_ppm}"),
            });
        }
        let capture = LinkCapture { mic1, mic2 };
        if skew_ppm == 0.0 {
            return Ok(capture);
        }
        capture.compensate_clock_ppm(skew_ppm)
    }
}

/// A provider of recorded microphone streams for the leader's links,
/// consulted by hybrid-fidelity sessions **instead of** the channel
/// simulator when installed via [`crate::session::Session::set_audio_source`].
/// Implementations must be cheap to query (the captures are typically
/// decoded once up front — see `uw_eval::replay::ReplayAudio`).
pub trait LinkAudioSource: Send + Sync + std::fmt::Debug {
    /// The capture for the leader ↔ `device` exchange of 0-based round
    /// `round`, or `None` when the recording does not contain it (which
    /// fails the round — replay is strict, never silently simulated).
    fn link_capture(&self, round: usize, device: usize) -> Option<&LinkCapture>;
}

/// Positions of the two microphones for a trial's receiver (perpendicular
/// to the receiver azimuth, [`MIC_SEPARATION_M`] apart).
fn mic_positions(trial: &PairwiseTrial) -> [Point3; 2] {
    let az = trial.rx_azimuth_rad;
    let dx = -az.sin() * MIC_SEPARATION_M / 2.0;
    let dy = az.cos() * MIC_SEPARATION_M / 2.0;
    [
        Point3::new(
            trial.rx_position.x - dx,
            trial.rx_position.y - dy,
            trial.rx_position.z,
        ),
        Point3::new(
            trial.rx_position.x + dx,
            trial.rx_position.y + dy,
            trial.rx_position.z,
        ),
    ]
}

/// Transmit amplitude of a trial (source level × orientation loss).
fn trial_gain(trial: &PairwiseTrial) -> f64 {
    trial.source_level
        * uw_channel::absorption::db_loss_to_amplitude(trial.orientation_loss_db.max(0.0))
}

/// Synthesizes the dual-microphone capture of one OFDM ranging exchange:
/// the preamble waveform propagated through the image-method channel to
/// both microphones, with noise. This is exactly the receive-side input
/// [`run_pairwise_trial`] feeds its estimator — split out so recordings
/// can be rendered to WAV (the "recorder") and so replayed captures go
/// through [`estimate_from_capture`] on the identical hot path. Channel
/// synthesis is pure `f64` regardless of the trial's numeric path: the
/// path only selects the receive-side DSP, so one capture serves both.
pub fn synthesize_dual_mic(trial: &PairwiseTrial, seed: u64) -> Result<LinkCapture> {
    let environment = Environment::preset(trial.environment);
    let simulator = ChannelSimulator::new(environment, SAMPLE_RATE).map_err(SystemError::from)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let preamble = preamble_for(NumericPath::F64);
    let gain = trial_gain(trial);
    let tx_wave: Vec<f64> = preamble.waveform.iter().map(|s| s * gain).collect();
    let options = PropagateOptions {
        occlusion_db: trial.occlusion_db,
        ..PropagateOptions::default()
    };
    let [rx1, rx2] = simulator
        .propagate_dual_mic(
            &tx_wave,
            &trial.tx_position,
            &mic_positions(trial),
            &options,
            &[1.0, 1.3],
            &mut rng,
        )
        .map_err(SystemError::from)?;
    let mut mic1 = rx1.samples;
    let mut mic2 = rx2.samples;
    // Fault-layer effects, applied in physical order: the rival group's
    // transmission arrives through the water (part of the acoustic field),
    // then the receiver's skewed ADC samples the field.
    if let Some(spec) = &trial.interference {
        let rival_wave: Vec<f64> = preamble
            .waveform
            .iter()
            .map(|s| s * spec.source_level)
            .collect();
        let mut rival_rng = StdRng::seed_from_u64(spec.seed);
        let mics = mic_positions(trial);
        for (mic, target) in mics.iter().zip([&mut mic1, &mut mic2]) {
            uw_channel::interference::mix_rival_into(
                &simulator,
                &rival_wave,
                &spec.tx_position,
                mic,
                spec.offset_s,
                1.0,
                target,
                &mut rival_rng,
            )
            .map_err(SystemError::from)?;
        }
    }
    if trial.clock_skew_ppm != 0.0 {
        mic1 = uw_dsp::resample::apply_ppm_skew(&mic1, trial.clock_skew_ppm)
            .map_err(SystemError::from)?;
        mic2 = uw_dsp::resample::apply_ppm_skew(&mic2, trial.clock_skew_ppm)
            .map_err(SystemError::from)?;
    }
    Ok(LinkCapture { mic1, mic2 })
}

/// Runs detection + LS channel estimation + the direct-path search on an
/// already-captured pair of microphone streams (synthesized or decoded
/// from a recording) and converts the arrival into a distance estimate.
/// The trial's [`NumericPath`] selects the `f64` or Q15 receive DSP — the
/// same dispatch a live session uses.
pub fn estimate_from_capture(trial: &PairwiseTrial, capture: &LinkCapture) -> Result<TrialResult> {
    estimate_from_capture_mode(trial, capture, MicMode::Both)
}

fn estimate_from_capture_mode(
    trial: &PairwiseTrial,
    capture: &LinkCapture,
    mic_mode: MicMode,
) -> Result<TrialResult> {
    let environment = Environment::preset(trial.environment);
    let sound_speed = environment.sound_speed();
    let preamble = preamble_for(trial.numeric_path);
    let mut config = RangingConfig {
        mic_mode,
        ..RangingConfig::default()
    };
    config.los.sound_speed = sound_speed;
    let est = estimate_arrival_dual(&capture.mic1, &capture.mic2, preamble, &config)
        .map_err(SystemError::from)?;
    // The transmit stream's sample 0 leaves the speaker at the same
    // instant the receive streams' sample `lead_in` is captured, so the
    // propagation delay in samples is the arrival minus the lead-in.
    let lead_in = PropagateOptions::default().lead_in_samples as f64;
    let estimated_arrival = (est.arrival_sample - lead_in) / SAMPLE_RATE;
    let estimated_distance = estimated_arrival * sound_speed;
    let true_distance = trial.tx_position.distance(&mic_positions(trial)[0]);
    Ok(TrialResult {
        true_distance_m: true_distance,
        estimated_distance_m: estimated_distance,
        error_m: estimated_distance - true_distance,
        mic_sign: est.mic_sign(),
    })
}

/// Runs one waveform-level ranging trial and returns the estimation error.
///
/// The transmission is a one-way broadcast with a known emission instant
/// (sample 0 of the transmit stream), so the distance follows directly from
/// the estimated arrival sample; the two-way protocol combination is
/// exercised separately by the session layer. The OFDM schemes are the
/// composition of [`synthesize_dual_mic`] and [`estimate_from_capture`].
pub fn run_pairwise_trial(
    trial: &PairwiseTrial,
    scheme: RangingScheme,
    seed: u64,
) -> Result<TrialResult> {
    let environment = Environment::preset(trial.environment);
    let simulator = ChannelSimulator::new(environment, SAMPLE_RATE).map_err(SystemError::from)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let mic1 = mic_positions(trial)[0];
    let gain = trial_gain(trial);
    let options = PropagateOptions {
        occlusion_db: trial.occlusion_db,
        ..PropagateOptions::default()
    };

    let sound_speed = simulator.sound_speed();
    let true_distance = trial.tx_position.distance(&mic1);

    let (estimated_arrival, mic_sign) = match scheme {
        RangingScheme::DualMicOfdm | RangingScheme::BottomMicOnly | RangingScheme::TopMicOnly => {
            let capture = synthesize_dual_mic(trial, seed)?;
            let mic_mode = match scheme {
                RangingScheme::DualMicOfdm => MicMode::Both,
                RangingScheme::BottomMicOnly => MicMode::FirstOnly,
                _ => MicMode::SecondOnly,
            };
            return estimate_from_capture_mode(trial, &capture, mic_mode);
        }
        RangingScheme::BeepBeep | RangingScheme::CatFmcw => {
            let baseline = baseline();
            let tx_wave: Vec<f64> = baseline.waveform.iter().map(|s| s * gain).collect();
            let received = simulator
                .propagate(&tx_wave, &trial.tx_position, &mic1, &options, &mut rng)
                .map_err(SystemError::from)?;
            let arrival = match scheme {
                RangingScheme::BeepBeep => baseline
                    .estimate_arrival_correlation(&received.samples)
                    .map_err(SystemError::from)?,
                _ => baseline
                    .estimate_arrival_fmcw(
                        &received.samples,
                        uw_ranging::baselines::DEFAULT_TH_SD_DB,
                    )
                    .map_err(SystemError::from)?,
            };
            ((arrival - options.lead_in_samples as f64) / SAMPLE_RATE, 0)
        }
    };

    let estimated_distance = estimated_arrival * sound_speed;
    Ok(TrialResult {
        true_distance_m: true_distance,
        estimated_distance_m: estimated_distance,
        error_m: estimated_distance - true_distance,
        mic_sign,
    })
}

/// Runs `n_trials` repetitions of a trial with different seeds and returns
/// the absolute errors of the successful ones together with the number of
/// trials that failed (no detection, or no direct path), so a caller
/// decides whether a failure is acceptable instead of never seeing it.
/// Trials are independent and fan out across cores; the shared
/// preamble's pooled DSP state keeps them from serialising on FFT
/// scratch.
pub fn repeated_trial_errors(
    trial: &PairwiseTrial,
    scheme: RangingScheme,
    n_trials: usize,
    base_seed: u64,
) -> (Vec<f64>, usize) {
    let errors: Vec<f64> = (0..n_trials)
        .into_par_iter()
        .map(|k| run_pairwise_trial(trial, scheme, base_seed.wrapping_add(k as u64)))
        .collect::<Vec<_>>()
        .into_iter()
        .filter_map(|r| r.ok().map(|r| r.error_m.abs()))
        .collect();
    let failed = n_trials - errors.len();
    (errors, failed)
}

/// Outcome of one detection trial (signal present or noise only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionTrialOutcome {
    /// The detector reported a preamble.
    Detected,
    /// The detector reported nothing.
    NotDetected,
}

/// Runs a signal-present detection trial of the paper's detector at the
/// given separation, returning whether the preamble was found.
pub fn detection_trial_ours(
    environment: EnvironmentKind,
    separation_m: f64,
    validation_threshold: f64,
    seed: u64,
) -> Result<DetectionTrialOutcome> {
    let env = Environment::preset(environment);
    let simulator = ChannelSimulator::new(env, SAMPLE_RATE).map_err(SystemError::from)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let preamble = preamble_for(NumericPath::F64);
    let tx = Point3::new(0.0, 0.0, 1.0);
    let rx = Point3::new(separation_m, 0.0, 1.0);
    let received = simulator
        .propagate(
            &preamble.waveform,
            &tx,
            &rx,
            &PropagateOptions::default(),
            &mut rng,
        )
        .map_err(SystemError::from)?;
    let config = uw_ranging::detect::DetectorConfig {
        validation_threshold,
        ..uw_ranging::detect::DetectorConfig::default()
    };
    Ok(
        match uw_ranging::detect::detect_preamble(&received.samples, preamble, &config) {
            Ok(_) => DetectionTrialOutcome::Detected,
            Err(_) => DetectionTrialOutcome::NotDetected,
        },
    )
}

/// Runs a noise-only detection trial (no preamble transmitted) for the
/// paper's detector.
pub fn noise_trial_ours(
    environment: EnvironmentKind,
    validation_threshold: f64,
    seed: u64,
) -> Result<DetectionTrialOutcome> {
    let env = Environment::preset(environment);
    let mut rng = StdRng::seed_from_u64(seed);
    let preamble = preamble_for(NumericPath::F64);
    let samples = uw_channel::noise::combined_noise(
        &env.noise,
        preamble.len() + 30_000,
        SAMPLE_RATE,
        &mut rng,
    );
    let config = uw_ranging::detect::DetectorConfig {
        validation_threshold,
        ..uw_ranging::detect::DetectorConfig::default()
    };
    Ok(
        match uw_ranging::detect::detect_preamble(&samples, preamble, &config) {
            Ok(_) => DetectionTrialOutcome::Detected,
            Err(_) => DetectionTrialOutcome::NotDetected,
        },
    )
}

/// Detection trials for the FMCW baseline (window-based power threshold, in
/// dB): signal-present when `separation_m` is `Some`, noise-only otherwise.
pub fn detection_trial_fmcw(
    environment: EnvironmentKind,
    separation_m: Option<f64>,
    threshold_db: f64,
    seed: u64,
) -> Result<DetectionTrialOutcome> {
    let env = Environment::preset(environment);
    let mut rng = StdRng::seed_from_u64(seed);
    let baseline = baseline();
    let samples = match separation_m {
        Some(d) => {
            let simulator = ChannelSimulator::new(env, SAMPLE_RATE).map_err(SystemError::from)?;
            let tx = Point3::new(0.0, 0.0, 1.0);
            let rx = Point3::new(d, 0.0, 1.0);
            simulator
                .propagate(
                    &baseline.waveform,
                    &tx,
                    &rx,
                    &PropagateOptions::default(),
                    &mut rng,
                )
                .map_err(SystemError::from)?
                .samples
        }
        None => uw_channel::noise::combined_noise(
            &env.noise,
            baseline.waveform.len() + 30_000,
            SAMPLE_RATE,
            &mut rng,
        ),
    };
    Ok(
        match baseline.detect_power_threshold(&samples, threshold_db) {
            Some(_) => DetectionTrialOutcome::Detected,
            None => DetectionTrialOutcome::NotDetected,
        },
    )
}

/// Extra transmission loss for a transmitter rotated away from the receiver
/// (used by the Fig. 14a orientation experiment).
pub fn orientation_loss_db(azimuth_deg: f64, polar_deg: f64) -> f64 {
    let off_axis = azimuth_deg.to_radians().abs().min(std::f64::consts::PI);
    let mut loss = Orientation::directivity_loss_db(off_axis);
    // Pointing the speaker straight up (polar 0° in the paper's upward test)
    // adds near-surface multipath; model the net effect as extra loss.
    if polar_deg.abs() < 45.0 {
        loss += 2.0;
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_mic_trial_is_submetre_at_short_range() {
        let trial = PairwiseTrial::at_distance(EnvironmentKind::Dock, 10.0, 2.5);
        let result = run_pairwise_trial(&trial, RangingScheme::DualMicOfdm, 1).unwrap();
        assert!((result.true_distance_m - 10.0).abs() < 0.1);
        assert!(result.error_m.abs() < 1.0, "error {}", result.error_m);
    }

    #[test]
    fn q15_trial_tracks_the_f64_oracle() {
        let trial = PairwiseTrial::at_distance(EnvironmentKind::Dock, 12.0, 2.0);
        let f64_result = run_pairwise_trial(&trial, RangingScheme::DualMicOfdm, 11).unwrap();
        let q15_trial = trial.with_numeric_path(NumericPath::Q15);
        let q15_result = run_pairwise_trial(&q15_trial, RangingScheme::DualMicOfdm, 11).unwrap();
        // Same channel realisation (same seed), so the only difference is
        // the receive-side numeric path: the two estimates must land within
        // a few samples of sound travel of each other.
        let gap = (q15_result.estimated_distance_m - f64_result.estimated_distance_m).abs();
        assert!(gap < 0.35, "f64/q15 distance gap {gap} m");
        assert!(
            q15_result.error_m.abs() < 1.0,
            "q15 error {}",
            q15_result.error_m
        );
        assert_eq!(q15_result.mic_sign, f64_result.mic_sign);
    }

    #[test]
    fn f32_trial_tracks_the_f64_oracle_tightly() {
        let trial = PairwiseTrial::at_distance(EnvironmentKind::Dock, 12.0, 2.0);
        let f64_result = run_pairwise_trial(&trial, RangingScheme::DualMicOfdm, 11).unwrap();
        let f32_trial = trial.with_numeric_path(NumericPath::F32);
        let f32_result = run_pairwise_trial(&f32_trial, RangingScheme::DualMicOfdm, 11).unwrap();
        // Single precision carries ~100 dB of SQNR through the correlator,
        // far above the channel noise floor, so the f32 estimate should sit
        // much closer to the f64 oracle than the Q15 band allows.
        let gap = (f32_result.estimated_distance_m - f64_result.estimated_distance_m).abs();
        assert!(gap < 0.05, "f64/f32 distance gap {gap} m");
        assert!(
            f32_result.error_m.abs() < 1.0,
            "f32 error {}",
            f32_result.error_m
        );
        assert_eq!(f32_result.mic_sign, f64_result.mic_sign);
    }

    #[test]
    fn error_grows_with_separation_on_average() {
        let (near, near_failed) = repeated_trial_errors(
            &PairwiseTrial::at_distance(EnvironmentKind::Dock, 10.0, 2.5),
            RangingScheme::DualMicOfdm,
            6,
            10,
        );
        let (far, far_failed) = repeated_trial_errors(
            &PairwiseTrial::at_distance(EnvironmentKind::Dock, 35.0, 2.5),
            RangingScheme::DualMicOfdm,
            6,
            10,
        );
        assert_eq!((near.len() + near_failed, far.len() + far_failed), (6, 6));
        assert!(!near.is_empty() && !far.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Far trials should not be dramatically better than near ones.
        assert!(
            mean(&far) + 0.3 > mean(&near),
            "near {} far {}",
            mean(&near),
            mean(&far)
        );
    }

    #[test]
    fn occlusion_inflates_error() {
        // Mid-depth devices: with the direct path suppressed, the earliest
        // surviving reflection detours by ~2.5 m, which dominates the error.
        let clear = PairwiseTrial::at_distance(EnvironmentKind::Dock, 15.0, 4.5);
        let occluded = PairwiseTrial {
            occlusion_db: 35.0,
            ..clear.clone()
        };
        let (clear_errs, _) = repeated_trial_errors(&clear, RangingScheme::DualMicOfdm, 5, 42);
        let (occ_errs, _) = repeated_trial_errors(&occluded, RangingScheme::DualMicOfdm, 5, 42);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&occ_errs) > mean(&clear_errs),
            "occluded {} vs clear {}",
            mean(&occ_errs),
            mean(&clear_errs)
        );
    }

    #[test]
    fn detection_trials_behave() {
        assert_eq!(
            detection_trial_ours(EnvironmentKind::Dock, 15.0, 0.35, 3).unwrap(),
            DetectionTrialOutcome::Detected
        );
        assert_eq!(
            noise_trial_ours(EnvironmentKind::Boathouse, 0.35, 4).unwrap(),
            DetectionTrialOutcome::NotDetected
        );
        assert_eq!(
            detection_trial_fmcw(EnvironmentKind::Dock, Some(15.0), 3.0, 5).unwrap(),
            DetectionTrialOutcome::Detected
        );
    }

    #[test]
    fn clock_skew_roundtrip_restores_the_estimate() {
        let clear = PairwiseTrial::at_distance(EnvironmentKind::Dock, 12.0, 2.5);
        let skewed = clear.clone().with_clock_skew_ppm(400.0);
        let clear_cap = synthesize_dual_mic(&clear, 21).unwrap();
        let skew_cap = synthesize_dual_mic(&skewed, 21).unwrap();
        // The skew genuinely altered the capture (resampling changes the
        // sample count), so the compensation below is not vacuous.
        assert_ne!(clear_cap.mic1.len(), skew_cap.mic1.len());
        let compensated = skew_cap.compensate_clock_ppm(400.0).unwrap();
        let clear_est = estimate_from_capture(&clear, &clear_cap).unwrap();
        let comp_est = estimate_from_capture(&clear, &compensated).unwrap();
        let gap = (comp_est.estimated_distance_m - clear_est.estimated_distance_m).abs();
        assert!(gap < 0.1, "compensated/clear gap {gap} m");
        // Zero-ppm compensation is the identity.
        assert_eq!(clear_cap.compensate_clock_ppm(0.0).unwrap(), clear_cap);
    }

    #[test]
    fn zero_skew_import_segments_keep_their_buffers() {
        let mic1: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let mic2: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).cos()).collect();
        let input = LinkCapture {
            mic1: mic1.clone(),
            mic2: mic2.clone(),
        };
        let ptrs = (mic1.as_ptr(), mic2.as_ptr());
        let cap = LinkCapture::from_imported_segment(mic1, mic2, 0.0).unwrap();
        assert_eq!((cap.mic1.as_ptr(), cap.mic2.as_ptr()), ptrs);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cap.mic1), bits(&input.mic1));
        assert_eq!(bits(&cap.mic2), bits(&input.mic2));
        // Any other skew still resamples.
        let skewed =
            LinkCapture::from_imported_segment(input.mic1.clone(), input.mic2.clone(), 150.0)
                .unwrap();
        assert_eq!(skewed, input.compensate_clock_ppm(150.0).unwrap());
    }

    #[test]
    fn interference_perturbs_the_capture_deterministically() {
        let clear = PairwiseTrial::at_distance(EnvironmentKind::Dock, 15.0, 2.5);
        let spec = InterferenceSpec {
            tx_position: Point3::new(40.0, 25.0, 3.0),
            source_level: 1.0,
            offset_s: 0.2,
            seed: 77,
        };
        let jammed = clear.clone().with_interference(spec);
        let clear_cap = synthesize_dual_mic(&clear, 5).unwrap();
        let a = synthesize_dual_mic(&jammed, 5).unwrap();
        let b = synthesize_dual_mic(&jammed, 5).unwrap();
        assert_eq!(a, b);
        // Same channel realisation + extra rival energy: same length,
        // different samples on both microphones.
        assert_eq!(a.mic1.len(), clear_cap.mic1.len());
        assert_ne!(a.mic1, clear_cap.mic1);
        assert_ne!(a.mic2, clear_cap.mic2);
    }

    #[test]
    fn orientation_loss_is_monotone_in_azimuth() {
        let facing = orientation_loss_db(0.0, 180.0);
        let side = orientation_loss_db(90.0, 180.0);
        let behind = orientation_loss_db(180.0, 180.0);
        assert!(facing < side && side < behind);
        // Upward-facing adds extra loss.
        assert!(orientation_loss_db(0.0, 0.0) > facing);
    }
}
