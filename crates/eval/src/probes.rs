//! Probes: the headline numbers of the paper's waveform-level figures.
//!
//! The scenario matrix reproduces the network-scale figures. The 1D
//! ranging, detection, depth, SNR and battery figures are not network
//! rounds, so each of their headline numbers is computed here by a
//! probe: a plain `fn() -> Result<f64>` that runs the library at fixed
//! seeds derived from [`BASE_SEED`]. [`crate::guide::FIGURE_MAP`] names
//! every probe in a row of its own, the full `eval_matrix` run measures
//! them once, `--check` gates them, and `docs/EVALUATION.md` shows their
//! current values next to the cell rows.
//!
//! A probe fails, rather than skipping the trial, when any of its trials
//! fails; the Fig. 15 probes are the one exception, and gate their count
//! of failed pings in a row of their own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uw_channel::environment::Environment;
use uw_channel::propagate::{ChannelSimulator, PropagateOptions};
use uw_core::metrics::{percentile, BatteryModel};
use uw_core::prelude::{EnvironmentKind, Point3, Scenario, Session};
use uw_core::waveform::{
    detection_trial_fmcw, orientation_loss_db, repeated_trial_errors, run_pairwise_trial,
    DetectionTrialOutcome, PairwiseTrial, RangingScheme,
};
use uw_core::{Result, SystemError};
use uw_device::mobility::dock_sweep;
use uw_device::sensors::{DepthSensor, DepthSensorKind};
use uw_dsp::ofdm::{build_preamble, OfdmConfig};
use uw_dsp::spectrum::{mean_snr_db, per_subcarrier_snr};

/// The base seed of every probe's trials.
pub const BASE_SEED: u64 = 1;

/// Absolute errors of `n` waveform trials seeded from `seed`; an error if
/// any trial failed.
fn errors(trial: &PairwiseTrial, scheme: RangingScheme, n: usize, seed: u64) -> Result<Vec<f64>> {
    let (errors, failed) = repeated_trial_errors(trial, scheme, n, seed);
    if failed > 0 {
        return Err(failure(format!("{failed} of {n} {scheme:?} trials failed")));
    }
    Ok(errors)
}

fn failure(reason: String) -> SystemError {
    SystemError::Layer {
        layer: "probe",
        reason,
    }
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Fig. 11a: median |1D error| of 20 dual-microphone dock trials, 2.5 m
/// deep, at the `k`-th distance of the figure.
fn fig11_median(k: u64, distance_m: f64) -> Result<f64> {
    let trial = PairwiseTrial::at_distance(EnvironmentKind::Dock, distance_m, 2.5);
    let seed = BASE_SEED + 1000 * k;
    Ok(median(&errors(
        &trial,
        RangingScheme::DualMicOfdm,
        20,
        seed,
    )?))
}

/// Fig. 11a at 10 m (m).
pub fn fig11_median_10m() -> Result<f64> {
    fig11_median(0, 10.0)
}

/// Fig. 11a at 20 m (m).
pub fn fig11_median_20m() -> Result<f64> {
    fig11_median(1, 20.0)
}

/// Fig. 11a at 35 m (m).
pub fn fig11_median_35m() -> Result<f64> {
    fig11_median(2, 35.0)
}

/// The separations of the Fig. 12a detection trials (boathouse, 1 m deep).
const FIG12_DISTANCES_M: [f64; 3] = [10.0, 20.0, 28.0];

/// Fig. 12a: fraction of 36 FMCW power-threshold (10 dB) detection
/// trials at the boathouse whose outcome is `counted`: signal-present
/// trials 12 per distance, or as many noise-only trials.
fn fig12_fmcw_rate(signal: bool, counted: DetectionTrialOutcome) -> Result<f64> {
    let mut hits = 0usize;
    for (k, &d) in FIG12_DISTANCES_M.iter().enumerate() {
        for t in 0..12 {
            let (separation, seed) = if signal {
                (Some(d), BASE_SEED + (k * 12 + t) as u64)
            } else {
                (None, BASE_SEED + 9000 + (k * 12 + t) as u64)
            };
            let outcome = detection_trial_fmcw(EnvironmentKind::Boathouse, separation, 10.0, seed)?;
            hits += usize::from(outcome == counted);
        }
    }
    Ok(hits as f64 / (12 * FIG12_DISTANCES_M.len()) as f64)
}

/// Fig. 12a: the FMCW detector's false-negative rate at a 10 dB threshold.
pub fn fig12_fmcw_false_negative_rate() -> Result<f64> {
    fig12_fmcw_rate(true, DetectionTrialOutcome::NotDetected)
}

/// Fig. 12a: the FMCW detector's false-positive rate at a 10 dB threshold.
pub fn fig12_fmcw_false_positive_rate() -> Result<f64> {
    fig12_fmcw_rate(false, DetectionTrialOutcome::Detected)
}

/// Fig. 12b: mean |1D error| of 12 boathouse trials at 20 m, 1 m deep.
fn fig12_mean_20m(scheme: RangingScheme, seed_offset: u64) -> Result<f64> {
    let trial = PairwiseTrial::at_distance(EnvironmentKind::Boathouse, 20.0, 1.0);
    Ok(mean(&errors(
        &trial,
        scheme,
        12,
        BASE_SEED + seed_offset + 100,
    )?))
}

/// Fig. 12b: the dual-microphone ZC-OFDM pipeline at 20 m (m).
pub fn fig12_ours_mean_20m() -> Result<f64> {
    fig12_mean_20m(RangingScheme::DualMicOfdm, 0)
}

/// Fig. 12b: the BeepBeep chirp-correlation baseline at 20 m (m).
pub fn fig12_beepbeep_mean_20m() -> Result<f64> {
    fig12_mean_20m(RangingScheme::BeepBeep, 40_000)
}

/// Fig. 12b: the CAT FMCW baseline at 20 m (m).
pub fn fig12_cat_mean_20m() -> Result<f64> {
    fig12_mean_20m(RangingScheme::CatFmcw, 80_000)
}

/// Fig. 13a: median |1D error| of 15 dock trials 18 m apart with both
/// devices 5 m deep (m).
pub fn fig13_median_5m_depth() -> Result<f64> {
    let trial = PairwiseTrial::at_distance(EnvironmentKind::Dock, 18.0, 5.0);
    Ok(median(&errors(
        &trial,
        RangingScheme::DualMicOfdm,
        15,
        BASE_SEED + 700,
    )?))
}

/// Fig. 13b: mean |depth error| of the smartwatch gauge and the phone's
/// pressure sensor, 30 readings of each at every depth 0–9 m, drawn in
/// turn from one stream.
fn fig13_depth_errors() -> Result<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(BASE_SEED ^ 0x77);
    let watch = DepthSensor::new(DepthSensorKind::WatchDepthGauge);
    let phone = DepthSensor::new(DepthSensorKind::PhonePressure);
    let (mut watch_sum, mut phone_sum) = (0.0, 0.0);
    for depth in 0..=9 {
        let d = depth as f64;
        for _ in 0..30 {
            watch_sum += (watch.measure(d, &mut rng)? - d).abs();
            phone_sum += (phone.measure_via_pressure(d, &mut rng)? - d).abs();
        }
    }
    Ok((watch_sum / 300.0, phone_sum / 300.0))
}

/// Fig. 13b: the smartwatch depth gauge's mean error (m).
pub fn fig13_watch_depth_error() -> Result<f64> {
    Ok(fig13_depth_errors()?.0)
}

/// Fig. 13b: the phone pressure sensor's mean depth error (m).
pub fn fig13_phone_depth_error() -> Result<f64> {
    Ok(fig13_depth_errors()?.1)
}

/// Fig. 14a: median |1D error| of 12 dock trials at 20 m with the sender
/// turned to (`azimuth_deg`, `polar_deg`).
fn fig14_median(azimuth_deg: f64, polar_deg: f64, depth_m: f64, k: u64) -> Result<f64> {
    let mut trial = PairwiseTrial::at_distance(EnvironmentKind::Dock, 20.0, depth_m);
    trial.orientation_loss_db = orientation_loss_db(azimuth_deg, polar_deg);
    let seed = BASE_SEED + 300 * k;
    Ok(median(&errors(
        &trial,
        RangingScheme::DualMicOfdm,
        12,
        seed,
    )?))
}

/// Fig. 14a: sender rotated 90° in azimuth, 2.5 m deep (m).
pub fn fig14_rotated_median() -> Result<f64> {
    fig14_median(90.0, 180.0, 2.5, 1)
}

/// Fig. 14a: sender's speaker facing the surface, 1 m deep (m).
pub fn fig14_upward_median() -> Result<f64> {
    fig14_median(0.0, 0.0, 1.0, 3)
}

/// Fig. 15: |1D error| of a static receiver ranging a sender swept along
/// the dock at 32 and 56 cm/s, one preamble per second for 20 s each,
/// and the number of pings the ranging layer could not range. These are
/// the only probes that count failed trials instead of failing: 24 of the
/// 40 pings fail at every base seed (the sender leaves the receiver's mic
/// bisector, and unequal mic streams are rejected), so
/// [`fig15_unranged_pings`] gates that count and the error rows read the
/// pings that range. Any failure outside the ranging layer still fails.
fn fig15_sweeps() -> Result<(Vec<f64>, usize)> {
    let receiver = Point3::new(0.0, 0.0, 2.0);
    let (mut errors, mut unranged) = (Vec::with_capacity(40), 0);
    for (k, speed_cm_s) in [32.0, 56.0].into_iter().enumerate() {
        let trajectory = dock_sweep(Point3::new(5.0, 0.0, 2.0), speed_cm_s);
        for ping in 0..20 {
            let trial = PairwiseTrial {
                tx_position: trajectory.position_at(ping as f64),
                rx_position: receiver,
                ..PairwiseTrial::at_distance(EnvironmentKind::Dock, 0.0, 2.0)
            };
            let seed = BASE_SEED + (k * 20 + ping) as u64;
            match run_pairwise_trial(&trial, RangingScheme::DualMicOfdm, seed) {
                Ok(result) => errors.push(result.error_m.abs()),
                Err(SystemError::Layer {
                    layer: "ranging", ..
                }) => unranged += 1,
                Err(e) => return Err(e),
            }
        }
    }
    Ok((errors, unranged))
}

/// Fig. 15: median |1D error| of the moving pings that range (m).
pub fn fig15_moving_median() -> Result<f64> {
    Ok(median(&fig15_sweeps()?.0))
}

/// Fig. 15: 95th-percentile |1D error| of the moving pings that range (m).
pub fn fig15_moving_p95() -> Result<f64> {
    Ok(percentile(&fig15_sweeps()?.0, 95.0))
}

/// Fig. 15: how many of the 40 moving pings fail to range.
pub fn fig15_unranged_pings() -> Result<f64> {
    Ok(fig15_sweeps()?.1 as f64)
}

/// Fig. 19a: 95th-percentile 2D error over 25 dock rounds whose leader
/// link is occluded with a 6 m bias, with or without outlier detection.
fn fig19_occluded_p95(detection: bool) -> Result<f64> {
    let mut scenario = Scenario::dock_with_occlusion(BASE_SEED, 6.0);
    scenario.config_mut().localizer.disable_outlier_detection = !detection;
    let mut session = Session::new(scenario.config().clone())?;
    let errors: Vec<f64> = session
        .run_many(scenario.network(), 25)?
        .into_iter()
        .flat_map(|outcome| outcome.errors_2d)
        .collect();
    Ok(percentile(&errors, 95.0))
}

/// Fig. 19a: p95 2D error of the occluded dock with outlier detection (m).
pub fn fig19_occluded_p95_with_detection() -> Result<f64> {
    fig19_occluded_p95(true)
}

/// Fig. 19a: p95 2D error of the occluded dock without it (m).
pub fn fig19_occluded_p95_without_detection() -> Result<f64> {
    fig19_occluded_p95(false)
}

/// Fig. 22: mean per-subcarrier SNR of an 8-symbol preamble received at
/// the boathouse, both phones 1 m deep, at the `k`-th distance (dB). The
/// symbols are cut at the true arrival and the noise reference is the
/// capture's lead-in.
fn fig22_mean_snr(k: u64, distance_m: f64) -> Result<f64> {
    let config = OfdmConfig {
        n_symbols: 8,
        ..OfdmConfig::default()
    };
    let preamble = build_preamble(&config)?;
    let environment = Environment::preset(EnvironmentKind::Boathouse);
    let simulator = ChannelSimulator::new(environment, uw_dsp::SAMPLE_RATE)?;
    let mut rng = StdRng::seed_from_u64(BASE_SEED + k);
    let received = simulator.propagate(
        &preamble,
        &Point3::new(0.0, 0.0, 1.0),
        &Point3::new(distance_m, 0.0, 1.0),
        &PropagateOptions::default(),
        &mut rng,
    )?;
    let start = received.true_arrival_sample as usize;
    let block = config.symbol_len + config.cyclic_prefix;
    let symbols: Vec<Vec<f64>> = (0..config.n_symbols)
        .map(|i| {
            let s = start + i * block + config.cyclic_prefix;
            received.samples[s..s + config.symbol_len].to_vec()
        })
        .collect();
    let snrs = per_subcarrier_snr(&config, &symbols, &received.samples[..config.symbol_len])?;
    mean_snr_db(&snrs).ok_or_else(|| failure("no subcarrier SNR".into()))
}

/// Fig. 22: mean SNR at 10 m (dB).
pub fn fig22_mean_snr_10m() -> Result<f64> {
    fig22_mean_snr(0, 10.0)
}

/// Fig. 22: mean SNR at 28 m (dB).
pub fn fig22_mean_snr_28m() -> Result<f64> {
    fig22_mean_snr(2, 28.0)
}

/// Battery table: the Apple Watch Ultra's drain over 4.5 h of continuous
/// siren transmission (%).
pub fn battery_watch_drain_pct() -> Result<f64> {
    Ok(BatteryModel::apple_watch_ultra().drain(4.5, 1.0) * 100.0)
}

/// Battery table: the Galaxy S9's drain over 4.5 h of one preamble every
/// 3 s (%).
pub fn battery_phone_drain_pct() -> Result<f64> {
    Ok(BatteryModel::galaxy_s9().drain(4.5, 0.074) * 100.0)
}
