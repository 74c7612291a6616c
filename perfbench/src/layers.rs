//! Re-timing a localization round's inner layers from outside.
//!
//! `CellExecution::step` covers the runner, the session, the protocol, the
//! ranging DSP and the solver in one call. In the traced run, each step is
//! followed by [`RoundProbe::retime`], which replays the same round through
//! a shadow [`Session`] (so the session's own outputs — the distance
//! matrix, the reported depths — are at hand) and then calls each inner
//! layer's public entry point on that round's inputs: the protocol engine,
//! the ranging stages on the round's recorded captures, and the solver on
//! the round's distance matrix. The re-timed calls are recorded as
//! children of the shadow session's span, so the session's self time is
//! what is left of the round once the layers are taken out.

use crate::stats;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;
use uw_core::config::NumericPath;
use uw_core::observers::{ReceptionModel, StatisticalObserver};
use uw_core::session::leader_link_trials;
use uw_core::waveform::LinkAudioSource;
use uw_core::Session;
use uw_dsp::{F32MatchedFilter, MatchedFilter, Q15MatchedFilter};
use uw_eval::{EvalCell, RoundSummary};
use uw_localization::ambiguity::geometric_side;
use uw_localization::matrix::WeightMatrix;
use uw_localization::outlier::{drop_hypotheses, DropEvidence};
use uw_localization::pipeline::{localize_with_evidence, truth_in_leader_frame, LocalizationInput};
use uw_localization::project::project_to_2d;
use uw_localization::smacof::smacof;
use uw_protocol::engine::{DeviceRoundState, ProtocolEngine};
use uw_protocol::latency::round_latency;
use uw_ranging::channel_est::ls_channel_estimate;
use uw_ranging::detect::detect_preamble;
use uw_ranging::los::dual_mic_los;
use uw_ranging::preamble::RangingPreamble;
use uw_ranging::ranging::RangingConfig;

/// The three numeric paths, in the order `field-rounds` cycles them.
pub const PATHS: [NumericPath; 3] = [NumericPath::F64, NumericPath::F32, NumericPath::Q15];

/// The `uw-dsp` matched filter of one numeric path.
pub enum DspFilter {
    /// Double-precision overlap-save correlator.
    F64(Box<MatchedFilter>),
    /// Single-precision correlator.
    F32(Box<F32MatchedFilter>),
    /// Fixed-point correlator.
    Q15(Box<Q15MatchedFilter>),
}

impl DspFilter {
    fn correlate(&self, signal: &[f64]) -> Result<Vec<f64>, uw_dsp::DspError> {
        match self {
            DspFilter::F64(f) => f.correlate_normalized(signal),
            DspFilter::F32(f) => f.correlate_normalized(signal),
            DspFilter::Q15(f) => f.correlate_normalized(signal),
        }
    }
}

/// The waveform assets of one numeric path: the receive-side preamble
/// (with its pooled filter and plans) and a bare `uw-dsp` matched filter
/// over the same waveform. The traced run builds its own copies after its
/// set-up, to call the ranging and DSP layers directly.
pub struct PathAssets {
    /// Numeric path the assets serve.
    pub path: NumericPath,
    /// Paper-default preamble built for the path.
    pub preamble: RangingPreamble,
    /// The path's matched filter, called directly.
    pub filter: DspFilter,
}

impl PathAssets {
    /// Builds the assets of every numeric path.
    pub fn build_all() -> Vec<PathAssets> {
        PATHS
            .iter()
            .map(|&path| {
                let preamble =
                    RangingPreamble::new_with_path(uw_dsp::ofdm::OfdmConfig::default(), path)
                        .expect("paper-default preamble parameters are valid");
                let w = &preamble.waveform;
                let filter = match path {
                    NumericPath::F64 => {
                        DspFilter::F64(Box::new(MatchedFilter::new(w).expect("f64 filter")))
                    }
                    NumericPath::F32 => {
                        DspFilter::F32(Box::new(F32MatchedFilter::new(w).expect("f32 filter")))
                    }
                    NumericPath::Q15 => {
                        DspFilter::Q15(Box::new(Q15MatchedFilter::new(w).expect("q15 filter")))
                    }
                };
                PathAssets {
                    path,
                    preamble,
                    filter,
                }
            })
            .collect()
    }
}

/// Shadow state that lets one cell's rounds be re-timed layer by layer.
pub struct RoundProbe {
    shadow: Session,
    evidence: DropEvidence,
}

impl RoundProbe {
    /// A probe for `cell`, positioned before its first round.
    pub fn new(cell: &EvalCell) -> Self {
        let mut shadow =
            Session::new(cell.scenario.config().clone()).expect("cell config is valid");
        if let Some(replay) = &cell.replay {
            shadow.set_audio_source(std::sync::Arc::clone(replay) as _);
        }
        Self {
            shadow,
            evidence: DropEvidence::new(),
        }
    }

    /// Records the `CellExecution::step` that ran `summary`'s round of
    /// `cell` between `started` and `ended`, then re-times that round's
    /// inner layers and counts its links, failures, hypotheses and drops.
    /// `assets` must hold the cell's numeric path when the cell replays
    /// recorded audio.
    pub fn retime(
        &mut self,
        tracer: &mut Tracer,
        cell: &EvalCell,
        summary: &RoundSummary,
        (started, ended): (Instant, Instant),
        assets: &[PathAssets],
    ) {
        let step = tracer.record("uw-eval.runner.step", started, ended, None);
        tracer.count("uw-localization.rounds", 1);
        tracer.count("uw-localization.dropped_links", summary.dropped_links);
        let round = summary.round;
        let config = cell.scenario.config();
        let network = cell.scenario.network();
        let (outcome, run) = tracer.time("uw-core.session.run", Some(step), || {
            self.shadow.run(network)
        });
        let Ok(outcome) = outcome else {
            return;
        };

        // The session's per-round seed and mid-round reference instant.
        let seed = config
            .seed
            .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mid_s = round_latency(config.n_devices, config.report_bps)
            .expect("valid group size")
            .acoustic_s
            / 2.0;

        // Protocol layer: the TDMA timestamp exchange.
        let devices: Vec<DeviceRoundState> = network
            .devices()
            .iter()
            .map(|d| DeviceRoundState {
                id: d.id,
                position: d.position_at(mid_s),
                clock: d.clock,
            })
            .collect();
        let schedule = config.schedule().expect("valid schedule");
        let _ = tracer.time("uw-protocol.round", Some(run), || {
            let engine = ProtocolEngine::new(schedule, network.sound_speed()).expect("engine");
            let mut observer = StatisticalObserver::new(
                network,
                ReceptionModel::default(),
                config.packet_loss_prob,
                StdRng::seed_from_u64(seed ^ 0xABCD),
            );
            engine.run_round(&devices, &mut observer)
        });

        // Ranging layer (and the DSP under it) on the recorded captures.
        if let (Some(replay), Some(asset)) = (
            &cell.replay,
            assets.iter().find(|a| a.path == config.numeric_path),
        ) {
            let slug = asset.path.slug();
            let ranging = RangingConfig::default();
            let mut los_config = ranging.los;
            los_config.sound_speed = network.sound_speed();
            let trials = leader_link_trials(config, network, round, None).expect("link plan");
            for lt in &trials {
                let Some(capture) = replay.link_capture(round, lt.device) else {
                    continue;
                };
                tracer.count("uw-ranging.links", 1);
                let (mic1, mic2) = (&capture.mic1, &capture.mic2);
                if mic1.len() != mic2.len() {
                    // `estimate_arrival_dual` rejects such a pair outright.
                    tracer.count("uw-ranging.link_failures", 1);
                    continue;
                }
                let (detection, detect) =
                    tracer.time(format!("uw-ranging.detect.{slug}"), Some(run), || {
                        detect_preamble(mic1, &asset.preamble, &ranging.detector)
                    });
                let _ = tracer.time(format!("uw-dsp.correlate.{slug}"), Some(detect), || {
                    asset.filter.correlate(mic1)
                });
                let Ok(detection) = detection else {
                    tracer.count("uw-ranging.link_failures", 1);
                    continue;
                };
                let fine = detection
                    .start_sample
                    .saturating_sub(ranging.backoff_samples);
                let (channels, _) =
                    tracer.time(format!("uw-ranging.chan_est.{slug}"), Some(run), || {
                        ls_channel_estimate(mic1, &asset.preamble, fine).and_then(|h1| {
                            ls_channel_estimate(mic2, &asset.preamble, fine).map(|h2| (h1, h2))
                        })
                    });
                let Ok((h1, h2)) = channels else {
                    tracer.count("uw-ranging.link_failures", 1);
                    continue;
                };
                let (los, _) = tracer.time("uw-ranging.los", Some(run), || {
                    dual_mic_los(&h1.impulse_magnitude, &h2.impulse_magnitude, &los_config)
                });
                if los.is_err() {
                    tracer.count("uw-ranging.link_failures", 1);
                }
            }
        }

        // Localization layer on the round's own distance matrix.
        let truth = truth_in_leader_frame(&network.positions_at(mid_s));
        let input = LocalizationInput {
            distances: outcome.distances.clone(),
            depths: outcome.positions.iter().map(|p| p.z).collect(),
            pointing_azimuth_rad: network.leader_pointing_azimuth(mid_s).expect("pointing"),
            side_signs: (0..config.n_devices)
                .map(|i| (i >= 2).then(|| geometric_side(&truth, i)))
                .collect(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let evidence = self.evidence.clone();
        let _ = tracer.time("uw-localization.solve", Some(run), || {
            localize_with_evidence(&input, &config.localizer, Some(&evidence), &mut rng)
        });
        // Stage diagnostics, re-run on the same projected matrix. They are
        // top-level spans: the solve above already contains this work.
        if let Ok(planar) = project_to_2d(&input.distances, &input.depths) {
            let weights = WeightMatrix::from_distances(&planar);
            let _ = tracer.time("uw-localization.smacof", None, || {
                smacof(&planar, &weights, &config.localizer.smacof, &mut rng)
            });
            let (hypotheses, _) = tracer.time("uw-localization.drop_hypotheses", None, || {
                drop_hypotheses(
                    &planar,
                    &config.localizer.smacof,
                    &config.localizer.outlier,
                    Some(&evidence),
                    &mut rng,
                )
            });
            tracer.count(
                "uw-localization.hypotheses",
                hypotheses.map_or(0, |h| h.len()),
            );
        }
        self.evidence
            .observe_round(&outcome.localization.dropped_links);
    }
}

/// Every per-layer metric, at zero: a layer a workload never calls reports
/// no work.
pub fn zero_table() -> BTreeMap<String, f64> {
    let mut names: Vec<String> = [
        "uw-audio.decode_msamples_per_s",
        "uw-audio.scan_msamples_per_s",
        "uw-eval.import.scan_ms",
        "uw-eval.import.load_ms",
        "uw-eval.import.burst_match_ratio",
        "uw-eval.import.skew_err_ppm_max",
        "uw-ranging.los_ms",
        "uw-ranging.link_fail_ratio",
        "uw-ranging.hybrid_link_fail_ratio",
        "uw-localization.solve_ms_p50",
        "uw-localization.solve_ms_p95",
        "uw-localization.smacof_ms",
        "uw-localization.hypotheses_per_round",
        "uw-localization.dropped_links_per_round",
        "uw-protocol.round_ms",
        "uw-core.session.self_ms",
        "uw-eval.cell_ms_p50",
        "uw-serve.queue_wait_ms_p50",
        "uw-serve.queue_wait_ms_p95",
        "uw-serve.exec_ms_p50",
        "uw-serve.live_latency_ms_p50",
        "uw-serve.replay_latency_ms_p50",
        "uw-serve.wire.encode_us",
        "uw-serve.wire.decode_us",
        "uw-serve.wire.bytes_per_job",
        "uw-serve.steal_ratio",
        "loadgen.late_ms_p99",
        "trace.overhead_pct",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for path in PATHS {
        let slug = path.slug();
        names.push(format!("uw-dsp.correlate_ms.{slug}"));
        names.push(format!("uw-ranging.detect_ms.{slug}"));
        names.push(format!("uw-ranging.chan_est_ms.{slug}"));
    }
    names.into_iter().map(|n| (n, 0.0)).collect()
}

/// Fills the metrics every in-process round contributes: ranging and DSP
/// per link, protocol, session and solver per round, import stages per
/// campaign. Means of span self times unless the name says otherwise.
pub fn common_metrics(m: &mut BTreeMap<String, f64>, tracer: &Tracer) {
    let times = tracer.self_times_ms();
    let mean = |name: &str| times.get(name).map_or(0.0, |v| stats::mean(v));
    for path in PATHS {
        let slug = path.slug();
        m.insert(
            format!("uw-dsp.correlate_ms.{slug}"),
            mean(&format!("uw-dsp.correlate.{slug}")),
        );
        m.insert(
            format!("uw-ranging.detect_ms.{slug}"),
            mean(&format!("uw-ranging.detect.{slug}")),
        );
        m.insert(
            format!("uw-ranging.chan_est_ms.{slug}"),
            mean(&format!("uw-ranging.chan_est.{slug}")),
        );
    }
    m.insert("uw-ranging.los_ms".into(), mean("uw-ranging.los"));
    m.insert("uw-protocol.round_ms".into(), mean("uw-protocol.round"));
    m.insert(
        "uw-core.session.self_ms".into(),
        mean("uw-core.session.run"),
    );
    m.insert("uw-eval.import.scan_ms".into(), mean("uw-eval.import.scan"));
    m.insert("uw-eval.import.load_ms".into(), mean("uw-eval.import.load"));
    let solve = stats::sorted(times.get("uw-localization.solve").map_or(&[][..], |v| v));
    m.insert(
        "uw-localization.solve_ms_p50".into(),
        stats::percentile(&solve, 50.0).unwrap_or(0.0),
    );
    m.insert(
        "uw-localization.solve_ms_p95".into(),
        stats::tail_percentile(&solve, 95.0, stats::MIN_TAIL_SAMPLES).unwrap_or(0.0),
    );
    m.insert(
        "uw-localization.smacof_ms".into(),
        mean("uw-localization.smacof"),
    );
    let rounds = tracer.counter("uw-localization.rounds").max(1) as f64;
    m.insert(
        "uw-localization.hypotheses_per_round".into(),
        tracer.counter("uw-localization.hypotheses") as f64 / rounds,
    );
    m.insert(
        "uw-localization.dropped_links_per_round".into(),
        tracer.counter("uw-localization.dropped_links") as f64 / rounds,
    );
}
