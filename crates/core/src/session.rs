//! One localization round, end to end.
//!
//! [`Session::run`] reproduces what the leader's device does when the diver
//! taps "locate my group":
//!
//! 1. run the distributed timestamp protocol over the acoustic channel,
//! 2. collect the report payloads (timestamps + depths) from every device,
//! 3. build the pairwise distance matrix,
//! 4. project to 2D with the reported depths, solve the topology with
//!    SMACOF + outlier detection, resolve rotation with the leader's
//!    pointing direction and flipping with the dual-microphone votes,
//! 5. report every diver's 3D position relative to the leader.
//!
//! Ground truth is available from the simulated network, so the outcome
//! also carries the per-device 2D localization errors and per-link ranging
//! errors that the evaluation figures plot.

use crate::config::{Fidelity, SystemConfig};
use crate::faults::{FaultSchedule, RoundFailureReason};
use crate::network::DiveNetwork;
use crate::observers::{ReceptionModel, StatisticalObserver};
use crate::waveform::{
    estimate_from_capture, run_pairwise_trial, InterferenceSpec, LinkAudioSource, PairwiseTrial,
    RangingScheme,
};
use crate::{Result, SystemError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use uw_channel::geometry::Point3;
use uw_localization::ambiguity::geometric_side;
use uw_localization::matrix::{DistanceMatrix, Vec2};
use uw_localization::outlier::DropEvidence;
use uw_localization::pipeline::{
    localization_errors_2d, localize_with_evidence, truth_in_leader_frame, LocalizationInput,
    LocalizationOutput,
};
use uw_protocol::engine::{DeviceRoundState, FnObserver, ProtocolEngine, SyncSource};
use uw_protocol::latency::{round_latency, RoundLatency};

/// Result of one localization session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// Estimated 3D positions relative to the leader (index = device ID).
    pub positions: Vec<Point3>,
    /// Estimated horizontal positions.
    pub positions_2d: Vec<Vec2>,
    /// Pairwise distance matrix measured by the protocol.
    pub distances: DistanceMatrix,
    /// Full localization solver output.
    pub localization: LocalizationOutput,
    /// Per-device 2D localization error against ground truth, excluding the
    /// leader (index 0 ↔ device 1).
    pub errors_2d: Vec<f64>,
    /// Per-link absolute ranging errors (m) for the links the protocol
    /// measured.
    pub ranging_errors: Vec<f64>,
    /// Latency model of the round.
    pub latency: RoundLatency,
    /// Whether the flipping decision matches the ground-truth chirality.
    pub flipping_correct: bool,
    /// How each device synchronised during the round.
    pub sync_sources: Vec<SyncSource>,
    /// Devices that were silent this round (device churn): they are
    /// excluded from the solve; their horizontal state (`positions_2d`,
    /// `positions` x/y, `errors_2d`) is NaN, while `positions[i].z` keeps
    /// the last depth report.
    pub silent_devices: Vec<usize>,
    /// Links (full device indices) the session's cross-round
    /// [`DropEvidence`] considers persistently occluded after this round:
    /// dropped by Algorithm 1 in at least two rounds and at least half of
    /// all rounds so far. Empty until a static occlusion has recurred.
    pub persistent_dropped_links: Vec<(usize, usize)>,
}

/// What a round observer tells an observed run to do next.
///
/// Returned by the callback of [`Session::run_observed`] after each round:
/// [`RoundControl::Continue`] keeps the session going, [`RoundControl::Stop`]
/// ends the run early (cooperative cancellation — the current round always
/// finishes; sessions are never torn down mid-round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundControl {
    /// Run the next round.
    Continue,
    /// Stop after this round (the observed run returns what it has).
    Stop,
}

/// One leader-link waveform exchange of a hybrid round: which device
/// transmits, the fully-specified [`PairwiseTrial`], and the per-link seed
/// driving the channel realisation. Produced by [`leader_link_trials`] —
/// the *same* plan a live [`Session::run`] executes, exposed so the
/// replay recorder (`uw_eval::replay`) renders byte-identical captures.
#[derive(Debug, Clone)]
pub struct LeaderLinkTrial {
    /// The non-leader device of the exchange.
    pub device: usize,
    /// The trial (positions at mid-round, occlusion, numeric path).
    pub trial: PairwiseTrial,
    /// Seed of the channel realisation for this link.
    pub seed: u64,
}

/// Per-round session seed: the configured seed advanced along a
/// Weyl-sequence so every round sees a fresh, reproducible stream.
fn round_seed(config: &SystemConfig, round_index: usize) -> u64 {
    config
        .seed
        .wrapping_add((round_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Deterministic rival-transmission spec for an interference round: the
/// rival transmitter's placement, level and timing are pure functions of
/// the schedule seed and the round index (via [`FaultSchedule::unit_draw`]),
/// so live runs, recordings and replays all see the same jammer.
fn interference_spec_for(
    faults: &FaultSchedule,
    round_index: usize,
    leader_position: &Point3,
) -> Option<InterferenceSpec> {
    let gain_db = faults.interference_gain_db(round_index)?;
    let stream = (round_index as u64) << 3;
    let azimuth = std::f64::consts::TAU * faults.unit_draw(stream);
    let range_m = 25.0 + 20.0 * faults.unit_draw(stream | 1);
    let depth_m = 1.0 + 1.5 * faults.unit_draw(stream | 2);
    let offset_s = 0.05 + 0.4 * faults.unit_draw(stream | 3);
    Some(InterferenceSpec {
        tx_position: Point3::new(
            leader_position.x + range_m * azimuth.cos(),
            leader_position.y + range_m * azimuth.sin(),
            depth_m,
        ),
        source_level: 10f64.powf(gain_db / 20.0),
        offset_s,
        seed: faults.seed ^ 0x1A7E ^ ((round_index as u64) << 16),
    })
}

/// The waveform exchanges a hybrid-fidelity session runs on the leader's
/// links in 0-based round `round_index`: one trial per audible, non-missing
/// non-leader device, with positions evaluated at mid-round and the same
/// per-link seeds [`Session::run`] uses. When a [`FaultSchedule`] is
/// supplied, its effects are baked into the plan exactly as a live session
/// applies them: schedule-silenced and schedule-dropped links are skipped,
/// net tx-minus-leader clock skew is attached to each trial, and an active
/// interference event attaches the round's rival-transmission spec.
/// Deterministic in `(config, network, round_index, faults)`.
pub fn leader_link_trials(
    config: &SystemConfig,
    network: &DiveNetwork,
    round_index: usize,
    faults: Option<&FaultSchedule>,
) -> Result<Vec<LeaderLinkTrial>> {
    let latency = round_latency(config.n_devices, config.report_bps)?;
    let round_mid_s = latency.acoustic_s / 2.0;
    let truth_positions = network.positions_at(round_mid_s);
    let rx_azimuth_rad = network.leader_pointing_azimuth(round_mid_s)?;
    let seed = round_seed(config, round_index);
    let interference =
        faults.and_then(|f| interference_spec_for(f, round_index, &truth_positions[0]));
    Ok((1..config.n_devices)
        .filter(|&other| {
            !network.device_silent_in_round(other, round_index)
                && !matches!(
                    network.link_condition(0, other),
                    Some(crate::network::LinkCondition::Missing)
                )
                && !faults.is_some_and(|f| {
                    f.device_silent(other, round_index) || f.drops_packet(round_index, other, 0)
                })
        })
        .map(|other| {
            let occlusion_db = match network.link_condition(0, other) {
                Some(crate::network::LinkCondition::Occluded { .. }) => 35.0,
                _ => 0.0,
            };
            LeaderLinkTrial {
                device: other,
                trial: PairwiseTrial {
                    environment: network.environment().kind,
                    tx_position: truth_positions[other],
                    rx_position: truth_positions[0],
                    rx_azimuth_rad,
                    source_level: network.devices()[other].model.source_level(),
                    occlusion_db,
                    orientation_loss_db: 0.0,
                    numeric_path: config.numeric_path,
                    clock_skew_ppm: faults.map_or(0.0, |f| {
                        f.clock_skew_ppm(other, round_index) - f.clock_skew_ppm(0, round_index)
                    }),
                    interference,
                },
                seed: seed ^ (other as u64) << 8,
            }
        })
        .collect())
}

/// A configured localization system, ready to run rounds.
#[derive(Debug, Clone)]
pub struct Session {
    config: SystemConfig,
    rounds_run: usize,
    /// Recorded leader-link audio; when set, hybrid rounds estimate from
    /// these captures instead of synthesizing the channel.
    audio_source: Option<Arc<dyn LinkAudioSource>>,
    /// Scripted faults injected into every round; `None` (or an empty
    /// schedule) runs the clean scenario.
    fault_schedule: Option<FaultSchedule>,
    /// Cross-round outlier-drop evidence (full device indices): which links
    /// Algorithm 1 dropped in completed rounds. Projected onto the round's
    /// active devices and fed to the drop-validation pass so a static
    /// occlusion converges instead of being re-decided from scratch.
    drop_evidence: DropEvidence,
}

impl Session {
    /// Creates a session from a configuration.
    pub fn new(config: SystemConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            rounds_run: 0,
            audio_source: None,
            fault_schedule: None,
            drop_evidence: DropEvidence::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of rounds run so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// The session's accumulated cross-round outlier-drop evidence, in full
    /// device indices. Grows by one observed round per *successful*
    /// [`Session::run`]; failed rounds contribute nothing.
    pub fn drop_evidence(&self) -> &DropEvidence {
        &self.drop_evidence
    }

    /// Installs a recorded audio source for the leader's links: from the
    /// next round on, hybrid fidelity runs detection and channel
    /// estimation on the source's captures — decoded WAV recordings —
    /// instead of simulator output, on whichever [`crate::config::NumericPath`]
    /// the configuration selects. Replay is strict: a round whose capture
    /// is missing from the source fails rather than silently falling back
    /// to synthesis. Statistical-fidelity sessions never consult the
    /// source (the statistical model processes no waveforms).
    pub fn set_audio_source(&mut self, source: Arc<dyn LinkAudioSource>) {
        self.audio_source = Some(source);
    }

    /// Installs a [`FaultSchedule`]: from the next round on, its active
    /// events inject packet loss, churn, clock skew, leader failover and
    /// cross-network interference into every layer the session touches.
    /// The schedule is validated against the configured group size. An
    /// empty schedule is bitwise-identical to none at all — fault effects
    /// never perturb the session's own RNG streams (loss draws are keyed
    /// by the schedule seed, see [`FaultSchedule::drops_packet`]).
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) -> Result<()> {
        schedule.validate(self.config.n_devices)?;
        self.fault_schedule = Some(schedule);
        Ok(())
    }

    /// The installed fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.fault_schedule.as_ref()
    }

    /// Removes the fault schedule (subsequent rounds run clean).
    pub fn clear_fault_schedule(&mut self) {
        self.fault_schedule = None;
    }

    /// Runs one localization round over a network. Each call advances the
    /// session's RNG stream so repeated rounds see fresh noise.
    ///
    /// A round an installed [`FaultSchedule`] (or the network's own churn)
    /// makes unsolvable returns [`SystemError::RoundFailed`] with a
    /// structured [`RoundFailureReason`] — the session itself stays usable
    /// and `rounds_run` still advances, so later rounds line up with the
    /// schedule's windows.
    pub fn run(&mut self, network: &DiveNetwork) -> Result<SessionOutcome> {
        if network.device_count() != self.config.n_devices {
            return Err(SystemError::InvalidConfig {
                reason: format!(
                    "network has {} devices but the configuration expects {}",
                    network.device_count(),
                    self.config.n_devices
                ),
            });
        }
        let round_index = self.rounds_run as u64;
        let round = round_index as usize;
        self.rounds_run += 1;
        let faults = self.fault_schedule.as_ref().filter(|f| !f.is_empty());
        // Device churn: devices that have fallen silent by this round —
        // through the network's own churn model or a scheduled fault — are
        // cut out of the physical layer entirely and later excluded from
        // the topology solve. Rounds the faults make unsolvable fail
        // *gracefully* with a structured reason: the session stays usable
        // and later rounds may succeed once the fault window closes.
        let silent: Vec<bool> = (0..self.config.n_devices)
            .map(|i| {
                network.device_silent_in_round(i, round)
                    || faults.is_some_and(|f| f.device_silent(i, round))
            })
            .collect();
        let silent_devices: Vec<usize> =
            (0..self.config.n_devices).filter(|&i| silent[i]).collect();
        let live = self.config.n_devices - silent_devices.len();
        if live < 3 {
            return Err(SystemError::RoundFailed {
                round,
                reason: RoundFailureReason::TooFewLiveDevices { live, required: 3 },
            });
        }
        if silent[0] {
            // Device 0 initiates every protocol round; without it nobody
            // syncs and no distances exist (see uw_protocol::engine).
            return Err(SystemError::RoundFailed {
                round,
                reason: RoundFailureReason::LeaderSilent,
            });
        }
        if silent[1] {
            // The leader points at device 1 to anchor the frame's rotation.
            return Err(SystemError::RoundFailed {
                round,
                reason: RoundFailureReason::PointingTargetSilent,
            });
        }
        let seed = round_seed(&self.config, round_index as usize);
        let mut rng = StdRng::seed_from_u64(seed);

        let schedule = self.config.schedule()?;
        let sound_speed = network.sound_speed();
        let engine = ProtocolEngine::new(schedule, sound_speed)?;
        let latency = round_latency(self.config.n_devices, self.config.report_bps)?;

        // Ground-truth positions: the paper uses the trajectory midpoint as
        // truth for moving devices, so evaluate at mid-round.
        let round_mid_s = latency.acoustic_s / 2.0;
        let truth_positions = network.positions_at(round_mid_s);

        // Per-device approximate transmission instants, used to model how a
        // moving device's position differs between packet exchanges.
        let tx_instant = |id: usize| -> f64 {
            if id == 0 {
                0.0
            } else {
                schedule.slot_after_leader(id).unwrap_or(0.0)
            }
        };

        // Protocol round with the statistical channel (plus motion-induced
        // delay differences). Scheduled clock-skew faults stack on top of
        // each device's own oscillator skew, so the protocol's timestamps
        // drift exactly as they would on hardware running that far off
        // nominal.
        let devices: Vec<DeviceRoundState> = network
            .devices()
            .iter()
            .map(|d| {
                let mut clock = d.clock;
                if let Some(f) = faults {
                    let extra_ppm = f.clock_skew_ppm(d.id, round);
                    if extra_ppm != 0.0 {
                        clock = uw_device::clock::LocalClock::new(
                            clock.skew_ppm + extra_ppm,
                            clock.offset_s,
                        );
                    }
                }
                DeviceRoundState {
                    id: d.id,
                    position: d.position_at(round_mid_s),
                    clock,
                }
            })
            .collect();
        let model = ReceptionModel::default();
        let mut stat_observer = StatisticalObserver::new(
            network,
            model,
            self.config.packet_loss_prob,
            StdRng::seed_from_u64(seed ^ 0xABCD),
        );
        let mut observer = FnObserver(|tx: usize, rx: usize, tau: f64| {
            use uw_protocol::engine::LinkObserver as _;
            if silent[tx] || silent[rx] {
                return None;
            }
            // The statistical observer draws from its RNG *before* the
            // fault gate so scheduled loss never reshuffles the session's
            // stochastic streams (the drop decision is a pure hash of the
            // schedule seed and the link).
            let base = stat_observer.observe(tx, rx, tau);
            if faults.is_some_and(|f| f.drops_packet(round, tx, rx)) {
                return None;
            }
            let base = base?;
            // Positions drift between the mid-round reference and the actual
            // transmission instant; the difference shows up as extra delay.
            let d_actual = network.true_distance(tx, rx, tx_instant(tx));
            let d_reference = network.true_distance(tx, rx, round_mid_s);
            Some(base + (d_actual - d_reference) / sound_speed)
        });
        let outcome = engine.run_round(&devices, &mut observer)?;
        let mut distances = outcome.distances.clone();

        // Hybrid fidelity: re-measure the leader's links with the full
        // waveform pipeline (channel synthesis + detection + dual-mic LOS).
        // The links are independent, so they fan out across cores; the
        // process-wide preamble assets (matched filter, symbol FFT plans)
        // are pooled, so parallel exchanges reuse precomputed DSP state
        // instead of rebuilding or serialising on it.
        if self.config.fidelity == Fidelity::Hybrid {
            let trials = leader_link_trials(&self.config, network, round, faults)?;
            let measured: Vec<(usize, Option<f64>)> = match &self.audio_source {
                // Replay: decoded recordings stand in for the simulator.
                // Estimation is cheap relative to synthesis and the
                // captures are borrowed from the source, so the links run
                // sequentially; a missing capture fails the round (strict
                // replay, never a silent fallback to synthesis). Captures
                // recorded under a scheduled clock skew are resampled back
                // to the nominal grid first — the receiver knows the skew
                // from the schedule, exactly as a real device knows it from
                // the protocol's drift estimate.
                Some(source) => {
                    let mut measured = Vec::with_capacity(trials.len());
                    for lt in &trials {
                        let capture = source.link_capture(round, lt.device).ok_or(
                            SystemError::RoundFailed {
                                round,
                                reason: RoundFailureReason::ReplayCaptureMissing {
                                    device: lt.device,
                                },
                            },
                        )?;
                        let result = if lt.trial.clock_skew_ppm != 0.0 {
                            let compensated =
                                capture.compensate_clock_ppm(lt.trial.clock_skew_ppm)?;
                            estimate_from_capture(&lt.trial, &compensated)
                        } else {
                            estimate_from_capture(&lt.trial, capture)
                        };
                        measured.push((
                            lt.device,
                            result.ok().map(|r| r.estimated_distance_m.max(0.0)),
                        ));
                    }
                    measured
                }
                None => trials
                    .into_par_iter()
                    .map(|lt| {
                        let result =
                            run_pairwise_trial(&lt.trial, RangingScheme::DualMicOfdm, lt.seed);
                        (
                            lt.device,
                            result.ok().map(|r| r.estimated_distance_m.max(0.0)),
                        )
                    })
                    .collect(),
            };
            for (other, estimate) in measured {
                if let Some(d) = estimate {
                    distances.set(0, other, d).map_err(SystemError::from)?;
                }
            }
        }

        // Depth reports from the on-device sensors (quantised as in §2.4).
        let depths: Vec<f64> = network
            .devices()
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let measured = d
                    .measure_depth(round_mid_s, &mut rng)
                    .unwrap_or(truth_positions[i].z);
                uw_device::sensors::quantize_depth(measured)
            })
            .collect();

        // Leader pointing direction (towards device 1) with pointing error.
        let pointing_error = gaussian(&mut rng) * self.config.pointing_error_std_rad;
        let pointing_azimuth = network.leader_pointing_azimuth(round_mid_s)? + pointing_error;

        // Dual-microphone side signs observed by the leader. The sign comes
        // from which microphone heard the device first, and the inter-mic
        // lag scales with the sine of the device's angle off the pointing
        // line — so near-line devices flip their sign often while broadside
        // devices almost never do. `mic_sign_error_prob` calibrates the
        // layout-averaged single-device error rate (≈ the paper's 9.9%).
        // Devices the leader never heard give no vote.
        let truth_frame = truth_in_leader_frame(&truth_positions);
        let side_signs: Vec<Option<i8>> = (0..self.config.n_devices)
            .map(|i| {
                if i < 2 {
                    return None;
                }
                outcome.tables[0].reception(i)?;
                let mut sign = geometric_side(&truth_frame, i);
                if sign != 0
                    && rng.gen_bool(mic_sign_error_prob(
                        &truth_frame,
                        i,
                        self.config.mic_sign_error_prob,
                    ))
                {
                    sign = -sign;
                }
                Some(sign)
            })
            .collect();

        // Topology solve over the audible devices. With no churn this is
        // the identity mapping; with churn the silent devices are excluded
        // from the solve and scattered back as NaN afterwards.
        let active: Vec<usize> = (0..self.config.n_devices).filter(|&i| !silent[i]).collect();
        let mut reduced = DistanceMatrix::new(active.len());
        for (a, &i) in active.iter().enumerate() {
            for (b, &j) in active.iter().enumerate().skip(a + 1) {
                if let Some(d) = distances.get(i, j) {
                    reduced.set(a, b, d).map_err(SystemError::from)?;
                }
            }
        }
        let input = LocalizationInput {
            distances: reduced,
            depths: active.iter().map(|&i| depths[i]).collect(),
            pointing_azimuth_rad: pointing_azimuth,
            side_signs: active.iter().map(|&i| side_signs[i]).collect(),
        };
        // A solver rejection (e.g. total scheduled packet loss leaving too
        // few links to embed) is a graceful round failure, not a session
        // error: the next round may see a kinder channel. The cross-round
        // drop evidence rides along, projected onto this round's active
        // devices (the identity mapping when nobody churned).
        let round_evidence = self.drop_evidence.project(&active);
        let reduced_localization = localize_with_evidence(
            &input,
            &self.config.localizer,
            Some(&round_evidence),
            &mut rng,
        )
        .map_err(|e| SystemError::RoundFailed {
            round,
            reason: RoundFailureReason::SolverFailed {
                detail: e.to_string(),
            },
        })?;

        // Error metrics against ground truth, on the reduced index set.
        let truth_2d = truth_in_leader_frame(&truth_positions);
        let reduced_truth_2d: Vec<Vec2> = active.iter().map(|&i| truth_2d[i]).collect();
        let reduced_errors =
            localization_errors_2d(&reduced_localization.positions_2d, &reduced_truth_2d)?;
        let mut ranging_errors = Vec::new();
        for (i, j) in distances.links() {
            let est = distances.get(i, j).expect("link exists");
            let truth = truth_positions[i].distance(&truth_positions[j]);
            ranging_errors.push((est - truth).abs());
        }

        // Flipping correctness: the chosen configuration should fit ground
        // truth at least as well as its mirror image.
        let mirrored: Vec<Vec2> = uw_localization::ambiguity::mirror_across_pointing(
            &reduced_localization.positions_2d,
            pointing_azimuth,
        );
        let err_chosen: f64 = reduced_errors.iter().sum();
        let err_mirrored: f64 = localization_errors_2d(&mirrored, &reduced_truth_2d)?
            .iter()
            .sum();
        let flipping_correct = err_chosen <= err_mirrored + 1e-9;

        // Scatter the reduced solve back to full device indexing. Silent
        // devices keep their reported depth but have NaN horizontal state.
        let n = self.config.n_devices;
        let mut positions = vec![Point3::new(f64::NAN, f64::NAN, f64::NAN); n];
        let mut positions_2d = vec![Vec2::new(f64::NAN, f64::NAN); n];
        let mut errors_2d = vec![f64::NAN; n - 1];
        for (a, &i) in active.iter().enumerate() {
            positions[i] = reduced_localization.positions[a];
            positions_2d[i] = reduced_localization.positions_2d[a];
            if i > 0 {
                errors_2d[i - 1] = reduced_errors[a - 1];
            }
        }
        for &i in &silent_devices {
            positions[i].z = depths[i];
        }
        // Dropped links are reported in full device indices.
        let full_dropped: Vec<(usize, usize)> = reduced_localization
            .dropped_links
            .iter()
            .map(|&(a, b)| (active[a], active[b]))
            .collect();
        // Feed this round's decision back into the session evidence: a
        // static occlusion recurs round after round and becomes persistent;
        // a one-off spurious drop never does.
        self.drop_evidence.observe_round(&full_dropped);
        let localization = LocalizationOutput {
            positions: positions.clone(),
            positions_2d: positions_2d.clone(),
            dropped_links: full_dropped,
            normalized_stress: reduced_localization.normalized_stress,
            flipped: reduced_localization.flipped,
            converged: reduced_localization.converged,
        };

        Ok(SessionOutcome {
            positions,
            positions_2d,
            distances,
            localization,
            errors_2d,
            ranging_errors,
            latency,
            flipping_correct,
            sync_sources: outcome.sync_sources,
            silent_devices,
            persistent_dropped_links: self.drop_evidence.persistent_links(),
        })
    }

    /// Runs `n` rounds and returns all outcomes (convenience for the
    /// evaluation harness).
    pub fn run_many(&mut self, network: &DiveNetwork, n: usize) -> Result<Vec<SessionOutcome>> {
        (0..n).map(|_| self.run(network)).collect()
    }

    /// Runs up to `rounds` rounds, invoking `observe` after every round so
    /// progress can be watched (and the run stopped) mid-session: the
    /// push-style streaming counterpart of [`Session::run_many`] for
    /// driving a session directly — live dive telemetry, REPL-style
    /// walkthroughs (see `examples/streaming_eval.rs`) — without the
    /// cell/report machinery of `uw-eval` (whose `CellExecution` pulls
    /// rounds one `step` at a time instead).
    ///
    /// Unlike `run_many`, a failed round does not abort the run: the
    /// observer sees the error — including the structured
    /// [`RoundFailureReason`] behind a gracefully-failed round, via
    /// [`SystemError::round_failure`] — and decides whether to continue
    /// (streams ride out transient failures such as a churn round with too
    /// few audible devices). Successful outcomes are collected and
    /// returned.
    /// The session's numeric path and fidelity are whatever its
    /// [`SystemConfig`] says — an observed Q15 hybrid session exercises
    /// exactly the same DSP as a batch one.
    ///
    /// ```
    /// use uw_core::prelude::*;
    /// use uw_core::session::RoundControl;
    ///
    /// let scenario = Scenario::dock_five_devices(5);
    /// let mut session = Session::new(scenario.config().clone()).unwrap();
    /// let mut seen = 0;
    /// let outcomes = session.run_observed(scenario.network(), 10, |round, result| {
    ///     assert!(result.is_ok());
    ///     seen += 1;
    ///     // Stop early after the second round.
    ///     if round >= 1 { RoundControl::Stop } else { RoundControl::Continue }
    /// });
    /// assert_eq!(seen, 2);
    /// assert_eq!(outcomes.len(), 2);
    /// ```
    pub fn run_observed<F>(
        &mut self,
        network: &DiveNetwork,
        rounds: usize,
        mut observe: F,
    ) -> Vec<SessionOutcome>
    where
        F: FnMut(usize, &Result<SessionOutcome>) -> RoundControl,
    {
        let mut outcomes = Vec::new();
        for round in 0..rounds {
            let result = self.run(network);
            let control = observe(round, &result);
            if let Ok(outcome) = result {
                outcomes.push(outcome);
            }
            if control == RoundControl::Stop {
                break;
            }
        }
        outcomes
    }
}

/// Probability that the leader's dual-microphone side sign for device `i`
/// is flipped. The physical observable is the inter-microphone arrival lag,
/// which is proportional to `sin(angle off the pointing line)`; the flip
/// probability therefore decays from 1/2 on the line to ~0 broadside:
///
/// `p_err(s) = 1/2 · exp(−(s/σ)²)`, with `s = |sin(angle)|` and
/// `σ = 3.5 · error_scale` chosen so that a layout with uniformly
/// distributed bearings averages to ≈ `error_scale` (the paper's single-
/// device sign accuracy of 90.1% corresponds to the default 0.1).
fn mic_sign_error_prob(truth_frame: &[Vec2], i: usize, error_scale: f64) -> f64 {
    let ui = truth_frame[i];
    let u1 = truth_frame[1];
    let denom = ui.norm() * u1.norm();
    if denom <= 0.0 {
        return 0.5;
    }
    let sin_angle = ((ui.x * u1.y - ui.y * u1.x) / denom).abs();
    let sigma = 3.5 * error_scale;
    if sigma <= 0.0 {
        return 0.0;
    }
    (0.5 * (-(sin_angle / sigma) * (sin_angle / sigma)).exp()).clamp(0.0, 0.5)
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn dock_session_produces_sub_metre_median_errors() {
        let scenario = Scenario::dock_five_devices(3);
        let mut session = Session::new(scenario.config().clone()).unwrap();
        let outcomes = session.run_many(scenario.network(), 12).unwrap();
        assert_eq!(session.rounds_run(), 12);
        let mut all_errors: Vec<f64> = outcomes.iter().flat_map(|o| o.errors_2d.clone()).collect();
        all_errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = all_errors[all_errors.len() / 2];
        assert!(median < 1.6, "median 2D error {median}");
        // Ranging errors are sub-metre in the median as well.
        let mut ranging: Vec<f64> = outcomes
            .iter()
            .flat_map(|o| o.ranging_errors.clone())
            .collect();
        ranging.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(ranging[ranging.len() / 2] < 1.0);
        // Latency matches the 5-device protocol model (~1.88 s acoustic).
        assert!((outcomes[0].latency.acoustic_s - 1.88).abs() < 0.01);
    }

    #[test]
    fn repeated_rounds_differ() {
        let scenario = Scenario::dock_five_devices(9);
        let mut session = Session::new(scenario.config().clone()).unwrap();
        let a = session.run(scenario.network()).unwrap();
        let b = session.run(scenario.network()).unwrap();
        assert_ne!(a.errors_2d, b.errors_2d);
    }

    #[test]
    fn churned_device_is_excluded_without_breaking_the_rest() {
        let mut scenario = Scenario::dock_five_devices(21);
        scenario.network_mut().set_device_churn(4, 2).unwrap();
        let mut session = Session::new(scenario.config().clone()).unwrap();
        let outcomes = session.run_many(scenario.network(), 4).unwrap();
        // Rounds 0-1: everyone audible, all errors finite.
        for o in &outcomes[..2] {
            assert!(o.silent_devices.is_empty());
            assert!(o.errors_2d.iter().all(|e| e.is_finite()));
        }
        // Rounds 2-3: device 4 silent — its error is NaN, everyone else's
        // stays finite and the solve still succeeds.
        for o in &outcomes[2..] {
            assert_eq!(o.silent_devices, vec![4]);
            assert!(o.errors_2d[3].is_nan());
            assert!(o.positions_2d[4].x.is_nan());
            // Depth report is retained for the silent device.
            assert!(o.positions[4].z.is_finite());
            for (i, e) in o.errors_2d.iter().enumerate().take(3) {
                assert!(e.is_finite(), "device {} error {e}", i + 1);
            }
            // No distances were measured to the silent device.
            assert!(o.distances.links().iter().all(|&(i, j)| i != 4 && j != 4));
        }
    }

    #[test]
    fn churn_below_three_audible_devices_fails() {
        let mut scenario = Scenario::four_devices(5);
        scenario.network_mut().set_device_churn(2, 0).unwrap();
        scenario.network_mut().set_device_churn(3, 0).unwrap();
        let mut session = Session::new(scenario.config().clone()).unwrap();
        assert!(session.run(scenario.network()).is_err());
    }

    #[test]
    fn observed_runs_ride_out_failed_rounds_and_stop_on_request() {
        // Both non-essential devices churn out at round 2, so rounds 2+
        // fail outright (fewer than 3 audible devices).
        let mut scenario = Scenario::four_devices(5);
        scenario.network_mut().set_device_churn(2, 2).unwrap();
        scenario.network_mut().set_device_churn(3, 2).unwrap();
        let mut session = Session::new(scenario.config().clone()).unwrap();
        let mut seen = Vec::new();
        let outcomes = session.run_observed(scenario.network(), 4, |round, result| {
            seen.push((round, result.is_ok()));
            RoundControl::Continue
        });
        assert_eq!(seen, vec![(0, true), (1, true), (2, false), (3, false)]);
        // Only the successful rounds are collected.
        assert_eq!(outcomes.len(), 2);

        // Stop cuts the run short; the observed rounds match run() streams.
        let mut session = Session::new(scenario.config().clone()).unwrap();
        let stopped = session.run_observed(scenario.network(), 4, |_, _| RoundControl::Stop);
        assert_eq!(stopped.len(), 1);
        assert_eq!(session.rounds_run(), 1);
    }

    #[test]
    fn empty_fault_schedule_is_bitwise_inert() {
        use crate::faults::FaultSchedule;
        let scenario = Scenario::dock_five_devices(11);
        let mut clean = Session::new(scenario.config().clone()).unwrap();
        let mut scheduled = Session::new(scenario.config().clone()).unwrap();
        scheduled
            .set_fault_schedule(FaultSchedule::new(999))
            .unwrap();
        let a = clean.run_many(scenario.network(), 3).unwrap();
        let b = scheduled.run_many(scenario.network(), 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_schedules_are_validated_against_the_group() {
        use crate::faults::{FaultEvent, FaultKind, FaultSchedule};
        let scenario = Scenario::four_devices(2);
        let mut session = Session::new(scenario.config().clone()).unwrap();
        let bad = FaultSchedule::new(1).with(FaultEvent::from(0, FaultKind::Churn { device: 9 }));
        assert!(session.set_fault_schedule(bad).is_err());
        assert!(session.fault_schedule().is_none());
        let ok = FaultSchedule::new(1).with(FaultEvent::from(0, FaultKind::Churn { device: 3 }));
        session.set_fault_schedule(ok).unwrap();
        assert!(session.fault_schedule().is_some());
        session.clear_fault_schedule();
        assert!(session.fault_schedule().is_none());
    }

    #[test]
    fn scheduled_faults_degrade_rounds_gracefully() {
        use crate::faults::{FaultEvent, FaultKind, FaultSchedule};
        // Rounds 0-1 clean, rounds 2-3 leaderless, round 4+ clean again.
        let scenario = Scenario::dock_five_devices(13);
        let mut session = Session::new(scenario.config().clone()).unwrap();
        session
            .set_fault_schedule(FaultSchedule::new(5).with(FaultEvent::window(
                2,
                3,
                FaultKind::LeaderFailover,
            )))
            .unwrap();
        let mut reasons = Vec::new();
        let outcomes = session.run_observed(scenario.network(), 5, |round, result| {
            if let Err(e) = result {
                let (r, reason) = e.round_failure().expect("structured failure");
                assert_eq!(r, round);
                reasons.push(reason.clone());
            }
            RoundControl::Continue
        });
        // The failover window costs exactly rounds 2 and 3; the session
        // recovers afterwards because rounds_run kept advancing.
        assert_eq!(outcomes.len(), 3);
        assert_eq!(
            reasons,
            vec![
                RoundFailureReason::LeaderSilent,
                RoundFailureReason::LeaderSilent
            ]
        );
    }

    #[test]
    fn scheduled_churn_and_loss_affect_the_round() {
        use crate::faults::{FaultEvent, FaultKind, FaultSchedule};
        let scenario = Scenario::dock_five_devices(17);
        let mut session = Session::new(scenario.config().clone()).unwrap();
        session
            .set_fault_schedule(
                FaultSchedule::new(3)
                    .with(FaultEvent::from(0, FaultKind::Churn { device: 3 }))
                    .with(FaultEvent::from(
                        0,
                        FaultKind::PacketLoss {
                            link: None,
                            prob: 0.25,
                        },
                    )),
            )
            .unwrap();
        let outcome = session.run(scenario.network()).unwrap();
        // The scheduled churn shows up exactly like network churn.
        assert_eq!(outcome.silent_devices, vec![3]);
        assert!(outcome.positions_2d[3].x.is_nan());
        assert!(outcome
            .distances
            .links()
            .iter()
            .all(|&(i, j)| i != 3 && j != 3));
    }

    #[test]
    fn network_size_must_match_config() {
        let scenario = Scenario::dock_five_devices(1);
        let other = Scenario::four_devices(1);
        let mut session = Session::new(scenario.config().clone()).unwrap();
        assert!(session.run(other.network()).is_err());
    }
}
