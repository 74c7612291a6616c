//! End-to-end localization pipeline.
//!
//! [`localize`] chains the four stages of §2.1 — depth projection, SMACOF
//! topology estimation with outlier detection, rotation alignment and
//! flipping disambiguation — and lifts the result back to 3D with the
//! measured depths. It also provides the error metrics every evaluation
//! figure uses (per-device 2D error against ground truth).

use crate::ambiguity::{geometric_side, resolve_ambiguities};
use crate::matrix::{DistanceMatrix, Vec2};
use crate::outlier::{
    drop_hypotheses, DropEvidence, OutlierConfig, OutlierResult, VOTE_MISMATCH_PENALTY_M,
};
use crate::project::{lift_to_3d, project_to_2d};
use crate::smacof::SmacofConfig;
use crate::{LocalizationError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use uw_channel::geometry::Point3;

/// Configuration of the full localization pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalizerConfig {
    /// SMACOF solver parameters.
    pub smacof: SmacofConfig,
    /// Outlier-detection parameters.
    pub outlier: OutlierConfig,
    /// When true, skip outlier detection entirely (used by the Fig. 19a
    /// ablation).
    pub disable_outlier_detection: bool,
    /// Huber threshold (m) for the IRLS refinement of the accepted link
    /// set; links whose residual exceeds it are downweighted by
    /// `delta / |residual|`. Catches moderate ranging outliers that stay
    /// below the hard-drop stress threshold. `0` disables refinement.
    /// Defaults to [`crate::outlier::RESIDUAL_SCALE_M`], the same constant
    /// Algorithm 1's drop-validation pass judges residuals on.
    pub robust_delta_m: f64,
}

impl Default for LocalizerConfig {
    fn default() -> Self {
        Self {
            smacof: SmacofConfig::default(),
            outlier: OutlierConfig::default(),
            disable_outlier_detection: false,
            robust_delta_m: crate::outlier::RESIDUAL_SCALE_M,
        }
    }
}

/// Input to one localization round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalizationInput {
    /// Pairwise 3D (slant) distance measurements; missing links allowed.
    pub distances: DistanceMatrix,
    /// Measured depth of each device (m), index = device ID.
    pub depths: Vec<f64>,
    /// Azimuth the leader is pointing towards device 1, in radians in the
    /// world frame the output should be expressed in.
    pub pointing_azimuth_rad: f64,
    /// Leader dual-microphone side signs per device (see
    /// [`crate::ambiguity`] for the convention). Entries for devices 0 and 1
    /// are ignored; `None` marks devices whose signal the leader did not
    /// hear or could not classify.
    pub side_signs: Vec<Option<i8>>,
}

/// Output of one localization round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalizationOutput {
    /// Estimated 3D positions relative to the leader (device 0 is at the
    /// origin of the horizontal plane, at its own measured depth).
    pub positions: Vec<Point3>,
    /// Estimated 2D (horizontal) positions.
    pub positions_2d: Vec<Vec2>,
    /// Links dropped as outliers.
    pub dropped_links: Vec<(usize, usize)>,
    /// Normalised stress of the accepted topology (m).
    pub normalized_stress: f64,
    /// Whether the mirrored configuration was selected.
    pub flipped: bool,
    /// Whether the stress threshold was met.
    pub converged: bool,
}

/// Runs the full localization pipeline.
pub fn localize<R: Rng>(
    input: &LocalizationInput,
    config: &LocalizerConfig,
    rng: &mut R,
) -> Result<LocalizationOutput> {
    localize_with_evidence(input, config, None, rng)
}

/// Runs the full localization pipeline, optionally biasing Algorithm 1's
/// drop decisions with cross-round [`DropEvidence`] (see
/// [`crate::outlier`]). Pass `None` for a single standalone round;
/// `uw_core::Session` threads its per-session accumulator through here so
/// repeated rounds on a static topology converge on a persistently
/// occluded link.
pub fn localize_with_evidence<R: Rng>(
    input: &LocalizationInput,
    config: &LocalizerConfig,
    evidence: Option<&DropEvidence>,
    rng: &mut R,
) -> Result<LocalizationOutput> {
    let n = input.distances.len();
    if n < 3 {
        return Err(LocalizationError::InvalidInput {
            reason: format!("localization needs at least 3 devices, got {n}"),
        });
    }
    if input.depths.len() != n {
        return Err(LocalizationError::InvalidInput {
            reason: format!("{} depths for {n} devices", input.depths.len()),
        });
    }
    if input.side_signs.len() != n {
        return Err(LocalizationError::InvalidInput {
            reason: format!("{} side signs for {n} devices", input.side_signs.len()),
        });
    }

    // Stage 1: depth projection.
    let distances_2d = project_to_2d(&input.distances, &input.depths)?;

    // Stage 2: topology estimation (with or without outlier handling). The
    // drop pass can return several validated hypotheses: under severe
    // occlusion, discarding a clean long link sometimes admits a partially
    // *reflected* topology whose stress matches the truth's, and the
    // distance data alone cannot tell the two apart. Each hypothesis is
    // carried through refinement and ambiguity resolution, and the
    // side-sign votes arbitrate below.
    let hypotheses = if config.disable_outlier_detection {
        let weights = crate::matrix::WeightMatrix::from_distances(&distances_2d);
        let sol = crate::smacof::smacof(&distances_2d, &weights, &config.smacof, rng)?;
        vec![OutlierResult {
            positions: sol.positions,
            dropped_links: Vec::new(),
            normalized_stress: sol.normalized_stress,
            converged: sol.normalized_stress < config.outlier.stress_threshold_m,
            occam_cost_m: 0.0,
        }]
    } else {
        drop_hypotheses(
            &distances_2d,
            &config.smacof,
            &config.outlier,
            evidence,
            rng,
        )?
    };

    // Stages 2b–4 per hypothesis; the winner minimises the arbitration
    // score `occam_cost + penalty × side-vote mismatches`. A partial
    // reflection puts at least one device on the wrong side of the
    // leader–device-1 line, so a fold that survived the drop gates still
    // pays [`VOTE_MISMATCH_PENALTY_M`] per contradicted vote on top of its
    // higher Occam cost — while a single noisy vote (the dual-mic sign
    // flips with ~10% probability near the line) is too cheap to override
    // the geometric evidence. With one hypothesis — every clean round —
    // there is nothing to arbitrate, but `assess` still compares its side
    // votes, and one contradicted vote sends the round into the rescue
    // pass below.
    let assess = |topo: OutlierResult| -> Result<(f64, usize, LocalizationOutput)> {
        let mut cost = topo.occam_cost_m;
        // Stage 2b: Huber-reweighted refinement on the accepted link set,
        // so moderate ranging outliers (too small for Algorithm 1's hard
        // drop) stop dragging the topology. Skipped together with outlier
        // detection: the Fig. 19a ablation must measure a truly
        // unmitigated solve.
        let topo = if config.robust_delta_m > 0.0 && !config.disable_outlier_detection {
            let mut weights = crate::matrix::WeightMatrix::from_distances(&distances_2d);
            weights.drop_links(&topo.dropped_links);
            let initial = crate::smacof::SmacofSolution {
                normalized_stress: topo.normalized_stress,
                stress: crate::smacof::stress(&topo.positions, &distances_2d, &weights),
                positions: topo.positions,
                iterations: 0,
            };
            let refined = crate::smacof::refine_robust(
                &distances_2d,
                &weights,
                &config.smacof,
                config.robust_delta_m,
                initial,
            )?;
            // Re-score the hypothesis on its *refined* embedding with the
            // robust decomposition: in-band misfit keeps the quadratic
            // stress weight, while residual beyond the Huber δ is charged
            // linearly in metres — the same unit the hypothesis pays for
            // its claimed bias. A genuine secondary ranging outlier — too
            // small to drop, exactly what the IRLS refinement absorbs —
            // then costs its few excess metres instead of dominating the
            // quadratic stress of the correct hypothesis, while a fold
            // that *keeps* the biased link pays every unexplained metre it
            // smears across the topology. The drop pass's quadratic cost
            // decided admission and ordering; this swap only re-ranks the
            // finalists.
            let (trimmed, excess_m) = crate::smacof::robust_misfit_decomposition(
                &refined.positions,
                &distances_2d,
                &weights,
                config.robust_delta_m,
            );
            cost +=
                crate::outlier::STRESS_COST_WEIGHT * (trimmed - topo.normalized_stress) + excess_m;
            OutlierResult {
                positions: refined.positions,
                normalized_stress: refined.normalized_stress,
                dropped_links: topo.dropped_links,
                converged: topo.converged,
                occam_cost_m: topo.occam_cost_m,
            }
        } else {
            topo
        };

        // Stage 3: rotation + flipping.
        let resolved = resolve_ambiguities(
            &topo.positions,
            input.pointing_azimuth_rad,
            &input.side_signs,
        )?;
        let mismatches = input
            .side_signs
            .iter()
            .enumerate()
            .skip(2)
            .filter(|&(i, sign)| {
                sign.is_some_and(|s| {
                    let geo = geometric_side(&resolved.positions, i);
                    s != 0 && geo != 0 && geo != s
                })
            })
            .count();

        // Stage 4: lift back to 3D with the measured depths.
        let positions = lift_to_3d(&resolved.positions, &input.depths)?;

        Ok((
            cost,
            mismatches,
            LocalizationOutput {
                positions,
                positions_2d: resolved.positions,
                dropped_links: topo.dropped_links,
                normalized_stress: topo.normalized_stress,
                flipped: resolved.flipped,
                converged: topo.converged,
            },
        ))
    };

    let mut best: Option<(f64, usize, LocalizationOutput)> = None;
    for topo in hypotheses {
        let (cost, mismatches, out) = assess(topo)?;
        let score = cost + VOTE_MISMATCH_PENALTY_M * mismatches as f64;
        if best.as_ref().is_none_or(|(s, _, _)| score < *s) {
            best = Some((score, mismatches, out));
        }
    }
    let (mut best_score, mut best_mismatches, mut best_out) =
        best.expect("drop_hypotheses returns at least one hypothesis");

    // Rescue pass: the chosen solution still contradicts measured side
    // signs. A severe occlusion can be *absorbed* by the full-link solve —
    // the warped topology fits the biased link below the stress threshold,
    // so the fast path accepts it without ever hypothesising a drop — and
    // the warp typically pushes a device across the leader–device-1 line.
    // Re-enumerate with the fast path skipped and gate 3's margin waived
    // (see [`rescue_hypotheses`](crate::outlier::rescue_hypotheses)); a
    // rescue hypothesis is adopted only when it contradicts strictly fewer
    // side signs AND wins on the arbitration score — a relaxed-gate fold
    // that merely gets lucky with the noisy votes cannot override a main
    // pick it loses to on cost. Clean rounds with one noisy vote reach
    // here too and pay for the whole re-enumeration. Gate 2 rejects most
    // drops on clean data but not all of them, so such a round can still
    // adopt a rescue hypothesis that drops a link.
    if best_mismatches > 0 && !config.disable_outlier_detection {
        for topo in crate::outlier::rescue_hypotheses(
            &distances_2d,
            &config.smacof,
            &config.outlier,
            evidence,
            rng,
        )? {
            if topo.dropped_links.is_empty() {
                continue;
            }
            let (cost, mismatches, out) = assess(topo)?;
            let score = cost + VOTE_MISMATCH_PENALTY_M * mismatches as f64;
            if mismatches < best_mismatches && score < best_score {
                let decisive = mismatches == 0;
                best_mismatches = mismatches;
                best_score = score;
                best_out = out;
                if decisive {
                    break;
                }
            }
        }
    }
    Ok(best_out)
}

/// Per-device horizontal (2D) localization error against ground truth,
/// excluding the leader (device 0), matching how the paper reports
/// localization error. Ground truth is expressed in the same leader-centred
/// frame as the output.
pub fn localization_errors_2d(estimate: &[Vec2], truth: &[Vec2]) -> Result<Vec<f64>> {
    if estimate.len() != truth.len() || estimate.len() < 2 {
        return Err(LocalizationError::InvalidInput {
            reason: "estimate and truth must be equal-length with at least 2 devices".into(),
        });
    }
    Ok(estimate
        .iter()
        .zip(truth.iter())
        .skip(1)
        .map(|(e, t)| e.distance(t))
        .collect())
}

/// Ground-truth helper: expresses absolute device positions in the
/// leader-centred frame used by [`localize`] (leader at the horizontal
/// origin, world axes preserved) and returns the 2D coordinates.
pub fn truth_in_leader_frame(positions: &[Point3]) -> Vec<Vec2> {
    if positions.is_empty() {
        return Vec::new();
    }
    let leader = positions[0];
    positions
        .iter()
        .map(|p| Vec2::new(p.x - leader.x, p.y - leader.y))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::distances_from_positions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 5-device deployment in 3D (leader at index 0). Device 1 is the one
    /// the leader points at.
    fn deployment() -> Vec<Point3> {
        vec![
            Point3::new(0.0, 0.0, 1.5),
            Point3::new(1.0, 6.0, 2.0),
            Point3::new(9.0, 9.0, 3.0),
            Point3::new(-7.0, 6.0, 1.0),
            Point3::new(4.0, -6.0, 4.0),
        ]
    }

    fn pointing_azimuth(positions: &[Point3]) -> f64 {
        positions[0].azimuth_to(&positions[1])
    }

    /// Microphone side signs consistent with the geometry: +1 when the
    /// device is on the right of the ray leader→device 1.
    fn consistent_signs(positions: &[Point3]) -> Vec<Option<i8>> {
        let frame = truth_in_leader_frame(positions);
        (0..positions.len())
            .map(|i| {
                if i < 2 {
                    None
                } else {
                    Some(crate::ambiguity::geometric_side(&frame, i))
                }
            })
            .collect()
    }

    fn input_from_truth(truth: &[Point3]) -> LocalizationInput {
        LocalizationInput {
            distances: distances_from_positions(truth),
            depths: truth.iter().map(|p| p.z).collect(),
            pointing_azimuth_rad: pointing_azimuth(truth),
            side_signs: consistent_signs(truth),
        }
    }

    #[test]
    fn exact_inputs_recover_exact_positions() {
        let truth = deployment();
        let input = input_from_truth(&truth);
        let mut rng = StdRng::seed_from_u64(1);
        let out = localize(&input, &LocalizerConfig::default(), &mut rng).unwrap();
        assert!(out.converged);
        assert!(!out.flipped || out.positions_2d.len() == truth.len());
        let truth_2d = truth_in_leader_frame(&truth);
        let errs = localization_errors_2d(&out.positions_2d, &truth_2d).unwrap();
        for (i, e) in errs.iter().enumerate() {
            assert!(*e < 0.05, "device {} error {e}", i + 1);
        }
        // Depths are carried through unchanged.
        for (p, t) in out.positions.iter().zip(truth.iter()) {
            assert!((p.z - t.z).abs() < 1e-12);
        }
        // Leader is at the origin of the horizontal plane.
        assert!(out.positions[0].x.abs() < 1e-9 && out.positions[0].y.abs() < 1e-9);
    }

    #[test]
    fn noisy_inputs_give_sub_metre_errors() {
        let truth = deployment();
        let mut input = input_from_truth(&truth);
        let mut rng = StdRng::seed_from_u64(2);
        // ±0.5 m ranging noise, ±0.3 m depth noise — the paper's regime.
        for (i, j) in input.distances.links() {
            let v = input.distances.get(i, j).unwrap();
            input
                .distances
                .set(i, j, (v + rng.gen_range(-0.5..0.5)).max(0.1))
                .unwrap();
        }
        for d in input.depths.iter_mut() {
            *d = (*d + rng.gen_range(-0.3..0.3)).max(0.0);
        }
        let out = localize(&input, &LocalizerConfig::default(), &mut rng).unwrap();
        let truth_2d = truth_in_leader_frame(&truth);
        let errs = localization_errors_2d(&out.positions_2d, &truth_2d).unwrap();
        let mean: f64 = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 1.5, "mean error {mean}");
    }

    #[test]
    fn occluded_link_is_recovered_by_outlier_detection() {
        let truth = deployment();
        let mut input = input_from_truth(&truth);
        // Corrupt the leader–device-1 link as an occlusion would (the
        // strongest reflection is several metres longer than the direct
        // path), as in Fig. 19a.
        let v = input.distances.get(0, 1).unwrap();
        input.distances.set(0, 1, v + 12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);

        let with = localize(&input, &LocalizerConfig::default(), &mut rng).unwrap();
        let without = localize(
            &input,
            &LocalizerConfig {
                disable_outlier_detection: true,
                ..LocalizerConfig::default()
            },
            &mut rng,
        )
        .unwrap();

        let truth_2d = truth_in_leader_frame(&truth);
        let err_with: f64 = localization_errors_2d(&with.positions_2d, &truth_2d)
            .unwrap()
            .iter()
            .sum();
        let err_without: f64 = localization_errors_2d(&without.positions_2d, &truth_2d)
            .unwrap()
            .iter()
            .sum();
        assert!(
            err_with < err_without,
            "with outlier detection {err_with} vs without {err_without}"
        );
        assert_eq!(with.dropped_links, vec![(0, 1)]);
        assert!(without.dropped_links.is_empty());
    }

    #[test]
    fn missing_link_is_tolerated() {
        let truth = deployment();
        let mut input = input_from_truth(&truth);
        input.distances.clear(2, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let out = localize(&input, &LocalizerConfig::default(), &mut rng).unwrap();
        let truth_2d = truth_in_leader_frame(&truth);
        let errs = localization_errors_2d(&out.positions_2d, &truth_2d).unwrap();
        for e in errs {
            assert!(e < 0.5, "error {e}");
        }
    }

    #[test]
    fn four_device_network_works() {
        let truth = deployment()[..4].to_vec();
        let input = input_from_truth(&truth);
        let mut rng = StdRng::seed_from_u64(5);
        let out = localize(&input, &LocalizerConfig::default(), &mut rng).unwrap();
        let truth_2d = truth_in_leader_frame(&truth);
        let errs = localization_errors_2d(&out.positions_2d, &truth_2d).unwrap();
        for e in errs {
            assert!(e < 0.1, "error {e}");
        }
    }

    #[test]
    fn input_validation() {
        let truth = deployment();
        let mut rng = StdRng::seed_from_u64(6);
        let mut input = input_from_truth(&truth);
        input.depths.pop();
        assert!(localize(&input, &LocalizerConfig::default(), &mut rng).is_err());
        let mut input = input_from_truth(&truth);
        input.side_signs.pop();
        assert!(localize(&input, &LocalizerConfig::default(), &mut rng).is_err());
        let two = deployment()[..2].to_vec();
        let input = LocalizationInput {
            distances: distances_from_positions(&two),
            depths: two.iter().map(|p| p.z).collect(),
            pointing_azimuth_rad: 0.0,
            side_signs: vec![None; 2],
        };
        assert!(localize(&input, &LocalizerConfig::default(), &mut rng).is_err());
        assert!(localization_errors_2d(&[Vec2::default()], &[Vec2::default()]).is_err());
        assert!(localization_errors_2d(&[Vec2::default(); 3], &[Vec2::default(); 2]).is_err());
    }

    #[test]
    fn truth_frame_helper_centres_on_leader() {
        let truth = deployment();
        let frame = truth_in_leader_frame(&truth);
        assert_eq!(frame[0], Vec2::new(0.0, 0.0));
        assert_eq!(frame[2], Vec2::new(9.0, 9.0));
        assert!(truth_in_leader_frame(&[]).is_empty());
    }

    #[test]
    fn flipping_recovery_with_wrong_initial_chirality() {
        // Run many seeds; the SMACOF output chirality is arbitrary, so this
        // exercises both the flipped and non-flipped code paths. Every run
        // must land near the truth because the votes are consistent.
        let truth = deployment();
        let truth_2d = truth_in_leader_frame(&truth);
        let input = input_from_truth(&truth);
        let mut flips = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = localize(&input, &LocalizerConfig::default(), &mut rng).unwrap();
            if out.flipped {
                flips += 1;
            }
            let errs = localization_errors_2d(&out.positions_2d, &truth_2d).unwrap();
            for e in errs {
                assert!(e < 0.1, "seed {seed} error {e}");
            }
        }
        // Not asserting a particular flip count — only that both outcomes,
        // whenever they occur, produce correct positions.
        assert!(flips <= 10);
    }
}
