//! Weighted SMACOF multidimensional scaling (§2.1.2).
//!
//! SMACOF (Scaling by MAjorizing a COmplicated Function) minimises the
//! weighted stress
//!
//! ```text
//! S(P) = Σ_{i<j} w_ij (D_ij − ‖P_i − P_j‖)²
//! ```
//!
//! by iterating the Guttman transform, which majorises the stress with a
//! convex quadratic at each step and therefore decreases monotonically —
//! the property the paper relies on for fast, reliable convergence compared
//! with plain gradient descent. Missing links carry weight 0 and simply
//! drop out of both the stress and the transform.
//!
//! The embedding is recovered only up to rotation, translation and
//! reflection; [`crate::ambiguity`] fixes those gauge freedoms afterwards.
//!
//! Every solve runs one Guttman loop: [`smacof`]'s restarts, [`refine`]
//! and [`refine_robust`], and through them Algorithm 1's drop hypotheses,
//! the pipeline's rescue pass and the Huber refinement. Each run factors
//! V once and makes its buffers before the first iteration, so an
//! iteration allocates nothing and does only its O(n²) arithmetic, in the
//! floating-point operations of the textbook loop and in their order.
//! `tests::guttman_loop_matches_the_reference_bit_for_bit` pins the loop
//! bit for bit against that textbook loop (two fresh eliminations of V per
//! iteration), and `tests/alloc_free_guttman.rs` counts its allocations.

use crate::matrix::{symmetric_eigen, DistanceMatrix, LuFactors, Vec2, WeightMatrix};
use crate::{LocalizationError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// SMACOF solver parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmacofConfig {
    /// Maximum number of Guttman iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the relative stress decrease per iteration.
    pub tolerance: f64,
    /// Number of random restarts; the embedding with the lowest stress wins.
    pub restarts: usize,
    /// Scale of the random initial placement (m). Should be on the order of
    /// the deployment extent.
    pub init_scale: f64,
}

impl Default for SmacofConfig {
    fn default() -> Self {
        Self {
            max_iterations: 300,
            tolerance: 1e-9,
            restarts: 4,
            init_scale: 30.0,
        }
    }
}

/// Result of one SMACOF solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmacofSolution {
    /// Estimated 2D positions, one per device.
    pub positions: Vec<Vec2>,
    /// Raw (unnormalised) stress of the solution.
    pub stress: f64,
    /// Normalised stress: `sqrt(stress / link_count)` in metres — the
    /// quantity the paper thresholds at 1.5 m for outlier detection.
    pub normalized_stress: f64,
    /// Number of iterations used by the best restart.
    pub iterations: usize,
}

/// Computes the weighted raw stress of an embedding.
pub fn stress(positions: &[Vec2], distances: &DistanceMatrix, weights: &WeightMatrix) -> f64 {
    let n = positions.len();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let w = weights.get(i, j);
            if w == 0.0 {
                continue;
            }
            if let Some(d) = distances.get(i, j) {
                let emb = positions[i].distance(&positions[j]);
                s += w * (d - emb) * (d - emb);
            }
        }
    }
    s
}

/// Normalised stress in metres: root-mean-square residual per weighted link.
pub fn normalized_stress(
    positions: &[Vec2],
    distances: &DistanceMatrix,
    weights: &WeightMatrix,
) -> f64 {
    let n_links = active_link_count(distances, weights);
    if n_links == 0 {
        return 0.0;
    }
    (stress(positions, distances, weights) / n_links as f64).sqrt()
}

/// Robust misfit decomposition of an embedding, in metres. Splits each
/// active link's residual `r = measured − embedded` at the Huber scale δ:
///
/// * the **trimmed stress** (first component) is [`normalized_stress`]
///   with every squared residual capped at `δ²` — the in-band geometric
///   misfit no single corrupted link can dominate;
/// * the **excess misfit** (second component) is `Σ max(0, |r| − δ)` —
///   the metres of measurement the embedding leaves unexplained beyond
///   the noise band, charged *linearly*, the same unit a drop hypothesis
///   pays for its claimed bias.
///
/// The split prices the two failure modes symmetrically: an embedding
/// that keeps a biased link and smears its bias across the topology pays
/// the smeared metres as excess, exactly as a hypothesis that drops the
/// link pays them as claimed bias — while a moderate secondary outlier
/// the IRLS refinement absorbs costs its few excess metres instead of
/// dominating the quadratic stress. Used to *rank* competing drop
/// hypotheses, not to accept them: acceptance thresholds stay on the
/// quadratic [`normalized_stress`].
pub fn robust_misfit_decomposition(
    positions: &[Vec2],
    distances: &DistanceMatrix,
    weights: &WeightMatrix,
    delta_m: f64,
) -> (f64, f64) {
    let n_links = active_link_count(distances, weights);
    if n_links == 0 {
        return (0.0, 0.0);
    }
    let n = positions.len();
    let mut s = 0.0;
    let mut excess = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let w = weights.get(i, j);
            if w == 0.0 {
                continue;
            }
            if let Some(d) = distances.get(i, j) {
                let r = (d - positions[i].distance(&positions[j])).abs();
                if delta_m <= 0.0 {
                    s += w * r * r;
                } else {
                    s += w * (r * r).min(delta_m * delta_m);
                    excess += w * (r - delta_m).max(0.0);
                }
            }
        }
    }
    ((s / n_links as f64).sqrt(), excess)
}

/// Number of links that both have a measurement and a non-zero weight.
pub fn active_link_count(distances: &DistanceMatrix, weights: &WeightMatrix) -> usize {
    distances
        .links()
        .iter()
        .filter(|&&(i, j)| weights.get(i, j) > 0.0)
        .count()
}

/// Runs weighted SMACOF and returns the best embedding over the configured
/// restarts. `rng` drives the random initial placements, so results are
/// reproducible for a seeded generator.
pub fn smacof<R: Rng>(
    distances: &DistanceMatrix,
    weights: &WeightMatrix,
    config: &SmacofConfig,
    rng: &mut R,
) -> Result<SmacofSolution> {
    let n = distances.len();
    if n < 3 {
        return Err(LocalizationError::InvalidInput {
            reason: format!("need at least 3 devices to localize, got {n}"),
        });
    }
    if weights.len() != n {
        return Err(LocalizationError::InvalidInput {
            reason: "weight matrix size mismatch".into(),
        });
    }
    if active_link_count(distances, weights) < 2 * n - 3 {
        // Fewer links than degrees of freedom: the solve is hopeless.
        return Err(LocalizationError::NotLocalizable {
            reason: format!(
                "{} links present but a rigid 2D embedding of {n} nodes needs at least {}",
                active_link_count(distances, weights),
                2 * n - 3
            ),
        });
    }

    let mut best: Option<SmacofSolution> = None;
    for restart in 0..config.restarts.max(1) {
        // The first start uses a classical-MDS (Torgerson) embedding of the
        // shortest-path-completed distance matrix — it lands close to the
        // global optimum for most inputs. Subsequent restarts use random
        // placements to escape local minima when the data is inconsistent.
        let init: Vec<Vec2> = if restart == 0 {
            classical_mds_init(distances, weights).unwrap_or_else(|| {
                (0..n)
                    .map(|_| {
                        Vec2::new(
                            rng.gen_range(-config.init_scale..config.init_scale),
                            rng.gen_range(-config.init_scale..config.init_scale),
                        )
                    })
                    .collect()
            })
        } else {
            (0..n)
                .map(|_| {
                    Vec2::new(
                        rng.gen_range(-config.init_scale..config.init_scale),
                        rng.gen_range(-config.init_scale..config.init_scale),
                    )
                })
                .collect()
        };
        let (positions, stress_val, iterations) = run_single(init, distances, weights, config)?;
        let solution = SmacofSolution {
            normalized_stress: {
                let links = active_link_count(distances, weights);
                if links == 0 {
                    0.0
                } else {
                    (stress_val / links as f64).sqrt()
                }
            },
            positions,
            stress: stress_val,
            iterations,
        };
        if best.as_ref().is_none_or(|b| solution.stress < b.stress) {
            best = Some(solution);
        }
    }
    best.ok_or(LocalizationError::SolverFailure {
        reason: "no SMACOF restart produced a solution".into(),
    })
}

/// Huber-reweighted (IRLS) SMACOF refinement.
///
/// Runs [`smacof`], then iteratively downweights links whose residual
/// `|measured − embedded|` exceeds `delta_m` (Huber weight `delta/|r|`) and
/// re-solves. Moderate ranging outliers — a missed direct path biasing one
/// link by a couple of metres, too small to trip the 1.5 m hard-drop
/// threshold of Algorithm 1 — stop dragging the whole topology while clean
/// links keep their full weight. Two reweight rounds are enough for the
/// weights to stabilise at this problem size.
pub fn smacof_robust<R: Rng>(
    distances: &DistanceMatrix,
    weights: &WeightMatrix,
    config: &SmacofConfig,
    delta_m: f64,
    rng: &mut R,
) -> Result<SmacofSolution> {
    let initial = smacof(distances, weights, config, rng)?;
    refine_robust(distances, weights, config, delta_m, initial)
}

/// The reweighting half of [`smacof_robust`]: warm-started Guttman
/// iterations from an existing solution (e.g. the embedding Algorithm 1
/// just accepted), so the refinement polishes the validated embedding
/// instead of re-solving from fresh random/MDS inits and possibly landing
/// in a different local minimum.
pub fn refine_robust(
    distances: &DistanceMatrix,
    weights: &WeightMatrix,
    config: &SmacofConfig,
    delta_m: f64,
    initial: SmacofSolution,
) -> Result<SmacofSolution> {
    let mut solution = initial;
    if delta_m <= 0.0 {
        return Ok(solution);
    }
    for _ in 0..2 {
        let mut reweighted = weights.clone();
        let mut changed = false;
        for (i, j) in distances.links() {
            let w = weights.get(i, j);
            if w == 0.0 {
                continue;
            }
            let Some(measured) = distances.get(i, j) else {
                continue;
            };
            let residual =
                (measured - solution.positions[i].distance(&solution.positions[j])).abs();
            if residual > delta_m {
                reweighted.set(i, j, w * delta_m / residual);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let (positions, _, iterations) =
            run_single(solution.positions, distances, &reweighted, config)?;
        // Keep the refined embedding but report the stress against the
        // *original* weights so thresholds stay comparable.
        solution = SmacofSolution {
            normalized_stress: normalized_stress(&positions, distances, weights),
            stress: stress(&positions, distances, weights),
            positions,
            iterations,
        };
    }
    Ok(solution)
}

/// Plain warm-started Guttman descent: runs the SMACOF majorization from
/// `initial` under the given weights, with no random restarts and no
/// reweighting. Deterministic (consumes no RNG).
///
/// Algorithm 1's drop validation uses this to score candidate link drops
/// from an embedding it already trusts: the random-restart [`smacof`] solve
/// can miss the global minimum of a reduced link set (its classical-MDS
/// init completes a dropped link by graph shortest path, which badly
/// overestimates links much shorter than any two-hop detour), while the
/// clean links alone reliably pull a full-link embedding into the reduced
/// set's own minimum.
pub fn refine(
    distances: &DistanceMatrix,
    weights: &WeightMatrix,
    config: &SmacofConfig,
    initial: &[Vec2],
) -> Result<SmacofSolution> {
    let (positions, stress_val, iterations) =
        run_single(initial.to_vec(), distances, weights, config)?;
    Ok(SmacofSolution {
        normalized_stress: normalized_stress(&positions, distances, weights),
        stress: stress_val,
        positions,
        iterations,
    })
}

/// Classical-MDS (Torgerson) initial embedding. Missing or zero-weight
/// links are filled with graph shortest-path distances; returns `None`
/// when the active-link graph is disconnected (the caller falls back to a
/// random start).
fn classical_mds_init(distances: &DistanceMatrix, weights: &WeightMatrix) -> Option<Vec<Vec2>> {
    let n = distances.len();
    const INF: f64 = 1e18;
    let mut d = vec![INF; n * n];
    for i in 0..n {
        d[i * n + i] = 0.0;
    }
    for (i, j) in distances.links() {
        if weights.get(i, j) > 0.0 {
            let v = distances.get(i, j)?;
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
    }
    // Floyd–Warshall completion.
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i * n + k] + d[k * n + j];
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
    if d.iter().any(|&v| v >= INF) {
        return None;
    }
    // Double centring: B = −½ J D² J.
    let d2: Vec<f64> = d.iter().map(|&v| v * v).collect();
    let row_mean: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| d2[i * n + j]).sum::<f64>() / n as f64)
        .collect();
    let grand_mean: f64 = row_mean.iter().sum::<f64>() / n as f64;
    let mut b = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            b[i * n + j] = -0.5 * (d2[i * n + j] - row_mean[i] - row_mean[j] + grand_mean);
        }
    }
    let (vals, vecs) = symmetric_eigen(&b, n).ok()?;
    if vals.len() < 2 || vals[0] <= 0.0 {
        return None;
    }
    let s0 = vals[0].max(0.0).sqrt();
    let s1 = vals.get(1).copied().unwrap_or(0.0).max(0.0).sqrt();
    Some(
        (0..n)
            .map(|i| Vec2::new(vecs[0][i] * s0, vecs[1][i] * s1))
            .collect(),
    )
}

/// One active link of a Guttman run: a pair `i < j` with a measurement
/// and a non-zero weight.
struct Link {
    i: usize,
    j: usize,
    w: f64,
    d: f64,
    /// `−w·d`, the numerator of the link's B(X) entry.
    neg_wd: f64,
    /// Embedded distance at the current positions.
    emb: f64,
}

/// [`stress`] over the active links, recording each link's embedded
/// distance for the next B(X).
fn link_stress(positions: &[Vec2], links: &mut [Link]) -> f64 {
    let mut s = 0.0;
    for link in links {
        link.emb = positions[link.i].distance(&positions[link.j]);
        s += link.w * (link.d - link.emb) * (link.d - link.emb);
    }
    s
}

/// One SMACOF run from a given initial placement.
///
/// An iteration builds B(X) once per active link, forms B(X)·X, replays
/// the factored solve on both coordinates and computes the stress, whose
/// embedded distances the next B(X) reuses. V's singular-matrix error is
/// raised before the first iteration, so a run of 0 iterations still
/// returns its initial stress.
fn run_single(
    mut positions: Vec<Vec2>,
    distances: &DistanceMatrix,
    weights: &WeightMatrix,
    config: &SmacofConfig,
) -> Result<(Vec<Vec2>, f64, usize)> {
    let n = positions.len();
    let mut links = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let w = weights.get(i, j);
            if w == 0.0 {
                continue;
            }
            if let Some(d) = distances.get(i, j) {
                links.push(Link {
                    i,
                    j,
                    w,
                    d,
                    neg_wd: -w * d,
                    emb: 0.0,
                });
            }
        }
    }
    let mut prev_stress = link_stress(&positions, &mut links);
    if config.max_iterations == 0 {
        return Ok((positions, prev_stress, 0));
    }

    // V matrix of the Guttman transform (constant across iterations):
    // V_ij = -w_ij (i≠j), V_ii = Σ_j w_ij. V is rank n-1; the standard
    // trick adds 1·1ᵀ/n to make it invertible without changing the solution
    // (the embedding is centred).
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let w = weights.get(i, j);
                v[i * n + j] = -w;
                v[i * n + i] += w;
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            v[i * n + j] += 1.0 / n as f64;
        }
    }
    let v = LuFactors::new(v, n)?;

    // B(X) entries of pairs without an active link stay zero.
    let mut b = vec![0.0; n * n];
    let mut next = vec![Vec2::default(); n];
    let mut iterations = 0;
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // B(X), one value per link: the weights, the distances and
        // `Vec2::distance` are symmetric, so B_ij and B_ji are the same
        // bits. Visiting links in (i, j) order subtracts from each
        // diagonal entry in increasing partner order. A measured distance
        // of 0 stores −0.0 where adding to a zeroed entry held +0.0; the
        // sums below start at +0.0, so either zero adds the same bits.
        for i in 0..n {
            b[i * n + i] = 0.0;
        }
        for link in &links {
            let val = link.neg_wd / link.emb.max(1e-9);
            b[link.i * n + link.j] = val;
            b[link.j * n + link.i] = val;
            b[link.i * n + link.i] -= val;
            b[link.j * n + link.j] -= val;
        }
        // Right-hand sides B(X)·X for x and y coordinates.
        for (i, rhs) in next.iter_mut().enumerate() {
            let mut acc = Vec2::default();
            for (&bij, p) in b[i * n..(i + 1) * n].iter().zip(&positions) {
                acc.x += bij * p.x;
                acc.y += bij * p.y;
            }
            *rhs = acc;
        }
        v.solve(&mut next);
        std::mem::swap(&mut positions, &mut next);

        let s = link_stress(&positions, &mut links);
        if prev_stress - s < config.tolerance * prev_stress.max(1e-12) {
            prev_stress = s;
            break;
        }
        prev_stress = s;
    }
    Ok((positions, prev_stress, iterations))
}

/// Computes the per-device embedding error between two point sets after
/// optimally aligning them (translation + rotation + optional reflection):
/// a Procrustes alignment. Returns the per-device distances after
/// alignment. Used to score topology recovery independent of the gauge
/// freedoms SMACOF cannot resolve.
pub fn procrustes_errors(estimate: &[Vec2], truth: &[Vec2]) -> Result<Vec<f64>> {
    if estimate.len() != truth.len() || estimate.is_empty() {
        return Err(LocalizationError::InvalidInput {
            reason: "procrustes requires equal-length, non-empty point sets".into(),
        });
    }
    let n = estimate.len() as f64;
    let cent = |pts: &[Vec2]| {
        let mut c = Vec2::default();
        for p in pts {
            c = c.add(p);
        }
        c.scale(1.0 / n)
    };
    let ce = cent(estimate);
    let ct = cent(truth);
    let est: Vec<Vec2> = estimate.iter().map(|p| p.sub(&ce)).collect();
    let tru: Vec<Vec2> = truth.iter().map(|p| p.sub(&ct)).collect();

    let mut best: Option<Vec<f64>> = None;
    for reflect in [false, true] {
        let est_r: Vec<Vec2> = if reflect {
            est.iter().map(|p| Vec2::new(p.x, -p.y)).collect()
        } else {
            est.clone()
        };
        // Optimal rotation angle via the cross/dot sums.
        let mut num = 0.0;
        let mut den = 0.0;
        for (e, t) in est_r.iter().zip(tru.iter()) {
            num += e.x * t.y - e.y * t.x;
            den += e.x * t.x + e.y * t.y;
        }
        let theta = num.atan2(den);
        let errors: Vec<f64> = est_r
            .iter()
            .zip(tru.iter())
            .map(|(e, t)| e.rotate(theta).distance(t))
            .collect();
        let total: f64 = errors.iter().map(|e| e * e).sum();
        let is_better = match &best {
            None => true,
            Some(b) => total < b.iter().map(|e| e * e).sum::<f64>(),
        };
        if is_better {
            best = Some(errors);
        }
    }
    Ok(best.expect("at least one orientation evaluated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn square_points() -> Vec<Vec2> {
        vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(10.0, 10.0),
            Vec2::new(0.0, 10.0),
            Vec2::new(5.0, 5.0),
        ]
    }

    #[test]
    fn recovers_exact_topology_from_exact_distances() {
        let truth = square_points();
        let d = DistanceMatrix::from_points_2d(&truth);
        let w = WeightMatrix::ones(truth.len());
        let mut rng = StdRng::seed_from_u64(1);
        let sol = smacof(&d, &w, &SmacofConfig::default(), &mut rng).unwrap();
        assert!(
            sol.normalized_stress < 1e-3,
            "stress {}",
            sol.normalized_stress
        );
        let errs = procrustes_errors(&sol.positions, &truth).unwrap();
        for e in errs {
            assert!(e < 0.01, "embedding error {e}");
        }
    }

    #[test]
    fn stress_decreases_with_better_fit() {
        let truth = square_points();
        let d = DistanceMatrix::from_points_2d(&truth);
        let w = WeightMatrix::ones(truth.len());
        let bad = vec![Vec2::new(0.0, 0.0); 5];
        let good = truth.clone();
        assert!(stress(&good, &d, &w) < stress(&bad, &d, &w));
        assert!(normalized_stress(&good, &d, &w) < 1e-9);
    }

    #[test]
    fn handles_noisy_distances_with_bounded_error() {
        let truth = square_points();
        let mut d = DistanceMatrix::from_points_2d(&truth);
        // Add ±0.5 m noise.
        let mut rng = StdRng::seed_from_u64(2);
        for (i, j) in d.links() {
            let v = d.get(i, j).unwrap();
            let noisy = (v + rng.gen_range(-0.5..0.5)).max(0.1);
            d.set(i, j, noisy).unwrap();
        }
        let w = WeightMatrix::ones(truth.len());
        let sol = smacof(&d, &w, &SmacofConfig::default(), &mut rng).unwrap();
        let errs = procrustes_errors(&sol.positions, &truth).unwrap();
        let mean: f64 = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 1.0, "mean embedding error {mean}");
        assert!(sol.normalized_stress < 1.5);
    }

    #[test]
    fn missing_link_is_tolerated() {
        let truth = square_points();
        let mut d = DistanceMatrix::from_points_2d(&truth);
        d.clear(0, 2); // drop one diagonal
        let w = WeightMatrix::from_distances(&d);
        let mut rng = StdRng::seed_from_u64(3);
        let sol = smacof(&d, &w, &SmacofConfig::default(), &mut rng).unwrap();
        let errs = procrustes_errors(&sol.positions, &truth).unwrap();
        for e in errs {
            assert!(e < 0.1, "error {e}");
        }
    }

    #[test]
    fn too_few_devices_or_links_rejected() {
        let d = DistanceMatrix::from_points_2d(&[Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)]);
        let w = WeightMatrix::ones(2);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(smacof(&d, &w, &SmacofConfig::default(), &mut rng).is_err());

        // 5 nodes but only 4 links (< 2n-3 = 7): not localizable.
        let mut sparse = DistanceMatrix::new(5);
        sparse.set(0, 1, 1.0).unwrap();
        sparse.set(1, 2, 1.0).unwrap();
        sparse.set(2, 3, 1.0).unwrap();
        sparse.set(3, 4, 1.0).unwrap();
        let w = WeightMatrix::from_distances(&sparse);
        assert!(matches!(
            smacof(&sparse, &w, &SmacofConfig::default(), &mut rng),
            Err(LocalizationError::NotLocalizable { .. })
        ));

        // Mismatched weight matrix size.
        let d = DistanceMatrix::from_points_2d(&square_points());
        let w = WeightMatrix::ones(3);
        assert!(smacof(&d, &w, &SmacofConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn wrong_distance_raises_stress() {
        // One corrupted link: the normalized stress should exceed the clean
        // case substantially (this is what drives outlier detection).
        let truth = square_points();
        let mut d = DistanceMatrix::from_points_2d(&truth);
        let clean_w = WeightMatrix::ones(truth.len());
        let mut rng = StdRng::seed_from_u64(5);
        let clean = smacof(&d, &clean_w, &SmacofConfig::default(), &mut rng).unwrap();
        d.set(0, 2, 25.0).unwrap(); // true distance is 14.14 m
        let corrupted = smacof(&d, &clean_w, &SmacofConfig::default(), &mut rng).unwrap();
        assert!(corrupted.normalized_stress > 10.0 * clean.normalized_stress.max(1e-6));
        assert!(
            corrupted.normalized_stress > 1.5,
            "stress {}",
            corrupted.normalized_stress
        );
    }

    #[test]
    fn procrustes_is_invariant_to_rigid_motions() {
        let truth = square_points();
        let moved: Vec<Vec2> = truth
            .iter()
            .map(|p| p.rotate(0.7).add(&Vec2::new(100.0, -50.0)))
            .collect();
        let errs = procrustes_errors(&moved, &truth).unwrap();
        for e in errs {
            assert!(e < 1e-9);
        }
        // Reflection is also absorbed.
        let mirrored: Vec<Vec2> = truth.iter().map(|p| Vec2::new(-p.x, p.y)).collect();
        let errs = procrustes_errors(&mirrored, &truth).unwrap();
        for e in errs {
            assert!(e < 1e-9);
        }
        assert!(procrustes_errors(&truth, &truth[..3]).is_err());
        assert!(procrustes_errors(&[], &[]).is_err());
    }

    /// The Guttman loop as it ran before V was factored once per run: B(X)
    /// from every ordered pair, two fresh eliminations of V and fresh
    /// buffers on every iteration. Kept only as the reference that
    /// `guttman_loop_matches_the_reference_bit_for_bit` pins
    /// [`run_single`] to.
    mod reference {
        use crate::matrix::{DistanceMatrix, Vec2, WeightMatrix};
        use crate::smacof::{stress, SmacofConfig};
        use crate::{LocalizationError, Result};

        fn solve_linear(a: &[f64], b: &[f64], n: usize) -> Result<Vec<f64>> {
            if a.len() != n * n || b.len() != n {
                return Err(LocalizationError::InvalidInput {
                    reason: "linear system dimensions mismatch".into(),
                });
            }
            let mut m = a.to_vec();
            let mut rhs = b.to_vec();
            for col in 0..n {
                let mut pivot = col;
                for row in (col + 1)..n {
                    if m[row * n + col].abs() > m[pivot * n + col].abs() {
                        pivot = row;
                    }
                }
                if m[pivot * n + col].abs() < 1e-12 {
                    return Err(LocalizationError::SolverFailure {
                        reason: "singular matrix in Guttman transform".into(),
                    });
                }
                if pivot != col {
                    for k in 0..n {
                        m.swap(col * n + k, pivot * n + k);
                    }
                    rhs.swap(col, pivot);
                }
                for row in (col + 1)..n {
                    let factor = m[row * n + col] / m[col * n + col];
                    for k in col..n {
                        m[row * n + k] -= factor * m[col * n + k];
                    }
                    rhs[row] -= factor * rhs[col];
                }
            }
            let mut x = vec![0.0; n];
            for row in (0..n).rev() {
                let mut acc = rhs[row];
                for k in (row + 1)..n {
                    acc -= m[row * n + k] * x[k];
                }
                x[row] = acc / m[row * n + row];
            }
            Ok(x)
        }

        pub(super) fn run_single(
            mut positions: Vec<Vec2>,
            distances: &DistanceMatrix,
            weights: &WeightMatrix,
            config: &SmacofConfig,
        ) -> Result<(Vec<Vec2>, f64, usize)> {
            let n = positions.len();
            let mut v = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        let w = weights.get(i, j);
                        v[i * n + j] = -w;
                        v[i * n + i] += w;
                    }
                }
            }
            for i in 0..n {
                for j in 0..n {
                    v[i * n + j] += 1.0 / n as f64;
                }
            }

            let mut prev_stress = stress(&positions, distances, weights);
            let mut iterations = 0;
            for iter in 0..config.max_iterations {
                iterations = iter + 1;
                let mut b = vec![0.0; n * n];
                for i in 0..n {
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let w = weights.get(i, j);
                        if w == 0.0 {
                            continue;
                        }
                        if let Some(d) = distances.get(i, j) {
                            let emb = positions[i].distance(&positions[j]).max(1e-9);
                            let val = -w * d / emb;
                            b[i * n + j] += val;
                            b[i * n + i] -= val;
                        }
                    }
                }
                let mut bx = vec![0.0; n];
                let mut by = vec![0.0; n];
                for i in 0..n {
                    for j in 0..n {
                        bx[i] += b[i * n + j] * positions[j].x;
                        by[i] += b[i * n + j] * positions[j].y;
                    }
                }
                let new_x = solve_linear(&v, &bx, n)?;
                let new_y = solve_linear(&v, &by, n)?;
                positions = new_x
                    .iter()
                    .zip(new_y.iter())
                    .map(|(&x, &y)| Vec2::new(x, y))
                    .collect();

                let s = stress(&positions, distances, weights);
                if prev_stress - s < config.tolerance * prev_stress.max(1e-12) {
                    prev_stress = s;
                    break;
                }
                prev_stress = s;
            }
            Ok((positions, prev_stress, iterations))
        }
    }

    /// A seeded Guttman problem on `n` devices scattered over ±30 m: noisy
    /// ranges with some links missing (half of them still weighted), a
    /// share `zero_share` of the measured links at weight 0, fractional
    /// (Huber-style) weights down to 1e-3, now and then a measured
    /// distance of 0, and sometimes two coincident starting points. Sparse,
    /// uneven weights make V's elimination swap rows. With `disconnected`,
    /// no weight joins the first half of the devices to the second, so V
    /// is singular.
    fn random_problem(
        rng: &mut StdRng,
        n: usize,
        zero_share: f64,
        disconnected: bool,
    ) -> (DistanceMatrix, WeightMatrix, Vec<Vec2>) {
        let point =
            |rng: &mut StdRng| Vec2::new(rng.gen_range(-30.0..30.0), rng.gen_range(-30.0..30.0));
        let truth: Vec<Vec2> = (0..n).map(|_| point(rng)).collect();
        let noise = [0.0, 0.3, 3.0][rng.gen_range(0..3usize)];
        let mut d = DistanceMatrix::new(n);
        let mut w = WeightMatrix::ones(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let roll = rng.gen_range(0.0..1.0);
                if roll < 0.15 {
                    if rng.gen_bool(0.5) {
                        w.set(i, j, 0.0);
                    }
                    continue;
                }
                let measured = if roll < 0.2 {
                    0.0
                } else {
                    let jitter = if noise > 0.0 {
                        rng.gen_range(-noise..noise)
                    } else {
                        0.0
                    };
                    (truth[i].distance(&truth[j]) + jitter).max(0.0)
                };
                d.set(i, j, measured).unwrap();
                let roll = rng.gen_range(0.0..1.0);
                if roll < zero_share {
                    w.set(i, j, 0.0);
                } else if roll < zero_share + 0.3 {
                    w.set(i, j, 10f64.powf(rng.gen_range(-3.0..0.0)));
                }
            }
        }
        if disconnected {
            for i in 0..n / 2 {
                for j in n / 2..n {
                    w.set(i, j, 0.0);
                }
            }
        }
        let mut init: Vec<Vec2> = (0..n).map(|_| point(rng)).collect();
        if rng.gen_bool(0.2) {
            init[1] = init[0];
        }
        (d, w, init)
    }

    /// A run's coordinates and stress as raw bits, with its iteration
    /// count.
    fn bits(out: &Result<(Vec<Vec2>, f64, usize)>) -> Result<(Vec<u64>, usize)> {
        out.clone().map(|(positions, stress, iterations)| {
            let mut bits: Vec<u64> = positions
                .iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
                .collect();
            bits.push(stress.to_bits());
            (bits, iterations)
        })
    }

    #[test]
    fn guttman_loop_matches_the_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x6775_7474);
        let mut singular = 0;
        for n in 3..=12 {
            for case in 0..24 {
                let zero_share = if case % 2 == 0 { 0.1 } else { 0.5 };
                let disconnected = case % 8 == 7;
                let (d, w, init) = random_problem(&mut rng, n, zero_share, disconnected);
                for max_iterations in [0, 1, 7, 300] {
                    for tolerance in [1e-9, 0.0] {
                        let config = SmacofConfig {
                            max_iterations,
                            tolerance,
                            ..SmacofConfig::default()
                        };
                        let expected = reference::run_single(init.clone(), &d, &w, &config);
                        let actual = run_single(init.clone(), &d, &w, &config);
                        assert_eq!(
                            bits(&actual),
                            bits(&expected),
                            "n {n}, case {case}, max_iterations {max_iterations}, \
                             tolerance {tolerance}"
                        );
                        if disconnected && max_iterations > 0 {
                            assert!(expected.is_err(), "n {n}, case {case}: V not singular");
                            singular += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(singular, 10 * 3 * 3 * 2);
    }

    #[test]
    fn iterations_are_reported_and_bounded() {
        let truth = square_points();
        let d = DistanceMatrix::from_points_2d(&truth);
        let w = WeightMatrix::ones(truth.len());
        let config = SmacofConfig {
            max_iterations: 50,
            ..SmacofConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let sol = smacof(&d, &w, &config, &mut rng).unwrap();
        assert!(sol.iterations >= 1 && sol.iterations <= 50);
    }
}
