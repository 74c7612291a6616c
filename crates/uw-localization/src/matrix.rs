//! Small data structures shared by the localization solver: 2D points,
//! symmetric pairwise-distance matrices with optional (missing) entries,
//! weight matrices and a tiny dense linear solver for the SMACOF Guttman
//! transform, factored once per run.

use crate::{LocalizationError, Result};
use serde::{Deserialize, Serialize};

/// A 2D point (the plane after depth projection). Units are metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal x coordinate (m).
    pub x: f64,
    /// Horizontal y coordinate (m).
    pub y: f64,
}

impl Vec2 {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Vec2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Vector difference.
    pub fn sub(&self, other: &Vec2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }

    /// Vector sum.
    pub fn add(&self, other: &Vec2) -> Vec2 {
        Vec2::new(self.x + other.x, self.y + other.y)
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Rotates the point by `theta` radians counter-clockwise about the
    /// origin.
    pub fn rotate(&self, theta: f64) -> Vec2 {
        let (s, c) = theta.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Reflects the point across the line through the origin at angle
    /// `theta` (radians).
    pub fn reflect_across(&self, theta: f64) -> Vec2 {
        let (s, c) = (2.0 * theta).sin_cos();
        Vec2::new(c * self.x + s * self.y, s * self.x - c * self.y)
    }
}

/// A symmetric pairwise measurement matrix with optional entries. `None`
/// marks a missing link (devices out of range of each other).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    n: usize,
    entries: Vec<Option<f64>>,
}

impl DistanceMatrix {
    /// Creates an empty (all missing) matrix for `n` devices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            entries: vec![None; n * n],
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true when the matrix covers zero devices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets the symmetric entry `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i >= self.n || j >= self.n {
            return Err(LocalizationError::InvalidInput {
                reason: format!("index ({i}, {j}) outside a {0}×{0} matrix", self.n),
            });
        }
        if i == j {
            return Ok(()); // self-distances are implicitly zero
        }
        if !(value.is_finite() && value >= 0.0) {
            return Err(LocalizationError::InvalidInput {
                reason: format!("distance ({i}, {j}) must be finite and non-negative, got {value}"),
            });
        }
        self.entries[i * self.n + j] = Some(value);
        self.entries[j * self.n + i] = Some(value);
        Ok(())
    }

    /// Clears the symmetric entry `(i, j)` (marks the link missing).
    pub fn clear(&mut self, i: usize, j: usize) {
        if i < self.n && j < self.n && i != j {
            self.entries[i * self.n + j] = None;
            self.entries[j * self.n + i] = None;
        }
    }

    /// Gets the entry `(i, j)`; `Some(0.0)` on the diagonal.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i >= self.n || j >= self.n {
            return None;
        }
        if i == j {
            return Some(0.0);
        }
        self.entries[i * self.n + j]
    }

    /// Returns true when the link `(i, j)` has a measurement.
    pub fn has_link(&self, i: usize, j: usize) -> bool {
        i != j && self.get(i, j).is_some()
    }

    /// All present links as `(i, j)` pairs with `i < j`.
    pub fn links(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.has_link(i, j) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Number of present links.
    pub fn link_count(&self) -> usize {
        self.links().len()
    }

    /// Builds a fully-populated matrix from exact 2D positions (useful for
    /// tests and the analytical evaluation).
    pub fn from_points_2d(points: &[Vec2]) -> Self {
        let n = points.len();
        let mut m = Self::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                // Positions are finite ⇒ set cannot fail.
                let _ = m.set(i, j, points[i].distance(&points[j]));
            }
        }
        m
    }
}

/// Symmetric 0/1 (or weighted) link-weight matrix used by SMACOF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightMatrix {
    n: usize,
    weights: Vec<f64>,
}

impl WeightMatrix {
    /// All-ones weights for `n` devices (no self weights).
    pub fn ones(n: usize) -> Self {
        let mut weights = vec![1.0; n * n];
        for i in 0..n {
            weights[i * n + i] = 0.0;
        }
        Self { n, weights }
    }

    /// Weights matching the availability pattern of a distance matrix:
    /// 1 where a link exists, 0 where it is missing.
    pub fn from_distances(distances: &DistanceMatrix) -> Self {
        let n = distances.len();
        let mut w = Self::ones(n);
        for i in 0..n {
            for j in 0..n {
                if i != j && !distances.has_link(i, j) {
                    w.weights[i * n + j] = 0.0;
                }
            }
        }
        w
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true when the matrix covers zero devices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Gets the weight of link `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i >= self.n || j >= self.n || i == j {
            0.0
        } else {
            self.weights[i * self.n + j]
        }
    }

    /// Sets the symmetric weight of link `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, w: f64) {
        if i < self.n && j < self.n && i != j {
            self.weights[i * self.n + j] = w;
            self.weights[j * self.n + i] = w;
        }
    }

    /// Zeroes the weights of every link in `links`.
    pub fn drop_links(&mut self, links: &[(usize, usize)]) {
        for &(i, j) in links {
            self.set(i, j, 0.0);
        }
    }
}

/// Gaussian elimination with partial pivoting of a dense row-major `n×n`
/// matrix, done once and replayed on any number of right-hand sides. The
/// SMACOF Guttman transform solves against the same matrix on every
/// iteration of a run, on the small matrices (N ≤ a dozen devices) this
/// system works with.
///
/// [`LuFactors::solve`] performs on each right-hand side exactly the
/// floating-point operations that eliminating the augmented system
/// `[A | b]` would: each step's row swap, then `b[row] -= f · b[col]` with
/// that step's multipliers, then back substitution on the eliminated rows.
pub(crate) struct LuFactors {
    n: usize,
    /// Row-major. On and above the diagonal, the eliminated matrix; below
    /// it, the multiplier `m[row][col] / m[col][col]` that step `col`
    /// applied to the row then at position `row`.
    lu: Vec<f64>,
    /// `pivots[col]` is the row swapped with row `col` at step `col`.
    pivots: Vec<usize>,
}

impl LuFactors {
    /// Eliminates `a` (row-major `n×n`, whose storage the factors reuse).
    /// Fails when a pivot's magnitude falls below `1e-12`.
    pub(crate) fn new(mut a: Vec<f64>, n: usize) -> Result<Self> {
        if a.len() != n * n {
            return Err(LocalizationError::InvalidInput {
                reason: "linear system dimensions mismatch".into(),
            });
        }
        let mut pivots = Vec::with_capacity(n);
        for col in 0..n {
            let mut pivot = col;
            for row in (col + 1)..n {
                if a[row * n + col].abs() > a[pivot * n + col].abs() {
                    pivot = row;
                }
            }
            if a[pivot * n + col].abs() < 1e-12 {
                return Err(LocalizationError::SolverFailure {
                    reason: "singular matrix in Guttman transform".into(),
                });
            }
            if pivot != col {
                // Columns left of `col` hold earlier steps' multipliers,
                // which stay with the row position they were applied at.
                for k in col..n {
                    a.swap(col * n + k, pivot * n + k);
                }
            }
            pivots.push(pivot);
            for row in (col + 1)..n {
                let factor = a[row * n + col] / a[col * n + col];
                for k in (col + 1)..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                a[row * n + col] = factor;
            }
        }
        Ok(Self { n, lu: a, pivots })
    }

    /// Solves `A·x = b` in place for two right-hand sides at once: the `x`
    /// and the `y` components of `rhs`.
    pub(crate) fn solve(&self, rhs: &mut [Vec2]) {
        let n = self.n;
        assert_eq!(rhs.len(), n, "right-hand side length");
        for (col, &pivot) in self.pivots.iter().enumerate() {
            rhs.swap(col, pivot);
            let top = rhs[col];
            for (row, value) in rhs.iter_mut().enumerate().skip(col + 1) {
                let factor = self.lu[row * n + col];
                value.x -= factor * top.x;
                value.y -= factor * top.y;
            }
        }
        for row in (0..n).rev() {
            let upper = &self.lu[row * n..(row + 1) * n];
            let mut acc = rhs[row];
            for (&u, solved) in upper[row + 1..].iter().zip(&rhs[row + 1..]) {
                acc.x -= u * solved.x;
                acc.y -= u * solved.y;
            }
            rhs[row] = Vec2::new(acc.x / upper[row], acc.y / upper[row]);
        }
    }
}

/// Eigen-decomposition of a symmetric matrix by the cyclic Jacobi method.
///
/// `a` is row-major `n×n` and must be symmetric. Returns `(eigenvalues,
/// eigenvectors)` where `eigenvectors[k]` is the unit eigenvector for
/// `eigenvalues[k]`, sorted by decreasing eigenvalue. Exact enough for the
/// small matrices (N ≤ a dozen devices) used by the classical-MDS
/// initialisation.
pub fn symmetric_eigen(a: &[f64], n: usize) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
    if a.len() != n * n {
        return Err(LocalizationError::InvalidInput {
            reason: "eigen input is not n×n".into(),
        });
    }
    let mut m = a.to_vec();
    // Eigenvector accumulator starts as identity.
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    for _sweep in 0..100 {
        // Largest off-diagonal magnitude.
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(m[i * n + j].abs());
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let phi = 0.5 * (2.0 * apq).atan2(app - aqq);
                let (s, c) = phi.sin_cos();
                // Apply the rotation G(p,q,phi): A ← Gᵀ A G, V ← V G.
                for k in 0..n {
                    let akp = m[k * n + p];
                    let akq = m[k * n + q];
                    m[k * n + p] = c * akp + s * akq;
                    m[k * n + q] = -s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = m[p * n + k];
                    let aqk = m[q * n + k];
                    m[p * n + k] = c * apk + s * aqk;
                    m[q * n + k] = -s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp + s * vkq;
                    v[k * n + q] = -s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|k| (m[k * n + k], (0..n).map(|i| v[i * n + k]).collect()))
        .collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let values = pairs.iter().map(|(val, _)| *val).collect();
    let vectors = pairs.into_iter().map(|(_, vec)| vec).collect();
    Ok((values, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_ops() {
        let a = Vec2::new(3.0, 4.0);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert!((a.distance(&Vec2::new(0.0, 0.0)) - 5.0).abs() < 1e-12);
        assert_eq!(a.add(&Vec2::new(1.0, -1.0)), Vec2::new(4.0, 3.0));
        assert_eq!(a.sub(&Vec2::new(1.0, 1.0)), Vec2::new(2.0, 3.0));
        assert_eq!(a.scale(2.0), Vec2::new(6.0, 8.0));
    }

    #[test]
    fn rotation_preserves_norm_and_quarter_turn() {
        let a = Vec2::new(1.0, 0.0);
        let r = a.rotate(std::f64::consts::FRAC_PI_2);
        assert!((r.x - 0.0).abs() < 1e-12 && (r.y - 1.0).abs() < 1e-12);
        let b = Vec2::new(2.5, -1.5);
        assert!((b.rotate(1.234).norm() - b.norm()).abs() < 1e-12);
    }

    #[test]
    fn reflection_across_x_axis_and_diagonal() {
        let p = Vec2::new(1.0, 2.0);
        let rx = p.reflect_across(0.0);
        assert!((rx.x - 1.0).abs() < 1e-12 && (rx.y + 2.0).abs() < 1e-12);
        // Reflection across the 45° line swaps coordinates.
        let rd = p.reflect_across(std::f64::consts::FRAC_PI_4);
        assert!((rd.x - 2.0).abs() < 1e-12 && (rd.y - 1.0).abs() < 1e-12);
        // Reflecting twice is the identity.
        let twice = p.reflect_across(0.7).reflect_across(0.7);
        assert!((twice.x - p.x).abs() < 1e-12 && (twice.y - p.y).abs() < 1e-12);
    }

    #[test]
    fn distance_matrix_symmetry_and_links() {
        let mut d = DistanceMatrix::new(4);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        d.set(0, 1, 5.0).unwrap();
        d.set(2, 3, 7.0).unwrap();
        assert_eq!(d.get(1, 0), Some(5.0));
        assert_eq!(d.get(0, 0), Some(0.0));
        assert_eq!(d.get(0, 2), None);
        assert!(d.has_link(0, 1));
        assert!(!d.has_link(0, 2));
        assert!(!d.has_link(1, 1));
        assert_eq!(d.links(), vec![(0, 1), (2, 3)]);
        assert_eq!(d.link_count(), 2);
        d.clear(0, 1);
        assert!(!d.has_link(0, 1));
    }

    #[test]
    fn distance_matrix_rejects_bad_input() {
        let mut d = DistanceMatrix::new(3);
        assert!(d.set(0, 5, 1.0).is_err());
        assert!(d.set(0, 1, -1.0).is_err());
        assert!(d.set(0, 1, f64::NAN).is_err());
        assert!(d.set(1, 1, 3.0).is_ok()); // diagonal is a no-op
        assert_eq!(d.get(1, 1), Some(0.0));
        assert_eq!(d.get(9, 0), None);
    }

    #[test]
    fn matrix_from_points_reproduces_distances() {
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(3.0, 0.0),
            Vec2::new(0.0, 4.0),
        ];
        let d = DistanceMatrix::from_points_2d(&pts);
        assert_eq!(d.get(0, 1), Some(3.0));
        assert_eq!(d.get(0, 2), Some(4.0));
        assert_eq!(d.get(1, 2), Some(5.0));
        assert_eq!(d.link_count(), 3);
    }

    #[test]
    fn weight_matrix_tracks_missing_links() {
        let mut d = DistanceMatrix::new(3);
        d.set(0, 1, 1.0).unwrap();
        d.set(1, 2, 1.0).unwrap();
        let w = WeightMatrix::from_distances(&d);
        assert_eq!(w.get(0, 1), 1.0);
        assert_eq!(w.get(0, 2), 0.0);
        assert_eq!(w.get(1, 1), 0.0);
        let mut w2 = WeightMatrix::ones(3);
        assert!(!w2.is_empty());
        assert_eq!(w2.len(), 3);
        w2.drop_links(&[(0, 1)]);
        assert_eq!(w2.get(1, 0), 0.0);
        assert_eq!(w2.get(1, 2), 1.0);
        assert_eq!(w2.get(0, 9), 0.0);
    }

    #[test]
    fn linear_solver_solves_known_system() {
        // 2x + y = 5; x + 3y = 10  →  x = 1, y = 3 (x components), and
        // 2x + y = 3; x + 3y = 4  →  x = 1, y = 1 (y components).
        let lu = LuFactors::new(vec![2.0, 1.0, 1.0, 3.0], 2).unwrap();
        let mut rhs = [Vec2::new(5.0, 3.0), Vec2::new(10.0, 4.0)];
        lu.solve(&mut rhs);
        assert!((rhs[0].x - 1.0).abs() < 1e-10);
        assert!((rhs[1].x - 3.0).abs() < 1e-10);
        assert!((rhs[0].y - 1.0).abs() < 1e-10);
        assert!((rhs[1].y - 1.0).abs() < 1e-10);
    }

    #[test]
    fn linear_solver_detects_singularity_and_bad_dims() {
        assert_eq!(
            LuFactors::new(vec![1.0, 2.0, 2.0, 4.0], 2).err(),
            Some(LocalizationError::SolverFailure {
                reason: "singular matrix in Guttman transform".into()
            })
        );
        assert!(matches!(
            LuFactors::new(vec![1.0], 2),
            Err(LocalizationError::InvalidInput { .. })
        ));
    }

    #[test]
    fn jacobi_eigen_diagonal_matrix() {
        // Diagonal matrix: eigenvalues are the diagonal, sorted descending.
        let a = vec![2.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, -1.0];
        let (vals, vecs) = symmetric_eigen(&a, 3).unwrap();
        assert!((vals[0] - 5.0).abs() < 1e-9);
        assert!((vals[1] - 2.0).abs() < 1e-9);
        assert!((vals[2] + 1.0).abs() < 1e-9);
        // Eigenvector for 5.0 is the y axis (up to sign).
        assert!(vecs[0][1].abs() > 0.999);
    }

    #[test]
    fn jacobi_eigen_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = vec![2.0, 1.0, 1.0, 2.0];
        let (vals, vecs) = symmetric_eigen(&a, 2).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-9);
        assert!((vals[1] - 1.0).abs() < 1e-9);
        // Eigenvector for 3 is (1,1)/√2 up to sign.
        assert!((vecs[0][0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert!(symmetric_eigen(&a, 3).is_err());
    }

    #[test]
    fn jacobi_eigen_reconstructs_matrix() {
        // A = Q Λ Qᵀ must reproduce the input for a random symmetric matrix.
        let n = 5;
        let mut a = vec![0.0; n * n];
        let mut seed = 1234u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[i * n + j] = v;
                a[j * n + i] = v;
            }
        }
        let (vals, vecs) = symmetric_eigen(&a, n).unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut recon = 0.0;
                for k in 0..n {
                    recon += vals[k] * vecs[k][i] * vecs[k][j];
                }
                assert!(
                    (recon - a[i * n + j]).abs() < 1e-8,
                    "({i},{j}): {recon} vs {}",
                    a[i * n + j]
                );
            }
        }
    }

    #[test]
    fn linear_solver_handles_permuted_pivot() {
        // Leading zero forces a row swap.
        let lu = LuFactors::new(vec![0.0, 1.0, 1.0, 0.0], 2).unwrap();
        let mut rhs = [Vec2::new(2.0, -1.0), Vec2::new(3.0, 4.0)];
        lu.solve(&mut rhs);
        assert_eq!(rhs, [Vec2::new(3.0, 4.0), Vec2::new(2.0, -1.0)]);
    }
}
