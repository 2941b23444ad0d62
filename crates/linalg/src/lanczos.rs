//! Lanczos iteration for the lowest eigenpairs of a Hermitian matrix.
//!
//! The "alternative classical algorithm" this line of papers discusses:
//! when only the `k` lowest eigenvectors are needed, a Krylov method costs
//! `O(m·n²)` for `m ≪ n` iterations instead of the `O(n³)` full
//! decomposition — but its practicality depends on the eigenvalue
//! distribution, which is exactly the caveat the ablation (A3) measures.
//!
//! Full reorthogonalization is used (the numerically safe, memory-hungry
//! variant), so the subspace stays orthonormal even for clustered spectra.

use crate::complex::{Complex64, C_ZERO};
use crate::csr::CsrMatrix;
use crate::eig::{ascending_order, ql, RotationLog, Rotations};
use crate::error::LinalgError;
use crate::matrix::CMatrix;
use crate::vector::{axpy, cdot, normalize};
use rand::Rng;

/// A Hermitian linear operator the Lanczos iteration can run on.
///
/// The iteration only ever applies the operator to vectors, so any
/// representation with a matvec qualifies: dense [`CMatrix`], sparse
/// [`CsrMatrix`], or (later) matrix-free operators. The `is_hermitian`
/// check is part of the trait so representations that already know their
/// symmetry (CSR caches it at construction) can answer in `O(1)` instead of
/// re-scanning `O(n²)` entries.
pub trait HermitianOp {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Applies the operator: `y = A·x`.
    fn apply(&self, x: &[Complex64]) -> Vec<Complex64>;

    /// Largest entry modulus, used to scale convergence tolerances.
    fn max_norm(&self) -> f64;

    /// `true` if the operator is Hermitian within `tol`.
    fn is_hermitian_within(&self, tol: f64) -> bool;

    /// Residual `‖A·v − λ·v‖₂` of a candidate eigenpair.
    fn eigen_residual(&self, lambda: f64, v: &[Complex64]) -> f64 {
        let av = self.apply(v);
        av.iter()
            .zip(v)
            .map(|(a, b)| (*a - b.scale(lambda)).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }
}

impl HermitianOp for CMatrix {
    fn dim(&self) -> usize {
        self.nrows()
    }
    fn apply(&self, x: &[Complex64]) -> Vec<Complex64> {
        self.matvec(x)
    }
    fn max_norm(&self) -> f64 {
        CMatrix::max_norm(self)
    }
    fn is_hermitian_within(&self, tol: f64) -> bool {
        CMatrix::is_hermitian(self, tol)
    }
}

impl HermitianOp for CsrMatrix {
    fn dim(&self) -> usize {
        self.nrows()
    }
    fn apply(&self, x: &[Complex64]) -> Vec<Complex64> {
        self.matvec(x)
    }
    fn max_norm(&self) -> f64 {
        CsrMatrix::max_norm(self)
    }
    fn is_hermitian_within(&self, tol: f64) -> bool {
        // The strict (1e-12) construction-time verdict short-circuits;
        // matrices that failed it are re-checked at the caller's tolerance
        // so the contract matches the dense entry point.
        CsrMatrix::is_hermitian_within(self, tol)
    }
}

/// Result of a partial (lowest-`k`) Hermitian eigendecomposition.
#[derive(Debug, Clone)]
pub struct PartialEigen {
    /// The `k` (approximate) smallest eigenvalues, ascending.
    pub eigenvalues: Vec<f64>,
    /// `n × k` matrix whose columns are the Ritz vectors.
    pub eigenvectors: CMatrix,
    /// Lanczos iterations actually performed.
    pub iterations: usize,
}

/// Computes the `k` lowest eigenpairs of a Hermitian matrix with the
/// Lanczos method (full reorthogonalization, random start, Krylov dimension
/// `min(n, max(2k + 10, 3k))` by default, doubled on poor convergence).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] for non-square/non-Hermitian
/// inputs or `k` out of range, and [`LinalgError::NoConvergence`] if the
/// Ritz residuals stay above `tol` at the maximum Krylov dimension.
///
/// # Examples
///
/// ```
/// use qsc_linalg::{lanczos::lanczos_lowest_k, CMatrix};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), qsc_linalg::LinalgError> {
/// let mut rng = StdRng::seed_from_u64(4);
/// let a = CMatrix::random_hermitian(30, &mut rng);
/// let partial = lanczos_lowest_k(&a, 3, 1e-8, &mut rng)?;
/// let full = qsc_linalg::eigh(&a)?;
/// for (p, f) in partial.eigenvalues.iter().zip(&full.eigenvalues) {
///     assert!((p - f).abs() < 1e-6);
/// }
/// # Ok(())
/// # }
/// ```
pub fn lanczos_lowest_k<R: Rng>(
    a: &CMatrix,
    k: usize,
    tol: f64,
    rng: &mut R,
) -> Result<PartialEigen, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::InvalidInput {
            context: format!("lanczos: matrix is {}×{}", a.nrows(), a.ncols()),
        });
    }
    lanczos_lowest_k_op(a, k, tol, rng)
}

/// [`lanczos_lowest_k`] on a sparse CSR matrix: the matvec costs `O(nnz)`
/// per iteration instead of `O(n²)`, which is the whole point of keeping
/// graph Laplacians sparse.
///
/// # Errors
///
/// Same contract as [`lanczos_lowest_k`]; the Hermiticity requirement uses
/// the verdict cached by [`CsrMatrix`] at construction.
///
/// # Examples
///
/// ```
/// use qsc_linalg::lanczos::{lanczos_lowest_k, lanczos_lowest_k_csr};
/// use qsc_linalg::{CMatrix, CsrMatrix};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), qsc_linalg::LinalgError> {
/// let mut rng = StdRng::seed_from_u64(4);
/// let dense = CMatrix::random_hermitian(30, &mut rng);
/// let sparse = CsrMatrix::from_dense(&dense, 0.0);
/// let via_dense = lanczos_lowest_k(&dense, 3, 1e-8, &mut StdRng::seed_from_u64(9))?;
/// let via_csr = lanczos_lowest_k_csr(&sparse, 3, 1e-8, &mut StdRng::seed_from_u64(9))?;
/// for (a, b) in via_dense.eigenvalues.iter().zip(&via_csr.eigenvalues) {
///     assert!((a - b).abs() < 1e-8);
/// }
/// # Ok(())
/// # }
/// ```
pub fn lanczos_lowest_k_csr<R: Rng>(
    a: &CsrMatrix,
    k: usize,
    tol: f64,
    rng: &mut R,
) -> Result<PartialEigen, LinalgError> {
    if a.nrows() != a.ncols() {
        return Err(LinalgError::InvalidInput {
            context: format!("lanczos: matrix is {}×{}", a.nrows(), a.ncols()),
        });
    }
    lanczos_lowest_k_op(a, k, tol, rng)
}

/// Generic driver behind the dense and CSR entry points: the lowest-`k`
/// eigenpairs of any [`HermitianOp`].
///
/// # Errors
///
/// Same contract as [`lanczos_lowest_k`].
pub fn lanczos_lowest_k_op<Op: HermitianOp, R: Rng>(
    a: &Op,
    k: usize,
    tol: f64,
    rng: &mut R,
) -> Result<PartialEigen, LinalgError> {
    let n = a.dim();
    if k == 0 || k > n {
        return Err(LinalgError::InvalidInput {
            context: format!("lanczos: k = {k} out of range for n = {n}"),
        });
    }
    let scale = a.max_norm().max(1.0);
    if !scale.is_finite() {
        return Err(LinalgError::InvalidInput {
            context: "lanczos: matrix has non-finite entries".into(),
        });
    }
    // A NaN entry fails the Hermitian check at any tolerance.
    if !a.is_hermitian_within(1e-9 * scale) {
        return Err(LinalgError::InvalidInput {
            context: "lanczos: matrix is not Hermitian".into(),
        });
    }

    let mut dim = (2 * k + 10).max(3 * k).min(n);
    let mut best_residual: Option<f64> = None;
    loop {
        match lanczos_run(a, k, dim, tol, rng)? {
            LanczosPass::Converged(result) => return Ok(result),
            LanczosPass::NotConverged { worst_residual } => {
                // Keep the best (lowest) failing residual across Krylov
                // doublings as the diagnostic of record.
                best_residual = match (best_residual, worst_residual) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if dim == n {
                    return Err(LinalgError::NoConvergence {
                        algorithm: "lanczos",
                        iterations: n,
                        residual: best_residual,
                    });
                }
                dim = (dim * 2).min(n);
            }
        }
    }
}

/// Outcome of one fixed-dimension Lanczos pass.
enum LanczosPass {
    /// All `k` Ritz pairs met the residual tolerance.
    Converged(PartialEigen),
    /// Not converged; carries the first failing Ritz residual when the
    /// pass got far enough to measure one.
    NotConverged {
        /// First Ritz residual above tolerance, if measured.
        worst_residual: Option<f64>,
    },
}

/// One Lanczos pass at a fixed Krylov dimension.
fn lanczos_run<Op: HermitianOp, R: Rng>(
    a: &Op,
    k: usize,
    dim: usize,
    tol: f64,
    rng: &mut R,
) -> Result<LanczosPass, LinalgError> {
    let n = a.dim();
    // Random normalized start vector.
    let mut v: Vec<Complex64> = (0..n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    normalize(&mut v);

    let mut basis: Vec<Vec<Complex64>> = Vec::with_capacity(dim);
    let mut alpha = Vec::with_capacity(dim);
    let mut beta: Vec<f64> = Vec::with_capacity(dim.saturating_sub(1));

    basis.push(v.clone());
    for j in 0..dim {
        if qsc_fault::should_fire_at(qsc_fault::FaultPoint::LanczosIteration, j as u64) {
            return Err(LinalgError::NoConvergence {
                algorithm: "lanczos (injected fault)",
                iterations: j,
                residual: None,
            });
        }
        let mut w = a.apply(&basis[j]);
        let aj = cdot(&basis[j], &w).re;
        alpha.push(aj);
        // w ← w − α_j v_j − β_{j−1} v_{j−1}, then full reorthogonalization.
        axpy(Complex64::real(-aj), &basis[j], &mut w);
        if j > 0 {
            axpy(Complex64::real(-beta[j - 1]), &basis[j - 1], &mut w);
        }
        for prev in &basis {
            let c = cdot(prev, &w);
            axpy(-c, prev, &mut w);
        }
        let b = normalize(&mut w);
        if j + 1 == dim {
            break;
        }
        if b < 1e-14 {
            // Invariant subspace found: the Krylov space is exhausted.
            break;
        }
        beta.push(b);
        basis.push(w);
    }

    let m = basis.len();
    // Diagonalize the tridiagonal (α, β) projection, logging the rotations
    // instead of accumulating all m eigenvectors of it.
    let mut d = alpha[..m].to_vec();
    let mut rotations = RotationLog::default();
    ql(
        &mut d,
        &beta[..m.saturating_sub(1)],
        Rotations::Log(&mut rotations),
    )?;
    let order = ascending_order(&d);

    if m < k {
        return Ok(LanczosPass::NotConverged {
            worst_residual: None,
        });
    }

    // Assemble the k lowest Ritz vectors: x = Σ_j z[j][col]·v_j, with the
    // k columns of z replayed from the log (row-major m × k).
    let z = rotations.replay(m, &order[..k]);
    let mut vectors = CMatrix::zeros(a.dim(), k);
    let mut values = Vec::with_capacity(k);
    for (out_col, &col) in order[..k].iter().enumerate() {
        let mut x = vec![C_ZERO; a.dim()];
        for (j, vj) in basis.iter().enumerate() {
            axpy(Complex64::real(z[j * k + out_col]), vj, &mut x);
        }
        normalize(&mut x);
        // Convergence check: Ritz residual ‖A·x − θ·x‖.
        let theta = d[col];
        let residual = a.eigen_residual(theta, &x);
        if residual > tol * a.max_norm().max(1.0) {
            return Ok(LanczosPass::NotConverged {
                worst_residual: Some(residual),
            });
        }
        for (i, &xi) in x.iter().enumerate() {
            vectors[(i, out_col)] = xi;
        }
        values.push(theta);
    }

    Ok(LanczosPass::Converged(PartialEigen {
        eigenvalues: values,
        eigenvectors: vectors,
        iterations: m,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::eigh;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_full_decomposition_on_random_hermitian() {
        let mut rng = StdRng::seed_from_u64(91);
        for n in [10usize, 25, 40] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            let full = eigh(&a).unwrap();
            let partial = lanczos_lowest_k(&a, 4, 1e-9, &mut rng).unwrap();
            for (p, f) in partial.eigenvalues.iter().zip(&full.eigenvalues) {
                assert!((p - f).abs() < 1e-6, "n={n}: {p} vs {f}");
            }
        }
    }

    #[test]
    fn ritz_vectors_are_eigenvectors() {
        let mut rng = StdRng::seed_from_u64(92);
        let a = CMatrix::random_hermitian(20, &mut rng);
        let partial = lanczos_lowest_k(&a, 3, 1e-9, &mut rng).unwrap();
        for j in 0..3 {
            let x = partial.eigenvectors.col(j);
            assert!(a.eigen_residual(partial.eigenvalues[j], &x) < 1e-6);
        }
    }

    #[test]
    fn handles_diagonal_matrix() {
        let mut rng = StdRng::seed_from_u64(93);
        let a = CMatrix::from_diag(
            &(0..12)
                .map(|i| Complex64::real(i as f64))
                .collect::<Vec<_>>(),
        );
        let partial = lanczos_lowest_k(&a, 2, 1e-9, &mut rng).unwrap();
        assert!((partial.eigenvalues[0] - 0.0).abs() < 1e-8);
        assert!((partial.eigenvalues[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_spectrum_converges() {
        // Identity plus a rank-1 bump: heavy degeneracy.
        let mut rng = StdRng::seed_from_u64(94);
        let n = 16;
        let mut a = CMatrix::identity(n);
        a[(0, 0)] = Complex64::real(-1.0);
        let partial = lanczos_lowest_k(&a, 2, 1e-9, &mut rng).unwrap();
        assert!((partial.eigenvalues[0] + 1.0).abs() < 1e-8);
        assert!((partial.eigenvalues[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn k_equals_n_works() {
        let mut rng = StdRng::seed_from_u64(95);
        let a = CMatrix::random_hermitian(8, &mut rng);
        let partial = lanczos_lowest_k(&a, 8, 1e-8, &mut rng).unwrap();
        let full = eigh(&a).unwrap();
        for (p, f) in partial.eigenvalues.iter().zip(&full.eigenvalues) {
            assert!((p - f).abs() < 1e-6);
        }
    }

    #[test]
    fn injected_iteration_fault_surfaces_as_non_convergence() {
        let mut rng = StdRng::seed_from_u64(97);
        let a = CMatrix::random_hermitian(12, &mut rng);
        let plan =
            qsc_fault::FaultPlan::seeded(3).with_rate(qsc_fault::FaultPoint::LanczosIteration, 1.0);
        let err = qsc_fault::scope(plan, 0, || lanczos_lowest_k(&a, 2, 1e-8, &mut rng))
            .expect_err("injected fault must surface");
        match err {
            LinalgError::NoConvergence { iterations, .. } => assert_eq!(iterations, 0),
            other => panic!("wrong error: {other}"),
        }
        // Outside the scope the same problem converges.
        assert!(lanczos_lowest_k(&a, 2, 1e-8, &mut rng).is_ok());
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(96);
        let a = CMatrix::random_hermitian(5, &mut rng);
        assert!(lanczos_lowest_k(&a, 0, 1e-8, &mut rng).is_err());
        assert!(lanczos_lowest_k(&a, 9, 1e-8, &mut rng).is_err());
        let bad = CMatrix::random(4, 4, &mut rng);
        assert!(lanczos_lowest_k(&bad, 1, 1e-8, &mut rng).is_err());
    }

    #[test]
    fn non_finite_input_is_invalid_not_unconverged() {
        let mut rng = StdRng::seed_from_u64(98);
        for (i, j, x) in [(1, 1, f64::NAN), (0, 2, f64::INFINITY)] {
            let mut m = CMatrix::identity(4);
            m[(i, j)] = Complex64::real(x);
            m[(j, i)] = Complex64::real(x);
            let mut results = vec![lanczos_lowest_k(&m, 2, 1e-8, &mut rng)];
            if !x.is_nan() {
                // CSR construction drops NaN entries (their modulus is not
                // above the drop tolerance), so only ∞ reaches the sparse path.
                let csr = CsrMatrix::from_dense(&m, 0.0);
                results.push(lanczos_lowest_k_csr(&csr, 2, 1e-8, &mut rng));
            }
            for result in results {
                assert!(
                    matches!(result, Err(LinalgError::InvalidInput { .. })),
                    "{x} at ({i},{j}): {result:?}"
                );
            }
        }
    }
}
