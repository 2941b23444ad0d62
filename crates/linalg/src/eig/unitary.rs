//! Eigendecomposition of unitary matrices.
//!
//! A unitary `U` is normal, so it diagonalizes as `U = V·diag(e^{iθ})·V†`
//! with unitary `V` — but the Hermitian solvers in this crate cannot be
//! applied to it directly. The standard trick works with the commuting
//! Hermitian pair
//!
//! ```text
//! A = (U + U†)/2        (the "cosine" part)
//! B = (U − U†)/(2i)     (the "sine" part)
//! ```
//!
//! `A` and `B` are simultaneously diagonalizable; eigenvectors of `A` with
//! distinct eigenvalues are already eigenvectors of `U`, and inside each
//! degenerate eigenspace of `A` (phases `±θ` collide at `cos θ`) a small
//! projected eigenproblem of `B` separates them.
//!
//! The QPE simulator uses this to build **all** controlled powers `U^{2^j}`
//! from one decomposition — phase powers `e^{i·2^j·θ}` are exact, so the
//! error of repeated matrix squaring never accumulates.

use crate::complex::Complex64;
use crate::eig::eigh;
use crate::error::LinalgError;
use crate::expm::unitary_from_phases;
use crate::matrix::CMatrix;
use crate::vector::cdot;

/// Eigenvalue clustering width for the eigenspaces of the cosine part.
const CLUSTER_TOL: f64 = 1e-7;

/// Acceptable per-column residual `‖U·v − λ·v‖₂` of the decomposition.
const RESIDUAL_TOL: f64 = 1e-8;

/// Result of a unitary eigendecomposition `U = V·diag(e^{iθ_j})·V†`.
#[derive(Debug, Clone)]
pub struct UnitaryEigen {
    /// Eigenphases `θ_j ∈ (−π, π]`; the eigenvalue is `e^{iθ_j}`.
    pub phases: Vec<f64>,
    /// Unitary matrix whose `j`-th column is the eigenvector of `e^{iθ_j}`.
    pub eigenvectors: CMatrix,
}

impl UnitaryEigen {
    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.phases.len()
    }

    /// Rebuilds `U = V·diag(e^{iθ})·V†`: the reconstruction oracle for
    /// [`eig_unitary`], whose phases drive every QPE cascade.
    pub fn reconstruct(&self) -> CMatrix {
        let phases: Vec<Complex64> = self.phases.iter().map(|&t| Complex64::cis(t)).collect();
        unitary_from_phases(&self.eigenvectors, &phases)
    }
}

/// Eigendecomposition of a unitary (or any normal-with-unimodular-spectrum)
/// matrix.
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] for non-square input.
/// * [`LinalgError::NoConvergence`] if the simultaneous diagonalization
///   fails the residual check — which happens when the input is not
///   actually unitary (callers validate unitarity separately for a clearer
///   error).
///
/// # Examples
///
/// ```
/// use qsc_linalg::eig::eig_unitary;
/// use qsc_linalg::CMatrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), qsc_linalg::LinalgError> {
/// let mut rng = StdRng::seed_from_u64(5);
/// let u = CMatrix::random_unitary(6, &mut rng);
/// let eig = eig_unitary(&u)?;
/// assert!((&eig.reconstruct() - &u).max_norm() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn eig_unitary(u: &CMatrix) -> Result<UnitaryEigen, LinalgError> {
    if !u.is_square() {
        return Err(LinalgError::InvalidInput {
            context: format!("eig_unitary: matrix is {}×{}", u.nrows(), u.ncols()),
        });
    }
    let n = u.nrows();
    let uh = u.adjoint();
    let a = CMatrix::from_fn(n, n, |i, j| (u[(i, j)] + uh[(i, j)]).scale(0.5));
    let eig_a = eigh(&a)?;
    let mut v = eig_a.eigenvectors;

    // Split every degenerate eigenspace of A with the projected sine part.
    let b = CMatrix::from_fn(n, n, |i, j| {
        // (U − U†)/(2i) = −i/2 · (U − U†)
        (u[(i, j)] - uh[(i, j)]) * Complex64::new(0.0, -0.5)
    });
    let mut start = 0usize;
    while start < n {
        let mut end = start + 1;
        while end < n && eig_a.eigenvalues[end] - eig_a.eigenvalues[end - 1] < CLUSTER_TOL {
            end += 1;
        }
        if end - start > 1 {
            let cols: Vec<usize> = (start..end).collect();
            let vg = v.select_columns(&cols);
            let b_proj = vg.adjoint().matmul(&b.matmul(&vg));
            // The projection of a Hermitian matrix is Hermitian up to
            // rounding; symmetrize before handing it to eigh.
            let g = end - start;
            let b_sym = CMatrix::from_fn(g, g, |i, j| {
                (b_proj[(i, j)] + b_proj[(j, i)].conj()).scale(0.5)
            });
            let eig_b = eigh(&b_sym)?;
            let fixed = vg.matmul(&eig_b.eigenvectors);
            for (dj, &col) in cols.iter().enumerate() {
                for i in 0..n {
                    v[(i, col)] = fixed[(i, dj)];
                }
            }
        }
        start = end;
    }

    // Read the eigenphase of every column off the Rayleigh quotient and
    // verify the residual: λ_j = v_j†·U·v_j, θ_j = arg λ_j.
    let mut phases = Vec::with_capacity(n);
    for j in 0..n {
        let col = v.col(j);
        let ucol = u.matvec(&col);
        let lambda = cdot(&col, &ucol);
        let theta = lambda.arg();
        let lam_unit = Complex64::cis(theta);
        let residual: f64 = ucol
            .iter()
            .zip(&col)
            .map(|(x, y)| (*x - *y * lam_unit).norm_sqr())
            .sum::<f64>()
            .sqrt();
        if residual > RESIDUAL_TOL * (n as f64).sqrt().max(1.0) {
            return Err(LinalgError::NoConvergence {
                algorithm: "eig_unitary",
                iterations: n,
                residual: Some(residual),
            });
        }
        phases.push(theta);
    }

    Ok(UnitaryEigen {
        phases,
        eigenvectors: v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C_ONE, C_ZERO};
    use crate::expm::expi;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::{FRAC_PI_2, TAU};

    #[test]
    fn diagonal_unitary_recovers_phases() {
        let u = CMatrix::from_diag(&[
            Complex64::cis(0.3),
            Complex64::cis(-1.2),
            Complex64::cis(2.9),
        ]);
        let eig = eig_unitary(&u).unwrap();
        let mut phases = eig.phases.clone();
        phases.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expected = [0.3, -1.2, 2.9];
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in phases.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert!((&eig.reconstruct() - &u).max_norm() < 1e-9);
    }

    #[test]
    fn random_unitary_reconstructs() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [2usize, 5, 9, 16] {
            let u = CMatrix::random_unitary(n, &mut rng);
            let eig = eig_unitary(&u).unwrap();
            assert!(
                (&eig.reconstruct() - &u).max_norm() < 1e-8,
                "reconstruction failed at n={n}"
            );
            assert!(eig.eigenvectors.is_unitary(1e-8));
        }
    }

    #[test]
    fn conjugate_phase_pair_is_separated() {
        // U = e^{iθ(Y)} has phases ±θ — identical cosine part, so the
        // degenerate-eigenspace split must kick in.
        let y = CMatrix::from_rows(&[
            vec![C_ZERO, Complex64::new(0.0, -1.0)],
            vec![Complex64::new(0.0, 1.0), C_ZERO],
        ])
        .unwrap();
        let u = expi(&y, 0.8).unwrap();
        let eig = eig_unitary(&u).unwrap();
        let mut phases = eig.phases.clone();
        phases.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((phases[0] + 0.8).abs() < 1e-9);
        assert!((phases[1] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn identity_is_all_zero_phases() {
        let eig = eig_unitary(&CMatrix::identity(4)).unwrap();
        for &t in &eig.phases {
            assert!(t.abs() < 1e-10);
        }
    }

    #[test]
    fn qpe_style_evolution_operator() {
        let mut rng = StdRng::seed_from_u64(29);
        let h = CMatrix::random_hermitian(8, &mut rng);
        let u = expi(&h, TAU / 4.0).unwrap();
        let eig = eig_unitary(&u).unwrap();
        assert!((&eig.reconstruct() - &u).max_norm() < 1e-8);
        let _ = FRAC_PI_2;
    }

    #[test]
    fn rejects_non_square_and_non_unitary() {
        assert!(eig_unitary(&CMatrix::zeros(2, 3)).is_err());
        // A defective (non-normal) matrix must fail the residual check.
        let bad = CMatrix::from_rows(&[vec![C_ONE, C_ONE], vec![C_ZERO, C_ONE]]).unwrap();
        assert!(eig_unitary(&bad).is_err());
    }
}
