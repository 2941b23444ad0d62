//! Data-dependent parameters from the quantum-machine-learning runtime
//! analyses: `μ(A)` and condition numbers.
//!
//! These appear multiplicatively in the quantum cost model; the evaluation
//! measures them from each instance rather than assuming bounds, following
//! the quantum-linear-algebra convention (Kerenidis–Prakash style) the DAC
//! paper's line of work builds on.

use crate::matrix::CMatrix;

/// `s_p(A) = max_i ‖A_i‖_p^p`, the largest `p`-th-power row norm, with the
/// sparse convention `0^0 = 0` (zero entries never contribute, so `s_0`
/// counts non-zeros per row).
fn s_p(a: &CMatrix, p: f64) -> f64 {
    let mut best: f64 = 0.0;
    for i in 0..a.nrows() {
        let v: f64 = a
            .row(i)
            .iter()
            .map(|z| {
                let m = z.abs();
                if m == 0.0 {
                    0.0
                } else {
                    m.powf(p)
                }
            })
            .sum();
        best = best.max(v);
    }
    best
}

/// The `μ(A)` parameter: `min_p ( ‖A‖_F, sqrt(s_{2p}(A)·s_{2(1−p)}(Aᵀ)) )`
/// evaluated over a grid of `p ∈ [0, 1]`.
///
/// For dense matrices this is close to the Frobenius norm; for sparse ones
/// it behaves like the sparsity. It is the factor that drives the observed
/// near-linear-in-`n` growth of the quantum runtime. The dense oracle for
/// `qsc_core::cost::incidence_mu`, which the pipeline evaluates instead.
pub fn mu(a: &CMatrix) -> f64 {
    let fro = a.frobenius_norm();
    let at = a.transpose();
    let mut best = fro;
    for step in 0..=8 {
        let p = step as f64 / 8.0;
        let candidate = (s_p(a, 2.0 * p) * s_p(&at, 2.0 * (1.0 - p))).sqrt();
        if candidate.is_finite() && candidate > 0.0 {
            best = best.min(candidate);
        }
    }
    best
}

/// Condition number of a Hermitian PSD matrix from its eigenvalues: ratio of
/// the largest to the smallest eigenvalue above `zero_tol`.
pub fn condition_number_from_eigenvalues(eigenvalues: &[f64], zero_tol: f64) -> f64 {
    let nonzero: Vec<f64> = eigenvalues
        .iter()
        .copied()
        .filter(|v| v.abs() > zero_tol)
        .collect();
    if nonzero.is_empty() {
        return 1.0;
    }
    let lo = nonzero.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = nonzero.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (hi / lo).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mu_bounded_by_frobenius() {
        let mut rng = StdRng::seed_from_u64(71);
        let a = CMatrix::random(6, 6, &mut rng);
        assert!(mu(&a) <= a.frobenius_norm() + 1e-12);
        assert!(mu(&a) > 0.0);
    }

    #[test]
    fn mu_of_identity_is_one() {
        // s_0 counts non-zeros per row = 1; sqrt(1·1) = 1 beats ‖I‖_F = √n.
        let id = CMatrix::identity(9);
        assert!((mu(&id) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn condition_number_basic() {
        assert!((condition_number_from_eigenvalues(&[0.0, 0.5, 2.0], 1e-9) - 4.0).abs() < 1e-12);
        assert_eq!(condition_number_from_eigenvalues(&[0.0, 0.0], 1e-9), 1.0);
    }

    #[test]
    fn s_p_zero_counts_nonzeros() {
        let a = CMatrix::from_rows(&[vec![
            Complex64::real(2.0),
            Complex64::real(0.0),
            Complex64::real(-1.0),
        ]])
        .unwrap();
        // Sparse convention: s_0 counts the non-zero entries per row.
        assert_eq!(s_p(&a, 0.0), 2.0);
        assert!((s_p(&a, 2.0) - 5.0).abs() < 1e-12);
    }
}
