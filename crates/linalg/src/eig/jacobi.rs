//! Cyclic complex Jacobi eigensolver for Hermitian matrices.
//!
//! Robust reference implementation: each rotation exactly annihilates one
//! off-diagonal pair using a complex plane rotation, and the off-diagonal
//! Frobenius mass decreases monotonically. Quadratically convergent once the
//! matrix is nearly diagonal. `O(n³)` per sweep, so this path is used for
//! validation and moderate sizes; the Householder + QL path is the fast one.

use crate::complex::Complex64;
use crate::error::LinalgError;
use crate::matrix::CMatrix;

/// Maximum number of full sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 60;

/// Diagonalizes a Hermitian matrix with cyclic complex Jacobi rotations.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues in *unsorted*
/// (diagonal) order; the caller (see [`crate::eig::eigh_jacobi`]) sorts.
/// Eigenvectors are the columns of the returned matrix.
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] if the off-diagonal mass has not
/// fallen below `tol·‖A‖_F` after 60 sweeps, and
/// [`LinalgError::InvalidInput`] if the matrix is not square.
pub(super) fn jacobi_hermitian(a: &CMatrix, tol: f64) -> Result<(Vec<f64>, CMatrix), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::InvalidInput {
            context: format!("jacobi: matrix is {}×{}", a.nrows(), a.ncols()),
        });
    }
    let n = a.nrows();
    let mut m = a.clone();
    let mut v = CMatrix::identity(n);
    if n <= 1 {
        let evals = (0..n).map(|i| m[(i, i)].re).collect();
        return Ok((evals, v));
    }

    let scale = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let threshold = tol * scale;

    for _sweep in 0..MAX_SWEEPS {
        if off_diagonal_norm(&m) <= threshold {
            let evals = (0..n).map(|i| m[(i, i)].re).collect();
            return Ok((evals, v));
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                rotate(&mut m, &mut v, p, q);
            }
        }
    }

    Err(LinalgError::NoConvergence {
        algorithm: "jacobi_hermitian",
        iterations: MAX_SWEEPS,
        residual: Some(off_diagonal_norm(&m)),
    })
}

/// Square root of the sum of squared moduli of all off-diagonal entries.
fn off_diagonal_norm(m: &CMatrix) -> f64 {
    let n = m.nrows();
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += m[(i, j)].norm_sqr();
            }
        }
    }
    s.sqrt()
}

/// Applies one complex Jacobi rotation annihilating `m[(p, q)]`.
///
/// The rotation is `J` = identity except
/// `J_pp = c`, `J_pq = −s·e^{iα}`, `J_qp = s·e^{−iα}`, `J_qq = c`
/// where `α = arg(m_pq)` and the angle satisfies
/// `tan 2θ = 2|m_pq| / (m_pp − m_qq)`. Updates `m ← J† m J`, `v ← v·J`.
fn rotate(m: &mut CMatrix, v: &mut CMatrix, p: usize, q: usize) {
    let apq = m[(p, q)];
    let r = apq.abs();
    if r == 0.0 {
        return;
    }
    let n = m.nrows();
    let app = m[(p, p)].re;
    let aqq = m[(q, q)].re;
    let phase = apq / r; // e^{iα}

    // tan θ from the smaller root of t² + 2τt − 1 = 0, τ = (app − aqq)/(2r).
    let tau = (app - aqq) / (2.0 * r);
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;

    let sp = phase.scale(s); // s·e^{iα}
    let spc = phase.conj().scale(s); // s·e^{−iα}

    // Update rows/columns p and q of the Hermitian matrix.
    for k in 0..n {
        if k == p || k == q {
            continue;
        }
        let akp = m[(k, p)];
        let akq = m[(k, q)];
        let new_kp = akp.scale(c) + akq * spc;
        let new_kq = akq.scale(c) - akp * sp;
        m[(k, p)] = new_kp;
        m[(p, k)] = new_kp.conj();
        m[(k, q)] = new_kq;
        m[(q, k)] = new_kq.conj();
    }

    let new_pp = app * c * c + aqq * s * s + 2.0 * r * s * c;
    let new_qq = app * s * s + aqq * c * c - 2.0 * r * s * c;
    m[(p, p)] = Complex64::real(new_pp);
    m[(q, q)] = Complex64::real(new_qq);
    m[(p, q)] = Complex64::real(0.0);
    m[(q, p)] = Complex64::real(0.0);

    // Accumulate eigenvectors: V ← V·J (columns p, q mix).
    for k in 0..n {
        let vkp = v[(k, p)];
        let vkq = v[(k, q)];
        v[(k, p)] = vkp.scale(c) + vkq * spc;
        v[(k, q)] = vkq.scale(c) - vkp * sp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C_I;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let d = CMatrix::from_diag(&[
            Complex64::real(1.0),
            Complex64::real(-2.0),
            Complex64::real(3.5),
        ]);
        let (evals, v) = jacobi_hermitian(&d, 1e-14).unwrap();
        assert_eq!(evals, vec![1.0, -2.0, 3.5]);
        assert!((&v - &CMatrix::identity(3)).max_norm() < 1e-14);
    }

    #[test]
    fn two_by_two_pauli_y_like() {
        // [[0, -i], [i, 0]] has eigenvalues ±1.
        let m = CMatrix::from_rows(&[
            vec![Complex64::real(0.0), -C_I],
            vec![C_I, Complex64::real(0.0)],
        ])
        .unwrap();
        let (mut evals, v) = jacobi_hermitian(&m, 1e-14).unwrap();
        evals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((evals[0] + 1.0).abs() < 1e-12);
        assert!((evals[1] - 1.0).abs() < 1e-12);
        assert!(v.is_unitary(1e-10));
    }

    #[test]
    fn reconstruction_random_hermitian() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [3usize, 5, 8, 16] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            let (evals, v) = jacobi_hermitian(&a, 1e-13).unwrap();
            let lam = CMatrix::from_diag(
                &evals
                    .iter()
                    .map(|&x| Complex64::real(x))
                    .collect::<Vec<_>>(),
            );
            let recon = v.matmul(&lam).matmul(&v.adjoint());
            assert!(
                (&recon - &a).max_norm() < 1e-9,
                "reconstruction failed for n={n}"
            );
            assert!(v.is_unitary(1e-9));
        }
    }

    #[test]
    fn off_diagonal_norm_zero_for_diagonal() {
        let d = CMatrix::from_diag(&[Complex64::real(1.0), Complex64::real(2.0)]);
        assert_eq!(off_diagonal_norm(&d), 0.0);
    }

    #[test]
    fn rejects_non_square() {
        let m = CMatrix::zeros(2, 3);
        assert!(jacobi_hermitian(&m, 1e-12).is_err());
    }
}
