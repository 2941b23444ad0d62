//! QR decomposition via modified Gram–Schmidt.

use crate::complex::{Complex64, C_ZERO};
use crate::matrix::CMatrix;
use crate::vector::{cdot, normalize};

/// Computes a (thin) QR decomposition `A = Q·R` with modified Gram–Schmidt.
///
/// `Q` is `m × n` with orthonormal columns and `R` is `n × n` upper
/// triangular. For rank-deficient inputs the corresponding `R` diagonal
/// entries are zero and the `Q` column is filled with zeros.
///
/// # Examples
///
/// ```
/// use qsc_linalg::{qr::qr_decompose, CMatrix};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let a = CMatrix::random(5, 3, &mut rng);
/// let (q, r) = qr_decompose(&a);
/// let qr = q.matmul(&r);
/// assert!((&qr - &a).max_norm() < 1e-10);
/// ```
pub fn qr_decompose(a: &CMatrix) -> (CMatrix, CMatrix) {
    let m = a.nrows();
    let n = a.ncols();
    let mut q_cols: Vec<Vec<Complex64>> = (0..n).map(|j| a.col(j)).collect();
    let mut r = CMatrix::zeros(n, n);

    for j in 0..n {
        // Orthogonalize column j against all previous columns (modified GS:
        // subtract projections sequentially using already-updated vector).
        for i in 0..j {
            let (head, tail) = q_cols.split_at_mut(j);
            let qi = &head[i];
            let vj = &mut tail[0];
            let rij = cdot(qi, vj);
            r[(i, j)] = rij;
            for (v, u) in vj.iter_mut().zip(qi) {
                *v -= rij * *u;
            }
        }
        let norm = normalize(&mut q_cols[j]);
        r[(j, j)] = Complex64::real(norm);
        if norm == 0.0 {
            for v in q_cols[j].iter_mut() {
                *v = C_ZERO;
            }
        }
    }

    let q = CMatrix::from_fn(m, n, |i, j| q_cols[j][i]);
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn qr_reconstructs() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, n) in &[(4usize, 4usize), (6, 3), (5, 5)] {
            let a = CMatrix::random(m, n, &mut rng);
            let (q, r) = qr_decompose(&a);
            assert!((&q.matmul(&r) - &a).max_norm() < 1e-10);
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = CMatrix::random(6, 4, &mut rng);
        let (q, _) = qr_decompose(&a);
        let gram = q.adjoint().matmul(&q);
        assert!((&gram - &CMatrix::identity(4)).max_norm() < 1e-10);
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = CMatrix::random(5, 5, &mut rng);
        let (_, r) = qr_decompose(&a);
        for i in 0..5 {
            for j in 0..i {
                assert!(r[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rank_deficient_columns_become_zero() {
        // Second column equals the first: rank 1.
        let a = CMatrix::from_fn(3, 2, |i, _| Complex64::real(i as f64 + 1.0));
        let (q, r) = qr_decompose(&a);
        assert!(r[(1, 1)].abs() < 1e-12);
        assert!((&q.matmul(&r) - &a).max_norm() < 1e-10);
    }
}
