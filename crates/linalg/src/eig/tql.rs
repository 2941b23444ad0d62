//! Implicit QL algorithm with Wilkinson shifts for real symmetric
//! tridiagonal matrices (EISPACK `tql2` lineage), accumulating the real
//! Givens rotations into a complex eigenvector matrix so it composes with
//! the Householder reduction of Hermitian matrices.
//!
//! Layout. A rotation mixes two *columns* of `z`, which in row-major storage
//! is a stride-`n` walk. [`tql_implicit`] therefore transposes `z` in place
//! once on entry, rotates two adjacent contiguous rows instead, and
//! transposes back on every exit. The rotation is real, so each complex
//! component sees exactly the operations of the column form and the result
//! is bit-identical to it.
//!
//! Rotation log. A caller that reads only a few eigenvectors need not rotate
//! all `n` of them: [`ql`] can instead record each rotation `(i, c, s)` in a
//! [`RotationLog`], and [`RotationLog::replay`] rebuilds the columns it is
//! asked for afterwards at `O(#rotations)` each.

use crate::error::LinalgError;
use crate::matrix::CMatrix;

/// Iteration budget per eigenvalue.
const MAX_ITER: usize = 64;

/// Diagonalizes a real symmetric tridiagonal matrix in place.
///
/// On entry `d` holds the diagonal and `e` the subdiagonal (`e.len() ==
/// d.len() − 1`); `z` is the matrix whose columns the rotations should be
/// accumulated into (pass the `Q` of the Householder reduction, or the
/// identity for the eigenvectors of `T` itself). On successful exit `d`
/// holds the eigenvalues (unsorted) and column `j` of `z` is the eigenvector
/// for `d[j]`.
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] if an eigenvalue fails to converge
/// within the iteration budget. `z` then holds the rotations applied so far,
/// in the same (column) orientation.
///
/// # Panics
///
/// Panics if the lengths of `d`, `e` and the shape of `z` are inconsistent.
pub fn tql_implicit(d: &mut [f64], e: &mut [f64], z: &mut CMatrix) -> Result<(), LinalgError> {
    let n = d.len();
    assert_eq!(e.len(), n.saturating_sub(1), "tql: subdiagonal length");
    assert_eq!(z.nrows(), z.ncols(), "tql: z must be square");
    assert_eq!(z.nrows(), n, "tql: z dimension");
    // Row j of the transpose is eigenvector column j.
    z.transpose_in_place();
    let result = ql(d, e, Rotations::Rows(z));
    z.transpose_in_place();
    result
}

/// Where [`ql`] sends each Givens rotation it applies. The `d`/`e`
/// recurrence never reads the eigenvectors, so `d` ends bit-identical
/// whichever sink is chosen.
pub(crate) enum Rotations<'a> {
    /// Nowhere: eigenvalues only.
    Discard,
    /// Onto two adjacent rows of `zᵀ`, the transposed eigenvector matrix.
    Rows(&'a mut CMatrix),
    /// Into a log, for [`RotationLog::replay`] to rebuild selected columns.
    Log(&'a mut RotationLog),
}

/// Rotations per block of a [`RotationLog`]: 80 KB, below the default
/// `mmap` threshold of the system allocator, so the log never needs one
/// large allocation nor a copy to grow.
const BLOCK: usize = 4096;

/// The rotations of one QL run, in the order they were applied, in blocks
/// of [`BLOCK`]: rotation `t` mixes columns `rows[t]` and `rows[t] + 1` by
/// `cs[t] = [c, s]`. 20 bytes per rotation; QL applies about `1.1·n²`.
#[derive(Debug, Clone, Default)]
pub(crate) struct RotationLog {
    blocks: Vec<(Vec<u32>, Vec<[f64; 2]>)>,
}

impl RotationLog {
    fn push(&mut self, i: usize, c: f64, s: f64) {
        if self
            .blocks
            .last()
            .is_none_or(|(rows, _)| rows.len() == BLOCK)
        {
            self.blocks
                .push((Vec::with_capacity(BLOCK), Vec::with_capacity(BLOCK)));
        }
        let (rows, cs) = self.blocks.last_mut().expect("a block was just ensured");
        // i < n, and no n×n matrix has n ≥ 2³².
        rows.push(i as u32);
        cs.push([c, s]);
    }

    /// Columns `cols` of `R = R_1·R_2⋯R_K`, the product of the logged
    /// rotations, as a row-major `n × cols.len()` real matrix. This is what
    /// [`tql_implicit`] leaves in those columns of an identity `z`, up to
    /// rounding: column `j` is `R·e_j`, so the rotations are applied to
    /// `e_j` last-logged first, `x_i ← c·x_i + s·x_{i+1}`,
    /// `x_{i+1} ← −s·x_i + c·x_{i+1}`. A pair of exact zeros is left
    /// alone, so a column's exact zeros (on another diagonal block of `T`,
    /// say another connected component) stay `+0` rather than taking signs
    /// from rotations that never touch its support.
    ///
    /// # Panics
    ///
    /// Panics if a column is `≥ n` or a logged rotation lies outside `n`.
    pub(crate) fn replay(&self, n: usize, cols: &[usize]) -> Vec<f64> {
        let k = cols.len();
        let mut x = vec![0.0; n * k];
        for (slot, &col) in cols.iter().enumerate() {
            x[col * k + slot] = 1.0;
        }
        let logged = self
            .blocks
            .iter()
            .rev()
            .flat_map(|(rows, cs)| rows.iter().zip(cs).rev());
        for (&i, &[c, s]) in logged {
            let (xi, xi1) = x[i as usize * k..(i as usize + 2) * k].split_at_mut(k);
            for (a, b) in xi.iter_mut().zip(xi1.iter_mut()) {
                let (x0, x1) = (*a, *b);
                if x0 == 0.0 && x1 == 0.0 {
                    continue;
                }
                *a = c * x0 + s * x1;
                *b = c * x1 - s * x0;
            }
        }
        x
    }
}

/// The QL iteration, sending every rotation it applies to `sink`.
pub(crate) fn ql(d: &mut [f64], e: &[f64], mut sink: Rotations<'_>) -> Result<(), LinalgError> {
    let n = d.len();
    if n <= 1 {
        return Ok(());
    }

    // Work with a sentinel-extended subdiagonal: ee[i] couples i and i+1.
    let mut ee = vec![0.0; n];
    ee[..n - 1].copy_from_slice(e);

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find the first negligible subdiagonal element at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if ee[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITER {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tql_implicit",
                    iterations: MAX_ITER,
                    residual: Some(ee[l].abs()),
                });
            }

            // Wilkinson-style shift: g + sign(g)·hypot(g, 1).
            let g0 = (d[l + 1] - d[l]) / (2.0 * ee[l]);
            let mut r = g0.hypot(1.0);
            let mut g = d[m] - d[l] + ee[l] / (g0 + r.copysign(g0));

            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;

            for i in (l..m).rev() {
                let f = s * ee[i];
                let b = c * ee[i];
                r = f.hypot(g);
                ee[i + 1] = r;
                if r == 0.0 {
                    // Rotation underflow: recover and restart this eigenvalue.
                    d[i + 1] -= p;
                    ee[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;

                // Accumulate the Givens rotation into eigenvectors i, i+1.
                match &mut sink {
                    Rotations::Discard => {}
                    Rotations::Rows(zt) => {
                        let (z0, z1) = zt.row_pair_mut(i);
                        for (a, b) in z0.iter_mut().zip(z1.iter_mut()) {
                            let (zk0, zk1) = (*a, *b);
                            *b = zk0.scale(s) + zk1.scale(c);
                            *a = zk0.scale(c) - zk1.scale(s);
                        }
                    }
                    Rotations::Log(log) => log.push(i, c, s),
                }
            }

            if underflow {
                continue;
            }
            d[l] -= p;
            ee[l] = g;
            ee[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;

    fn tridiag_matrix(d: &[f64], e: &[f64]) -> CMatrix {
        let n = d.len();
        CMatrix::from_real_fn(n, n, |i, j| {
            if i == j {
                d[i]
            } else if i + 1 == j {
                e[i]
            } else if j + 1 == i {
                e[j]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2, 1], [1, 2]] → eigenvalues 1 and 3.
        let mut d = vec![2.0, 2.0];
        let mut e = vec![1.0];
        let mut z = CMatrix::identity(2);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_path_graph_eigenvalues() {
        // Path graph Laplacian on 4 nodes: eigenvalues 2 − 2cos(kπ/4).
        let d0 = [1.0, 2.0, 2.0, 1.0];
        let e0 = [-1.0, -1.0, -1.0];
        let mut d = d0.to_vec();
        let mut e = e0.to_vec();
        let mut z = CMatrix::identity(4);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        let mut got = d.clone();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..4)
            .map(|k| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 4.0).cos())
            .collect();
        for (g, ex) in got.iter().zip(&expect) {
            assert!((g - ex).abs() < 1e-10, "got {g}, expected {ex}");
        }
        // Eigenvector columns must satisfy T·z_j = d_j·z_j.
        let t = tridiag_matrix(&d0, &e0);
        for (j, &dj) in d.iter().enumerate().take(4) {
            let col = z.col(j);
            assert!(t.eigen_residual(dj, &col) < 1e-9);
        }
    }

    #[test]
    fn diagonal_input_unchanged() {
        let mut d = vec![3.0, 1.0, 2.0];
        let mut e = vec![0.0, 0.0];
        let mut z = CMatrix::identity(3);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        assert_eq!(d, vec![3.0, 1.0, 2.0]);
        assert!((&z - &CMatrix::identity(3)).max_norm() < 1e-14);
    }

    #[test]
    fn eigenvectors_orthonormal_on_random_tridiagonal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        let n = 12;
        let d0: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let e0: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut d = d0.clone();
        let mut e = e0.clone();
        let mut z = CMatrix::identity(n);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        assert!(z.is_unitary(1e-9));
        let t = tridiag_matrix(&d0, &e0);
        for (j, &dj) in d.iter().enumerate() {
            let col: Vec<Complex64> = z.col(j);
            assert!(
                t.eigen_residual(dj, &col) < 1e-8,
                "residual too large for eigenpair {j}"
            );
        }
    }

    #[test]
    fn error_path_leaves_z_in_column_orientation() {
        // d[3] = NaN never deflates: QL spends its budget rotating
        // eigenvectors 2 and 3 into NaN and leaves 0 and 1 alone.
        let mut d = vec![1.0, 2.0, 3.0, f64::NAN];
        let mut e = vec![0.0, 0.0, 1.0];
        let z0 = CMatrix::from_real_fn(4, 4, |r, c| (10 * r + c) as f64);
        let mut z = z0.clone();
        let err = tql_implicit(&mut d, &mut e, &mut z).unwrap_err();
        assert!(matches!(err, LinalgError::NoConvergence { .. }), "{err}");
        for r in 0..4 {
            for c in 0..2 {
                assert_eq!(z[(r, c)], z0[(r, c)], "column {c} moved at row {r}");
            }
            for c in 2..4 {
                assert!(z[(r, c)].re.is_nan(), "column {c} not rotated at row {r}");
            }
        }
    }

    #[test]
    fn log_replay_rebuilds_the_rotated_identity() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(45);
        let n = 12;
        let d0: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let e0: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (mut d, mut e, mut z) = (d0.clone(), e0.clone(), CMatrix::identity(n));
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        let mut logged = d0.clone();
        let mut log = RotationLog::default();
        ql(&mut logged, &e0, Rotations::Log(&mut log)).unwrap();
        assert_eq!(logged, d, "eigenvalues must not depend on the sink");
        assert!(!log.blocks.is_empty());
        let cols = [7, 0, 3];
        let x = log.replay(n, &cols);
        for (slot, &col) in cols.iter().enumerate() {
            for r in 0..n {
                let diff = (x[r * cols.len() + slot] - z[(r, col)].re).abs();
                assert!(diff < 1e-14, "column {col}, row {r}: {diff:e}");
            }
        }
        assert!(log.replay(n, &[]).is_empty());
    }

    #[test]
    fn replay_keeps_exact_zeros_off_the_support_positive() {
        // e[2] = 0 splits T into two blocks: the rotations of the second
        // block must not give eigenvectors of the first signed zeros.
        let mut d = vec![1.0, -2.0, 0.5, 3.0, -1.0, 2.0];
        let e = [0.7, -0.4, 0.0, -0.9, 0.6];
        let mut log = RotationLog::default();
        ql(&mut d, &e, Rotations::Log(&mut log)).unwrap();
        assert!(
            log.blocks[0].0.iter().any(|&i| i >= 3),
            "second block rotated"
        );
        let x = log.replay(6, &[0, 1, 2]);
        for (i, xi) in x[9..].iter().enumerate() {
            assert_eq!(xi.to_bits(), 0.0f64.to_bits(), "entry {i} off the support");
        }
    }

    #[test]
    fn single_element() {
        let mut d = vec![5.0];
        let mut e: Vec<f64> = vec![];
        let mut z = CMatrix::identity(1);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        assert_eq!(d, vec![5.0]);
    }
}
