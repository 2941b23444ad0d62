//! Compressed sparse row (CSR) complex matrices.
//!
//! The graph layer produces Laplacians with `O(m)` non-zeros on `n`
//! vertices, but the seed pipeline densified them immediately — every
//! matvec in the Lanczos eigensolver then paid `O(n²)`. [`CsrMatrix`] keeps
//! the sparsity: storage and matvec are `O(n + nnz)`, with the matvec
//! parallelized over row blocks for large matrices.
//!
//! The type is *Hermitian-aware*: construction checks Hermitian symmetry
//! once and caches the verdict, so consumers like
//! [`lanczos_lowest_k_csr`](crate::lanczos::lanczos_lowest_k_csr) skip the
//! `O(n²)` dense Hermiticity test.

use crate::complex::{Complex64, C_ZERO};
use crate::error::LinalgError;
use crate::matrix::CMatrix;
use crate::parallel;
use rayon::prelude::*;
use std::hash::{Hash, Hasher};

/// Tolerance used when classifying a freshly built matrix as Hermitian.
const HERMITIAN_CHECK_TOL: f64 = 1e-12;

/// A sparse complex matrix in compressed sparse row form.
///
/// Rows are stored as `[row_ptr[i] .. row_ptr[i+1])` slices of parallel
/// column-index / value arrays, with column indices strictly ascending
/// within each row and no explicit zeros (entries below a drop tolerance
/// are removed at construction).
///
/// # Examples
///
/// ```
/// use qsc_linalg::{CMatrix, Complex64, CsrMatrix};
///
/// # fn main() -> Result<(), qsc_linalg::LinalgError> {
/// // A 3×3 tridiagonal Hermitian matrix.
/// let dense = CMatrix::from_fn(3, 3, |i, j| {
///     if i == j { Complex64::real(2.0) }
///     else if i.abs_diff(j) == 1 { Complex64::real(-1.0) }
///     else { Complex64::real(0.0) }
/// });
/// let sparse = CsrMatrix::from_dense(&dense, 0.0);
/// assert_eq!(sparse.nnz(), 7);
/// assert!(sparse.is_hermitian());
/// let x = vec![Complex64::real(1.0); 3];
/// let y = sparse.matvec(&x);
/// assert!((y[0] - Complex64::real(1.0)).abs() < 1e-12);
/// assert!((y[1] - Complex64::real(0.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Complex64>,
    hermitian: bool,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates are summed. Entries
    /// whose final magnitude is `<= drop_tol` are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if any index is out of bounds.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, Complex64)],
        drop_tol: f64,
    ) -> Result<Self, LinalgError> {
        for &(r, c, _) in triplets {
            if r >= nrows || c >= ncols {
                return Err(LinalgError::InvalidInput {
                    context: format!("csr: entry ({r}, {c}) outside {nrows}×{ncols}"),
                });
            }
        }
        // Counting sort by row, then sort each row's slice by column.
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut by_row: Vec<(usize, Complex64)> = vec![(0, C_ZERO); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            by_row[cursor[r]] = (c, v);
            cursor[r] += 1;
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for i in 0..nrows {
            let slice = &mut by_row[counts[i]..counts[i + 1]];
            slice.sort_by_key(|&(c, _)| c);
            let mut j = 0;
            while j < slice.len() {
                let col = slice[j].0;
                let mut acc = C_ZERO;
                while j < slice.len() && slice[j].0 == col {
                    acc += slice[j].1;
                    j += 1;
                }
                if acc.abs() > drop_tol {
                    col_idx.push(col);
                    values.push(acc);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let mut m = Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            hermitian: false,
        };
        m.hermitian = m.check_hermitian(HERMITIAN_CHECK_TOL);
        Ok(m)
    }

    /// Converts a dense matrix, dropping entries with magnitude
    /// `<= drop_tol`.
    pub fn from_dense(dense: &CMatrix, drop_tol: f64) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.nrows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..dense.nrows() {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v.abs() > drop_tol {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let mut m = Self {
            nrows: dense.nrows(),
            ncols: dense.ncols(),
            row_ptr,
            col_idx,
            values,
            hermitian: false,
        };
        m.hermitian = m.check_hermitian(HERMITIAN_CHECK_TOL);
        m
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                out[(i, j)] = v;
            }
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored, `nnz / (nrows·ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// The `i`-th row as `(column_indices, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[Complex64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// `true` if the matrix was Hermitian (within 1e-12, entrywise) at
    /// construction. Cached, so this is free.
    #[inline]
    pub fn is_hermitian(&self) -> bool {
        self.hermitian
    }

    /// Entry lookup by binary search within the row. `O(log nnz_row)`.
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => C_ZERO,
        }
    }

    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the check
    fn check_hermitian(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        // Every stored entry must have a conjugate partner; a missing
        // partner reads as 0 and fails unless the entry itself is ~0.
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if !((self.get(j, i) - v.conj()).abs() <= tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Sparse matrix–vector product `A·x`, parallelized over row blocks.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        let mut y = vec![C_ZERO; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Sparse matvec writing into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn matvec_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert_eq!(x.len(), self.ncols, "csr matvec: dimension mismatch");
        assert_eq!(y.len(), self.nrows, "csr matvec: output length mismatch");
        let row_dot = |i: usize, slot: &mut Complex64| {
            let (cols, vals) = self.row(i);
            let mut acc = C_ZERO;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            *slot = acc;
        };
        let avg_row = self.nnz() / self.nrows.max(1);
        if parallel::should_parallelize(self.nnz()) {
            let rb = parallel::row_block(self.nrows, avg_row.max(1));
            y.par_chunks_mut(rb).enumerate().for_each(|(task, rows)| {
                for (di, slot) in rows.iter_mut().enumerate() {
                    row_dot(task * rb + di, slot);
                }
            });
        } else {
            for (i, slot) in y.iter_mut().enumerate() {
                row_dot(i, slot);
            }
        }
    }

    /// Largest entry modulus over the stored non-zeros.
    pub fn max_norm(&self) -> f64 {
        if parallel::should_parallelize(self.nnz()) {
            self.values
                .par_chunks(parallel::REDUCE_GRAIN)
                .map(|c| c.iter().map(|z| z.abs()).fold(0.0, f64::max))
                .reduce(|| 0.0, f64::max)
        } else {
            self.values.iter().map(|z| z.abs()).fold(0.0, f64::max)
        }
    }

    /// Scales every stored entry by `alpha`.
    pub fn scaled(&self, alpha: Complex64) -> Self {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= alpha;
        }
        out.hermitian = out.check_hermitian(HERMITIAN_CHECK_TOL);
        out
    }

    /// `true` if the matrix is Hermitian within `tol`, entrywise.
    ///
    /// The (stricter, 1e-12) verdict cached at construction answers
    /// immediately; only matrices that failed it are re-scanned at the
    /// requested tolerance.
    pub fn is_hermitian_within(&self, tol: f64) -> bool {
        self.hermitian || self.check_hermitian(tol)
    }

    /// A view that hashes and compares the matrix's exact words; see
    /// [`CsrBits`].
    pub fn bits(&self) -> CsrBits<'_> {
        CsrBits(self)
    }
}

/// A borrowed view of a [`CsrMatrix`]'s words: its dimensions, row
/// pointers, column indices and the bits of every value. Two views are
/// equal exactly when those words are. Unlike the matrix's float `==`, a
/// view tells `0.0` from `-0.0` and equates a NaN with the same NaN, so it
/// can key a cache whose hits must return a bit-identical result.
#[derive(Debug, Clone, Copy)]
pub struct CsrBits<'a>(&'a CsrMatrix);

impl PartialEq for CsrBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        a.nrows == b.nrows
            && a.ncols == b.ncols
            && a.row_ptr == b.row_ptr
            && a.col_idx == b.col_idx
            && a.values.len() == b.values.len()
            && a.values
                .iter()
                .zip(&b.values)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }
}

impl Eq for CsrBits<'_> {}

impl Hash for CsrBits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let m = self.0;
        m.nrows.hash(state);
        m.ncols.hash(state);
        m.row_ptr.hash(state);
        m.col_idx.hash(state);
        for z in &m.values {
            state.write_u64(z.re.to_bits());
            state.write_u64(z.im.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sparse_hermitian(n: usize, fill: f64, seed: u64) -> CMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                if i == j {
                    m[(i, j)] = Complex64::real(rng.gen_range(-1.0..1.0));
                } else if rng.gen::<f64>() < fill {
                    let v = Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    m[(i, j)] = v;
                    m[(j, i)] = v.conj();
                }
            }
        }
        m
    }

    #[test]
    fn bits_compare_and_hash_exact_words() {
        use std::collections::hash_map::RandomState;
        use std::hash::BuildHasher;
        let a = CsrMatrix::from_dense(&random_sparse_hermitian(12, 0.3, 5), 0.0);
        let state = RandomState::new();
        assert_eq!(a.bits(), a.clone().bits());
        assert_eq!(state.hash_one(a.bits()), state.hash_one(a.clone().bits()));
        // One value bit flipped, same sparsity pattern.
        let flipped = a.scaled(Complex64::real(1.0 + f64::EPSILON));
        assert_ne!(a.bits(), flipped.bits());
        // Signed zeros differ, where float `==` equates them.
        let zero = |z: f64| {
            let dense = CMatrix::from_fn(1, 2, |_, j| Complex64::new(1.0 - j as f64, z));
            CsrMatrix::from_dense(&dense, 0.0)
        };
        assert_eq!(zero(0.0), zero(-0.0));
        assert_ne!(zero(0.0).bits(), zero(-0.0).bits());
        // A NaN equals itself, where float `==` does not.
        let nan = zero(0.0).scaled(Complex64::real(f64::NAN));
        assert_ne!(nan, nan.clone());
        assert_eq!(nan.bits(), nan.clone().bits());
        // Same values, other shape or structure.
        let wide = CsrMatrix::from_triplets(1, 3, &[(0, 0, Complex64::real(1.0))], 0.0).unwrap();
        let moved = CsrMatrix::from_triplets(1, 2, &[(0, 1, Complex64::real(1.0))], 0.0).unwrap();
        assert_eq!(zero(0.0).nnz(), 1);
        assert_ne!(zero(0.0).bits(), wide.bits());
        assert_ne!(zero(0.0).bits(), moved.bits());
    }

    #[test]
    fn dense_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let dense = CMatrix::random(7, 5, &mut rng);
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        assert_eq!(sparse.to_dense(), dense);
        assert_eq!(sparse.nnz(), 35);
    }

    #[test]
    fn triplets_merge_and_sort() {
        let t = vec![
            (1usize, 2usize, Complex64::real(1.0)),
            (0, 0, Complex64::real(2.0)),
            (1, 2, Complex64::real(3.0)),
            (1, 0, Complex64::real(-1.0)),
        ];
        let m = CsrMatrix::from_triplets(2, 3, &t, 0.0).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 2), Complex64::real(4.0));
        assert_eq!(m.get(0, 0), Complex64::real(2.0));
        let (cols, _) = m.row(1);
        assert_eq!(cols, &[0, 2]);
    }

    #[test]
    fn triplets_reject_out_of_bounds() {
        let t = vec![(2usize, 0usize, Complex64::real(1.0))];
        assert!(CsrMatrix::from_triplets(2, 2, &t, 0.0).is_err());
    }

    #[test]
    fn drop_tolerance_removes_cancellations() {
        let t = vec![
            (0usize, 0usize, Complex64::real(1.0)),
            (0, 0, Complex64::real(-1.0)),
            (0, 1, Complex64::real(0.5)),
        ];
        let m = CsrMatrix::from_triplets(1, 2, &t, 0.0).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn matvec_matches_dense() {
        let dense = random_sparse_hermitian(40, 0.15, 3);
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let x: Vec<Complex64> = (0..40)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let yd = dense.matvec(&x);
        let ys = sparse.matvec(&x);
        for (a, b) in yd.iter().zip(&ys) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn hermitian_detection() {
        let herm = CsrMatrix::from_dense(&random_sparse_hermitian(12, 0.3, 5), 0.0);
        assert!(herm.is_hermitian());
        let mut rng = StdRng::seed_from_u64(6);
        let dense = CMatrix::random(6, 6, &mut rng);
        let not = CsrMatrix::from_dense(&dense, 0.0);
        assert!(!not.is_hermitian());
        let rect = CsrMatrix::from_dense(&CMatrix::zeros(2, 3), 0.0);
        assert!(!rect.is_hermitian());
    }

    #[test]
    fn structurally_asymmetric_is_not_hermitian() {
        // A lower-only entry must fail the Hermitian check even though every
        // *stored upper* entry has a matching conjugate.
        let t = vec![
            (0usize, 0usize, Complex64::real(1.0)),
            (1, 0, Complex64::real(0.5)),
        ];
        let m = CsrMatrix::from_triplets(2, 2, &t, 0.0).unwrap();
        assert!(!m.is_hermitian());
    }

    #[test]
    fn hermitian_within_honors_caller_tolerance() {
        // Hermitian only to ~1e-10: fails the strict cached check but must
        // pass a 1e-9-scaled query, matching the dense entry contract.
        let mut dense = random_sparse_hermitian(8, 0.4, 11);
        dense[(0, 1)] += Complex64::real(1e-10);
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        assert!(!sparse.is_hermitian());
        assert!(sparse.is_hermitian_within(1e-9));
        assert!(!sparse.is_hermitian_within(1e-11));
    }

    #[test]
    fn norms_match_dense() {
        let dense = random_sparse_hermitian(20, 0.25, 8);
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        assert!((sparse.max_norm() - dense.max_norm()).abs() < 1e-12);
    }

    #[test]
    fn scaled_preserves_hermitian_for_real_factor() {
        let sparse = CsrMatrix::from_dense(&random_sparse_hermitian(10, 0.3, 9), 0.0);
        assert!(sparse.scaled(Complex64::real(2.0)).is_hermitian());
        assert!(!sparse.scaled(crate::complex::C_I).is_hermitian());
    }

    #[test]
    fn density_and_empty_rows() {
        let t = vec![(0usize, 1usize, Complex64::real(1.0))];
        let m = CsrMatrix::from_triplets(3, 3, &t, 0.0).unwrap();
        assert_eq!(m.nnz(), 1);
        assert!((m.density() - 1.0 / 9.0).abs() < 1e-15);
        let (cols, vals) = m.row(1);
        assert!(cols.is_empty() && vals.is_empty());
        assert_eq!(m.get(2, 2), C_ZERO);
    }
}
