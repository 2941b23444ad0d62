//! Dense complex matrices in row-major storage.

use crate::complex::{Complex64, C_ONE, C_ZERO};
use crate::error::LinalgError;
use crate::kernels;
use crate::parallel;
use crate::vector;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Column-tile width (in `k`) of the blocked matmul: tiles of the right-hand
/// side stay resident in cache across the rows of a task.
const MATMUL_TILE_K: usize = 64;

/// A dense complex matrix with row-major storage.
///
/// Indexing is `m[(row, col)]`. The type is the workhorse of the Hermitian
/// Laplacian pipeline and the quantum simulator's matrix-level execution
/// path.
///
/// # Examples
///
/// ```
/// use qsc_linalg::{CMatrix, Complex64};
///
/// let id = CMatrix::identity(3);
/// let m = CMatrix::from_fn(3, 3, |i, j| Complex64::real((i * 3 + j) as f64));
/// assert_eq!(&id * &m, m);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates an `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![C_ZERO; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C_ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex64>(
        nrows: usize,
        ncols: usize,
        mut f: F,
    ) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Builds a matrix from rows of equal length.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if rows have differing lengths
    /// or the input is empty.
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::ShapeMismatch {
                context: "from_rows: no rows".into(),
            });
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(LinalgError::ShapeMismatch {
                    context: format!("from_rows: row length {} != {}", r.len(), ncols),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self { nrows, ncols, data })
    }

    /// Builds a matrix from a row-major data vector without copying.
    ///
    /// This is the zero-cost bridge that lets callers view an existing flat
    /// buffer (e.g. a state vector of `2^t · 2^s` amplitudes) as a
    /// `2^t × 2^s` matrix and hand it to the blocked kernels.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != nrows · ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<Complex64>) -> Result<Self, LinalgError> {
        if data.len() != nrows * ncols {
            return Err(LinalgError::ShapeMismatch {
                context: format!("from_vec: {} elements into {nrows}×{ncols}", data.len()),
            });
        }
        Ok(Self { nrows, ncols, data })
    }

    /// Consumes the matrix, returning its row-major data vector (the inverse
    /// of [`from_vec`](Self::from_vec), also without copying).
    pub fn into_vec(self) -> Vec<Complex64> {
        self.data
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a real-valued matrix (zero imaginary parts) from `f(i, j)`.
    pub fn from_real_fn<F: FnMut(usize, usize) -> f64>(
        nrows: usize,
        ncols: usize,
        mut f: F,
    ) -> Self {
        Self::from_fn(nrows, ncols, |i, j| Complex64::real(f(i, j)))
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

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrows the `i`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Complex64] {
        assert!(i < self.nrows, "row index {} out of bounds", i);
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrows the `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Complex64] {
        assert!(i < self.nrows, "row index {} out of bounds", i);
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrows the adjacent rows `i` and `i + 1` at once.
    ///
    /// # Panics
    ///
    /// Panics if `i + 1 >= nrows`.
    #[inline]
    pub(crate) fn row_pair_mut(&mut self, i: usize) -> (&mut [Complex64], &mut [Complex64]) {
        assert!(i + 1 < self.nrows, "row pair {i}, {} out of bounds", i + 1);
        let n = self.ncols;
        self.data[i * n..(i + 2) * n].split_at_mut(n)
    }

    /// Transposes a square matrix in place (no conjugation).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub(crate) fn transpose_in_place(&mut self) {
        assert!(
            self.is_square(),
            "transpose_in_place: matrix must be square"
        );
        let n = self.nrows;
        for i in 0..n {
            for j in i + 1..n {
                self.data.swap(i * n + j, j * n + i);
            }
        }
    }

    /// Copies the `j`-th column into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn col(&self, j: usize) -> Vec<Complex64> {
        assert!(j < self.ncols, "column index {} out of bounds", j);
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Borrows the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Conjugate transpose `A†`.
    ///
    /// Large matrices are transposed with a parallel, cache-blocked kernel;
    /// entries are identical to the naive definition either way.
    pub fn adjoint(&self) -> Self {
        let work = self.nrows * self.ncols;
        if !parallel::should_parallelize(work) {
            return Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj());
        }
        let mut out = Self::zeros(self.ncols, self.nrows);
        let out_cols = self.nrows;
        let rb = parallel::row_block(self.ncols, out_cols);
        out.data
            .par_chunks_mut(rb * out_cols)
            .enumerate()
            .for_each(|(task, rows)| {
                let i0 = task * rb;
                // Walk the source in column-tile order so reads of the
                // row-major source stay within a cache-resident band.
                for jt in (0..out_cols).step_by(MATMUL_TILE_K) {
                    let jt_end = (jt + MATMUL_TILE_K).min(out_cols);
                    for (di, row) in rows.chunks_mut(out_cols).enumerate() {
                        let i = i0 + di;
                        for (j, slot) in row[jt..jt_end].iter_mut().enumerate() {
                            *slot = self[(jt + j, i)].conj();
                        }
                    }
                }
            });
        out
    }

    /// Plain transpose `Aᵀ` (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Scales every entry by a complex factor, returning a new matrix.
    pub fn scaled(&self, alpha: Complex64) -> Self {
        Self::from_fn(self.nrows, self.ncols, |i, j| self[(i, j)] * alpha)
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.ncols, "matvec: dimension mismatch");
        let mut y = vec![C_ZERO; self.nrows];
        let row_dot = |i: usize, slot: &mut Complex64| {
            *slot = kernels::dot(self.row(i), x);
        };
        if parallel::should_parallelize(self.nrows * self.ncols) {
            let rb = parallel::row_block(self.nrows, self.ncols);
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
        y
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// Dispatches to a rayon-parallel, cache-blocked kernel once the product
    /// is large enough to amortize thread dispatch; small products run the
    /// serial reference. Both paths accumulate each output entry over `k` in
    /// ascending order, so the result is identical to
    /// [`matmul_serial`](Self::matmul_serial) regardless of thread count.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.ncols, rhs.nrows,
            "matmul: {}×{} times {}×{}",
            self.nrows, self.ncols, rhs.nrows, rhs.ncols
        );
        let work = self.nrows * self.ncols * rhs.ncols;
        if !parallel::should_parallelize(work) {
            return self.matmul_serial(rhs);
        }
        let mut out = Self::zeros(self.nrows, rhs.ncols);
        let ncols_out = rhs.ncols;
        let inner = self.ncols;
        let rb = parallel::row_block(self.nrows, inner * ncols_out);
        out.data
            .par_chunks_mut(rb * ncols_out)
            .enumerate()
            .for_each(|(task, rows)| {
                let i0 = task * rb;
                // k-tiling: each tile of B rows is streamed through every
                // row of the task while still hot in cache. Within one
                // output entry, k still advances in ascending order, so the
                // accumulation order matches the serial reference exactly.
                for kt in (0..inner).step_by(MATMUL_TILE_K) {
                    let kt_end = (kt + MATMUL_TILE_K).min(inner);
                    for (di, orow) in rows.chunks_mut(ncols_out).enumerate() {
                        let arow = self.row(i0 + di);
                        for (k, &a) in arow[kt..kt_end].iter().enumerate() {
                            // The zero-skip is load-bearing for bit-identity
                            // with the serial reference: it must stay in
                            // front of the kernel call, not inside it.
                            if a == C_ZERO {
                                continue;
                            }
                            kernels::axpy(a, rhs.row(kt + k), orow);
                        }
                    }
                }
            });
        out
    }

    /// Serial reference matrix product (ikj loop order) — the kernel every
    /// parallel/blocked variant must agree with.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_serial(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.ncols, rhs.nrows,
            "matmul: {}×{} times {}×{}",
            self.nrows, self.ncols, rhs.nrows, rhs.ncols
        );
        let mut out = Self::zeros(self.nrows, rhs.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self[(i, k)];
                if a == C_ZERO {
                    continue;
                }
                kernels::axpy(a, rhs.row(k), out.row_mut(i));
            }
        }
        out
    }

    /// Gram matrix `A†·A`, exploiting Hermitian symmetry (only the upper
    /// triangle is computed; the lower is mirrored) and parallelizing over
    /// output rows for large inputs.
    pub fn gram(&self) -> Self {
        let n = self.ncols;
        let m = self.nrows;
        let mut out = Self::zeros(n, n);
        let fill_row = |i: usize, row: &mut [Complex64]| {
            // row holds entries (i, i..n): g_ij = Σ_k conj(a_ki)·a_kj.
            for k in 0..m {
                let c = self[(k, i)].conj();
                if c == C_ZERO {
                    continue;
                }
                kernels::axpy(c, &self.row(k)[i..], row);
            }
        };
        if parallel::should_parallelize(m * n * n / 2) {
            // Upper-triangular rows have different lengths; one row per task
            // with the queue balancing the load.
            let mut upper: Vec<Vec<Complex64>> = (0..n).map(|i| vec![C_ZERO; n - i]).collect();
            upper.par_chunks_mut(1).enumerate().for_each(|(i, rows)| {
                fill_row(i, &mut rows[0]);
            });
            for (i, row) in upper.into_iter().enumerate() {
                for (dj, v) in row.into_iter().enumerate() {
                    out[(i, i + dj)] = v;
                }
            }
        } else {
            for i in 0..n {
                let mut row = vec![C_ZERO; n - i];
                fill_row(i, &mut row);
                for (dj, v) in row.into_iter().enumerate() {
                    out[(i, i + dj)] = v;
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)].conj();
            }
        }
        out
    }

    /// Frobenius norm `‖A‖_F = sqrt(Σ |a_ij|²)`.
    ///
    /// Large matrices reduce in parallel over fixed-size chunks; the chunk
    /// grain is constant, so the summation order (and the result, to the
    /// last bit) does not depend on the thread count.
    pub fn frobenius_norm(&self) -> f64 {
        if parallel::should_parallelize(self.data.len()) {
            self.data
                .par_chunks(parallel::REDUCE_GRAIN)
                .map(|c| c.iter().map(|z| z.norm_sqr()).sum::<f64>())
                .reduce(|| 0.0, |a, b| a + b)
                .sqrt()
        } else {
            self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
        }
    }

    /// Largest entry modulus (max norm), reduced in parallel for large
    /// matrices.
    pub fn max_norm(&self) -> f64 {
        if parallel::should_parallelize(self.data.len()) {
            self.data
                .par_chunks(parallel::REDUCE_GRAIN)
                .map(|c| c.iter().map(|z| z.abs()).fold(0.0, f64::max))
                .reduce(|| 0.0, f64::max)
        } else {
            self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
        }
    }

    /// `true` if `‖A − A†‖_max ≤ tol`. A NaN entry makes the matrix
    /// non-Hermitian at any tolerance.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the check
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.nrows {
            for j in i..self.ncols {
                if !((self[(i, j)] - self[(j, i)].conj()).abs() <= tol) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if `‖A†A − I‖_max ≤ tol`, i.e. the matrix is unitary.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.gram();
        let id = Self::identity(self.nrows);
        (&prod - &id).max_norm() <= tol
    }

    /// Stacks selected columns (in order) into a new `nrows × cols.len()`
    /// matrix. Used to assemble spectral embeddings from eigenvector columns.
    pub fn select_columns(&self, cols: &[usize]) -> Self {
        Self::from_fn(self.nrows, cols.len(), |i, j| self[(i, cols[j])])
    }

    /// Random matrix with entries uniform in the complex unit square,
    /// deterministic given the RNG state.
    pub fn random<R: Rng>(nrows: usize, ncols: usize, rng: &mut R) -> Self {
        Self::from_fn(nrows, ncols, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    /// Random Hermitian matrix: `(M + M†)/2` of a [`random`](Self::random)
    /// matrix. Useful for eigensolver tests and benchmarks.
    pub fn random_hermitian<R: Rng>(n: usize, rng: &mut R) -> Self {
        let m = Self::random(n, n, rng);
        let mh = m.adjoint();
        Self::from_fn(n, n, |i, j| (m[(i, j)] + mh[(i, j)]).scale(0.5))
    }

    /// Random unitary matrix via QR of a random matrix (Haar-ish; exact
    /// distribution is irrelevant for the tests that use it).
    pub fn random_unitary<R: Rng>(n: usize, rng: &mut R) -> Self {
        let m = Self::random(n, n, rng);
        let (q, _r) = crate::qr::qr_decompose(&m);
        q
    }

    /// Residual `‖A·v − λ·v‖₂` measuring eigenpair quality: the oracle the
    /// kernel-equivalence suite holds `eigh_spectrum`'s eigenvectors to.
    pub fn eigen_residual(&self, lambda: f64, v: &[Complex64]) -> f64 {
        let av = self.matvec(v);
        let diff: Vec<Complex64> = av
            .iter()
            .zip(v)
            .map(|(a, b)| *a - b.scale(lambda))
            .collect();
        vector::norm2(&diff)
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.nrows, self.ncols),
            (rhs.nrows, rhs.ncols),
            "matrix add: shape mismatch"
        );
        CMatrix::from_fn(self.nrows, self.ncols, |i, j| self[(i, j)] + rhs[(i, j)])
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.nrows, self.ncols),
            (rhs.nrows, rhs.ncols),
            "matrix sub: shape mismatch"
        );
        CMatrix::from_fn(self.nrows, self.ncols, |i, j| self[(i, j)] - rhs[(i, j)])
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        CMatrix::from_fn(self.nrows, self.ncols, |i, j| -self[(i, j)])
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                write!(f, "{:>20}", self[(i, j)].to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C_I;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_multiplicative_unit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = CMatrix::random(4, 4, &mut rng);
        let id = CMatrix::identity(4);
        assert_eq!(id.matmul(&m), m);
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn adjoint_involution() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = CMatrix::random(3, 5, &mut rng);
        assert_eq!(m.adjoint().adjoint(), m);
    }

    #[test]
    fn adjoint_reverses_products() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = CMatrix::random(3, 4, &mut rng);
        let b = CMatrix::random(4, 2, &mut rng);
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        assert!((&lhs - &rhs).max_norm() < 1e-12);
    }

    #[test]
    fn hermitian_detection() {
        let m = CMatrix::from_rows(&[
            vec![Complex64::real(2.0), C_I],
            vec![-C_I, Complex64::real(3.0)],
        ])
        .unwrap();
        assert!(m.is_hermitian(1e-12));
        let bad = CMatrix::from_rows(&[
            vec![Complex64::real(2.0), C_I],
            vec![C_I, Complex64::real(3.0)],
        ])
        .unwrap();
        assert!(!bad.is_hermitian(1e-12));
    }

    #[test]
    fn nan_entries_are_never_hermitian() {
        for (i, j) in [(1, 1), (0, 2)] {
            let mut m = CMatrix::identity(3);
            m[(i, j)] = Complex64::real(f64::NAN);
            m[(j, i)] = Complex64::real(f64::NAN);
            assert!(!m.is_hermitian(1e-9), "NaN at ({i},{j}) passed");
            assert!(!m.is_hermitian(f64::INFINITY), "NaN at ({i},{j}) passed");
        }
    }

    #[test]
    fn transpose_in_place_and_row_pairs() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = CMatrix::random(5, 5, &mut rng);
        let mut t = m.clone();
        t.transpose_in_place();
        assert_eq!(t, m.transpose());
        let (a, b) = t.row_pair_mut(3);
        assert_eq!((a.to_vec(), b.to_vec()), (m.col(3), m.col(4)));
    }

    #[test]
    fn random_hermitian_is_hermitian() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = CMatrix::random_hermitian(8, &mut rng);
        assert!(m.is_hermitian(1e-12));
    }

    #[test]
    fn random_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(5);
        let u = CMatrix::random_unitary(6, &mut rng);
        assert!(u.is_unitary(1e-9));
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = CMatrix::random(4, 4, &mut rng);
        let x = CMatrix::random(4, 1, &mut rng);
        let y = a.matmul(&x);
        let xv: Vec<Complex64> = (0..4).map(|i| x[(i, 0)]).collect();
        let yv = a.matvec(&xv);
        for i in 0..4 {
            assert!((y[(i, 0)] - yv[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = CMatrix::from_rows(&[vec![C_ONE], vec![C_ONE, C_I]]);
        assert!(err.is_err());
    }

    #[test]
    fn select_columns_assembles_embedding() {
        let m = CMatrix::from_fn(3, 3, |i, j| Complex64::real((i * 3 + j) as f64));
        let s = m.select_columns(&[2, 0]);
        assert_eq!(s[(0, 0)], Complex64::real(2.0));
        assert_eq!(s[(0, 1)], Complex64::real(0.0));
        assert_eq!(s[(2, 0)], Complex64::real(8.0));
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = CMatrix::from_rows(&[vec![Complex64::new(3.0, 4.0)]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_residual_zero_for_exact_pair() {
        let m = CMatrix::from_diag(&[Complex64::real(2.0), Complex64::real(5.0)]);
        let v = [C_ONE, C_ZERO];
        assert!(m.eigen_residual(2.0, &v) < 1e-12);
        assert!(m.eigen_residual(5.0, &v) > 1.0);
    }
}
