//! Hermitian eigendecomposition.
//!
//! Two independent algorithms are provided and cross-validated against each
//! other in the test suite:
//!
//! * [`eigh`] — Householder tridiagonalization followed by implicit-shift QL
//!   (the `O(n³)`-with-small-constant production path), and
//! * [`eigh_jacobi`] — cyclic complex Jacobi rotations (the slower, highly
//!   robust reference path).
//!
//! Both return a [`HermitianEigen`] with eigenvalues sorted ascending, which
//! is the ordering spectral clustering consumes (lowest eigenvectors first).
//!
//! Two cheaper entry points share [`eigh`]'s reduction and QL recurrence:
//! [`eigvalsh`] (eigenvalues only) and the partial eigensolver
//! [`eigh_spectrum`] (every eigenvalue, eigenvectors on request). Both give
//! eigenvalues bit-identical to [`eigh`]'s. [`eigh_spectrum`] is
//! [`HermitianReduction::new`] (the `O(n³)` reduction) followed by
//! [`HermitianReduction::spectrum`] (the `O(n²)` QL), so a caller that
//! reads one matrix's spectrum many times can keep the reduction.
//!
//! # Memory layout of the fast path
//!
//! Every `O(n³)` inner loop of [`eigh`] walks contiguous row-major memory:
//!
//! * [`tridiagonalize`] forms `p = τ·A·v` one row at a time through
//!   [`kernels::dot`](crate::kernels::dot), runs the rank-2 update row by
//!   row through [`kernels::rank2`](crate::kernels::rank2) over
//!   precomputed `conj(w)` / `conj(v)`, and accumulates `Q` in two
//!   row-major passes per reflector (`y = v†·Q` through
//!   [`kernels::axpy`](crate::kernels::axpy), then `Q −= v·(τ·y)`) over the
//!   active columns only. A real input (every `im == 0.0`, no `−0.0`
//!   real part) runs a real twin of the same loops on one `f64` buffer, with real reflectors,
//!   bit-identical in `d`, `e` and the real parts of `Q`
//!   (`docs/KERNELS.md` gives the argument).
//! * [`tql_implicit`] transposes `z` in place, applies each real Givens
//!   rotation to two adjacent rows, and transposes back on every exit.
//!
//! Why this is bit-identical to the column-at-a-time loops it replaced:
//! each output entry is computed by the same operations on the same
//! operands in the same order. The reductions (`A·v` rows, `v†·Q` columns)
//! accumulate in ascending index from a zero accumulator — exactly the
//! contract of the ordered kernels on every tier; the updates touch each
//! entry once with the unchanged expression; the rotations are real, so
//! both components of a complex entry see the same scalar operations in
//! either orientation; and the `Q` columns left out of the passes are the
//! ones whose `v†·Q` entry is an exact zero, which the column loop skipped.
//! The symmetric half-update (mirroring the upper triangle) is *not* done:
//! [`eigh`] accepts inputs Hermitian only to within [`HERMITICITY_TOL`],
//! and mirroring would change their results.
//!
//! [`eigvalsh`] runs the same reduction and QL recurrence without `Q` and
//! without rotations; the `d`/`e` recurrence never reads the eigenvectors,
//! so its eigenvalues are bit-identical to [`eigh`]'s.
//!
//! # Only the eigenvectors a caller reads
//!
//! Spectral clustering reads `k ≪ n` eigenvectors, yet [`eigh`] spends
//! most of its time forming `Q` (`~16·n³/3` flops) and rotating all `n`
//! columns of `z` through QL (`~12·n` flops per rotation, `~1.1·n²`
//! rotations). [`eigh_spectrum`] does neither: it keeps the reflectors,
//! and QL writes each rotation `(i, c, s)` to a 20-byte log entry instead
//! of applying it. Eigenvector `j` is then rebuilt on request in `O(n²)`:
//!
//! 1. start from `e_{order[j]}` (`order` is the same stable argsort that
//!    [`eigh`] sorts with, so tied eigenvalues get the same columns);
//! 2. replay the log backwards, `x_i ← c·x_i + s·x_{i+1}`,
//!    `x_{i+1} ← −s·x_i + c·x_{i+1}`, which yields `R·e_{order[j]}`;
//! 3. apply `Q = H_0⋯H_{n−2}` by the reflectors, `H_{n−2}` first.
//!
//! That is `Q·(R·e)` where [`eigh`] computes `(Q·R)·e`: the same rotations
//! and reflectors in a different association, so the vectors agree with
//! [`eigh`]'s up to rounding (`max|ΔV| ≤ 4·n·ε`, pinned in
//! `tests/kernel_equivalence.rs`), with the same sign and phase even inside
//! degenerate clusters. This is why the path replays a log rather than
//! running inverse iteration (LAPACK `zstein`), whose vectors are only
//! defined up to a phase: downstream tomography samples real and imaginary
//! parts, so a phase change would change its noise realisation.

mod householder;
mod jacobi;
mod tql;
mod unitary;

pub use householder::{tridiagonalize, Tridiagonal};
pub use tql::tql_implicit;
pub use unitary::{eig_unitary, UnitaryEigen};

pub(crate) use tql::{ql, RotationLog, Rotations};

use crate::complex::Complex64;
use crate::error::LinalgError;
use crate::matrix::CMatrix;
use std::sync::Arc;

/// Default tolerance for validating that an input matrix is Hermitian,
/// relative to its max-norm.
pub const HERMITICITY_TOL: f64 = 1e-9;

/// Result of a Hermitian eigendecomposition `A = V·diag(λ)·V†`.
#[derive(Debug, Clone)]
pub struct HermitianEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Unitary matrix whose `j`-th column is the eigenvector of
    /// `eigenvalues[j]`.
    pub eigenvectors: CMatrix,
}

impl HermitianEigen {
    /// Rebuilds `V·diag(λ)·V†`: the reconstruction oracle for [`eigh`] in
    /// the property and edge-case suites.
    pub fn reconstruct(&self) -> CMatrix {
        let lam = CMatrix::from_diag(
            &self
                .eigenvalues
                .iter()
                .map(|&x| Complex64::real(x))
                .collect::<Vec<_>>(),
        );
        self.eigenvectors
            .matmul(&lam)
            .matmul(&self.eigenvectors.adjoint())
    }
}

fn validate_hermitian(a: &CMatrix) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::InvalidInput {
            context: format!("eigh: matrix is {}×{}", a.nrows(), a.ncols()),
        });
    }
    if !a.as_slice().iter().all(|z| z.is_finite()) {
        return Err(LinalgError::InvalidInput {
            context: "eigh: matrix has non-finite entries".into(),
        });
    }
    let scale = a.max_norm().max(1.0);
    if !a.is_hermitian(HERMITICITY_TOL * scale) {
        return Err(LinalgError::InvalidInput {
            context: "eigh: matrix is not Hermitian".into(),
        });
    }
    Ok(())
}

/// Stable ascending argsort: tied eigenvalues keep their QL order, so every
/// path maps them to the same columns.
pub(crate) fn ascending_order(evals: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..evals.len()).collect();
    order.sort_by(|&i, &j| evals[i].partial_cmp(&evals[j]).expect("NaN eigenvalue"));
    order
}

fn sorted(evals: Vec<f64>, evecs: CMatrix) -> HermitianEigen {
    let order = ascending_order(&evals);
    HermitianEigen {
        eigenvalues: order.iter().map(|&i| evals[i]).collect(),
        eigenvectors: evecs.select_columns(&order),
    }
}

/// Full eigendecomposition of a Hermitian matrix via Householder
/// tridiagonalization + implicit-shift QL (the fast path).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] for non-square or non-Hermitian
/// inputs and [`LinalgError::NoConvergence`] if the QL iteration stalls
/// (pathological inputs only).
///
/// # Examples
///
/// ```
/// use qsc_linalg::{eig::eigh, CMatrix, Complex64, C_I};
///
/// # fn main() -> Result<(), qsc_linalg::LinalgError> {
/// // Pauli-Y has eigenvalues ±1.
/// let y = CMatrix::from_rows(&[
///     vec![Complex64::real(0.0), -C_I],
///     vec![C_I, Complex64::real(0.0)],
/// ]).unwrap();
/// let eig = eigh(&y)?;
/// assert!((eig.eigenvalues[0] + 1.0).abs() < 1e-10);
/// assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn eigh(a: &CMatrix) -> Result<HermitianEigen, LinalgError> {
    validate_hermitian(a)?;
    let tri = tridiagonalize(a);
    let mut d = tri.d;
    let mut e = tri.e;
    let mut z = tri.q;
    tql_implicit(&mut d, &mut e, &mut z)?;
    Ok(sorted(d, z))
}

/// All eigenvalues of a Hermitian matrix, with eigenvectors built only on
/// request — the result of [`eigh_spectrum`].
///
/// Instead of `Q` and the rotated `z`, it keeps the Householder reflectors
/// (shared with the [`HermitianReduction`] it came from) and the log of QL
/// rotations, about `30·n²` bytes in all (`26·n²` for a real input).
#[derive(Debug, Clone)]
pub struct HermitianSpectrum {
    /// Eigenvalues in ascending order, bit-identical to [`eigh`]'s.
    pub eigenvalues: Vec<f64>,
    /// `order[j]` is the QL index of `eigenvalues[j]`.
    order: Vec<usize>,
    reflectors: Arc<householder::Reflectors>,
    rotations: RotationLog,
}

impl HermitianSpectrum {
    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// The `n × selected.len()` matrix whose column `c` is the eigenvector
    /// of `eigenvalues[selected[c]]`: [`eigh`]'s column `selected[c]`, up
    /// to rounding, with the same sign and phase (inside degenerate
    /// clusters too). Costs `O(n²)` per column.
    ///
    /// # Panics
    ///
    /// Panics if an index is `≥ n`.
    pub fn eigenvectors(&self, selected: &[usize]) -> CMatrix {
        let n = self.dim();
        let cols: Vec<usize> = selected
            .iter()
            .map(|&j| {
                assert!(j < n, "eigenvectors: index {j} out of range for n = {n}");
                self.order[j]
            })
            .collect();
        // Eigenvector j of T is R·e_{order[j]}; Q maps it to one of A.
        let x = self.rotations.replay(n, &cols);
        self.reflectors.apply(x, n, cols.len(), false)
    }

    /// The `n × k` matrix of eigenvectors belonging to the `k` smallest
    /// eigenvalues — the spectral embedding used by spectral clustering.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn lowest_k(&self, k: usize) -> CMatrix {
        assert!(k <= self.dim(), "lowest_k: k={} > n={}", k, self.dim());
        self.eigenvectors(&(0..k).collect::<Vec<_>>())
    }
}

/// The `O(n³)` half of [`eigh_spectrum`]: a validated Hermitian matrix
/// reduced to real tridiagonal form, `A = Q·T·Q†`, with `Q` kept as its
/// Householder reflectors.
///
/// It stores the diagonal and subdiagonal of `T` and the reflectors, about
/// `8·n²` bytes, or `4·n²` for a real input, whose reflectors are real.
/// [`HermitianReduction::spectrum`] runs the `O(n²)` QL recurrence on a
/// copy of the diagonal, so one reduction can serve any number of spectra,
/// each bit-identical to [`eigh_spectrum`]'s.
#[derive(Debug, Clone)]
pub struct HermitianReduction {
    d: Vec<f64>,
    e: Vec<f64>,
    reflectors: Arc<householder::Reflectors>,
}

impl HermitianReduction {
    /// Validates `a` and reduces it in place (taken by value, as in
    /// [`eigh_spectrum`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for non-square, non-finite or
    /// non-Hermitian inputs, as [`eigh`] does.
    pub fn new(a: CMatrix) -> Result<Self, LinalgError> {
        validate_hermitian(&a)?;
        let (d, e, reflectors) = householder::reduce(a);
        Ok(Self {
            d,
            e,
            reflectors: Arc::new(reflectors),
        })
    }

    /// Every eigenvalue, with eigenvectors on request: QL with a rotation
    /// log on a copy of the diagonal. QL is deterministic, so every call
    /// returns the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NoConvergence`] if the QL iteration stalls.
    pub fn spectrum(&self) -> Result<HermitianSpectrum, LinalgError> {
        let mut d = self.d.clone();
        let mut rotations = RotationLog::default();
        ql(&mut d, &self.e, Rotations::Log(&mut rotations))?;
        let order = ascending_order(&d);
        Ok(HermitianSpectrum {
            eigenvalues: order.iter().map(|&i| d[i]).collect(),
            order,
            reflectors: Arc::clone(&self.reflectors),
            rotations,
        })
    }
}

/// The partial eigensolver: every eigenvalue of a Hermitian matrix,
/// bit-identical to [`eigh`]'s, and eigenvectors only for the indices a
/// caller asks [`HermitianSpectrum::eigenvectors`] for.
///
/// It runs [`eigh`]'s Householder reduction ([`HermitianReduction::new`])
/// and QL recurrence ([`HermitianReduction::spectrum`]) but never forms `Q`
/// nor rotates `z`, which is most of [`eigh`]'s `O(n³)` work:
/// the QL rotations go to a log, and each requested eigenvector is rebuilt
/// from `e_j` by replaying the log backwards and applying the reflectors.
///
/// `a` is taken by value because the reduction overwrites it: a caller
/// done with the matrix hands it over instead of keeping a second `n × n`
/// copy alive during the solve.
///
/// # Errors
///
/// Same contract as [`eigh`].
///
/// # Examples
///
/// ```
/// use qsc_linalg::{eig::eigh_spectrum, eigh, CMatrix};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), qsc_linalg::LinalgError> {
/// let a = CMatrix::random_hermitian(20, &mut StdRng::seed_from_u64(1));
/// let (spectrum, full) = (eigh_spectrum(a.clone())?, eigh(&a)?);
/// assert_eq!(spectrum.eigenvalues, full.eigenvalues);
/// let low = spectrum.lowest_k(3);
/// assert!((&low - &full.eigenvectors.select_columns(&[0, 1, 2])).max_norm() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eigh_spectrum(a: CMatrix) -> Result<HermitianSpectrum, LinalgError> {
    HermitianReduction::new(a)?.spectrum()
}

/// Full eigendecomposition via cyclic complex Jacobi (reference path).
///
/// The independent oracle for [`eigh`] and [`eigh_spectrum`] in the
/// kernel-equivalence and edge-case suites.
///
/// # Errors
///
/// Same contract as [`eigh`].
pub fn eigh_jacobi(a: &CMatrix) -> Result<HermitianEigen, LinalgError> {
    validate_hermitian(a)?;
    let (evals, evecs) = jacobi::jacobi_hermitian(a, 1e-13)?;
    Ok(sorted(evals, evecs))
}

/// Eigenvalues only (ascending), via the fast path.
///
/// # Errors
///
/// Same contract as [`eigh`].
pub fn eigvalsh(a: &CMatrix) -> Result<Vec<f64>, LinalgError> {
    validate_hermitian(a)?;
    let (mut d, e, _) = householder::reduce(a.clone());
    ql(&mut d, &e, Rotations::Discard)?;
    d.sort_by(|a, b| a.partial_cmp(b).expect("NaN eigenvalue"));
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C_I, C_ZERO};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fast_path_reconstructs_random_hermitian() {
        let mut rng = StdRng::seed_from_u64(55);
        for n in [1usize, 2, 3, 7, 16, 32] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            let eig = eigh(&a).unwrap();
            assert!(
                (&eig.reconstruct() - &a).max_norm() < 1e-8,
                "fast path reconstruction failed at n={n}"
            );
            assert!(eig.eigenvectors.is_unitary(1e-8));
            // Ascending order.
            for w in eig.eigenvalues.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn jacobi_and_fast_path_agree_on_eigenvalues() {
        let mut rng = StdRng::seed_from_u64(56);
        for n in [4usize, 9, 20] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            let fast = eigh(&a).unwrap();
            let refe = eigh_jacobi(&a).unwrap();
            for (x, y) in fast.eigenvalues.iter().zip(&refe.eigenvalues) {
                assert!((x - y).abs() < 1e-8, "eigenvalue mismatch at n={n}");
            }
        }
    }

    #[test]
    fn eigenpair_residuals_small() {
        let mut rng = StdRng::seed_from_u64(57);
        let a = CMatrix::random_hermitian(24, &mut rng);
        let eig = eigh(&a).unwrap();
        for j in 0..24 {
            let v = eig.eigenvectors.col(j);
            assert!(a.eigen_residual(eig.eigenvalues[j], &v) < 1e-8);
        }
    }

    #[test]
    fn rejects_non_hermitian() {
        let m = CMatrix::from_rows(&[vec![C_ZERO, C_I], vec![C_I, C_ZERO]]).unwrap();
        assert!(eigh(&m).is_err());
        assert!(eigh_jacobi(&m).is_err());
    }

    #[test]
    fn eigvalsh_matches_eigh() {
        let mut rng = StdRng::seed_from_u64(58);
        for n in [1usize, 10, 17, 128] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            assert_eq!(
                eigvalsh(&a).unwrap(),
                eigh(&a).unwrap().eigenvalues,
                "n={n}"
            );
        }
    }

    /// `a ⊕ b`: block diagonal, so the reduction leaves an exact zero in
    /// `e` at the block boundary and QL splits there.
    fn direct_sum(a: &CMatrix, b: &CMatrix) -> CMatrix {
        let (na, nb) = (a.nrows(), b.nrows());
        let mut m = CMatrix::zeros(na + nb, na + nb);
        for i in 0..na {
            for j in 0..na {
                m[(i, j)] = a[(i, j)];
            }
        }
        for i in 0..nb {
            for j in 0..nb {
                m[(na + i, na + j)] = b[(i, j)];
            }
        }
        m
    }

    #[test]
    fn reduction_serves_repeated_spectra_bit_identically() {
        let mut rng = StdRng::seed_from_u64(59);
        let split = direct_sum(
            &CMatrix::random_hermitian(7, &mut rng),
            &CMatrix::random_hermitian(5, &mut rng),
        );
        let cases = [
            ("n = 1", CMatrix::random_hermitian(1, &mut rng)),
            ("random n = 24", CMatrix::random_hermitian(24, &mut rng)),
            ("split tridiagonal", split),
        ];
        for (name, a) in cases {
            let n = a.nrows();
            let reduction = HermitianReduction::new(a.clone()).unwrap();
            if name == "split tridiagonal" {
                assert_eq!(reduction.e[6], 0.0, "{name}: no exact zero at the split");
            }
            let reference = eigh_spectrum(a).unwrap();
            let sel: Vec<usize> = [0, n / 2, n - 1].into_iter().collect();
            let bits = |m: &CMatrix| -> Vec<[u64; 2]> {
                m.as_slice()
                    .iter()
                    .map(|z| [z.re.to_bits(), z.im.to_bits()])
                    .collect()
            };
            let ref_vectors = bits(&reference.eigenvectors(&sel));
            for round in 0..2 {
                let spectrum = reduction.spectrum().unwrap();
                assert_eq!(
                    spectrum
                        .eigenvalues
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    reference
                        .eigenvalues
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    "{name}, spectrum {round}: eigenvalues"
                );
                assert_eq!(
                    bits(&spectrum.eigenvectors(&sel)),
                    ref_vectors,
                    "{name}, spectrum {round}: eigenvectors"
                );
            }
        }
    }

    /// `a`'s reduction by the complex loop, whatever its entries.
    fn complex_path_reduction(a: CMatrix) -> HermitianReduction {
        let (d, e, reflectors) = householder::reduce_complex(a);
        HermitianReduction {
            d,
            e,
            reflectors: Arc::new(householder::Reflectors::Complex(reflectors)),
        }
    }

    #[test]
    fn real_reflectors_rebuild_the_complex_paths_eigenvectors() {
        // A real input runs the real twin of the reduction; its spectrum's
        // eigenvectors must equal the complex loop's in their real parts
        // to the bit, with zero imaginary parts.
        let mut rng = StdRng::seed_from_u64(60);
        let real_symmetric = |n: usize, zeros: u32, rng: &mut StdRng| {
            let mut a = CMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let re = if rng.gen_range(0..10u32) < zeros {
                        0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    };
                    let im = if rng.gen::<bool>() { -0.0 } else { 0.0 };
                    a[(i, j)] = Complex64::new(re, im);
                    a[(j, i)] = Complex64::new(re, -im);
                }
            }
            a
        };
        let split = direct_sum(
            &real_symmetric(7, 0, &mut rng),
            &real_symmetric(5, 6, &mut rng),
        );
        let mut cases = vec![("split tridiagonal".to_string(), split)];
        for n in [1usize, 2, 5, 24, 61] {
            for zeros in [0, 7] {
                let a = real_symmetric(n, zeros, &mut rng);
                cases.push((format!("n = {n}, {zeros}/10 zeros"), a));
            }
        }
        for (name, a) in cases {
            let n = a.nrows();
            let all: Vec<usize> = (0..n).collect();
            let real = HermitianReduction::new(a.clone()).unwrap();
            assert!(
                matches!(*real.reflectors, householder::Reflectors::Real(_)),
                "{name}: not the real path"
            );
            let complex = complex_path_reduction(a);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&real.d), bits(&complex.d), "{name}: d");
            assert_eq!(bits(&real.e), bits(&complex.e), "{name}: e");
            let got = real.spectrum().unwrap().eigenvectors(&all);
            let want = complex.spectrum().unwrap().eigenvectors(&all);
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(g.re.to_bits(), w.re.to_bits(), "{name}: entry {i}");
                assert_eq!(g.im.to_bits(), 0, "{name}: entry {i}: imaginary part");
            }
        }
    }

    #[test]
    fn non_finite_input_is_invalid_not_unconverged() {
        let nan = Complex64::real(f64::NAN);
        let inf = Complex64::real(f64::INFINITY);
        let mut diag_nan = CMatrix::identity(4);
        diag_nan[(1, 1)] = nan;
        let mut off_inf = CMatrix::identity(4);
        off_inf[(0, 2)] = inf;
        off_inf[(2, 0)] = inf;
        let mut one_sided_inf = CMatrix::identity(4);
        one_sided_inf[(0, 2)] = inf;
        for (name, m) in [
            ("NaN diagonal", diag_nan),
            ("∞ pair", off_inf),
            ("one-sided ∞", one_sided_inf),
        ] {
            for result in [eigh(&m).map(|_| ()), eigvalsh(&m).map(|_| ())] {
                assert!(
                    matches!(result, Err(LinalgError::InvalidInput { .. })),
                    "{name}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_spectrum_handled() {
        // 4×4 identity: all eigenvalues 1.
        let a = CMatrix::identity(4);
        let eig = eigh(&a).unwrap();
        for v in &eig.eigenvalues {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert!(eig.eigenvectors.is_unitary(1e-10));
    }
}
