//! Householder reduction of a Hermitian matrix to real symmetric tridiagonal
//! form (the unblocked LAPACK `zhetd2` algorithm), plus accumulation of the
//! unitary similarity `Q` so that `A = Q · T · Q†`.
//!
//! Cost and layout. Step `k` of the reduction costs ~`8·(n−k)²` real flops
//! for `p = τ·A·v` (one [`kernels::dot`] per row of the trailing block) and
//! ~`16·(n−k)²` for the full (not half) rank-2 update, ~`8·n³` in all.
//! Accumulating `Q` touches only the active block `Q[k+1.., k+1..]` for
//! reflector `k` — the columns `≤ k` of the rows `> k` are still the
//! identity's zeros there — in two row-major passes of ~`8·(n−k)²` flops
//! each, ~`16·n³/3` in all (a pass over every column would cost
//! `8·(n−k)·n`). So the reduction is ~60 % of the flops and `Q` ~40 %.
//! Every inner loop walks a row of the row-major storage.
//!
//! The operations and their order are exactly those of the textbook
//! column-at-a-time loops, so `d`, `e` and `Q` are bit-identical to them
//! (the oracle in `tests/kernel_equivalence.rs` pins this on every kernel
//! tier).

use crate::complex::{Complex64, C_ONE, C_ZERO};
use crate::kernels;
use crate::matrix::CMatrix;
use crate::vector::cdot;

/// Output of the tridiagonalization: `A = Q·T·Q†` with `T` real symmetric
/// tridiagonal (diagonal `d`, subdiagonal `e`).
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Diagonal of `T` (length `n`).
    pub d: Vec<f64>,
    /// Subdiagonal of `T` (length `n.saturating_sub(1)`), made real by the
    /// reflector phase choices.
    pub e: Vec<f64>,
    /// Unitary accumulation matrix with `A = Q·T·Q†`.
    pub q: CMatrix,
}

/// The elementary reflector `H_k = I − τ·v·v†` of reduction step `k`. `v`
/// is stored on its support only: `v[0] = 1` sits on row `k + 1`, and the
/// vector runs to row `n − 1`.
#[derive(Debug, Clone)]
pub(super) struct Reflector {
    tau: Complex64,
    v: Vec<Complex64>,
}

/// Generates an elementary reflector `H = I − τ·v·v†` (LAPACK `zlarfg`) such
/// that `H† · [alpha; x] = [beta; 0]` with `beta` real.
///
/// Returns `(beta, tau, v)` where `v = [1; x / (alpha − beta)]` is the
/// Householder vector.
fn larfg(alpha: Complex64, x: &[Complex64]) -> (f64, Complex64, Vec<Complex64>) {
    let mut v = Vec::with_capacity(x.len() + 1);
    v.push(C_ONE);
    let xnorm = x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    if xnorm == 0.0 && alpha.im == 0.0 {
        // Already in the desired form; no reflection needed.
        v.resize(x.len() + 1, C_ZERO);
        return (alpha.re, C_ZERO, v);
    }
    let norm_all = (alpha.norm_sqr() + xnorm * xnorm).sqrt();
    let beta = if alpha.re >= 0.0 { -norm_all } else { norm_all };
    let tau = Complex64::new((beta - alpha.re) / beta, -alpha.im / beta);
    let denom = alpha - beta;
    let inv = denom.recip();
    v.extend(x.iter().map(|&z| z * inv));
    (beta, tau, v)
}

/// Reduces a Hermitian matrix to real symmetric tridiagonal form.
///
/// # Panics
///
/// Panics if the matrix is not square. Hermitian-ness is the caller's
/// responsibility (the public [`crate::eig::eigh`] entry point validates).
pub fn tridiagonalize(a: &CMatrix) -> Tridiagonal {
    let (d, e, reflectors) = reduce(a.clone());
    let q = accumulate_q(a.nrows(), &reflectors);
    Tridiagonal { d, e, q }
}

/// Runs the reduction in place on `m`, returning `d`, `e` (bit-identical
/// to [`tridiagonalize`]'s) and the reflectors `H_0 … H_{n−2}`, without
/// `Q`.
pub(super) fn reduce(mut m: CMatrix) -> (Vec<f64>, Vec<f64>, Vec<Reflector>) {
    assert!(m.is_square(), "tridiagonalize: matrix must be square");
    let n = m.nrows();
    let mut e = vec![0.0; n.saturating_sub(1)];
    let mut reflectors = Vec::with_capacity(n.saturating_sub(1));

    for k in 0..n.saturating_sub(1) {
        let alpha = m[(k + 1, k)];
        let x: Vec<Complex64> = (k + 2..n).map(|i| m[(i, k)]).collect();
        let (beta, tau, v) = larfg(alpha, &x);
        e[k] = beta;

        if tau != C_ZERO {
            // Two-sided update of the trailing block m[k+1.., k+1..]:
            //   p = τ·A·v,  w = p − (τ/2)·⟨p, v⟩·v,  A ← A − v·w† − w·v†.
            let sub = k + 1;
            let p: Vec<Complex64> = (sub..n)
                .map(|i| kernels::dot(&m.row(i)[sub..], &v) * tau)
                .collect();
            let coeff = tau.scale(0.5) * cdot(&p, &v);
            let w: Vec<Complex64> = p.iter().zip(&v).map(|(pi, vi)| *pi - coeff * *vi).collect();
            let w_conj: Vec<Complex64> = w.iter().map(|z| z.conj()).collect();
            let v_conj: Vec<Complex64> = v.iter().map(|z| z.conj()).collect();
            for (i, (&vi, &wi)) in v.iter().zip(&w).enumerate() {
                let row = &mut m.row_mut(sub + i)[sub..];
                for ((mij, &wj), &vj) in row.iter_mut().zip(&w_conj).zip(&v_conj) {
                    *mij -= vi * wj + wi * vj;
                }
            }
        }

        reflectors.push(Reflector { tau, v });
    }

    let d = (0..n).map(|i| m[(i, i)].re).collect();
    (d, e, reflectors)
}

/// Accumulates `Q = H_0·H_1⋯H_{n−2}` by applying the reflectors to the
/// identity (see [`apply_reflectors`]).
fn accumulate_q(n: usize, reflectors: &[Reflector]) -> CMatrix {
    let mut q = CMatrix::identity(n);
    apply_reflectors(reflectors, &mut q, true);
    q
}

/// `X ← Q·X` for any `n × k` matrix `X`, `O(n²·k)`: the back-transform of
/// eigenvectors of `T` into eigenvectors of `A` without forming `Q`.
pub(super) fn apply_q(reflectors: &[Reflector], x: &mut CMatrix) {
    apply_reflectors(reflectors, x, false);
}

/// `X ← H_0·H_1⋯H_{n−2}·X`, applying the reflectors from the left in
/// reverse order: `X ← H_k·X = X − τ·v·(v†·X)`.
///
/// With `identity` set, `X` starts as the identity and only the columns
/// `k+1..n` are visited for `H_k`: when it is applied, only `H_{k+1} …`
/// have touched `X`, so its columns `≤ k` are still identity columns, zero
/// on rows `k+1..n`, and their `v†·X` entries are exact zeros, which the
/// column-at-a-time loop skips. That holds only while every reflector
/// applied so far is finite: a non-finite `v` turns those zeros into NaNs,
/// so from then on the passes cover every column, exactly as the column
/// loop does.
fn apply_reflectors(reflectors: &[Reflector], x: &mut CMatrix, identity: bool) {
    let k = x.ncols();
    let mut y = vec![C_ZERO; k];
    let mut f = vec![C_ZERO; k];
    let mut all_finite = identity;
    for (r, refl) in reflectors.iter().enumerate().rev() {
        if refl.tau == C_ZERO {
            continue;
        }
        all_finite &= refl.v.iter().all(|z| z.is_finite());
        let sub = r + 1;
        let c0 = if all_finite { sub } else { 0 };
        let (y, f) = (&mut y[c0..], &mut f[c0..]);
        // Pass 1: y = v†·X, each entry summed over rows in ascending order.
        y.fill(C_ZERO);
        for (i, vi) in refl.v.iter().enumerate() {
            kernels::axpy(vi.conj(), &x.row(sub + i)[c0..], y);
        }
        // Pass 2: X[row, c] −= (τ·y_c)·v_row, skipping exact-zero y_c.
        for (fc, &yc) in f.iter_mut().zip(y.iter()) {
            *fc = refl.tau * yc;
        }
        for (i, &vi) in refl.v.iter().enumerate() {
            let row = &mut x.row_mut(sub + i)[c0..];
            for ((xc, &fc), &yc) in row.iter_mut().zip(f.iter()).zip(y.iter()) {
                if yc != C_ZERO {
                    *xc -= fc * vi;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tridiag_to_matrix(d: &[f64], e: &[f64]) -> CMatrix {
        let n = d.len();
        CMatrix::from_fn(n, n, |i, j| {
            if i == j {
                Complex64::real(d[i])
            } else if i + 1 == j {
                Complex64::real(e[i])
            } else if j + 1 == i {
                Complex64::real(e[j])
            } else {
                C_ZERO
            }
        })
    }

    #[test]
    fn larfg_annihilates_tail() {
        let alpha = Complex64::new(1.0, 2.0);
        let x = vec![Complex64::new(0.5, -0.5), Complex64::new(-1.0, 0.25)];
        let (beta, tau, v) = larfg(alpha, &x);
        // Build H = I − τ v v† and check H† [alpha; x] = [beta; 0].
        let full = {
            let mut f = vec![alpha];
            f.extend_from_slice(&x);
            f
        };
        // H† y = y − τ̄ v (v† y)
        let vy = cdot(&v, &full);
        let res: Vec<Complex64> = full
            .iter()
            .zip(&v)
            .map(|(y, vi)| *y - tau.conj() * *vi * vy)
            .collect();
        assert!((res[0] - Complex64::real(beta)).abs() < 1e-12);
        for z in &res[1..] {
            assert!(z.abs() < 1e-12, "tail not annihilated: {z}");
        }
    }

    #[test]
    fn larfg_no_op_for_real_scalar() {
        let (beta, tau, _) = larfg(Complex64::real(2.5), &[]);
        assert_eq!(beta, 2.5);
        assert_eq!(tau, C_ZERO);
    }

    #[test]
    fn q_is_unitary_and_reconstructs() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [2usize, 3, 6, 12] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            let tri = tridiagonalize(&a);
            assert!(tri.q.is_unitary(1e-9), "Q not unitary for n={n}");
            let t = tridiag_to_matrix(&tri.d, &tri.e);
            let recon = tri.q.matmul(&t).matmul(&tri.q.adjoint());
            assert!(
                (&recon - &a).max_norm() < 1e-9,
                "Q·T·Q† ≠ A for n={n}: err={}",
                (&recon - &a).max_norm()
            );
        }
    }

    #[test]
    fn already_tridiagonal_real_input() {
        let a = tridiag_to_matrix(&[1.0, 2.0, 3.0], &[0.5, -0.25]);
        let tri = tridiagonalize(&a);
        let t = tridiag_to_matrix(&tri.d, &tri.e);
        let recon = tri.q.matmul(&t).matmul(&tri.q.adjoint());
        assert!((&recon - &a).max_norm() < 1e-10);
    }

    #[test]
    fn one_by_one() {
        let a = CMatrix::from_diag(&[Complex64::real(7.0)]);
        let tri = tridiagonalize(&a);
        assert_eq!(tri.d, vec![7.0]);
        assert!(tri.e.is_empty());
    }
}
