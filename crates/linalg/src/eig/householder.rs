//! Householder reduction of a Hermitian matrix to real symmetric tridiagonal
//! form (the unblocked LAPACK `zhetd2` algorithm), plus accumulation of the
//! unitary similarity `Q` so that `A = Q · T · Q†`.
//!
//! Two loops, one dispatch. [`reduce`] checks once whether every entry has
//! `im == 0.0`. A complex input runs the complex loop; a real one (the
//! `symmetrized` Laplacians, for instance) moves its real parts into one
//! `n × n` `f64` buffer, in the complex matrix's own allocation, and runs
//! a real twin of the loop (LAPACK's `dsytrd`/`zhetrd` split). Its
//! reflectors stay real, half the bytes of complex ones, and
//! [`Reflectors::apply`] runs them in real arithmetic.
//!
//! Cost and layout. Step `k` of the complex reduction costs ~`8·(n−k)²`
//! real flops for `p = τ·A·v` (one [`kernels::dot`] per row of the
//! trailing block) and ~`16·(n−k)²` for the full (not half) rank-2 update
//! (one [`kernels::rank2`] per row), ~`8·n³` in all. The real twin does a
//! quarter of those flops: it forms `p` four rows at a time, four
//! independent ordered sums that hide the add latency one ordered dot
//! would wait on, and runs the rank-2 update as a plain element-wise loop.
//! Accumulating `Q` touches only the active block `Q[k+1.., k+1..]` for
//! reflector `k` — the columns `≤ k` of the rows `> k` are still the
//! identity's zeros there — in two row-major passes of ~`8·(n−k)²` flops
//! each (a quarter of that for real reflectors), ~`16·n³/3` in all (a pass
//! over every column would cost `8·(n−k)·n`). So the reduction is ~60 % of
//! the flops and `Q` ~40 %. Every inner loop walks a row of the row-major
//! storage.
//!
//! The operations and their order are exactly those of the textbook
//! column-at-a-time loops, so `d`, `e` and `Q` are bit-identical to them
//! (the oracle in `tests/kernel_equivalence.rs` pins this on every kernel
//! tier). The real twin repeats the complex loop's operations on the real
//! parts, in the same order, down to `recip` as `denom/(denom·denom)`.
//! With every imaginary part a zero, each complex operation's real part is
//! the real operation's result up to the sign of a zero, and those signs
//! never reach `d`, `e` or the real part of `Q`: every sum starts from
//! `+0.0`, which absorbs a zero of either sign, and a sum or difference
//! with one nonzero operand does not depend on the other's sign of zero.
//! A `−0.0` real part is the one operand that could keep such a sign, so
//! an input holding one runs the complex loop. `Q` and the rebuilt
//! eigenvectors get `+0.0` imaginary parts where the complex loop may
//! leave `−0.0`.

use crate::complex::{Complex64, C_ONE, C_ZERO};
use crate::kernels;
use crate::matrix::CMatrix;
use crate::vector::cdot;
use std::ops::{Mul, SubAssign};

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
pub(super) struct Reflector<T> {
    tau: T,
    v: Vec<T>,
}

/// The reflectors `H_0 … H_{n−2}` of one reduction: real when the input
/// was real, complex otherwise.
#[derive(Debug, Clone)]
pub(super) enum Reflectors {
    Real(Vec<Reflector<f64>>),
    Complex(Vec<Reflector<Complex64>>),
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

/// [`larfg`] on real data (LAPACK `dlarfg`), in the complex operation
/// order: `norm_sqr` is `z·z`, and `recip` is `denom/(denom·denom)`.
fn larfg_real(alpha: f64, x: &[f64]) -> (f64, f64, Vec<f64>) {
    let mut v = Vec::with_capacity(x.len() + 1);
    v.push(1.0);
    let xnorm = x.iter().map(|&z| z * z).sum::<f64>().sqrt();
    if xnorm == 0.0 {
        v.resize(x.len() + 1, 0.0);
        return (alpha, 0.0, v);
    }
    let norm_all = (alpha * alpha + xnorm * xnorm).sqrt();
    let beta = if alpha >= 0.0 { -norm_all } else { norm_all };
    let tau = (beta - alpha) / beta;
    let denom = alpha - beta;
    let inv = denom / (denom * denom);
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
    let n = a.nrows();
    let mut identity = vec![0.0; n * n];
    identity.iter_mut().step_by(n + 1).for_each(|x| *x = 1.0);
    let q = reflectors.apply(identity, n, n, true);
    Tridiagonal { d, e, q }
}

/// Runs the reduction on `m`, returning `d`, `e` (bit-identical to
/// [`tridiagonalize`]'s) and the reflectors `H_0 … H_{n−2}`, without `Q`.
/// A real input (every `im == 0.0`, no `−0.0` real part) runs the real
/// twin; see the [module docs](self).
pub(super) fn reduce(m: CMatrix) -> (Vec<f64>, Vec<f64>, Reflectors) {
    assert!(m.is_square(), "tridiagonalize: matrix must be square");
    let real = m
        .as_slice()
        .iter()
        .all(|z| z.im == 0.0 && z.re.to_bits() != (-0.0f64).to_bits());
    if real {
        let n = m.nrows();
        let (d, e, reflectors) = reduce_real(n, into_real_parts(m));
        (d, e, Reflectors::Real(reflectors))
    } else {
        let (d, e, reflectors) = reduce_complex(m);
        (d, e, Reflectors::Complex(reflectors))
    }
}

/// The real parts of `m`, row-major, in `m`'s own buffer: `re` of entry
/// `i` moves to slot `i` of the buffer's `f64` view, which it can only
/// reach after slot `2·i` has been read, and the freed half is handed back.
/// So a real reduction never holds the complex matrix and its real copy
/// at once.
fn into_real_parts(m: CMatrix) -> Vec<f64> {
    let mut data = std::mem::ManuallyDrop::new(m.into_vec());
    let (len, cap) = (data.len(), data.capacity());
    // SAFETY: `Complex64` is `#[repr(C)]` with two `f64` fields, so the
    // allocation of `cap` complex values is one of `2·cap` `f64`s, with the
    // same alignment and byte size; its first `2·len` are initialised, and
    // `data` is never used or dropped again.
    let mut buf = unsafe { Vec::from_raw_parts(data.as_mut_ptr().cast::<f64>(), 2 * len, 2 * cap) };
    for i in 0..len {
        buf[i] = buf[2 * i];
    }
    buf.truncate(len);
    buf.shrink_to_fit();
    buf
}

/// The complex reduction, in place on `m`: the oracle of the real twin.
pub(super) fn reduce_complex(mut m: CMatrix) -> (Vec<f64>, Vec<f64>, Vec<Reflector<Complex64>>) {
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
                kernels::rank2(vi, wi, &w_conj, &v_conj, &mut m.row_mut(sub + i)[sub..]);
            }
        }

        reflectors.push(Reflector { tau, v });
    }

    let d = (0..n).map(|i| m[(i, i)].re).collect();
    (d, e, reflectors)
}

/// The real twin of [`reduce_complex`], in place on the row-major `n × n`
/// buffer `a`: the same operations on the real parts, in the same order.
fn reduce_real(n: usize, mut a: Vec<f64>) -> (Vec<f64>, Vec<f64>, Vec<Reflector<f64>>) {
    let mut e = vec![0.0; n.saturating_sub(1)];
    let mut reflectors = Vec::with_capacity(n.saturating_sub(1));

    for k in 0..n.saturating_sub(1) {
        let alpha = a[(k + 1) * n + k];
        let x: Vec<f64> = (k + 2..n).map(|i| a[i * n + k]).collect();
        let (beta, tau, v) = larfg_real(alpha, &x);
        e[k] = beta;

        if tau != 0.0 {
            let sub = k + 1;
            let p = tau_a_v(&a, n, sub, &v, tau);
            let pv = p.iter().zip(&v).fold(0.0, |acc, (pi, vi)| acc + pi * vi);
            let coeff = (tau * 0.5) * pv;
            let w: Vec<f64> = p.iter().zip(&v).map(|(pi, vi)| pi - coeff * vi).collect();
            for (i, (&vi, &wi)) in v.iter().zip(&w).enumerate() {
                let row = &mut a[(sub + i) * n + sub..(sub + i + 1) * n];
                for ((mij, &wj), &vj) in row.iter_mut().zip(&w).zip(&v) {
                    *mij -= vi * wj + wi * vj;
                }
            }
        }

        reflectors.push(Reflector { tau, v });
    }

    let d = (0..n).map(|i| a[i * n + i]).collect();
    (d, e, reflectors)
}

/// `p = τ·A·v` over the trailing block `A[sub.., sub..]` of the row-major
/// `n × n` buffer `a`. Each `p_i` is its row's dot summed in ascending
/// column order from `+0.0`, then multiplied by `τ` (the complex loop's
/// `dot(row, v) * τ`); four rows share one pass, with four accumulators.
fn tau_a_v(a: &[f64], n: usize, sub: usize, v: &[f64], tau: f64) -> Vec<f64> {
    let mut p = Vec::with_capacity(n - sub);
    let mut quads = a[sub * n..].chunks_exact(4 * n);
    for quad in &mut quads {
        let (r0, r1) = (&quad[sub..n], &quad[n + sub..2 * n]);
        let (r2, r3) = (&quad[2 * n + sub..3 * n], &quad[3 * n + sub..]);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for ((((&x0, &x1), &x2), &x3), &vj) in r0.iter().zip(r1).zip(r2).zip(r3).zip(v) {
            s0 += x0 * vj;
            s1 += x1 * vj;
            s2 += x2 * vj;
            s3 += x3 * vj;
        }
        p.extend([s0 * tau, s1 * tau, s2 * tau, s3 * tau]);
    }
    for row in quads.remainder().chunks_exact(n) {
        let s = row[sub..]
            .iter()
            .zip(v)
            .fold(0.0, |acc, (x, vj)| acc + x * vj);
        p.push(s * tau);
    }
    p
}

impl Reflectors {
    /// `Q·X` for the real, row-major `n × k` block `x`: the
    /// back-transform of eigenvectors of `T` into eigenvectors of `A`
    /// without forming `Q` (`O(n²·k)`), and, with `identity` set on
    /// `x = I`, `Q` itself. Real reflectors run in real arithmetic and
    /// give `+0.0` imaginary parts.
    pub(super) fn apply(&self, mut x: Vec<f64>, n: usize, k: usize, identity: bool) -> CMatrix {
        match self {
            Reflectors::Real(reflectors) => {
                apply_reflectors(reflectors, &mut x, k, identity);
                CMatrix::from_real_fn(n, k, |i, c| x[i * k + c])
            }
            Reflectors::Complex(reflectors) => {
                let mut x: Vec<Complex64> = x.into_iter().map(Complex64::real).collect();
                apply_reflectors(reflectors, &mut x, k, identity);
                CMatrix::from_vec(n, k, x).expect("n·k entries")
            }
        }
    }
}

/// The arithmetic the reflector passes need, for real and complex
/// reflectors alike.
trait Field: Copy + PartialEq + SubAssign + Mul<Output = Self> {
    const ZERO: Self;
    fn conj(self) -> Self;
    fn is_finite(self) -> bool;
    /// `y_i ← y_i + α·x_i`, the [`kernels::axpy`] operand order.
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]);
}

impl Field for f64 {
    const ZERO: Self = 0.0;
    fn conj(self) -> Self {
        self
    }
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * *xi;
        }
    }
}

impl Field for Complex64 {
    const ZERO: Self = C_ZERO;
    fn conj(self) -> Self {
        Complex64::conj(self)
    }
    fn is_finite(self) -> bool {
        Complex64::is_finite(self)
    }
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
        kernels::axpy(alpha, x, y);
    }
}

/// `X ← H_0·H_1⋯H_{n−2}·X` on the row-major `n × k` block `x`, applying
/// the reflectors from the left in reverse order:
/// `X ← H_r·X = X − τ·v·(v†·X)`.
///
/// With `identity` set, `X` starts as the identity and only the columns
/// `r+1..n` are visited for `H_r`: when it is applied, only `H_{r+1} …`
/// have touched `X`, so its columns `≤ r` are still identity columns, zero
/// on rows `r+1..n`, and their `v†·X` entries are exact zeros, which the
/// column-at-a-time loop skips. That holds only while every reflector
/// applied so far is finite: a non-finite `v` turns those zeros into NaNs,
/// so from then on the passes cover every column, exactly as the column
/// loop does.
fn apply_reflectors<T: Field>(reflectors: &[Reflector<T>], x: &mut [T], k: usize, identity: bool) {
    let mut y = vec![T::ZERO; k];
    let mut f = vec![T::ZERO; k];
    let mut all_finite = identity;
    for (r, refl) in reflectors.iter().enumerate().rev() {
        if refl.tau == T::ZERO {
            continue;
        }
        all_finite &= refl.v.iter().all(|z| z.is_finite());
        let sub = r + 1;
        let c0 = if all_finite { sub } else { 0 };
        let (y, f) = (&mut y[c0..], &mut f[c0..]);
        let row = |i: usize| (sub + i) * k + c0..(sub + i + 1) * k;
        // Pass 1: y = v†·X, each entry summed over rows in ascending order.
        y.fill(T::ZERO);
        for (i, vi) in refl.v.iter().enumerate() {
            T::axpy(vi.conj(), &x[row(i)], y);
        }
        // Pass 2: X[row, c] −= (τ·y_c)·v_row, skipping exact-zero y_c.
        for (fc, &yc) in f.iter_mut().zip(y.iter()) {
            *fc = refl.tau * yc;
        }
        for (i, &vi) in refl.v.iter().enumerate() {
            for ((xc, &fc), &yc) in x[row(i)].iter_mut().zip(f.iter()).zip(y.iter()) {
                if yc != T::ZERO {
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

    #[test]
    fn empty_matrix_takes_the_real_path_to_nothing() {
        let (d, e, reflectors) = reduce(CMatrix::zeros(0, 0));
        assert!(d.is_empty() && e.is_empty());
        assert!(matches!(reflectors, Reflectors::Real(ref r) if r.is_empty()));
        let tri = tridiagonalize(&CMatrix::zeros(0, 0));
        assert_eq!((tri.q.nrows(), tri.q.ncols()), (0, 0));
    }
}
