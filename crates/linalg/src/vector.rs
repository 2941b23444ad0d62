//! Free functions on complex and real vectors (slices).
//!
//! These are deliberately slice-based rather than wrapped in a newtype: the
//! state-vector simulator, the eigensolvers and the clustering code all own
//! their buffers and only need the operations.

use crate::complex::Complex64;
use crate::kernels;

/// Hermitian inner product `⟨a, b⟩ = Σ conj(a_i)·b_i`.
///
/// Conjugate-linear in the first argument, matching physics convention, so
/// `cdot(x, x)` is real and non-negative.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use qsc_linalg::{vector::cdot, Complex64, C_I, C_ONE};
/// let x = [C_ONE, C_I];
/// assert_eq!(cdot(&x, &x), Complex64::real(2.0));
/// ```
pub fn cdot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "cdot: length mismatch");
    kernels::cdot(a, b)
}

/// Euclidean (ℓ2) norm of a complex vector.
pub fn norm2(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// Euclidean (ℓ2) norm of a real vector.
pub fn rnorm2(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// ℓ1 norm of a complex vector.
pub fn norm1(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.abs()).sum()
}

/// ℓ∞ norm (largest modulus) of a complex vector.
pub fn norm_inf(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.abs()).fold(0.0, f64::max)
}

/// Normalizes `a` in place to unit ℓ2 norm and returns the original norm.
///
/// A zero vector is left unchanged and `0.0` is returned.
pub fn normalize(a: &mut [Complex64]) -> f64 {
    let n = norm2(a);
    if n > 0.0 {
        let inv = 1.0 / n;
        for z in a.iter_mut() {
            *z *= inv;
        }
    }
    n
}

/// `y ← y + α·x` (complex axpy).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    kernels::axpy(alpha, x, y);
}

/// Scales every element of `a` by the complex factor `alpha`.
pub fn scale(alpha: Complex64, a: &mut [Complex64]) {
    kernels::scale(alpha, a);
}

/// Squared Euclidean distance between two complex vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dist_sqr(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist_sqr: length mismatch");
    a.iter().zip(b).map(|(x, y)| (*x - *y).norm_sqr()).sum()
}

/// Squared Euclidean distance between two real vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rdist_sqr(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rdist_sqr: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Projects out the component of `v` along unit vector `u`:
/// `v ← v − ⟨u,v⟩·u`. Used by Gram–Schmidt orthogonalization.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn project_out(u: &[Complex64], v: &mut [Complex64]) {
    let c = cdot(u, v);
    axpy(-c, u, v);
}

/// Converts a real slice into a complex vector with zero imaginary parts.
pub fn to_complex(a: &[f64]) -> Vec<Complex64> {
    a.iter().map(|&x| Complex64::real(x)).collect()
}

/// Extracts the real parts of a complex vector.
pub fn to_real(a: &[Complex64]) -> Vec<f64> {
    a.iter().map(|z| z.re).collect()
}

/// Interleaves the real and imaginary parts of a complex vector into a real
/// vector of twice the length: `[re₀, im₀, re₁, im₁, …]`.
///
/// This is the canonical `C^k → R^{2k}` embedding used when handing complex
/// spectral coordinates to a real-space clustering algorithm; it is an
/// isometry, so Euclidean distances are preserved.
pub fn interleave_re_im(a: &[Complex64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 * a.len());
    for z in a {
        out.push(z.re);
        out.push(z.im);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C_I, C_ONE, C_ZERO};

    #[test]
    fn cdot_is_conjugate_linear_in_first_argument() {
        let x = [C_I];
        let y = [C_ONE];
        // ⟨i, 1⟩ = conj(i)·1 = −i
        assert_eq!(cdot(&x, &y), -C_I);
        // ⟨1, i⟩ = i
        assert_eq!(cdot(&y, &x), C_I);
    }

    #[test]
    fn norms_agree_on_reals() {
        let a = [Complex64::real(3.0), Complex64::real(4.0)];
        assert!((norm2(&a) - 5.0).abs() < 1e-12);
        assert!((norm1(&a) - 7.0).abs() < 1e-12);
        assert!((norm_inf(&a) - 4.0).abs() < 1e-12);
        assert!((rnorm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut a = vec![Complex64::new(1.0, 1.0), Complex64::new(-2.0, 0.5)];
        let orig = normalize(&mut a);
        assert!(orig > 0.0);
        assert!((norm2(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut a = vec![C_ZERO, C_ZERO];
        assert_eq!(normalize(&mut a), 0.0);
        assert_eq!(a, vec![C_ZERO, C_ZERO]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [C_ONE, C_I];
        let mut y = [C_ZERO, C_ONE];
        axpy(Complex64::real(2.0), &x, &mut y);
        assert_eq!(y[0], Complex64::real(2.0));
        assert_eq!(y[1], Complex64::new(1.0, 2.0));
    }

    #[test]
    fn project_out_orthogonalizes() {
        let u = [C_ONE, C_ZERO];
        let mut v = [Complex64::new(3.0, 1.0), Complex64::new(0.0, 2.0)];
        project_out(&u, &mut v);
        assert!(cdot(&u, &v).abs() < 1e-12);
    }

    #[test]
    fn interleave_preserves_distance() {
        let a = [Complex64::new(1.0, 2.0), Complex64::new(-0.5, 0.25)];
        let b = [Complex64::new(0.0, 1.0), Complex64::new(1.5, -0.75)];
        let da = dist_sqr(&a, &b);
        let db = rdist_sqr(&interleave_re_im(&a), &interleave_re_im(&b));
        assert!((da - db).abs() < 1e-12);
    }

    #[test]
    fn round_trips_real_complex() {
        let r = vec![1.0, -2.0, 0.5];
        assert_eq!(to_real(&to_complex(&r)), r);
    }
}
