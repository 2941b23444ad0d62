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
    fn interleave_preserves_distance() {
        let a = [Complex64::new(1.0, 2.0), Complex64::new(-0.5, 0.25)];
        let b = [Complex64::new(0.0, 1.0), Complex64::new(1.5, -0.75)];
        let da: f64 = a.iter().zip(&b).map(|(x, y)| (*x - *y).norm_sqr()).sum();
        let (ra, rb) = (interleave_re_im(&a), interleave_re_im(&b));
        let db: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((da - db).abs() < 1e-12);
    }
}
