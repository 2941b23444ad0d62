//! Spectral embeddings: from eigenvectors of the Hermitian Laplacian to the
//! real feature rows k-means consumes.

use qsc_linalg::vector::interleave_re_im;
use qsc_linalg::CMatrix;

/// Extracts the spectral embedding from selected eigenvector columns: row
/// `i` of the result is the complex vector `(u_{j1}[i], …, u_{jm}[i])`
/// realized in `R^{2m}` by interleaving real and imaginary parts (an
/// isometry, so k-means distances are exactly the complex distances).
///
/// # Panics
///
/// Panics if any selected column index is out of range.
pub fn embed_rows(eigenvectors: &CMatrix, selected: &[usize]) -> Vec<Vec<f64>> {
    let sub = eigenvectors.select_columns(selected);
    (0..sub.nrows())
        .map(|i| interleave_re_im(sub.row(i)))
        .collect()
}

/// Row-normalizes an embedding in place (Ng–Jordan–Weiss): each non-zero
/// row is scaled to unit ℓ2 norm. Zero rows are left untouched.
pub fn normalize_rows(embedding: &mut [Vec<f64>]) {
    for row in embedding.iter_mut() {
        let norm: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
}

/// The `η` data parameter of an embedding: max over min squared non-zero
/// row norm (1.0 if fewer than two non-zero rows).
pub fn eta_of_embedding(embedding: &[Vec<f64>]) -> f64 {
    let mut max_sq: f64 = 0.0;
    let mut min_sq = f64::INFINITY;
    for row in embedding {
        let sq: f64 = row.iter().map(|x| x * x).sum();
        if sq > 0.0 {
            max_sq = max_sq.max(sq);
            min_sq = min_sq.min(sq);
        }
    }
    if min_sq.is_finite() && min_sq > 0.0 {
        max_sq / min_sq
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_linalg::Complex64;

    #[test]
    fn embedding_dimensions() {
        let v = CMatrix::from_fn(4, 4, |i, j| Complex64::new(i as f64, j as f64));
        let emb = embed_rows(&v, &[0, 2]);
        assert_eq!(emb.len(), 4);
        assert_eq!(emb[0].len(), 4); // 2 complex → 4 real
                                     // Row 1, column 2 → re=1, im=2 at positions 2,3.
        assert_eq!(emb[1][2], 1.0);
        assert_eq!(emb[1][3], 2.0);
    }

    #[test]
    fn normalization_makes_unit_rows() {
        let mut emb = vec![vec![3.0, 4.0], vec![0.0, 0.0], vec![1.0, 0.0]];
        normalize_rows(&mut emb);
        assert!((emb[0][0] - 0.6).abs() < 1e-12);
        assert_eq!(emb[1], vec![0.0, 0.0]); // zero row untouched
        assert_eq!(emb[2], vec![1.0, 0.0]);
    }

    #[test]
    fn eta_measures_spread() {
        let emb = vec![vec![1.0, 0.0], vec![2.0, 0.0]];
        assert!((eta_of_embedding(&emb) - 4.0).abs() < 1e-12);
        let uniform = vec![vec![1.0], vec![1.0]];
        assert!((eta_of_embedding(&uniform) - 1.0).abs() < 1e-12);
        assert_eq!(eta_of_embedding(&[]), 1.0);
    }
}
