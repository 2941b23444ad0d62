//! Hermitian matrix representations of a mixed graph: adjacency, degree,
//! Laplacian, normalized Laplacian and the complex incidence matrix.
//!
//! The rotation parameter `q` controls how arc direction is encoded as a
//! complex phase: an arc `u → v` contributes `w·e^{+i·2πq}` at `(u, v)` and
//! the conjugate at `(v, u)`. `q = 1/4` is the classical Guo–Mohar choice
//! (`±i`); `q = 0` collapses the encoding to the symmetrized graph, which is
//! exactly the direction-blind baseline — the ablation over `q` in the
//! evaluation interpolates between the two.

use crate::mixed::MixedGraph;
use qsc_linalg::{CMatrix, Complex64, CsrMatrix};
use std::f64::consts::TAU;

/// The classical rotation parameter: arcs become `±i`.
pub const Q_CLASSICAL: f64 = 0.25;

/// Builds the Hermitian adjacency matrix `H(q)` of a mixed graph.
///
/// # Examples
///
/// ```
/// use qsc_graph::{hermitian_adjacency, MixedGraph, Q_CLASSICAL};
///
/// # fn main() -> Result<(), qsc_graph::GraphError> {
/// let mut g = MixedGraph::new(2);
/// g.add_arc(0, 1, 1.0)?;
/// let h = hermitian_adjacency(&g, Q_CLASSICAL);
/// assert!((h[(0, 1)].im - 1.0).abs() < 1e-12); // +i
/// assert!((h[(1, 0)].im + 1.0).abs() < 1e-12); // −i
/// assert!(h.is_hermitian(1e-12));
/// # Ok(())
/// # }
/// ```
pub fn hermitian_adjacency(g: &MixedGraph, q: f64) -> CMatrix {
    let n = g.num_vertices();
    let mut h = CMatrix::zeros(n, n);
    for e in g.edges() {
        h[(e.u, e.v)] += Complex64::real(e.weight);
        h[(e.v, e.u)] += Complex64::real(e.weight);
    }
    let phase = Complex64::cis(TAU * q);
    for a in g.arcs() {
        h[(a.from, a.to)] += phase.scale(a.weight);
        h[(a.to, a.from)] += phase.conj().scale(a.weight);
    }
    h
}

/// Off-diagonal triplets of the Hermitian adjacency matrix `H(q)`, built in
/// `O(m)` straight from the connection lists (no dense detour).
fn adjacency_triplets(g: &MixedGraph, q: f64) -> Vec<(usize, usize, Complex64)> {
    let mut t = Vec::with_capacity(2 * g.num_connections());
    for e in g.edges() {
        t.push((e.u, e.v, Complex64::real(e.weight)));
        t.push((e.v, e.u, Complex64::real(e.weight)));
    }
    let phase = Complex64::cis(TAU * q);
    for a in g.arcs() {
        t.push((a.from, a.to, phase.scale(a.weight)));
        t.push((a.to, a.from, phase.conj().scale(a.weight)));
    }
    t
}

/// Sparse (CSR) Hermitian adjacency matrix `H(q)` — same entries as
/// [`hermitian_adjacency`], built in `O(m log m)` without materializing the
/// `n×n` dense matrix.
pub fn hermitian_adjacency_csr(g: &MixedGraph, q: f64) -> CsrMatrix {
    let n = g.num_vertices();
    CsrMatrix::from_triplets(n, n, &adjacency_triplets(g, q), 0.0)
        .expect("adjacency triplets are in range by construction")
}

/// Sparse (CSR) unnormalized Hermitian Laplacian `L = D − H(q)`.
pub fn hermitian_laplacian_csr(g: &MixedGraph, q: f64) -> CsrMatrix {
    let n = g.num_vertices();
    let mut t: Vec<(usize, usize, Complex64)> = adjacency_triplets(g, q)
        .into_iter()
        .map(|(i, j, v)| (i, j, -v))
        .collect();
    for (i, &d) in g.degrees().iter().enumerate() {
        if d != 0.0 {
            t.push((i, i, Complex64::real(d)));
        }
    }
    CsrMatrix::from_triplets(n, n, &t, 0.0)
        .expect("laplacian triplets are in range by construction")
}

/// Sparse (CSR) normalized Hermitian Laplacian
/// `𝓛 = I − D^{-1/2}·H(q)·D^{-1/2}` — same entries (and conventions for
/// isolated vertices) as [`normalized_hermitian_laplacian`], with `O(m)`
/// construction cost. This is what the spectral pipeline feeds to the
/// sparse Lanczos eigensolver.
pub fn normalized_hermitian_laplacian_csr(g: &MixedGraph, q: f64) -> CsrMatrix {
    let n = g.num_vertices();
    let d = g.degrees();
    let inv_sqrt: Vec<f64> = d
        .iter()
        .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
        .collect();
    let mut t: Vec<(usize, usize, Complex64)> = adjacency_triplets(g, q)
        .into_iter()
        .map(|(i, j, v)| (i, j, -v.scale(inv_sqrt[i] * inv_sqrt[j])))
        .collect();
    for i in 0..n {
        t.push((i, i, Complex64::real(1.0)));
    }
    CsrMatrix::from_triplets(n, n, &t, 0.0)
        .expect("laplacian triplets are in range by construction")
}

/// Diagonal degree matrix `D` with `d_v = Σ_u |H_vu|` (weighted total
/// degree, independent of `q`).
pub fn degree_matrix(g: &MixedGraph) -> CMatrix {
    CMatrix::from_diag(
        &g.degrees()
            .iter()
            .map(|&d| Complex64::real(d))
            .collect::<Vec<_>>(),
    )
}

/// Unnormalized Hermitian Laplacian `L = D − H(q)`.
pub fn hermitian_laplacian(g: &MixedGraph, q: f64) -> CMatrix {
    let h = hermitian_adjacency(g, q);
    let d = g.degrees();
    CMatrix::from_fn(g.num_vertices(), g.num_vertices(), |i, j| {
        if i == j {
            Complex64::real(d[i]) - h[(i, j)]
        } else {
            -h[(i, j)]
        }
    })
}

/// Normalized Hermitian Laplacian `𝓛 = I − D^{-1/2}·H(q)·D^{-1/2}`.
///
/// Isolated vertices get `𝓛_vv = 1` and zero off-diagonals. The spectrum of
/// `𝓛` lies in `[0, 2]`, which is what lets the quantum pipeline rescale it
/// into a phase for QPE without inspecting the instance.
pub fn normalized_hermitian_laplacian(g: &MixedGraph, q: f64) -> CMatrix {
    let n = g.num_vertices();
    let h = hermitian_adjacency(g, q);
    let d = g.degrees();
    let inv_sqrt: Vec<f64> = d
        .iter()
        .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
        .collect();
    CMatrix::from_fn(n, n, |i, j| {
        let norm_h = h[(i, j)].scale(inv_sqrt[i] * inv_sqrt[j]);
        if i == j {
            Complex64::real(1.0) - norm_h
        } else {
            -norm_h
        }
    })
}

/// Complex incidence matrix `B ∈ C^{n×m}` of the mixed graph, one column
/// per connection, satisfying `L = B·B†` exactly.
///
/// * Undirected `{u, v}` with weight `w`: column has `+√w` at `u`, `−√w` at
///   `v`.
/// * Directed `u → v` with weight `w`: column has `√w·e^{+iπq}` at `u` and
///   `−√w·e^{−iπq}` at `v`, so that the `(u, v)` entry of `B·B†` is
///   `−w·e^{+i2πq} = −H_uv`.
pub fn incidence_matrix(g: &MixedGraph, q: f64) -> CMatrix {
    let n = g.num_vertices();
    let m = g.num_connections();
    let mut b = CMatrix::zeros(n, m);
    let half_phase = Complex64::cis(std::f64::consts::PI * q);
    let mut col = 0;
    for e in g.edges() {
        let s = e.weight.sqrt();
        b[(e.u, col)] = Complex64::real(s);
        b[(e.v, col)] = Complex64::real(-s);
        col += 1;
    }
    for a in g.arcs() {
        let s = a.weight.sqrt();
        b[(a.from, col)] = half_phase.scale(s);
        b[(a.to, col)] = -half_phase.conj().scale(s);
        col += 1;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_linalg::eigvalsh;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mixed(n: usize, seed: u64) -> MixedGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = MixedGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                let roll: f64 = rng.gen();
                if roll < 0.25 {
                    g.add_edge(u, v, rng.gen_range(0.5..2.0)).unwrap();
                } else if roll < 0.5 {
                    if rng.gen::<bool>() {
                        g.add_arc(u, v, rng.gen_range(0.5..2.0)).unwrap();
                    } else {
                        g.add_arc(v, u, rng.gen_range(0.5..2.0)).unwrap();
                    }
                }
            }
        }
        g
    }

    #[test]
    fn adjacency_is_hermitian_for_any_q() {
        let g = random_mixed(12, 1);
        for &q in &[0.0, 0.125, 0.25, 1.0 / 3.0, 0.5] {
            assert!(hermitian_adjacency(&g, q).is_hermitian(1e-12), "q = {q}");
        }
    }

    #[test]
    fn q_zero_equals_symmetrized_adjacency() {
        let g = random_mixed(10, 2);
        let h0 = hermitian_adjacency(&g, 0.0);
        let hs = hermitian_adjacency(&g.symmetrized(), 0.25);
        assert!((&h0 - &hs).max_norm() < 1e-12);
    }

    #[test]
    fn laplacian_is_psd() {
        let g = random_mixed(10, 3);
        let l = hermitian_laplacian(&g, 0.25);
        assert!(l.is_hermitian(1e-12));
        let evals = eigvalsh(&l).unwrap();
        assert!(evals[0] > -1e-9, "smallest eigenvalue {}", evals[0]);
    }

    #[test]
    fn normalized_laplacian_spectrum_in_zero_two() {
        let g = random_mixed(14, 4);
        let l = normalized_hermitian_laplacian(&g, 0.25);
        let evals = eigvalsh(&l).unwrap();
        assert!(evals[0] > -1e-9);
        assert!(*evals.last().unwrap() < 2.0 + 1e-9);
    }

    #[test]
    fn undirected_laplacian_has_zero_eigenvalue() {
        // A purely undirected connected graph: λ_min(𝓛) = 0 exactly.
        let mut g = MixedGraph::new(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let l = normalized_hermitian_laplacian(&g, 0.25);
        let evals = eigvalsh(&l).unwrap();
        assert!(evals[0].abs() < 1e-9);
    }

    #[test]
    fn directed_cycle_breaks_zero_eigenvalue() {
        // With q = 1/4, a directed 3-cycle has strictly positive λ_min:
        // the phase frustration is the direction signal.
        let mut g = MixedGraph::new(3);
        g.add_arc(0, 1, 1.0).unwrap();
        g.add_arc(1, 2, 1.0).unwrap();
        g.add_arc(2, 0, 1.0).unwrap();
        let l = normalized_hermitian_laplacian(&g, 0.25);
        let evals = eigvalsh(&l).unwrap();
        assert!(
            evals[0] > 0.1,
            "expected frustration, got λ_min = {}",
            evals[0]
        );
    }

    #[test]
    fn incidence_factorizes_laplacian() {
        let g = random_mixed(9, 5);
        for &q in &[0.0, 0.25, 0.4] {
            let b = incidence_matrix(&g, q);
            let l = hermitian_laplacian(&g, q);
            let bbt = b.matmul(&b.adjoint());
            assert!(
                (&bbt - &l).max_norm() < 1e-10,
                "B·B† ≠ L for q = {q}: err = {}",
                (&bbt - &l).max_norm()
            );
        }
    }

    #[test]
    fn degree_matrix_matches_row_sums_of_abs() {
        let g = random_mixed(8, 6);
        let h = hermitian_adjacency(&g, 0.25);
        let d = degree_matrix(&g);
        for i in 0..8 {
            let row_abs: f64 = h.row(i).iter().map(|z| z.abs()).sum();
            assert!((d[(i, i)].re - row_abs).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_builders_match_dense() {
        let g = random_mixed(14, 9);
        for &q in &[0.0, 0.25, 0.4] {
            let pairs = [
                (hermitian_adjacency(&g, q), hermitian_adjacency_csr(&g, q)),
                (hermitian_laplacian(&g, q), hermitian_laplacian_csr(&g, q)),
                (
                    normalized_hermitian_laplacian(&g, q),
                    normalized_hermitian_laplacian_csr(&g, q),
                ),
            ];
            for (dense, sparse) in pairs {
                assert!(
                    (&sparse.to_dense() - &dense).max_norm() < 1e-12,
                    "CSR builder deviates at q = {q}"
                );
            }
        }
    }

    #[test]
    fn csr_laplacian_is_hermitian_and_sparse() {
        let g = random_mixed(20, 10);
        let l = normalized_hermitian_laplacian_csr(&g, 0.25);
        assert!(l.is_hermitian());
        assert!(l.nnz() <= 20 + 4 * g.num_connections());
        assert!(l.density() < 1.0);
    }

    #[test]
    fn csr_isolated_vertex_convention() {
        let mut g = MixedGraph::new(3);
        g.add_edge(0, 1, 1.0).unwrap(); // vertex 2 isolated
        let l = normalized_hermitian_laplacian_csr(&g, 0.25);
        assert!((l.get(2, 2) - Complex64::real(1.0)).abs() < 1e-12);
        assert!(l.get(2, 0).abs() < 1e-12 && l.get(2, 1).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertex_convention() {
        let mut g = MixedGraph::new(3);
        g.add_edge(0, 1, 1.0).unwrap(); // vertex 2 isolated
        let l = normalized_hermitian_laplacian(&g, 0.25);
        assert!((l[(2, 2)] - Complex64::real(1.0)).abs() < 1e-12);
        assert!(l[(2, 0)].abs() < 1e-12 && l[(2, 1)].abs() < 1e-12);
    }
}
