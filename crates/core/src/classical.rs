//! Classical embedding stages for the Hermitian spectral pipeline — exact
//! dense eigendecomposition and the sparse Lanczos partial eigensolver.

use crate::embedding::{embed_rows, normalize_rows};
use crate::error::Error;
use crate::pipeline::{Embedder, Embedding, StageContext};
use crate::spectrum_cache::hermitian_spectrum;
use qsc_graph::MixedGraph;
use qsc_linalg::lanczos::lanczos_lowest_k_csr;
use qsc_linalg::{CMatrix, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact dense eigensolve — the reference embedding stage: the Laplacian is
/// densified, all its eigenvalues are computed (the `O(n³)` Householder
/// reduction, once per distinct Laplacian when the context carries a
/// [`SpectrumCache`](crate::SpectrumCache)), only the `k` lowest
/// eigenvectors are built ([`qsc_linalg::eigh_spectrum`], `O(n²)` each),
/// and every vertex is embedded as its row in them (`C^k → R^{2k}`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseEig;

impl Embedder for DenseEig {
    fn name(&self) -> &'static str {
        "dense_eig"
    }

    fn embed(
        &self,
        _g: &MixedGraph,
        laplacian: &CsrMatrix,
        ctx: &StageContext,
    ) -> Result<Embedding, Error> {
        let (eig, reused_seconds) = hermitian_spectrum(laplacian, ctx.spectrum_cache.as_deref())?;
        Ok(Embedding {
            reused_seconds,
            ..finish_classical(eig.lowest_k(ctx.k), eig.eigenvalues, ctx)?
        })
    }
}

/// Lanczos on the CSR Laplacian: only the `k` lowest eigenpairs are
/// computed, with `O(nnz)` matvecs — the fast path for large sparse
/// graphs. The outcome's `spectrum` then holds only the computed
/// eigenvalues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanczosCsr;

impl Embedder for LanczosCsr {
    fn name(&self) -> &'static str {
        "lanczos_csr"
    }

    fn embed(
        &self,
        _g: &MixedGraph,
        laplacian: &CsrMatrix,
        ctx: &StageContext,
    ) -> Result<Embedding, Error> {
        // Separate stream from the k-means seed, like the quantum path.
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x2d99_787a_66dd_12b3);
        let partial = lanczos_lowest_k_csr(laplacian, ctx.k, 1e-8, &mut rng)?;
        finish_classical(partial.eigenvectors, partial.eigenvalues, ctx)
    }
}

/// Shared tail of the classical embedding stages: select the `k` lowest
/// eigenvectors, realize rows in `R^{2k}`, optionally row-normalize.
fn finish_classical(
    eigenvectors: CMatrix,
    spectrum: Vec<f64>,
    ctx: &StageContext,
) -> Result<Embedding, Error> {
    let selected: Vec<usize> = (0..ctx.k).collect();
    let mut rows = embed_rows(&eigenvectors, &selected);
    if ctx.normalize_rows {
        normalize_rows(&mut rows);
    }
    let selected_eigenvalues: Vec<f64> = spectrum[..ctx.k].to_vec();
    Ok(Embedding {
        rows,
        spectrum,
        selected_eigenvalues,
        dims_used: ctx.k,
        lanczos_iterations: None,
        reused_seconds: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use qsc_cluster::metrics::matched_accuracy;
    use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph};

    #[test]
    fn separates_density_clusters() {
        // Classic case: dense blocks, sparse in between — even without
        // direction signal.
        let inst = dsbm(&DsbmParams {
            n: 90,
            k: 3,
            p_intra: 0.5,
            p_inter: 0.05,
            eta_flow: 0.5,
            seed: 11,
            ..DsbmParams::default()
        })
        .unwrap();
        let out = Pipeline::hermitian(3).seed(4).run(&inst.graph).unwrap();
        let acc = matched_accuracy(&inst.labels, &out.labels);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn separates_flow_defined_clusters() {
        // The headline scenario: identical densities, clusters visible only
        // through arc orientation.
        let inst = dsbm(&DsbmParams {
            n: 120,
            k: 3,
            p_intra: 0.25,
            p_inter: 0.25,
            eta_flow: 1.0,
            meta: MetaGraph::Cycle,
            seed: 12,
            ..DsbmParams::default()
        })
        .unwrap();
        let out = Pipeline::hermitian(3).seed(4).run(&inst.graph).unwrap();
        let acc = matched_accuracy(&inst.labels, &out.labels);
        assert!(acc > 0.9, "flow clusters should be found, accuracy {acc}");
    }

    #[test]
    fn q_zero_fails_on_flow_only_clusters() {
        // The same instance with q = 0 (direction-blind) must do much worse:
        // this is the paper's central claim in miniature.
        let inst = dsbm(&DsbmParams {
            n: 120,
            k: 3,
            p_intra: 0.25,
            p_inter: 0.25,
            eta_flow: 1.0,
            meta: MetaGraph::Cycle,
            seed: 12,
            ..DsbmParams::default()
        })
        .unwrap();
        let blind = Pipeline::hermitian(3)
            .q(0.0)
            .seed(4)
            .run(&inst.graph)
            .unwrap();
        let acc = matched_accuracy(&inst.labels, &blind.labels);
        assert!(acc < 0.75, "direction-blind should struggle, got {acc}");
    }

    #[test]
    fn lanczos_csr_path_matches_dense_labels() {
        // Flow-defined clusters, solved once per eigensolver: the sparse
        // Lanczos path must reproduce the dense embedding's clustering.
        let inst = dsbm(&DsbmParams {
            n: 90,
            k: 3,
            p_intra: 0.25,
            p_inter: 0.25,
            eta_flow: 1.0,
            meta: MetaGraph::Cycle,
            seed: 21,
            ..DsbmParams::default()
        })
        .unwrap();
        let dense = Pipeline::hermitian(3).seed(4).run(&inst.graph).unwrap();
        let sparse = Pipeline::hermitian(3)
            .seed(4)
            .embedder(LanczosCsr)
            .run(&inst.graph)
            .unwrap();
        assert_eq!(sparse.spectrum.len(), 3, "partial spectrum only");
        for (a, b) in sparse
            .selected_eigenvalues
            .iter()
            .zip(&dense.selected_eigenvalues)
        {
            assert!((a - b).abs() < 1e-6, "eigenvalue mismatch: {a} vs {b}");
        }
        let agreement = matched_accuracy(&dense.labels, &sparse.labels);
        assert!(agreement > 0.95, "solver paths disagree: {agreement}");
        let acc = matched_accuracy(&inst.labels, &sparse.labels);
        assert!(acc > 0.9, "sparse path accuracy {acc}");
    }

    #[test]
    fn diagnostics_populated() {
        let inst = dsbm(&DsbmParams {
            n: 40,
            seed: 3,
            ..DsbmParams::default()
        })
        .unwrap();
        let out = Pipeline::hermitian(3).run(&inst.graph).unwrap();
        assert!(out.diagnostics.classical_cost > 0.0);
        assert!(out.diagnostics.quantum_cost.is_none());
        assert!(out.diagnostics.mu_b > 0.0);
        assert_eq!(out.spectrum.len(), 40);
        assert_eq!(out.selected_eigenvalues.len(), 3);
        assert_eq!(out.embedding[0].len(), 6); // 3 complex dims → 6 real
    }

    #[test]
    fn rejects_bad_requests() {
        let g = MixedGraph::new(3);
        assert!(Pipeline::hermitian(0).run(&g).is_err());
        assert!(Pipeline::hermitian(5).run(&g).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = dsbm(&DsbmParams {
            n: 50,
            seed: 8,
            ..DsbmParams::default()
        })
        .unwrap();
        let a = Pipeline::hermitian(3).seed(21).run(&inst.graph).unwrap();
        let b = Pipeline::hermitian(3).seed(21).run(&inst.graph).unwrap();
        assert_eq!(a.labels, b.labels);
    }
}
