//! The dense-matrix Lanczos embedding stage of ablation A3.

use crate::embedding::{embed_rows, normalize_rows};
use crate::error::Error;
use crate::pipeline::{Embedder, Embedding, StageContext};
use qsc_graph::MixedGraph;
use qsc_linalg::lanczos::lanczos_lowest_k;
use qsc_linalg::CsrMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Dense-matrix Lanczos embedding stage (`O(m·n²)` instead of `O(n³)`) —
/// the "alternative classical algorithm" of the related-work discussion,
/// and ablation A3. Its cost proxy counts the Lanczos iterations, making
/// it the strong classical baseline the quantum speedup is judged against.
///
/// Produces the same embedding as [`DenseEig`](crate::DenseEig) up to
/// eigensolver tolerance; the outcome's `spectrum` only contains the `k`
/// computed eigenvalues. Prefer [`LanczosCsr`](crate::LanczosCsr) for
/// genuinely sparse graphs — this stage exists to measure the dense
/// `O(n²)`-per-matvec variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanczosDense;

impl Embedder for LanczosDense {
    fn name(&self) -> &'static str {
        "lanczos_dense"
    }

    fn embed(
        &self,
        _g: &MixedGraph,
        laplacian: &CsrMatrix,
        ctx: &StageContext,
    ) -> Result<Embedding, Error> {
        let dense = laplacian.to_dense();
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x1a2b_3c4d_5e6f_7788);
        let partial = lanczos_lowest_k(&dense, ctx.k, 1e-8, &mut rng)?;
        let selected: Vec<usize> = (0..ctx.k).collect();
        let mut rows = embed_rows(&partial.eigenvectors, &selected);
        if ctx.normalize_rows {
            normalize_rows(&mut rows);
        }
        Ok(Embedding {
            rows,
            selected_eigenvalues: partial.eigenvalues.clone(),
            spectrum: partial.eigenvalues,
            dims_used: ctx.k,
            lanczos_iterations: Some(partial.iterations),
            reused_seconds: 0.0,
        })
    }

    fn classical_cost(
        &self,
        n: usize,
        k: usize,
        cluster_iterations: usize,
        embedding: &Embedding,
    ) -> f64 {
        // Lanczos cost proxy: m iterations of an n² matvec +
        // reorthogonalization, then the clustering term.
        let n = n as f64;
        let m = embedding.lanczos_iterations.unwrap_or(0) as f64;
        m * n * n * 2.0 + n * (k as f64).powi(2) * cluster_iterations as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use qsc_cluster::metrics::matched_accuracy;
    use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph};

    fn flow_instance(n: usize, k: usize, seed: u64) -> qsc_graph::generators::PlantedGraph {
        dsbm(&DsbmParams {
            n,
            k,
            p_intra: 0.25,
            p_inter: 0.25,
            eta_flow: 1.0,
            meta: MetaGraph::Cycle,
            seed,
            ..DsbmParams::default()
        })
        .unwrap()
    }

    #[test]
    fn lanczos_pipeline_matches_full_pipeline() {
        let inst = flow_instance(100, 3, 32);
        let full = Pipeline::hermitian(3).seed(4).run(&inst.graph).unwrap();
        let fast = Pipeline::hermitian(3)
            .seed(4)
            .embedder(LanczosDense)
            .run(&inst.graph)
            .unwrap();
        let acc_full = matched_accuracy(&inst.labels, &full.labels);
        let acc_fast = matched_accuracy(&inst.labels, &fast.labels);
        assert!(acc_fast > 0.9, "lanczos pipeline accuracy {acc_fast}");
        assert!((acc_full - acc_fast).abs() < 0.1);
        // Eigenvalues agree with the full decomposition.
        for (a, b) in fast
            .selected_eigenvalues
            .iter()
            .zip(&full.selected_eigenvalues)
        {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn lanczos_cost_proxy_below_cubic() {
        let inst = flow_instance(100, 3, 33);
        let full = Pipeline::hermitian(3).seed(1).run(&inst.graph).unwrap();
        let fast = Pipeline::hermitian(3)
            .seed(1)
            .embedder(LanczosDense)
            .run(&inst.graph)
            .unwrap();
        assert!(fast.diagnostics.classical_cost < full.diagnostics.classical_cost);
    }
}
