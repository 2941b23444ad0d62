//! Comparison baselines.
//!
//! * The direction-blind classical method — arcs become undirected edges,
//!   then ordinary (real) normalized spectral clustering — is
//!   [`Pipeline::symmetrized`](crate::Pipeline::symmetrized) (or the
//!   [`symmetrize`](crate::Pipeline::symmetrize) builder flag), equivalent
//!   to running the Hermitian pipeline at `q = 0`: literally "what a user
//!   without Hermitian machinery would run".
//! * [`adjacency_kmeans`] — the naive baseline: k-means directly on the
//!   rows of the Hermitian adjacency (no spectral step).

use crate::config::ClusteringConfig;
use crate::error::Error;
use qsc_cluster::{kmeans, KMeansConfig};
use qsc_graph::{hermitian_adjacency, MixedGraph};
use qsc_linalg::vector::interleave_re_im;

/// Naive baseline: k-means on the raw rows of the Hermitian adjacency
/// matrix at rotation `q` (each row realized in `R^{2n}`). No spectral
/// dimensionality reduction — this is what the spectral step is supposed
/// to beat, the baseline the integration suite holds [`Pipeline`](crate::Pipeline)
/// against.
///
/// # Errors
///
/// Returns [`Error`] for inconsistent requests or k-means failures.
pub fn adjacency_kmeans(
    g: &MixedGraph,
    k: usize,
    q: f64,
    clustering: &ClusteringConfig,
    seed: u64,
) -> Result<Vec<usize>, Error> {
    crate::pipeline::validate_request(g, k)?;
    let h = hermitian_adjacency(g, q);
    let rows: Vec<Vec<f64>> = (0..h.nrows()).map(|i| interleave_re_im(h.row(i))).collect();
    let km = kmeans(
        &rows,
        &KMeansConfig {
            k,
            max_iter: clustering.max_iter,
            tol: clustering.tol,
            restarts: clustering.restarts,
            seed,
        },
    )?;
    Ok(km.labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use qsc_cluster::metrics::matched_accuracy;
    use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph};

    #[test]
    fn symmetrized_equals_q_zero() {
        let inst = dsbm(&DsbmParams {
            n: 60,
            k: 3,
            eta_flow: 1.0,
            seed: 4,
            ..DsbmParams::default()
        })
        .unwrap();
        let sym = Pipeline::symmetrized(3).seed(7).run(&inst.graph).unwrap();
        let q0 = Pipeline::hermitian(3)
            .q(0.0)
            .seed(7)
            .run(&inst.graph)
            .unwrap();
        // Identical spectra: the symmetrized Laplacian *is* the q=0
        // Hermitian Laplacian.
        for (a, b) in sym.spectrum.iter().zip(&q0.spectrum) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(sym.labels, q0.labels);
    }

    #[test]
    fn hermitian_beats_symmetrized_on_flow_clusters() {
        // The paper's Table II shape in miniature.
        let inst = dsbm(&DsbmParams {
            n: 120,
            k: 3,
            p_intra: 0.25,
            p_inter: 0.25,
            eta_flow: 1.0,
            meta: MetaGraph::Cycle,
            seed: 10,
            ..DsbmParams::default()
        })
        .unwrap();
        let herm = Pipeline::hermitian(3).seed(3).run(&inst.graph).unwrap();
        let sym = Pipeline::symmetrized(3).seed(3).run(&inst.graph).unwrap();
        let acc_h = matched_accuracy(&inst.labels, &herm.labels);
        let acc_s = matched_accuracy(&inst.labels, &sym.labels);
        assert!(
            acc_h > acc_s + 0.2,
            "hermitian {acc_h} should beat symmetrized {acc_s}"
        );
    }

    #[test]
    fn adjacency_kmeans_runs() {
        let inst = dsbm(&DsbmParams {
            n: 40,
            seed: 5,
            ..DsbmParams::default()
        })
        .unwrap();
        let labels = adjacency_kmeans(
            &inst.graph,
            3,
            qsc_graph::Q_CLASSICAL,
            &Default::default(),
            0,
        )
        .unwrap();
        assert_eq!(labels.len(), 40);
        assert!(labels.iter().all(|&l| l < 3));
    }
}
