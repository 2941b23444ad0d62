//! Output types shared by the classical and quantum pipelines.

use qsc_cluster::registry::MetricContext;
use qsc_graph::MixedGraph;
use serde::{Deserialize, Serialize};

/// Instance measurements and cost-model numbers attached to every run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostics {
    /// Condition number of the projected Laplacian (selected eigenvalues).
    pub kappa: f64,
    /// `μ(B)` of the graph's incidence matrix.
    pub mu_b: f64,
    /// Row-norm spread `η` of the embedding handed to (q-)k-means.
    pub eta_embedding: f64,
    /// Classical flop-count proxy for this instance.
    pub classical_cost: f64,
    /// Quantum query-count proxy (`None` for classical runs).
    pub quantum_cost: Option<f64>,
    /// Iterations used by the winning (q-)k-means restart.
    pub kmeans_iterations: usize,
    /// Number of spectral dimensions actually used (can exceed `k` in the
    /// quantum pipeline when QPE bins collide).
    pub dims_used: usize,
    /// Wall-clock seconds of the run (simulation time, not hardware time).
    pub wall_seconds: f64,
}

/// Result of a spectral-clustering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusteringOutcome {
    /// Cluster label per vertex, in `0..k`.
    pub labels: Vec<usize>,
    /// The real feature rows k-means clustered (dimension `2·dims_used`).
    pub embedding: Vec<Vec<f64>>,
    /// The full spectrum of the normalized Hermitian Laplacian (ascending).
    pub spectrum: Vec<f64>,
    /// Eigenvalues of the selected (projected) subspace.
    pub selected_eigenvalues: Vec<f64>,
    /// Instance measurements and cost-model numbers.
    pub diagnostics: Diagnostics,
}

impl ClusteringOutcome {
    /// The [`MetricContext`] view of this outcome — what the metrics
    /// registry ([`qsc_cluster::registry::MetricKind`]) evaluates over.
    /// Labels, embedding and every diagnostics number are filled in;
    /// `graph` and `truth` come from the caller (the workload knows them,
    /// the outcome does not). Context fields with no source here (e.g.
    /// `edge_disagreement`) stay `None` and can be set on the returned
    /// value.
    pub fn metric_context<'a>(
        &'a self,
        k: usize,
        graph: Option<&'a MixedGraph>,
        truth: Option<&'a [usize]>,
    ) -> MetricContext<'a> {
        MetricContext {
            labels: &self.labels,
            truth,
            graph,
            embedding: Some(&self.embedding),
            k,
            dims_used: Some(self.diagnostics.dims_used as f64),
            wall_seconds: Some(self.diagnostics.wall_seconds),
            classical_cost: Some(self.diagnostics.classical_cost),
            quantum_cost: self.diagnostics.quantum_cost,
            mu_b: Some(self.diagnostics.mu_b),
            kappa: Some(self.diagnostics.kappa),
            eta_embedding: Some(self.diagnostics.eta_embedding),
            edge_disagreement: None,
            clusterability: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_len() {
        let o = ClusteringOutcome {
            labels: vec![0, 1, 0],
            embedding: vec![],
            spectrum: vec![],
            selected_eigenvalues: vec![],
            diagnostics: Diagnostics {
                kappa: 1.0,
                mu_b: 0.0,
                eta_embedding: 1.0,
                classical_cost: 0.0,
                quantum_cost: None,
                kmeans_iterations: 0,
                dims_used: 0,
                wall_seconds: 0.0,
            },
        };
        assert_eq!(o.labels.len(), 3);
    }
}
