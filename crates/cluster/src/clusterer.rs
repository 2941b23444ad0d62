//! The pluggable clustering stage: a [`Clusterer`] turns an embedding into
//! labels under a shared base configuration.
//!
//! This is the final-stage counterpart of `qsc_core`'s `Embedder` trait:
//! the spectral pipeline hands every implementation the same real feature
//! rows and [`KMeansConfig`], so clusterers can be swapped (or swept, e.g.
//! over the q-means noise magnitude `δ`) without recomputing the embedding.

use crate::error::ClusterError;
use crate::kmeans::{kmeans, KMeansConfig, KMeansResult};
use qsc_sim::backend::Backend;

/// A clustering algorithm usable as the final stage of a spectral pipeline.
pub trait Clusterer: Send + Sync {
    /// Stage name used in reports and displays.
    fn name(&self) -> &'static str;

    /// Clusters `data` (one feature row per point) under `base`. A quantum
    /// stage draws its measurement statistics (finite-shot distance
    /// estimation, readout bias) through the execution `backend`; a
    /// classical stage ignores it.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] for inconsistent configurations, degenerate
    /// data or a failing backend.
    fn cluster(
        &self,
        data: &[Vec<f64>],
        base: &KMeansConfig,
        backend: &dyn Backend,
    ) -> Result<KMeansResult, ClusterError>;
}

/// Classical Lloyd's k-means with k-means++ seeding and restarts — the
/// exact-arithmetic clustering stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KMeans;

impl Clusterer for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn cluster(
        &self,
        data: &[Vec<f64>],
        base: &KMeansConfig,
        _backend: &dyn Backend,
    ) -> Result<KMeansResult, ClusterError> {
        kmeans(data, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QMeans;
    use qsc_sim::backend::{ShotSampler, Statevector};

    fn blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![9.0, 9.0],
            vec![9.1, 9.0],
            vec![9.0, 9.1],
        ]
    }

    #[test]
    fn kmeans_stage_matches_free_function() {
        let cfg = KMeansConfig {
            k: 2,
            seed: 3,
            ..KMeansConfig::default()
        };
        let direct = kmeans(&blobs(), &cfg).unwrap();
        // The classical stage ignores the backend, shot-based or not.
        for via_trait in [
            KMeans.cluster(&blobs(), &cfg, &Statevector::new()).unwrap(),
            KMeans
                .cluster(&blobs(), &cfg, &ShotSampler::new(16))
                .unwrap(),
        ] {
            assert_eq!(via_trait, direct);
        }
    }

    #[test]
    fn stages_are_object_safe() {
        let stages: Vec<Box<dyn Clusterer>> = vec![Box::new(KMeans), Box::new(QMeans::new(0.1))];
        for s in &stages {
            assert!(!s.name().is_empty());
            let out = s
                .cluster(
                    &blobs(),
                    &KMeansConfig {
                        k: 2,
                        ..KMeansConfig::default()
                    },
                    &Statevector::new(),
                )
                .unwrap();
            assert_eq!(out.labels.len(), 6);
        }
    }
}
