//! # qsc-cluster — k-means, q-means and clustering validity metrics
//!
//! The final stage of the spectral-clustering pipeline and the scoring
//! machinery of the evaluation:
//!
//! * [`kmeans()`] — Lloyd's algorithm with k-means++ seeding and restarts,
//! * [`QMeans`] — the quantum analogue: the same iteration through
//!   δ-bounded noise channels (distance estimation + tomography errors),
//!   with the distance estimates drawn through an execution backend,
//! * [`clusterer`] — the [`Clusterer`] stage trait ([`KMeans`] / [`QMeans`])
//!   that `qsc_core::Pipeline` composes with its embedders,
//! * [`metrics`] — ARI, NMI, purity, Hungarian-matched accuracy,
//! * [`clusterability`] — the measured Definition-4 parameters (`ξ`, `β`,
//!   `ξ/β`) behind the q-means runtime assumption,
//! * [`registry`] — the name-addressable [`registry::MetricKind`] registry
//!   the spec-driven experiment engine aggregates through,
//! * [`hungarian`] — the O(n³) assignment solver behind matched accuracy.
//!
//! # Examples
//!
//! ```
//! use qsc_cluster::{kmeans, KMeansConfig, metrics::matched_accuracy};
//!
//! # fn main() -> Result<(), qsc_cluster::ClusterError> {
//! let data = vec![
//!     vec![0.0], vec![0.1], vec![0.2],
//!     vec![9.0], vec![9.1], vec![9.2],
//! ];
//! let result = kmeans(&data, &KMeansConfig { k: 2, seed: 0, ..KMeansConfig::default() })?;
//! let truth = [0, 0, 0, 1, 1, 1];
//! assert_eq!(matched_accuracy(&truth, &result.labels), 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod clusterability;
pub mod clusterer;
pub mod error;
pub mod hungarian;
pub mod kmeans;
pub mod metrics;
pub mod qmeans;
pub mod registry;

pub use clusterer::{Clusterer, KMeans};
pub use error::ClusterError;
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use qmeans::QMeans;
