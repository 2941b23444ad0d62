//! # qsc-suite — Quantum Spectral Clustering of Mixed Graphs
//!
//! Umbrella crate for the reproduction of *"Quantum Spectral Clustering of
//! Mixed Graphs"* (DAC 2021). It re-exports the workspace crates so the
//! examples and integration tests at the repository root can use a single
//! dependency:
//!
//! * [`linalg`] — dense complex linear algebra and Hermitian eigensolvers,
//! * [`graph`] — mixed graphs, Hermitian Laplacians, workload generators,
//! * [`sim`] — quantum state-vector simulator (QPE, tomography, AE),
//! * [`cluster`] — k-means / q-means and validity metrics,
//! * [`core`] — the staged `Pipeline` (classical and simulated-quantum
//!   clustering recipes).
//!
//! See `README.md` for the quickstart and `docs/ARCHITECTURE.md` for the
//! crate map.
//!
//! # Examples
//!
//! ```
//! use qsc_suite::core::Pipeline;
//! use qsc_suite::graph::generators::{dsbm, DsbmParams};
//!
//! # fn main() -> Result<(), qsc_suite::core::Error> {
//! let inst = dsbm(&DsbmParams { n: 30, k: 3, seed: 1, ..DsbmParams::default() })?;
//! let out = Pipeline::hermitian(3).run(&inst.graph)?;
//! assert_eq!(out.labels.len(), 30);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use qsc_cluster as cluster;
pub use qsc_core as core;
pub use qsc_graph as graph;
pub use qsc_linalg as linalg;
pub use qsc_sim as sim;
