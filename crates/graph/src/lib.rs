//! # qsc-graph — mixed graphs and their Hermitian matrices
//!
//! The input domain of the *Quantum Spectral Clustering of Mixed Graphs*
//! reproduction:
//!
//! * [`MixedGraph`] — undirected edges + directed arcs,
//! * [`hermitian_adjacency`] / [`normalized_hermitian_laplacian`] /
//!   [`incidence_matrix`] — the complex matrix encodings where arc direction
//!   becomes a phase `e^{±i2πq}`,
//! * [`generators`] — DSBM with meta-graph flow, concentric circles,
//!   synthetic netlists, random mixed graphs,
//! * [`stats`] — cuts and flow imbalance,
//! * [`io`] — plain-text edge lists.
//!
//! # Examples
//!
//! Direction as spectral signal — a directed 3-cycle is "frustrated" under
//! the Hermitian encoding, lifting the smallest Laplacian eigenvalue away
//! from zero:
//!
//! ```
//! use qsc_graph::{MixedGraph, normalized_hermitian_laplacian, Q_CLASSICAL};
//! use qsc_linalg::eigvalsh;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = MixedGraph::new(3);
//! g.add_arc(0, 1, 1.0)?;
//! g.add_arc(1, 2, 1.0)?;
//! g.add_arc(2, 0, 1.0)?;
//! let l = normalized_hermitian_laplacian(&g, Q_CLASSICAL);
//! let evals = eigvalsh(&l)?;
//! assert!(evals[0] > 0.1); // nonzero: the cycle's orientation is visible
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod dot;
pub mod error;
pub mod generators;
pub mod hermitian;
pub mod io;
pub mod mixed;
pub mod similarity;
pub mod spec;
pub mod stats;

pub use error::GraphError;
pub use hermitian::{
    degree_matrix, hermitian_adjacency, hermitian_adjacency_csr, hermitian_laplacian,
    hermitian_laplacian_csr, incidence_matrix, normalized_hermitian_laplacian,
    normalized_hermitian_laplacian_csr, Q_CLASSICAL,
};
pub use mixed::{Arc, Edge, MixedGraph};
