//! # qsc-linalg — dense complex linear algebra substrate
//!
//! Everything the *Quantum Spectral Clustering of Mixed Graphs* reproduction
//! needs from linear algebra, implemented from scratch:
//!
//! * [`Complex64`] — the complex scalar type,
//! * [`CMatrix`] — dense row-major complex matrices, with rayon-parallel,
//!   cache-blocked kernels for the large-matrix hot paths,
//! * [`CsrMatrix`] — sparse (CSR) complex matrices with a parallel matvec,
//! * [`eig`] — Hermitian eigendecomposition (two independent algorithms)
//!   plus unitary (normal-matrix) eigendecomposition for QPE,
//! * [`lanczos`] — partial (lowest-`k`) eigensolver over dense or sparse
//!   operators, the Krylov baseline,
//! * [`kernels`] — runtime-dispatched SIMD tiers (scalar / portable /
//!   AVX2) for the complex hot-loop kernels,
//! * [`parallel`] — the shared gating policy of the parallel kernels,
//! * [`expm`] — unitary evolution operators `e^{iHt}`,
//! * [`qr`] — QR decomposition / orthonormalization,
//! * [`params`] — the `μ`, `κ` data parameters of quantum runtime
//!   analyses,
//! * [`vector`] — slice-level vector kernels.
//!
//! # Examples
//!
//! Diagonalize a Hermitian matrix and verify the reconstruction:
//!
//! ```
//! use qsc_linalg::{eig::eigh, CMatrix};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), qsc_linalg::LinalgError> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let h = CMatrix::random_hermitian(8, &mut rng);
//! let eig = eigh(&h)?;
//! assert!((&eig.reconstruct() - &h).max_norm() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod csr;
pub mod eig;
pub mod error;
pub mod expm;
pub mod kernels;
pub mod lanczos;
pub mod matrix;
pub mod parallel;
pub mod params;
pub mod qr;
pub mod vector;

pub use complex::{Complex64, C_I, C_ONE, C_ZERO};
pub use csr::{CsrBits, CsrMatrix};
pub use eig::{
    eigh, eigh_jacobi, eigh_spectrum, eigvalsh, HermitianEigen, HermitianReduction,
    HermitianSpectrum,
};
pub use error::LinalgError;
pub use matrix::CMatrix;
