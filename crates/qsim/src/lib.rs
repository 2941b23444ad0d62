//! # qsc-sim — quantum state-vector simulator
//!
//! The quantum substrate of the *Quantum Spectral Clustering of Mixed
//! Graphs* reproduction. No external quantum crates are used; everything is
//! simulated exactly on the state vector, with the physically meaningful
//! noise (phase-register resolution, finite shots, estimation error, gate
//! and readout errors) surfaced explicitly.
//!
//! The execution model is **compile, then execute**: algorithms build
//! [`circuit::Circuit`] IR (phase cascades, QFT blocks and
//! controlled-unitary blocks as [`circuit::Op`]s) and run it on a pluggable
//! [`backend::Backend`]:
//!
//! * [`Statevector`] — exact, noiseless execution on the cache-blocked
//!   kernels (the default; bit-identical to direct op application),
//! * [`NoisyStatevector`] — seeded Monte-Carlo depolarizing +
//!   readout-error channels (trajectory noise),
//! * [`DensityMatrix`] — the exact-channel counterpart: evolves `ρ` and
//!   applies the same channels via Kraus operators, no trajectory
//!   variance,
//! * [`ShotSampler`] — finite-shot measurement statistics replacing exact
//!   probability reads.
//!
//! Module map:
//!
//! * [`backend`] — the [`Backend`] trait and the statevector-family
//!   backends,
//! * [`budget`] — pre-allocation memory estimates returning typed
//!   `BudgetExceeded` errors instead of aborting,
//! * [`density`] — the density-matrix backend,
//! * [`circuit`] — the circuit IR,
//! * [`QuantumState`] — dense state vectors with gates and measurement,
//! * [`gates`] — standard gate matrices,
//! * [`qft`] — gate-level quantum Fourier transform,
//! * [`qpe`] — phase estimation (a circuit compiler, gate-level execution
//!   and the exact analytic outcome distribution, cross-validated),
//! * [`remote`] — the strict-JSON wire codec and [`RemoteBackend`], which
//!   executes any of the above on a remote executor service bit-identically,
//! * [`http`] — the workspace's one HTTP/1.1 codec, shared by
//!   [`RemoteBackend`], the sweep service and its client,
//! * [`sampling`] — the one multinomial sampler behind every finite-shot
//!   count (an exact threshold table over the inverse-CDF scan),
//! * [`tomography`] — finite-shot vector readout,
//! * [`amplitude`] — amplitude estimation / amplification models,
//! * [`resources`] — qubit/gate/depth forecasting.
//!
//! # Examples
//!
//! Estimating an eigenphase with gate-level QPE:
//!
//! ```
//! use qsc_sim::{qpe::qpe_gate_level, QuantumState};
//! use qsc_linalg::{CMatrix, Complex64};
//! use std::f64::consts::TAU;
//!
//! # fn main() -> Result<(), qsc_sim::SimError> {
//! // U = diag(1, e^{2πi·5/8}); its |1⟩ eigenstate has phase 5/8.
//! let u = CMatrix::from_diag(&[Complex64::real(1.0), Complex64::cis(TAU * 5.0 / 8.0)]);
//! let out = qpe_gate_level(&u, &QuantumState::basis_state(1, 1), 3)?;
//! let probs = out.marginal_high(3);
//! assert!((probs[5] - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! Compiling a circuit and running it on a noise-model backend:
//!
//! ```
//! use qsc_sim::backend::{Backend, NoisyStatevector};
//! use qsc_sim::circuit::{Circuit, Op};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), qsc_sim::SimError> {
//! let mut c = Circuit::new(2);
//! c.push(Op::H(0))?;
//! c.push(Op::Cnot { control: 0, target: 1 })?;
//! let backend = NoisyStatevector::new(0.01, 0.02); // gate + readout error
//! let mut rng = StdRng::seed_from_u64(1);
//! let state = backend.execute(&c, 0, &mut rng)?;
//! let counts = backend.sample(&state, 1000, &mut rng)?;
//! assert_eq!(counts.iter().map(|(_, n)| n).sum::<usize>(), 1000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod amplitude;
pub mod backend;
pub mod budget;
pub mod circuit;
pub mod density;
pub mod error;
pub mod gates;
pub mod http;
pub mod qft;
pub mod qpe;
pub mod remote;
pub mod resources;
pub mod sampling;
pub mod state;
pub mod synthesis;
pub mod tomography;

pub use backend::{Backend, NoisyStatevector, ShotSampler, Statevector};
pub use circuit::{Circuit, Op};
pub use density::DensityMatrix;
pub use error::SimError;
pub use qpe::PhaseEstimator;
pub use remote::RemoteBackend;
pub use resources::ResourceEstimate;
pub use state::QuantumState;
