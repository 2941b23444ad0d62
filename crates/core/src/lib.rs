//! # qsc-core — quantum spectral clustering of mixed graphs
//!
//! The primary contribution of the reproduced DAC 2021 paper: spectral
//! clustering of mixed graphs (undirected edges + directed arcs) through
//! the Hermitian Laplacian, with both the classical pipeline and the
//! simulated end-to-end quantum pipeline, plus baselines and cost models.
//!
//! # The staged pipeline
//!
//! Every recipe is one [`Pipeline`]: the builder owns Laplacian
//! construction and stage sequencing, the stages are swappable trait
//! objects:
//!
//! | stage | trait | implementations |
//! |-------|-------|-----------------|
//! | embedding | [`Embedder`] | [`DenseEig`], [`LanczosCsr`], [`LanczosDense`], [`QpeTomography`] |
//! | clustering | [`Clusterer`] | [`KMeans`], [`QMeans`] |
//!
//! ```
//! use qsc_core::{Pipeline, QuantumParams};
//! use qsc_cluster::metrics::matched_accuracy;
//! use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph};
//!
//! # fn main() -> Result<(), qsc_core::Error> {
//! let inst = dsbm(&DsbmParams {
//!     n: 120, k: 3,
//!     p_intra: 0.25, p_inter: 0.25,   // identical densities: no cut signal
//!     eta_flow: 1.0, meta: MetaGraph::Cycle,
//!     seed: 10, ..DsbmParams::default()
//! })?;
//!
//! // Flow-defined clusters that a direction-blind method cannot see:
//! let hermitian = Pipeline::hermitian(3).seed(3).run(&inst.graph)?;
//! let blind = Pipeline::symmetrized(3).seed(3).run(&inst.graph)?;
//! let acc_h = matched_accuracy(&inst.labels, &hermitian.labels);
//! let acc_b = matched_accuracy(&inst.labels, &blind.labels);
//! assert!(acc_h > acc_b);
//!
//! // The simulated quantum pipeline is one builder call away:
//! let quantum = Pipeline::hermitian(3)
//!     .seed(3)
//!     .quantum(&QuantumParams::default())
//!     .run(&inst.graph)?;
//! assert!(quantum.diagnostics.quantum_cost.is_some());
//! # Ok(())
//! # }
//! ```
//!
//! Batches fan out over the rayon worker pool with
//! [`Pipeline::run_many`], which stages each graph's embedding once and
//! clusters it with each variant's own clusterer; a single graph's staged
//! embedding is reused through [`Pipeline::embed`] / [`Pipeline::cluster`].
//!
//! # Execution backends
//!
//! The quantum stages compile their work into `qsc_sim` circuit IR and
//! observe all measurement statistics through the pipeline's execution
//! [`Backend`] — swappable with [`Pipeline::backend`] (or, from config
//! files, [`Pipeline::backend_config`] + [`BackendConfig`]):
//!
//! | backend | statistics |
//! |---------|------------|
//! | [`Statevector`] (default) | exact probabilities, bit-identical to the analytic path |
//! | [`NoisyStatevector`] | depolarizing + readout-error channels, seeded Monte-Carlo trajectories |
//! | [`DensityMatrix`] | the same channels applied **exactly** on `ρ` — expectation values, no trajectory variance |
//! | [`ShotSampler`] | finite-shot frequencies replacing exact probabilities |
//!
//! The selection guide (memory/fidelity trade-offs) lives in
//! `docs/BACKENDS.md`.
//!
//! ```
//! use qsc_core::{NoisyStatevector, Pipeline, QuantumParams};
//! use qsc_graph::generators::{dsbm, DsbmParams};
//!
//! # fn main() -> Result<(), qsc_core::Error> {
//! let inst = dsbm(&DsbmParams { n: 45, k: 3, seed: 2, ..DsbmParams::default() })?;
//! let out = Pipeline::hermitian(3)
//!     .quantum(&QuantumParams::default())
//!     .backend(NoisyStatevector::new(0.002, 0.01)) // gate + readout error
//!     .run(&inst.graph)?;
//! assert_eq!(out.labels.len(), 45);
//! # Ok(())
//! # }
//! ```
//!
//! # Module map
//!
//! * [`pipeline`] — the [`Pipeline`] builder, stage traits and batch
//!   runner,
//! * [`classical`] / [`quantum`] / [`model_selection`] — the embedding
//!   stage implementations,
//! * [`baseline`] — comparison baselines ([`Pipeline::symmetrized`],
//!   [`baseline::adjacency_kmeans`]),
//! * [`cost`] — the classical-flops vs quantum-queries models behind the
//!   runtime figure,
//! * [`report`] — CSV/table writers for the experiment harness,
//! * [`error`] — the unified [`Error`] every stage returns,
//! * [`resilience`] — the fault-tolerant execution layer:
//!   [`ResiliencePolicy`] (retries, deadlines, budgets, backend
//!   fallbacks, fault injection) and the isolated batch runners'
//!   per-instance [`InstanceError`] reports (see `docs/RESILIENCE.md`).
//!
//! The pre-0.2 free-function entry points
//! (`classical_spectral_clustering` & co.) were deprecated in 0.2 and are
//! now removed; every recipe is a [`Pipeline`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod baseline;
pub mod classical;
pub mod config;
pub mod cost;
pub mod embedding;
pub mod error;
pub mod model_selection;
pub mod outcome;
pub mod pipeline;
pub mod quantum;
pub mod refine;
pub mod report;
pub mod resilience;
pub mod spectrum_cache;
pub mod trotter;

pub use classical::{DenseEig, LanczosCsr};
pub use config::{
    BackendConfig, ClusteringConfig, EmbeddingConfig, LaplacianConfig, QuantumParams,
};
pub use error::{Error, PipelineError};
pub use model_selection::LanczosDense;
pub use outcome::{ClusteringOutcome, Diagnostics};
pub use pipeline::{Embedder, Embedding, GraphInstance, Pipeline, StageContext, StagedEmbedding};
pub use quantum::{gate_level_projected_row, gate_level_projected_row_on, QpeTomography};
pub use resilience::{BatchOutcome, FailureKind, InstanceError, ResiliencePolicy};
pub use spectrum_cache::{SpectrumCache, SpectrumCacheStats};

// The fault-injection surface, re-exported so chaos-testing call sites
// need only this crate.
pub use qsc_fault::{FaultPlan, FaultPoint};

// The clustering-stage surface, re-exported so pipeline call sites need
// only this crate.
pub use qsc_cluster::{Clusterer, KMeans, QMeans};

// The execution-backend surface, re-exported so pipeline call sites need
// only this crate.
pub use qsc_sim::backend::{Backend, NoisyStatevector, ShotSampler, Statevector};
pub use qsc_sim::DensityMatrix;
