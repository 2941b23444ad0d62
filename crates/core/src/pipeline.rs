//! The composable staged pipeline: graph → Hermitian Laplacian → spectral
//! embedding → clustering, with every stage swappable and a rayon-parallel
//! batch runner.
//!
//! A [`Pipeline`] is built with the fluent builder and owns Laplacian
//! construction plus stage sequencing; the embedding stage is any
//! [`Embedder`] ([`DenseEig`](crate::DenseEig),
//! [`LanczosCsr`](crate::LanczosCsr), [`LanczosDense`](crate::LanczosDense),
//! or the quantum [`QpeTomography`](crate::QpeTomography)), and the
//! clustering stage is any [`Clusterer`]
//! ([`KMeans`] / [`QMeans`]).
//!
//! The quantum stages *compile then execute*: their circuits and
//! measurement statistics run on the pipeline's execution
//! [`Backend`] — [`Statevector`] (exact, the
//! default), `NoisyStatevector` (depolarizing + readout error) or
//! `ShotSampler` (finite-shot statistics) — selected with
//! [`Pipeline::backend`].
//!
//! For parameter sweeps, [`Pipeline::embed`] stages the expensive prefix
//! (Laplacian + embedding) once and [`Pipeline::cluster`] re-clusters it —
//! so e.g. a q-means `δ` sweep never recomputes its QPE inputs. For many
//! graphs, [`Pipeline::run_many`] fans instances out over the rayon worker
//! pool, staging each embedding once and clustering it with each of its
//! pipeline variants' own clusterer, under their [`ResiliencePolicy`].
//! Every instance is computed independently from its own seed, so batched
//! results are identical to a sequential loop regardless of the worker
//! count.
//!
//! # Examples
//!
//! ```
//! use qsc_core::{KMeans, LanczosCsr, Pipeline};
//! use qsc_graph::generators::{dsbm, DsbmParams};
//!
//! # fn main() -> Result<(), qsc_core::Error> {
//! let inst = dsbm(&DsbmParams { n: 60, k: 3, seed: 2, ..DsbmParams::default() })?;
//! let out = Pipeline::hermitian(3)
//!     .embedder(LanczosCsr)
//!     .clusterer(KMeans)
//!     .seed(7)
//!     .run(&inst.graph)?;
//! assert_eq!(out.labels.len(), 60);
//! # Ok(())
//! # }
//! ```

use crate::config::QuantumParams;
use crate::config::{BackendConfig, ClusteringConfig, EmbeddingConfig, LaplacianConfig};
use crate::cost::{incidence_mu, quantum_cost, QuantumCostInputs};
use crate::embedding::eta_of_embedding;
use crate::error::Error;
use crate::outcome::{ClusteringOutcome, Diagnostics};
use crate::resilience::{BatchOutcome, FailureKind, InstanceError, ResiliencePolicy};
use crate::spectrum_cache::SpectrumCache;
use qsc_cluster::{Clusterer, KMeans, KMeansConfig, QMeans};
use qsc_graph::{normalized_hermitian_laplacian_csr, MixedGraph};
use qsc_linalg::parallel::map_indexed;
use qsc_linalg::params::condition_number_from_eigenvalues;
use qsc_linalg::CsrMatrix;
use qsc_sim::backend::{Backend, Statevector};
use qsc_sim::SimError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tolerance below which an eigenvalue counts as zero for κ purposes.
pub(crate) const ZERO_EIG_TOL: f64 = 1e-9;

pub(crate) fn validate_request(g: &MixedGraph, k: usize) -> Result<(), Error> {
    if k == 0 {
        return Err(Error::InvalidRequest {
            context: "k must be positive".into(),
        });
    }
    if g.num_vertices() < k.max(2) {
        return Err(Error::InvalidRequest {
            context: format!(
                "graph with {} vertices cannot be split into {} clusters",
                g.num_vertices(),
                k
            ),
        });
    }
    Ok(())
}

/// Per-run inputs handed to every stage implementation.
#[derive(Clone)]
pub struct StageContext {
    /// Number of clusters `k`.
    pub k: usize,
    /// Effective master seed of this run (the pipeline's seed, or the
    /// [`GraphInstance`]'s in a batch).
    pub seed: u64,
    /// Row-normalize the embedding before clustering.
    pub normalize_rows: bool,
    /// Execution backend the stage's quantum subroutines run on.
    pub backend: Arc<dyn Backend>,
    /// Per-allocation state-memory budget (bytes) from the pipeline's
    /// [`ResiliencePolicy`]; `None` = the global budget of
    /// [`qsc_sim::budget`].
    pub state_budget_bytes: Option<u64>,
    /// The per-job cache the dense stages reduce each distinct Laplacian
    /// through once ([`Pipeline::spectrum_cache`]); `None` when none is
    /// attached or a fault plan is active.
    pub spectrum_cache: Option<Arc<SpectrumCache>>,
}

impl fmt::Debug for StageContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageContext")
            .field("k", &self.k)
            .field("seed", &self.seed)
            .field("normalize_rows", &self.normalize_rows)
            .field("backend", &self.backend.name())
            .field("state_budget_bytes", &self.state_budget_bytes)
            .field("spectrum_cache", &self.spectrum_cache.is_some())
            .finish()
    }
}

/// Output of the embedding stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// Real feature rows handed to the clusterer (dimension `2·dims_used`).
    pub rows: Vec<Vec<f64>>,
    /// Every eigenvalue the stage computed, ascending (full spectrum for
    /// dense solvers, the `k` lowest for partial ones).
    pub spectrum: Vec<f64>,
    /// Eigenvalues of the selected (projected) subspace.
    pub selected_eigenvalues: Vec<f64>,
    /// Spectral dimensions used (can exceed `k` when QPE bins collide).
    pub dims_used: usize,
    /// Lanczos iterations, for embedders whose cost proxy counts them.
    pub lanczos_iterations: Option<usize>,
    /// Seconds of work the stage took from the [`SpectrumCache`] instead of
    /// redoing it. The pipeline charges them to
    /// [`StagedEmbedding::embed_seconds`], so wall time prices a run as if
    /// it had run alone.
    pub reused_seconds: f64,
}

/// A spectral-embedding stage: Laplacian (+ graph) → feature rows.
///
/// Implementations: [`DenseEig`](crate::DenseEig) (exact reference),
/// [`LanczosCsr`](crate::LanczosCsr) (sparse partial eigensolver),
/// [`LanczosDense`](crate::LanczosDense) (the ablation-A3 dense Lanczos)
/// and [`QpeTomography`](crate::QpeTomography) (the simulated quantum
/// path: QPE-binned projection + amplitude estimation + tomography).
pub trait Embedder: Send + Sync {
    /// Stage name used in reports and displays.
    fn name(&self) -> &'static str;

    /// Computes the spectral embedding of `g` from its normalized Hermitian
    /// Laplacian.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for inconsistent stage parameters or substrate
    /// failures.
    fn embed(
        &self,
        g: &MixedGraph,
        laplacian: &CsrMatrix,
        ctx: &StageContext,
    ) -> Result<Embedding, Error>;

    /// The quantum precision parameters, when this embedder simulates the
    /// quantum path — drives the query-cost model in the diagnostics.
    fn quantum_params(&self) -> Option<&QuantumParams> {
        None
    }

    /// Classical cost proxy of a run that used this embedder (flops).
    fn classical_cost(
        &self,
        n: usize,
        k: usize,
        cluster_iterations: usize,
        embedding: &Embedding,
    ) -> f64 {
        let _ = embedding;
        crate::cost::classical_cost(n, k, cluster_iterations)
    }
}

/// The staged (cached) prefix of a run: Laplacian-derived measurements plus
/// the spectral embedding, ready to be re-clustered any number of times.
///
/// Produced by [`Pipeline::embed`]; consumed by [`Pipeline::cluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct StagedEmbedding {
    /// The embedding-stage output.
    pub embedding: Embedding,
    /// `k` the staging pipeline was configured for.
    pub k: usize,
    /// Name of the embedder stage that produced this embedding —
    /// [`Pipeline::cluster`] refuses a staged embedding from a different
    /// stage, whose cost model and dimensions would not apply.
    pub embedder: &'static str,
    /// Row-norm spread `η` of the embedding.
    pub eta: f64,
    /// Condition number of the selected eigenvalues.
    pub kappa: f64,
    /// `μ(B)` of the (possibly symmetrized) graph's incidence matrix.
    pub mu_b: f64,
    /// Quantum query-cost proxy (`None` for classical embedders).
    pub quantum_cost: Option<f64>,
    /// Number of vertices.
    pub n: usize,
    /// Wall-clock seconds spent staging (Laplacian + embedding), plus the
    /// embedding's [`Embedding::reused_seconds`].
    pub embed_seconds: f64,
}

/// One graph of a batch, with the master seed it is clustered under.
///
/// Borrowed, so building a batch never copies graphs:
///
/// ```
/// use qsc_core::{GraphInstance, Pipeline, QMeans};
/// use qsc_graph::generators::{dsbm, DsbmParams};
///
/// # fn main() -> Result<(), qsc_core::Error> {
/// let graphs: Vec<_> = (0..3)
///     .map(|s| dsbm(&DsbmParams { n: 40, k: 2, seed: s, ..DsbmParams::default() }))
///     .collect::<Result<_, _>>()?;
/// let batch: Vec<GraphInstance> = graphs
///     .iter()
///     .enumerate()
///     .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
///     .collect();
/// // k-means and q-means at δ = 0.1 over one staged embedding per graph.
/// let kmeans = Pipeline::hermitian(2);
/// let qmeans = kmeans.clone().clusterer(QMeans::new(0.1));
/// let outs = Pipeline::run_many(&[kmeans, qmeans], &batch);
/// assert_eq!(outs.len(), 2);
/// assert!(outs.iter().flatten().all(|out| out.is_ok()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GraphInstance<'g> {
    /// The graph to cluster.
    pub graph: &'g MixedGraph,
    /// Master seed of this instance's run.
    pub seed: u64,
}

impl<'g> GraphInstance<'g> {
    /// An instance with its own master seed.
    pub fn with_seed(graph: &'g MixedGraph, seed: u64) -> Self {
        Self { graph, seed }
    }
}

/// The staged spectral-clustering pipeline.
///
/// Construction starts from [`Pipeline::hermitian`] (or
/// [`Pipeline::symmetrized`] for the direction-blind baseline), followed by
/// builder calls; the configured pipeline is immutable and cheap to clone
/// (stages are shared through `Arc`), so variants for a sweep are one
/// `.clone().clusterer(...)` away.
#[derive(Clone)]
pub struct Pipeline {
    laplacian: LaplacianConfig,
    embedding: EmbeddingConfig,
    seed: u64,
    embedder: Arc<dyn Embedder>,
    clusterer: Arc<dyn Clusterer>,
    backend: Arc<dyn Backend>,
    resilience: ResiliencePolicy,
    fallback_backends: Vec<Arc<dyn Backend>>,
    spectrum_cache: Option<Arc<SpectrumCache>>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("laplacian", &self.laplacian)
            .field("embedding", &self.embedding)
            .field("seed", &self.seed)
            .field("embedder", &self.embedder.name())
            .field("clusterer", &self.clusterer.name())
            .field("backend", &self.backend.name())
            .field("resilience", &self.resilience)
            .field("spectrum_cache", &self.spectrum_cache.is_some())
            .finish()
    }
}

impl Pipeline {
    /// A Hermitian pipeline for `k` clusters with the reference stages:
    /// `q = `[`Q_CLASSICAL`](qsc_graph::Q_CLASSICAL), dense exact
    /// eigensolver, classical k-means, seed 0.
    pub fn hermitian(k: usize) -> Self {
        Self {
            laplacian: LaplacianConfig::default(),
            embedding: EmbeddingConfig {
                k,
                ..EmbeddingConfig::default()
            },
            seed: 0,
            embedder: Arc::new(crate::classical::DenseEig),
            clusterer: Arc::new(KMeans),
            backend: Arc::new(Statevector::new()),
            resilience: ResiliencePolicy::default(),
            fallback_backends: Vec::new(),
            spectrum_cache: None,
        }
    }

    /// The direction-blind baseline for `k` clusters: the graph is
    /// symmetrized (arcs become edges) and encoded with `q = 0`.
    pub fn symmetrized(k: usize) -> Self {
        Self {
            laplacian: LaplacianConfig {
                q: 0.0,
                symmetrize: true,
            },
            ..Self::hermitian(k)
        }
    }

    /// Sets the rotation parameter `q`.
    pub fn q(mut self, q: f64) -> Self {
        self.laplacian.q = q;
        self
    }

    /// Symmetrizes the graph before building the Laplacian (and forces
    /// `q = 0`, under which the Hermitian encoding is direction-blind).
    pub fn symmetrize(mut self) -> Self {
        self.laplacian.q = 0.0;
        self.laplacian.symmetrize = true;
        self
    }

    /// Sets the master seed of every random stream in the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Row-normalizes the embedding (Ng–Jordan–Weiss) before clustering.
    pub fn normalize_rows(mut self, yes: bool) -> Self {
        self.embedding.normalize_rows = yes;
        self
    }

    /// Swaps in an embedding stage.
    pub fn embedder(mut self, embedder: impl Embedder + 'static) -> Self {
        self.embedder = Arc::new(embedder);
        self
    }

    /// Swaps in a clustering stage.
    pub fn clusterer(mut self, clusterer: impl Clusterer + 'static) -> Self {
        self.clusterer = Arc::new(clusterer);
        self
    }

    /// Swaps in the execution backend the quantum stages run on
    /// ([`Statevector`] by default; see
    /// [`NoisyStatevector`](qsc_sim::backend::NoisyStatevector),
    /// [`DensityMatrix`](qsc_sim::density::DensityMatrix) and
    /// [`ShotSampler`](qsc_sim::backend::ShotSampler), and the selection
    /// guide in `docs/BACKENDS.md`). The backend drives
    /// the QPE outcome statistics of
    /// [`QpeTomography`](crate::QpeTomography) and the distance-estimation
    /// statistics of [`QMeans`]; classical stages ignore it.
    pub fn backend(mut self, backend: impl Backend + 'static) -> Self {
        self.backend = Arc::new(backend);
        self
    }

    /// Like [`Pipeline::backend`] but sharing an existing backend across
    /// pipelines.
    pub fn backend_shared(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the backend from its serializable [`BackendConfig`] form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for out-of-range backend
    /// parameters (deserialized configs arrive unvalidated).
    pub fn backend_config(self, config: &BackendConfig) -> Result<Self, Error> {
        Ok(self.backend_shared(config.build()?))
    }

    /// Attaches a fault-tolerance policy: retries, a per-instance
    /// wall-clock deadline, a state-memory budget, a backend fallback
    /// chain, and (for chaos testing) a deterministic fault-injection
    /// plan.
    ///
    /// The policy drives the batch runner [`Pipeline::run_many`], plus the
    /// `state_budget_bytes` cap which every quantum stage honors through
    /// [`StageContext`]. The single-graph calls ([`Pipeline::run`],
    /// [`Pipeline::embed`], [`Pipeline::cluster`]) behave exactly as
    /// without a policy.
    ///
    /// Fallback backends are built eagerly here, so a malformed fallback
    /// config fails at build time, not mid-sweep.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for out-of-range fallback backend
    /// parameters (same contract as [`Pipeline::backend_config`]).
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Result<Self, Error> {
        self.fallback_backends = policy
            .fallbacks
            .iter()
            .map(|config| config.build())
            .collect::<Result<_, _>>()?;
        self.resilience = policy;
        Ok(self)
    }

    /// Attaches a per-job [`SpectrumCache`]: the dense stages
    /// ([`DenseEig`](crate::DenseEig),
    /// [`QpeTomography`](crate::QpeTomography)) then Householder-reduce
    /// each distinct Laplacian once across every run of every pipeline that
    /// shares the cache. Outputs are bit-identical with or without it.
    ///
    /// Every runner call ([`Pipeline::embed`], [`Pipeline::run`] and
    /// [`Pipeline::run_many`]) is one batch: a miss evicts the entries the
    /// batch has not looked up. The cache is bypassed while the resilience
    /// policy carries an active fault plan.
    pub fn spectrum_cache(mut self, cache: Arc<SpectrumCache>) -> Self {
        self.spectrum_cache = Some(cache);
        self
    }

    /// Configures the simulated quantum path in one call:
    /// [`QpeTomography`](crate::QpeTomography) embedding plus
    /// [`QMeans`] clustering at the parameter set's
    /// `δ`.
    pub fn quantum(self, params: &QuantumParams) -> Self {
        let delta = params.delta;
        self.embedder(crate::quantum::QpeTomography::new(params.clone()))
            .clusterer(QMeans::new(delta))
    }

    fn context(&self, seed: u64) -> StageContext {
        // Fault decisions hang on per-site counters and retries perturb
        // seeds: a faulted run takes the uncached path.
        let faulted = self.resilience.fault_plan.is_some_and(|p| p.is_active());
        StageContext {
            k: self.embedding.k,
            seed,
            normalize_rows: self.embedding.normalize_rows,
            backend: self.backend.clone(),
            state_budget_bytes: self.resilience.state_budget_bytes,
            spectrum_cache: self.spectrum_cache.clone().filter(|_| !faulted),
        }
    }

    /// Starts a runner call's batch in the attached cache.
    fn start_batch(&self) {
        if let Some(cache) = &self.spectrum_cache {
            cache.next_generation();
        }
    }

    fn embed_seeded(&self, g: &MixedGraph, seed: u64) -> Result<StagedEmbedding, Error> {
        validate_request(g, self.embedding.k)?;
        let start = Instant::now();
        let symmetrized;
        let g_eff = if self.laplacian.symmetrize {
            symmetrized = g.symmetrized();
            &symmetrized
        } else {
            g
        };
        let laplacian = normalized_hermitian_laplacian_csr(g_eff, self.laplacian.q);
        let embedding = self
            .embedder
            .embed(g_eff, &laplacian, &self.context(seed))?;
        // Numerical guard: a NaN/∞ row would silently poison η, κ and the
        // clustering distances downstream — fail here with a typed error.
        for (i, row) in embedding.rows.iter().enumerate() {
            if row.iter().any(|x| !x.is_finite()) {
                return Err(Error::NonFinite {
                    context: format!(
                        "embedding row {i} from the `{}` stage",
                        self.embedder.name()
                    ),
                });
            }
        }
        let eta = eta_of_embedding(&embedding.rows);
        let kappa =
            condition_number_from_eigenvalues(&embedding.selected_eigenvalues, ZERO_EIG_TOL);
        let mu_b = incidence_mu(g_eff);
        let n = g_eff.num_vertices();
        let reused_seconds = embedding.reused_seconds;
        let quantum = self.embedder.quantum_params().map(|params| {
            quantum_cost(
                &QuantumCostInputs {
                    n,
                    k_selected: embedding.dims_used,
                    mu_b,
                    kappa,
                    eta_embedding: eta,
                },
                params,
            )
        });
        Ok(StagedEmbedding {
            embedding,
            k: self.embedding.k,
            embedder: self.embedder.name(),
            eta,
            kappa,
            mu_b,
            quantum_cost: quantum,
            n,
            embed_seconds: start.elapsed().as_secs_f64() + reused_seconds,
        })
    }

    /// Runs the staged prefix only: Laplacian construction plus the
    /// embedding stage. The result can be handed to [`Pipeline::cluster`]
    /// repeatedly — the idiom for sweeping clusterers (e.g. q-means `δ`)
    /// without recomputing the embedding.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for inconsistent requests and
    /// propagates stage failures.
    pub fn embed(&self, g: &MixedGraph) -> Result<StagedEmbedding, Error> {
        self.start_batch();
        self.embed_seeded(g, self.seed)
    }

    /// Clusters a staged embedding with this pipeline's clustering stage,
    /// assembling the full [`ClusteringOutcome`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when `staged` came from a
    /// pipeline with a different `k` or embedder stage (its dimensions and
    /// cost model would not apply here), and propagates clustering
    /// failures.
    pub fn cluster(&self, staged: &StagedEmbedding) -> Result<ClusteringOutcome, Error> {
        self.cluster_seeded(self.clusterer.as_ref(), staged, self.seed)
    }

    fn cluster_seeded(
        &self,
        clusterer: &dyn Clusterer,
        staged: &StagedEmbedding,
        seed: u64,
    ) -> Result<ClusteringOutcome, Error> {
        if staged.k != self.embedding.k || staged.embedder != self.embedder.name() {
            return Err(Error::InvalidRequest {
                context: format!(
                    "staged embedding (k = {}, embedder {}) is incompatible with \
                     this pipeline (k = {}, embedder {})",
                    staged.k,
                    staged.embedder,
                    self.embedding.k,
                    self.embedder.name()
                ),
            });
        }
        let start = Instant::now();
        let k = self.embedding.k;
        let clustering = ClusteringConfig::default();
        let result = clusterer.cluster(
            &staged.embedding.rows,
            &KMeansConfig {
                k,
                max_iter: clustering.max_iter,
                tol: clustering.tol,
                restarts: clustering.restarts,
                seed,
            },
            self.backend.as_ref(),
        )?;
        let classical_cost =
            self.embedder
                .classical_cost(staged.n, k, result.iterations, &staged.embedding);
        Ok(ClusteringOutcome {
            labels: result.labels,
            embedding: staged.embedding.rows.clone(),
            selected_eigenvalues: staged.embedding.selected_eigenvalues.clone(),
            diagnostics: Diagnostics {
                kappa: staged.kappa,
                mu_b: staged.mu_b,
                eta_embedding: staged.eta,
                classical_cost,
                quantum_cost: staged.quantum_cost,
                kmeans_iterations: result.iterations,
                dims_used: staged.embedding.dims_used,
                wall_seconds: staged.embed_seconds + start.elapsed().as_secs_f64(),
            },
            spectrum: staged.embedding.spectrum.clone(),
        })
    }

    /// Runs the full pipeline on one graph.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for inconsistent requests and
    /// propagates stage failures.
    pub fn run(&self, g: &MixedGraph) -> Result<ClusteringOutcome, Error> {
        self.cluster(&self.embed(g)?)
    }

    /// Like [`Pipeline::clusterer`] but sharing an existing stage.
    pub fn clusterer_shared(mut self, clusterer: Arc<dyn Clusterer>) -> Self {
        self.clusterer = clusterer;
        self
    }

    // --- Fault-isolated execution (see docs/RESILIENCE.md) ---------------

    /// Seed of retry attempt `attempt` (attempt 0 keeps the original seed,
    /// so a first-try success is bit-identical to a sequential
    /// [`Pipeline::run`]).
    fn attempt_seed(seed: u64, attempt: usize) -> u64 {
        seed.wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn with_backend_arc(&self, backend: Arc<dyn Backend>) -> Self {
        let mut pl = self.clone();
        pl.backend = backend;
        pl
    }

    /// Runs `work` inside this pipeline's fault-injection scope (when the
    /// policy carries an active plan); the scope key is the attempt seed,
    /// so decisions are independent of worker count and retry attempts
    /// re-roll them deterministically.
    fn run_with_faults<T>(
        &self,
        seed: u64,
        work: &(dyn Fn(&Pipeline, u64) -> Result<T, Error> + Sync),
    ) -> Result<T, Error> {
        match self.resilience.fault_plan {
            Some(plan) if plan.is_active() => qsc_fault::scope(plan, seed, || {
                if qsc_fault::should_fire(qsc_fault::FaultPoint::TaskStart) {
                    panic!("injected fault at task_start");
                }
                work(self, seed)
            }),
            _ => work(self, seed),
        }
    }

    /// One instance under the full resilience policy: panic isolation,
    /// seed-perturbed retries, wall-clock deadline, and backend fallback
    /// on budget failures.
    fn guarded<T>(
        &self,
        seed: u64,
        work: &(dyn Fn(&Pipeline, u64) -> Result<T, Error> + Sync),
    ) -> Result<T, InstanceError> {
        let deadline = self.resilience.deadline_ms.map(Duration::from_millis);
        let start = Instant::now();
        let mut fallbacks = self.fallback_backends.iter();
        let mut retries_left = self.resilience.retries;
        let mut attempts = 0usize;
        // Attempts that actually *started* the work — transport failures
        // (the remote executor was unreachable; nothing ran) do not count,
        // so a remote retry keeps the unperturbed seed and stays
        // bit-identical to a first-try local run.
        let mut seed_attempts = 0usize;
        // `None` = run on `self`; set when a budget or transport failure
        // degrades to a fallback backend.
        let mut current: Option<Pipeline> = None;
        loop {
            let pl = current.as_ref().unwrap_or(self);
            let attempt_seed = Self::attempt_seed(seed, seed_attempts);
            attempts += 1;
            // catch_unwind pre-empts the worker pool's panic trap, so one
            // panicking instance cannot poison the batch. AssertUnwindSafe
            // is sound here: `pl` and `work` are only read again after a
            // full fresh attempt, never resumed mid-state.
            let outcome = catch_unwind(AssertUnwindSafe(|| pl.run_with_faults(attempt_seed, work)));
            let (failure, transport) = match outcome {
                Ok(Ok(value)) => return Ok(value),
                Ok(Err(e)) => {
                    let transport = matches!(e, Error::Sim(SimError::Remote { .. }));
                    (
                        InstanceError {
                            kind: FailureKind::classify(&e),
                            message: e.to_string(),
                            attempts,
                        },
                        transport,
                    )
                }
                Err(payload) => (
                    InstanceError {
                        kind: FailureKind::Panic,
                        message: panic_message(payload.as_ref()),
                        attempts,
                    },
                    false,
                ),
            };
            if !transport {
                seed_attempts += 1;
            }
            // An inconsistent request fails identically on every attempt
            // and every backend: no retry, no fallback.
            if failure.kind == FailureKind::Invalid {
                return Err(failure);
            }
            if let Some(limit) = deadline {
                if start.elapsed() >= limit {
                    // An unreachable executor burns wall-clock without the
                    // work ever starting; when a fallback backend remains,
                    // degrade to it immediately (no further retries against
                    // the dead host) rather than charging the instance with
                    // the deadline.
                    if transport {
                        if let Some(backend) = fallbacks.next() {
                            current = Some(self.with_backend_arc(backend.clone()));
                            continue;
                        }
                    }
                    return Err(InstanceError {
                        kind: FailureKind::Deadline,
                        message: format!(
                            "wall-clock deadline of {} ms passed; last failure: {}",
                            limit.as_millis(),
                            failure.message
                        ),
                        attempts,
                    });
                }
            }
            // Budget failures degrade immediately (retrying the same
            // backend cannot shrink the state); transport failures retry
            // the same executor first, then degrade down the chain.
            if failure.kind == FailureKind::Budget || (transport && retries_left == 0) {
                // Switching backends does not consume a retry.
                match fallbacks.next() {
                    Some(backend) => {
                        current = Some(self.with_backend_arc(backend.clone()));
                        continue;
                    }
                    None => return Err(failure),
                }
            }
            if retries_left == 0 {
                return Err(failure);
            }
            retries_left -= 1;
        }
    }

    /// Whether `other` stages embeddings as `self` does, differing at most
    /// in its clustering stage and seed.
    fn stages_like(&self, other: &Pipeline) -> bool {
        let cache = |pl: &Pipeline| pl.spectrum_cache.as_ref().map(Arc::as_ptr);
        self.laplacian == other.laplacian
            && self.embedding == other.embedding
            && self.resilience == other.resilience
            && Arc::ptr_eq(&self.embedder, &other.embedder)
            && Arc::ptr_eq(&self.backend, &other.backend)
            && cache(self) == cache(other)
    }

    /// The batch runner over `variants` that differ only in their clustering
    /// stage (`pl.clone().clusterer(...)`; any other difference makes every
    /// entry [`FailureKind::Invalid`], without any work): stages every
    /// instance's Laplacian and embedding **once**, through the first
    /// variant, and clusters it with each variant's own stage. Parallel
    /// over instances; the result is indexed `[variant][instance]` and —
    /// as each instance runs from its own seed over thread-count-independent
    /// kernels — identical to a sequential [`Pipeline::run`] loop.
    ///
    /// Each instance, with all its variants, runs under one guard of the
    /// [`ResiliencePolicy`]: a failing instance — typed error *or panic* —
    /// becomes its own [`InstanceError`] entry instead of failing (or
    /// poisoning) the whole batch, and the policy grants retries, deadlines
    /// and backend fallbacks per instance. The variants share the
    /// embedding, hence its fate, and the backend it ran on.
    pub fn run_many(
        variants: &[Pipeline],
        instances: &[GraphInstance<'_>],
    ) -> Vec<BatchOutcome<ClusteringOutcome>> {
        let mut per_variant = vec![Vec::new(); variants.len()];
        let Some(lead) = variants.first() else {
            return per_variant;
        };
        // The lead is compared with no one: a lone pipeline always runs.
        let per_instance = if variants[1..].iter().all(|v| lead.stages_like(v)) {
            lead.start_batch();
            map_indexed(instances.len(), |i| {
                let inst = &instances[i];
                lead.guarded(inst.seed, &|pl: &Pipeline, s| {
                    let staged = pl.embed_seeded(inst.graph, s)?;
                    variants
                        .iter()
                        .map(|v| pl.cluster_seeded(v.clusterer.as_ref(), &staged, s))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
        } else {
            let refusal = InstanceError {
                kind: FailureKind::Invalid,
                message: "a batch variant differs from the first beyond its clusterer".into(),
                attempts: 1,
            };
            vec![Err(refusal); instances.len()]
        };
        // `[instance][variant]` → `[variant][instance]`, by value.
        for outcome in per_instance {
            let mut outs = outcome.map(Vec::into_iter);
            for column in &mut per_variant {
                column.push(match &mut outs {
                    Ok(outs) => Ok(outs.next().expect("one outcome per variant")),
                    Err(err) => Err(err.clone()),
                });
            }
        }
        per_variant
    }
}

/// Human-readable form of a caught panic payload (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum_cache::SpectrumCacheStats;
    use qsc_cluster::metrics::matched_accuracy;
    use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph};

    fn flow_instance(n: usize, seed: u64) -> qsc_graph::generators::PlantedGraph {
        dsbm(&DsbmParams {
            n,
            k: 3,
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
    fn builder_runs_end_to_end() {
        let inst = flow_instance(90, 11);
        let out = Pipeline::hermitian(3).seed(4).run(&inst.graph).unwrap();
        let acc = matched_accuracy(&inst.labels, &out.labels);
        assert!(acc > 0.9, "accuracy {acc}");
        assert_eq!(out.diagnostics.dims_used, 3);
        assert!(out.diagnostics.quantum_cost.is_none());
    }

    #[test]
    fn symmetrized_baseline_is_direction_blind() {
        let inst = flow_instance(120, 12);
        let herm = Pipeline::hermitian(3).seed(4).run(&inst.graph).unwrap();
        let blind = Pipeline::symmetrized(3).seed(4).run(&inst.graph).unwrap();
        let acc_h = matched_accuracy(&inst.labels, &herm.labels);
        let acc_b = matched_accuracy(&inst.labels, &blind.labels);
        assert!(acc_h > acc_b + 0.2, "hermitian {acc_h} vs blind {acc_b}");
    }

    #[test]
    fn staged_embedding_reclusters_without_reembedding() {
        let inst = flow_instance(60, 13);
        let pl = Pipeline::hermitian(3)
            .seed(9)
            .quantum(&QuantumParams::default());
        let staged = pl.embed(&inst.graph).unwrap();
        // Sweeping δ over the same staged embedding must match full runs.
        for delta in [0.05, 0.5] {
            let swept = pl
                .clone()
                .clusterer(QMeans::new(delta))
                .cluster(&staged)
                .unwrap();
            let full = pl
                .clone()
                .clusterer(QMeans::new(delta))
                .run(&inst.graph)
                .unwrap();
            assert_eq!(swept.labels, full.labels);
            assert_eq!(swept.embedding, full.embedding);
        }
    }

    #[test]
    fn run_many_matches_sequential_loop() {
        let graphs: Vec<_> = (0..4).map(|s| flow_instance(50, 20 + s)).collect();
        let batch: Vec<GraphInstance> = graphs
            .iter()
            .enumerate()
            .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
            .collect();
        let pl = Pipeline::hermitian(3);
        let batched = Pipeline::run_many(std::slice::from_ref(&pl), &batch);
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0].len(), graphs.len());
        for (i, inst) in graphs.iter().enumerate() {
            let single = pl.clone().seed(i as u64).run(&inst.graph).unwrap();
            let out = batched[0][i].as_ref().unwrap();
            assert_eq!(out.labels, single.labels);
            assert_eq!(out.spectrum, single.spectrum);
        }
    }

    #[test]
    fn run_many_shares_the_embedding_across_clusterers() {
        let graphs: Vec<_> = (0..2).map(|s| flow_instance(50, 30 + s)).collect();
        let batch: Vec<GraphInstance> = graphs
            .iter()
            .map(|inst| GraphInstance::with_seed(&inst.graph, 5))
            .collect();
        let pl = Pipeline::hermitian(3)
            .seed(5)
            .quantum(&QuantumParams::default());
        let deltas = [0.05, 0.5];
        let variants: Vec<Pipeline> = deltas
            .iter()
            .map(|&delta| pl.clone().clusterer(QMeans::new(delta)))
            .collect();
        let outs: Vec<Vec<ClusteringOutcome>> = Pipeline::run_many(&variants, &batch)
            .into_iter()
            .map(|column| column.into_iter().map(Result::unwrap).collect())
            .collect();
        assert_eq!(outs.len(), 2);
        // Same staged embedding behind both outcomes of an instance.
        for (a, b) in outs[0].iter().zip(&outs[1]) {
            assert_eq!(a.embedding, b.embedding);
        }
        // And each outcome matches its own full run.
        for (i, inst) in graphs.iter().enumerate() {
            for (j, variant) in variants.iter().enumerate() {
                let full = variant.run(&inst.graph).unwrap();
                assert_eq!(outs[j][i].labels, full.labels);
            }
        }
    }

    #[test]
    fn run_many_refuses_variants_that_stage_differently() {
        let inst = flow_instance(40, 35);
        let batch = [
            GraphInstance::with_seed(&inst.graph, 1),
            GraphInstance::with_seed(&inst.graph, 2),
        ];
        let cache = Arc::new(SpectrumCache::new());
        let pl = Pipeline::hermitian(3).spectrum_cache(cache.clone());
        let mut other_k = pl.clone();
        other_k.embedding.k = 2;
        for other in [
            pl.clone().embedder(crate::LanczosCsr),
            other_k,
            pl.clone().backend(Statevector::new()),
        ] {
            let outs = Pipeline::run_many(&[pl.clone(), other.clone()], &batch);
            assert_eq!(outs.len(), 2, "{other:?}");
            for entry in outs.iter().flatten() {
                let err = entry.as_ref().expect_err("a mismatched batch is refused");
                assert_eq!(err.kind, FailureKind::Invalid, "{other:?}");
                assert_eq!(err.attempts, 1);
            }
        }
        // Nothing ran: the cache saw no lookup.
        assert_eq!(cache.stats(), SpectrumCacheStats::default());
        // A lone pipeline is never refused, whatever its stages.
        for lone in [
            pl.clone().embedder(crate::LanczosCsr),
            pl.quantum(&QuantumParams::default()),
        ] {
            for out in Pipeline::run_many(&[lone], &batch).concat() {
                out.unwrap();
            }
        }
    }

    #[test]
    fn rejects_bad_requests() {
        let g = MixedGraph::new(3);
        assert!(Pipeline::hermitian(0).run(&g).is_err());
        assert!(Pipeline::hermitian(5).run(&g).is_err());
    }

    #[test]
    fn cluster_rejects_mismatched_staged_embedding() {
        let inst = flow_instance(50, 14);
        let from_lanczos = Pipeline::hermitian(3)
            .embedder(crate::model_selection::LanczosDense)
            .embed(&inst.graph)
            .unwrap();
        // Different embedder: the DenseEig cost model would not apply.
        assert!(Pipeline::hermitian(3).cluster(&from_lanczos).is_err());
        // Different k: labels would contradict the staged dimensions.
        let staged = Pipeline::hermitian(3).embed(&inst.graph).unwrap();
        assert!(Pipeline::hermitian(4).cluster(&staged).is_err());
        // Same recipe (clusterer swaps allowed): fine.
        assert!(Pipeline::hermitian(3)
            .clusterer(QMeans::new(0.1))
            .cluster(&staged)
            .is_ok());
    }

    #[test]
    fn debug_names_the_stages() {
        let pl = Pipeline::hermitian(3).quantum(&QuantumParams::default());
        let dbg = format!("{pl:?}");
        assert!(dbg.contains("qpe_tomography"), "{dbg}");
        assert!(dbg.contains("qmeans"), "{dbg}");
        assert!(dbg.contains("statevector"), "{dbg}");
    }

    #[test]
    fn default_backend_is_explicit_statevector() {
        use qsc_sim::backend::Statevector;
        let inst = flow_instance(60, 15);
        let params = QuantumParams::default();
        let implicit = Pipeline::hermitian(3)
            .seed(2)
            .quantum(&params)
            .run(&inst.graph)
            .unwrap();
        let explicit = Pipeline::hermitian(3)
            .seed(2)
            .quantum(&params)
            .backend(Statevector::new())
            .run(&inst.graph)
            .unwrap();
        assert_eq!(implicit.labels, explicit.labels);
        assert_eq!(implicit.embedding, explicit.embedding);
        assert_eq!(implicit.spectrum, explicit.spectrum);
    }

    #[test]
    fn shot_backend_is_deterministic_and_degrades_gracefully() {
        use qsc_cluster::metrics::matched_accuracy;
        use qsc_sim::backend::ShotSampler;
        let inst = flow_instance(60, 16);
        let params = QuantumParams::default();
        let mk = || {
            Pipeline::hermitian(3)
                .seed(2)
                .quantum(&params)
                .backend(ShotSampler::new(2048))
                .run(&inst.graph)
                .unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.labels, b.labels, "seeded finite shots are reproducible");
        let acc = matched_accuracy(&inst.labels, &a.labels);
        assert!(acc > 0.6, "2048-shot accuracy collapsed: {acc}");
    }

    #[test]
    fn fault_plans_bypass_the_spectrum_cache() {
        let graphs: Vec<_> = (0..3).map(|s| flow_instance(40, 50 + s)).collect();
        let batch: Vec<GraphInstance> = graphs
            .iter()
            .map(|i| GraphInstance::with_seed(&i.graph, 0))
            .collect();
        let cache = Arc::new(SpectrumCache::new());
        // A plan that never fires is still active: its counters run.
        let plan =
            qsc_fault::FaultPlan::seeded(3).with_rate(qsc_fault::FaultPoint::Allocation, 1e-9);
        assert!(plan.is_active());
        let faulted = Pipeline::hermitian(3)
            .spectrum_cache(cache.clone())
            .resilience(ResiliencePolicy {
                fault_plan: Some(plan),
                ..ResiliencePolicy::default()
            })
            .unwrap();
        for _ in 0..2 {
            for out in Pipeline::run_many(std::slice::from_ref(&faulted), &batch).concat() {
                out.unwrap();
            }
        }
        assert_eq!(cache.stats(), SpectrumCacheStats::default());
        // Without the plan the same batches go through the cache.
        let plain = Pipeline::hermitian(3).spectrum_cache(cache.clone());
        for _ in 0..2 {
            for out in Pipeline::run_many(std::slice::from_ref(&plain), &batch).concat() {
                out.unwrap();
            }
        }
        assert_eq!(cache.stats(), SpectrumCacheStats { hits: 3, misses: 3 });
    }

    #[test]
    fn a_cache_hit_is_charged_its_reduction_seconds() {
        let inst = flow_instance(120, 17);
        let cache = Arc::new(SpectrumCache::new());
        let classical = Pipeline::hermitian(3).seed(1).spectrum_cache(cache.clone());
        let quantum = classical.clone().quantum(&QuantumParams::default());
        let miss = classical.run(&inst.graph).unwrap();
        let hit = quantum.run(&inst.graph).unwrap();
        assert_eq!(cache.stats(), SpectrumCacheStats { hits: 1, misses: 1 });
        let laplacian = normalized_hermitian_laplacian_csr(&inst.graph, qsc_graph::Q_CLASSICAL);
        let reduction_seconds = cache.reduction_seconds(&laplacian).unwrap();
        assert!(reduction_seconds > 0.0);
        assert!(hit.diagnostics.wall_seconds >= reduction_seconds);
        // The hit's outcome is the uncached one, bit for bit.
        let uncached = Pipeline::hermitian(3)
            .seed(1)
            .quantum(&QuantumParams::default())
            .run(&inst.graph)
            .unwrap();
        assert_eq!(hit.labels, uncached.labels);
        assert_eq!(hit.embedding, uncached.embedding);
        assert_eq!(hit.spectrum, uncached.spectrum);
        assert_eq!(miss.spectrum, uncached.spectrum);
    }

    #[test]
    fn backend_config_round_trips_through_builder() {
        use crate::config::BackendConfig;
        let pl = Pipeline::hermitian(2)
            .backend_config(&BackendConfig::Noisy {
                depolarizing: 0.01,
                readout_flip: 0.02,
            })
            .unwrap();
        assert_eq!(pl.backend.name(), "noisy_statevector");
        // Out-of-range deserialized configs surface as typed errors, not
        // panics.
        assert!(Pipeline::hermitian(2)
            .backend_config(&BackendConfig::Noisy {
                depolarizing: 1.5,
                readout_flip: 0.0,
            })
            .is_err());
        assert!(Pipeline::hermitian(2)
            .backend_config(&BackendConfig::Shots { shots: 0 })
            .is_err());
    }
}
