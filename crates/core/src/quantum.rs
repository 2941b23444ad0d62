//! The simulated quantum embedding stage and gate-level reference circuit.
//!
//! [`QpeTomography`] performs the same steps as the classical embedders
//! while introducing the noise its quantum subroutines would: QPE bins
//! every eigenvalue to `t` bits before the threshold decides which
//! eigenvectors form the projected subspace; amplitude estimation perturbs
//! the projected row norms; tomography perturbs their directions. The
//! matching clustering stage is `qsc_cluster::QMeans`, which perturbs every
//! distance and centroid — [`Pipeline::quantum`](crate::Pipeline::quantum)
//! wires both in one call. Each channel is driven by the corresponding
//! `qsc-sim` routine so the injected noise has exactly the magnitude the
//! theory assigns to it.
//!
//! The stage's QPE outcome statistics are produced by the pipeline's
//! execution [`Backend`] (selected with
//! [`Pipeline::backend`](crate::Pipeline::backend)): the default
//! `Statevector` reads exact Fejér-kernel probabilities, a `ShotSampler`
//! replaces them with finite-shot frequencies, and a `NoisyStatevector`
//! degrades them through depolarizing + readout channels.
//!
//! For small systems [`gate_level_projected_row`] *compiles the actual
//! circuit* (QPE → threshold → uncompute) into `qsc_sim` circuit IR,
//! executes it on a backend, and is tested to agree with the exact
//! eigenprojection the fast path uses.

use crate::config::QuantumParams;
use crate::embedding::normalize_rows;
use crate::error::Error;
use crate::pipeline::{Embedder, Embedding, StageContext};
use crate::spectrum_cache::hermitian_spectrum;
use qsc_graph::MixedGraph;
use qsc_linalg::vector::interleave_re_im;
use qsc_linalg::{eigh, CMatrix, Complex64, CsrMatrix};
use qsc_sim::amplitude::estimate_norm;
use qsc_sim::backend::{Backend, Statevector};
use qsc_sim::tomography::tomography_complex;
use qsc_sim::PhaseEstimator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The simulated quantum embedding stage: QPE-binned soft spectral
/// projection, amplitude-estimated row norms, tomography-read directions.
///
/// The simulator computes every eigenvalue of the Laplacian but builds only
/// the eigenvectors that survive the QPE threshold (at most
/// `k·max_dims_factor` of them, through [`qsc_linalg::eigh_spectrum`]),
/// reducing each distinct Laplacian once when the context carries a
/// [`SpectrumCache`](crate::SpectrumCache).
///
/// The stage owns the full [`QuantumParams`] precision set; its `δ` field
/// is consumed by the matching `QMeans` clusterer (see
/// [`Pipeline::quantum`](crate::Pipeline::quantum)).
#[derive(Debug, Clone, PartialEq)]
pub struct QpeTomography {
    /// Precision parameters of every quantum subroutine.
    pub params: QuantumParams,
}

impl QpeTomography {
    /// Creates the stage from a precision parameter set.
    pub fn new(params: QuantumParams) -> Self {
        Self { params }
    }
}

impl Default for QpeTomography {
    fn default() -> Self {
        Self::new(QuantumParams::default())
    }
}

impl Embedder for QpeTomography {
    fn name(&self) -> &'static str {
        "qpe_tomography"
    }

    fn quantum_params(&self) -> Option<&QuantumParams> {
        Some(&self.params)
    }

    fn embed(
        &self,
        g: &MixedGraph,
        laplacian: &CsrMatrix,
        ctx: &StageContext,
    ) -> Result<Embedding, Error> {
        let params = &self.params;
        if params.qpe_scale <= 2.0 {
            return Err(Error::InvalidRequest {
                context: format!(
                    "qpe_scale = {} must exceed the Laplacian spectral bound 2",
                    params.qpe_scale
                ),
            });
        }
        if let Some(limit) = ctx.backend.phase_register_limit() {
            if params.qpe_bits > limit {
                // Surfaced as a budget error (not InvalidRequest): the
                // request is fine on a cheaper backend, which lets a
                // resilience fallback chain degrade instead of aborting.
                return Err(Error::Sim(qsc_sim::SimError::BudgetExceeded {
                    requested_bytes: qsc_sim::budget::register_amplitudes(2 * params.qpe_bits)
                        .saturating_mul(qsc_sim::budget::AMP_BYTES),
                    budget_bytes: qsc_sim::budget::register_amplitudes(2 * limit)
                        .saturating_mul(qsc_sim::budget::AMP_BYTES),
                    context: format!(
                        "qpe_bits = {} exceeds the {}-qubit phase-register limit of the `{}` \
                         backend",
                        params.qpe_bits,
                        limit,
                        ctx.backend.name()
                    ),
                }));
            }
        }
        // Pre-allocation estimate for the 2^t phase register, against the
        // policy budget threaded through the stage context (or the global
        // one); also the `allocation` fault-injection point.
        qsc_sim::budget::check_allocation_within(
            ctx.state_budget_bytes,
            qsc_sim::budget::register_amplitudes(params.qpe_bits),
            "qpe phase register",
        )?;
        // Mix the user seed so the quantum-noise stream differs from the
        // k-means stream derived from the same seed.
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x517c_c1b7_2722_0a95);

        // The simulator's privilege: the exact spectrum is available; the
        // algorithmic noise is injected downstream exactly where the quantum
        // subroutines would introduce it. Eigenvectors are built below, for
        // the selected dimensions only.
        let (eig, reused_seconds) = hermitian_spectrum(laplacian, ctx.spectrum_cache.as_deref())?;

        // --- QPE: every eigenvalue is known only at t-bit resolution. The
        // threshold ν is placed just above the bin of the k-th smallest
        // rounded eigenvalue, which is all the algorithm can resolve. ---
        let estimator = PhaseEstimator::new(params.qpe_scale, params.qpe_bits)?;
        let mut rounded: Vec<f64> = eig
            .eigenvalues
            .iter()
            .map(|&l| estimator.round(l))
            .collect();
        // QPE-rounded eigenvalues are finite by construction (finite input
        // eigenvalues snapped to finite bin centers), so the total order
        // exists.
        rounded.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let nu = rounded[ctx.k - 1] + estimator.resolution() * 0.5;

        // --- Post-selecting on the thresholded phase register is a *soft*
        // spectral filter: eigencomponent j survives with amplitude √p_j where
        // p_j is the QPE outcome mass in bins below ν. Components with exact
        // bins below ν get p_j ≈ 1; far eigenvalues are suppressed by the
        // Fejér-kernel tails; only boundary eigenvalues are genuinely fuzzy. ---
        let bins = 1usize << params.qpe_bits;
        let mut survival: Vec<f64> = Vec::with_capacity(eig.eigenvalues.len());
        for &l in &eig.eigenvalues {
            // The phase-register statistics come from the execution
            // backend: exact Fejér probabilities on `Statevector`
            // (bit-identical to the analytic path), finite-shot
            // frequencies on `ShotSampler`, noise-degraded on
            // `NoisyStatevector`, fetched over the wire on `Remote`.
            let dist =
                ctx.backend
                    .phase_distribution(l / params.qpe_scale, params.qpe_bits, &mut rng)?;
            survival.push(
                (0..bins)
                    .filter(|&m| params.qpe_scale * m as f64 / bins as f64 <= nu)
                    .map(|m| dist[m])
                    .sum::<f64>(),
            );
        }

        // Dimensions with non-negligible survival form the embedding; bound
        // the blow-up from bin collisions.
        const SURVIVAL_FLOOR: f64 = 0.01;
        let mut selected: Vec<usize> = (0..survival.len())
            .filter(|&j| survival[j] >= SURVIVAL_FLOOR)
            .collect();
        // Survival masses are sums of probabilities in [0, 1] and the
        // eigenvalues come from a converged Hermitian eigensolve — both
        // finite, so the comparator is total.
        selected.sort_by(|&a, &b| {
            survival[b].partial_cmp(&survival[a]).expect("finite").then(
                eig.eigenvalues[a]
                    .partial_cmp(&eig.eigenvalues[b])
                    .expect("finite"),
            )
        });
        let cap = (ctx.k * params.max_dims_factor).max(ctx.k);
        selected.truncate(cap);
        selected.sort_unstable();

        // --- Project rows through the soft filter, read them out through AE
        // (norms) + tomography (directions). ---
        let sub = eig.eigenvectors(&selected);
        let weights: Vec<f64> = selected.iter().map(|&j| survival[j].sqrt()).collect();
        let n = g.num_vertices();
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<Complex64> = sub
                .row(i)
                .iter()
                .zip(&weights)
                .map(|(z, &w)| z.scale(w))
                .collect();
            let true_norm: f64 = row.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            if true_norm <= f64::EPSILON {
                rows.push(vec![0.0; 2 * selected.len()]);
                continue;
            }
            // Row of a unitary submatrix: norm ≤ 1, so AE with scale 1 applies.
            let est_norm = estimate_norm(
                true_norm.min(1.0),
                1.0,
                params.norm_estimation_iters,
                &mut rng,
            )?;
            let direction = tomography_complex(&row, params.tomography_shots, &mut rng)?;
            // Tomography preserves the exact input norm; rescale so the norm
            // carries the AE error instead.
            let dir_norm: f64 = direction.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            let scale = if dir_norm > 0.0 {
                est_norm / dir_norm
            } else {
                0.0
            };
            let noisy: Vec<Complex64> = direction.iter().map(|z| z.scale(scale)).collect();
            rows.push(interleave_re_im(&noisy));
        }
        if ctx.normalize_rows {
            normalize_rows(&mut rows);
        } else {
            // The q-means analysis states δ relative to data whose smallest
            // non-zero row norm is 1 (Definition 3's convention). Rescale the
            // embedding to that unit — a pure unit change k-means itself is
            // invariant to, but which gives the absolute δ noise its intended
            // relative meaning.
            let min_norm = rows
                .iter()
                .map(|row| row.iter().map(|x| x * x).sum::<f64>().sqrt())
                .filter(|&n| n > f64::EPSILON)
                .fold(f64::INFINITY, f64::min);
            if min_norm.is_finite() && min_norm > 0.0 {
                for row in &mut rows {
                    for x in row.iter_mut() {
                        *x /= min_norm;
                    }
                }
            }
        }

        let selected_eigenvalues: Vec<f64> = selected.iter().map(|&j| eig.eigenvalues[j]).collect();
        let dims_used = selected.len();
        Ok(Embedding {
            rows,
            spectrum: eig.eigenvalues,
            selected_eigenvalues,
            dims_used,
            lanczos_iterations: None,
            reused_seconds,
        })
    }
}

/// Compiles and runs the *actual* QPE-projection circuit for one vertex of
/// a small graph on the default [`Statevector`] backend: prepare `|i⟩`, QPE
/// with `t` bits on `U = e^{i·2π·𝓛/scale}`, zero the amplitudes whose phase
/// bin exceeds `ν`, uncompute the QPE, and read the (unnormalized) system
/// register where the phase register returned to `|0⟩`.
///
/// The result approximates `P_{λ≤ν}·e_i`, the exact eigenprojection
/// [`QpeTomography`] computes: this is its gate-level oracle, and the
/// agreement is ablation A2 of the evaluation. See
/// [`gate_level_projected_row_on`] to execute the same compiled circuits on
/// a different backend (e.g. a noise model).
///
/// # Errors
///
/// Propagates simulator errors; the Laplacian dimension must be a power of
/// two at most `2^8` (pad the graph if needed).
pub fn gate_level_projected_row(
    laplacian: &CMatrix,
    vertex: usize,
    t: usize,
    scale: f64,
    nu: f64,
) -> Result<Vec<Complex64>, Error> {
    // The exact backend draws nothing from the RNG.
    let mut rng = StdRng::seed_from_u64(0);
    gate_level_projected_row_on(
        &Statevector::new(),
        &mut rng,
        laplacian,
        vertex,
        t,
        scale,
        nu,
    )
}

/// [`gate_level_projected_row`] on an explicit execution backend: the
/// forward pass (Hadamard wall, diagonalized controlled-power cascade,
/// inverse QFT) and the uncompute pass (forward QFT, inverse cascade,
/// Hadamard wall) are compiled into `qsc_sim` circuit IR and handed to
/// `backend.run`; the threshold between them is classical post-selection on
/// the phase register.
///
/// # Errors
///
/// Same contract as [`gate_level_projected_row`]. Additionally rejects
/// backends whose states are not pure-state amplitude vectors
/// ([`Backend::pure_state`]` == false`, i.e. the density-matrix backend):
/// the mid-circuit post-selection here reads amplitudes directly, which a
/// vectorized-`ρ` buffer cannot support.
pub fn gate_level_projected_row_on(
    backend: &dyn Backend,
    rng: &mut StdRng,
    laplacian: &CMatrix,
    vertex: usize,
    t: usize,
    scale: f64,
    nu: f64,
) -> Result<Vec<Complex64>, Error> {
    use qsc_linalg::eig::UnitaryEigen;
    use qsc_sim::circuit::{Circuit, Op};
    use qsc_sim::qpe::push_phase_cascade_ops;
    use qsc_sim::QuantumState;
    use std::f64::consts::TAU;

    if !backend.pure_state() {
        return Err(Error::InvalidRequest {
            context: format!(
                "gate-level projection needs a pure-state backend; `{}` executes circuits on a \
                 vectorized density matrix",
                backend.name()
            ),
        });
    }
    let n = laplacian.nrows();
    if !n.is_power_of_two() || n > 256 {
        return Err(Error::InvalidRequest {
            context: format!("gate-level path needs a power-of-two dimension ≤ 256, got {n}"),
        });
    }
    if vertex >= n {
        return Err(Error::InvalidRequest {
            context: format!("vertex {vertex} out of range"),
        });
    }
    let s = n.trailing_zeros() as usize;
    // One Hermitian eigendecomposition serves both directions of the
    // circuit: U = e^{i·2π·𝓛/scale} has the Laplacian's eigenvectors and
    // phases 2π·λ/scale, so the forward and inverse controlled-power
    // cascades are two diagonal phase passes — no repeated matrix squaring,
    // no materialized powers.
    let leig = eigh(laplacian)?;
    let ueig = UnitaryEigen {
        phases: leig.eigenvalues.iter().map(|&l| TAU * l / scale).collect(),
        eigenvectors: leig.eigenvectors,
    };

    // Compile the forward pass and execute it on the backend.
    let mut forward = Circuit::new(s + t);
    for j in 0..t {
        forward.push(Op::H(s + j))?;
    }
    push_phase_cascade_ops(&mut forward, &ueig, 1.0)?;
    forward.push_inverse_qft(s..s + t)?;
    let mut state = backend.try_prepare(s + t, vertex)?;
    backend.run(&forward, &mut state, rng)?;

    // Threshold: zero every amplitude whose phase bin maps to λ > ν.
    let bins = 1usize << t;
    let mut kept = Vec::from(state.amplitudes());
    for (idx, amp) in kept.iter_mut().enumerate() {
        let m = idx >> s;
        let lambda = scale * m as f64 / bins as f64;
        if lambda > nu {
            *amp = qsc_linalg::C_ZERO;
        }
    }
    // The projected joint state is unnormalized; carry it through the
    // inverse circuit manually (all ops are linear).
    let norm: f64 = kept.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    if norm == 0.0 {
        return Ok(vec![qsc_linalg::C_ZERO; n]);
    }
    // `norm > 0` was just checked, so the constructor cannot see a zero
    // vector — but surface the impossible case as a typed error anyway.
    let mut state = QuantumState::from_amplitudes(kept)?;

    // Compile the uncompute pass: forward QFT, inverse cascade, Hadamards.
    let mut uncompute = Circuit::new(s + t);
    uncompute.push_qft(s..s + t)?;
    push_phase_cascade_ops(&mut uncompute, &ueig, -1.0)?;
    for j in 0..t {
        uncompute.push(Op::H(s + j))?;
    }
    backend.run(&uncompute, &mut state, rng)?;

    // Read the system register where the phase register is |0⟩, restoring
    // the pre-normalization scale.
    let out: Vec<Complex64> = state.amplitudes()[..n]
        .iter()
        .map(|z| z.scale(norm))
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
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

    fn quantum_pipeline(seed: u64, params: &QuantumParams) -> Pipeline {
        Pipeline::hermitian(3).seed(seed).quantum(params)
    }

    #[test]
    fn quantum_matches_classical_closely() {
        let inst = flow_instance(90, 5);
        let qp = QuantumParams::default();
        let q = quantum_pipeline(2, &qp).run(&inst.graph).unwrap();
        let acc = matched_accuracy(&inst.labels, &q.labels);
        assert!(acc > 0.85, "quantum accuracy {acc}");
        assert!(q.diagnostics.quantum_cost.is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = flow_instance(60, 6);
        let qp = QuantumParams::default();
        let a = quantum_pipeline(9, &qp).run(&inst.graph).unwrap();
        let b = quantum_pipeline(9, &qp).run(&inst.graph).unwrap();
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn dims_used_at_least_k_and_capped() {
        let inst = flow_instance(60, 7);
        let qp = QuantumParams {
            qpe_bits: 2,
            ..QuantumParams::default()
        };
        // Coarse bins force collisions.
        let out = quantum_pipeline(1, &qp).run(&inst.graph).unwrap();
        assert!(out.diagnostics.dims_used >= 3);
        assert!(out.diagnostics.dims_used <= 3 * qp.max_dims_factor);
    }

    #[test]
    fn rejects_scale_within_spectral_bound() {
        let inst = flow_instance(30, 8);
        let qp = QuantumParams {
            qpe_scale: 1.5,
            ..QuantumParams::default()
        };
        assert!(quantum_pipeline(0, &qp).run(&inst.graph).is_err());
    }

    #[test]
    fn density_backend_rejects_oversized_phase_register_with_typed_error() {
        // qpe_bits past the density backend's O(4^t) cap must surface as a
        // typed budget error from the embedding stage (so a resilience
        // fallback chain can degrade), not abort the process inside the
        // backend's prepare.
        use qsc_sim::DensityMatrix;
        let inst = flow_instance(30, 8);
        let qp = QuantumParams {
            qpe_bits: 14,
            ..QuantumParams::default()
        };
        let err = quantum_pipeline(0, &qp)
            .backend(DensityMatrix::new(0.05, 0.0))
            .run(&inst.graph)
            .unwrap_err();
        assert!(
            err.to_string().contains("phase-register limit"),
            "unexpected error: {err}"
        );
        assert!(
            matches!(err, Error::Sim(qsc_sim::SimError::BudgetExceeded { .. })),
            "expected a budget error, got {err:?}"
        );
        // The statevector family has no limit, and neither does the
        // zero-depolarizing density backend (its hooks short-circuit to
        // the O(2^t) closed forms — no ρ is ever built).
        assert!(quantum_pipeline(0, &qp).run(&inst.graph).is_ok());
        assert!(quantum_pipeline(0, &qp)
            .backend(DensityMatrix::new(0.0, 0.01))
            .run(&inst.graph)
            .is_ok());
    }

    #[test]
    fn noisy_backend_at_zero_noise_is_bit_identical() {
        use qsc_sim::backend::NoisyStatevector;
        let inst = flow_instance(60, 9);
        let qp = QuantumParams::default();
        let ideal = quantum_pipeline(3, &qp).run(&inst.graph).unwrap();
        let zero_noise = quantum_pipeline(3, &qp)
            .backend(NoisyStatevector::new(0.0, 0.0))
            .run(&inst.graph)
            .unwrap();
        assert_eq!(ideal.labels, zero_noise.labels);
        assert_eq!(ideal.embedding, zero_noise.embedding);
        assert_eq!(ideal.spectrum, zero_noise.spectrum);
    }

    #[test]
    fn noisy_backend_degrades_accuracy_monotonically_on_average() {
        use qsc_sim::backend::NoisyStatevector;
        let inst = flow_instance(90, 10);
        let qp = QuantumParams::default();
        let acc_at = |dep: f64| {
            let out = quantum_pipeline(4, &qp)
                .backend(NoisyStatevector::new(dep, dep))
                .run(&inst.graph)
                .unwrap();
            matched_accuracy(&inst.labels, &out.labels)
        };
        let clean = acc_at(0.0);
        let brutal = acc_at(0.2);
        assert!(clean > 0.85, "clean accuracy {clean}");
        assert!(
            brutal <= clean,
            "strong noise should not beat the clean run: {brutal} vs {clean}"
        );
    }

    #[test]
    fn gate_level_projection_agrees_with_exact() {
        use qsc_graph::normalized_hermitian_laplacian;
        // 8-vertex mixed graph (power of two).
        let inst = dsbm(&DsbmParams {
            n: 8,
            k: 2,
            p_intra: 0.9,
            p_inter: 0.9,
            eta_flow: 1.0,
            seed: 3,
            ..DsbmParams::default()
        })
        .unwrap();
        let l = normalized_hermitian_laplacian(&inst.graph, 0.25);
        let eig = qsc_linalg::eigh(&l).unwrap();
        // Pick ν safely between eigenvalue 2 and 3 and require the gap to be
        // resolvable with t bits.
        let t = 7;
        let scale = 4.0;
        let nu = (eig.eigenvalues[1] + eig.eigenvalues[2]) / 2.0;
        let resolution = scale / (1 << t) as f64;
        if eig.eigenvalues[2] - eig.eigenvalues[1] < 4.0 * resolution {
            // Degenerate instance for this seed; the test premise needs a
            // resolvable gap. (Deterministic seed: this branch is stable.)
            return;
        }
        for vertex in 0..8 {
            let got = gate_level_projected_row(&l, vertex, t, scale, nu).unwrap();
            // Exact projection P = Σ_{λ_j ≤ ν} u_j u_j† applied to e_vertex.
            let mut expected = vec![qsc_linalg::C_ZERO; 8];
            for j in 0..8 {
                if eig.eigenvalues[j] <= nu {
                    let uj = eig.eigenvectors.col(j);
                    let coeff = uj[vertex].conj();
                    for (e, u) in expected.iter_mut().zip(&uj) {
                        *e += *u * coeff;
                    }
                }
            }
            let err: f64 = got
                .iter()
                .zip(&expected)
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f64>()
                .sqrt();
            assert!(err < 0.05, "vertex {vertex}: circuit vs exact err {err}");
        }
    }
}
