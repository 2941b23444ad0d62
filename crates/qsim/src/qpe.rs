//! Quantum phase estimation, in two cross-validated flavours:
//!
//! * [`qpe_gate_level`] — the real circuit, *compiled then executed*: the
//!   [`qpe_circuit`] compiler emits the Hadamard wall, the diagonalized
//!   controlled-power cascade and the inverse QFT as
//!   [`Circuit`] IR, which runs on the state
//!   vector (or any [`Backend`](crate::backend::Backend)). Used for
//!   validation and small systems.
//! * [`qpe_phase_distribution`] / [`PhaseEstimator`] — the analytic outcome
//!   distribution of that circuit (the Fejér/sinc² kernel), used by the
//!   pipeline at sizes where a full register would be wasteful. The two
//!   paths agree to machine precision (ablation A2).

use crate::circuit::{Circuit, Op};
use crate::error::SimError;
use crate::state::QuantumState;
use qsc_linalg::eig::{eig_unitary, UnitaryEigen};
use qsc_linalg::{CMatrix, C_ZERO};
use std::f64::consts::PI;
use std::sync::Arc;

/// Runs gate-level QPE: given a unitary `u` on `s` qubits (dimension
/// `2^s`) and an input system state, returns the final joint state with the
/// `t`-bit phase register in the **high** qubits.
///
/// Reading the high register as an integer `m` estimates any eigenphase
/// `φ ∈ [0, 1)` of `u` (with `u|ψ⟩ = e^{2πiφ}|ψ⟩`) present in the input as
/// `φ ≈ m/2^t`.
///
/// The gate-level oracle for [`qpe_phase_distribution`], the analytic
/// distribution the quantum embedding samples its eigenvalues from.
///
/// # Errors
///
/// * [`SimError::DimensionMismatch`] if `u` does not match the input state.
/// * [`SimError::NotUnitary`] if `u` fails a unitarity check.
/// * [`SimError::InvalidParameter`] if `t == 0`.
pub fn qpe_gate_level(
    u: &CMatrix,
    input: &QuantumState,
    t: usize,
) -> Result<QuantumState, SimError> {
    if t == 0 {
        return Err(SimError::InvalidParameter {
            context: "QPE needs at least one phase bit".into(),
        });
    }
    if u.nrows() != input.dim() {
        return Err(SimError::DimensionMismatch {
            context: format!("unitary dim {} vs state dim {}", u.nrows(), input.dim()),
        });
    }
    if !u.is_unitary(1e-8) {
        let dev = (&u.adjoint().matmul(u) - &CMatrix::identity(u.nrows())).max_norm();
        return Err(SimError::NotUnitary { deviation: dev });
    }

    // Eigendecompose U once; the whole cascade of controlled powers then
    // collapses into two block rotations and one diagonal phase pass. A
    // matrix that slips past the unitarity gate but fails to diagonalize
    // falls back to the reference construction.
    match eig_unitary(u) {
        Ok(eig) => {
            let circuit = qpe_circuit(&eig, t)?;
            let mut state = embed_system(input, t);
            circuit.run(&mut state)?;
            Ok(state)
        }
        Err(_) => qpe_gate_level_repeated_squaring(u, input, t),
    }
}

/// Compiles the QPE circuit for a pre-diagonalized unitary
/// `U = V·diag(e^{iθ})·V†` on `s` system qubits (where `2^s = eig.dim()`)
/// with a `t`-bit phase register above it: the Hadamard wall, the
/// controlled-power cascade in its diagonalized form
/// (`V†`-rotation, [`Op::PhaseCascade`], `V`-rotation), and the inverse
/// QFT.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] if `t == 0` or the
/// eigendecomposition's dimension is not a power of two.
pub fn qpe_circuit(eig: &UnitaryEigen, t: usize) -> Result<Circuit, SimError> {
    if t == 0 {
        return Err(SimError::InvalidParameter {
            context: "QPE needs at least one phase bit".into(),
        });
    }
    if !eig.dim().is_power_of_two() {
        return Err(SimError::InvalidParameter {
            context: format!(
                "eigendecomposition dimension {} not a power of two",
                eig.dim()
            ),
        });
    }
    let s = eig.dim().trailing_zeros() as usize;
    let mut c = Circuit::new(s + t);
    for j in 0..t {
        c.push(Op::H(s + j))?;
    }
    push_phase_cascade_ops(&mut c, eig, 1.0)?;
    c.push_inverse_qft(s..s + t)?;
    Ok(c)
}

/// Appends the diagonalized controlled-power cascade
/// `(I ⊗ V) · Φ^sign · (I ⊗ V†)` to a circuit as three ops.
///
/// # Errors
///
/// Propagates [`Circuit::push`] validation errors.
pub fn push_phase_cascade_ops(
    c: &mut Circuit,
    eig: &UnitaryEigen,
    sign: f64,
) -> Result<(), SimError> {
    let s = eig.dim().trailing_zeros() as usize;
    c.push(Op::BlockUnitary {
        control: None,
        matrix: Arc::new(eig.eigenvectors.adjoint()),
    })?;
    c.push(Op::PhaseCascade {
        block_qubits: s,
        phases: Arc::new(eig.phases.clone()),
        sign,
    })?;
    c.push(Op::BlockUnitary {
        control: None,
        matrix: Arc::new(eig.eigenvectors.clone()),
    })?;
    Ok(())
}

/// Compiles the reference QPE construction: controlled powers `U^{2^j}`
/// materialized by repeated matrix squaring, one [`Op::BlockUnitary`] per
/// phase bit. `2^s = u.nrows()` system qubits, `t` phase bits above. The
/// circuit behind [`qpe_gate_level_repeated_squaring`].
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] if `t == 0` and
/// [`SimError::DimensionMismatch`] for a non-power-of-two unitary.
pub fn qpe_circuit_repeated_squaring(u: &CMatrix, t: usize) -> Result<Circuit, SimError> {
    if t == 0 {
        return Err(SimError::InvalidParameter {
            context: "QPE needs at least one phase bit".into(),
        });
    }
    if !u.is_square() || !u.nrows().is_power_of_two() {
        return Err(SimError::DimensionMismatch {
            context: format!(
                "QPE unitary must be square power-of-two, got {}×{}",
                u.nrows(),
                u.ncols()
            ),
        });
    }
    let s = u.nrows().trailing_zeros() as usize;
    let mut c = Circuit::new(s + t);
    for j in 0..t {
        c.push(Op::H(s + j))?;
    }
    let mut power = u.clone();
    for j in 0..t {
        c.push(Op::BlockUnitary {
            control: Some(s + j),
            matrix: Arc::new(power.clone()),
        })?;
        if j + 1 < t {
            power = power.matmul(&power);
        }
    }
    c.push_inverse_qft(s..s + t)?;
    Ok(c)
}

/// Embeds a system state into a joint register with `t` zeroed phase qubits
/// above it.
fn embed_system(input: &QuantumState, t: usize) -> QuantumState {
    let mut amps = vec![C_ZERO; input.dim() << t];
    amps[..input.dim()].copy_from_slice(input.amplitudes());
    QuantumState::from_amplitudes(amps).expect("power-of-two, non-zero")
}

/// The reference gate-level QPE construction: controlled powers `U^{2^j}`
/// materialized by repeated matrix squaring and applied one phase bit at a
/// time.
///
/// Kept (and exercised by the regression tests) as the behavioral reference
/// for [`qpe_gate_level`], and used as its fallback when the unitary
/// eigendecomposition fails.
///
/// # Errors
///
/// Same contract as [`qpe_gate_level`].
pub fn qpe_gate_level_repeated_squaring(
    u: &CMatrix,
    input: &QuantumState,
    t: usize,
) -> Result<QuantumState, SimError> {
    if t == 0 {
        return Err(SimError::InvalidParameter {
            context: "QPE needs at least one phase bit".into(),
        });
    }
    if u.nrows() != input.dim() {
        return Err(SimError::DimensionMismatch {
            context: format!("unitary dim {} vs state dim {}", u.nrows(), input.dim()),
        });
    }
    if !u.is_unitary(1e-8) {
        let dev = (&u.adjoint().matmul(u) - &CMatrix::identity(u.nrows())).max_norm();
        return Err(SimError::NotUnitary { deviation: dev });
    }
    // Controlled-U^{2^j} with control = phase qubit j. Powers are computed
    // by repeated squaring of the matrix (the simulator's privilege).
    let circuit = qpe_circuit_repeated_squaring(u, t)?;
    let mut state = embed_system(input, t);
    circuit.run(&mut state)?;
    Ok(state)
}

/// Probability distribution over the `2^t` outcomes of the QPE phase
/// register for a single eigenphase `φ ∈ [0, 1)`: the Fejér kernel
/// `p(m) = |sin(π·2^t·Δ)|² / (4^t·|sin(π·Δ)|²)` with `Δ = φ − m/2^t`.
pub fn qpe_phase_distribution(phi: f64, t: usize) -> Vec<f64> {
    let size = 1usize << t;
    let nf = size as f64;
    let mut probs = vec![0.0; size];
    for (m, p) in probs.iter_mut().enumerate() {
        let delta = phi - m as f64 / nf;
        // Wrap Δ to the nearest integer offset (phases are mod 1).
        let delta = delta - delta.round();
        let denom = (PI * delta).sin();
        *p = if denom.abs() < 1e-12 {
            1.0
        } else {
            let num = (PI * nf * delta).sin();
            (num * num) / (nf * nf * denom * denom)
        };
    }
    // Guard against accumulated rounding.
    let total: f64 = probs.iter().sum();
    if total > 0.0 {
        for p in &mut probs {
            *p /= total;
        }
    }
    probs
}

/// Deterministic `t`-bit rounding of a phase — the modal QPE outcome.
pub fn qpe_round_phase(phi: f64, t: usize) -> f64 {
    let size = (1usize << t) as f64;
    let m = (phi * size).round().rem_euclid(size);
    m / size
}

/// Eigenvalue estimator for a Hermitian operator via QPE on
/// `U = e^{i·2π·H/scale}`: eigenvalue `λ` maps to phase `φ = λ/scale`, so
/// `scale` must exceed the largest eigenvalue to avoid wraparound (for the
/// normalized Hermitian Laplacian, whose spectrum lies in `[0, 2]`, the
/// pipeline uses `scale = 4`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseEstimator {
    /// Eigenvalue-to-phase scale (`φ = λ/scale`).
    pub scale: f64,
    /// Number of phase-register bits.
    pub t: usize,
}

impl PhaseEstimator {
    /// Creates an estimator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `scale ≤ 0` or `t == 0`.
    pub fn new(scale: f64, t: usize) -> Result<Self, SimError> {
        // `!(x > 0.0)` (rather than `x <= 0.0`) deliberately rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(scale > 0.0) {
            return Err(SimError::InvalidParameter {
                context: format!("scale = {scale} must be positive"),
            });
        }
        if t == 0 {
            return Err(SimError::InvalidParameter {
                context: "t must be positive".into(),
            });
        }
        Ok(Self { scale, t })
    }

    /// Eigenvalue resolution `scale/2^t` of the estimator.
    pub fn resolution(&self) -> f64 {
        self.scale / (1u64 << self.t) as f64
    }

    /// Deterministic `t`-bit rounding of the eigenvalue (modal outcome).
    pub fn round(&self, lambda: f64) -> f64 {
        qpe_round_phase(lambda / self.scale, self.t) * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_linalg::expm::expi;
    use qsc_linalg::Complex64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::TAU;

    #[test]
    fn exact_phase_is_recovered_deterministically() {
        // U = diag(1, e^{2πi·3/8}): eigenstate |1⟩ has φ = 3/8, exactly
        // representable with t = 3 bits.
        let u = CMatrix::from_diag(&[Complex64::real(1.0), Complex64::cis(TAU * 3.0 / 8.0)]);
        let input = QuantumState::basis_state(1, 1);
        let out = qpe_gate_level(&u, &input, 3).unwrap();
        let probs = out.marginal_high(3);
        assert!((probs[3] - 1.0).abs() < 1e-9, "distribution {probs:?}");
    }

    #[test]
    fn superposed_eigenstates_give_both_peaks() {
        let u = CMatrix::from_diag(&[
            Complex64::cis(TAU * 1.0 / 4.0),
            Complex64::cis(TAU * 3.0 / 4.0),
        ]);
        let input = QuantumState::from_amplitudes(vec![Complex64::real(1.0), Complex64::real(1.0)])
            .unwrap();
        let out = qpe_gate_level(&u, &input, 2).unwrap();
        let probs = out.marginal_high(2);
        assert!((probs[1] - 0.5).abs() < 1e-9);
        assert!((probs[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gate_level_matches_analytic_distribution() {
        // Non-representable phase: compare the full leakage profile.
        let phi = 0.3137;
        let t = 4;
        let u = CMatrix::from_diag(&[Complex64::cis(TAU * phi)]);
        // 1-dimensional system = 0 system qubits; embed in 1 qubit instead.
        let u2 = CMatrix::from_diag(&[Complex64::real(1.0), Complex64::cis(TAU * phi)]);
        let input = QuantumState::basis_state(1, 1);
        let out = qpe_gate_level(&u2, &input, t).unwrap();
        let got = out.marginal_high(t);
        let expected = qpe_phase_distribution(phi, t);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-9, "gate {g} vs analytic {e}");
        }
        let _ = u;
    }

    #[test]
    fn qpe_on_random_hermitian_eigenstate() {
        let mut rng = StdRng::seed_from_u64(17);
        let h = CMatrix::random_hermitian(4, &mut rng);
        let eig = qsc_linalg::eigh(&h).unwrap();
        // Scale so all phases are in [0, 1).
        let span = eig.eigenvalues[3] - eig.eigenvalues[0] + 1.0;
        let shifted = CMatrix::from_fn(4, 4, |i, j| {
            if i == j {
                h[(i, j)] - Complex64::real(eig.eigenvalues[0])
            } else {
                h[(i, j)]
            }
        });
        let u = expi(&shifted, TAU / span).unwrap();
        let v = eig.eigenvectors.col(2);
        let input = QuantumState::from_amplitudes(v).unwrap();
        let t = 6;
        let out = qpe_gate_level(&u, &input, t).unwrap();
        let probs = out.marginal_high(t);
        // The modal outcome must be within one bin of the true phase.
        let (mode, _) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let true_phi = (eig.eigenvalues[2] - eig.eigenvalues[0]) / span;
        let got_phi = mode as f64 / (1 << t) as f64;
        assert!(
            (got_phi - true_phi).abs() < 1.0 / (1 << t) as f64,
            "mode {got_phi} vs true {true_phi}"
        );
    }

    #[test]
    fn analytic_distribution_sums_to_one_and_peaks_nearby() {
        for &phi in &[0.0, 0.1, 0.49, 0.731] {
            for t in 1..=8 {
                let probs = qpe_phase_distribution(phi, t);
                let total: f64 = probs.iter().sum();
                assert!((total - 1.0).abs() < 1e-9);
                let (mode, _) = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
                let diff = (mode as f64 / (1 << t) as f64 - phi).abs();
                let wrapped = diff.min(1.0 - diff);
                assert!(wrapped <= 1.0 / (1 << t) as f64 + 1e-12);
            }
        }
    }

    #[test]
    fn estimator_round_and_resolution() {
        let est = PhaseEstimator::new(4.0, 3).unwrap();
        assert!((est.resolution() - 0.5).abs() < 1e-12);
        assert!((est.round(1.1) - 1.0).abs() < 1e-12);
        assert!((est.round(1.3) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn estimator_rejects_bad_params() {
        assert!(PhaseEstimator::new(0.0, 3).is_err());
        assert!(PhaseEstimator::new(4.0, 0).is_err());
    }

    #[test]
    fn qpe_rejects_bad_inputs() {
        let u = CMatrix::identity(2);
        let input = QuantumState::zero_state(1);
        assert!(qpe_gate_level(&u, &input, 0).is_err());
        let u3 = CMatrix::identity(4);
        assert!(qpe_gate_level(&u3, &input, 2).is_err());
        let not_unitary = CMatrix::from_diag(&[Complex64::real(2.0), Complex64::real(1.0)]);
        assert!(qpe_gate_level(&not_unitary, &input, 2).is_err());
    }
}
