//! Pluggable execution backends for compiled circuits.
//!
//! The quantum stages *compile* their work into [`Circuit`] IR and hand it
//! to a [`Backend`] for execution. Four backends ship (see
//! `docs/BACKENDS.md` for the selection guide):
//!
//! * [`Statevector`] — exact, noiseless state-vector execution on the
//!   cache-blocked kernels; the default, and bit-identical to applying the
//!   ops directly.
//! * [`NoisyStatevector`] — the same execution with a per-gate depolarizing
//!   channel (Monte-Carlo Pauli insertion during [`Backend::run`]) and a
//!   per-bit readout-flip channel on measurement; its distribution-level
//!   methods degrade the exact statistics analytically. Seeded and
//!   deterministic: all randomness comes from the caller's RNG.
//! * [`DensityMatrix`](crate::density::DensityMatrix) — evolves the full
//!   density matrix `ρ` and applies the same two channels **exactly**
//!   through their Kraus operators: noise figures with no trajectory
//!   variance, at `O(4^n)` memory.
//! * [`ShotSampler`] — exact execution, but every *probability read* is
//!   replaced by finite-shot measurement statistics (`shots` draws), the
//!   regime a real device operates in.
//!
//! # Examples
//!
//! ```
//! use qsc_sim::backend::{Backend, NoisyStatevector, Statevector};
//! use qsc_sim::circuit::{Circuit, Op};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), qsc_sim::SimError> {
//! let mut bell = Circuit::new(2);
//! bell.push(Op::H(0))?;
//! bell.push(Op::Cnot { control: 0, target: 1 })?;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let ideal = Statevector::new();
//! let state = ideal.execute(&bell, 0, &mut rng)?;
//! assert!((state.probability(0b11) - 0.5).abs() < 1e-12);
//!
//! // The same circuit on a noisy device model: sampled outcomes now
//! // include readout errors.
//! let noisy = NoisyStatevector::new(0.01, 0.02);
//! let state = noisy.execute(&bell, 0, &mut rng)?;
//! let counts = noisy.sample(&state, 100, &mut rng)?;
//! assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), 100);
//! # Ok(())
//! # }
//! ```

use crate::circuit::Circuit;
use crate::error::SimError;
use crate::gates;
use crate::qpe::qpe_phase_distribution;
use crate::sampling::multinomial_counts;
use crate::state::QuantumState;
use rand::rngs::StdRng;
use rand::Rng;

/// Post-run norm-drift tolerance for pure-state backends. Circuits are
/// unitary, so drift beyond this indicates numerical corruption.
pub(crate) const NORM_DRIFT_TOL: f64 = 1e-6;

/// The `backend_run` fault-injection hook shared by every backend's
/// [`Backend::run`]: inside an armed [`qsc_fault::scope`] with a firing
/// plan this returns the typed injected error; otherwise it is a no-op.
pub(crate) fn injected_run_fault() -> Result<(), SimError> {
    if qsc_fault::should_fire(qsc_fault::FaultPoint::BackendRun) {
        Err(SimError::Injected {
            point: "backend_run",
        })
    } else {
        Ok(())
    }
}

/// Gate count of one `t`-bit QPE register pass (H wall, one controlled
/// power per bit, inverse QFT) — the depth proxy the noisy backend's
/// analytic depolarizing model uses.
pub fn qpe_register_gate_count(t: usize) -> usize {
    // H wall + controlled powers + inverse-QFT (cphases + swaps + H's).
    t + t + t * t.saturating_sub(1) / 2 + t / 2 + t
}

/// An execution backend: prepares states, runs compiled circuits,
/// and produces the measurement statistics every probability read in the
/// pipeline goes through.
///
/// # Contract
///
/// The execution lifecycle is **prepare → run → sample/read**, always
/// against the *same* backend instance:
///
/// 1. [`prepare`](Backend::prepare) hands out this backend's execution
///    representation of `|basis⟩`. For the statevector family that is a
///    plain `num_qubits`-qubit amplitude vector; the density-matrix backend
///    returns a *vectorized `ρ`* on `2·num_qubits` qubits (see
///    [`pure_state`](Backend::pure_state)). Treat the state as opaque
///    between calls — only this backend knows its layout.
/// 2. [`run`](Backend::run) executes a compiled [`Circuit`] on it,
///    applying whatever noise model the backend implements.
/// 3. [`sample`](Backend::sample) reads measurement statistics without
///    collapsing the state.
///
/// All randomness is drawn from the caller's RNG, so **every backend is
/// deterministic given a seed**; a backend that draws nothing (the exact
/// ones) must leave the RNG untouched. Implementations must be
/// `Send + Sync`: the batch runner shares one backend across worker
/// threads.
///
/// # Examples
///
/// The full lifecycle on the exact backend:
///
/// ```
/// use qsc_sim::backend::{Backend, Statevector};
/// use qsc_sim::circuit::{Circuit, Op};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), qsc_sim::SimError> {
/// let mut circuit = Circuit::new(2);
/// circuit.push(Op::H(0))?;
/// circuit.push(Op::Cnot { control: 0, target: 1 })?;
///
/// let backend = Statevector::new();
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut state = backend.prepare(2, 0);          // |00⟩
/// backend.run(&circuit, &mut state, &mut rng)?;   // Bell pair
/// let counts = backend.sample(&state, 100, &mut rng)?;
/// assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), 100);
/// # Ok(())
/// # }
/// ```
pub trait Backend: Send + Sync {
    /// Backend name used in reports and displays.
    fn name(&self) -> &'static str;

    /// Prepares the execution representation of the basis state
    /// `|basis_index⟩` on `num_qubits` qubits.
    ///
    /// The returned [`QuantumState`] belongs to *this* backend: pass it
    /// only into the same backend's [`run`](Backend::run) /
    /// [`sample`](Backend::sample). For
    /// backends with [`pure_state`](Backend::pure_state)` == false` it is
    /// not an `n`-qubit amplitude vector (the density backend stores
    /// `vec(ρ)` on `2n` qubits).
    ///
    /// # Panics
    ///
    /// Panics if `basis_index >= 2^num_qubits`.
    fn prepare(&self, num_qubits: usize, basis_index: usize) -> QuantumState;

    /// Budget-checked [`prepare`](Backend::prepare): estimates the
    /// register's memory footprint against the state budget (see
    /// [`crate::budget`]) *before* allocating, returning
    /// [`SimError::BudgetExceeded`] instead of aborting on an over-wide
    /// request. Backends with super-linear state (the density matrix's
    /// `4^n` vectorized `ρ`) override this with their own estimate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] for an over-budget register
    /// and [`SimError::InvalidParameter`] for an out-of-range basis index.
    fn try_prepare(&self, num_qubits: usize, basis_index: usize) -> Result<QuantumState, SimError> {
        crate::budget::check_allocation(
            crate::budget::register_amplitudes(num_qubits),
            self.name(),
        )?;
        if basis_index >= (1usize << num_qubits) {
            return Err(SimError::InvalidParameter {
                context: format!("basis index {basis_index} out of range for {num_qubits} qubits"),
            });
        }
        Ok(self.prepare(num_qubits, basis_index))
    }

    /// Executes a compiled circuit on a prepared state, applying this
    /// backend's noise model at the points its device analogue would
    /// (e.g. the noisy backends insert a depolarizing event per gate per
    /// touched qubit).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] on a register-width mismatch
    /// and propagates gate errors.
    fn run(
        &self,
        circuit: &Circuit,
        state: &mut QuantumState,
        rng: &mut StdRng,
    ) -> Result<(), SimError>;

    /// Draws `shots` full-register measurements (state not collapsed),
    /// returning sparse `(basis_state, count)` pairs through this backend's
    /// readout model.
    ///
    /// The counts always sum to `shots`; which outcomes appear depends on
    /// the backend (readout flips can populate outcomes outside the ideal
    /// support):
    ///
    /// ```
    /// use qsc_sim::backend::{Backend, NoisyStatevector};
    /// use qsc_sim::circuit::{Circuit, Op};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), qsc_sim::SimError> {
    /// let mut bell = Circuit::new(2);
    /// bell.push(Op::H(0))?;
    /// bell.push(Op::Cnot { control: 0, target: 1 })?;
    /// let backend = NoisyStatevector::new(0.0, 0.25); // readout flips only
    /// let mut rng = StdRng::seed_from_u64(5);
    /// let state = backend.execute(&bell, 0, &mut rng)?;
    /// let counts = backend.sample(&state, 1000, &mut rng)?;
    /// // The ideal support is {00, 11}; flips populate 01 and 10 too.
    /// assert!(counts.iter().any(|(m, _)| *m == 0b01 || *m == 0b10));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Local backends never fail here; [`SimError::Remote`] surfaces
    /// transport failures from the remote backend.
    fn sample(
        &self,
        state: &QuantumState,
        shots: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<(usize, usize)>, SimError>;

    /// `true` when this backend reproduces exact probabilities (no noise,
    /// no finite-shot resampling) — callers may then keep bit-exact fast
    /// paths (q-means skips its backend-noise route entirely when this
    /// holds).
    fn exact_statistics(&self) -> bool;

    /// `true` (the default) when the states this backend hands out are
    /// plain pure-state amplitude vectors that callers may inspect
    /// directly. The density-matrix backend returns `false`: its states
    /// are vectorized `ρ` buffers, and pure-state-only paths (the
    /// gate-level projection route) must reject it instead of misreading
    /// the buffer.
    fn pure_state(&self) -> bool {
        true
    }

    /// The widest phase register this backend can realize in
    /// [`phase_distribution`](Backend::phase_distribution), or `None` for
    /// no limit (the statevector family). The density-matrix backend's
    /// `O(4^t)` register evolution caps out; callers that know `t` up
    /// front (the QPE embedding stage) check this and return a typed
    /// error instead of running into the backend's memory-cap panic.
    fn phase_register_limit(&self) -> Option<usize> {
        None
    }

    /// Outcome distribution of a `t`-bit QPE phase register for one
    /// eigenphase `phi ∈ [0, 1)`, as this backend observes it — the
    /// distribution-level hook the pipeline's spectral filter reads
    /// instead of executing a full register circuit per eigenvalue.
    ///
    /// Exact backends return the closed-form Fejér kernel; `ShotSampler`
    /// resamples it into finite-shot frequencies; the noisy backends
    /// degrade it (approximately for `NoisyStatevector`, exactly for
    /// `DensityMatrix`). The result is always a probability vector of
    /// length `2^t`:
    ///
    /// ```
    /// use qsc_sim::backend::{Backend, Statevector};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), qsc_sim::SimError> {
    /// let mut rng = StdRng::seed_from_u64(1);
    /// // φ = 3/8 is exactly representable in 3 bits: all mass on m = 3.
    /// let dist = Statevector::new().phase_distribution(0.375, 3, &mut rng)?;
    /// assert_eq!(dist.len(), 8);
    /// assert!((dist[3] - 1.0).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Local backends never fail here; [`SimError::Remote`] surfaces
    /// transport failures from the remote backend.
    fn phase_distribution(
        &self,
        phi: f64,
        t: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, SimError>;

    /// How this backend observes a success probability `p ∈ [0, 1]`:
    /// exactly, through readout bias, or as a finite-shot frequency — the
    /// hook behind every scalar probability read (amplitude-estimation
    /// outcomes, q-means distance estimates).
    ///
    /// ```
    /// use qsc_sim::backend::{Backend, ShotSampler, Statevector};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), qsc_sim::SimError> {
    /// let mut rng = StdRng::seed_from_u64(2);
    /// assert_eq!(Statevector::new().estimate_probability(0.37, &mut rng)?, 0.37);
    /// // A finite-shot backend returns an empirical frequency instead.
    /// let est = ShotSampler::new(100).estimate_probability(0.37, &mut rng)?;
    /// assert_eq!(est, (est * 100.0).round() / 100.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Local backends never fail here; [`SimError::Remote`] surfaces
    /// transport failures from the remote backend.
    fn estimate_probability(&self, p: f64, rng: &mut StdRng) -> Result<f64, SimError>;

    /// Convenience: [`prepare`](Backend::prepare) then
    /// [`run`](Backend::run), returning the final state.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](Backend::run).
    fn execute(
        &self,
        circuit: &Circuit,
        basis_index: usize,
        rng: &mut StdRng,
    ) -> Result<QuantumState, SimError> {
        let mut state = self.prepare(circuit.num_qubits(), basis_index);
        self.run(circuit, &mut state, rng)?;
        Ok(state)
    }
}

/// Exact, noiseless state-vector execution — the default backend, and the
/// reference the others are validated against. Runs circuits verbatim
/// (bit-identical to applying the ops directly).
#[derive(Debug, Default)]
pub struct Statevector;

impl Statevector {
    /// The exact backend.
    pub fn new() -> Self {
        Self
    }
}

impl Backend for Statevector {
    fn name(&self) -> &'static str {
        "statevector"
    }

    fn prepare(&self, num_qubits: usize, basis_index: usize) -> QuantumState {
        QuantumState::basis_state(num_qubits, basis_index)
    }

    fn run(
        &self,
        circuit: &Circuit,
        state: &mut QuantumState,
        _rng: &mut StdRng,
    ) -> Result<(), SimError> {
        injected_run_fault()?;
        circuit.run(state)?;
        state.check_norm(NORM_DRIFT_TOL, self.name())
    }

    fn sample(
        &self,
        state: &QuantumState,
        shots: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<(usize, usize)>, SimError> {
        Ok(state.sample_counts(shots, rng))
    }

    fn exact_statistics(&self) -> bool {
        true
    }

    fn phase_distribution(
        &self,
        phi: f64,
        t: usize,
        _rng: &mut StdRng,
    ) -> Result<Vec<f64>, SimError> {
        Ok(qpe_phase_distribution(phi, t))
    }

    fn estimate_probability(&self, p: f64, _rng: &mut StdRng) -> Result<f64, SimError> {
        Ok(p)
    }
}

/// State-vector execution through a depolarizing + readout-error noise
/// model.
///
/// * During [`Backend::run`], every gate is followed by a Monte-Carlo
///   depolarizing event on each touched qubit: with probability
///   `depolarizing`, a uniformly random Pauli (X/Y/Z) is inserted.
/// * [`Backend::sample`] flips each readout bit independently with
///   probability `readout_flip`.
/// * The distribution-level methods apply the same two channels
///   analytically: the QPE register distribution is contracted toward
///   uniform by the survival probability of a [`qpe_register_gate_count`]
///   gate pass, then convolved with the per-bit flip channel.
///
/// With both probabilities zero this backend is exactly [`Statevector`]
/// (same results, same RNG stream — no draws are made).
#[derive(Debug)]
pub struct NoisyStatevector {
    /// Per-gate, per-touched-qubit depolarizing probability.
    pub depolarizing: f64,
    /// Per-bit readout flip probability.
    pub readout_flip: f64,
}

impl NoisyStatevector {
    /// Creates the noisy backend.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities lie in `[0, 1]`.
    pub fn new(depolarizing: f64, readout_flip: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&depolarizing) && (0.0..=1.0).contains(&readout_flip),
            "noise probabilities must lie in [0, 1]"
        );
        Self {
            depolarizing,
            readout_flip,
        }
    }

    fn depolarize(
        &self,
        state: &mut QuantumState,
        qubits: &[usize],
        rng: &mut StdRng,
    ) -> Result<(), SimError> {
        for &q in qubits {
            if rng.gen::<f64>() < self.depolarizing {
                let pauli = match rng.gen_range(0usize..3) {
                    0 => gates::x(),
                    1 => gates::y(),
                    _ => gates::z(),
                };
                state.apply_single(&pauli, q)?;
            }
        }
        Ok(())
    }
}

impl Backend for NoisyStatevector {
    fn name(&self) -> &'static str {
        "noisy_statevector"
    }

    fn prepare(&self, num_qubits: usize, basis_index: usize) -> QuantumState {
        QuantumState::basis_state(num_qubits, basis_index)
    }

    fn run(
        &self,
        circuit: &Circuit,
        state: &mut QuantumState,
        rng: &mut StdRng,
    ) -> Result<(), SimError> {
        injected_run_fault()?;
        if state.num_qubits() != circuit.num_qubits() {
            return Err(SimError::DimensionMismatch {
                context: format!(
                    "circuit on {} qubits, state on {}",
                    circuit.num_qubits(),
                    state.num_qubits()
                ),
            });
        }
        let all_qubits: Vec<usize> = (0..circuit.num_qubits()).collect();
        for op in circuit.ops() {
            op.apply(state)?;
            if self.depolarizing > 0.0 {
                let touched = if op.spans_register() {
                    all_qubits.clone()
                } else {
                    op.qubits()
                };
                self.depolarize(state, &touched, rng)?;
            }
        }
        state.check_norm(NORM_DRIFT_TOL, self.name())
    }

    fn sample(
        &self,
        state: &QuantumState,
        shots: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<(usize, usize)>, SimError> {
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..shots {
            let mut outcome = state.sample(rng);
            if self.readout_flip > 0.0 {
                for q in 0..state.num_qubits() {
                    if rng.gen::<f64>() < self.readout_flip {
                        outcome ^= 1usize << q;
                    }
                }
            }
            *counts.entry(outcome).or_insert(0usize) += 1;
        }
        Ok(counts.into_iter().collect())
    }

    fn exact_statistics(&self) -> bool {
        self.depolarizing == 0.0 && self.readout_flip == 0.0
    }

    fn phase_distribution(
        &self,
        phi: f64,
        t: usize,
        _rng: &mut StdRng,
    ) -> Result<Vec<f64>, SimError> {
        let mut probs = qpe_phase_distribution(phi, t);
        if self.depolarizing > 0.0 {
            // Depolarizing survival of the register pass mixes the ideal
            // distribution with the maximally mixed one.
            let survive = (1.0 - self.depolarizing).powi(qpe_register_gate_count(t) as i32);
            let uniform = (1.0 - survive) / probs.len() as f64;
            for p in &mut probs {
                *p = survive * *p + uniform;
            }
        }
        // Independent per-bit flips — the same classical readout channel
        // the density backend applies.
        crate::density::apply_readout_flips(&mut probs, self.readout_flip);
        Ok(probs)
    }

    fn estimate_probability(&self, p: f64, _rng: &mut StdRng) -> Result<f64, SimError> {
        if self.readout_flip == 0.0 {
            return Ok(p);
        }
        // A flipped readout reports the complementary outcome.
        Ok(p * (1.0 - self.readout_flip) + (1.0 - p) * self.readout_flip)
    }
}

/// Exact execution, finite-shot statistics: every probability read is
/// replaced by the empirical frequency over `shots` measurements — the
/// regime an actual device (or a decoder with a finite sample budget)
/// operates in. Estimates concentrate as `O(1/√shots)`.
#[derive(Debug)]
pub struct ShotSampler {
    /// Shots behind every probability estimate.
    pub shots: usize,
}

impl ShotSampler {
    /// Creates the sampler with a per-estimate shot budget.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn new(shots: usize) -> Self {
        assert!(shots > 0, "shot sampler needs at least one shot");
        Self { shots }
    }
}

impl Backend for ShotSampler {
    fn name(&self) -> &'static str {
        "shot_sampler"
    }

    fn prepare(&self, num_qubits: usize, basis_index: usize) -> QuantumState {
        QuantumState::basis_state(num_qubits, basis_index)
    }

    fn run(
        &self,
        circuit: &Circuit,
        state: &mut QuantumState,
        _rng: &mut StdRng,
    ) -> Result<(), SimError> {
        injected_run_fault()?;
        circuit.run(state)?;
        state.check_norm(NORM_DRIFT_TOL, self.name())
    }

    fn sample(
        &self,
        state: &QuantumState,
        shots: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<(usize, usize)>, SimError> {
        Ok(state.sample_counts(shots, rng))
    }

    fn exact_statistics(&self) -> bool {
        false
    }

    fn phase_distribution(
        &self,
        phi: f64,
        t: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, SimError> {
        let ideal = qpe_phase_distribution(phi, t);
        Ok(multinomial_counts(&ideal, self.shots, rng)
            .into_iter()
            .map(|c| c as f64 / self.shots as f64)
            .collect())
    }

    fn estimate_probability(&self, p: f64, rng: &mut StdRng) -> Result<f64, SimError> {
        let mut hits = 0usize;
        for _ in 0..self.shots {
            if rng.gen::<f64>() < p {
                hits += 1;
            }
        }
        Ok(hits as f64 / self.shots as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Op;
    use rand::SeedableRng;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Op::H(0)).unwrap();
        c.push(Op::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        c
    }

    #[test]
    fn statevector_matches_direct_execution() {
        let c = bell();
        let backend = Statevector::new();
        let mut rng = StdRng::seed_from_u64(1);
        let via_backend = backend.execute(&c, 0, &mut rng).unwrap();
        let mut direct = QuantumState::zero_state(2);
        c.run(&mut direct).unwrap();
        assert_eq!(via_backend.amplitudes(), direct.amplitudes());
    }

    #[test]
    fn zero_noise_equals_ideal_including_rng_stream() {
        let c = bell();
        let ideal = Statevector::new();
        let noisy = NoisyStatevector::new(0.0, 0.0);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let a = ideal.execute(&c, 0, &mut rng_a).unwrap();
        let b = noisy.execute(&c, 0, &mut rng_b).unwrap();
        assert_eq!(a.amplitudes(), b.amplitudes());
        // No draws were made by either backend.
        assert_eq!(rng_a, rng_b);
        assert!(noisy.exact_statistics());
    }

    #[test]
    fn depolarizing_noise_perturbs_the_state_deterministically() {
        let c = bell();
        let noisy = NoisyStatevector::new(0.3, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let a = noisy.execute(&c, 0, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let b = noisy.execute(&c, 0, &mut rng).unwrap();
        assert_eq!(a.amplitudes(), b.amplitudes(), "seeded determinism");
        // Norm is preserved (Pauli insertions are unitary).
        assert!((a.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_flips_move_counts_off_the_support() {
        // Bell state: ideal outcomes are only 00 and 11; readout errors
        // must populate 01/10.
        let c = bell();
        let noisy = NoisyStatevector::new(0.0, 0.25);
        let mut rng = StdRng::seed_from_u64(5);
        let state = noisy.execute(&c, 0, &mut rng).unwrap();
        let counts = noisy.sample(&state, 4000, &mut rng).unwrap();
        let off_support: usize = counts
            .iter()
            .filter(|(m, _)| *m == 0b01 || *m == 0b10)
            .map(|(_, c)| *c)
            .sum();
        // Expected ≈ 2·0.25·0.75 = 37.5% of shots.
        assert!(
            (off_support as f64 / 4000.0 - 0.375).abs() < 0.05,
            "off-support fraction {off_support}"
        );
    }

    #[test]
    fn noisy_phase_distribution_flattens_toward_uniform() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = 4;
        let ideal = Statevector::new()
            .phase_distribution(0.25, t, &mut rng)
            .unwrap();
        let noisy = NoisyStatevector::new(0.05, 0.0)
            .phase_distribution(0.25, t, &mut rng)
            .unwrap();
        let peak = |d: &[f64]| d.iter().cloned().fold(0.0, f64::max);
        assert!(peak(&noisy) < peak(&ideal));
        assert!((noisy.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Zero noise reproduces the ideal distribution exactly.
        let zero = NoisyStatevector::new(0.0, 0.0)
            .phase_distribution(0.25, t, &mut rng)
            .unwrap();
        assert_eq!(zero, ideal);
    }

    #[test]
    fn shot_sampler_statistics_concentrate_with_shots() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = 3;
        let ideal = qpe_phase_distribution(0.3, t);
        let l1 = |shots: usize, rng: &mut StdRng| {
            let emp = ShotSampler::new(shots)
                .phase_distribution(0.3, t, rng)
                .unwrap();
            emp.iter()
                .zip(&ideal)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        };
        let coarse: f64 = (0..20).map(|_| l1(32, &mut rng)).sum::<f64>() / 20.0;
        let fine: f64 = (0..20).map(|_| l1(8192, &mut rng)).sum::<f64>() / 20.0;
        assert!(
            fine < coarse / 3.0,
            "finite-shot error should shrink: {coarse} vs {fine}"
        );
    }

    /// The per-shot scan-and-count loop `ShotSampler::phase_distribution`
    /// ran before it used [`multinomial_counts`].
    fn phase_distribution_scanned(shots: usize, phi: f64, t: usize, rng: &mut StdRng) -> Vec<f64> {
        let ideal = qpe_phase_distribution(phi, t);
        let mut counts = vec![0usize; ideal.len()];
        for _ in 0..shots {
            let mut target = rng.gen::<f64>();
            let mut chosen = ideal.len() - 1;
            for (m, &p) in ideal.iter().enumerate() {
                if target < p {
                    chosen = m;
                    break;
                }
                target -= p;
            }
            counts[chosen] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / shots as f64)
            .collect()
    }

    #[test]
    fn shot_sampler_phase_distribution_matches_the_per_shot_scan() {
        for (case, shots) in [1usize, 16, 64, 1024, 5000].into_iter().enumerate() {
            for t in 0..=7 {
                for phi in [0.0, 0.3, 0.5, 0.71, 0.999] {
                    let seed = (case * 100 + t) as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut oracle_rng = StdRng::seed_from_u64(seed);
                    let got = ShotSampler::new(shots)
                        .phase_distribution(phi, t, &mut rng)
                        .unwrap();
                    let want = phase_distribution_scanned(shots, phi, t, &mut oracle_rng);
                    assert_eq!(got, want, "shots {shots}, t {t}, phi {phi}");
                    assert!(rng == oracle_rng, "shots {shots}, t {t}, phi {phi}");
                }
            }
        }
    }

    #[test]
    fn shot_sampler_probability_estimates_are_frequencies() {
        let backend = ShotSampler::new(1000);
        let mut rng = StdRng::seed_from_u64(8);
        let est = backend.estimate_probability(0.37, &mut rng).unwrap();
        assert!((est - 0.37).abs() < 0.06, "estimate {est}");
        assert!((est * 1000.0).round() / 1000.0 == est, "a /shots frequency");
        assert!(!backend.exact_statistics());
    }

    #[test]
    fn backends_are_object_safe_and_named() {
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(Statevector::new()),
            Box::new(NoisyStatevector::new(0.01, 0.01)),
            Box::new(ShotSampler::new(64)),
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for b in &backends {
            assert!(!b.name().is_empty());
            let state = b.execute(&bell(), 0, &mut rng).unwrap();
            assert!((state.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gate_count_model_is_monotone() {
        assert!(qpe_register_gate_count(1) > 0);
        for t in 1..10 {
            assert!(qpe_register_gate_count(t + 1) > qpe_register_gate_count(t));
        }
    }
}
