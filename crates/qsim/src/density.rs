//! Exact density-matrix execution: the [`DensityMatrix`] backend evolves
//! `ρ` under the circuit IR and applies the depolarizing and readout-flip
//! channels **exactly** through their Kraus operators, so every noise
//! figure it produces is an expectation value — no Monte-Carlo trajectory
//! variance, no averaging over repetitions.
//!
//! # Representation
//!
//! `ρ` is stored row-major as a flat buffer of `4^n` amplitudes: entry
//! `ρ[r][c]` lives at flat index `r·2^n + c`. That buffer is carried inside
//! a [`QuantumState`] on `2n` qubits (the vectorization `vec(ρ)`), which
//! lets the backend reuse the state plumbing of the [`Backend`] trait: a
//! unitary `U` acts as `vec(ρ) → (U ⊗ U*) vec(ρ)`, i.e. `U` applied to the
//! row bits (flat bits `n..2n`) and `U*` to the column bits (flat bits
//! `0..n`). The state returned by [`Backend::prepare`] is this
//! execution representation — it is **not** a pure state on `n` qubits, so
//! only hand it back into the same backend (see [`Backend::pure_state`]).
//!
//! # Noise channels
//!
//! * **Depolarizing** (per gate, per touched qubit, probability `p`):
//!   `ρ → (1−p)ρ + (p/3)(XρX + YρY + ZρZ)` — exactly the channel whose
//!   trajectories [`NoisyStatevector`](crate::backend::NoisyStatevector)
//!   samples (with probability `p` insert a uniformly random Pauli).
//!   Averaging the noisy backend's trajectories over seeds converges to
//!   this backend's `ρ` at the Monte-Carlo `O(1/√trajectories)` rate; the
//!   convergence is pinned by `tests/noise_convergence.rs`.
//! * **Readout flips** (per bit, probability `e`): applied analytically to
//!   the outcome distribution `diag(ρ)` as one pairwise convolution per
//!   bit, the classical Kraus channel of a biased readout.
//!
//! With both probabilities zero the backend short-circuits every
//! distribution-level read to the same closed forms the
//! [`Statevector`](crate::backend::Statevector) backend uses, so its
//! zero-noise distributions are **bit-exact** — not merely close — and
//! [`Backend::exact_statistics`] reports `true`.
//!
//! Memory is `O(4^n)` and gate cost `O(4^n)` per local gate (against the
//! statevector's `O(2^n)`), which is the price of exactness: use it for
//! noise-model ground truth on small registers, and the trajectory backend
//! when the register outgrows it (see `docs/BACKENDS.md`).

use crate::backend::Backend;
use crate::circuit::{Circuit, Mat2, Op};
use crate::error::SimError;
use crate::gates;
use crate::qpe::qpe_phase_distribution;
use crate::sampling::multinomial_counts;
use crate::state::{apply2_flat, apply_controlled2_flat, swap_bits_flat, QuantumState};
use qsc_linalg::{CMatrix, Complex64, C_ONE, C_ZERO};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::TAU;

/// Hard cap on the register width: `4^n` amplitudes at 16 bytes each puts
/// 13 qubits at ~1 GiB, the practical ceiling of an exact-`ρ` simulation.
const MAX_DENSITY_QUBITS: usize = 13;

/// Exact noise-channel execution on the full density matrix — the
/// ground-truth counterpart of the Monte-Carlo
/// [`NoisyStatevector`](crate::backend::NoisyStatevector).
///
/// See the [module docs](self) for the representation and channel
/// definitions, and `docs/BACKENDS.md` for when to choose it.
#[derive(Debug)]
pub struct DensityMatrix {
    /// Per-gate, per-touched-qubit depolarizing probability.
    pub depolarizing: f64,
    /// Per-bit readout flip probability.
    pub readout_flip: f64,
}

impl DensityMatrix {
    /// Creates the exact-noise backend.
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

    /// The exact measurement distribution of an executed state: `diag(ρ)`
    /// pushed through the readout-flip channel — what [`Backend::sample`]
    /// draws its shots from, exposed so callers can read the noisy
    /// distribution with **no sampling at all**.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a vectorized `ρ` from this backend's
    /// [`Backend::prepare`] (odd qubit count).
    pub fn outcome_distribution(&self, state: &QuantumState) -> Vec<f64> {
        let n = vectorized_width(state);
        let d = 1usize << n;
        let amps = state.amplitudes();
        let mut probs: Vec<f64> = (0..d).map(|m| amps[m * d + m].re.max(0.0)).collect();
        apply_readout_flips(&mut probs, self.readout_flip);
        let total: f64 = probs.iter().sum();
        if total > 0.0 {
            for p in &mut probs {
                *p /= total;
            }
        }
        probs
    }

    /// The purity `tr(ρ²)` of an executed state — 1 for pure states,
    /// decreasing toward `1/2^n` as the depolarizing channel mixes it.
    pub fn purity(&self, state: &QuantumState) -> f64 {
        state.amplitudes().iter().map(|a| a.norm_sqr()).sum()
    }
}

/// The [`MAX_DENSITY_QUBITS`] cap as a typed budget error.
fn check_register_cap(num_qubits: usize) -> Result<(), SimError> {
    if num_qubits > MAX_DENSITY_QUBITS {
        return Err(SimError::BudgetExceeded {
            requested_bytes: crate::budget::register_amplitudes(2 * num_qubits)
                .saturating_mul(crate::budget::AMP_BYTES),
            budget_bytes: crate::budget::register_amplitudes(2 * MAX_DENSITY_QUBITS)
                .saturating_mul(crate::budget::AMP_BYTES),
            context: format!(
                "density-matrix register of {num_qubits} qubits exceeds the \
                 {MAX_DENSITY_QUBITS}-qubit cap (O(4^n) memory)"
            ),
        });
    }
    Ok(())
}

/// System width `n` of a vectorized `ρ` carried on `2n` qubits.
fn vectorized_width(state: &QuantumState) -> usize {
    let q = state.num_qubits();
    assert!(
        q.is_multiple_of(2),
        "state on {q} qubits is not a vectorized density matrix"
    );
    q / 2
}

/// Pushes a probability vector through independent per-bit readout flips
/// (one pairwise convolution per bit) — the shared classical readout
/// channel of the noisy backends.
pub(crate) fn apply_readout_flips(probs: &mut [f64], e: f64) {
    if e <= 0.0 {
        return;
    }
    let bits = probs.len().trailing_zeros() as usize;
    for b in 0..bits {
        let bit = 1usize << b;
        let prev = probs.to_vec();
        for (m, p) in probs.iter_mut().enumerate() {
            *p = (1.0 - e) * prev[m] + e * prev[m ^ bit];
        }
    }
}

/// A mutable view of `vec(ρ)` with the superoperator kernels on it.
struct Rho<'a> {
    buf: &'a mut [Complex64],
    /// System qubits (`ρ` is `2^n × 2^n`).
    n: usize,
}

impl Rho<'_> {
    fn dim(&self) -> usize {
        1usize << self.n
    }

    /// `ρ → U ρ U†` for a single-qubit gate on `q`: `U` on the row bit,
    /// `U*` on the column bit.
    fn gate1(&mut self, g: &Mat2, q: usize) {
        apply2_flat(self.buf, g, 1usize << (q + self.n));
        apply2_flat(self.buf, &conj2(g), 1usize << q);
    }

    /// Controlled `ρ → CU ρ CU†` (`conj(CU)` is `conj(U)` under the same
    /// control).
    fn cgate1(&mut self, g: &Mat2, control: usize, target: usize) {
        apply_controlled2_flat(
            self.buf,
            g,
            1usize << (control + self.n),
            1usize << (target + self.n),
        );
        apply_controlled2_flat(self.buf, &conj2(g), 1usize << control, 1usize << target);
    }

    /// Applies one circuit op as a superoperator.
    fn apply_op(&mut self, op: &Op) -> Result<(), SimError> {
        match *op {
            Op::H(q) => self.gate1(&gates::h(), q),
            Op::X(q) => self.gate1(&gates::x(), q),
            Op::Y(q) => self.gate1(&gates::y(), q),
            Op::Z(q) => self.gate1(&gates::z(), q),
            Op::S(q) => self.gate1(&gates::s(), q),
            Op::T(q) => self.gate1(&gates::t(), q),
            Op::Phase { target, theta } => self.gate1(&gates::phase(theta), target),
            Op::Rz { target, theta } => self.gate1(&gates::rz(theta), target),
            Op::Ry { target, theta } => self.gate1(&gates::ry(theta), target),
            Op::Gate1 { target, ref matrix } => self.gate1(matrix, target),
            Op::Cnot { control, target } => self.cgate1(&gates::x(), control, target),
            Op::CPhase {
                control,
                target,
                theta,
            } => self.cgate1(&gates::phase(theta), control, target),
            Op::Swap(a, b) => {
                swap_bits_flat(self.buf, 1usize << (a + self.n), 1usize << (b + self.n));
                swap_bits_flat(self.buf, 1usize << a, 1usize << b);
            }
            Op::BlockUnitary {
                control,
                ref matrix,
            } => self.block_unitary(matrix, control)?,
            Op::PhaseCascade {
                block_qubits,
                ref phases,
                sign,
            } => self.phase_cascade(block_qubits, phases, sign)?,
        }
        Ok(())
    }

    /// `ρ → (U_blk ⊕ control) ρ (…)†` for a block unitary on the low `s`
    /// qubits: left pass over row blocks (stride-`d` gathers), right pass
    /// over the contiguous column blocks with `U*`.
    fn block_unitary(&mut self, u: &CMatrix, control: Option<usize>) -> Result<(), SimError> {
        let block = u.nrows();
        let d = self.dim();
        if !u.is_square() || !block.is_power_of_two() || block > d {
            return Err(SimError::DimensionMismatch {
                context: format!(
                    "block unitary {}×{} on a density matrix of dim {d}",
                    u.nrows(),
                    u.ncols()
                ),
            });
        }
        let s = block.trailing_zeros() as usize;
        let control_bit = control.map(|c| 1usize << c);
        let mut scratch = vec![C_ZERO; block];

        // Left: rows r = rh·2^s + rl; for fixed (rh, c) the block entries
        // sit at stride d. Ascending-k accumulation matches the pure-state
        // per-block path.
        for rh in 0..(d >> s) {
            let r_base = rh << s;
            if let Some(cb) = control_bit {
                if r_base & cb == 0 {
                    continue;
                }
            }
            for c in 0..d {
                let base = r_base * d + c;
                for (i, slot) in scratch.iter_mut().enumerate() {
                    let row = u.row(i);
                    let mut acc = C_ZERO;
                    for (k, x) in row.iter().enumerate() {
                        acc += *x * self.buf[base + k * d];
                    }
                    *slot = acc;
                }
                for (i, slot) in scratch.iter().enumerate() {
                    self.buf[base + i * d] = *slot;
                }
            }
        }

        // Right: columns c = ch·2^s + cl are contiguous runs; apply U*.
        for r in 0..d {
            for ch in 0..(d >> s) {
                let c_base = ch << s;
                if let Some(cb) = control_bit {
                    if c_base & cb == 0 {
                        continue;
                    }
                }
                let run = &mut self.buf[r * d + c_base..r * d + c_base + block];
                for (i, slot) in scratch.iter_mut().enumerate() {
                    let row = u.row(i);
                    let mut acc = C_ZERO;
                    for (k, x) in row.iter().enumerate() {
                        acc += x.conj() * run[k];
                    }
                    *slot = acc;
                }
                run.copy_from_slice(&scratch);
            }
        }
        Ok(())
    }

    /// The diagonal phase-cascade superoperator: entry `(r, c)` picks up
    /// `e^{i(φ_r − φ_c)}` with `φ_idx = sign · m_idx · θ_{k_idx}`.
    fn phase_cascade(
        &mut self,
        block_qubits: usize,
        phases: &[f64],
        sign: f64,
    ) -> Result<(), SimError> {
        let d = self.dim();
        let block = 1usize << block_qubits;
        if phases.len() != block || block > d {
            return Err(SimError::DimensionMismatch {
                context: format!(
                    "phase cascade: {} phases on a {block_qubits}-qubit block of a ρ of dim {d}",
                    phases.len()
                ),
            });
        }
        let side: Vec<f64> = (0..d)
            .map(|idx| sign * (idx >> block_qubits) as f64 * phases[idx & (block - 1)])
            .collect();
        let mask = d - 1;
        for (i, a) in self.buf.iter_mut().enumerate() {
            *a *= Complex64::cis(side[i >> self.n] - side[i & mask]);
        }
        Ok(())
    }

    /// The exact single-qubit depolarizing channel
    /// `ρ → (1−p)ρ + (p/3)(XρX + YρY + ZρZ)`: entries diagonal in qubit
    /// `q` mix with their double-flipped partner, off-diagonal entries are
    /// damped by `1 − 4p/3` (the X and Y cross terms cancel).
    fn depolarize(&mut self, q: usize, p: f64) {
        let rbit = 1usize << (q + self.n);
        let cbit = 1usize << q;
        let keep = 1.0 - 2.0 * p / 3.0;
        let mix = 2.0 * p / 3.0;
        let damp = 1.0 - 4.0 * p / 3.0;
        for i in 0..self.buf.len() {
            let has_r = i & rbit != 0;
            let has_c = i & cbit != 0;
            if !has_r && !has_c {
                let j = i | rbit | cbit;
                let a = self.buf[i];
                let b = self.buf[j];
                self.buf[i] = a.scale(keep) + b.scale(mix);
                self.buf[j] = a.scale(mix) + b.scale(keep);
            } else if has_r != has_c {
                self.buf[i] = self.buf[i].scale(damp);
            }
        }
    }
}

/// Entrywise conjugate of a 2×2 gate.
fn conj2(g: &Mat2) -> Mat2 {
    [
        [g[0][0].conj(), g[0][1].conj()],
        [g[1][0].conj(), g[1][1].conj()],
    ]
}

impl Backend for DensityMatrix {
    fn name(&self) -> &'static str {
        "density_matrix"
    }

    /// Prepares `vec(|basis⟩⟨basis|)` — a [`QuantumState`] on
    /// `2·num_qubits` qubits holding the `4^num_qubits` entries of `ρ`.
    fn prepare(&self, num_qubits: usize, basis_index: usize) -> QuantumState {
        assert!(
            num_qubits <= MAX_DENSITY_QUBITS,
            "density-matrix backend supports at most {MAX_DENSITY_QUBITS} qubits (O(4^n) memory)"
        );
        let d = 1usize << num_qubits;
        assert!(basis_index < d, "basis index out of range");
        let mut buf = vec![C_ZERO; d * d];
        buf[basis_index * d + basis_index] = C_ONE;
        QuantumState::from_raw(buf)
    }

    /// Budget-checked prepare for the `4^n` vectorized `ρ`: the 2^n/4^n
    /// asymmetry is exactly why the estimate must come from the backend —
    /// a register that fits a statevector budget can exceed it squared.
    fn try_prepare(&self, num_qubits: usize, basis_index: usize) -> Result<QuantumState, SimError> {
        crate::budget::check_allocation(
            crate::budget::register_amplitudes(2 * num_qubits),
            self.name(),
        )?;
        check_register_cap(num_qubits)?;
        if basis_index >= (1usize << num_qubits) {
            return Err(SimError::InvalidParameter {
                context: format!("basis index {basis_index} out of range for {num_qubits} qubits"),
            });
        }
        Ok(self.prepare(num_qubits, basis_index))
    }

    fn run(
        &self,
        circuit: &Circuit,
        state: &mut QuantumState,
        _rng: &mut StdRng,
    ) -> Result<(), SimError> {
        crate::backend::injected_run_fault()?;
        let n = circuit.num_qubits();
        if state.num_qubits() != 2 * n {
            return Err(SimError::DimensionMismatch {
                context: format!(
                    "density backend: circuit on {n} qubits needs a vectorized ρ on {} qubits, \
                     state has {}",
                    2 * n,
                    state.num_qubits()
                ),
            });
        }
        let mut rho = Rho {
            buf: state.amps_mut(),
            n,
        };
        let all_qubits: Vec<usize> = (0..n).collect();
        for op in circuit.ops() {
            rho.apply_op(op)?;
            if self.depolarizing > 0.0 {
                let touched = if op.spans_register() {
                    all_qubits.clone()
                } else {
                    op.qubits()
                };
                for q in touched {
                    rho.depolarize(q, self.depolarizing);
                }
            }
        }
        Ok(())
    }

    /// Draws `shots` outcomes from the **exact** noisy distribution
    /// ([`DensityMatrix::outcome_distribution`]): the only randomness left
    /// is the multinomial draw itself — the state carries no trajectory
    /// noise.
    fn sample(
        &self,
        state: &QuantumState,
        shots: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<(usize, usize)>, SimError> {
        if !state.num_qubits().is_multiple_of(2) {
            return Err(SimError::DimensionMismatch {
                context: format!(
                    "density backend: a state on {} qubits is not a vectorized ρ",
                    state.num_qubits()
                ),
            });
        }
        let probs = self.outcome_distribution(state);
        Ok(multinomial_counts(&probs, shots, rng)
            .into_iter()
            .enumerate()
            .filter(|&(_, count)| count > 0)
            .collect())
    }

    fn exact_statistics(&self) -> bool {
        self.depolarizing == 0.0 && self.readout_flip == 0.0
    }

    /// The states this backend hands out are vectorized density matrices,
    /// not pure-state amplitude vectors.
    fn pure_state(&self) -> bool {
        false
    }

    /// The depolarizing register pass evolves a `4^t`-entry `ρ`, bounded
    /// by the same memory cap as [`Backend::prepare`]. With zero
    /// depolarizing the hook short-circuits to the `O(2^t)` closed forms,
    /// so no limit applies.
    fn phase_register_limit(&self) -> Option<usize> {
        (self.depolarizing > 0.0).then_some(MAX_DENSITY_QUBITS)
    }

    /// The **exact** noisy QPE register distribution: the `t`-qubit
    /// register pass (Hadamard wall, the `e^{2πiφ·2^j}` phase kicks of the
    /// controlled powers on an eigenstate, inverse QFT) is evolved as a
    /// density matrix with the per-gate depolarizing channel, then the
    /// outcome distribution is pushed through the readout-flip channel.
    ///
    /// With zero noise (or an empty register, which has no gates to
    /// depolarize) this short-circuits to the closed-form Fejér kernel —
    /// **bit-exact** with the `Statevector` backend. Contrast with
    /// `NoisyStatevector::phase_distribution`, which *approximates* the
    /// depolarizing effect by a single global survival factor.
    fn phase_distribution(
        &self,
        phi: f64,
        t: usize,
        _rng: &mut StdRng,
    ) -> Result<Vec<f64>, SimError> {
        if self.depolarizing == 0.0 || t == 0 {
            let mut probs = qpe_phase_distribution(phi, t);
            apply_readout_flips(&mut probs, self.readout_flip);
            return Ok(probs);
        }
        let mut register = Circuit::new(t);
        for j in 0..t {
            register.push(Op::H(j)).expect("register op");
        }
        for j in 0..t {
            register
                .push(Op::Phase {
                    target: j,
                    theta: TAU * phi * (1u64 << j) as f64,
                })
                .expect("register op");
        }
        register.push_inverse_qft(0..t).expect("register op");

        // The cap only, not the budget: a budget check is an `allocation`
        // fault site and would shift the sites of armed fault plans.
        check_register_cap(t)?;
        let mut rng = StdRng::seed_from_u64(0); // never drawn from
        let mut state = self.prepare(t, 0);
        self.run(&register, &mut state, &mut rng)
            .expect("register pass is well-formed");
        Ok(self.outcome_distribution(&state))
    }

    /// Readout bias applied analytically: `p(1−e) + (1−p)e` — no shot
    /// resampling, so repeated calls return the identical value.
    fn estimate_probability(&self, p: f64, _rng: &mut StdRng) -> Result<f64, SimError> {
        if self.readout_flip == 0.0 {
            return Ok(p);
        }
        Ok(p * (1.0 - self.readout_flip) + (1.0 - p) * self.readout_flip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NoisyStatevector, Statevector};
    use std::sync::Arc;

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

    /// A circuit covering every op variant the compilers emit.
    fn kitchen_sink(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Op::H(0)).unwrap();
        c.push(Op::T(1)).unwrap();
        c.push(Op::Ry {
            target: 1,
            theta: 0.4,
        })
        .unwrap();
        c.push(Op::Cnot {
            control: 0,
            target: n - 1,
        })
        .unwrap();
        c.push(Op::CPhase {
            control: n - 1,
            target: 0,
            theta: 0.7,
        })
        .unwrap();
        c.push(Op::Swap(0, 1)).unwrap();
        c.push(Op::Gate1 {
            target: 0,
            matrix: gates::rz(0.3),
        })
        .unwrap();
        c.push(Op::S(n - 1)).unwrap();
        c.push(Op::Y(1)).unwrap();
        let u = CMatrix::from_rows(&[
            vec![Complex64::cis(0.2), C_ZERO],
            vec![C_ZERO, Complex64::cis(-0.5)],
        ])
        .unwrap();
        c.push(Op::BlockUnitary {
            control: Some(n - 1),
            matrix: Arc::new(u.clone()),
        })
        .unwrap();
        c.push(Op::BlockUnitary {
            control: None,
            matrix: Arc::new(u),
        })
        .unwrap();
        c.push(Op::PhaseCascade {
            block_qubits: 1,
            phases: Arc::new(vec![0.3, -0.8]),
            sign: -1.0,
        })
        .unwrap();
        c
    }

    fn diag(backend: &DensityMatrix, state: &QuantumState) -> Vec<f64> {
        let n = state.num_qubits() / 2;
        let d = 1usize << n;
        let _ = backend;
        (0..d).map(|m| state.amplitudes()[m * d + m].re).collect()
    }

    #[test]
    fn zero_noise_evolution_matches_statevector_outer_product() {
        let c = kitchen_sink(3);
        let dm = DensityMatrix::new(0.0, 0.0);
        let sv = Statevector::new();
        let mut rng = StdRng::seed_from_u64(1);
        for basis in [0usize, 3, 7] {
            let rho = dm.execute(&c, basis, &mut rng).unwrap();
            let pure = sv.execute(&c, basis, &mut rng).unwrap();
            let amps = pure.amplitudes();
            let d = amps.len();
            let mut err = 0.0f64;
            for r in 0..d {
                for col in 0..d {
                    let expect = amps[r] * amps[col].conj();
                    err = err.max((rho.amplitudes()[r * d + col] - expect).abs());
                }
            }
            assert!(err < 1e-12, "ρ vs |ψ⟩⟨ψ| drift {err} on basis {basis}");
            assert!((dm.purity(&rho) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn channels_preserve_trace_and_reduce_purity() {
        let c = kitchen_sink(3);
        let dm = DensityMatrix::new(0.1, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let rho = dm.execute(&c, 0, &mut rng).unwrap();
        assert!(dm.purity(&rho) < 1.0 - 1e-6, "noise must mix the state");
        let probs = dm.outcome_distribution(&rho);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn readout_flip_channel_is_analytically_exact_on_bell() {
        // Ideal Bell diag = (1/2, 0, 0, 1/2); per-bit flips e move exactly
        // e(1−e) of mass onto each off-support outcome.
        let dm = DensityMatrix::new(0.0, 0.25);
        let mut rng = StdRng::seed_from_u64(3);
        let rho = dm.execute(&bell(), 0, &mut rng).unwrap();
        let probs = dm.outcome_distribution(&rho);
        let e = 0.25f64;
        assert!((probs[0b01] - e * (1.0 - e)).abs() < 1e-12);
        assert!((probs[0b10] - e * (1.0 - e)).abs() < 1e-12);
        assert!((probs[0b01] + probs[0b10] - 0.375).abs() < 1e-12);
    }

    #[test]
    fn full_depolarizing_drives_one_qubit_to_maximally_mixed() {
        // p = 1 on a single-qubit H circuit: ρ loses 4/3 of its coherence
        // per channel application; at p = 3/4 the channel is exactly the
        // replacement channel ρ → I/2.
        let mut c = Circuit::new(1);
        c.push(Op::H(0)).unwrap();
        let dm = DensityMatrix::new(0.75, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let rho = dm.execute(&c, 0, &mut rng).unwrap();
        let probs = dm.outcome_distribution(&rho);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
        assert!((dm.purity(&rho) - 0.5).abs() < 1e-12, "I/2 has purity 1/2");
    }

    #[test]
    fn zero_noise_distribution_hooks_are_bit_exact() {
        let dm = DensityMatrix::new(0.0, 0.0);
        let sv = Statevector::new();
        let mut rng = StdRng::seed_from_u64(5);
        for t in [3usize, 5] {
            for phi in [0.0, 0.3, 0.8125] {
                assert_eq!(
                    dm.phase_distribution(phi, t, &mut rng).unwrap(),
                    sv.phase_distribution(phi, t, &mut rng).unwrap(),
                    "phi {phi} t {t}"
                );
            }
        }
        assert_eq!(dm.estimate_probability(0.37, &mut rng).unwrap(), 0.37);
        assert!(dm.exact_statistics());
        assert!(!DensityMatrix::new(0.01, 0.0).exact_statistics());
    }

    #[test]
    fn noisy_phase_distribution_is_deterministic_and_flattened() {
        let dm = DensityMatrix::new(0.05, 0.0);
        let mut rng = StdRng::seed_from_u64(6);
        let a = dm.phase_distribution(0.25, 4, &mut rng).unwrap();
        let b = dm.phase_distribution(0.25, 4, &mut rng).unwrap();
        assert_eq!(a, b, "exact channel: no run-to-run variance");
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let ideal = qpe_phase_distribution(0.25, 4);
        let peak = |d: &[f64]| d.iter().cloned().fold(0.0, f64::max);
        assert!(peak(&a) < peak(&ideal), "noise must flatten the peak");
        assert_eq!(dm.phase_distribution(0.25, 0, &mut rng).unwrap(), [1.0]);
        // A register past the density cap is a typed budget error.
        let err = dm.phase_distribution(0.25, 14, &mut rng).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn depolarizing_matches_trajectory_average_on_one_gate() {
        // One X gate at p = 0.3 on |0⟩: exact channel vs the closed-form
        // trajectory average. With probability p a uniform Pauli follows
        // the X, so P(1) = 1 − 2p/3 exactly.
        let mut c = Circuit::new(1);
        c.push(Op::X(0)).unwrap();
        let p = 0.3;
        let dm = DensityMatrix::new(p, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let rho = dm.execute(&c, 0, &mut rng).unwrap();
        let probs = diag(&dm, &rho);
        assert!((probs[1] - (1.0 - 2.0 * p / 3.0)).abs() < 1e-12);
        assert!((probs[0] - 2.0 * p / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_mean_converges_to_exact_channel() {
        // Average NoisyStatevector outcome distributions over trajectories;
        // the L1 distance to the exact ρ diagonal must shrink.
        let c = kitchen_sink(3);
        let p = 0.15;
        let dm = DensityMatrix::new(p, 0.0);
        let mut rng = StdRng::seed_from_u64(8);
        let rho = dm.execute(&c, 0, &mut rng).unwrap();
        let exact = diag(&dm, &rho);

        let noisy = NoisyStatevector::new(p, 0.0);
        let mean_dist = |trajectories: usize| -> Vec<f64> {
            let mut acc = vec![0.0f64; exact.len()];
            for seed in 0..trajectories as u64 {
                let mut rng = StdRng::seed_from_u64(1000 + seed);
                let state = noisy.execute(&c, 0, &mut rng).unwrap();
                for (slot, a) in acc.iter_mut().zip(state.amplitudes()) {
                    *slot += a.norm_sqr();
                }
            }
            acc.iter().map(|x| x / trajectories as f64).collect()
        };
        let l1 = |got: &[f64]| -> f64 { got.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum() };
        let coarse = l1(&mean_dist(16));
        let fine = l1(&mean_dist(512));
        assert!(
            fine < coarse / 2.0,
            "trajectory mean must converge to the exact channel: {coarse} vs {fine}"
        );
        // The Monte-Carlo floor at 512 trajectories (the multi-level
        // convergence-rate check lives in tests/noise_convergence.rs).
        assert!(fine < 0.15, "512 trajectories should be close: {fine}");
    }

    #[test]
    fn sample_draws_from_the_exact_distribution() {
        let dm = DensityMatrix::new(0.0, 0.25);
        let mut rng = StdRng::seed_from_u64(9);
        let rho = dm.execute(&bell(), 0, &mut rng).unwrap();
        let counts = dm.sample(&rho, 4000, &mut rng).unwrap();
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4000);
        let off: usize = counts
            .iter()
            .filter(|(m, _)| *m == 0b01 || *m == 0b10)
            .map(|(_, c)| *c)
            .sum();
        assert!(
            (off as f64 / 4000.0 - 0.375).abs() < 0.05,
            "off-support fraction {off}"
        );
    }

    /// The per-shot scan-and-count loop `DensityMatrix::sample` ran before
    /// it used [`multinomial_counts`].
    fn sample_scanned(probs: &[f64], shots: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
        use rand::Rng;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..shots {
            let mut target = rng.gen::<f64>();
            let mut chosen = probs.len() - 1;
            for (m, &p) in probs.iter().enumerate() {
                if target < p {
                    chosen = m;
                    break;
                }
                target -= p;
            }
            *counts.entry(chosen).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }

    #[test]
    fn sample_matches_the_per_shot_scan() {
        let mut ghz = Circuit::new(3);
        ghz.push(Op::H(0)).unwrap();
        ghz.push(Op::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        ghz.push(Op::Cnot {
            control: 1,
            target: 2,
        })
        .unwrap();
        ghz.push(Op::H(2)).unwrap();
        for (depolarizing, readout_flip) in [(0.0, 0.0), (0.0, 0.25), (0.05, 0.02)] {
            let dm = DensityMatrix::new(depolarizing, readout_flip);
            for (case, circuit) in [bell(), ghz.clone()].iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(case as u64);
                let rho = dm.execute(circuit, 0, &mut rng).unwrap();
                let probs = dm.outcome_distribution(&rho);
                for shots in [0, 1, 7, 64, 4000] {
                    let mut oracle_rng = rng.clone();
                    let got = dm.sample(&rho, shots, &mut rng).unwrap();
                    let want = sample_scanned(&probs, shots, &mut oracle_rng);
                    assert_eq!(
                        got, want,
                        "noise ({depolarizing}, {readout_flip}), shots {shots}"
                    );
                    assert!(rng == oracle_rng);
                }
            }
        }
    }

    #[test]
    fn run_rejects_width_mismatch_and_is_not_pure() {
        let dm = DensityMatrix::new(0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(10);
        let mut state = dm.prepare(2, 0);
        assert_eq!(state.num_qubits(), 4, "vec(ρ) lives on 2n qubits");
        assert!(dm.run(&Circuit::new(3), &mut state, &mut rng).is_err());
        let odd = QuantumState::zero_state(3);
        assert!(
            dm.sample(&odd, 1, &mut rng).is_err(),
            "odd width is not a ρ"
        );
        assert!(!dm.pure_state());
    }
}
