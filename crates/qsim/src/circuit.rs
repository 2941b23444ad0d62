//! The circuit IR: an ordered gate list that the execution backends run,
//! inspect for gate counts / depth, and dump in an OpenQASM-flavoured text
//! form.
//!
//! Since the backend redesign this IR is the *execution format* of the
//! quantum stages: the QPE/projection compilers in `qsc_sim::qpe` and
//! `qsc_core::quantum` emit circuits (phase cascades, QFT blocks and
//! controlled-unitary blocks as [`Op`]s) which any
//! [`Backend`](crate::backend::Backend) then executes.

use crate::error::SimError;
use crate::gates;
use crate::state::QuantumState;
use qsc_linalg::{CMatrix, Complex64};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A 2×2 single-qubit gate matrix (row-major), the payload of
/// [`Op::Gate1`].
pub type Mat2 = [[Complex64; 2]; 2];

/// One gate application.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Hadamard on a qubit.
    H(usize),
    /// Pauli-X on a qubit.
    X(usize),
    /// Pauli-Y on a qubit.
    Y(usize),
    /// Pauli-Z on a qubit.
    Z(usize),
    /// S gate on a qubit.
    S(usize),
    /// T gate on a qubit.
    T(usize),
    /// Phase gate `diag(1, e^{iθ})`.
    Phase {
        /// Target qubit.
        target: usize,
        /// Phase angle.
        theta: f64,
    },
    /// Rotation about Z.
    Rz {
        /// Target qubit.
        target: usize,
        /// Rotation angle.
        theta: f64,
    },
    /// Rotation about Y.
    Ry {
        /// Target qubit.
        target: usize,
        /// Rotation angle.
        theta: f64,
    },
    /// CNOT.
    Cnot {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled phase.
    CPhase {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
        /// Phase angle.
        theta: f64,
    },
    /// SWAP of two qubits.
    Swap(usize, usize),
    /// An arbitrary single-qubit unitary.
    Gate1 {
        /// Target qubit.
        target: usize,
        /// The 2×2 gate matrix.
        matrix: Mat2,
    },
    /// A unitary on the **low block** of qubits `0..s` (where the matrix is
    /// `2^s × 2^s`), optionally conditioned on a control qubit above the
    /// block — the controlled-`U^{2^j}` blocks of the QPE compilers.
    BlockUnitary {
        /// Control qubit (must lie above the block), `None` for
        /// unconditional application.
        control: Option<usize>,
        /// The block unitary, shared so repeated powers don't copy.
        matrix: Arc<CMatrix>,
    },
    /// The diagonalized QPE controlled-power cascade: with the system block
    /// `0..s` expressed in the eigenbasis (conjugate with
    /// [`Op::BlockUnitary`]s holding `V†`/`V`), multiplies the amplitude at
    /// joint index `(m, k)` by `e^{i·sign·m·θ_k}`, where `m` is the value
    /// of the qubits above the block. One `O(2^n)` diagonal pass replaces
    /// `t` controlled dense-matrix applications.
    PhaseCascade {
        /// Number of qubits `s` in the (eigenbasis-rotated) system block.
        block_qubits: usize,
        /// Eigenphases `θ_k` of the unitary, length `2^s`.
        phases: Arc<Vec<f64>>,
        /// `+1.0` for the forward cascade, `-1.0` for the inverse
        /// (uncomputation).
        sign: f64,
    },
}

impl Op {
    /// Qubits this op touches. For [`Op::PhaseCascade`] this is the system
    /// block; the phase it applies also *reads* every qubit above the block
    /// (see [`Op::spans_register`]).
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Op::H(q) | Op::X(q) | Op::Y(q) | Op::Z(q) | Op::S(q) | Op::T(q) => vec![q],
            Op::Phase { target, .. }
            | Op::Rz { target, .. }
            | Op::Ry { target, .. }
            | Op::Gate1 { target, .. } => {
                vec![target]
            }
            Op::Cnot { control, target }
            | Op::CPhase {
                control, target, ..
            } => {
                vec![control, target]
            }
            Op::Swap(a, b) => vec![a, b],
            Op::BlockUnitary {
                control,
                ref matrix,
            } => {
                let s = matrix.nrows().trailing_zeros() as usize;
                let mut qs: Vec<usize> = (0..s).collect();
                if let Some(c) = control {
                    qs.push(c);
                }
                qs
            }
            Op::PhaseCascade { block_qubits, .. } => (0..block_qubits).collect(),
        }
    }

    /// `true` for ops whose action depends on the whole register (depth
    /// treats them as a barrier).
    pub fn spans_register(&self) -> bool {
        matches!(self, Op::PhaseCascade { .. })
    }

    /// `true` for two-qubit ops (the hardware-relevant count): the named
    /// two-qubit gates, plus block unitaries whose total footprint is two
    /// qubits.
    pub fn is_two_qubit(&self) -> bool {
        match self {
            Op::Cnot { .. } | Op::CPhase { .. } | Op::Swap(..) => true,
            Op::BlockUnitary { control, matrix } => {
                let s = matrix.nrows().trailing_zeros() as usize;
                s + usize::from(control.is_some()) == 2
            }
            _ => false,
        }
    }

    /// The `opaque`-gate mnemonic of a block op (`ublk{s}` / `cublk{s}` /
    /// `pcascade{s}`), `None` for standard-gate ops.
    fn opaque_name(&self) -> Option<String> {
        match self {
            Op::BlockUnitary { control, matrix } => {
                let s = matrix.nrows().trailing_zeros();
                Some(match control {
                    Some(_) => format!("cublk{s}"),
                    None => format!("ublk{s}"),
                })
            }
            Op::PhaseCascade { block_qubits, .. } => Some(format!("pcascade{block_qubits}")),
            _ => None,
        }
    }

    /// The OpenQASM gate line for this op on a register of `num_qubits`
    /// qubits — the single renderer behind [`Circuit::to_qasm`].
    /// Standard-gate ops render through their [`Display`](fmt::Display)
    /// form; the block ops (which `Display` can only abbreviate, lacking
    /// the register width) get their explicit qubit lists plus a payload
    /// comment here.
    pub fn qasm_line(&self, num_qubits: usize) -> String {
        let name = self.opaque_name();
        match self {
            Op::BlockUnitary { control, matrix } => {
                let s = matrix.nrows().trailing_zeros() as usize;
                let dim = matrix.nrows();
                let targets: Vec<String> = (0..s).map(|q| format!("q[{q}]")).collect();
                let tlist = targets.join(",");
                let name = name.expect("block op");
                match control {
                    Some(c) => {
                        format!("{name} q[{c}],{tlist}; // controlled {dim}×{dim} block unitary")
                    }
                    None => format!("{name} {tlist}; // {dim}×{dim} block unitary"),
                }
            }
            Op::PhaseCascade { phases, sign, .. } => {
                let args: Vec<String> = (0..num_qubits).map(|q| format!("q[{q}]")).collect();
                format!(
                    "{}({sign}) {}; // {} eigenphases",
                    name.expect("block op"),
                    args.join(","),
                    phases.len()
                )
            }
            _ => self.to_string(),
        }
    }

    /// Applies this op to a state — the single execution point every
    /// backend and [`Circuit::run`] route through.
    ///
    /// # Errors
    ///
    /// Propagates the underlying gate-kernel errors
    /// ([`SimError::QubitOutOfRange`], [`SimError::DimensionMismatch`],
    /// [`SimError::InvalidParameter`]).
    pub fn apply(&self, state: &mut QuantumState) -> Result<(), SimError> {
        match *self {
            Op::H(q) => state.apply_single(&gates::h(), q),
            Op::X(q) => state.apply_single(&gates::x(), q),
            Op::Y(q) => state.apply_single(&gates::y(), q),
            Op::Z(q) => state.apply_single(&gates::z(), q),
            Op::S(q) => state.apply_single(&gates::s(), q),
            Op::T(q) => state.apply_single(&gates::t(), q),
            Op::Phase { target, theta } => state.apply_single(&gates::phase(theta), target),
            Op::Rz { target, theta } => state.apply_single(&gates::rz(theta), target),
            Op::Ry { target, theta } => state.apply_single(&gates::ry(theta), target),
            Op::Cnot { control, target } => state.apply_cnot(control, target),
            Op::CPhase {
                control,
                target,
                theta,
            } => state.apply_controlled_phase(control, target, theta),
            Op::Swap(a, b) => state.apply_swap(a, b),
            Op::Gate1 { target, ref matrix } => state.apply_single(matrix, target),
            Op::BlockUnitary {
                control,
                ref matrix,
            } => match control {
                // The unconditional form routes large states through the
                // blocked-matmul fast path, exactly like the direct calls.
                None => state.apply_block_unitary(matrix),
                Some(c) => state.apply_controlled_block_unitary(matrix, Some(c)),
            },
            Op::PhaseCascade {
                block_qubits,
                ref phases,
                sign,
            } => {
                let block = 1usize << block_qubits;
                if phases.len() != block || !state.dim().is_multiple_of(block) {
                    return Err(SimError::DimensionMismatch {
                        context: format!(
                            "phase cascade: {} phases on a {}-qubit block of a state of dim {}",
                            phases.len(),
                            block_qubits,
                            state.dim()
                        ),
                    });
                }
                state.for_each_block_mut(block, |m, chunk| {
                    let factor = sign * m as f64;
                    for (a, &theta) in chunk.iter_mut().zip(phases.iter()) {
                        *a *= Complex64::cis(theta * factor);
                    }
                });
                Ok(())
            }
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::H(q) => write!(f, "h q[{q}];"),
            Op::X(q) => write!(f, "x q[{q}];"),
            Op::Y(q) => write!(f, "y q[{q}];"),
            Op::Z(q) => write!(f, "z q[{q}];"),
            Op::S(q) => write!(f, "s q[{q}];"),
            Op::T(q) => write!(f, "t q[{q}];"),
            Op::Phase { target, theta } => write!(f, "p({theta}) q[{target}];"),
            Op::Rz { target, theta } => write!(f, "rz({theta}) q[{target}];"),
            Op::Ry { target, theta } => write!(f, "ry({theta}) q[{target}];"),
            Op::Cnot { control, target } => write!(f, "cx q[{control}],q[{target}];"),
            Op::CPhase {
                control,
                target,
                theta,
            } => {
                write!(f, "cp({theta}) q[{control}],q[{target}];")
            }
            Op::Swap(a, b) => write!(f, "swap q[{a}],q[{b}];"),
            Op::Gate1 { target, ref matrix } => {
                // u3(θ, φ, λ) = Rz(φ)·Ry(θ)·Rz(λ) up to global phase: the
                // qelib1 generic single-qubit gate.
                match crate::synthesis::zyz_decompose(matrix) {
                    Ok((_, beta, gamma, delta)) => {
                        write!(f, "u3({gamma},{beta},{delta}) q[{target}];")
                    }
                    Err(_) => write!(f, "gate1(?) q[{target}]; // non-unitary matrix"),
                }
            }
            // The block ops share their mnemonic with the QASM renderer
            // ([`Op::qasm_line`]); `Display` lacks the register width, so
            // the phase cascade's qubit list is abbreviated here.
            Op::BlockUnitary {
                control,
                ref matrix,
            } => {
                let s = matrix.nrows().trailing_zeros() as usize;
                let name = self.opaque_name().expect("block op");
                let targets: Vec<String> = (0..s).map(|q| format!("q[{q}]")).collect();
                match control {
                    Some(c) => write!(f, "{name} q[{c}],{};", targets.join(",")),
                    None => write!(f, "{name} {};", targets.join(",")),
                }
            }
            Op::PhaseCascade {
                block_qubits, sign, ..
            } => {
                let name = self.opaque_name().expect("block op");
                write!(
                    f,
                    "{name}({sign}) q[0..{block_qubits}] // conditioned on q[{block_qubits}..]"
                )
            }
        }
    }
}

/// An ordered list of gates on a fixed-width register.
///
/// # Examples
///
/// ```
/// use qsc_sim::circuit::{Circuit, Op};
/// use qsc_sim::QuantumState;
///
/// # fn main() -> Result<(), qsc_sim::SimError> {
/// let mut bell = Circuit::new(2);
/// bell.push(Op::H(0))?;
/// bell.push(Op::Cnot { control: 0, target: 1 })?;
/// let mut state = QuantumState::zero_state(2);
/// bell.run(&mut state)?;
/// assert!((state.probability(0b11) - 0.5).abs() < 1e-12);
/// assert_eq!(bell.depth(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Appends a gate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] if the op touches a qubit
    /// outside the register, [`SimError::InvalidParameter`] if a two-qubit
    /// op uses the same qubit twice, and [`SimError::DimensionMismatch`]
    /// for malformed block payloads (non-square / non-power-of-two block
    /// unitaries, phase tables of the wrong length).
    pub fn push(&mut self, op: Op) -> Result<(), SimError> {
        match &op {
            Op::BlockUnitary { control, matrix } => {
                if !matrix.is_square() || !matrix.nrows().is_power_of_two() {
                    return Err(SimError::DimensionMismatch {
                        context: format!(
                            "block unitary must be square with power-of-two dimension, got {}×{}",
                            matrix.nrows(),
                            matrix.ncols()
                        ),
                    });
                }
                let s = matrix.nrows().trailing_zeros() as usize;
                if s > self.num_qubits {
                    return Err(SimError::DimensionMismatch {
                        context: format!(
                            "{s}-qubit block unitary on a {}-qubit register",
                            self.num_qubits
                        ),
                    });
                }
                if let Some(c) = control {
                    if *c < s {
                        return Err(SimError::InvalidParameter {
                            context: format!("control {c} lies inside the {s}-qubit block"),
                        });
                    }
                }
            }
            Op::PhaseCascade {
                block_qubits,
                phases,
                ..
            } => {
                if *block_qubits > self.num_qubits {
                    return Err(SimError::DimensionMismatch {
                        context: format!(
                            "{block_qubits}-qubit phase cascade on a {}-qubit register",
                            self.num_qubits
                        ),
                    });
                }
                if phases.len() != 1usize << block_qubits {
                    return Err(SimError::DimensionMismatch {
                        context: format!(
                            "phase cascade on {block_qubits} qubits needs {} phases, got {}",
                            1usize << block_qubits,
                            phases.len()
                        ),
                    });
                }
            }
            _ => {}
        }
        let qs = op.qubits();
        for &q in &qs {
            if q >= self.num_qubits {
                return Err(SimError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        if qs.len() == 2 && qs[0] == qs[1] && !matches!(op, Op::BlockUnitary { .. }) {
            return Err(SimError::InvalidParameter {
                context: "two-qubit op with identical qubits".into(),
            });
        }
        self.ops.push(op);
        Ok(())
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Total gate count.
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// Two-qubit gate count (the hardware-relevant one).
    pub fn two_qubit_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_two_qubit()).count()
    }

    /// Circuit depth: the length of the longest qubit-disjoint layering
    /// (greedy ASAP scheduling). Ops that span the register
    /// ([`Op::spans_register`]) act as barriers.
    pub fn depth(&self) -> usize {
        let mut ready = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for op in &self.ops {
            let start = if op.spans_register() {
                ready.iter().copied().max().unwrap_or(0)
            } else {
                op.qubits().iter().map(|&q| ready[q]).max().unwrap_or(0)
            };
            let end = start + 1;
            if op.spans_register() {
                ready.fill(end);
            } else {
                for q in op.qubits() {
                    ready[q] = end;
                }
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Executes the circuit on a state by applying every op in order.
    ///
    /// Backends layer buffer reuse, noise and sampling on top of this; the
    /// direct call is the noiseless reference execution.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the state width differs
    /// from the circuit's, and propagates gate errors.
    pub fn run(&self, state: &mut QuantumState) -> Result<(), SimError> {
        if state.num_qubits() != self.num_qubits {
            return Err(SimError::DimensionMismatch {
                context: format!(
                    "circuit on {} qubits, state on {}",
                    self.num_qubits,
                    state.num_qubits()
                ),
            });
        }
        for op in &self.ops {
            op.apply(state)?;
        }
        Ok(())
    }

    /// Appends the textbook QFT gate sequence on `range` (H + controlled
    /// phases from the MSB down, then bit-reversal swaps) — the same op
    /// order as `qsc_sim::qft::apply_qft`, so compiled execution is
    /// bit-identical to the direct path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an empty range and
    /// [`SimError::QubitOutOfRange`] if the range exceeds the register.
    pub fn push_qft(&mut self, range: Range<usize>) -> Result<(), SimError> {
        let (lo, m) = self.check_qft_range(&range)?;
        for i in (0..m).rev() {
            self.push(Op::H(lo + i))?;
            for j in (0..i).rev() {
                let theta = std::f64::consts::PI / (1 << (i - j)) as f64;
                self.push(Op::CPhase {
                    control: lo + j,
                    target: lo + i,
                    theta,
                })?;
            }
        }
        for i in 0..m / 2 {
            self.push(Op::Swap(lo + i, lo + m - 1 - i))?;
        }
        Ok(())
    }

    /// Appends the inverse QFT on `range` (the exact reversal of
    /// [`Circuit::push_qft`], matching `qsc_sim::qft::apply_inverse_qft`).
    ///
    /// # Errors
    ///
    /// Same contract as [`Circuit::push_qft`].
    pub fn push_inverse_qft(&mut self, range: Range<usize>) -> Result<(), SimError> {
        let (lo, m) = self.check_qft_range(&range)?;
        for i in 0..m / 2 {
            self.push(Op::Swap(lo + i, lo + m - 1 - i))?;
        }
        for i in 0..m {
            for j in 0..i {
                let theta = -std::f64::consts::PI / (1 << (i - j)) as f64;
                self.push(Op::CPhase {
                    control: lo + j,
                    target: lo + i,
                    theta,
                })?;
            }
            self.push(Op::H(lo + i))?;
        }
        Ok(())
    }

    fn check_qft_range(&self, range: &Range<usize>) -> Result<(usize, usize), SimError> {
        let m = range.len();
        if m == 0 {
            return Err(SimError::InvalidParameter {
                context: "empty QFT range".into(),
            });
        }
        if range.end > self.num_qubits {
            return Err(SimError::QubitOutOfRange {
                qubit: range.end - 1,
                num_qubits: self.num_qubits,
            });
        }
        Ok((range.start, m))
    }

    /// Dumps an OpenQASM-2-flavoured listing.
    ///
    /// Every [`Op`] variant is covered — nothing is silently dropped. The
    /// compiled block operators ([`Op::BlockUnitary`],
    /// [`Op::PhaseCascade`]) have no standard-gate expansion, so they are
    /// exported as `opaque` gate declarations (one per shape) applied to
    /// their explicit qubit lists, with the payload summarized in a
    /// trailing comment; [`Op::Gate1`]s are exported as the generic `u3`
    /// rotation.
    pub fn to_qasm(&self) -> String {
        use std::collections::BTreeSet;
        let mut out = String::new();
        out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");

        // Declare one opaque gate per distinct block-operator shape; the
        // mnemonics and gate lines come from the single [`Op::qasm_line`]
        // renderer.
        let mut declared: BTreeSet<String> = BTreeSet::new();
        for op in &self.ops {
            if let Some(name) = op.opaque_name() {
                if declared.insert(name.clone()) {
                    match op {
                        Op::BlockUnitary { control, matrix } => {
                            let s = matrix.nrows().trailing_zeros() as usize;
                            let mut args: Vec<String> = Vec::new();
                            if control.is_some() {
                                args.push("c".into());
                            }
                            args.extend((0..s).map(|q| format!("t{q}")));
                            out.push_str(&format!("opaque {name} {};\n", args.join(",")));
                        }
                        _ => {
                            let args: Vec<String> =
                                (0..self.num_qubits).map(|q| format!("t{q}")).collect();
                            out.push_str(&format!("opaque {name}(sign) {};\n", args.join(",")));
                        }
                    }
                }
            }
        }

        out.push_str(&format!("qreg q[{}];\n", self.num_qubits));
        for op in &self.ops {
            out.push_str(&op.qasm_line(self.num_qubits));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qft::{apply_inverse_qft, apply_qft};
    use qsc_linalg::{C_ONE, C_ZERO};

    #[test]
    fn bell_circuit_runs() {
        let mut c = Circuit::new(2);
        c.push(Op::H(0)).unwrap();
        c.push(Op::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        let mut s = QuantumState::zero_state(2);
        c.run(&mut s).unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn qft_circuit_matches_direct_qft() {
        for m in 1..=4usize {
            let mut c = Circuit::new(m);
            c.push_qft(0..m).unwrap();
            for j in 0..(1 << m) {
                let mut via_circuit = QuantumState::basis_state(m, j);
                c.run(&mut via_circuit).unwrap();
                let mut direct = QuantumState::basis_state(m, j);
                apply_qft(&mut direct, 0..m).unwrap();
                assert!(via_circuit.fidelity(&direct) > 1.0 - 1e-10, "m={m} j={j}");
            }
        }
    }

    #[test]
    fn inverse_qft_ops_match_direct_inverse_qft() {
        // Compiled inverse QFT on a sub-range is bit-identical to the
        // state-level routine (same gate sequence).
        let mut c = Circuit::new(4);
        c.push_inverse_qft(1..4).unwrap();
        for j in 0..16 {
            let mut via_circuit = QuantumState::basis_state(4, j);
            c.run(&mut via_circuit).unwrap();
            let mut direct = QuantumState::basis_state(4, j);
            apply_inverse_qft(&mut direct, 1..4).unwrap();
            assert_eq!(via_circuit.amplitudes(), direct.amplitudes(), "j={j}");
        }
    }

    #[test]
    fn depth_of_parallel_gates() {
        let mut c = Circuit::new(3);
        c.push(Op::H(0)).unwrap();
        c.push(Op::H(1)).unwrap();
        c.push(Op::H(2)).unwrap();
        assert_eq!(c.depth(), 1);
        c.push(Op::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        assert_eq!(c.depth(), 2);
        c.push(Op::H(2)).unwrap(); // fits in layer 2
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn phase_cascade_is_a_depth_barrier() {
        let mut c = Circuit::new(3);
        c.push(Op::H(2)).unwrap();
        c.push(Op::PhaseCascade {
            block_qubits: 1,
            phases: Arc::new(vec![0.0, 1.0]),
            sign: 1.0,
        })
        .unwrap();
        c.push(Op::H(2)).unwrap(); // must NOT share a layer across the cascade
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn counts() {
        let mut c = Circuit::new(4);
        c.push_qft(0..4).unwrap();
        assert_eq!(c.gate_count(), 4 + 6 + 2); // H's, cphases, swaps
        assert_eq!(c.two_qubit_count(), 8);
    }

    #[test]
    fn rejects_bad_ops() {
        let mut c = Circuit::new(2);
        assert!(c.push(Op::H(5)).is_err());
        assert!(c
            .push(Op::Cnot {
                control: 1,
                target: 1
            })
            .is_err());
        // Block unitary wider than the register.
        assert!(c
            .push(Op::BlockUnitary {
                control: None,
                matrix: Arc::new(CMatrix::identity(8)),
            })
            .is_err());
        // Control inside the block.
        assert!(c
            .push(Op::BlockUnitary {
                control: Some(0),
                matrix: Arc::new(CMatrix::identity(2)),
            })
            .is_err());
        // Wrong phase-table length.
        assert!(c
            .push(Op::PhaseCascade {
                block_qubits: 1,
                phases: Arc::new(vec![0.0; 3]),
                sign: 1.0,
            })
            .is_err());
    }

    #[test]
    fn run_checks_width() {
        let c = Circuit::new(2);
        let mut s = QuantumState::zero_state(3);
        assert!(c.run(&mut s).is_err());
    }

    #[test]
    fn block_unitary_op_matches_state_call() {
        let xm = CMatrix::from_rows(&[vec![C_ZERO, C_ONE], vec![C_ONE, C_ZERO]]).unwrap();
        let mut c = Circuit::new(2);
        c.push(Op::BlockUnitary {
            control: Some(1),
            matrix: Arc::new(xm.clone()),
        })
        .unwrap();
        let mut via_circuit = QuantumState::basis_state(2, 0b10);
        c.run(&mut via_circuit).unwrap();
        let mut direct = QuantumState::basis_state(2, 0b10);
        direct.apply_controlled_block_unitary(&xm, Some(1)).unwrap();
        assert_eq!(via_circuit.amplitudes(), direct.amplitudes());
        assert_eq!(via_circuit.probability(0b11), 1.0);
    }

    #[test]
    fn gate1_op_applies_matrix() {
        let mut c = Circuit::new(1);
        c.push(Op::Gate1 {
            target: 0,
            matrix: gates::h(),
        })
        .unwrap();
        let mut s = QuantumState::zero_state(1);
        c.run(&mut s).unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn qasm_dump_contains_header_and_gates() {
        let mut c = Circuit::new(1);
        c.push(Op::H(0)).unwrap();
        c.push(Op::T(0)).unwrap();
        let qasm = c.to_qasm();
        assert!(qasm.starts_with("OPENQASM 2.0;"));
        assert!(qasm.contains("qreg q[1];"));
        assert!(qasm.contains("h q[0];"));
        assert!(qasm.contains("t q[0];"));
    }

    #[test]
    fn qasm_covers_every_op_variant() {
        // One op of every variant; the dump must emit exactly one gate line
        // per op (plus the opaque declarations), dropping nothing.
        let mut c = Circuit::new(3);
        let ops = vec![
            Op::H(0),
            Op::X(0),
            Op::Y(1),
            Op::Z(2),
            Op::S(0),
            Op::T(1),
            Op::Phase {
                target: 0,
                theta: 0.25,
            },
            Op::Rz {
                target: 1,
                theta: 0.5,
            },
            Op::Ry {
                target: 2,
                theta: 0.75,
            },
            Op::Cnot {
                control: 0,
                target: 1,
            },
            Op::CPhase {
                control: 1,
                target: 2,
                theta: 0.1,
            },
            Op::Swap(0, 2),
            Op::Gate1 {
                target: 1,
                matrix: gates::ry(0.3),
            },
            Op::BlockUnitary {
                control: None,
                matrix: Arc::new(CMatrix::identity(2)),
            },
            Op::BlockUnitary {
                control: Some(2),
                matrix: Arc::new(CMatrix::identity(2)),
            },
            Op::PhaseCascade {
                block_qubits: 1,
                phases: Arc::new(vec![0.0, 0.5]),
                sign: -1.0,
            },
        ];
        for op in ops {
            c.push(op).unwrap();
        }
        let qasm = c.to_qasm();
        // Structure: header (2 lines) + opaque decls + qreg + one line/op.
        let lines: Vec<&str> = qasm.lines().collect();
        let qreg = lines
            .iter()
            .position(|l| l.starts_with("qreg"))
            .expect("qreg line");
        let gate_lines = lines.len() - qreg - 1;
        assert_eq!(gate_lines, c.gate_count(), "one line per op:\n{qasm}");
        // The opaque block operators are declared before use.
        assert!(qasm.contains("opaque ublk1"));
        assert!(qasm.contains("opaque cublk1"));
        assert!(qasm.contains("opaque pcascade1"));
        assert!(qasm.contains("u3("));
        assert!(qasm.contains("pcascade1(-1)"));
    }

    #[test]
    fn display_of_parametric_ops() {
        let op = Op::CPhase {
            control: 0,
            target: 1,
            theta: 0.5,
        };
        assert_eq!(op.to_string(), "cp(0.5) q[0],q[1];");
    }
}
