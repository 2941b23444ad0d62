//! Resource estimation: how many qubits and gates the pipeline's circuits
//! would need on hardware.
//!
//! The simulator executes unitaries as matrices, so gate counts are
//! *modeled*, not traced: each controlled application of `e^{iHt}` for the
//! `n×n` Laplacian is charged via a sparse-Hamiltonian-simulation cost model
//! (`CU_GATE_FACTOR · s²` two-qubit gates for an `s`-qubit system). The
//! model is documented here precisely so the forecast numbers can be read
//! with the right error bars; it matches the order-of-magnitude accounting
//! such papers report.

use serde::{Deserialize, Serialize};

/// Modeled two-qubit-gate cost of one controlled-`U` application on an
/// `s`-qubit system (sparse Hamiltonian simulation heuristic).
pub const CU_GATE_FACTOR: usize = 20;

/// Gate/qubit/depth estimate for a circuit or pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceEstimate {
    /// Total qubits (system + phase register + ancillas).
    pub qubits: usize,
    /// Single-qubit gate count.
    pub single_qubit_gates: usize,
    /// Two-qubit gate count.
    pub two_qubit_gates: usize,
    /// Modeled circuit depth (sequential layers).
    pub depth: usize,
}

impl ResourceEstimate {
    /// Sums two estimates executed sequentially (qubits take the max,
    /// gates and depth add).
    pub fn then(self, later: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            qubits: self.qubits.max(later.qubits),
            single_qubit_gates: self.single_qubit_gates + later.single_qubit_gates,
            two_qubit_gates: self.two_qubit_gates + later.two_qubit_gates,
            depth: self.depth + later.depth,
        }
    }

    /// Scales the gate counts and depth by a repetition factor.
    pub fn repeated(self, times: usize) -> ResourceEstimate {
        ResourceEstimate {
            qubits: self.qubits,
            single_qubit_gates: self.single_qubit_gates * times,
            two_qubit_gates: self.two_qubit_gates * times,
            depth: self.depth * times,
        }
    }
}

/// Number of qubits needed to amplitude-encode a dimension-`n` vector.
pub fn qubits_for_dimension(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// Resources of a `t`-bit QFT (or inverse QFT): `t` Hadamards,
/// `t(t−1)/2` controlled phases, `⌊t/2⌋` swaps (3 CNOTs each).
pub fn qft_resources(t: usize) -> ResourceEstimate {
    ResourceEstimate {
        qubits: t,
        single_qubit_gates: t,
        two_qubit_gates: t * t.saturating_sub(1) / 2 + 3 * (t / 2),
        depth: 2 * t,
    }
}

/// Resources of one QPE run on an `n`-dimensional system with `t` phase
/// bits: Hadamards, `2^t − 1` controlled-`U` applications (each charged at
/// [`CU_GATE_FACTOR`]`·s²` two-qubit gates), and the inverse QFT.
pub fn qpe_resources(n: usize, t: usize) -> ResourceEstimate {
    let s = qubits_for_dimension(n);
    let cu_apps = (1usize << t).saturating_sub(1);
    let cu = ResourceEstimate {
        qubits: s + t,
        single_qubit_gates: 0,
        two_qubit_gates: cu_apps * CU_GATE_FACTOR * s * s,
        depth: cu_apps * s,
    };
    let hadamards = ResourceEstimate {
        qubits: s + t,
        single_qubit_gates: t,
        two_qubit_gates: 0,
        depth: 1,
    };
    hadamards.then(cu).then(qft_resources(t))
}

/// End-to-end pipeline estimate: one QPE + amplitude amplification
/// (`amplification_rounds` repetitions of the QPE circuit) per data row,
/// times `rows` rows, plus the tomography repetitions (state preparations).
pub fn pipeline_resources(
    n: usize,
    t: usize,
    rows: usize,
    amplification_rounds: usize,
    tomography_shots: usize,
) -> ResourceEstimate {
    let per_row = qpe_resources(n, t)
        .repeated(amplification_rounds.max(1))
        .repeated(tomography_shots.max(1));
    per_row.repeated(rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_counts() {
        assert_eq!(qubits_for_dimension(1), 0);
        assert_eq!(qubits_for_dimension(2), 1);
        assert_eq!(qubits_for_dimension(5), 3);
        assert_eq!(qubits_for_dimension(1024), 10);
    }

    #[test]
    fn qft_gate_counts() {
        let r = qft_resources(4);
        assert_eq!(r.single_qubit_gates, 4);
        assert_eq!(r.two_qubit_gates, 6 + 6); // 6 cphases + 2 swaps × 3
    }

    #[test]
    fn qpe_dominated_by_controlled_u() {
        let r = qpe_resources(256, 6);
        assert_eq!(r.qubits, 8 + 6);
        assert!(r.two_qubit_gates > 63 * CU_GATE_FACTOR * 64 - 1);
    }

    #[test]
    fn then_takes_max_qubits_and_adds_gates() {
        let a = ResourceEstimate {
            qubits: 5,
            single_qubit_gates: 10,
            two_qubit_gates: 3,
            depth: 2,
        };
        let b = ResourceEstimate {
            qubits: 8,
            single_qubit_gates: 1,
            two_qubit_gates: 7,
            depth: 4,
        };
        let c = a.then(b);
        assert_eq!(c.qubits, 8);
        assert_eq!(c.single_qubit_gates, 11);
        assert_eq!(c.two_qubit_gates, 10);
        assert_eq!(c.depth, 6);
    }

    #[test]
    fn repetition_scales_linearly() {
        let a = qpe_resources(16, 3);
        let b = a.repeated(5);
        assert_eq!(b.two_qubit_gates, 5 * a.two_qubit_gates);
        assert_eq!(b.qubits, a.qubits);
    }

    #[test]
    fn pipeline_monotone_in_everything() {
        let base = pipeline_resources(64, 4, 10, 2, 100);
        assert!(pipeline_resources(128, 4, 10, 2, 100).two_qubit_gates >= base.two_qubit_gates);
        assert!(pipeline_resources(64, 5, 10, 2, 100).two_qubit_gates >= base.two_qubit_gates);
        assert!(pipeline_resources(64, 4, 20, 2, 100).two_qubit_gates >= base.two_qubit_gates);
    }
}
