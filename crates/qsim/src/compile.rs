//! Compile passes over the circuit IR, applied between compilation and
//! backend execution.
//!
//! The only pass so far is [`fuse_single_qubit`]: adjacent single-qubit
//! gates on the same qubit are folded into one [`Op::Gate1`] by 2×2 matrix
//! multiplication, so a run of `t` rotations costs one state-vector sweep
//! instead of `t`. [`Statevector::fused`](crate::backend::Statevector::fused)
//! (`"fused_statevector"` in config files) applies it before execution.

use crate::circuit::{Circuit, Mat2, Op};
use crate::gates;

/// The 2×2 matrix of a single-qubit op, with its target, when the op is a
/// pure single-qubit gate (fusion candidate).
pub fn single_qubit_matrix(op: &Op) -> Option<(usize, Mat2)> {
    match *op {
        Op::H(q) => Some((q, gates::h())),
        Op::X(q) => Some((q, gates::x())),
        Op::Y(q) => Some((q, gates::y())),
        Op::Z(q) => Some((q, gates::z())),
        Op::S(q) => Some((q, gates::s())),
        Op::T(q) => Some((q, gates::t())),
        Op::Phase { target, theta } => Some((target, gates::phase(theta))),
        Op::Rz { target, theta } => Some((target, gates::rz(theta))),
        Op::Ry { target, theta } => Some((target, gates::ry(theta))),
        Op::Gate1 { target, matrix } => Some((target, matrix)),
        _ => None,
    }
}

/// Product `a·b` of two 2×2 gate matrices (apply `b` first, then `a`).
pub fn mul2(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [[qsc_linalg::C_ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// A single-qubit run being accumulated on one qubit: the fused matrix, the
/// first original op (re-emitted verbatim when nothing actually fused), and
/// the number of ops folded in.
struct PendingRun {
    matrix: Mat2,
    first: Op,
    count: usize,
}

fn flush(pending: &mut [Option<PendingRun>], q: usize, out: &mut Circuit) {
    if let Some(run) = pending[q].take() {
        let op = if run.count == 1 {
            // No fusion happened: keep the original op (bit-identical
            // execution, readable export).
            run.first
        } else {
            Op::Gate1 {
                target: q,
                matrix: run.matrix,
            }
        };
        out.push(op).expect("op was valid in the source circuit");
    }
}

/// Folds every maximal run of adjacent single-qubit gates on the same qubit
/// into one [`Op::Gate1`].
///
/// Single-qubit gates on *different* qubits commute, so a run is only
/// interrupted by a multi-qubit or block op touching its qubit (ops that
/// span the register, like [`Op::PhaseCascade`], interrupt every run).
/// Runs of length one are re-emitted verbatim, so a circuit with nothing to
/// fuse round-trips unchanged. The fused circuit computes the same unitary;
/// amplitudes agree to rounding (≈1e-15 per fused pair), which is why the
/// bit-exact [`Statevector`](crate::backend::Statevector) backend leaves
/// fusion off by default.
pub fn fuse_single_qubit(circuit: &Circuit) -> Circuit {
    let n = circuit.num_qubits();
    let mut out = Circuit::new(n);
    let mut pending: Vec<Option<PendingRun>> = (0..n).map(|_| None).collect();
    for op in circuit.ops() {
        if let Some((q, m)) = single_qubit_matrix(op) {
            pending[q] = Some(match pending[q].take() {
                None => PendingRun {
                    matrix: m,
                    first: op.clone(),
                    count: 1,
                },
                Some(run) => PendingRun {
                    matrix: mul2(&m, &run.matrix),
                    first: run.first,
                    count: run.count + 1,
                },
            });
        } else {
            if op.spans_register() {
                for q in 0..n {
                    flush(&mut pending, q, &mut out);
                }
            } else {
                for q in op.qubits() {
                    flush(&mut pending, q, &mut out);
                }
            }
            out.push(op.clone())
                .expect("op was valid in the source circuit");
        }
    }
    for q in 0..n {
        flush(&mut pending, q, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::QuantumState;
    use qsc_linalg::Complex64;

    fn max_amp_diff(a: &QuantumState, b: &QuantumState) -> f64 {
        a.amplitudes()
            .iter()
            .zip(b.amplitudes())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fuses_adjacent_gates_into_one() {
        let mut c = Circuit::new(1);
        c.push(Op::H(0)).unwrap();
        c.push(Op::T(0)).unwrap();
        c.push(Op::H(0)).unwrap();
        let fused = fuse_single_qubit(&c);
        assert_eq!(fused.gate_count(), 1);
        assert!(matches!(fused.ops()[0], Op::Gate1 { target: 0, .. }));
    }

    #[test]
    fn single_gates_pass_through_verbatim() {
        let mut c = Circuit::new(2);
        c.push(Op::H(0)).unwrap();
        c.push(Op::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        c.push(Op::T(1)).unwrap();
        let fused = fuse_single_qubit(&c);
        assert_eq!(fused.ops(), c.ops());
    }

    #[test]
    fn two_qubit_ops_interrupt_runs_only_on_their_qubits() {
        let mut c = Circuit::new(2);
        c.push(Op::T(0)).unwrap(); // starts a run on 0
        c.push(Op::H(1)).unwrap(); // starts a run on 1
        c.push(Op::Phase {
            target: 1,
            theta: 0.3,
        })
        .unwrap(); // continues the run on 1
        c.push(Op::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap(); // flushes both
        let fused = fuse_single_qubit(&c);
        // T(0) stays verbatim (run of one); H·P fuse on qubit 1.
        assert_eq!(fused.gate_count(), 3);
        assert!(fused
            .ops()
            .iter()
            .any(|o| matches!(o, Op::Gate1 { target: 1, .. })));
        assert!(fused.ops().iter().any(|o| matches!(o, Op::T(0))));
    }

    #[test]
    fn fusion_preserves_amplitudes() {
        // A long mixed circuit: fused and unfused executions agree to
        // rounding on every amplitude.
        let mut c = Circuit::new(3);
        let gates: Vec<Op> = vec![
            Op::H(0),
            Op::T(0),
            Op::Ry {
                target: 0,
                theta: 0.7,
            },
            Op::H(1),
            Op::S(1),
            Op::Cnot {
                control: 0,
                target: 1,
            },
            Op::Rz {
                target: 1,
                theta: -0.4,
            },
            Op::Phase {
                target: 2,
                theta: 1.1,
            },
            Op::H(2),
            Op::CPhase {
                control: 1,
                target: 2,
                theta: 0.9,
            },
            Op::Z(2),
            Op::X(0),
            Op::Y(0),
        ];
        for op in gates {
            c.push(op).unwrap();
        }
        let fused = fuse_single_qubit(&c);
        assert!(fused.gate_count() < c.gate_count());
        for basis in 0..8 {
            let mut a = QuantumState::basis_state(3, basis);
            let mut b = QuantumState::basis_state(3, basis);
            c.run(&mut a).unwrap();
            fused.run(&mut b).unwrap();
            assert!(max_amp_diff(&a, &b) < 1e-12, "basis {basis}");
        }
    }

    #[test]
    fn mul2_matches_matrix_product() {
        let a = crate::gates::h();
        let b = crate::gates::t();
        let ab = mul2(&a, &b);
        // (H·T)|0⟩ = H (T|0⟩) = H|0⟩.
        let mut expect = [[qsc_linalg::C_ZERO; 2]; 2];
        for (i, row) in expect.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = Complex64::new(0.0, 0.0);
                for (k, bk) in b.iter().enumerate() {
                    acc += a[i][k] * bk[j];
                }
                *cell = acc;
            }
        }
        assert_eq!(ab, expect);
    }
}
