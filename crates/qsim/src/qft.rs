//! Quantum Fourier transform, gate-level, on a contiguous qubit range,
//! cross-validated against the DFT matrix.

use crate::error::SimError;
use crate::state::QuantumState;
use std::f64::consts::PI;

/// Applies the QFT to qubits `range.start..range.end` of the state:
/// on that register, `|j⟩ → (1/√N)·Σ_k e^{+2πi·jk/N}·|k⟩` with
/// `N = 2^(range length)`.
///
/// The state-level oracle for [`Circuit::push_qft`](crate::Circuit::push_qft).
///
/// # Errors
///
/// Returns [`SimError::QubitOutOfRange`] if the range exceeds the register
/// and [`SimError::InvalidParameter`] for an empty range.
pub fn apply_qft(state: &mut QuantumState, range: std::ops::Range<usize>) -> Result<(), SimError> {
    qft_impl(state, range, false)
}

/// Applies the inverse QFT (the adjoint of [`apply_qft`]): the state-level
/// oracle for [`Circuit::push_inverse_qft`](crate::Circuit::push_inverse_qft).
///
/// # Errors
///
/// Same contract as [`apply_qft`].
pub fn apply_inverse_qft(
    state: &mut QuantumState,
    range: std::ops::Range<usize>,
) -> Result<(), SimError> {
    qft_impl(state, range, true)
}

fn qft_impl(
    state: &mut QuantumState,
    range: std::ops::Range<usize>,
    inverse: bool,
) -> Result<(), SimError> {
    let m = range.len();
    if m == 0 {
        return Err(SimError::InvalidParameter {
            context: "empty QFT range".into(),
        });
    }
    if range.end > state.num_qubits() {
        return Err(SimError::QubitOutOfRange {
            qubit: range.end - 1,
            num_qubits: state.num_qubits(),
        });
    }
    let lo = range.start;
    let sign = if inverse { -1.0 } else { 1.0 };

    if !inverse {
        // Forward: H + controlled phases from MSB down, then bit reversal.
        for i in (0..m).rev() {
            state.apply_h(lo + i)?;
            for j in (0..i).rev() {
                let theta = sign * PI / (1 << (i - j)) as f64;
                state.apply_controlled_phase(lo + j, lo + i, theta)?;
            }
        }
        for i in 0..m / 2 {
            state.apply_swap(lo + i, lo + m - 1 - i)?;
        }
    } else {
        // Inverse: exact reversal of the forward sequence.
        for i in 0..m / 2 {
            state.apply_swap(lo + i, lo + m - 1 - i)?;
        }
        for i in 0..m {
            for j in 0..i {
                let theta = sign * PI / (1 << (i - j)) as f64;
                state.apply_controlled_phase(lo + j, lo + i, theta)?;
            }
            state.apply_h(lo + i)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_linalg::{CMatrix, Complex64, C_ZERO};
    use std::f64::consts::TAU;

    /// The DFT matrix `F_{kj} = e^{+2πi·jk/N}/√N` used as the reference for the
    /// gate-level QFT in tests.
    fn dft_matrix(n: usize) -> CMatrix {
        let nf = n as f64;
        let norm = 1.0 / nf.sqrt();
        CMatrix::from_fn(n, n, |k, j| {
            Complex64::cis(TAU * (j as f64) * (k as f64) / nf).scale(norm)
        })
    }

    fn state_as_vec(s: &QuantumState) -> Vec<Complex64> {
        s.amplitudes().to_vec()
    }

    #[test]
    fn qft_matches_dft_matrix_on_basis_states() {
        for m in 1..=4usize {
            let n = 1 << m;
            let f = dft_matrix(n);
            for j in 0..n {
                let mut s = QuantumState::basis_state(m, j);
                apply_qft(&mut s, 0..m).unwrap();
                let got = state_as_vec(&s);
                for k in 0..n {
                    let expected = f[(k, j)];
                    assert!(
                        (got[k] - expected).abs() < 1e-10,
                        "m={m} j={j} k={k}: got {} expected {}",
                        got[k],
                        expected
                    );
                }
            }
        }
    }

    #[test]
    fn inverse_undoes_forward() {
        let mut s = QuantumState::from_amplitudes(
            (0..8)
                .map(|i| Complex64::new(1.0 + i as f64, (i as f64) * 0.3 - 1.0))
                .collect(),
        )
        .unwrap();
        let original = state_as_vec(&s);
        apply_qft(&mut s, 0..3).unwrap();
        apply_inverse_qft(&mut s, 0..3).unwrap();
        let back = state_as_vec(&s);
        for (a, b) in back.iter().zip(&original) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn qft_on_subrange_leaves_other_qubits() {
        // QFT on qubits 0..2 of a 3-qubit register; qubit 2 stays |1⟩.
        let mut s = QuantumState::basis_state(3, 0b100);
        apply_qft(&mut s, 0..2).unwrap();
        let probs = s.marginal_high(1);
        assert!((probs[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qft_of_zero_is_uniform() {
        let mut s = QuantumState::zero_state(3);
        apply_qft(&mut s, 0..3).unwrap();
        for i in 0..8 {
            assert!((s.probability(i) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn dft_matrix_unitary() {
        for n in [2usize, 4, 8] {
            assert!(dft_matrix(n).is_unitary(1e-10));
        }
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        let mut s = QuantumState::zero_state(2);
        assert!(apply_qft(&mut s, 1..1).is_err());
        assert!(apply_qft(&mut s, 0..5).is_err());
        let _ = C_ZERO;
    }
}
