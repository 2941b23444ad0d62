//! Standard gate matrices.
//!
//! Single-qubit gates are returned as `[[Complex64; 2]; 2]` arrays (row
//! major) for cheap application.

use qsc_linalg::{Complex64, C_I, C_ONE, C_ZERO};
use std::f64::consts::FRAC_1_SQRT_2;

/// A single-qubit gate as a 2×2 complex array.
pub type Gate1 = [[Complex64; 2]; 2];

/// Hadamard gate.
pub fn h() -> Gate1 {
    let s = Complex64::real(FRAC_1_SQRT_2);
    [[s, s], [s, -s]]
}

/// Pauli-X (NOT) gate.
pub fn x() -> Gate1 {
    [[C_ZERO, C_ONE], [C_ONE, C_ZERO]]
}

/// Pauli-Y gate.
pub fn y() -> Gate1 {
    [[C_ZERO, -C_I], [C_I, C_ZERO]]
}

/// Pauli-Z gate.
pub fn z() -> Gate1 {
    [[C_ONE, C_ZERO], [C_ZERO, -C_ONE]]
}

/// Phase gate S = diag(1, i).
pub fn s() -> Gate1 {
    [[C_ONE, C_ZERO], [C_ZERO, C_I]]
}

/// T gate = diag(1, e^{iπ/4}).
pub fn t() -> Gate1 {
    [
        [C_ONE, C_ZERO],
        [C_ZERO, Complex64::cis(std::f64::consts::FRAC_PI_4)],
    ]
}

/// General phase gate diag(1, e^{iθ}).
pub fn phase(theta: f64) -> Gate1 {
    [[C_ONE, C_ZERO], [C_ZERO, Complex64::cis(theta)]]
}

/// Rotation about Y: `RY(θ) = exp(−iθY/2)`.
pub fn ry(theta: f64) -> Gate1 {
    let c = Complex64::real((theta / 2.0).cos());
    let s = (theta / 2.0).sin();
    [[c, Complex64::real(-s)], [Complex64::real(s), c]]
}

/// Rotation about Z: `RZ(θ) = exp(−iθZ/2)`.
pub fn rz(theta: f64) -> Gate1 {
    [
        [Complex64::cis(-theta / 2.0), C_ZERO],
        [C_ZERO, Complex64::cis(theta / 2.0)],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_linalg::CMatrix;

    /// Checks a gate for unitarity within `tol`.
    fn is_unitary(gate: &Gate1, tol: f64) -> bool {
        as_matrix(gate).is_unitary(tol)
    }

    /// Lifts a single-qubit gate to a [`CMatrix`].
    fn as_matrix(gate: &Gate1) -> CMatrix {
        CMatrix::from_rows(&[gate[0].to_vec(), gate[1].to_vec()]).expect("2×2 is well-formed")
    }

    #[test]
    fn all_standard_gates_unitary() {
        for (name, g) in [
            ("h", h()),
            ("x", x()),
            ("y", y()),
            ("z", z()),
            ("s", s()),
            ("t", t()),
            ("phase", phase(0.7)),
            ("ry", ry(2.2)),
            ("rz", rz(0.3)),
        ] {
            assert!(is_unitary(&g, 1e-12), "{name} not unitary");
        }
    }

    #[test]
    fn pauli_algebra() {
        let xy = as_matrix(&x()).matmul(&as_matrix(&y()));
        let iz = as_matrix(&z()).scaled(C_I);
        assert!((&xy - &iz).max_norm() < 1e-12, "XY = iZ");
        let x2 = as_matrix(&x()).matmul(&as_matrix(&x()));
        assert!((&x2 - &CMatrix::identity(2)).max_norm() < 1e-12);
    }

    #[test]
    fn s_squared_is_z() {
        let s2 = as_matrix(&s()).matmul(&as_matrix(&s()));
        assert!((&s2 - &as_matrix(&z())).max_norm() < 1e-12);
    }

    #[test]
    fn t_squared_is_s() {
        let t2 = as_matrix(&t()).matmul(&as_matrix(&t()));
        assert!((&t2 - &as_matrix(&s())).max_norm() < 1e-12);
    }

    #[test]
    fn rz_two_pi_is_minus_identity() {
        let r = as_matrix(&rz(std::f64::consts::TAU));
        let neg_id = CMatrix::identity(2).scaled(-C_ONE);
        assert!((&r - &neg_id).max_norm() < 1e-12);
    }

    #[test]
    fn phase_zero_is_identity() {
        assert!((&as_matrix(&phase(0.0)) - &CMatrix::identity(2)).max_norm() < 1e-12);
    }
}
