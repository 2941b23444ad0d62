//! Unitary synthesis primitives: exact two-level (Givens) decomposition of
//! arbitrary unitaries and ZYZ factorization of single-qubit gates.
//!
//! The resource estimates in [`crate::resources`] use a *modeled* cost per
//! controlled-unitary; this module provides the constructive counterpart
//! for small systems: any `d × d` unitary factors exactly into at most
//! `d(d−1)/2` two-level rotations (each implementable as a Gray-code chain
//! of CNOTs around one multi-controlled single-qubit gate), and every
//! single-qubit unitary factors as `e^{iα}·Rz(β)·Ry(γ)·Rz(δ)`. The derived
//! counts calibrate the model.

use crate::error::SimError;
use qsc_linalg::{CMatrix, Complex64, C_ONE, C_ZERO};

/// A two-level unitary: acts as the 2×2 block `[[a, b], [c, d]]` on basis
/// states `i < j` and as identity elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevel {
    /// Lower basis-state index.
    pub i: usize,
    /// Higher basis-state index.
    pub j: usize,
    /// The 2×2 block, row-major: `[[a, b], [c, d]]`.
    pub block: [[Complex64; 2]; 2],
}

impl TwoLevel {
    /// Expands to a full `dim × dim` matrix.
    pub fn to_matrix(&self, dim: usize) -> CMatrix {
        let mut m = CMatrix::identity(dim);
        m[(self.i, self.i)] = self.block[0][0];
        m[(self.i, self.j)] = self.block[0][1];
        m[(self.j, self.i)] = self.block[1][0];
        m[(self.j, self.j)] = self.block[1][1];
        m
    }

    /// Hamming distance between the two basis states — the Gray-code chain
    /// length driver for the circuit implementation.
    pub fn hamming_distance(&self) -> u32 {
        (self.i ^ self.j).count_ones()
    }
}

/// Decomposes a unitary into two-level factors such that
/// `U = G_1 · G_2 ⋯ G_m` (in the returned order), `m ≤ d(d−1)/2` plus a
/// final diagonal phase absorbed into the last factors.
///
/// The construction zeroes the sub-diagonal column by column with Givens
/// rotations (the standard Reck/NC §4.5 scheme).
///
/// # Errors
///
/// Returns [`SimError::NotUnitary`] if `u` fails a unitarity check and
/// [`SimError::DimensionMismatch`] for non-square input.
///
/// # Examples
///
/// ```
/// use qsc_sim::synthesis::{two_level_decompose, reconstruct};
/// use qsc_linalg::CMatrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), qsc_sim::SimError> {
/// let mut rng = StdRng::seed_from_u64(5);
/// let u = CMatrix::random_unitary(4, &mut rng);
/// let factors = two_level_decompose(&u)?;
/// assert!((&reconstruct(&factors, 4) - &u).max_norm() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn two_level_decompose(u: &CMatrix) -> Result<Vec<TwoLevel>, SimError> {
    if !u.is_square() {
        return Err(SimError::DimensionMismatch {
            context: format!("two_level_decompose: {}×{}", u.nrows(), u.ncols()),
        });
    }
    if !u.is_unitary(1e-8) {
        let dev = (&u.adjoint().matmul(u) - &CMatrix::identity(u.nrows())).max_norm();
        return Err(SimError::NotUnitary { deviation: dev });
    }
    let d = u.nrows();
    let mut work = u.clone();
    // Left-multiplied eliminators E so that E_m ⋯ E_1 · U = D (diagonal).
    let mut eliminators: Vec<TwoLevel> = Vec::new();

    for col in 0..d.saturating_sub(1) {
        for row in (col + 1..d).rev() {
            let b = work[(row, col)];
            if b.abs() < 1e-14 {
                continue;
            }
            let a = work[(col, col)];
            let norm = (a.norm_sqr() + b.norm_sqr()).sqrt();
            // Givens block G with G · [a; b] = [norm; 0] on rows (col, row).
            let g00 = a.conj() / norm;
            let g01 = b.conj() / norm;
            let g10 = b / norm;
            let g11 = -a / norm;
            let elim = TwoLevel {
                i: col,
                j: row,
                block: [[g00, g01], [g10, g11]],
            };
            apply_two_level_left(&mut work, &elim);
            eliminators.push(elim);
        }
    }

    // work is now diagonal with unit-modulus entries:
    // E_m ⋯ E_1 · U = D  ⇒  U = E_1† · E_2† ⋯ E_m† · D,
    // so the factor list is the eliminator adjoints in *original* order,
    // followed by two-level phase factors for D.
    let mut factors: Vec<TwoLevel> = eliminators
        .iter()
        .map(|e| TwoLevel {
            i: e.i,
            j: e.j,
            block: [
                [e.block[0][0].conj(), e.block[1][0].conj()],
                [e.block[0][1].conj(), e.block[1][1].conj()],
            ],
        })
        .collect();

    // Diagonal phases: fold each non-trivial pair of entries into a
    // two-level diagonal factor (pair consecutive indices; a final lone
    // phase pairs with index 0).
    let mut pending: Vec<(usize, Complex64)> = (0..d)
        .map(|i| (i, work[(i, i)]))
        .filter(|(_, z)| (z.re - 1.0).abs() > 1e-12 || z.im.abs() > 1e-12)
        .collect();
    while pending.len() >= 2 {
        let (i, zi) = pending.remove(0);
        let (j, zj) = pending.remove(0);
        factors.push(TwoLevel {
            i: i.min(j),
            j: i.max(j),
            block: if i < j {
                [[zi, C_ZERO], [C_ZERO, zj]]
            } else {
                [[zj, C_ZERO], [C_ZERO, zi]]
            },
        });
    }
    if let Some((i, z)) = pending.pop() {
        let partner = if i == 0 { 1.min(d - 1) } else { 0 };
        if partner == i {
            // d == 1: a global phase; encode as a 1-element "two-level" is
            // impossible — fold into a degenerate factor on (0,0) is not
            // representable, so multiply into the last factor if any.
            if let Some(last) = factors.last_mut() {
                for row in &mut last.block {
                    for v in row {
                        *v *= z;
                    }
                }
            } else {
                factors.push(TwoLevel {
                    i: 0,
                    j: 0,
                    block: [[z, C_ZERO], [C_ZERO, C_ONE]],
                });
            }
        } else {
            factors.push(TwoLevel {
                i: i.min(partner),
                j: i.max(partner),
                block: if i < partner {
                    [[z, C_ZERO], [C_ZERO, C_ONE]]
                } else {
                    [[C_ONE, C_ZERO], [C_ZERO, z]]
                },
            });
        }
    }

    Ok(factors)
}

fn apply_two_level_left(m: &mut CMatrix, g: &TwoLevel) {
    let (i, j) = (g.i, g.j);
    for col in 0..m.ncols() {
        let a = m[(i, col)];
        let b = m[(j, col)];
        m[(i, col)] = g.block[0][0] * a + g.block[0][1] * b;
        m[(j, col)] = g.block[1][0] * a + g.block[1][1] * b;
    }
}

/// Multiplies a factor list back together (`factors[0] · factors[1] ⋯`).
pub fn reconstruct(factors: &[TwoLevel], dim: usize) -> CMatrix {
    let mut u = CMatrix::identity(dim);
    for f in factors {
        if f.i == f.j {
            // Degenerate global-phase factor (dim 1 edge case).
            let mut d = CMatrix::identity(dim);
            d[(f.i, f.i)] = f.block[0][0];
            u = u.matmul(&d);
        } else {
            u = u.matmul(&f.to_matrix(dim));
        }
    }
    u
}

/// ZYZ decomposition of a single-qubit unitary:
/// `U = e^{iα} · Rz(β) · Ry(γ) · Rz(δ)`.
///
/// Returns `(alpha, beta, gamma, delta)`.
///
/// # Errors
///
/// Returns [`SimError::NotUnitary`] if the matrix is not unitary.
pub fn zyz_decompose(u: &[[Complex64; 2]; 2]) -> Result<(f64, f64, f64, f64), SimError> {
    let m = CMatrix::from_rows(&[u[0].to_vec(), u[1].to_vec()]).expect("2×2");
    if !m.is_unitary(1e-9) {
        let dev = (&m.adjoint().matmul(&m) - &CMatrix::identity(2)).max_norm();
        return Err(SimError::NotUnitary { deviation: dev });
    }
    // det(U) = e^{2iα}; strip the global phase to get an SU(2) element.
    let det = u[0][0] * u[1][1] - u[0][1] * u[1][0];
    let alpha = det.arg() / 2.0;
    let phase = Complex64::cis(-alpha);
    let v = [
        [u[0][0] * phase, u[0][1] * phase],
        [u[1][0] * phase, u[1][1] * phase],
    ];
    // SU(2): v = [[cos(γ/2)e^{-i(β+δ)/2}, −sin(γ/2)e^{-i(β−δ)/2}],
    //             [sin(γ/2)e^{+i(β−δ)/2},  cos(γ/2)e^{+i(β+δ)/2}]]
    let gamma = 2.0 * v[1][0].abs().atan2(v[0][0].abs());
    let (bpd, bmd) = if v[0][0].abs() > 1e-12 && v[1][0].abs() > 1e-12 {
        (-2.0 * v[0][0].arg(), 2.0 * v[1][0].arg())
    } else if v[0][0].abs() > 1e-12 {
        // γ ≈ 0: only β+δ is determined; put everything in β.
        (-2.0 * v[0][0].arg(), 0.0)
    } else {
        // γ ≈ π: only β−δ is determined.
        (0.0, 2.0 * v[1][0].arg())
    };
    let beta = (bpd + bmd) / 2.0;
    let delta = (bpd - bmd) / 2.0;
    Ok((alpha, beta, gamma, delta))
}

/// Derived two-qubit-gate count for implementing a `dim × dim` unitary as
/// two-level factors with Gray-code chains: each factor with Hamming
/// distance `h` needs `2(h−1)` CNOT-chain steps plus one multi-controlled
/// single-qubit gate, itself costing `O(s)` Toffoli-ladder two-qubit gates
/// (`16(s−1)` with the standard V-chain construction, `s = log2(dim)`).
pub fn derived_two_qubit_count(factors: &[TwoLevel], dim: usize) -> usize {
    let s = dim.next_power_of_two().trailing_zeros() as usize;
    let mcu_cost = if s > 1 { 16 * (s - 1) } else { 1 };
    factors
        .iter()
        .map(|f| {
            if f.i == f.j {
                0
            } else {
                let h = f.hamming_distance() as usize;
                2 * h.saturating_sub(1) + mcu_cost
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Rebuilds `e^{iα}·Rz(β)·Ry(γ)·Rz(δ)` as a 2×2 array (inverse of
    /// [`zyz_decompose`]), the round-trip oracle of the tests below.
    fn zyz_compose(alpha: f64, beta: f64, gamma: f64, delta: f64) -> [[Complex64; 2]; 2] {
        let a = gates::rz(beta);
        let b = gates::ry(gamma);
        let c = gates::rz(delta);
        // Multiply a·b·c.
        let mul = |x: &[[Complex64; 2]; 2], y: &[[Complex64; 2]; 2]| {
            let mut out = [[C_ZERO; 2]; 2];
            for (i, row) in out.iter_mut().enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = x[i][0] * y[0][j] + x[i][1] * y[1][j];
                }
            }
            out
        };
        let abc = mul(&mul(&a, &b), &c);
        let phase = Complex64::cis(alpha);
        [
            [abc[0][0] * phase, abc[0][1] * phase],
            [abc[1][0] * phase, abc[1][1] * phase],
        ]
    }

    #[test]
    fn two_level_reconstructs_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(11);
        for d in [2usize, 3, 4, 6, 8] {
            let u = CMatrix::random_unitary(d, &mut rng);
            let factors = two_level_decompose(&u).unwrap();
            let back = reconstruct(&factors, d);
            assert!(
                (&back - &u).max_norm() < 1e-9,
                "d={d}: err {}",
                (&back - &u).max_norm()
            );
            assert!(factors.len() <= d * (d - 1) / 2 + d / 2 + 1);
        }
    }

    #[test]
    fn two_level_of_identity_is_empty() {
        let factors = two_level_decompose(&CMatrix::identity(4)).unwrap();
        assert!(factors.is_empty());
    }

    #[test]
    fn two_level_factors_are_unitary() {
        let mut rng = StdRng::seed_from_u64(12);
        let u = CMatrix::random_unitary(5, &mut rng);
        for f in two_level_decompose(&u).unwrap() {
            if f.i != f.j {
                assert!(f.to_matrix(5).is_unitary(1e-9));
            }
        }
    }

    #[test]
    fn rejects_non_unitary() {
        let m = CMatrix::from_diag(&[Complex64::real(2.0), Complex64::real(1.0)]);
        assert!(two_level_decompose(&m).is_err());
    }

    #[test]
    fn zyz_round_trips_standard_gates() {
        for (name, g) in [
            ("h", gates::h()),
            ("x", gates::x()),
            ("y", gates::y()),
            ("z", gates::z()),
            ("s", gates::s()),
            ("t", gates::t()),
            ("ry", gates::ry(1.3)),
            ("rz", gates::rz(2.1)),
            ("phase", gates::phase(0.4)),
        ] {
            let (a, b, c, d) = zyz_decompose(&g).unwrap();
            let back = zyz_compose(a, b, c, d);
            for i in 0..2 {
                for j in 0..2 {
                    assert!(
                        (back[i][j] - g[i][j]).abs() < 1e-9,
                        "{name}: entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn zyz_round_trips_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let u = CMatrix::random_unitary(2, &mut rng);
            let g = [[u[(0, 0)], u[(0, 1)]], [u[(1, 0)], u[(1, 1)]]];
            let (a, b, c, d) = zyz_decompose(&g).unwrap();
            let back = zyz_compose(a, b, c, d);
            for i in 0..2 {
                for j in 0..2 {
                    assert!((back[i][j] - g[i][j]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn derived_count_positive_and_monotone_in_dim() {
        let mut rng = StdRng::seed_from_u64(14);
        let u4 = CMatrix::random_unitary(4, &mut rng);
        let u8 = CMatrix::random_unitary(8, &mut rng);
        let c4 = derived_two_qubit_count(&two_level_decompose(&u4).unwrap(), 4);
        let c8 = derived_two_qubit_count(&two_level_decompose(&u8).unwrap(), 8);
        assert!(c4 > 0);
        assert!(c8 > c4);
    }

    #[test]
    fn hamming_distance_drives_chain_length() {
        let f1 = TwoLevel {
            i: 0b000,
            j: 0b001,
            block: [[C_ONE, C_ZERO], [C_ZERO, C_ONE]],
        };
        let f2 = TwoLevel {
            i: 0b000,
            j: 0b111,
            block: [[C_ONE, C_ZERO], [C_ZERO, C_ONE]],
        };
        assert_eq!(f1.hamming_distance(), 1);
        assert_eq!(f2.hamming_distance(), 3);
        assert!(derived_two_qubit_count(&[f2], 8) > derived_two_qubit_count(&[f1], 8));
    }
}
