//! Differential kernel-equivalence harness: every SIMD kernel tier vs the
//! scalar reference, bit for bit.
//!
//! The workspace's byte-identity claims (golden CSVs, cross-backend
//! amplitude pinning, content-addressed caching) all assume the complex
//! kernels in `qsc_linalg::kernels` produce the same bits on every tier.
//! This suite is what makes that assumption enforceable:
//!
//! * every kernel × every available tier × awkward lengths (1..=9, 2^n±1)
//!   on seeded random inputs — exact bit equality against the scalar tier;
//! * special values: denormals, signed zeros, infinities — exact bit
//!   equality; NaN inputs — NaN-position identity plus bit equality on the
//!   non-NaN lanes (NaN *payloads* are microarchitecture detail we do not
//!   bet CI on);
//! * state-level replays: `apply_single` / controlled gates / controlled
//!   phase at every qubit position (stride edges), and the matrix kernels
//!   (`matmul`, `matvec`, `gram`) against in-test naive scalar loops —
//!   pinning the *wiring*, not just the kernels;
//! * the one documented ULP-bound kernel, `dot_unordered`, against its
//!   reassociation error bound `|Δ| ≤ 2·n·ε·Σ|x_i|·|y_i|`;
//! * the dense Hermitian eigensolver (`tridiagonalize`, `tql_implicit`,
//!   `eigh`, `eigvalsh`) against a private copy of its original
//!   column-strided loops — `d`, `e`, `Q`, eigenvalues and eigenvectors
//!   bit for bit, so its row-contiguous layout and its `kernels::dot` /
//!   `kernels::axpy` calls are pinned on whichever tier the run selects;
//! * the partial eigensolver `eigh_spectrum` against `eigh`: eigenvalues
//!   bit for bit, selected eigenvectors within `4·n·ε` of `eigh`'s
//!   columns (degenerate spectra and arbitrary selections included), and
//!   against the `eigh_jacobi` residual and orthonormality oracle;
//! * proptest generators for gate and reduction inputs.
//!
//! CI's test matrix runs this suite under `QSC_KERNELS` ∈ {scalar,
//! portable, avx2} × `RAYON_NUM_THREADS` ∈ {1, 2, 4}; in-process, the
//! `_with` kernel variants additionally exercise every available tier
//! regardless of the environment (tiers the CPU lacks are skipped with a
//! note).

use proptest::prelude::*;
use qsc_suite::graph::generators::{dsbm, DsbmParams};
use qsc_suite::graph::normalized_hermitian_laplacian;
use qsc_suite::linalg::eig::{
    eigh, eigh_jacobi, eigh_spectrum, eigvalsh, tql_implicit, tridiagonalize,
};
use qsc_suite::linalg::kernels::{
    self, axpy_with, cdot_with, dot_unordered_with, dot_with, gate2_with, scale_with, Gate2,
    KernelTier,
};
use qsc_suite::linalg::{CMatrix, Complex64, LinalgError, C_ONE, C_ZERO};
use qsc_suite::sim::QuantumState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lengths that hit every edge the tiers care about: sub-width slices,
/// odd remainders, and exact power-of-two boundaries ±1.
const AWKWARD_LENS: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257,
];

/// The tiers this CPU can execute, with a skip note for the ones it
/// cannot (the note is the suite's record that coverage was reduced).
fn available_tiers() -> Vec<KernelTier> {
    let mut tiers = Vec::new();
    for tier in KernelTier::ALL {
        if tier.is_available() {
            tiers.push(tier);
        } else {
            eprintln!("note: skipping {tier} kernel tier (not supported by this CPU)");
        }
    }
    tiers
}

fn bits(z: Complex64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Exact bit equality, element by element. `context` names the kernel and
/// tier so a failure is self-locating.
fn assert_bits_eq(got: &[Complex64], want: &[Complex64], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            bits(*g),
            bits(*w),
            "{context}: element {i}: got {g:?}, want {w:?}"
        );
    }
}

/// NaN-tolerant comparison: NaNs must appear in the same lanes; non-NaN
/// lanes must be bit-equal. (x86 NaN *payload* propagation is matched by
/// the operand-order discipline, but we do not pin CI on it.)
fn assert_nan_pattern_eq(got: &[Complex64], want: &[Complex64], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        for (lane, (gv, wv)) in [("re", (g.re, w.re)), ("im", (g.im, w.im))] {
            assert_eq!(
                gv.is_nan(),
                wv.is_nan(),
                "{context}: element {i}.{lane}: NaN mismatch: got {gv}, want {wv}"
            );
            if !wv.is_nan() {
                assert_eq!(
                    gv.to_bits(),
                    wv.to_bits(),
                    "{context}: element {i}.{lane}: got {gv}, want {wv}"
                );
            }
        }
    }
}

fn random_vec(len: usize, rng: &mut StdRng) -> Vec<Complex64> {
    (0..len)
        .map(|_| Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
        .collect()
}

fn random_gate(rng: &mut StdRng) -> Gate2 {
    let g = |rng: &mut StdRng| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
    [[g(rng), g(rng)], [g(rng), g(rng)]]
}

/// A vector salted with every non-NaN special value class: ±0.0,
/// denormals (including the smallest positive f64), ±∞, and huge/tiny
/// magnitudes.
fn special_vec(len: usize, rng: &mut StdRng) -> Vec<Complex64> {
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,                      // smallest normal
        f64::MIN_POSITIVE / 2.0,                // denormal
        f64::from_bits(1),                      // smallest positive denormal
        -f64::from_bits(0x0008_0000_0000_0001), // negative denormal
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e308,
        -1e-308,
    ];
    (0..len)
        .map(|_| {
            let pick = |rng: &mut StdRng| {
                if rng.gen::<bool>() {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            };
            Complex64::new(pick(rng), pick(rng))
        })
        .collect()
}

/// Like [`special_vec`] but also salts NaNs in.
fn nan_vec(len: usize, rng: &mut StdRng) -> Vec<Complex64> {
    let mut v = special_vec(len, rng);
    for z in v.iter_mut() {
        if rng.gen_range(0..4) == 0 {
            if rng.gen::<bool>() {
                z.re = f64::NAN;
            } else {
                z.im = f64::NAN;
            }
        }
    }
    v
}

// ---------------------------------------------------------------------------
// Kernel-level differentials: each tier vs the scalar tier.
// ---------------------------------------------------------------------------

#[test]
fn gate2_is_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(101);
    for &len in AWKWARD_LENS {
        let lo0 = random_vec(len, &mut rng);
        let hi0 = random_vec(len, &mut rng);
        let g = random_gate(&mut rng);
        let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
        gate2_with(KernelTier::Scalar, &g, &mut rlo, &mut rhi);
        for tier in available_tiers() {
            let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
            gate2_with(tier, &g, &mut lo, &mut hi);
            assert_bits_eq(&lo, &rlo, &format!("gate2 lo len {len} tier {tier}"));
            assert_bits_eq(&hi, &rhi, &format!("gate2 hi len {len} tier {tier}"));
        }
    }
}

#[test]
fn scale_is_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(102);
    for &len in AWKWARD_LENS {
        let x0 = random_vec(len, &mut rng);
        let alpha = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let mut want = x0.clone();
        scale_with(KernelTier::Scalar, alpha, &mut want);
        for tier in available_tiers() {
            let mut x = x0.clone();
            scale_with(tier, alpha, &mut x);
            assert_bits_eq(&x, &want, &format!("scale len {len} tier {tier}"));
        }
    }
}

#[test]
fn axpy_is_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(103);
    for &len in AWKWARD_LENS {
        let x = random_vec(len, &mut rng);
        let y0 = random_vec(len, &mut rng);
        let alpha = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let mut want = y0.clone();
        axpy_with(KernelTier::Scalar, alpha, &x, &mut want);
        for tier in available_tiers() {
            let mut y = y0.clone();
            axpy_with(tier, alpha, &x, &mut y);
            assert_bits_eq(&y, &want, &format!("axpy len {len} tier {tier}"));
        }
    }
}

#[test]
fn ordered_reductions_are_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(104);
    for &len in AWKWARD_LENS {
        let x = random_vec(len, &mut rng);
        let y = random_vec(len, &mut rng);
        let want_dot = dot_with(KernelTier::Scalar, &x, &y);
        let want_cdot = cdot_with(KernelTier::Scalar, &x, &y);
        for tier in available_tiers() {
            assert_bits_eq(
                &[dot_with(tier, &x, &y)],
                &[want_dot],
                &format!("dot len {len} tier {tier}"),
            );
            assert_bits_eq(
                &[cdot_with(tier, &x, &y)],
                &[want_cdot],
                &format!("cdot len {len} tier {tier}"),
            );
        }
    }
}

#[test]
fn special_values_are_bit_identical_across_tiers() {
    // Denormals, signed zeros, infinities: the SIMD lanes must round,
    // underflow, and sign-propagate exactly like the scalar ops.
    let mut rng = StdRng::seed_from_u64(105);
    for &len in &[1, 2, 3, 7, 8, 9, 33, 257] {
        for case in 0..8 {
            let lo0 = special_vec(len, &mut rng);
            let hi0 = special_vec(len, &mut rng);
            let g = random_gate(&mut rng);
            let alpha = hi0[0];
            let context =
                |k: &str, t: KernelTier| format!("{k} special len {len} case {case} tier {t}");

            let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
            gate2_with(KernelTier::Scalar, &g, &mut rlo, &mut rhi);
            let mut rscale = lo0.clone();
            scale_with(KernelTier::Scalar, alpha, &mut rscale);
            let mut raxpy = hi0.clone();
            axpy_with(KernelTier::Scalar, alpha, &lo0, &mut raxpy);
            let rdot = dot_with(KernelTier::Scalar, &lo0, &hi0);
            let rcdot = cdot_with(KernelTier::Scalar, &lo0, &hi0);

            for tier in available_tiers() {
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                gate2_with(tier, &g, &mut lo, &mut hi);
                assert_nan_pattern_eq(&lo, &rlo, &context("gate2 lo", tier));
                assert_nan_pattern_eq(&hi, &rhi, &context("gate2 hi", tier));
                let mut s = lo0.clone();
                scale_with(tier, alpha, &mut s);
                assert_nan_pattern_eq(&s, &rscale, &context("scale", tier));
                let mut a = hi0.clone();
                axpy_with(tier, alpha, &lo0, &mut a);
                assert_nan_pattern_eq(&a, &raxpy, &context("axpy", tier));
                assert_nan_pattern_eq(
                    &[dot_with(tier, &lo0, &hi0)],
                    &[rdot],
                    &context("dot", tier),
                );
                assert_nan_pattern_eq(
                    &[cdot_with(tier, &lo0, &hi0)],
                    &[rcdot],
                    &context("cdot", tier),
                );
            }
        }
    }
}

#[test]
fn nan_propagation_matches_scalar_positions() {
    // A NaN anywhere in an input must surface as NaN in exactly the lanes
    // the scalar reference produces it in, with every other lane bit-equal.
    let mut rng = StdRng::seed_from_u64(106);
    for &len in &[1, 3, 4, 5, 8, 17, 64, 129] {
        for case in 0..8 {
            let lo0 = nan_vec(len, &mut rng);
            let hi0 = nan_vec(len, &mut rng);
            let g = random_gate(&mut rng);
            let context =
                |k: &str, t: KernelTier| format!("{k} nan len {len} case {case} tier {t}");

            let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
            gate2_with(KernelTier::Scalar, &g, &mut rlo, &mut rhi);
            let rdot = dot_with(KernelTier::Scalar, &lo0, &hi0);
            let rcdot = cdot_with(KernelTier::Scalar, &lo0, &hi0);

            for tier in available_tiers() {
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                gate2_with(tier, &g, &mut lo, &mut hi);
                assert_nan_pattern_eq(&lo, &rlo, &context("gate2 lo", tier));
                assert_nan_pattern_eq(&hi, &rhi, &context("gate2 hi", tier));
                assert_nan_pattern_eq(
                    &[dot_with(tier, &lo0, &hi0)],
                    &[rdot],
                    &context("dot", tier),
                );
                assert_nan_pattern_eq(
                    &[cdot_with(tier, &lo0, &hi0)],
                    &[rcdot],
                    &context("cdot", tier),
                );
            }
        }
    }
}

#[test]
fn dot_unordered_stays_within_the_documented_ulp_bound() {
    // The one reassociated kernel: |Δ| ≤ 2·n·ε·Σ|x_i|·|y_i| per component
    // against the ordered scalar reduction (docs/KERNELS.md).
    let mut rng = StdRng::seed_from_u64(107);
    for &len in AWKWARD_LENS {
        let x = random_vec(len, &mut rng);
        let y = random_vec(len, &mut rng);
        let reference = dot_with(KernelTier::Scalar, &x, &y);
        let bound = 2.0
            * len as f64
            * f64::EPSILON
            * x.iter()
                .zip(&y)
                .map(|(a, b)| a.abs() * b.abs())
                .sum::<f64>();
        for tier in available_tiers() {
            let got = dot_unordered_with(tier, &x, &y);
            let diff = (got - reference).abs();
            assert!(
                diff <= bound,
                "dot_unordered len {len} tier {tier}: |Δ| = {diff:e} > bound {bound:e}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch layer.
// ---------------------------------------------------------------------------

#[test]
fn active_tier_honors_a_forced_environment() {
    // Under the CI env-matrix, QSC_KERNELS is set before the process
    // starts; the latched active tier must match it exactly (the forced
    // tier is validated, so "set but unavailable" never reaches here).
    let active = kernels::active();
    assert!(active.is_available(), "active tier must be executable");
    match std::env::var(kernels::KERNELS_ENV) {
        Ok(forced) => match KernelTier::parse(&forced) {
            Some(tier) if tier.is_available() => {
                assert_eq!(
                    active,
                    tier,
                    "{}={forced} was not honored",
                    kernels::KERNELS_ENV
                );
            }
            Some(tier) => {
                eprintln!(
                    "note: {}={tier} forced but unavailable; library fell back",
                    kernels::KERNELS_ENV
                );
                assert_eq!(active, kernels::detect());
            }
            None => panic!("CI set an invalid {}={forced}", kernels::KERNELS_ENV),
        },
        Err(_) => assert_eq!(active, kernels::detect(), "no override: detection wins"),
    }
}

#[test]
fn validate_rejects_unknown_and_unavailable_tiers_by_name() {
    // The error type itself (the named-error contract binaries rely on).
    let unknown = kernels::KernelConfigError::UnknownTier("mmx".into());
    let message = unknown.to_string();
    assert!(message.contains(kernels::KERNELS_ENV), "{message}");
    assert!(message.contains("mmx"), "{message}");
    assert!(message.contains("scalar | portable | avx2"), "{message}");
    let unavailable = kernels::KernelConfigError::Unavailable(KernelTier::Avx2);
    assert!(unavailable.to_string().contains("avx2"));
}

// ---------------------------------------------------------------------------
// Wiring-level replays: the dispatched kernels as the simulator and the
// matrix layer actually call them.
// ---------------------------------------------------------------------------

/// Scalar reference for a single-qubit gate: the textbook per-index loop,
/// written without any shared kernel code.
fn naive_apply_single(amps: &mut [Complex64], g: &Gate2, qubit: usize) {
    let bit = 1usize << qubit;
    for i in 0..amps.len() {
        if i & bit == 0 {
            let a0 = amps[i];
            let a1 = amps[i | bit];
            amps[i] = g[0][0] * a0 + g[0][1] * a1;
            amps[i | bit] = g[1][0] * a0 + g[1][1] * a1;
        }
    }
}

fn naive_apply_controlled(amps: &mut [Complex64], g: &Gate2, control: usize, target: usize) {
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    for i in 0..amps.len() {
        if i & tbit == 0 && i & cbit != 0 {
            let a0 = amps[i];
            let a1 = amps[i | tbit];
            amps[i] = g[0][0] * a0 + g[0][1] * a1;
            amps[i | tbit] = g[1][0] * a0 + g[1][1] * a1;
        }
    }
}

fn naive_apply_cphase(amps: &mut [Complex64], control: usize, target: usize, theta: f64) {
    let phase = Complex64::cis(theta);
    let both = (1usize << control) | (1usize << target);
    for (i, a) in amps.iter_mut().enumerate() {
        if i & both == both {
            *a *= phase;
        }
    }
}

fn random_state(n: usize, rng: &mut StdRng) -> QuantumState {
    let amps = random_vec(1 << n, rng);
    QuantumState::from_amplitudes(amps).expect("dimension matches")
}

#[test]
fn apply_single_matches_naive_replay_at_every_stride() {
    // Every qubit position of every register size up to 9 qubits: this
    // sweeps the kernel across stride edges 1, 2, 4, …, 256 — sub-lane,
    // exact-lane, and multi-lane splits included — under the *dispatched*
    // tier, against a from-scratch scalar replay.
    let mut rng = StdRng::seed_from_u64(201);
    for n in 1..=9 {
        for qubit in 0..n {
            let state0 = random_state(n, &mut rng);
            let g = random_gate(&mut rng);
            let mut want: Vec<Complex64> = state0.amplitudes().to_vec();
            naive_apply_single(&mut want, &g, qubit);
            let mut state = state0;
            state.apply_single(&g, qubit).expect("in range");
            assert_bits_eq(
                state.amplitudes(),
                &want,
                &format!("apply_single n {n} qubit {qubit}"),
            );
        }
    }
}

#[test]
fn controlled_gates_match_naive_replay_for_every_qubit_pair() {
    let mut rng = StdRng::seed_from_u64(202);
    for n in 2..=7 {
        for control in 0..n {
            for target in 0..n {
                if control == target {
                    continue;
                }
                let state0 = random_state(n, &mut rng);
                let g = random_gate(&mut rng);
                let theta: f64 = rng.gen_range(-3.0..3.0);

                let mut want: Vec<Complex64> = state0.amplitudes().to_vec();
                naive_apply_controlled(&mut want, &g, control, target);
                let mut state = state0.clone();
                state
                    .apply_controlled_single(&g, control, target)
                    .expect("in range");
                assert_bits_eq(
                    state.amplitudes(),
                    &want,
                    &format!("controlled n {n} c {control} t {target}"),
                );

                let mut want: Vec<Complex64> = state0.amplitudes().to_vec();
                naive_apply_cphase(&mut want, control, target, theta);
                let mut state = state0.clone();
                state
                    .apply_controlled_phase(control, target, theta)
                    .expect("in range");
                assert_bits_eq(
                    state.amplitudes(),
                    &want,
                    &format!("cphase n {n} c {control} t {target}"),
                );
            }
        }
    }
}

/// Naive ikj matmul with the same `a == 0` skip as the production kernel
/// (the skip is semantic for ±0.0/∞/NaN operands, so the reference must
/// mirror it).
fn naive_matmul(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        for k in 0..a.ncols() {
            let s = a[(i, k)];
            if s == C_ZERO {
                continue;
            }
            for j in 0..b.ncols() {
                let prod = s * b[(k, j)];
                out[(i, j)] += prod;
            }
        }
    }
    out
}

#[test]
fn matrix_kernels_match_naive_scalar_loops() {
    let mut rng = StdRng::seed_from_u64(203);
    // Sizes straddling the k-tile width (64) and the lane widths.
    for &(m, k, n) in &[
        (1, 1, 1),
        (3, 5, 2),
        (7, 9, 8),
        (16, 17, 15),
        (33, 64, 9),
        (20, 65, 33),
    ] {
        let a = CMatrix::from_fn(m, k, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let b = CMatrix::from_fn(k, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let want = naive_matmul(&a, &b);
        let got = a.matmul(&b);
        for i in 0..m {
            assert_bits_eq(
                got.row(i),
                want.row(i),
                &format!("matmul {m}x{k}x{n} row {i}"),
            );
        }
        let got_serial = a.matmul_serial(&b);
        for i in 0..m {
            assert_bits_eq(
                got_serial.row(i),
                want.row(i),
                &format!("matmul_serial {m}x{k}x{n} row {i}"),
            );
        }

        // matvec: ordered row dots.
        let x = random_vec(k, &mut rng);
        let want_y: Vec<Complex64> = (0..m)
            .map(|i| {
                let mut acc = C_ZERO;
                for (av, xv) in a.row(i).iter().zip(&x) {
                    acc += *av * *xv;
                }
                acc
            })
            .collect();
        assert_bits_eq(&a.matvec(&x), &want_y, &format!("matvec {m}x{k}"));

        // gram: conjugated axpy accumulation over the upper triangle.
        let want_g = {
            let mut out = CMatrix::zeros(k, k);
            for i in 0..k {
                for r in 0..m {
                    let c = a[(r, i)].conj();
                    if c == C_ZERO {
                        continue;
                    }
                    for j in i..k {
                        let prod = c * a[(r, j)];
                        out[(i, j)] += prod;
                    }
                }
            }
            for i in 0..k {
                for j in 0..i {
                    out[(i, j)] = out[(j, i)].conj();
                }
            }
            out
        };
        let got_g = a.gram();
        for i in 0..k {
            assert_bits_eq(
                got_g.row(i),
                want_g.row(i),
                &format!("gram {m}x{k} row {i}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Dense eigensolver vs its original column-strided loops.
// ---------------------------------------------------------------------------

/// The Householder reduction and QL iteration as they were before their
/// loops were made row-contiguous, kept verbatim as the bit-identity
/// oracle: `Q` accumulated a column at a time, QL rotating two columns of
/// a row-major `z` with stride `n`.
mod reference {
    use qsc_suite::linalg::vector::cdot;
    use qsc_suite::linalg::{CMatrix, Complex64, LinalgError, C_ZERO};

    pub struct Tridiagonal {
        pub d: Vec<f64>,
        pub e: Vec<f64>,
        pub q: CMatrix,
    }

    fn larfg(alpha: Complex64, x: &[Complex64]) -> (f64, Complex64, Vec<Complex64>) {
        let xnorm = x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if xnorm == 0.0 && alpha.im == 0.0 {
            // Already in the desired form; no reflection needed.
            return (alpha.re, C_ZERO, vec![C_ZERO; x.len()]);
        }
        let norm_all = (alpha.norm_sqr() + xnorm * xnorm).sqrt();
        let beta = if alpha.re >= 0.0 { -norm_all } else { norm_all };
        let tau = Complex64::new((beta - alpha.re) / beta, -alpha.im / beta);
        let denom = alpha - beta;
        let inv = denom.recip();
        let v_rest: Vec<Complex64> = x.iter().map(|&z| z * inv).collect();
        (beta, tau, v_rest)
    }

    pub fn tridiagonalize(a: &CMatrix) -> Tridiagonal {
        assert!(a.is_square(), "tridiagonalize: matrix must be square");
        let n = a.nrows();
        let mut m = a.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n.saturating_sub(1)];
        // Householder vectors (full length n, zero above their support) and taus,
        // kept to accumulate Q afterwards.
        let mut vs: Vec<Vec<Complex64>> = Vec::with_capacity(n.saturating_sub(1));
        let mut taus: Vec<Complex64> = Vec::with_capacity(n.saturating_sub(1));

        for k in 0..n.saturating_sub(1) {
            let alpha = m[(k + 1, k)];
            let x: Vec<Complex64> = (k + 2..n).map(|i| m[(i, k)]).collect();
            let (beta, tau, v_rest) = larfg(alpha, &x);
            e[k] = beta;

            // Full-length Householder vector: support on rows k+1..n.
            let mut v = vec![C_ZERO; n];
            v[k + 1] = Complex64::real(1.0);
            for (offset, &val) in v_rest.iter().enumerate() {
                v[k + 2 + offset] = val;
            }

            if tau != C_ZERO {
                // Two-sided update of the trailing block m[k+1.., k+1..]:
                //   p = τ·A·v,  w = p − (τ/2)·⟨p, v⟩·v,  A ← A − v·w† − w·v†.
                let sub = k + 1;
                let len = n - sub;
                let mut p = vec![C_ZERO; len];
                for i in 0..len {
                    let mut acc = C_ZERO;
                    for j in 0..len {
                        acc += m[(sub + i, sub + j)] * v[sub + j];
                    }
                    p[i] = acc * tau;
                }
                let vsub: Vec<Complex64> = v[sub..].to_vec();
                let coeff = tau.scale(0.5) * cdot(&p, &vsub);
                let w: Vec<Complex64> = p
                    .iter()
                    .zip(&vsub)
                    .map(|(pi, vi)| *pi - coeff * *vi)
                    .collect();
                for i in 0..len {
                    for j in 0..len {
                        let upd = vsub[i] * w[j].conj() + w[i] * vsub[j].conj();
                        m[(sub + i, sub + j)] -= upd;
                    }
                }
            }

            vs.push(v);
            taus.push(tau);
        }

        for i in 0..n {
            d[i] = m[(i, i)].re;
        }

        // Accumulate Q = H_0·H_1⋯H_{n-2} by applying reflectors to the identity
        // from the left, in reverse order: Q ← H_k·Q. Each H_k touches only rows
        // k+1..n, and at the moment it is applied, Q has non-identity structure
        // only in rows/cols k+2..n, keeping the cost at ~n³/3 flops.
        let mut q = CMatrix::identity(n);
        for k in (0..n.saturating_sub(1)).rev() {
            let tau = taus[k];
            if tau == C_ZERO {
                continue;
            }
            let v = &vs[k];
            // H·Q = Q − τ·v·(v†·Q); v is supported on rows k+1..n.
            for col in 0..n {
                let mut dot = C_ZERO;
                for row in k + 1..n {
                    dot += v[row].conj() * q[(row, col)];
                }
                if dot == C_ZERO {
                    continue;
                }
                let f = tau * dot;
                for row in k + 1..n {
                    let delta = f * v[row];
                    q[(row, col)] -= delta;
                }
            }
        }

        Tridiagonal { d, e, q }
    }

    const MAX_ITER: usize = 64;

    pub fn tql_implicit(d: &mut [f64], e: &mut [f64], z: &mut CMatrix) -> Result<(), LinalgError> {
        let n = d.len();
        assert_eq!(e.len(), n.saturating_sub(1), "tql: subdiagonal length");
        assert_eq!(z.nrows(), z.ncols(), "tql: z must be square");
        assert_eq!(z.nrows(), n, "tql: z dimension");
        if n <= 1 {
            return Ok(());
        }

        // Work with a sentinel-extended subdiagonal: ee[i] couples i and i+1.
        let mut ee = vec![0.0; n];
        ee[..n - 1].copy_from_slice(e);

        for l in 0..n {
            let mut iter = 0usize;
            loop {
                // Find the first negligible subdiagonal element at or after l.
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if ee[m].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break;
                }
                iter += 1;
                if iter > MAX_ITER {
                    return Err(LinalgError::NoConvergence {
                        algorithm: "tql_implicit",
                        iterations: MAX_ITER,
                        residual: Some(ee[l].abs()),
                    });
                }

                // Wilkinson-style shift: g + sign(g)·hypot(g, 1).
                let g0 = (d[l + 1] - d[l]) / (2.0 * ee[l]);
                let mut r = g0.hypot(1.0);
                let mut g = d[m] - d[l] + ee[l] / (g0 + r.copysign(g0));

                let mut s = 1.0;
                let mut c = 1.0;
                let mut p = 0.0;
                let mut underflow = false;

                for i in (l..m).rev() {
                    let f = s * ee[i];
                    let b = c * ee[i];
                    r = f.hypot(g);
                    ee[i + 1] = r;
                    if r == 0.0 {
                        // Rotation underflow: recover and restart this eigenvalue.
                        d[i + 1] -= p;
                        ee[m] = 0.0;
                        underflow = true;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;

                    // Accumulate the Givens rotation into columns i, i+1 of z.
                    for k in 0..n {
                        let zk1 = z[(k, i + 1)];
                        let zk0 = z[(k, i)];
                        z[(k, i + 1)] = zk0.scale(s) + zk1.scale(c);
                        z[(k, i)] = zk0.scale(c) - zk1.scale(s);
                    }
                }

                if underflow {
                    continue;
                }
                d[l] -= p;
                ee[l] = g;
                ee[m] = 0.0;
            }
        }
        Ok(())
    }
}

fn assert_f64_bits_eq(got: &[f64], want: &[f64], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{context}[{i}]: got {g}, want {w}"
        );
    }
}

fn assert_matrix_bits_eq(got: &CMatrix, want: &CMatrix, context: &str) {
    assert_eq!(got.nrows(), want.nrows(), "{context}: rows");
    for i in 0..want.nrows() {
        assert_bits_eq(got.row(i), want.row(i), &format!("{context} row {i}"));
    }
}

/// Runs the production solver and the reference on `a` and asserts that
/// `d`, `e`, `Q`, the QL output, and `eigh`/`eigvalsh` agree to the bit.
fn assert_eigensolver_matches_reference(a: &CMatrix, context: &str) {
    let got = tridiagonalize(a);
    let want = reference::tridiagonalize(a);
    assert_f64_bits_eq(&got.d, &want.d, &format!("{context}: d"));
    assert_f64_bits_eq(&got.e, &want.e, &format!("{context}: e"));
    assert_matrix_bits_eq(&got.q, &want.q, &format!("{context}: Q"));

    let (mut gd, mut ge, mut gz) = (got.d, got.e, got.q);
    let (mut wd, mut we, mut wz) = (want.d, want.e, want.q);
    let got_ql = tql_implicit(&mut gd, &mut ge, &mut gz);
    let want_ql = reference::tql_implicit(&mut wd, &mut we, &mut wz);
    assert_eq!(got_ql, want_ql, "{context}: QL outcome");
    assert_f64_bits_eq(&gd, &wd, &format!("{context}: QL eigenvalues"));
    assert_matrix_bits_eq(&gz, &wz, &format!("{context}: QL eigenvectors"));

    // eigh = the two stages + a sort; eigvalsh skips the vectors.
    let mut order: Vec<usize> = (0..wd.len()).collect();
    order.sort_by(|&i, &j| wd[i].partial_cmp(&wd[j]).unwrap());
    let sorted: Vec<f64> = order.iter().map(|&i| wd[i]).collect();
    let eig = eigh(a).expect("eigh");
    assert_f64_bits_eq(
        &eig.eigenvalues,
        &sorted,
        &format!("{context}: eigh values"),
    );
    assert_matrix_bits_eq(
        &eig.eigenvectors,
        &wz.select_columns(&order),
        &format!("{context}: eigh vectors"),
    );
    let values = eigvalsh(a).expect("eigvalsh");
    assert_f64_bits_eq(&values, &sorted, &format!("{context}: eigvalsh"));
}

#[test]
fn eigensolver_is_bit_identical_to_column_strided_reference() {
    let mut rng = StdRng::seed_from_u64(401);
    for n in [1usize, 2, 3, 5, 17, 64, 128, 200] {
        let a = CMatrix::random_hermitian(n, &mut rng);
        assert_eigensolver_matches_reference(&a, &format!("random Hermitian n={n}"));
    }
}

#[test]
fn eigensolver_is_bit_identical_on_a_flow_dsbm_laplacian() {
    let inst = dsbm(&DsbmParams {
        n: 96,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 0.9,
        seed: 402,
        ..DsbmParams::default()
    })
    .expect("dsbm");
    let l = normalized_hermitian_laplacian(&inst.graph, 0.25);
    assert_eigensolver_matches_reference(&l, "flow-DSBM Laplacian n=96");
}

#[test]
fn eigensolver_is_bit_identical_on_nearly_hermitian_input() {
    // Hermitian only to within 1e-10: `eigh` accepts it, and the full
    // (not mirrored) rank-2 update must keep the asymmetry's bits.
    let mut rng = StdRng::seed_from_u64(403);
    for n in [17usize, 64] {
        let mut a = CMatrix::random_hermitian(n, &mut rng);
        for i in 0..n {
            for j in i + 1..n {
                a[(i, j)] += Complex64::new(rng.gen_range(-1e-10..1e-10), 0.0);
            }
        }
        assert!(!a.is_hermitian(0.0) && a.is_hermitian(1e-9));
        assert_eigensolver_matches_reference(&a, &format!("nearly Hermitian n={n}"));
    }
}

#[test]
fn eigensolver_stages_keep_the_reference_nan_pattern() {
    // `eigh` rejects non-finite input, but the public stages do not: a NaN
    // entry must spread through `Q` and the QL output exactly as in the
    // reference (NaN positions pinned, payloads not).
    let mut rng = StdRng::seed_from_u64(404);
    let n = 9;
    let mut a = CMatrix::random_hermitian(n, &mut rng);
    a[(6, 4)] = Complex64::new(f64::NAN, 0.0);
    a[(4, 6)] = Complex64::new(f64::NAN, 0.0);
    let got = tridiagonalize(&a);
    let want = reference::tridiagonalize(&a);
    for i in 0..n {
        assert_nan_pattern_eq(
            got.q.row(i),
            want.q.row(i),
            &format!("NaN input: Q row {i}"),
        );
    }
    let (mut gd, mut ge, mut gz) = (got.d, got.e, got.q);
    let (mut wd, mut we, mut wz) = (want.d, want.e, want.q);
    let got_ql = tql_implicit(&mut gd, &mut ge, &mut gz).map_err(|e| e.to_string());
    let want_ql = reference::tql_implicit(&mut wd, &mut we, &mut wz).map_err(|e| e.to_string());
    assert_eq!(got_ql.is_ok(), want_ql.is_ok(), "NaN input: QL outcome");
    for i in 0..n {
        assert_nan_pattern_eq(gz.row(i), wz.row(i), &format!("NaN input: QL row {i}"));
    }
}

// ---------------------------------------------------------------------------
// Partial eigensolver (`eigh_spectrum`) vs `eigh`.
// ---------------------------------------------------------------------------

/// The largest entry modulus of `got − want` over the shared shape.
fn max_abs_diff(got: &CMatrix, want: &CMatrix) -> f64 {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "shape"
    );
    (got - want).max_norm()
}

/// `eigh_spectrum` on `a`: eigenvalues bit-identical to `eigh`'s; every
/// eigenvector, and the selection `sel` in its own order, within `4·n·ε`
/// of `eigh`'s columns (the same sign and phase); the selection's columns
/// bit-identical to the same columns of the full selection.
fn assert_spectrum_matches_eigh(a: &CMatrix, sel: &[usize], context: &str) {
    let n = a.nrows();
    let full = eigh(a).expect("eigh");
    let spectrum = eigh_spectrum(a.clone()).expect("eigh_spectrum");
    assert_f64_bits_eq(
        &spectrum.eigenvalues,
        &full.eigenvalues,
        &format!("{context}: eigenvalues"),
    );
    let bound = 4.0 * n as f64 * f64::EPSILON;
    let all: Vec<usize> = (0..n).collect();
    let v = spectrum.eigenvectors(&all);
    let diff = max_abs_diff(&v, &full.eigenvectors);
    assert!(
        diff <= bound,
        "{context}: max|ΔV| = {diff:e} > 4·n·ε = {bound:e}"
    );
    let picked = spectrum.eigenvectors(sel);
    assert_matrix_bits_eq(
        &picked,
        &v.select_columns(sel),
        &format!("{context}: selection {sel:?}"),
    );
    let diff = max_abs_diff(&picked, &full.eigenvectors.select_columns(sel));
    assert!(diff <= bound, "{context}: selection {sel:?}: {diff:e}");
}

/// `[5, 0, 2]` clipped to `n`: unsorted and non-contiguous where it can be.
fn scattered_selection(n: usize) -> Vec<usize> {
    [5, 0, 2].into_iter().filter(|&j| j < n).collect()
}

#[test]
fn partial_eigensolver_matches_eigh_on_random_hermitian() {
    let mut rng = StdRng::seed_from_u64(401);
    for n in [1usize, 2, 3, 5, 17, 64, 128, 200] {
        let a = CMatrix::random_hermitian(n, &mut rng);
        let sel = scattered_selection(n);
        assert_spectrum_matches_eigh(&a, &sel, &format!("random Hermitian n={n}"));
    }
}

#[test]
fn partial_eigensolver_matches_eigh_on_a_flow_dsbm_laplacian() {
    let inst = dsbm(&DsbmParams {
        n: 96,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 0.9,
        seed: 402,
        ..DsbmParams::default()
    })
    .expect("dsbm");
    let l = normalized_hermitian_laplacian(&inst.graph, 0.25);
    assert_spectrum_matches_eigh(&l, &[5, 0, 2], "flow-DSBM Laplacian n=96");
    assert_spectrum_matches_eigh(&l, &[0, 1, 2], "flow-DSBM Laplacian n=96, lowest 3");
}

#[test]
fn partial_eigensolver_matches_eigh_on_nearly_hermitian_input() {
    let mut rng = StdRng::seed_from_u64(403);
    for n in [17usize, 64] {
        let mut a = CMatrix::random_hermitian(n, &mut rng);
        for i in 0..n {
            for j in i + 1..n {
                a[(i, j)] += Complex64::new(rng.gen_range(-1e-10..1e-10), 0.0);
            }
        }
        assert!(!a.is_hermitian(0.0) && a.is_hermitian(1e-9));
        assert_spectrum_matches_eigh(&a, &[5, 0, 2], &format!("nearly Hermitian n={n}"));
    }
}

#[test]
fn partial_eigensolver_picks_eighs_columns_in_degenerate_spectra() {
    // The identity: every eigenvalue tied, no reflector, no rotation — the
    // stable argsort must hand out exactly eigh's (identity) columns.
    let id = CMatrix::identity(7);
    let spectrum = eigh_spectrum(id.clone()).expect("identity");
    let full = eigh(&id).expect("identity");
    assert_matrix_bits_eq(
        &spectrum.eigenvectors(&[6, 1, 3]),
        &full.eigenvectors.select_columns(&[6, 1, 3]),
        "identity",
    );
    assert_spectrum_matches_eigh(&id, &[5, 0, 2], "identity n=7");

    // Repeated blocks: one random 4×4 Hermitian block three times on the
    // diagonal, so every eigenvalue is (at least) triple.
    let mut rng = StdRng::seed_from_u64(405);
    let block = CMatrix::random_hermitian(4, &mut rng);
    let a = CMatrix::from_fn(12, 12, |i, j| {
        if i / 4 == j / 4 {
            block[(i % 4, j % 4)]
        } else {
            C_ZERO
        }
    });
    assert_spectrum_matches_eigh(&a, &[5, 0, 2, 4, 3], "repeated blocks n=12");

    // Repeated eigenvalues in a dense basis: U·diag(1, 1, 1, 2, 2, 5)·U†.
    let q = CMatrix::random_hermitian(6, &mut rng);
    let u = eigh(&q).expect("basis").eigenvectors;
    let lam = CMatrix::from_real_fn(6, 6, |i, j| {
        if i == j {
            [1.0, 1.0, 1.0, 2.0, 2.0, 5.0][i]
        } else {
            0.0
        }
    });
    let a = u.matmul(&lam).matmul(&u.adjoint());
    let a = CMatrix::from_fn(6, 6, |i, j| (a[(i, j)] + a[(j, i)].conj()).scale(0.5));
    assert_spectrum_matches_eigh(&a, &[5, 0, 2], "dense degenerate n=6");
}

#[test]
fn partial_eigensolver_handles_empty_selections_and_bad_input() {
    let mut rng = StdRng::seed_from_u64(406);
    let a = CMatrix::random_hermitian(9, &mut rng);
    let none = eigh_spectrum(a).expect("eigh_spectrum").eigenvectors(&[]);
    assert_eq!((none.nrows(), none.ncols()), (9, 0));

    let mut nan = CMatrix::identity(4);
    nan[(1, 2)] = Complex64::real(f64::NAN);
    nan[(2, 1)] = Complex64::real(f64::NAN);
    let skew = CMatrix::from_fn(3, 3, |i, j| Complex64::real(i as f64 - j as f64));
    for (name, m) in [
        ("NaN", nan),
        ("not Hermitian", skew),
        ("not square", CMatrix::zeros(2, 3)),
    ] {
        let got = eigh_spectrum(m.clone()).map(|_| ());
        assert!(
            matches!(got, Err(LinalgError::InvalidInput { .. })),
            "{name}: {got:?}"
        );
        assert_eq!(got, eigh(&m).map(|_| ()), "{name}: same error as eigh");
    }
}

#[test]
fn partial_eigensolver_passes_the_jacobi_oracle() {
    // Independent of eigh: eigenvalues close to the Jacobi reference, each
    // built vector an eigenvector of A to the reference's own residual
    // level, and the selection orthonormal.
    let mut rng = StdRng::seed_from_u64(407);
    for n in [5usize, 17, 64] {
        let a = CMatrix::random_hermitian(n, &mut rng);
        let jac = eigh_jacobi(&a).expect("jacobi");
        let spectrum = eigh_spectrum(a.clone()).expect("eigh_spectrum");
        let scale = a.max_norm().max(1.0);
        for (x, y) in spectrum.eigenvalues.iter().zip(&jac.eigenvalues) {
            assert!((x - y).abs() <= 1e-10 * scale, "n={n}: {x} vs {y}");
        }
        let sel = scattered_selection(n);
        let v = spectrum.eigenvectors(&sel);
        for (c, &j) in sel.iter().enumerate() {
            let res = a.eigen_residual(spectrum.eigenvalues[j], &v.col(c));
            let jac_res = a.eigen_residual(jac.eigenvalues[j], &jac.eigenvectors.col(j));
            assert!(
                res <= 1e-12 * scale * n as f64 && res <= 100.0 * jac_res.max(f64::EPSILON),
                "n={n}, eigenvector {j}: residual {res:e} (Jacobi {jac_res:e})"
            );
        }
        let gram = v.adjoint().matmul(&v);
        let orth = max_abs_diff(&gram, &CMatrix::identity(sel.len()));
        assert!(
            orth <= 4.0 * n as f64 * f64::EPSILON,
            "n={n}: ‖V†V − I‖ = {orth:e}"
        );
    }
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_gate2_bit_identical_on_random_inputs(
        seed in 0u64..1_000_000,
        len in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo0 = random_vec(len, &mut rng);
        let hi0 = random_vec(len, &mut rng);
        let g = random_gate(&mut rng);
        let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
        gate2_with(KernelTier::Scalar, &g, &mut rlo, &mut rhi);
        for tier in available_tiers() {
            let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
            gate2_with(tier, &g, &mut lo, &mut hi);
            for i in 0..len {
                prop_assert_eq!(bits(lo[i]), bits(rlo[i]), "lo {} tier {}", i, tier);
                prop_assert_eq!(bits(hi[i]), bits(rhi[i]), "hi {} tier {}", i, tier);
            }
        }
    }

    #[test]
    fn prop_block_unitary_dot_bit_identical(
        seed in 0u64..1_000_000,
        block_qubits in 1usize..4,
    ) {
        // The block-unitary path is row-dots against state slices; pin the
        // whole wired operation on a random unitary-sized matrix.
        let mut rng = StdRng::seed_from_u64(seed);
        let block = 1usize << block_qubits;
        let u = CMatrix::from_fn(block, block, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let n = block_qubits + 2;
        let state0 = random_state(n, &mut rng);
        let mut want: Vec<Complex64> = state0.amplitudes().to_vec();
        for slice in want.chunks_mut(block) {
            let mut scratch = vec![C_ZERO; block];
            for (i, s) in scratch.iter_mut().enumerate() {
                let mut acc = C_ZERO;
                for (x, y) in u.row(i).iter().zip(slice.iter()) {
                    acc += *x * *y;
                }
                *s = acc;
            }
            slice.copy_from_slice(&scratch);
        }
        let mut state = state0;
        state.apply_controlled_block_unitary(&u, None).expect("fits");
        for (i, (g, w)) in state.amplitudes().iter().zip(&want).enumerate() {
            prop_assert_eq!(bits(*g), bits(*w), "amplitude {}", i);
        }
    }

    #[test]
    fn prop_dot_unordered_within_bound(
        seed in 0u64..1_000_000,
        len in 1usize..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_vec(len, &mut rng);
        let y = random_vec(len, &mut rng);
        let reference = dot_with(KernelTier::Scalar, &x, &y);
        let bound = 2.0 * len as f64 * f64::EPSILON
            * x.iter().zip(&y).map(|(a, b)| a.abs() * b.abs()).sum::<f64>();
        for tier in available_tiers() {
            let diff = (dot_unordered_with(tier, &x, &y) - reference).abs();
            prop_assert!(diff <= bound, "tier {}: {:e} > {:e}", tier, diff, bound);
        }
    }

    #[test]
    fn prop_scale_and_axpy_bit_identical(
        seed in 0u64..1_000_000,
        len in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_vec(len, &mut rng);
        let y0 = random_vec(len, &mut rng);
        let alpha = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let mut rscale = x.clone();
        scale_with(KernelTier::Scalar, alpha, &mut rscale);
        let mut raxpy = y0.clone();
        axpy_with(KernelTier::Scalar, alpha, &x, &mut raxpy);
        for tier in available_tiers() {
            let mut s = x.clone();
            scale_with(tier, alpha, &mut s);
            let mut a = y0.clone();
            axpy_with(tier, alpha, &x, &mut a);
            for i in 0..len {
                prop_assert_eq!(bits(s[i]), bits(rscale[i]), "scale {} tier {}", i, tier);
                prop_assert_eq!(bits(a[i]), bits(raxpy[i]), "axpy {} tier {}", i, tier);
            }
        }
    }
}

#[test]
fn identity_gate_is_exact_on_every_tier() {
    // Identity coefficients must pass amplitudes through untouched — the
    // +0·x terms must not flip signed zeros (addsub of exact zeros).
    let id: Gate2 = [[C_ONE, C_ZERO], [C_ZERO, C_ONE]];
    let mut rng = StdRng::seed_from_u64(301);
    let lo0 = special_vec(64, &mut rng);
    let hi0 = special_vec(64, &mut rng);
    let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
    gate2_with(KernelTier::Scalar, &id, &mut rlo, &mut rhi);
    for tier in available_tiers() {
        let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
        gate2_with(tier, &id, &mut lo, &mut hi);
        assert_nan_pattern_eq(&lo, &rlo, &format!("identity lo tier {tier}"));
        assert_nan_pattern_eq(&hi, &rhi, &format!("identity hi tier {tier}"));
    }
}
