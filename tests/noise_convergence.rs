//! Exact-vs-trajectory noise equivalence: the `DensityMatrix` backend
//! applies the depolarizing and readout channels exactly (Kraus
//! operators), and the `NoisyStatevector` backend samples trajectories of
//! the *same* channels — so trajectory means must converge to the density
//! backend's analytics at the Monte-Carlo `O(1/√N)` rate, and the
//! zero-noise density backend must be indistinguishable from the ideal
//! pipeline.

use qsc_suite::cluster::metrics::matched_accuracy;
use qsc_suite::core::{Pipeline, QuantumParams};
use qsc_suite::graph::generators::{dsbm, DsbmParams, MetaGraph};
use qsc_suite::linalg::{CMatrix, Complex64, C_ZERO};
use qsc_suite::sim::backend::{Backend, NoisyStatevector};
use qsc_suite::sim::circuit::{Circuit, Op};
use qsc_suite::sim::DensityMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A fixed circuit covering every op family the compilers emit.
fn reference_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(Op::H(0)).unwrap();
    c.push(Op::T(1)).unwrap();
    c.push(Op::Ry {
        target: 1,
        theta: 0.4,
    })
    .unwrap();
    c.push(Op::Cnot {
        control: 0,
        target: 2,
    })
    .unwrap();
    c.push(Op::CPhase {
        control: 2,
        target: 0,
        theta: 0.7,
    })
    .unwrap();
    c.push(Op::Swap(0, 1)).unwrap();
    let u = CMatrix::from_rows(&[
        vec![Complex64::cis(0.2), C_ZERO],
        vec![C_ZERO, Complex64::cis(-0.5)],
    ])
    .unwrap();
    c.push(Op::BlockUnitary {
        control: Some(2),
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

/// Mean outcome distribution over `n` seeded `NoisyStatevector`
/// trajectories of `circuit`.
fn trajectory_mean(circuit: &Circuit, p: f64, trajectories: usize) -> Vec<f64> {
    let noisy = NoisyStatevector::new(p, 0.0);
    let dim = 1usize << circuit.num_qubits();
    let mut acc = vec![0.0f64; dim];
    for seed in 0..trajectories as u64 {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let state = noisy.execute(circuit, 0, &mut rng).unwrap();
        for (slot, a) in acc.iter_mut().zip(state.amplitudes()) {
            *slot += a.norm_sqr();
        }
    }
    acc.iter().map(|x| x / trajectories as f64).collect()
}

#[test]
fn trajectory_means_converge_to_the_exact_channel_at_monte_carlo_rate() {
    let circuit = reference_circuit();
    let p = 0.15;
    let dm = DensityMatrix::new(p, 0.0);
    let mut rng = StdRng::seed_from_u64(1);
    let rho = dm.execute(&circuit, 0, &mut rng).unwrap();
    let exact = dm.outcome_distribution(&rho);

    let l1 = |got: &[f64]| -> f64 { got.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum() };
    let errs: Vec<f64> = [32usize, 256, 2048]
        .iter()
        .map(|&n| l1(&trajectory_mean(&circuit, p, n)))
        .collect();
    // Both refined levels sit far below the coarse one, and the finest is
    // within the Monte-Carlo floor — no systematic bias between the
    // sampled channel and the Kraus channel. (Adjacent levels are not
    // required to be monotone: single MC estimates fluctuate.)
    assert!(
        errs[1] < errs[0] / 3.0 && errs[2] < errs[0] / 3.0,
        "more trajectories must cut the error well past 3×: {errs:?}"
    );
    assert!(errs[2] < 0.05, "2048 trajectories off by {}", errs[2]);
}

#[test]
fn readout_flip_sampling_converges_to_the_exact_distribution() {
    // Bell circuit under a pure readout-flip channel: the density backend's
    // closed-form distribution vs the noisy backend's per-shot bit flips.
    let mut bell = Circuit::new(2);
    bell.push(Op::H(0)).unwrap();
    bell.push(Op::Cnot {
        control: 0,
        target: 1,
    })
    .unwrap();
    let e = 0.2;
    let dm = DensityMatrix::new(0.0, e);
    let mut rng = StdRng::seed_from_u64(2);
    let rho = dm.execute(&bell, 0, &mut rng).unwrap();
    let exact = dm.outcome_distribution(&rho);
    // Closed form: diag (1/2, 0, 0, 1/2) convolved with two independent
    // flips.
    assert!((exact[0b01] - e * (1.0 - e)).abs() < 1e-12);
    assert!((exact[0b00] - 0.5 * ((1.0 - e) * (1.0 - e) + e * e)).abs() < 1e-12);

    let noisy = NoisyStatevector::new(0.0, e);
    let state = noisy.execute(&bell, 0, &mut rng).unwrap();
    let shots = 40_000usize;
    let counts = noisy.sample(&state, shots, &mut rng).unwrap();
    let mut freq = [0.0f64; 4];
    for (m, c) in counts {
        freq[m] = c as f64 / shots as f64;
    }
    let l1: f64 = freq.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum();
    assert!(l1 < 0.02, "sampled readout channel off by {l1}");
}

#[test]
fn zero_noise_density_pipeline_is_bit_identical_to_the_default() {
    // The acceptance gate: with both channel probabilities zero the
    // density backend's distribution hooks short-circuit to the same
    // closed forms the Statevector backend uses, so the full pipeline
    // output is bit-identical — labels, embedding and spectrum.
    let inst = dsbm(&DsbmParams {
        n: 60,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 1.0,
        meta: MetaGraph::Cycle,
        seed: 9,
        ..DsbmParams::default()
    })
    .unwrap();
    let params = QuantumParams::default();
    let ideal = Pipeline::hermitian(3)
        .seed(3)
        .quantum(&params)
        .run(&inst.graph)
        .unwrap();
    let density = Pipeline::hermitian(3)
        .seed(3)
        .quantum(&params)
        .backend(DensityMatrix::new(0.0, 0.0))
        .run(&inst.graph)
        .unwrap();
    assert_eq!(ideal.labels, density.labels);
    assert_eq!(ideal.embedding, density.embedding);
    assert_eq!(ideal.spectrum, density.spectrum);
}

#[test]
fn exact_noise_pipeline_is_deterministic_and_degrades_with_noise() {
    // The exact-channel noise figure: repeated runs are identical (no
    // trajectory variance to average out), and accuracy degrades as the
    // depolarizing probability grows.
    let inst = dsbm(&DsbmParams {
        n: 90,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 1.0,
        meta: MetaGraph::Cycle,
        seed: 10,
        ..DsbmParams::default()
    })
    .unwrap();
    let params = QuantumParams::default();
    let run_at = |dep: f64| {
        Pipeline::hermitian(3)
            .seed(4)
            .quantum(&params)
            .backend(DensityMatrix::new(dep, dep))
            .run(&inst.graph)
            .unwrap()
    };
    let a = run_at(0.1);
    let b = run_at(0.1);
    assert_eq!(a.labels, b.labels, "exact channel: no run-to-run variance");
    let clean = matched_accuracy(&inst.labels, &run_at(0.0).labels);
    let noisy = matched_accuracy(&inst.labels, &run_at(0.2).labels);
    assert!(clean > 0.85, "clean accuracy {clean}");
    assert!(
        noisy <= clean,
        "strong exact noise should not beat the clean run: {noisy} vs {clean}"
    );
}
