//! Property tests for the backend execution layer: compiled-circuit
//! execution on the `Statevector` backend must be **bit-identical** to the
//! old direct state-mutation path, a `NoisyStatevector` with zero noise
//! must equal the ideal backend, `ShardedStatevector` amplitudes must be
//! bit-identical to `Statevector` for every shard count, the zero-noise
//! `DensityMatrix` must reproduce the statevector's distributions, and the
//! gate-fusion compile pass must preserve amplitudes. Random circuits are
//! generated from seeded RNG streams via the proptest harness, so failures
//! are reproducible.
//!
//! CI's test matrix runs this suite under `QSC_KERNELS` ∈ {scalar,
//! portable, avx2} × `RAYON_NUM_THREADS` ∈ {1, 2, 4}: because the tiers
//! are bit-identical (pinned by `tests/kernel_equivalence.rs`), every
//! bit-identity property here must hold unchanged whether the process is
//! forced onto the scalar reference or dispatched onto SIMD — same
//! amplitudes, same samples, same RNG states.

use proptest::prelude::*;
use qsc_suite::linalg::expm::expi;
use qsc_suite::linalg::CMatrix;
use qsc_suite::sim::backend::{Backend, NoisyStatevector, Statevector};
use qsc_suite::sim::circuit::{Circuit, Op};
use qsc_suite::sim::compile::fuse_single_qubit;
use qsc_suite::sim::{gates, DensityMatrix, QuantumState, ShardedStatevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Draws one random op on an `n`-qubit register, covering every variant
/// the compilers emit.
fn random_op(n: usize, rng: &mut StdRng) -> Op {
    let q = rng.gen_range(0..n);
    let q2 = (q + 1 + rng.gen_range(0..n - 1)) % n;
    match rng.gen_range(0usize..14) {
        0 => Op::H(q),
        1 => Op::X(q),
        2 => Op::Y(q),
        3 => Op::Z(q),
        4 => Op::S(q),
        5 => Op::T(q),
        6 => Op::Phase {
            target: q,
            theta: rng.gen_range(-3.0..3.0),
        },
        7 => Op::Rz {
            target: q,
            theta: rng.gen_range(-3.0..3.0),
        },
        8 => Op::Ry {
            target: q,
            theta: rng.gen_range(-3.0..3.0),
        },
        9 => Op::Cnot {
            control: q,
            target: q2,
        },
        10 => Op::CPhase {
            control: q,
            target: q2,
            theta: rng.gen_range(-3.0..3.0),
        },
        11 => Op::Swap(q, q2),
        12 => {
            // A random 2×2 block unitary on qubit 0 (e^{iH}), controlled by
            // a high qubit half of the time.
            let h = CMatrix::random_hermitian(2, rng);
            let u = expi(&h, rng.gen_range(0.1..1.0)).expect("unitary");
            let control = if n > 1 && rng.gen::<bool>() {
                Some(rng.gen_range(1..n))
            } else {
                None
            };
            Op::BlockUnitary {
                control,
                matrix: Arc::new(u),
            }
        }
        _ => {
            let block_qubits = 1;
            let phases: Vec<f64> = (0..2).map(|_| rng.gen_range(-3.0..3.0)).collect();
            Op::PhaseCascade {
                block_qubits,
                phases: Arc::new(phases),
                sign: if rng.gen::<bool>() { 1.0 } else { -1.0 },
            }
        }
    }
}

fn random_circuit(n: usize, len: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..len {
        c.push(random_op(n, &mut rng)).expect("valid op");
    }
    c
}

/// The pre-IR execution style: mutate the state through the `QuantumState`
/// methods directly, one call per op — the reference the compiled path must
/// reproduce bit-for-bit.
fn apply_direct(op: &Op, state: &mut QuantumState) {
    match *op {
        Op::H(q) => state.apply_h(q).unwrap(),
        Op::X(q) => state.apply_single(&gates::x(), q).unwrap(),
        Op::Y(q) => state.apply_single(&gates::y(), q).unwrap(),
        Op::Z(q) => state.apply_single(&gates::z(), q).unwrap(),
        Op::S(q) => state.apply_single(&gates::s(), q).unwrap(),
        Op::T(q) => state.apply_single(&gates::t(), q).unwrap(),
        Op::Phase { target, theta } => state.apply_single(&gates::phase(theta), target).unwrap(),
        Op::Rz { target, theta } => state.apply_single(&gates::rz(theta), target).unwrap(),
        Op::Ry { target, theta } => state.apply_single(&gates::ry(theta), target).unwrap(),
        Op::Cnot { control, target } => state.apply_cnot(control, target).unwrap(),
        Op::CPhase {
            control,
            target,
            theta,
        } => state
            .apply_controlled_phase(control, target, theta)
            .unwrap(),
        Op::Swap(a, b) => state.apply_swap(a, b).unwrap(),
        Op::Gate1 { target, ref matrix } => state.apply_single(matrix, target).unwrap(),
        Op::BlockUnitary {
            control,
            ref matrix,
        } => match control {
            None => state.apply_block_unitary(matrix).unwrap(),
            Some(c) => state
                .apply_controlled_block_unitary(matrix, Some(c))
                .unwrap(),
        },
        Op::PhaseCascade {
            block_qubits,
            ref phases,
            sign,
        } => {
            let block = 1usize << block_qubits;
            state.for_each_block_mut(block, |m, chunk| {
                let factor = sign * m as f64;
                for (a, &theta) in chunk.iter_mut().zip(phases.iter()) {
                    *a *= qsc_suite::linalg::Complex64::cis(theta * factor);
                }
            });
        }
    }
}

fn max_amp_diff(a: &QuantumState, b: &QuantumState) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_execution_is_bit_identical_to_direct_mutation(
        seed in 0u64..1_000_000,
        n in 2usize..5,
        len in 1usize..30,
    ) {
        let circuit = random_circuit(n, len, seed);
        let basis = (seed % (1u64 << n)) as usize;

        // Old style: direct mutation, one apply_* call per op.
        let mut direct = QuantumState::basis_state(n, basis);
        for op in circuit.ops() {
            apply_direct(op, &mut direct);
        }

        // New style: compile → execute on the Statevector backend.
        let backend = Statevector::new();
        let mut rng = StdRng::seed_from_u64(0);
        let state = backend.execute(&circuit, basis, &mut rng).expect("execute");

        prop_assert_eq!(state.amplitudes(), direct.amplitudes());
        backend.recycle(state);
    }

    #[test]
    fn zero_noise_backend_equals_ideal(
        seed in 0u64..1_000_000,
        n in 2usize..5,
        len in 1usize..30,
    ) {
        let circuit = random_circuit(n, len, seed);
        let ideal = Statevector::new();
        let zero_noise = NoisyStatevector::new(0.0, 0.0);
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let a = ideal.execute(&circuit, 0, &mut rng_a).expect("ideal");
        let b = zero_noise.execute(&circuit, 0, &mut rng_b).expect("zero noise");
        prop_assert_eq!(a.amplitudes(), b.amplitudes());
        // Neither backend consumed randomness.
        prop_assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn gate_fusion_preserves_amplitudes(
        seed in 0u64..1_000_000,
        n in 2usize..5,
        len in 1usize..40,
    ) {
        let circuit = random_circuit(n, len, seed);
        let fused = fuse_single_qubit(&circuit);
        prop_assert!(fused.gate_count() <= circuit.gate_count());
        for basis in [0usize, (1 << n) - 1] {
            let mut a = QuantumState::basis_state(n, basis);
            let mut b = QuantumState::basis_state(n, basis);
            circuit.run(&mut a).expect("unfused");
            fused.run(&mut b).expect("fused");
            prop_assert!(
                max_amp_diff(&a, &b) < 1e-12,
                "fusion drift {} on basis {}", max_amp_diff(&a, &b), basis
            );
        }
    }

    #[test]
    fn fused_statevector_backend_matches_fusing_manually(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        len in 1usize..25,
    ) {
        let circuit = random_circuit(n, len, seed);
        let mut rng = StdRng::seed_from_u64(1);
        let via_backend = Statevector::fused().execute(&circuit, 0, &mut rng).expect("fused backend");
        let mut manual = QuantumState::zero_state(n);
        fuse_single_qubit(&circuit).run(&mut manual).expect("manual fuse");
        prop_assert_eq!(via_backend.amplitudes(), manual.amplitudes());
    }

    #[test]
    fn sharded_execution_is_bit_identical_for_every_shard_count(
        seed in 0u64..1_000_000,
        n in 2usize..6,
        len in 1usize..30,
    ) {
        let circuit = random_circuit(n, len, seed);
        let basis = (seed % (1u64 << n)) as usize;
        let reference = Statevector::new();
        let mut rng = StdRng::seed_from_u64(0);
        let expect = reference.execute(&circuit, basis, &mut rng).expect("reference");
        for shards in [1usize, 2, 4, 8] {
            let backend = ShardedStatevector::with_shards(shards);
            let got = backend.execute(&circuit, basis, &mut rng).expect("sharded");
            prop_assert_eq!(
                got.amplitudes(), expect.amplitudes(),
                "shards = {} on {} qubits", shards, n
            );
            backend.recycle(got);
        }
        reference.recycle(expect);
    }

    #[test]
    fn zero_noise_density_matrix_reproduces_statevector_distributions(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        len in 1usize..20,
    ) {
        let circuit = random_circuit(n, len, seed);
        let sv = Statevector::new();
        let dm = DensityMatrix::new(0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let pure = sv.execute(&circuit, 0, &mut rng).expect("statevector");
        let rho = dm.execute(&circuit, 0, &mut rng).expect("density");
        let probs = dm.outcome_distribution(&rho);
        for (m, (&p, a)) in probs.iter().zip(pure.amplitudes()).enumerate() {
            prop_assert!(
                (p - a.norm_sqr()).abs() < 1e-12,
                "outcome {}: ρ diag {} vs |amp|² {}", m, p, a.norm_sqr()
            );
        }
        // The distribution-level hooks are bit-exact, not merely close.
        let phi = (seed % 997) as f64 / 997.0;
        prop_assert_eq!(
            dm.phase_distribution(phi, 5, &mut rng).unwrap(),
            sv.phase_distribution(phi, 5, &mut rng).unwrap()
        );
        prop_assert_eq!(
            dm.estimate_probability(phi, &mut rng).unwrap(),
            sv.estimate_probability(phi, &mut rng).unwrap()
        );
        dm.recycle(rho);
        sv.recycle(pure);
    }

    #[test]
    fn qasm_export_covers_every_random_circuit(
        seed in 0u64..1_000_000,
        n in 2usize..5,
        len in 1usize..25,
    ) {
        // No silent lossy export: one gate line per op, every variant.
        let circuit = random_circuit(n, len, seed);
        let qasm = circuit.to_qasm();
        let lines: Vec<&str> = qasm.lines().collect();
        let qreg = lines.iter().position(|l| l.starts_with("qreg")).expect("qreg");
        prop_assert_eq!(lines.len() - qreg - 1, circuit.gate_count());
    }
}

#[test]
fn remote_loopback_is_bit_identical_for_every_hosted_backend_kind() {
    use qsc_serve::{ServeConfig, Server};
    use qsc_suite::core::config::BackendConfig;

    let cache_dir = std::env::temp_dir().join(format!("qsc-remote-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0, // exec requests are served by connection threads
        cache_dir,
        ..ServeConfig::default()
    })
    .expect("executor starts");
    let addr = server.local_addr().to_string();

    let inners = [
        BackendConfig::Statevector,
        BackendConfig::Sharded { shards: Some(2) },
        BackendConfig::Noisy {
            depolarizing: 0.05,
            readout_flip: 0.02,
        },
        BackendConfig::Density {
            depolarizing: 0.05,
            readout_flip: 0.01,
        },
    ];
    for inner in inners {
        let local = inner.build().expect("local backend");
        let remote = BackendConfig::Remote {
            addr: addr.clone(),
            inner: Box::new(inner.clone()),
        }
        .build()
        .expect("remote backend");
        // The remote proxy must advertise exactly the hosted backend's
        // statistical traits, or callers would take different fast paths.
        assert_eq!(remote.exact_statistics(), local.exact_statistics());
        assert_eq!(remote.pure_state(), local.pure_state());
        assert_eq!(remote.phase_register_limit(), local.phase_register_limit());

        for seed in [3u64, 17, 40] {
            let circuit = random_circuit(3, 15, seed);
            let basis = (seed % 8) as usize;
            let mut rng_l = StdRng::seed_from_u64(seed);
            let mut rng_r = StdRng::seed_from_u64(seed);
            let a = local
                .execute(&circuit, basis, &mut rng_l)
                .expect("local run");
            let b = remote
                .execute(&circuit, basis, &mut rng_r)
                .expect("remote run");
            assert_eq!(
                a.amplitudes(),
                b.amplitudes(),
                "{} amplitudes, seed {seed}",
                inner.kind_name()
            );
            assert_eq!(rng_l, rng_r, "rng streams diverged on run");
            assert_eq!(
                local.sample(&a, 200, &mut rng_l).expect("local sample"),
                remote.sample(&b, 200, &mut rng_r).expect("remote sample"),
                "{} samples, seed {seed}",
                inner.kind_name()
            );
            assert_eq!(rng_l, rng_r, "rng streams diverged on sample");
            let phi = (seed % 97) as f64 / 97.0;
            assert_eq!(
                local
                    .phase_distribution(phi, 4, &mut rng_l)
                    .expect("local phases"),
                remote
                    .phase_distribution(phi, 4, &mut rng_r)
                    .expect("remote phases"),
                "{} phase distribution, seed {seed}",
                inner.kind_name()
            );
            assert_eq!(
                local
                    .estimate_probability(phi, &mut rng_l)
                    .expect("local estimate"),
                remote
                    .estimate_probability(phi, &mut rng_r)
                    .expect("remote estimate"),
                "{} probability estimate, seed {seed}",
                inner.kind_name()
            );
            assert_eq!(rng_l, rng_r, "rng streams diverged on distributions");
            remote.recycle(b);
            local.recycle(a);
        }
    }
}

#[test]
fn noisy_backend_with_noise_diverges_from_ideal() {
    // Sanity complement to the zero-noise property: noise must do
    // *something* on a deep circuit.
    let circuit = random_circuit(3, 40, 99);
    let ideal = Statevector::new();
    let noisy = NoisyStatevector::new(0.2, 0.0);
    let mut rng = StdRng::seed_from_u64(42);
    let a = ideal.execute(&circuit, 0, &mut rng).expect("ideal");
    let b = noisy.execute(&circuit, 0, &mut rng).expect("noisy");
    assert!(
        max_amp_diff(&a, &b) > 1e-6,
        "20% depolarizing left a 40-gate circuit untouched"
    );
}

#[test]
fn kernel_tier_is_resolved_and_visible() {
    // The suite's per-tier CI runs rely on QSC_KERNELS actually steering
    // the process: the latched tier must match a forced available tier,
    // and must be an executable tier either way. (Bit-identity between
    // the tiers themselves is pinned by tests/kernel_equivalence.rs.)
    use qsc_suite::linalg::kernels::{self, KernelTier};
    let active = kernels::active();
    assert!(active.is_available());
    if let Ok(forced) = std::env::var(kernels::KERNELS_ENV) {
        match KernelTier::parse(&forced) {
            Some(tier) if tier.is_available() => assert_eq!(active, tier),
            Some(tier) => eprintln!("note: {tier} forced but unavailable on this CPU"),
            None => panic!("invalid {} value `{forced}`", kernels::KERNELS_ENV),
        }
    }
}
