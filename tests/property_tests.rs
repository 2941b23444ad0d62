//! Property-based tests (proptest) over the core invariants of the whole
//! stack: Hermitian structure, spectral bounds, unitarity, metric
//! invariances, and noise-model bounds.

use proptest::collection::vec;
use proptest::prelude::*;
use qsc_suite::cluster::metrics::{
    adjusted_rand_index, matched_accuracy, normalized_mutual_information,
};
use qsc_suite::graph::generators::{random_mixed, RandomMixedParams};
use qsc_suite::graph::{
    hermitian_adjacency, hermitian_laplacian, incidence_matrix, normalized_hermitian_laplacian,
    MixedGraph,
};
use qsc_suite::linalg::{eigh, eigvalsh, CMatrix, Complex64};
use qsc_suite::sim::qft::{apply_inverse_qft, apply_qft};
use qsc_suite::sim::qpe::qpe_phase_distribution;
use qsc_suite::sim::QuantumState;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random mixed graph with 3–16 vertices.
fn arb_mixed_graph() -> impl Strategy<Value = MixedGraph> {
    (3usize..16, 0u64..1_000_000, 0.0f64..0.4, 0.0f64..0.4).prop_map(|(n, seed, p_u, p_d)| {
        random_mixed(&RandomMixedParams {
            n,
            p_undirected: p_u,
            p_directed: p_d,
            weight_range: (0.5, 2.0),
            seed,
        })
        .expect("probabilities in range by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hermitian_adjacency_always_hermitian(g in arb_mixed_graph(), q in 0.0f64..0.5) {
        let h = hermitian_adjacency(&g, q);
        prop_assert!(h.is_hermitian(1e-10));
    }

    #[test]
    fn laplacian_psd_for_any_mixed_graph(g in arb_mixed_graph(), q in 0.0f64..0.5) {
        let l = hermitian_laplacian(&g, q);
        let evals = eigvalsh(&l).expect("eigh");
        prop_assert!(evals[0] > -1e-8, "λ_min = {}", evals[0]);
    }

    #[test]
    fn normalized_laplacian_spectrum_in_unit_band(g in arb_mixed_graph(), q in 0.0f64..0.5) {
        let l = normalized_hermitian_laplacian(&g, q);
        let evals = eigvalsh(&l).expect("eigh");
        prop_assert!(evals[0] > -1e-8);
        prop_assert!(*evals.last().expect("non-empty") < 2.0 + 1e-8);
    }

    #[test]
    fn incidence_factorizes_laplacian_for_any_graph(g in arb_mixed_graph(), q in 0.0f64..0.5) {
        let b = incidence_matrix(&g, q);
        let l = hermitian_laplacian(&g, q);
        let err = (&b.matmul(&b.adjoint()) - &l).max_norm();
        prop_assert!(err < 1e-9, "‖BB† − L‖ = {err}");
    }

    #[test]
    fn eigendecomposition_reconstructs(seed in 0u64..1_000_000, n in 2usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = CMatrix::random_hermitian(n, &mut rng);
        let eig = eigh(&a).expect("eigh");
        let err = (&eig.reconstruct() - &a).max_norm();
        prop_assert!(err < 1e-7, "reconstruction error {err}");
        prop_assert!(eig.eigenvectors.is_unitary(1e-7));
    }

    #[test]
    fn qft_round_trip_identity(amps in vec(-1.0f64..1.0, 8), seed in 0u64..100) {
        let _ = seed;
        let total: f64 = amps.iter().map(|x| x * x).sum();
        prop_assume!(total > 1e-6);
        let complex: Vec<Complex64> = amps.iter().map(|&x| Complex64::real(x)).collect();
        let mut s = QuantumState::from_amplitudes(complex).expect("state");
        let before = s.amplitudes().to_vec();
        apply_qft(&mut s, 0..3).expect("qft");
        prop_assert!((s.norm() - 1.0).abs() < 1e-9);
        apply_inverse_qft(&mut s, 0..3).expect("iqft");
        for (a, b) in s.amplitudes().iter().zip(&before) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn qpe_distribution_is_probability(phi in 0.0f64..1.0, t in 1usize..9) {
        let d = qpe_phase_distribution(phi, t);
        let total: f64 = d.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(d.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn ari_bounded_and_permutation_invariant(
        labels_a in vec(0usize..4, 8..40),
        labels_b in vec(0usize..4, 8..40),
        shift in 1usize..4,
    ) {
        let n = labels_a.len().min(labels_b.len());
        let a = &labels_a[..n];
        let b = &labels_b[..n];
        let ari = adjusted_rand_index(a, b);
        prop_assert!((-1.0..=1.0).contains(&ari));
        let renamed: Vec<usize> = b.iter().map(|&l| (l + shift) % 4).collect();
        prop_assert!((adjusted_rand_index(a, &renamed) - ari).abs() < 1e-9);
    }

    #[test]
    fn nmi_and_accuracy_bounded(
        labels_a in vec(0usize..4, 8..40),
        labels_b in vec(0usize..4, 8..40),
    ) {
        let n = labels_a.len().min(labels_b.len());
        let a = &labels_a[..n];
        let b = &labels_b[..n];
        let nmi = normalized_mutual_information(a, b);
        prop_assert!((0.0..=1.0).contains(&nmi));
        let acc = matched_accuracy(a, b);
        prop_assert!(acc > 0.0 && acc <= 1.0);
        prop_assert!((matched_accuracy(a, a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn state_gates_preserve_norm(
        amps in vec(-1.0f64..1.0, 8),
        target in 0usize..3,
        theta in 0.0f64..6.2,
    ) {
        let total: f64 = amps.iter().map(|x| x * x).sum();
        prop_assume!(total > 1e-6);
        let complex: Vec<Complex64> = amps.iter().map(|&x| Complex64::real(x)).collect();
        let mut s = QuantumState::from_amplitudes(complex).expect("state");
        s.apply_h(target).expect("h");
        s.apply_single(&qsc_suite::sim::gates::rz(theta), target).expect("rz");
        let other = (target + 1) % 3;
        s.apply_cnot(target, other).expect("cnot");
        s.apply_controlled_phase(target, other, theta).expect("cphase");
        prop_assert!((s.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn symmetrization_preserves_degrees(g in arb_mixed_graph()) {
        let sym = g.symmetrized();
        for (a, b) in g.degrees().iter().zip(sym.degrees()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        prop_assert_eq!(sym.num_arcs(), 0);
    }

    #[test]
    fn two_level_synthesis_reconstructs(seed in 0u64..100_000, d in 2usize..7) {
        use qsc_suite::sim::synthesis::{reconstruct, two_level_decompose};
        let mut rng = StdRng::seed_from_u64(seed);
        let u = CMatrix::random_unitary(d, &mut rng);
        let factors = two_level_decompose(&u).expect("unitary input");
        let back = reconstruct(&factors, d);
        prop_assert!((&back - &u).max_norm() < 1e-8);
    }

    #[test]
    fn lanczos_agrees_with_full_eigh(seed in 0u64..100_000, n in 6usize..20) {
        use qsc_suite::linalg::lanczos::lanczos_lowest_k;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = CMatrix::random_hermitian(n, &mut rng);
        let k = 2;
        let partial = lanczos_lowest_k(&a, k, 1e-8, &mut rng).expect("lanczos");
        let full = eigh(&a).expect("eigh");
        for (p, f) in partial.eigenvalues.iter().zip(&full.eigenvalues) {
            prop_assert!((p - f).abs() < 1e-5, "lanczos {p} vs full {f}");
        }
    }

    #[test]
    fn trotter_unitary_stays_unitary(seed in 0u64..100_000, steps in 1usize..8) {
        use qsc_suite::core::trotter::trotter_unitary;
        let g = random_mixed(&RandomMixedParams {
            n: 6,
            p_undirected: 0.4,
            p_directed: 0.3,
            weight_range: (0.5, 1.5),
            seed,
        })
        .expect("params");
        let u = trotter_unitary(&g, 0.25, 0.7, steps).expect("trotter");
        prop_assert!(u.is_unitary(1e-8));
    }

    #[test]
    fn noisy_similarity_graph_bounded_by_margin(
        seed in 0u64..100_000,
        eps in 0.0f64..0.05,
    ) {
        use qsc_suite::graph::similarity::{quantum_similarity_graph, similarity_graph};
        let mut rng = StdRng::seed_from_u64(seed);
        // A line of points at pitch 0.3 with threshold 0.2: all pairwise
        // squared-distance margins exceed |0.09 − 0.04| = 0.05 ≥ eps, so no
        // edge may flip.
        let points: Vec<Vec<f64>> = (0..12).map(|i| vec![0.3 * i as f64]).collect();
        let exact = similarity_graph(&points, 0.2).expect("exact");
        let noisy = quantum_similarity_graph(&points, 0.2, eps, &mut rng).expect("noisy");
        prop_assert_eq!(exact, noisy);
    }

    #[test]
    fn mu_bounded_by_frobenius_for_incidence(g in arb_mixed_graph()) {
        prop_assume!(g.num_connections() > 0);
        let analytic = qsc_suite::core::cost::incidence_mu(&g);
        let b = incidence_matrix(&g, 0.25);
        prop_assert!(analytic <= b.frobenius_norm() + 1e-9);
        let dense = qsc_suite::linalg::params::mu(&b);
        prop_assert!((analytic - dense).abs() < 1e-6,
            "analytic {analytic} vs dense {dense}");
    }
}
