//! Criterion benches for the design-choice ablations A1–A3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsc_linalg::expm::expi;
use qsc_linalg::{eigh, eigh_jacobi, CMatrix};
use qsc_sim::qpe::{qpe_gate_level, qpe_phase_distribution};
use qsc_sim::QuantumState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::TAU;
use std::hint::black_box;

/// A1: the two Hermitian eigensolvers. The Householder+QL path must win
/// clearly — that is why it is the production path.
fn bench_a1_eigensolvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_eigensolvers");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(1);
    for n in [16usize, 32, 64] {
        let a = CMatrix::random_hermitian(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("householder_ql", n), &n, |b, _| {
            b.iter(|| eigh(black_box(&a)).expect("eigh"))
        });
        group.bench_with_input(BenchmarkId::new("jacobi", n), &n, |b, _| {
            b.iter(|| eigh_jacobi(black_box(&a)).expect("jacobi"))
        });
    }
    group.finish();
}

/// A2: gate-level QPE circuit vs the analytic outcome distribution (they
/// agree numerically — see the test suite; this measures the cost gap that
/// justifies the analytic fast path in the pipeline).
fn bench_a2_qpe_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_qpe_paths");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let t = 6;
    for s in [2usize, 4] {
        let dim = 1usize << s;
        let h = CMatrix::random_hermitian(dim, &mut rng);
        let eig = eigh(&h).expect("eigh");
        let span = eig.eigenvalues[dim - 1] - eig.eigenvalues[0] + 1.0;
        let u = expi(&h, TAU / span).expect("expi");
        let input = QuantumState::from_amplitudes(eig.eigenvectors.col(0)).expect("state");
        group.bench_with_input(BenchmarkId::new("gate_level", s), &s, |b, _| {
            b.iter(|| qpe_gate_level(black_box(&u), &input, t).expect("qpe"))
        });
        let phi = 0.0 / span;
        group.bench_with_input(BenchmarkId::new("analytic", s), &s, |b, _| {
            b.iter(|| qpe_phase_distribution(black_box(phi), t))
        });
    }
    group.finish();
}

/// A3: the Lanczos-accelerated classical pipeline vs the full-decomposition
/// pipeline on the flow-DSBM workload.
fn bench_a3_lanczos_pipeline(c: &mut Criterion) {
    use qsc_core::{LanczosDense, Pipeline};
    use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph};
    let mut group = c.benchmark_group("a3_lanczos_pipeline");
    group.sample_size(10);
    for n in [100usize, 200] {
        let inst = dsbm(&DsbmParams {
            n,
            k: 3,
            p_intra: 0.25,
            p_inter: 0.25,
            eta_flow: 0.9,
            meta: MetaGraph::Cycle,
            seed: 1,
            ..DsbmParams::default()
        })
        .expect("dsbm");
        let full = Pipeline::hermitian(3).seed(1);
        let fast = Pipeline::hermitian(3).seed(1).embedder(LanczosDense);
        group.bench_with_input(BenchmarkId::new("full_eigh", n), &n, |b, _| {
            b.iter(|| full.run(black_box(&inst.graph)).expect("run"))
        });
        group.bench_with_input(BenchmarkId::new("lanczos", n), &n, |b, _| {
            b.iter(|| fast.run(black_box(&inst.graph)).expect("run"))
        });
    }
    group.finish();
}

criterion_group!(
    ablations,
    bench_a1_eigensolvers,
    bench_a2_qpe_paths,
    bench_a3_lanczos_pipeline
);
criterion_main!(ablations);
