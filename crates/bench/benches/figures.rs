//! Criterion micro-benches backing the evaluation figures (F2–F4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsc_core::{Pipeline, QuantumParams};
use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph};
use qsc_graph::normalized_hermitian_laplacian;
use qsc_linalg::eigvalsh;
use qsc_sim::qpe::qpe_phase_distribution;
use qsc_sim::PhaseEstimator;
use std::hint::black_box;

fn flow_params(n: usize) -> DsbmParams {
    DsbmParams {
        n,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 0.9,
        meta: MetaGraph::Cycle,
        seed: 1,
        ..DsbmParams::default()
    }
}

/// F2: wall-clock scaling of both pipelines over n (the measured side of
/// the runtime figure; the cost-model side is computed by `experiments`).
fn bench_fig2_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_scaling");
    group.sample_size(10);
    for n in [100usize, 200, 300] {
        let inst = dsbm(&flow_params(n)).expect("dsbm");
        let classical = Pipeline::hermitian(3).seed(1);
        group.bench_with_input(BenchmarkId::new("classical", n), &n, |b, _| {
            b.iter(|| classical.run(black_box(&inst.graph)).expect("run"))
        });
        let quantum = Pipeline::hermitian(3).seed(1).quantum(&QuantumParams {
            tomography_shots: 256,
            ..QuantumParams::default()
        });
        group.bench_with_input(BenchmarkId::new("quantum", n), &n, |b, _| {
            b.iter(|| quantum.run(black_box(&inst.graph)).expect("run"))
        });
    }
    group.finish();
}

/// F3: cost of the QPE outcome-distribution computation and of rounding a
/// whole spectrum, per phase-register width.
fn bench_fig3_qpe(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_qpe");
    let inst = dsbm(&flow_params(128)).expect("dsbm");
    let laplacian = normalized_hermitian_laplacian(&inst.graph, 0.25);
    let eigenvalues = eigvalsh(&laplacian).expect("eigvalsh");
    for t in [4usize, 6, 8, 10] {
        group.bench_with_input(BenchmarkId::new("distribution", t), &t, |b, &t| {
            b.iter(|| qpe_phase_distribution(black_box(0.3137), t))
        });
        let est = PhaseEstimator::new(4.0, t).expect("estimator");
        group.bench_with_input(BenchmarkId::new("round_spectrum", t), &t, |b, _| {
            b.iter(|| {
                eigenvalues
                    .iter()
                    .map(|&l| est.round(black_box(l)))
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

/// F4: Laplacian construction + eigenvalues per rotation parameter
/// (the per-q cost of the ablation; accuracy rows come from `experiments`).
fn bench_fig4_ablation_q(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_ablation_q");
    group.sample_size(10);
    let inst = dsbm(&flow_params(150)).expect("dsbm");
    for (name, q) in [("q0", 0.0), ("q_quarter", 0.25), ("q_third", 1.0 / 3.0)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let l = normalized_hermitian_laplacian(black_box(&inst.graph), q);
                eigvalsh(&l).expect("eigvalsh")[0]
            })
        });
    }
    group.finish();
}

criterion_group!(
    figures,
    bench_fig2_scaling,
    bench_fig3_qpe,
    bench_fig4_ablation_q
);
criterion_main!(figures);
