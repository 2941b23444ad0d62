//! Execution-backend benches (PR: "Backend execution API").
//!
//! Two groups:
//!
//! * `backend_exec` — compiled QPE-circuit execution on the `Statevector`
//!   backend.
//! * `noise_curve` — the recorded, seeded accuracy-degradation curve: the
//!   full quantum pipeline on a flow-DSBM instance across depolarizing /
//!   readout noise levels, with the matched accuracy embedded in the
//!   benchmark name so `QSC_BENCH_JSON=BENCH_pr3.json` captures the whole
//!   curve as machine-readable rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsc_cluster::metrics::matched_accuracy;
use qsc_core::{
    DensityMatrix, GraphInstance, NoisyStatevector, Pipeline, QuantumParams, ShotSampler,
};
use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph};
use qsc_linalg::CMatrix;
use qsc_sim::backend::{Backend, Statevector};
use qsc_sim::qpe::qpe_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Compiled 12-qubit QPE circuit (4 system + 8 phase bits) executed on the
/// statevector backend.
fn bench_backend_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_exec");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let h = CMatrix::random_hermitian(16, &mut rng);
    let u = qsc_linalg::expm::expi(&h, 0.8).expect("unitary");
    let eig = qsc_linalg::eig::eig_unitary(&u).expect("diagonalizable");
    let circuit = qpe_circuit(&eig, 8).expect("circuit");

    let plain = Statevector::new();
    group.bench_function("qpe12_statevector", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            plain
                .execute(black_box(&circuit), 5, &mut rng)
                .expect("run")
        })
    });
    group.finish();
}

/// The seeded accuracy-degradation curve: mean quantum-pipeline accuracy
/// (5 pipeline seeds, fanned out with `run_many`) vs noise level, recorded
/// in the bench names (and the JSON rows). The instance is a borderline
/// flow-DSBM (η = 0.8, p = 0.15) so finite precision actually bites.
fn bench_noise_curve(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_curve");
    group.sample_size(10);
    let inst = dsbm(&DsbmParams {
        n: 120,
        k: 3,
        p_intra: 0.15,
        p_inter: 0.15,
        eta_flow: 0.8,
        meta: MetaGraph::Cycle,
        seed: 7,
        ..DsbmParams::default()
    })
    .expect("dsbm");
    let params = QuantumParams::default();
    let base = Pipeline::hermitian(3).quantum(&params);
    // Same graph, five master seeds — the accuracy reported per noise
    // level is the batch mean.
    let batch: Vec<GraphInstance> = (0..5u64)
        .map(|s| GraphInstance::with_seed(&inst.graph, 11 + s))
        .collect();
    let mean_acc = |pl: &Pipeline| {
        let outs = Pipeline::run_many(std::slice::from_ref(pl), &batch).concat();
        outs.iter()
            .map(|o| matched_accuracy(&inst.labels, &o.as_ref().expect("noise batch").labels))
            .sum::<f64>()
            / outs.len() as f64
    };

    for &dep in &[0.0, 0.02, 0.05, 0.1, 0.2, 0.3] {
        let pl = base.clone().backend(NoisyStatevector::new(dep, dep));
        let acc = mean_acc(&pl);
        let pl_run = pl.clone().seed(11);
        group.bench_function(
            BenchmarkId::new(format!("noisy_dep{dep}"), format!("acc{acc:.4}")),
            |b| b.iter(|| pl_run.run(black_box(&inst.graph)).expect("noisy run")),
        );
    }
    // The exact-channel counterpart of the trajectory curve: one density
    // run per level *is* the expectation value, so the recorded accuracy
    // carries no Monte-Carlo variance at all.
    for &dep in &[0.0, 0.05, 0.2] {
        let pl = base.clone().backend(DensityMatrix::new(dep, dep)).seed(11);
        let out = pl.run(&inst.graph).expect("density run");
        let acc = matched_accuracy(&inst.labels, &out.labels);
        group.bench_function(
            BenchmarkId::new(format!("density_dep{dep}"), format!("acc{acc:.4}")),
            |b| b.iter(|| pl.run(black_box(&inst.graph)).expect("density run")),
        );
    }
    for &shots in &[64usize, 512] {
        let pl = base.clone().backend(ShotSampler::new(shots));
        let acc = mean_acc(&pl);
        let pl_run = pl.clone().seed(11);
        group.bench_function(
            BenchmarkId::new(format!("shots{shots}"), format!("acc{acc:.4}")),
            |b| b.iter(|| pl_run.run(black_box(&inst.graph)).expect("shot run")),
        );
    }
    group.finish();
}

criterion_group!(backends, bench_backend_exec, bench_noise_curve);
criterion_main!(backends);
