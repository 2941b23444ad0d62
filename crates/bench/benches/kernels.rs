//! Before/after micro-benches for the parallel, cache-blocked compute
//! kernels (PR: "Parallel, cache-blocked compute kernels across linalg +
//! qsim, with a CSR sparse path for the spectral pipeline").
//!
//! Each group pairs the optimized kernel with the seed-equivalent serial
//! reference, so one `cargo bench --bench kernels` run produces the full
//! before/after table. Setting `QSC_BENCH_JSON=BENCH_<tag>.json` appends
//! machine-readable rows (one JSON object per line) — that is how the
//! committed `BENCH_*.json` baselines are generated:
//!
//! ```text
//! QSC_BENCH_JSON=BENCH_seed.json cargo bench -p qsc-bench --bench kernels
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use qsc_core::cost::{incidence_mu, incidence_mu_reference};
use qsc_core::{GraphInstance, Pipeline};
use qsc_graph::generators::{dsbm, random_mixed, DsbmParams, MetaGraph, RandomMixedParams};
use qsc_graph::{normalized_hermitian_laplacian_csr, Q_CLASSICAL};
use qsc_json::sha256::sha256;
use qsc_linalg::lanczos::{lanczos_lowest_k, lanczos_lowest_k_csr};
use qsc_linalg::{eigvalsh, CMatrix, Complex64};
use qsc_sim::qpe::{qpe_gate_level, qpe_gate_level_repeated_squaring};
use qsc_sim::QuantumState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::hint::black_box;

/// 512×512 dense complex matmul: serial ikj reference vs the blocked,
/// rayon-parallel kernel.
fn bench_matmul_512(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul512");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(1);
    let a = CMatrix::random(512, 512, &mut rng);
    let b = CMatrix::random(512, 512, &mut rng);
    group.bench_function("serial", |bch| {
        bch.iter(|| black_box(&a).matmul_serial(black_box(&b)))
    });
    group.bench_function("blocked_parallel", |bch| {
        bch.iter(|| black_box(&a).matmul(black_box(&b)))
    });
    group.finish();
}

/// 12-qubit gate-level QPE (4 system + 8 phase qubits): repeated matrix
/// squaring vs the eigendecompose-once phase cascade.
fn bench_qpe_12_qubits(c: &mut Criterion) {
    let mut group = c.benchmark_group("qpe12");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let h = CMatrix::random_hermitian(16, &mut rng);
    let u = qsc_linalg::expm::expi(&h, 0.8).expect("unitary");
    let amps: Vec<Complex64> = (0..16)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let input = QuantumState::from_amplitudes(amps).expect("state");
    let t = 8;
    group.bench_function("repeated_squaring", |bch| {
        bch.iter(|| {
            qpe_gate_level_repeated_squaring(black_box(&u), black_box(&input), t).expect("qpe")
        })
    });
    group.bench_function("eigendecompose_once", |bch| {
        bch.iter(|| qpe_gate_level(black_box(&u), black_box(&input), t).expect("qpe"))
    });
    group.finish();
}

/// Lowest-4 eigenpairs of a 2000-vertex sparse mixed-graph Laplacian:
/// dense Lanczos (the seed path, O(n²) per matvec) vs Lanczos on CSR
/// (O(nnz) per matvec).
fn bench_lanczos_2000(c: &mut Criterion) {
    let mut group = c.benchmark_group("lanczos2000");
    group.sample_size(10);
    let g = random_mixed(&RandomMixedParams {
        n: 2000,
        p_undirected: 0.002,
        p_directed: 0.002,
        weight_range: (0.5, 1.5),
        seed: 3,
    })
    .expect("graph");
    let sparse = normalized_hermitian_laplacian_csr(&g, Q_CLASSICAL);
    let dense = sparse.to_dense();
    group.bench_function("dense", |bch| {
        bch.iter(|| {
            lanczos_lowest_k(black_box(&dense), 4, 1e-8, &mut StdRng::seed_from_u64(7))
                .expect("lanczos")
        })
    });
    group.bench_function("csr", |bch| {
        bch.iter(|| {
            lanczos_lowest_k_csr(black_box(&sparse), 4, 1e-8, &mut StdRng::seed_from_u64(7))
                .expect("lanczos")
        })
    });
    group.finish();
}

/// End-to-end batch runner: an 8-instance flow-DSBM batch through the full
/// classical pipeline, as one sequential loop vs one rayon-parallel
/// `run_many` call. Results are identical by construction (per-instance
/// seeds, thread-count-independent kernels); the gap is pure scheduling.
fn bench_run_many_8(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_many8");
    group.sample_size(10);
    let instances: Vec<_> = (0..8u64)
        .map(|seed| {
            dsbm(&DsbmParams {
                n: 160,
                k: 3,
                p_intra: 0.25,
                p_inter: 0.25,
                eta_flow: 0.9,
                meta: MetaGraph::Cycle,
                seed,
                ..DsbmParams::default()
            })
            .expect("dsbm")
        })
        .collect();
    let batch: Vec<GraphInstance> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let pl = Pipeline::hermitian(3);
    group.bench_function("sequential_loop", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|inst| {
                    pl.clone()
                        .seed(inst.seed)
                        .run(black_box(inst.graph))
                        .expect("run")
                })
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("run_many_parallel", |b| {
        b.iter(|| {
            Pipeline::run_many(std::slice::from_ref(&pl), black_box(&batch))
                .concat()
                .into_iter()
                .map(|out| out.expect("run_many"))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// The bookkeeping around the eigensolver at n = 400 (a table1 workload):
/// μ(B) against its one-`powf`-per-weight oracle, and one spectrum-cache
/// key, as the streamed SHA-256 of the CSR words it used to be against the
/// bucket hash plus the bitwise compare with the stored copy that a hit
/// makes now.
fn bench_bookkeeping_400(c: &mut Criterion) {
    let mut group = c.benchmark_group("bookkeeping");
    group.sample_size(10);
    let g = dsbm(&DsbmParams {
        n: 400,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 0.9,
        meta: MetaGraph::Cycle,
        seed: 1,
        ..DsbmParams::default()
    })
    .expect("dsbm")
    .graph;
    group.bench_function("mu400_reference", |b| {
        b.iter(|| incidence_mu_reference(black_box(&g)))
    });
    group.bench_function("mu400_memoised", |b| b.iter(|| incidence_mu(black_box(&g))));
    let laplacian = normalized_hermitian_laplacian_csr(&g, Q_CLASSICAL);
    let stored = laplacian.clone();
    group.bench_function("cache_key400_sha256_reference", |b| {
        b.iter(|| {
            let m = black_box(&laplacian);
            let mut words = Vec::new();
            words.extend_from_slice(&(m.nrows() as u64).to_le_bytes());
            words.extend_from_slice(&(m.ncols() as u64).to_le_bytes());
            let mut end = 0u64;
            for i in 0..m.nrows() {
                let (cols, values) = m.row(i);
                end += cols.len() as u64;
                words.extend_from_slice(&end.to_le_bytes());
                for &j in cols {
                    words.extend_from_slice(&(j as u64).to_le_bytes());
                }
                for z in values {
                    words.extend_from_slice(&z.re.to_bits().to_le_bytes());
                    words.extend_from_slice(&z.im.to_bits().to_le_bytes());
                }
            }
            sha256(&words)
        })
    });
    let state = RandomState::new();
    group.bench_function("cache_key400_hash_and_compare", |b| {
        b.iter(|| {
            let m = black_box(&laplacian);
            (state.hash_one(m.bits()), m.bits() == stored.bits())
        })
    });
    group.finish();
}

/// The Householder reduction at n = 400, through `eigvalsh` (reduction
/// plus the vector-free QL): a real symmetric matrix, which runs the real
/// twin of the reduction, and a complex Hermitian one, which runs the
/// complex loop and its `kernels::rank2` update on the active tier.
fn bench_reduction_400(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction400");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(8);
    let complex = CMatrix::random_hermitian(400, &mut rng);
    let real = CMatrix::from_fn(400, 400, |i, j| Complex64::real(complex[(i, j)].re));
    group.bench_function("eigvalsh_real_symmetric", |b| {
        b.iter(|| eigvalsh(black_box(&real)).expect("eigvalsh"))
    });
    group.bench_function("eigvalsh_complex_hermitian", |b| {
        b.iter(|| eigvalsh(black_box(&complex)).expect("eigvalsh"))
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_matmul_512,
    bench_qpe_12_qubits,
    bench_lanczos_2000,
    bench_run_many_8,
    bench_bookkeeping_400,
    bench_reduction_400
);
criterion_main!(kernels);
