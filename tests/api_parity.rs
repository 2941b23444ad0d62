//! Backend-equivalence suite for the execution-backend redesign (the
//! successor of the PR 2 free-function parity suite, whose deprecated
//! wrappers are now removed).
//!
//! Pins three contracts:
//!
//! * the **default** pipeline (implicit `Statevector`) is bit-identical to
//!   an explicitly selected `Statevector` backend and to a zero-noise
//!   `NoisyStatevector` — i.e. the backend layer added **zero** numerical
//!   drift over the PR 2 outputs (the builder runs the same RNG streams and
//!   kernels as before),
//! * the serializable `BackendConfig` route (`Pipeline::backend_config`)
//!   reproduces the equivalent builder recipe exactly,
//! * the rayon-parallel `run_many` batch runner — on the persistent worker
//!   pool, with backends shared across instances — remains
//!   indistinguishable from a sequential loop under a multi-threaded pool.
//!
//! The worker count is pinned to 4 before any pipeline runs (same
//! mechanism as `parallel_kernels.rs`), so the batch runner actually
//! exercises its parallel path even on single-core CI runners.

use qsc_suite::core::{
    BackendConfig, ClusteringOutcome, GraphInstance, LanczosCsr, NoisyStatevector, Pipeline,
    QMeans, QuantumParams, ShotSampler, Statevector,
};
use qsc_suite::graph::generators::{dsbm, DsbmParams, MetaGraph, PlantedGraph};
use std::sync::Arc;
use std::sync::Once;

fn setup() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        // Must precede the first kernel invocation in this process: the
        // worker count is latched on first use.
        std::env::set_var("RAYON_NUM_THREADS", "4");
    });
}

fn flow_instance(n: usize, seed: u64) -> PlantedGraph {
    dsbm(&DsbmParams {
        n,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 0.95,
        meta: MetaGraph::Cycle,
        seed,
        ..DsbmParams::default()
    })
    .expect("valid params")
}

/// Everything except wall-clock must agree bit-for-bit.
fn assert_outcomes_identical(a: &ClusteringOutcome, b: &ClusteringOutcome, what: &str) {
    assert_eq!(a.labels, b.labels, "{what}: labels");
    assert_eq!(a.embedding, b.embedding, "{what}: embedding");
    assert_eq!(a.spectrum, b.spectrum, "{what}: spectrum");
    assert_eq!(
        a.selected_eigenvalues, b.selected_eigenvalues,
        "{what}: selected eigenvalues"
    );
    assert_eq!(
        a.diagnostics.classical_cost, b.diagnostics.classical_cost,
        "{what}: classical cost"
    );
    assert_eq!(
        a.diagnostics.quantum_cost, b.diagnostics.quantum_cost,
        "{what}: quantum cost"
    );
    assert_eq!(a.diagnostics.kappa, b.diagnostics.kappa, "{what}: kappa");
    assert_eq!(
        a.diagnostics.dims_used, b.diagnostics.dims_used,
        "{what}: dims"
    );
}

#[test]
fn default_backend_is_bit_identical_to_explicit_statevector() {
    setup();
    let inst = flow_instance(90, 1);
    let params = QuantumParams::default();
    for (name, base) in [
        ("classical", Pipeline::hermitian(3).seed(7)),
        ("quantum", Pipeline::hermitian(3).seed(7).quantum(&params)),
    ] {
        let implicit = base.clone().run(&inst.graph).expect("implicit");
        let explicit = base
            .clone()
            .backend(Statevector::new())
            .run(&inst.graph)
            .expect("explicit");
        assert_outcomes_identical(&implicit, &explicit, name);
    }
}

#[test]
fn zero_noise_backend_is_bit_identical_to_ideal() {
    setup();
    let inst = flow_instance(60, 2);
    let params = QuantumParams::default();
    let ideal = Pipeline::hermitian(3)
        .seed(9)
        .quantum(&params)
        .run(&inst.graph)
        .expect("ideal");
    let zero_noise = Pipeline::hermitian(3)
        .seed(9)
        .quantum(&params)
        .backend(NoisyStatevector::new(0.0, 0.0))
        .run(&inst.graph)
        .expect("zero noise");
    assert_outcomes_identical(&ideal, &zero_noise, "zero-noise NoisyStatevector");
}

#[test]
fn backend_config_reproduces_builder_recipes() {
    setup();
    let inst = flow_instance(90, 3);
    // The serializable route (what spec files deserialize into) must be
    // bit-identical to the direct builder call, for every backend form.
    let params = QuantumParams::default();
    let base = || {
        Pipeline::hermitian(3)
            .seed(5)
            .embedder(LanczosCsr)
            .quantum(&params)
    };
    let cases: [(&str, BackendConfig, Pipeline); 3] = [
        (
            "statevector",
            BackendConfig::Statevector,
            base().backend(Statevector::new()),
        ),
        (
            "noisy",
            BackendConfig::Noisy {
                depolarizing: 0.01,
                readout_flip: 0.02,
            },
            base().backend(NoisyStatevector::new(0.01, 0.02)),
        ),
        (
            "shots",
            BackendConfig::Shots { shots: 512 },
            base().backend(ShotSampler::new(512)),
        ),
    ];
    for (name, config, via_builder) in cases {
        let via_config = base()
            .backend_config(&config)
            .expect("valid config")
            .run(&inst.graph)
            .expect("config run");
        let direct = via_builder.run(&inst.graph).expect("builder run");
        assert_outcomes_identical(&via_config, &direct, name);
    }
}

#[test]
fn nonexact_backends_are_deterministic_but_distinct() {
    setup();
    let inst = flow_instance(60, 4);
    let params = QuantumParams::default();
    let base = Pipeline::hermitian(3).seed(11).quantum(&params);
    let ideal = base.clone().run(&inst.graph).expect("ideal");

    let shots_a = base
        .clone()
        .backend(ShotSampler::new(1024))
        .run(&inst.graph)
        .expect("shots a");
    let shots_b = base
        .clone()
        .backend(ShotSampler::new(1024))
        .run(&inst.graph)
        .expect("shots b");
    assert_outcomes_identical(&shots_a, &shots_b, "seeded shot sampler");
    assert_ne!(
        ideal.embedding, shots_a.embedding,
        "finite shots must perturb the embedding"
    );

    let noisy_a = base
        .clone()
        .backend(NoisyStatevector::new(0.02, 0.05))
        .run(&inst.graph)
        .expect("noisy a");
    let noisy_b = base
        .clone()
        .backend(NoisyStatevector::new(0.02, 0.05))
        .run(&inst.graph)
        .expect("noisy b");
    assert_outcomes_identical(&noisy_a, &noisy_b, "seeded noisy backend");
    assert_ne!(
        ideal.embedding, noisy_a.embedding,
        "noise must perturb the embedding"
    );
}

/// `pl` alone through `Pipeline::run_many`, clustered by its own stage:
/// one outcome per instance. Nothing restates the stage, so comparing a
/// `.quantum()` batch with `Pipeline::run` pins that the batch runs the
/// pipeline's own q-means.
fn run_batch(pl: &Pipeline, batch: &[GraphInstance<'_>]) -> Vec<ClusteringOutcome> {
    Pipeline::run_many(std::slice::from_ref(pl), batch)
        .concat()
        .into_iter()
        .map(|out| out.expect("run_many"))
        .collect()
}

#[test]
fn run_many_is_deterministic_under_four_workers() {
    setup();
    let graphs: Vec<PlantedGraph> = (0..6).map(|s| flow_instance(60, 40 + s)).collect();
    let batch: Vec<GraphInstance> = graphs
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let pl = Pipeline::hermitian(3).quantum(&QuantumParams::default());

    // Sequential reference: one run() per instance, in order.
    let sequential: Vec<ClusteringOutcome> = batch
        .iter()
        .map(|inst| {
            pl.clone()
                .seed(inst.seed)
                .run(inst.graph)
                .expect("sequential run")
        })
        .collect();

    // The parallel batch must agree exactly, run after run.
    for round in 0..2 {
        let batched = run_batch(&pl, &batch);
        assert_eq!(batched.len(), sequential.len());
        for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            assert_outcomes_identical(b, s, &format!("round {round}, instance {i}"));
        }
    }
}

#[test]
fn run_many_shares_one_backend_pool_across_instances() {
    setup();
    // One ShotSampler shared by the whole parallel batch: still
    // deterministic and identical to the sequential loop, because the
    // per-instance RNG streams are independent of scheduling.
    let graphs: Vec<PlantedGraph> = (0..4).map(|s| flow_instance(50, 70 + s)).collect();
    let batch: Vec<GraphInstance> = graphs
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let backend = Arc::new(ShotSampler::new(512));
    let pl = Pipeline::hermitian(3)
        .quantum(&QuantumParams::default())
        .backend_shared(backend);
    let batched = run_batch(&pl, &batch);
    for (i, inst) in batch.iter().enumerate() {
        let single = pl.clone().seed(inst.seed).run(inst.graph).expect("single");
        assert_outcomes_identical(
            &batched[i],
            &single,
            &format!("shared backend, instance {i}"),
        );
    }
}

#[test]
fn run_many_clusterer_sweep_matches_independent_full_runs() {
    setup();
    let graphs: Vec<PlantedGraph> = (0..3).map(|s| flow_instance(50, 60 + s)).collect();
    let batch: Vec<GraphInstance> = graphs
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let params = QuantumParams::default();
    let pl = Pipeline::hermitian(3).quantum(&params);
    let deltas = [0.05, 0.9];
    let variants: Vec<Pipeline> = deltas
        .iter()
        .map(|&d| pl.clone().clusterer(QMeans::new(d)))
        .collect();
    let swept = Pipeline::run_many(&variants, &batch);
    for (column, (variant, delta)) in swept.iter().zip(variants.iter().zip(deltas)) {
        assert_eq!(column.len(), graphs.len());
        for (i, out) in column.iter().enumerate() {
            let full = variant
                .clone()
                .seed(i as u64)
                .run(&graphs[i].graph)
                .expect("full run");
            assert_outcomes_identical(
                out.as_ref().expect("sweep"),
                &full,
                &format!("instance {i}, delta {delta}"),
            );
        }
    }
}
