//! End-to-end integration tests across all workspace crates: generated
//! workload → Hermitian Laplacian → (classical | quantum) pipeline →
//! metrics, with seeded accuracy floors.

use qsc_suite::cluster::clusterability::measure_clusterability;
use qsc_suite::cluster::metrics::{adjusted_rand_index, matched_accuracy};
use qsc_suite::core::{baseline::adjacency_kmeans, Pipeline, QuantumParams};
use qsc_suite::graph::generators::{dsbm, netlist, DsbmParams, MetaGraph, NetlistParams};
use qsc_suite::graph::io::{from_edge_list, to_edge_list};
use qsc_suite::graph::stats::{cut_weight, mean_flow_imbalance};
use qsc_suite::graph::{hermitian_laplacian, incidence_matrix};

fn flow_instance(n: usize, seed: u64) -> qsc_suite::graph::generators::PlantedGraph {
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

#[test]
fn classical_pipeline_accuracy_floor() {
    let inst = flow_instance(150, 1);
    let out = Pipeline::hermitian(3)
        .seed(2)
        .run(&inst.graph)
        .expect("pipeline");
    assert!(matched_accuracy(&inst.labels, &out.labels) > 0.95);
}

#[test]
fn quantum_pipeline_accuracy_floor() {
    let inst = flow_instance(150, 1);
    let out = Pipeline::hermitian(3)
        .seed(2)
        .quantum(&QuantumParams::default())
        .run(&inst.graph)
        .expect("pipeline");
    assert!(matched_accuracy(&inst.labels, &out.labels) > 0.85);
}

#[test]
fn method_ordering_on_flow_clusters() {
    // The evaluation's headline ordering: Hermitian (classical ≈ quantum)
    // ≫ symmetrized on flow-defined clusters.
    let inst = flow_instance(120, 3);
    let pl = Pipeline::hermitian(3).seed(5);
    let herm = pl.run(&inst.graph).expect("classical");
    let quan = pl
        .clone()
        .quantum(&QuantumParams::default())
        .run(&inst.graph)
        .expect("quantum");
    let blind = Pipeline::symmetrized(3)
        .seed(5)
        .run(&inst.graph)
        .expect("baseline");

    let acc_h = matched_accuracy(&inst.labels, &herm.labels);
    let acc_q = matched_accuracy(&inst.labels, &quan.labels);
    let acc_b = matched_accuracy(&inst.labels, &blind.labels);
    assert!(acc_h > acc_b + 0.15, "hermitian {acc_h} vs blind {acc_b}");
    assert!(acc_q > acc_b + 0.10, "quantum {acc_q} vs blind {acc_b}");
    assert!(
        (acc_h - acc_q).abs() < 0.15,
        "classical {acc_h} vs quantum {acc_q}"
    );
}

#[test]
fn netlist_module_recovery() {
    let params = NetlistParams {
        num_modules: 4,
        cells_per_module: 30,
        seed: 7,
        ..NetlistParams::default()
    };
    let inst = netlist(&params).expect("netlist");
    let herm = Pipeline::hermitian(4)
        .seed(2)
        .run(&inst.graph)
        .expect("classical");
    let acc = matched_accuracy(&inst.labels, &herm.labels);
    assert!(acc > 0.7, "netlist module accuracy {acc}");
    // The recovered partition must have strongly oriented boundaries.
    let imb = mean_flow_imbalance(&inst.graph, &herm.labels, 4);
    assert!(imb > 0.5, "flow imbalance {imb}");
}

#[test]
fn incidence_factorization_on_generated_workloads() {
    // L(q) = B(q)·B(q)† must hold on every generator's output.
    let dsbm_inst = flow_instance(24, 9);
    let net_inst = netlist(&NetlistParams {
        num_modules: 3,
        cells_per_module: 8,
        seed: 9,
        ..NetlistParams::default()
    })
    .expect("netlist");
    for (name, g) in [("dsbm", &dsbm_inst.graph), ("netlist", &net_inst.graph)] {
        for &q in &[0.0, 0.25, 1.0 / 3.0] {
            let b = incidence_matrix(g, q);
            let l = hermitian_laplacian(g, q);
            let err = (&b.matmul(&b.adjoint()) - &l).max_norm();
            assert!(err < 1e-9, "{name} q={q}: err {err}");
        }
    }
}

#[test]
fn graph_io_round_trip_on_workloads() {
    let inst = flow_instance(40, 11);
    let text = to_edge_list(&inst.graph);
    let parsed = from_edge_list(&text).expect("parse");
    assert_eq!(parsed, inst.graph);
    // The parsed graph produces the identical Laplacian.
    let a = hermitian_laplacian(&inst.graph, 0.25);
    let b = hermitian_laplacian(&parsed, 0.25);
    assert!((&a - &b).max_norm() < 1e-15);
}

#[test]
fn adjacency_baseline_is_weaker_than_spectral() {
    let inst = flow_instance(120, 13);
    let spectral = Pipeline::hermitian(3)
        .seed(4)
        .run(&inst.graph)
        .expect("classical");
    let naive_labels = adjacency_kmeans(
        &inst.graph,
        3,
        qsc_suite::graph::Q_CLASSICAL,
        &Default::default(),
        4,
    )
    .expect("naive");
    let acc_s = matched_accuracy(&inst.labels, &spectral.labels);
    let acc_n = matched_accuracy(&inst.labels, &naive_labels);
    assert!(
        acc_s >= acc_n,
        "spectral {acc_s} must not lose to naive {acc_n}"
    );
}

#[test]
fn ari_and_accuracy_agree_on_perfect_runs() {
    let inst = flow_instance(90, 17);
    let out = Pipeline::hermitian(3)
        .seed(8)
        .run(&inst.graph)
        .expect("classical");
    let acc = matched_accuracy(&inst.labels, &out.labels);
    let ari = adjusted_rand_index(&inst.labels, &out.labels);
    if acc == 1.0 {
        assert!((ari - 1.0).abs() < 1e-12);
    } else {
        assert!(ari <= 1.0);
    }
}

#[test]
fn cut_weight_lower_for_recovered_partition_than_random() {
    let inst = dsbm(&DsbmParams {
        n: 90,
        k: 3,
        p_intra: 0.4,
        p_inter: 0.05,
        seed: 19,
        ..DsbmParams::default()
    })
    .expect("dsbm");
    let out = Pipeline::hermitian(3)
        .seed(3)
        .run(&inst.graph)
        .expect("classical");
    let recovered_cut = cut_weight(&inst.graph, &out.labels);
    let random_labels: Vec<usize> = (0..90).map(|i| (i * 7 + 3) % 3).collect();
    let random_cut = cut_weight(&inst.graph, &random_labels);
    assert!(
        recovered_cut < random_cut,
        "{recovered_cut} vs {random_cut}"
    );
}

#[test]
fn diagnostics_cost_models_positive_and_ordered() {
    let inst = flow_instance(100, 23);
    let q = Pipeline::hermitian(3)
        .seed(1)
        .quantum(&QuantumParams::default())
        .run(&inst.graph)
        .expect("quantum");
    assert!(q.diagnostics.classical_cost > 0.0);
    assert!(q.diagnostics.quantum_cost.expect("set") > 0.0);
    assert!(q.diagnostics.kappa >= 1.0);
    assert!(q.diagnostics.mu_b > 0.0);
    assert!(q.diagnostics.eta_embedding >= 1.0);
}

#[test]
fn normalized_spectral_embedding_of_flow_dsbm_is_well_clusterable() {
    // The claim the evaluation verifies: once projected onto the
    // spectral space *and row-normalized* (the NJW step that collapses
    // each cluster's shell onto a point), flow clusters satisfy the
    // q-means assumption. The raw embedding's clusters are thin shells
    // whose radius is comparable to their separation — measured in T5.
    let inst = dsbm(&DsbmParams {
        n: 120,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 1.0,
        meta: MetaGraph::Cycle,
        seed: 8,
        ..DsbmParams::default()
    })
    .unwrap();
    let pl = Pipeline::hermitian(3).seed(2);
    let out = pl.clone().normalize_rows(true).run(&inst.graph).unwrap();
    let normalized = measure_clusterability(&out.embedding, &out.labels).unwrap();

    let raw_out = pl.run(&inst.graph).unwrap();
    let raw = measure_clusterability(&raw_out.embedding, &raw_out.labels).unwrap();
    assert!(
        normalized.separation_ratio > raw.separation_ratio,
        "normalization must tighten the clusters: {normalized:?} vs {raw:?}"
    );

    // An honest finding of the reproduction (recorded in EXPERIMENTS.md):
    // even though clustering succeeds, the *strict* Definition-4 bar is
    // not met on this instance — the 2nd/3rd eigenvectors carry bulk
    // noise that dilutes the embedding. The structure must still beat a
    // label-shuffled control decisively.
    let shuffled: Vec<usize> = (0..out.labels.len()).map(|i| (i * 7 + 1) % 3).collect();
    let control = measure_clusterability(&out.embedding, &shuffled).unwrap();
    assert!(
        normalized.separation_ratio > 3.0 * control.separation_ratio,
        "true labels must beat shuffled control: {normalized:?} vs {control:?}"
    );
}
