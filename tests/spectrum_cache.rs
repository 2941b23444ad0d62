//! The per-job spectrum cache changes time, never bytes.
//!
//! A sweep job Householder-reduces each distinct Laplacian once through a
//! `SpectrumCache` and re-runs only QL on every later lookup. These tests
//! pin that:
//!
//! * the quick `table1`/`table3` specs give the same CSV with and without
//!   the cache, and the pipelines behind them give bit-identical labels,
//!   embeddings and spectra;
//! * the reuse itself, as `(hits, misses)` per spec. The counts hold at any
//!   worker count (CI runs this file under 1, 2 and 4). `table6` is not
//!   pinned: two workers that miss on the same matrix at once both reduce
//!   it, so its hit count depends on scheduling (time, never bytes).

use qsc_bench::spec::ExperimentKind;
use qsc_bench::{builtin, ExperimentSpec, Scale, SweepRunner};
use qsc_suite::core::config::QuantumParams;
use qsc_suite::core::{
    ClusteringOutcome, GraphInstance, Pipeline, SpectrumCache, SpectrumCacheStats,
};
use qsc_suite::graph::spec::{GeneratedInstance, GraphSpec};
use std::sync::Arc;

fn spec(name: &str) -> ExperimentSpec {
    builtin::builtin_spec(name)
        .unwrap_or_else(|| panic!("no builtin spec `{name}`"))
        .expect("builtin spec parses")
}

fn csv(spec: &ExperimentSpec, cache: Option<Arc<SpectrumCache>>) -> String {
    SweepRunner::new(Scale::Quick)
        .run_with_cache(spec, cache, &mut |_| {})
        .expect("spec runs")
        .primary
        .to_csv()
}

/// `(hits, misses)` of one quick spec run under a fresh cache.
fn reuse(spec: &ExperimentSpec) -> (u64, u64, String) {
    let cache = Arc::new(SpectrumCache::new());
    let csv = csv(spec, Some(cache.clone()));
    let SpectrumCacheStats { hits, misses } = cache.stats();
    (hits, misses, csv)
}

#[test]
fn table1_and_table3_csvs_match_without_the_cache() {
    for (name, hits, misses) in [("table1", 12, 24), ("table3", 27, 3)] {
        let spec = spec(name);
        let (got_hits, got_misses, cached) = reuse(&spec);
        assert_eq!(cached, csv(&spec, None), "{name}: cached CSV drifted");
        assert_eq!((got_hits, got_misses), (hits, misses), "{name}: reuse");
    }
}

#[test]
fn each_spec_reuses_what_its_variants_and_axes_share() {
    // table4/table5/fig2: the classical and quantum variants share each
    // Hermitian Laplacian.
    for (name, hits, misses) in [("table4", 9, 18), ("table5", 8, 4), ("fig2", 6, 6)] {
        let (got_hits, got_misses, _) = reuse(&spec(name));
        assert_eq!((got_hits, got_misses), (hits, misses), "{name}: reuse");
    }
}

#[test]
fn sharing_follows_the_resolved_recipe_not_path_names() {
    // A stacked δ axis over a 45-node workload, either plain or with each
    // point also setting `graph.n` to the 45 it already is. Both resolve
    // to recipes that differ only in δ, so both stage each repetition's
    // embedding once: one batch, one reduction per graph, no hits.
    let stacked = |axis: &str| {
        ExperimentSpec::parse(&format!(
            r#"{{
                "name": "delta_sharing",
                "title": "δ over one staged embedding",
                "kind": "pipeline",
                "graph": {{"family": "dsbm", "n": 45, "k": 3, "eta_flow": 0.9, "meta": "cycle"}},
                "reps": 2,
                "base": {{"k": 3, "quantum": {{}}}},
                "variants": [{{"name": "quantum"}}],
                "layout": "stacked",
                "axes": [{axis}],
                "columns": [
                    {{"header": "parameter", "axis_name": true}},
                    {{"header": "value", "axis_value": true}},
                    {{"header": "quantum_acc", "metric": "matched_accuracy", "mean_std": 3}},
                    {{"header": "quantum_dims", "metric": "dims_used", "mean": 1}}
                ]
            }}"#
        ))
        .expect("spec parses")
    };
    let plain = stacked(
        r#"{"name": "delta", "path": "clusterer.delta", "label_decimals": 2, "values": [0.05, 0.5]}"#,
    );
    let with_n = stacked(
        r#"{"name": "delta", "points": [
            {"set": {"clusterer.delta": 0.05, "graph.n": 45}, "labels": {"delta": "0.05"}},
            {"set": {"clusterer.delta": 0.5, "graph.n": 45}, "labels": {"delta": "0.50"}}
        ]}"#,
    );
    let (hits, misses, csv) = reuse(&with_n);
    assert_eq!((hits, misses), (0, 2), "one staged embedding per rep");
    assert_eq!(csv, reuse(&plain).2, "same table as the plain δ axis");
}

/// The quick-scale repetitions of a pipeline spec's workload, with the
/// workload's `n` replaced when given.
fn instances(name: &str, n: Option<usize>) -> Vec<(GeneratedInstance, u64)> {
    let spec = spec(name);
    let ExperimentKind::Pipeline(p) = &spec.kind else {
        panic!("{name} is not a pipeline sweep");
    };
    (0..*p.reps.get(Scale::Quick))
        .map(|rep| {
            let mut graph = p.graph.clone();
            if let (GraphSpec::Dsbm(params), Some(n)) = (&mut graph, n) {
                params.n = n;
            }
            graph.set_seed(p.seeds.graph_seed(rep));
            let inst = graph.generate().expect("workload generates");
            (inst, p.seeds.pipeline_seed(rep))
        })
        .collect()
}

/// Runs every pipeline on every instance, in order, each pipeline as one
/// batch, with and without one shared cache; asserts the outcomes are
/// bit-identical and returns the cache's reuse.
fn assert_cache_is_invisible(
    pipelines: &[Pipeline],
    instances: &[(GeneratedInstance, u64)],
) -> SpectrumCacheStats {
    let batch: Vec<GraphInstance> = instances
        .iter()
        .map(|(inst, seed)| GraphInstance::with_seed(&inst.graph, *seed))
        .collect();
    let cache = Arc::new(SpectrumCache::new());
    for (p, pl) in pipelines.iter().enumerate() {
        let cached = Pipeline::run_many(&[pl.clone().spectrum_cache(cache.clone())], &batch);
        let plain = Pipeline::run_many(std::slice::from_ref(pl), &batch);
        for (rep, (c, u)) in cached[0].iter().zip(&plain[0]).enumerate() {
            let (c, u) = (
                c.as_ref().expect("cached run"),
                u.as_ref().expect("plain run"),
            );
            assert_identical(c, u, &format!("pipeline {p}, rep {rep}"));
        }
    }
    cache.stats()
}

fn assert_identical(cached: &ClusteringOutcome, plain: &ClusteringOutcome, at: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(cached.labels, plain.labels, "{at}: labels");
    assert_eq!(
        bits(&cached.spectrum),
        bits(&plain.spectrum),
        "{at}: spectrum"
    );
    assert_eq!(
        cached.embedding.iter().map(|r| bits(r)).collect::<Vec<_>>(),
        plain.embedding.iter().map(|r| bits(r)).collect::<Vec<_>>(),
        "{at}: embedding"
    );
}

#[test]
fn table1_pipelines_are_bit_identical_with_the_cache() {
    // The quick `n` axis, each point's classical / quantum / symmetrized
    // variants: the quantum variant reuses the classical reduction.
    for n in [100, 200, 300, 400] {
        let classical = Pipeline::hermitian(3);
        let pipelines = [
            classical.clone(),
            classical.clone().quantum(&QuantumParams::default()),
            classical.symmetrize(),
        ];
        let stats = assert_cache_is_invisible(&pipelines, &instances("table1", Some(n)));
        assert_eq!(stats, SpectrumCacheStats { hits: 3, misses: 6 }, "n = {n}");
    }
}

#[test]
fn table3_pipelines_are_bit_identical_with_the_cache() {
    // The quick QPE-bits and tomography-shots axes over table3's three
    // graphs: one reduction per graph serves all nine points.
    let params = QuantumParams::default();
    let bits = [3, 4, 5, 6, 8].map(|qpe_bits| QuantumParams {
        qpe_bits,
        ..params.clone()
    });
    let shots = [64, 256, 1024, 4096].map(|tomography_shots| QuantumParams {
        tomography_shots,
        ..params.clone()
    });
    let pipelines: Vec<Pipeline> = bits
        .iter()
        .chain(&shots)
        .map(|p| Pipeline::hermitian(3).quantum(p))
        .collect();
    let stats = assert_cache_is_invisible(&pipelines, &instances("table3", None));
    assert_eq!(
        stats,
        SpectrumCacheStats {
            hits: 24,
            misses: 3
        }
    );
}
