//! The spec-driven experiment engine's regression suite.
//!
//! Two golden-file tests pin the quick-scale `table1`/`table3` CSVs
//! **bit-identical** to the retired hand-written experiment functions (the
//! goldens under `crates/bench/goldens/` were generated by the old code
//! immediately before its removal), a third pins `specs/noise_shots.json`'s
//! quick CSV to its golden, a fourth pins every other built-in pipeline
//! sweep's quick CSV outside its `*_wall_s` columns, and the serde
//! round-trip tests pin the spec model: `ExperimentSpec`, `GraphSpec` and
//! `BackendConfig` all survive serialize → parse unchanged and reject
//! unknown fields.

use qsc_bench::builtin;
use qsc_bench::{BenchError, ExperimentSpec, Progress, Scale, SweepRunner};
use qsc_json::{FromJson, ToJson, Value};
use qsc_suite::core::report::Table;
use qsc_suite::core::BackendConfig;
use qsc_suite::graph::spec::GraphSpec;

const TABLE1_GOLDEN: &str = include_str!("../crates/bench/goldens/table1_quick.csv");
const TABLE3_GOLDEN: &str = include_str!("../crates/bench/goldens/table3_quick.csv");
const NOISE_SHOTS_GOLDEN: &str = include_str!("../crates/bench/goldens/noise_shots_quick.csv");

fn run_builtin(name: &str) -> qsc_bench::ExperimentOutput {
    let spec = builtin::builtin_spec(name)
        .unwrap_or_else(|| panic!("no builtin spec `{name}`"))
        .expect("builtin spec parses");
    SweepRunner::new(Scale::Quick)
        .run(&spec)
        .expect("spec runs")
}

#[test]
fn table1_quick_csv_is_bit_identical_to_the_handwritten_implementation() {
    let output = run_builtin("table1");
    assert_eq!(
        output.primary.to_csv(),
        TABLE1_GOLDEN,
        "spec-driven table1 drifted from the hand-written golden"
    );
}

#[test]
fn table3_quick_csv_is_bit_identical_to_the_handwritten_implementation() {
    // Covers all three stacked axes, including the δ axis, whose runs
    // differ only in the clustering stage and so share one staged
    // embedding per graph.
    let output = run_builtin("table3");
    assert_eq!(
        output.primary.to_csv(),
        TABLE3_GOLDEN,
        "spec-driven table3 drifted from the hand-written golden"
    );
}

#[test]
fn noise_shots_quick_csv_matches_golden() {
    // Both noisy channels (trajectory and exact density matrix) across the
    // depolarizing × shots grid, pinned byte for byte.
    let spec =
        ExperimentSpec::parse(include_str!("../specs/noise_shots.json")).expect("spec parses");
    let output = SweepRunner::new(Scale::Quick)
        .run(&spec)
        .expect("spec runs");
    assert_eq!(
        output.primary.to_csv(),
        NOISE_SHOTS_GOLDEN,
        "noise_shots drifted from its golden"
    );
}

/// The built-in pipeline sweeps no other test pins, with their quick
/// goldens (generated without the `*_wall_s` columns).
const PIPELINE_GOLDENS: [(&str, &str); 7] = [
    (
        "table2",
        include_str!("../crates/bench/goldens/table2_quick.csv"),
    ),
    (
        "table4",
        include_str!("../crates/bench/goldens/table4_quick.csv"),
    ),
    (
        "table5",
        include_str!("../crates/bench/goldens/table5_quick.csv"),
    ),
    (
        "table6",
        include_str!("../crates/bench/goldens/table6_quick.csv"),
    ),
    (
        "fig2",
        include_str!("../crates/bench/goldens/fig2_quick.csv"),
    ),
    (
        "fig4",
        include_str!("../crates/bench/goldens/fig4_quick.csv"),
    ),
    ("a3", include_str!("../crates/bench/goldens/a3_quick.csv")),
];

/// `table`'s CSV without its `*_wall_s` columns: wall-clock time is the
/// one thing a run may not reproduce.
fn pinned_csv(table: &Table) -> String {
    let keep: Vec<usize> = (0..table.columns().len())
        .filter(|&c| !table.columns()[c].ends_with("_wall_s"))
        .collect();
    let mut pinned = Table::new(keep.iter().map(|&c| table.columns()[c].as_str()));
    for row in table.rows() {
        pinned.push_row(keep.iter().map(|&c| row[c].as_str()));
    }
    pinned.to_csv()
}

#[test]
fn pipeline_spec_quick_csvs_match_their_goldens() {
    for (name, golden) in PIPELINE_GOLDENS {
        let output = run_builtin(name);
        assert_eq!(
            pinned_csv(&output.primary),
            golden,
            "{name} drifted from its golden"
        );
    }
}

#[test]
fn a_row_that_cannot_resolve_fails_the_sweep_before_any_row_runs() {
    // table1 with a fractional `n` at its last quick point: only that
    // row's `graph.n` assignment rejects it.
    let text = include_str!("../specs/table1.json")
        .replace(r#""name": "table1""#, r#""name": "table1_fractional_n""#)
        .replace("[100, 200, 300, 400]", "[100, 200, 300, 400.5]");
    let spec = ExperimentSpec::parse(&text).expect("spec parses");
    let mut rows = 0;
    let err = SweepRunner::new(Scale::Quick)
        .run_with_progress(&spec, &mut |event| {
            if let Progress::Row { .. } = event {
                rows += 1;
            }
        })
        .expect_err("`graph.n = 400.5` cannot resolve");
    assert!(matches!(err, BenchError::Spec(_)), "{err}");
    assert_eq!(rows, 0, "no row may run before every row resolves");
}

#[test]
fn every_builtin_spec_round_trips_through_json() {
    for (name, text) in builtin::BUILTIN {
        let spec = ExperimentSpec::parse(text).expect(name);
        let reserialized = spec.to_json().pretty();
        let back = ExperimentSpec::parse(&reserialized)
            .unwrap_or_else(|e| panic!("{name}: reserialized spec does not parse: {e}"));
        assert_eq!(back, spec, "{name} does not round-trip");
    }
}

#[test]
fn experiment_spec_rejects_unknown_fields() {
    // Top level.
    let err = ExperimentSpec::parse(
        r#"{"name": "x", "kind": "trotter", "graph": {"family": "dsbm"}, "steps": [1], "stepss": 2}"#,
    )
    .unwrap_err();
    assert!(err.message.contains("unknown field `stepss`"), "{err}");
    // Nested: a typo inside a variant.
    let err = ExperimentSpec::parse(
        r#"{"name": "x", "kind": "pipeline", "graph": {"family": "dsbm"},
            "variants": [{"name": "a", "symmetrise": true}],
            "axes": [{"name": "n", "path": "graph.n", "values": [10]}],
            "columns": [{"header": "n", "axis": "n"}]}"#,
    )
    .unwrap_err();
    assert!(err.message.contains("unknown field `symmetrise`"), "{err}");
    // Unknown metric names fail at parse time, not run time.
    let err = ExperimentSpec::parse(
        r#"{"name": "x", "kind": "pipeline", "graph": {"family": "dsbm"},
            "variants": [{"name": "a"}],
            "axes": [{"name": "n", "path": "graph.n", "values": [10]}],
            "columns": [{"header": "acc", "metric": "acuracy"}]}"#,
    )
    .unwrap_err();
    assert!(err.message.contains("unknown metric"), "{err}");
}

#[test]
fn graph_spec_round_trips_and_rejects_unknown_fields() {
    let v = Value::parse(
        r#"{"family": "dsbm", "n": 120, "k": 3, "p_intra": 0.25, "p_inter": 0.25,
            "eta_flow": 0.9, "meta": "cycle", "seed": 7}"#,
    )
    .unwrap();
    let spec = GraphSpec::from_json(&v).unwrap();
    assert_eq!(GraphSpec::from_json(&spec.to_json()).unwrap(), spec);

    let bad = Value::parse(r#"{"family": "dsbm", "eta_floww": 0.9}"#).unwrap();
    let err = GraphSpec::from_json(&bad).unwrap_err();
    assert!(err.message.contains("unknown field `eta_floww`"), "{err}");
}

#[test]
fn backend_config_round_trips_and_rejects_unknown_fields() {
    for config in [
        BackendConfig::Statevector,
        BackendConfig::Noisy {
            depolarizing: 0.05,
            readout_flip: 0.01,
        },
        BackendConfig::Shots { shots: 256 },
    ] {
        let v = config.to_json();
        assert_eq!(BackendConfig::from_json(&v).unwrap(), config, "{v}");
    }
    let bad = Value::parse(r#"{"noisy": {"depolarizing": 0.1, "readout_flp": 0.0}}"#).unwrap();
    let err = BackendConfig::from_json(&bad).unwrap_err();
    assert!(err.message.contains("unknown field `readout_flp`"), "{err}");
}

#[test]
fn a_custom_spec_runs_axes_the_handwritten_suite_never_had() {
    // A miniature noise × shots grid: two axes no hand-written function
    // ever combined, straight from JSON — the point of the redesign.
    let spec = ExperimentSpec::parse(
        r#"{
            "name": "mini_noise_shots",
            "kind": "pipeline",
            "graph": {"family": "dsbm", "n": 45, "k": 3, "p_intra": 0.25,
                      "p_inter": 0.25, "eta_flow": 0.9, "meta": "cycle"},
            "reps": 2,
            "base": {"k": 3, "quantum": {"tomography_shots": 128}},
            "variants": [{"name": "quantum"}],
            "axes": [
                {"name": "depolarizing", "points": [
                    {"set": {"backend": "statevector"}, "labels": {"depolarizing": "0.00"}},
                    {"set": {"backend": {"noisy": {"depolarizing": 0.1, "readout_flip": 0}}},
                     "labels": {"depolarizing": "0.10"}}
                ]},
                {"name": "shots", "path": "quantum.tomography_shots", "values": [64, 256]}
            ],
            "columns": [
                {"header": "depolarizing", "axis": "depolarizing"},
                {"header": "shots", "axis": "shots"},
                {"header": "accuracy", "metric": "matched_accuracy", "mean_std": 3}
            ]
        }"#,
    )
    .expect("custom spec parses");
    let output = SweepRunner::new(Scale::Quick).run(&spec).expect("runs");
    assert_eq!(output.primary.len(), 4, "2 × 2 grid");
    let csv = output.primary.to_csv();
    assert!(csv.starts_with("depolarizing,shots,accuracy\n"), "{csv}");
    // Same seeds + same backend → the noiseless rows are identical across
    // the shots axis only if shots do not matter; they at least must be
    // well-formed accuracies.
    for line in csv.lines().skip(1) {
        let acc = line.split(',').nth(2).expect("accuracy cell");
        assert!(acc.contains('±'), "aggregated accuracy cell: {line}");
    }
}

#[test]
fn clusterer_axis_reuses_the_staged_embedding() {
    // A δ-sweep spec must produce exactly what independent full runs
    // produce (the engine stages each embedding once and re-clusters).
    let base = r#"{
        "name": "delta_sweep",
        "kind": "pipeline",
        "graph": {"family": "dsbm", "n": 45, "k": 3, "p_intra": 0.25,
                  "p_inter": 0.25, "eta_flow": 0.9, "meta": "cycle"},
        "reps": 2,
        "base": {"k": 3, "quantum": {}},
        "variants": [{"name": "quantum"}],
        "layout": "stacked",
        "axes": [{"name": "delta", "path": "clusterer.delta",
                  "label_decimals": 2, "values": [0.05, 0.5]}],
        "columns": [
            {"header": "value", "axis_value": true},
            {"header": "acc", "metric": "matched_accuracy", "mean_std": 3}
        ]
    }"#;
    let swept = SweepRunner::new(Scale::Quick)
        .run(&ExperimentSpec::parse(base).unwrap())
        .expect("sweep runs");

    // The same two points as single-value sweeps through `delta` patches
    // (full pipeline runs, no staging).
    let mut single_rows = Vec::new();
    for delta in ["0.05", "0.5"] {
        let spec = ExperimentSpec::parse(&format!(
            r#"{{
                "name": "delta_single",
                "kind": "pipeline",
                "graph": {{"family": "dsbm", "n": 45, "k": 3, "p_intra": 0.25,
                          "p_inter": 0.25, "eta_flow": 0.9, "meta": "cycle"}},
                "reps": 2,
                "base": {{"k": 3, "quantum": {{}}, "delta": {delta}}},
                "variants": [{{"name": "quantum"}}],
                "axes": [{{"name": "n", "path": "graph.n", "values": [45]}}],
                "columns": [{{"header": "acc", "metric": "matched_accuracy", "mean_std": 3}}]
            }}"#
        ))
        .unwrap();
        let out = SweepRunner::new(Scale::Quick).run(&spec).expect("runs");
        single_rows.push(out.primary.rows()[0][0].clone());
    }
    let swept_accs: Vec<&str> = swept
        .primary
        .rows()
        .iter()
        .map(|row| row[1].as_str())
        .collect();
    assert_eq!(
        swept_accs,
        single_rows.iter().map(String::as_str).collect::<Vec<_>>()
    );
}

#[test]
fn axis_point_with_an_empty_set_runs_the_recipe_as_is() {
    // An empty `set` assigns nothing, so the point must produce exactly
    // what a no-op assignment (`graph.n` to its current value) produces,
    // clustering with the recipe's own clusterer.
    let spec = |base: &str, set: &str| {
        ExperimentSpec::parse(&format!(
            r#"{{
                "name": "empty_set",
                "kind": "pipeline",
                "graph": {{"family": "dsbm", "n": 45, "k": 3, "p_intra": 0.25,
                          "p_inter": 0.25, "eta_flow": 0.9, "meta": "cycle"}},
                "reps": 2,
                "base": {base},
                "variants": [{{"name": "v"}}],
                "layout": "stacked",
                "axes": [{{"name": "x", "points": [{{"set": {set}, "labels": {{"x": "base"}}}}]}}],
                "columns": [
                    {{"header": "value", "axis_value": true}},
                    {{"header": "acc", "metric": "matched_accuracy", "mean_std": 3}}
                ]
            }}"#
        ))
        .expect("spec parses")
    };
    let runner = SweepRunner::new(Scale::Quick);
    for base in [r#"{"k": 3}"#, r#"{"k": 3, "quantum": {}}"#] {
        let empty = runner
            .run(&spec(base, "{}"))
            .unwrap_or_else(|e| panic!("base {base}: empty-set point failed: {e}"));
        let no_op = runner
            .run(&spec(base, r#"{"graph.n": 45}"#))
            .expect("no-op point runs");
        assert_eq!(empty.primary.rows(), no_op.primary.rows(), "base {base}");
    }
}

#[test]
fn scale_set_graph_assignments_reach_a_variants_own_graph() {
    // `scale_set` uses the same paths as axes, so `graph.n` must resize
    // every graph a variant runs on: the spec's and a variant's own
    // (here an identical copy, so both rows must agree).
    let spec = ExperimentSpec::parse(
        r#"{
            "name": "scale_set_own_graph",
            "kind": "pipeline",
            "graph": {"family": "dsbm", "n": 60, "k": 3, "eta_flow": 0.9},
            "scale_set": {"quick": {"graph.n": 90}},
            "base": {"k": 3},
            "variants": [
                {"name": "spec_graph"},
                {"name": "own_graph", "graph": {"family": "dsbm", "n": 60, "k": 3, "eta_flow": 0.9}}
            ],
            "rows": "variants",
            "axes": [{"name": "k", "path": "pipeline.k", "values": [3]}],
            "columns": [
                {"header": "method", "variant_name": true},
                {"header": "cut_weight", "metric": "cut_weight", "mean": 0}
            ]
        }"#,
    )
    .expect("spec parses");
    let output = SweepRunner::new(Scale::Quick).run(&spec).expect("runs");
    let rows = output.primary.rows();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][1], rows[1][1], "{rows:?}");
}
