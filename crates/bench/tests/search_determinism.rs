//! Search determinism: the same search spec must produce a byte-identical
//! trial table and winner regardless of worker count, rerun, or injected
//! candidate failures. The rayon shim latches `RAYON_NUM_THREADS` on
//! first use, so worker-count variation runs the `experiments` binary
//! once per count instead of re-configuring in-process.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsc-search-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn write_spec(dir: &Path, name: &str, text: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("spec dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, text).expect("write spec");
    path
}

/// A small grid search over k × δ on the flow-DSBM workload; optional
/// resilience block spliced in.
fn small_search_spec(name: &str, resilience: &str) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "title": "determinism probe",
  "kind": "search",
  "graph": {{"family": "dsbm", "n": 60, "k": 3,
             "p_intra": 0.3, "p_inter": 0.15, "eta_flow": 0.8,
             "meta": "cycle"}},
  "reps": 2,
  "base": {{"k": 3}},{resilience}
  "search": {{
    "space": [
      {{"path": "pipeline.k", "values": [2, 3]}},
      {{"path": "clusterer.delta", "values": [0.1, 0.3]}}
    ],
    "objective": {{"metric": "adjusted_rand_index", "goal": "maximize"}},
    "strategy": {{"kind": "grid"}}
  }},
  "sinks": ["csv"]
}}"#
    )
}

/// Runs the binary on one spec under a worker count; returns
/// (stdout, csv bytes).
fn run_search(spec: &Path, out_dir: &Path, name: &str, workers: usize) -> (String, Vec<u8>) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--spec"])
        .arg(spec)
        .args(["--out-dir"])
        .arg(out_dir)
        .env("RAYON_NUM_THREADS", workers.to_string())
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "workers={workers} stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let csv = std::fs::read(out_dir.join(format!("{name}.csv"))).expect("csv written");
    (stdout, csv)
}

/// Strips run-dependent lines (wall time, output paths) so the rest of
/// the stdout report — table, notes, winner — can be compared bytewise.
fn stable_stdout(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| {
            !l.starts_with("total wall time")
                && !l.starts_with('→')
                && !l.starts_with("experiment preset")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn trial_table_and_winner_identical_across_worker_counts() {
    let root = tmp_dir("workers");
    let spec = write_spec(&root, "det_probe", &small_search_spec("det_probe", ""));

    let mut baseline: Option<(String, Vec<u8>)> = None;
    for workers in [1usize, 2, 4] {
        let out = root.join(format!("out-{workers}"));
        let (stdout, csv) = run_search(&spec, &out, "det_probe", workers);
        assert!(
            stdout.contains("winner: trial"),
            "a winner is reported: {stdout}"
        );
        let stable = stable_stdout(&stdout);
        match &baseline {
            None => baseline = Some((stable, csv)),
            Some((base_out, base_csv)) => {
                assert_eq!(
                    &stable, base_out,
                    "stdout differs at {workers} workers vs 1"
                );
                assert_eq!(
                    &csv, base_csv,
                    "trial CSV differs at {workers} workers vs 1"
                );
            }
        }
    }

    // A rerun at the same worker count is also byte-identical.
    let rerun = root.join("out-rerun");
    let (stdout, csv) = run_search(&spec, &rerun, "det_probe", 2);
    let (base_out, base_csv) = baseline.expect("baseline captured");
    assert_eq!(stable_stdout(&stdout), base_out, "rerun stdout differs");
    assert_eq!(csv, base_csv, "rerun CSV differs");
}

/// With a fault plan injecting candidate failures, pruning decisions and
/// everything downstream of them stay byte-identical across worker
/// counts — pruned candidates are pruned deterministically, not by race.
#[test]
fn fault_plan_pruning_is_deterministic_across_worker_counts() {
    let root = tmp_dir("faults");
    let resilience = r#"
  "resilience": {"fault_plan": {"seed": 7, "rates": {"task_start": 0.35}}},"#;
    let spec = write_spec(
        &root,
        "det_faulty",
        &small_search_spec("det_faulty", resilience),
    );

    let mut baseline: Option<(String, Vec<u8>)> = None;
    for workers in [1usize, 2, 4] {
        let out = root.join(format!("out-{workers}"));
        let (stdout, csv) = run_search(&spec, &out, "det_faulty", workers);
        let stable = stable_stdout(&stdout);
        match &baseline {
            None => {
                // The injection rate is high enough that at least one
                // candidate loses a repetition; the status column must say
                // so with the failure kind, not hide it.
                assert!(
                    stable.contains("pruned(") || stable.contains("failures:"),
                    "fault plan left no trace in: {stable}"
                );
                baseline = Some((stable, csv));
            }
            Some((base_out, base_csv)) => {
                assert_eq!(
                    &stable, base_out,
                    "faulty stdout differs at {workers} workers vs 1"
                );
                assert_eq!(
                    &csv, base_csv,
                    "faulty trial CSV differs at {workers} workers vs 1"
                );
            }
        }
    }
}

/// Contradictory search specs are usage errors: exit 2 and a message
/// naming the offending field, both for strategy/budget contradictions
/// and for unknown objective metrics.
#[test]
fn contradictory_search_specs_exit_2_with_field_names() {
    let root = tmp_dir("contradictory");
    let cases: &[(&str, &str, &str)] = &[
        (
            "budget_too_small",
            r#"{"kind": "successive_halving", "budget": 2, "eta": 2}"#,
            "search.strategy.budget",
        ),
        (
            "bad_metric",
            r#"{"kind": "grid"}"#,
            "search.objective.metric",
        ),
    ];
    for (name, strategy, expected_field) in cases {
        let metric = if *name == "bad_metric" {
            "no_such_metric"
        } else {
            "adjusted_rand_index"
        };
        let text = format!(
            r#"{{
  "name": "{name}",
  "kind": "search",
  "graph": {{"family": "dsbm", "n": 40, "k": 2, "p_intra": 0.4, "p_inter": 0.1}},
  "reps": 1,
  "base": {{"k": 2}},
  "search": {{
    "space": [{{"path": "pipeline.k", "values": [2, 3]}},
              {{"path": "clusterer.delta", "values": [0.1, 0.3]}}],
    "objective": {{"metric": "{metric}"}},
    "strategy": {strategy}
  }}
}}"#
        );
        let spec = write_spec(&root, name, &text);
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--spec"])
            .arg(&spec)
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name}: contradictory spec is a usage error"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(expected_field),
            "{name}: error names `{expected_field}`: {stderr}"
        );
    }
}

/// A parsed search spec round-trips through its own JSON: re-parsing
/// the rendered document yields the identical rendered document (this is
/// what makes the service's content-addressed cache key stable).
#[test]
fn search_spec_round_trips_through_to_json() {
    use qsc_bench::ExperimentSpec;
    use qsc_json::ToJson;
    for file in ["search_delta.json", "search_noise_shots.json"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../specs")
            .join(file);
        let text = std::fs::read_to_string(&path).expect("spec readable");
        let spec = ExperimentSpec::parse(&text).expect("spec parses");
        let rendered = spec.to_json().to_string();
        let reparsed = ExperimentSpec::parse(&rendered).expect("round-trip parses");
        assert_eq!(
            rendered,
            reparsed.to_json().to_string(),
            "{file}: to_json is not a fixed point"
        );
    }
}

/// The committed quick-scale goldens match what the shipped search specs
/// produce today.
#[test]
fn shipped_search_specs_match_goldens() {
    use qsc_bench::{ExperimentSpec, Scale, SweepRunner};
    use qsc_core::report::SinkFormat;
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let runner = SweepRunner::new(Scale::Quick);
    for (spec_file, golden_file) in [
        ("search_delta.json", "search_delta_quick.csv"),
        ("search_noise_shots.json", "search_noise_shots_quick.csv"),
    ] {
        let text = std::fs::read_to_string(manifest.join("../../specs").join(spec_file))
            .expect("spec readable");
        let spec = ExperimentSpec::parse(&text).expect("spec parses");
        let output = runner.run(&spec).expect("search runs");
        let golden = std::fs::read_to_string(manifest.join("goldens").join(golden_file))
            .expect("golden readable");
        assert_eq!(
            output.primary.render(SinkFormat::Csv),
            golden,
            "{spec_file}: trial table drifted from {golden_file}"
        );
    }
}
