//! The exact counts of the traced run (`unit = count`) are what later
//! changes may claim on, so they must repeat for a given seed. Each test
//! makes two traced runs of one workload with the same seed and compares
//! every count, on the instances the benchmark runs (one operation each).

use perfbench::{run_workload, Run, Settings, LAYER_METRICS};
use std::path::PathBuf;

fn traced_run(workload: &str, seed: u64) -> Run {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("perfbench-test-{}-{workload}", std::process::id()));
    let settings = Settings {
        seed,
        seconds: 0.0,
        trace: true,
        scratch,
    };
    let run = run_workload(workload, &settings).expect("set-up succeeds");
    assert!(run.failures.is_empty(), "{workload}: {:?}", run.failures);
    let _ = std::fs::remove_dir_all(&settings.scratch);
    run
}

/// Runs `workload` twice with one seed and returns its counts, after
/// checking they agree.
fn counts_repeat(workload: &str) -> Vec<(&'static str, f64)> {
    let counts = |run: &Run| -> Vec<(&'static str, f64)> {
        LAYER_METRICS
            .iter()
            .filter(|(_, unit)| *unit == "count")
            .map(|(name, _)| (*name, run.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    };
    let first = counts(&traced_run(workload, 7));
    let second = counts(&traced_run(workload, 7));
    assert_eq!(
        first, second,
        "{workload}: counts differ between two runs of one seed"
    );
    first
}

fn count(counts: &[(&str, f64)], name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .expect("listed count")
}

#[test]
fn dense_dsbm_counts_repeat() {
    let counts = counts_repeat("dense_dsbm");
    assert!(count(&counts, "cluster.kmeans_iterations") > 0.0);
    assert!(count(&counts, "quantum.dims_used") >= 3.0);
}

#[test]
fn sparse_dsbm_counts_repeat() {
    let counts = counts_repeat("sparse_dsbm");
    assert!(count(&counts, "lanczos.iterations") > 0.0);
}

#[test]
fn served_sweeps_counts_repeat() {
    let counts = counts_repeat("served_sweeps");
    // table1 has 4 rows and table3 has 13; both are submitted once, then
    // resubmitted 1000 times in all, then 1000 exec round trips follow.
    assert_eq!(count(&counts, "serve.rows"), 17.0);
    assert_eq!(count(&counts, "cache.misses"), 2.0);
    assert_eq!(count(&counts, "cache.hits"), 1000.0);
    assert_eq!(count(&counts, "exec.executed"), 1000.0);
}
