//! The QSC suite's benchmark: seeded workloads driven through the public
//! APIs of `qsc-graph`, `qsc-linalg`, `qsc-sim`, `qsc-cluster`,
//! `qsc-core`, `qsc-bench` and `qsc-serve`.
//!
//! Every workload reports the same end-to-end metrics ([`E2E_METRICS`])
//! from an untraced run, and the same per-layer metrics
//! ([`LAYER_METRICS`]) from a traced run; a layer the workload never
//! reaches reads 0. See `README.md` for why each workload exists and
//! which layer metric should move which end-to-end metric.

pub mod graphs;
pub mod served;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["dense_dsbm", "sparse_dsbm", "served_sweeps"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("latency_ms_p10", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
/// Metrics with unit `count` repeat exactly for a given seed.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("e2e.latency_ms_p10", "ms"),
    ("e2e.latency_ms_p50", "ms"),
    ("e2e.latency_ms_p99", "ms"),
    ("graph.dsbm_s", "s"),
    ("graph.laplacian_s", "s"),
    ("eig.to_dense_s", "s"),
    ("eig.tridiagonalize_s", "s"),
    ("eig.tql_s", "s"),
    ("eig.eigh_s", "s"),
    ("lanczos.csr_s", "s"),
    ("lanczos.iterations", "count"),
    ("csr.matvec_us", "us"),
    ("qsim.phase_distribution_s", "s"),
    ("qsim.tomography_s", "s"),
    ("qsim.estimate_norm_s", "s"),
    ("pipeline.embed_s", "s"),
    ("pipeline.cluster_s", "s"),
    ("cluster.kmeans_s", "s"),
    ("cluster.kmeans_iterations", "count"),
    ("quantum.embed_s", "s"),
    ("cluster.qmeans_s", "s"),
    ("quantum.dims_used", "count"),
    ("http.healthz_us_p50", "us"),
    ("hit.latency_ms_p50", "ms"),
    ("cache.lookup_us", "us"),
    ("exec.remote_us_p50", "us"),
    ("exec.inproc_us_p50", "us"),
    ("serve.first_row_s", "s"),
    ("serve.rows", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("exec.executed", "count"),
];

/// Set-ups are repeated across the measurement window: one more is timed
/// after any operation that ends at least this many seconds after the
/// previous set-up, so `setup_s` sees the same host conditions as the
/// operations.
pub const SETUP_INTERVAL_S: f64 = 1.0;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the measurement loop runs (it always completes at least
    /// the operations the counts are taken from).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Directory for the run's cache directories and span file.
    pub scratch: PathBuf,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds of each repetition of the workload's set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds of each end-to-end operation that passed its checks.
    pub latency_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation or check.
    pub failures: Vec<String>,
    /// Per-layer values (traced runs); absent layers read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Graph size, for graph workloads.
    pub n: Option<usize>,
    /// Peak resident set size in MB of the processes that made the run
    /// (untraced runs).
    pub peak_rss_mb: f64,
    /// The recorded spans as JSON (traced runs).
    pub spans_json: Option<String>,
}

impl Run {
    /// Records the outcome of one operation: its latency when it passed,
    /// its failure otherwise.
    pub fn record(&mut self, ms: f64, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.latency_ms.push(ms),
            Err(e) => self.failures.push(e),
        }
    }

    /// Records a failed check that is not itself an operation.
    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failures.push(message);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
}

/// Runs `workload` under `settings`.
///
/// # Errors
///
/// Returns a message for an unknown workload or a set-up that failed
/// before any operation could run.
pub fn run_workload(workload: &str, settings: &Settings) -> Result<Run, String> {
    match workload {
        "dense_dsbm" => graphs::run(graphs::Flavor::Dense, settings),
        "sparse_dsbm" => graphs::run(graphs::Flavor::Sparse, settings),
        "served_sweeps" => served::run(settings),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
