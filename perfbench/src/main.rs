//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints a provenance line, then as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//! Spans and provenance go to `perfbench/out/`. Exits 2 on bad arguments
//! or an invalid `QSC_KERNELS`, 1 when a check failed.
//!
//! An untraced run is made by [`FORKS`] child processes of this binary,
//! one after another (`--fork <i>`); each prints its raw samples, which the
//! parent pools.

use perfbench::{
    median, peak_rss_mb, quantile, run_workload, Run, Settings, E2E_METRICS, LAYER_METRICS,
    WORKLOADS,
};
use qsc_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Processes an untraced run is split over, each measuring an equal share
/// of `--seconds`. On a shared host a whole process can run up to half
/// slower than the next one (its memory placement, its neighbours), so
/// pooling the samples of several processes keeps one unlucky process
/// from setting a run's figures.
const FORKS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process of an untraced run.
    fork: Option<usize>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut fork = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("a workload name")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--fork" => fork = Some(value.parse().map_err(|_| bad("a process index"))?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        fork,
    })
}

/// Caps the rayon pool at the machine's cores (the suite reads
/// `RAYON_NUM_THREADS` on first use). Returns the worker count.
fn pin_workers(cores: usize) -> usize {
    let requested = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let workers = requested.map_or(cores, |n| n.min(cores));
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
    workers
}

/// The commit under test: `git rev-parse HEAD` where the checkout is a
/// repository, else `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let kernels = match qsc_linalg::kernels::validate() {
        Ok(tier) => tier,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = pin_workers(cores);
    let scratch = PathBuf::from("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
    };

    if args.fork.is_some() {
        let run = run_workload(&args.workload, &settings).unwrap_or_else(|e| {
            let mut run = Run::default();
            run.fail(e);
            run
        });
        println!("{}", samples_json(&run));
        return ExitCode::SUCCESS;
    }
    let (run, fatal) = if args.trace {
        match run_workload(&args.workload, &settings) {
            Ok(run) => (run, None),
            Err(e) => (Run::default(), Some(e)),
        }
    } else {
        (run_forks(&args), None)
    };
    let failed = run.failures.len() as u64 + u64::from(fatal.is_some());
    let attempted = run.attempted.max(failed).max(1);
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workers\": {workers}, \
         \"cores\": {cores}, \"serve_workers\": 2, \"kernels\": \"{}\", \"n\": {}, \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        kernels.name(),
        run.n.map_or("null".to_string(), |n| n.to_string()),
        commit()
    );
    println!("provenance {provenance}");
    for message in fatal.iter().chain(&run.failures).take(20) {
        eprintln!("perfbench: FAILED {message}");
    }

    let metrics: Vec<String> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                metric_json(name, run.layers.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "latency_ms_p10" => quantile(&run.latency_ms, 0.1),
            "setup_s" => median(&run.setup_s),
            "peak_rss_mb" => run.peak_rss_mb,
            _ => unreachable!("unlisted end-to-end metric {name}"),
        };
        E2E_METRICS
            .iter()
            .map(|(name, unit)| metric_json(name, value(name), unit))
            .collect()
    };
    if let Some(spans) = &run.spans_json {
        let path = scratch.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let doc = format!("{{\"provenance\": {provenance},\n\"spans\": {spans}}}\n");
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs the untraced workload as [`FORKS`] child processes, one after
/// another, and pools their samples. A child that fails to report counts
/// as a failed operation.
fn run_forks(args: &Args) -> Run {
    let mut pooled = Run::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            pooled.fail(format!("cannot locate the benchmark binary: {e}"));
            return pooled;
        }
    };
    let seconds = (args.seconds / FORKS as f64).to_string();
    let seed = args.seed.to_string();
    for i in 0..FORKS {
        let index = i.to_string();
        let output = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0", "--fork", &index])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let report = output
            .map_err(|e| e.to_string())
            .and_then(|out| {
                let text = String::from_utf8_lossy(&out.stdout);
                let last = text.lines().last().unwrap_or_default().to_string();
                Value::parse(&last)
                    .map_err(|e| format!("exit {}, last line `{last}`: {e}", out.status))
            })
            .and_then(|doc| merge_samples(&mut pooled, &doc));
        if let Err(e) = report {
            pooled.fail(format!("process {i}: {e}"));
        }
    }
    pooled
}

/// A child's raw samples: what the parent needs to compute every
/// end-to-end metric over all processes.
fn samples_json(run: &Run) -> String {
    let numbers = |values: &[f64]| Value::Arr(values.iter().map(|&v| qsc_json::num(v)).collect());
    qsc_json::obj([
        ("attempted", qsc_json::num(run.attempted as f64)),
        (
            "failures",
            Value::Arr(run.failures.iter().map(qsc_json::s).collect()),
        ),
        ("setup_s", numbers(&run.setup_s)),
        ("latency_ms", numbers(&run.latency_ms)),
        ("peak_rss_mb", qsc_json::num(peak_rss_mb().unwrap_or(0.0))),
        ("n", run.n.map_or(Value::Null, |n| qsc_json::num(n as f64))),
    ])
    .to_string()
}

fn merge_samples(run: &mut Run, doc: &Value) -> Result<(), String> {
    let field = |name: &str| doc.get(name).ok_or(format!("samples lack `{name}`"));
    let numbers = |name: &str| -> Result<Vec<f64>, String> {
        field(name)?
            .as_array()
            .ok_or(format!("`{name}` is not an array"))?
            .iter()
            .map(|v| v.as_f64().ok_or(format!("`{name}` holds a non-number")))
            .collect()
    };
    run.attempted += field("attempted")?
        .as_u64()
        .ok_or("`attempted` is not a count")?;
    for failure in field("failures")?
        .as_array()
        .ok_or("`failures` is not an array")?
    {
        run.failures
            .push(failure.as_str().unwrap_or("unreadable failure").to_string());
    }
    run.setup_s.extend(numbers("setup_s")?);
    run.latency_ms.extend(numbers("latency_ms")?);
    let rss = field("peak_rss_mb")?
        .as_f64()
        .ok_or("`peak_rss_mb` is not a number")?;
    run.peak_rss_mb = run.peak_rss_mb.max(rss);
    run.n = field("n")?.as_usize().or(run.n);
    Ok(())
}
