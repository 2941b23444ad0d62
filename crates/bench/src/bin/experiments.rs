//! Spec interpreter for the evaluation suite: regenerates every table and
//! figure from the declarative spec files, or runs any custom spec.
//!
//! ```text
//! experiments [--list] [--scale quick|full] [--out-dir DIR]
//!             [--spec FILE]... [--only NAME[,NAME...]]
//!             [--submit URL] [NAME...]
//! ```
//!
//! Prints the paper-style rows and writes each experiment's
//! machine-readable series (CSV, plus JSON when the spec asks) to the
//! output directory. With `--submit URL` the selected experiments run on
//! a `qsc-serve` instance instead of in-process: each spec is POSTed to
//! the service, executed (or answered from its content-addressed cache —
//! the `cache: hit` / `cache: miss` marker is printed per experiment),
//! and the result sinks are downloaded into `--out-dir`, byte-identical
//! to a local run. Search specs (`"kind": "search"`) go to the service's
//! `/v1/searches` endpoint; everything else to `/v1/sweeps`. Unknown
//! flags, unknown experiment names and **invalid spec files** (unknown
//! fields, contradictory search blocks) are usage errors (exit 2) — a
//! misspelled `--fulll` or `tabel1` never silently runs the wrong thing
//! again, and a contradictory spec is the caller's mistake, not the
//! environment's. Runtime failures — an unreadable `--spec` file, an
//! unwritable `--out-dir`, a failing experiment — print a message and
//! exit 1 (never a panic).

use qsc_bench::builtin::BUILTIN;
use qsc_bench::{client, ExperimentSpec, Scale, SweepRunner};
use qsc_json::ToJson;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: experiments [OPTIONS] [NAME...]

Runs the spec-driven evaluation suite (all built-in experiments by
default, or the named/loaded ones).

options:
  --list             list available experiments and exit
  --scale quick|full scale preset (default: quick); --full is a legacy alias
  --out-dir DIR      directory for CSV/JSON series (default: results)
  --spec FILE        load an extra experiment spec file (repeatable);
                     without NAMEs, only loaded specs run
  --only NAME[,..]   run only these experiments (same as bare NAMEs)
  --submit URL       run on a qsc-serve instance (http://host:port) instead
                     of in-process; downloads result sinks into --out-dir
  -h, --help         this message
";

/// Failure classes of an invocation, mapped to distinct exit codes so
/// scripts can tell a typo from a broken environment.
enum CliError {
    /// The invocation itself is wrong (unknown name) → usage + exit 2.
    Usage(String),
    /// The invocation is fine but execution failed (I/O, bad spec file,
    /// pipeline error) → message + exit 1.
    Runtime(String),
}

struct Args {
    list: bool,
    scale: Scale,
    out_dir: PathBuf,
    spec_files: Vec<PathBuf>,
    only: Vec<String>,
    submit: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        list: false,
        scale: Scale::Quick,
        out_dir: PathBuf::from("results"),
        spec_files: Vec::new(),
        only: Vec::new(),
        submit: None,
    };
    let mut scale_set = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--list" => args.list = true,
            "--full" => {
                // Legacy alias kept from the pre-spec binary.
                if scale_set && args.scale != Scale::Full {
                    return Err("conflicting --scale and --full".into());
                }
                args.scale = Scale::Full;
                scale_set = true;
            }
            "--scale" => {
                let value = it.next().ok_or("--scale needs a value (quick | full)")?;
                let scale = Scale::parse(value)
                    .ok_or_else(|| format!("unknown scale `{value}` (expected quick | full)"))?;
                if scale_set && args.scale != scale {
                    return Err("conflicting --scale and --full".into());
                }
                args.scale = scale;
                scale_set = true;
            }
            "--out-dir" => {
                let value = it.next().ok_or("--out-dir needs a directory")?;
                args.out_dir = PathBuf::from(value);
            }
            "--spec" => {
                let value = it.next().ok_or("--spec needs a file path")?;
                args.spec_files.push(PathBuf::from(value));
            }
            "--submit" => {
                let value = it.next().ok_or("--submit needs a server URL")?;
                args.submit = Some(value.clone());
            }
            "--only" => {
                let value = it.next().ok_or("--only needs experiment name(s)")?;
                args.only
                    .extend(value.split(',').map(str::trim).map(String::from));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            name => args.only.push(name.to_string()),
        }
    }
    Ok(args)
}

/// Every available experiment: built-ins first (suite order), then files
/// loaded with `--spec`. The `bool` marks built-ins not named by a
/// `--spec` file: a file whose spec equals a built-in's selects that
/// built-in, and one that differs under a taken name is refused.
fn load_all(args: &Args) -> Result<Vec<(bool, ExperimentSpec)>, CliError> {
    let mut specs: Vec<(bool, ExperimentSpec)> = BUILTIN
        .iter()
        .map(|(name, text)| {
            ExperimentSpec::parse(text)
                .map(|spec| (true, spec))
                .map_err(|e| CliError::Runtime(format!("embedded spec {name}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    for path in &args.spec_files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Runtime(format!("cannot read {}: {e}", path.display())))?;
        // A file that *reads* but does not *validate* is the caller's
        // mistake (typo, contradictory search block) → usage error.
        let spec = ExperimentSpec::parse(&text)
            .map_err(|e| CliError::Usage(format!("{}: {e}", path.display())))?;
        match specs.iter_mut().find(|(_, s)| s.name == spec.name) {
            // The same experiment as one already loaded (a copy of a
            // built-in's file, say): run that one, as if loaded here.
            Some((builtin, taken)) if *taken == spec => *builtin = false,
            Some(_) => {
                return Err(CliError::Runtime(format!(
                    "{}: experiment name `{}` is already taken",
                    path.display(),
                    spec.name
                )))
            }
            None => specs.push((false, spec)),
        }
    }
    Ok(specs)
}

/// The experiments this invocation runs, out of everything available.
fn select(
    specs: Vec<(bool, ExperimentSpec)>,
    args: &Args,
) -> Result<Vec<ExperimentSpec>, CliError> {
    if args.only.is_empty() {
        // No names: run everything loaded via --spec, else the whole
        // built-in suite.
        let external_only = !args.spec_files.is_empty();
        return Ok(specs
            .into_iter()
            .filter(|(builtin, _)| !external_only || !builtin)
            .map(|(_, spec)| spec)
            .collect());
    }

    // Names given: validate every one against the available set.
    let available: Vec<&str> = specs.iter().map(|(_, s)| s.name.as_str()).collect();
    for name in &args.only {
        if !available.contains(&name.as_str()) {
            return Err(CliError::Usage(format!(
                "unknown experiment `{name}` (available: {})",
                available.join(", ")
            )));
        }
    }
    Ok(specs
        .into_iter()
        .filter(|(_, spec)| args.only.iter().any(|n| n == &spec.name))
        .map(|(_, spec)| spec)
        .collect())
}

fn write_sinks(
    out_dir: &Path,
    output: &qsc_bench::ExperimentOutput,
) -> Result<Vec<PathBuf>, CliError> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::Runtime(format!("cannot create {}: {e}", out_dir.display())))?;
    let mut written = Vec::new();
    for sink in &output.sinks {
        let path = out_dir.join(format!("{}.{}", output.name, sink.extension()));
        std::fs::write(&path, output.primary.render(*sink))
            .map_err(|e| CliError::Runtime(format!("cannot write {}: {e}", path.display())))?;
        written.push(path);
    }
    Ok(written)
}

/// Client mode: every selected spec goes through a `qsc-serve` instance.
/// Output files land exactly where a local run would put them, with the
/// same bytes (the service runs the same `SweepRunner`).
fn run_remote(url: &str, specs: &[ExperimentSpec], args: &Args) -> Result<(), CliError> {
    use std::time::Duration;
    let submit_timeout = Duration::from_secs(600);
    let run_timeout = Duration::from_secs(3600);
    // Parents included — a nested --out-dir must never be the reason a
    // finished sweep is lost.
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| CliError::Runtime(format!("cannot create {}: {e}", args.out_dir.display())))?;
    println!("submitting to {url} (scale: {})", args.scale.name());
    let t0 = Instant::now();
    for spec in specs {
        let endpoint = if matches!(spec.kind, qsc_bench::spec::ExperimentKind::Search(_)) {
            client::Endpoint::Searches
        } else {
            client::Endpoint::Sweeps
        };
        let ticket = client::submit_to(
            url,
            endpoint,
            &spec.to_json().to_string(),
            args.scale.name(),
            submit_timeout,
        )
        .map_err(|e| CliError::Runtime(format!("{}: submit: {e}", spec.name)))?;
        println!("\n=== {}: {} ===", spec.name, ticket.id);
        println!("cache: {}", ticket.cache);
        let done = client::wait_done(url, &ticket.id, run_timeout)
            .map_err(|e| CliError::Runtime(format!("{}: {e}", spec.name)))?;
        println!("rows: {}", done.rows_done);
        for sink in &spec.sinks {
            let body = client::fetch_result(url, &ticket.id, sink.extension())
                .map_err(|e| CliError::Runtime(format!("{}: result: {e}", spec.name)))?;
            let path = args
                .out_dir
                .join(format!("{}.{}", spec.name, sink.extension()));
            std::fs::write(&path, body)
                .map_err(|e| CliError::Runtime(format!("cannot write {}: {e}", path.display())))?;
            println!("→ {}", path.display());
        }
    }
    println!("\ntotal wall time: {:.1}s", t0.elapsed().as_secs_f64());
    Ok(())
}

fn run(args: &Args) -> Result<(), CliError> {
    // A typo'd or unsupported QSC_KERNELS, or a QSC_STATE_BUDGET_BYTES that
    // is not a byte count, is the caller's mistake: reject it up front
    // (exit 2) instead of silently running another tier or budget.
    qsc_linalg::kernels::validate().map_err(|e| CliError::Usage(e.to_string()))?;
    qsc_sim::budget::validate_state_budget().map_err(|e| CliError::Usage(e.to_string()))?;
    let all = load_all(args)?;
    if args.list {
        // The listing always shows the full name-addressable set —
        // exactly what `--only` validates against.
        println!("available experiments (scale presets: quick | full):");
        for (builtin, spec) in &all {
            let origin = if *builtin { "" } else { " [--spec]" };
            println!("  {:<12} {}{origin}", spec.name, spec.title);
        }
        return Ok(());
    }
    let specs = select(all, args)?;
    if let Some(url) = &args.submit {
        return run_remote(url, &specs, args);
    }

    println!(
        "experiment preset: {}; out-dir: {}",
        match args.scale {
            Scale::Quick => "quick",
            Scale::Full => "full (paper-scale)",
        },
        args.out_dir.display()
    );
    let runner = SweepRunner::new(args.scale);
    let t0 = Instant::now();
    for spec in &specs {
        let output = runner
            .run(spec)
            .map_err(|e| CliError::Runtime(format!("{}: {e}", spec.name)))?;
        println!("\n=== {}: {} ===", output.name, output.title);
        print!("{}", output.display.to_aligned());
        for note in &output.notes {
            println!("{note}");
        }
        for path in write_sinks(&args.out_dir, &output)? {
            if output.primary.len() == output.display.len() {
                println!("→ {}", path.display());
            } else {
                println!(
                    "→ {} ({} series rows)",
                    path.display(),
                    output.primary.len()
                );
            }
        }
    }
    println!("\ntotal wall time: {:.1}s", t0.elapsed().as_secs_f64());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
