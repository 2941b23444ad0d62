//! The `qsc-serve` binary: bind the sweep service and serve forever.
//!
//! ```text
//! qsc-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache-dir DIR]
//!           [--backend JSON] [--executors HOST:PORT,HOST:PORT,...]
//! ```

use qsc_core::config::BackendConfig;
use qsc_json::{FromJson, Value};
use qsc_serve::{ServeConfig, Server};
use std::process::ExitCode;

const USAGE: &str = "\
usage: qsc-serve [options]

options:
  --addr HOST:PORT   bind address (default 127.0.0.1:8791; port 0 picks one)
  --workers N        worker-pool size (default 2; 0 never drains the queue)
  --queue N          bounded queue capacity (default 64; full queue -> 429)
  --cache-dir DIR    content-addressed result cache (default qsc-serve-cache)
  --backend JSON     default backend hosted by POST /v1/exec
                     (default \"statevector\"; remote is not hostable)
  --executors LIST   comma-separated executor addresses sweeps fan grid
                     points across (default empty: sweeps run locally)
  --help             this text
";

fn parse_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a non-negative integer".to_string())?;
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue needs a positive integer".to_string())?;
            }
            "--cache-dir" => config.cache_dir = value("--cache-dir")?.into(),
            "--backend" => {
                let text = value("--backend")?;
                let doc = Value::parse(&text).map_err(|e| format!("--backend: {e}"))?;
                config.backend =
                    BackendConfig::from_json(&doc).map_err(|e| format!("--backend: {e}"))?;
                if matches!(config.backend, BackendConfig::Remote { .. }) {
                    return Err("--backend: an executor cannot host a remote backend".into());
                }
            }
            "--executors" => {
                config.executors = value("--executors")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.queue_capacity == 0 {
        return Err("--queue must be at least 1".into());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("qsc-serve: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Reject a bad QSC_KERNELS or QSC_STATE_BUDGET_BYTES before binding:
    // a typo'd tier must be a usage error, not a silently different tier
    // serving bytes, and a typo'd budget not a silent 4 GiB.
    let kernels = match qsc_linalg::kernels::validate() {
        Ok(tier) => tier,
        Err(e) => {
            eprintln!("qsc-serve: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = qsc_sim::budget::validate_state_budget() {
        eprintln!("qsc-serve: {e}");
        return ExitCode::from(2);
    }
    let workers = config.workers;
    let queue = config.queue_capacity;
    let cache_dir = config.cache_dir.display().to_string();
    let mut server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("qsc-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "qsc-serve listening on {} ({workers} workers, queue {queue}, cache {cache_dir}, \
         kernels {kernels})",
        server.base_url()
    );
    server.join();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let config = parse_args(&strings(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--queue",
            "7",
            "--cache-dir",
            "/tmp/c",
            "--backend",
            r#"{"noisy": {"depolarizing": 0.05, "readout_flip": 0.0}}"#,
            "--executors",
            "h1:8791, h2:8791,",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.workers, 3);
        assert_eq!(config.queue_capacity, 7);
        assert_eq!(config.cache_dir, std::path::PathBuf::from("/tmp/c"));
        assert_eq!(config.backend.kind_name(), "noisy");
        assert_eq!(config.executors, vec!["h1:8791", "h2:8791"]);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&strings(&["--nope"])).is_err());
        assert!(parse_args(&strings(&["--workers"])).is_err());
        assert!(parse_args(&strings(&["--workers", "x"])).is_err());
        assert!(parse_args(&strings(&["--queue", "0"])).is_err());
        assert!(parse_args(&strings(&["--backend", "{broken"])).is_err());
        assert!(parse_args(&strings(&["--backend", "\"statevctor\""])).is_err());
        let chained = r#"{"remote": {"addr": "x:1", "inner": "statevector"}}"#;
        assert!(parse_args(&strings(&["--backend", chained])).is_err());
    }
}
