//! The served workload: an in-process `qsc_serve::Server` on
//! `127.0.0.1:0` with a fresh cache directory, driven by one closed-loop
//! client (each request is sent after the previous answer arrived).

use crate::trace::Tracer;
use crate::{median, mix, quantile, Run, Settings, SETUP_INTERVAL_S};
use qsc_bench::builtin::{TABLE1, TABLE3};
use qsc_bench::client;
use qsc_bench::ExperimentSpec;
use qsc_core::config::BackendConfig;
use qsc_json::{ToJson, Value};
use qsc_serve::{cache_key, code_version, ServeConfig, Server};
use qsc_sim::backend::{Backend, Statevector};
use qsc_sim::remote::rng_to_json;
use qsc_sim::RemoteBackend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TABLE1_GOLDEN: &str = include_str!("../../crates/bench/goldens/table1_quick.csv");
const TABLE3_GOLDEN: &str = include_str!("../../crates/bench/goldens/table3_quick.csv");

/// The quick-scale specs the sweep and hit traffic submit, with the CSV
/// every answer must reproduce byte for byte.
const SPECS: [(&str, &str); 2] = [(TABLE1, TABLE1_GOLDEN), (TABLE3, TABLE3_GOLDEN)];

/// Set-ups before the traffic starts (server start with a fresh cache
/// directory); the last one serves the traffic.
const SETUPS: usize = 3;

/// Cache-hit resubmissions and `/v1/exec` round trips of the traced run.
const BATCH: usize = 1000;

/// QPE register width of the exec round trips.
const QPE_BITS: usize = 6;

/// `GET /v1/healthz` and in-process calls timed per traced run.
const PROBES: usize = 200;

const TIMEOUT: Duration = Duration::from_secs(60);

/// A running server plus the cache directory it owns.
struct Service {
    server: Server,
    cache_dir: PathBuf,
    base: String,
    /// A remote backend executing on this server.
    remote: RemoteBackend,
}

impl Drop for Service {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// The service counters `GET /v1/healthz` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    hits: u64,
    misses: u64,
    executed: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            executed: self.executed - before.executed,
        }
    }
}

/// Runs the `served_sweeps` workload. The operation is one miss round;
/// the traced run then sends the hit and exec traffic and times it as
/// layers.
///
/// # Errors
///
/// Returns a message when the server cannot start or answer.
pub fn run(settings: &Settings) -> Result<Run, String> {
    let tracer = Tracer::new(settings.trace);
    let mut run = Run::default();
    let specs = SPECS
        .iter()
        .map(|(text, golden)| {
            ExperimentSpec::parse(text)
                .map(|spec| (spec, *golden))
                .map_err(|e| format!("built-in spec: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Set-up, repeated: start a server on a fresh cache directory and wait
    // until it answers.
    let mut service = set_up(settings, &mut run, 0)?;
    for i in 1..SETUPS {
        drop(service);
        service = set_up(settings, &mut run, i)?;
    }
    let base = service.base.as_str();
    let before = healthz(base)?;
    let mut issued = Counters::default();

    let mut first_rows = Vec::new();
    let mut setups = SETUPS;
    let mut last_setup = Instant::now();
    let start_time = Instant::now();
    let mut op = 0usize;
    while op == 0 || start_time.elapsed().as_secs_f64() < settings.seconds {
        issued.misses += specs.len() as u64;
        match tracer.span(op, "op", || sweep_round(base, &specs, settings.seed, op)) {
            Ok(done) => {
                if op == 0 {
                    run.layer("serve.rows", done.rows as f64);
                }
                first_rows.extend(done.first_rows);
                run.record(done.seconds * 1e3, Ok(()));
            }
            Err(e) => run.record(0.0, Err(format!("op {op}: {e}"))),
        }
        if op == 0 {
            let delta = healthz(base)?.since(before);
            run.layer("cache.misses", delta.misses as f64);
            check_counters(&mut run, "first round", delta, issued);
        }
        if last_setup.elapsed().as_secs_f64() >= SETUP_INTERVAL_S {
            // A throwaway server, only to time one more set-up.
            drop(set_up(settings, &mut run, setups)?);
            setups += 1;
            last_setup = Instant::now();
        }
        op += 1;
    }

    if tracer.enabled() {
        // Hits: resubmit the first round's specs, now cached.
        let hits_before = healthz(base)?;
        let mut hit_ms = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            issued.hits += 1;
            let (spec, golden) = &specs[i % specs.len()];
            match hit(base, &stamped(spec, settings.seed, 0), golden) {
                Ok(seconds) => hit_ms.push(seconds * 1e3),
                Err(e) => run.fail(format!("hit {i}: {e}")),
            }
        }
        run.layer("cache.hits", healthz(base)?.since(hits_before).hits as f64);
        run.layer("hit.latency_ms_p50", median(&hit_ms));

        let mut round_trips = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            issued.executed += 1;
            match exec_round_trip(&service.remote, settings.seed, i, &tracer) {
                Ok(seconds) => round_trips.push(seconds),
                Err(e) => run.fail(format!("exec {i}: {e}")),
            }
        }
        run.layer("exec.remote_us_p50", median(&round_trips) * 1e6);
    }
    let delta = healthz(base)?.since(before);
    run.layer("exec.executed", delta.executed as f64);
    check_counters(&mut run, "whole run", delta, issued);

    if tracer.enabled() {
        run.layer("e2e.latency_ms_p10", quantile(&run.latency_ms, 0.1));
        run.layer("e2e.latency_ms_p50", median(&run.latency_ms));
        run.layer("e2e.latency_ms_p99", quantile(&run.latency_ms, 0.99));
        run.layer("serve.first_row_s", median(&first_rows));
        run.layer(
            "qsim.phase_distribution_s",
            median(&tracer.per_op_seconds("qsim.phase_distribution")),
        );
        // The probes below run after the last counter snapshot: the
        // in-process calls move the cache and exec counters.
        for i in 0..PROBES {
            tracer.span(op + i, "http.healthz", || healthz(base))?;
        }
        run.layer(
            "http.healthz_us_p50",
            median(&tracer.durations("http.healthz")) * 1e6,
        );
        probe_lookup(&service, &specs, settings.seed, &tracer, &mut run)?;
        probe_inproc(&service, settings.seed, &tracer, &mut run)?;
        run.spans_json = Some(tracer.to_json());
    }
    Ok(run)
}

/// One finished miss round.
struct Done {
    /// Submit to last streamed row, summed over the round's specs.
    seconds: f64,
    /// Seconds from submit to the first streamed row, per spec.
    first_rows: Vec<f64>,
    /// Rows streamed.
    rows: usize,
}

fn check_counters(run: &mut Run, when: &str, seen: Counters, issued: Counters) {
    if seen != issued {
        run.fail(format!(
            "{when}: healthz counter deltas {seen:?} differ from the requests issued {issued:?}"
        ));
    }
}

fn start(settings: &Settings, index: usize) -> Result<Service, String> {
    let cache_dir = settings.scratch.join(format!(
        "cache-{}-{}-{index}",
        std::process::id(),
        settings.seed
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 64,
        cache_dir: cache_dir.clone(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let base = server.base_url();
    let remote = RemoteBackend::new(server.local_addr().to_string(), exec_backend());
    Ok(Service {
        server,
        cache_dir,
        base,
        remote,
    })
}

/// One timed set-up: a started server that has answered a health check.
fn set_up(settings: &Settings, run: &mut Run, index: usize) -> Result<Service, String> {
    let t = Instant::now();
    let service = start(settings, index)?;
    healthz(&service.base)?;
    run.setup_s.push(t.elapsed().as_secs_f64());
    Ok(service)
}

/// `spec` with a title naming the seed and round, so its cache key is new
/// to the run.
fn stamped(spec: &ExperimentSpec, seed: u64, round: usize) -> ExperimentSpec {
    let mut stamped = spec.clone();
    stamped.title = format!("{} [seed {seed} round {round}]", spec.title);
    stamped
}

fn key_of(spec: &ExperimentSpec) -> Result<String, String> {
    cache_key(&spec.to_json(), &code_version(), "quick").map_err(|e| format!("cache key: {e}"))
}

fn healthz(base: &str) -> Result<Counters, String> {
    let response = client::http_request(base, "GET", "/v1/healthz", None)
        .map_err(|e| format!("GET /v1/healthz: {e}"))?;
    let doc = Value::parse(&response.body).map_err(|e| format!("healthz body: {e}"))?;
    let field = |section: &str, name: &str| {
        doc.get(section)
            .and_then(|s| s.get(name))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("healthz lacks {section}.{name}"))
    };
    Ok(Counters {
        hits: field("cache", "hits")?,
        misses: field("cache", "misses")?,
        executed: field("exec", "executed")?,
    })
}

/// One miss round: each spec, title-stamped so its cache key is new,
/// submitted and streamed to its last row; streamed and fetched CSVs
/// must equal the goldens. Returns the first-row latencies and the rows
/// streamed.
fn sweep_round(
    base: &str,
    specs: &[(ExperimentSpec, &str)],
    seed: u64,
    round: usize,
) -> Result<Done, String> {
    let mut done = Done {
        seconds: 0.0,
        first_rows: Vec::new(),
        rows: 0,
    };
    for (spec, golden) in specs {
        let body = stamped(spec, seed, round).to_json().to_string();
        let t = Instant::now();
        let ticket = client::submit(base, &body, "quick", TIMEOUT)
            .map_err(|e| format!("submit {}: {e}", spec.name))?;
        if ticket.cache != "miss" {
            return Err(format!(
                "{}: fresh spec answered cache `{}`",
                spec.name, ticket.cache
            ));
        }
        let (csv, first_row, rows) = stream(base, &ticket.id, t)?;
        done.seconds += t.elapsed().as_secs_f64();
        done.first_rows.push(first_row);
        done.rows += rows;
        if csv != *golden {
            return Err(format!(
                "{}: streamed CSV differs from the golden",
                spec.name
            ));
        }
        let fetched = client::fetch_result(base, &ticket.id, "csv")
            .map_err(|e| format!("fetch {}: {e}", spec.name))?;
        if fetched != *golden {
            return Err(format!(
                "{}: fetched CSV differs from the golden",
                spec.name
            ));
        }
    }
    Ok(done)
}

/// Reads `/v1/sweeps/:id/stream` to its end. Returns the CSV, the
/// seconds from `submitted` to the first data row, and the data rows.
fn stream(base: &str, id: &str, submitted: Instant) -> Result<(String, f64, usize), String> {
    let authority = base.trim_start_matches("http://");
    let io = |e: std::io::Error| format!("stream {id}: {e}");
    let mut socket = TcpStream::connect(authority).map_err(io)?;
    socket.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    write!(
        socket,
        "GET /v1/sweeps/{id}/stream HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n"
    )
    .map_err(io)?;
    let mut reader = BufReader::new(socket);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(format!("stream {id}: status line `{}`", line.trim()));
    }
    let mut chunked = false;
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(io)?;
        let header = line.trim().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        chunked |= header == "transfer-encoding: chunked";
    }
    if !chunked {
        return Err(format!("stream {id}: response is not chunked"));
    }
    let mut csv = String::new();
    let mut chunks = 0usize;
    let mut first_row = 0.0;
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(io)?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| format!("stream {id}: bad chunk size `{}`", line.trim()))?;
        let mut data = vec![0u8; size + 2];
        reader.read_exact(&mut data).map_err(io)?;
        if size == 0 {
            break;
        }
        chunks += 1;
        if chunks == 2 {
            first_row = submitted.elapsed().as_secs_f64();
        }
        data.truncate(size);
        csv.push_str(&String::from_utf8(data).map_err(|_| format!("stream {id}: not UTF-8"))?);
    }
    // The first chunk is the header; every later chunk is one row.
    Ok((csv, first_row, chunks.saturating_sub(1)))
}

/// A cache-hit resubmission plus the CSV fetch; the answer must be the
/// golden's bytes. Returns the seconds both took.
fn hit(base: &str, spec: &ExperimentSpec, golden: &str) -> Result<f64, String> {
    let body = spec.to_json().to_string();
    let t = Instant::now();
    let ticket = client::submit(base, &body, "quick", TIMEOUT)
        .map_err(|e| format!("submit {}: {e}", spec.name))?;
    if ticket.cache != "hit" {
        return Err(format!(
            "{}: resubmitted spec answered cache `{}`",
            spec.name, ticket.cache
        ));
    }
    let csv = client::fetch_result(base, &ticket.id, "csv")
        .map_err(|e| format!("fetch {}: {e}", spec.name))?;
    let seconds = t.elapsed().as_secs_f64();
    if csv != golden {
        return Err(format!("{}: cache hit returned different bytes", spec.name));
    }
    Ok(seconds)
}

fn exec_backend() -> Value {
    BackendConfig::Statevector.to_json()
}

/// The phase and RNG of exec operation `op`.
fn exec_input(seed: u64, op: usize) -> (f64, StdRng) {
    let bits = mix(seed, op as u64);
    let phi = (bits >> 11) as f64 / (1u64 << 53) as f64;
    (phi, StdRng::seed_from_u64(bits))
}

/// One `/v1/exec` round trip, checked bit for bit against the local
/// `Statevector`. Returns the round trip's seconds.
fn exec_round_trip(
    remote: &RemoteBackend,
    seed: u64,
    op: usize,
    tracer: &Tracer,
) -> Result<f64, String> {
    let (phi, mut rng_remote) = exec_input(seed, op);
    let mut rng_local = rng_remote.clone();
    let t = Instant::now();
    let got = remote
        .phase_distribution(phi, QPE_BITS, &mut rng_remote)
        .map_err(|e| format!("remote phase_distribution: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    let want = tracer
        .span(op, "qsim.phase_distribution", || {
            Statevector::new().phase_distribution(phi, QPE_BITS, &mut rng_local)
        })
        .map_err(|e| format!("local phase_distribution: {e}"))?;
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && rng_remote == rng_local;
    if same {
        Ok(seconds)
    } else {
        Err(format!(
            "remote phase_distribution(phi = {phi}) differs from the local one"
        ))
    }
}

/// `ResultCache::lookup` on the server's own cache, for the first round's
/// keys.
fn probe_lookup(
    service: &Service,
    specs: &[(ExperimentSpec, &str)],
    seed: u64,
    tracer: &Tracer,
    run: &mut Run,
) -> Result<(), String> {
    let cache = service.server.jobs().cache();
    for i in 0..PROBES {
        let key = key_of(&stamped(&specs[i % specs.len()].0, seed, 0))?;
        if tracer
            .span(i, "cache.lookup", || cache.lookup(&key))
            .is_none()
        {
            run.fail(format!("lookup of stored key {key} missed"));
        }
    }
    run.layer(
        "cache.lookup_us",
        median(&tracer.durations("cache.lookup")) * 1e6,
    );
    Ok(())
}

/// `ExecHost::execute` on the request body `RemoteBackend` sends, with no
/// socket: the codec plus the simulation.
fn probe_inproc(
    service: &Service,
    seed: u64,
    tracer: &Tracer,
    run: &mut Run,
) -> Result<(), String> {
    let exec = service.server.exec();
    for i in 0..PROBES {
        let (phi, rng) = exec_input(seed, i);
        let body = qsc_json::obj([
            ("op", qsc_json::s("phase_distribution")),
            ("phi", qsc_json::num(phi)),
            ("t", qsc_json::num(QPE_BITS as f64)),
            ("backend", exec_backend()),
            ("rng", rng_to_json(&rng)),
        ])
        .to_json_canonical()
        .map_err(|e| format!("exec body: {e}"))?;
        if let Err(e) = tracer.span(i, "exec.inproc", || exec.execute(&body)) {
            run.fail(format!("in-process exec failed: {e:?}"));
        }
    }
    run.layer(
        "exec.inproc_us_p50",
        median(&tracer.durations("exec.inproc")) * 1e6,
    );
    Ok(())
}
