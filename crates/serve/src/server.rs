//! The HTTP front-end: accept loop, routing, and the endpoint handlers.
//!
//! | Endpoint | Behavior |
//! |---|---|
//! | `GET /v1/healthz` | liveness + version + queue depth + active kernel tier + cache statistics (entries, hits, misses, evictions since start) |
//! | `POST /v1/sweeps?scale=quick\|full` | validate non-search spec → cache hit (`200`) or enqueue (`202`); full queue → `429` + `Retry-After`; invalid spec or a `"kind": "search"` spec → `400` with a precise error |
//! | `POST /v1/searches?scale=quick\|full` | same contract for `"kind": "search"` specs — the hyper-parameter search runs through the same job queue and content-addressed cache; non-search specs → `400` pointing at `/v1/sweeps` |
//! | `GET /v1/sweeps/:id` | job status (`queued`/`running`/`done`/`failed`), cache marker, per-cell failure kinds — search jobs poll here too (one id namespace) |
//! | `GET /v1/sweeps/:id/result?format=csv\|json` | the finished table through the standard sinks |
//! | `GET /v1/sweeps/:id/stream` | chunked CSV: header immediately, rows as grid points complete |

use crate::cache::{cache_key, code_version, ResultCache};
use crate::exec::{ExecError, ExecHost};
use crate::http::{read_request, Request};
use crate::job::{failed_cell_kinds, Job, JobSystem, Phase, SubmitError};
use qsc_bench::{ExperimentSpec, Scale};
use qsc_core::config::BackendConfig;
use qsc_core::report::{csv_row, SinkFormat};
use qsc_json::{ToJson, Value};
use qsc_sim::http::{finish_chunks, respond, start_chunked, write_chunk, HttpError};
use std::fmt;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:8791`; port `0` picks a free port).
    pub addr: String,
    /// Worker-pool size (0 = nothing drains; useful for backpressure
    /// tests).
    pub workers: usize,
    /// Bounded queue capacity; a full queue answers `429`.
    pub queue_capacity: usize,
    /// Directory of the content-addressed result cache.
    pub cache_dir: PathBuf,
    /// Default backend hosted by `POST /v1/exec` for requests without a
    /// `backend` field (requests carrying one override it per call).
    pub backend: BackendConfig,
    /// Executor fleet the sweep workers fan grid points across
    /// (round-robin with retry-elsewhere); empty = run sweeps locally.
    pub executors: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8791".into(),
            workers: 2,
            queue_capacity: 64,
            cache_dir: PathBuf::from("qsc-serve-cache"),
            backend: BackendConfig::default(),
            executors: Vec::new(),
        }
    }
}

/// Startup failures.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind or the cache directory could not be
    /// created.
    Io(std::io::Error),
    /// The cache layer failed to initialize.
    Cache(crate::cache::CacheError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve: {e}"),
            ServeError::Cache(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A running service instance.
pub struct Server {
    jobs: Arc<JobSystem>,
    exec: Arc<ExecHost>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, starts the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the address cannot be bound or the
    /// cache directory cannot be created.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        let cache = ResultCache::open(&config.cache_dir).map_err(ServeError::Cache)?;
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
        let local_addr = listener.local_addr().map_err(ServeError::Io)?;
        let jobs = JobSystem::start_with_fleet(
            cache,
            config.workers,
            config.queue_capacity,
            config.executors.clone(),
        );
        let exec = Arc::new(ExecHost::new(config.backend.clone()));
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept = {
            let jobs = jobs.clone();
            let exec = exec.clone();
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name("qsc-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let jobs = jobs.clone();
                        let exec = exec.clone();
                        // One detached thread per connection: connections
                        // are short-lived (Connection: close) except for
                        // row streams, which live as long as their sweep.
                        let _ = std::thread::Builder::new()
                            .name("qsc-serve-conn".into())
                            .spawn(move || handle_connection(stream, &jobs, &exec));
                    }
                })
                .map_err(ServeError::Io)?
        };
        Ok(Server {
            jobs,
            exec,
            local_addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service base URL (`http://host:port`).
    pub fn base_url(&self) -> String {
        format!("http://{}", self.local_addr)
    }

    /// The job subsystem (status inspection in tests/benches).
    pub fn jobs(&self) -> &Arc<JobSystem> {
        &self.jobs
    }

    /// The executor host behind `POST /v1/exec`.
    pub fn exec(&self) -> &Arc<ExecHost> {
        &self.exec
    }

    /// Stops accepting, then stops the worker pool. Running sweeps
    /// finish; open row streams end when their job does.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.jobs.shutdown();
    }

    /// Blocks on the accept loop (the binary's serve-forever mode).
    pub fn join(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, jobs: &Arc<JobSystem>, exec: &Arc<ExecHost>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(HttpError::Framing(status, message)) => {
            let _ = fail(&mut stream, status, &message);
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    // Route errors are I/O-only from here down; a dropped client is fine.
    let _ = route(&mut stream, &request, jobs, exec);
}

fn error_body(message: &str) -> String {
    Value::Obj(vec![("error".into(), Value::Str(message.into()))]).to_string()
}

/// Answers `status` with an `{"error": message}` document.
fn fail(stream: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    respond(
        stream,
        status,
        "application/json",
        &[],
        &error_body(message),
    )
}

fn route(
    stream: &mut TcpStream,
    request: &Request,
    jobs: &Arc<JobSystem>,
    exec: &Arc<ExecHost>,
) -> std::io::Result<()> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => handle_healthz(stream, jobs, exec),
        ("POST", ["v1", "exec"]) => handle_exec(stream, request, exec),
        ("POST", ["v1", "sweeps"]) => handle_submit(stream, request, jobs, SubmitKind::Sweep),
        ("POST", ["v1", "searches"]) => handle_submit(stream, request, jobs, SubmitKind::Search),
        ("GET", ["v1", "sweeps", id]) => match jobs.get(id) {
            Some(job) => handle_status(stream, &job),
            None => fail(stream, 404, &format!("no job `{id}`")),
        },
        ("GET", ["v1", "sweeps", id, "result"]) => match jobs.get(id) {
            Some(job) => handle_result(stream, request, &job),
            None => fail(stream, 404, &format!("no job `{id}`")),
        },
        ("GET", ["v1", "sweeps", id, "stream"]) => match jobs.get(id) {
            Some(job) => handle_stream(stream, &job),
            None => fail(stream, 404, &format!("no job `{id}`")),
        },
        (_, ["v1", "sweeps", ..])
        | (_, ["v1", "searches", ..])
        | (_, ["v1", "healthz"])
        | (_, ["v1", "exec"]) => fail(
            stream,
            405,
            &format!("method {} not allowed here", request.method),
        ),
        _ => fail(stream, 404, &format!("no route `{}`", request.path)),
    }
}

fn handle_healthz(
    stream: &mut TcpStream,
    jobs: &Arc<JobSystem>,
    exec: &Arc<ExecHost>,
) -> std::io::Result<()> {
    let stats = jobs.cache().stats();
    let body = Value::Obj(vec![
        ("status".into(), Value::Str("ok".into())),
        ("version".into(), Value::Str(code_version())),
        ("queue_depth".into(), Value::Num(jobs.queue_depth() as f64)),
        (
            "kernels".into(),
            Value::Str(BackendConfig::kernels_tier().into()),
        ),
        (
            "cache".into(),
            Value::Obj(vec![
                ("entries".into(), Value::Num(stats.entries as f64)),
                ("hits".into(), Value::Num(stats.hits as f64)),
                ("misses".into(), Value::Num(stats.misses as f64)),
                ("evictions".into(), Value::Num(stats.evictions as f64)),
            ]),
        ),
        (
            "exec".into(),
            Value::Obj(vec![
                ("backend".into(), Value::Str(exec.default_kind().into())),
                ("inflight".into(), Value::Num(exec.inflight() as f64)),
                ("executed".into(), Value::Num(exec.executed() as f64)),
            ]),
        ),
    ])
    .to_string();
    respond(stream, 200, "application/json", &[], &body)
}

fn handle_exec(
    stream: &mut TcpStream,
    request: &Request,
    exec: &Arc<ExecHost>,
) -> std::io::Result<()> {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return fail(stream, 400, "body is not UTF-8");
    };
    match exec.execute(text) {
        Ok(body) => respond(stream, 200, "application/json", &[], &body),
        Err(ExecError::BadRequest(message)) => fail(stream, 400, &message),
        Err(ExecError::Internal(message)) => fail(stream, 500, &message),
    }
}

/// Which submission endpoint is talking: `/v1/sweeps` takes every
/// non-search experiment kind, `/v1/searches` only `"kind": "search"`.
/// A spec posted to the wrong one is a `400`, not a silent accept —
/// clients should never discover an endpoint mix-up from a result table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubmitKind {
    Sweep,
    Search,
}

fn handle_submit(
    stream: &mut TcpStream,
    request: &Request,
    jobs: &Arc<JobSystem>,
    endpoint: SubmitKind,
) -> std::io::Result<()> {
    let scale = match request.query_param("scale") {
        None => Scale::Quick,
        Some(name) => match Scale::parse(name) {
            Some(scale) => scale,
            None => {
                return fail(
                    stream,
                    400,
                    &format!("unknown scale `{name}` (expected quick | full)"),
                )
            }
        },
    };
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return fail(stream, 400, "body is not UTF-8");
    };
    let (spec, key) = match validate_submission(text, endpoint, scale) {
        Ok(accepted) => accepted,
        Err((status, message)) => return fail(stream, status, &message),
    };
    match jobs.submit(spec, key, scale) {
        Ok(job) => {
            let status = if job.cache_hit { 200 } else { 202 };
            let body = Value::Obj(vec![
                ("id".into(), Value::Str(job.id.clone())),
                ("name".into(), Value::Str(job.spec.name.clone())),
                (
                    "state".into(),
                    Value::Str(job.snapshot().phase.name().into()),
                ),
                ("cache".into(), Value::Str(cache_marker(&job).into())),
                ("key".into(), Value::Str(job.key.clone())),
                ("scale".into(), Value::Str(scale.name().into())),
            ])
            .to_string();
            respond(stream, status, "application/json", &[], &body)
        }
        Err(SubmitError::QueueFull { retry_after_s }) => respond(
            stream,
            429,
            "application/json",
            &[format!("Retry-After: {retry_after_s}")],
            &error_body("queue full, retry later"),
        ),
    }
}

/// What a submission does before anything is queued: the strict parse,
/// the endpoint check and the cache key. An `Err` carries the status and
/// message the client is answered with.
fn validate_submission(
    text: &str,
    endpoint: SubmitKind,
    scale: Scale,
) -> Result<(ExperimentSpec, String), (u16, String)> {
    // Strict validation: the same qsc-json parser the binary uses, so a
    // syntax error answers with its exact line/col message and a typo'd
    // field with the unknown-field rejection.
    let spec = match ExperimentSpec::parse(text) {
        Ok(spec) => spec,
        Err(e) => return Err((400, format!("invalid spec: {e}"))),
    };
    let is_search = matches!(spec.kind, qsc_bench::spec::ExperimentKind::Search(_));
    match endpoint {
        SubmitKind::Sweep if is_search => {
            let message = "has kind `search`: submit it to POST /v1/searches";
            return Err((400, format!("spec `{}` {message}", spec.name)));
        }
        SubmitKind::Search if !is_search => {
            let message = "is not a search (kind must be `search`): submit it to POST /v1/sweeps";
            return Err((400, format!("spec `{}` {message}", spec.name)));
        }
        _ => {}
    }
    // Key over the *normalized* document (the spec's own round-tripped
    // JSON), so formatting, key order and spelled-out defaults never
    // split the cache.
    match cache_key(&spec.to_json(), &code_version(), scale.name()) {
        Ok(key) => Ok((spec, key)),
        Err(e) => Err((500, format!("cannot canonicalize spec: {e}"))),
    }
}

fn cache_marker(job: &Job) -> &'static str {
    if job.cache_hit {
        "hit"
    } else {
        "miss"
    }
}

fn handle_status(stream: &mut TcpStream, job: &Arc<Job>) -> std::io::Result<()> {
    let snapshot = job.snapshot();
    let mut fields = vec![
        ("id".into(), Value::Str(job.id.clone())),
        ("name".into(), Value::Str(job.spec.name.clone())),
        ("state".into(), Value::Str(snapshot.phase.name().into())),
        ("cache".into(), Value::Str(cache_marker(job).into())),
        ("key".into(), Value::Str(job.key.clone())),
        ("scale".into(), Value::Str(job.scale.name().into())),
        ("rows_done".into(), Value::Num(snapshot.rows_done as f64)),
    ];
    if let Some(error) = &snapshot.error {
        fields.push(("error".into(), Value::Str(error.clone())));
    }
    if snapshot.phase == Phase::Done {
        if let Some(result) = &snapshot.result {
            let kinds = failed_cell_kinds(result.table.rows());
            fields.push((
                "failed_cells".into(),
                Value::Obj(
                    kinds
                        .into_iter()
                        .map(|(kind, n)| (kind, Value::Num(n as f64)))
                        .collect(),
                ),
            ));
            fields.push((
                "notes".into(),
                Value::Arr(result.notes.iter().map(|n| Value::Str(n.clone())).collect()),
            ));
        }
    }
    respond(
        stream,
        200,
        "application/json",
        &[],
        &Value::Obj(fields).to_string(),
    )
}

fn handle_result(stream: &mut TcpStream, request: &Request, job: &Arc<Job>) -> std::io::Result<()> {
    let format = match request.query_param("format") {
        None => SinkFormat::Csv,
        Some(name) => match SinkFormat::parse(name) {
            Some(format) => format,
            None => {
                return fail(
                    stream,
                    400,
                    &format!("unknown format `{name}` (expected csv | json)"),
                )
            }
        },
    };
    let snapshot = job.snapshot();
    match (snapshot.phase, snapshot.result) {
        (Phase::Done, Some(result)) => {
            let content_type = match format {
                SinkFormat::Csv => "text/csv",
                SinkFormat::Json => "application/json",
            };
            respond(stream, 200, content_type, &[], &result.table.render(format))
        }
        (Phase::Failed, _) => {
            let error = snapshot.error.as_deref().unwrap_or("unknown error");
            fail(stream, 409, &format!("job failed: {error}"))
        }
        (phase, _) => fail(
            stream,
            409,
            &format!("job is {}, result not ready", phase.name()),
        ),
    }
}

/// Chunked CSV: the header the moment columns exist, then each completed
/// row as its grid point finishes. The byte stream concatenates to
/// exactly `Table::to_csv` of the finished result.
fn handle_stream(stream: &mut TcpStream, job: &Arc<Job>) -> std::io::Result<()> {
    // Streams outlive the 30 s request-read timeout by design.
    stream.set_read_timeout(None)?;
    let Some(columns) = job.wait_columns() else {
        let error = job.snapshot().error;
        let error = error.as_deref().unwrap_or("no rows");
        return fail(stream, 409, &format!("job produced no table: {error}"));
    };
    start_chunked(stream, 200, "text/csv")?;
    write_chunk(stream, &csv_row(&columns))?;
    let mut sent = 0usize;
    loop {
        let (rows, terminal) = job.wait_rows(sent);
        for row in &rows {
            write_chunk(stream, &csv_row(row))?;
        }
        sent += rows.len();
        if terminal {
            return finish_chunks(stream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Spec kinds, graph families, metrics, backends and strategies, one
    /// of them misspelt, for the name swaps of [`fuzz::mutate`].
    const SPEC_NAMES: [&str; 12] = [
        "pipeline",
        "search",
        "embedding",
        "trotter",
        "dsbm",
        "circles",
        "quantum_circles",
        "dsmb",
        "matched_accuracy",
        "statevector",
        "density",
        "successive_halving",
    ];

    /// Every shipped spec, as parsed JSON, in file-name order.
    fn spec_corpus() -> Vec<Value> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|path| Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap())
            .collect()
    }

    /// Mutated specs go through what `POST /v1/sweeps` and
    /// `POST /v1/searches` do before anything is queued (parse, endpoint
    /// check, `to_json`, cache key) and must come back as a key or a typed
    /// `400`: no panic, no `500`. An accepted spec re-parses from its own
    /// JSON to the same JSON.
    #[test]
    fn mutated_specs_yield_cache_keys_or_typed_errors_only() {
        let corpus = spec_corpus();
        assert!(corpus.len() >= 17, "{} specs", corpus.len());
        let mut state = 0x5350_4543u64;
        let mut accepted = 0usize;
        for case in 0..20_000 {
            let mut doc = corpus[case % corpus.len()].clone();
            for _ in 0..1 + fuzz::splitmix(&mut state) % 4 {
                fuzz::mutate(&mut doc, &mut state, &SPEC_NAMES);
            }
            let text = doc.to_string();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                [SubmitKind::Sweep, SubmitKind::Search]
                    .map(|endpoint| validate_submission(&text, endpoint, Scale::Quick))
            }));
            let Ok(results) = outcome else {
                panic!("case {case} panicked on {text}");
            };
            for result in results {
                match result {
                    Ok((spec, _key)) => {
                        let json = spec.to_json();
                        let again = ExperimentSpec::parse(&json.to_string())
                            .unwrap_or_else(|e| panic!("case {case}: {e} re-parsing {json}"));
                        assert_eq!(again.to_json(), json, "case {case}");
                        accepted += 1;
                    }
                    Err((status, message)) => {
                        assert_eq!(status, 400, "case {case}: {message} on {text}");
                    }
                }
            }
        }
        // Each accepted case passes exactly one of the two endpoints.
        assert!(accepted > 1000, "only {accepted} of 20000 mutants parsed");
    }
}
