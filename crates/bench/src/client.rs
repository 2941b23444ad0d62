//! Minimal dependency-free HTTP/1.1 client for the sweep service
//! (`qsc-serve`), plus the submit → poll → fetch workflow behind the
//! `experiments --submit <url>` client mode.
//!
//! The client frames bytes with `qsc_sim::http`, the same codec the
//! service answers with: one request per connection (`Connection:
//! close`), JSON via `qsc-json`. It lives in this crate (not `qsc-serve`)
//! because the service depends on the runner — the client must not close
//! that cycle.

use qsc_json::Value;
use qsc_sim::http::{self, HttpError};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors of the service client.
#[derive(Debug)]
pub enum ClientError {
    /// The URL is not a plain `http://host:port[/]` address.
    Url(String),
    /// Connection/transport failure.
    Io(std::io::Error),
    /// The server answered, but not with what the workflow needed
    /// (non-2xx status, malformed response, job failure).
    Protocol(String),
    /// The job did not finish within the polling deadline.
    Timeout(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Url(m) => write!(f, "bad service URL: {m}"),
            ClientError::Io(e) => write!(f, "service connection: {e}"),
            ClientError::Protocol(m) => write!(f, "service: {m}"),
            ClientError::Timeout(m) => write!(f, "service: timed out {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code (200, 400, 429, …).
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The decoded body.
    pub body: String,
}

impl HttpResponse {
    /// A header value, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Validates and normalizes a service base URL to its `host:port`
/// authority.
fn authority(base: &str) -> Result<String, ClientError> {
    let rest = base
        .strip_prefix("http://")
        .ok_or_else(|| ClientError::Url(format!("`{base}` (expected http://host:port)")))?;
    let authority = rest.trim_end_matches('/');
    if authority.is_empty() || authority.contains('/') {
        return Err(ClientError::Url(format!(
            "`{base}` (expected http://host:port with no path)"
        )));
    }
    Ok(authority.to_string())
}

/// One HTTP/1.1 request on a fresh connection, framed by
/// [`qsc_sim::http`].
///
/// # Errors
///
/// Returns [`ClientError`] for transport failures and malformed
/// responses; any well-formed response (including error statuses) is
/// returned as an [`HttpResponse`].
pub fn http_request(
    base: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, ClientError> {
    let response = http::request(
        &authority(base)?,
        method,
        path,
        body,
        Duration::from_secs(60),
    )
    .map_err(|e| match e {
        HttpError::Io(e) => ClientError::Io(e),
        HttpError::Framing(_, message) => ClientError::Protocol(message),
    })?;
    Ok(HttpResponse {
        status: response.status,
        headers: response.headers,
        body: String::from_utf8(response.body)
            .map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))?,
    })
}

// ---------------------------------------------------------------------------
// The submit workflow
// ---------------------------------------------------------------------------

/// The service's answer to a submission.
#[derive(Debug, Clone)]
pub struct SubmitTicket {
    /// The job id to poll.
    pub id: String,
    /// `"hit"` when the result came straight from the content-addressed
    /// cache (the simulator was never invoked), `"miss"` otherwise.
    pub cache: String,
    /// The content-address (hex SHA-256 of canonical spec + code version
    /// + scale).
    pub key: String,
}

/// A polled job status.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// `queued` / `running` / `done` / `failed`.
    pub state: String,
    /// `"hit"` / `"miss"`.
    pub cache: String,
    /// Rows of the primary table completed so far.
    pub rows_done: usize,
    /// The failure message, for `failed` jobs.
    pub error: Option<String>,
}

fn json_body(response: &HttpResponse) -> Result<Value, ClientError> {
    Value::parse(&response.body)
        .map_err(|e| ClientError::Protocol(format!("unparseable response body: {e}")))
}

fn str_field(v: &Value, key: &str) -> Result<String, ClientError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ClientError::Protocol(format!("response missing `{key}`")))
}

/// The submission endpoints the service exposes: sweeps (every
/// non-search experiment kind) and hyper-parameter searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/sweeps` — the general experiment endpoint.
    Sweeps,
    /// `POST /v1/searches` — `"kind": "search"` specs only.
    Searches,
}

impl Endpoint {
    fn path(&self) -> &'static str {
        match self {
            Endpoint::Sweeps => "/v1/sweeps",
            Endpoint::Searches => "/v1/searches",
        }
    }
}

/// Submits a spec document to `/v1/sweeps`, retrying on 429 backpressure
/// for up to `timeout` (honouring `Retry-After`).
///
/// # Errors
///
/// Returns [`ClientError`] for invalid specs (the server's 400 with the
/// parser's line/col message), persistent backpressure, and transport
/// failures.
pub fn submit(
    base: &str,
    spec_json: &str,
    scale: &str,
    timeout: Duration,
) -> Result<SubmitTicket, ClientError> {
    submit_to(base, Endpoint::Sweeps, spec_json, scale, timeout)
}

/// [`submit`] against an explicit [`Endpoint`] — search specs must go to
/// [`Endpoint::Searches`] (the sweeps endpoint rejects them with 400, and
/// vice versa).
///
/// # Errors
///
/// Returns [`ClientError`] for invalid or wrong-kind specs (the server's
/// 400), persistent backpressure, and transport failures.
pub fn submit_to(
    base: &str,
    endpoint: Endpoint,
    spec_json: &str,
    scale: &str,
    timeout: Duration,
) -> Result<SubmitTicket, ClientError> {
    let deadline = Instant::now() + timeout;
    loop {
        let response = http_request(
            base,
            "POST",
            &format!("{}?scale={scale}", endpoint.path()),
            Some(spec_json),
        )?;
        match response.status {
            200 | 202 => {
                let v = json_body(&response)?;
                return Ok(SubmitTicket {
                    id: str_field(&v, "id")?,
                    cache: str_field(&v, "cache")?,
                    key: str_field(&v, "key")?,
                });
            }
            429 => {
                let wait = response
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(1);
                if Instant::now() + Duration::from_secs(wait) > deadline {
                    return Err(ClientError::Timeout("waiting for queue space (429)".into()));
                }
                std::thread::sleep(Duration::from_secs(wait));
            }
            status => {
                return Err(ClientError::Protocol(format!(
                    "submit rejected ({status}): {}",
                    response.body.trim()
                )))
            }
        }
    }
}

/// Polls a job's status once.
///
/// # Errors
///
/// Returns [`ClientError`] for unknown jobs and transport failures.
pub fn status(base: &str, id: &str) -> Result<JobStatus, ClientError> {
    let response = http_request(base, "GET", &format!("/v1/sweeps/{id}"), None)?;
    if response.status != 200 {
        return Err(ClientError::Protocol(format!(
            "status of job {id} ({}): {}",
            response.status,
            response.body.trim()
        )));
    }
    let v = json_body(&response)?;
    Ok(JobStatus {
        state: str_field(&v, "state")?,
        cache: str_field(&v, "cache")?,
        rows_done: v.get("rows_done").and_then(Value::as_usize).unwrap_or(0),
        error: v.get("error").and_then(Value::as_str).map(str::to_string),
    })
}

/// Polls until the job reaches `done` (returning its final status) or
/// `failed` / the deadline (an error).
///
/// # Errors
///
/// Returns [`ClientError::Protocol`] for failed jobs (carrying the
/// server-side failure message) and [`ClientError::Timeout`] past the
/// deadline.
pub fn wait_done(base: &str, id: &str, timeout: Duration) -> Result<JobStatus, ClientError> {
    let deadline = Instant::now() + timeout;
    loop {
        let st = status(base, id)?;
        match st.state.as_str() {
            "done" => return Ok(st),
            "failed" => {
                return Err(ClientError::Protocol(format!(
                    "job {id} failed: {}",
                    st.error.as_deref().unwrap_or("unknown error")
                )))
            }
            _ => {
                if Instant::now() > deadline {
                    return Err(ClientError::Timeout(format!("waiting for job {id}")));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Fetches a finished job's rendered result table (`format` is a sink
/// name: `csv` | `json`).
///
/// # Errors
///
/// Returns [`ClientError`] when the job is unknown or not done yet.
pub fn fetch_result(base: &str, id: &str, format: &str) -> Result<String, ClientError> {
    let response = http_request(
        base,
        "GET",
        &format!("/v1/sweeps/{id}/result?format={format}"),
        None,
    )?;
    if response.status != 200 {
        return Err(ClientError::Protocol(format!(
            "result of job {id} ({}): {}",
            response.status,
            response.body.trim()
        )));
    }
    Ok(response.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn authority_normalizes_and_rejects() {
        assert_eq!(
            authority("http://127.0.0.1:8791").unwrap(),
            "127.0.0.1:8791"
        );
        assert_eq!(authority("http://h:1/").unwrap(), "h:1");
        assert!(authority("https://h:1").is_err());
        assert!(authority("http://h:1/v1").is_err());
        assert!(authority("h:1").is_err());
    }

    /// A fake service that answers one connection with `reply`, then
    /// drains the request so closing never resets the client.
    fn one_shot(reply: &'static [u8]) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let base = format!("http://{}", listener.local_addr().unwrap());
        std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                let _ = conn.write_all(reply);
                let _ = conn.shutdown(std::net::Shutdown::Write);
                let _ = std::io::copy(&mut conn, &mut std::io::sink());
            }
        });
        base
    }

    #[test]
    fn oversized_chunk_size_is_a_protocol_error() {
        // The largest 64-bit chunk size: adding the CRLF to it overflows.
        let base = one_shot(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nabc",
        );
        let err = http_request(&base, "GET", "/v1/healthz", None).unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    }
}
