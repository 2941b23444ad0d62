//! What routing needs from a request: the method, the path, the query
//! pairs and the body. Framing — reading the request, the `400` / `413` /
//! `431` statuses of [`HttpError::Framing`], and writing fixed-length and
//! chunked responses — is `qsc_sim::http`, the one codec the service
//! shares with its clients.

use qsc_sim::http::{self, HttpError};
use std::io::BufReader;
use std::net::TcpStream;

/// Largest accepted request body (spec documents are kilobytes; anything
/// near this is abuse, not a spec).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Decoded path without the query string (`/v1/sweeps/job-1`).
    pub path: String,
    /// Query `(key, value)` pairs, in order.
    pub query: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one request from a connection.
///
/// # Errors
///
/// [`HttpError::Framing`] for malformed or oversized requests (the caller
/// answers with its status) and [`HttpError::Io`] for transport failures
/// (the caller drops the connection).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let request = http::read_request(&mut BufReader::new(stream), MAX_BODY_BYTES)?;
    let (path, query_text) = request
        .target
        .split_once('?')
        .unwrap_or((&request.target, ""));
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    Ok(Request {
        path: path.to_string(),
        query,
        method: request.method,
        body: request.body,
    })
}
