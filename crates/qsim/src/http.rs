//! The workspace's one HTTP/1.1 codec, on `std::net` only. The sweep
//! service, its client (`qsc_bench::client`) and
//! [`RemoteBackend`](crate::RemoteBackend) all frame bytes here, so a
//! framing rule or a limit lands once for every peer. One exchange per
//! connection (`Connection: close`); bodies are delimited by
//! `Content-Length`, by chunked coding, or (responses only) by close.
//!
//! Network input never panics the reader and never sizes an allocation:
//! lines, header counts and bodies are capped, and declared lengths are
//! read incrementally.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest accepted start line or header line, terminator included.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most headers (or chunked-body trailers) accepted in one message.
pub const MAX_HEADERS: usize = 100;

/// Why a message could not be exchanged.
#[derive(Debug)]
pub enum HttpError {
    /// Connecting, reading, writing or a timeout failed.
    Io(std::io::Error),
    /// The peer's bytes are not acceptable HTTP/1.1, with the status a
    /// server answers: `400` malformed, `413` body over the limit, `431`
    /// head over [`MAX_LINE_BYTES`] or [`MAX_HEADERS`].
    Framing(u16, String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => e.fmt(f),
            HttpError::Framing(_, message) => f.write_str(message),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn framing(status: u16, message: impl Into<String>) -> HttpError {
    HttpError::Framing(status, message.into())
}

/// A received request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The target as sent: the path plus any query string.
    pub target: String,
    /// The decoded body (empty when none is declared).
    pub body: Vec<u8>,
}

/// A received response.
#[derive(Debug)]
pub struct Response {
    /// Status code (200, 400, 429, …).
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The decoded body; checking it is UTF-8 is the caller's job.
    pub body: Vec<u8>,
}

/// One line without its `\r\n` (or bare `\n`), at most [`MAX_LINE_BYTES`].
fn read_line(reader: &mut impl BufRead, what: &str) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let n = reader
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut line)?;
    match line.pop() {
        Some(b'\n') => {}
        _ if n == MAX_LINE_BYTES => {
            return Err(framing(
                431,
                format!("{what} exceeds {MAX_LINE_BYTES} bytes"),
            ))
        }
        _ => return Err(framing(400, format!("truncated {what}"))),
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| framing(400, format!("{what} is not UTF-8")))
}

/// Header lines up to the empty line that ends a head (or the trailers).
fn read_headers(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, "header line")?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() == MAX_HEADERS {
            return Err(framing(431, format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| framing(400, format!("header line without a colon `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Appends `len` more body bytes as they arrive: a declared length is
/// checked against the limit but never sizes an allocation.
fn append(
    reader: &mut impl BufRead,
    len: usize,
    max_body: usize,
    body: &mut Vec<u8>,
) -> Result<(), HttpError> {
    if len > max_body - body.len() {
        return Err(framing(
            413,
            format!("body exceeds the {max_body}-byte limit"),
        ));
    }
    let got = reader.take(len as u64).read_to_end(body)?;
    if got < len {
        return Err(framing(
            400,
            format!("truncated body ({got} of {len} bytes)"),
        ));
    }
    Ok(())
}

/// Reads the body the headers declare: chunked, `Content-Length`, or —
/// for a response declaring neither (`to_close`) — everything to close.
fn read_body(
    reader: &mut impl BufRead,
    headers: &[(String, String)],
    max_body: usize,
    to_close: bool,
) -> Result<Vec<u8>, HttpError> {
    let header = |name: &str| headers.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let mut body = Vec::new();
    if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        loop {
            let line = read_line(reader, "chunk size line")?;
            let digits = line.split(';').next().unwrap_or_default().trim();
            let size = usize::from_str_radix(digits, 16)
                .map_err(|_| framing(400, format!("bad chunk size `{line}`")))?;
            if size == 0 {
                read_headers(reader)?; // trailers, discarded
                return Ok(body);
            }
            append(reader, size, max_body, &mut body)?;
            if !read_line(reader, "chunk terminator")?.is_empty() {
                return Err(framing(400, "chunk data overruns its size"));
            }
        }
    }
    match header("content-length") {
        Some(text) => {
            let len = text
                .parse()
                .map_err(|_| framing(400, format!("unparseable Content-Length `{text}`")))?;
            append(reader, len, max_body, &mut body)?;
        }
        None if to_close => {
            reader.read_to_end(&mut body)?;
        }
        None => {}
    }
    Ok(body)
}

/// Reads one request with a body of at most `max_body` bytes. A
/// [`HttpError::Framing`] carries the status to answer.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let line = read_line(reader, "request line")?;
    let (method, target) = match line.split(' ').collect::<Vec<_>>()[..] {
        [method, target, version] if version.starts_with("HTTP/") => {
            (method.to_string(), target.to_string())
        }
        _ => return Err(framing(400, format!("malformed request line `{line}`"))),
    };
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers, max_body, false)?;
    Ok(Request {
        method,
        target,
        body,
    })
}

/// Reads one response. Its body is unbounded: the peer is the server the
/// caller chose to ask.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, HttpError> {
    let line = read_line(reader, "status line")?;
    let status = match line.split(' ').collect::<Vec<_>>()[..] {
        [version, code, ..] if version.starts_with("HTTP/") && code.len() == 3 => code.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| framing(400, format!("malformed status line `{line}`")))?;
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers, usize::MAX, true)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// One request on a fresh connection to `addr` (`host:port`), trying each
/// address it resolves to. A body is sent as `application/json`, in the
/// same write as the head. `timeout` bounds the connect and every read and
/// write. Any well-formed response, error statuses included, is `Ok`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response, HttpError> {
    let mut stream = Err(std::io::ErrorKind::AddrNotAvailable.into());
    for sock_addr in addr.to_socket_addrs()? {
        stream = TcpStream::connect_timeout(&sock_addr, timeout);
        if stream.is_ok() {
            break;
        }
    }
    let stream = stream?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut message = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    match body {
        Some(body) => message.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )),
        None => message.push_str("\r\n"),
    }
    (&stream).write_all(message.as_bytes())?;
    read_response(&mut BufReader::new(stream))
}

/// A response head up to its final CRLF: status line, `Content-Type`,
/// the body-framing header, `Connection: close`.
fn head(status: u16, content_type: &str, framing_header: &str) -> String {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Response",
    };
    format!("HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n{framing_header}\r\nConnection: close\r\n")
}

/// Writes a complete fixed-length response in one write. `extra_headers`
/// are raw `Name: value` lines (no CRLF).
pub fn respond(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[String],
    body: &str,
) -> std::io::Result<()> {
    let mut message = head(
        status,
        content_type,
        &format!("Content-Length: {}", body.len()),
    );
    for header in extra_headers {
        message.push_str(header);
        message.push_str("\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    w.write_all(message.as_bytes())
}

/// Starts a chunked response; follow with [`write_chunk`] and
/// [`finish_chunks`].
pub fn start_chunked(w: &mut impl Write, status: u16, content_type: &str) -> std::io::Result<()> {
    w.write_all((head(status, content_type, "Transfer-Encoding: chunked") + "\r\n").as_bytes())
}

/// Writes one chunk in one write (empty data is skipped — a zero-length
/// chunk would terminate the body).
pub fn write_chunk(w: &mut impl Write, data: &str) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    w.write_all(format!("{:x}\r\n{data}\r\n", data.len()).as_bytes())
}

/// Terminates a chunked body.
pub fn finish_chunks(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(b"0\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(raw: &[u8]) -> Result<Response, HttpError> {
        read_response(&mut &raw[..])
    }

    fn status_of(result: Result<impl fmt::Debug, HttpError>) -> u16 {
        match result {
            Err(HttpError::Framing(status, _)) => status,
            other => panic!("expected a framing error, got {other:?}"),
        }
    }

    fn header_of<'a>(r: &'a Response, name: &str) -> Option<&'a str> {
        r.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn parses_content_length_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let r = response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{}");
        assert_eq!(header_of(&r, "content-type"), Some("application/json"));
        // Bytes are sliced first; one declared byte of the two-byte `é`
        // is a body, and checking it is UTF-8 is the caller's job.
        let r = response(b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n\xc3\xa9").unwrap();
        assert_eq!(r.body, [0xc3]);
    }

    #[test]
    fn parses_chunked_response() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\na,b\r\n4\r\n\n1,2\r\n0\r\n\r\n";
        assert_eq!(response(raw).unwrap().body, b"a,b\n1,2");
    }

    #[test]
    fn truncated_responses_error() {
        assert!(response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(response(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").is_err());
        // The largest 64-bit chunk size: no length arithmetic may overflow.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nabc";
        assert_eq!(status_of(response(raw)), 400);
    }

    #[test]
    fn response_without_length_runs_to_close() {
        let r = response(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\nlater").unwrap();
        assert_eq!((r.status, &r.body[..]), (429, &b"later"[..]));
        assert_eq!(header_of(&r, "retry-after"), Some("1"));
    }

    #[test]
    fn head_caps_answer_431() {
        let long = format!(
            "GET / HTTP/1.1\r\nX-Long: {}\r\n\r\n",
            "a".repeat(64 * 1024)
        );
        assert_eq!(status_of(read_request(&mut long.as_bytes(), 0)), 431);
        let at_cap = format!(
            "GET / HTTP/1.1\r\nX: {}\r\n\r\n",
            "a".repeat(MAX_LINE_BYTES - 5)
        );
        assert!(read_request(&mut at_cap.as_bytes(), 0).is_ok());

        let headers = |n: usize| {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            for i in 0..n {
                raw.push_str(&format!("X-{i}: v\r\n"));
            }
            raw + "\r\n"
        };
        assert!(read_request(&mut headers(MAX_HEADERS).as_bytes(), 0).is_ok());
        let over = headers(MAX_HEADERS + 1);
        assert_eq!(status_of(read_request(&mut over.as_bytes(), 0)), 431);
    }

    #[test]
    fn request_bodies_respect_the_limit_and_the_length() {
        let post =
            |len: &str| format!("POST /x?a=1 HTTP/1.1\r\nContent-Length: {len}\r\n\r\nhello");
        let r = read_request(&mut post("5").as_bytes(), 5).unwrap();
        assert_eq!((r.method.as_str(), r.target.as_str()), ("POST", "/x?a=1"));
        assert_eq!(r.body, b"hello");
        assert_eq!(status_of(read_request(&mut post("5").as_bytes(), 4)), 413);
        assert_eq!(
            status_of(read_request(&mut post("five").as_bytes(), 5)),
            400
        );
        assert_eq!(status_of(read_request(&mut post("6").as_bytes(), 9)), 400);
        let chunked = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;x=y\r\nhello\r\n0\r\nT: v\r\n\r\n";
        assert_eq!(read_request(&mut &chunked[..], 5).unwrap().body, b"hello");
        assert_eq!(status_of(read_request(&mut &chunked[..], 4)), 413);
    }

    #[test]
    fn writers_emit_the_service_bytes() {
        let mut out = Vec::new();
        respond(
            &mut out,
            429,
            "application/json",
            &["Retry-After: 1".into()],
            "{}",
        )
        .unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{}"
        );
        let r = response(&out).unwrap();
        assert_eq!((r.status, &r.body[..]), (429, &b"{}"[..]));

        let mut out = Vec::new();
        start_chunked(&mut out, 200, "text/csv").unwrap();
        for chunk in ["a,b\n", "", "1,2\n"] {
            write_chunk(&mut out, chunk).unwrap();
        }
        finish_chunks(&mut out).unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n4\r\na,b\n\r\n4\r\n1,2\n\r\n0\r\n\r\n"
        );
        assert_eq!(response(&out).unwrap().body, b"a,b\n1,2\n");
    }

    /// Tiny splitmix64 step, mirroring the `qsc-json` property tests (no
    /// `proptest` in the tree).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn mutated_messages_yield_typed_errors_only() {
        const CORPUS: [&[u8]; 5] = [
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\na,b\r\n4\r\n\n1,2\r\n0\r\n\r\n",
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\nclose-delimited",
            b"POST /v1/sweeps?scale=quick HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello",
            b"POST /v1/exec HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;x=y\r\nhello\r\n0\r\nT: v\r\n\r\n",
        ];
        const TOKENS: [&[u8]; 9] = [
            b"\r\n",
            b"\r\n\r\n",
            b":",
            b"ffffffffffffffff",
            b"99999999999999999999",
            b"-1",
            b"\xc3",
            b"Transfer-Encoding: chunked\r\n",
            b"Content-Length: 7\r\n",
        ];
        let mut state = 0x4854_5450u64;
        for case in 0..20_000 {
            let mut raw = CORPUS[case % CORPUS.len()].to_vec();
            for _ in 0..1 + splitmix(&mut state) % 4 {
                let r = splitmix(&mut state);
                let at = (r >> 8) as usize % (raw.len() + 1);
                match r % 5 {
                    0 => raw.truncate(at),
                    1 if at < raw.len() => raw[at] = (r >> 32) as u8,
                    2 => {
                        let token = TOKENS[(r >> 40) as usize % TOKENS.len()];
                        raw.splice(at..at, token.iter().copied());
                    }
                    3 => {
                        let end = (at + (r >> 48) as usize % 16).min(raw.len());
                        raw.drain(at..end);
                    }
                    _ => {
                        raw.splice(at..at, std::iter::repeat_n(b'a', MAX_LINE_BYTES));
                    }
                }
            }
            let outcome = std::panic::catch_unwind(|| {
                [
                    read_request(&mut &raw[..], 64).err(),
                    read_response(&mut &raw[..]).err(),
                ]
            });
            let errors = outcome.unwrap_or_else(|_| panic!("case {case} panicked on {raw:?}"));
            for e in errors.into_iter().flatten() {
                assert!(
                    matches!(e, HttpError::Framing(400 | 413 | 431, _)),
                    "case {case}: {e:?} on {raw:?}"
                );
            }
        }
    }
}
