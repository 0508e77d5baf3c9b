//! A minimal, allocation-bounded HTTP/1.1 layer.
//!
//! The build environment is fully offline, so there is no hyper/tokio:
//! this module implements exactly the subset the recommendation daemon
//! needs — request parsing with hard limits on line, header and body
//! sizes (a malicious peer can never make the parser allocate more than
//! [`Limits`] allows or panic), percent-decoded query strings, and a
//! response writer. Connections are plain blocking [`std::net::TcpStream`]s;
//! keep-alive is supported by calling [`parse_request`] in a loop.

use std::io::{BufRead, Read, Write};

/// Hard upper bounds the parser enforces on incoming requests.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Longest accepted request/header line, bytes (excluding CRLF).
    pub max_line_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum accepted `Content-Length`, bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self { max_line_bytes: 8 * 1024, max_headers: 64, max_body_bytes: 64 * 1024 }
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Transport-level read failure (includes idle keep-alive timeouts).
    Io(std::io::ErrorKind),
    /// The peer closed the connection mid-request.
    Truncated,
    /// A line, the header block, or the body exceeded [`Limits`].
    TooLarge(&'static str),
    /// Syntactically invalid request.
    Malformed(String),
    /// Syntactically valid but unsupported (e.g. `Transfer-Encoding`).
    Unsupported(&'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(kind) => write!(f, "read error: {kind:?}"),
            ParseError::Truncated => write!(f, "connection closed mid-request"),
            ParseError::TooLarge(what) => write!(f, "{what} exceeds the configured limit"),
            ParseError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ParseError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl ParseError {
    /// The HTTP status code this error maps to (0 when the connection
    /// should be dropped without a response, e.g. an idle timeout).
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Io(_) => 0,
            ParseError::Truncated => 400,
            ParseError::TooLarge("body") => 413,
            ParseError::TooLarge(_) => 431,
            ParseError::Malformed(_) => 400,
            ParseError::Unsupported(_) => 501,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (before `?`).
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// First header named `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read one line terminated by `\n` (optionally `\r\n`), enforcing `max`.
/// Returns `Ok(None)` on clean EOF before any byte.
fn read_line(reader: &mut impl BufRead, max: usize) -> Result<Option<String>, ParseError> {
    let mut buf: Vec<u8> = Vec::new();
    // `take` caps how much a hostile peer can make us buffer for one line:
    // the limit plus room for the terminator.
    let mut limited = reader.take(max as u64 + 2);
    let n = limited.read_until(b'\n', &mut buf).map_err(|e| ParseError::Io(e.kind()))?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return if buf.len() >= max {
            Err(ParseError::TooLarge("request line or header"))
        } else {
            Err(ParseError::Truncated)
        };
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    if buf.len() > max {
        return Err(ParseError::TooLarge("request line or header"));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ParseError::Malformed("non-UTF-8 bytes in request head".into()))
}

/// Decode `%XX` escapes and `+` (space) in a query component. Invalid
/// escapes are passed through literally rather than rejected.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split a request target into path and decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();
    (path.to_string(), pairs)
}

/// Parse one HTTP/1.x request from `reader`. Returns `Ok(None)` when the
/// peer closed the connection cleanly before sending anything (normal end
/// of a keep-alive session). Never panics, whatever the input bytes.
pub fn parse_request(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<Request>, ParseError> {
    let Some(request_line) = read_line(reader, limits.max_line_bytes)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ').filter(|s| !s.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::Malformed(format!("bad request line {request_line:?}"))),
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed(format!("bad method {method:?}")));
    }
    if !(version == "HTTP/1.1" || version == "HTTP/1.0") {
        return Err(ParseError::Malformed(format!("bad HTTP version {version:?}")));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Malformed(format!("bad request target {target:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, limits.max_line_bytes)?.ok_or(ParseError::Truncated)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(ParseError::TooLarge("header count"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header line {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ParseError::Unsupported("Transfer-Encoding"));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed(format!("bad Content-Length {v:?}")))?,
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return Err(ParseError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ParseError::Truncated
            } else {
                ParseError::Io(e.kind())
            }
        })?;
    }

    let (path, query) = parse_target(target);
    Ok(Some(Request { method: method.to_string(), path, query, headers, body }))
}

/// An outgoing HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Reason phrase for the status codes the daemon emits.
fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            reason: reason_for(status),
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            reason: reason_for(status),
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialize the response (status line, headers, body) to `w` in one
    /// `write_all`, so a `TCP_NODELAY` socket sends head and body together.
    /// `keep_alive` picks the `Connection` header.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(160 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, ParseError> {
        parse_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let req = parse(b"GET /recommend?model=Llama-2-7b&users=200 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/recommend");
        assert_eq!(req.query_param("model"), Some("Llama-2-7b"));
        assert_eq!(req.query_param("users"), Some("200"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_percent_and_plus_escapes() {
        let req = parse(b"GET /r?model=bigcode%2Fstarcoder&note=a+b%20c HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("model"), Some("bigcode/starcoder"));
        assert_eq!(req.query_param("note"), Some("a b c"));
    }

    #[test]
    fn invalid_percent_escapes_pass_through() {
        assert_eq!(percent_decode("a%ZZb%"), "a%ZZb%");
        assert_eq!(percent_decode("%2"), "%2");
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse(b"POST /reload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(parse(b"").unwrap(), None);
    }

    #[test]
    fn truncated_requests_error() {
        assert_eq!(parse(b"GET / HTTP/1.1\r\nHost:"), Err(ParseError::Truncated));
        assert_eq!(parse(b"GET / HTTP/1.1\r\n"), Err(ParseError::Truncated));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ParseError::Truncated)
        );
    }

    #[test]
    fn malformed_requests_error() {
        assert!(matches!(parse(b"banana\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(parse(b"get / HTTP/1.1\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(parse(b"GET / SPDY/3\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(parse(b"GET x HTTP/1.1\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(parse(b"GET /\xff\xfe HTTP/1.1\r\n\r\n"), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn oversized_inputs_are_bounded() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert_eq!(
            parse(long_line.as_bytes()),
            Err(ParseError::TooLarge("request line or header"))
        );

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            many_headers.push_str(&format!("x-h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert_eq!(parse(many_headers.as_bytes()), Err(ParseError::TooLarge("header count")));

        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"),
            Err(ParseError::TooLarge("body"))
        );
    }

    #[test]
    fn transfer_encoding_is_unsupported() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::Unsupported("Transfer-Encoding"))
        );
    }

    #[test]
    fn parse_error_statuses() {
        assert_eq!(ParseError::Truncated.status(), 400);
        assert_eq!(ParseError::TooLarge("body").status(), 413);
        assert_eq!(ParseError::TooLarge("header count").status(), 431);
        assert_eq!(ParseError::Malformed("x".into()).status(), 400);
        assert_eq!(ParseError::Unsupported("x").status(), 501);
        assert_eq!(ParseError::Io(std::io::ErrorKind::TimedOut).status(), 0);
    }

    #[test]
    fn response_serializes() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    /// A writer that records every `write` call and every byte.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_is_one_write_with_unchanged_bytes() {
        let response = Response::text(503, "busy").with_header("Retry-After", "1");
        for keep_alive in [true, false] {
            let mut w = CountingWriter::default();
            response.write_to(&mut w, keep_alive).unwrap();
            assert_eq!(w.writes, 1);
            let connection = if keep_alive { "keep-alive" } else { "close" };
            let expected = format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: 4\r\nConnection: {connection}\r\nRetry-After: 1\r\n\r\nbusy"
            );
            assert_eq!(String::from_utf8(w.bytes).unwrap(), expected);
        }
    }

    #[test]
    fn keep_alive_sessions_parse_back_to_back_requests() {
        let bytes = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        let mut cursor = Cursor::new(bytes);
        let limits = Limits::default();
        let first = parse_request(&mut cursor, &limits).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let second = parse_request(&mut cursor, &limits).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive());
        assert_eq!(parse_request(&mut cursor, &limits).unwrap(), None);
    }
}
