//! A minimal, strict HTTP/1.1 codec over blocking `std::net` streams.
//!
//! This is a *service* codec, not a general web server: it understands
//! exactly what the TGI endpoints need — request line, headers,
//! `Content-Length` bodies, keep-alive — and rejects everything else
//! loudly. Every limit is enforced while reading, so a hostile or broken
//! peer cannot make the server buffer an unbounded request:
//!
//! * request line and each header line ≤ [`MAX_LINE_BYTES`];
//! * at most [`MAX_HEADERS`] headers;
//! * body ≤ the server's configured `max_body_bytes` (413 on overflow
//!   *before* reading the body, from the declared `Content-Length`);
//! * `Transfer-Encoding: chunked` is not implemented → 501.
//!
//! Parse failures map to typed [`HttpError`]s that the connection loop
//! converts into 4xx/5xx responses; they never panic.

use std::io::{self, BufRead, Write};

/// Longest accepted request/header line, bytes (incl. CRLF).
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a request line —
    /// the normal end of a keep-alive session, not an error to report.
    Closed,
    /// Transport error mid-request.
    Io(io::Error),
    /// The request violated the protocol; the detail is safe to echo.
    BadRequest(String),
    /// The declared body exceeds the configured limit.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured ceiling.
        limit: usize,
    },
    /// A protocol feature this codec does not implement (e.g. chunked
    /// transfer encoding).
    NotImplemented(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "I/O error: {e}"),
            HttpError::BadRequest(d) => write!(f, "bad request: {d}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::NotImplemented(what) => write!(f, "not implemented: {what}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl HttpError {
    /// The response a connection loop should answer with before closing.
    /// (`Closed`/`Io` sessions are already unwritable; they map to a 400
    /// for completeness.)
    pub fn to_response(&self) -> Response {
        let status = match self {
            HttpError::Closed | HttpError::Io(_) | HttpError::BadRequest(_) => 400,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::NotImplemented(_) => 501,
        };
        let mut response = Response::error(status, &self.to_string());
        response.close = true;
        response
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (e.g. `/traces/node0/energy`).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// First query value with the given key.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one line (up to CRLF or LF), rejecting lines over the cap.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF: a clean close only if nothing was read yet.
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadRequest("truncated line".into()));
        }
        let (consumed, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&buf[..pos]);
                (pos + 1, true)
            }
            None => {
                line.extend_from_slice(buf);
                (buf.len(), false)
            }
        };
        reader.consume(consumed);
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::BadRequest(format!("line exceeds {MAX_LINE_BYTES} bytes")));
        }
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(
                String::from_utf8(line).map_err(|_| {
                    HttpError::BadRequest("header bytes are not valid UTF-8".into())
                })?,
            ));
        }
    }
}

/// Decodes `%xx` escapes and `+` in a query component. A `%` decodes
/// only when exactly two ASCII hex digits follow it; otherwise it stays a
/// literal `%`.
fn url_decode(s: &str) -> String {
    fn hex(b: u8) -> Option<u8> {
        (b as char).to_digit(16).map(|d| d as u8)
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                (Some(hi), Some(lo)) => {
                    out.push(hi << 4 | lo);
                    i += 2;
                }
                _ => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The declared body length. Every `Content-Length` header must be plain
/// ASCII digits, and repeats must agree: a framing the peer and a proxy
/// could read two ways is refused rather than guessed.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut declared = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        let len = Some(value)
            .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| HttpError::BadRequest(format!("invalid content-length `{value}`")))?;
        if declared.is_some_and(|d| d != len) {
            return Err(HttpError::BadRequest("conflicting content-length headers".into()));
        }
        declared = Some(len);
    }
    Ok(declared)
}

/// Reads and validates one request from `reader`.
///
/// `max_body_bytes` caps the accepted `Content-Length`; the body is only
/// read once the declaration passes the check, so an oversized upload is
/// rejected without buffering it.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body_bytes: usize,
) -> Result<Request, HttpError> {
    let request_line = match read_line(reader)? {
        Some(line) => line,
        None => return Err(HttpError::Closed),
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target =
        parts.next().ok_or_else(|| HttpError::BadRequest("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version `{version}`")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!("target must be absolute, got `{target}`")));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let query = raw_query
        .map(|q| {
            q.split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (url_decode(k), url_decode(v)),
                    None => (url_decode(kv), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader)? {
            Some(line) => line,
            None => return Err(HttpError::BadRequest("connection closed mid-headers".into())),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::BadRequest(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request =
        Request { method, path: url_decode(raw_path), query, headers, body: Vec::new() };

    if request.header("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(HttpError::NotImplemented("transfer-encoding"));
    }
    if let Some(declared) = content_length(&request.headers)? {
        if declared > max_body_bytes {
            return Err(HttpError::BodyTooLarge { declared, limit: max_body_bytes });
        }
        let mut body = vec![0u8; declared];
        io::Read::read_exact(reader, &mut body)?;
        request.body = body;
    }
    Ok(request)
}

/// One response, written with `Content-Length` framing.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: String,
    /// Whether to close the connection after writing.
    pub close: bool,
    /// When set, a `Retry-After: <seconds>` header is emitted — the
    /// standard backoff hint on `429`/`503` answers.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Response { status, content_type: "application/json", body, close: false, retry_after: None }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into(),
            close: false,
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After` hint (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let escaped: String =
            serde_json::to_string(&message.to_string()).unwrap_or_else(|_| "\"error\"".to_string());
        Response::json(status, format!("{{\"error\":{escaped}}}"))
    }

    /// The standard reason phrase for this response's status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "",
        }
    }

    /// Writes the response with explicit framing headers. The status
    /// line, headers and body are formatted into one buffer and handed to
    /// `writer` in a single `write_all`: the server's sockets run with
    /// Nagle off, so every separate write would leave as its own segment.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        /// The status line and headers at their longest (20-digit
        /// numbers), not counting the content type's value.
        const HEAD_BYTES: usize = 160;
        let mut out = Vec::with_capacity(HEAD_BYTES + self.content_type.len() + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        )?;
        if let Some(seconds) = self.retry_after {
            write!(out, "retry-after: {seconds}\r\n")?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        writer.write_all(&out)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut raw.as_bytes(), 1024)
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /traces/node0/energy?from=1.5&to=9 HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("valid");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/traces/node0/energy");
        assert_eq!(r.query_value("from"), Some("1.5"));
        assert_eq!(r.query_value("to"), Some("9"));
        assert_eq!(r.header("host"), Some("x"));
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse("POST /evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").expect("valid");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\"");
    }

    #[test]
    fn clean_close_is_distinguished_from_garbage() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(parse("garbage\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse("GET\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse("GET /x SPDY/99\r\n\r\n"), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn oversized_body_is_rejected_from_the_declaration() {
        let err = parse("POST /evaluate HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { declared: 999999, limit: 1024 }));
    }

    #[test]
    fn invalid_content_length_is_a_bad_request() {
        // Only ASCII digits: `usize::from_str` alone would take `+5`.
        for len in ["banana", "+5", "-5", "5x", ""] {
            let raw = format!("POST /evaluate HTTP/1.1\r\nContent-Length: {len}\r\n\r\nhello");
            assert!(matches!(parse(&raw), Err(HttpError::BadRequest(_))), "`{len}`");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_a_bad_request() {
        let raw = "POST /evaluate HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(parse(raw), Err(HttpError::BadRequest(_))));
        // Repeats that agree frame the body one way only.
        let raw = "POST /evaluate HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(raw).expect("agreeing repeats").body, b"hello");
    }

    #[test]
    fn chunked_encoding_is_not_implemented() {
        assert!(matches!(
            parse("POST /evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::NotImplemented(_))
        ));
    }

    #[test]
    fn header_flood_is_bounded() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(&raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn long_line_is_bounded() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 10));
        assert!(matches!(parse(&raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn url_decoding_handles_escapes() {
        assert_eq!(url_decode("a%20b+c"), "a b c");
        assert_eq!(url_decode("100%"), "100%");
        assert_eq!(url_decode("%zz"), "%zz");
        assert_eq!(url_decode("%41%2f"), "A/");
        // Two hex digits or no escape: `u8::from_str_radix` alone would
        // read the sign in `%+f` and yield byte 0x0F.
        assert_eq!(url_decode("%+f"), "% f");
        assert_eq!(url_decode("%-1x"), "%-1x");
    }

    /// A writer that accepts every byte and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_reaches_the_writer_in_one_write() {
        let cases = [
            (
                Response::json(200, "{\"tgi\":1.5}".to_string()),
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\
                 connection: keep-alive\r\n\r\n{\"tgi\":1.5}",
            ),
            (
                HttpError::BadRequest("bad".into()).to_response(),
                "HTTP/1.1 400 Bad Request\r\ncontent-type: application/json\r\n\
                 content-length: 28\r\nconnection: close\r\n\r\n{\"error\":\"bad request: bad\"}",
            ),
            (
                Response::error(429, "server overloaded, retry later").with_retry_after(1),
                "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
                 content-length: 42\r\nconnection: keep-alive\r\nretry-after: 1\r\n\r\n\
                 {\"error\":\"server overloaded, retry later\"}",
            ),
        ];
        for (response, framing) in cases {
            let mut out = CountingWriter::default();
            response.write_to(&mut out).unwrap();
            assert_eq!(String::from_utf8(out.bytes).unwrap(), framing);
            assert_eq!(out.writes, 1, "{framing}");
        }
    }

    #[test]
    fn response_writes_framing() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_string()).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        assert!(!text.contains("retry-after"), "{text}");
    }

    #[test]
    fn retry_after_header_is_emitted_when_set() {
        let mut out = Vec::new();
        Response::error(429, "overloaded").with_retry_after(2).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("retry-after: 2\r\n"), "{text}");
        // The hint stays inside the header block, before the blank line.
        let header_block = text.split("\r\n\r\n").next().unwrap();
        assert!(header_block.contains("retry-after: 2"), "{text}");
    }
}
