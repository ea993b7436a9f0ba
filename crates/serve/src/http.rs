//! A minimal, defensive HTTP/1.1 reader/writer.
//!
//! Just enough protocol for the serving endpoints — and no more, because
//! every feature is attack surface. The parser is strict about limits
//! (request-line and header sizes, header count, body size) and maps every
//! failure to a precise [`HttpError`] so the connection loop can answer with
//! the right status code and close cleanly. A read that runs out of its
//! request's time budget surfaces as [`HttpError::Timeout`], which is how
//! slow-loris clients get disconnected instead of pinning a handler.

use std::io::{self, BufRead, Write};

/// Longest accepted request line or single header line, in bytes.
pub(crate) const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted on one request.
pub(crate) const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes.
pub(crate) const MAX_BODY: usize = 64 * 1024;

/// Why a request could not be read. Each variant maps to one wire behaviour.
#[derive(Debug)]
pub enum HttpError {
    /// Clean end-of-stream before any request byte: close silently.
    Eof,
    /// The socket read timed out mid-request (slow-loris): 408, close.
    Timeout,
    /// The bytes do not parse as HTTP: 400, close.
    Malformed(String),
    /// A protocol limit was exceeded; the payload says which: 431 for
    /// header-side limits, 413 for the body.
    TooLarge(&'static str),
    /// The transport failed (reset, broken pipe): close silently.
    Io(io::Error),
}

fn map_io(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Method token, verbatim (`GET`, `POST`, or corrupt garbage — the
    /// router rejects what it doesn't know).
    pub method: String,
    /// Path without the query string, e.g. `/v1/similar`.
    pub path: String,
    /// Decoded `key=value` query parameters, last occurrence wins.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Query parameter lookup.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to drop the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read one line (LF-terminated, CR stripped) with a byte cap. `Ok(None)`
/// means clean EOF before the first byte of the line.
fn read_line_limited(
    r: &mut impl BufRead,
    cap: usize,
    what: &'static str,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf().map_err(map_io)?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("unterminated line at EOF".into()));
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            r.consume(pos + 1);
            if line.len() > cap {
                return Err(HttpError::TooLarge(what));
            }
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let s = String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-UTF-8 bytes in line".into()))?;
            return Ok(Some(s));
        }
        line.extend_from_slice(buf);
        let n = buf.len();
        r.consume(n);
        if line.len() > cap {
            return Err(HttpError::TooLarge(what));
        }
    }
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// Read and parse one request. Call in a loop for keep-alive connections;
/// [`HttpError::Eof`] is the clean "client is done" signal.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let line = match read_line_limited(r, MAX_LINE, "request line")? {
        Some(l) => l,
        None => return Err(HttpError::Eof),
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version: {version:?}")));
    }
    // Corrupt frames routinely land here as garbage method tokens; a
    // non-alphanumeric byte can never start a real method.
    if method.bytes().any(|b| !b.is_ascii_alphanumeric()) {
        return Err(HttpError::Malformed(format!("bad method: {method:?}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = match read_line_limited(r, MAX_LINE, "header line")? {
            Some(l) => l,
            None => return Err(HttpError::Malformed("EOF inside headers".into())),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("header count"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length: {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge("body"));
    }
    if content_length > 0 {
        body.resize(content_length, 0);
        r.read_exact(&mut body).map_err(map_io)?;
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// A response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Attach an extra header.
    pub(crate) fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }

    /// Serialize onto the wire in one write. `close` controls the
    /// `Connection` header.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason_for(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Canonical reason phrase for the statuses the server emits.
pub(crate) fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /v1/similar?company=7&k=5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/similar");
        assert_eq!(req.param("company"), Some("7"));
        assert_eq!(req.param("k"), Some("5"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_body_and_connection_close() {
        let req = parse(
            b"POST /admin/swap HTTP/1.1\r\nContent-Length: 4\r\nConnection: Close\r\n\r\nwarm",
        )
        .unwrap();
        assert_eq!(req.body, b"warm");
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_not_an_error_to_report() {
        assert!(matches!(parse(b""), Err(HttpError::Eof)));
    }

    #[test]
    fn corrupt_request_line_is_malformed() {
        assert!(matches!(
            parse(b"G\x00T / HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_header_is_431_material() {
        let mut raw = b"GET / HTTP/1.1\r\nx-big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(
            parse(&raw),
            Err(HttpError::TooLarge("header line"))
        ));
    }

    #[test]
    fn oversized_body_is_413_material() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(raw.as_bytes()),
            Err(HttpError::TooLarge("body"))
        ));
    }

    #[test]
    fn too_many_headers_are_shed() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            raw.extend_from_slice(format!("x-{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(
            parse(&raw),
            Err(HttpError::TooLarge("header count"))
        ));
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(503, "{\"error\":\"overloaded\"}".into())
            .with_header("retry-after", "1".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 22\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"overloaded\"}"));
    }

    #[test]
    fn keep_alive_reads_two_requests_from_one_stream() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert_eq!(read_request(&mut r).unwrap().path, "/a");
        assert_eq!(read_request(&mut r).unwrap().path, "/b");
        assert!(matches!(read_request(&mut r), Err(HttpError::Eof)));
    }

    use proptest::prelude::*;

    /// A request using every part of the grammar: query, headers and body.
    const VALID: &[u8] = b"POST /v1/recommend?history=0,2&top=3 HTTP/1.1\r\n\
        Host: x\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";

    /// Parse `bytes` from a reader refilled `capacity` bytes at a time, so
    /// lines and the body also split across refills. Reaching the return
    /// means no panic; the result is `Ok` or a typed [`HttpError`], and a
    /// parsed body must fit [`MAX_BODY`].
    fn parse_bounded(bytes: &[u8], capacity: usize) -> Result<Request, HttpError> {
        let parsed = read_request(&mut BufReader::with_capacity(capacity, bytes));
        if let Ok(req) = &parsed {
            assert!(req.body.len() <= MAX_BODY, "{} byte body", req.body.len());
        }
        parsed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_bytes_never_panic_the_parser(
            capacity in 1usize..64,
            bytes in prop::collection::vec(0u8..=255, 0..2048),
        ) {
            let _ = parse_bounded(&bytes, capacity);
        }

        #[test]
        fn every_truncation_of_a_valid_request_is_an_error(capacity in 1usize..64) {
            prop_assert!(parse_bounded(VALID, capacity).is_ok());
            for len in 0..VALID.len() {
                prop_assert!(
                    parse_bounded(&VALID[..len], capacity).is_err(),
                    "truncation to {len} of {} bytes parsed",
                    VALID.len()
                );
            }
        }

        #[test]
        fn single_bit_flips_of_a_valid_request_never_panic_the_parser(capacity in 1usize..64) {
            for bit in 0..VALID.len() * 8 {
                let mut bytes = VALID.to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                let _ = parse_bounded(&bytes, capacity);
            }
        }
    }
}
