//! Minimal HTTP/1.1 wire handling: a hand-rolled request parser and a
//! response serializer, std-only (mirroring the JSON work in `twocs-obs`).
//!
//! Scope is deliberately narrow — the service speaks exactly the subset
//! it needs:
//!
//! * `GET` and `HEAD` requests (anything else is answered `405` with an
//!   `Allow: GET, HEAD` header);
//! * request heads are capped at exactly [`MAX_HEAD_BYTES`] (`431`
//!   beyond that — the cap is enforced on buffered bytes, so a client
//!   can never get the server to hold more than the cap);
//! * HTTP/1.1 keep-alive: the connection default follows the request
//!   version (`1.1` persists, `1.0` closes) and the `Connection` header
//!   overrides it either way;
//! * request bodies are ignored (a `GET` query service has no use for
//!   them).
//!
//! Parsing is **incremental**: the event loop accumulates bytes into a
//! per-connection buffer and calls [`scan_head`] after every read; the
//! scanner either finds the `\r\n\r\n` terminator and parses, reports
//! the head still partial, or reports the cap exceeded. This is what
//! lets one thread multiplex hundreds of half-arrived requests without
//! blocking on any of them.

/// Maximum accepted size of a request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request head: everything the router and handlers need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method, uppercase as received (`GET`, `HEAD`, `POST`, ...).
    pub method: String,
    /// Decoded-later path component, e.g. `/v1/serialized`.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub raw_query: String,
    /// Whether the connection must close after this response: requested
    /// via `Connection: close`, or implied by HTTP/1.0 without
    /// `Connection: keep-alive`.
    pub close: bool,
}

impl Request {
    /// A plain HTTP/1.1 `GET` (keep-alive), convenient for tests and
    /// benches that call handlers directly.
    #[must_use]
    pub fn get(path: &str, raw_query: &str) -> Self {
        Self {
            method: "GET".to_owned(),
            path: path.to_owned(),
            raw_query: raw_query.to_owned(),
            close: false,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The connection sat idle past its deadline mid-head.
    Timeout,
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The bytes were not a plausible HTTP/1.x request.
    Malformed(String),
    /// The connection failed mid-read.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code this error should be answered with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Timeout => 408,
            HttpError::HeadTooLarge => 431,
            HttpError::Malformed(_) => 400,
            HttpError::Io(_) => 400,
        }
    }

    /// Human-oriented description for the error body.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            HttpError::Timeout => "timed out reading the request".to_owned(),
            HttpError::HeadTooLarge => {
                format!("request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::Malformed(m) => m.clone(),
            HttpError::Io(e) => format!("connection error: {e}"),
        }
    }
}

/// Result of scanning a connection buffer for one request head.
#[derive(Debug)]
pub enum HeadScan {
    /// A full head was present: the parse outcome plus the number of
    /// buffer bytes it consumed (strip them before scanning for the
    /// next pipelined request).
    Complete(Result<Request, HttpError>, usize),
    /// No terminator yet and room left under the cap — keep reading.
    Partial,
    /// [`MAX_HEAD_BYTES`] buffered without a terminator: answer `431`.
    TooLarge,
}

/// Incrementally scan `buf` for a complete request head.
///
/// The cap check is on *buffered* bytes, so callers that also cap their
/// reads at `MAX_HEAD_BYTES - buf.len()` enforce the limit exactly: a
/// head of `MAX_HEAD_BYTES` parses, one byte more is rejected.
#[must_use]
pub fn scan_head(buf: &[u8]) -> HeadScan {
    match find_head_end(buf) {
        Some(end) => HeadScan::Complete(parse_head(&buf[..end]), end),
        None if buf.len() >= MAX_HEAD_BYTES => HeadScan::TooLarge,
        None => HeadScan::Partial,
    }
}

/// Byte offset just past the `\r\n\r\n` terminator, if present.
fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let end = find_head_end(head).unwrap_or(head.len());
    let text = std::str::from_utf8(&head[..end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".to_owned()))?;
    let mut lines = text.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".to_owned()))?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".to_owned()))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".to_owned()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".to_owned()))?;
    // Exactly `HTTP/1.<digit>` — a bare prefix test would wave through
    // garbage like `HTTP/1.1x` or `HTTP/1.999`.
    let minor = match version.strip_prefix("HTTP/1.") {
        Some(m) if m.len() == 1 && m.as_bytes()[0].is_ascii_digit() => m.as_bytes()[0] - b'0',
        _ => {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol `{version}`"
            )))
        }
    };
    if !target.starts_with('/') {
        return Err(HttpError::Malformed(format!(
            "request target `{target}` must be origin-form (start with `/`)"
        )));
    }
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    // Persistence: HTTP/1.0 closes unless `keep-alive` is requested;
    // HTTP/1.1+ persists unless `close` is requested.
    let mut close = minor == 0;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if !name.trim().eq_ignore_ascii_case("connection") {
            continue;
        }
        for token in value.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("close") {
                close = true;
            } else if token.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        }
    }
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        raw_query: raw_query.to_owned(),
        close,
    })
}

/// An HTTP response ready to be serialized to a socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (`200`, `400`, `503`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// `Allow` header value, required on `405` responses.
    pub allow: Option<&'static str>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into(),
            allow: None,
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            allow: None,
        }
    }

    /// A CSV response.
    #[must_use]
    pub fn csv(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/csv; charset=utf-8",
            body: body.into(),
            allow: None,
        }
    }

    /// A JSON error body `{"error": "..."}` under `status`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\":\"{}\"}}",
                twocs_obs::chrome::escape_json(message)
            ),
        )
    }

    /// Attach an `Allow` header (RFC 9110 requires one on `405`).
    #[must_use]
    pub fn with_allow(mut self, allow: &'static str) -> Self {
        self.allow = Some(allow);
        self
    }

    /// Serialize to wire bytes: status line, `Content-Type`,
    /// `Content-Length`, optional `Allow`, `Connection`, body.
    ///
    /// `head_only` answers `HEAD`: identical header block — including
    /// the `Content-Length` of the full body — with no body bytes.
    #[must_use]
    pub fn to_bytes(&self, keep_alive: bool, head_only: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(allow) = self.allow {
            head.push_str("Allow: ");
            head.push_str(allow);
            head.push_str("\r\n");
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        let mut bytes = head.into_bytes();
        if !head_only {
            bytes.extend_from_slice(self.body.as_bytes());
        }
        bytes
    }
}

/// Canonical reason phrase for the status codes this service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        parse_head(raw.as_bytes())
    }

    #[test]
    fn parses_request_line_with_query() {
        let req = parse("GET /v1/serialized?h=4096&tp=16 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/serialized");
        assert_eq!(req.raw_query, "h=4096&tp=16");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_bare_path_without_query() {
        let req = parse("GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.raw_query, "");
        assert_eq!(req.path, "/v1/healthz");
    }

    #[test]
    fn connection_header_controls_persistence() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.close);
        let req = parse("GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n").unwrap();
        assert!(req.close, "header name and value are case-insensitive");
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.close, "HTTP/1.0 defaults to close");
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.close, "HTTP/1.0 + keep-alive persists");
        let req = parse("GET / HTTP/1.1\r\nConnection: foo, close\r\n\r\n").unwrap();
        assert!(req.close, "close is found in a token list");
    }

    #[test]
    fn rejects_non_http_preamble() {
        assert!(matches!(
            parse("NOT A REQUEST\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x SPDY/3\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET example.com/x HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_garbage_after_valid_version_prefix() {
        for version in ["HTTP/1.1x", "HTTP/1.", "HTTP/1.11", "HTTP/1.x"] {
            assert!(
                matches!(
                    parse(&format!("GET /v1/healthz {version}\r\n\r\n")),
                    Err(HttpError::Malformed(_))
                ),
                "`{version}` must be rejected"
            );
        }
        assert!(parse("GET /v1/healthz HTTP/1.0\r\n\r\n").is_ok());
        assert!(parse("GET /v1/healthz HTTP/1.1\r\n\r\n").is_ok());
    }

    #[test]
    fn scan_reports_partial_then_complete_with_consumed_length() {
        let wire = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /next";
        for cut in 1..37 {
            assert!(
                matches!(scan_head(&wire[..cut]), HeadScan::Partial),
                "split at {cut} must be partial"
            );
        }
        match scan_head(wire) {
            HeadScan::Complete(Ok(req), consumed) => {
                assert_eq!(req.path, "/v1/healthz");
                assert_eq!(consumed, 37, "pipelined tail must not be consumed");
            }
            other => panic!("expected complete head, got {other:?}"),
        }
    }

    #[test]
    fn head_cap_is_exact_at_the_boundary() {
        // Exactly MAX_HEAD_BYTES including the terminator: parses.
        let line = "GET /v1/healthz HTTP/1.1\r\n";
        let pad = MAX_HEAD_BYTES - line.len() - "x: \r\n\r\n".len();
        let head = format!("{line}x: {}\r\n\r\n", "p".repeat(pad));
        assert_eq!(head.len(), MAX_HEAD_BYTES);
        assert!(matches!(
            scan_head(head.as_bytes()),
            HeadScan::Complete(Ok(_), _)
        ));
        // MAX_HEAD_BYTES buffered with no terminator: too large, while
        // one byte fewer is still (correctly) just partial.
        let unterminated = vec![b'a'; MAX_HEAD_BYTES];
        assert!(matches!(scan_head(&unterminated), HeadScan::TooLarge));
        assert!(matches!(
            scan_head(&unterminated[..MAX_HEAD_BYTES - 1]),
            HeadScan::Partial
        ));
    }

    #[test]
    fn error_statuses_map_sensibly() {
        assert_eq!(HttpError::Timeout.status(), 408);
        assert_eq!(HttpError::HeadTooLarge.status(), 431);
        assert_eq!(HttpError::Malformed(String::new()).status(), 400);
    }

    #[test]
    fn response_error_bodies_are_json_escaped() {
        let r = Response::error(400, "bad \"h\" value");
        assert_eq!(r.body, "{\"error\":\"bad \\\"h\\\" value\"}");
        assert!(twocs_obs::json::validate(&r.body).is_ok());
    }

    #[test]
    fn to_bytes_covers_keep_alive_head_only_and_allow() {
        let r = Response::text(200, "hello");
        let close = String::from_utf8(r.to_bytes(false, false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(close.ends_with("\r\n\r\nhello"));
        let keep = String::from_utf8(r.to_bytes(true, false)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert!(keep.contains("Content-Length: 5\r\n"));
        let head = String::from_utf8(r.to_bytes(true, true)).unwrap();
        assert!(
            head.contains("Content-Length: 5\r\n") && head.ends_with("\r\n\r\n"),
            "HEAD keeps the full-body Content-Length but sends no body"
        );
        let denied = Response::error(405, "no").with_allow("GET, HEAD");
        let denied = String::from_utf8(denied.to_bytes(false, false)).unwrap();
        assert!(denied.contains("Allow: GET, HEAD\r\n"));
    }

    /// Mutate one of a few valid seeds with bit flips, truncation,
    /// appended bytes, and splices of escape and separator fragments.
    fn mutate(rng: &mut twocs_testkit::Rng, seeds: &[&[u8]]) -> Vec<u8> {
        const SPLICES: &[&[u8]] = &[
            b"%",
            b"%2",
            b"%zz",
            b"%C3",
            b"%C3%28",
            b"%FF",
            b"%00",
            b"+",
            b"&",
            b"&&",
            b"=",
            b"==",
            b"?",
            b"\r\n",
            b"\r\n\r\n",
            b":",
            b" ",
            b"\xC3",
            b"\xFF",
        ];
        let mut bytes = rng.choose(seeds).to_vec();
        for _ in 0..rng.usize_in(1..5) {
            let len = bytes.len();
            match rng.u32_in(0..4) {
                0 if len > 0 => {
                    let i = rng.usize_in(0..len);
                    bytes[i] ^= 1 << rng.u32_in(0..8);
                }
                1 => bytes.truncate(rng.usize_in(0..len + 1)),
                2 => {
                    let extra = rng.usize_in(1..16);
                    bytes.extend((0..extra).map(|_| rng.u32_in(0..256) as u8));
                }
                _ => {
                    let at = rng.usize_in(0..len + 1);
                    let splice = *rng.choose(SPLICES);
                    bytes.splice(at..at, splice.iter().copied());
                }
            }
        }
        bytes
    }

    /// The head parser and the query parser read bytes straight off the
    /// network: on any mutation of a valid head or query string they
    /// answer `Ok` or `Err`, never panic.
    #[test]
    fn decoders_survive_mutated_heads_and_queries() {
        use crate::query::Query;
        let heads: &[&[u8]] = &[
            b"GET /v1/sweep?h=4096,16384&tp=16&flop_vs_bw=1.5,4&method=proj HTTP/1.1\r\nHost: x\r\n\r\n",
            b"HEAD /v1/healthz HTTP/1.0\r\nConnection: keep-alive, Upgrade\r\n\r\n",
            b"GET /v1/overlapped?h=4096&slb=2048 HTTP/1.1\r\nConnection: close\r\nX-A: b:c\r\n\r\n",
        ];
        let queries: &[&[u8]] = &[
            b"h=4096,16384&tp=16,32&flop_vs_bw=1,2.5&method=proj&format=json",
            b"name=a+b%21&h=4096%2C8192&journal=run-1",
            b"experts=1,8&top_k=2&stages=1,4&micro_batches=4&sp=1,2&workload=prefill",
        ];
        twocs_testkit::cases(3000, |rng| {
            let head = mutate(rng, heads);
            let _ = parse_head(&head);
            if let HeadScan::Complete(Ok(req), used) = scan_head(&head) {
                assert!(used <= head.len());
                let _ = Query::parse(&req.raw_query);
            }
            let raw = mutate(rng, queries);
            let Ok(q) = Query::parse(&String::from_utf8_lossy(&raw)) else {
                return;
            };
            for name in ["h", "tp", "flop_vs_bw", "name", "journal"] {
                let _ = (q.u64(name), q.f64(name));
            }
            let _ = twocs_core::GridSweep::parse_request(|name| q.get(name), str::to_owned);
            let _ = q.reject_unknown(&["h", "tp"]);
        });
    }
}
