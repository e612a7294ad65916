//! A minimal HTTP/1.1 wire layer.
//!
//! Hand-rolled on purpose: the build environment has no package registry,
//! so the server cannot pull in hyper/tokio — the same constraint that made
//! the workspace hand-roll its serde shims. The subset implemented here is
//! exactly what the service needs: incremental request parsing
//! ([`RequestParser`]) with `Content-Length` bodies, fixed-length
//! responses, and chunked transfer-encoding for streaming NDJSON sweeps.
//!
//! Connections are persistent (HTTP/1.1 keep-alive): the parser records
//! whether the peer allows reuse ([`Request::keep_alive`], from the
//! protocol version and the `Connection` header tokens), and every response
//! writer takes a `keep_alive` flag that advertises `Connection:
//! keep-alive` or `Connection: close` accordingly. The server's
//! per-connection request loop (idle timeout, bounded requests per
//! connection) lives in [`crate::server`].

use std::io::{IoSlice, Write};
use std::ops::Range;

use crate::ServeError;

/// Upper bound on the request line + headers, to bound memory per
/// connection.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (inline `System` descriptions are a few
/// KiB; this leaves generous headroom for large structured sweeps).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request in owned storage: method, path (query string
/// stripped), lowercased header names, and the full body. The event-loop
/// server copies a [`RequestRef`] into one only to hand it to another
/// thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercase as sent.
    pub method: String,
    /// Request path without the query string (`/v1/estimate`).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the peer allows this connection to serve another request:
    /// HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and a
    /// `Connection` header token (`close` / `keep-alive`) overrides the
    /// default either way.
    pub keep_alive: bool,
}

impl Request {
    /// The value of the first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }
}

/// A parsed HTTP request borrowed from the bytes it was parsed from, as
/// [`RequestParser::next_request`] returns it: the method, the path, the
/// headers and the body are slices of the caller's buffer, so parsing
/// copies nothing and builds no `String`. Headers are read from the head
/// on demand ([`RequestRef::header`]) rather than stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// Request method (`GET`, `POST`, …), uppercase as sent.
    pub method: &'a str,
    /// Request path without the query string (`/v1/estimate`).
    pub path: &'a str,
    /// The header lines of the head, between the request line and the
    /// blank line.
    header_lines: &'a str,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: &'a [u8],
    /// Whether the peer allows this connection to serve another request
    /// (see [`Request::keep_alive`]).
    pub keep_alive: bool,
}

impl<'a> RequestRef<'a> {
    /// The headers in arrival order, names as sent, both trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        // Every line was split once already, when the head was parsed.
        self.header_lines
            .lines()
            .filter_map(|line| split_header_line(line).ok())
    }

    /// The value of the first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value)
    }

    /// Copy the request into owned storage (header names lowercased).
    pub fn to_request(&self) -> Request {
        Request {
            method: self.method.to_owned(),
            path: self.path.to_owned(),
            headers: self
                .headers()
                .map(|(name, value)| (name.to_ascii_lowercase(), value.to_owned()))
                .collect(),
            body: self.body.to_vec(),
            keep_alive: self.keep_alive,
        }
    }
}

/// Resolve the connection-reuse semantics of one request or response from
/// its protocol version and `Connection` header (comma-separated tokens,
/// ASCII case-insensitive) — the single definition both the server's
/// request parser and the client's response parser apply. Per RFC 9112, a
/// `close` token always wins over `keep-alive`, regardless of token order.
pub fn keep_alive_semantics(version: &str, connection_header: Option<&str>) -> bool {
    let Some(tokens) = connection_header else {
        return version != "HTTP/1.0";
    };
    let mut keep_alive = None;
    for token in tokens.split(',') {
        let token = token.trim();
        if token.eq_ignore_ascii_case("close") {
            return false;
        }
        if token.eq_ignore_ascii_case("keep-alive") {
            keep_alive = Some(true);
        }
    }
    keep_alive.unwrap_or(version != "HTTP/1.0")
}

/// Look up the first header named `name` (ASCII case-insensitive) in a
/// parsed header list. Shared by the server's [`Request`] and the client's
/// `Response` so both sides apply identical lookup rules.
pub fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(key, _)| key.eq_ignore_ascii_case(name))
        .map(|(_, value)| value.as_str())
}

/// Split one `Name: value` header line at its first `:` into the trimmed
/// name and value — the single definition of the wire's header syntax.
fn split_header_line(line: &str) -> Result<(&str, &str), ServeError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| ServeError::Http(format!("malformed header line {line:?}")))?;
    Ok((name.trim(), value.trim()))
}

/// Parse one `Name: value` header line into a `(lowercased name, trimmed
/// value)` pair, as the client's response parser stores headers.
///
/// # Errors
///
/// Returns [`ServeError::Http`] when the line has no `:` separator.
pub fn parse_header_line(line: &str) -> Result<(String, String), ServeError> {
    let (name, value) = split_header_line(line)?;
    Ok((name.to_ascii_lowercase(), value.to_owned()))
}

/// Where a parsed head's parts lie within its bytes, and what the head
/// announced: the head is kept as offsets so a parser waiting for the body
/// holds no borrow of the connection buffer.
#[derive(Debug, Clone)]
struct Head {
    method: Range<usize>,
    path: Range<usize>,
    header_lines: Range<usize>,
    keep_alive: bool,
    body_len: usize,
}

impl Head {
    /// The request this head describes: `head` is the head's text and
    /// `body` its complete body.
    fn request<'a>(&self, head: &'a str, body: &'a [u8]) -> RequestRef<'a> {
        RequestRef {
            method: &head[self.method.clone()],
            path: &head[self.path.clone()],
            header_lines: &head[self.header_lines.clone()],
            body,
            keep_alive: self.keep_alive,
        }
    }
}

/// The byte range `part` (a subslice of `whole`) occupies in `whole`.
fn range_in(whole: &str, part: &str) -> Range<usize> {
    let start = part.as_ptr() as usize - whole.as_ptr() as usize;
    start..start + part.len()
}

/// Validate a head's bytes as UTF-8 text.
fn head_text(bytes: &[u8]) -> Result<&str, ServeError> {
    std::str::from_utf8(bytes)
        .map_err(|_| ServeError::Http("request head is not valid UTF-8".into()))
}

/// Parse a complete request head (every byte up to and including the blank
/// line) in one pass over its lines — the single definition of the head
/// grammar, which [`RequestParser`] applies once a head is complete.
fn parse_head(head: &str) -> Result<Head, ServeError> {
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| ServeError::Http("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ServeError::Http(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::Http(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target);

    // Header lines are never empty, so the range is empty only while no
    // header has been seen.
    let mut header_lines = 0..0;
    let (mut connection, mut chunked, mut content_length) = (None, false, None);
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = split_header_line(line)?;
        let line = range_in(head, line);
        if header_lines.is_empty() {
            header_lines.start = line.start;
        }
        header_lines.end = line.end;
        if name.eq_ignore_ascii_case("connection") {
            connection = connection.or(Some(value));
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = true;
        } else if name.eq_ignore_ascii_case("content-length") {
            // Two differing lengths leave the body's end ambiguous, and a
            // peer that reads the other one would split requests elsewhere
            // (RFC 9112 §6.3): refuse the message. Identical repeats agree.
            match content_length {
                Some(first) if first != value => {
                    return Err(ServeError::Http(format!(
                        "conflicting Content-Length headers {first:?} and {value:?}"
                    )));
                }
                _ => content_length = Some(value),
            }
        }
    }
    if chunked {
        return Err(ServeError::Http(
            "chunked request bodies are not supported; send Content-Length".into(),
        ));
    }
    let body_len = match content_length {
        Some(value) => value
            .parse::<usize>()
            .map_err(|_| ServeError::Http(format!("invalid Content-Length {value:?}")))?,
        None => 0,
    };
    if body_len > MAX_BODY_BYTES {
        return Err(ServeError::Http(format!(
            "request body of {body_len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    Ok(Head {
        method: range_in(head, method),
        path: range_in(head, path),
        header_lines,
        keep_alive: keep_alive_semantics(version, connection),
        body_len,
    })
}

/// A fully parsed head waiting for its body bytes to accumulate.
#[derive(Debug)]
struct PendingBody {
    head: Head,
    head_len: usize,
}

/// A resumable incremental request parser for nonblocking connections.
///
/// The event-loop server appends whatever bytes a readiness event yields to
/// a per-connection buffer and asks this parser for complete requests. The
/// parser remembers how far it has scanned between calls, so a slow-loris
/// peer dribbling one byte per read costs O(1) re-work per byte instead of
/// re-scanning the head each time — and a pipelining peer that packs many
/// requests into one segment has them parsed out one [`next_request`] call
/// at a time.
///
/// A parsed request borrows the buffer ([`RequestRef`]): its method, path,
/// headers and body are slices of it, and the parser itself keeps only
/// offsets, so parsing allocates nothing.
///
/// Contract: `buf` always starts at the first unconsumed byte of the
/// request stream, and the caller advances past exactly `consumed` bytes
/// after each parsed request (the parser resets its scan state at that
/// point). The caller may consume by offset — slicing its buffer — and
/// compact it only now and then; the bytes of a request still arriving
/// must keep their position relative to `buf`'s start. Size caps
/// ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]) are enforced as the bytes
/// accumulate, never after the fact.
///
/// [`next_request`]: RequestParser::next_request
#[derive(Debug, Default)]
pub struct RequestParser {
    /// How far the head scan has advanced into the buffer (resumption
    /// point; nothing before it needs re-reading).
    scanned: usize,
    /// Start offset of the header line currently being scanned.
    line_start: usize,
    /// A parsed head whose body has not fully arrived yet.
    pending: Option<PendingBody>,
}

impl RequestParser {
    /// A parser with no buffered state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to parse one complete request from the front of `buf`.
    ///
    /// Returns `Ok(Some((request, consumed)))` when a full request (head +
    /// body) is available — the caller must advance `consumed` bytes past
    /// the front of `buf` before the next call — and `Ok(None)` when more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Http`] for malformed or oversized requests;
    /// the connection's framing is unrecoverable from there on.
    pub fn next_request<'a>(
        &mut self,
        buf: &'a [u8],
    ) -> Result<Option<(RequestRef<'a>, usize)>, ServeError> {
        let pending = match self.pending.take() {
            Some(pending) => pending,
            None => {
                let Some(head_len) = self.scan_head(buf)? else {
                    return Ok(None);
                };
                PendingBody {
                    head: parse_head(head_text(&buf[..head_len])?)?,
                    head_len,
                }
            }
        };
        let total = pending.head_len + pending.head.body_len;
        if buf.len() < total {
            self.pending = Some(pending);
            return Ok(None);
        }
        self.scanned = 0;
        self.line_start = 0;
        let head = head_text(&buf[..pending.head_len])?;
        let request = pending.head.request(head, &buf[pending.head_len..total]);
        Ok(Some((request, total)))
    }

    /// Advance the head scan, returning the head length (including the
    /// terminating blank line) once the blank line is in the buffer.
    fn scan_head(&mut self, buf: &[u8]) -> Result<Option<usize>, ServeError> {
        while self.scanned < buf.len() {
            let at = self.scanned;
            self.scanned += 1;
            if buf[at] != b'\n' {
                continue;
            }
            let line = &buf[self.line_start..at];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            self.line_start = self.scanned;
            if line.is_empty() {
                if self.scanned > MAX_HEAD_BYTES {
                    return Err(ServeError::Http(format!(
                        "request head exceeds {MAX_HEAD_BYTES} bytes"
                    )));
                }
                return Ok(Some(self.scanned));
            }
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ServeError::Http(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        Ok(None)
    }
}

/// The reason phrase for the status codes the service uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// Append a response head to `out`: the status line, `Content-Type`, then
/// `Content-Length: {length}` for a fixed-length body (`Some`) or
/// `Transfer-Encoding: chunked` (`None`), `Connection`, the extra headers
/// (name, value) in order, and the blank line.
fn push_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    length: Option<usize>,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n",
        reason(status)
    );
    let _ = match length {
        Some(length) => write!(out, "Content-Length: {length}\r\n"),
        None => out.write_all(b"Transfer-Encoding: chunked\r\n"),
    };
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n"
    } else {
        b"Connection: close\r\n"
    });
    for (name, value) in extra_headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Append a complete fixed-length response — head, extra response headers
/// (name, value) and body — to `out`. `keep_alive` advertises whether the
/// server will serve another request on this connection.
///
/// The caller owns the buffer: the event loop appends straight onto a
/// connection's response queue, and a handler thread assembles a response
/// in a reused buffer and sends it with one `write_all`. Either way the
/// body is copied once, and nothing is allocated unless `out` must grow.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    push_head(
        out,
        status,
        content_type,
        Some(body.len()),
        extra_headers,
        keep_alive,
    );
    out.extend_from_slice(body);
}

/// A chunked transfer-encoding response body: each [`ChunkedWriter::chunk`]
/// becomes one HTTP chunk flushed to the peer immediately, so NDJSON sweep
/// points arrive as they are evaluated.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    writer: W,
}

/// Start a chunked response: writes the status line and headers (extra
/// headers as name, value pairs), returns the body writer. The terminal
/// zero-length chunk delimits the body, so chunked responses compose with
/// keep-alive.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn start_chunked<W: Write>(
    mut writer: W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> std::io::Result<ChunkedWriter<W>> {
    // One buffer, one write: `write!` straight onto a socket would emit a
    // segment per format fragment.
    let mut message = Vec::new();
    push_head(
        &mut message,
        status,
        content_type,
        None,
        extra_headers,
        keep_alive,
    );
    writer.write_all(&message)?;
    writer.flush()?;
    Ok(ChunkedWriter { writer })
}

impl<W: Write> ChunkedWriter<W> {
    /// Send one chunk (empty chunks are skipped — an empty chunk would
    /// terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        // The size line, the data and the closing CRLF go out in one
        // vectored write, so a batch of NDJSON points costs one write
        // syscall and is never copied to be framed.
        let mut size = [0u8; SIZE_LINE_BYTES];
        let mut parts = [
            IoSlice::new(size_line(data.len(), &mut size)),
            IoSlice::new(data),
            IoSlice::new(b"\r\n"),
        ];
        write_all_vectored(&mut self.writer, &mut parts)?;
        self.writer.flush()
    }

    /// Terminate the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.writer.write_all(b"0\r\n\r\n")?;
        self.writer.flush()
    }
}

/// The longest chunk-size line: 16 hex digits (a 64-bit length) and CRLF.
const SIZE_LINE_BYTES: usize = 18;

/// Write `len` as a chunk-size line (lowercase hex, no leading zeros, then
/// CRLF) into the back of `buf`, returning the written part.
fn size_line(len: usize, buf: &mut [u8; SIZE_LINE_BYTES]) -> &[u8] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut start = SIZE_LINE_BYTES - 2;
    buf[start..].copy_from_slice(b"\r\n");
    let mut rest = len;
    loop {
        start -= 1;
        buf[start] = DIGITS[rest & 0xf];
        rest >>= 4;
        if rest == 0 {
            break;
        }
    }
    &buf[start..]
}

/// Write every byte of `parts`, in order, looping on partial writes (the
/// vectored counterpart of `write_all`).
fn write_all_vectored(
    writer: &mut impl Write,
    mut parts: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    while !parts.is_empty() {
        match writer.write_vectored(parts) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write the whole chunk",
                ))
            }
            Ok(written) => IoSlice::advance_slices(&mut parts, written),
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first request of `bytes`, or `None` while it is incomplete.
    fn parse(bytes: &[u8]) -> Result<Option<Request>, ServeError> {
        let parsed = RequestParser::new().next_request(bytes)?;
        Ok(parsed.map(|(request, _)| request.to_request()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let request =
            parse(b"POST /v1/estimate?pretty HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap()
                .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/estimate");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.header("HOST"), Some("x"));
        assert_eq!(request.body, b"abcd");
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let request = parse(b"GET /v1/healthz HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert_eq!(request.method, "GET");
        assert!(request.body.is_empty());
        assert_eq!(request.header("content-length"), None);
        assert!(!request.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close.keep_alive);
        let keep = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(keep.keep_alive);
        // `close` wins over `keep-alive` regardless of token order
        // (RFC 9112); unknown tokens fall back to the version default.
        assert!(!keep_alive_semantics("HTTP/1.1", Some("foo, Close")));
        assert!(!keep_alive_semantics("HTTP/1.0", Some("keep-alive, close")));
        assert!(!keep_alive_semantics("HTTP/1.1", Some("close, keep-alive")));
        assert!(keep_alive_semantics(
            "HTTP/1.0",
            Some("upgrade, Keep-Alive")
        ));
        assert!(keep_alive_semantics("HTTP/1.1", Some("upgrade")));
        assert!(!keep_alive_semantics("HTTP/1.0", None));
    }

    #[test]
    fn empty_connections_and_malformed_requests() {
        assert_eq!(parse(b"").unwrap(), None);
        assert!(matches!(
            parse(b"GARBAGE\r\n\r\n"),
            Err(ServeError::Http(_))
        ));
        assert!(matches!(
            parse(b"GET / SPDY/3\r\n\r\n"),
            Err(ServeError::Http(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ServeError::Http(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ServeError::Http(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ServeError::Http(_))
        ));
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(huge.as_bytes()), Err(ServeError::Http(_))));
    }

    #[test]
    fn differing_content_lengths_are_refused_and_repeats_accepted() {
        let refused = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 20\r\nHost: x\r\ncontent-length: 5\r\n\r\nabcde",
        );
        assert_eq!(
            refused,
            Err(ServeError::Http(
                "conflicting Content-Length headers \"20\" and \"5\"".into()
            ))
        );
        // The incremental parser shares the rule.
        let mut parser = RequestParser::new();
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 04\r\n\r\nabcd";
        assert!(matches!(
            parser.next_request(wire),
            Err(ServeError::Http(text)) if text.contains("conflicting Content-Length")
        ));
        let repeated =
            parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap()
                .unwrap();
        assert_eq!(repeated.body, b"abcd");
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let mut head = String::from("GET / HTTP/1.1\r\n");
        while head.len() <= MAX_HEAD_BYTES {
            head.push_str("X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        head.push_str("\r\n");
        assert!(matches!(parse(head.as_bytes()), Err(ServeError::Http(_))));
        // A newline-free flood is rejected at the cap, never buffered whole.
        let flood = vec![b'a'; 4 * MAX_HEAD_BYTES];
        assert!(matches!(parse(&flood), Err(ServeError::Http(_))));
    }

    #[test]
    fn incremental_parser_completes_only_once_every_byte_is_in() {
        let wire: &[u8] =
            b"POST /v1/estimate?pretty HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let whole = parse(wire).unwrap().unwrap();

        // Fed byte by byte, one parser resumes its scan and produces the
        // request a parse of the whole buffer does, and only once every
        // byte is in.
        let mut parser = RequestParser::new();
        let mut buf = Vec::new();
        for (i, byte) in wire.iter().enumerate() {
            buf.push(*byte);
            let result = parser.next_request(&buf).unwrap();
            if i + 1 < wire.len() {
                assert!(result.is_none(), "complete after {} bytes?", i + 1);
            } else {
                let (request, consumed) = result.unwrap();
                assert_eq!(consumed, wire.len());
                assert_eq!(request.to_request(), whole);
            }
        }
    }

    #[test]
    fn a_parsed_request_borrows_its_head_and_body() {
        let wire: &[u8] = b"POST /v1/estimate HTTP/1.1\r\nHost: x\r\n\
            X-Ecochip-Trace:  abc \r\nhost: second\r\nContent-Length: 2\r\n\r\n{}tail";
        let (request, consumed) = RequestParser::new().next_request(wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len() - 4);
        assert_eq!((request.method, request.path), ("POST", "/v1/estimate"));
        assert_eq!(request.body, b"{}");
        // Lookups are case-insensitive, trimmed, and the first header of a
        // name wins.
        assert_eq!(request.header("x-ecochip-trace"), Some("abc"));
        assert_eq!(request.header("HOST"), Some("x"));
        assert_eq!(request.header("connection"), None);
        assert_eq!(
            request.headers().collect::<Vec<_>>(),
            [
                ("Host", "x"),
                ("X-Ecochip-Trace", "abc"),
                ("host", "second"),
                ("Content-Length", "2")
            ]
        );
        let owned = request.to_request();
        assert_eq!(owned.header("host"), Some("x"));
        assert_eq!(owned.headers[1], ("x-ecochip-trace".into(), "abc".into()));

        // A head without headers has none.
        let (request, _) = RequestParser::new()
            .next_request(b"GET / HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.headers().count(), 0);
        assert!(request.body.is_empty() && request.keep_alive);
    }

    #[test]
    fn incremental_parser_splits_pipelined_requests_in_order() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\none");
        wire.extend_from_slice(b"GET /b HTTP/1.1\r\n\r\n");
        wire.extend_from_slice(b"POST /c HTTP/1.1\r\nContent-Length: 5\r\n\r\nthree");

        let mut parser = RequestParser::new();
        let mut buf = wire.clone();
        let mut paths = Vec::new();
        while let Some((request, consumed)) = parser.next_request(&buf).unwrap() {
            paths.push((request.path.to_owned(), request.body.to_vec()));
            buf.drain(..consumed);
        }
        assert!(buf.is_empty(), "every byte consumed");
        assert_eq!(
            paths,
            vec![
                ("/a".into(), b"one".to_vec()),
                ("/b".into(), Vec::new()),
                ("/c".into(), b"three".to_vec()),
            ]
        );
    }

    #[test]
    fn incremental_parser_enforces_the_size_caps() {
        // A newline-free flood trips the head cap as soon as the buffer
        // exceeds it — no terminator needed.
        let mut parser = RequestParser::new();
        let flood = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            parser.next_request(&flood),
            Err(ServeError::Http(_))
        ));

        // An oversized Content-Length is rejected when the head completes,
        // before any body accumulates.
        let mut parser = RequestParser::new();
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parser.next_request(huge.as_bytes()),
            Err(ServeError::Http(_))
        ));

        // Malformed heads are refused.
        let mut parser = RequestParser::new();
        assert!(matches!(
            parser.next_request(b"GARBAGE\r\n\r\n"),
            Err(ServeError::Http(_))
        ));
        let mut parser = RequestParser::new();
        assert!(matches!(
            parser.next_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ServeError::Http(_))
        ));
    }

    #[test]
    fn responses_can_carry_extra_headers() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            &[("Retry-After", "1")],
            b"{}",
            true,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn fixed_and_chunked_responses_serialize() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "application/json", &[], b"{}", false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", &[], b"ok", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));

        let mut out = Vec::new();
        let mut chunked = start_chunked(&mut out, 200, "application/x-ndjson", &[], true).unwrap();
        chunked.chunk(b"hello\n").unwrap();
        chunked.chunk(b"").unwrap();
        chunked.chunk(b"world\n").unwrap();
        chunked.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("6\r\nhello\n\r\n6\r\nworld\n\r\n0\r\n\r\n"));
        assert_eq!(reason(500), "Internal Server Error");
        assert_eq!(reason(418), "");
    }

    /// A writer that takes 1, 2, … 7, 1, … bytes per call, across slice
    /// boundaries when a vectored write spans them.
    #[derive(Default)]
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut budget = 1 + self.calls % 7;
            self.calls += 1;
            let mut written = 0;
            for buf in bufs {
                let take = buf.len().min(budget);
                self.out.extend_from_slice(&buf[..take]);
                written += take;
                budget -= take;
                if budget == 0 {
                    break;
                }
            }
            Ok(written)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn chunks_written_a_few_bytes_at_a_time_keep_the_framing() {
        let mut chunked = ChunkedWriter {
            writer: Trickle::default(),
        };
        let mut expected = Vec::new();
        for len in [1usize, 9, 15, 16, 17, 255, 256, 4_097, 61_440] {
            let data: Vec<u8> = (0..len).map(|at| b'a' + (at % 26) as u8).collect();
            chunked.chunk(&data).unwrap();
            // The framing as it was built before vectored writes.
            expected.extend_from_slice(format!("{len:x}\r\n").as_bytes());
            expected.extend_from_slice(&data);
            expected.extend_from_slice(b"\r\n");
        }
        chunked.chunk(b"").unwrap();
        let mut writer = chunked.writer;
        assert!(writer.calls > expected.len() / 7, "{} calls", writer.calls);
        expected.extend_from_slice(b"0\r\n\r\n");
        ChunkedWriter {
            writer: &mut writer,
        }
        .finish()
        .unwrap();
        assert_eq!(writer.out, expected);

        let mut line = [0u8; SIZE_LINE_BYTES];
        assert_eq!(size_line(0xffff_ffff, &mut line), b"ffffffff\r\n");
        assert_eq!(size_line(0xa0, &mut line), b"a0\r\n");
    }
}
