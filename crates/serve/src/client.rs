//! A minimal blocking HTTP/1.1 client for the estimation service.
//!
//! Exactly the counterpart of the server's wire subset: `Content-Length`
//! request bodies, fixed-length or chunked responses, and persistent
//! connections. A [`Connection`] keeps one TCP socket open across requests
//! (HTTP/1.1 keep-alive), transparently reconnecting when the server
//! closed it in the meantime (idle timeout, requests-per-connection
//! bound); the module-level [`get`]/[`post_json`]/[`post_ndjson`] helpers
//! are one-shot conveniences that ask the server to close after the
//! response. Chunked NDJSON responses can be consumed line-by-line as the
//! chunks arrive ([`post_ndjson`], [`Connection::post_ndjson`]), which is
//! how the remote orchestrator merges worker streams without buffering
//! them. [`Connection::post_json_pipelined`] writes a whole batch of
//! requests before reading any response (HTTP/1.1 pipelining), matching
//! the server's pipelining-aware request parser.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::ServeError;

/// Socket timeout for client connections.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Upper bound on any single allocation driven by wire-supplied sizes
/// (chunk sizes, `Content-Length`, buffered bodies, streamed lines) — the
/// client-side mirror of the server's request-body cap. Streamed NDJSON
/// responses are unbounded in *total* but hold at most one chunk + one
/// pending line, and a longer line is refused.
const MAX_BUFFERED_BODY: usize = crate::http::MAX_BODY_BYTES;

/// Upper bound on one status/header/chunk-size line — the client-side
/// mirror of the server's head cap, so a peer streaming newline-free bytes
/// cannot grow a line buffer without limit.
const MAX_LINE_BYTES: usize = crate::http::MAX_HEAD_BYTES;

/// Upper bound on the number of response headers.
const MAX_RESPONSE_HEADERS: usize = 256;

/// A decoded HTTP response: status, lowercased header names, body. For
/// [`post_ndjson`] the body is empty — lines go to the callback instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code of the response.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The response body (empty in streaming mode).
    pub body: Vec<u8>,
}

impl Response {
    /// The value of the first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        crate::http::header_lookup(&self.headers, name)
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Http`] when the body is not valid UTF-8.
    pub fn text(&self) -> Result<&str, ServeError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::Http("response body is not valid UTF-8".into()))
    }
}

/// Normalize `addr` ("host:port", "http://host:port", trailing slash ok)
/// into the host:port to connect to.
fn host_port(addr: &str) -> &str {
    let addr = addr.strip_prefix("http://").unwrap_or(addr);
    addr.trim_end_matches('/')
}

/// `GET path` from the server at `addr` (one-shot: asks the server to
/// close the connection after the response).
///
/// # Errors
///
/// Returns [`ServeError::InvalidAddr`] for unresolvable addresses,
/// [`ServeError::Io`] for socket failures and [`ServeError::Http`] for
/// malformed responses.
pub fn get(addr: &str, path: &str) -> Result<Response, ServeError> {
    one_shot(addr, "GET", path, None, &mut None)
}

/// `POST path` with a JSON body, returning the buffered response
/// (one-shot).
///
/// # Errors
///
/// As [`get`].
pub fn post_json(addr: &str, path: &str, json: &str) -> Result<Response, ServeError> {
    one_shot(addr, "POST", path, Some(json.as_bytes()), &mut None)
}

/// `POST path` with a JSON body, delivering each NDJSON line of the
/// response to `on_line` as it arrives (lines are passed without their
/// trailing newline). Non-2xx responses are buffered normally instead, so
/// callers can read the error body from the returned [`Response`].
///
/// # Errors
///
/// As [`get`]; additionally propagates the first error returned by
/// `on_line`.
pub fn post_ndjson<F>(
    addr: &str,
    path: &str,
    json: &str,
    mut on_line: F,
) -> Result<Response, ServeError>
where
    F: FnMut(&str) -> Result<(), ServeError>,
{
    let mut callback: Option<LineSink<'_>> = Some(&mut on_line);
    one_shot(addr, "POST", path, Some(json.as_bytes()), &mut callback)
}

/// A borrowed NDJSON line consumer (one level of indirection keeps the
/// streaming plumbing object-safe).
type LineSink<'a> = &'a mut dyn FnMut(&str) -> Result<(), ServeError>;

/// A persistent connection to one server: requests issued through it reuse
/// the TCP socket (HTTP/1.1 keep-alive), so a fleet client pays the
/// connect cost once instead of per request.
///
/// The server may close the socket between requests (idle timeout,
/// requests-per-connection bound, restart); the next request detects the
/// stale socket and transparently reconnects — but only when the socket
/// had already served a response (so the failure is attributable to an
/// idle close, not to the server crashing on this request) and no part of
/// the new response was consumed yet. A mid-stream failure or a
/// first-request failure is never papered over.
#[derive(Debug)]
pub struct Connection {
    target: String,
    reader: Option<BufReader<TcpStream>>,
    /// Whether the current socket has served at least one response — only
    /// then can a failure mean "the server idle-closed it under us".
    served: bool,
    /// Trace ID attached to every request as `X-Ecochip-Trace` (see
    /// [`Connection::set_trace`]).
    trace: Option<String>,
}

impl Connection {
    /// Open a connection to the server at `addr` ("host:port",
    /// "http://host:port" and a trailing slash are all accepted).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidAddr`] for unresolvable addresses and
    /// [`ServeError::Io`] when the connect fails.
    pub fn open(addr: &str) -> Result<Self, ServeError> {
        let mut connection = Self {
            target: host_port(addr).to_owned(),
            reader: None,
            served: false,
            trace: None,
        };
        connection.ensure_connected()?;
        Ok(connection)
    }

    /// The `host:port` this connection talks to.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Attach a trace ID: every subsequent request carries it in the
    /// `X-Ecochip-Trace` header (and the server echoes it back), so one
    /// orchestrated sweep is greppable across every worker it touched.
    /// `None` detaches.
    pub fn set_trace(&mut self, trace: Option<String>) {
        self.trace = trace;
    }

    /// The trace ID attached with [`Connection::set_trace`], if any.
    pub fn trace(&self) -> Option<&str> {
        self.trace.as_deref()
    }

    /// `GET path`, reusing the socket.
    ///
    /// # Errors
    ///
    /// As [`get`].
    pub fn get(&mut self, path: &str) -> Result<Response, ServeError> {
        self.request("GET", path, None, &mut None)
    }

    /// `POST path` with a JSON body, reusing the socket.
    ///
    /// # Errors
    ///
    /// As [`get`].
    pub fn post_json(&mut self, path: &str, json: &str) -> Result<Response, ServeError> {
        self.request("POST", path, Some(json.as_bytes()), &mut None)
    }

    /// `POST /v1/estimate` with a batch of requests, returning the per-item
    /// results in request order. One HTTP round-trip replaces N single
    /// requests; each item resolves to its own response or error object
    /// exactly as the single form would have.
    ///
    /// # Errors
    ///
    /// As [`get`] for transport failures; [`ServeError::Api`] when the
    /// server rejects the batch as a whole (malformed top-level JSON) or
    /// [`ServeError::Http`] when the response body cannot be decoded.
    pub fn estimate_batch(
        &mut self,
        requests: &[crate::api::EstimateRequest],
    ) -> Result<Vec<crate::api::BatchEstimateItem>, ServeError> {
        let json = serde_json::to_string(&requests)
            .map_err(|e| ServeError::Api(format!("serializing batch request: {e}")))?;
        let response = self.post_json("/v1/estimate", &json)?;
        if response.status != 200 {
            return Err(ServeError::Api(format!(
                "batch estimate failed with status {}: {}",
                response.status,
                response.text().unwrap_or("<non-utf8 body>").trim_end()
            )));
        }
        serde_json::from_str(response.text()?)
            .map_err(|e| ServeError::Http(format!("decoding batch response: {e}")))
    }

    /// `POST path` once per body, **pipelined**: every request goes out in
    /// one buffered write before any response is read, then the responses
    /// are decoded in order (HTTP/1.1 guarantees the server answers in
    /// request order). One round-trip's latency is paid once instead of
    /// per request, without any batching support server-side.
    ///
    /// Unlike [`Connection::post_json`] there is no transparent
    /// stale-socket retry: requests were already written when a failure
    /// surfaces, so replaying them is not safe to do silently. Callers
    /// treat any error as "position unknown; reconnect and decide".
    ///
    /// # Errors
    ///
    /// As [`get`] for transport failures; [`ServeError::Http`] when the
    /// server closes the connection before all responses arrived
    /// ("connection closed mid-pipeline"), e.g. its
    /// requests-per-connection bound was hit partway through the batch.
    pub fn post_json_pipelined<S: AsRef<str>>(
        &mut self,
        path: &str,
        bodies: &[S],
    ) -> Result<Vec<Response>, ServeError> {
        if bodies.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_connected()?;
        let outcome = {
            let reader = self.reader.as_mut().expect("connected reader");
            pipeline(reader, &self.target, path, bodies, self.trace.as_deref())
        };
        match outcome {
            Ok((responses, keep_open)) => {
                self.served = true;
                if !keep_open {
                    self.reader = None;
                }
                Ok(responses)
            }
            Err(error) => {
                self.reader = None;
                Err(error)
            }
        }
    }

    /// `POST path` with a JSON body, streaming NDJSON response lines to
    /// `on_line`, reusing the socket.
    ///
    /// # Errors
    ///
    /// As [`post_ndjson`].
    pub fn post_ndjson<F>(
        &mut self,
        path: &str,
        json: &str,
        mut on_line: F,
    ) -> Result<Response, ServeError>
    where
        F: FnMut(&str) -> Result<(), ServeError>,
    {
        let mut callback: Option<LineSink<'_>> = Some(&mut on_line);
        self.request("POST", path, Some(json.as_bytes()), &mut callback)
    }

    fn ensure_connected(&mut self) -> Result<(), ServeError> {
        if self.reader.is_some() {
            return Ok(());
        }
        self.reader = Some(BufReader::new(connect(&self.target)?));
        self.served = false;
        Ok(())
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        on_line: &mut Option<LineSink<'_>>,
    ) -> Result<Response, ServeError> {
        // A transparent retry is only safe when the socket already served a
        // response: then a failure is attributable to the server having
        // idle-closed it, not to this request crashing the server. A fresh
        // socket (including the one `open` eagerly connects) never retries.
        let reused = self.reader.is_some() && self.served;
        self.ensure_connected()?;
        // Guard the retry below: only a failure with *zero* delivered lines
        // may transparently reconnect — once `on_line` observed output,
        // retrying would duplicate it.
        let delivered = std::cell::Cell::new(false);
        let outcome = {
            let reader = self.reader.as_mut().expect("connected reader");
            match on_line.as_mut() {
                Some(inner) => {
                    let mut wrapper = |line: &str| {
                        delivered.set(true);
                        (**inner)(line)
                    };
                    let mut sink: Option<LineSink<'_>> = Some(&mut wrapper);
                    perform(
                        reader,
                        &self.target,
                        method,
                        path,
                        body,
                        true,
                        self.trace.as_deref(),
                        &mut sink,
                    )
                }
                None => perform(
                    reader,
                    &self.target,
                    method,
                    path,
                    body,
                    true,
                    self.trace.as_deref(),
                    &mut None,
                ),
            }
        };
        match self.settle(outcome) {
            Err(error) if reused && !delivered.get() && stale_connection_error(&error) => {
                // The server closed the idle socket under us before the
                // request went out; retry it once on a fresh connection.
                self.ensure_connected()?;
                let reader = self.reader.as_mut().expect("connected reader");
                let retried = perform(
                    reader,
                    &self.target,
                    method,
                    path,
                    body,
                    true,
                    self.trace.as_deref(),
                    on_line,
                );
                self.settle(retried)
            }
            settled => settled,
        }
    }

    /// Apply one attempt's outcome to the connection state: a response
    /// marks the socket as having served (enabling the transparent retry
    /// for *later* requests) and is dropped if the server announced a
    /// close; any failure leaves the socket in an unknown state, so it is
    /// never reused.
    fn settle(
        &mut self,
        outcome: Result<(Response, bool), ServeError>,
    ) -> Result<Response, ServeError> {
        match outcome {
            Ok((response, keep_open)) => {
                self.served = true;
                if !keep_open {
                    self.reader = None;
                }
                Ok(response)
            }
            Err(error) => {
                self.reader = None;
                Err(error)
            }
        }
    }
}

/// Whether an error is consistent with the server having closed an idle
/// keep-alive socket under us — the only failure a [`Connection`] retries
/// transparently (and only with zero delivered lines, see
/// [`Connection::request`]). The close can surface three ways depending on
/// timing: the request write fails, the status-line read sees a clean EOF,
/// or the read fails outright (e.g. `ECONNRESET` when the peer answered
/// the buffered write with RST).
fn stale_connection_error(error: &ServeError) -> bool {
    match error {
        ServeError::Io(message) => {
            message.starts_with("sending request") || message.starts_with("reading response")
        }
        ServeError::Http(message) => message == "connection closed before the status line",
        _ => false,
    }
}

/// Resolve and connect to `target` with the client timeouts applied.
fn connect(target: &str) -> Result<TcpStream, ServeError> {
    let resolved = target
        .to_socket_addrs()
        .map_err(|e| ServeError::InvalidAddr(format!("{target}: {e}")))?
        .next()
        .ok_or_else(|| ServeError::InvalidAddr(format!("{target} resolves to nothing")))?;
    let stream = TcpStream::connect(resolved)
        .map_err(|e| ServeError::Io(format!("connecting {target}: {e}")))?;
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
    // Request heads and bodies go out as one buffered write, so Nagle's
    // algorithm buys nothing here — disabling it avoids the Nagle ×
    // delayed-ACK stall (tens of milliseconds per request) on the
    // keep-alive request/response ping-pong.
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// One request on a fresh connection, asking the server to close after the
/// response.
fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    on_line: &mut Option<LineSink<'_>>,
) -> Result<Response, ServeError> {
    let target = host_port(addr);
    let mut reader = BufReader::new(connect(target)?);
    perform(
        &mut reader,
        target,
        method,
        path,
        body,
        false,
        None,
        on_line,
    )
    .map(|(response, _)| response)
}

/// Write every pipelined request in one buffered send, then decode the
/// responses in order. Returns the responses plus whether the connection
/// survived the whole pipeline (the last response's keep-alive verdict).
fn pipeline<S: AsRef<str>>(
    reader: &mut BufReader<TcpStream>,
    target: &str,
    path: &str,
    bodies: &[S],
    trace: Option<&str>,
) -> Result<(Vec<Response>, bool), ServeError> {
    let mut message = Vec::new();
    for body in bodies {
        encode_request_into(
            &mut message,
            target,
            "POST",
            path,
            Some(body.as_ref().as_bytes()),
            true,
            trace,
        );
    }
    let mut stream = reader.get_ref();
    stream
        .write_all(&message)
        .and_then(|()| stream.flush())
        .map_err(|e| ServeError::Io(format!("sending pipelined requests: {e}")))?;

    let mut responses = Vec::with_capacity(bodies.len());
    let mut keep_open = true;
    for received in 0..bodies.len() {
        if !keep_open {
            // The server advertised `Connection: close` with responses
            // still owed (its requests-per-connection bound, or shutdown):
            // the rest of the pipeline was discarded, surface it loudly.
            return Err(ServeError::Http(format!(
                "connection closed mid-pipeline: {received} of {} responses received",
                bodies.len()
            )));
        }
        let (response, open) = read_response(reader, true, &mut None)?;
        keep_open = open;
        responses.push(response);
    }
    Ok((responses, keep_open))
}

/// Append one encoded request (head + body) onto `message` — the unit the
/// single-request path writes once and the pipelined path concatenates N
/// times before one write.
fn encode_request_into(
    message: &mut Vec<u8>,
    target: &str,
    method: &str,
    path: &str,
    request_body: Option<&[u8]>,
    reuse: bool,
    trace: Option<&str>,
) {
    let body = request_body.unwrap_or_default();
    message.extend_from_slice(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {target}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
            body.len(),
            if reuse { "keep-alive" } else { "close" }
        )
        .as_bytes(),
    );
    if let Some(trace) = trace {
        message.extend_from_slice(format!("X-Ecochip-Trace: {trace}\r\n").as_bytes());
    }
    message.extend_from_slice(b"\r\n");
    message.extend_from_slice(body);
}

/// Send one request on an established connection and decode the response.
/// Returns the response plus whether the connection may serve another
/// request (the server's `Connection` header and protocol version decide).
#[allow(clippy::too_many_arguments)]
fn perform(
    reader: &mut BufReader<TcpStream>,
    target: &str,
    method: &str,
    path: &str,
    request_body: Option<&[u8]>,
    reuse: bool,
    trace: Option<&str>,
    on_line: &mut Option<LineSink<'_>>,
) -> Result<(Response, bool), ServeError> {
    {
        // Assemble the whole request into one buffer and write it with a
        // single syscall: a `write!` straight onto the socket would emit
        // one small segment per format fragment.
        let mut message = Vec::new();
        encode_request_into(
            &mut message,
            target,
            method,
            path,
            request_body,
            reuse,
            trace,
        );
        let mut stream = reader.get_ref();
        stream
            .write_all(&message)
            .and_then(|()| stream.flush())
            .map_err(|e| ServeError::Io(format!("sending request: {e}")))?;
    }
    read_response(reader, reuse, on_line)
}

/// Decode one response off the connection (status line through body).
/// Returns the response plus whether the connection may serve another one.
fn read_response<R: BufRead>(
    reader: &mut R,
    reuse: bool,
    on_line: &mut Option<LineSink<'_>>,
) -> Result<(Response, bool), ServeError> {
    let status_line = read_line(&mut *reader)?
        .ok_or_else(|| ServeError::Http("connection closed before the status line".into()))?;
    let mut parts = status_line.split_whitespace();
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(ServeError::Http(format!(
            "malformed status line {status_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::Http(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| ServeError::Http(format!("malformed status code {status:?}")))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut *reader)?
            .ok_or_else(|| ServeError::Http("connection closed inside the headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_RESPONSE_HEADERS {
            return Err(ServeError::Http(format!(
                "response exceeds {MAX_RESPONSE_HEADERS} headers"
            )));
        }
        headers.push(crate::http::parse_header_line(&line)?);
    }

    let mut response = Response {
        status,
        headers,
        body: Vec::new(),
    };
    let chunked = response
        .header("transfer-encoding")
        .is_some_and(|value| value.eq_ignore_ascii_case("chunked"));

    // Stream lines only for successful chunked responses; error bodies are
    // buffered so the caller can inspect them. Framed (`ECOF`) responses
    // are decoded back to their canonical lines here, so the caller's
    // `on_line` observes the exact bytes an NDJSON stream would have
    // delivered — the encoding is invisible above this function.
    let framed = response.header("content-type").is_some_and(|value| {
        value
            .split(';')
            .next()
            .unwrap_or("")
            .trim()
            .eq_ignore_ascii_case(crate::frames::CONTENT_TYPE)
    });
    let mut stream_lines = if status / 100 == 2 {
        on_line.take()
    } else {
        None
    };
    let mut pending = Vec::new();
    let mut decoder = crate::frames::FrameDecoder::new();
    let mut consume = |data: &[u8], body: &mut Vec<u8>| -> Result<(), ServeError> {
        match &mut stream_lines {
            None => {
                // Buffered bodies (errors, fixed responses) are bounded like
                // the server bounds request bodies; streamed NDJSON holds
                // only the current line, so its total is unbounded by design.
                if body.len() + data.len() > MAX_BUFFERED_BODY {
                    return Err(ServeError::Http(format!(
                        "response body exceeds the {MAX_BUFFERED_BODY}-byte client limit"
                    )));
                }
                body.extend_from_slice(data);
            }
            Some(on_line) if framed => decoder.feed(data, &mut **on_line)?,
            Some(on_line) => {
                // `pending` holds the newline-free start of the current
                // line, so the scan resumes where the new bytes begin.
                let mut scan = pending.len();
                pending.extend_from_slice(data);
                let mut start = 0;
                while let Some(offset) = pending[scan..].iter().position(|&b| b == b'\n') {
                    let end = scan + offset;
                    if end - start > MAX_BUFFERED_BODY {
                        return Err(line_too_long());
                    }
                    let line = std::str::from_utf8(&pending[start..end])
                        .map_err(|_| ServeError::Http("NDJSON line is not UTF-8".into()))?;
                    on_line(line)?;
                    start = end + 1;
                    scan = start;
                }
                pending.drain(..start);
                if pending.len() > MAX_BUFFERED_BODY {
                    return Err(line_too_long());
                }
            }
        }
        Ok(())
    };

    let mut delimited_by_close = false;
    if chunked {
        loop {
            let size_line = read_line(&mut *reader)?
                .ok_or_else(|| ServeError::Http("connection closed inside a chunk size".into()))?;
            let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| ServeError::Http(format!("malformed chunk size {size_line:?}")))?;
            if size == 0 {
                // Trailer section: read to the blank line.
                while let Some(line) = read_line(&mut *reader)? {
                    if line.is_empty() {
                        break;
                    }
                }
                break;
            }
            if size > MAX_BUFFERED_BODY {
                // Never trust a wire-supplied size enough to allocate it
                // blindly; our server's chunks are single NDJSON lines.
                return Err(ServeError::Http(format!(
                    "chunk of {size} bytes exceeds the {MAX_BUFFERED_BODY}-byte client limit"
                )));
            }
            let mut chunk = vec![0u8; size];
            reader
                .read_exact(&mut chunk)
                .map_err(|e| ServeError::Http(format!("reading {size}-byte chunk: {e}")))?;
            let mut crlf = [0u8; 2];
            reader
                .read_exact(&mut crlf)
                .map_err(|e| ServeError::Http(format!("reading chunk terminator: {e}")))?;
            if crlf != *b"\r\n" {
                return Err(ServeError::Http(format!(
                    "chunk terminator {:?} is not CRLF",
                    String::from_utf8_lossy(&crlf)
                )));
            }
            consume(&chunk, &mut response.body)?;
        }
    } else if let Some(length) = response.header("content-length") {
        let length: usize = length
            .trim()
            .parse()
            .map_err(|_| ServeError::Http(format!("malformed Content-Length {length:?}")))?;
        if length > MAX_BUFFERED_BODY {
            return Err(ServeError::Http(format!(
                "Content-Length of {length} bytes exceeds the {MAX_BUFFERED_BODY}-byte client limit"
            )));
        }
        let mut body = vec![0u8; length];
        reader
            .read_exact(&mut body)
            .map_err(|e| ServeError::Http(format!("reading {length}-byte body: {e}")))?;
        consume(&body, &mut response.body)?;
    } else {
        // Connection-delimited body: only the closing connection bounds it,
        // so this response can never be followed by another one.
        delimited_by_close = true;
        let mut body = Vec::new();
        reader
            .by_ref()
            .take(MAX_BUFFERED_BODY as u64 + 1)
            .read_to_end(&mut body)
            .map_err(|e| ServeError::Io(format!("reading body: {e}")))?;
        if body.len() > MAX_BUFFERED_BODY {
            return Err(ServeError::Http(format!(
                "response body exceeds the {MAX_BUFFERED_BODY}-byte client limit"
            )));
        }
        consume(&body, &mut response.body)?;
    }
    if framed && stream_lines.is_some() {
        // A framed stream must end exactly on a frame boundary; a body cut
        // inside a header or frame means the sender died mid-write.
        decoder.finish()?;
    }
    if !pending.is_empty() {
        // A final line without a trailing newline.
        let line = std::str::from_utf8(&pending)
            .map_err(|_| ServeError::Http("NDJSON line is not UTF-8".into()))?;
        if let Some(on_line) = &mut stream_lines {
            on_line(line)?;
        }
    }
    let keep_open = reuse
        && !delimited_by_close
        && crate::http::keep_alive_semantics(version, response.header("connection"));
    Ok((response, keep_open))
}

/// The error for a streamed NDJSON line longer than [`MAX_BUFFERED_BODY`].
fn line_too_long() -> ServeError {
    ServeError::Http(format!(
        "streamed line exceeds the {MAX_BUFFERED_BODY}-byte client limit"
    ))
}

/// Read one CRLF- (or LF-) terminated line of at most [`MAX_LINE_BYTES`],
/// without the terminator. The limit is enforced *inside* the read (via
/// `take`), so an endless newline-free stream errors at the cap instead of
/// buffering unboundedly. `Ok(None)` at EOF.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, ServeError> {
    let mut limited = std::io::Read::take(&mut *reader, MAX_LINE_BYTES as u64 + 1);
    let mut line = String::new();
    let read = limited
        .read_line(&mut line)
        .map_err(|e| ServeError::Io(format!("reading response: {e}")))?;
    if line.len() > MAX_LINE_BYTES {
        // Either a genuine oversized line or one truncated at the cap.
        return Err(ServeError::Http(format!(
            "response line exceeds the {MAX_LINE_BYTES}-byte client limit"
        )));
    }
    if read == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chunked `200` response head, then `chunks` each framed by its size
    /// line and CRLF, then the last chunk.
    fn chunked_response(chunks: &[&[u8]]) -> Vec<u8> {
        let mut bytes = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        for chunk in chunks {
            bytes.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            bytes.extend_from_slice(chunk);
            bytes.extend_from_slice(b"\r\n");
        }
        bytes.extend_from_slice(b"0\r\n\r\n");
        bytes
    }

    /// Decode one streamed response off `bytes`, collecting its lines.
    fn stream_lines(bytes: &mut &[u8]) -> Result<Vec<String>, ServeError> {
        let mut lines = Vec::new();
        let mut on_line = |line: &str| {
            lines.push(line.to_owned());
            Ok(())
        };
        let mut sink: Option<LineSink<'_>> = Some(&mut on_line);
        read_response(bytes, true, &mut sink)?;
        Ok(lines)
    }

    #[test]
    fn many_lines_in_one_chunk_stream_in_order() {
        let bytes = chunked_response(&[b"{\"a\":1}\n{\"b\":2}\n\n{\"c\":3}\n"]);
        let mut reader = bytes.as_slice();
        let lines = stream_lines(&mut reader).unwrap();
        assert_eq!(lines, ["{\"a\":1}", "{\"b\":2}", "", "{\"c\":3}"]);
        assert!(reader.is_empty());
    }

    #[test]
    fn a_line_split_across_chunks_is_joined() {
        let bytes = chunked_response(&[b"{\"a\"", b":1}\n{\"b", b"\":2}\n{\"c\"", b":3}"]);
        let lines = stream_lines(&mut bytes.as_slice()).unwrap();
        // The last line needs no trailing newline.
        assert_eq!(lines, ["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
    }

    #[test]
    fn a_streamed_line_past_the_cap_is_refused() {
        let mebibyte = vec![b'x'; 1 << 20];
        let over = MAX_BUFFERED_BODY / mebibyte.len() + 1;
        // A newline-free stream errors at the cap, with chunks left unread.
        let chunks = vec![mebibyte.as_slice(); over + 1];
        let bytes = chunked_response(&chunks);
        let mut reader = bytes.as_slice();
        let error = stream_lines(&mut reader).unwrap_err();
        assert!(
            error.to_string().contains("streamed line exceeds"),
            "{error}"
        );
        assert!(reader.len() > mebibyte.len(), "read past the cap");
        // So does a line whose newline arrives only past the cap.
        let mut chunks = vec![mebibyte.as_slice(); over - 1];
        chunks.push(b"x\n");
        let bytes = chunked_response(&chunks);
        let error = stream_lines(&mut bytes.as_slice()).unwrap_err();
        assert!(
            error.to_string().contains("streamed line exceeds"),
            "{error}"
        );
    }

    #[test]
    fn a_chunk_without_a_crlf_terminator_is_refused() {
        let bytes = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nab\nXY0\r\n\r\n";
        let mut lines = 0;
        let mut on_line = |_: &str| {
            lines += 1;
            Ok(())
        };
        let mut sink: Option<LineSink<'_>> = Some(&mut on_line);
        let error = read_response(&mut bytes.as_slice(), true, &mut sink).unwrap_err();
        assert_eq!(
            error.to_string(),
            ServeError::Http("chunk terminator \"XY\" is not CRLF".into()).to_string()
        );
        assert_eq!(lines, 0, "the refused chunk's line was delivered");
    }

    #[test]
    fn host_port_normalizes_urls() {
        assert_eq!(host_port("127.0.0.1:8080"), "127.0.0.1:8080");
        assert_eq!(host_port("http://127.0.0.1:8080"), "127.0.0.1:8080");
        assert_eq!(host_port("http://localhost:9/"), "localhost:9");
    }

    #[test]
    fn unresolvable_addresses_error_cleanly() {
        assert!(matches!(
            get("definitely-not-a-host.invalid:1", "/v1/healthz"),
            Err(ServeError::InvalidAddr(_) | ServeError::Io(_))
        ));
        assert!(matches!(
            get("not even an address", "/"),
            Err(ServeError::InvalidAddr(_))
        ));
    }
}
