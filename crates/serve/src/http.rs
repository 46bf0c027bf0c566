//! Just enough HTTP/1.1 to serve JSON over a `TcpStream` — now with
//! persistent connections and streamed responses.
//!
//! The daemon hand-rolls its transport for the same reason the workspace
//! hand-rolls its compat crates: the build environment is offline, so no
//! hyper/axum.  The subset implemented here is deliberately small and
//! deliberately defensive: header and body sizes are capped so a malicious
//! peer cannot make the server buffer unbounded bytes, and every parse
//! failure maps to a `4xx`/`501` instead of a panic.
//!
//! ## One message reader
//!
//! Every message this crate reads — a request at the server or the fleet
//! router, a response at the [`Client`], an upstream response the router
//! relays — goes through one reader: one bounded line reader, one
//! field-line loop (request heads, response heads and chunked trailers, each
//! head within [`MAX_HEAD_BYTES`]), one framing decision and one body reader
//! that hands decoded bytes to its caller (a `Vec`, or the relay's
//! downstream socket).  Bodies grow only as their bytes arrive, never from a
//! size the peer declares.  The framing follows RFC 9112 §6.3, for requests
//! and responses alike:
//!
//! * a repeated `Content-Length`, one that is not all ASCII digits, one next
//!   to a `Transfer-Encoding`, a field line without a token name directly
//!   followed by its colon, or a chunk size that is not all hex digits is a
//!   `400`;
//! * any transfer coding other than one final `chunked` is a `501`;
//! * a head past [`MAX_HEAD_BYTES`] is a `431`, a request body (declared, or
//!   decoded from chunks) past [`MAX_BODY_BYTES`] a `413`.
//!
//! Reads run under one of two deadline policies:
//!
//! * **server** ([`ReadLimits`]): the request head must *complete* within a
//!   head deadline (a slow-header drip cannot ride per-read timeouts
//!   forever), each read must progress within a stall cap (a mid-body stall
//!   is torn down promptly), and the whole request is bounded by a total
//!   deadline.  All three map to `408`, counted as `stall_timeouts_closed`;
//! * **client** (one response deadline, used by [`Client`],
//!   [`read_response_head`] and [`relay_response`]): each wait is capped at
//!   one second and retried until the deadline runs out, so a server
//!   trickling bytes cannot stretch the exchange past it.
//!
//! ## Connection lifecycle
//!
//! A connection serves **many requests per socket**, but a worker only ever
//! holds it for one request *burst*: between requests the socket parks in
//! the runtime's reactor (`crate::reactor`), and when it becomes readable a
//! pool worker parses one request with [`read_dispatched_request`], writes
//! one response, serves any pipelined requests already buffered, and hands
//! the socket back to the reactor while [`Request::keep_alive`] holds.
//! `HTTP/1.1` defaults to keep-alive, `HTTP/1.0` to close; a
//! `Connection: close`/`keep-alive` header overrides either way.  Any parse
//! error closes the connection after the error response — resynchronising
//! inside a hostile byte stream is not worth the attack surface.
//!
//! ## Responses
//!
//! Small bodies go out in one `Content-Length` write
//! ([`write_json_response`]).  Large bodies (the 100k-anchor alignment case)
//! stream through a [`ChunkedWriter`] as `Transfer-Encoding: chunked`, so
//! the response never materialises as one giant `String`; the writer
//! implements [`std::fmt::Write`], which lets the same rendering code fill
//! either a `String` or the wire.

use crate::json;
use crate::runtime::{Conn, RuntimeMetrics};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on a message head (start line + field lines), and on one
/// chunk-size line plus the trailers of a chunked body.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.  Inline edge lists and attribute matrices
/// for graphs in this workspace's serving range fit comfortably; anything
/// larger should ship as a persisted artifact path instead.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Default per-read stall cap while actively reading a request; a peer that
/// stalls mid-exchange frees its worker.  (Idle time *between* requests is
/// governed by the reactor's timer wheel instead.)
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);
/// Default hard ceiling on parsing **one whole request**.  Per-read timeouts
/// alone would let a byte-trickling peer (one byte per 25 s) pin a pool
/// worker for hours and stall the shutdown join behind it; the deadline caps
/// any request's parse time — and therefore the worst-case drain — at 30 s.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
/// Default deadline for the request *head* to arrive completely.  Tighter
/// than the whole-request deadline: heads are tiny, so a head that trickles
/// for this long is a slowloris, not a slow network.
const HEAD_DEADLINE: Duration = Duration::from_secs(10);
/// Longest single wait under the client deadline policy.  [`Client::closed`]
/// probes with whatever timeout the last read armed, so this cap also keeps
/// that probe short on a live socket.
const CLIENT_WAIT: Duration = Duration::from_secs(1);
/// Chunked responses buffer up to this much before writing a chunk.
const CHUNK_BYTES: usize = 64 * 1024;

/// Read-progress deadlines for parsing one request — the slow-client
/// defenses.  The server layer derives these from its configured stall
/// timeout; [`Default`] gives the standalone values.
#[derive(Debug, Clone)]
pub struct ReadLimits {
    /// The whole head (request line + headers) must arrive within this.
    pub head_deadline: Duration,
    /// Every individual read must make progress within this (mid-body
    /// stall cap).
    pub stall: Duration,
    /// The whole request (head + body) must arrive within this.
    pub total: Duration,
}

impl Default for ReadLimits {
    fn default() -> Self {
        Self {
            head_deadline: HEAD_DEADLINE,
            stall: SOCKET_TIMEOUT,
            total: REQUEST_DEADLINE,
        }
    }
}

impl ReadLimits {
    /// Limits derived from one stall budget: the head must complete and any
    /// single read must progress within `stall`; the total request budget
    /// stays at the standalone default (never below the stall budget).
    pub fn with_stall(stall: Duration) -> Self {
        Self {
            head_deadline: stall,
            stall,
            total: REQUEST_DEADLINE.max(stall),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// The decoded body, whether it arrived with a `Content-Length` or
    /// chunked.
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response, per the
    /// request's HTTP version and `Connection` header.
    pub keep_alive: bool,
    /// All request headers — lower-cased names with trimmed values, in
    /// arrival order.  The server layer reads its extension headers
    /// (`X-HTC-Deadline-Ms`, `X-HTC-Client`) from here.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// The one header lookup behind [`Request::header`],
/// [`ResponseHead::header`] and [`ClientResponse::header`]: names are
/// stored lower-cased, so the comparison needs no allocation.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// A request-level failure that should turn into an HTTP error response.
#[derive(Debug)]
pub struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }
}

/// Why reading a message failed.  The server maps it to an [`HttpError`],
/// the client to a `String`.
#[derive(Debug)]
enum ReadError {
    /// The message breaks framing or a size cap, or the connection failed
    /// mid-message; the server answers with this status.
    Invalid(u16, String),
    /// The deadline ran out, or (server policy) one read stalled.
    Timeout,
    /// The body's destination failed (the relay's downstream write).
    Sink(std::io::Error),
}

fn invalid(message: impl Into<String>) -> ReadError {
    ReadError::Invalid(400, message.into())
}

impl From<ReadError> for HttpError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Invalid(status, message) => HttpError { status, message },
            ReadError::Timeout => HttpError {
                status: 408,
                message: "request took too long to arrive".into(),
            },
            ReadError::Sink(e) => HttpError::bad_request(format!("writing body: {e}")),
        }
    }
}

impl From<ReadError> for String {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Invalid(_, message) => message,
            ReadError::Timeout => "response deadline exceeded".into(),
            ReadError::Sink(e) => format!("writing body: {e}"),
        }
    }
}

/// How a message body is delimited.
#[derive(Debug, Clone, Copy)]
enum Framing {
    Length(u64),
    Chunked,
}

/// The one framing decision (RFC 9112 §6.3), for requests and responses
/// alike.  `None` when the head declares no body framing at all.
fn framing(fields: &[(String, String)]) -> Result<Option<Framing>, ReadError> {
    let mut lengths = fields
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, value)| value.as_str());
    let mut codings = fields
        .iter()
        .filter(|(name, _)| name == "transfer-encoding")
        .flat_map(|(_, value)| value.split(','))
        .map(str::trim);
    let length = lengths.next();
    if lengths.next().is_some() {
        return Err(invalid("repeated Content-Length"));
    }
    match (codings.next(), length) {
        (None, None) => Ok(None),
        (None, Some(value)) => decimal(value)
            .map(|n| Some(Framing::Length(n)))
            .ok_or_else(|| invalid(format!("bad Content-Length {value:?}"))),
        (Some(_), Some(_)) => Err(invalid("Transfer-Encoding together with Content-Length")),
        (Some(coding), None)
            if coding.eq_ignore_ascii_case("chunked") && codings.next().is_none() =>
        {
            Ok(Some(Framing::Chunked))
        }
        (Some(_), None) => Err(ReadError::Invalid(
            501,
            "only a single chunked transfer coding is implemented".into(),
        )),
    }
}

/// A non-empty run of ASCII digits as a number.  `str::parse` alone would
/// also accept a leading `+`.
fn decimal(s: &str) -> Option<u64> {
    Some(s)
        .filter(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|s| s.parse().ok())
}

/// The size on a chunk-size line: hex digits, optionally followed by
/// `;`-separated chunk extensions (ignored).
fn chunk_size(line: &str) -> Result<u64, ReadError> {
    let digits = line
        .split_once(';')
        .map_or(line, |(size, _)| size)
        .trim_end_matches([' ', '\t']);
    Some(digits)
        .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or_else(|| invalid(format!("bad chunk size {line:?}")))
}

/// Whether `s` is an RFC 9110 token — the only shape a field name may take.
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// One message being read off a buffered socket under a deadline policy.
struct MessageReader<'a> {
    reader: &'a mut BufReader<TcpStream>,
    deadline: Instant,
    /// `Some(stall)` is the server policy: one read that waits `stall` is a
    /// timeout.  `None` is the client policy: waits of at most
    /// [`CLIENT_WAIT`] are retried until the deadline.
    stall: Option<Duration>,
}

impl MessageReader<'_> {
    /// Runs one read under the deadline policy — the one place that arms
    /// the socket's read timeout.  A read of zero bytes means the peer
    /// closed the connection mid-message.
    fn wait(
        &mut self,
        mut read: impl FnMut(&mut BufReader<TcpStream>) -> std::io::Result<usize>,
    ) -> Result<usize, ReadError> {
        loop {
            // Buffered bytes are served without touching the socket.
            if self.reader.buffer().is_empty() {
                let remaining = self
                    .deadline
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                    .ok_or(ReadError::Timeout)?;
                let cap = self.stall.unwrap_or(CLIENT_WAIT);
                self.reader
                    .get_ref()
                    .set_read_timeout(Some(remaining.min(cap)))
                    .map_err(|e| invalid(format!("socket: {e}")))?;
            }
            match read(self.reader) {
                Ok(0) => return Err(invalid("connection closed mid-message")),
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_stall_error(&e) && self.stall.is_none() => {}
                Err(e) if is_stall_error(&e) => return Err(ReadError::Timeout),
                Err(e) => return Err(invalid(format!("read failed: {e}"))),
            }
        }
    }

    /// One line up to its LF, charged against the head `budget` before it
    /// is buffered; returned without its line ending.  Collected through
    /// `fill_buf`/`consume` because `BufRead::read_line` has no cap, and
    /// drops what it appended when a read times out.
    fn line(&mut self, budget: &mut usize) -> Result<String, ReadError> {
        let mut line = Vec::new();
        loop {
            self.wait(|r| r.fill_buf().map(<[u8]>::len))?;
            let buf = self.reader.buffer();
            let (take, done) = match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => (pos + 1, true),
                None => (buf.len(), false),
            };
            *budget = budget
                .checked_sub(take)
                .ok_or_else(|| ReadError::Invalid(431, "message head too large".into()))?;
            line.extend_from_slice(&buf[..take]);
            self.reader.consume(take);
            if done {
                break;
            }
        }
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line).map_err(|_| invalid("message head is not UTF-8"))
    }

    /// Field lines up to the empty line that ends a head or a trailer
    /// section: lower-cased names with trimmed values, in arrival order.
    fn fields(&mut self, budget: &mut usize) -> Result<Vec<(String, String)>, ReadError> {
        let mut fields = Vec::new();
        loop {
            let line = self.line(budget)?;
            if line.is_empty() {
                return Ok(fields);
            }
            // No whitespace may sit before the colon (RFC 9112 §5.1).
            let (name, value) = line
                .split_once(':')
                .filter(|(name, _)| is_token(name))
                .ok_or_else(|| invalid("malformed field line"))?;
            fields.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    /// The one body reader: hands each decoded piece of the body to `sink`,
    /// `limit` bytes at most (`413` past it).  Chunk trailers are read and
    /// dropped.
    fn body(
        &mut self,
        framing: Framing,
        limit: u64,
        sink: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
    ) -> Result<(), ReadError> {
        let too_large = || ReadError::Invalid(413, format!("body exceeds {limit} bytes"));
        match framing {
            Framing::Length(length) if length > limit => Err(too_large()),
            Framing::Length(length) => self.copy(length, sink),
            Framing::Chunked => {
                let mut total = 0u64;
                loop {
                    let mut budget = MAX_HEAD_BYTES;
                    let size = chunk_size(&self.line(&mut budget)?)?;
                    if size == 0 {
                        self.fields(&mut budget)?;
                        return Ok(());
                    }
                    total = total
                        .checked_add(size)
                        .filter(|&t| t <= limit)
                        .ok_or_else(too_large)?;
                    self.copy(size, sink)?;
                    if !self.line(&mut budget)?.is_empty() {
                        return Err(invalid("chunk data not followed by CRLF"));
                    }
                }
            }
        }
    }

    /// Hands exactly `count` body bytes to `sink`, one bounded buffer at a
    /// time, so memory follows the bytes that arrived.  Reads this large
    /// bypass the connection's small read buffer once it is drained, so a
    /// big body costs one read per 16 KiB rather than one per buffer fill.
    fn copy(
        &mut self,
        mut count: u64,
        sink: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
    ) -> Result<(), ReadError> {
        let mut buf = [0u8; 16 * 1024];
        while count > 0 {
            let want = count.min(buf.len() as u64) as usize;
            let n = self.wait(|r| r.read(&mut buf[..want]))?;
            sink(&buf[..n]).map_err(ReadError::Sink)?;
            count -= n as u64;
        }
        Ok(())
    }
}

/// Reads one request from a connection's buffered reader: the head must
/// complete within `limits.head_deadline`, every read must progress within
/// `limits.stall`, and the whole request must arrive within `limits.total`.
pub fn read_request_limited(
    reader: &mut BufReader<TcpStream>,
    limits: &ReadLimits,
) -> Result<Request, HttpError> {
    let start = Instant::now();
    let mut message = MessageReader {
        reader,
        deadline: start + limits.head_deadline.min(limits.total),
        stall: Some(limits.stall),
    };
    let mut budget = MAX_HEAD_BYTES;
    let request_line = message.line(&mut budget)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(HttpError::bad_request("malformed request line"));
    };
    // HTTP/1.1 (and anything newer or unstated) defaults to keep-alive;
    // HTTP/1.0 to close.
    let http_10 = parts.next() == Some("HTTP/1.0");
    let headers = message.fields(&mut budget)?;
    let keep_alive = match find_header(&headers, "connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => !http_10,
    };
    let framing = framing(&headers)?.unwrap_or(Framing::Length(0));
    message.deadline = start + limits.total;
    let mut body = Vec::new();
    message.body(framing, MAX_BODY_BYTES as u64, &mut |piece| {
        body.extend_from_slice(piece);
        Ok(())
    })?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
        headers,
    })
}

/// Reads the next request of a dispatched burst — the one read path of
/// `htc-serve` and the fleet router.  `None` means close the connection: a
/// clean FIN from a parked peer, a stalled read, or a request that failed to
/// parse, which is answered with its error status first.  Timeouts count as
/// `stall_timeouts_closed`.
pub fn read_dispatched_request(
    conn: &mut Conn,
    limits: &ReadLimits,
    metrics: &RuntimeMetrics,
) -> Option<Request> {
    if !conn.has_buffered() {
        // A dispatch with no buffered bytes is either the first request of
        // the burst or a clean FIN from a parked peer; peek before parsing
        // so a normal hangup is not answered with a 400.
        let mut peek = MessageReader {
            reader: conn.reader_mut(),
            deadline: Instant::now() + limits.stall,
            stall: Some(limits.stall),
        };
        if let Err(e) = peek.wait(|r| r.fill_buf().map(<[u8]>::len)) {
            if matches!(e, ReadError::Timeout) {
                metrics.stall_timeouts_closed.inc();
            }
            return None;
        }
    }
    let error = match read_request_limited(conn.reader_mut(), limits) {
        Ok(request) => return Some(request),
        Err(error) => error,
    };
    if error.status == 408 {
        metrics.stall_timeouts_closed.inc();
    }
    let body = json::obj(vec![
        ("error", json::str(error.message)),
        ("kind", json::str("http")),
    ])
    .render();
    // A byte stream that failed to parse is not worth resynchronising:
    // answer and close.  The worker moves on unharmed.
    let _ = write_json_response(conn.stream_mut(), error.status, &body, false);
    None
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Whether an I/O error is a progress stall (a read/write timeout fired
/// because the peer stopped moving bytes) rather than a disconnect.  The
/// server layer counts these as `stall_timeouts_closed`.
pub fn is_stall_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Writes a complete `Content-Length` JSON response and flushes.
pub fn write_json_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_json_response_with(stream, status, body, keep_alive, None)
}

/// [`write_json_response`] with an optional `Retry-After` header (seconds) —
/// the backpressure responses (`429`/`503`/`504`) carry their backoff hint in
/// both the header and the structured JSON body.
pub fn write_json_response_with(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_secs: Option<u64>,
) -> std::io::Result<()> {
    let retry_after = match retry_after_secs {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry_after}Connection: {}\r\n\r\n{body}",
        status_text(status),
        body.len(),
        connection_header(keep_alive),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response body in progress.
///
/// Text accumulates in a fixed-size buffer and leaves as a chunk whenever
/// [`CHUNK_BYTES`] fill up, so the peak memory of a response is one chunk —
/// not the whole body.  The writer implements [`std::fmt::Write`]; I/O errors
/// are latched and reported by [`finish`](Self::finish) (mid-render there is
/// nothing useful a renderer could do with them).
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    buf: Vec<u8>,
    error: Option<std::io::Error>,
}

/// Starts a chunked JSON response: writes the head, returns the body writer.
pub fn begin_chunked_json(
    stream: &mut TcpStream,
    status: u16,
    keep_alive: bool,
) -> std::io::Result<ChunkedWriter<'_>> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        status_text(status),
        connection_header(keep_alive),
    );
    stream.write_all(head.as_bytes())?;
    Ok(ChunkedWriter {
        stream,
        buf: Vec::with_capacity(CHUNK_BYTES),
        error: None,
    })
}

impl ChunkedWriter<'_> {
    fn flush_chunk(&mut self) {
        if self.error.is_some() || self.buf.is_empty() {
            self.buf.clear();
            return;
        }
        let header = format!("{:x}\r\n", self.buf.len());
        let outcome = self
            .stream
            .write_all(header.as_bytes())
            .and_then(|()| self.stream.write_all(&self.buf))
            .and_then(|()| self.stream.write_all(b"\r\n"));
        if let Err(e) = outcome {
            self.error = Some(e);
        }
        self.buf.clear();
    }

    /// Flushes the remaining buffer, writes the terminating zero-length
    /// chunk, and surfaces any I/O error latched along the way.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.flush_chunk();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl std::fmt::Write for ChunkedWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.buf.extend_from_slice(s.as_bytes());
        if self.buf.len() >= CHUNK_BYTES {
            self.flush_chunk();
        }
        Ok(())
    }
}

/// A minimal keep-alive HTTP/1.1 client over one socket — the counterpart
/// of this module's server half, shared by the examples, the `serve_load`
/// generator and the integration tests so the request framing (one write
/// per request, `TCP_NODELAY`, chunked-aware reads) lives in exactly one
/// place.
pub struct Client {
    /// Sole owner of the socket: reads go through the buffer, writes through
    /// [`BufReader::get_mut`].  One fd per connection, not two — at 10 000
    /// keep-alive clients the difference is half the process's fd budget.
    reader: BufReader<TcpStream>,
    /// Overall budget for reading one whole response; see
    /// [`set_response_deadline`](Self::set_response_deadline).
    response_deadline: Duration,
}

/// Default overall budget for reading one response (status line through the
/// last body byte).  Matches the old per-read socket timeout, but as a cap on
/// the *whole* response: a server trickling one byte per 59 s can no longer
/// hang a client indefinitely.
const CLIENT_RESPONSE_DEADLINE: Duration = Duration::from_secs(60);

impl Client {
    /// Connects with `TCP_NODELAY` (a second segment on a warm connection
    /// would stall ~40ms behind Nagle + delayed ACK); reads are bounded by
    /// the response deadline (default 60 s per response).
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// [`connect`](Self::connect) with a bound on the TCP handshake itself —
    /// the fleet router and the supervisor's health prober must learn "this
    /// shard is unreachable" in milliseconds, not after the kernel's minutes-
    /// long connect timeout.
    pub fn connect_timeout(
        addr: std::net::SocketAddr,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Client::from_stream(stream)
    }

    /// Wraps an already-connected stream (e.g. one opened before the server
    /// had a free worker, to observe queueing).
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        Ok(Client {
            reader: BufReader::new(stream),
            response_deadline: CLIENT_RESPONSE_DEADLINE,
        })
    }

    /// Caps how long [`read`](Self::read) may spend on one whole response.
    /// Every read along the way is bounded by the remaining budget, so a
    /// stalled — or byte-trickling — server fails the exchange within the
    /// deadline instead of hanging the client forever.
    pub fn set_response_deadline(&mut self, deadline: Duration) {
        self.response_deadline = deadline;
    }

    /// Writes one request (single write; keep-alive unless `close`).
    pub fn send_with(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<()> {
        self.send_with_headers(method, path, body, close, &[])
    }

    /// [`send_with`](Self::send_with) plus extra request headers (e.g. the
    /// `X-HTC-Deadline-Ms` budget or the `X-HTC-Client` identity).
    pub fn send_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
        headers: &[(&str, &str)],
    ) -> std::io::Result<()> {
        self.send_request_bytes(method, path, body.as_bytes(), close, headers)
    }

    /// Writes one keep-alive request.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<()> {
        self.send_with(method, path, body, false)
    }

    /// Writes one request with a raw byte body — the proxy path, where the
    /// router forwards a request body verbatim without asserting it is UTF-8.
    /// This is the one request formatter: head and body leave in one write.
    pub fn send_request_bytes(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
        headers: &[(&str, &str)],
    ) -> std::io::Result<()> {
        let connection = if close { "close" } else { "keep-alive" };
        let mut extra = String::new();
        for (name, value) in headers {
            extra.push_str(&format!("{name}: {value}\r\n"));
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: client\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{extra}Connection: {connection}\r\n\r\n",
            body.len()
        );
        let mut request = Vec::with_capacity(head.len() + body.len());
        request.extend_from_slice(head.as_bytes());
        request.extend_from_slice(body);
        self.reader.get_mut().write_all(&request)
    }

    /// The buffered read half — the fleet router relays response bytes
    /// straight off it after [`read_response_head`].
    pub fn reader_mut(&mut self) -> &mut BufReader<TcpStream> {
        &mut self.reader
    }

    /// Reads the next response off the persistent connection — status line,
    /// headers, then a `Content-Length` or chunked body — bounded by the
    /// response deadline.
    pub fn read(&mut self) -> Result<ClientResponse, String> {
        let deadline = Instant::now() + self.response_deadline;
        let head = read_response_head(&mut self.reader, deadline)?;
        let mut body = Vec::new();
        let mut message = MessageReader {
            reader: &mut self.reader,
            deadline,
            stall: None,
        };
        message.body(head.framing, u64::MAX, &mut |piece| {
            body.extend_from_slice(piece);
            Ok(())
        })?;
        Ok(ClientResponse {
            status: head.status,
            headers: head.headers,
            body,
        })
    }

    /// One full exchange on the persistent connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<ClientResponse, String> {
        self.send(method, path, body)
            .map_err(|e| format!("send: {e}"))?;
        self.read()
    }

    /// Raw access to the socket, for tests that write hostile bytes.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }

    /// True once the server has closed the connection — clean FIN (EOF) or
    /// RST (the server dropped the socket with unread bytes pending).
    pub fn closed(&mut self) -> bool {
        let mut byte = [0u8; 1];
        match self.reader.read(&mut byte) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => !is_stall_error(&e),
        }
    }
}

/// A client-side response, as read by [`Client::read`].
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    /// Lower-cased header names with their trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// The status line and headers of one response, parsed but with the body
/// still unread on the stream.  This is the decision point for a proxy: a
/// head that arrived means the upstream is committed to answering, so the
/// caller can start relaying; a head that failed means the request can still
/// fail over to another upstream with nothing written downstream.
#[derive(Debug)]
pub struct ResponseHead {
    pub status: u16,
    /// Lower-cased names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// How the still-unread body is delimited, decided with the head.
    framing: Framing,
}

impl ResponseHead {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Reads one response head (status line + headers) off the stream, leaving
/// the body unread.  A head whose body framing is malformed or missing is an
/// error here, before anything could be relayed.
pub fn read_response_head(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
) -> Result<ResponseHead, String> {
    let mut message = MessageReader {
        reader,
        deadline,
        stall: None,
    };
    let mut budget = MAX_HEAD_BYTES;
    let status_line = message.line(&mut budget)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(decimal)
        .and_then(|s| u16::try_from(s).ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = message.fields(&mut budget)?;
    let framing =
        framing(&headers)?.ok_or("response has neither Content-Length nor chunked encoding")?;
    Ok(ResponseHead {
        status,
        headers,
        framing,
    })
}

/// Why a [`relay_response`] failed — the two sides matter differently to a
/// proxy: an upstream failure mid-body leaves the downstream response torn
/// (the connection must close), while a downstream failure just means the
/// client went away.
#[derive(Debug)]
pub enum RelayError {
    Upstream(String),
    Downstream(std::io::Error),
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayError::Upstream(e) => write!(f, "upstream: {e}"),
            RelayError::Downstream(e) => write!(f, "downstream: {e}"),
        }
    }
}

/// Relays one already-read [`ResponseHead`] plus its still-unread body from
/// `upstream` to `downstream`, preserving the body framing: a
/// `Content-Length` body is copied in bounded buffers, and each decoded
/// piece of a chunked body leaves in a chunk frame of its own — a streamed
/// upstream response stays streamed through the proxy, with peak memory one
/// copy buffer regardless of body size.
///
/// Every upstream header is forwarded verbatim except `Connection`, which is
/// rewritten for the *downstream* connection's keep-alive state (the two
/// hops' lifetimes are independent), plus any `extra_headers` the proxy wants
/// to inject (e.g. `X-HTC-Shard`).
pub fn relay_response(
    upstream: &mut BufReader<TcpStream>,
    head: &ResponseHead,
    downstream: &mut TcpStream,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
    deadline: Instant,
) -> Result<(), RelayError> {
    let mut out = format!("HTTP/1.1 {} {}\r\n", head.status, status_text(head.status));
    for (name, value) in &head.headers {
        if name == "connection" {
            continue;
        }
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    for (name, value) in extra_headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str(&format!(
        "Connection: {}\r\n\r\n",
        connection_header(keep_alive)
    ));
    downstream
        .write_all(out.as_bytes())
        .map_err(RelayError::Downstream)?;

    let chunked = matches!(head.framing, Framing::Chunked);
    let mut frame = Vec::new();
    let mut message = MessageReader {
        reader: upstream,
        deadline,
        stall: None,
    };
    let relayed = message.body(head.framing, u64::MAX, &mut |piece| {
        if !chunked {
            return downstream.write_all(piece);
        }
        frame.clear();
        write!(frame, "{:x}\r\n", piece.len())?;
        frame.extend_from_slice(piece);
        frame.extend_from_slice(b"\r\n");
        downstream.write_all(&frame)
    });
    match relayed {
        Ok(()) => {}
        Err(ReadError::Sink(e)) => return Err(RelayError::Downstream(e)),
        Err(e) => return Err(RelayError::Upstream(e.into())),
    }
    if chunked {
        downstream
            .write_all(b"0\r\n\r\n")
            .map_err(RelayError::Downstream)?;
    }
    downstream.flush().map_err(RelayError::Downstream)
}
