//! HTTP/1.1 message framing over real loopback sockets (RFC 9112 §6.3):
//! the status each malformed framing gets from `htc-serve`, the two
//! request-smuggling probes, chunked requests, the client's bounds against a
//! hostile upstream, and a framing fuzz test for the request and response
//! readers.

use htc_serve::http::{
    read_request_limited, Client, HttpError, ReadLimits, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use htc_serve::{Server, ServerConfig};
use proptest::prelude::*;
use proptest::TestRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn start_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Writes `raw` on a fresh keep-alive connection and collects the status of
/// every response: the first may take up to 10 s, each later one must
/// follow within 300 ms, until the connection closes or goes quiet.
fn statuses(addr: SocketAddr, raw: &[u8]) -> Vec<u16> {
    let mut client = Client::connect(addr).unwrap();
    client.stream_mut().write_all(raw).unwrap();
    client.set_response_deadline(Duration::from_secs(10));
    let mut statuses = Vec::new();
    while let Ok(response) = client.read() {
        statuses.push(response.status);
        client.set_response_deadline(Duration::from_millis(300));
    }
    statuses
}

/// A request whose body is itself a complete request.
const SMUGGLED: &str = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";

/// Duplicate `Content-Length` with a request hidden in the body.  A reader
/// that lets the last length win answers the hidden request too.
fn duplicate_length_probe() -> String {
    format!(
        "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nContent-Length: 0\r\n\r\n{SMUGGLED}",
        SMUGGLED.len()
    )
}

/// A chunked body that hides a request.  A reader that ignores
/// `Transfer-Encoding` parses the chunk framing as the next request.
fn chunked_hiding_probe() -> String {
    format!(
        "POST /align HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{SMUGGLED}\r\n0\r\n\r\n",
        SMUGGLED.len()
    )
}

#[test]
fn smuggling_probes_get_exactly_one_response() {
    let server = start_server();
    let addr = server.addr();
    assert_eq!(statuses(addr, duplicate_length_probe().as_bytes()), [400]);
    // The hidden request is the body of a malformed /align, nothing more.
    assert_eq!(statuses(addr, chunked_hiding_probe().as_bytes()), [400]);
    server.shutdown();
}

#[test]
fn malformed_framing_is_rejected_and_closes_the_connection() {
    let server = start_server();
    let addr = server.addr();
    let head = "POST /align HTTP/1.1\r\nHost: x\r\n";
    let cases: &[(&str, u16)] = &[
        ("Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}", 400),
        ("Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}", 400),
        ("Content-Length: +2\r\n\r\n{}", 400),
        ("Content-Length: -1\r\n\r\n", 400),
        ("Content-Length: 2 2\r\n\r\n{}", 400),
        ("Content-Length: 99999999999999999999999\r\n\r\n", 400),
        ("Transfer-Encoding: chunked\r\n\r\n+a\r\n", 400),
        ("Transfer-Encoding: chunked\r\n\r\n0x2\r\n", 400),
        ("Transfer-Encoding: chunked\r\n\r\n2\r\n{}XX0\r\n\r\n", 400),
        ("NoColonHere\r\nContent-Length: 0\r\n\r\n", 400),
        ("Content-Length : 0\r\n\r\n", 400),
        (" Folded: x\r\nContent-Length: 0\r\n\r\n", 400),
        (
            "Transfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n0\r\n\r\n",
            400,
        ),
        ("Transfer-Encoding: gzip\r\n\r\n", 501),
        ("Transfer-Encoding: gzip, chunked\r\n\r\n", 501),
        ("Transfer-Encoding: chunked, chunked\r\n\r\n", 501),
        ("Transfer-Encoding: chunked\r\n\r\n4000001\r\n", 413),
    ];
    for (rest, status) in cases {
        let mut client = Client::connect(addr).unwrap();
        client.set_response_deadline(Duration::from_secs(5));
        client
            .stream_mut()
            .write_all(format!("{head}{rest}").as_bytes())
            .unwrap();
        let response = client.read().unwrap_or_else(|e| panic!("{rest:?}: {e}"));
        assert_eq!(
            response.status,
            *status,
            "{rest:?}: {}",
            response.body_str()
        );
        assert_eq!(response.header("connection"), Some("close"), "{rest:?}");
        assert!(client.closed(), "{rest:?} must close the connection");
    }
    server.shutdown();
}

#[test]
fn chunked_requests_are_decoded() {
    let server = start_server();
    let body = "{\"preset\":\"fast\",\"epochs\":5,\
        \"source\":{\"num_nodes\":6,\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0],[0,3]]},\
        \"target\":{\"num_nodes\":6,\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}}";
    let (first, second) = body.split_at(40);
    let request = format!(
        "POST /align HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
         {:x};ext=1\r\n{first}\r\n{:X}\r\n{second}\r\n0\r\nX-Trailer: t\r\n\r\n\
         GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        first.len(),
        second.len()
    );
    let mut client = Client::connect(server.addr()).unwrap();
    client.stream_mut().write_all(request.as_bytes()).unwrap();
    let aligned = client.read().unwrap();
    assert_eq!(aligned.status, 200, "{}", aligned.body_str());
    assert!(aligned.body_str().contains("\"anchors\""));
    // The keep-alive stream stays aligned after the trailer section.
    assert_eq!(client.read().unwrap().status, 200);
    server.shutdown();
}

/// Reads one response from a fake upstream that writes `respond`'s bytes,
/// then hangs up.
fn read_from_fake_upstream(
    respond: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> Result<htc_serve::http::ClientResponse, String> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let upstream = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        respond(&mut socket);
    });
    let mut client = Client::connect(addr).unwrap();
    client.set_response_deadline(Duration::from_secs(10));
    let response = client.read();
    drop(client);
    upstream.join().unwrap();
    response
}

#[test]
fn client_never_allocates_from_a_declared_size() {
    let huge_length = read_from_fake_upstream(|socket| {
        let _ = socket.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nabc");
    });
    assert!(huge_length.is_err());

    let huge_chunk = read_from_fake_upstream(|socket| {
        let _ = socket.write_all(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nabc",
        );
    });
    assert!(huge_chunk.is_err());

    let endless_head = read_from_fake_upstream(|socket| {
        let _ = socket.write_all(b"HTTP/1.1 200 OK\r\n");
        // Stops when the client hangs up, or after about 1 MiB.
        for _ in 0..(1 << 20) / 16 {
            if socket.write_all(b"X-Endless: 0123\r\n").is_err() {
                break;
            }
        }
    });
    let err = endless_head.expect_err("an endless head must fail");
    assert!(err.contains("too large"), "{err}");
}

// ---- Framing fuzz ----------------------------------------------------------

/// What a conforming reader must make of one generated message.
#[derive(Debug)]
enum Expect {
    /// It is read as this start-line label (`"METHOD /path"` or the status)
    /// with this body.
    Read(String, Vec<u8>),
    /// It is rejected; by the server with this status, if one is given (the
    /// client's errors carry none).
    Rejected(Option<u16>),
    /// Bytes with no defined meaning: nothing after them is checked except
    /// the total count.
    Garbage,
}

/// What a reader made of one message: its start-line label and body, or
/// the rejection status (none for the client).
type Outcome = Result<(String, Vec<u8>), Option<u16>>;

struct Message {
    bytes: Vec<u8>,
    expect: Expect,
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[(rng.next_u64() % options.len() as u64) as usize]
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// `body` as chunks of random sizes, ending in the zero chunk, sometimes
/// with extensions, upper-case hex and a trailer field.
fn chunked(rng: &mut TestRng, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let n = 1 + below(rng, rest.len() as u64) as usize;
        let size = if below(rng, 2) == 0 {
            format!("{n:x}")
        } else {
            format!("{n:X}")
        };
        let ext = pick(rng, &["", ";a=b", ";x"]);
        out.extend_from_slice(format!("{size}{ext}\r\n").as_bytes());
        out.extend_from_slice(&rest[..n]);
        out.extend_from_slice(b"\r\n");
        rest = &rest[n..];
    }
    out.extend_from_slice(pick(rng, &["0\r\n\r\n", "0\r\nX-Trailer: 1\r\n\r\n"]).as_bytes());
    out
}

/// One request (or response) with random headers and framing, valid or
/// broken in one of the ways RFC 9112 §6.3 says to reject.
fn message(rng: &mut TestRng, request: bool) -> Message {
    let (start, label) = if request {
        let method = pick(rng, &["GET", "POST", "PUT"]);
        let path = pick(rng, &["/", "/align", "/stats?x=1"]);
        (
            format!("{method} {path} {}", pick(rng, &["HTTP/1.1", "HTTP/1.0"])),
            format!("{method} {path}"),
        )
    } else {
        let status = pick(rng, &["200", "400", "503"]);
        (format!("HTTP/1.1 {status} Whatever"), status.to_string())
    };
    let body: Vec<u8> = match below(rng, 3) {
        0 => Vec::new(),
        1 => b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        _ => (0..below(rng, 48)).map(|_| rng.next_u64() as u8).collect(),
    };
    let mut head = format!("{start}\r\n");
    for _ in 0..below(rng, 3) {
        head.push_str(pick(
            rng,
            &[
                "Host: x\r\n",
                "X-Pad: a b\r\n",
                "Connection: keep-alive\r\n",
            ],
        ));
    }
    let length = pick(rng, &["Content-Length", "content-length", "CONTENT-LENGTH"]);
    let coding = pick(rng, &["chunked", "Chunked"]);
    let n = body.len();
    let (fields, payload, expect) = match below(rng, 12) {
        0 | 1 => (
            format!("{length}: {n}\r\n"),
            body.clone(),
            Expect::Read(label, body),
        ),
        2 | 3 => (
            format!("Transfer-Encoding: {coding}\r\n"),
            chunked(rng, &body),
            Expect::Read(label, body),
        ),
        // No framing: an empty request body; a response must declare one.
        4 if request => (String::new(), Vec::new(), Expect::Read(label, Vec::new())),
        4 => (String::new(), Vec::new(), Expect::Rejected(None)),
        5 => {
            let other = pick(rng, &["0", "1", "5"]);
            let field = format!("{length}: {n}\r\n{length}: {other}\r\n");
            (field, body, Expect::Rejected(Some(400)))
        }
        6 => {
            let value = match below(rng, 4) {
                0 => format!("+{n}"),
                1 => format!("-{n}"),
                2 => format!("{n} {n}"),
                _ => format!("0x{n:x}"),
            };
            (
                format!("{length}: {value}\r\n"),
                body,
                Expect::Rejected(Some(400)),
            )
        }
        7 => (
            format!("Transfer-Encoding: {coding}\r\n{length}: {n}\r\n"),
            chunked(rng, &body),
            Expect::Rejected(Some(400)),
        ),
        8 => {
            let codings = pick(
                rng,
                &["gzip", "gzip, chunked", "chunked, chunked", "identity"],
            );
            let field = format!("Transfer-Encoding: {codings}\r\n");
            (field, chunked(rng, &body), Expect::Rejected(Some(501)))
        }
        9 => {
            let size = pick(rng, &["+a", "-1", "zz", " 5", "", "1ffffffffffffffff"]);
            let field = format!("Transfer-Encoding: {coding}\r\n");
            (
                field,
                format!("{size}\r\n").into_bytes(),
                Expect::Rejected(Some(400)),
            )
        }
        10 => match below(rng, 4) {
            0 => {
                let line = pick(
                    rng,
                    &[
                        "NoColon\r\n",
                        "Bad Name: v\r\n",
                        "Name : v\r\n",
                        " folded: v\r\n",
                    ],
                );
                let field = format!("{line}{length}: {n}\r\n");
                (field, body, Expect::Rejected(Some(400)))
            }
            1 => {
                let field = format!("X-Big: {}\r\n", "a".repeat(MAX_HEAD_BYTES));
                (field, body, Expect::Rejected(Some(431)))
            }
            // A declared body past the cap, never sent: a request is refused
            // before its body is read; a client reads until the stream ends.
            2 => (
                format!("{length}: {}\r\n", MAX_BODY_BYTES + 1),
                Vec::new(),
                Expect::Rejected(if request { Some(413) } else { None }),
            ),
            _ => (
                format!("Transfer-Encoding: {coding}\r\n"),
                format!("{:x}\r\n", MAX_BODY_BYTES + 1).into_bytes(),
                Expect::Rejected(if request { Some(413) } else { None }),
            ),
        },
        _ => {
            let garbage: Vec<u8> = (0..1 + below(rng, 64))
                .map(|_| rng.next_u64() as u8)
                .collect();
            return Message {
                bytes: garbage,
                expect: Expect::Garbage,
            };
        }
    };
    let mut bytes = format!("{head}{fields}\r\n").into_bytes();
    bytes.extend_from_slice(&payload);
    Message { bytes, expect }
}

/// A stream of 1–5 messages, sometimes cut short.  A cut message may fail
/// with any status; messages after the cut are never sent.
fn stream(rng: &mut TestRng, request: bool) -> (Vec<u8>, Vec<Message>) {
    let mut messages: Vec<Message> = (0..1 + below(rng, 5))
        .map(|_| message(rng, request))
        .collect();
    let mut bytes: Vec<u8> = messages.iter().flat_map(|m| m.bytes.clone()).collect();
    if below(rng, 4) == 0 {
        let cut = below(rng, bytes.len() as u64 + 1) as usize;
        bytes.truncate(cut);
        let mut start = 0;
        messages.retain_mut(|m| {
            let (from, to) = (start, start + m.bytes.len());
            start = to;
            if to > cut && from < cut && !matches!(m.expect, Expect::Garbage) {
                m.expect = Expect::Rejected(None);
            }
            from < cut
        });
    }
    (bytes, messages)
}

/// Writes `bytes` over loopback in pieces split at random points, then
/// closes the write side.
fn write_in_pieces(mut socket: TcpStream, bytes: Vec<u8>, seed: u64) {
    let mut rng = TestRng::new(seed);
    socket.set_nodelay(true).unwrap();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let n = 1 + below(&mut rng, rest.len() as u64) as usize;
        if socket.write_all(&rest[..n]).is_err() {
            return;
        }
        rest = &rest[n..];
        std::thread::sleep(Duration::from_micros(200));
    }
    let _ = socket.shutdown(std::net::Shutdown::Write);
    // Hold the socket until the reader is done, so an unread tail never
    // turns the close into a reset.
    let _ = std::io::Read::read(&mut socket, &mut [0u8; 1]);
}

fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    (client, server)
}

/// Checks what a reader made of a stream against what each message says it
/// must: exactly the leading messages read back, then the expected
/// rejection, and never more messages than were written.
fn check(messages: &[Message], outcomes: &[Outcome]) -> Result<(), TestCaseError> {
    let read = outcomes.iter().filter(|o| o.is_ok()).count();
    prop_assert!(
        read <= messages.len(),
        "{read} messages read from {}",
        messages.len()
    );
    for (i, message) in messages.iter().enumerate() {
        match &message.expect {
            Expect::Read(label, body) => {
                let got = outcomes.get(i);
                prop_assert!(
                    matches!(got, Some(Ok((l, b))) if l == label && b == body),
                    "message {i}: expected {label:?} with a {}-byte body, got {got:?}",
                    body.len()
                );
            }
            Expect::Rejected(status) => {
                let got = outcomes.get(i);
                prop_assert!(
                    matches!(got, Some(Err(s)) if status.is_none() || s.is_none() || s == status),
                    "message {i}: expected rejection {status:?}, got {got:?}"
                );
                return Ok(());
            }
            Expect::Garbage => return Ok(()),
        }
    }
    Ok(())
}

/// A parsed request as a start-line label and body, after checking the caps.
fn request_outcome(request: Result<Request, HttpError>) -> Outcome {
    let request = request.map_err(|e| Some(e.status))?;
    let head: usize = request.headers.iter().map(|(n, v)| n.len() + v.len()).sum();
    assert!(head <= MAX_HEAD_BYTES && request.body.len() <= MAX_BODY_BYTES);
    Ok((format!("{} {}", request.method, request.path), request.body))
}

proptest! {
    /// The request reader over random request streams: no panic, exactly
    /// the well-framed leading requests, the RFC 9112 §6.3 status for the
    /// first malformed one, and no request smuggled out of a body.
    #[test]
    fn request_reader_frames_random_streams(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let (bytes, messages) = stream(&mut rng, true);
        let (client, server) = loopback_pair();
        let writer = std::thread::spawn(move || write_in_pieces(client, bytes, seed));
        server.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(server);
        let limits = ReadLimits::with_stall(Duration::from_secs(10));
        let mut outcomes = Vec::new();
        while !matches!(reader.fill_buf(), Ok([]) | Err(_)) {
            let outcome = request_outcome(read_request_limited(&mut reader, &limits));
            let failed = outcome.is_err();
            outcomes.push(outcome);
            if failed {
                break;
            }
        }
        drop(reader);
        writer.join().unwrap();
        check(&messages, &outcomes)?;
    }

    /// The client's response reader over random response streams: the same
    /// properties, with every rejection an `Err`.
    #[test]
    fn response_reader_frames_random_streams(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let (bytes, messages) = stream(&mut rng, false);
        let (client_side, server_side) = loopback_pair();
        let writer = std::thread::spawn(move || write_in_pieces(server_side, bytes, seed));
        let mut client = Client::from_stream(client_side).unwrap();
        client.set_response_deadline(Duration::from_secs(10));
        let mut outcomes = Vec::new();
        loop {
            match client.read() {
                Ok(response) => {
                    let head: usize = response.headers.iter().map(|(n, v)| n.len() + v.len()).sum();
                    prop_assert!(head <= MAX_HEAD_BYTES);
                    outcomes.push(Ok((response.status.to_string(), response.body)));
                }
                Err(_) => {
                    outcomes.push(Err(None));
                    break;
                }
            }
        }
        drop(client);
        writer.join().unwrap();
        check(&messages, &outcomes)?;
    }
}
