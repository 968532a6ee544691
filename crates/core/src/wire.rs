//! Length-prefixed JSON framing and the `repro --serve` socket server.
//!
//! The protocol is deliberately minimal and std-only (vendored-offline
//! policy): each frame is a 4-byte **big-endian** `u32` byte length
//! followed by exactly that many bytes of UTF-8 JSON. Frames are capped
//! at [`MAX_FRAME_BYTES`]; a peer announcing more is answered with a
//! typed `frame_too_large` error and the connection is closed (the
//! stream is desynchronized past that point). Malformed input is never
//! zero-filled or guessed at:
//!
//! * clean EOF between frames → normal connection close,
//! * truncated length prefix or truncated body → connection close
//!   (nothing trustworthy to respond to),
//! * oversized length prefix → `frame_too_large` error frame, close,
//! * syntactically invalid JSON / wrong shape → `malformed_request`
//!   error frame, connection **keeps serving**,
//! * semantically invalid request → typed [`EvalError`] response via the
//!   service's admission validation, connection keeps serving.
//!
//! Request/response bodies are externally-tagged vendored-serde values:
//!
//! ```json
//! {"Eval": {"id": 7, "request": {"Table": {"n": 3}}}}
//! {"id": 7, "ok": "<rendered table>", "error": null}
//! ```
//!
//! The server accepts either a TCP address (`127.0.0.1:9311`) or — when
//! the address contains a `/` — a Unix socket path. One OS thread per
//! connection, and each request is evaluated on its connection's thread
//! once the [`Service`] behind it has admitted it.
//!
//! [`Server::bind`] replaces only a *stale* Unix socket, one that refuses
//! a connection: a live one is `AddrInUse`, a non-socket `AlreadyExists`.
//! On `Shutdown` the server closes the read half of every open
//! connection, so an idle one sees EOF while one still evaluating a
//! request writes its reply first, then joins them all and returns.
//!
//! [`write_frame`] writes the prefix and the body with one write, and
//! every TCP stream, accepted or connected, sets `TCP_NODELAY`. A request
//! and its reply are each one small segment, so nothing waits on Nagle's
//! algorithm for the peer's delayed ACK. (Two writes per frame on a Nagle
//! stream hold each body until the prefix is acknowledged, on both sides:
//! ≈ 88 ms a round trip over `127.0.0.1`.)

use crate::service::{EvalError, EvalRequest, Pending, Service};
use std::io::{Error, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Hard cap on a frame body, in bytes. Every real response (a rendered
/// table is a few KiB) fits with orders of magnitude to spare; anything
/// larger is a protocol error, not a bigger buffer.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Framing-layer failures. [`read_frame`] distinguishes them so the
/// server can choose between answering (oversized) and closing
/// (truncated — there is no intact peer to answer).
#[derive(Debug)]
pub enum FrameError {
    /// EOF in the middle of the 4-byte length prefix.
    TruncatedPrefix {
        /// Prefix bytes actually received (1–3).
        got: usize,
    },
    /// EOF before the announced body length arrived.
    TruncatedBody {
        /// Announced body length.
        expected: u32,
    },
    /// The announced length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Announced body length.
        announced: u32,
    },
    /// Underlying socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedPrefix { got } => {
                write!(f, "truncated length prefix ({got} of 4 bytes)")
            }
            FrameError::TruncatedBody { expected } => {
                write!(f, "truncated frame body (announced {expected} bytes)")
            }
            FrameError::Oversized { announced } => write!(
                f,
                "frame of {announced} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            ),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Read one frame. `Ok(None)` is a clean close (EOF exactly on a frame
/// boundary); every partial read is a typed [`FrameError`], never a
/// zero-filled or short buffer.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::TruncatedPrefix { got })
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { announced: len });
    }
    let mut body = vec![0u8; len as usize];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(Some(body)),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(FrameError::TruncatedBody { expected: len })
        }
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Write one frame (4-byte big-endian length, then the body) with one
/// `write_all`, so a TCP peer receives the frame as one segment rather
/// than a prefix it must acknowledge before the body follows. A body over
/// [`MAX_FRAME_BYTES`] is an `InvalidInput` error and nothing is written,
/// so the stream stays in sync.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME_BYTES as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame body of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                body.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

// ── wire message shapes ──────────────────────────────────────────────────

/// A client→server frame body.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WireRequest {
    /// Evaluate one scenario request; the response echoes `id`.
    Eval {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// The scenario evaluation to run.
        request: EvalRequest,
    },
    /// Ask the server to stop accepting connections and exit after
    /// draining in-flight work. Acknowledged before shutdown proceeds.
    Shutdown {
        /// Client-chosen correlation id, echoed in the acknowledgement.
        id: u64,
    },
}

/// A server→client frame body. Exactly one of `ok`/`error` is set.
/// Protocol-level errors that cannot be correlated to a request (the
/// frame never parsed) carry `id: 0`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireResponse {
    /// Correlation id echoed from the request (0 for uncorrelatable
    /// protocol errors).
    pub id: u64,
    /// The successful response body.
    pub ok: Option<String>,
    /// The typed error, when the request failed.
    pub error: Option<WireError>,
}

/// A typed error crossing the wire.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireError {
    /// Machine-readable kind: `bad_request`, `overloaded`,
    /// `shutting_down`, `internal`, `frame_too_large`, or
    /// `malformed_request`.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// For `overloaded` only: suggested client back-off in milliseconds.
    pub retry_after_ms: Option<u64>,
}

impl WireResponse {
    /// A success response.
    pub fn success(id: u64, body: String) -> Self {
        Self {
            id,
            ok: Some(body),
            error: None,
        }
    }

    /// An error response with the given kind/message.
    pub fn failure(id: u64, kind: &str, message: String, retry_after_ms: Option<u64>) -> Self {
        Self {
            id,
            ok: None,
            error: Some(WireError {
                kind: kind.to_string(),
                message,
                retry_after_ms,
            }),
        }
    }

    /// Map a service-layer [`EvalError`] onto the wire.
    pub fn from_eval_error(id: u64, err: &EvalError) -> Self {
        match err {
            EvalError::BadRequest(msg) => Self::failure(id, "bad_request", msg.clone(), None),
            EvalError::Overloaded { retry_after_ms } => Self::failure(
                id,
                "overloaded",
                format!("at capacity; retry after ~{retry_after_ms} ms"),
                Some(*retry_after_ms),
            ),
            EvalError::ShuttingDown => {
                Self::failure(id, "shutting_down", "service is shutting down".into(), None)
            }
            EvalError::Internal(msg) => Self::failure(id, "internal", msg.clone(), None),
        }
    }
}

// ── transport ────────────────────────────────────────────────────────────

/// A connected byte stream over either transport. An address containing
/// a `/` is a Unix socket path; anything else is a TCP address.
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Connect to `addr` (Unix path if it contains `/`, else TCP).
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        if addr.contains('/') {
            Ok(Stream::Unix(UnixStream::connect(addr)?))
        } else {
            Ok(Stream::tcp(TcpStream::connect(addr)?))
        }
    }

    /// A TCP stream with Nagle's algorithm off (`TCP_NODELAY`; see the
    /// module docs). Best effort: a stream where the option cannot be set
    /// still works, only slower, so the failure does not close it (nor,
    /// on the accepting side, stop the server).
    fn tcp(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        Stream::Tcp(stream)
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            Stream::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

// ── server ───────────────────────────────────────────────────────────────

/// The `repro --serve` socket server: accepts connections, one OS thread
/// each, and submits parsed requests to the [`Service`] on that thread.
pub struct Server {
    listener: Listener,
    local_addr: String,
    unix_path: Option<PathBuf>,
    service: Arc<Service>,
}

impl Server {
    /// Bind `addr` (Unix socket path if it contains `/`, else TCP — use
    /// port 0 for an OS-assigned port) and attach `service`. A stale
    /// Unix socket at the path is removed first; anything else there is
    /// an error that names the path (see the module docs).
    pub fn bind(addr: &str, service: Service) -> std::io::Result<Self> {
        let service = Arc::new(service);
        if addr.contains('/') {
            let path = PathBuf::from(addr);
            remove_stale_socket(&path)?;
            let listener = UnixListener::bind(&path)?;
            Ok(Self {
                listener: Listener::Unix(listener),
                local_addr: addr.to_string(),
                unix_path: Some(path),
                service,
            })
        } else {
            let listener = TcpListener::bind(addr)?;
            let local_addr = listener.local_addr()?.to_string();
            Ok(Self {
                listener: Listener::Tcp(listener),
                local_addr,
                unix_path: None,
                service,
            })
        }
    }

    /// The bound address (with the OS-assigned port resolved for TCP).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// The service behind the socket, shared with the connection threads
    /// (so a caller can read [`Service::latency`] while the server runs).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Accept and serve connections until a `Shutdown` request arrives,
    /// then drain and return. Blocks the calling thread. A failed accept
    /// (out of descriptors) is retried, never returned.
    pub fn run(self) {
        let service = self.service;
        let stop = Arc::new(AtomicBool::new(false));
        // Each connection's thread, beside a second handle on its socket
        // for closing the read half at shutdown.
        let mut conns: Vec<(JoinHandle<()>, Stream)> = Vec::new();
        loop {
            let accepted = self.listener.accept();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // A finished thread keeps its stack mapped until it is joined.
            for (done, _) in conns.extract_if(.., |(h, _)| h.is_finished()) {
                let _ = done.join();
            }
            // Out of descriptors: the connection waits in the backlog until
            // the sweep frees some, and the pause keeps the loop from spinning.
            let Ok(mut stream) = accepted else {
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            };
            // Out of descriptors or threads: this connection is dropped
            // (closed) unserved, and the server keeps accepting.
            let Ok(reader) = stream.try_clone() else {
                continue;
            };
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let wake_addr = self.local_addr.clone();
            let spawned = std::thread::Builder::new()
                .name("c3i-serve-conn".into())
                .spawn(move || {
                    let outcome = serve_connection(&mut stream, &service);
                    // `reader` keeps the socket open until the next sweep:
                    // shut it down so the peer sees the close now.
                    let _ = stream.shutdown(Shutdown::Both);
                    if outcome == ConnOutcome::ShutdownRequested {
                        stop.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so it observes the flag.
                        let _ = Stream::connect(&wake_addr);
                    }
                });
            if let Ok(handle) = spawned {
                conns.push((handle, reader));
            }
        }
        for (_, reader) in &conns {
            let _ = reader.shutdown(Shutdown::Read);
        }
        for (h, _) in conns {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Clear a Unix `path` for [`Server::bind`]: a missing path is fine, a
/// socket that refuses a connection (its server is gone) is removed, and
/// anything else is left alone and reported.
fn remove_stale_socket(path: &Path) -> std::io::Result<()> {
    let meta = match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
        meta => meta?,
    };
    let named = |kind, what: &str| Error::new(kind, format!("{}: {what}", path.display()));
    if !meta.file_type().is_socket() {
        return Err(named(ErrorKind::AlreadyExists, "not a socket"));
    }
    match UnixStream::connect(path) {
        Ok(_) => Err(named(ErrorKind::AddrInUse, "a server is listening on it")),
        Err(e) if e.kind() == ErrorKind::ConnectionRefused => std::fs::remove_file(path),
        Err(e) => Err(named(e.kind(), &e.to_string())),
    }
}

#[derive(PartialEq, Eq)]
enum ConnOutcome {
    Closed,
    ShutdownRequested,
}

/// Serve one connection until it closes, errors, or requests shutdown.
/// Framing errors follow the module-level policy; a client that vanishes
/// mid-request (write failure) just closes this connection — the request
/// itself still completes and its response is dropped.
fn serve_connection(stream: &mut Stream, service: &Service) -> ConnOutcome {
    loop {
        let body = match read_frame(stream) {
            Ok(None) => return ConnOutcome::Closed,
            Ok(Some(body)) => body,
            Err(FrameError::Oversized { announced }) => {
                let resp = WireResponse::failure(
                    0,
                    "frame_too_large",
                    format!("frame of {announced} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
                    None,
                );
                let _ = send_response(stream, &resp);
                return ConnOutcome::Closed; // stream is desynchronized
            }
            // Truncated or broken input: no intact peer to answer.
            Err(_) => return ConnOutcome::Closed,
        };
        let parsed = std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<WireRequest>(text).map_err(|e| e.to_string()));
        let req = match parsed {
            Ok(req) => req,
            Err(msg) => {
                let resp = WireResponse::failure(0, "malformed_request", msg, None);
                if send_response(stream, &resp).is_err() {
                    return ConnOutcome::Closed;
                }
                continue; // the frame itself was intact: keep serving
            }
        };
        match req {
            WireRequest::Shutdown { id } => {
                let resp = WireResponse::success(id, "shutting down".to_string());
                let _ = send_response(stream, &resp);
                return ConnOutcome::ShutdownRequested;
            }
            WireRequest::Eval { id, request } => {
                let resp = match service.submit(request).and_then(Pending::wait) {
                    Ok(body) => WireResponse::success(id, body),
                    Err(err) => WireResponse::from_eval_error(id, &err),
                };
                if send_response(stream, &resp).is_err() {
                    return ConnOutcome::Closed;
                }
            }
        }
    }
}

fn send_response(stream: &mut Stream, resp: &WireResponse) -> std::io::Result<()> {
    let json = serde_json::to_string(resp).expect("serialize response");
    write_frame(stream, json.as_bytes())
}

// ── client ───────────────────────────────────────────────────────────────

/// Client-side failures for [`Client::call`].
#[derive(Debug)]
pub enum ClientError {
    /// Framing or socket failure.
    Frame(FrameError),
    /// The server answered with bytes that are not a [`WireResponse`],
    /// or closed before answering.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::BadResponse(msg) => write!(f, "bad response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking protocol client (used by `repro --load` and the protocol
/// tests). One request in flight at a time per connection.
pub struct Client {
    stream: Stream,
    next_id: u64,
}

impl Client {
    /// Connect to a server at `addr` (same address grammar as
    /// [`Server::bind`]).
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        Ok(Self {
            stream: Stream::connect(addr)?,
            next_id: 1,
        })
    }

    /// Send one evaluation request and block for its response.
    pub fn call(&mut self, request: EvalRequest) -> Result<WireResponse, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.roundtrip(&WireRequest::Eval { id, request })
    }

    /// Ask the server to shut down; returns its acknowledgement.
    pub fn shutdown_server(&mut self) -> Result<WireResponse, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.roundtrip(&WireRequest::Shutdown { id })
    }

    fn roundtrip(&mut self, req: &WireRequest) -> Result<WireResponse, ClientError> {
        let json = serde_json::to_string(req).expect("serialize request");
        write_frame(&mut self.stream, json.as_bytes()).map_err(FrameError::Io)?;
        let body = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::BadResponse("server closed before answering".into()))?;
        let text =
            std::str::from_utf8(&body).map_err(|e| ClientError::BadResponse(e.to_string()))?;
        serde_json::from_str::<WireResponse>(text)
            .map_err(|e| ClientError::BadResponse(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"x\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"x\":1}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_prefix_and_body_are_typed() {
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TruncatedPrefix { got: 2 })
        ));

        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TruncatedBody { expected: 5 })
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let announced = MAX_FRAME_BYTES + 1;
        let mut r = &announced.to_be_bytes()[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversized { announced: a }) if a == announced
        ));
    }

    #[test]
    fn oversized_body_is_refused_before_writing() {
        let mut buf = Vec::new();
        let body = vec![b' '; MAX_FRAME_BYTES as usize + 1];
        let err = write_frame(&mut buf, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "{} bytes written", buf.len());
        write_frame(&mut buf, &body[1..]).expect("a body at the cap is written");
    }

    /// A writer that counts its `write` calls.
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
    fn a_frame_is_one_write() {
        let mut w = CountingWriter::default();
        for (frames, body) in (1..).zip([&b"{\"x\":1}"[..], b"", &[b' '; 4096]]) {
            write_frame(&mut w, body).unwrap();
            assert_eq!(w.writes, frames, "frame of {} bytes", body.len());
        }
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"x\":1}");
    }

    #[test]
    fn tcp_streams_set_nodelay_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let connected = Stream::connect(&addr).unwrap();
        let accepted = Listener::Tcp(listener).accept().unwrap();
        for (end, stream) in [("connected", connected), ("accepted", accepted)] {
            let Stream::Tcp(stream) = stream else {
                panic!("{end}: not a TCP stream")
            };
            assert!(stream.nodelay().unwrap(), "{end}: Nagle is on");
        }
    }

    #[test]
    fn wire_messages_round_trip() {
        let req = WireRequest::Eval {
            id: 42,
            request: EvalRequest::Table { n: 3 },
        };
        let back: WireRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);

        let resp = WireResponse::failure(0, "overloaded", "at capacity".into(), Some(12));
        let back: WireResponse =
            serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }
}
