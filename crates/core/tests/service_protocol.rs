//! Integration tests for the scenario-evaluation service: the framed
//! wire protocol's failure handling (truncated prefix, oversized frame,
//! malformed JSON, mid-request disconnect — each a typed error or a
//! clean close, with the server still serving afterwards), a request too
//! large to frame refused by the client before it sends a byte, bounded
//! admission's reject-not-buffer contract at capacity 1, a slow request
//! holding only its own connection, TCP round trips that do not wait on
//! delayed ACKs, a Unix bind that replaces only a stale socket, a
//! shutdown that neither waits on an idle connection nor drops an
//! in-flight reply, and bit-identity of served responses against direct
//! sequential evaluation.

use eval_core::experiments::{Experiments, Figure, TABLES};
use eval_core::models::ConventionalModel;
use eval_core::paper::{ALPHA, EXEMPLAR, MACHINES, PPRO};
use eval_core::service::{EvalError, EvalRequest, Evaluator, Platform, Service, ServiceConfig};
use eval_core::wire::{
    read_frame, write_frame, Client, ClientError, FrameError, Server, WireRequest, WireResponse,
    MAX_FRAME_BYTES,
};
use eval_core::workload::WorkloadScale;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn reduced_evaluator() -> Evaluator {
    let (evaluator, _) = Evaluator::load(WorkloadScale::Reduced, true);
    evaluator
}

/// A running server's address, a receiver that yields once `run` has
/// returned (waited on with a deadline, not joined), and its service.
type Running = (String, mpsc::Receiver<()>, Arc<Service>);

/// Bind a server at `addr` (`127.0.0.1:0` for an OS-assigned port) and
/// run it on a background thread.
fn start_server_at(addr: &str, config: ServiceConfig) -> std::io::Result<Running> {
    let server = Server::bind(addr, Service::start(reduced_evaluator(), config))?;
    let addr = server.local_addr().to_string();
    let service = server.service();
    let (done, returned) = mpsc::channel();
    std::thread::spawn(move || {
        server.run();
        done.send(())
    });
    Ok((addr, returned, service))
}

fn start_server(config: ServiceConfig) -> Running {
    start_server_at("127.0.0.1:0", config).expect("bind test server")
}

fn stop_server(addr: &str, returned: mpsc::Receiver<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let resp = client.shutdown_server().expect("shutdown ack");
    assert!(resp.ok.is_some(), "shutdown must be acknowledged");
    let returned = returned.recv_timeout(Duration::from_secs(5));
    assert!(returned.is_ok(), "run() still running 5 s after Shutdown");
}

fn send_eval_frame(stream: &mut TcpStream, id: u64, request: EvalRequest) {
    let json = serde_json::to_string(&WireRequest::Eval { id, request }).unwrap();
    write_frame(stream, json.as_bytes()).expect("send frame");
}

fn recv_response(stream: &mut TcpStream) -> WireResponse {
    let body = read_frame(stream)
        .expect("read response frame")
        .expect("server closed instead of answering");
    serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("parse response")
}

fn assert_ping_works(addr: &str) {
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.call(EvalRequest::Ping).expect("ping");
    assert_eq!(resp.ok.as_deref(), Some("pong"), "{:?}", resp.error);
}

#[test]
fn protocol_errors_are_typed_and_the_server_keeps_serving() {
    let (addr, returned, _service) = start_server(ServiceConfig { capacity: 16 });

    // 1. Truncated length prefix: two bytes then EOF. No response frame
    //    is owed (there is no intact request); the connection closes.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&[0u8, 0]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        match read_frame(&mut s) {
            Ok(None) => {}
            other => panic!("expected clean close after truncated prefix, got {other:?}"),
        }
    }
    assert_ping_works(&addr);

    // 2. Oversized frame: the announced length alone is the violation —
    //    a typed `frame_too_large` error comes back, then the connection
    //    closes (the stream is desynchronized).
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&(MAX_FRAME_BYTES + 1).to_be_bytes()).unwrap();
        let resp = recv_response(&mut s);
        let err = resp.error.expect("oversized frame must be an error");
        assert_eq!(err.kind, "frame_too_large");
        assert_eq!(resp.id, 0, "uncorrelatable protocol errors use id 0");
        match read_frame(&mut s) {
            Ok(None) => {}
            other => panic!("connection must close after oversized frame, got {other:?}"),
        }
    }
    assert_ping_works(&addr);

    // 3. Malformed JSON body: a typed `malformed_request` error, and the
    //    SAME connection keeps serving (the framing stayed intact).
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        write_frame(&mut s, b"{ this is not json").unwrap();
        let resp = recv_response(&mut s);
        assert_eq!(
            resp.error.expect("malformed body must be an error").kind,
            "malformed_request"
        );
        send_eval_frame(&mut s, 5, EvalRequest::Ping);
        let resp = recv_response(&mut s);
        assert_eq!(resp.id, 5);
        assert_eq!(resp.ok.as_deref(), Some("pong"));
    }

    // 4. Semantically invalid request: typed bad_request, connection
    //    keeps serving.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        send_eval_frame(&mut s, 9, EvalRequest::Table { n: 13 });
        let resp = recv_response(&mut s);
        assert_eq!(resp.id, 9);
        assert_eq!(resp.error.expect("out-of-range table").kind, "bad_request");
        send_eval_frame(&mut s, 10, EvalRequest::Ping);
        assert_eq!(recv_response(&mut s).ok.as_deref(), Some("pong"));
    }

    // 4b. A processor count past the platform's machine size would trip
    //     an assertion inside the conventional model; it must come back
    //     as a typed bad_request, not a panic.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        send_eval_frame(
            &mut s,
            11,
            EvalRequest::ThreatModel {
                platform: Platform::Alpha,
                n_procs: 4,
                n_chunks: 4,
            },
        );
        let resp = recv_response(&mut s);
        assert_eq!(resp.id, 11);
        assert_eq!(
            resp.error.expect("over-cap n_procs on Alpha").kind,
            "bad_request"
        );
        send_eval_frame(&mut s, 12, EvalRequest::Ping);
        assert_eq!(recv_response(&mut s).ok.as_deref(), Some("pong"));
    }

    // 5. Mid-request client disconnect: send a valid request, vanish
    //    before the response. The server must shrug and serve the next
    //    connection.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        send_eval_frame(&mut s, 1, EvalRequest::Sleep { ms: 50 });
        drop(s);
    }
    assert_ping_works(&addr);

    stop_server(&addr, returned);
}

/// A request that serializes past the frame cap is the caller's error:
/// `Client::call` returns it without sending a byte, so the connection
/// stays in sync and keeps serving.
#[test]
fn an_oversized_request_is_an_error_and_the_connection_keeps_serving() {
    let (addr, returned, service) = start_server(ServiceConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let oversized = EvalRequest::Scalability {
        procs: vec![4; 600_000],
    };
    match client.call(oversized) {
        Err(ClientError::Frame(FrameError::Io(e))) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
        }
        other => panic!("expected an InvalidInput frame error, got {other:?}"),
    }
    let resp = client
        .call(EvalRequest::Ping)
        .expect("ping on the same connection");
    assert_eq!(resp.ok.as_deref(), Some("pong"), "{:?}", resp.error);
    assert_eq!(
        service.latency().count(),
        1,
        "only the ping reached the service"
    );
    drop(client);
    stop_server(&addr, returned);
}

#[test]
fn capacity_one_rejects_rather_than_buffers() {
    let service = Service::start(reduced_evaluator(), ServiceConfig { capacity: 1 });

    std::thread::scope(|s| {
        // Take the single slot: a thread sleeps inside its request.
        let sleeper = s.spawn(|| {
            service
                .submit(EvalRequest::Sleep { ms: 400 })
                .expect("first request admitted")
                .wait()
        });
        let t0 = Instant::now();
        while service.in_flight() != 1 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "the sleeper was never admitted"
            );
            std::thread::yield_now();
        }

        // Oversubscribed: a second concurrent submission must be
        // REJECTED, not buffered — no more than `capacity` requests are
        // ever admitted.
        match service.submit(EvalRequest::Ping) {
            Err(EvalError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "retry hint must be usable");
            }
            Err(other) => panic!("expected Overloaded, got {other:?}"),
            Ok(_) => panic!("expected Overloaded, got an admitted request"),
        }
        assert_eq!(service.in_flight(), 1, "rejection must not admit");

        // The admitted request still completes and frees its slot.
        assert_eq!(sleeper.join().unwrap().unwrap(), "slept 400 ms");
    });
    assert_eq!(service.in_flight(), 0);
    let resp = service
        .submit(EvalRequest::Ping)
        .expect("admitted once the sleeper returned");
    assert_eq!(resp.wait().unwrap(), "pong");

    // A stopped service admits nothing more.
    service.stop();
    assert_eq!(
        service.submit(EvalRequest::Ping).err(),
        Some(EvalError::ShuttingDown)
    );
}

/// A slow request holds only its own connection: connection A's 1 s
/// `Sleep` is admitted first, and connection B's `Ping`, sent 100 ms
/// later, is answered while A is still sleeping.
#[test]
fn a_slow_request_does_not_hold_another_connections_reply() {
    let (addr, returned, _service) = start_server(ServiceConfig::default());
    let (slept_at, ponged_at) = std::thread::scope(|s| {
        let slow = s.spawn(|| {
            let mut client = Client::connect(&addr).expect("connect A");
            let resp = client.call(EvalRequest::Sleep { ms: 1000 }).expect("sleep");
            assert_eq!(
                resp.ok.as_deref(),
                Some("slept 1000 ms"),
                "{:?}",
                resp.error
            );
            Instant::now()
        });
        std::thread::sleep(Duration::from_millis(100));
        let mut client = Client::connect(&addr).expect("connect B");
        let resp = client.call(EvalRequest::Ping).expect("ping");
        assert_eq!(resp.ok.as_deref(), Some("pong"), "{:?}", resp.error);
        let ponged_at = Instant::now();
        (slow.join().expect("connection A"), ponged_at)
    });
    assert!(
        ponged_at < slept_at,
        "B's ping was answered {:?} after A's sleep: it waited behind it",
        ponged_at - slept_at
    );
    stop_server(&addr, returned);
}

/// A round trip over TCP waits on nothing but the work: with a frame
/// written as a prefix and a body and Nagle's algorithm on, each body
/// waited for the peer's delayed ACK of its prefix, and 50 pings took
/// ≈ 4.4 s.
#[test]
fn sequential_tcp_pings_do_not_wait_for_delayed_acks() {
    let (addr, returned, _service) = start_server(ServiceConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let t0 = Instant::now();
    for _ in 0..50 {
        let resp = client.call(EvalRequest::Ping).expect("ping");
        assert_eq!(resp.ok.as_deref(), Some("pong"), "{:?}", resp.error);
    }
    let took = t0.elapsed();
    drop(client);
    stop_server(&addr, returned);
    assert!(
        took < Duration::from_secs(1),
        "50 sequential TCP pings took {took:?}"
    );
}

/// The calibrated model of a conventional platform; `None` for the Tera.
fn conventional(e: &Experiments, platform: Platform) -> Option<&ConventionalModel> {
    match platform {
        Platform::Alpha => Some(&e.cal.alpha),
        Platform::PentiumPro => Some(&e.cal.ppro),
        Platform::Exemplar => Some(&e.cal.exemplar),
        Platform::Tera => None,
    }
}

/// The direct `Experiments` call behind a request whose response an
/// `Evaluator` stores or folds from stored points: a table, a figure, the
/// sensitivity table, a scalability projection, or a Threat Analysis or
/// Terrain Masking model. `None` for any other kind. It never goes through
/// an `Evaluator`, so it does not read what the server stores.
fn direct_call(e: &Experiments, req: &EvalRequest) -> Option<String> {
    let seconds = |secs: f64| {
        let secs = serde_json::to_string(&secs).expect("serialize seconds");
        format!("{{\"seconds\":{secs}}}")
    };
    match req {
        EvalRequest::Table { n } => Some(TABLES[usize::from(*n) - 1](e).render()),
        EvalRequest::FigurePlot { n } => Some(e.figure(Figure::ALL[usize::from(*n) - 1])),
        EvalRequest::Sensitivity => Some(e.sensitivity().render()),
        EvalRequest::Scalability { procs } => Some(e.scalability_projection(procs).render()),
        EvalRequest::ThreatModel {
            platform,
            n_procs,
            n_chunks,
        } => Some(seconds(match conventional(e, *platform) {
            Some(model) => e.ta_conv_parallel(model, *n_procs),
            None => e.ta_tera(*n_chunks, *n_procs),
        })),
        EvalRequest::TerrainModel { platform, n_procs } => {
            Some(seconds(match conventional(e, *platform) {
                Some(model) => e.tm_conv_parallel(model, *n_procs),
                None => e.tm_tera(*n_procs),
            }))
        }
        _ => None,
    }
}

#[test]
fn served_responses_are_bit_identical_to_direct_evaluation() {
    let (addr, returned, service) = start_server(ServiceConfig::default());
    let reference = reduced_evaluator();

    // One of every request kind, plus boundary model configurations.
    let mut requests = vec![
        EvalRequest::Ping,
        EvalRequest::Sensitivity,
        EvalRequest::Scalability {
            procs: vec![1, 2, 4, 8, 256],
        },
    ];
    requests.extend((1..=TABLES.len() as u8).map(|n| EvalRequest::Table { n }));
    requests.extend((1..=Figure::ALL.len() as u8).map(|n| EvalRequest::FigurePlot { n }));
    // Each platform at its Table 1 machine size.
    for (platform, n_procs) in [
        (Platform::Alpha, MACHINES[ALPHA].processors),
        (Platform::PentiumPro, MACHINES[PPRO].processors),
        (Platform::Exemplar, MACHINES[EXEMPLAR].processors),
        (Platform::Tera, 256),
    ] {
        requests.push(EvalRequest::ThreatModel {
            platform,
            n_procs,
            n_chunks: 45,
        });
        requests.push(EvalRequest::TerrainModel { platform, n_procs });
    }
    // Each request with its expected body and how often it is sent. A
    // request with a direct call is sent twice: the second reply is read
    // from what the server stored on the first.
    let expected: Vec<(EvalRequest, String, usize)> = requests
        .into_iter()
        .map(|req| match direct_call(reference.experiments(), &req) {
            Some(body) => (req, body, 2),
            None => {
                let body = reference.evaluate(&req).expect("direct evaluation");
                (req, body, 1)
            }
        })
        .collect();

    // Two concurrent connections interleave their requests so responses
    // really go through concurrent admission and evaluation.
    std::thread::scope(|s| {
        for conn in 0..2usize {
            let addr = &addr;
            let expected = &expected;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (i, (req, direct, sends)) in expected.iter().enumerate().skip(conn).step_by(2) {
                    for send in 1..=*sends {
                        let resp = client.call(req.clone()).expect("call");
                        let served = resp.ok.unwrap_or_else(|| {
                            panic!("request {i} failed on the wire: {:?}", resp.error)
                        });
                        assert_eq!(
                            &served, direct,
                            "request {i} ({req:?}), send {send}: served response differs \
                             from direct evaluation"
                        );
                    }
                }
            });
        }
    });

    // This service's histogram saw every completed request, and nothing
    // else: one sample each, recorded before the reply is sent.
    // Sent twice: the 17 fixed kinds, the projection, the four
    // `ThreatModel`s and the four `TerrainModel`s.
    let sends: usize = expected.iter().map(|(_, _, sends)| sends).sum();
    assert_eq!(sends, expected.len() + 17 + 1 + 4 + 4);
    assert_eq!(service.latency().count(), sends as u64);

    stop_server(&addr, returned);
}

/// A per-process Unix socket path under the temp dir, nothing there yet.
fn socket_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("c3i-wire-{name}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_str().unwrap().to_string()
}

/// The error a bind at `path` fails with, which names the path.
fn bind_error(path: &str) -> std::io::Error {
    let bound = start_server_at(path, ServiceConfig::default());
    let err = bound.err().expect("bind must fail");
    assert!(err.to_string().contains(path), "{err}");
    err
}

/// Binding a Unix path that holds a regular file fails and leaves the
/// file as it was.
#[test]
fn bind_over_a_regular_file_fails_and_keeps_it() {
    let path = socket_path("file");
    std::fs::write(&path, "pinned").unwrap();
    assert_eq!(bind_error(&path).kind(), ErrorKind::AlreadyExists);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "pinned");
    std::fs::remove_file(&path).unwrap();
}

/// A second bind on a running server's path fails, and the first server
/// keeps its socket and answers.
#[test]
fn bind_over_a_live_socket_fails_and_the_first_server_keeps_serving() {
    let path = socket_path("live");
    let (addr, returned, _service) = start_server_at(&path, ServiceConfig::default()).unwrap();
    assert_eq!(bind_error(&path).kind(), ErrorKind::AddrInUse);
    assert_ping_works(&addr);
    stop_server(&addr, returned);
    assert!(!Path::new(&path).exists(), "shutdown removes the socket");
}

/// A socket whose listener is gone (a killed server's) is replaced.
#[test]
fn bind_over_a_stale_socket_succeeds() {
    let path = socket_path("stale");
    drop(UnixListener::bind(&path).unwrap());
    let (addr, returned, _service) = start_server_at(&path, ServiceConfig::default()).unwrap();
    assert_ping_works(&addr);
    stop_server(&addr, returned);
}

/// `Shutdown` ends `run()` while another connection stays open and idle,
/// its thread blocked reading the next frame.
#[test]
fn shutdown_returns_with_an_idle_connection_open() {
    let (addr, returned, _service) = start_server(ServiceConfig::default());
    let mut idle = Client::connect(&addr).expect("connect");
    idle.call(EvalRequest::Ping).expect("ping");
    stop_server(&addr, returned);
}

/// A request in flight when `Shutdown` arrives still gets its reply.
#[test]
fn an_in_flight_request_is_answered_across_shutdown() {
    let (addr, returned, service) = start_server(ServiceConfig::default());
    std::thread::scope(|s| {
        let slow = s.spawn(|| {
            let mut client = Client::connect(&addr).expect("connect");
            client.call(EvalRequest::Sleep { ms: 300 }).expect("sleep")
        });
        while service.in_flight() == 0 && !slow.is_finished() {
            std::thread::yield_now();
        }
        stop_server(&addr, returned);
        assert_eq!(slow.join().unwrap().ok.as_deref(), Some("slept 300 ms"));
    });
}
