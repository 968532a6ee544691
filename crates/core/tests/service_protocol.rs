//! Integration tests for the scenario-evaluation service: the framed
//! wire protocol's failure handling (truncated prefix, oversized frame,
//! malformed JSON, mid-request disconnect — each a typed error or a
//! clean close, with the server still serving afterwards), the bounded
//! queue's reject-not-buffer contract at depth 1, and bit-identity of
//! served responses against direct sequential evaluation.

use eval_core::service::{EvalError, EvalRequest, Evaluator, Platform, Service, ServiceConfig};
use eval_core::wire::{
    read_frame, write_frame, Client, Server, WireRequest, WireResponse, MAX_FRAME_BYTES,
};
use eval_core::workload::WorkloadScale;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn reduced_evaluator() -> Evaluator {
    let (evaluator, _) = Evaluator::load(WorkloadScale::Reduced, true);
    evaluator
}

/// Bind a server on an OS-assigned TCP port and run it on a background
/// thread; returns the resolved address, the accept-loop handle and the
/// service behind the socket.
fn start_server(config: ServiceConfig) -> (String, std::thread::JoinHandle<()>, Arc<Service>) {
    let service = Service::start(reduced_evaluator(), config);
    let server = Server::bind("127.0.0.1:0", service).expect("bind test server");
    let addr = server.local_addr().to_string();
    let service = server.service();
    let handle = std::thread::spawn(move || server.run().expect("server accept loop"));
    (addr, handle, service)
}

fn stop_server(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let resp = client.shutdown_server().expect("shutdown ack");
    assert!(resp.ok.is_some(), "shutdown must be acknowledged");
    handle.join().expect("server thread");
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
    let (addr, handle, _service) = start_server(ServiceConfig {
        capacity: 16,
        batch_max: 4,
        n_threads: 1,
    });

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
    //     as a typed bad_request, never kill the batch worker (which
    //     would leave every later request waiting forever).
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

    stop_server(&addr, handle);
}

#[test]
fn queue_depth_one_rejects_rather_than_buffers() {
    let service = Service::start(
        reduced_evaluator(),
        ServiceConfig {
            capacity: 1,
            batch_max: 1,
            n_threads: 1,
        },
    );

    // Occupy the worker: wait until it has drained the queue and is
    // sleeping inside the request.
    let busy = service
        .submit(EvalRequest::Sleep { ms: 400 })
        .expect("first request admitted");
    let t0 = Instant::now();
    while service.queue_len() != 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "worker never started"
        );
        std::thread::yield_now();
    }

    // Fill the single queue slot.
    let queued = service
        .submit(EvalRequest::Sleep { ms: 0 })
        .expect("second request fills the queue");
    assert_eq!(service.queue_len(), 1);

    // Oversubscribed: the third submission must be REJECTED, not
    // buffered — the queue provably never grows past its capacity.
    match service.submit(EvalRequest::Ping) {
        Err(EvalError::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 1, "retry hint must be usable");
        }
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an admitted request"),
    }
    assert_eq!(service.queue_len(), 1, "rejection must not enqueue");

    // Both admitted requests still complete, and the queue drains.
    assert_eq!(busy.wait().unwrap(), "slept 400 ms");
    assert_eq!(queued.wait().unwrap(), "slept 0 ms");
    let resp = service.submit(EvalRequest::Ping).expect("queue drained");
    assert_eq!(resp.wait().unwrap(), "pong");
}

#[test]
fn served_responses_are_bit_identical_to_direct_evaluation() {
    let (addr, handle, service) = start_server(ServiceConfig::default());
    let reference = reduced_evaluator();

    // One of every request kind, plus boundary model configurations.
    let mut requests = vec![
        EvalRequest::Ping,
        EvalRequest::Sensitivity,
        EvalRequest::Scalability {
            procs: vec![1, 2, 4, 8, 256],
        },
    ];
    requests.extend((1..=12).map(|n| EvalRequest::Table { n }));
    requests.extend((1..=4).map(|n| EvalRequest::FigurePlot { n }));
    // Each platform at its Table 1 machine size.
    for (platform, n_procs) in [
        (Platform::Alpha, 1),
        (Platform::PentiumPro, 4),
        (Platform::Exemplar, 16),
        (Platform::Tera, 256),
    ] {
        requests.push(EvalRequest::ThreatModel {
            platform,
            n_procs,
            n_chunks: 45,
        });
        requests.push(EvalRequest::TerrainModel { platform, n_procs });
    }

    // Two concurrent connections interleave their requests so responses
    // really go through admission, batching, and pool sharding.
    std::thread::scope(|s| {
        for conn in 0..2usize {
            let addr = &addr;
            let reference = &reference;
            let requests = &requests;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (i, req) in requests.iter().enumerate().skip(conn).step_by(2) {
                    let resp = client.call(req.clone()).expect("call");
                    let served = resp.ok.unwrap_or_else(|| {
                        panic!("request {i} failed on the wire: {:?}", resp.error)
                    });
                    let direct = reference.evaluate(req).expect("direct evaluation");
                    assert_eq!(
                        served, direct,
                        "request {i} ({req:?}): served response differs from direct evaluation"
                    );
                }
            });
        }
    });

    // This service's histogram saw every completed request, and nothing
    // else: one sample each, recorded before the reply is sent.
    assert_eq!(service.latency().count(), requests.len() as u64);

    stop_server(&addr, handle);
}
