//! A long-lived server must not keep the threads of connections it has
//! finished serving. A thread that exits but is never joined keeps its
//! stack mapped, so a server that joins only at shutdown grows by about
//! one stack (≈ 2 MiB of address space) per connection it has ever
//! served. Alone in its binary: `VmSize` is process-wide, and another
//! test's threads would move it.

use eval_core::service::{EvalRequest, Evaluator, Service, ServiceConfig};
use eval_core::wire::{Client, Server};
use eval_core::workload::WorkloadScale;
use std::time::{Duration, Instant};

/// This process's mapped address space, in KiB (`VmSize` in
/// `/proc/self/status`).
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmSize:"))
        .expect("a VmSize line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmSize in kB")
}

/// Threads alive in this process. An exited thread is not among them,
/// joined or not.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Connect, ping, close, and wait for the server's connection thread to
/// exit. One connection thread at a time, so each new one reuses the
/// malloc arena the last one released: concurrent threads would each
/// reserve an arena (64 MiB of address space) and blur the reading.
fn ping_once(addr: &str) {
    let idle = live_threads();
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.call(EvalRequest::Ping).expect("ping");
    assert_eq!(resp.ok.as_deref(), Some("pong"), "{:?}", resp.error);
    drop(client);
    let t0 = Instant::now();
    while live_threads() > idle {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the connection thread never exited"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn finished_connection_threads_release_their_stacks() {
    let (evaluator, _) = Evaluator::load(WorkloadScale::Reduced, true);
    let service = Service::start(evaluator, ServiceConfig::default());
    let server = Server::bind("127.0.0.1:0", service).expect("bind test server");
    let addr = server.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || server.run());

    // Warm up: the first connections map what every later one reuses.
    for _ in 0..10 {
        ping_once(&addr);
    }
    let before = vm_size_kib();
    for _ in 0..300 {
        ping_once(&addr);
    }
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;

    let mut client = Client::connect(&addr).expect("connect for shutdown");
    assert!(client.shutdown_server().expect("shutdown ack").ok.is_some());
    accept_loop.join().expect("server thread");

    assert!(
        grown_mib < 128,
        "300 served connections grew the address space by {grown_mib} MiB: \
         their finished threads were never joined"
    );
}
