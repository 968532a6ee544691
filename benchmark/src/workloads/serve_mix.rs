//! `serve-mix`: the only workload that runs `service` and `wire`. Set-up
//! measures a paper-scale snapshot into a scratch `C3I_CACHE_DIR`, spawns
//! `repro --serve <unix socket>` against it, and precomputes the expected
//! body of every request with in-process `Evaluator::evaluate`. An op is
//! one request of the seeded mix; the response body must equal the
//! expected bytes, and a rejection counts as failed.
//!
//! **Closed loop, 2 connections**: each connection sends its next request
//! only after the previous reply — the callers of `repro --load` each
//! wait for their reply. A slow server therefore receives less load; an
//! open-loop generator is a program change for a later issue. `op_ms` is
//! the cheap-request path (framing + queue handshake), while `work_per_s`
//! — requests answered correctly ÷ the time the load ran, slice by slice —
//! is set by `Evaluator` time in the heavy tail and by how long the other
//! requests queue behind it.

use super::Workload;
use crate::common::{peak_rss_mb, wait_timeout, Budget, Env, Samples, WIDTH};
use crate::hostref::{self, Timed};
use crate::mix::{self, Kind};
use crate::trace::Tracer;
use eval_core::cache::load_or_measure_in;
use eval_core::{CacheStatus, Client, EvalRequest, Evaluator, Experiments, WorkloadScale};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Blocks of the mix generated at set-up; the load walks them cyclically.
const POOL_BLOCKS: usize = 40;
/// Positions in the replayed mix.
const POOL: usize = POOL_BLOCKS * mix::BLOCK;
/// Warm-up requests sent (and checked) during set-up.
const WARMUP_REQUESTS: u64 = 1000;
/// Length of one load slice when the budget is time…
const SLICE: Duration = Duration::from_millis(500);
/// …and when it is a request count.
const SLICE_REQUESTS: u64 = 1000;

/// When a load slice ends.
#[derive(Clone, Copy)]
enum SliceEnd {
    /// At this instant.
    At(Instant),
    /// After this many requests on each connection.
    After(u64),
}

/// A running `repro --serve` child; shut down and reaped on drop.
pub struct Server {
    child: Child,
    /// The socket address clients connect to.
    pub addr: String,
    pid_file: PathBuf,
}

impl Server {
    /// Spawn `repro --serve` on a Unix socket in `dir`, reading snapshots
    /// from `cache`, and wait for its "serving on" line.
    pub fn spawn(repro: &Path, dir: &Path, cache: &Path, tmp: &Path) -> Result<Self, String> {
        let addr = dir.join("serve.sock").to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&addr);
        let stderr = File::create(dir.join("server-stderr.txt")).map_err(|e| e.to_string())?;
        let child = Command::new(repro)
            .args(["--serve", &addr])
            .env("C3I_CACHE_DIR", cache)
            .env_remove("C3I_NO_CACHE")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        // The pid file lets run.sh's exit trap stop the server if this
        // process is killed before its own clean-up runs.
        let pid_file = tmp.join("server.pid");
        let _ = std::fs::write(&pid_file, child.id().to_string());
        let mut server = Self {
            child,
            addr,
            pid_file,
        };
        let stdout = server.child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        // Blocks until the server prints its address or exits (EOF).
        let _ = BufReader::new(stdout).read_line(&mut line);
        if !line.starts_with("serving on") {
            return Err(format!(
                "server did not come up (said {line:?}); see {}",
                dir.join("server-stderr.txt").display()
            ));
        }
        Ok(server)
    }

    /// Process id of the server.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.shutdown_server();
        }
        // Kills and reaps the child if the shutdown request did not.
        let _ = wait_timeout(&mut self.child, Duration::from_secs(5));
        let _ = std::fs::remove_file(&self.pid_file);
    }
}

/// One answered (or failed) request, as a connection thread saw it.
pub struct Served {
    /// Position in the pool.
    pub index: usize,
    /// When the request was sent.
    pub start: Instant,
    /// When the reply had been read.
    pub end: Instant,
}

impl Served {
    /// Latency as the clock read it, nanoseconds.
    pub fn ns(&self) -> u64 {
        (self.end - self.start).as_nanos() as u64
    }
}

/// What one connection thread did.
#[derive(Default)]
struct ConnLog {
    served: Vec<Served>,
    ok: u64,
    failed: u64,
    rejected: u64,
    retries: u64,
    failures: Vec<String>,
}

/// State of the `serve-mix` workload.
pub struct ServeMix {
    /// The server child.
    pub server: Server,
    /// The in-process reference evaluator (same snapshot as the server).
    pub evaluator: Evaluator,
    /// The snapshot directory the server reads.
    pub cache: PathBuf,
    /// The mix, by pool position.
    pub pool: Vec<EvalRequest>,
    /// Expected response body per pool position.
    expected: Vec<String>,
    /// Next unsent position (kept across measurements).
    next: usize,
    /// Requests of the last measurement, for per-class statistics.
    pub last: Vec<Served>,
    /// Overload rejections seen so far.
    pub rejected: u64,
    /// Re-sends after a rejection so far.
    pub retries: u64,
}

impl ServeMix {
    /// Send position `index`, wait for the reply, compare it with the
    /// expected body. `Err` means the connection is unusable.
    fn exchange(&self, client: &mut Client, index: usize, log: &mut ConnLog) -> Result<(), String> {
        let req = &self.pool[index % POOL];
        loop {
            let start = Instant::now();
            let resp = client
                .call(req.clone())
                .map_err(|e| format!("request {index}: {e}"))?;
            let end = Instant::now();
            match resp.error {
                Some(err) if err.kind == "overloaded" => {
                    // A refusal is a failed op; the retry is a new one.
                    log.failed += 1;
                    log.rejected += 1;
                    log.retries += 1;
                    let back_off = err.retry_after_ms.unwrap_or(5).clamp(1, 100);
                    std::thread::sleep(Duration::from_millis(back_off));
                }
                Some(err) => {
                    log.failed += 1;
                    log.failures
                        .push(format!("request {index}: {}: {}", err.kind, err.message));
                    return Ok(());
                }
                None => {
                    log.served.push(Served { index, start, end });
                    if resp.ok.as_deref() == Some(self.expected[index % POOL].as_str()) {
                        log.ok += 1;
                    } else {
                        log.failed += 1;
                        log.failures.push(format!(
                            "request {index} ({:?}): body differs from Evaluator::evaluate",
                            Kind::of(req)
                        ));
                    }
                    return Ok(());
                }
            }
        }
    }

    /// One connection's closed loop over positions `first, first+WIDTH, …`
    /// until the slice ends.
    fn connection(&self, client: &mut Client, first: usize, end: SliceEnd) -> ConnLog {
        let mut log = ConnLog::default();
        let mut sent = 0u64;
        loop {
            let done = match end {
                SliceEnd::At(deadline) => Instant::now() >= deadline,
                SliceEnd::After(n) => sent >= n,
            };
            if done {
                return log;
            }
            let index = first + sent as usize * WIDTH;
            sent += 1;
            if let Err(why) = self.exchange(client, index, &mut log) {
                log.failed += 1;
                log.failures.push(why);
                return log;
            }
        }
    }

    /// Wall-clock latencies (ns) of the last measurement's requests of
    /// `class`.
    pub fn last_latencies(&self, class: Option<&str>) -> Vec<u64> {
        self.last
            .iter()
            .filter(|s| class.is_none_or(|c| Kind::of(&self.pool[s.index % POOL]).class() == c))
            .map(Served::ns)
            .collect()
    }
}

impl Workload for ServeMix {
    fn setup(seed: u64, env: &Env, tr: &Tracer) -> Result<Self, String> {
        let dir = env.tmp.join("serve-mix");
        let cache = dir.join("cache");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&cache).map_err(|e| format!("create {}: {e}", cache.display()))?;

        let scale = WorkloadScale::Paper;
        let ((workload, cal, status), _) = tr.timed("eval_core.cache_store", || {
            load_or_measure_in(&cache, scale, true)
        });
        if status != CacheStatus::Miss {
            return Err(format!(
                "fresh snapshot dir reported {status:?}, expected Miss"
            ));
        }
        let (server, _) = tr.timed("repro.serve_ready", || {
            Server::spawn(&env.repro, &dir, &cache, &env.tmp)
        });
        let server = server?;

        let evaluator = Evaluator::new(Experiments { workload, cal }, scale);
        let pool = mix::generate(seed, POOL_BLOCKS);
        let mut bodies: HashMap<String, String> = HashMap::new();
        let mut expected = Vec::with_capacity(POOL);
        for req in &pool {
            // Each distinct request is evaluated once.
            let body = match bodies.entry(format!("{req:?}")) {
                Entry::Occupied(known) => known.get().clone(),
                Entry::Vacant(new) => {
                    let body = evaluator
                        .evaluate(req)
                        .map_err(|e| format!("reference evaluation of {req:?}: {e}"))?;
                    new.insert(body).clone()
                }
            };
            expected.push(body);
        }

        let mut w = Self {
            server,
            evaluator,
            cache,
            pool,
            expected,
            next: 0,
            last: Vec::new(),
            rejected: 0,
            retries: 0,
        };
        let warm = w.measure(Budget::Ops(WARMUP_REQUESTS), &Tracer::off());
        if warm.failed > 0 {
            return Err(format!("warm-up load failed: {:?}", warm.failures));
        }
        Ok(w)
    }

    fn measure(&mut self, budget: Budget, tr: &Tracer) -> Samples {
        tr.next_op();
        let mut samples = Samples::default();
        self.last.clear();
        let mut clients = Vec::new();
        for _ in 0..WIDTH {
            match Client::connect(&self.server.addr) {
                Ok(client) => clients.push(client),
                Err(e) => {
                    samples.attempted += 1;
                    samples.failed += 1;
                    samples
                        .failures
                        .push(format!("connect {}: {e}", self.server.addr));
                    return samples;
                }
            }
        }

        let t0 = Instant::now();
        let mut before = hostref::probe_ns();
        samples.probes.push(before);
        loop {
            // The load runs in slices so that a host-speed probe can sit
            // between them; the connections stay open across slices.
            let end = match budget {
                Budget::Seconds(secs) if t0.elapsed().as_secs_f64() >= secs => break,
                Budget::Seconds(_) => SliceEnd::At(Instant::now() + SLICE),
                Budget::Ops(n) if samples.attempted >= n => break,
                Budget::Ops(n) => SliceEnd::After(
                    (n - samples.attempted)
                        .min(SLICE_REQUESTS)
                        .div_ceil(WIDTH as u64),
                ),
            };
            let first = self.next;
            let this = &*self;
            let (logs, window) = tr.timed("serve.load", || {
                std::thread::scope(|s| {
                    let handles: Vec<_> = clients
                        .iter_mut()
                        .enumerate()
                        .map(|(c, client)| s.spawn(move || this.connection(client, first + c, end)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join().unwrap_or_else(|_| ConnLog {
                                failed: 1,
                                failures: vec!["connection thread panicked".into()],
                                ..ConnLog::default()
                            })
                        })
                        .collect::<Vec<_>>()
                })
            });
            let after = hostref::probe_ns();
            samples.probes.push(after);
            let window = Timed::new(window, before, after);
            samples.timed.raw_ns += window.raw_ns;
            samples.timed.ns += window.ns;
            samples
                .slices
                .push((logs.iter().map(|l| l.ok as f64).sum(), window));
            let slice_start = self.last.len();
            for log in logs {
                samples.work_units += log.ok as f64;
                samples.attempted += log.ok + log.failed;
                samples.failed += log.failed;
                samples.failures.extend(log.failures);
                samples.failures.truncate(8);
                self.rejected += log.rejected;
                self.retries += log.retries;
                self.last.extend(log.served);
            }
            for served in &self.last[slice_start..] {
                samples.ops.push(Timed::new(served.ns(), before, after));
                self.next = self.next.max(served.index + 1);
            }
            tr.add_children(
                "serve.load",
                self.last[slice_start..].iter().map(|s| {
                    let class = Kind::of(&self.pool[s.index % POOL]).class();
                    (format!("serve.request.{class}"), s.start, s.end)
                }),
            );
            before = after;
        }
        samples
    }

    /// The median, over the half-second load slices, of requests answered
    /// correctly ÷ slice time. Every slice holds the same mix (about ten
    /// blocks of 100), so the slices are samples of one rate, and their
    /// median sets aside the slices in which the host stalled.
    fn work_per_s(samples: &Samples, raw: bool) -> f64 {
        let rates: Vec<f64> = samples
            .slices
            .iter()
            .map(|(ok, t)| ok / (t.pick(raw) as f64 / 1e9))
            .collect();
        crate::stats::median_f64(&rates).unwrap_or(0.0)
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(Some(self.server.pid()))
    }
}
