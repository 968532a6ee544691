//! The batched scenario-evaluation service: [`Experiments`] refactored
//! into a long-lived [`Evaluator`] behind a bounded request queue.
//!
//! The paper's core claim is that the Tera MTA hides latency by
//! saturating the machine with *many independent threads* rather than
//! making one thread fast. The serving analogue of that claim is this
//! module: instead of one monolithic `repro` run, the harness accepts
//! many independent scenario-evaluation requests, admits them through a
//! queue with explicit backpressure, batches whatever is waiting, and
//! shards each batch across the `sthreads` worker pool. Throughput comes
//! from concurrency across requests — exactly the throughput-vs-latency
//! trade the TLP literature frames for multithreaded machines.
//!
//! The pieces, in request order:
//!
//! 1. [`EvalRequest`] — one scenario evaluation (a paper table, a figure,
//!    a modeled benchmark configuration, a scalability projection...).
//!    Every request is a pure function of the loaded workload snapshot,
//!    so served responses are *bit-identical* to calling the
//!    corresponding [`Experiments`] method directly — the property the
//!    load generator and CI verify end to end.
//! 2. [`Evaluator`] — the service object: workload measurement and model
//!    calibration loaded **once** (through the fingerprint snapshot
//!    cache), then shared immutably by every request.
//! 3. [`Service`] — the admission queue and batch worker. The queue is
//!    bounded: when `capacity` requests are already waiting, submission
//!    fails *immediately* with [`EvalError::Overloaded`] carrying a
//!    retry hint — the queue never grows without bound and never blocks
//!    the submitting connection thread. A dedicated worker drains up to
//!    `batch_max` requests at a time and evaluates the batch with
//!    [`sthreads::par_map`], one shard per pool worker. Per-request
//!    latency (admission to response) feeds the service's own log₂
//!    histogram ([`Service::latency`]), which also sets the retry hint.
//!
//! The socket layer (length-prefixed JSON frames, the `repro --serve`
//! server and `--load` client) lives in [`crate::wire`].

use crate::experiments::{Experiments, Figure};
use crate::workload::WorkloadScale;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use sthreads::{par_map, ThreadPool};

/// Platforms a modeled-benchmark request can target. Mirrors Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Platform {
    /// Digital AlphaStation (uniprocessor cache model).
    Alpha,
    /// NeTpower Sparta quad Pentium Pro (SMP model).
    PentiumPro,
    /// HP Exemplar, 16 processors (SMP model).
    Exemplar,
    /// Tera MTA (latency-per-stream model).
    Tera,
}

/// One scenario-evaluation request. Every variant is a pure, sequential,
/// deterministic function of the [`Evaluator`]'s loaded snapshot; the
/// response body for a given request is therefore byte-stable across
/// serving, batching, and sharding.
///
/// Wire shape (vendored-serde externally tagged): unit variants are JSON
/// strings (`"Ping"`), struct variants are one-key objects
/// (`{"Table": {"n": 3}}`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum EvalRequest {
    /// Liveness probe; evaluates to `"pong"` without touching the models.
    Ping,
    /// Render paper table `n` (1–12).
    Table {
        /// Table number, 1–12.
        n: u8,
    },
    /// Render paper figure `n` (1–4) as an ASCII plot.
    FigurePlot {
        /// Figure number, 1–4.
        n: u8,
    },
    /// Modeled Threat Analysis seconds for one configuration: chunked on
    /// a conventional SMP (where `n_chunks` is tied to `n_procs`, the
    /// paper's setup) or `n_chunks`-way on the Tera.
    ThreatModel {
        /// Target platform.
        platform: Platform,
        /// Processor count (1–1024).
        n_procs: usize,
        /// Chunk count on the Tera (1–100000; ignored for conventional
        /// platforms, which chunk one-per-processor as the paper did).
        n_chunks: usize,
    },
    /// Modeled Terrain Masking seconds: coarse-grained on a conventional
    /// SMP, fine-grained on the Tera.
    TerrainModel {
        /// Target platform.
        platform: Platform,
        /// Processor count (1–1024).
        n_procs: usize,
    },
    /// §8 scalability projection over an explicit processor list.
    Scalability {
        /// Processor counts (1–64 entries, each 1–65536).
        procs: Vec<usize>,
    },
    /// The ±20% calibration-perturbation sensitivity table.
    Sensitivity,
    /// Testing/load-shaping aid: hold a worker slot for `ms` milliseconds
    /// (capped at 10 s). This is how the backpressure tests make the
    /// batch worker provably busy without racing on real work.
    Sleep {
        /// Milliseconds to sleep (0–10000).
        ms: u64,
    },
}

/// Typed evaluation/service errors. These cross the wire as structured
/// error responses — a malformed or oversubscribed request must never
/// panic the service or silently drop output.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum EvalError {
    /// The request itself is invalid (out-of-range table number, empty
    /// processor list...). Retrying the same request cannot succeed.
    BadRequest(String),
    /// The bounded queue is full. The request was **not** admitted;
    /// retry after roughly the hinted delay.
    Overloaded {
        /// Suggested client back-off before retrying, in milliseconds
        /// (derived from the live p50 of [`Service::latency`]).
        retry_after_ms: u64,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The evaluation panicked. The panic is contained to the one
    /// request — the batch worker and every other queued request keep
    /// going (an uncontained panic would silently wedge the queue:
    /// admitted requests would wait forever on a dead worker).
    Internal(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            EvalError::Overloaded { retry_after_ms } => {
                write!(f, "queue full; retry after ~{retry_after_ms} ms")
            }
            EvalError::ShuttingDown => write!(f, "service is shutting down"),
            EvalError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The long-lived service object: a measured workload snapshot and
/// calibrated models, loaded once and shared by every request.
pub struct Evaluator {
    exps: Experiments,
    scale: WorkloadScale,
}

impl Evaluator {
    /// Wrap an already-built harness.
    pub fn new(exps: Experiments, scale: WorkloadScale) -> Self {
        Self { exps, scale }
    }

    /// Load the workload snapshot for `scale` through the fingerprint
    /// cache (measuring only on a cache miss) and calibrate the models —
    /// the "load once" half of the service contract.
    pub fn load(scale: WorkloadScale, use_cache: bool) -> (Self, crate::CacheStatus) {
        let (workload, cal, status) =
            crate::cache::load_or_measure_in(&crate::cache::cache_dir(), scale, use_cache);
        (Self::new(Experiments { workload, cal }, scale), status)
    }

    /// The wrapped harness (for the non-serving `repro` sections).
    pub fn experiments(&self) -> &Experiments {
        &self.exps
    }

    /// The workload scale this evaluator was loaded at.
    pub fn scale(&self) -> WorkloadScale {
        self.scale
    }

    /// The calibrated conventional model for `platform`, with `n_procs`
    /// checked against the machine's actual processor count — the
    /// model's own out-of-range assertion must surface as a typed error,
    /// not a panic inside the batch worker.
    fn checked_model(
        &self,
        platform: Platform,
        n_procs: usize,
    ) -> Result<&crate::models::ConventionalModel, EvalError> {
        let model = match platform {
            Platform::Alpha => &self.exps.cal.alpha,
            Platform::PentiumPro => &self.exps.cal.ppro,
            Platform::Exemplar => &self.exps.cal.exemplar,
            Platform::Tera => unreachable!("Tera is not a conventional model"),
        };
        if n_procs > model.n_processors {
            return Err(EvalError::BadRequest(format!(
                "{platform:?} has {} processor(s); n_procs {n_procs} exceeds it",
                model.n_processors
            )));
        }
        Ok(model)
    }

    /// Evaluate one request **sequentially and deterministically**. This
    /// is both the direct-call reference path and the body the batch
    /// worker shards across the pool — served results are bit-identical
    /// to direct calls because they *are* the same call.
    pub fn evaluate(&self, req: &EvalRequest) -> Result<String, EvalError> {
        let bad = |msg: String| Err(EvalError::BadRequest(msg));
        match req {
            EvalRequest::Ping => Ok("pong".to_string()),
            EvalRequest::Table { n } => {
                let e = &self.exps;
                let table = match n {
                    1 => e.table1(),
                    2 => e.table2(),
                    3 => e.table3(),
                    4 => e.table4(),
                    5 => e.table5(),
                    6 => e.table6(),
                    7 => e.table7(),
                    8 => e.table8(),
                    9 => e.table9(),
                    10 => e.table10(),
                    11 => e.table11(),
                    12 => e.table12(),
                    _ => return bad(format!("table number {n} not in 1..=12")),
                };
                Ok(table.render())
            }
            EvalRequest::FigurePlot { n } => {
                let fig = match n {
                    1 => Figure::ThreatPPro,
                    2 => Figure::ThreatExemplar,
                    3 => Figure::TerrainPPro,
                    4 => Figure::TerrainExemplar,
                    _ => return bad(format!("figure number {n} not in 1..=4")),
                };
                Ok(self.exps.figure(fig))
            }
            EvalRequest::ThreatModel {
                platform,
                n_procs,
                n_chunks,
            } => {
                if !(1..=1024).contains(n_procs) {
                    return bad(format!("n_procs {n_procs} not in 1..=1024"));
                }
                if !(1..=100_000).contains(n_chunks) {
                    return bad(format!("n_chunks {n_chunks} not in 1..=100000"));
                }
                let secs = match platform {
                    Platform::Tera => self.exps.ta_tera(*n_chunks, *n_procs),
                    _ => {
                        let model = self.checked_model(*platform, *n_procs)?;
                        self.exps.ta_conv_parallel(model, *n_procs)
                    }
                };
                Ok(seconds_body(secs))
            }
            EvalRequest::TerrainModel { platform, n_procs } => {
                if !(1..=1024).contains(n_procs) {
                    return bad(format!("n_procs {n_procs} not in 1..=1024"));
                }
                let secs = match platform {
                    Platform::Tera => self.exps.tm_tera(*n_procs),
                    _ => {
                        let model = self.checked_model(*platform, *n_procs)?;
                        self.exps.tm_conv_parallel(model, *n_procs)
                    }
                };
                Ok(seconds_body(secs))
            }
            EvalRequest::Scalability { procs } => {
                if procs.is_empty() || procs.len() > 64 {
                    return bad(format!("procs list length {} not in 1..=64", procs.len()));
                }
                if let Some(&p) = procs.iter().find(|&&p| !(1..=65_536).contains(&p)) {
                    return bad(format!("processor count {p} not in 1..=65536"));
                }
                Ok(self.exps.scalability_projection(procs).render())
            }
            EvalRequest::Sensitivity => Ok(self.exps.sensitivity().render()),
            EvalRequest::Sleep { ms } => {
                if *ms > 10_000 {
                    return bad(format!("sleep {ms} ms exceeds the 10000 ms cap"));
                }
                std::thread::sleep(std::time::Duration::from_millis(*ms));
                Ok(format!("slept {ms} ms"))
            }
        }
    }
}

/// Exact-round-trip JSON body for a modeled-seconds response: the f64 is
/// serialized through the vendored float-roundtrip writer, so comparing
/// response *strings* compares the f64 bit patterns.
fn seconds_body(secs: f64) -> String {
    #[derive(serde::Serialize)]
    struct Seconds {
        seconds: f64,
    }
    serde_json::to_string(&Seconds { seconds: secs }).expect("serialize seconds")
}

/// Tuning knobs for [`Service::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum requests waiting for the batch worker. A submission that
    /// would exceed this is rejected with [`EvalError::Overloaded`] —
    /// never buffered.
    pub capacity: usize,
    /// Maximum requests the worker drains into one batch.
    pub batch_max: usize,
    /// Worker threads the batch is sharded across via [`par_map`].
    pub n_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            batch_max: 32,
            n_threads: ThreadPool::global().n_threads(),
        }
    }
}

/// One admitted request waiting for the batch worker.
struct Job {
    req: EvalRequest,
    admitted: Instant,
    reply: mpsc::Sender<Result<String, EvalError>>,
}

struct ServiceInner {
    evaluator: Evaluator,
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    latency: LatencyHistogram,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// A ticket for a submitted request; [`Pending::wait`] blocks until the
/// batch worker has evaluated it.
pub struct Pending {
    rx: mpsc::Receiver<Result<String, EvalError>>,
}

impl Pending {
    /// Block until the response is ready. A worker that disappeared
    /// (service dropped mid-request) reads as [`EvalError::ShuttingDown`].
    pub fn wait(self) -> Result<String, EvalError> {
        self.rx.recv().unwrap_or(Err(EvalError::ShuttingDown))
    }
}

/// The running service: bounded admission queue + batch worker thread.
/// Dropping the service drains the queue gracefully and joins the worker.
pub struct Service {
    inner: Arc<ServiceInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Start the batch worker for `evaluator` under `config`.
    pub fn start(evaluator: Evaluator, config: ServiceConfig) -> Self {
        assert!(config.capacity >= 1, "service capacity must be >= 1");
        assert!(config.batch_max >= 1, "service batch_max must be >= 1");
        let inner = Arc::new(ServiceInner {
            evaluator,
            config,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            latency: LatencyHistogram::new(),
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("c3i-evaluator".into())
            .spawn(move || worker_loop(&worker_inner))
            .expect("spawn evaluator worker");
        Self {
            inner,
            worker: Some(worker),
        }
    }

    /// Submit a request. Validation failures and a full queue reject
    /// *immediately* — the queue depth provably never exceeds
    /// `config.capacity` (`tests/service_protocol.rs` pins this at
    /// capacity 1).
    pub fn submit(&self, req: EvalRequest) -> Result<Pending, EvalError> {
        // Reject malformed requests before they occupy queue space; the
        // evaluation itself would fail identically (same validation).
        if let Some(err) = validate_request(&req) {
            return Err(err);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.inner.queue.lock().expect("service queue poisoned");
            if q.shutdown {
                return Err(EvalError::ShuttingDown);
            }
            if q.jobs.len() >= self.inner.config.capacity {
                return Err(EvalError::Overloaded {
                    retry_after_ms: retry_hint_ms(&self.inner.latency.snapshot()),
                });
            }
            q.jobs.push_back(Job {
                req,
                admitted: Instant::now(),
                reply: tx,
            });
        }
        self.inner.not_empty.notify_one();
        Ok(Pending { rx })
    }

    /// Requests currently waiting for the batch worker (excludes the
    /// batch being evaluated right now). For tests and observability.
    pub fn queue_len(&self) -> usize {
        self.inner
            .queue
            .lock()
            .expect("service queue poisoned")
            .jobs
            .len()
    }

    /// The evaluator behind the queue (for direct reference evaluations
    /// in tests and the load generator).
    pub fn evaluator(&self) -> &Evaluator {
        &self.inner.evaluator
    }

    /// Admission-to-response latency of every request this service has
    /// answered, one sample each.
    pub fn latency(&self) -> LatencySnapshot {
        self.inner.latency.snapshot()
    }

    /// Stop admitting requests, let the worker drain what was already
    /// admitted, and join it. Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        {
            let mut q = self.inner.queue.lock().expect("service queue poisoned");
            q.shutdown = true;
        }
        self.inner.not_empty.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Pre-admission request validation: the same bounds `evaluate` enforces,
/// checked before the request can occupy a queue slot. Returns the error
/// a doomed request would produce, or `None` for admissible ones.
fn validate_request(req: &EvalRequest) -> Option<EvalError> {
    match req {
        EvalRequest::Table { n } if !(1..=12).contains(n) => Some(EvalError::BadRequest(format!(
            "table number {n} not in 1..=12"
        ))),
        EvalRequest::FigurePlot { n } if !(1..=4).contains(n) => Some(EvalError::BadRequest(
            format!("figure number {n} not in 1..=4"),
        )),
        EvalRequest::ThreatModel {
            n_procs, n_chunks, ..
        } if !(1..=1024).contains(n_procs) || !(1..=100_000).contains(n_chunks) => {
            Some(EvalError::BadRequest(format!(
                "threat model bounds: n_procs {n_procs}, n_chunks {n_chunks}"
            )))
        }
        EvalRequest::TerrainModel { n_procs, .. } if !(1..=1024).contains(n_procs) => Some(
            EvalError::BadRequest(format!("n_procs {n_procs} not in 1..=1024")),
        ),
        EvalRequest::Scalability { procs }
            if procs.is_empty()
                || procs.len() > 64
                || procs.iter().any(|p| !(1..=65_536).contains(p)) =>
        {
            Some(EvalError::BadRequest("scalability bounds violated".into()))
        }
        EvalRequest::Sleep { ms } if *ms > 10_000 => Some(EvalError::BadRequest(format!(
            "sleep {ms} ms exceeds the 10000 ms cap"
        ))),
        _ => None,
    }
}

/// Client back-off hint when the queue rejects: this service's p50
/// request latency (rounded up to ms), clamped to [1, 1000]. Before any
/// request has completed there is no signal; suggest 10 ms.
fn retry_hint_ms(latency: &LatencySnapshot) -> u64 {
    let p50_ns = latency.quantile_ns(0.5);
    if p50_ns == 0 {
        10
    } else {
        p50_ns.div_ceil(1_000_000).clamp(1, 1_000)
    }
}

/// The batch worker: sleep until jobs exist, drain up to `batch_max`,
/// shard the batch across the pool, reply, repeat. On shutdown the queue
/// is drained to empty before exiting, so every admitted request is
/// answered.
fn worker_loop(inner: &ServiceInner) {
    loop {
        let batch: Vec<Job> = {
            let mut q = inner.queue.lock().expect("service queue poisoned");
            loop {
                if !q.jobs.is_empty() {
                    let take = q.jobs.len().min(inner.config.batch_max);
                    break q.jobs.drain(..take).collect();
                }
                if q.shutdown {
                    return;
                }
                q = inner.not_empty.wait(q).expect("service queue poisoned");
            }
        };
        // Shard the batch across the pool. `evaluate` is the sequential
        // reference path, so ordering and sharding cannot change any
        // response byte; `par_map` preserves index order. Each
        // evaluation is panic-contained: an escaped panic would kill
        // this worker thread and leave every queued request waiting on
        // a reply that can never come.
        let results = par_map(batch.len(), inner.config.n_threads, |i| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inner.evaluator.evaluate(&batch[i].req)
            }))
            .unwrap_or_else(|payload| Err(EvalError::Internal(panic_message(&payload))))
        });
        for (job, result) in batch.into_iter().zip(results) {
            inner
                .latency
                .record_ns(job.admitted.elapsed().as_nanos() as u64);
            // A receiver that hung up (client disconnected mid-request)
            // is not an error; drop the response.
            let _ = job.reply.send(result);
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "evaluation panicked".to_string()
    }
}

// ── request latency ──────────────────────────────────────────────────────

/// Number of log₂ latency buckets: bucket `b` counts requests whose
/// latency landed in `[2^b, 2^(b+1))` nanoseconds (bucket 0 also absorbs
/// sub-nanosecond samples, the last bucket is open-ended). 40 buckets
/// cover 1 ns up to ~18 minutes — far beyond any sane request.
pub const LATENCY_BUCKETS: usize = 40;

/// One service's request-latency histogram: one relaxed add per answered
/// request, next to the queue whose waiting time it describes.
struct LatencyHistogram([AtomicU64; LATENCY_BUCKETS]);

impl LatencyHistogram {
    fn new() -> Self {
        Self([const { AtomicU64::new(0) }; LATENCY_BUCKETS])
    }

    fn record_ns(&self, ns: u64) {
        let bucket = (ns.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1);
        self.0[bucket].fetch_add(1, Relaxed);
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|b| self.0[b].load(Relaxed)),
        }
    }
}

/// A point-in-time copy of a service's latency histogram
/// ([`Service::latency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Request counts per log₂ bucket (see [`LATENCY_BUCKETS`]).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl LatencySnapshot {
    /// Total requests recorded in this snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper-bound estimate of the `q`-quantile latency in nanoseconds
    /// (`q` in `[0, 1]`; e.g. `0.5` for p50, `0.99` for p99): the upper
    /// edge of the histogram bucket containing the `⌈q·count⌉`-th sample.
    /// Conservative by construction — the true quantile is never above
    /// the returned value's bucket. Returns 0 when no samples exist.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (b + 1);
            }
        }
        1u64 << LATENCY_BUCKETS // unreachable: seen == count >= rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_reports_bucket_edge_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().quantile_ns(0.5), 0);
        assert_eq!(retry_hint_ms(&h.snapshot()), 10, "no signal yet");

        for _ in 0..98 {
            h.record_ns(1_000); // bucket 9: [512, 1024)
        }
        h.record_ns(1 << 20); // ~1 ms
        h.record_ns(1 << 30); // ~1 s
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        // p50 lands in the 1 µs bucket; its upper edge is 1024 ns.
        assert_eq!(s.quantile_ns(0.5), 1024);
        // p99 must reach the ~1 ms sample's bucket but not the ~1 s one.
        assert_eq!(s.quantile_ns(0.99), 1 << 21);
        assert_eq!(s.quantile_ns(1.0), 1 << 31);
        assert_eq!(retry_hint_ms(&s), 1, "a sub-ms p50 rounds up to 1 ms");
    }

    #[test]
    fn latency_extremes_clamp_into_the_first_and_last_buckets() {
        let h = LatencyHistogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            EvalRequest::Ping,
            EvalRequest::Table { n: 7 },
            EvalRequest::FigurePlot { n: 2 },
            EvalRequest::ThreatModel {
                platform: Platform::Tera,
                n_procs: 2,
                n_chunks: 256,
            },
            EvalRequest::TerrainModel {
                platform: Platform::Exemplar,
                n_procs: 16,
            },
            EvalRequest::Scalability {
                procs: vec![1, 2, 4],
            },
            EvalRequest::Sensitivity,
            EvalRequest::Sleep { ms: 0 },
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: EvalRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "{json}");
        }
    }

    #[test]
    fn validate_request_matches_evaluate_bounds() {
        for bad in [
            EvalRequest::Table { n: 0 },
            EvalRequest::Table { n: 13 },
            EvalRequest::FigurePlot { n: 5 },
            EvalRequest::ThreatModel {
                platform: Platform::Tera,
                n_procs: 0,
                n_chunks: 1,
            },
            EvalRequest::TerrainModel {
                platform: Platform::Alpha,
                n_procs: 2000,
            },
            EvalRequest::Scalability { procs: vec![] },
            EvalRequest::Scalability { procs: vec![0] },
            EvalRequest::Sleep { ms: 60_000 },
        ] {
            assert!(
                matches!(validate_request(&bad), Some(EvalError::BadRequest(_))),
                "{bad:?} must be rejected at admission"
            );
        }
        assert!(validate_request(&EvalRequest::Ping).is_none());
        assert!(validate_request(&EvalRequest::Table { n: 12 }).is_none());
    }
}
