//! The scenario-evaluation service: [`Experiments`] refactored into a
//! long-lived [`Evaluator`] behind bounded admission.
//!
//! The paper's core claim is that the Tera MTA hides latency by
//! saturating the machine with *many independent threads* rather than
//! queueing work for a few. The serving analogue of that claim is this
//! module: the harness accepts many independent scenario-evaluation
//! requests and evaluates each one on the thread that submitted it — in
//! the server, its connection's own thread — so a slow request holds
//! only its own connection. Throughput comes from concurrency across
//! requests — the throughput-vs-latency trade the TLP literature frames
//! for multithreaded machines.
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
//!    cache), then shared immutably by every request. The 17 requests that
//!    take no parameter (the 12 tables, the 4 figures and
//!    [`EvalRequest::Sensitivity`]) are also evaluated once: the first
//!    request of each kind computes its body into a `OnceLock`, and every
//!    later one clones it (10,696 bytes for all 17 at paper scale). A stored
//!    body cannot go stale: it is computed from the snapshot and the
//!    calibration, which nothing changes after [`Evaluator::new`]. A panic
//!    while a body is first computed leaves its slot empty, and the next
//!    request of that kind computes it again. Parameterised requests are
//!    computed on every call.
//! 3. [`Service`] — admission. At most `capacity` requests are evaluated
//!    at once; one more fails *immediately* with
//!    [`EvalError::Overloaded`] carrying a retry hint, so admission never
//!    blocks the submitting thread. An admitted request is evaluated on
//!    the submitting thread, panic-contained. Its latency (admission to
//!    response) feeds the service's own log₂ histogram
//!    ([`Service::latency`]), which also sets the retry hint.
//!
//! The socket layer (length-prefixed JSON frames, the `repro --serve`
//! server and `--load` client) lives in [`crate::wire`].

use crate::experiments::{Experiments, Figure, TABLES};
use crate::workload::WorkloadScale;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::OnceLock;
use std::time::Instant;

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
/// response body for a given request is therefore the same served or
/// called directly.
///
/// Wire shape (vendored-serde externally tagged): unit variants are JSON
/// strings (`"Ping"`), struct variants are one-key objects
/// (`{"Table": {"n": 3}}`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum EvalRequest {
    /// Liveness probe; evaluates to `"pong"` without touching the models.
    Ping,
    /// Render paper table `n`, [`TABLES`]`[n - 1]`.
    Table {
        /// Table number, from 1.
        n: u8,
    },
    /// Render paper figure `n`, [`Figure::ALL`]`[n - 1]`, as an ASCII plot.
    FigurePlot {
        /// Figure number, from 1.
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
    /// Testing/load-shaping aid: hold an admission slot for `ms`
    /// milliseconds (capped at 10 s). This is how the backpressure tests
    /// make the service provably busy without racing on real work.
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
    /// `capacity` requests are already being evaluated. The request was
    /// **not** admitted; retry after roughly the hinted delay.
    Overloaded {
        /// Suggested client back-off before retrying, in milliseconds
        /// (derived from the live p50 of [`Service::latency`]).
        retry_after_ms: u64,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The evaluation panicked. The panic is contained to the one
    /// request: its connection and every other request keep going, and
    /// its admission slot is released.
    Internal(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            EvalError::Overloaded { retry_after_ms } => {
                write!(f, "at capacity; retry after ~{retry_after_ms} ms")
            }
            EvalError::ShuttingDown => write!(f, "service is shutting down"),
            EvalError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// One stored body per request that takes no parameter: the tables, then
/// the figures, then the sensitivity table.
const STORED: usize = TABLES.len() + Figure::ALL.len() + 1;

/// The slot of `req`'s stored body, or `None` for a parameterised kind.
/// `req` has passed [`validate_request`], so `n` is in range.
fn stored_slot(req: &EvalRequest) -> Option<usize> {
    match req {
        EvalRequest::Table { n } => Some(usize::from(*n) - 1),
        EvalRequest::FigurePlot { n } => Some(TABLES.len() + usize::from(*n) - 1),
        EvalRequest::Sensitivity => Some(STORED - 1),
        _ => None,
    }
}

/// The long-lived service object: a measured workload snapshot and
/// calibrated models, loaded once and shared by every request.
pub struct Evaluator {
    exps: Experiments,
    scale: WorkloadScale,
    /// The response bodies of the parameterless requests, each computed
    /// on its first use ([`stored_slot`]).
    stored: [OnceLock<String>; STORED],
}

impl Evaluator {
    /// Wrap an already-built harness.
    pub fn new(exps: Experiments, scale: WorkloadScale) -> Self {
        Self {
            exps,
            scale,
            stored: [const { OnceLock::new() }; STORED],
        }
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
    /// not a panic.
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
    /// is both the direct-call reference path and what [`Service::submit`]
    /// runs — served results are bit-identical to direct calls because
    /// they *are* the same call. A parameterless request's body is
    /// computed on its first call and cloned from then on.
    pub fn evaluate(&self, req: &EvalRequest) -> Result<String, EvalError> {
        validate_request(req)?;
        match stored_slot(req) {
            Some(slot) => Ok(self.stored[slot]
                .get_or_init(|| {
                    self.compute(req)
                        .expect("a table, a figure or the sensitivity table cannot fail")
                })
                .clone()),
            None => self.compute(req),
        }
    }

    /// The response to a validated request, computed from the snapshot.
    fn compute(&self, req: &EvalRequest) -> Result<String, EvalError> {
        let e = &self.exps;
        match req {
            EvalRequest::Ping => Ok("pong".to_string()),
            EvalRequest::Table { n } => Ok(TABLES[usize::from(*n) - 1](e).render()),
            EvalRequest::FigurePlot { n } => Ok(e.figure(Figure::ALL[usize::from(*n) - 1])),
            EvalRequest::ThreatModel {
                platform,
                n_procs,
                n_chunks,
            } => {
                let secs = match platform {
                    Platform::Tera => e.ta_tera(*n_chunks, *n_procs),
                    _ => {
                        let model = self.checked_model(*platform, *n_procs)?;
                        e.ta_conv_parallel(model, *n_procs)
                    }
                };
                Ok(seconds_body(secs))
            }
            EvalRequest::TerrainModel { platform, n_procs } => {
                let secs = match platform {
                    Platform::Tera => e.tm_tera(*n_procs),
                    _ => {
                        let model = self.checked_model(*platform, *n_procs)?;
                        e.tm_conv_parallel(model, *n_procs)
                    }
                };
                Ok(seconds_body(secs))
            }
            EvalRequest::Scalability { procs } => Ok(e.scalability_projection(procs).render()),
            EvalRequest::Sensitivity => Ok(e.sensitivity().render()),
            EvalRequest::Sleep { ms } => {
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
    /// Maximum requests evaluated at once. A submission that would
    /// exceed this is rejected with [`EvalError::Overloaded`] — never
    /// buffered.
    pub capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { capacity: 256 }
    }
}

/// The outcome of an admitted request. [`Service::submit`] evaluates
/// before it returns, so [`Pending::wait`] never blocks.
pub struct Pending(Result<String, EvalError>);

impl Pending {
    /// The response (or the evaluation's typed error).
    pub fn wait(self) -> Result<String, EvalError> {
        self.0
    }
}

/// The running service: an [`Evaluator`] behind bounded admission. It
/// owns no thread; each request is evaluated on the thread that submits
/// it.
pub struct Service {
    evaluator: Evaluator,
    capacity: usize,
    in_flight: AtomicUsize,
    stopped: AtomicBool,
    latency: LatencyHistogram,
}

impl Service {
    /// Put bounded admission in front of `evaluator` under `config`.
    pub fn start(evaluator: Evaluator, config: ServiceConfig) -> Self {
        assert!(config.capacity >= 1, "service capacity must be >= 1");
        Self {
            evaluator,
            capacity: config.capacity,
            in_flight: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            latency: LatencyHistogram::new(),
        }
    }

    /// Admit a request and evaluate it on the calling thread. Validation
    /// failures, a stopped service and a full one reject *immediately* —
    /// at most `config.capacity` requests are ever in evaluation
    /// (`tests/service_protocol.rs` pins this at capacity 1).
    pub fn submit(&self, req: EvalRequest) -> Result<Pending, EvalError> {
        // Reject malformed requests before they take a slot; the
        // evaluation itself would fail identically (same validation).
        validate_request(&req)?;
        if self.stopped.load(SeqCst) {
            return Err(EvalError::ShuttingDown);
        }
        let admit = |n: usize| (n < self.capacity).then_some(n + 1);
        if self.in_flight.fetch_update(SeqCst, SeqCst, admit).is_err() {
            return Err(EvalError::Overloaded {
                retry_after_ms: retry_hint_ms(&self.latency.snapshot()),
            });
        }
        let admitted = Instant::now();
        // Panic-contained: an escaped panic would unwind through the
        // connection thread and never release the slot.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.evaluator.evaluate(&req)
        }))
        .unwrap_or_else(|payload| Err(EvalError::Internal(panic_message(&payload))));
        self.latency.record_ns(admitted.elapsed().as_nanos() as u64);
        self.in_flight.fetch_sub(1, SeqCst);
        Ok(Pending(result))
    }

    /// Requests being evaluated right now. For tests and observability.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(SeqCst)
    }

    /// The evaluator behind admission (for direct reference evaluations
    /// in tests and the load generator).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Admission-to-response latency of every request this service has
    /// answered, one sample each.
    pub fn latency(&self) -> LatencySnapshot {
        self.latency.snapshot()
    }

    /// Stop admitting requests: later submissions are
    /// [`EvalError::ShuttingDown`]. Requests already admitted finish on
    /// their own threads. Idempotent.
    pub fn stop(&self) {
        self.stopped.store(true, SeqCst);
    }
}

/// The bounds every request is held to, checked by [`Service::submit`]
/// before the request can take an admission slot and by
/// [`Evaluator::evaluate`] before it evaluates: the error a doomed request
/// produces. (A conventional platform's processor count is checked
/// against its calibrated model, in `evaluate`.)
fn validate_request(req: &EvalRequest) -> Result<(), EvalError> {
    let bad = |msg: String| Err(EvalError::BadRequest(msg));
    match req {
        EvalRequest::Table { n } if !(1..=TABLES.len()).contains(&usize::from(*n)) => {
            bad(format!("table number {n} not in 1..={}", TABLES.len()))
        }
        EvalRequest::FigurePlot { n } if !(1..=Figure::ALL.len()).contains(&usize::from(*n)) => {
            bad(format!(
                "figure number {n} not in 1..={}",
                Figure::ALL.len()
            ))
        }
        EvalRequest::ThreatModel { n_procs, .. } | EvalRequest::TerrainModel { n_procs, .. }
            if !(1..=1024).contains(n_procs) =>
        {
            bad(format!("n_procs {n_procs} not in 1..=1024"))
        }
        EvalRequest::ThreatModel { n_chunks, .. } if !(1..=100_000).contains(n_chunks) => {
            bad(format!("n_chunks {n_chunks} not in 1..=100000"))
        }
        EvalRequest::Scalability { procs } if procs.is_empty() || procs.len() > 64 => {
            bad(format!("procs list length {} not in 1..=64", procs.len()))
        }
        EvalRequest::Scalability { procs } => {
            match procs.iter().find(|&&p| !(1..=65_536).contains(&p)) {
                Some(p) => bad(format!("processor count {p} not in 1..=65536")),
                None => Ok(()),
            }
        }
        EvalRequest::Sleep { ms } if *ms > 10_000 => {
            bad(format!("sleep {ms} ms exceeds the 10000 ms cap"))
        }
        _ => Ok(()),
    }
}

/// Client back-off hint when admission rejects: this service's p50
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
/// request.
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

    fn reduced_evaluator() -> Evaluator {
        Evaluator::new(
            Experiments::new(crate::Workload::build(WorkloadScale::Reduced)),
            WorkloadScale::Reduced,
        )
    }

    /// The requests that take no parameter, each with the direct
    /// [`Experiments`] call that is its response.
    fn parameterless(e: &Experiments) -> Vec<(EvalRequest, String)> {
        let mut reqs = Vec::new();
        for (n, table) in (1u8..).zip(TABLES) {
            reqs.push((EvalRequest::Table { n }, table(e).render()));
        }
        for (n, figure) in (1u8..).zip(Figure::ALL) {
            reqs.push((EvalRequest::FigurePlot { n }, e.figure(figure)));
        }
        reqs.push((EvalRequest::Sensitivity, e.sensitivity().render()));
        reqs
    }

    #[test]
    fn parameterless_requests_equal_their_direct_calls_first_second_and_racing() {
        let evaluator = reduced_evaluator();
        let expected = parameterless(evaluator.experiments());
        assert_eq!(expected.len(), 17);
        for call in ["first", "second"] {
            for (req, direct) in &expected {
                assert_eq!(
                    evaluator.evaluate(req).as_ref(),
                    Ok(direct),
                    "{call} call of {req:?}"
                );
            }
        }

        // Four threads race each first call on another fresh evaluator.
        let racing = reduced_evaluator();
        let expected = parameterless(racing.experiments());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for (req, direct) in &expected {
                        assert_eq!(racing.evaluate(req).as_ref(), Ok(direct), "racing {req:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn evaluate_rejects_exactly_what_validate_request_rejects() {
        let evaluator = reduced_evaluator();
        for bad in [
            EvalRequest::Table { n: 0 },
            EvalRequest::Table { n: 13 },
            EvalRequest::FigurePlot { n: 0 },
            EvalRequest::FigurePlot { n: 5 },
            EvalRequest::ThreatModel {
                platform: Platform::Tera,
                n_procs: 0,
                n_chunks: 1,
            },
            EvalRequest::ThreatModel {
                platform: Platform::Alpha,
                n_procs: 1,
                n_chunks: 100_001,
            },
            EvalRequest::TerrainModel {
                platform: Platform::Alpha,
                n_procs: 2000,
            },
            EvalRequest::Scalability { procs: vec![] },
            EvalRequest::Scalability { procs: vec![1; 65] },
            EvalRequest::Scalability { procs: vec![4, 0] },
            EvalRequest::Scalability {
                procs: vec![65_537],
            },
            EvalRequest::Sleep { ms: 60_000 },
        ] {
            let err = validate_request(&bad).expect_err("rejected at admission");
            assert!(matches!(err, EvalError::BadRequest(_)), "{bad:?}");
            assert_eq!(evaluator.evaluate(&bad), Err(err), "{bad:?}");
        }
        assert_eq!(validate_request(&EvalRequest::Ping), Ok(()));
        assert_eq!(validate_request(&EvalRequest::Table { n: 12 }), Ok(()));
        assert!(evaluator.evaluate(&EvalRequest::Table { n: 12 }).is_ok());
        assert!(evaluator
            .evaluate(&EvalRequest::FigurePlot { n: 4 })
            .is_ok());
    }
}
