//! The five workloads. Each binds only to surfaces that survive a
//! "refactor freely, delete freely" round: the `repro` CLI, the wire
//! protocol, and each layer's production entry points (see the README's
//! stable-surface rule for what is deliberately left unbound).

use crate::common::{Budget, Env, Samples};
use crate::trace::Tracer;

pub mod kernels_host;
pub mod paper_cold;
pub mod serve_mix;
pub mod sim;

/// Names and one-line reasons, in the order `all` runs them; the same
/// list `BENCHMARK.json` declares.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "paper-cold",
        "spawns `repro --no-cache all --csv` at paper scale: every crate, dominated by the c3i counting pass",
    ),
    (
        "kernels-host",
        "the six paper program variants in-process at full speed; the only workload where sthreads dispatch is a large share",
    ),
    (
        "sim-dense",
        "mta-sim at utilization 0.93-1.0: issue/execute-bound, decode and dispatch do the work",
    ),
    (
        "sim-sparse",
        "mta-sim at utilization 0.03-0.27: event-horizon fast-forward and wake bookkeeping dominate",
    ),
    (
        "serve-mix",
        "closed loop, 2 connections, seeded request mix against `repro --serve`: the only workload that runs service and wire",
    ),
];

/// One workload: set up from a seed, then measure ops against a budget.
pub trait Workload: Sized {
    /// Everything before the first timed op: input generation, oracle
    /// computation, child start-up and the fixed warm-up ops.
    fn setup(seed: u64, env: &Env, tr: &Tracer) -> Result<Self, String>;

    /// Run timed ops, checking every output.
    fn measure(&mut self, budget: Budget, tr: &Tracer) -> Samples;

    /// Work units per second over a measurement: by default the work of
    /// the ops that passed ÷ their summed time.
    fn work_per_s(samples: &Samples, raw: bool) -> f64 {
        samples.work_per_s(raw)
    }

    /// Peak resident set of the process doing the work, in MB: this
    /// process unless the workload spawns the program.
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::common::peak_rss_mb(None)
    }
}
