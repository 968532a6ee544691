//! # eval-core — the paper's primary contribution, rebuilt
//!
//! The SC'98 paper's contribution is a cross-platform *evaluation*: the
//! same two C3I benchmarks timed on a DEC Alpha, a quad Pentium Pro, a
//! 16-processor HP Exemplar, and the 2-processor Tera MTA, under
//! sequential execution, automatic parallelization, and manual
//! parallelization. None of those machines exist for us, so this crate
//! implements the evaluation as a *modeling pipeline*:
//!
//! 1. [`workload`] obtains, for every program variant of the `c3i`
//!    benchmarks, the per-logical-thread operation profile the variant
//!    records under the op-counting backend — counted from scenario
//!    geometry rather than by running the variant, and tested equal to it;
//! 2. [`models`] turns profiles into predicted wall-clock seconds via
//!    per-platform analytic machine models (cache-based conventional
//!    machines; the latency-per-stream Tera MTA model), whose mechanisms
//!    are validated against the cycle-level simulators (`mta-sim`,
//!    `smp-sim`);
//! 3. [`mod@calibrate`] pins the models' free constants to the paper's
//!    *sequential* rows (Tables 2 and 8) and the three prototype-network /
//!    overhead anchors the paper itself could not decompose — every other
//!    table entry is then a prediction;
//! 4. [`experiments`] regenerates every table and figure of the paper,
//!    rendered by [`tables`];
//! 5. [`service`] wraps the harness in a long-lived [`Evaluator`] behind
//!    bounded admission, and [`wire`] serves it over a socket
//!    (`repro --serve`), evaluating each request on its connection's
//!    thread, with responses bit-identical to direct calls.
//!
//! See EXPERIMENTS.md at the repository root for paper-vs-model numbers
//! for every row.

pub mod cache;
pub mod calibrate;
pub mod experiments;
pub mod models;
pub mod service;
pub mod tables;
pub mod validate;
pub mod wire;
pub mod workload;

pub use cache::{load_or_measure, CacheStatus, Snapshot};
pub use calibrate::{calibrate, Calibration, PaperAnchors};
pub use experiments::{Experiments, Figure};
pub use models::{ConventionalModel, TeraModel};
pub use service::{EvalError, EvalRequest, Evaluator, Platform, Service, ServiceConfig};
pub use tables::Table;
pub use wire::{Client, Server};
pub use workload::{Workload, WorkloadScale};
