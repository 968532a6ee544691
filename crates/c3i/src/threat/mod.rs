//! # Threat Analysis (C3IPBS problem; paper §5)
//!
//! A time-stepped simulation of the trajectories of incoming ballistic
//! threats, with computation of options for intercepting the threats.
//!
//! **Input:** (i) the trajectories of a set of incoming threats, and
//! (ii) the locations and capabilities of a set of weapons that can be used
//! to intercept them. **Output:** for each (threat, weapon) pair, the time
//! intervals over which the threat can be intercepted by the weapon —
//! zero, one, or more intervals per pair. The benchmark runs five input
//! scenarios of 1000 threats each and reports the total time.
//!
//! The `t1`/`t2` interception times are found by a time-stepped scan of
//! simulated threat and interceptor positions ([`model::can_intercept`]),
//! which is inherently sequential; parallelism exists only *across*
//! (threat, weapon) pairs.
//!
//! ## Implementations
//!
//! * [`sequential::threat_analysis`] — Program 1: three nested loops,
//!   shared `num_intervals`/`intervals[]`. Not parallelizable as written
//!   (the store index of one iteration depends on all prior iterations);
//!   [`autopar`](https://docs.rs/autopar)'s dependence analyzer rejects it
//!   for exactly that reason, as the Tera and Exemplar compilers did.
//! * [`chunked::threat_analysis_chunked_host`] — Program 2: the outer loop over
//!   threats is split into `num_chunks` chunks, each with its own
//!   `num_intervals[chunk]` counter and its own generously oversized
//!   section of the output array. Chunks are completely independent. This
//!   is the variant run on all multiprocessor platforms; on the Tera MTA
//!   the paper sweeps 8–256 chunks (Table 6).
//! * [`fine::threat_analysis_fine_host`] — the alternative §5 describes for the
//!   Tera only: parallelize over threats with *no* chunking and allocate
//!   output slots from a shared counter with one-cycle fetch-add
//!   (a synchronization variable). No oversized array, but the output
//!   order is nondeterministic (results must be compared as a set).

pub mod chunked;
pub mod fine;
pub mod model;
pub mod scenario;
pub mod sequential;
pub mod verify;

pub use chunked::{threat_analysis_chunked_host, ChunkedResult};
pub use fine::threat_analysis_fine_host;
pub use model::{
    can_intercept, exit_class, intervals_for_pair, pair_counts, Exit, ExitCost, Interval, Threat,
    Weapon, TIME_STEP,
};
pub use scenario::{
    benchmark_params, benchmark_suite, generate, small_scenario, ThreatScenario,
    ThreatScenarioError, ThreatScenarioParams,
};
pub use sequential::{
    op_profile, per_threat_counts, threat_analysis, threat_analysis_host, threat_analysis_profile,
    ThreatOps,
};
pub use verify::{canonical, verify_intervals, VerifyError};
