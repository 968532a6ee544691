//! # tera-c3i — facade crate
//!
//! Reproduction of *"An Initial Evaluation of the Tera Multithreaded
//! Architecture and Programming System Using the C3I Parallel Benchmark
//! Suite"* (Brunett, Thornley, Ellenbecker; SC'98).
//!
//! This crate re-exports the public API of every workspace member so
//! examples and downstream users need a single dependency:
//!
//! * [`sthreads`] — structured multithreading runtime: what Programs
//!   1–4 as built use of the paper's programming systems (multithreaded
//!   for-loops, an `int_fetch_add` counter) plus the op-counting backend,
//! * [`c3i`] — the Threat Analysis and Terrain Masking benchmarks with
//!   sequential, coarse-grained and fine-grained implementations,
//! * [`mta_sim`] — cycle-level Tera MTA simulator,
//! * [`smp_sim`] — cache/bus simulator for the conventional platforms,
//! * [`eval_core`] — calibrated machine models and the experiment harness
//!   that regenerates every table and figure of the paper,
//! * [`autopar`] — the automatic-parallelization (dependence analysis)
//!   model.
//!
//! See `examples/quickstart.rs` for a guided tour and the `repro` binary
//! for the full table/figure reproduction.

pub use autopar;
pub use c3i;
pub use eval_core;
pub use mta_sim;
pub use smp_sim;
pub use sthreads;
