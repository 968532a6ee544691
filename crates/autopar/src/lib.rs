//! # autopar — a model of the automatic parallelizing compilers
//!
//! §5–§7 of the paper report that the manufacturer-supplied automatic
//! parallelizing compilers of both the HP Exemplar and the Tera MTA were
//! "unable to identify any practical opportunities for parallelization" in
//! either benchmark, for identifiable reasons:
//!
//! 1. shared scalar induction variables (`num_intervals`),
//! 2. data-dependent store subscripts (`intervals[num_intervals]`),
//! 3. overlapping writes across iterations (`masking` regions of
//!    influence),
//! 4. chains of function calls and pointer operations that thwart
//!    dependence analysis,
//!
//! and that even the manually transformed programs were only parallelized
//! once explicit parallel-loop pragmas were added.
//!
//! This crate reproduces that compiler behaviour — and then builds the
//! compiler the paper wished for:
//!
//! * a loop-nest IR ([`ir`]);
//! * the dependence test ([`deps`]): carried scalars, opaque calls and the
//!   standard affine (GCD) subscript tests, stated once. Run with nothing
//!   cleared it is the 1998 stance ([`analyze_loop`]), on which the
//!   paper's Programs 1–4 ([`programs`]) reach exactly the published
//!   verdicts;
//! * scalar liveness at the loop body's entry
//!   ([`LoopNest::live_at_entry`]): a first-touch scan in program order,
//!   checked against an independent naive fixpoint
//!   (`tests/liveness_oracle.rs`);
//! * recognition on top of liveness ([`reduction`]): associative
//!   reductions, scalar/array privatization, the `out[count++]`
//!   compaction idiom, and interprocedural purity summaries clear
//!   obstacles, and the same dependence test runs on what is left — each
//!   clearing and each residual rejection an [`Anchored`] entry with
//!   statement-level provenance in canal-style reports ([`report`]);
//! * an emission pass ([`emit`]) turning parallel verdicts into
//!   [`Schedule`](emit::Schedule) annotations, executed by the `repro
//!   table-auto` experiment against the manual transformations.
//!
//! The dataflow pass parallelizes Programs 1 and 2 *without* pragmas and
//! still rejects Programs 3 and 4 for their genuinely carried
//! dependences — see `docs/AUTOPAR.md` for the living auto-vs-manual
//! comparison.

#![warn(missing_docs)]

pub mod deps;
pub mod emit;
pub mod ir;
pub mod programs;
pub mod reduction;
pub mod report;

pub use deps::analyze_loop;
pub use emit::{emit_plan, ParallelPlan};
pub use ir::{ArrayRef, Expr, LoopNest, Node, ReduceOp, Reduction, Stmt};
pub use reduction::{analyze_loop_dataflow, DataflowReport, DataflowVerdict, Summaries};
pub use report::{Anchored, ClearedKind, Clearing, LoopVerdict, Reason, ReasonKind, Report};
