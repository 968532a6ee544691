//! # c3i — the C3I Parallel Benchmark Suite problems of the SC'98 study
//!
//! The USAF Rome Laboratory C3I Parallel Benchmark Suite (C3IPBS) consists
//! of eight problems representing essential elements of real command,
//! control, communication and intelligence applications. The SC'98 Tera MTA
//! evaluation uses two of them, both reimplemented here in full:
//!
//! * [`threat`] — **Threat Analysis**: a time-stepped simulation of the
//!   trajectories of incoming ballistic threats, computing for each
//!   (threat, weapon) pair the time intervals over which the threat can be
//!   intercepted (paper §5, Programs 1–2).
//! * [`terrain`] — **Terrain Masking**: computation of the maximum safe
//!   flight altitude over all points of an uneven terrain containing
//!   ground-based threats (paper §6, Programs 3–4).
//!
//! Each problem provides, as the C3IPBS does:
//!
//! 1. a problem description (module docs),
//! 2. an efficient sequential program,
//! 3. benchmark input data — seeded synthetic scenario generators matching
//!    the paper's workload statistics (5 scenarios; 1000 threats/scenario
//!    for Threat Analysis; 60 threats and ≤5 % regions of influence for
//!    Terrain Masking), and
//! 4. a correctness test for the output.
//!
//! On top of the sequential programs, the crate implements every manual
//! parallelization the paper evaluates: static chunking (Program 2),
//! dynamic self-scheduling with block locks (Program 4), fine-grained
//! synchronization-variable and inner-loop variants (the Tera-specific
//! approaches of §5 and §6).
//!
//! All algorithms are written once, generic over a [`counts::Rec`] operation
//! recorder: instantiated with [`counts::NoRec`] they run at full speed on
//! the host; instantiated with an [`sthreads::OpRecorder`] they produce the
//! per-logical-thread operation counts consumed by the machine models in
//! `eval-core`.

pub mod counts;
pub mod grid;
pub mod terrain;
pub mod threat;

pub use counts::{NoRec, ParallelPhase, PhasedProfile, Profile, Rec};
pub use grid::Grid;
