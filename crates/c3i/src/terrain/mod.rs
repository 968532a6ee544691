//! # Terrain Masking (C3IPBS problem; paper §6)
//!
//! Computation of the maximum safe flight altitude over all points in an
//! uneven terrain containing ground-based threats.
//!
//! **Input:** (i) the ground elevation for all points of the terrain, and
//! (ii) the position and range of a set of ground-based threats (radar
//! sites). **Output:** for every terrain point, the maximum altitude at
//! which an aircraft is invisible to *all* threats. The benchmark runs
//! five scenarios and reports the total time; each scenario has 60 threats
//! whose regions of influence cover up to 5 % of the terrain each.
//!
//! The per-threat computation is a line-of-sight shadow: the safe altitude
//! at a point is determined by the terrain between the point and the radar,
//! so "the value at one point is computed from the values at neighboring
//! points" — a ring-ordered recurrence ([`los`]). The overall answer is the
//! pointwise minimum over threats, and regions of influence of different
//! threats overlap, which is what blocks naive outer-loop parallelization.
//!
//! ## Implementations
//!
//! * [`sequential::terrain_masking`] — Program 3: for each threat, copy the
//!   affected region of `masking` into `temp`, recompute the region's
//!   per-threat altitudes in place, then merge `min(masking, temp)` back.
//! * [`coarse::terrain_masking_coarse_host`] — Program 4: threads
//!   dynamically claim threats; each computes into its *own* temp array and
//!   merges into the shared `masking` array under per-block locks (10×10
//!   blocking in the paper). Requires a temp array per thread — acceptable
//!   for 16 threads, impractical for the hundreds the Tera needs.
//! * [`fine::terrain_masking_fine`] — the Tera-only variant (developed with
//!   John Feo at Tera, per the paper's acknowledgments): the outer loop
//!   over threats stays sequential, the *inner* loops are parallelized —
//!   the ring recurrence ring by ring, and the bulk copy/merge loops over
//!   whole regions. One temp array total, hundreds of fine-grained threads.

pub mod coarse;
pub mod count;
#[cfg(test)]
mod exact;
pub mod fine;
pub mod los;
pub mod scenario;
pub mod sequential;
pub mod verify;

pub use coarse::{greedy_bins, per_threat_counts, terrain_masking_coarse_host, Blocking};
pub use count::{op_profile, ring_ops, TerrainOps};
pub use fine::{terrain_masking_fine, terrain_masking_fine_host};
pub use los::{
    per_threat_masking, KernelArena, KernelScratch, OffGridThreat, Region, RingRun, RingRuns,
};
pub use scenario::{
    benchmark_params, benchmark_suite, generate, generate_threats, small_scenario, GroundThreat,
    TerrainScenario, TerrainScenarioError, TerrainScenarioParams,
};
pub use sequential::{
    terrain_masking, terrain_masking_host, terrain_masking_into, terrain_masking_profile,
    terrain_masking_reference,
};
pub use verify::{verify_masking, TerrainVerifyError};
