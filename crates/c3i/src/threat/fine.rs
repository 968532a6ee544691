//! Fine-grained Threat Analysis: parallelization without chunking.
//!
//! §5 of the paper describes an alternative Tera-only approach: parallelize
//! the outer loop over all 1000 threats directly and resolve the shared
//! `num_intervals`/`intervals[]` access with very fine-grained locking on
//! Tera synchronization variables — a one-cycle `int_fetch_add` allocates
//! each output slot. No oversized per-chunk array is needed, but the
//! element order becomes nondeterministic (a race on slot allocation), so
//! results must be compared as a set. The paper notes this is "viable for
//! the Tera MTA, but not for our conventional coarse-grained multiprocessor
//! platforms" — on an SMP the fetch-add on every interval would bounce a
//! cache line between all processors.

use super::model::{intervals_for_pair, Interval};
use super::scenario::ThreatScenario;
use crate::counts::NoRec;
use std::sync::OnceLock;
use sthreads::{multithreaded_for, SyncCounter};

/// Result of the fine-grained program: the shared output array (dense
/// prefix of the slot array) in nondeterministic order.
#[derive(Debug, Clone)]
pub struct FineResult {
    /// All intervals found, in slot-allocation order (nondeterministic
    /// under real parallel execution).
    pub intervals: Vec<Interval>,
}

/// Upper bound on output slots: the verifier checks the benchmark scenarios
/// stay under `FINE_SLOTS_PER_PAIR` intervals per (threat, weapon) pair.
pub const FINE_SLOTS_PER_PAIR: usize = 4;

/// Fine-grained Threat Analysis on real host threads: one logical task per
/// threat, dynamically scheduled; output slots allocated with an atomic
/// fetch-add (the host stand-in for the MTA's one-cycle `int_fetch_add`).
///
/// Output order is nondeterministic (the fetch-add race), so results
/// compare equal to the sequential program's as a *set* — the comparison
/// the differential fuzzer applies after `canonical` sorting.
pub fn threat_analysis_fine_host(scenario: &ThreatScenario, n_threads: usize) -> FineResult {
    let n_slots = scenario.n_pairs() * FINE_SLOTS_PER_PAIR;
    let slots: Vec<OnceLock<Interval>> = (0..n_slots).map(|_| OnceLock::new()).collect();
    let num_intervals = SyncCounter::new(0);

    // Per-threat tasks are short and irregular, so workers self-schedule
    // (output order is already nondeterministic, so the claim order is
    // unobservable).
    let n_threats = scenario.threats.len();
    multithreaded_for(0..n_threats, n_threads, |ti| {
        let threat = &scenario.threats[ti];
        for (wi, weapon) in scenario.weapons.iter().enumerate() {
            intervals_for_pair(ti as u32, wi as u32, threat, weapon, &mut NoRec, |iv| {
                let slot = num_intervals.fetch_add(1) as usize;
                assert!(slot < n_slots, "fine-grained slot array overflow");
                slots[slot]
                    .set(iv)
                    .expect("slot allocated twice — fetch_add must hand out unique slots");
            });
        }
    });

    let n = num_intervals.get() as usize;
    let intervals = slots[..n]
        .iter()
        .map(|s| *s.get().expect("allocated slot left empty"))
        .collect();
    FineResult { intervals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threat::scenario::small_scenario;
    use crate::threat::sequential::threat_analysis_host;
    use crate::threat::verify::canonical;

    #[test]
    fn fine_host_matches_sequential_as_a_set() {
        let s = small_scenario(1);
        let seq = canonical(threat_analysis_host(&s));
        for threads in [1, 2, 4, 8] {
            let fine = canonical(threat_analysis_fine_host(&s, threads).intervals);
            assert_eq!(fine, seq, "threads={threads}");
        }
    }

    #[test]
    fn fine_grained_needs_no_oversized_storage() {
        // Contrast with Program 2: used slots == intervals found; the slot
        // array bound is shared, not per-chunk.
        let s = small_scenario(4);
        let fine = threat_analysis_fine_host(&s, 4);
        let chunked = crate::threat::chunked::threat_analysis_chunked_host(&s, 256, 4);
        assert_eq!(fine.intervals.len(), chunked.n_intervals());
    }
}
