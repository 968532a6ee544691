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
use crate::counts::{NoRec, Profile};
use std::sync::OnceLock;
use sthreads::{multithreaded_for, OpRecorder, Schedule, SyncCounter, ThreadCounts};

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
    multithreaded_for(0..n_threats, n_threads, Schedule::Dynamic, |ti| {
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

/// Fine-grained Threat Analysis under the counting backend: one logical
/// thread per threat; every slot allocation records one synchronization
/// operation. Returns the result (here in deterministic threat order,
/// since logical threads run sequentially) and the [`Profile`].
pub fn threat_analysis_fine(scenario: &ThreatScenario) -> (FineResult, Profile) {
    let mut intervals = Vec::new();
    let mut serial = OpRecorder::new();
    serial.int(1); // num_intervals = 0 (a sync variable initialization)
    serial.spawn(scenario.threats.len() as u64);

    let thread_counts = ThreadCounts::record(scenario.threats.len(), |ti, r| {
        let threat = &scenario.threats[ti];
        for (wi, weapon) in scenario.weapons.iter().enumerate() {
            r.int(2);
            r.load(2);
            let before = intervals.len();
            intervals_for_pair(ti as u32, wi as u32, threat, weapon, r, |iv| {
                intervals.push(iv);
            });
            // One int_fetch_add on the shared counter per emitted interval.
            r.sync((intervals.len() - before) as u64);
        }
    });

    (
        FineResult { intervals },
        Profile {
            serial: serial.counts(),
            parallel: thread_counts,
        },
    )
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
    fn counting_backend_matches_sequential_as_a_set() {
        let s = small_scenario(2);
        let seq = canonical(threat_analysis_host(&s));
        let (fine, profile) = threat_analysis_fine(&s);
        assert_eq!(canonical(fine.intervals), seq);
        assert_eq!(profile.n_logical_threads(), s.threats.len());
    }

    #[test]
    fn every_interval_costs_one_sync_op() {
        let s = small_scenario(3);
        let (fine, profile) = threat_analysis_fine(&s);
        assert_eq!(
            profile.parallel.total().sync_ops,
            fine.intervals.len() as u64
        );
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

    #[test]
    fn logical_thread_count_equals_threat_count() {
        // §5: "each input scenario ... has 1000 threats, parallelization
        // over threats ... easily supplies enough threads".
        let s = small_scenario(5);
        let (_, profile) = threat_analysis_fine(&s);
        assert_eq!(profile.n_logical_threads(), 40);
        assert_eq!(profile.serial.spawns, 40);
    }
}
