//! Program 1: the sequential Threat Analysis program.
//!
//! Three nested loops — threats × weapons × time-stepped scan — appending
//! to a single shared `intervals` array through a single shared
//! `num_intervals` counter. The store index of each append depends on every
//! prior iteration, which is exactly why the automatic parallelizing
//! compilers of both the Exemplar and the Tera could not parallelize it.

use super::model::{intervals_for_pair, pair_counts, Interval};
use super::scenario::ThreatScenario;
use crate::counts::{NoRec, Profile, Rec};
use sthreads::{OpCounts, OpRecorder};

/// Sequential Threat Analysis (Program 1). Returns the interval list in
/// the canonical (threat-major, weapon-minor, time-increasing) order the
/// sequential loop structure produces.
pub fn threat_analysis<R: Rec>(scenario: &ThreatScenario, r: &mut R) -> Vec<Interval> {
    let mut intervals = Vec::new();
    r.int(1); // num_intervals = 0
    for (ti, threat) in scenario.threats.iter().enumerate() {
        for (wi, weapon) in scenario.weapons.iter().enumerate() {
            r.int(2); // loop bookkeeping
            r.load(2); // threat/weapon descriptors
            intervals_for_pair(ti as u32, wi as u32, threat, weapon, r, |iv| {
                intervals.push(iv);
            });
        }
    }
    intervals
}

/// Convenience wrapper running Program 1 without recording.
pub fn threat_analysis_host(scenario: &ThreatScenario) -> Vec<Interval> {
    threat_analysis(scenario, &mut NoRec)
}

/// Run Program 1 under the counting backend, returning the intervals and
/// the operation [`Profile`] (one logical thread; no parallel region).
/// This is the oracle for [`op_profile`]'s `seq`, which is how the harness
/// obtains the same profile without recording.
pub fn threat_analysis_profile(scenario: &ThreatScenario) -> (Vec<Interval>, Profile) {
    let mut r = OpRecorder::new();
    let intervals = threat_analysis(scenario, &mut r);
    let profile = Profile::sequential(Default::default(), r.counts());
    (intervals, profile)
}

/// Per-threat operation counts (threat `i`'s work against every weapon).
/// Chunk profiles for *any* chunking are cheap aggregations of this
/// vector, which is how the experiment harness sweeps Tables 3–6 without
/// re-running the benchmark per configuration. Recorded under an
/// [`OpRecorder`]: the oracle for [`op_profile`]'s `per_threat`.
pub fn per_threat_counts(scenario: &ThreatScenario) -> Vec<sthreads::OpCounts> {
    scenario
        .threats
        .iter()
        .enumerate()
        .map(|(ti, threat)| {
            let mut r = OpRecorder::new();
            for (wi, weapon) in scenario.weapons.iter().enumerate() {
                crate::counts::Rec::int(&mut r, 2);
                crate::counts::Rec::load(&mut r, 2);
                crate::threat::model::intervals_for_pair(
                    ti as u32,
                    wi as u32,
                    threat,
                    weapon,
                    &mut r,
                    |_| {},
                );
            }
            r.counts()
        })
        .collect()
}

/// Both Threat Analysis measurements of one scenario, as [`op_profile`]
/// counts them.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreatOps {
    /// What [`per_threat_counts`] records.
    pub per_threat: Vec<OpCounts>,
    /// What [`threat_analysis_profile`] records.
    pub seq: Profile,
}

/// The scenario's operation counts without a recorder in the scan: every
/// pair is counted once by [`pair_counts`], and Program 1 is exactly its
/// `num_intervals = 0` plus the per-threat loop bodies, so the sequential
/// profile is a sum rather than a second scan. Equal, field by field, to
/// the two recorded entry points (the differential tests and the fuzz
/// runner hold it to that).
pub fn op_profile(scenario: &ThreatScenario) -> ThreatOps {
    let n_weapons = scenario.weapons.len() as u64;
    let per_threat: Vec<OpCounts> = scenario
        .threats
        .iter()
        .map(|threat| {
            let mut pair_loop = OpRecorder::new();
            pair_loop.int(2 * n_weapons); // loop bookkeeping
            pair_loop.load(2 * n_weapons); // threat/weapon descriptors
            let pairs = scenario.weapons.iter().map(|w| pair_counts(threat, w));
            pairs.sum::<OpCounts>().merged(&pair_loop.counts())
        })
        .collect();
    let mut main = OpRecorder::new();
    main.int(1); // num_intervals = 0
    let main = per_threat
        .iter()
        .copied()
        .sum::<OpCounts>()
        .merged(&main.counts());
    ThreatOps {
        per_threat,
        seq: Profile::sequential(Default::default(), main),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threat::scenario::small_scenario;

    #[test]
    fn produces_intervals_on_the_small_scenario() {
        let s = small_scenario(1);
        let out = threat_analysis_host(&s);
        assert!(
            !out.is_empty(),
            "small scenario must yield some interceptions"
        );
    }

    #[test]
    fn output_is_in_canonical_loop_order() {
        let s = small_scenario(2);
        let out = threat_analysis_host(&s);
        for w in out.windows(2) {
            let a = (w[0].threat, w[0].weapon, w[0].t_start);
            let b = (w[1].threat, w[1].weapon, w[1].t_start);
            assert!(a < b, "sequential output must be sorted: {a:?} !< {b:?}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = small_scenario(3);
        assert_eq!(threat_analysis_host(&s), threat_analysis_host(&s));
    }

    #[test]
    fn profile_counts_scale_with_scenario_size() {
        let small = small_scenario(1);
        let (_, p_small) = threat_analysis_profile(&small);
        let big = crate::threat::scenario::generate(crate::threat::ThreatScenarioParams {
            n_threats: 80,
            n_weapons: 6,
            seed: 1,
            theater_m: 300_000.0,
            launch_window_s: 600.0,
        });
        let (_, p_big) = threat_analysis_profile(&big);
        assert!(p_big.total().instructions() > p_small.total().instructions());
        assert_eq!(p_small.n_logical_threads(), 1);
    }

    #[test]
    fn profile_is_compute_dominated() {
        // §5: "The program is compute-bound, rather than memory-bound."
        let (_, p) = threat_analysis_profile(&small_scenario(1));
        let t = p.total();
        assert!(
            t.compute_ops() > t.mem_ops(),
            "Threat Analysis must be compute-bound: {t:?}"
        );
    }

    #[test]
    fn empty_scenario_yields_no_intervals() {
        let s = ThreatScenario {
            threats: vec![],
            weapons: vec![],
        };
        assert!(threat_analysis_host(&s).is_empty());
    }
}
