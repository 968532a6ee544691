//! Program 2: the multithreaded (chunked) Threat Analysis program.
//!
//! The outer loop over threats is replaced by a multithreaded loop over
//! `num_chunks` chunks; each chunk owns its own `num_intervals[chunk]`
//! counter and its own *generously oversized* section of the `intervals`
//! array, so chunks are completely independent. The paper runs one chunk
//! per processor on the conventional SMPs and 8–256 chunks on the Tera MTA
//! (Table 6), and notes the cost: the more chunks, the more oversized
//! storage.

use super::model::{intervals_for_pair, Interval};
use super::scenario::ThreatScenario;
use crate::counts::NoRec;
use parking_lot::Mutex;
use sthreads::ParFor;

/// How generously each chunk's output section is oversized: capacity =
/// `OVERSIZE_INTERVALS_PER_PAIR × pairs in the chunk`. The verifier checks
/// this bound is never exceeded on the benchmark scenarios.
pub const OVERSIZE_INTERVALS_PER_PAIR: usize = 4;

/// Output of the chunked program: one independent section per chunk.
#[derive(Debug, Clone)]
pub struct ChunkedResult {
    /// `intervals[chunk]` — each chunk's output section, in that chunk's
    /// deterministic loop order.
    pub per_chunk: Vec<Vec<Interval>>,
}

impl ChunkedResult {
    /// Flatten chunk sections in chunk order (the order a final sequential
    /// concatenation would produce).
    pub fn flatten(&self) -> Vec<Interval> {
        self.per_chunk.iter().flatten().copied().collect()
    }
}

/// Compute one chunk's section: threats `[first, end)` against every
/// weapon. This is the body of Program 2's multithreaded loop.
fn run_chunk(
    scenario: &ThreatScenario,
    first: usize,
    end: usize,
    capacity: usize,
) -> Vec<Interval> {
    let mut section = Vec::with_capacity(capacity);
    for ti in first..end {
        let threat = &scenario.threats[ti];
        for (wi, weapon) in scenario.weapons.iter().enumerate() {
            intervals_for_pair(ti as u32, wi as u32, threat, weapon, &mut NoRec, |iv| {
                section.push(iv);
            });
        }
    }
    section
}

/// Multithreaded Threat Analysis (Program 2) on real host threads:
/// `n_chunks` logical threads executed by `n_threads` workers.
pub fn threat_analysis_chunked_host(
    scenario: &ThreatScenario,
    n_chunks: usize,
    n_threads: usize,
) -> ChunkedResult {
    let n_threats = scenario.threats.len();
    let cap_per_pair = OVERSIZE_INTERVALS_PER_PAIR * scenario.weapons.len();
    let slots: Vec<Mutex<Vec<Interval>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();

    ParFor::new(0..n_threats)
        .threads(n_threads)
        .chunk_count(n_chunks)
        .run_chunked(|cb| {
            let capacity = (cb.end - cb.first) * cap_per_pair;
            let section = run_chunk(scenario, cb.first, cb.end, capacity);
            *slots[cb.chunk].lock() = section;
        });

    let per_chunk = slots.into_iter().map(Mutex::into_inner).collect();
    ChunkedResult { per_chunk }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threat::scenario::small_scenario;
    use crate::threat::sequential::{per_threat_counts, threat_analysis_host};
    use sthreads::chunk_range;

    #[test]
    fn chunked_equals_sequential_when_flattened() {
        let s = small_scenario(1);
        let seq = threat_analysis_host(&s);
        for n_chunks in [1, 2, 3, 8, 16] {
            let res = threat_analysis_chunked_host(&s, n_chunks, 4);
            assert_eq!(res.flatten(), seq, "n_chunks={n_chunks}");
        }
    }

    #[test]
    fn every_worker_count_flattens_to_the_sequential_output() {
        let s = small_scenario(1);
        let seq = threat_analysis_host(&s);
        for threads in [1, 2, 8] {
            let res = threat_analysis_chunked_host(&s, 8, threads);
            assert_eq!(res.flatten(), seq, "threads={threads}");
        }
    }

    #[test]
    fn oversizing_bound_holds_per_chunk() {
        let s = small_scenario(4);
        let res = threat_analysis_chunked_host(&s, 10, 4);
        let cap_per_pair = OVERSIZE_INTERVALS_PER_PAIR * s.weapons.len();
        for (c, section) in res.per_chunk.iter().enumerate() {
            let n_threats = chunk_range(c, s.threats.len(), 10).len();
            assert!(
                section.len() <= n_threats * cap_per_pair,
                "chunk {c} overflowed its oversized section"
            );
        }
    }

    #[test]
    fn chunk_counts_are_roughly_balanced() {
        // Threats are i.i.d., so per-chunk instruction counts should be
        // within a small factor of each other for modest chunk counts.
        let s = small_scenario(5);
        let per_threat = per_threat_counts(&s);
        let per: Vec<u64> = (0..4)
            .map(|c| {
                let chunk = &per_threat[chunk_range(c, per_threat.len(), 4)];
                chunk.iter().map(|c| c.instructions()).sum()
            })
            .collect();
        let max = *per.iter().max().unwrap() as f64;
        let min = *per.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "unexpectedly imbalanced: {per:?}");
    }
}
