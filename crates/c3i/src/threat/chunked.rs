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
use crate::counts::{NoRec, Profile, Rec};
use parking_lot::Mutex;
use sthreads::{chunk_range, OpRecorder, ParFor, ThreadCounts};

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
    /// Total words of output storage *reserved* (the oversized allocation
    /// the paper identifies as the drawback of this approach; one interval
    /// is 4 words).
    pub reserved_words: usize,
}

impl ChunkedResult {
    /// Flatten chunk sections in chunk order (the order a final sequential
    /// concatenation would produce).
    pub fn flatten(&self) -> Vec<Interval> {
        self.per_chunk.iter().flatten().copied().collect()
    }

    /// Total number of intervals found.
    pub fn n_intervals(&self) -> usize {
        self.per_chunk.iter().map(Vec::len).sum()
    }

    /// Words of output storage actually used.
    pub fn used_words(&self) -> usize {
        self.n_intervals() * 4
    }
}

/// Compute one chunk's section: threats `[first, end)` against every
/// weapon. This is the body of Program 2's multithreaded loop.
fn run_chunk<R: Rec>(
    scenario: &ThreatScenario,
    first: usize,
    end: usize,
    capacity: usize,
    r: &mut R,
) -> Vec<Interval> {
    let mut section = Vec::with_capacity(capacity);
    r.int(4); // chunk bounds arithmetic: (chunk*n)/num_chunks etc.
    r.store(1); // num_intervals[chunk] = 0
    for ti in first..end {
        let threat = &scenario.threats[ti];
        for (wi, weapon) in scenario.weapons.iter().enumerate() {
            r.int(2);
            r.load(2);
            intervals_for_pair(ti as u32, wi as u32, threat, weapon, r, |iv| {
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
    let mut reserved_words = 0usize;
    for c in 0..n_chunks {
        reserved_words += chunk_range(c, n_threats, n_chunks).len() * cap_per_pair * 4;
    }

    ParFor::new(0..n_threats)
        .threads(n_threads)
        .chunk_count(n_chunks)
        .run_chunked(|cb| {
            let capacity = (cb.end - cb.first) * cap_per_pair;
            let section = run_chunk(scenario, cb.first, cb.end, capacity, &mut NoRec);
            *slots[cb.chunk].lock() = section;
        });

    let per_chunk = slots.into_iter().map(Mutex::into_inner).collect();
    ChunkedResult {
        per_chunk,
        reserved_words,
    }
}

/// Program 2 under the counting backend: logical chunks execute
/// sequentially, each recording its own operation counts. Returns the
/// result and the [`Profile`] whose parallel region has `n_chunks` logical
/// threads.
pub fn threat_analysis_chunked(
    scenario: &ThreatScenario,
    n_chunks: usize,
) -> (ChunkedResult, Profile) {
    let n_threats = scenario.threats.len();
    let cap_per_pair = OVERSIZE_INTERVALS_PER_PAIR * scenario.weapons.len();
    let mut per_chunk = Vec::with_capacity(n_chunks);
    let mut reserved_words = 0usize;

    let mut serial = OpRecorder::new();
    // Serial prologue: computing the chunk decomposition and spawning.
    serial.int(2 * n_chunks as u64);
    serial.spawn(n_chunks as u64);

    let thread_counts = ThreadCounts::record(n_chunks, |c, r| {
        let range = chunk_range(c, n_threats, n_chunks);
        reserved_words += range.len() * cap_per_pair * 4;
        let section = run_chunk(
            scenario,
            range.start,
            range.end,
            range.len() * cap_per_pair,
            r,
        );
        per_chunk.push(section);
    });

    (
        ChunkedResult {
            per_chunk,
            reserved_words,
        },
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
    fn counting_backend_produces_identical_output() {
        let s = small_scenario(2);
        let host = threat_analysis_chunked_host(&s, 8, 4);
        let (counted, profile) = threat_analysis_chunked(&s, 8);
        assert_eq!(counted.flatten(), host.flatten());
        assert_eq!(profile.n_logical_threads(), 8);
        assert_eq!(profile.serial.spawns, 8);
    }

    #[test]
    fn more_chunks_reserve_more_storage() {
        // The paper's drawback: oversized storage grows with chunk count
        // only through rounding here (capacity is per-pair), so reserved
        // words are monotone non-decreasing and usage is constant.
        let s = small_scenario(3);
        let r8 = threat_analysis_chunked_host(&s, 8, 4);
        let r32 = threat_analysis_chunked_host(&s, 32, 4);
        assert_eq!(r8.n_intervals(), r32.n_intervals());
        assert!(
            r8.reserved_words >= r8.used_words(),
            "allocation must cover usage"
        );
        assert!(r32.reserved_words >= r32.used_words());
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
        let (_, profile) = threat_analysis_chunked(&s, 4);
        let per: Vec<u64> = profile
            .parallel
            .per_thread()
            .iter()
            .map(|c| c.instructions())
            .collect();
        let max = *per.iter().max().unwrap() as f64;
        let min = *per.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "unexpectedly imbalanced: {per:?}");
    }

    #[test]
    fn single_chunk_single_thread_matches_sequential_counts_closely() {
        // Program 2 with one chunk does the same pair scans as Program 1;
        // only the per-chunk bookkeeping differs.
        let s = small_scenario(6);
        let (_, p1) = crate::threat::sequential::threat_analysis_profile(&s);
        let (_, p2) = threat_analysis_chunked(&s, 1);
        let a = p1.total().instructions() as f64;
        let b = p2.total().instructions() as f64;
        assert!((a - b).abs() / a < 0.01, "seq={a} chunked(1)={b}");
    }
}
