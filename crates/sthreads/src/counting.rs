//! The op-counting backend.
//!
//! The paper's tables report wall-clock times on four machines we do not
//! have. Our reproduction instead *counts the abstract operations* each
//! logical thread of a benchmark performs — integer ops, floating-point
//! ops, loads, stores, synchronization operations, thread spawns — and
//! feeds those counts through calibrated machine models (`eval-core`).
//!
//! The counting backend executes the benchmark's logical thread structure
//! *sequentially* (one logical thread at a time), so instrumented code needs
//! no atomics and counting is deterministic. What matters for the models is
//! the per-logical-thread distribution of work: the makespan and imbalance
//! of the real parallel execution are derived from it.

/// Abstract operation counts for one logical thread (or one whole program).
///
/// Memory operations are split by *locality class*, because that is what
/// separates compute-bound from memory-bound programs on cache-based
/// machines: `loads`/`stores` touch small, reused working sets (they hit in
/// cache on the conventional platforms), while `stream_loads`/
/// `stream_stores` sweep large arrays with little reuse (they miss at a
/// line-size-determined rate). The Tera MTA has no caches, so its model
/// charges both classes identically — which is precisely the architectural
/// contrast the paper studies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OpCounts {
    /// Integer ALU operations (adds, compares, index arithmetic, branches).
    pub int_ops: u64,
    /// Memory loads of cache-resident data (words read).
    pub loads: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Memory stores to cache-resident data (words written).
    pub stores: u64,
    /// Loads streaming over large, low-reuse arrays.
    pub stream_loads: u64,
    /// Stores streaming over large, low-reuse arrays.
    pub stream_stores: u64,
    /// Synchronization operations: full/empty loads/stores, fetch-adds,
    /// lock acquire/release pairs count as one each.
    pub sync_ops: u64,
    /// Logical threads spawned by this thread.
    pub spawns: u64,
}

impl OpCounts {
    /// Total instructions issued (every abstract op is one instruction in
    /// the machine models).
    pub fn instructions(&self) -> u64 {
        self.int_ops
            + self.fp_ops
            + self.loads
            + self.stores
            + self.stream_loads
            + self.stream_stores
            + self.sync_ops
            + self.spawns
    }

    /// Total memory operations (all loads and stores plus sync ops, which
    /// all touch memory on every platform in the study).
    pub fn mem_ops(&self) -> u64 {
        self.loads + self.stores + self.stream_loads + self.stream_stores + self.sync_ops
    }

    /// Memory operations in the streaming (low-reuse) class.
    pub fn stream_ops(&self) -> u64 {
        self.stream_loads + self.stream_stores
    }

    /// Fraction of instructions that stream over large arrays — the
    /// signature of a memory-bound program on a cache-based machine.
    pub fn stream_fraction(&self) -> f64 {
        let total = self.instructions();
        if total == 0 {
            0.0
        } else {
            self.stream_ops() as f64 / total as f64
        }
    }

    /// Total compute (non-memory) operations.
    pub fn compute_ops(&self) -> u64 {
        self.int_ops + self.fp_ops
    }

    /// Fraction of instructions that touch memory; 0 for an empty count.
    pub fn mem_fraction(&self) -> f64 {
        let total = self.instructions();
        if total == 0 {
            0.0
        } else {
            self.mem_ops() as f64 / total as f64
        }
    }

    /// Element-wise accumulate.
    pub fn add(&mut self, other: &OpCounts) {
        self.int_ops += other.int_ops;
        self.fp_ops += other.fp_ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.stream_loads += other.stream_loads;
        self.stream_stores += other.stream_stores;
        self.sync_ops += other.sync_ops;
        self.spawns += other.spawns;
    }

    /// Element-wise sum of two counts.
    pub fn merged(mut self, other: &OpCounts) -> OpCounts {
        self.add(other);
        self
    }
}

impl std::iter::Sum for OpCounts {
    fn sum<I: Iterator<Item = OpCounts>>(iter: I) -> Self {
        iter.fold(OpCounts::default(), |acc, c| acc.merged(&c))
    }
}

/// Recorder handed to instrumented benchmark code. One per logical thread.
///
/// The methods are deliberately tiny so instrumentation reads like
/// annotations on the computation:
///
/// ```
/// use sthreads::OpRecorder;
/// let mut r = OpRecorder::new();
/// r.load(2);       // read threat position, weapon position
/// r.fp(5);         // distance computation
/// r.int(1);        // loop counter
/// r.store(1);      // write interval
/// assert_eq!(r.counts().instructions(), 9);
/// ```
#[derive(Debug, Default, Clone)]
pub struct OpRecorder {
    counts: OpCounts,
}

impl OpRecorder {
    /// A fresh, all-zero recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` integer ALU operations.
    #[inline]
    pub fn int(&mut self, n: u64) {
        self.counts.int_ops += n;
    }

    /// Record `n` floating-point operations.
    #[inline]
    pub fn fp(&mut self, n: u64) {
        self.counts.fp_ops += n;
    }

    /// Record `n` loads.
    #[inline]
    pub fn load(&mut self, n: u64) {
        self.counts.loads += n;
    }

    /// Record `n` stores.
    #[inline]
    pub fn store(&mut self, n: u64) {
        self.counts.stores += n;
    }

    /// Record `n` streaming loads (large-array, low-reuse).
    #[inline]
    pub fn sload(&mut self, n: u64) {
        self.counts.stream_loads += n;
    }

    /// Record `n` streaming stores (large-array, low-reuse).
    #[inline]
    pub fn sstore(&mut self, n: u64) {
        self.counts.stream_stores += n;
    }

    /// Record `n` synchronization operations.
    #[inline]
    pub fn sync(&mut self, n: u64) {
        self.counts.sync_ops += n;
    }

    /// Record `n` thread spawns.
    #[inline]
    pub fn spawn(&mut self, n: u64) {
        self.counts.spawns += n;
    }

    /// The counts accumulated so far.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }
}

/// Per-logical-thread counts for one parallel region, in thread order.
#[derive(Debug, Default, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ThreadCounts {
    threads: Vec<OpCounts>,
}

impl ThreadCounts {
    /// Wrap per-thread counts (index = logical thread id).
    pub fn new(threads: Vec<OpCounts>) -> Self {
        Self { threads }
    }

    /// Number of logical threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Per-thread counts, thread id order.
    pub fn per_thread(&self) -> &[OpCounts] {
        &self.threads
    }

    /// Sum over all threads.
    pub fn total(&self) -> OpCounts {
        self.threads.iter().copied().sum()
    }

    /// Instruction count of the most-loaded thread — the critical path of a
    /// barrier-terminated parallel region.
    pub fn max_thread_instructions(&self) -> u64 {
        self.threads
            .iter()
            .map(OpCounts::instructions)
            .max()
            .unwrap_or(0)
    }

    /// Makespan imbalance: `n_threads * max_thread / total`, i.e. how much
    /// slower than a perfectly balanced decomposition this one is. 1.0 for
    /// perfect balance or an empty region.
    pub fn imbalance(&self) -> f64 {
        let total = self.total().instructions();
        if total == 0 || self.threads.is_empty() {
            return 1.0;
        }
        self.n_threads() as f64 * self.max_thread_instructions() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(int_ops: u64, loads: u64) -> OpCounts {
        OpCounts {
            int_ops,
            loads,
            ..OpCounts::default()
        }
    }

    #[test]
    fn instruction_and_mem_totals() {
        let ops = OpCounts {
            int_ops: 10,
            fp_ops: 5,
            loads: 3,
            stores: 2,
            stream_loads: 6,
            stream_stores: 4,
            sync_ops: 1,
            spawns: 4,
        };
        assert_eq!(ops.instructions(), 35);
        assert_eq!(ops.mem_ops(), 16);
        assert_eq!(ops.stream_ops(), 10);
        assert_eq!(ops.compute_ops(), 15);
        assert!((ops.mem_fraction() - 16.0 / 35.0).abs() < 1e-12);
        assert!((ops.stream_fraction() - 10.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_have_zero_mem_fraction() {
        assert_eq!(OpCounts::default().mem_fraction(), 0.0);
    }

    #[test]
    fn add_and_sum_accumulate() {
        let total: OpCounts = [c(1, 2), c(3, 4), c(5, 6)].into_iter().sum();
        assert_eq!(total, c(9, 12));
    }

    #[test]
    fn recorder_accumulates_each_category() {
        let mut r = OpRecorder::new();
        r.int(1);
        r.fp(2);
        r.load(3);
        r.store(4);
        r.sload(7);
        r.sstore(8);
        r.sync(5);
        r.spawn(6);
        assert_eq!(
            r.counts(),
            OpCounts {
                int_ops: 1,
                fp_ops: 2,
                loads: 3,
                stores: 4,
                stream_loads: 7,
                stream_stores: 8,
                sync_ops: 5,
                spawns: 6,
            }
        );
    }

    #[test]
    fn per_thread_counts_total_and_max() {
        let tc = ThreadCounts::new((1..=4).map(|t| c(t * 10, 0)).collect());
        assert_eq!(tc.n_threads(), 4);
        assert_eq!(tc.total().int_ops, 100);
        assert_eq!(tc.max_thread_instructions(), 40);
    }

    #[test]
    fn imbalance_of_balanced_region_is_one() {
        let tc = ThreadCounts::new(vec![c(10, 0); 8]);
        assert!((tc.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_straggler() {
        let mut threads = vec![c(10, 0); 3];
        threads.push(c(40, 0)); // straggler: 4 threads, total 70, max 40
        let tc = ThreadCounts::new(threads);
        assert!((tc.imbalance() - 4.0 * 40.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn empty_region_has_unit_imbalance() {
        assert_eq!(ThreadCounts::new(vec![]).imbalance(), 1.0);
        assert_eq!(ThreadCounts::new(vec![]).max_thread_instructions(), 0);
    }
}
