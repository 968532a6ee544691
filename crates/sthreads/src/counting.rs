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
/// assert_eq!(r.counts().instructions(), 8);
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

    /// Per-thread counts, thread id order.
    pub fn per_thread(&self) -> &[OpCounts] {
        &self.threads
    }

    /// Sum over all threads.
    pub fn total(&self) -> OpCounts {
        self.threads.iter().copied().sum()
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
                stream_loads: 7,
                stream_stores: 8,
                sync_ops: 5,
                spawns: 6,
                ..OpCounts::default()
            }
        );
    }

    #[test]
    fn per_thread_counts_total() {
        let tc = ThreadCounts::new((1..=4).map(|t| c(t * 10, 0)).collect());
        assert_eq!(tc.per_thread().len(), 4);
        assert_eq!(tc.total().int_ops, 100);
    }
}
