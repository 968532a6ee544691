//! The abstract operation counts, and the recording that produces them.
//!
//! The paper's tables report wall-clock times on four machines we do not
//! have. The reproduction instead *counts the abstract operations* each
//! logical thread of a benchmark performs — integer ops, floating-point
//! ops, loads, stores, synchronization operations, thread spawns — and
//! feeds those counts ([`OpCounts`]) through `eval-core`'s calibrated
//! machine models.
//!
//! The benchmark algorithms are written once, generic over [`Rec`]. With
//! [`NoRec`] every recording call is a no-op the optimizer deletes, so the
//! host-timed variants pay nothing. With an [`OpCounts`] the same code
//! path runs one logical thread at a time and accumulates that thread's
//! counts, so counting needs no atomics and is deterministic.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
///
/// It is also the counting [`Rec`]: instrumentation reads like annotations
/// on the computation.
///
/// ```
/// use c3i::{OpCounts, Rec};
/// let mut r = OpCounts::default();
/// r.load(2); // read threat position, weapon position
/// r.fp(5); // distance computation
/// r.int(1); // loop counter
/// assert_eq!(r.instructions(), 8);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
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

/// Abstract-operation recorder interface. Counts are in units of "machine
/// operations": one `int`/`fp` is one ALU instruction, one `load`/`store`
/// is one word of memory traffic, one `sync` is one synchronized memory
/// operation (full/empty access, fetch-add, or lock transition).
pub trait Rec {
    /// Whether this recorder actually accumulates counts. One thing reads
    /// it: Threat Analysis's pair scan (`threat::intervals_for_pair`),
    /// which skips a pair whose track never comes within weapon range, and
    /// the steps outside the pair's altitude window, only when this is
    /// `false` (the [`NoRec`] timing path). A counting recorder sees every
    /// step, so recorded totals stay exactly those of the reference loop;
    /// the intervals are identical either way. The
    /// harness reads neither instantiation for its op counts — it counts
    /// them (`terrain::op_profile`, `threat::op_profile`) — so the
    /// counting instantiation is the oracle those counters are tested
    /// against.
    const COUNTING: bool = true;
    /// Record `n` integer ALU operations.
    fn int(&mut self, n: u64);
    /// Record `n` floating-point operations.
    fn fp(&mut self, n: u64);
    /// Record `n` memory loads.
    fn load(&mut self, n: u64);
    /// Record `n` streaming loads over large, low-reuse arrays.
    fn sload(&mut self, n: u64);
    /// Record `n` streaming stores over large, low-reuse arrays.
    fn sstore(&mut self, n: u64);
    /// Record `n` synchronization operations.
    fn sync(&mut self, n: u64);
}

/// The zero-cost recorder used by the host-timed benchmark variants.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRec;

impl Rec for NoRec {
    const COUNTING: bool = false;
    #[inline(always)]
    fn int(&mut self, _n: u64) {}
    #[inline(always)]
    fn fp(&mut self, _n: u64) {}
    #[inline(always)]
    fn load(&mut self, _n: u64) {}
    #[inline(always)]
    fn sload(&mut self, _n: u64) {}
    #[inline(always)]
    fn sstore(&mut self, _n: u64) {}
    #[inline(always)]
    fn sync(&mut self, _n: u64) {}
}

impl Rec for OpCounts {
    #[inline]
    fn int(&mut self, n: u64) {
        self.int_ops += n;
    }
    #[inline]
    fn fp(&mut self, n: u64) {
        self.fp_ops += n;
    }
    #[inline]
    fn load(&mut self, n: u64) {
        self.loads += n;
    }
    #[inline]
    fn sload(&mut self, n: u64) {
        self.stream_loads += n;
    }
    #[inline]
    fn sstore(&mut self, n: u64) {
        self.stream_stores += n;
    }
    #[inline]
    fn sync(&mut self, n: u64) {
        self.sync_ops += n;
    }
}

/// The operation profile of one benchmark run: a serial phase (input setup,
/// result initialization the paper's programs perform on one thread) and a
/// parallel region with per-logical-thread counts.
#[derive(Debug, Default, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Profile {
    /// Work performed before/after the parallel region on a single thread.
    pub serial: OpCounts,
    /// Per-logical-thread work inside the parallel region. For sequential
    /// programs this holds exactly one logical thread.
    pub parallel: Vec<OpCounts>,
}

impl Profile {
    /// A purely sequential profile (the whole program is the serial phase
    /// plus a single-thread "region" holding the main computation).
    pub fn sequential(serial: OpCounts, main: OpCounts) -> Self {
        Self {
            serial,
            parallel: vec![main],
        }
    }

    /// Sum of all operations in the run.
    pub fn total(&self) -> OpCounts {
        self.serial.merged(&self.parallel.iter().copied().sum())
    }
}

/// One flat-parallel inner loop: `width` independent iterations performing
/// `ops` in total. The fine-grained Terrain Masking variant is a sequence
/// of these (one per ring of the masking recurrence, plus the bulk
/// copy/merge loops), separated by barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ParallelPhase {
    /// Number of independent iterations available to run concurrently.
    pub width: u64,
    /// Total operations across the whole phase.
    pub ops: OpCounts,
}

/// The operation profile of a fine-grained (inner-loop parallel) program:
/// a serial phase plus an ordered sequence of barrier-separated parallel
/// phases. The machine models charge each phase at the concurrency its
/// `width` supports — this is what makes narrow rings limit the Tera's
/// two-processor speedup (Table 11).
///
/// A paper scenario runs ≈ 4,700 phases but only ≈ 500 distinct ones:
/// threats of one radius and clipping repeat the same rings and bulk
/// loops. So each distinct phase is held once and the run order as
/// indices into them, and a model can evaluate one term per distinct
/// phase and still add the terms in run order.
#[derive(Debug, Default, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhasedProfile {
    /// Work performed on a single thread outside the parallel phases.
    pub serial: OpCounts,
    /// Each distinct phase once, in order of first appearance.
    distinct: Vec<ParallelPhase>,
    /// The barrier-separated phases in execution order, as indices into
    /// `distinct`.
    order: Vec<u32>,
}

impl PhasedProfile {
    /// The profile of `serial` work and `phases` in execution order.
    pub fn new(serial: OpCounts, phases: impl IntoIterator<Item = ParallelPhase>) -> Self {
        let mut index = HashMap::<_, _, BuildHasherDefault<PhaseHasher>>::default();
        let mut distinct = Vec::new();
        let order = phases
            .into_iter()
            .map(|phase| {
                *index.entry(phase).or_insert_with(|| {
                    distinct.push(phase);
                    u32::try_from(distinct.len() - 1).expect("distinct phases fit in u32")
                })
            })
            .collect();
        Self {
            serial,
            distinct,
            order,
        }
    }

    /// Each distinct phase once, in order of first appearance.
    pub fn distinct(&self) -> &[ParallelPhase] {
        &self.distinct
    }

    /// The phases in execution order, as indices into [`Self::distinct`].
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The phases in execution order.
    pub fn phases(&self) -> impl ExactSizeIterator<Item = ParallelPhase> + '_ {
        self.order.iter().map(|&i| self.distinct[i as usize])
    }

    /// Sum of all operations in the run.
    pub fn total(&self) -> OpCounts {
        self.phases().fold(self.serial, |acc, p| acc.merged(&p.ops))
    }
}

/// The Fx multiply-rotate hash, for [`PhasedProfile::new`]'s index of
/// distinct phases: the keys are counts, not adversarial input, and
/// SipHash made the index the larger part of building a profile.
#[derive(Default)]
struct PhaseHasher(u64);

impl Hasher for PhaseHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(u64::from(*b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(int_ops: u64) -> OpCounts {
        OpCounts {
            int_ops,
            ..OpCounts::default()
        }
    }

    #[test]
    fn norec_is_a_noop() {
        let mut r = NoRec;
        r.int(5);
        r.fp(5);
        r.load(5);
        r.sync(5);
        // NoRec carries no state; the assertion is that this compiles and
        // the generic algorithms can be instantiated with it.
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
        let c = |int_ops, loads| OpCounts {
            int_ops,
            loads,
            ..OpCounts::default()
        };
        let total: OpCounts = [c(1, 2), c(3, 4), c(5, 6)].into_iter().sum();
        assert_eq!(total, c(9, 12));
    }

    #[test]
    fn recorder_accumulates_each_category() {
        let mut r = OpCounts::default();
        r.int(1);
        r.fp(2);
        r.load(3);
        r.sload(7);
        r.sstore(8);
        r.sync(5);
        assert_eq!(
            r,
            OpCounts {
                int_ops: 1,
                fp_ops: 2,
                loads: 3,
                stream_loads: 7,
                stream_stores: 8,
                sync_ops: 5,
                ..OpCounts::default()
            }
        );
    }

    #[test]
    fn profile_total_includes_serial_and_parallel() {
        let p = Profile {
            serial: ops(10),
            parallel: vec![ops(5), ops(7)],
        };
        assert_eq!(p.total().int_ops, 22);
    }

    #[test]
    fn sequential_profile_has_one_logical_thread() {
        let p = Profile::sequential(ops(1), ops(100));
        assert_eq!(p.parallel.len(), 1);
        assert_eq!(p.total().int_ops, 101);
    }

    #[test]
    fn phased_profile_holds_each_distinct_phase_once() {
        let a = ParallelPhase {
            width: 10,
            ops: ops(100),
        };
        let b = ParallelPhase {
            width: 40,
            ops: ops(300),
        };
        let p = PhasedProfile::new(ops(5), [a, b, a]);
        assert_eq!(p.total().int_ops, 505);
        assert_eq!(p.distinct(), [a, b]);
        assert_eq!(p.order(), [0, 1, 0]);
        assert_eq!(p.phases().collect::<Vec<_>>(), [a, b, a]);
        assert_eq!(PhasedProfile::default().total(), OpCounts::default());
    }
}
